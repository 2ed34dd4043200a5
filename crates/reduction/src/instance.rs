//! Instances bound to a hypergraph: query + database with the atom ↔ edge
//! bijection the reduction needs.

use cqd2_cq::{ConjunctiveQuery, Database};
use cqd2_hypergraph::Hypergraph;

/// A BCQ/#CQ instance whose query's atoms correspond one-to-one to the
/// edges of a hypergraph (atom `i` ↔ edge `i`, arguments = edge vertices
/// in sorted order, variable `j` ↔ vertex `j`).
///
/// This is the *canonical* shape the Theorem 3.4 reduction operates on;
/// arbitrary self-join-free instances are brought into it by
/// [`crate::selfjoin::eliminate_self_joins`] plus renaming.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The query.
    pub query: ConjunctiveQuery,
    /// The database.
    pub db: Database,
}

impl Instance {
    /// The canonical query for `h` with relation names `prefix{edge}`,
    /// and the provided database (whose relations must use the same
    /// names).
    pub fn canonical(h: &Hypergraph, db: Database, prefix: &str) -> Instance {
        let var_names: Vec<String> = h
            .vertices()
            .map(|v| h.vertex_name(v).trim_start_matches('?').to_string())
            .collect();
        let atoms = h
            .edge_ids()
            .map(|e| cqd2_cq::Atom {
                relation: format!("{prefix}{}", e.idx()),
                terms: h
                    .edge(e)
                    .iter()
                    .map(|&v| cqd2_cq::Term::Var(cqd2_cq::Var(v.0)))
                    .collect(),
            })
            .collect();
        Instance {
            query: ConjunctiveQuery { atoms, var_names },
            db,
        }
    }

    /// Check the binding invariant against `h`.
    pub fn is_bound_to(&self, h: &Hypergraph) -> bool {
        if self.query.atoms.len() != h.num_edges() {
            return false;
        }
        if self.query.num_vars() != h.num_vertices() {
            return false;
        }
        for (i, atom) in self.query.atoms.iter().enumerate() {
            let edge: Vec<u32> = h
                .edge(cqd2_hypergraph::EdgeId(i as u32))
                .iter()
                .map(|v| v.0)
                .collect();
            let terms: Option<Vec<u32>> = atom
                .terms
                .iter()
                .map(|t| match t {
                    cqd2_cq::Term::Var(v) => Some(v.0),
                    cqd2_cq::Term::Const(_) => None,
                })
                .collect();
            if terms.as_deref() != Some(edge.as_slice()) {
                return false;
            }
        }
        true
    }

    /// Database size in total cells (`Σ arity × |tuples|`), the `‖D‖`
    /// measure the reduction's blowup bounds speak about.
    pub fn db_weight(&self) -> usize {
        self.db
            .relations()
            .map(|(_, r)| r.tuples.data().len())
            .sum()
    }

    /// Largest constant in the database (fresh-constant allocation).
    pub fn max_constant(&self) -> u64 {
        self.db
            .relations()
            .flat_map(|(_, r)| r.tuples.data().iter().copied())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2_cq::generate::random_database;
    use cqd2_hypergraph::generators::hyperchain;

    #[test]
    fn canonical_binding() {
        let h = hyperchain(3, 3);
        let q = Instance::canonical(&h, Database::new(), "E");
        assert!(q.is_bound_to(&h));
        assert_eq!(q.query.atoms.len(), 3);
        assert!(q.query.is_self_join_free());
    }

    #[test]
    fn weight_and_constants() {
        let h = hyperchain(2, 2);
        let tmp = Instance::canonical(&h, Database::new(), "E");
        let db = random_database(&tmp.query, 50, 10, 1);
        let inst = Instance::canonical(&h, db, "E");
        assert!(inst.db_weight() > 0);
        assert!(inst.max_constant() < 50);
    }
}
