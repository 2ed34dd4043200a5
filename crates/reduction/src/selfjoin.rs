//! Self-join elimination (the preprocessing step of Theorem 3.4's proof).
//!
//! Duplicate relation symbols are split into fresh per-atom symbols whose
//! relations are copies of the original — the query's hypergraph and
//! answer set are unchanged.

use cqd2_cq::{ConjunctiveQuery, Database};

/// Split self-joins: returns an equivalent self-join-free `(q', D')` with
/// the same hypergraph and the same answers.
pub fn eliminate_self_joins(q: &ConjunctiveQuery, db: &Database) -> (ConjunctiveQuery, Database) {
    let mut q2 = q.clone();
    let mut db2 = Database::new();
    for (i, atom) in q2.atoms.iter_mut().enumerate() {
        let fresh = format!("{}__sj{}", atom.relation, i);
        if let Some(rel) = db.relation(&atom.relation) {
            for t in rel.tuples.iter() {
                db2.insert(&fresh, t);
            }
        }
        atom.relation = fresh;
    }
    (q2, db2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2_cq::eval::{count_naive, enumerate_naive};

    #[test]
    fn answers_preserved() {
        let q = ConjunctiveQuery::parse(&[("E", &["?x", "?y"]), ("E", &["?y", "?z"])]);
        let mut db = Database::new();
        db.insert_all("E", &[vec![1, 2], vec![2, 3], vec![3, 1]]);
        let (q2, db2) = eliminate_self_joins(&q, &db);
        assert!(q2.is_self_join_free());
        assert_eq!(enumerate_naive(&q, &db), enumerate_naive(&q2, &db2));
        assert_eq!(count_naive(&q, &db), count_naive(&q2, &db2));
    }

    #[test]
    fn hypergraph_unchanged() {
        let q = ConjunctiveQuery::parse(&[("E", &["?x", "?y"]), ("E", &["?y", "?x"])]);
        let db = Database::new();
        let (q2, _) = eliminate_self_joins(&q, &db);
        assert!(cqd2_hypergraph::are_isomorphic(
            &q.hypergraph(),
            &q2.hypergraph()
        ));
    }

    #[test]
    fn missing_relations_tolerated() {
        let q = ConjunctiveQuery::parse(&[("E", &["?x", "?y"])]);
        let db = Database::new();
        let (q2, db2) = eliminate_self_joins(&q, &db);
        assert!(db2.relation(&q2.atoms[0].relation).is_none());
    }
}
