//! Data statistics: per-relation cardinalities and per-column distinct
//! counts, plus the selectivity-based join cardinality estimator the
//! planner's cost model consumes.
//!
//! The structural planner (`cqd2-engine`) is database-independent — its
//! analysis is cached per isomorphism class. These statistics are the
//! *data side* of the cost model: [`Database::stats`] snapshots what the
//! kernel would otherwise throw away (how many tuples, how selective
//! each column is), and [`estimate_join_rows`] turns that into System-R
//! style cardinality estimates — `|R ⋈ S| ≈ |R|·|S| / max(d_R(v), d_S(v))`
//! per shared variable `v`, with constants and repeated variables
//! contributing `1/d` factors of their column's distinct count.

use crate::database::Database;
use crate::query::{Atom, Term, Var};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Statistics of one stored relation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RelationStats {
    /// Number of (distinct) tuples.
    pub cardinality: usize,
    /// Distinct values per column (`distinct.len()` = arity).
    pub distinct: Vec<usize>,
}

impl RelationStats {
    /// Collect statistics of one stored relation: one strided scan of
    /// the row-major buffer per column. This is the delta path's unit of
    /// work: after a delta, only the touched relations are re-collected
    /// and the rest of the snapshot's per-relation statistics are reused
    /// as-is.
    pub fn collect(rel: &crate::database::StoredRelation) -> RelationStats {
        let mut distinct = Vec::with_capacity(rel.arity);
        for col in 0..rel.arity {
            let column = rel.tuples.data().iter().skip(col).step_by(rel.arity);
            let values: HashSet<u64> = column.copied().collect();
            distinct.push(values.len());
        }
        RelationStats {
            cardinality: rel.tuples.len(),
            distinct,
        }
    }
}

/// A statistics snapshot of a whole database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DatabaseStats {
    relations: BTreeMap<String, RelationStats>,
    total_tuples: usize,
}

impl DatabaseStats {
    /// Collect statistics from `db` (one pass per relation).
    pub fn collect(db: &Database) -> DatabaseStats {
        let mut relations = BTreeMap::new();
        let mut total_tuples = 0;
        for (name, rel) in db.relations() {
            total_tuples += rel.tuples.len();
            relations.insert(name.to_string(), RelationStats::collect(rel));
        }
        DatabaseStats {
            relations,
            total_tuples,
        }
    }

    /// Reassemble a snapshot from persisted per-relation statistics
    /// (the snapshot store's load path: statistics are computed once at
    /// save time and carried in the file, so publishing a loaded
    /// database skips the `O(‖D‖)` collection pass entirely).
    /// `total_tuples` is recomputed from the cardinalities, so it can
    /// never disagree with the parts.
    pub fn from_parts(relations: BTreeMap<String, RelationStats>) -> DatabaseStats {
        let total_tuples = relations.values().map(|r| r.cardinality).sum();
        DatabaseStats {
            relations,
            total_tuples,
        }
    }

    /// Statistics for the post-delta database `db`, derived from this
    /// (pre-delta, full) snapshot by re-collecting **only** the
    /// relations in `touched` (sorted, as
    /// [`crate::delta::DeltaApplied::touched`] yields them) and reusing
    /// every other relation's statistics as-is. Relations this snapshot
    /// never saw are collected fresh, and relations no longer in `db`
    /// are dropped, so the result always describes exactly `db`.
    pub fn updated_for(&self, db: &Database, touched: &[String]) -> DatabaseStats {
        let mut relations = BTreeMap::new();
        for (name, rel) in db.relations() {
            let is_touched = touched.binary_search_by(|t| t.as_str().cmp(name)).is_ok();
            let stats = match self.relation(name) {
                Some(existing) if !is_touched => existing.clone(),
                _ => RelationStats::collect(rel),
            };
            relations.insert(name.to_string(), stats);
        }
        DatabaseStats::from_parts(relations)
    }

    /// Iterate over `(name, statistics)` pairs, in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &RelationStats)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Statistics of one relation, if present.
    pub fn relation(&self, name: &str) -> Option<&RelationStats> {
        self.relations.get(name)
    }

    /// Total number of tuples across the collected relations (`‖D‖` up
    /// to constant factors).
    pub fn total_tuples(&self) -> usize {
        self.total_tuples
    }
}

impl Database {
    /// Snapshot per-relation cardinality and per-column distinct-count
    /// statistics (see [`DatabaseStats`]).
    pub fn stats(&self) -> DatabaseStats {
        DatabaseStats::collect(self)
    }
}

/// Estimated number of rows in the natural join of `atoms` under
/// `stats`.
///
/// System-R style: the estimate starts from the product of relation
/// cardinalities; every *re*-occurrence of a variable (across atoms or
/// within one) divides by the largest distinct count seen for it, and
/// every constant divides by its column's distinct count. An atom whose
/// relation is missing or empty makes the join empty.
pub fn estimate_join_rows<'a, I>(atoms: I, stats: &DatabaseStats) -> f64
where
    I: IntoIterator<Item = &'a Atom>,
{
    let mut rows = 1.0f64;
    let mut seen: HashMap<Var, f64> = HashMap::new();
    for atom in atoms {
        let Some(rs) = stats.relation(&atom.relation) else {
            return 0.0;
        };
        if rs.cardinality == 0 {
            return 0.0;
        }
        rows *= rs.cardinality as f64;
        for (i, term) in atom.terms.iter().enumerate() {
            let d_col = rs.distinct.get(i).copied().unwrap_or(1).max(1) as f64;
            match term {
                Term::Const(_) => rows /= d_col,
                Term::Var(v) => match seen.get(v).copied() {
                    Some(prev) => {
                        let m = prev.max(d_col);
                        rows /= m;
                        seen.insert(*v, m);
                    }
                    None => {
                        seen.insert(*v, d_col);
                    }
                },
            }
        }
    }
    rows.max(0.0)
}

/// Worst-case cost model of the naive backtracking join: the product of
/// the atom relation cardinalities (what the backtracker can touch with
/// no pruning). Missing or empty relations make it 0 — the backtracker
/// bails out immediately on those.
pub fn estimate_naive_cost<'a, I>(atoms: I, stats: &DatabaseStats) -> f64
where
    I: IntoIterator<Item = &'a Atom>,
{
    let mut cost = 1.0f64;
    for atom in atoms {
        match stats.relation(&atom.relation) {
            Some(rs) if rs.cardinality > 0 => cost *= rs.cardinality as f64,
            _ => return 0.0,
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ConjunctiveQuery;

    fn fixture() -> Database {
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 10], vec![1, 11], vec![2, 12], vec![3, 12]]);
        db.insert_all("S", &[vec![10, 5], vec![11, 5]]);
        db
    }

    #[test]
    fn collects_cardinality_and_distinct_counts() {
        let stats = fixture().stats();
        let r = stats.relation("R").unwrap();
        assert_eq!(r.cardinality, 4);
        assert_eq!(r.distinct, vec![3, 3]);
        let s = stats.relation("S").unwrap();
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.distinct, vec![2, 1]);
        assert_eq!(stats.total_tuples(), 6);
        assert!(stats.relation("T").is_none());
    }

    #[test]
    fn from_parts_rebuilds_a_collected_snapshot() {
        let collected = fixture().stats();
        let parts: BTreeMap<String, RelationStats> = collected
            .relations()
            .map(|(n, r)| (n.to_string(), r.clone()))
            .collect();
        let rebuilt = DatabaseStats::from_parts(parts);
        assert_eq!(rebuilt, collected);
        assert_eq!(rebuilt.total_tuples(), 6);
    }

    #[test]
    fn join_estimate_uses_distinct_counts() {
        let db = fixture();
        let stats = db.stats();
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        // |R|·|S| / max(d_R(y), d_S(y)) = 4·2 / 3.
        let est = estimate_join_rows(q.atoms.iter(), &stats);
        assert!((est - 8.0 / 3.0).abs() < 1e-9, "estimate {est}");
        // Single-atom estimate is the cardinality.
        let single = estimate_join_rows(q.atoms.iter().take(1), &stats);
        assert_eq!(single, 4.0);
    }

    #[test]
    fn constants_and_repeats_shrink_the_estimate() {
        let db = fixture();
        let stats = db.stats();
        let constant = ConjunctiveQuery::parse(&[("R", &["?x", "12"])]);
        let est = estimate_join_rows(constant.atoms.iter(), &stats);
        assert!((est - 4.0 / 3.0).abs() < 1e-9, "estimate {est}");
        let repeated = ConjunctiveQuery::parse(&[("R", &["?x", "?x"])]);
        let est = estimate_join_rows(repeated.atoms.iter(), &stats);
        assert!(est < 4.0, "repeat must be selective, got {est}");
    }

    #[test]
    fn empty_or_missing_relations_estimate_zero() {
        let db = fixture();
        let stats = db.stats();
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("T", &["?y"])]);
        assert_eq!(estimate_join_rows(q.atoms.iter(), &stats), 0.0);
        assert_eq!(estimate_naive_cost(q.atoms.iter(), &stats), 0.0);
    }

    #[test]
    fn unrelated_relations_leave_the_join_estimate_unchanged() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        let before = fixture().stats();
        let mut db = fixture();
        db.insert_all("Huge", &[vec![1], vec![2], vec![3], vec![4]]);
        let after = db.stats();
        assert_eq!(after.total_tuples(), before.total_tuples() + 4);
        assert_eq!(
            estimate_join_rows(q.atoms.iter(), &after),
            estimate_join_rows(q.atoms.iter(), &before)
        );
    }

    #[test]
    fn naive_cost_is_cardinality_product() {
        let db = fixture();
        let stats = db.stats();
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        assert_eq!(estimate_naive_cost(q.atoms.iter(), &stats), 8.0);
    }
}
