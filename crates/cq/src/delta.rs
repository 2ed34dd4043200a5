//! The delta kernel: apply batches of fact inserts/deletes to a
//! [`Database`] by **structural sharing**.
//!
//! A [`DatabaseDelta`] names tuples to add and remove per relation.
//! [`Database::apply_delta`] reduces each named relation's insert/delete
//! lists to the changes that are real against its stored rows
//! (`O(d log n)` binary searches), then merges them into the relation's
//! sorted-distinct buffer in one `O(n + d)` pass that copies row slices
//! into **one** output buffer — no row is rebuilt or cloned on its own.
//! The result is a *new* database in which every untouched relation is
//! the **same** [`std::sync::Arc`]`<StoredRelation>` as in the base —
//! `Arc::ptr_eq` holds — so the cost of a small delta is proportional to
//! the relations it touches, never to the database.
//!
//! Semantics, fixed and documented here:
//! - deltas modify *existing* relations; naming an unknown relation is
//!   a typed [`DeltaError::UnknownRelation`], never an implicit schema
//!   change (the serving epoch stays put);
//! - inserting a tuple that is already present, or deleting one that is
//!   absent, is a no-op (and not counted in the outcome);
//! - a tuple listed in both the inserts and the deletes of one batch is
//!   **absent** afterwards — deletes win within a batch;
//! - a relation whose merged contents equal its base contents keeps its
//!   base `Arc` (the delta did not "touch" it).

use std::collections::BTreeMap;

use crate::database::{Database, StoredRelation};
use crate::flat::FlatRelation;

/// Pending changes to one relation: tuples to add and tuples to remove.
/// Order and duplicates are irrelevant — both lists are sorted and
/// deduplicated at apply time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Tuples to insert (already-present tuples are no-ops).
    pub inserts: Vec<Vec<u64>>,
    /// Tuples to delete (absent tuples are no-ops; deletes win over
    /// inserts of the same tuple in the same batch).
    pub deletes: Vec<Vec<u64>>,
}

impl RelationDelta {
    /// No pending changes at all?
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// A batch of fact changes across relations — the unit the update
/// plane applies and publishes as one new epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseDelta {
    relations: BTreeMap<String, RelationDelta>,
}

impl DatabaseDelta {
    /// An empty batch.
    pub fn new() -> DatabaseDelta {
        DatabaseDelta::default()
    }

    /// Queue `tuple` for insertion into `relation`.
    pub fn insert(&mut self, relation: &str, tuple: Vec<u64>) {
        self.relations
            .entry(relation.to_string())
            .or_default()
            .inserts
            .push(tuple);
    }

    /// Queue `tuple` for deletion from `relation`.
    pub fn delete(&mut self, relation: &str, tuple: Vec<u64>) {
        self.relations
            .entry(relation.to_string())
            .or_default()
            .deletes
            .push(tuple);
    }

    /// Iterate over `(relation, pending changes)` pairs, in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &RelationDelta)> {
        self.relations.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// No changes queued at all?
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(RelationDelta::is_empty)
    }

    /// Queued fact counts `(inserts, deletes)` — the *requested* sizes,
    /// before no-op collapsing.
    pub fn fact_counts(&self) -> (usize, usize) {
        self.relations.values().fold((0, 0), |(i, d), rel| {
            (i + rel.inserts.len(), d + rel.deletes.len())
        })
    }
}

/// Why a delta was rejected. The base database is untouched on every
/// error — rejection happens before anything is published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta names a relation the database does not have. Deltas
    /// change data, never schema.
    UnknownRelation(String),
    /// A delta tuple's length does not match the relation's arity.
    ArityMismatch {
        /// The relation the tuple was destined for.
        relation: String,
        /// The relation's declared arity.
        expected: usize,
        /// The tuple's actual length.
        got: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownRelation(name) => {
                write!(f, "delta names unknown relation `{name}`")
            }
            DeltaError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "delta tuple for `{relation}` has {got} terms but the relation has arity {expected}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The outcome of [`Database::apply_delta`]: the new database plus an
/// account of what actually changed.
#[derive(Debug, Clone)]
pub struct DeltaApplied {
    /// The new database. Untouched relations are `Arc`-shared with the
    /// base; touched relations are fresh.
    pub db: Database,
    /// Names of the relations whose contents actually changed, in name
    /// order.
    pub touched: Vec<String>,
    /// Facts newly present (inserts that were not already there and
    /// were not re-deleted by the same batch).
    pub inserted: usize,
    /// Facts actually removed.
    pub deleted: usize,
}

/// Merge one relation's rows with its pending inserts and deletes into
/// one output buffer, sorted and distinct by construction. The lists
/// are first reduced to the changes that are *real* against `base`
/// (binary searches): `adds` are absent from the base and not deleted by
/// the same batch, `dels` are present in it. Then one forward pass of
/// three cursors over row slices copies the surviving rows — no per-row
/// allocation. Returns `None` when nothing real remains (the relation
/// is untouched and keeps its `Arc`), else the new relation plus the
/// `(inserted, deleted)` counts.
fn merge_relation(
    base: &FlatRelation,
    delta: &RelationDelta,
) -> Option<(FlatRelation, usize, usize)> {
    fn sorted(list: &[Vec<u64>]) -> Vec<&[u64]> {
        let mut rows: Vec<&[u64]> = list.iter().map(Vec::as_slice).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
    let mut dels = sorted(&delta.deletes);
    let mut adds = sorted(&delta.inserts);
    // Deletes win within a batch, and insert-then-delete of a tuple the
    // base never had is no change at all.
    adds.retain(|t| base.search(t).is_err() && dels.binary_search(t).is_err());
    dels.retain(|t| base.search(t).is_ok());
    if adds.is_empty() && dels.is_empty() {
        return None;
    }
    let rows = base.len() + adds.len() - dels.len();
    let mut out: Vec<u64> = Vec::with_capacity(rows * base.arity());
    let (mut ai, mut di) = (0, 0);
    for row in base.iter() {
        while ai < adds.len() && adds[ai] < row {
            out.extend_from_slice(adds[ai]);
            ai += 1;
        }
        if dels.get(di) == Some(&row) {
            di += 1;
        } else {
            out.extend_from_slice(row);
        }
    }
    for add in &adds[ai..] {
        out.extend_from_slice(add);
    }
    let merged = FlatRelation::from_parts(base.vars().to_vec(), rows, out);
    Some((merged, adds.len(), dels.len()))
}

impl Database {
    /// Apply `delta`, producing a new database that shares every
    /// untouched relation's `Arc` with `self` (see the module docs for
    /// the exact semantics). `self` is never modified; on `Err` nothing
    /// is produced at all.
    pub fn apply_delta(&self, delta: &DatabaseDelta) -> Result<DeltaApplied, DeltaError> {
        // Validate the whole batch before building anything: a rejected
        // delta must leave no partial work behind.
        let mut work = Vec::new();
        for (name, rel_delta) in delta.relations() {
            let Some(base) = self.relation(name) else {
                return Err(DeltaError::UnknownRelation(name.to_string()));
            };
            for tuple in rel_delta.inserts.iter().chain(&rel_delta.deletes) {
                if tuple.len() != base.arity {
                    return Err(DeltaError::ArityMismatch {
                        relation: name.to_string(),
                        expected: base.arity,
                        got: tuple.len(),
                    });
                }
            }
            work.push((name, base, rel_delta));
        }
        // The clone bumps one `Arc` per relation; only relations a merge
        // really changes are replaced.
        let mut db = self.clone();
        let mut touched = Vec::new();
        let (mut inserted, mut deleted) = (0usize, 0usize);
        for (name, base, rel_delta) in work {
            if let Some((tuples, ins, del)) = merge_relation(&base.tuples, rel_delta) {
                touched.push(name.to_string());
                inserted += ins;
                deleted += del;
                let arity = base.arity;
                db.install(name, StoredRelation { arity, tuples });
            }
        }
        Ok(DeltaApplied {
            db,
            touched,
            inserted,
            deleted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn base() -> Database {
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![3, 4]]);
        db.insert_all("S", &[vec![10], vec![20]]);
        db.insert_all("T", &[vec![7, 7, 7]]);
        db
    }

    #[test]
    fn untouched_relations_share_arcs() {
        let db = base();
        let mut delta = DatabaseDelta::new();
        delta.insert("R", vec![5, 6]);
        let out = db.apply_delta(&delta).unwrap();
        assert_eq!(out.touched, vec!["R".to_string()]);
        assert_eq!((out.inserted, out.deleted), (1, 0));
        // The touched relation is fresh; the other two are the same
        // allocation as the base.
        assert!(!Arc::ptr_eq(
            db.relation_arc("R").unwrap(),
            out.db.relation_arc("R").unwrap()
        ));
        for name in ["S", "T"] {
            assert!(Arc::ptr_eq(
                db.relation_arc(name).unwrap(),
                out.db.relation_arc(name).unwrap()
            ));
        }
        assert_eq!(
            out.db.relation("R").unwrap().tuples.to_tuples(),
            vec![vec![1, 2], vec![3, 4], vec![5, 6]]
        );
        // The base is untouched.
        assert_eq!(db.relation("R").unwrap().tuples.len(), 2);
    }

    #[test]
    fn delta_matches_rebuilt_database() {
        let db = base();
        let mut delta = DatabaseDelta::new();
        delta.insert("R", vec![0, 0]);
        delta.insert("R", vec![9, 9]);
        delta.delete("R", vec![3, 4]);
        delta.delete("S", vec![10]);
        let out = db.apply_delta(&delta).unwrap();
        let mut rebuilt = Database::new();
        rebuilt.insert_all("R", &[vec![0, 0], vec![1, 2], vec![9, 9]]);
        rebuilt.insert_all("S", &[vec![20]]);
        rebuilt.insert_all("T", &[vec![7, 7, 7]]);
        assert_eq!(out.db, rebuilt);
        assert_eq!((out.inserted, out.deleted), (2, 2));
        assert_eq!(out.touched, vec!["R".to_string(), "S".to_string()]);
    }

    #[test]
    fn noop_changes_keep_every_arc() {
        let db = base();
        let mut delta = DatabaseDelta::new();
        delta.insert("R", vec![1, 2]); // already present
        delta.delete("R", vec![8, 8]); // absent
        delta.insert("S", vec![30]);
        delta.delete("S", vec![30]); // deletes win: net no-op
        let out = db.apply_delta(&delta).unwrap();
        assert!(out.touched.is_empty());
        assert_eq!((out.inserted, out.deleted), (0, 0));
        for name in ["R", "S", "T"] {
            assert!(Arc::ptr_eq(
                db.relation_arc(name).unwrap(),
                out.db.relation_arc(name).unwrap()
            ));
        }
        assert_eq!(out.db, db);
    }

    #[test]
    fn deletes_win_over_inserts_but_only_on_present_tuples() {
        let db = base();
        let mut delta = DatabaseDelta::new();
        // Present tuple inserted *and* deleted: ends absent, counts as
        // one deletion.
        delta.insert("R", vec![1, 2]);
        delta.delete("R", vec![1, 2]);
        let out = db.apply_delta(&delta).unwrap();
        assert_eq!((out.inserted, out.deleted), (0, 1));
        assert_eq!(
            out.db.relation("R").unwrap().tuples.to_tuples(),
            vec![vec![3, 4]]
        );
    }

    #[test]
    fn duplicate_queued_tuples_collapse() {
        let db = base();
        let mut delta = DatabaseDelta::new();
        delta.insert("S", vec![30]);
        delta.insert("S", vec![30]);
        delta.delete("S", vec![10]);
        delta.delete("S", vec![10]);
        let out = db.apply_delta(&delta).unwrap();
        assert_eq!((out.inserted, out.deleted), (1, 1));
        assert_eq!(
            out.db.relation("S").unwrap().tuples.to_tuples(),
            vec![vec![20], vec![30]]
        );
        assert_eq!(delta.fact_counts(), (2, 2));
    }

    #[test]
    fn unknown_relation_and_arity_mismatch_are_typed() {
        let db = base();
        let mut delta = DatabaseDelta::new();
        delta.insert("Nope", vec![1]);
        match db.apply_delta(&delta) {
            Err(DeltaError::UnknownRelation(name)) => assert_eq!(name, "Nope"),
            other => panic!("{other:?}"),
        }
        let mut delta = DatabaseDelta::new();
        delta.insert("R", vec![1, 2, 3]);
        match db.apply_delta(&delta) {
            Err(DeltaError::ArityMismatch {
                relation,
                expected: 2,
                got: 3,
            }) => assert_eq!(relation, "R"),
            other => panic!("{other:?}"),
        }
        // Deletes are validated too.
        let mut delta = DatabaseDelta::new();
        delta.delete("T", vec![7]);
        assert!(matches!(
            db.apply_delta(&delta),
            Err(DeltaError::ArityMismatch {
                expected: 3,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn empty_delta_is_identity() {
        let db = base();
        let out = db.apply_delta(&DatabaseDelta::new()).unwrap();
        assert_eq!(out.db, db);
        assert!(out.touched.is_empty());
        assert!(DatabaseDelta::new().is_empty());
    }

    #[test]
    fn emptying_a_relation_keeps_its_schema() {
        let db = base();
        let mut delta = DatabaseDelta::new();
        delta.delete("T", vec![7, 7, 7]);
        let out = db.apply_delta(&delta).unwrap();
        let t = out.db.relation("T").unwrap();
        assert_eq!(t.arity, 3);
        assert!(t.tuples.is_empty());
        // A second delta can still target it.
        let mut delta = DatabaseDelta::new();
        delta.insert("T", vec![1, 2, 3]);
        let again = out.db.apply_delta(&delta).unwrap();
        assert_eq!(
            again.db.relation("T").unwrap().tuples.to_tuples(),
            vec![vec![1, 2, 3]]
        );
    }
}
