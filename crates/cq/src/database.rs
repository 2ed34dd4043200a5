//! Databases: sets of ground relational atoms, stored per relation.
//!
//! Relations are held behind [`Arc`]s so snapshots produced by the
//! delta kernel ([`crate::delta`]) share untouched relations
//! structurally: applying a small batch of fact changes to one relation
//! clones one `Arc` per *untouched* relation and rebuilds only the
//! touched ones.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A stored relation: a set of tuples of a fixed arity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StoredRelation {
    /// Arity (all tuples have this length).
    pub arity: usize,
    /// Distinct tuples in lexicographic order (see [`Database::insert`]).
    pub tuples: Vec<Vec<u64>>,
}

/// A database: named relations over `u64` constants.
///
/// Invariant: every relation's tuples are **distinct** and match the
/// relation's arity. [`Database::insert`] enforces it, and the manual
/// `Deserialize` impl below re-establishes it for data loaded from
/// outside — the columnar kernel ([`crate::flat::FlatRelation`]) skips
/// dedup passes on the strength of this invariant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Database {
    relations: BTreeMap<String, Arc<StoredRelation>>,
}

#[cfg(feature = "serde")]
impl serde::Deserialize for Database {
    /// Mirrors the derived format (`{"relations": …}`) but normalizes on
    /// the way in: duplicate tuples are dropped and arity-mismatched
    /// tuples are rejected, so deserialized databases uphold the same
    /// invariants as ones built through [`Database::insert`].
    fn from_value(v: &serde::Value) -> Result<Database, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::new("expected map for Database"))?;
        let mut relations: BTreeMap<String, StoredRelation> = serde::Deserialize::from_value(
            serde::map_get(m, "relations")
                .ok_or_else(|| serde::Error::new("missing field `relations` of Database"))?,
        )?;
        for (name, rel) in &mut relations {
            if rel.tuples.iter().any(|t| t.len() != rel.arity) {
                return Err(serde::Error::new(format!(
                    "relation `{name}`: tuple length does not match arity {}",
                    rel.arity
                )));
            }
            rel.tuples.sort_unstable();
            rel.tuples.dedup();
        }
        Ok(Database {
            relations: relations
                .into_iter()
                .map(|(name, rel)| (name, Arc::new(rel)))
                .collect(),
        })
    }
}

/// Why [`Database::insert_sorted_relation`] rejected a bulk load. Every
/// variant names the offending relation (and row, where one exists) so
/// loaders can surface a precise diagnostic instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulkLoadError {
    /// The relation name is already present — bulk loads install whole
    /// relations, they never merge into existing ones.
    DuplicateRelation(String),
    /// A tuple's length does not match the declared arity.
    ArityMismatch {
        /// The relation being installed.
        relation: String,
        /// 0-based index of the offending tuple.
        row: usize,
        /// The declared arity.
        expected: usize,
        /// The tuple's actual length.
        got: usize,
    },
    /// Adjacent tuples are out of order or equal: the input is not the
    /// sorted, distinct form the database invariant requires.
    NotSorted {
        /// The relation being installed.
        relation: String,
        /// 0-based index of the tuple that is ≤ its predecessor.
        row: usize,
    },
}

impl std::fmt::Display for BulkLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulkLoadError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` is already present")
            }
            BulkLoadError::ArityMismatch {
                relation,
                row,
                expected,
                got,
            } => write!(
                f,
                "relation `{relation}` row {row}: tuple length {got} does not match arity {expected}"
            ),
            BulkLoadError::NotSorted { relation, row } => write!(
                f,
                "relation `{relation}` row {row}: tuples are not sorted and distinct"
            ),
        }
    }
}

impl std::error::Error for BulkLoadError {}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a ground atom. Creates the relation on first use; panics on
    /// arity mismatch (schema error). Duplicate tuples are ignored.
    ///
    /// Tuples are kept in sorted order (binary-search insertion), so
    /// relation contents are canonical regardless of insertion order —
    /// serialize/deserialize roundtrips compare equal — and duplicate
    /// detection costs `O(log n)` probes instead of a linear scan.
    pub fn insert(&mut self, relation: &str, tuple: &[u64]) {
        let rel = self
            .relations
            .entry(relation.to_string())
            .or_insert_with(|| {
                Arc::new(StoredRelation {
                    arity: tuple.len(),
                    tuples: Vec::new(),
                })
            });
        assert_eq!(
            rel.arity,
            tuple.len(),
            "arity mismatch for relation {relation}"
        );
        let rel = Arc::make_mut(rel);
        if let Err(pos) = rel.tuples.binary_search_by(|t| t.as_slice().cmp(tuple)) {
            rel.tuples.insert(pos, tuple.to_vec());
        }
    }

    /// Bulk insert.
    pub fn insert_all(&mut self, relation: &str, tuples: &[Vec<u64>]) {
        for t in tuples {
            self.insert(relation, t);
        }
    }

    /// Install a whole relation from tuples that are **already sorted
    /// and distinct** — the canonical order [`Database::insert`]
    /// maintains. The claim is *verified* (one `O(n)` adjacent-pair
    /// pass plus per-tuple arity checks), never trusted: a violation is
    /// a typed [`BulkLoadError`], not a silently broken invariant and
    /// not a panic. This is the bulk-load path the snapshot store uses
    /// — it skips the per-tuple binary-search insertion entirely, so
    /// loading `n` pre-sorted tuples costs `O(n)` instead of `O(n²)`
    /// worst-case element moves.
    pub fn insert_sorted_relation(
        &mut self,
        relation: &str,
        arity: usize,
        tuples: Vec<Vec<u64>>,
    ) -> Result<(), BulkLoadError> {
        if self.relations.contains_key(relation) {
            return Err(BulkLoadError::DuplicateRelation(relation.to_string()));
        }
        for (row, t) in tuples.iter().enumerate() {
            if t.len() != arity {
                return Err(BulkLoadError::ArityMismatch {
                    relation: relation.to_string(),
                    row,
                    expected: arity,
                    got: t.len(),
                });
            }
        }
        for row in 1..tuples.len() {
            if tuples[row - 1] >= tuples[row] {
                return Err(BulkLoadError::NotSorted {
                    relation: relation.to_string(),
                    row,
                });
            }
        }
        self.relations.insert(
            relation.to_string(),
            Arc::new(StoredRelation { arity, tuples }),
        );
        Ok(())
    }

    /// The relation, if present.
    pub fn relation(&self, name: &str) -> Option<&StoredRelation> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// The relation's shared handle, if present. Two snapshots related
    /// by a delta share untouched relations — `Arc::ptr_eq` on these
    /// handles is the structural-sharing witness the update plane's
    /// tests assert.
    pub fn relation_arc(&self, name: &str) -> Option<&Arc<StoredRelation>> {
        self.relations.get(name)
    }

    /// Iterate over `(name, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &StoredRelation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r.as_ref()))
    }

    /// Iterate over `(name, shared handle)` pairs — the delta kernel's
    /// view, where untouched handles are cloned into the next snapshot.
    pub fn relation_arcs(&self) -> impl Iterator<Item = (&str, &Arc<StoredRelation>)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Assemble a database from shared relation handles. The caller
    /// vouches that every relation upholds the sorted-distinct invariant
    /// — this is the delta kernel's publish path, whose merge produces
    /// exactly that form (and whose untouched handles came out of a
    /// database that already upheld it).
    pub(crate) fn from_shared(relations: BTreeMap<String, Arc<StoredRelation>>) -> Database {
        Database { relations }
    }

    /// Total number of tuples (`‖D‖` up to constant factors).
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.tuples.len()).sum()
    }

    /// The set of all constants appearing anywhere (the active domain).
    pub fn active_domain(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .relations
            .values()
            .flat_map(|r| r.tuples.iter().flatten().copied())
            .collect();
        d.sort_unstable();
        d.dedup();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        db.insert("R", &[2, 3]);
        db.insert("R", &[1, 2]); // duplicate
        assert_eq!(db.relation("R").unwrap().tuples.len(), 2);
        assert_eq!(db.size(), 2);
        assert!(db.relation("S").is_none());
        assert_eq!(db.active_domain(), vec![1, 2, 3]);
    }

    #[test]
    fn bulk_sorted_load_verifies_its_invariants() {
        let mut db = Database::new();
        db.insert_sorted_relation("R", 2, vec![vec![1, 2], vec![1, 3], vec![2, 0]])
            .unwrap();
        assert_eq!(db.relation("R").unwrap().tuples.len(), 3);
        // A bulk-loaded relation is indistinguishable from an
        // insert-built one.
        let mut reference = Database::new();
        reference.insert_all("R", &[vec![2, 0], vec![1, 3], vec![1, 2]]);
        assert_eq!(db, reference);

        // Existing names, arity mismatches, out-of-order and duplicate
        // tuples are all typed rejections.
        match db.insert_sorted_relation("R", 2, vec![]) {
            Err(BulkLoadError::DuplicateRelation(name)) => assert_eq!(name, "R"),
            other => panic!("{other:?}"),
        }
        match db.insert_sorted_relation("S", 2, vec![vec![1]]) {
            Err(BulkLoadError::ArityMismatch { row: 0, got: 1, .. }) => {}
            other => panic!("{other:?}"),
        }
        match db.insert_sorted_relation("S", 1, vec![vec![2], vec![1]]) {
            Err(BulkLoadError::NotSorted { row: 1, .. }) => {}
            other => panic!("{other:?}"),
        }
        match db.insert_sorted_relation("S", 1, vec![vec![1], vec![1]]) {
            Err(BulkLoadError::NotSorted { row: 1, .. }) => {}
            other => panic!("{other:?}"),
        }
        // Failed loads install nothing; empty relations are fine.
        assert!(db.relation("S").is_none());
        db.insert_sorted_relation("S", 3, vec![]).unwrap();
        assert_eq!(db.relation("S").unwrap().arity, 3);
        assert!(db.relation("S").unwrap().tuples.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        db.insert("R", &[1]);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn deserialize_normalizes_duplicates_and_rejects_bad_arity() {
        // Out-of-order insertion: the sorted-insert invariant makes the
        // stored form canonical, so the roundtrip compares equal.
        let mut db = Database::new();
        db.insert("R", &[3, 4]);
        db.insert("R", &[1, 2]);
        assert_eq!(
            db.relation("R").unwrap().tuples,
            vec![vec![1, 2], vec![3, 4]]
        );
        let back: Database = serde::json::from_str(&serde::json::to_string(&db)).unwrap();
        assert_eq!(back, db);
        // Hand-written payload with a duplicate tuple: deduped on load,
        // so the kernel's distinct-rows invariant holds for loaded data.
        let dup = r#"{"relations": {"R": {"arity": 2, "tuples": [[1, 2], [1, 2], [3, 4]]}}}"#;
        let loaded: Database = serde::json::from_str(dup).unwrap();
        assert_eq!(loaded.relation("R").unwrap().tuples.len(), 2);
        // Arity-mismatched tuples are a schema error, not a panic later.
        let bad = r#"{"relations": {"R": {"arity": 2, "tuples": [[1, 2, 3]]}}}"#;
        assert!(serde::json::from_str::<Database>(bad).is_err());
    }
}
