//! Databases: sets of ground relational atoms, stored per relation.
//!
//! A stored relation **is** the kernel's buffer: [`StoredRelation::tuples`]
//! is a [`FlatRelation`] over positional columns (`Var(0)..Var(arity-1)`)
//! whose rows are sorted and distinct — the one row layout the `.cqds`
//! sections persist, [`FlatRelation::bind`] copies and the delta merge
//! ([`crate::delta`]) writes. Nothing here keeps a second, per-row copy;
//! row arithmetic stays behind `FlatRelation`'s methods. Whole relations
//! arrive through two flat loaders — [`Database::insert_sorted_flat`]
//! verifies a buffer that claims the canonical order (the snapshot
//! store's), [`Database::insert_flat`] sorts one that does not (the text
//! loader's) — and [`Database::insert_sorted_relation`] for callers that
//! hold rows.
//!
//! Relations are held behind [`Arc`]s so snapshots produced by the
//! delta kernel share untouched relations structurally: applying a
//! small batch of fact changes to one relation clones one `Arc` per
//! *untouched* relation and rebuilds only the touched ones.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::flat::FlatRelation;
use crate::query::Var;

/// A stored relation: a set of tuples of a fixed arity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoredRelation {
    /// Arity (all tuples have this length).
    pub arity: usize,
    /// Distinct tuples in lexicographic order (see [`Database::insert`]),
    /// as one row-major buffer over positional columns. Read rows with
    /// [`FlatRelation::iter`] / [`FlatRelation::row`], the whole buffer
    /// with [`FlatRelation::data`].
    pub tuples: FlatRelation,
}

/// The column names of every stored relation of `arity`: positional.
fn positional(arity: usize) -> Vec<Var> {
    (0..arity as u32).map(Var).collect()
}

/// The JSON shape of a stored relation, unchanged by the flat layout:
/// `{"arity": n, "tuples": [[…], …]}`.
#[cfg(feature = "serde")]
#[derive(serde::Serialize, serde::Deserialize)]
struct StoredRows {
    arity: usize,
    tuples: Vec<Vec<u64>>,
}

#[cfg(feature = "serde")]
impl serde::Serialize for StoredRelation {
    fn write_json(&self, out: &mut Vec<u8>) {
        let rows = StoredRows {
            arity: self.arity,
            tuples: self.tuples.to_tuples(),
        };
        rows.write_json(out);
    }
}

/// Normalizes on the way in: duplicate tuples are dropped, any order is
/// accepted and arity-mismatched tuples are rejected, so a deserialized
/// relation upholds the same invariants as one built through
/// [`Database::insert`].
#[cfg(feature = "serde")]
impl serde::Deserialize for StoredRelation {
    fn read_json(r: &mut serde::json::Reader<'_>) -> Result<StoredRelation, serde::Error> {
        let StoredRows { arity, tuples } = serde::Deserialize::read_json(r)?;
        if tuples.iter().any(|t| t.len() != arity) {
            return Err(serde::Error::new(format!(
                "tuple length does not match arity {arity}"
            )));
        }
        Ok(StoredRelation {
            arity,
            tuples: FlatRelation::from_rows(positional(arity), &tuples),
        })
    }
}

/// A database: named relations over `u64` constants.
///
/// Invariant: every relation's tuples are **sorted, distinct** and match
/// the relation's arity. [`Database::insert`] and the bulk loaders
/// enforce it, and [`StoredRelation`]'s `Deserialize` re-establishes it
/// for data loaded from outside — the columnar kernel
/// ([`crate::flat::FlatRelation`]) skips dedup passes on the strength of
/// this invariant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Database {
    relations: BTreeMap<String, Arc<StoredRelation>>,
}

/// Why [`Database::insert_sorted_relation`], [`Database::insert_sorted_flat`]
/// or [`Database::insert_flat`] rejected a bulk load. Every variant
/// names the offending relation (and row, where one exists) so loaders
/// can surface a precise diagnostic instead of a panic.
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
    /// A row-major buffer does not hold `rows × arity` values.
    BufferLength {
        /// The relation being installed.
        relation: String,
        /// The declared `rows × arity` (saturating).
        expected: usize,
        /// The number of values the buffer actually holds.
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
            BulkLoadError::BufferLength {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation `{relation}`: buffer holds {got} values, not rows × arity = {expected}"
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
                    tuples: FlatRelation::empty(positional(tuple.len())),
                })
            });
        assert_eq!(
            rel.arity,
            tuple.len(),
            "arity mismatch for relation {relation}"
        );
        if let Err(at) = rel.tuples.search(tuple) {
            Arc::make_mut(rel).tuples.insert_row(at, tuple);
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
    /// maintains. The claim is *verified* (per-tuple arity checks while
    /// the rows are flattened, then [`Database::insert_sorted_flat`]'s
    /// adjacent-pair pass), never trusted: a violation is a typed
    /// [`BulkLoadError`], not a silently broken invariant and not a
    /// panic. It skips the per-tuple binary-search insertion entirely,
    /// so loading `n` pre-sorted tuples costs `O(n)` instead of `O(n²)`
    /// worst-case element moves.
    pub fn insert_sorted_relation(
        &mut self,
        relation: &str,
        arity: usize,
        tuples: Vec<Vec<u64>>,
    ) -> Result<(), BulkLoadError> {
        let mut data = Vec::with_capacity(tuples.iter().map(Vec::len).sum());
        for (row, t) in tuples.iter().enumerate() {
            if t.len() != arity {
                return Err(BulkLoadError::ArityMismatch {
                    relation: relation.to_string(),
                    row,
                    expected: arity,
                    got: t.len(),
                });
            }
            data.extend_from_slice(t);
        }
        self.insert_sorted_flat(relation, arity, tuples.len(), data)
    }

    /// [`Database::insert_sorted_relation`] for rows that are already
    /// packed: `data` is the row-major buffer of `rows` sorted, distinct
    /// tuples of `arity` values — a `.cqds` data section, which is how
    /// the snapshot store loads. The buffer becomes the stored relation
    /// as it is (no per-row work, no copy) after **one** verification
    /// pass: its length, then every adjacent row pair.
    pub fn insert_sorted_flat(
        &mut self,
        relation: &str,
        arity: usize,
        rows: usize,
        data: Vec<u64>,
    ) -> Result<(), BulkLoadError> {
        let tuples = self.vacant_flat(relation, arity, rows, data)?;
        if let Some(row) = tuples.first_unsorted_row() {
            return Err(BulkLoadError::NotSorted {
                relation: relation.to_string(),
                row,
            });
        }
        self.install(relation, StoredRelation { arity, tuples });
        Ok(())
    }

    /// [`Database::insert_sorted_flat`] for rows in any order, duplicates
    /// allowed — facts as a text file lists them, which is how the text
    /// loader installs a relation. The buffer is sorted and deduplicated
    /// ([`FlatRelation::dedup`]) instead of verified.
    pub fn insert_flat(
        &mut self,
        relation: &str,
        arity: usize,
        rows: usize,
        data: Vec<u64>,
    ) -> Result<(), BulkLoadError> {
        let mut tuples = self.vacant_flat(relation, arity, rows, data)?;
        tuples.dedup();
        self.install(relation, StoredRelation { arity, tuples });
        Ok(())
    }

    /// What both flat loaders check first: `relation` is not taken and
    /// `data` holds `rows × arity` values. `rows` is explicit because a
    /// nullary relation's buffer is empty whether it holds no tuple or
    /// the empty tuple.
    fn vacant_flat(
        &self,
        relation: &str,
        arity: usize,
        rows: usize,
        data: Vec<u64>,
    ) -> Result<FlatRelation, BulkLoadError> {
        if self.relations.contains_key(relation) {
            return Err(BulkLoadError::DuplicateRelation(relation.to_string()));
        }
        if rows.checked_mul(arity) != Some(data.len()) {
            return Err(BulkLoadError::BufferLength {
                relation: relation.to_string(),
                expected: rows.saturating_mul(arity),
                got: data.len(),
            });
        }
        Ok(FlatRelation::from_parts(positional(arity), rows, data))
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

    /// Iterate over `(name, shared handle)` pairs — the handles a delta
    /// carries unchanged into the next snapshot for untouched relations.
    pub fn relation_arcs(&self) -> impl Iterator<Item = (&str, &Arc<StoredRelation>)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Make `rel` the contents of relation `name`, new or existing. The
    /// caller vouches that `rel` upholds the sorted-distinct invariant:
    /// the flat loaders above, and the delta kernel's publish path, whose
    /// merge produces exactly that form.
    pub(crate) fn install(&mut self, name: &str, rel: StoredRelation) {
        self.relations.insert(name.to_string(), Arc::new(rel));
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
            .flat_map(|r| r.tuples.data().iter().copied())
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
    fn flat_bulk_load_verifies_shape_and_order() {
        let mut db = Database::new();
        db.insert_sorted_flat("R", 2, 3, vec![1, 2, 1, 3, 2, 0])
            .unwrap();
        let mut reference = Database::new();
        reference.insert_all("R", &[vec![2, 0], vec![1, 3], vec![1, 2]]);
        assert_eq!(db, reference);
        // The buffer is adopted as it is.
        assert_eq!(db.relation("R").unwrap().tuples.data(), &[1, 2, 1, 3, 2, 0]);

        match db.insert_sorted_flat("R", 2, 0, vec![]) {
            Err(BulkLoadError::DuplicateRelation(name)) => assert_eq!(name, "R"),
            other => panic!("{other:?}"),
        }
        // A buffer that is not rows × arity values long: a cut row, a
        // wrong count, an overflowing product.
        for (rows, data) in [
            (2, vec![1, 2, 3]),
            (1, vec![1, 2, 3, 4]),
            (usize::MAX, vec![]),
        ] {
            match db.insert_sorted_flat("S", 2, rows, data.clone()) {
                Err(BulkLoadError::BufferLength { got, .. }) => assert_eq!(got, data.len()),
                other => panic!("{other:?}"),
            }
        }
        match db.insert_sorted_flat("S", 2, 2, vec![3, 4, 1, 2]) {
            Err(BulkLoadError::NotSorted { row: 1, .. }) => {}
            other => panic!("{other:?}"),
        }
        match db.insert_sorted_flat("S", 1, 3, vec![1, 5, 5]) {
            Err(BulkLoadError::NotSorted { row: 2, .. }) => {}
            other => panic!("{other:?}"),
        }
        assert!(db.relation("S").is_none());

        // The unsorted loader takes the same rows in any order, with
        // duplicates, and checks the same name and shape.
        db.insert_flat("S", 2, 4, vec![2, 0, 1, 3, 1, 2, 1, 3])
            .unwrap();
        assert_eq!(db.relation("S"), db.relation("R"));
        assert!(matches!(
            db.insert_flat("S", 2, 0, vec![]),
            Err(BulkLoadError::DuplicateRelation(_))
        ));
        assert!(matches!(
            db.insert_flat("T", 2, 2, vec![1, 2, 3]),
            Err(BulkLoadError::BufferLength { got: 3, .. })
        ));
    }

    /// Arity 0 is where a flat buffer's length stops determining its row
    /// count: the buffer is empty whether the relation holds no tuple or
    /// the empty tuple. Every reader and writer of the stored layout
    /// must go by the tracked row count.
    #[test]
    fn nullary_relations_go_by_their_row_count() {
        use crate::delta::DatabaseDelta;
        use crate::query::ConjunctiveQuery;
        use crate::stats::RelationStats;
        let holds = |db: &Database, name: &str, rows: usize| {
            let rel = db.relation(name).unwrap();
            assert_eq!((rel.arity, rel.tuples.len()), (0, rows), "{name}");
            assert!(rel.tuples.data().is_empty());
            assert_eq!(rel.tuples.iter().count(), rows);
            let stats = RelationStats::collect(rel);
            assert_eq!((stats.cardinality, stats.distinct.len()), (rows, 0));
            let q = ConjunctiveQuery::parse(&[(name, &[])]);
            assert_eq!(crate::FlatRelation::bind(&q.atoms[0], db).len(), rows);
            assert_eq!(crate::VRelation::bind(&q.atoms[0], db).tuples.len(), rows);
            assert_eq!(crate::bcq_naive(&q, db), rows == 1);
        };
        let mut db = Database::new();
        db.insert("A", &[]);
        db.insert("A", &[]); // the empty tuple, at most once
        db.insert_sorted_relation("B0", 0, vec![]).unwrap();
        db.insert_sorted_relation("B1", 0, vec![vec![]]).unwrap();
        db.insert_sorted_flat("C0", 0, 0, vec![]).unwrap();
        db.insert_sorted_flat("C1", 0, 1, vec![]).unwrap();
        db.insert_flat("D0", 0, 0, vec![]).unwrap();
        db.insert_flat("D1", 0, 3, vec![]).unwrap(); // `U()` three times
        for (name, rows) in [
            ("A", 1),
            ("B0", 0),
            ("B1", 1),
            ("C0", 0),
            ("C1", 1),
            ("D0", 0),
            ("D1", 1),
        ] {
            holds(&db, name, rows);
        }
        assert_eq!(db.size(), 4);
        assert_eq!(db.relation("B1"), db.relation("C1"));
        // Two empty tuples are a duplicate; values cannot belong to a
        // nullary relation.
        assert!(matches!(
            db.insert_sorted_relation("E", 0, vec![vec![], vec![]]),
            Err(BulkLoadError::NotSorted { row: 1, .. })
        ));
        assert!(matches!(
            db.insert_sorted_flat("E", 0, 2, vec![]),
            Err(BulkLoadError::NotSorted { row: 1, .. })
        ));
        assert!(matches!(
            db.insert_sorted_flat("E", 0, 1, vec![7]),
            Err(BulkLoadError::BufferLength {
                expected: 0,
                got: 1,
                ..
            })
        ));

        // Deltas: insert the empty tuple, then delete it again; a delta
        // that changes nothing keeps the relation's `Arc`.
        let mut insert = DatabaseDelta::new();
        insert.insert("B0", vec![]);
        let grown = db.apply_delta(&insert).unwrap();
        assert_eq!((grown.inserted, grown.deleted), (1, 0));
        assert_eq!(grown.touched, vec!["B0".to_string()]);
        holds(&grown.db, "B0", 1);
        let noop = grown.db.apply_delta(&insert).unwrap();
        assert!(noop.touched.is_empty());
        assert!(Arc::ptr_eq(
            grown.db.relation_arc("B0").unwrap(),
            noop.db.relation_arc("B0").unwrap()
        ));
        let mut delete = DatabaseDelta::new();
        delete.delete("B0", vec![]);
        let shrunk = grown.db.apply_delta(&delete).unwrap();
        assert_eq!((shrunk.inserted, shrunk.deleted), (0, 1));
        holds(&shrunk.db, "B0", 0);
        assert_eq!(shrunk.db, db);
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
            db.relation("R").unwrap().tuples.to_tuples(),
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
