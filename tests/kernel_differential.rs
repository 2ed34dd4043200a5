//! Differential tests: the columnar [`FlatRelation`] kernel against the
//! reference row store [`VRelation`] and the naive evaluator.
//!
//! Two layers of checking:
//!
//! 1. **Operator level** (randomized via the vendored proptest): join /
//!    semijoin / project / bind must produce exactly the same tuple sets
//!    as the reference implementation, including multi-column keys,
//!    reordered schemas, disjoint schemas, and empty inputs.
//! 2. **Evaluator level** (seeded loops): the GHD route (which runs
//!    entirely on the flat kernel) must agree with the naive backtracker
//!    and with a reference full join computed on the row store, across
//!    `hyperchain` / `hypercycle` / `planted_database` instances,
//!    constants, repeated variables, and empty-relation edge cases.

use cqd2::cq::eval::{bcq_naive, count_naive, enumerate_naive, MaterializedBags};
use cqd2::cq::generate::{canonical_query, planted_database, random_database};
use cqd2::cq::{ConjunctiveQuery, Database, FlatRelation, VRelation, Var};
use cqd2::decomp::widths::ghw_decomposition;
use cqd2::hypergraph::generators::{hyperchain, hypercycle};
use proptest::prelude::*;

/// Build both representations from the same raw tuples.
fn both(vars: &[u32], tuples: &[Vec<u64>]) -> (VRelation, FlatRelation) {
    let vs: Vec<Var> = vars.iter().map(|&i| Var(i)).collect();
    let mut v = VRelation {
        vars: vs.clone(),
        tuples: tuples.to_vec(),
    };
    v.dedup();
    let f = FlatRelation::from_rows(vs, tuples);
    (v, f)
}

/// Canonical tuple set of a flat relation for comparisons.
fn flat_tuples(f: &FlatRelation) -> Vec<Vec<u64>> {
    let mut t = f.to_tuples();
    t.sort_unstable();
    t
}

/// Canonical tuple set of a row-store relation (dedup sorts in place).
fn vrel_tuples(v: &VRelation) -> Vec<Vec<u64>> {
    let mut t = v.tuples.clone();
    t.sort_unstable();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_single_shared_column_matches_reference(
        a in collection::vec(collection::vec(0u64..6, 2..3), 0..32),
        b in collection::vec(collection::vec(0u64..6, 2..3), 0..32),
    ) {
        let (va, fa) = both(&[0, 1], &a);
        let (vb, fb) = both(&[1, 2], &b);
        prop_assert_eq!(flat_tuples(&fa.join(&fb)), vrel_tuples(&va.join(&vb)));
    }

    #[test]
    fn join_multi_column_reordered_key_matches_reference(
        a in collection::vec(collection::vec(0u64..4, 3..4), 0..24),
        b in collection::vec(collection::vec(0u64..4, 3..4), 0..24),
    ) {
        // Shares {0, 1}, but in swapped column order on the right side.
        let (va, fa) = both(&[0, 1, 2], &a);
        let (vb, fb) = both(&[1, 0, 3], &b);
        prop_assert_eq!(flat_tuples(&fa.join(&fb)), vrel_tuples(&va.join(&vb)));
    }

    #[test]
    fn join_disjoint_schemas_matches_reference(
        a in collection::vec(collection::vec(0u64..5, 1..2), 0..12),
        b in collection::vec(collection::vec(0u64..5, 2..3), 0..12),
    ) {
        let (va, fa) = both(&[0], &a);
        let (vb, fb) = both(&[5, 6], &b);
        prop_assert_eq!(flat_tuples(&fa.join(&fb)), vrel_tuples(&va.join(&vb)));
    }

    #[test]
    fn semijoin_matches_reference(
        a in collection::vec(collection::vec(0u64..5, 2..3), 0..32),
        b in collection::vec(collection::vec(0u64..5, 2..3), 0..32),
    ) {
        let (va, fa) = both(&[0, 1], &a);
        // Single shared column.
        let (vb1, fb1) = both(&[1, 7], &b);
        prop_assert_eq!(flat_tuples(&fa.semijoin(&fb1)), vrel_tuples(&va.semijoin(&vb1)));
        // Both columns shared, reordered.
        let (vb2, fb2) = both(&[1, 0], &b);
        prop_assert_eq!(flat_tuples(&fa.semijoin(&fb2)), vrel_tuples(&va.semijoin(&vb2)));
        // Disjoint (empty vs nonempty other handled inside).
        let (vb3, fb3) = both(&[8, 9], &b);
        prop_assert_eq!(flat_tuples(&fa.semijoin(&fb3)), vrel_tuples(&va.semijoin(&vb3)));
    }

    #[test]
    fn project_matches_reference(
        a in collection::vec(collection::vec(0u64..4, 3..4), 0..32),
    ) {
        let (va, fa) = both(&[0, 1, 2], &a);
        for keep in [vec![0u32], vec![0, 1], vec![2, 0], vec![1], vec![0, 1, 2], vec![2, 1, 0]] {
            let kv: Vec<Var> = keep.iter().map(|&i| Var(i)).collect();
            prop_assert_eq!(flat_tuples(&fa.project(&kv)), vrel_tuples(&va.project(&kv)));
        }
    }

    #[test]
    fn bind_matches_reference_on_constants_and_repeats(
        tuples in collection::vec(collection::vec(0u64..4, 3..4), 0..40),
    ) {
        let mut db = Database::new();
        db.insert_all("R", &tuples);
        for q in [
            ConjunctiveQuery::parse(&[("R", &["?x", "?y", "?z"])]),
            ConjunctiveQuery::parse(&[("R", &["?x", "?x", "?y"])]),
            ConjunctiveQuery::parse(&[("R", &["?x", "?y", "2"])]),
            ConjunctiveQuery::parse(&[("R", &["?x", "?x", "?x"])]),
            ConjunctiveQuery::parse(&[("R", &["1", "?x", "3"])]),
            ConjunctiveQuery::parse(&[("R", &["?x", "?y", "?x"])]),
        ] {
            let v = VRelation::bind(&q.atoms[0], &db);
            let f = FlatRelation::bind(&q.atoms[0], &db);
            prop_assert_eq!(f.vars(), v.vars.as_slice());
            prop_assert_eq!(flat_tuples(&f), vrel_tuples(&v));
            // An atom of distinct variables binds to the stored buffer
            // itself, not to a re-flattened copy of its rows.
            if let (3, Some(stored)) = (f.arity(), db.relation("R")) {
                prop_assert_eq!(f.data(), stored.tuples.data());
            }
        }
    }
}

/// Reference answer count: bind and join every atom on the row store.
/// For full CQs whose variables all occur in atoms, the join rows are
/// exactly the solutions.
fn reference_count(q: &ConjunctiveQuery, db: &Database) -> u128 {
    let mut joined = VRelation::unit();
    for atom in &q.atoms {
        joined = joined.join(&VRelation::bind(atom, db));
    }
    joined.tuples.len() as u128
}

/// The bag tree of `q` over `db` along `ghd`.
fn bags(q: &ConjunctiveQuery, db: &Database, ghd: &cqd2::decomp::Ghd) -> MaterializedBags {
    MaterializedBags::build(q, db, ghd).expect("ghd fits its own query")
}

/// Collected-and-sorted view of the streaming GHD enumerator.
fn enumerate_ghd_sorted(
    q: &ConjunctiveQuery,
    db: &Database,
    ghd: &cqd2::decomp::Ghd,
) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = bags(q, db, ghd).enumerator().collect();
    out.sort_unstable();
    out
}

#[test]
fn ghd_enumeration_agrees_with_naive_on_randomized_instances() {
    for seed in 0..12u64 {
        let h = match seed % 3 {
            0 => hyperchain(4, 2),
            1 => hypercycle(5, 2),
            _ => hyperchain(3, 3),
        };
        let q = canonical_query(&h);
        let db = if seed % 2 == 0 {
            planted_database(&q, 6, 14, seed)
        } else {
            random_database(&q, 5, 12, seed)
        };
        let ghd = ghw_decomposition(&q.hypergraph()).expect("fixture decomposes");
        let expected = enumerate_naive(&q, &db);
        assert_eq!(
            enumerate_ghd_sorted(&q, &db, &ghd),
            expected,
            "enumeration mismatch on seed {seed}"
        );
        // The stream is duplicate-free and exactly |q(D)| long.
        assert_eq!(expected.len() as u128, bags(&q, &db, &ghd).count());
    }
}

#[test]
fn ghd_enumeration_agrees_on_empty_results() {
    let q = canonical_query(&hyperchain(3, 2));
    let ghd = ghw_decomposition(&q.hypergraph()).expect("decomposes");
    // Entirely empty database.
    let empty = Database::new();
    assert_eq!(
        enumerate_ghd_sorted(&q, &empty, &ghd),
        enumerate_naive(&q, &empty)
    );
    // Relations populated but joining to nothing (disjoint value ranges).
    let mut disjoint = Database::new();
    disjoint.insert_all("R0", &[vec![1, 2], vec![3, 4]]);
    disjoint.insert_all("R1", &[vec![10, 11], vec![12, 13]]);
    disjoint.insert_all("R2", &[vec![20, 21]]);
    assert_eq!(
        enumerate_ghd_sorted(&q, &disjoint, &ghd),
        Vec::<Vec<u64>>::new()
    );
    assert_eq!(enumerate_naive(&q, &disjoint), Vec::<Vec<u64>>::new());
}

#[test]
fn ghd_enumeration_agrees_on_duplicate_heavy_databases() {
    // Tiny active domains make every relation duplicate-heavy once the
    // random generator collides; repeated variables and constants add
    // the bind-time dedup paths on top.
    for seed in 0..6u64 {
        let q = canonical_query(&hypercycle(4, 2));
        let db = random_database(&q, 2, 40, seed);
        let ghd = ghw_decomposition(&q.hypergraph()).expect("decomposes");
        assert_eq!(
            enumerate_ghd_sorted(&q, &db, &ghd),
            enumerate_naive(&q, &db),
            "duplicate-heavy mismatch on seed {seed}"
        );
    }
    let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"]), ("S", &["?x", "?y"])]);
    for seed in 6..10u64 {
        let mut db = random_database(&q, 3, 30, seed);
        db.insert("R", &[1, 1, 5]);
        db.insert("S", &[1, 9]);
        let ghd = ghw_decomposition(&q.hypergraph()).expect("decomposes");
        assert_eq!(
            enumerate_ghd_sorted(&q, &db, &ghd),
            enumerate_naive(&q, &db),
            "constants/repeats mismatch on seed {seed}"
        );
    }
}

#[test]
fn ghd_route_agrees_with_naive_and_reference_on_generated_instances() {
    for seed in 0..10u64 {
        let h = match seed % 3 {
            0 => hyperchain(4, 2),
            1 => hypercycle(5, 2),
            _ => hyperchain(3, 3),
        };
        let q = canonical_query(&h);
        let db = if seed % 2 == 0 {
            planted_database(&q, 6, 14, seed)
        } else {
            random_database(&q, 5, 12, seed)
        };
        let ghd = ghw_decomposition(&q.hypergraph()).expect("fixture decomposes");
        let expected = reference_count(&q, &db);
        assert_eq!(
            bags(&q, &db, &ghd).count(),
            expected,
            "count mismatch on seed {seed}"
        );
        assert_eq!(
            count_naive(&q, &db),
            expected,
            "naive count mismatch on seed {seed}"
        );
        assert_eq!(
            bags(&q, &db, &ghd).bcq(),
            expected > 0,
            "bcq mismatch on seed {seed}"
        );
        assert_eq!(
            enumerate_naive(&q, &db).len() as u128,
            expected,
            "enumeration mismatch on seed {seed}"
        );
    }
}

#[test]
fn ghd_route_agrees_on_constants_and_repeated_variables() {
    // x occurs twice in one atom, a constant pins a column, and the two
    // atoms chain on x.
    let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"]), ("S", &["?x", "?y"])]);
    for seed in 0..6u64 {
        let mut db = random_database(&q, 4, 20, seed);
        // Make sure constant-5 tuples exist at all.
        db.insert("R", &[1, 1, 5]);
        db.insert("S", &[1, 9]);
        let ghd = ghw_decomposition(&q.hypergraph()).expect("decomposes");
        assert_eq!(
            bags(&q, &db, &ghd).count(),
            count_naive(&q, &db),
            "seed {seed}"
        );
        assert_eq!(bags(&q, &db, &ghd).bcq(), bcq_naive(&q, &db), "seed {seed}");
    }
}

#[test]
fn ghd_route_agrees_on_empty_and_missing_relations() {
    let q = canonical_query(&hyperchain(3, 2));
    let ghd = ghw_decomposition(&q.hypergraph()).expect("decomposes");
    // Entirely empty database: every relation missing.
    let empty = Database::new();
    assert!(!bags(&q, &empty, &ghd).bcq());
    assert_eq!(bags(&q, &empty, &ghd).count(), 0);
    assert!(!bcq_naive(&q, &empty));
    // One relation present, the others missing.
    let mut partial = Database::new();
    partial.insert("R0", &[1, 2]);
    assert!(!bags(&q, &partial, &ghd).bcq());
    assert_eq!(bags(&q, &partial, &ghd).count(), 0);
    assert_eq!(count_naive(&q, &partial), 0);
}
