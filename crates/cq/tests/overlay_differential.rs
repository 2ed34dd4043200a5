//! Differential suite for the memoized tree passes: every workload
//! (Boolean / Count / Enumerate) asked as `bcq` / `count` / `enumerator`
//! of a shared [`MaterializedBags`] must agree with the naive
//! backtracking oracle (`bcq_naive` / `count_naive` / `enumerate_naive`)
//! across randomized, empty, dangling and duplicate-heavy databases —
//! and asking must not perturb the shared tree (asking again reads the
//! memo and yields the same answers, concurrent readers agree, a count
//! copies nothing).

use cqd2_cq::generate::random_database;
use cqd2_cq::{
    bcq_naive, count_naive, enumerate_naive, ConjunctiveQuery, Database, MaterializedBags,
    PassStats, VRelation,
};
use cqd2_decomp::{Ghd, TreeDecomposition};
use cqd2_hypergraph::VertexId;

/// The bushy fixture: 7 atoms, hand-rooted GHD with two internal
/// mid-level nodes (so a tree pass visits a level of several nodes).
///
/// ```text
///            A(a,b)
///           /       \
///     B0(a,c,d)   B1(b,e,f)
///      /    \       /    \
///  C0(c,g) C1(d,h) C2(e,i) C3(f,j)
/// ```
fn bushy() -> (ConjunctiveQuery, Ghd) {
    let q = ConjunctiveQuery::parse(&[
        ("A", &["?a", "?b"]),
        ("B0", &["?a", "?c", "?d"]),
        ("B1", &["?b", "?e", "?f"]),
        ("C0", &["?c", "?g"]),
        ("C1", &["?d", "?h"]),
        ("C2", &["?e", "?i"]),
        ("C3", &["?f", "?j"]),
    ]);
    let bags: Vec<Vec<VertexId>> = [
        vec![0u32, 1],
        vec![0, 2, 3],
        vec![1, 4, 5],
        vec![2, 6],
        vec![3, 7],
        vec![4, 8],
        vec![5, 9],
    ]
    .into_iter()
    .map(|b| b.into_iter().map(VertexId).collect())
    .collect();
    let tree = vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
    let ghd = Ghd::from_td_exact(&q.hypergraph(), TreeDecomposition { bags, tree });
    ghd.validate(&q.hypergraph())
        .expect("hand-built GHD is valid");
    (q, ghd)
}

/// Pass answers vs the naive oracle on ONE shared tree, twice (the
/// second round proves passes leave the base untouched: same answers,
/// same enumeration order), with every count pass reporting that it
/// copied nothing. Returns `(bool, count, sorted tuples, the Boolean
/// pass's sparsity)` for further checks.
fn assert_overlay_matches_naive(
    q: &ConjunctiveQuery,
    db: &Database,
    ghd: &Ghd,
) -> (bool, u128, Vec<Vec<u64>>, PassStats) {
    let bags = MaterializedBags::build(q, db, ghd).expect("bag tree materializes");
    let naive_bool = bcq_naive(q, db);
    let naive_count = count_naive(q, db);
    let naive_tuples = enumerate_naive(q, db);
    let mut first_order: Option<Vec<Vec<u64>>> = None;
    let mut bool_stats = PassStats::default();
    for round in 0..2 {
        let (b, stats) = bags.bcq_with_stats();
        assert_eq!(b, naive_bool, "bcq diverged (round {round})");
        bool_stats = stats;
        let (n, stats) = bags.count_with_stats();
        assert_eq!(n, naive_count, "count diverged (round {round})");
        assert_eq!(
            (stats.rewritten, stats.total),
            (0, bags.num_bags()),
            "round {round}: a count pass never rewrites"
        );
        let (e, _) = bags.enumerator_with_stats();
        let streamed: Vec<Vec<u64>> = e.collect();
        let mut sorted = streamed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, naive_tuples, "enumeration diverged (round {round})");
        match &first_order {
            None => first_order = Some(streamed),
            Some(first) => assert_eq!(&streamed, first, "re-run changed the stream order"),
        }
    }
    (naive_bool, naive_count, naive_tuples, bool_stats)
}

#[test]
fn randomized_databases_agree() {
    let (q, ghd) = bushy();
    let mut rewriting = 0;
    for seed in 0..8 {
        for domain in [3, 8, 32] {
            let db = random_database(&q, domain, 40, seed);
            let (.., bool_stats) = assert_overlay_matches_naive(&q, &db, &ghd);
            rewriting += usize::from(bool_stats.rewritten > 0);
        }
    }
    // The count == oracle, `rewritten == 0` checks above must have run
    // on trees whose Boolean pass *does* rewrite, not only on the
    // all-survive fast path.
    assert!(
        rewriting > 0,
        "no randomized fixture made bcq rewrite a bag"
    );
}

#[test]
fn dangling_inner_rows_count_zero() {
    let (q, ghd) = bushy();
    // Inner bag B0 carries three rows under the one root row: one that
    // extends 3 × 2 ways below, one whose `c` has no C0 partner and one
    // whose `d` has no C1 partner. The dangling rows count 0 and must
    // add nothing to the root row's sum (nor may a half-matched row
    // keep the partial product of the child it did match).
    let mut db = Database::new();
    db.insert_all("A", &[vec![1, 1]]);
    db.insert_all("B0", &[vec![1, 2, 3], vec![1, 5, 3], vec![1, 2, 7]]);
    db.insert_all("B1", &[vec![1, 4, 4], vec![1, 4, 8]]);
    db.insert_all("C0", &[vec![2, 10], vec![2, 11], vec![2, 12]]);
    db.insert_all("C1", &[vec![3, 20], vec![3, 21]]);
    db.insert_all("C2", &[vec![4, 30], vec![4, 31]]);
    db.insert_all("C3", &[vec![4, 40]]);
    let (b, n, tuples, bool_stats) = assert_overlay_matches_naive(&q, &db, &ghd);
    // B0: 3·2 + 0 + 0; B1: 2·1 + 2·0.
    assert!(b);
    assert_eq!((n, tuples.len()), (6 * 2, 12));
    assert!(
        bool_stats.rewritten > 0,
        "the Boolean pass drops the danglers"
    );
}

#[test]
fn empty_databases_agree() {
    let (q, ghd) = bushy();
    // Entirely empty relations.
    let mut empty = Database::new();
    for atom in &q.atoms {
        empty.insert_all(&atom.relation, &[]);
    }
    let (b, n, tuples, _) = assert_overlay_matches_naive(&q, &empty, &ghd);
    assert!(!b && n == 0 && tuples.is_empty());

    // One emptied leaf wipes everything through the semijoin passes:
    // keep every other relation populated, leave C3 with no tuples.
    let full = random_database(&q, 4, 30, 7);
    let mut db = Database::new();
    for (name, rel) in full.relations() {
        if name != "C3" {
            db.insert_all(name, &rel.tuples.to_tuples());
        }
    }
    db.insert_all("C3", &[]);
    let (b, n, tuples, _) = assert_overlay_matches_naive(&q, &db, &ghd);
    assert!(!b && n == 0 && tuples.is_empty());

    // Disjoint join domains: every relation nonempty, zero answers.
    let mut disjoint = Database::new();
    for (i, atom) in q.atoms.iter().enumerate() {
        let base = 1000 * (i as u64 + 1);
        let rows: Vec<Vec<u64>> = (0..20)
            .map(|r| {
                (0..atom.terms.len())
                    .map(|c| base + 10 * r + c as u64)
                    .collect()
            })
            .collect();
        disjoint.insert_all(&atom.relation, &rows);
    }
    let (b, n, tuples, _) = assert_overlay_matches_naive(&q, &disjoint, &ghd);
    assert!(!b && n == 0 && tuples.is_empty());
}

#[test]
fn duplicate_heavy_databases_agree() {
    let (q, ghd) = bushy();
    for seed in 0..4 {
        // Domain 2 with 300 tuples per relation: every relation is a
        // tiny distinct set inserted over and over — dedup and the
        // all-rows-survive (`None`) fast path both get hammered.
        let db = random_database(&q, 2, 300, seed);
        assert_overlay_matches_naive(&q, &db, &ghd);
    }
}

#[test]
fn concurrent_enumerators_share_one_tree() {
    let (q, ghd) = bushy();
    let db = random_database(&q, 4, 60, 42);
    let bags = MaterializedBags::build(&q, &db, &ghd).expect("bag tree materializes");
    // One single-threaded stream fixes the order; the naive oracle
    // fixes the answer set.
    let reference: Vec<Vec<u64>> = bags.enumerator().collect();
    let mut sorted = reference.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        enumerate_naive(&q, &db),
        "naive enumeration disagrees"
    );
    // Two threads enumerate the SAME shared materialization at once;
    // both must stream the full, identical answer set.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| bags.enumerator().collect::<Vec<Vec<u64>>>()))
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("no panic"), reference);
        }
    });
    // And interleaved single-thread cursors: advancing one must not
    // disturb the other.
    let mut c1 = bags.enumerator();
    let mut c2 = bags.enumerator();
    let mut out = Vec::new();
    loop {
        let a = c1.next();
        assert_eq!(a, c2.next(), "interleaved cursors diverged");
        match a {
            Some(t) => out.push(t),
            None => break,
        }
    }
    assert_eq!(out, reference);
}

#[test]
fn rewriting_passes_match_a_row_store_join() {
    let (q, ghd) = bushy();
    // Tens of thousands of rows across the tree, with a domain that makes
    // the semijoins genuinely filter — the passes must be right on
    // REWRITING runs, not just the all-survive fast path. Domain ≫ rows
    // per relation: each side's join-column values cover only a fraction
    // of the domain, so the semijoins drop real rows (while dedup leaves
    // the relations near full size).
    let db = random_database(&q, 20_000, 10_000, 5);
    let bags = MaterializedBags::build(&q, &db, &ghd).expect("bag tree materializes");
    assert!(
        bags.total_rows() > (1 << 15),
        "fixture must hold tens of thousands of rows (got {})",
        bags.total_rows()
    );
    let (boolean, bool_stats) = bags.bcq_with_stats();
    assert!(
        bool_stats.rewritten > 0,
        "fixture must actually rewrite bags"
    );
    let (count, count_stats) = bags.count_with_stats();
    assert_eq!(
        (count_stats.rewritten, count_stats.total),
        (0, bags.num_bags()),
        "the count pass copies nothing on the tree the Boolean pass rewrites"
    );
    let mut tuples: Vec<Vec<u64>> = bags.enumerator().collect();
    tuples.sort_unstable();
    // The oracle shares no code with the bag-tree passes: the reference
    // row store's hash join over every atom, in atom order (each atom
    // meets an earlier one, so no intermediate is a cross product), its
    // columns put in variable order as the enumerator writes them.
    let mut joined = VRelation::unit();
    for atom in &q.atoms {
        joined = joined.join(&VRelation::bind(atom, &db));
    }
    let mut order = joined.vars.clone();
    order.sort_by_key(|v| v.idx());
    let mut expected = joined.project(&order).tuples;
    expected.sort_unstable();
    assert_eq!(boolean, !expected.is_empty());
    assert_eq!(count, expected.len() as u128);
    assert_eq!(tuples, expected);
}

#[test]
fn join_consistent_data_rewrites_no_bag() {
    let (q, ghd) = bushy();
    // Diagonal relations: row `i` is `(i, i, …)`, so every join column
    // covers `[0, 50)` on both sides of every tree edge and no semijoin
    // drops a row — the warm-serving shape copy-free passes exist for.
    let mut db = Database::new();
    for atom in &q.atoms {
        let rows: Vec<Vec<u64>> = (0..50).map(|i| vec![i; atom.terms.len()]).collect();
        db.insert_all(&atom.relation, &rows);
    }
    let bags = MaterializedBags::build(&q, &db, &ghd).expect("bag tree materializes");
    for round in 0..2 {
        let (b, stats) = bags.bcq_with_stats();
        assert!(b, "join-consistent fixture must be satisfiable");
        assert_eq!(
            (stats.rewritten, stats.total),
            (0, bags.num_bags()),
            "round {round}: a pure-probe pass copies nothing"
        );
        let (e, stats) = bags.enumerator_with_stats();
        assert_eq!(stats.rewritten, 0, "round {round}: reduction copied a bag");
        assert_eq!(e.count(), 50);
    }
    assert_eq!(bags.count(), count_naive(&q, &db));
}
