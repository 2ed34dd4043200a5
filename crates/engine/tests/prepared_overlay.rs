//! Engine-level differential tests for memoized prepared re-execution:
//! every entry point — one-shot [`Engine::serve`] and
//! `Engine::execute_batch`, warm `PreparedQuery::run` — runs the same
//! `build → first pass`
//! route (a warm handle then reads the pass's memoized result), so they
//! must agree with each other and with the naive oracle, report the
//! same bag tree in provenance, and support concurrent cursors
//! streaming from ONE shared materialization.

use std::time::Duration;

use cqd2_cq::generate::planted_database;
use cqd2_cq::{bcq_naive, count_naive, enumerate_naive, ConjunctiveQuery};
use cqd2_engine::{Answer, Engine, Request, Workload};

/// A 7-atom acyclic degree-2 query: its plan is a multi-bag GHD, so
/// runs exercise the tree passes across bags, not one bag holding the
/// whole join.
fn fixture() -> (ConjunctiveQuery, cqd2_cq::Database) {
    let q = ConjunctiveQuery::parse(&[
        ("A", &["?a", "?b"]),
        ("B0", &["?a", "?c", "?d"]),
        ("B1", &["?b", "?e", "?f"]),
        ("C0", &["?c", "?g"]),
        ("C1", &["?d", "?h"]),
        ("C2", &["?e", "?i"]),
        ("C3", &["?f", "?j"]),
    ]);
    // Sparse (domain ≫ matches per value) so the full answer set stays
    // small enough to materialize, planted so it is never empty.
    let db = planted_database(&q, 500, 300, 3);
    (q, db)
}

/// `answer` with its tuples (if any) sorted: enumeration order is
/// unspecified, so answers compare as sets.
fn canonical(answer: Answer) -> Answer {
    match answer {
        Answer::Tuples(mut t) => {
            t.sort_unstable();
            Answer::Tuples(t)
        }
        other => other,
    }
}

#[test]
fn prepared_overlay_matches_one_shot_serve() {
    let (q, db) = fixture();
    let engine = Engine::default();
    let session = engine.session(&db);
    let prepared = session.prepare(&q).expect("planning cannot fail");

    for workload in [
        Workload::Boolean,
        Workload::Count,
        Workload::Enumerate { limit: None },
    ] {
        let oracle = match workload {
            Workload::Boolean => Answer::Bool(bcq_naive(&q, &db)),
            Workload::Count => Answer::Count(count_naive(&q, &db)),
            Workload::Enumerate { .. } => Answer::Tuples(enumerate_naive(&q, &db)),
        };
        let req = Request {
            query: &q,
            db: &db,
            workload,
        };
        let served = engine.serve(&req);
        let batched = engine.execute_batch(&[req]).remove(0);
        let tree = prepared.run(workload).provenance.bags;

        // One-shot calls did plan and materialize, and say so.
        for one_shot in [&served, &batched] {
            let p = &one_shot.provenance;
            assert!(p.planning > Duration::ZERO, "{workload:?}: planning");
            assert!(p.execution > Duration::ZERO, "{workload:?}: execution");
            let bags = p.bags;
            assert!(bags.rewritten <= bags.total);
            assert_eq!(bags.total, tree.total, "{workload:?}: same tree");
        }
        assert_eq!(canonical(served.answer), oracle, "serve, {workload:?}");
        assert_eq!(
            canonical(batched.answer),
            oracle,
            "execute_batch, {workload:?}"
        );

        // Repeated warm runs: same answer every time, zero planning,
        // and rewrite sparsity within the same tree.
        for _ in 0..3 {
            let run = prepared.run(workload);
            assert_eq!(run.provenance.planning, Duration::ZERO);
            let bags = run.provenance.bags;
            assert!(
                bags.rewritten <= bags.total,
                "sparsity out of range: {}/{}",
                bags.rewritten,
                bags.total
            );
            assert_eq!(bags.total, tree.total, "same tree");
            assert_eq!(canonical(run.answer), oracle, "prepared, {workload:?}");
        }
    }

    // The streaming cursor delivers the same answer set as the oracle.
    let reference = enumerate_naive(&q, &db);
    for _ in 0..2 {
        let mut streamed: Vec<Vec<u64>> = prepared.cursor(None).collect();
        streamed.sort_unstable();
        assert_eq!(streamed, reference, "cursor stream diverged");
    }
}

#[test]
fn one_shot_execution_includes_preprocessing() {
    // A one-shot call folds the bag materialization it paid into
    // `execution`; a warm run reports the tree pass alone. Build + cold
    // pass is several times the work of a warm pass, and only a stall
    // in *every* warm run could invert the order, so the cheapest of
    // five warm runs is a noise-proof lower bar.
    let (q, db) = fixture();
    let engine = Engine::default();
    let one_shot = engine.serve(&Request {
        query: &q,
        db: &db,
        workload: Workload::Boolean,
    });
    let warm = engine
        .session(&db)
        .prepare(&q)
        .expect("planning cannot fail");
    let warm_pass = (0..5)
        .map(|_| warm.run(Workload::Boolean).provenance.execution)
        .min()
        .expect("five runs");
    assert!(
        one_shot.provenance.execution > warm_pass,
        "one-shot execution ({:?}) must cover build + pass, not just the pass ({warm_pass:?})",
        one_shot.provenance.execution,
    );
}

#[test]
fn warm_run_on_join_consistent_data_rewrites_no_bag() {
    // Diagonal relations (row `i` = `(i, i, …)`): every join column
    // covers the same values on both sides of every tree edge of
    // whatever GHD the planner picks, so no semijoin drops a row and a
    // warm prepared run is pure probing.
    let (q, _) = fixture();
    let mut db = cqd2_cq::Database::new();
    for atom in &q.atoms {
        let rows: Vec<Vec<u64>> = (0..300).map(|i| vec![i; atom.terms.len()]).collect();
        db.insert_all(&atom.relation, &rows);
    }
    let engine = Engine::default();
    let prepared = engine
        .session(&db)
        .prepare(&q)
        .expect("planning cannot fail");
    for _ in 0..2 {
        let run = prepared.run(Workload::Boolean);
        assert_eq!(run.answer, Answer::Bool(true));
        let bags = run.provenance.bags;
        assert_eq!(bags.rewritten, 0, "warm run copied {bags:?}");
        assert!(bags.total > 1, "fixture must exercise a real tree");
    }
    assert_eq!(
        prepared.run(Workload::Count).answer,
        Answer::Count(count_naive(&q, &db))
    );
}

#[test]
fn warm_runs_share_the_plan_and_report_one_reduction() {
    // What a warm run hands out is shared, not rebuilt: the plan in
    // provenance is the handle's own `Arc`, and the reduction sparsity
    // is the tree's one memoized value, whichever run asks.
    let (q, db) = fixture();
    let engine = Engine::default();
    let prepared = engine
        .session(&db)
        .prepare(&q)
        .expect("planning cannot fail");
    for workload in [
        Workload::Boolean,
        Workload::Count,
        Workload::Enumerate { limit: Some(5) },
    ] {
        let first = prepared.run(workload).provenance;
        let again = prepared.run(workload).provenance;
        assert!(std::sync::Arc::ptr_eq(&first.planned, &again.planned));
        assert_eq!(*first.planned, *prepared.plan(workload));
        assert_eq!(first.bags, again.bags);
    }
}

#[test]
fn concurrent_cursors_share_one_materialization() {
    let (q, db) = fixture();
    let engine = Engine::default();
    let session = engine.session(&db);
    let prepared = session.prepare(&q).expect("planning cannot fail");
    let mut reference: Vec<Vec<u64>> = prepared.cursor(None).collect();
    reference.sort_unstable();
    assert!(!reference.is_empty(), "fixture should have answers");

    // Two threads each open a cursor against the SAME prepared handle
    // (one shared bag tree underneath) and stream concurrently.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<Vec<u64>> = prepared.cursor(None).collect();
                    out.sort_unstable();
                    out
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("no panic"), reference);
        }
    });

    // Interleaved cursors on one thread must not disturb each other,
    // and a limited cursor caps without affecting a full one.
    let mut c1 = prepared.cursor(None);
    let mut c2 = prepared.cursor(None);
    let mut out = Vec::new();
    loop {
        let a = c1.next();
        assert_eq!(a, c2.next(), "interleaved cursors diverged");
        match a {
            Some(t) => out.push(t),
            None => break,
        }
    }
    out.sort_unstable();
    assert_eq!(out, reference);
    let capped = prepared.cursor(Some(3)).count();
    assert_eq!(capped, reference.len().min(3));
}
