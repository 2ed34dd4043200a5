//! Property-based tests (proptest) on the core invariants:
//! Lemma 3.2 along random dilution sequences, reduction parsimony
//! (Theorems 3.4/4.15) on random instances, and evaluator agreement.

use cqd2::cq::Database;
use cqd2::dilution::ops::check_step_invariants;
use cqd2::dilution::{DilutionOp, DilutionSequence};
use cqd2::engine::{Answer, Engine, Request, Workload};
use cqd2::hypergraph::generators::random_degree_bounded;
use cqd2::hypergraph::{Hypergraph, VertexId};
use cqd2::reduction::{reduce_along, verify_reduction, Instance};
use proptest::prelude::*;

/// Build a random hypergraph from a seed (deterministic per seed).
fn hypergraph_from_seed(seed: u64, max_degree: usize) -> Hypergraph {
    random_degree_bounded(6, 3, max_degree, 0.6, seed)
}

/// Apply `steps` pseudo-random applicable dilution ops, returning the
/// sequence actually applied.
fn random_dilution(h: &Hypergraph, choices: &[u8]) -> DilutionSequence {
    let mut cur = h.clone();
    let mut ops = Vec::new();
    for &c in choices {
        if cur.num_vertices() == 0 {
            break;
        }
        let v = VertexId(u32::from(c) % cur.num_vertices() as u32);
        let op = if c % 2 == 0 {
            DilutionOp::DeleteVertex(v)
        } else {
            DilutionOp::MergeOnVertex(v)
        };
        if !op.is_applicable(&cur) {
            continue;
        }
        let (next, _) = op.apply(&cur).expect("applicable");
        ops.push(op);
        cur = next;
    }
    DilutionSequence { ops }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lemma_3_2_invariants_hold(seed in 0u64..500, choices in proptest::collection::vec(any::<u8>(), 0..6)) {
        let h = hypergraph_from_seed(seed, 3);
        let seq = random_dilution(&h, &choices);
        let run = seq.run(&h).unwrap();
        for w in run.hypergraphs.windows(2) {
            check_step_invariants(&w[0], &w[1]).unwrap();
        }
    }

    #[test]
    fn reduction_is_parsimonious(seed in 0u64..200, choices in proptest::collection::vec(any::<u8>(), 1..4)) {
        let h = hypergraph_from_seed(seed, 2);
        let seq = random_dilution(&h, &choices);
        let m = seq.apply(&h).unwrap();
        // Skip degenerate results (no edges -> no atoms to query).
        prop_assume!(m.num_edges() > 0 && m.num_vertices() > 0);
        prop_assume!(m.edge_ids().all(|e| !m.edge(e).is_empty()));
        let proto = Instance::canonical(&m, Database::new(), "Q");
        let db = cqd2::cq::generate::random_database(&proto.query, 3, 6, seed);
        let inst = Instance::canonical(&m, db, "Q");
        let report = reduce_along(&h, &seq, &inst).unwrap();
        verify_reduction(&inst, &report).unwrap();
    }

    #[test]
    fn evaluators_agree(seed in 0u64..200) {
        let h = hypergraph_from_seed(seed, 2);
        prop_assume!(h.num_edges() > 0);
        let q = cqd2::cq::generate::canonical_query(&h);
        let db = cqd2::cq::generate::random_database(&q, 4, 10, seed);
        let serve = |workload| {
            let req = Request { query: &q, db: &db, workload };
            Engine::shared().serve(&req).answer
        };
        let naive = cqd2::cq::eval::bcq_naive(&q, &db);
        prop_assert_eq!(serve(Workload::Boolean), Answer::Bool(naive));
        let cn = cqd2::cq::eval::count_naive(&q, &db);
        prop_assert_eq!(serve(Workload::Count), Answer::Count(cn));
    }

    #[test]
    fn ghw_is_isomorphism_invariant(seed in 0u64..100) {
        use cqd2::decomp::widths::ghw_exact;
        let h = hypergraph_from_seed(seed, 2);
        prop_assume!(h.num_edges() > 0);
        // Relabel vertices by reversing ids.
        let n = h.num_vertices() as u32;
        let edges: Vec<Vec<u32>> = h
            .edge_ids()
            .map(|e| h.edge(e).iter().map(|v| n - 1 - v.0).collect())
            .collect();
        let relabeled = Hypergraph::new(n as usize, &edges).unwrap();
        prop_assert!(cqd2::hypergraph::are_isomorphic(&h, &relabeled));
        prop_assert_eq!(ghw_exact(&h), ghw_exact(&relabeled));
    }

    #[test]
    fn dual_of_dual_is_identity_on_reduced(seed in 0u64..100) {
        use cqd2::hypergraph::{dual, reduce};
        let h = hypergraph_from_seed(seed, 3);
        let (r, _) = reduce::reduce(&h);
        prop_assume!(r.num_vertices() > 0);
        let (d, _) = dual(&r);
        let (dd, _) = dual(&d);
        prop_assert!(cqd2::hypergraph::are_isomorphic(&r, &dd));
    }

    #[test]
    fn reduction_sequence_reaches_reduced_form(seed in 0u64..200) {
        use cqd2::dilution::reduce_seq::reduction_sequence;
        use cqd2::hypergraph::reduce::is_reduced;
        let h = hypergraph_from_seed(seed, 3);
        prop_assume!(h.edge_ids().any(|e| !h.edge(e).is_empty()));
        let seq = reduction_sequence(&h).unwrap();
        let out = seq.apply(&h).unwrap();
        prop_assert!(is_reduced(&out) || out.num_edges() == 0);
    }
}
