//! End-to-end integration of the paper's main pipeline (Theorem 4.8's
//! constructive content):
//!
//! degree-2 hypergraph with non-trivial ghw
//!   → Theorem 4.7: verified dilution sequence to a jigsaw
//!   → Theorem 3.4: instance over the jigsaw reduced to an instance over
//!     the original hypergraph, answers preserved parsimoniously.

use cqd2::cq::generate::{planted_database, random_database};
use cqd2::cq::Database;
use cqd2::dilution::decide::verify_dilution;
use cqd2::hypergraph::are_isomorphic;
use cqd2::jigsaw::extract::decorated_jigsaw_dual;
use cqd2::jigsaw::{extract_jigsaw, jigsaw};
use cqd2::reduction::{reduce_along, verify_reduction, Instance};

#[test]
fn theorem_4_8_pipeline_on_decorated_host() {
    // A decorated degree-2 host hiding a 3x3 grid in its dual.
    let host = decorated_jigsaw_dual(3, 3, 1, 1);
    assert!(host.max_degree() <= 2);

    // Theorem 4.7: extract the jigsaw with a verified dilution sequence.
    let extraction = extract_jigsaw(&host, 3, 3_000_000)
        .expect("degree-2 host")
        .expect("hidden jigsaw found");
    assert_eq!(extraction.n, 3);
    let target = jigsaw(3, 3);
    verify_dilution(&host, &target, &extraction.sequence).unwrap();

    // The sequence's concrete result (isomorphic to the jigsaw).
    let concrete = extraction.sequence.apply(&host).unwrap();
    assert!(are_isomorphic(&concrete, &target));

    // Theorem 3.4: an instance over the jigsaw-shaped result reduces to an
    // instance over the decorated host with identical answers.
    for seed in 0..3 {
        let proto = Instance::canonical(&concrete, Database::new(), "Q");
        let db = planted_database(&proto.query, 4, 12, seed);
        let instance = Instance::canonical(&concrete, db, "Q");
        let report = reduce_along(&host, &extraction.sequence, &instance).unwrap();
        verify_reduction(&instance, &report).unwrap();
        // The reduced instance lives on the host hypergraph.
        assert!(report.instance.is_bound_to(&host));
    }
}

#[test]
fn hardness_transfer_preserves_unsatisfiability() {
    // Reduction of a NO-instance stays NO (both directions of the
    // many-one reduction matter).
    let host = decorated_jigsaw_dual(2, 2, 1, 0);
    let extraction = extract_jigsaw(&host, 2, 3_000_000).unwrap().unwrap();
    let concrete = extraction.sequence.apply(&host).unwrap();
    let proto = Instance::canonical(&concrete, Database::new(), "Q");
    // Random database that happens to have no solution: try seeds until
    // one is unsatisfiable (tiny domain makes both cases common).
    let mut tested_no = false;
    let mut tested_yes = false;
    for seed in 0..20 {
        let db = random_database(&proto.query, 7, 4, seed);
        let instance = Instance::canonical(&concrete, db, "Q");
        let answer = cqd2::cq::eval::bcq_naive(&instance.query, &instance.db);
        let report = reduce_along(&host, &extraction.sequence, &instance).unwrap();
        let reduced_answer = cqd2::cq::eval::bcq_naive(&report.instance.query, &report.instance.db);
        assert_eq!(answer, reduced_answer, "BCQ answer changed (seed {seed})");
        verify_reduction(&instance, &report).unwrap();
        tested_no |= !answer;
        tested_yes |= answer;
        if tested_no && tested_yes {
            break;
        }
    }
    assert!(tested_no, "no unsatisfiable instance sampled");
}

#[test]
fn ghw_transfers_along_the_extraction() {
    // Lemma 3.2(3) across the whole pipeline: ghw(host) ≥ ghw(jigsaw) ≥ n.
    let host = decorated_jigsaw_dual(2, 2, 1, 0);
    let extraction = extract_jigsaw(&host, 2, 3_000_000).unwrap().unwrap();
    let host_ghw = cqd2::decomp::widths::ghw_exact(&host).expect("small host");
    let jig_ghw =
        cqd2::decomp::widths::ghw_exact(&jigsaw(extraction.n, extraction.n)).expect("small");
    assert!(host_ghw >= jig_ghw);
    assert!(jig_ghw >= extraction.n);
}

#[test]
fn bcq_solving_end_to_end_on_jigsaw_queries() {
    // Prop. 2.2 in action: degree-2 jigsaw queries solved via GHD agree
    // with naive on planted and random databases.
    let j = jigsaw(2, 3);
    let q = cqd2::cq::generate::canonical_query(&j);
    let ghd = cqd2::decomp::widths::ghw_decomposition(&j).expect("small");
    assert!(ghd.width() <= 3);
    let bags = |db: &cqd2::cq::Database| cqd2::cq::MaterializedBags::build(&q, db, &ghd).unwrap();
    for seed in 0..4 {
        let db = planted_database(&q, 5, 15, seed);
        assert!(bags(&db).bcq());
        let db2 = random_database(&q, 4, 6, seed);
        let via = bags(&db2);
        assert_eq!(cqd2::cq::eval::bcq_naive(&q, &db2), via.bcq());
        assert_eq!(cqd2::cq::eval::count_naive(&q, &db2), via.count());
    }
}

#[test]
fn facade_analyze_on_pipeline_hosts() {
    let host = decorated_jigsaw_dual(2, 3, 1, 1);
    let report = cqd2::analyze(&host);
    assert_eq!(report.degree, 2);
    assert!(report.ghw_lower >= 2);
    let (n, _) = report.jigsaw.expect("jigsaw found");
    assert!(n >= 2);
}
