//! Quickstart: build a conjunctive query and a database, inspect the
//! query's hypergraph structure, and evaluate it with the GHD-guided
//! engine.
//!
//! Run with: `cargo run --release --example quickstart`

use cqd2::cq::{ConjunctiveQuery, Database, MaterializedBags};
use cqd2::decomp::widths::{ghw_decomposition, ghw_exact};
use cqd2::engine::{Engine, Request, Workload};

fn main() {
    // A degree-2 cyclic query: R(x,y) ∧ S(y,z) ∧ T(z,w) ∧ U(w,x).
    let q = ConjunctiveQuery::parse(&[
        ("R", &["?x", "?y"]),
        ("S", &["?y", "?z"]),
        ("T", &["?z", "?w"]),
        ("U", &["?w", "?x"]),
    ]);
    println!("query:      {}", q.display());

    let h = q.hypergraph();
    println!(
        "hypergraph: |V| = {}, |E| = {}, degree = {}, rank = {}",
        h.num_vertices(),
        h.num_edges(),
        h.max_degree(),
        h.rank()
    );
    println!("ghw:        {:?}", ghw_exact(&h));

    // A database with one 4-cycle and some noise.
    let mut db = Database::new();
    db.insert_all("R", &[vec![1, 2], vec![5, 6], vec![8, 9]]);
    db.insert_all("S", &[vec![2, 3], vec![6, 7]]);
    db.insert_all("T", &[vec![3, 4], vec![7, 5]]);
    db.insert_all("U", &[vec![4, 1], vec![9, 8]]);

    let report = cqd2::analyze(&h);
    println!(
        "analysis:   ghw ∈ [{}, {}], jigsaw extracted: {:?}",
        report.ghw_lower, report.ghw_upper, report.jigsaw
    );

    // Evaluate three ways and cross-check.
    let naive = cqd2::cq::eval::bcq_naive(&q, &db);
    let ghd = ghw_decomposition(&h).expect("small query");
    let via_ghd = MaterializedBags::build(&q, &db, &ghd)
        .expect("valid GHD")
        .bcq();
    let req = Request {
        query: &q,
        db: &db,
        workload: Workload::Count,
    };
    let count = Engine::shared().serve(&req).answer.as_count();
    println!("BCQ naive:  {naive}");
    println!(
        "BCQ GHD:    {via_ghd} (width-{} decomposition)",
        ghd.width()
    );
    println!(
        "#CQ:        {} (served by the engine)",
        count.expect("count workload")
    );
    assert_eq!(naive, via_ghd);

    // Semantic width: add a redundant atom and watch the core shrink.
    let q2 = ConjunctiveQuery::parse(&[
        ("R", &["?x", "?y"]),
        ("S", &["?y", "?z"]),
        ("T", &["?z", "?w"]),
        ("U", &["?w", "?x"]),
        ("R", &["?a", "?b"]), // redundant: folds onto R(x,y)
    ]);
    let core = cqd2::cq::hom::core_of(&q2);
    println!(
        "core:       {} atoms -> {} atoms; semantic ghw = {:?}",
        q2.atoms.len(),
        core.atoms.len(),
        cqd2::cq::hom::semantic_ghw(&q2)
    );
}
