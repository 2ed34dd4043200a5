//! **Experiment V2 — Prop. 2.2 vs the lower-bound intuition**: BCQ on
//! degree-2 cycle queries — naive backtracking join vs GHD-guided
//! evaluation on *join-adversarial* databases.
//!
//! Workload: the canonical CQ of a rank-2 hypercycle of length 6 with
//! "increasing chain" relations `R_i = {(a, b) : a < b}`. No assignment
//! closes the cycle (values would have to strictly increase around it), so
//! the answer is NO — but naive backtracking must explore `Θ(C(s, 5))`
//! increasing partial chains before concluding that, while the width-2 GHD
//! route materializes `O(s³)` bag tuples and semijoins them away:
//! polynomial in the database, per Prop. 2.2.

use cqd2::cq::eval::{bcq_naive, MaterializedBags};
use cqd2::cq::generate::canonical_query;
use cqd2::cq::Database;
use cqd2::decomp::widths::ghw_decomposition;
use cqd2::hypergraph::generators::hypercycle;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Strictly-increasing pairs over `[0, s)` for the chain relations, and
/// strictly-*decreasing* pairs for the cycle-closing relation (whose atom
/// has variables `(v_0, v_{k-1})` in sorted order), so that values must
/// strictly increase all the way around the cycle — unsatisfiable, with
/// maximal partial-join fan-out.
fn increasing_chain_database(q: &cqd2::cq::ConjunctiveQuery, s: u64) -> Database {
    let mut db = Database::new();
    for atom in &q.atoms {
        let vars = atom.vars();
        let wrap = vars.len() == 2 && vars[1].0 != vars[0].0 + 1;
        for a in 0..s {
            for b in (a + 1)..s {
                if wrap {
                    db.insert(&atom.relation, &[b, a]);
                } else {
                    db.insert(&atom.relation, &[a, b]);
                }
            }
        }
    }
    db
}

fn bench(c: &mut Criterion) {
    println!("\n=== V2: BCQ evaluation — naive vs GHD on adversarial cycles ===");
    let h = hypercycle(6, 2);
    let q = canonical_query(&h);
    let ghd = ghw_decomposition(&h).expect("small degree-2 hypergraph");
    println!(
        "query: canonical CQ of the 6-cycle ({} atoms, ghw = {})",
        q.atoms.len(),
        ghd.width()
    );

    let ghd_bcq = |db: &Database| MaterializedBags::build(&q, db, &ghd).unwrap().bcq();
    let mut g = c.benchmark_group("bcq");
    for s in [8u64, 16, 24] {
        let db = increasing_chain_database(&q, s);
        assert!(!bcq_naive(&q, &db), "cycle of strict increases is UNSAT");
        assert!(!ghd_bcq(&db));
        g.bench_with_input(BenchmarkId::new("naive", s), &db, |b, db| {
            b.iter(|| black_box(bcq_naive(black_box(&q), black_box(db))))
        });
        g.bench_with_input(BenchmarkId::new("ghd", s), &db, |b, db| {
            b.iter(|| black_box(ghd_bcq(black_box(db))))
        });
    }
    g.finish();
    println!("shape: naive cost explodes combinatorially in the domain size s");
    println!("(≈ C(s,5) partial chains); GHD evaluation stays polynomial (Prop. 2.2).");
}

criterion_group! {
    name = benches;
    config = cqd2_bench::quick_criterion();
    targets = bench
}
criterion_main!(benches);
