//! **Experiment V3 — Prop. 4.14 / Theorem 4.16**: #CQ for full degree-2
//! CQs — junction-tree counting DP vs naive enumeration. The DP's cost is
//! polynomial in `‖D‖` for bounded ghw; enumeration pays for every answer.

use cqd2::cq::eval::{count_naive, MaterializedBags};
use cqd2::cq::generate::{canonical_query, planted_database};
use cqd2::cq::Database;
use cqd2::decomp::widths::ghw_decomposition;
use cqd2::hypergraph::generators::hypercycle;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n=== V3: #CQ counting — DP vs enumeration on degree-2 cycles ===");
    let mut g = c.benchmark_group("counting");
    println!("  cycle len | answers | ghw");
    for k in [4usize, 6, 8] {
        let h = hypercycle(k, 2);
        let q = canonical_query(&h);
        let db = planted_database(&q, 8, 80, k as u64);
        let ghd = ghw_decomposition(&h).expect("small");
        let naive = count_naive(&q, &db);
        let ghd_count = |db: &Database| MaterializedBags::build(&q, db, &ghd).unwrap().count();
        let via = ghd_count(&db);
        assert_eq!(naive, via);
        println!("  {k:>9} | {naive:>7} | {}", ghd.width());
        g.bench_with_input(BenchmarkId::new("naive", k), &db, |b, db| {
            b.iter(|| black_box(count_naive(black_box(&q), black_box(db))))
        });
        g.bench_with_input(BenchmarkId::new("ghd_dp", k), &db, |b, db| {
            b.iter(|| black_box(ghd_count(black_box(db))))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = cqd2_bench::quick_criterion();
    targets = bench
}
criterion_main!(benches);
