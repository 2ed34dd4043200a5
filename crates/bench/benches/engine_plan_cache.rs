//! **Experiment E1 — plan-cache amortization**: serving a 100-query
//! repeated-structure batch through the engine (structure planned once,
//! 99 cache hits) vs 100 one-shot `Engine::serve` calls, each on a
//! fresh engine, which re-plan the structure from scratch every time.
//!
//! The fixture structure is a rank-3 hypercycle on 16 vertices: small
//! enough for the exact ghw DP, large enough that re-running that DP per
//! query dominates evaluation — precisely the workload shape the plan
//! cache exists for.

use cqd2::cq::generate::{canonical_query, planted_database};
use cqd2::cq::{Atom, ConjunctiveQuery, Database, Term, Var};
use cqd2::engine::{Engine, EngineConfig, Request, Workload};
use cqd2::hypergraph::generators::hypercycle;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// An isomorphic copy of `q`: variables rotated, relations tagged.
fn renamed_copy(q: &ConjunctiveQuery, shift: usize, tag: &str) -> ConjunctiveQuery {
    let n = q.num_vars();
    let mut var_names = vec![String::new(); n];
    for (i, name) in q.var_names.iter().enumerate() {
        var_names[(i + shift) % n] = format!("{name}_{tag}");
    }
    let atoms = q
        .atoms
        .iter()
        .map(|a| Atom {
            relation: format!("{}_{tag}", a.relation),
            terms: a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(Var(((v.idx() + shift) % n) as u32)),
                    Term::Const(c) => Term::Const(*c),
                })
                .collect(),
        })
        .collect();
    ConjunctiveQuery { atoms, var_names }
}

fn renamed_db(q: &ConjunctiveQuery, db: &Database, tag: &str) -> Database {
    let mut out = Database::new();
    for atom in &q.atoms {
        if let Some(rel) = db.relation(&atom.relation) {
            out.insert_all(&format!("{}_{tag}", atom.relation), &rel.tuples.to_tuples());
        }
    }
    out
}

fn bench(c: &mut Criterion) {
    println!("\n=== E1: plan cache — 100-query repeated-structure batch ===");
    let base = canonical_query(&hypercycle(8, 3));
    let base_db = planted_database(&base, 6, 10, 17);
    let batch_size = 100usize;
    let queries: Vec<ConjunctiveQuery> = (0..batch_size)
        .map(|i| renamed_copy(&base, i % base.num_vars(), &format!("q{i}")))
        .collect();
    let dbs: Vec<Database> = (0..batch_size)
        .map(|i| renamed_db(&base, &base_db, &format!("q{i}")))
        .collect();

    // Correctness gate: engine answers match the naive oracle on every
    // request, and the whole batch is planted-satisfiable.
    let engine = Engine::new(EngineConfig::default());
    let requests: Vec<Request<'_>> = queries
        .iter()
        .zip(&dbs)
        .map(|(query, db)| Request {
            query,
            db,
            workload: Workload::Boolean,
        })
        .collect();
    let responses = engine.execute_batch(&requests);
    for (req, resp) in requests.iter().zip(&responses) {
        assert_eq!(
            resp.answer.as_bool().unwrap(),
            cqd2::cq::eval::bcq_naive(req.query, req.db),
            "engine answer diverged"
        );
        assert_eq!(resp.answer.as_bool(), Some(true), "planted solution lost");
    }
    let stats = engine.cache_stats();
    println!(
        "  cache after warm batch: {} hits / {} misses ({} structure)",
        stats.hits, stats.misses, stats.entries
    );
    assert_eq!(
        stats.misses, 1,
        "one structure class must plan exactly once"
    );

    // Cold: every request planned from scratch, on an engine with an
    // empty cache.
    let serve_cold = |req: &Request<'_>| Engine::new(EngineConfig::default()).serve(req);

    // Headline numbers outside the sampling loop: one full pass each way.
    let t = Instant::now();
    for req in &requests {
        black_box(serve_cold(req));
    }
    let cold = t.elapsed();
    let warm_engine = Engine::new(EngineConfig::default());
    warm_engine.execute_batch(&requests); // prime the cache
    let t = Instant::now();
    black_box(warm_engine.execute_batch(&requests));
    let warm = t.elapsed();
    println!(
        "  cold (100 × fresh engine, plan+eval): {cold:?}\n  warm (engine, cached plans): {warm:?}\n  speedup: {:.1}×",
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9)
    );
    assert!(
        warm < cold,
        "warm cache batch ({warm:?}) must beat cold per-query planning ({cold:?})"
    );

    let mut g = c.benchmark_group("engine_plan_cache");
    g.bench_function("cold/100x_fresh_engine_serve", |b| {
        b.iter(|| {
            for req in &requests {
                black_box(serve_cold(black_box(req)));
            }
        })
    });
    g.bench_function("warm/100x_engine_batch_cached", |b| {
        let engine = Engine::new(EngineConfig::default());
        engine.execute_batch(&requests); // prime
        b.iter(|| black_box(engine.execute_batch(black_box(&requests))))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = cqd2_bench::quick_criterion();
    targets = bench
}
criterion_main!(benches);
