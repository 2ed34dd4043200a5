//! **Experiment E8 — the incremental update plane**, one gate and one
//! correctness check:
//!
//! - **E8a, small-delta publish**: applying a dozen-fact delta to a
//!   ≥ 10⁵-row database through [`Catalog::apply_delta`] (merge only
//!   the touched relation, stitch its statistics, publish the next
//!   epoch with every untouched relation `Arc`-shared) must beat a
//!   full text reload ([`Catalog::swap_str`]: re-parse every fact,
//!   rebuild every relation, rerun the whole statistics pass) by
//!   **≥ 5×**. The delta's cost is `O(‖Δ‖ + |touched|)`, the reload's
//!   is `O(‖D‖)` — the gate pins that asymmetry down as a floor.
//! - **E8b, warm maintenance** (untimed): migrating a prepared handle
//!   across a delta via [`PreparedQuery::rebase`] (re-materialize only
//!   the dirty bags, carry clean bags and their probe caches by `Arc`)
//!   must answer exactly like a full re-prepare, report `WarmOverlay`,
//!   and dirty a strict minority of the spine on a long chain. What a
//!   rebase costs against a re-prepare is the benchmark ledger's
//!   `session.rebase_us` vs `session.prepare_us`; the criterion group
//!   below still prints both.
//!
//! Both sides are checked to agree on the data (E8a) or the answer
//! (E8b) before any timing. The headline ratio is interleaved
//! min-of-rounds so slow drift cancels.

use cqd2::cq::generate::canonical_query;
use cqd2::cq::{Database, DatabaseDelta};
use cqd2::engine::textio::{parse_database, render_database};
use cqd2::engine::{Catalog, Engine, MaintenanceClass, Workload};
use cqd2::hypergraph::generators::hyperchain;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 10;
/// 8 chain relations × 20k rows = 160k facts (the ≥ 1e5 floor). The
/// chain is long so E8b's delta dirties a small minority of the bag
/// spine — the regime the warm-maintenance gate is about.
const RELATIONS: usize = 8;
const ROWS_PER_RELATION: usize = 20_000;
const DOMAIN: u64 = 30_000;

/// xorshift64* — deterministic fixture data without a rand dependency.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(2685821657736338717)
}

/// The fixture: the 8-edge binary hyperchain's canonical relations
/// R0..R7, each 20k sorted-distinct random pairs.
fn fixture() -> Database {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut db = Database::new();
    for r in 0..RELATIONS {
        let mut tuples: Vec<Vec<u64>> = (0..ROWS_PER_RELATION)
            .map(|_| (0..2).map(|_| xorshift(&mut state) % DOMAIN).collect())
            .collect();
        tuples.sort_unstable();
        tuples.dedup();
        db.insert_sorted_relation(&format!("R{r}"), 2, tuples)
            .expect("fresh relation");
    }
    assert!(db.size() >= 100_000, "fixture must have >= 1e5 rows");
    db
}

/// A dozen-fact delta on the chain's last relation (fresh inserts above
/// the domain, deletes of existing tuples) and its exact inverse, for
/// drift-free rounds.
fn delta_and_inverse(db: &Database) -> (DatabaseDelta, DatabaseDelta) {
    let last = format!("R{}", RELATIONS - 1);
    let existing = &db
        .relation(&last)
        .expect("fixture has the last relation")
        .tuples;
    let mut delta = DatabaseDelta::new();
    let mut inverse = DatabaseDelta::new();
    for i in 0..8u64 {
        let fresh = vec![1_000_000 + i, 2_000_000 + i];
        delta.insert(&last, fresh.clone());
        inverse.delete(&last, fresh);
    }
    for tuple in existing.iter().take(4) {
        delta.delete(&last, tuple.to_vec());
        inverse.insert(&last, tuple.to_vec());
    }
    (delta, inverse)
}

fn bench(c: &mut Criterion) {
    println!("\n=== E8: incremental update plane — delta publish + warm maintenance ===");
    let db = fixture();
    let total_rows = db.size();
    let (delta, inverse) = delta_and_inverse(&db);

    // -------- E8a: small-delta publish vs text full reload ----------
    let catalog = Catalog::new();
    catalog
        .publish("live", db.clone())
        .expect("publish fixture");

    // Correctness first: the delta'd snapshot must equal the database
    // the text route rebuilds from scratch, statistics included, with
    // every untouched relation carried as the same Arc.
    let out = catalog.apply_delta("live", &delta).expect("delta applies");
    assert_eq!(out.touched, vec![format!("R{}", RELATIONS - 1)]);
    let text_after = render_database(out.snapshot.db());
    let reparsed = parse_database(&text_after).expect("render round-trips");
    assert_eq!(
        out.snapshot.db(),
        &reparsed,
        "routes must agree on the data"
    );
    assert_eq!(
        out.snapshot.stats(),
        &reparsed.stats(),
        "stitched stats must match a full pass"
    );
    for r in 0..RELATIONS - 1 {
        let name = format!("R{r}");
        assert!(
            std::sync::Arc::ptr_eq(
                out.previous.db().relation_arc(&name).unwrap(),
                out.snapshot.db().relation_arc(&name).unwrap(),
            ),
            "untouched {name} must be Arc-shared across the delta"
        );
    }
    catalog
        .apply_delta("live", &inverse)
        .expect("restore fixture");
    println!(
        "  fixture: {total_rows} rows in {RELATIONS} relations, delta = 8 inserts + 4 deletes \
         ({} text bytes to reload)",
        text_after.len()
    );

    let mut delta_best = Duration::MAX;
    let mut reload_best = Duration::MAX;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(catalog.apply_delta("live", &delta).expect("delta applies"));
        delta_best = delta_best.min(t.elapsed());
        catalog.apply_delta("live", &inverse).expect("restore");

        let t = Instant::now();
        black_box(catalog.swap_str("live", &text_after).expect("text reload"));
        reload_best = reload_best.min(t.elapsed());
        catalog.swap("live", db.clone()).expect("restore");
    }
    let publish_speedup = reload_best.as_secs_f64() / delta_best.as_secs_f64().max(1e-12);
    println!(
        "  delta publish (best of {ROUNDS}):   {delta_best:?}\n  \
         text full reload (best of {ROUNDS}): {reload_best:?}\n  \
         reload / delta: {publish_speedup:.1}×"
    );
    assert!(
        publish_speedup >= 5.0,
        "small-delta publish must be >= 5x faster than a text full reload \
         (got {publish_speedup:.2}x: {delta_best:?} vs {reload_best:?})"
    );
    println!("GATE engine_delta/publish ratio={publish_speedup:.3} floor=5 cmp=ge status=PASS");

    // -------- E8b: warm rebase vs full re-prepare -------------------
    let q = canonical_query(&hyperchain(RELATIONS, 2));
    let engine = Engine::default();
    let prepared = engine
        .session_in(&catalog, "live")
        .expect("live is published")
        .prepare(&q)
        .expect("chain plans");
    let out = catalog.apply_delta("live", &delta).expect("delta applies");

    // Correctness gate: the warm-rebased handle answers exactly like a
    // fresh prepare on the post-delta snapshot, and says it crossed the
    // epoch warm.
    let (warm, pass) = prepared.rebase(&out.snapshot, &out.touched);
    assert_eq!(warm.maintenance(), Some(MaintenanceClass::WarmOverlay));
    assert!(
        pass.rewritten >= 1 && pass.rewritten < pass.total,
        "delta must dirty a strict minority of the spine \
         (rewrote {} of {} bags)",
        pass.rewritten,
        pass.total
    );
    let reprepared = engine
        .session_in(&catalog, "live")
        .expect("live is published")
        .prepare(&q)
        .expect("chain plans");
    let expected = reprepared.run(Workload::Count).answer.as_count();
    assert_eq!(warm.run(Workload::Count).answer.as_count(), expected);
    println!(
        "  warm rebase rewrote {} of {} bags; count = {:?}",
        pass.rewritten, pass.total, expected
    );

    // Criterion group: the same four routes under its sampler.
    let mut g = c.benchmark_group("engine_delta");
    g.sample_size(10);
    g.bench_function("publish/delta", |b| {
        b.iter(|| {
            black_box(catalog.apply_delta("live", &delta).expect("applies"));
            catalog.apply_delta("live", &inverse).expect("restore");
        });
    });
    g.bench_function("publish/text_reload", |b| {
        b.iter(|| black_box(catalog.swap_str("live", &text_after).expect("reload")));
    });
    catalog.swap("live", db.clone()).expect("restore");
    let out = catalog.apply_delta("live", &delta).expect("applies");
    g.bench_function("maintenance/warm_rebase", |b| {
        b.iter(|| black_box(prepared.rebase(&out.snapshot, &out.touched)));
    });
    g.bench_function("maintenance/re_prepare", |b| {
        b.iter(|| {
            black_box(
                engine
                    .session_in(&catalog, "live")
                    .expect("published")
                    .prepare(&q)
                    .expect("plans"),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
