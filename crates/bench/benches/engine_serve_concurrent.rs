//! **Experiment E3 — concurrent socket serving vs sequential batches**:
//! N clients drive the same repeated-structure workload through a live
//! `cqd2-serve` loopback server (catalog-pinned owned sessions + shared
//! epoch-keyed prepared cache, so bag materialization is paid once per
//! query text) and are compared against `Engine::execute_batch` on a
//! single-worker engine, which re-prepares — statistics scan,
//! isomorphism translation, bag materialization — on every request.
//! The baseline is one thread end to end: `execute_batch` runs inline
//! at one worker, and evaluation never fans a query's bags out.
//!
//! The fixture is the prepared-query bench's rank-3 hypercycle on a
//! small planted database: per-request planning work dominates
//! execution, which is exactly the regime a serving front-end amortizes.
//! The headline wall-clock ratio is measured outside the criterion
//! sampling loop and gated at ≥ 1.5× (measured well above; the gate
//! leaves slack for loaded CI machines).

use cqd2::cq::generate::{canonical_query, planted_database};
use cqd2::engine::server::client::Client;
use cqd2::engine::server::{Server, ServerConfig};
use cqd2::engine::{textio, Catalog, Engine, EngineConfig, Request, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 50;

fn bench(c: &mut Criterion) {
    println!("\n=== E3: concurrent socket serving — repeated-structure workload ===");
    let q = canonical_query(&cqd2::hypergraph::generators::hypercycle(8, 3));
    let db = planted_database(&q, 6, 10, 17);
    let total = CLIENTS * QUERIES_PER_CLIENT;

    // --- Sequential baseline: one worker, one prepare per request. ---
    let engine_seq = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let requests: Vec<Request<'_>> = (0..total)
        .map(|_| Request {
            query: &q,
            db: &db,
            workload: Workload::Boolean,
        })
        .collect();
    // Warm the structure cache so the baseline pays translation, never
    // fresh decomposition — the comparison isolates per-request costs.
    let expected = engine_seq.serve(&requests[0]).answer.as_bool().unwrap();
    assert!(expected, "planted instance must be satisfiable");
    let t = Instant::now();
    let responses = engine_seq.execute_batch(&requests);
    let sequential = t.elapsed();
    assert!(responses.iter().all(|r| r.answer.as_bool() == Some(true)));

    // --- Concurrent serving through the socket front-end. ---
    let catalog = Catalog::new();
    catalog
        .publish_str("bench", &textio::render_database(&db))
        .expect("publish bench db");
    let engine_srv = Engine::default();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            queue_capacity: CLIENTS * 2,
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let batch_text = {
        let mut text = String::from("@boolean\n");
        for _ in 0..QUERIES_PER_CLIENT {
            text.push_str("Q: ");
            text.push_str(&q.display());
            text.push('\n');
        }
        text
    };
    let mut concurrent = Duration::ZERO;
    let mut warm_client_latency = Duration::ZERO;
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine_srv, &catalog).expect("server run"));
        // Connect and warm each client (and the server's prepared
        // cache) before the timed window, mirroring the baseline's
        // warmed structure cache.
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| {
                let mut client = Client::connect(addr).expect("connect");
                client.bind_db("bench").expect("bind");
                let warm = client.query(&q.display(), Workload::Boolean).expect("warm");
                assert_eq!(warm.answer.as_bool(), Some(true));
                client
            })
            .collect();
        let t = Instant::now();
        std::thread::scope(|inner| {
            for client in &mut clients {
                let batch_text = &batch_text;
                inner.spawn(move || {
                    let reply = client.request(batch_text).expect("batch");
                    assert_eq!(reply.results.len(), QUERIES_PER_CLIENT);
                    assert!(reply
                        .results
                        .iter()
                        .all(|r| r.answer.as_bool() == Some(true)));
                });
            }
        });
        concurrent = t.elapsed();
        // Warm single-query round-trip latency for the criterion group.
        let t = Instant::now();
        let one = clients[0]
            .query(&q.display(), Workload::Boolean)
            .expect("warm single");
        warm_client_latency = t.elapsed();
        assert!(one.prepared_hit, "steady state must hit the prepared cache");
        handle.shutdown();
        drop(clients);
        let stats = run.join().expect("server thread");
        assert!(
            stats.prepared_hits >= (total - CLIENTS) as u64,
            "repeated texts must reuse warm handles: {stats:?}"
        );
    });

    let speedup = sequential.as_secs_f64() / concurrent.as_secs_f64().max(1e-9);
    println!(
        "  sequential  ({total} × execute_batch, 1 worker): {sequential:?}\n  \
         concurrent  ({CLIENTS} clients × {QUERIES_PER_CLIENT} over TCP): {concurrent:?}\n  \
         warm single round-trip: {warm_client_latency:?}\n  speedup: {speedup:.1}×"
    );
    assert!(
        speedup >= 1.5,
        "concurrent serving must beat sequential execute_batch by ≥ 1.5× \
         on a repeated-structure batch (got {speedup:.2}×: {concurrent:?} vs {sequential:?})"
    );

    // Criterion group: per-request latency both ways (the server side
    // measured at the client, socket + framing included).
    let mut g = c.benchmark_group("engine_serve_concurrent");
    let req = Request {
        query: &q,
        db: &db,
        workload: Workload::Boolean,
    };
    g.bench_function("sequential/serve_per_request", |b| {
        b.iter(|| black_box(engine_seq.serve(&req)));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
