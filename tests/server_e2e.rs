//! End-to-end loopback tests of the `cqd2-serve` socket front-end:
//! concurrent clients, backpressure rejection, malformed frames, hot
//! reload (epoch pinning + prepared-cache invalidation), and graceful
//! shutdown, all against a real TCP listener on 127.0.0.1.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cqd2::cq::eval::{bcq_naive, count_naive, enumerate_naive};
use cqd2::cq::generate::{canonical_query, planted_database};
use cqd2::engine::server::client::Client;
use cqd2::engine::server::frame::{read_frame, write_frame, FrameType, PROTOCOL_VERSION};
use cqd2::engine::server::wire::{ErrorCode, WireDbStats, WireError};
use cqd2::engine::server::{Server, ServerConfig, ServerHandle, ServerStats};
use cqd2::engine::textio::{self, parse_workload};
use cqd2::engine::{Answer, Catalog, Engine, Workload};
use cqd2::hypergraph::generators::{hyperchain, hypercycle};

/// Run `f` against a live server, then shut the server down and return
/// `f`'s result plus the server's final stats.
fn with_server<R>(
    config: ServerConfig,
    catalog: &Catalog,
    f: impl FnOnce(SocketAddr, &ServerHandle) -> R,
) -> (R, ServerStats) {
    let engine = Engine::default();
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let mut outcome = None;
    let mut stats = None;
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, catalog).expect("server run"));
        // Shut the server down even when `f` panics: without this the
        // scope would wait forever for the server thread and turn an
        // assertion failure into a hang.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr, &handle)));
        handle.shutdown();
        stats = Some(run.join().expect("server thread"));
        match result {
            Ok(r) => outcome = Some(r),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    });
    (outcome.unwrap(), stats.unwrap())
}

/// A fast config for tests: snappy polling, small queue optional via
/// override.
fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        poll_interval: Duration::from_millis(5),
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

const FACTS: &str = "R(1, 2)\nR(3, 3)\nS(2, 3)\nS(2, 4)\nS(3, 5)\n";

fn small_catalog() -> Catalog {
    let catalog = Catalog::new();
    catalog.publish_str("main", FACTS).expect("publish main");
    catalog
        .publish_str("empty", "T(0)\n")
        .expect("publish empty");
    catalog
}

#[test]
fn eight_concurrent_clients_get_consistent_answers() {
    // One workload text is the shared source of truth: the same facts
    // go to the server catalog and into the local naive evaluation.
    let workload = format!("Q: R(?x, ?y), S(?y, ?z)\nQ: R(?a, ?a)\n{FACTS}");
    let parsed = parse_workload(&workload).expect("workload parses");
    let q_join = &parsed.queries[0];
    let q_loop = &parsed.queries[1];
    let expect_count = count_naive(q_join, &parsed.db);
    let expect_bool = bcq_naive(q_loop, &parsed.db);
    let expect_tuples = enumerate_naive(q_join, &parsed.db);

    let catalog = small_catalog();
    let clients = 8;
    let rounds = 5;
    let ((), stats) = with_server(test_config(), &catalog, |addr, _| {
        std::thread::scope(|s| {
            for c in 0..clients {
                let expect_tuples = &expect_tuples;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let bound = client.bind_db("main").expect("bind");
                    assert_eq!(bound.facts, 5);
                    assert_eq!(bound.epoch, 0);
                    for _ in 0..rounds {
                        // A mixed batch in one frame: count + boolean +
                        // enumerate over repeated structures.
                        let reply = client
                            .request(
                                "@count\nQ: R(?x, ?y), S(?y, ?z)\n\
                                 @boolean\nQ: R(?a, ?a)\n\
                                 @enumerate\nQ: R(?x, ?y), S(?y, ?z)\n",
                            )
                            .unwrap_or_else(|e| panic!("client {c}: {e}"));
                        assert_eq!(reply.results.len(), 3);
                        assert_eq!(reply.results[0].answer.as_count(), Some(expect_count));
                        assert_eq!(reply.results[1].answer.as_bool(), Some(expect_bool));
                        let mut tuples = reply.results[2]
                            .answer
                            .clone()
                            .into_tuples()
                            .expect("tuples");
                        tuples.sort_unstable();
                        assert_eq!(&tuples, expect_tuples);
                    }
                });
            }
        });
    });
    assert_eq!(stats.connections, clients);
    assert_eq!(stats.batches, clients * rounds);
    assert_eq!(stats.answered, clients * rounds * 3);
    assert_eq!(stats.rejected_overload, 0);
    // The per-database prepared cache is shared across connections:
    // each distinct (query text, workload-relevant) structure is
    // prepared a bounded number of times (concurrent first-misses can
    // duplicate work, never more than one prepare per execution), and
    // the steady state is all hits.
    assert!(
        stats.prepared_hits > stats.prepared_misses,
        "warm serving must be hit-dominated: {stats:?}"
    );
    assert_eq!(stats.prepared_hits + stats.prepared_misses, stats.answered);
}

#[test]
fn full_queue_rejects_with_typed_overloaded_frames() {
    // A deliberately expensive fixture so one worker stays busy while
    // the queue (capacity 1) fills: a rank-2 hypercycle with a planted
    // database large enough that counting takes real time.
    let q = canonical_query(&hypercycle(6, 2));
    let db = planted_database(&q, 40, 4000, 11);
    let catalog = Catalog::new();
    catalog
        .publish_str("big", &textio::render_database(&db))
        .expect("publish big");
    let query_line = format!("@count\nQ: {}\n", q.display());

    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..test_config()
    };
    let pipelined = 24;
    let ((done, overloaded), stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("big").expect("bind");
        // Pipeline a burst of single-query batches without reading any
        // response: the first occupies the worker, the second sits in
        // the queue, the rest must be rejected immediately.
        for _ in 0..pipelined {
            client
                .send(FrameType::Query, query_line.as_bytes())
                .expect("send");
        }
        let mut done = 0u32;
        let mut overloaded = 0u32;
        let mut results = 0u32;
        // Each batch terminates in exactly one Done or one Error frame.
        while done + overloaded < pipelined {
            let frame = client.read().expect("read");
            match frame.frame_type {
                FrameType::Result => results += 1,
                FrameType::Done => done += 1,
                FrameType::Error => {
                    let err: WireError =
                        serde::json::from_str(frame.text().expect("utf8")).expect("json");
                    assert_eq!(err.code, ErrorCode::Overloaded, "{err:?}");
                    assert!(err.request.is_some());
                    // Overloaded rejections carry the live queue
                    // picture for informed client backoff.
                    assert_eq!(err.queue_capacity, Some(1), "{err:?}");
                    assert!(
                        err.queue_depth.is_some(),
                        "Overloaded must report the queue depth: {err:?}"
                    );
                    overloaded += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(results, done, "every completed batch carried 1 result");
        (done, overloaded)
    });
    assert_eq!(done + overloaded, pipelined);
    assert!(
        overloaded >= 1,
        "a 1-slot queue under a {pipelined}-frame burst must reject: {stats:?}"
    );
    assert!(done >= 1, "accepted work still completes: {stats:?}");
    assert_eq!(stats.rejected_overload, u64::from(overloaded));
    // The server survived the burst and still answers.
    assert_eq!(stats.answered, u64::from(done));
}

#[test]
fn malformed_frames_get_typed_errors() {
    let catalog = small_catalog();
    let max_frame = 4096u32;
    let config = ServerConfig {
        max_frame_len: max_frame,
        ..test_config()
    };
    let ((), stats) = with_server(config, &catalog, |addr, _| {
        let read_error = |stream: &mut TcpStream| -> WireError {
            let frame = read_frame(stream, 1 << 20).expect("error frame");
            assert_eq!(frame.frame_type, FrameType::Error);
            serde::json::from_str(std::str::from_utf8(&frame.payload).unwrap()).expect("json")
        };

        // Wrong version byte: typed Version error, then close.
        let mut s = TcpStream::connect(addr).unwrap();
        std::io::Write::write_all(&mut s, &[9, 1, 0, 0, 0, 0]).unwrap();
        let err = read_error(&mut s);
        assert_eq!(err.code, ErrorCode::Version, "{err:?}");
        assert!(read_frame(&mut s, 1 << 20).is_err(), "connection closed");

        // A protocol-1 peer against this v2 server: the canonical
        // unsupported-version round-trip. The error is typed, names
        // both versions, and the connection closes.
        assert_eq!(PROTOCOL_VERSION, 2, "this suite tests the v2 protocol");
        let mut s = TcpStream::connect(addr).unwrap();
        std::io::Write::write_all(&mut s, &[1, 0x01, 0, 0, 0, 0]).unwrap();
        let err = read_error(&mut s);
        assert_eq!(err.code, ErrorCode::Version, "{err:?}");
        assert!(
            err.message.contains("version 1") && err.message.contains('2'),
            "names both versions: {err:?}"
        );
        assert!(read_frame(&mut s, 1 << 20).is_err(), "connection closed");

        // Unknown frame type.
        let mut s = TcpStream::connect(addr).unwrap();
        std::io::Write::write_all(&mut s, &[PROTOCOL_VERSION, 0x55, 0, 0, 0, 0]).unwrap();
        let err = read_error(&mut s);
        assert_eq!(err.code, ErrorCode::BadFrame);

        // Oversized declared length.
        let mut s = TcpStream::connect(addr).unwrap();
        let mut header = vec![PROTOCOL_VERSION, 0x02];
        header.extend_from_slice(&(max_frame + 1).to_be_bytes());
        std::io::Write::write_all(&mut s, &header).unwrap();
        let err = read_error(&mut s);
        assert_eq!(err.code, ErrorCode::BadFrame);
        assert!(err.message.contains("exceeds"), "{err:?}");

        // Server→client frame type sent by the client.
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, FrameType::Done, b"{}").unwrap();
        let err = read_error(&mut s);
        assert_eq!(err.code, ErrorCode::BadFrame);

        // Request-level errors keep the connection alive.
        let mut client = Client::connect(addr).expect("connect");
        // Query before bind.
        let err = match client.request("Q: R(?x)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::NotBound);
        // Unknown database.
        let err = match client.bind_db("nope") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::UnknownDb);
        assert!(err.message.contains("main"), "lists served dbs: {err:?}");
        // Bind failure did not unbind anything: now bind properly.
        client.bind_db("main").expect("bind");
        // Parse errors name their line and leave the connection usable.
        let err = match client.request("@count\nQ: R(?x\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Parse);
        assert_eq!(err.line, Some(2), "{err:?}");
        // Facts are rejected in query batches.
        let err = match client.request("Q: R(?x)\nR(1)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Parse);
        // …and the connection still answers real queries.
        let result = client.query("R(?x, ?y)", Workload::Count).expect("query");
        assert_eq!(result.answer.as_count(), Some(2));
    });
    assert!(stats.protocol_errors >= 5, "{stats:?}");
    assert!(stats.parse_errors >= 2, "{stats:?}");
}

#[test]
fn graceful_shutdown_drains_and_notifies() {
    let catalog = small_catalog();
    let ((), stats) = with_server(test_config(), &catalog, |addr, handle| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("main").expect("bind");
        let reply = client.request("@count\nQ: S(?x, ?y)\n").expect("request");
        assert_eq!(reply.results[0].answer.as_count(), Some(3));
        // Shut down while the client is idle-connected.
        handle.shutdown();
        assert!(handle.is_shutdown());
        // The connection is told, then closed: a ShuttingDown error
        // frame followed by EOF.
        let frame = client.read().expect("goodbye frame");
        assert_eq!(frame.frame_type, FrameType::Error);
        let err: WireError = serde::json::from_str(frame.text().expect("utf8")).expect("json");
        assert_eq!(err.code, ErrorCode::ShuttingDown, "{err:?}");
        assert!(client.read().is_err(), "EOF after goodbye");
    });
    // `with_server` already proves `run` returned (the scope joined);
    // the counters survived the trip.
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.answered, 1);
}

#[test]
fn a_client_that_vanishes_mid_batch_does_not_hold_shutdown() {
    // An accepted batch counts against its connection's graceful drain
    // until it is fully answered. A client that pipelines unlimited
    // enumerations and drops its socket without reading a byte leaves
    // batches that can only end in a failed write — and those must
    // release the count too, or shutdown waits out `drain_timeout`.
    let q = canonical_query(&hyperchain(3, 2));
    let db = planted_database(&q, 8, 400, 7);
    let catalog = Catalog::new();
    catalog
        .publish_str("chain", &textio::render_database(&db))
        .expect("publish chain");
    let config = test_config();
    let drain_timeout = config.drain_timeout;
    let batch = format!("@enumerate\nQ: {}\n", q.display());

    let started = std::time::Instant::now();
    let (handle, stats) = with_server(config, &catalog, |addr, handle| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("chain").expect("bind");
        for _ in 0..4 {
            client
                .send(FrameType::Query, batch.as_bytes())
                .expect("send");
        }
        drop(client);
        handle.clone()
    });
    assert!(
        started.elapsed() < drain_timeout / 2,
        "shutdown waited on a dead connection: {:?} (drain_timeout {drain_timeout:?})",
        started.elapsed()
    );
    assert_eq!(stats.connections, 1);
    let line = handle.stats_line().expect("the registry outlives run");
    assert!(line.contains("(0 active)"), "{line}");
}

#[test]
fn stats_frame_final_stats_and_database_sections_are_one_list() {
    // Three views of the same counters: the `Stats` frame's server-wide
    // fields, the `ServerStats` that `Server::run` returns, and the sums
    // over the frame's per-database sections. Drive every kind of
    // traffic, then read the frame as the very last request.
    let catalog = small_catalog();
    let config = ServerConfig {
        allow_reload: true,
        ..test_config()
    };
    let (wire, stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("main").expect("bind");
        for _ in 0..3 {
            client
                .request("@count\nQ: R(?x, ?y), S(?y, ?z)\n@enumerate\nQ: R(?a, ?b)\n")
                .expect("batch");
        }
        client.request("Q: R(?x\n").expect_err("parse error");
        client.bind_db("nope").expect_err("unknown db");
        client
            .delta("main", "@insert\nR(7, 8)\n@delete\nS(3, 5)\n")
            .expect("delta");
        client
            .delta("main", "@insert\nGhost(1)\n")
            .expect_err("delta error");
        client.reload("empty", "T(1)\nT(2)\n").expect("reload");
        client
            .reload("empty", "T(1\n")
            .expect_err("reload parse error");
        client
            .reload_snapshot("empty", "/nonexistent/x.cqds")
            .expect_err("store error");
        client.bind_db("empty").expect("rebind");
        client
            .request("@count\nQ: T(?x)\n")
            .expect("batch on empty");
        drop(client);
        // A protocol violation on its own connection.
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        write_frame(&mut raw, FrameType::Done, b"{}").expect("write");
        read_frame(&mut raw, 1 << 20).expect("error frame");
        drop(raw);
        Client::connect(addr)
            .expect("connect observer")
            .stats()
            .expect("stats")
    });

    let from_wire = ServerStats {
        connections: wire.connections,
        frames: wire.frames,
        batches: wire.batches,
        queries: wire.queries,
        answered: wire.answered,
        rejected_overload: wire.rejected_overload,
        parse_errors: wire.parse_errors,
        protocol_errors: wire.protocol_errors,
        internal_errors: wire.internal_errors,
        prepared_hits: wire.prepared_hits,
        prepared_misses: wire.prepared_misses,
        reloads: wire.reloads,
        rejected_unauthorized: wire.rejected_unauthorized,
        store_errors: wire.store_errors,
        bags_rewritten: wire.bags_rewritten,
        bags_total: wire.bags_total,
        delta_batches: wire.delta_batches,
        facts_inserted: wire.facts_inserted,
        facts_deleted: wire.facts_deleted,
        bags_remat: wire.bags_remat,
        delta_errors: wire.delta_errors,
    };
    assert_eq!(from_wire, stats, "frame and final stats diverge");
    // The traffic above reached every counter family.
    assert_eq!(
        (stats.batches, stats.answered, stats.reloads),
        (4, 7, 1),
        "{stats:?}"
    );
    assert_eq!((stats.parse_errors, stats.protocol_errors), (2, 1));
    assert_eq!((stats.store_errors, stats.delta_errors), (1, 1));
    assert_eq!((stats.delta_batches, stats.facts_inserted), (1, 1));

    let sum = |f: fn(&WireDbStats) -> u64| wire.databases.iter().map(f).sum::<u64>();
    assert_eq!(sum(|d| d.batches), stats.batches);
    assert_eq!(sum(|d| d.queries), stats.answered);
    assert_eq!(sum(|d| d.prepared_hits), stats.prepared_hits);
    assert_eq!(sum(|d| d.prepared_misses), stats.prepared_misses);
    assert_eq!(sum(|d| d.bags_rewritten), stats.bags_rewritten);
    assert_eq!(sum(|d| d.bags_total), stats.bags_total);
    assert_eq!(sum(|d| d.delta_batches), stats.delta_batches);
    assert_eq!(sum(|d| d.facts_inserted), stats.facts_inserted);
    assert_eq!(sum(|d| d.facts_deleted), stats.facts_deleted);
    assert_eq!(sum(|d| d.bags_remat), stats.bags_remat);
    assert_eq!(sum(|d| d.overloads), stats.rejected_overload);
    // Every error counted against a database has exactly one
    // server-wide home, and vice versa.
    assert_eq!(
        sum(|d| d.errors),
        stats.parse_errors + stats.internal_errors + stats.store_errors + stats.delta_errors
    );
    assert_eq!(sum(|d| d.latency.count), stats.answered);
}

#[test]
fn enumerate_limits_and_rebinding_work_over_the_wire() {
    let q = canonical_query(&hyperchain(3, 2));
    let db = planted_database(&q, 6, 24, 7);
    let expected = enumerate_naive(&q, &db);
    let catalog = Catalog::new();
    catalog
        .publish_str("chain", &textio::render_database(&db))
        .expect("publish chain");
    catalog
        .publish_str("tiny", "T(1)\nT(2)\n")
        .expect("publish tiny");

    let ((), _) = with_server(test_config(), &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("chain").expect("bind");
        // Full enumeration matches the naive evaluator.
        let all = client
            .query(&q.display(), Workload::Enumerate { limit: None })
            .expect("enumerate");
        let mut tuples = all.answer.into_tuples().expect("tuples");
        tuples.sort_unstable();
        assert_eq!(tuples, expected);
        // `@enumerate 0` is an explicit empty cap, not "no limit" —
        // over the socket, through the full parse/plan/frame cycle.
        let capped = client
            .query(&q.display(), Workload::Enumerate { limit: Some(0) })
            .expect("enumerate 0");
        assert_eq!(capped.answer.as_tuples().map(<[_]>::len), Some(0));
        // The directive text itself round-trips too.
        let reply = client
            .request(&format!("@enumerate 0\nQ: {}\n", q.display()))
            .expect("@enumerate 0 batch");
        assert_eq!(reply.results[0].answer.as_tuples().map(<[_]>::len), Some(0));
        // Rebinding switches databases mid-connection.
        client.bind_db("tiny").expect("rebind");
        let count = client.query("T(?x)", Workload::Count).expect("count");
        assert_eq!(count.answer.as_count(), Some(2));
    });
}

/// The worker drains an enumeration into one row buffer and writes the
/// rows into the `Result` payload: every limit around the answer count
/// returns exactly `min(k, |q(D)|)` distinct answers of `q(D)`, on a
/// GHD-tagged plan (a bag tree of three bags) and on a `naive-join`
/// plan (one edge, two atoms: the one-bag tree of the trivial GHD).
#[test]
fn enumerate_limits_return_distinct_answers_on_both_routes() {
    let chain = "R(?x, ?y), S(?y, ?z), U(?z, ?w)";
    let big = planted_database(&textio::parse_query(chain).expect("query"), 60, 400, 5);
    let one_edge = "U(?z, ?w), V(?w, ?z)";
    let small = "R(1, 2)\nR(3, 3)\nS(2, 3)\nS(3, 5)\nU(3, 7)\nU(3, 8)\nU(5, 9)\n\
                 V(7, 3)\nV(8, 3)\nV(9, 9)\n";
    let small = textio::parse_database(small).expect("facts");
    let catalog = Catalog::new();
    catalog.publish("ghd", big.clone()).expect("publish ghd");
    catalog
        .publish("naive", small.clone())
        .expect("publish naive");
    let ((), _) = with_server(test_config(), &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        for (name, text, db, ghd_route) in [
            ("ghd", chain, &big, true),
            ("naive", one_edge, &small, false),
        ] {
            client.bind_db(name).expect("bind");
            let q = textio::parse_query(text).expect("query");
            let expected = enumerate_naive(&q, db);
            let n = expected.len();
            assert!(n >= 2, "{name}: fixture needs answers");
            for limit in [Some(0), Some(1), Some(n - 1), Some(n), Some(n + 1), None] {
                let reply = client
                    .query(text, Workload::Enumerate { limit })
                    .expect("enumerate");
                assert_eq!(
                    reply.strategy != "naive-join",
                    ghd_route,
                    "{name}: {reply:?}"
                );
                let mut got = reply.answer.into_tuples().expect("tuples");
                assert_eq!(got.len(), limit.map_or(n, |k| k.min(n)), "{name} {limit:?}");
                got.sort_unstable();
                got.dedup();
                assert_eq!(got.len(), limit.map_or(n, |k| k.min(n)), "{name}: repeats");
                for t in &got {
                    assert!(expected.binary_search(t).is_ok(), "{name}: {t:?} ∉ q(D)");
                }
            }
        }
        // A query without variables answers one empty tuple when its
        // fact holds and none when it does not.
        client.bind_db("naive").expect("bind");
        let holds = client.query("R(1, 2)", Workload::Enumerate { limit: None });
        assert_eq!(holds.expect("R(1, 2)").answer, Answer::Tuples(vec![vec![]]));
        let fails = client.query("R(9, 9)", Workload::Enumerate { limit: None });
        assert_eq!(fails.expect("R(9, 9)").answer, Answer::Tuples(vec![]));
    });
}

/// A reply that prepared its handle says what planning cost it; a reply
/// served by the prepared cache paid none.
#[test]
fn planning_ns_is_reported_on_a_prepare_and_zero_on_a_hit() {
    let catalog = small_catalog();
    let ((), _) = with_server(test_config(), &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("main").expect("bind");
        for workload in [Workload::Count, Workload::Enumerate { limit: None }] {
            let text = match workload {
                Workload::Count => "R(?x, ?y), S(?y, ?z)",
                _ => "S(?a, ?b), R(?c, ?a)",
            };
            let fresh = client.query(text, workload).expect("fresh");
            assert!(!fresh.prepared_hit, "{fresh:?}");
            assert!(fresh.planning_ns > 0, "a prepare plans: {fresh:?}");
            let again = client.query(text, workload).expect("again");
            assert!(again.prepared_hit, "{again:?}");
            assert_eq!(again.planning_ns, 0, "{again:?}");
        }
    });
}

#[test]
fn reload_roundtrip_swaps_data_and_invalidates_prepared_handles() {
    let catalog = small_catalog();
    let config = ServerConfig {
        allow_reload: true,
        ..test_config()
    };
    let ((), stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let bound = client.bind_db("main").expect("bind");
        assert_eq!((bound.facts, bound.epoch), (5, 0));

        // Warm the prepared cache at epoch 0.
        let first = client
            .query("R(?x, ?y), S(?y, ?z)", Workload::Count)
            .expect("query");
        assert_eq!(first.answer.as_count(), Some(3));
        let warm = client
            .query("R(?x, ?y), S(?y, ?z)", Workload::Count)
            .expect("warm query");
        assert_eq!(warm.answer.as_count(), Some(3));
        assert!(warm.prepared_hit, "steady state hits the prepared cache");

        // The catalog admin view before the reload.
        let info = client.catalog_info().expect("catalog info");
        assert!(info.reload_enabled);
        assert_eq!(info.databases.len(), 2);
        let main = info.databases.iter().find(|d| d.name == "main").unwrap();
        assert_eq!((main.epoch, main.facts), (0, 5));

        // Hot reload: a different join shape (one extra S fact).
        let reloaded = client
            .reload(
                "main",
                "R(1, 2)\nR(3, 3)\nS(2, 3)\nS(2, 4)\nS(2, 9)\nS(3, 5)\n",
            )
            .expect("reload");
        assert_eq!((reloaded.epoch, reloaded.facts), (1, 6));

        // The very next query must see the new data — and must NOT be
        // served from the warm epoch-0 handle (epoch invalidation).
        let after = client
            .query("R(?x, ?y), S(?y, ?z)", Workload::Count)
            .expect("query after reload");
        assert_eq!(after.answer.as_count(), Some(4), "new data visible");
        assert!(
            !after.prepared_hit,
            "stale epoch-0 handle must not be served after the reload"
        );
        // …and the re-prepared handle is warm again at epoch 1.
        let warm_again = client
            .query("R(?x, ?y), S(?y, ?z)", Workload::Count)
            .expect("warm after reload");
        assert!(warm_again.prepared_hit);

        // Bind now reports the new epoch; the catalog view updated.
        let rebound = client.bind_db("main").expect("rebind");
        assert_eq!((rebound.facts, rebound.epoch), (6, 1));
        let info = client.catalog_info().expect("catalog info");
        let main = info.databases.iter().find(|d| d.name == "main").unwrap();
        assert_eq!((main.epoch, main.facts), (1, 6));

        // Typed rejections: unknown name…
        let err = match client.reload("ghost", "R(1)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::UnknownDb);
        assert!(err.message.contains("main"), "{err:?}");
        // …and a facts parse failure, with the payload line named
        // (line 1 is the database name, so the bad fact is line 3).
        let err = match client.reload("main", "R(1, 2)\nR(banana)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Parse);
        assert_eq!(err.line, Some(3), "{err:?}");
        // A failed reload publishes nothing.
        let info = client.catalog_info().expect("catalog info");
        let main = info.databases.iter().find(|d| d.name == "main").unwrap();
        assert_eq!(main.epoch, 1, "failed reloads must not bump the epoch");
    });
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.rejected_unauthorized, 0);
}

#[test]
fn reload_requires_authorization() {
    let catalog = small_catalog();
    // Default config: allow_reload is off.
    let ((), stats) = with_server(test_config(), &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let err = match client.reload("main", "R(9, 9)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Unauthorized, "{err:?}");
        assert!(err.message.contains("--allow-reload"), "{err:?}");
        // The rejection is request-level: the connection survives and
        // the data is untouched.
        client.bind_db("main").expect("bind");
        let count = client.query("R(?x, ?y)", Workload::Count).expect("query");
        assert_eq!(count.answer.as_count(), Some(2));
        // CatalogInfo is read-only and needs no authorization.
        let info = client.catalog_info().expect("catalog info");
        assert!(!info.reload_enabled);
    });
    assert_eq!(stats.rejected_unauthorized, 1);
    assert_eq!(stats.reloads, 0);
}

#[test]
fn delta_roundtrip_merges_incrementally_and_rejections_leave_epoch_unmoved() {
    let catalog = small_catalog();
    let config = ServerConfig {
        allow_reload: true,
        ..test_config()
    };
    let ((), stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("main").expect("bind");

        // Warm the prepared cache at epoch 0.
        let first = client
            .query("R(?x, ?y), S(?y, ?z)", Workload::Count)
            .expect("query");
        assert_eq!(first.answer.as_count(), Some(3));
        let warm = client
            .query("R(?x, ?y), S(?y, ?z)", Workload::Count)
            .expect("warm query");
        assert!(warm.prepared_hit);

        // Apply a delta: two S inserts, one S delete — R is untouched
        // and therefore structurally shared into the new epoch.
        let applied = client
            .delta("main", "@insert\nS(2, 9)\nS(2, 10)\n@delete\nS(3, 5)\n")
            .expect("delta");
        assert_eq!(
            (applied.epoch, applied.inserted, applied.deleted),
            (1, 2, 1)
        );
        assert_eq!(applied.relations_touched, vec!["S".to_string()]);
        assert_eq!(applied.facts, 6);
        // Every handle has a bag tree, so the cache migrates warm.
        assert_eq!(applied.prepared_warm, 1, "{applied:?}");
        assert_eq!(applied.prepared_reprepared, 0, "{applied:?}");

        // The very next query sees the new data — and unlike a reload,
        // it is still a prepared-cache HIT: the handle was migrated
        // across the epoch, not purged.
        let after = client
            .query("R(?x, ?y), S(?y, ?z)", Workload::Count)
            .expect("query after delta");
        assert_eq!(after.answer.as_count(), Some(4), "new data visible");
        assert!(
            after.prepared_hit,
            "delta must keep the prepared cache warm: {after:?}"
        );

        // Typed rejections, each leaving the epoch unmoved: a parse
        // failure (payload line 1 is the name, the bad fact is line 3)…
        let err = match client.delta("main", "@insert\nS(banana)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Parse);
        assert_eq!(err.line, Some(3), "{err:?}");
        // …a delta the kernel refuses wholesale (unknown relation)…
        let err = match client.delta("main", "@insert\nGhost(1)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Delta);
        assert!(err.message.contains("Ghost"), "{err:?}");
        // …an arity mismatch on a real relation…
        let err = match client.delta("main", "@delete\nR(1)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Delta, "{err:?}");
        // …and an unknown database name.
        let err = match client.delta("ghost", "@insert\nR(1, 1)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::UnknownDb);

        // None of the rejections published anything.
        let info = client.catalog_info().expect("catalog info");
        let main = info.databases.iter().find(|d| d.name == "main").unwrap();
        assert_eq!((main.epoch, main.facts), (1, 6));

        // The Stats frame reports the delta plane's counters.
        let report = client.stats().expect("stats");
        assert_eq!(report.delta_batches, 1);
        assert_eq!((report.facts_inserted, report.facts_deleted), (2, 1));
        assert_eq!(report.delta_errors, 2, "kernel refusals only");
        let main = report.databases.iter().find(|d| d.name == "main").unwrap();
        assert_eq!(main.delta_batches, 1);
        assert_eq!((main.facts_inserted, main.facts_deleted), (2, 1));
        assert_eq!(main.errors, 3, "parse + two kernel refusals");
    });
    assert_eq!(stats.delta_batches, 1);
    assert_eq!(stats.delta_errors, 2);
    assert_eq!(stats.parse_errors, 1);
}

#[test]
fn delta_requires_authorization() {
    let catalog = small_catalog();
    // Deltas mutate served data, so they ride the reload gate — off by
    // default.
    let ((), stats) = with_server(test_config(), &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let err = match client.delta("main", "@insert\nR(9, 9)\n") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Unauthorized, "{err:?}");
        assert!(err.message.contains("--allow-reload"), "{err:?}");
        // Request-level rejection: the connection survives, the data is
        // untouched.
        client.bind_db("main").expect("bind");
        let count = client.query("R(?x, ?y)", Workload::Count).expect("query");
        assert_eq!(count.answer.as_count(), Some(2));
    });
    assert_eq!(stats.rejected_unauthorized, 1);
    assert_eq!(stats.delta_batches, 0);
}

#[test]
fn delta_migrates_ghd_prepared_handles_warm_over_the_wire() {
    // A planted chain on a multi-bag GHD plan: the server-side cache
    // migration goes through the warm-overlay path (dirty-spine
    // refresh) and re-materializes only the bags the delta touched.
    let q = cqd2::cq::ConjunctiveQuery::parse(&[
        ("R", &["?x", "?y"]),
        ("S", &["?y", "?z"]),
        ("U", &["?z", "?w"]),
    ]);
    let db = planted_database(&q, 60, 400, 5);
    let before = count_naive(&q, &db);
    let z = db.relation("S").unwrap().tuples.row(0)[1];
    let catalog = Catalog::new();
    catalog.publish("hot", db).expect("publish");
    let config = ServerConfig {
        allow_reload: true,
        workers: 1,
        ..test_config()
    };
    let ((), stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("hot").expect("bind");
        let query_text = "R(?x, ?y), S(?y, ?z), U(?z, ?w)";

        // Warm the handle (plan + bag tree) at epoch 0.
        let first = client.query(query_text, Workload::Count).expect("query");
        assert_eq!(first.answer.as_count(), Some(before));
        let warm = client.query(query_text, Workload::Count).expect("warm");
        assert!(warm.prepared_hit);
        // Counts route through the counting-DP strategy: a bag tree of
        // several bags, so the delta dirties only part of it.
        assert_eq!(warm.strategy, "counting-dp", "{warm:?}");

        // Graft a fresh U edge onto a live S endpoint: only U's bag
        // spine is dirty; the server migrates the handle warm.
        let applied = client
            .delta("hot", &format!("@insert\nU({z}, 999999)\n"))
            .expect("delta");
        assert_eq!(applied.epoch, 1);
        assert_eq!(applied.relations_touched, vec!["U".to_string()]);
        assert!(applied.prepared_warm >= 1, "{applied:?}");
        assert_eq!(applied.prepared_reprepared, 0, "{applied:?}");
        assert!(
            applied.bags_remat >= 1,
            "the dirty spine re-materializes: {applied:?}"
        );

        // The migrated handle serves the post-delta answer as a hit.
        let after = client.query(query_text, Workload::Count).expect("after");
        assert!(after.prepared_hit, "{after:?}");
        let got = after.answer.as_count().expect("count");
        assert!(got > before, "grafted edge adds answers: {before} -> {got}");

        let report = client.stats().expect("stats");
        assert!(report.bags_remat >= 1, "{report:?}");
        let hot = report.databases.iter().find(|d| d.name == "hot").unwrap();
        assert!(hot.bags_remat >= 1);
    });
    assert_eq!(stats.delta_batches, 1);
    assert!(stats.bags_remat >= 1, "{stats:?}");
}

#[test]
fn a_batch_pinned_before_a_delta_hits_after_the_commit_and_misses_stay_per_text() {
    // `R` holds 50 000 facts, so every `@enumerate` of `R(?x, ?y)` is a
    // Result frame of ~0.7 MB; `S` joins 10 of them.
    let mut db = cqd2::cq::Database::new();
    db.insert_all(
        "R",
        &(0..50_000u64).map(|i| vec![i, i + 1]).collect::<Vec<_>>(),
    );
    db.insert_all("S", &(0..10u64).map(|i| vec![i + 1, 7]).collect::<Vec<_>>());
    let catalog = Catalog::new();
    catalog.publish("main", db).expect("publish");
    let config = ServerConfig {
        workers: 1,
        allow_reload: true,
        ..test_config()
    };
    let (scan, join) = ("R(?x, ?y)", "R(?x, ?y), S(?y, ?z)");
    let copies = 60;
    let ((), stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("main").expect("bind");
        // The only two prepares of the test: one per text, at epoch 0.
        let all = Workload::Enumerate { limit: None };
        assert_eq!(
            client
                .query(scan, all)
                .expect("scan")
                .answer
                .as_tuples()
                .map(<[_]>::len),
            Some(50_000)
        );
        assert_eq!(
            client
                .query(join, Workload::Count)
                .expect("join")
                .answer
                .as_count(),
            Some(10)
        );

        // A batch on a fresh connection pins epoch 0 when it is accepted;
        // its first Result frame proves that. Its other results (≈ 40
        // MB) are meant to outgrow the loopback socket buffers, so the
        // one worker stalls mid-batch until this test reads again —
        // after the delta below has committed. The hit counter checks
        // that stall rather than assuming it.
        let mut pinned = Client::connect(addr).expect("connect pinned");
        pinned.bind_db("main").expect("bind pinned");
        let mut batch = format!("@enumerate\nQ: {scan}\n").repeat(copies);
        batch.push_str(&format!("@count\nQ: {join}\n"));
        pinned
            .send(FrameType::Query, batch.as_bytes())
            .expect("send batch");
        let first = pinned.read().expect("first result");
        assert_eq!(first.frame_type, FrameType::Result);

        let mut admin = Client::connect(addr).expect("admin connect");
        let applied = admin
            .delta("main", "@insert\nR(1000000, 1000001)\nS(2, 8)\n")
            .expect("delta");
        assert_eq!(
            (applied.epoch, applied.prepared_warm),
            (1, 2),
            "{applied:?}"
        );
        // A worker counts each lookup right after making it, so fewer
        // hits than the batch has queries means some of its lookups
        // come after the commit.
        let report = admin.stats().expect("stats");
        let main = report.databases.iter().find(|d| d.name == "main").unwrap();
        let hits = main.prepared_hits;
        assert!(
            hits < copies as u64 + 1,
            "all {hits} lookups ran before the delta: the socket buffers hold the whole batch"
        );

        // Those later lookups are at epoch 0 after the commit: prepared
        // hits on the grace slot, answering from epoch 0.
        let mut results = 0;
        for frame in std::iter::once(first).chain(std::iter::from_fn(|| {
            let frame = pinned.read().expect("frame");
            (frame.frame_type != FrameType::Done).then_some(frame)
        })) {
            assert_eq!(frame.frame_type, FrameType::Result);
            let r: cqd2::engine::server::wire::WireResult =
                serde::json::from_str(frame.text().expect("utf8")).expect("json");
            assert!(r.prepared_hit, "result {} missed", r.index);
            match r.answer {
                Answer::Tuples(t) => assert_eq!(t.len(), 50_000),
                other => assert_eq!(other.as_count(), Some(10)),
            }
            results += 1;
        }
        assert_eq!(results, copies + 1);

        // Deltas interleaved with reads: every read hits a handle the
        // delta migrated before publishing.
        for round in 0..5u64 {
            let script = format!("@insert\nS({}, 9)\n", 100 + round);
            let applied = admin.delta("main", &script).expect("delta");
            assert_eq!((applied.epoch, applied.prepared_warm), (round + 2, 2));
            let count = client.query(join, Workload::Count).expect("join");
            assert!(count.prepared_hit, "round {round}: {count:?}");
            assert_eq!(count.answer.as_count(), Some(12 + u128::from(round)));
            let limited = Workload::Enumerate { limit: Some(3) };
            assert!(client.query(scan, limited).expect("scan").prepared_hit);
        }
        let report = admin.stats().expect("stats");
        let main = report.databases.iter().find(|d| d.name == "main").unwrap();
        assert_eq!(main.prepared_misses, 2, "one prepare per distinct text");
    });
    assert_eq!(stats.prepared_misses, 2);
    assert_eq!(stats.delta_batches, 6);
}

#[test]
fn reload_under_load_pins_inflight_batches_to_their_epoch() {
    // The acceptance scenario end-to-end: a multi-query enumeration
    // batch is accepted (pinning the epoch-0 snapshot), a concurrent
    // Reload publishes epoch 1 while the batch is still streaming its
    // results, and every remaining result of the in-flight batch still
    // answers from the OLD data — then the next query on the same
    // connection observes the new data.
    let q = canonical_query(&hyperchain(3, 2));
    let old_db = planted_database(&q, 6, 24, 7);
    let old_tuples = enumerate_naive(&q, &old_db);
    let old_count = count_naive(&q, &old_db);
    assert!(!old_tuples.is_empty(), "fixture must have answers");
    // The reloaded database is empty-but-typed: every post-reload
    // answer is trivially distinguishable from the old ones.
    let new_facts = "R0(0, 0)\n";

    let catalog = Catalog::new();
    catalog
        .publish_str("hot", &textio::render_database(&old_db))
        .expect("publish hot");
    let config = ServerConfig {
        // One worker: the batch executes sequentially, so results
        // stream one by one while the reload lands in between.
        workers: 1,
        allow_reload: true,
        ..test_config()
    };
    let queries_in_batch = 6u64;
    let ((), stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("hot").expect("bind");
        let batch = {
            let mut text = String::new();
            for _ in 0..queries_in_batch {
                text.push_str(&format!("@enumerate\nQ: {}\n", q.display()));
            }
            text
        };
        // Pipeline the batch without reading: it pins epoch 0 when the
        // server accepts it.
        client
            .send(FrameType::Query, batch.as_bytes())
            .expect("send batch");
        let request = client.last_request();

        // Proof the batch is in flight: its first Result frame arrived.
        let first = client.read().expect("first result");
        assert_eq!(first.frame_type, FrameType::Result);

        // Concurrent admin connection reloads the database under it.
        let mut admin = Client::connect(addr).expect("admin connect");
        let reloaded = admin.reload("hot", new_facts).expect("reload");
        assert_eq!(reloaded.epoch, 1);

        // Drain the in-flight batch: every result (including those
        // executed after the reload) carries the OLD epoch's answers.
        let mut results = 1u64;
        loop {
            let frame = client.read().expect("frame");
            match frame.frame_type {
                FrameType::Result => results += 1,
                FrameType::Done => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(results, queries_in_batch);
        // Spot-check correctness of a full post-reload re-read: run the
        // same batch's first query again as a fresh request — it now
        // sees the NEW (empty) data…
        let after = client
            .query(&q.display(), Workload::Enumerate { limit: None })
            .expect("query after reload");
        assert_eq!(
            after.answer.as_tuples().map(<[_]>::len),
            Some(0),
            "fresh queries observe the reloaded data"
        );
        // …and a count agrees with the old data having been old_count
        // just before (sanity that the fixture distinguished them).
        assert_ne!(old_count, 0);
        let _ = request;
    });
    // All in-flight answers were delivered despite the reload.
    assert_eq!(stats.answered, queries_in_batch + 1);
    assert_eq!(stats.reloads, 1);
}

#[test]
fn stats_frame_reports_histograms_and_traces_break_down_latency() {
    // The observability acceptance scenario: after a concurrent
    // 8-client batch storm, a `Stats` admin frame must report per-
    // database latency histograms with plausible quantiles, a queue
    // high-water mark, and prepared-cache hits — and a `@trace` batch
    // must return a span breakdown whose phase sum never exceeds the
    // result's total `server_micros`.
    let catalog = small_catalog();
    let clients = 8;
    let rounds = 6;
    let ((), _) = with_server(test_config(), &catalog, |addr, _| {
        std::thread::scope(|s| {
            for c in 0..clients {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.bind_db("main").expect("bind");
                    for _ in 0..rounds {
                        let reply = client
                            .request(
                                "@count\nQ: R(?x, ?y), S(?y, ?z)\n\
                                 @boolean\nQ: R(?a, ?a)\n",
                            )
                            .unwrap_or_else(|e| panic!("client {c}: {e}"));
                        assert_eq!(reply.results.len(), 2);
                        // Every result is stamped with its server-side
                        // wall time; untraced batches carry no spans.
                        for r in &reply.results {
                            assert!(r.trace.is_none());
                        }
                    }
                });
            }
        });

        let mut observer = Client::connect(addr).expect("stats connect");
        let stats = observer.stats().expect("stats frame");
        assert_eq!(stats.batches, clients * rounds);
        assert_eq!(stats.answered, clients * rounds * 2);
        assert!(
            stats.queue_high_water >= 1,
            "any accepted batch raises the high-water mark: {stats:?}"
        );
        assert!(stats.queue_high_water as usize <= stats.queue_capacity as usize);
        assert!(stats.prepared_hits > 0, "warm serving must hit: {stats:?}");
        assert!(stats.active_connections >= 1, "the observer is connected");
        let main = stats.databases.iter().find(|d| d.name == "main").unwrap();
        assert_eq!(main.batches, clients * rounds);
        assert_eq!(main.queries, clients * rounds * 2);
        assert!(main.prepared_hits > 0);
        let h = &main.latency;
        assert_eq!(
            h.count,
            clients * rounds * 2,
            "every answered query lands in the histogram"
        );
        assert!(h.p50_micros <= h.p90_micros, "{h:?}");
        assert!(h.p90_micros <= h.p99_micros, "{h:?}");
        assert!(h.p99_micros <= h.max_micros, "{h:?}");
        assert!(h.max_micros > 0, "answers cannot take zero time: {h:?}");
        // The untouched database has an empty section.
        let empty = stats.databases.iter().find(|d| d.name == "empty").unwrap();
        assert_eq!((empty.batches, empty.latency.count), (0, 0));

        // A `@trace` batch returns per-phase spans on every result.
        observer.bind_db("main").expect("bind");
        let reply = observer
            .request("@trace\n@count\nQ: R(?x, ?y), S(?y, ?z)\n@boolean\nQ: R(?a, ?a)\n")
            .expect("traced batch");
        assert_eq!(reply.results.len(), 2);
        for r in &reply.results {
            let trace = r.trace.as_ref().expect("@trace attaches spans");
            assert!(!trace.spans.is_empty());
            let phase_sum: u64 = trace.spans.iter().map(|s| s.micros).sum();
            assert_eq!(trace.total_micros, phase_sum);
            assert!(
                phase_sum <= r.server_micros,
                "disjoint phases cannot exceed the total: {phase_sum} > {} in {trace:?}",
                r.server_micros
            );
            let phases: Vec<&str> = trace.spans.iter().map(|s| s.phase.as_str()).collect();
            for expected in ["queue_wait", "parse", "plan", "execute", "serialize"] {
                assert!(phases.contains(&expected), "missing {expected}: {phases:?}");
            }
            let plan = trace.spans.iter().find(|s| s.phase == "plan").unwrap();
            let detail = plan.detail.as_deref().expect("plan span is annotated");
            assert!(
                detail.contains("cache") && detail.contains("prepared"),
                "plan detail names its cache provenance: {detail}"
            );
        }

        // Tracing is per-batch: the next plain batch is span-free.
        let reply = observer
            .request("@count\nQ: R(?x, ?y), S(?y, ?z)\n")
            .expect("plain batch");
        assert!(reply.results[0].trace.is_none());
    });
}

#[test]
fn inflight_results_after_reload_carry_old_answers() {
    // Sharper variant of the pinning test: verify the *content* of
    // results delivered after the reload, not just their count. A
    // two-query batch (count + enumerate) is accepted at epoch 0; the
    // reload lands after the first result; the second result must still
    // equal the old data's answer set exactly.
    let q = canonical_query(&hyperchain(3, 2));
    let old_db = planted_database(&q, 6, 24, 13);
    let old_tuples = enumerate_naive(&q, &old_db);
    let old_count = count_naive(&q, &old_db);

    let catalog = Catalog::new();
    catalog
        .publish_str("hot", &textio::render_database(&old_db))
        .expect("publish hot");
    let config = ServerConfig {
        workers: 1,
        allow_reload: true,
        ..test_config()
    };
    let ((), _) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("hot").expect("bind");
        let batch = format!(
            "@count\nQ: {}\n@enumerate\nQ: {}\n",
            q.display(),
            q.display()
        );
        client
            .send(FrameType::Query, batch.as_bytes())
            .expect("send batch");
        // First result (the count) proves the batch is executing.
        let frame = client.read().expect("first result");
        assert_eq!(frame.frame_type, FrameType::Result);
        let first: cqd2::engine::server::wire::WireResult =
            serde::json::from_str(frame.text().expect("utf8")).expect("json");
        assert_eq!(first.answer.as_count(), Some(old_count));

        // Reload from a second connection, synchronously.
        let mut admin = Client::connect(addr).expect("admin connect");
        admin.reload("hot", "R0(0, 0)\n").expect("reload");

        // The enumerate result was (or is being) computed against the
        // pinned epoch-0 snapshot: full old answer set, bit for bit.
        let frame = client.read().expect("second result");
        assert_eq!(frame.frame_type, FrameType::Result);
        let second: cqd2::engine::server::wire::WireResult =
            serde::json::from_str(frame.text().expect("utf8")).expect("json");
        let mut tuples = second.answer.into_tuples().expect("tuples");
        tuples.sort_unstable();
        assert_eq!(
            tuples, old_tuples,
            "in-flight answers come from the pinned epoch"
        );
        let frame = client.read().expect("done");
        assert_eq!(frame.frame_type, FrameType::Done);
    });
}

#[test]
fn snapshot_reload_under_load_pins_inflight_batches_and_rejects_bad_paths() {
    // The `Reload { path }` acceptance scenario: a server-local `.cqds`
    // snapshot is swapped in while an enumeration batch is mid-flight —
    // the in-flight batch finishes on its pinned epoch, fresh queries
    // see the snapshot's data, and every bad path (missing file, not a
    // snapshot, empty path) is a typed rejection that leaves the old
    // epoch serving.
    let q = canonical_query(&hyperchain(3, 2));
    let old_db = planted_database(&q, 6, 24, 7);
    let new_db = planted_database(&q, 6, 24, 99);
    let new_count = count_naive(&q, &new_db);
    assert_ne!(
        count_naive(&q, &old_db),
        new_count,
        "fixture databases must be distinguishable"
    );

    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("cqd2-e2e-reload-{}.cqds", std::process::id()));
    let snap_path = snap_path.to_str().expect("temp path is UTF-8").to_string();
    cqd2::engine::store::write_snapshot(&snap_path, &new_db).expect("write snapshot");
    let junk_path = dir.join(format!("cqd2-e2e-junk-{}.txt", std::process::id()));
    let junk_path = junk_path.to_str().expect("temp path is UTF-8").to_string();
    std::fs::write(&junk_path, "R(1, 2)\nnot a snapshot\n").expect("write junk");

    let catalog = Catalog::new();
    catalog
        .publish_str("hot", &textio::render_database(&old_db))
        .expect("publish hot");
    let config = ServerConfig {
        // One worker: the batch executes sequentially, so results
        // stream one by one while the snapshot reload lands in between.
        workers: 1,
        allow_reload: true,
        ..test_config()
    };
    let queries_in_batch = 6u64;
    let ((), stats) = with_server(config, &catalog, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        client.bind_db("hot").expect("bind");
        let batch = {
            let mut text = String::new();
            for _ in 0..queries_in_batch {
                text.push_str(&format!("@enumerate\nQ: {}\n", q.display()));
            }
            text
        };
        client
            .send(FrameType::Query, batch.as_bytes())
            .expect("send batch");
        let first = client.read().expect("first result");
        assert_eq!(first.frame_type, FrameType::Result);

        // Concurrent admin connection swaps in the snapshot file.
        let mut admin = Client::connect(addr).expect("admin connect");
        let reloaded = admin
            .reload_snapshot("hot", &snap_path)
            .expect("snapshot reload");
        assert_eq!(reloaded.epoch, 1);
        assert_eq!(reloaded.facts as usize, new_db.size());

        // The in-flight batch still drains completely on epoch 0.
        let mut results = 1u64;
        loop {
            let frame = client.read().expect("frame");
            match frame.frame_type {
                FrameType::Result => results += 1,
                FrameType::Done => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(results, queries_in_batch);

        // A fresh query on the same connection observes the snapshot.
        let after = client
            .query(&q.display(), Workload::Count)
            .expect("query after snapshot reload");
        assert_eq!(after.answer.as_count(), Some(new_count));

        // Bad path #1: missing file — typed Store rejection, old epoch
        // keeps serving, connection survives.
        let err = match admin.reload_snapshot("hot", "/nonexistent/ghost.cqds") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("missing snapshot accepted: {other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Store);
        assert!(err.message.contains("ghost.cqds"), "{err:?}");

        // Bad path #2: a real file that is not a snapshot.
        let err = match admin.reload_snapshot("hot", &junk_path) {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("junk file accepted: {other:?}"),
        };
        assert_eq!(err.code, ErrorCode::Store);

        // Bad path #3: `@snapshot` with no path is a malformed frame.
        let err = match admin.reload("hot", "@snapshot") {
            Err(cqd2::engine::server::ServerError::Rejected(e)) => e,
            other => panic!("empty path accepted: {other:?}"),
        };
        assert_eq!(err.code, ErrorCode::BadFrame);

        // None of the failures bumped the epoch; the connection still
        // answers with the snapshot's data.
        let info = admin.catalog_info().expect("catalog info");
        let hot = info.databases.iter().find(|d| d.name == "hot").unwrap();
        assert_eq!(hot.epoch, 1, "failed snapshot reloads must not publish");
        let again = admin_query_count(&mut admin, &q);
        assert_eq!(again, Some(new_count));
        // A failed reload against a served name is that database's
        // error, exactly like a failed delta.
        let report = admin.stats().expect("stats");
        let hot = report.databases.iter().find(|d| d.name == "hot").unwrap();
        assert_eq!(hot.errors, 2, "both Store failures hit `hot`");
    });
    assert_eq!(stats.reloads, 1, "only the successful swap counts");
    assert_eq!(
        stats.store_errors, 2,
        "both file failures were typed Store errors"
    );

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&junk_path).ok();
}

/// Bind-and-count helper for the snapshot reload test's final probe.
fn admin_query_count(admin: &mut Client, q: &cqd2::cq::ConjunctiveQuery) -> Option<u128> {
    admin.bind_db("hot").expect("bind");
    admin
        .query(&q.display(), Workload::Count)
        .expect("count")
        .answer
        .as_count()
}
