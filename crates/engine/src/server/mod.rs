//! # `cqd2-serve` — the async socket serving front-end.
//!
//! This module turns the in-process serving engine into a network
//! server: a standalone binary (`cqd2-serve`, in `crates/core`) speaks a
//! length-prefixed framing of the workload-file text format over TCP,
//! so many concurrent clients share one engine, one plan cache, and one
//! [`Catalog`] of named databases. The build environment is offline —
//! no tokio, no mio — so concurrency is hand-rolled from blocking
//! sockets and scoped threads:
//!
//! - an **acceptor** loop ([`Server::run`]: non-blocking `accept` +
//!   shutdown polling) spawns one reader thread per connection;
//! - readers (`conn.rs`) decode frames incrementally
//!   ([`frame::FrameReader`]), bind the connection to a named
//!   database, and enqueue query batches on a
//!   **bounded job queue** ([`queue::JobQueue`]) — a full queue is
//!   answered *immediately* with a typed `Overloaded` error frame
//!   (backpressure), never buffered. Each accepted batch **pins the
//!   catalog's current snapshot** in an owned [`crate::Session`], so
//!   its answers stay consistent even if a reload swaps the database
//!   mid-execution;
//! - a **worker pool** (`worker.rs`) drains the queue. Each database
//!   name keeps a shared cache (`prepared.rs`) of warm
//!   [`crate::PreparedQuery`] handles keyed by query text **and
//!   validated by epoch**: repeated queries skip
//!   planning *and* bag materialization — the amortization the paper's
//!   `O(‖D‖^w)` preprocessing bound makes worthwhile (gated ≥ 1.5× by
//!   `benches/engine_serve_concurrent.rs`) — and a handle prepared
//!   against epoch N is never served once a reload publishes N+1;
//! - **admin frames** (protocol v2, `admin.rs`): `Reload` atomically
//!   publishes a new snapshot for a served name via [`Catalog::swap`]
//!   (enabled by
//!   `ServerConfig::allow_reload` / `--allow-reload`; rejected with a
//!   typed `Unauthorized` error otherwise), `Delta` merges a batch of
//!   fact inserts/deletes incrementally via [`Catalog::apply_delta`]
//!   (same gate) — untouched relations are `Arc`-shared into the new
//!   epoch and warm prepared handles are migrated across it instead of
//!   purged — and `CatalogInfo` describes the served names with their
//!   epochs;
//! - **graceful shutdown**: a [`ServerHandle`] (or SIGINT/SIGTERM via
//!   [`signal::install_shutdown_signals`]) flips an atomic flag; the
//!   acceptor stops, accepted work drains, connections are notified
//!   with a `ShuttingDown` error frame, and [`Server::run`] returns the
//!   final [`ServerStats`].
//!
//! Two pieces are shared by all of them: the registry's one record per
//! served database — name, prepared cache, counters (`stats.rs`) — and
//! the per-request reply path that builds every response frame and owns
//! the error accounting (`conn.rs`; ARCHITECTURE.md has the module map
//! and the code → counter table).
//!
//! The wire protocol (frame layout, error codes, backpressure, reload
//! and shutdown semantics) is specified in `docs/PROTOCOL.md`;
//! [`client::Client`] implements it for scripted round-trips and the
//! `cqd2-analyze client` subcommand.
//!
//! ```no_run
//! use cqd2_engine::server::{Server, ServerConfig};
//! use cqd2_engine::{Catalog, Engine};
//!
//! let catalog = Catalog::new();
//! catalog.publish_str("main", "R(1, 2)\nS(2, 3)\n").unwrap();
//! let engine = Engine::default();
//! let config = ServerConfig {
//!     allow_reload: true, // accept v2 `Reload` admin frames
//!     ..ServerConfig::default()
//! };
//! let server = Server::bind("127.0.0.1:7878", config).unwrap();
//! let handle = server.handle(); // hand to a signal handler / another thread
//! cqd2_engine::server::signal::install_shutdown_signals(&handle);
//! let stats = server.run(&engine, &catalog).unwrap(); // blocks until shutdown
//! println!("served {} queries over {} reloads", stats.answered, stats.reloads);
//! ```

mod admin;
pub mod client;
mod conn;
pub mod frame;
mod prepared;
pub mod queue;
pub mod signal;
mod stats;
pub mod wire;
mod worker;

pub use stats::ServerStats;

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cqd2_cq::sync::lock_or_poison;

use crate::catalog::Catalog;
use crate::engine::Engine;
use crate::error::EngineError;
use crate::textio::ParseError;

use conn::ConnCtx;
use frame::{FrameError, FrameType, PollError};
use prepared::PreparedCache;
use queue::JobQueue;
use stats::ServerMetrics;
use wire::WireError;
use worker::Job;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries; 0 = available parallelism.
    pub workers: usize,
    /// Bounded request-queue capacity — the backpressure point. A
    /// `Query` frame arriving while the queue holds this many pending
    /// batches is rejected with an `Overloaded` error frame.
    pub queue_capacity: usize,
    /// Per-database prepared-query cache capacity (distinct query
    /// texts whose planned + materialized handles are kept warm).
    pub prepared_capacity: usize,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame_len: u32,
    /// How often idle loops poll the shutdown flag (accept loop and
    /// per-connection read timeouts).
    pub poll_interval: Duration,
    /// At shutdown, how long a connection waits for its in-flight
    /// batches to drain before closing anyway.
    pub drain_timeout: Duration,
    /// Whether `Reload` admin frames are accepted (`--allow-reload`).
    /// Off by default: a reload mutates served data, so it must be
    /// opted into; without it, `Reload` gets a typed `Unauthorized`
    /// error frame.
    pub allow_reload: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            prepared_capacity: 256,
            max_frame_len: 16 * 1024 * 1024,
            poll_interval: Duration::from_millis(20),
            drain_timeout: Duration::from_secs(5),
            allow_reload: false,
        }
    }
}

/// What can go wrong at the serving front-end — the top of the typed
/// error hierarchy ([`EngineError`] → [`cqd2_cq::eval::EvalError`],
/// [`ParseError`], [`FrameError`] all chain below it via `source`).
#[derive(Debug)]
pub enum ServerError {
    /// A socket operation failed.
    Io(io::Error),
    /// The peer violated the frame protocol.
    Frame(FrameError),
    /// The engine failed while planning, evaluating, or touching the
    /// catalog (unknown or duplicate database names included).
    Engine(EngineError),
    /// A workload / database / query-batch text failed to parse.
    Parse(ParseError),
    /// A payload that should have been JSON did not decode.
    Decode(String),
    /// The server answered with a typed error frame (client side).
    Rejected(WireError),
    /// The server sent a frame the client did not expect in this state.
    UnexpectedFrame(FrameType),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "socket error: {e}"),
            ServerError::Frame(e) => write!(f, "protocol error: {e}"),
            ServerError::Engine(e) => write!(f, "engine error: {e}"),
            ServerError::Parse(e) => write!(f, "parse error: {e}"),
            ServerError::Decode(msg) => write!(f, "malformed JSON payload: {msg}"),
            ServerError::Rejected(e) => {
                write!(
                    f,
                    "server rejected the request ({:?}): {}",
                    e.code, e.message
                )
            }
            ServerError::UnexpectedFrame(t) => write!(f, "unexpected {t:?} frame"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Frame(e) => Some(e),
            ServerError::Engine(e) => Some(e),
            ServerError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl From<FrameError> for ServerError {
    fn from(e: FrameError) -> ServerError {
        ServerError::Frame(e)
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> ServerError {
        ServerError::Engine(e)
    }
}

impl From<ParseError> for ServerError {
    fn from(e: ParseError) -> ServerError {
        ServerError::Parse(e)
    }
}

impl From<PollError> for ServerError {
    fn from(e: PollError) -> ServerError {
        match e {
            PollError::Io(e) => ServerError::Io(e),
            PollError::Frame(e) => ServerError::Frame(e),
        }
    }
}

/// A bound-but-not-yet-running server: holds the listening socket and
/// the first [`ServerHandle`] (shutdown flag, address, metrics slot).
/// [`Server::run`] blocks the calling thread until shutdown.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    handle: ServerHandle,
}

/// A cheap cloneable handle for stopping a running [`Server`] from
/// another thread (or a signal handler — see
/// [`signal::install_shutdown_signals`]) and for reading its live
/// serving statistics (the `--stats-interval` dump).
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// Resolved once at [`Server::bind`] time, so handles never need a
    /// fallible `local_addr` syscall after the fact.
    addr: SocketAddr,
    /// Set by [`Server::run`] once the served names are known (the
    /// registry holds one record per name); handles cloned before that
    /// see `None` from the stats accessors.
    metrics: Arc<OnceLock<Arc<ServerMetrics>>>,
}

impl ServerHandle {
    /// Request a graceful shutdown: stop accepting, drain accepted
    /// work, notify connections, return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The server's listening address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The raw shutdown flag (what the signal handler stores through).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// A live snapshot of the server's lifetime counters, or `None`
    /// before [`Server::run`] has started serving.
    pub fn stats(&self) -> Option<ServerStats> {
        self.metrics.get().map(|m| m.snapshot())
    }

    /// The one-line stats summary `cqd2-serve --stats-interval` prints
    /// (counters + merged latency quantiles), or `None` before
    /// [`Server::run`] has started serving.
    pub fn stats_line(&self) -> Option<String> {
        self.metrics.get().map(|m| m.one_line())
    }
}

impl Server {
    /// Bind the listening socket. `addr` may use port 0 to let the OS
    /// pick (see [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let handle = ServerHandle {
            shutdown: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
            metrics: Arc::new(OnceLock::new()),
        };
        Ok(Server {
            listener,
            config,
            handle,
        })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.handle.addr)
    }

    /// A shutdown handle for this server.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Serve until shutdown. Blocks the calling thread; all worker and
    /// connection threads are scoped inside, so `engine` and `catalog`
    /// are plain borrows — no leaking, no `'static` bounds. The set of
    /// served *names* is snapshotted here (one epoch-validated
    /// prepared-query cache per name); the *content* behind each name
    /// is resolved from the catalog per accepted batch, which is what
    /// makes `Reload` visible to new work while in-flight batches keep
    /// their pinned snapshots.
    ///
    /// Returns the final [`ServerStats`] once every thread has exited.
    pub fn run(self, engine: &Engine, catalog: &Catalog) -> io::Result<ServerStats> {
        let Server {
            listener,
            config,
            handle: ServerHandle {
                shutdown, metrics, ..
            },
        } = self;
        listener.set_nonblocking(true)?;
        // Publish the registry so handles (e.g. the `--stats-interval`
        // dump thread) can read live stats while we serve.
        let registry = || ServerMetrics::new(catalog.names(), config.prepared_capacity);
        let metrics: &ServerMetrics = metrics.get_or_init(|| Arc::new(registry()));
        let queue: JobQueue<Job<'_>> = JobQueue::new(config.queue_capacity);
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            config.workers
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let queue = &queue;
                scope.spawn(move || worker::worker_loop(queue));
            }
            let ctx = ConnCtx {
                engine,
                catalog,
                queue: &queue,
                config: &config,
                shutdown: &shutdown,
                metrics,
            };
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        metrics.totals.connections.inc();
                        scope.spawn(move || conn::conn_loop(ctx, stream));
                    }
                    // Nothing to accept yet, or a transient accept
                    // failure (e.g. aborted handshake): keep serving.
                    Err(_) => std::thread::sleep(config.poll_interval),
                }
            }
            // Shutdown: refuse new work, let workers drain what was
            // accepted. Connection threads observe the flag themselves.
            queue.close();
        });
        // The registry outlives `run` (handles keep reading its
        // counters); the warm bag trees it holds must not.
        for db in &metrics.dbs {
            *lock_or_poison(&db.prepared) = PreparedCache::new(0);
        }
        Ok(metrics.snapshot())
    }
}

/// Saturating whole-microseconds rendering of a duration.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Workload;
    use crate::session::Session;
    use cqd2_cq::{ConjunctiveQuery, Database};
    use std::sync::Mutex;
    use wire::ErrorCode;

    fn catalog_session(catalog: &Catalog, engine: &Engine, name: &str) -> Session {
        engine.session_in(catalog, name).expect("session")
    }

    #[test]
    fn prepared_cache_is_bounded_fifo() {
        // Exercise the eviction policy shape-only (no server needed):
        // capacity clamps to ≥ 1 and FIFO-evicts.
        let engine = Engine::default();
        let catalog = Catalog::new();
        catalog.publish_str("main", "R(1, 2)\n").unwrap();
        let session = catalog_session(&catalog, &engine, "main");
        let mut cache = PreparedCache::new(2);
        let q1 = ConjunctiveQuery::parse(&[("R", &["?x", "?y"])]);
        let q2 = ConjunctiveQuery::parse(&[("R", &["?x", "?x"])]);
        let q3 = ConjunctiveQuery::parse(&[("R", &["?a", "?b"]), ("R", &["?b", "?c"])]);
        for q in [&q1, &q2, &q3] {
            let p = Arc::new(session.prepare(q).unwrap());
            cache.insert(q.display(), p);
        }
        assert!(cache.get(&q1.display(), 0).is_none(), "oldest evicted");
        assert!(cache.get(&q2.display(), 0).is_some());
        assert!(cache.get(&q3.display(), 0).is_some());
        // Re-inserting an existing key is a no-op, not a duplicate.
        let p = Arc::new(session.prepare(&q2).unwrap());
        cache.insert(q2.display(), p);
        assert_eq!(cache.map.len(), 2);
    }

    #[test]
    fn prepared_cache_never_serves_a_stale_epoch() {
        let engine = Engine::default();
        let catalog = Catalog::new();
        catalog.publish_str("main", "R(1, 2)\n").unwrap();
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"])]);
        let key = q.display();

        let mut cache = PreparedCache::new(8);
        let old = catalog_session(&catalog, &engine, "main");
        cache.insert(key.clone(), Arc::new(old.prepare(&q).unwrap()));
        assert_eq!(
            cache
                .get(&key, 0)
                .expect("same epoch hits")
                .run(Workload::Count)
                .answer
                .as_count(),
            Some(1)
        );

        // Reload publishes epoch 1: the warm epoch-0 handle must not be
        // served to epoch-1 sessions — and the stale entry is dropped.
        catalog.swap_str("main", "R(1, 2)\nR(3, 4)\n").unwrap();
        assert!(cache.get(&key, 1).is_none(), "stale handle served");
        assert!(cache.map.is_empty(), "stale entry dropped on lookup");

        // A fresh prepare against the new epoch repopulates, and
        // answers from the new data.
        let new = catalog_session(&catalog, &engine, "main");
        cache.insert(key.clone(), Arc::new(new.prepare(&q).unwrap()));
        assert_eq!(
            cache
                .get(&key, 1)
                .expect("new epoch hits")
                .run(Workload::Count)
                .answer
                .as_count(),
            Some(2)
        );

        // A lagging batch pinned to an older epoch misses on the newer
        // entry but must NOT evict it (that would ping-pong the cache
        // between interleaved old- and new-epoch batches).
        assert!(cache.get(&key, 0).is_none());
        assert!(
            cache.get(&key, 1).is_some(),
            "older-epoch lookups must not evict newer handles"
        );

        // purge_stale drops everything from other epochs in one pass.
        catalog.swap_str("main", "R(9, 9)\n").unwrap();
        assert_eq!(cache.purge_stale(2), 1);
        assert!(cache.map.is_empty() && cache.order.is_empty());
    }

    #[test]
    fn prepared_cache_eviction_is_consistent_under_concurrent_clients() {
        // Satellite coverage: many threads hammer one small cache with
        // overlapping query texts across an epoch bump. Invariants: the
        // cache never exceeds capacity, a lookup never returns a handle
        // from a different epoch than asked for, and every served
        // answer matches the epoch it was requested under.
        let engine = Engine::default();
        let catalog = Catalog::new();
        catalog.publish_str("main", "R(1, 2)\nR(2, 3)\n").unwrap();
        let queries: Vec<ConjunctiveQuery> = vec![
            ConjunctiveQuery::parse(&[("R", &["?x", "?y"])]),
            ConjunctiveQuery::parse(&[("R", &["?x", "?x"])]),
            ConjunctiveQuery::parse(&[("R", &["?a", "?b"]), ("R", &["?b", "?c"])]),
            ConjunctiveQuery::parse(&[("R", &["?a", "?b"]), ("R", &["?a", "?c"])]),
        ];
        let capacity = 2;
        let cache = Mutex::new(PreparedCache::new(capacity));
        let expected_by_epoch = |epoch: u64, q: &ConjunctiveQuery| -> u128 {
            let session = catalog_session(&catalog, &engine, "main");
            assert_eq!(session.epoch(), epoch);
            cqd2_cq::count_naive(q, session.db())
        };
        let expect0: Vec<u128> = queries.iter().map(|q| expected_by_epoch(0, q)).collect();

        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                let catalog = &catalog;
                let engine = &engine;
                let queries = &queries;
                let expect0 = &expect0;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..60 {
                        let q = &queries[(t + i) % queries.len()];
                        let key = q.display();
                        // Pin like a worker does: session first, then
                        // epoch-validated cache lookup.
                        let session = engine.session_in(catalog, "main").unwrap();
                        let epoch = session.epoch();
                        let cached = cache.lock().unwrap().get(&key, epoch);
                        let prepared = match cached {
                            Some(p) => p,
                            None => {
                                let p = Arc::new(session.prepare(q).unwrap());
                                let mut locked = cache.lock().unwrap();
                                locked.insert(key.clone(), Arc::clone(&p));
                                assert!(locked.map.len() <= capacity, "capacity exceeded");
                                p
                            }
                        };
                        assert_eq!(prepared.epoch(), epoch, "epoch mixed across handles");
                        let got = prepared.run(Workload::Count).answer.as_count().unwrap();
                        if epoch == 0 {
                            assert_eq!(got, expect0[(t + i) % queries.len()]);
                        } else {
                            // After the swap the database is empty: every
                            // count is 0, never a stale epoch-0 answer.
                            assert_eq!(got, 0, "stale answer served after reload");
                        }
                        if t == 0 && i == 20 {
                            catalog.swap("main", Database::new()).unwrap();
                        }
                    }
                });
            }
        });
        let final_len = cache.lock().unwrap().map.len();
        assert!(final_len <= capacity);
    }

    /// A `main` catalog of `R(1, 2)`, `S(2, 3)` and a cache holding the
    /// join's handle at epoch 0 after one count read.
    fn warm_join_cache() -> (Engine, Catalog, Mutex<PreparedCache>, ConjunctiveQuery) {
        let engine = Engine::default();
        let catalog = Catalog::new();
        catalog.publish_str("main", "R(1, 2)\nS(2, 3)\n").unwrap();
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        let handle = catalog_session(&catalog, &engine, "main")
            .prepare(&q)
            .unwrap();
        assert_eq!(handle.run(Workload::Count).answer.as_count(), Some(1));
        let cache = Mutex::new(PreparedCache::new(8));
        cache.lock().unwrap().insert(q.display(), Arc::new(handle));
        (engine, catalog, cache, q)
    }

    fn delta(script: &str) -> cqd2_cq::DatabaseDelta {
        crate::textio::parse_delta(script).unwrap()
    }

    #[test]
    fn a_delta_commit_installs_warm_handles_and_keeps_one_epoch_of_grace() {
        let (engine, catalog, cache, q) = warm_join_cache();
        let key = q.display();
        let (outcome, refresh) = prepared::apply_delta_warm(
            &catalog,
            &cache,
            "main",
            &delta("@insert\nS(2, 4)\n"),
            || {},
        )
        .unwrap();
        assert_eq!((outcome.snapshot.epoch(), refresh.warm), (1, 1));
        assert!(refresh.bags_remat >= 1);
        let mut locked = cache.lock().unwrap();
        let current = locked.get(&key, 1).expect("migrated before publish");
        assert_eq!(
            current.maintenance(),
            Some(crate::MaintenanceClass::WarmOverlay)
        );
        assert_eq!(current.run(Workload::Count).answer.as_count(), Some(2));
        // A batch pinned to epoch 0 still hits, on the grace slot.
        let grace = locked.get(&key, 0).expect("grace slot");
        assert_eq!(grace.run(Workload::Count).answer.as_count(), Some(1));
        drop(locked);

        // The next delta migrates the epoch-1 handle; epoch 0 ages out,
        // and its lookups miss without evicting the entry.
        prepared::apply_delta_warm(
            &catalog,
            &cache,
            "main",
            &delta("@insert\nR(5, 2)\n"),
            || {},
        )
        .unwrap();
        let mut locked = cache.lock().unwrap();
        assert!(locked.get(&key, 0).is_none());
        assert_eq!(locked.get(&key, 1).unwrap().epoch(), 1);
        let fresh = catalog_session(&catalog, &engine, "main")
            .prepare(&q)
            .unwrap();
        let migrated = locked.get(&key, 2).unwrap();
        assert_eq!(
            migrated.run(Workload::Count).answer.as_count(),
            fresh.run(Workload::Count).answer.as_count()
        );
        // A reload purges both slots.
        catalog.swap_str("main", "R(7, 7)\n").unwrap();
        assert_eq!(locked.purge_stale(3), 1);
        assert!(locked.map.is_empty() && locked.order.is_empty());
    }

    #[test]
    fn a_lost_commit_publishes_nothing_and_the_retry_migrates_from_the_winner() {
        // The winner is a concurrent delta, run where the loser's
        // migration ends and before it commits.
        let (engine, catalog, cache, q) = warm_join_cache();
        let key = q.display();
        let mut attempts = 0;
        let (outcome, refresh) = prepared::apply_delta_warm(
            &catalog,
            &cache,
            "main",
            &delta("@insert\nR(5, 2)\n"),
            || {
                attempts += 1;
                if attempts == 1 {
                    let (won, refresh) = prepared::apply_delta_warm(
                        &catalog,
                        &cache,
                        "main",
                        &delta("@insert\nS(2, 4)\n"),
                        || {},
                    )
                    .unwrap();
                    assert_eq!((won.snapshot.epoch(), refresh.warm), (1, 1));
                }
            },
        )
        .unwrap();
        assert_eq!(attempts, 2, "one lost commit, one retry");
        // Nothing of the lost attempt was published: epoch 2 is the
        // retry, merged on top of the winner's epoch 1.
        assert_eq!(outcome.previous.epoch(), 1);
        assert_eq!(outcome.snapshot.epoch(), 2);
        assert!(Arc::ptr_eq(
            &catalog.snapshot("main").unwrap(),
            &outcome.snapshot
        ));
        assert_eq!(outcome.snapshot.db().size(), 4, "both deltas, once each");
        // The retry migrated the winner's handle, not the epoch-0 one.
        assert_eq!(refresh.warm, 1);
        let mut locked = cache.lock().unwrap();
        let grace = locked.get(&key, 1).expect("the winner's handle");
        let current = locked.get(&key, 2).expect("migrated from the winner");
        assert!(locked.get(&key, 0).is_none());
        let fresh = catalog_session(&catalog, &engine, "main")
            .prepare(&q)
            .unwrap();
        assert_eq!(current.run(Workload::Count).answer.as_count(), Some(4));
        assert_eq!(fresh.run(Workload::Count).answer.as_count(), Some(4));
        assert_eq!(grace.run(Workload::Count).answer.as_count(), Some(2));

        // The winner is a reload: it publishes epoch 1 and purges the
        // cache, so the retry finds nothing to migrate at its epoch.
        let (_, catalog, cache, q) = warm_join_cache();
        let mut attempts = 0;
        let (outcome, refresh) = prepared::apply_delta_warm(
            &catalog,
            &cache,
            "main",
            &delta("@insert\nR(5, 2)\n"),
            || {
                attempts += 1;
                if attempts == 1 {
                    let reloaded = catalog.swap_str("main", "R(1, 2)\nS(2, 9)\n").unwrap();
                    cache.lock().unwrap().purge_stale(reloaded.epoch());
                }
            },
        )
        .unwrap();
        assert_eq!((attempts, outcome.previous.epoch()), (2, 1));
        assert_eq!(
            outcome.snapshot.db().size(),
            3,
            "the reload's facts plus R(5, 2)"
        );
        assert_eq!(refresh.warm, 0);
        let mut locked = cache.lock().unwrap();
        assert!(locked.get(&q.display(), 2).is_none() && locked.map.is_empty());
    }

    #[test]
    fn server_error_display_and_sources() {
        let e = ServerError::from(FrameError::Version(3));
        assert!(e.to_string().contains("version 3"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
        let e = ServerError::Rejected(WireError {
            request: Some(1),
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
            line: None,
            queue_depth: Some(4),
            queue_capacity: Some(4),
        });
        assert!(e.to_string().contains("Overloaded"), "{e}");
        let e = ServerError::from(EngineError::UnknownDatabase("x".into()));
        assert!(e.to_string().contains("`x`"), "{e}");
    }

    #[test]
    fn reject_counts_by_error_code_alone() {
        // The whole accounting table, one rejection per `ErrorCode`,
        // without and with a database in scope: the one server-wide
        // counter that moves, and what the database's (`errors`,
        // `overloads`) do when there is a database.
        use ErrorCode::*;
        type Total = Option<fn(&mut ServerStats) -> &mut u64>;
        let table: [(ErrorCode, Total, (u64, u64)); 11] = [
            (Version, Some(|s| &mut s.protocol_errors), (0, 0)),
            (BadFrame, Some(|s| &mut s.protocol_errors), (0, 0)),
            (Parse, Some(|s| &mut s.parse_errors), (1, 0)),
            (Internal, Some(|s| &mut s.internal_errors), (1, 0)),
            (Store, Some(|s| &mut s.store_errors), (1, 0)),
            (Delta, Some(|s| &mut s.delta_errors), (1, 0)),
            (Overloaded, Some(|s| &mut s.rejected_overload), (0, 1)),
            (Unauthorized, Some(|s| &mut s.rejected_unauthorized), (0, 0)),
            (UnknownDb, None, (0, 0)),
            (NotBound, None, (0, 0)),
            (ShuttingDown, None, (0, 0)),
        ];
        let (engine, catalog, config) =
            (Engine::default(), Catalog::new(), ServerConfig::default());
        let metrics = ServerMetrics::new(vec!["main".to_string()], 1);
        let ctx = ConnCtx {
            engine: &engine,
            catalog: &catalog,
            queue: &JobQueue::new(3),
            config: &config,
            shutdown: &AtomicBool::new(false),
            metrics: &metrics,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let writer = conn::ConnWriter::new(listener.accept().unwrap().0);
        let db = &metrics.dbs[0];
        let db_counts = || (db.metrics.errors.get(), db.metrics.overloads.get());

        for (seq, scope) in [(None, None), (Some(7), Some(db))] {
            for (code, total, per_db) in table {
                let (mut expected, db_before) = (metrics.snapshot(), db_counts());
                conn::Reply::new(ctx, &writer, seq, scope).reject(code, "why", Some(2));
                if let Some(counter) = total {
                    *counter(&mut expected) += 1;
                }
                assert_eq!(
                    metrics.snapshot(),
                    expected,
                    "{code:?}, db {}",
                    scope.is_some()
                );
                let per_db = if scope.is_some() { per_db } else { (0, 0) };
                let db_after = db_counts();
                assert_eq!(
                    (db_after.0 - db_before.0, db_after.1 - db_before.1),
                    per_db,
                    "{code:?}"
                );
                // The frame carries what it was given, and the queue
                // picture exactly when the code is `Overloaded`.
                let frame = frame::read_frame(&mut peer, 1 << 16).unwrap();
                let error: WireError = serde::json::from_str(frame.text().unwrap()).unwrap();
                let queue = (code == Overloaded).then_some((0, 3));
                assert_eq!(
                    error,
                    WireError {
                        request: seq,
                        code,
                        message: "why".to_string(),
                        line: Some(2),
                        queue_depth: queue.map(|q| q.0),
                        queue_capacity: queue.map(|q| q.1),
                    }
                );
            }
        }
    }
}
