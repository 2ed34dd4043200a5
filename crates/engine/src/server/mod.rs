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
//! - an **acceptor** loop (non-blocking `accept` + shutdown polling)
//!   spawns one reader thread per connection;
//! - readers decode frames incrementally ([`frame::FrameReader`]), bind
//!   the connection to a named database, and enqueue query batches on a
//!   **bounded job queue** ([`queue::JobQueue`]) — a full queue is
//!   answered *immediately* with a typed `Overloaded` error frame
//!   (backpressure), never buffered. Each accepted batch **pins the
//!   catalog's current snapshot** in an owned [`crate::Session`], so
//!   its answers stay consistent even if a reload swaps the database
//!   mid-execution;
//! - a **worker pool** drains the queue. Each database name keeps a
//!   shared cache of warm [`crate::PreparedQuery`] handles keyed by
//!   query text **and validated by epoch**: repeated queries skip
//!   planning *and* bag materialization — the amortization the paper's
//!   `O(‖D‖^w)` preprocessing bound makes worthwhile (gated ≥ 1.5× by
//!   `benches/engine_serve_concurrent.rs`) — and a handle prepared
//!   against epoch N is never served once a reload publishes N+1;
//! - **admin frames** (protocol v2): `Reload` atomically publishes a
//!   new snapshot for a served name via [`Catalog::swap`] (enabled by
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

pub mod client;
pub mod frame;
pub mod queue;
pub mod signal;
pub mod wire;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cqd2_cq::eval::with_sequential_bags;
use cqd2_cq::sync::lock_or_poison;
use cqd2_cq::ConjunctiveQuery;

use crate::catalog::Catalog;
use crate::engine::{Engine, Workload};
use crate::error::EngineError;
use crate::metrics::{Counter, Gauge, Histogram, Phase, QueryTrace, Snapshot};
use crate::session::{PreparedQuery, Session};
use crate::textio::{self, ParseError};

use frame::{FrameError, FrameReader, FrameType, PollError, ReadEvent};
use queue::{JobQueue, PushError};
use wire::{
    ErrorCode, WireBound, WireCatalog, WireCatalogDb, WireDbStats, WireDone, WireError,
    WireHistogram, WireReloaded, WireResult, WireStats, WireTrace,
};

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Stats and the metrics registry.
// ---------------------------------------------------------------------

/// Server-wide monotonic counters with no per-database home, built on
/// the lock-free [`crate::metrics`] primitives (one shared instance per
/// server). Everything that *is* counted per database lives in
/// [`DbMetrics`] only; [`ServerMetrics::snapshot`] sums it.
#[derive(Debug, Default)]
struct StatsInner {
    connections: Counter,
    frames: Counter,
    queries: Counter,
    rejected_overload: Counter,
    parse_errors: Counter,
    protocol_errors: Counter,
    internal_errors: Counter,
    reloads: Counter,
    rejected_unauthorized: Counter,
    store_errors: Counter,
    delta_errors: Counter,
}

/// One served database's slice of the metrics registry: request/error
/// counters plus the per-query server-latency histogram the serve path
/// populates on every answer (traced or not).
#[derive(Debug, Default)]
struct DbMetrics {
    batches: Counter,
    queries: Counter,
    errors: Counter,
    overloads: Counter,
    prepared_hits: Counter,
    prepared_misses: Counter,
    /// Bag nodes the tree passes rewrote (copied + filtered), summed
    /// over every answered GHD-plan query (counts contribute 0).
    bags_rewritten: Counter,
    /// Bag nodes those passes visited in total; `rewritten / total` is
    /// the production pass-sparsity ratio (0 = ideal warm serving:
    /// every run was pure probing over the shared materialization).
    bags_total: Counter,
    /// Delta batches successfully merged into this database.
    delta_batches: Counter,
    /// Facts those deltas inserted (no-op inserts excluded).
    facts_inserted: Counter,
    /// Facts those deltas deleted (no-op deletes excluded).
    facts_deleted: Counter,
    /// Bag-tree nodes re-materialized while migrating this database's
    /// prepared handles warm across delta epochs (dirty spines only).
    bags_remat: Counter,
    latency: Histogram,
}

/// The server's metrics registry: lifetime counters, the
/// active-connections gauge, and one [`DbMetrics`] per served name
/// (parallel to the name snapshot [`Server::run`] takes). Created when
/// the server starts serving and shared with [`ServerHandle`] so stats
/// can be read from outside the serving thread (the `--stats-interval`
/// dump).
#[derive(Debug)]
struct ServerMetrics {
    started: Instant,
    totals: StatsInner,
    active_connections: Gauge,
    per_db: Vec<DbMetrics>,
}

impl ServerMetrics {
    fn new(n_dbs: usize) -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            totals: StatsInner::default(),
            active_connections: Gauge::new(),
            per_db: (0..n_dbs).map(|_| DbMetrics::default()).collect(),
        }
    }

    /// The server-wide counters: the connection-level totals plus the
    /// per-database counters summed over every served name.
    fn snapshot(&self) -> ServerStats {
        let t = &self.totals;
        let sum = |f: fn(&DbMetrics) -> &Counter| self.per_db.iter().map(|db| f(db).get()).sum();
        ServerStats {
            connections: t.connections.get(),
            frames: t.frames.get(),
            batches: sum(|db| &db.batches),
            queries: t.queries.get(),
            answered: sum(|db| &db.queries),
            rejected_overload: t.rejected_overload.get(),
            parse_errors: t.parse_errors.get(),
            protocol_errors: t.protocol_errors.get(),
            internal_errors: t.internal_errors.get(),
            prepared_hits: sum(|db| &db.prepared_hits),
            prepared_misses: sum(|db| &db.prepared_misses),
            reloads: t.reloads.get(),
            rejected_unauthorized: t.rejected_unauthorized.get(),
            store_errors: t.store_errors.get(),
            bags_rewritten: sum(|db| &db.bags_rewritten),
            bags_total: sum(|db| &db.bags_total),
            delta_batches: sum(|db| &db.delta_batches),
            facts_inserted: sum(|db| &db.facts_inserted),
            facts_deleted: sum(|db| &db.facts_deleted),
            bags_remat: sum(|db| &db.bags_remat),
            delta_errors: t.delta_errors.get(),
        }
    }

    /// The server-wide latency distribution: every database's histogram
    /// merged into one [`Snapshot`].
    fn merged_latency(&self) -> Snapshot {
        let mut merged = Snapshot::empty();
        for db in &self.per_db {
            merged.merge(&db.latency.snapshot());
        }
        merged
    }

    /// The one-line summary `cqd2-serve --stats-interval` prints.
    fn one_line(&self) -> String {
        let t = self.snapshot();
        let lat = self.merged_latency();
        format!(
            "stats — uptime {}s, conns {} ({} active), batches {}, answered {}, \
             overloaded {}, errors {}, prepared {}/{} hit/miss, reloads {}, \
             deltas {} (+{} −{} facts), bags {}/{} rewritten, \
             latency p50 {}µs p99 {}µs max {}µs",
            self.started.elapsed().as_secs(),
            t.connections,
            self.active_connections.value(),
            t.batches,
            t.answered,
            t.rejected_overload,
            t.parse_errors + t.protocol_errors + t.internal_errors,
            t.prepared_hits,
            t.prepared_misses,
            t.reloads,
            t.delta_batches,
            t.facts_inserted,
            t.facts_deleted,
            t.bags_rewritten,
            t.bags_total,
            lat.p50(),
            lat.p99(),
            lat.max(),
        )
    }
}

/// A snapshot of the server's counters, returned by [`Server::run`] at
/// shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames received.
    pub frames: u64,
    /// Query batches accepted onto the queue.
    pub batches: u64,
    /// Queries received inside accepted batches.
    pub queries: u64,
    /// Queries answered with a `Result` frame.
    pub answered: u64,
    /// Batches rejected with `Overloaded` (backpressure).
    pub rejected_overload: u64,
    /// Payloads rejected with `Parse`.
    pub parse_errors: u64,
    /// Connections dropped for frame-protocol violations.
    pub protocol_errors: u64,
    /// Batches aborted by engine-internal errors.
    pub internal_errors: u64,
    /// Executions that reused a warm prepared-query handle.
    pub prepared_hits: u64,
    /// Executions that prepared (planned + materialized) fresh —
    /// including re-prepares forced by an epoch bump after a reload.
    pub prepared_misses: u64,
    /// Successful `Reload` publications ([`Catalog::swap`]s).
    pub reloads: u64,
    /// `Reload` frames rejected because the server runs without
    /// `allow_reload`.
    pub rejected_unauthorized: u64,
    /// `Reload { path }` frames rejected because the named snapshot
    /// file was missing, unreadable, corrupt, or version-skewed (the
    /// old epoch kept serving every time).
    pub store_errors: u64,
    /// Bag nodes rewritten (copied + filtered) by tree passes across
    /// all answered GHD-plan queries (a count pass rewrites none).
    pub bags_rewritten: u64,
    /// Bag nodes visited by those passes in total. The ratio
    /// `bags_rewritten / bags_total` is the serving fleet's pass
    /// sparsity; 0 means every warm run was copy-free.
    pub bags_total: u64,
    /// Successful `Delta` frame applications (structural-sharing epoch
    /// publications).
    pub delta_batches: u64,
    /// Facts inserted by delta batches (no-op inserts excluded).
    pub facts_inserted: u64,
    /// Facts deleted by delta batches (no-op deletes excluded).
    pub facts_deleted: u64,
    /// Bag-tree nodes re-materialized by warm prepared-handle
    /// migrations across delta epochs.
    pub bags_remat: u64,
    /// `Delta` frames rejected by the delta kernel (unknown relation or
    /// arity mismatch); the serving epoch stayed unmoved every time.
    pub delta_errors: u64,
}

// ---------------------------------------------------------------------
// Prepared-query cache.
// ---------------------------------------------------------------------

/// Per-database cache of warm, **owned** [`PreparedQuery`] handles,
/// keyed by the query's canonical rendering
/// ([`ConjunctiveQuery::display`]) and validated by catalog **epoch**:
/// each handle pins the snapshot it was prepared against, and a lookup
/// for a newer epoch treats the entry as stale — it is dropped on the
/// spot, never served. Bounded FIFO: when full, the oldest entry is
/// evicted (repeated-workload serving re-prepares it on next use; the
/// engine's isomorphism-keyed plan cache still amortizes the structure
/// analysis underneath).
struct PreparedCache {
    capacity: usize,
    map: HashMap<String, Arc<PreparedQuery>>,
    order: VecDeque<String>,
}

impl PreparedCache {
    fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The warm handle for `key` at exactly `epoch`. A handle from an
    /// *older* epoch is stale (its data was reloaded away): it is
    /// removed and the lookup misses, so the caller re-prepares against
    /// its own pinned snapshot. A handle from a *newer* epoch also
    /// misses — the caller is a lagging batch pinned to a pre-reload
    /// snapshot — but stays cached: evicting it would make interleaved
    /// old- and new-epoch batches ping-pong the entry and re-pay the
    /// `O(‖D‖^width)` materialization on every lookup.
    fn get(&mut self, key: &str, epoch: u64) -> Option<Arc<PreparedQuery>> {
        match self.map.get(key) {
            Some(p) if p.epoch() == epoch => Some(Arc::clone(p)),
            Some(p) if p.epoch() < epoch => {
                self.map.remove(key);
                self.order.retain(|k| k != key);
                None
            }
            _ => None,
        }
    }

    fn insert(&mut self, key: String, prepared: Arc<PreparedQuery>) {
        if let Some(existing) = self.map.get_mut(&key) {
            // Another worker prepared the same text concurrently: keep
            // whichever pins the newer epoch (ties keep the first).
            if prepared.epoch() > existing.epoch() {
                *existing = prepared;
            }
            return;
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, prepared);
    }

    /// Drop every entry not pinning `current_epoch` (called after a
    /// reload so stale bag trees release their memory eagerly instead
    /// of waiting to be looked up). Returns how many were dropped.
    fn purge_stale(&mut self, current_epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|_, p| p.epoch() == current_epoch);
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
        before - self.map.len()
    }

    /// Migrate this cache across a delta epoch *without* purging it —
    /// the whole point of the update plane. Entries pinned to the
    /// pre-delta epoch are rebased warm ([`PreparedQuery::rebase`]:
    /// only the bags whose relations the delta touched are
    /// re-materialized; the clean spine keeps its `Arc`s and probe
    /// caches). Handles that cannot rebase (naive-plan cores carry no
    /// bag tree) are re-prepared via `reprepare` and marked
    /// `re-prepared`; entries from even older epochs are dropped as in
    /// [`PreparedCache::purge_stale`].
    fn refresh_after_delta(
        &mut self,
        outcome: &crate::delta::DeltaOutcome,
        reprepare: impl Fn(&ConjunctiveQuery) -> Option<PreparedQuery>,
    ) -> DeltaCacheRefresh {
        let mut refresh = DeltaCacheRefresh::default();
        let previous = outcome.previous.epoch();
        let mut dropped: Vec<String> = Vec::new();
        for (key, entry) in self.map.iter_mut() {
            if entry.epoch() > previous {
                continue; // already at (or past) the new epoch
            }
            if entry.epoch() < previous {
                dropped.push(key.clone()); // was stale before this delta
                continue;
            }
            match entry.rebase(&outcome.snapshot, &outcome.touched) {
                Some((warm, pass)) => {
                    *entry = Arc::new(warm);
                    refresh.warm += 1;
                    refresh.bags_remat += pass.rewritten as u64;
                }
                None => match reprepare(entry.query()) {
                    Some(mut fresh) => {
                        fresh.mark_re_prepared();
                        *entry = Arc::new(fresh);
                        refresh.reprepared += 1;
                    }
                    None => dropped.push(key.clone()),
                },
            }
        }
        for key in &dropped {
            self.map.remove(key);
        }
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
        refresh
    }
}

/// What [`PreparedCache::refresh_after_delta`] did to a database's warm
/// handles — reported in the `DeltaApplied` frame and folded into the
/// delta metrics.
#[derive(Debug, Default, Clone, Copy)]
struct DeltaCacheRefresh {
    /// Handles migrated warm (dirty-spine refresh, `warm-overlay`).
    warm: u64,
    /// Handles re-prepared from scratch (`re-prepared`).
    reprepared: u64,
    /// Bag nodes re-materialized across all warm migrations.
    bags_remat: u64,
}

// ---------------------------------------------------------------------
// Connection plumbing.
// ---------------------------------------------------------------------

/// The write half of a connection, shared between its reader thread and
/// the workers answering its batches. The mutex keeps frames atomic on
/// the wire; `pending` counts batches accepted but not yet fully
/// answered, so shutdown can drain before closing.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    pending: AtomicU64,
}

impl ConnWriter {
    fn send(&self, frame_type: FrameType, payload: &[u8]) -> io::Result<()> {
        let mut stream = lock_or_poison(&self.stream);
        frame::write_frame(&mut *stream, frame_type, payload)
    }

    fn send_json<T: serde::Serialize>(&self, frame_type: FrameType, payload: &T) -> io::Result<()> {
        self.send(frame_type, serde::json::to_string(payload).as_bytes())
    }

    fn send_error(
        &self,
        request: Option<u64>,
        code: ErrorCode,
        message: impl Into<String>,
        line: Option<u64>,
    ) -> io::Result<()> {
        self.send_json(
            FrameType::Error,
            &WireError {
                request,
                code,
                message: message.into(),
                line,
                queue_depth: None,
                queue_capacity: None,
            },
        )
    }
}

/// One query of a batch, ready to execute.
struct QueryItem {
    query: ConjunctiveQuery,
    /// Prepared-cache key: the query's canonical rendering.
    key: String,
    workload: Workload,
}

/// One accepted `Query` frame: the batch, the owned session pinning the
/// snapshot it runs against, where to answer — plus the observability
/// context (receipt/enqueue timestamps, the already-measured parse
/// span, and whether the client asked for trace spans).
struct Job<'e> {
    /// Owned session pinning the catalog snapshot that was current when
    /// the batch was accepted — a concurrent reload cannot change what
    /// this batch answers.
    session: Session,
    prepared: &'e Mutex<PreparedCache>,
    writer: Arc<ConnWriter>,
    request: u64,
    items: Vec<QueryItem>,
    /// Index of the bound database in the server's name snapshot (for
    /// the per-database metrics slice).
    db_index: usize,
    /// When the `Query` frame was received — the zero point of every
    /// `server_micros` this batch reports.
    received_at: Instant,
    /// When the batch was accepted onto the queue (queue-wait span).
    enqueued_at: Instant,
    /// Time the connection thread spent parsing the batch text.
    parse: Duration,
    /// Whether the batch carried `@trace`: attach a span breakdown to
    /// every `Result` frame.
    trace: bool,
}

/// Everything a connection thread needs, borrowed from [`Server::run`]'s
/// stack (all threads are scoped, so plain references suffice).
struct ConnCtx<'e> {
    engine: &'e Engine,
    catalog: &'e Catalog,
    /// The names served (snapshotted at startup — reloads swap content,
    /// they never add or remove names).
    names: &'e [String],
    caches: &'e [Mutex<PreparedCache>],
    queue: &'e JobQueue<Job<'e>>,
    config: &'e ServerConfig,
    shutdown: &'e AtomicBool,
    metrics: &'e ServerMetrics,
}

impl<'e> Clone for ConnCtx<'e> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'e> Copy for ConnCtx<'e> {}

impl<'e> ConnCtx<'e> {
    fn name_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// A bound-but-not-yet-running server: holds the listening socket, the
/// shutdown flag, and the (not-yet-initialized) metrics slot.
/// [`Server::run`] blocks the calling thread until shutdown.
pub struct Server {
    listener: TcpListener,
    /// Resolved once at [`Server::bind`] time, so handles never need a
    /// fallible `local_addr` syscall after the fact.
    addr: SocketAddr,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    /// Set by [`Server::run`] once the served names are known (the
    /// registry holds one slice per name); handles cloned before that
    /// see `None` from the stats accessors.
    metrics: Arc<OnceLock<Arc<ServerMetrics>>>,
}

/// A cheap cloneable handle for stopping a running [`Server`] from
/// another thread (or a signal handler — see
/// [`signal::install_shutdown_signals`]) and for reading its live
/// serving statistics (the `--stats-interval` dump).
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
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
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(OnceLock::new()),
        })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// A shutdown handle for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.addr,
            metrics: Arc::clone(&self.metrics),
        }
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
            addr: _,
            config,
            shutdown,
            metrics: metrics_slot,
        } = self;
        listener.set_nonblocking(true)?;
        let names: Vec<String> = catalog.names();
        let caches: Vec<Mutex<PreparedCache>> = names
            .iter()
            .map(|_| Mutex::new(PreparedCache::new(config.prepared_capacity)))
            .collect();
        // Publish the registry so handles (e.g. the `--stats-interval`
        // dump thread) can read live stats while we serve.
        let metrics: &ServerMetrics =
            metrics_slot.get_or_init(|| Arc::new(ServerMetrics::new(names.len())));
        let queue: JobQueue<Job<'_>> = JobQueue::new(config.queue_capacity);
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            config.workers
        };
        // When several workers share the machine, nested intra-query
        // parallelism under each tree pass would oversubscribe it.
        let sequential_bags = workers > 1;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let queue = &queue;
                scope.spawn(move || worker_loop(queue, metrics, sequential_bags));
            }
            let ctx = ConnCtx {
                engine,
                catalog,
                names: &names,
                caches: &caches,
                queue: &queue,
                config: &config,
                shutdown: &shutdown,
                metrics,
            };
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        metrics.totals.connections.inc();
                        scope.spawn(move || conn_loop(ctx, stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(config.poll_interval);
                    }
                    Err(_) => {
                        // Transient accept failure (e.g. aborted
                        // handshake): keep serving.
                        std::thread::sleep(config.poll_interval);
                    }
                }
            }
            // Shutdown: refuse new work, let workers drain what was
            // accepted. Connection threads observe the flag themselves.
            queue.close();
        });
        Ok(metrics.snapshot())
    }
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

fn worker_loop(queue: &JobQueue<Job<'_>>, metrics: &ServerMetrics, sequential_bags: bool) {
    while let Some(job) = queue.pop() {
        execute_job(job, metrics, sequential_bags);
    }
}

/// Saturating whole-microseconds rendering of a duration.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Execute one accepted batch: resolve (or prepare) each query's warm
/// handle against the batch's pinned epoch, run it, frame the answer.
/// Any error frame terminates the batch (no `Done` follows), matching
/// the protocol's "error ends the request" rule.
///
/// Observability: every answered query stamps `server_micros` (receipt
/// of the `Query` frame → the result handed to the socket) and records
/// it into the database's latency histogram; when the batch carried
/// `@trace`, a [`QueryTrace`] is assembled per query from disjoint
/// phase sub-intervals (so the span sum never exceeds `server_micros`)
/// and attached to the `Result` payload.
fn execute_job(job: Job<'_>, metrics: &ServerMetrics, sequential_bags: bool) {
    let db_metrics = &metrics.per_db[job.db_index];
    let queue_wait = job.enqueued_at.elapsed();
    let epoch = job.session.epoch();
    let mut results = 0u64;
    for (index, item) in job.items.iter().enumerate() {
        let cached = {
            let mut cache = lock_or_poison(job.prepared);
            cache.get(&item.key, epoch)
        };
        let (prepared, prepared_hit) = match cached {
            Some(p) => (p, true),
            None => {
                // Prepare outside the cache lock: planning and bag
                // materialization are the expensive part, and other
                // workers must stay free to hit the cache meanwhile. A
                // concurrent duplicate prepare is possible and benign
                // (the cache keeps the newest epoch). The handle is
                // prepared on the *pinned* session, so even a reload
                // racing this prepare cannot mix epochs within the
                // batch.
                match job.session.prepare(&item.query) {
                    Ok(p) => {
                        let p = Arc::new(p);
                        lock_or_poison(job.prepared).insert(item.key.clone(), Arc::clone(&p));
                        (p, false)
                    }
                    Err(e) => {
                        metrics.totals.internal_errors.inc();
                        db_metrics.errors.inc();
                        let _ = job.writer.send_error(
                            Some(job.request),
                            ErrorCode::Internal,
                            format!("query {index}: {e}"),
                            None,
                        );
                        job.writer.pending.fetch_sub(1, Ordering::SeqCst);
                        return;
                    }
                }
            }
        };
        if prepared_hit {
            db_metrics.prepared_hits.inc();
        } else {
            db_metrics.prepared_misses.inc();
        }
        // Assemble the trace (batch-level phases first) only when the
        // client asked; the latency histograms are fed either way.
        let mut trace = job.trace.then(QueryTrace::new);
        if let Some(t) = trace.as_mut() {
            t.record(Phase::QueueWait, queue_wait);
            t.record(Phase::Parse, job.parse);
            let provenance = format!(
                "{} ({} | cache {} | prepared {})",
                prepared.plan(item.workload).plan.strategy(),
                item.workload.name(),
                if prepared.cache_hit() { "hit" } else { "miss" },
                if prepared_hit { "hit" } else { "miss" },
            );
            // Planning and materialization were paid at prepare time:
            // they belong to this request only on a prepared-cache miss.
            let (plan, materialize) = if prepared_hit {
                (Duration::ZERO, Duration::ZERO)
            } else {
                (prepared.planning_time(), prepared.preprocessing_time())
            };
            t.record_with(Phase::Plan, plan, provenance);
            t.record(Phase::Materialize, materialize);
        }
        // Only the run is pinned sequential: a prepared-cache miss above
        // still materializes its bags in parallel, which is what keeps
        // the first read after a delta short.
        let mut run = || match trace.as_mut() {
            Some(t) => prepared.run_traced(item.workload, t),
            None => prepared.run(item.workload),
        };
        let resp = if sequential_bags {
            with_sequential_bags(run)
        } else {
            run()
        };
        // Pass-sparsity accounting: how much of the prepared bag tree
        // this run had to copy (0 rewritten = fully copy-free, which a
        // count always is).
        if let Some(pass) = &resp.provenance.bags {
            db_metrics.bags_rewritten.add(pass.rewritten as u64);
            db_metrics.bags_total.add(pass.total as u64);
        }
        let mut wire = WireResult::from_response(job.request, index as u64, prepared_hit, &resp);
        let payload = match trace {
            Some(mut t) => {
                // Measure serialization on the trace-less payload, then
                // stamp `server_micros` *after* that (all phases are
                // then completed sub-intervals of it) and re-encode
                // with the trace attached. The double encode is paid
                // only by traced batches.
                let ser_start = Instant::now();
                let _ = serde::json::to_string(&wire);
                t.record(Phase::Serialize, ser_start.elapsed());
                wire.server_micros = micros(job.received_at.elapsed());
                wire.trace = Some(WireTrace::from_trace(&t));
                serde::json::to_string(&wire)
            }
            None => {
                wire.server_micros = micros(job.received_at.elapsed());
                serde::json::to_string(&wire)
            }
        };
        db_metrics.latency.record(wire.server_micros);
        if job
            .writer
            .send(FrameType::Result, payload.as_bytes())
            .is_err()
        {
            // Client went away; drop the rest of the batch.
            job.writer.pending.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        results += 1;
        db_metrics.queries.inc();
    }
    let _ = job.writer.send_json(
        FrameType::Done,
        &WireDone {
            request: job.request,
            results,
            server_micros: micros(job.received_at.elapsed()),
        },
    );
    job.writer.pending.fetch_sub(1, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Connection side.
// ---------------------------------------------------------------------

/// Decrements the active-connections gauge when a connection thread
/// exits, whichever of `conn_loop`'s many return paths it takes.
struct ActiveConnGuard<'e>(&'e Gauge);

impl Drop for ActiveConnGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

fn conn_loop(ctx: ConnCtx<'_>, stream: TcpStream) {
    ctx.metrics.active_connections.inc();
    let _active = ActiveConnGuard(&ctx.metrics.active_connections);
    if stream
        .set_read_timeout(Some(ctx.config.poll_interval))
        .is_err()
    {
        return;
    }
    // Result frames are small and latency-sensitive; don't let Nagle
    // batch them against the client's next read.
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter {
            stream: Mutex::new(w),
            pending: AtomicU64::new(0),
        }),
        Err(_) => return,
    };
    let mut stream = stream;
    let mut reader = FrameReader::new(ctx.config.max_frame_len);
    let mut seq: u64 = 0;
    let mut bound: Option<usize> = None;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            drain_then_goodbye(ctx, &writer);
            return;
        }
        match reader.poll(&mut stream) {
            Ok(ReadEvent::Idle) => continue,
            Ok(ReadEvent::Closed) => return,
            Ok(ReadEvent::Frame(f)) => {
                // The zero point of this request's `server_micros`.
                let received_at = Instant::now();
                seq += 1;
                ctx.metrics.totals.frames.inc();
                match f.frame_type {
                    FrameType::Bind => {
                        bound = handle_bind(ctx, &writer, seq, &f, received_at).or(bound);
                    }
                    FrameType::Query => {
                        if !handle_query(ctx, &writer, seq, bound, &f, received_at) {
                            return;
                        }
                    }
                    FrameType::Reload => {
                        handle_reload(ctx, &writer, seq, &f, received_at);
                    }
                    FrameType::Delta => {
                        handle_delta(ctx, &writer, seq, &f, received_at);
                    }
                    FrameType::CatalogInfo => {
                        handle_catalog_info(ctx, &writer, seq, received_at);
                    }
                    FrameType::Stats => {
                        handle_stats(ctx, &writer, seq, received_at);
                    }
                    // Server→client frame types are never valid inbound.
                    FrameType::Bound
                    | FrameType::Result
                    | FrameType::Done
                    | FrameType::Reloaded
                    | FrameType::Catalog
                    | FrameType::StatsReport
                    | FrameType::DeltaApplied
                    | FrameType::Error => {
                        ctx.metrics.totals.protocol_errors.inc();
                        let _ = writer.send_error(
                            Some(seq),
                            ErrorCode::BadFrame,
                            format!("{:?} frames are server→client only", f.frame_type),
                            None,
                        );
                        return;
                    }
                }
            }
            Err(PollError::Frame(e)) => {
                ctx.metrics.totals.protocol_errors.inc();
                let code = match e {
                    FrameError::Version(_) => ErrorCode::Version,
                    _ => ErrorCode::BadFrame,
                };
                let _ = writer.send_error(None, code, e.to_string(), None);
                return;
            }
            Err(PollError::Io(_)) => return,
        }
    }
}

/// Answer a `Bind` frame. Returns the newly bound database index, or
/// `None` if the bind failed (the connection keeps any previous bind).
fn handle_bind(
    ctx: ConnCtx<'_>,
    writer: &ConnWriter,
    seq: u64,
    f: &frame::Frame,
    received_at: Instant,
) -> Option<usize> {
    let name = match f.text() {
        Ok(name) => name.trim(),
        Err(e) => {
            ctx.metrics.totals.protocol_errors.inc();
            let _ = writer.send_error(Some(seq), ErrorCode::BadFrame, e.to_string(), None);
            return None;
        }
    };
    match (ctx.name_index(name), ctx.catalog.get(name)) {
        (Some(i), Some(snapshot)) => {
            let _ = writer.send_json(
                FrameType::Bound,
                &WireBound {
                    request: seq,
                    db: name.to_string(),
                    facts: snapshot.db().size() as u64,
                    relations: snapshot.db().relations().count() as u64,
                    epoch: snapshot.epoch(),
                    server_micros: micros(received_at.elapsed()),
                },
            );
            Some(i)
        }
        _ => {
            let _ = writer.send_error(
                Some(seq),
                ErrorCode::UnknownDb,
                format!("no database `{name}` (serving: {})", ctx.names.join(", ")),
                None,
            );
            None
        }
    }
}

/// Answer a `Query` frame: parse, pin the current snapshot, then
/// enqueue (or reject). Returns `false` when the connection must close
/// (shutdown).
fn handle_query(
    ctx: ConnCtx<'_>,
    writer: &Arc<ConnWriter>,
    seq: u64,
    bound: Option<usize>,
    f: &frame::Frame,
    received_at: Instant,
) -> bool {
    let Some(db_index) = bound else {
        let _ = writer.send_error(
            Some(seq),
            ErrorCode::NotBound,
            "no database bound — send a Bind frame first",
            None,
        );
        return true;
    };
    let db_metrics = &ctx.metrics.per_db[db_index];
    let text = match f.text() {
        Ok(t) => t,
        Err(e) => {
            ctx.metrics.totals.protocol_errors.inc();
            let _ = writer.send_error(Some(seq), ErrorCode::BadFrame, e.to_string(), None);
            return true;
        }
    };
    let parse_started = Instant::now();
    let batch = match textio::parse_query_batch(text) {
        Ok(b) => b,
        Err(e) => {
            ctx.metrics.totals.parse_errors.inc();
            db_metrics.errors.inc();
            let _ = writer.send_error(
                Some(seq),
                ErrorCode::Parse,
                e.message.clone(),
                e.line.map(|l| l as u64),
            );
            return true;
        }
    };
    let parse = parse_started.elapsed();
    // Pin the catalog's current snapshot *now*: the batch executes
    // against exactly this epoch no matter how many reloads land while
    // it waits in the queue or streams its results.
    let session = match ctx.engine.session_in(ctx.catalog, &ctx.names[db_index]) {
        Ok(s) => s,
        Err(e) => {
            // Unreachable while names never leave the catalog, but keep
            // it a typed frame rather than a panic.
            let _ = writer.send_error(Some(seq), ErrorCode::UnknownDb, e.to_string(), None);
            return true;
        }
    };
    let trace = batch.trace;
    let items: Vec<QueryItem> = batch
        .queries
        .into_iter()
        .map(|(query, mode)| QueryItem {
            key: query.display(),
            query,
            workload: mode.unwrap_or(Workload::Boolean),
        })
        .collect();
    let n_queries = items.len() as u64;
    writer.pending.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        session,
        prepared: &ctx.caches[db_index],
        writer: Arc::clone(writer),
        request: seq,
        items,
        db_index,
        received_at,
        enqueued_at: Instant::now(),
        parse,
        trace,
    };
    match ctx.queue.try_push(job) {
        Ok(()) => {
            ctx.metrics.totals.queries.add(n_queries);
            db_metrics.batches.inc();
            true
        }
        Err(PushError::Full(job)) => {
            job.writer.pending.fetch_sub(1, Ordering::SeqCst);
            ctx.metrics.totals.rejected_overload.inc();
            db_metrics.overloads.inc();
            // The Overloaded frame carries the live queue picture so
            // clients can make an informed backoff decision.
            let _ = writer.send_json(
                FrameType::Error,
                &WireError {
                    request: Some(seq),
                    code: ErrorCode::Overloaded,
                    message: format!(
                        "request queue full ({} pending batches) — retry later",
                        ctx.config.queue_capacity
                    ),
                    line: None,
                    queue_depth: Some(ctx.queue.len() as u64),
                    queue_capacity: Some(ctx.queue.capacity() as u64),
                },
            );
            true
        }
        Err(PushError::Closed(job)) => {
            job.writer.pending.fetch_sub(1, Ordering::SeqCst);
            let _ = writer.send_error(
                Some(seq),
                ErrorCode::ShuttingDown,
                "server is shutting down",
                None,
            );
            false
        }
    }
}

/// The preamble `Reload` and `Delta` share: authorize on
/// `allow_reload` (both mutate served data), decode the payload, split
/// off its first line as the database name, and resolve the name
/// against the served set. Returns `(name, rest of payload, db index)`;
/// `None` means the typed error frame was already sent. `what` names
/// the refused operation in the `Unauthorized` message.
fn admin_target<'f>(
    ctx: ConnCtx<'_>,
    writer: &ConnWriter,
    seq: u64,
    f: &'f frame::Frame,
    what: &str,
) -> Option<(&'f str, &'f str, usize)> {
    if !ctx.config.allow_reload {
        ctx.metrics.totals.rejected_unauthorized.inc();
        let _ = writer.send_error(
            Some(seq),
            ErrorCode::Unauthorized,
            format!("this server does not accept {what} (start it with --allow-reload)"),
            None,
        );
        return None;
    }
    let text = match f.text() {
        Ok(t) => t,
        Err(e) => {
            ctx.metrics.totals.protocol_errors.inc();
            let _ = writer.send_error(Some(seq), ErrorCode::BadFrame, e.to_string(), None);
            return None;
        }
    };
    let (name, rest) = match text.split_once('\n') {
        Some((first, rest)) => (first.trim(), rest),
        None => (text.trim(), ""),
    };
    // An unknown name is not a parse failure: answer the typed frame
    // without touching any counter, exactly like `handle_bind`.
    let Some(db_index) = ctx.name_index(name) else {
        let _ = writer.send_error(
            Some(seq),
            ErrorCode::UnknownDb,
            format!("no database `{name}` (serving: {})", ctx.names.join(", ")),
            None,
        );
        return None;
    };
    Some((name, rest, db_index))
}

/// Answer a failed `Reload` / `Delta` against a served name: one typed
/// error frame, its server-wide counter, and the database's `errors`.
/// Every arm leaves the previously published epoch serving unmoved.
fn send_admin_error(
    ctx: ConnCtx<'_>,
    writer: &ConnWriter,
    seq: u64,
    db_index: usize,
    err: &EngineError,
) {
    let totals = &ctx.metrics.totals;
    let (code, counter, message, line) = match err {
        EngineError::Parse(e) => (
            ErrorCode::Parse,
            &totals.parse_errors,
            e.message.clone(),
            // The facts / delta script start on payload line 2 (after
            // the name line); report payload-relative lines.
            e.line.map(|l| l as u64 + 1),
        ),
        // A bad snapshot file is the operator's problem, not the
        // server's.
        EngineError::Store(e) => (ErrorCode::Store, &totals.store_errors, e.to_string(), None),
        // The delta kernel validated the whole batch and refused it
        // (unknown relation / arity mismatch) before merging anything.
        EngineError::Delta(e) => (
            ErrorCode::Delta,
            &totals.delta_errors,
            format!("delta rejected: {e}"),
            None,
        ),
        e => (
            ErrorCode::Internal,
            &totals.internal_errors,
            e.to_string(),
            None,
        ),
    };
    counter.inc();
    ctx.metrics.per_db[db_index].errors.inc();
    let _ = writer.send_error(Some(seq), code, message, line);
}

/// Answer a `Reload` admin frame: [`admin_target`] (first payload line
/// = database name, rest = facts), swap the catalog, purge the name's
/// stale prepared handles, answer `Reloaded`. Handled inline on the
/// connection thread — reloads are rare control-plane work and must
/// not compete with queries for worker slots (and the swap itself
/// never blocks query execution: in-flight batches hold their own
/// pins).
fn handle_reload(
    ctx: ConnCtx<'_>,
    writer: &ConnWriter,
    seq: u64,
    f: &frame::Frame,
    received_at: Instant,
) {
    let Some((name, facts, db_index)) = admin_target(ctx, writer, seq, f, "reloads") else {
        return;
    };
    // Payload form 2: `@snapshot <path>` names a server-local `.cqds`
    // file to swap in ([`crate::store`]) instead of inline facts. The
    // `@` sigil cannot collide with facts text (the facts grammar
    // rejects `@` lines), and the path is resolved by the *server*
    // process — the client ships a name, never file contents.
    let swapped = match facts.trim().strip_prefix("@snapshot") {
        Some(path) => {
            let path = path.trim();
            if path.is_empty() {
                ctx.metrics.totals.protocol_errors.inc();
                let _ = writer.send_error(
                    Some(seq),
                    ErrorCode::BadFrame,
                    "@snapshot needs a server-local file path",
                    None,
                );
                return;
            }
            crate::store::swap_snapshot(ctx.catalog, name, path)
        }
        None => ctx.catalog.swap_str(name, facts),
    };
    let snapshot = match swapped {
        Ok(s) => s,
        Err(e) => return send_admin_error(ctx, writer, seq, db_index, &e),
    };
    // Eagerly release the old epoch's pinned bag trees; lookups would
    // drop them lazily anyway, but cold entries could linger.
    lock_or_poison(&ctx.caches[db_index]).purge_stale(snapshot.epoch());
    ctx.metrics.totals.reloads.inc();
    let _ = writer.send_json(
        FrameType::Reloaded,
        &WireReloaded {
            request: seq,
            db: name.to_string(),
            epoch: snapshot.epoch(),
            facts: snapshot.db().size() as u64,
            relations: snapshot.db().relations().count() as u64,
            server_micros: micros(received_at.elapsed()),
        },
    );
}

/// Answer a `Delta` admin frame: [`admin_target`] (deltas ride the
/// same `--allow-reload` gate; first payload line = database name, rest
/// = an `@insert` / `@delete` delta script), merge incrementally via
/// [`Catalog::apply_delta`] — untouched relations are `Arc`-shared into
/// the new epoch — then migrate the name's warm prepared handles across
/// the epoch instead of purging them
/// ([`PreparedCache::refresh_after_delta`]), and answer `DeltaApplied`.
/// Every rejection (unknown name, parse failure, delta kernel refusal)
/// leaves the previously published epoch serving unmoved: the whole
/// batch validates before any merge.
fn handle_delta(
    ctx: ConnCtx<'_>,
    writer: &ConnWriter,
    seq: u64,
    f: &frame::Frame,
    received_at: Instant,
) {
    let Some((name, script, db_index)) = admin_target(ctx, writer, seq, f, "deltas") else {
        return;
    };
    let outcome = match crate::delta::apply_delta_text(ctx.catalog, name, script) {
        Ok(o) => o,
        Err(e) => return send_admin_error(ctx, writer, seq, db_index, &e),
    };
    // Migrate the warm handles instead of purging them: only bags whose
    // relations the delta touched are re-materialized; naive-plan
    // handles re-prepare (cheap — the plan cache still holds their
    // structure analysis) and are marked `re-prepared`.
    let refresh = {
        let mut cache = lock_or_poison(&ctx.caches[db_index]);
        cache.refresh_after_delta(&outcome, |q| {
            ctx.engine
                .session_in(ctx.catalog, name)
                .ok()
                .and_then(|s| s.prepare(q).ok())
        })
    };
    let db_metrics = &ctx.metrics.per_db[db_index];
    db_metrics.delta_batches.inc();
    db_metrics.facts_inserted.add(outcome.inserted as u64);
    db_metrics.facts_deleted.add(outcome.deleted as u64);
    db_metrics.bags_remat.add(refresh.bags_remat);
    let _ = writer.send_json(
        FrameType::DeltaApplied,
        &wire::WireDeltaApplied {
            request: seq,
            db: name.to_string(),
            epoch: outcome.snapshot.epoch(),
            inserted: outcome.inserted as u64,
            deleted: outcome.deleted as u64,
            relations_touched: outcome.touched.clone(),
            facts: outcome.snapshot.db().size() as u64,
            prepared_warm: refresh.warm,
            prepared_reprepared: refresh.reprepared,
            bags_remat: refresh.bags_remat,
            server_micros: micros(received_at.elapsed()),
        },
    );
}

/// Answer a `CatalogInfo` admin frame with the served names, their
/// epochs, and whether reloads are enabled.
fn handle_catalog_info(ctx: ConnCtx<'_>, writer: &ConnWriter, seq: u64, received_at: Instant) {
    let databases = ctx
        .names
        .iter()
        .filter_map(|name| ctx.catalog.get(name))
        .map(|snapshot| WireCatalogDb {
            name: snapshot.name().to_string(),
            epoch: snapshot.epoch(),
            facts: snapshot.db().size() as u64,
            relations: snapshot.db().relations().count() as u64,
        })
        .collect();
    let _ = writer.send_json(
        FrameType::Catalog,
        &WireCatalog {
            request: seq,
            reload_enabled: ctx.config.allow_reload,
            databases,
            server_micros: micros(received_at.elapsed()),
        },
    );
}

/// Answer a `Stats` admin frame with the full server-wide metrics
/// snapshot: lifetime counters, live queue/connection gauges, and the
/// per-database request counters and latency histograms. Handled
/// inline on the connection thread — reading atomics is cheap and must
/// stay responsive even when every worker is busy.
fn handle_stats(ctx: ConnCtx<'_>, writer: &ConnWriter, seq: u64, received_at: Instant) {
    let totals = ctx.metrics.snapshot();
    let databases = ctx
        .names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let db = &ctx.metrics.per_db[i];
            WireDbStats {
                name: name.clone(),
                // Epoch is read live from the catalog: it reflects
                // reloads that happened after the counters were bumped.
                epoch: ctx.catalog.get(name).map(|s| s.epoch()).unwrap_or(0),
                batches: db.batches.get(),
                queries: db.queries.get(),
                errors: db.errors.get(),
                overloads: db.overloads.get(),
                prepared_hits: db.prepared_hits.get(),
                prepared_misses: db.prepared_misses.get(),
                bags_rewritten: db.bags_rewritten.get(),
                bags_total: db.bags_total.get(),
                delta_batches: db.delta_batches.get(),
                facts_inserted: db.facts_inserted.get(),
                facts_deleted: db.facts_deleted.get(),
                bags_remat: db.bags_remat.get(),
                latency: WireHistogram::from_snapshot(&db.latency.snapshot()),
            }
        })
        .collect();
    let _ = writer.send_json(
        FrameType::StatsReport,
        &WireStats {
            request: seq,
            uptime_micros: micros(ctx.metrics.started.elapsed()),
            connections: totals.connections,
            active_connections: ctx.metrics.active_connections.value(),
            frames: totals.frames,
            batches: totals.batches,
            queries: totals.queries,
            answered: totals.answered,
            rejected_overload: totals.rejected_overload,
            rejected_unauthorized: totals.rejected_unauthorized,
            parse_errors: totals.parse_errors,
            protocol_errors: totals.protocol_errors,
            internal_errors: totals.internal_errors,
            prepared_hits: totals.prepared_hits,
            prepared_misses: totals.prepared_misses,
            reloads: totals.reloads,
            store_errors: totals.store_errors,
            bags_rewritten: totals.bags_rewritten,
            bags_total: totals.bags_total,
            delta_batches: totals.delta_batches,
            facts_inserted: totals.facts_inserted,
            facts_deleted: totals.facts_deleted,
            bags_remat: totals.bags_remat,
            delta_errors: totals.delta_errors,
            queue_depth: ctx.queue.len() as u64,
            queue_high_water: ctx.queue.high_water() as u64,
            queue_capacity: ctx.queue.capacity() as u64,
            databases,
            server_micros: micros(received_at.elapsed()),
        },
    );
}

/// At shutdown, wait (bounded) for this connection's accepted batches
/// to be fully answered, then send `ShuttingDown` and close.
fn drain_then_goodbye(ctx: ConnCtx<'_>, writer: &ConnWriter) {
    let deadline = Instant::now() + ctx.config.drain_timeout;
    while writer.pending.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(ctx.config.poll_interval);
    }
    let _ = writer.send_error(None, ErrorCode::ShuttingDown, "server shutting down", None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2_cq::Database;

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
            session
                .run(q, Workload::Count)
                .unwrap()
                .answer
                .as_count()
                .unwrap()
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
}
