//! The server's registry: the list of served databases — each one's
//! name, prepared-query cache and counters in a single [`ServedDb`]
//! record — beside the connection-level totals, and the three views of
//! those counters: [`ServerStats`] ([`ServerMetrics::snapshot`]), the
//! `--stats-interval` line ([`ServerMetrics::one_line`]) and the
//! `StatsReport` frame ([`ServerMetrics::report`]).

use std::sync::Mutex;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::metrics::{Counter, Gauge, Histogram, Snapshot};

use super::micros;
use super::prepared::PreparedCache;
use super::queue::JobQueue;
use super::wire::{WireDbStats, WireHistogram, WireStats};

/// Server-wide monotonic counters with no per-database home, built on
/// the lock-free [`crate::metrics`] primitives (one shared instance per
/// server). Everything that *is* counted per database lives in
/// [`DbMetrics`] only; [`ServerMetrics::snapshot`] sums it.
#[derive(Debug, Default)]
pub(super) struct StatsInner {
    pub(super) connections: Counter,
    pub(super) frames: Counter,
    pub(super) queries: Counter,
    pub(super) rejected_overload: Counter,
    pub(super) parse_errors: Counter,
    pub(super) protocol_errors: Counter,
    pub(super) internal_errors: Counter,
    pub(super) reloads: Counter,
    pub(super) rejected_unauthorized: Counter,
    pub(super) store_errors: Counter,
    pub(super) delta_errors: Counter,
}

/// One served database's slice of the metrics registry: request/error
/// counters plus the per-query server-latency histogram the serve path
/// populates on every answer (traced or not).
#[derive(Debug, Default)]
pub(super) struct DbMetrics {
    pub(super) batches: Counter,
    pub(super) queries: Counter,
    pub(super) errors: Counter,
    pub(super) overloads: Counter,
    pub(super) prepared_hits: Counter,
    pub(super) prepared_misses: Counter,
    /// Bag nodes the answering tree's memoized reduction had to filter,
    /// summed over every answered GHD-plan query (counts contribute 0).
    pub(super) bags_rewritten: Counter,
    /// Bag nodes of those trees in total; `rewritten / total` is the
    /// production reduction-sparsity ratio (0 = join-consistent data:
    /// no handle holds a reduced copy of any bag).
    pub(super) bags_total: Counter,
    /// Delta batches successfully merged into this database.
    pub(super) delta_batches: Counter,
    /// Facts those deltas inserted (no-op inserts excluded).
    pub(super) facts_inserted: Counter,
    /// Facts those deltas deleted (no-op deletes excluded).
    pub(super) facts_deleted: Counter,
    /// Bag-tree nodes re-materialized while migrating this database's
    /// prepared handles warm across delta epochs (dirty spines only).
    pub(super) bags_remat: Counter,
    pub(super) latency: Histogram,
}

/// One served database: its name, its warm prepared-query handles and
/// its slice of the counters, in one record that connections, jobs and
/// admin handlers hold by reference. The set is fixed when the server
/// starts — reloads and deltas swap the *content* behind a name in the
/// [`Catalog`], they never add or remove names.
pub(super) struct ServedDb {
    pub(super) name: String,
    pub(super) prepared: Mutex<PreparedCache>,
    pub(super) metrics: DbMetrics,
}

/// The server's registry: lifetime counters, the active-connections
/// gauge, and the [`ServedDb`] list. Created when the server starts
/// serving and shared with [`super::ServerHandle`] so stats can be read
/// from outside the serving thread (the `--stats-interval` dump).
pub(super) struct ServerMetrics {
    started: Instant,
    pub(super) totals: StatsInner,
    pub(super) active_connections: Gauge,
    pub(super) dbs: Vec<ServedDb>,
}

impl ServerMetrics {
    /// A fresh registry serving `names`, each with an empty prepared
    /// cache of `prepared_capacity` entries.
    pub(super) fn new(names: Vec<String>, prepared_capacity: usize) -> ServerMetrics {
        let served = |name| ServedDb {
            name,
            prepared: Mutex::new(PreparedCache::new(prepared_capacity)),
            metrics: DbMetrics::default(),
        };
        ServerMetrics {
            started: Instant::now(),
            totals: StatsInner::default(),
            active_connections: Gauge::new(),
            dbs: names.into_iter().map(served).collect(),
        }
    }

    /// The served database called `name`.
    pub(super) fn served(&self, name: &str) -> Option<&ServedDb> {
        self.dbs.iter().find(|db| db.name == name)
    }

    /// The `UnknownDb` message for a `name` that is not served.
    pub(super) fn unknown_db(&self, name: &str) -> String {
        let serving: Vec<&str> = self.dbs.iter().map(|db| db.name.as_str()).collect();
        format!("no database `{name}` (serving: {})", serving.join(", "))
    }

    /// The server-wide counters: the connection-level totals plus the
    /// per-database counters summed over every served name.
    pub(super) fn snapshot(&self) -> ServerStats {
        let t = &self.totals;
        let sum =
            |f: fn(&DbMetrics) -> &Counter| self.dbs.iter().map(|db| f(&db.metrics).get()).sum();
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
        for db in &self.dbs {
            merged.merge(&db.metrics.latency.snapshot());
        }
        merged
    }

    /// The one-line summary `cqd2-serve --stats-interval` prints.
    pub(super) fn one_line(&self) -> String {
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

    /// The `StatsReport` payload: the server-wide counters, the live
    /// queue and connection gauges, and one section per served database.
    /// `request` and `server_micros` are left for the reply path to
    /// stamp.
    pub(super) fn report<T>(&self, catalog: &Catalog, queue: &JobQueue<T>) -> WireStats {
        let totals = self.snapshot();
        let section = |db: &ServedDb| {
            let m = &db.metrics;
            WireDbStats {
                name: db.name.clone(),
                // Epoch is read live from the catalog: it reflects
                // reloads that happened after the counters were bumped.
                epoch: catalog.get(&db.name).map(|s| s.epoch()).unwrap_or(0),
                batches: m.batches.get(),
                queries: m.queries.get(),
                errors: m.errors.get(),
                overloads: m.overloads.get(),
                prepared_hits: m.prepared_hits.get(),
                prepared_misses: m.prepared_misses.get(),
                bags_rewritten: m.bags_rewritten.get(),
                bags_total: m.bags_total.get(),
                delta_batches: m.delta_batches.get(),
                facts_inserted: m.facts_inserted.get(),
                facts_deleted: m.facts_deleted.get(),
                bags_remat: m.bags_remat.get(),
                latency: WireHistogram::from_snapshot(&m.latency.snapshot()),
            }
        };
        WireStats {
            request: 0,
            uptime_micros: micros(self.started.elapsed()),
            connections: totals.connections,
            active_connections: self.active_connections.value(),
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
            queue_depth: queue.len() as u64,
            queue_high_water: queue.high_water() as u64,
            queue_capacity: queue.capacity() as u64,
            databases: self.dbs.iter().map(section).collect(),
            server_micros: 0,
        }
    }
}

/// A snapshot of the server's counters, returned by [`super::Server::run`] at
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
    /// Bag nodes the answering trees' memoized reductions had to
    /// filter, across all answered GHD-plan queries (a count
    /// contributes none).
    pub bags_rewritten: u64,
    /// Bag nodes of those trees in total. The ratio
    /// `bags_rewritten / bags_total` is the serving fleet's reduction
    /// sparsity; 0 means no handle holds a reduced copy of any bag.
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
