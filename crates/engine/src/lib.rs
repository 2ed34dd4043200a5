//! # cqd2-engine — serving layer for CQ workloads
//!
//! The paper's central message is that the *structure* of a conjunctive
//! query (degree 2, acyclicity, bounded ghw, jigsaw reducibility)
//! determines the right evaluation algorithm. This crate turns that
//! classification into a serving architecture:
//!
//! - [`planner`]: runs the structural analysis once per query structure
//!   and produces an explainable [`QueryPlan`] with a cost estimate —
//!   `NaiveJoin`, `GhdYannakakis` (Prop. 2.2), `CountingDp`
//!   (Prop. 4.14), or `JigsawReduce` (the Theorem 4.7 hardness
//!   certificate).
//! - [`cache`]: a plan cache keyed by the query hypergraph's
//!   isomorphism-invariant fingerprint; repeated-*shape* workloads pay
//!   for decomposition once, and cached GHDs are translated along a
//!   witness isomorphism into each incoming query's coordinates.
//! - [`catalog`]: the **versioned database catalog** — named databases
//!   published as [`DatabaseSnapshot`]s (data + statistics, computed
//!   once at publish time) with a per-name epoch; [`Catalog::swap`]
//!   hot-reloads a database without disturbing pinned readers, and the
//!   epoch is the invalidation token for prepared-handle caches.
//! - [`delta`]: the **incremental update plane** —
//!   [`Catalog::apply_delta`] publishes a batch of fact
//!   inserts/deletes as the next epoch with **structural sharing**
//!   (only touched relations rebuilt and re-scanned for statistics,
//!   everything else `Arc`-carried), and [`PreparedQuery::rebase`]
//!   migrates warm handles across the epoch by re-materializing only
//!   the dirty bag spine; the [`MaintenanceClass`] (`warm-overlay`)
//!   lands in plan provenance.
//! - [`session`]: the **owned, handle-based serving API** —
//!   [`Engine::session_in`] pins a catalog snapshot ([`Engine::session`]
//!   is the `&Database` convenience shim); [`Session::prepare`] resolves
//!   a query's structure analysis and plan once (through the cache);
//!   [`PreparedQuery::run`] re-executes at zero planning cost, and
//!   [`PreparedQuery::cursor`] streams `Enumerate` answers with constant
//!   delay after semijoin-reduction preprocessing. All handles are
//!   lifetime-free: they stay valid across catalog swaps, scope ends,
//!   and thread moves, answering consistently against their pinned
//!   epoch.
//! - [`engine`]: the one-shot door. [`Engine::serve`] answers one
//!   `(query, db)` request and [`Engine::execute_batch`] evaluates a
//!   batch of them over shared databases with scoped worker threads,
//!   returning per-request answers plus plan provenance — the same
//!   `build → first pass` route prepared handles run.
//! - [`server`] *(requires the `serde` feature)*: the **socket serving
//!   front-end** — a thread-pool TCP server (`cqd2-serve`) framing the
//!   workload text format over a shared [`Catalog`], with per-batch
//!   snapshot pinning, epoch-validated prepared-query caches, hot
//!   `Reload` / `Delta` / `CatalogInfo` admin frames (deltas migrate
//!   the warm caches instead of purging them), a bounded queue with
//!   typed backpressure, and graceful shutdown. See `docs/PROTOCOL.md`.
//! - [`store`]: the **persistent snapshot + plan store** — a versioned,
//!   checksummed `.cqds` binary format laying each relation out as the
//!   kernel's contiguous `FlatRelation` buffer (mmap-ready sections,
//!   statistics persisted alongside, so publishing a loaded snapshot
//!   skips the statistics pass), plus a serde-gated plan-cache spill
//!   keyed by hypergraph fingerprint with catalog epochs as the
//!   invalidation token. See `docs/SNAPSHOT.md`.
//! - [`metrics`]: zero-dependency observability primitives — lock-free
//!   [`Counter`]s / [`Gauge`]s, a log-linear latency [`Histogram`] with
//!   mergeable [`Snapshot`]s and p50/p90/p99 readout, and the
//!   [`QueryTrace`] per-query span recorder the server threads through
//!   the serve path (`queue_wait` / `parse` / `plan` / `materialize` /
//!   `execute` / `serialize`).
//! - [`error`]: the typed [`EngineError`] hierarchy (a real
//!   `std::error::Error` with source chains).
//! - [`textio`]: a small text format for workload files (queries, facts,
//!   and `@boolean` / `@count` / `@enumerate` workload directives) and
//!   delta scripts (`@insert` / `@delete` sections of facts),
//!   shared by the `cqd2-analyze` subcommands and the examples.
//!
//! ```
//! use cqd2_engine::{Engine, Workload};
//! use cqd2_cq::{ConjunctiveQuery, Database};
//!
//! let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
//! let mut db = Database::new();
//! db.insert_all("R", &[vec![1, 2]]);
//! db.insert_all("S", &[vec![2, 3], vec![2, 4]]);
//!
//! let engine = Engine::default();
//! // Database pinned once per session, plan resolved and bag tree
//! // materialized once per prepared query; runs just execute.
//! let session = engine.session(&db);
//! let prepared = session.prepare(&q).unwrap();
//! assert_eq!(prepared.run(Workload::Boolean).answer.as_bool(), Some(true));
//! assert_eq!(prepared.run(Workload::Count).answer.as_count(), Some(2));
//! // Enumeration streams tuples (full assignments in Var id order).
//! let answers: Vec<_> = prepared.cursor(None).collect();
//! assert_eq!(answers.len(), 2);
//! // The count run reused the Boolean run's structural analysis.
//! assert_eq!(engine.cache_stats().misses, 1);
//! ```

pub mod cache;
pub mod catalog;
pub mod delta;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod plan;
pub mod planner;
#[cfg(feature = "serde")]
pub mod server;
pub mod session;
pub mod store;
pub mod textio;
pub mod verify;

pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use catalog::{Catalog, DatabaseSnapshot};
pub use cqd2_cq::PassStats;
pub use delta::{apply_delta_text, DeltaOutcome, MaintenanceClass};
pub use engine::{Answer, Engine, EngineConfig, PlanProvenance, Request, Response, Workload};
pub use error::EngineError;
pub use metrics::{Counter, Gauge, Histogram, Phase, QueryTrace, Snapshot, Span};
pub use plan::{CostEstimate, DataEstimate, PlannedQuery, QueryPlan};
pub use planner::{PlannedStructure, Planner, PlannerConfig};
#[cfg(feature = "serde")]
pub use server::{Server, ServerConfig, ServerError, ServerHandle, ServerStats};
pub use session::{AnswerCursor, PreparedQuery, Session};
pub use store::{SnapshotFile, SnapshotSummary, StoreError};
pub use textio::ParseError;
pub use verify::{verify_planned, VerifiedPlan, VerifyReport};
