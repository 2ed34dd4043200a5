//! The serving engine: plan-once, execute-many.
//!
//! [`Engine`] ties the planner and plan cache together behind one
//! one-shot door: [`Engine::serve`] answers a [`Request`] — decide a
//! Boolean CQ, count answers of a full CQ, or enumerate answer tuples,
//! as its [`Workload`] says — and [`Engine::execute_batch`] fans a slice
//! of requests out over scoped worker threads. Every response carries
//! [`PlanProvenance`] so callers can see which regime of the paper their
//! query landed in and whether planning was amortized.
//!
//! The primary serving surface is the handle-based API in
//! [`crate::session`]: [`Engine::session`] pins a database snapshot,
//! `Session::prepare` resolves a query's plan and materializes its bag
//! tree once, and `PreparedQuery::run` re-executes at zero planning
//! cost. [`Engine::serve`] runs the same prepared state once against
//! the borrowed database.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cqd2_cq::stats::DatabaseStats;
use cqd2_cq::{ConjunctiveQuery, Database, PassStats};

use crate::cache::{CacheStats, PlanCache};
use crate::error::EngineError;
use crate::plan::{DataEstimate, PlannedQuery};
use crate::planner::{Planner, PlannerConfig};
use crate::session::PreparedCore;

/// The process-wide shared engine (see [`Engine::shared`] and
/// [`Engine::shared_with_config`]).
static SHARED: OnceLock<Engine> = OnceLock::new();

/// Engine-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Planner knobs (see [`PlannerConfig`]).
    pub planner: PlannerConfig,
    /// Maximum structures the plan cache holds (0 = unbounded).
    pub cache_capacity: usize,
    /// Worker threads for [`Engine::execute_batch`]; 0 means "use
    /// available parallelism".
    pub workers: usize,
    /// Verify every derived plan against the paper's structural
    /// invariants at prepare time (see [`crate::verify`]): a planner
    /// bug then surfaces as a typed [`crate::EngineError::Verify`]
    /// instead of a silently wrong answer. The check runs once per
    /// prepared plan — never per run — so warm serving cost is
    /// unchanged. Defaults to the `CQD2_STRICT_VERIFY` environment
    /// variable (`1` / `true` enables).
    pub strict_verify: bool,
}

impl EngineConfig {
    /// Whether `CQD2_STRICT_VERIFY` asks for strict plan verification.
    pub fn strict_verify_from_env() -> bool {
        std::env::var("CQD2_STRICT_VERIFY")
            .map(|v| {
                let v = v.trim();
                v == "1" || v.eq_ignore_ascii_case("true")
            })
            .unwrap_or(false)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            planner: PlannerConfig::default(),
            cache_capacity: 10_000,
            workers: 0,
            strict_verify: EngineConfig::strict_verify_from_env(),
        }
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Decide `q(D) ≠ ∅`.
    Boolean,
    /// Count `|q(D)|` (full-CQ semantics, as everywhere in this repo).
    Count,
    /// Produce answer tuples, at most `limit` of them (`None` = all).
    /// Served by the semijoin-reduce-then-stream enumerator on GHD
    /// plans; [`crate::PreparedQuery::cursor`] exposes the stream itself
    /// instead of a materialized [`Answer::Tuples`].
    Enumerate {
        /// Cap on the number of answers produced (`None` = all).
        limit: Option<usize>,
    },
}

impl Workload {
    /// Stable lowercase name of the workload (matching the `@…` text
    /// directives), used in trace-span annotations and stats output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Boolean => "boolean",
            Workload::Count => "count",
            Workload::Enumerate { .. } => "enumerate",
        }
    }
}

/// One unit of batch work: a query against a database. Databases are
/// borrowed, so many requests can share one database without copies.
#[derive(Clone, Copy)]
pub struct Request<'a> {
    /// The query to evaluate.
    pub query: &'a ConjunctiveQuery,
    /// The database to evaluate against.
    pub db: &'a Database,
    /// Boolean evaluation or counting.
    pub workload: Workload,
}

/// The result payload of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Answer {
    /// Boolean result.
    Bool(bool),
    /// Answer count.
    Count(u128),
    /// Answer tuples (full assignments in `Var` id order), as produced
    /// by a [`Workload::Enumerate`] request. Order is unspecified.
    Tuples(Vec<Vec<u64>>),
}

impl Answer {
    /// The Boolean result, if this was a [`Workload::Boolean`] request.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Answer::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The count, if this was a [`Workload::Count`] request.
    pub fn as_count(&self) -> Option<u128> {
        match self {
            Answer::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The tuples, if this was a [`Workload::Enumerate`] request.
    pub fn as_tuples(&self) -> Option<&[Vec<u64>]> {
        match self {
            Answer::Tuples(t) => Some(t),
            _ => None,
        }
    }

    /// Consume the answer into its tuples, if it has any.
    pub fn into_tuples(self) -> Option<Vec<Vec<u64>>> {
        match self {
            Answer::Tuples(t) => Some(t),
            _ => None,
        }
    }
}

/// Where a response's plan came from and what it cost.
#[derive(Debug, Clone)]
pub struct PlanProvenance {
    /// The plan that was executed (with cost estimate and notes),
    /// shared with the prepared state it came from.
    pub planned: Arc<PlannedQuery>,
    /// Whether the structure analysis came from the cache.
    pub cache_hit: bool,
    /// Time spent planning (≈ 0 on cache hits).
    pub planning: Duration,
    /// Time spent executing the plan against the database.
    pub execution: Duration,
    /// Sparsity of the bag tree's reduction: how many nodes it had to
    /// filter. The reduction runs once per tree, so every run of a
    /// handle reports
    /// the same value. `rewritten = 0` means no semijoin dropped a row —
    /// join-consistent data — and is what every count run reports (the
    /// counting DP never rewrites a bag). One-shot calls report it too —
    /// same pass, over a tree they just built.
    pub bags: PassStats,
    /// How this handle crossed the most recent delta epoch, if it was
    /// maintained rather than freshly prepared: `warm-overlay`, the bag
    /// tree refreshed in place ([`crate::PreparedQuery::rebase`]).
    /// `None` on handles that never crossed a delta.
    pub maintenance: Option<crate::delta::MaintenanceClass>,
}

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct Response {
    /// The answer.
    pub answer: Answer,
    /// How it was produced.
    pub provenance: PlanProvenance,
}

/// The serving engine. A cheap-clone handle: the planner, plan cache,
/// and configuration live behind one `Arc`, so clones share the cache
/// and every clone is `Send + Sync + 'static`. That is what lets
/// [`crate::Session`] and [`crate::PreparedQuery`] own their engine
/// reference instead of borrowing it — the owned, lifetime-free serving
/// handles the hot-reload [`crate::Catalog`] path requires. The plan
/// cache sits behind a mutex and is the only shared mutable state.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

struct EngineInner {
    planner: Planner,
    cache: Mutex<PlanCache>,
    config: EngineConfig,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                planner: Planner::new(config.planner.clone()),
                cache: Mutex::new(PlanCache::new(config.cache_capacity)),
                config,
            }),
        }
    }

    /// The process-wide shared engine (used by the `cqd2` facade so
    /// plan caching spans independent calls). Initialized with
    /// [`EngineConfig::default`] on first use — call
    /// [`Engine::shared_with_config`] *before* anything touches the
    /// shared engine to tune it.
    pub fn shared() -> &'static Engine {
        SHARED.get_or_init(Engine::default)
    }

    /// First-use initializer for the process-wide shared engine: if no
    /// caller has touched [`Engine::shared`] yet, the shared engine is
    /// built with `config` and returned. If the shared engine already
    /// exists (someone called `shared()` first, or another thread won
    /// the initialization race — `OnceLock` guarantees exactly one
    /// winner), the configuration is **not** applied and
    /// [`EngineError::SharedEngineInitialized`] is returned so the
    /// caller knows its knobs were ignored instead of silently serving
    /// with defaults.
    pub fn shared_with_config(config: EngineConfig) -> Result<&'static Engine, EngineError> {
        let mut applied = false;
        let engine = SHARED.get_or_init(|| {
            applied = true;
            Engine::new(config)
        });
        if applied {
            Ok(engine)
        } else {
            Err(EngineError::SharedEngineInitialized)
        }
    }

    /// The (cached) structural analysis for a hypergraph, translated
    /// into its coordinates, plus whether the cache answered.
    pub fn structure_for(
        &self,
        h: &cqd2_hypergraph::Hypergraph,
    ) -> (crate::planner::PlannedStructure, bool) {
        let mut cache = cqd2_cq::sync::lock_or_poison(&self.inner.cache);
        if let Some(hit) = cache.lookup(h) {
            // Rebuild the analysis around the *translated* GHD.
            let mut structure = (*hit.structure).clone();
            structure.ghd = hit.ghd;
            return (structure, true);
        }
        // Miss: plan while holding the lock so concurrent workers do not
        // duplicate the expensive analysis of one structure class. The
        // batch executor's parallelism comes from execution, which
        // dominates planning for warm workloads.
        let structure = self.inner.planner.plan_structure(h);
        let stored = cache.insert(h, structure);
        ((*stored).clone(), false)
    }

    /// Plan `q` (from cache when its structure class is known) without
    /// executing anything. Structure-only: no database is consulted (see
    /// [`Engine::plan_with_db`] for the same plan with a data estimate
    /// attached).
    pub fn plan(&self, q: &ConjunctiveQuery, workload: Workload) -> (PlannedQuery, bool, Duration) {
        let start = Instant::now();
        let (structure, cache_hit) = self.structure_for(&q.hypergraph());
        let planned = match workload {
            Workload::Boolean | Workload::Enumerate { .. } => structure.bool_plan(),
            Workload::Count => structure.count_plan(),
        };
        (planned, cache_hit, start.elapsed())
    }

    /// Plan `q` against a concrete database: the cached structural
    /// plan, with a [`DataEstimate`] from the database's statistics
    /// `stats` attached (`explain()` prints it as its `stats:` line).
    /// The caller collects `stats` once (`Database::stats`, or a pinned
    /// [`crate::Session::stats`]) and passes it to every query it
    /// explains. The estimate informs; it does not change the strategy,
    /// which is the structure's. This is the explain path and the only
    /// place an estimate is computed: serving ([`Engine::serve`],
    /// prepared handles) runs the structural plan and never scans
    /// statistics.
    pub fn plan_with_db(
        &self,
        q: &ConjunctiveQuery,
        stats: &DatabaseStats,
        workload: Workload,
    ) -> (PlannedQuery, bool, Duration) {
        let start = Instant::now();
        let (structure, cache_hit) = self.structure_for(&q.hypergraph());
        let mut planned = match workload {
            Workload::Boolean | Workload::Enumerate { .. } => structure.bool_plan(),
            Workload::Count => structure.count_plan(),
        };
        planned.cost.data = Some(DataEstimate::compute(q, structure.ghd.as_ref(), stats));
        (planned, cache_hit, start.elapsed())
    }

    /// Serve one request: prepare the query against the borrowed
    /// `req.db` and run it once — the same `build → first pass` route as
    /// [`crate::Session::prepare`] + [`crate::PreparedQuery::run`], with
    /// no snapshot cloned or pinned. Provenance reports the planning
    /// and — inside `execution` — the preprocessing this call paid.
    /// Callers serving many requests against one database should hold a
    /// [`Engine::session`] and re-run [`crate::PreparedQuery`] handles
    /// instead — that is where the planning amortization lives.
    pub fn serve(&self, req: &Request<'_>) -> Response {
        PreparedCore::one_shot(self, req.query, req.db, req.workload)
            // cqd2-lint: allow(panic-in-hot-path, reason = "infallible shim API: prepare on a query's own plan only fails on an engine bug; Session::prepare is the fallible surface")
            .expect("prepared plan is valid for its own query")
    }

    /// Evaluate a batch of requests on scoped worker threads, returning
    /// one response per request, in request order.
    ///
    /// Work distribution is a shared atomic cursor (requests vary wildly
    /// in cost, so static chunking would straggle); results land in
    /// per-slot cells, so no ordering pass is needed.
    pub fn execute_batch(&self, requests: &[Request<'_>]) -> Vec<Response> {
        let n = requests.len();
        let workers = self.effective_workers().min(n);
        cqd2_cq::par::scoped_map(n, workers, |i| self.serve(&requests[i]))
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        cqd2_cq::sync::lock_or_poison(&self.inner.cache).stats()
    }

    /// Clone out every cached structure class as `(representative,
    /// analysis)` pairs (see [`PlanCache::export`]). This is the plan
    /// store's spill surface; hit/miss counters are untouched.
    pub fn export_plans(
        &self,
    ) -> Vec<(
        cqd2_hypergraph::Hypergraph,
        crate::planner::PlannedStructure,
    )> {
        cqd2_cq::sync::lock_or_poison(&self.inner.cache).export()
    }

    /// Seed the plan cache with a previously exported analysis, keyed by
    /// its representative hypergraph. Returns `false` (and stores
    /// nothing) when the structure class is already cached — preloading
    /// never evicts or duplicates live entries, and bumps no hit/miss
    /// counters.
    pub fn preload_plan(
        &self,
        representative: &cqd2_hypergraph::Hypergraph,
        structure: crate::planner::PlannedStructure,
    ) -> bool {
        let mut cache = cqd2_cq::sync::lock_or_poison(&self.inner.cache);
        if cache.contains(representative) {
            return false;
        }
        cache.insert(representative, structure);
        true
    }

    /// Whether this engine verifies plans at prepare time (see
    /// [`EngineConfig::strict_verify`]).
    pub fn strict_verify(&self) -> bool {
        self.inner.config.strict_verify
    }

    fn effective_workers(&self) -> usize {
        if self.inner.config.workers > 0 {
            self.inner.config.workers
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2_cq::eval::{bcq_naive, count_naive, enumerate_naive};
    use cqd2_cq::generate::{canonical_query, planted_database, random_database};
    use cqd2_hypergraph::generators::{hyperchain, hypercycle};

    #[test]
    fn engine_matches_naive_on_mixed_batch() {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        let queries: Vec<_> = (0..6)
            .map(|i| {
                let h = if i % 2 == 0 {
                    hyperchain(3, 2)
                } else {
                    hypercycle(4, 2)
                };
                canonical_query(&h)
            })
            .collect();
        let dbs: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if i % 3 == 0 {
                    planted_database(q, 6, 12, i as u64)
                } else {
                    random_database(q, 5, 10, i as u64)
                }
            })
            .collect();
        let requests: Vec<Request<'_>> = queries
            .iter()
            .zip(&dbs)
            .enumerate()
            .map(|(i, (query, db))| Request {
                query,
                db,
                workload: match i % 3 {
                    0 => Workload::Boolean,
                    1 => Workload::Count,
                    _ => Workload::Enumerate { limit: None },
                },
            })
            .collect();
        let responses = engine.execute_batch(&requests);
        assert_eq!(responses.len(), requests.len());
        for (req, resp) in requests.iter().zip(&responses) {
            match req.workload {
                Workload::Boolean => {
                    assert_eq!(resp.answer, Answer::Bool(bcq_naive(req.query, req.db)));
                }
                Workload::Count => {
                    assert_eq!(resp.answer, Answer::Count(count_naive(req.query, req.db)));
                }
                Workload::Enumerate { .. } => {
                    let mut got = resp.answer.as_tuples().expect("tuples").to_vec();
                    got.sort_unstable();
                    assert_eq!(got, enumerate_naive(req.query, req.db));
                }
            }
        }
    }

    #[test]
    fn repeated_structures_amortize_planning() {
        let engine = Engine::default();
        let q = canonical_query(&hypercycle(5, 2));
        let db = random_database(&q, 4, 8, 1);
        let req = Request {
            query: &q,
            db: &db,
            workload: Workload::Boolean,
        };
        for _ in 0..5 {
            engine.serve(&req);
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(Engine::default().execute_batch(&[]).is_empty());
    }

    #[test]
    fn shared_engine_configuration_is_first_use_only() {
        // Touch the shared engine first: any later configuration attempt
        // must be rejected loudly instead of silently ignored.
        let shared = Engine::shared();
        let Err(err) = Engine::shared_with_config(EngineConfig::default()) else {
            panic!("configuration after first use must be rejected");
        };
        assert_eq!(err, crate::error::EngineError::SharedEngineInitialized);
        // The shared engine itself keeps working.
        let q = canonical_query(&hyperchain(3, 2));
        let db = random_database(&q, 4, 8, 5);
        let req = Request {
            query: &q,
            db: &db,
            workload: Workload::Boolean,
        };
        assert_eq!(shared.serve(&req).answer, Answer::Bool(bcq_naive(&q, &db)));
    }

    #[test]
    fn serve_enumerate_matches_naive() {
        let engine = Engine::default();
        let q = canonical_query(&hyperchain(3, 2));
        let db = planted_database(&q, 6, 18, 8);
        let tuples = |limit| {
            let req = Request {
                query: &q,
                db: &db,
                workload: Workload::Enumerate { limit },
            };
            engine.serve(&req).answer.into_tuples().expect("tuples")
        };
        let mut got = tuples(None);
        got.sort_unstable();
        assert_eq!(got, enumerate_naive(&q, &db));
        assert_eq!(tuples(Some(1)).len(), 1.min(got.len()));
    }

    #[test]
    fn provenance_reports_strategy_and_cache_state() {
        let engine = Engine::default();
        let q = canonical_query(&hyperchain(4, 2));
        let db = random_database(&q, 4, 8, 2);
        let req = Request {
            query: &q,
            db: &db,
            workload: Workload::Boolean,
        };
        let first = engine.serve(&req);
        assert!(!first.provenance.cache_hit);
        assert_eq!(first.provenance.planned.plan.strategy(), "ghd-yannakakis");
        let second = engine.serve(&req);
        assert!(second.provenance.cache_hit);
        assert_eq!(first.answer, second.answer);
    }
}
