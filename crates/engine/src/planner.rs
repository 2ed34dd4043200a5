//! The structure-aware planner.
//!
//! Planning is pure structural analysis — no database is consulted — so
//! its (potentially exponential-in-structure) cost is paid once per
//! *isomorphism class* and amortized by the plan cache. The planner runs
//! the paper's classification machinery:
//!
//! 1. exact ghw + optimal GHD when the instance is small enough
//!    (`cqd2_decomp::widths::ghw_decomposition`);
//! 2. otherwise certified-valid heuristic GHDs (min-fill elimination and
//!    the Lemma 4.6 dual route, whichever is narrower);
//! 3. for degree-2 structures of non-trivial width, the Theorem 4.7
//!    jigsaw extraction, which certifies membership in the hard regime.

use std::time::{Duration, Instant};

use cqd2_decomp::dual_bound::ghd_via_dual;
use cqd2_decomp::elimination::{min_fill_order, order_to_td};
use cqd2_decomp::widths::{ghw_decomposition, primal_graph};
use cqd2_decomp::Ghd;
use cqd2_dilution::DilutionSequence;
use cqd2_hypergraph::Hypergraph;
use cqd2_jigsaw::extract_jigsaw;

use crate::plan::{CostEstimate, PlannedQuery, QueryPlan};

/// Planner knobs. The defaults suit interactive serving; tests and
/// experiments tighten them to force specific regimes.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Run the exact ghw DP only up to this many vertices. The DP's
    /// hard cap is 26 (`cqd2_decomp::exact::MAX_EXACT_VERTICES`), but
    /// its `2^n` state space makes the low twenties already cost
    /// minutes — far too slow for a planner — so serving defaults to a
    /// budget where planning stays in the low milliseconds.
    pub exact_vertex_cap: usize,
    /// Beyond the exact budget, fall back to certified heuristic GHDs
    /// (min-fill / dual-route). When `false`, large structures plan as
    /// naive joins, which run on the one-bag GHD.
    pub use_heuristic_ghd: bool,
    /// Largest jigsaw dimension the Theorem 4.7 extraction searches for.
    /// `0` disables jigsaw certificates entirely.
    pub jigsaw_max_n: usize,
    /// Node budget for the grid-minor search inside the extraction.
    pub jigsaw_budget: u64,
    /// Only attempt the (expensive) jigsaw extraction when the best GHD
    /// width is at least this; below it the structure is cheap anyway.
    pub jigsaw_min_width: usize,
    /// Width at which a jigsaw certificate flips the plan into the hard
    /// regime ([`crate::plan::QueryPlan::JigsawReduce`]); narrower
    /// structures keep their GHD plan and carry the certificate as a
    /// note only.
    pub hard_regime_width: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            exact_vertex_cap: 18,
            use_heuristic_ghd: true,
            // 5 matches the pre-engine facade's extraction cap, so
            // `cqd2::analyze` reports the same certificates it always did.
            jigsaw_max_n: 5,
            jigsaw_budget: 2_000_000,
            jigsaw_min_width: 2,
            hard_regime_width: 3,
        }
    }
}

/// Everything the planner learned about one structure (isomorphism
/// class). This is the value the plan cache stores; per-request
/// [`PlannedQuery`]s are derived from it cheaply.
#[derive(Debug, Clone)]
pub struct PlannedStructure {
    /// The best GHD found, if any (optimal when `ghd_exact`).
    pub ghd: Option<Ghd>,
    /// Whether `ghd` has optimal width (exact DP) or is heuristic.
    pub ghd_exact: bool,
    /// Theorem 4.7 certificate: dilution sequence to the `n × n` jigsaw.
    pub jigsaw: Option<(DilutionSequence, usize)>,
    /// Whether the certificate places the structure in the hard regime
    /// (width at or above the planner's `hard_regime_width`), which is
    /// when plans surface it as [`QueryPlan::JigsawReduce`].
    pub hard_regime: bool,
    /// Number of hypergraph edges (= distinct atom variable-sets): the
    /// naive join's data exponent.
    pub num_edges: usize,
    /// Planning notes, carried into every derived plan.
    pub notes: Vec<String>,
    /// Wall-clock spent planning this structure.
    pub planning_time: Duration,
}

impl PlannedStructure {
    /// The width of the best GHD, if one exists.
    pub fn width(&self) -> Option<usize> {
        self.ghd.as_ref().map(Ghd::width)
    }

    /// Derive the Boolean-evaluation plan (structure only).
    pub fn bool_plan(&self) -> PlannedQuery {
        self.derive_plan(false)
    }

    /// Derive the counting plan (structure only).
    pub fn count_plan(&self) -> PlannedQuery {
        self.derive_plan(true)
    }

    fn derive_plan(&self, counting: bool) -> PlannedQuery {
        let naive_exponent = self.num_edges.max(1) as f64;
        let mut notes = self.notes.clone();
        // Hard regime certified: report the jigsaw plan. Evaluation still
        // uses the best GHD when one exists (the certificate talks about
        // the whole structure class, not about skipping a usable
        // decomposition).
        if let Some((sequence, n)) = self.jigsaw.as_ref().filter(|_| self.hard_regime) {
            let exponent = self.width().map_or(naive_exponent, |w| w as f64);
            notes.push(match &self.ghd {
                Some(g) => format!(
                    "hard regime (jigsaw n={n}); evaluating via width-{} ghd",
                    g.width()
                ),
                None => format!("hard regime (jigsaw n={n}); evaluating naively"),
            });
            return PlannedQuery {
                plan: QueryPlan::JigsawReduce {
                    sequence: sequence.clone(),
                    n: *n,
                },
                cost: CostEstimate {
                    db_exponent: exponent,
                    planning_units: sequence.ops.len() as f64,
                    data: None,
                },
                notes,
            };
        }
        match &self.ghd {
            Some(ghd) if (ghd.width() as f64) < naive_exponent => {
                let width = ghd.width();
                let cost = CostEstimate {
                    db_exponent: width.max(1) as f64,
                    planning_units: ghd.td.bags.len() as f64,
                    data: None,
                };
                let plan = if counting {
                    QueryPlan::CountingDp { ghd: ghd.clone() }
                } else {
                    QueryPlan::GhdYannakakis {
                        ghd: ghd.clone(),
                        width,
                    }
                };
                PlannedQuery { plan, cost, notes }
            }
            Some(ghd) => {
                notes.push(format!(
                    "ghd width {} ≥ atom count {}; naive join is no worse",
                    ghd.width(),
                    self.num_edges
                ));
                PlannedQuery {
                    plan: QueryPlan::NaiveJoin,
                    cost: CostEstimate {
                        db_exponent: naive_exponent,
                        planning_units: 0.0,
                        data: None,
                    },
                    notes,
                }
            }
            None => PlannedQuery {
                plan: QueryPlan::NaiveJoin,
                cost: CostEstimate {
                    db_exponent: naive_exponent,
                    planning_units: 0.0,
                    data: None,
                },
                notes,
            },
        }
    }
}

/// The planner: runs structural analysis once per structure.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    /// Configuration knobs.
    pub config: PlannerConfig,
}

impl Planner {
    /// A planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Planner {
        Planner { config }
    }

    /// Analyze one structure (the expensive, cache-amortized step).
    pub fn plan_structure(&self, h: &Hypergraph) -> PlannedStructure {
        let start = Instant::now();
        let mut notes = Vec::new();
        let num_edges = h.num_edges();

        if num_edges == 0 || h.num_vertices() == 0 {
            notes.push("trivial structure (no variables or no atoms)".to_string());
            return PlannedStructure {
                ghd: None,
                ghd_exact: false,
                jigsaw: None,
                hard_regime: false,
                num_edges,
                notes,
                planning_time: start.elapsed(),
            };
        }

        // 1. Exact decomposition when it fits the planning budget.
        // Every stored GHD is normalized: a bag contained in a
        // neighbour would only add a projection and a tree node.
        let exact = if h.num_vertices() <= self.config.exact_vertex_cap {
            ghw_decomposition(h).map(Ghd::drop_contained_bags)
        } else {
            None
        };
        let (ghd, ghd_exact) = match exact {
            Some(g) => {
                notes.push(format!("exact ghw = {}", g.width()));
                (Some(g), true)
            }
            None if self.config.use_heuristic_ghd => {
                let g = self.heuristic_ghd(h).drop_contained_bags();
                notes.push(format!(
                    "exact ghw over budget ({} vertices > cap {}); heuristic ghd width {}",
                    h.num_vertices(),
                    self.config.exact_vertex_cap,
                    g.width()
                ));
                (Some(g), false)
            }
            None => {
                notes.push(format!(
                    "exact ghw over budget ({} vertices > cap {}); heuristics disabled",
                    h.num_vertices(),
                    self.config.exact_vertex_cap
                ));
                (None, false)
            }
        };

        // 2. Theorem 4.7 certificate for wide degree-2 structures.
        let width_for_gate = ghd.as_ref().map_or(usize::MAX, Ghd::width);
        // The extraction pipeline requires a connected host (its minor
        // machinery walks one component); disconnected structures skip
        // the certificate rather than risk a partial answer.
        let jigsaw = if self.config.jigsaw_max_n >= 2
            && h.max_degree() <= 2
            && width_for_gate >= self.config.jigsaw_min_width
            && h.is_connected()
        {
            match extract_jigsaw(h, self.config.jigsaw_max_n, self.config.jigsaw_budget) {
                Ok(Some(e)) => {
                    notes.push(format!(
                        "Theorem 4.7: dilutes to the {n}×{n} jigsaw ({} ops)",
                        e.sequence.ops.len(),
                        n = e.n
                    ));
                    Some((e.sequence, e.n))
                }
                Ok(None) => None,
                Err(err) => {
                    notes.push(format!("jigsaw extraction skipped: {err}"));
                    None
                }
            }
        } else {
            None
        };

        let hard_regime = jigsaw.is_some() && width_for_gate >= self.config.hard_regime_width;
        if jigsaw.is_some() && !hard_regime {
            notes.push(format!(
                "jigsaw certificate below hard-regime width {}; keeping the ghd plan",
                self.config.hard_regime_width
            ));
        }
        PlannedStructure {
            ghd,
            ghd_exact,
            jigsaw,
            hard_regime,
            num_edges,
            notes,
            planning_time: start.elapsed(),
        }
    }

    /// Certified-valid (but possibly suboptimal) GHD for structures
    /// beyond the exact cap: min-fill elimination vs the Lemma 4.6 dual
    /// route, whichever is narrower.
    fn heuristic_ghd(&self, h: &Hypergraph) -> Ghd {
        let g = primal_graph(h);
        let direct = Ghd::from_td_exact(h, order_to_td(&g, &min_fill_order(&g)));
        let via_dual = ghd_via_dual(h);
        if via_dual.width() < direct.width() {
            via_dual
        } else {
            direct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2_hypergraph::generators::{hyperchain, hypercycle, random_degree_bounded};
    use cqd2_jigsaw::jigsaw;

    #[test]
    fn acyclic_structures_get_width_one_yannakakis() {
        let planner = Planner::default();
        let s = planner.plan_structure(&hyperchain(5, 3));
        assert_eq!(s.width(), Some(1));
        assert!(s.ghd_exact);
        let plan = s.bool_plan();
        assert!(matches!(
            plan.plan,
            QueryPlan::GhdYannakakis { width: 1, .. }
        ));
        assert_eq!(plan.cost.db_exponent, 1.0);
        assert!(matches!(s.count_plan().plan, QueryPlan::CountingDp { .. }));
    }

    #[test]
    fn cycles_get_width_two() {
        let planner = Planner::default();
        let s = planner.plan_structure(&hypercycle(6, 2));
        assert_eq!(s.width(), Some(2));
        assert!(matches!(
            s.bool_plan().plan,
            QueryPlan::GhdYannakakis { width: 2, .. }
        ));
    }

    #[test]
    fn jigsaw_structures_get_hardness_certificates() {
        let planner = Planner::default();
        let s = planner.plan_structure(&jigsaw(3, 3));
        assert!(s.width().unwrap() >= 3);
        let (_, n) = s.jigsaw.as_ref().expect("3×3 jigsaw found in itself");
        assert_eq!(*n, 3);
        let plan = s.bool_plan();
        assert!(matches!(plan.plan, QueryPlan::JigsawReduce { n: 3, .. }));
        // Hard regime, but evaluation cost still reflects the stored GHD.
        assert!(plan.cost.db_exponent <= s.width().unwrap() as f64);
    }

    #[test]
    fn oversize_structures_without_heuristics_plan_naive() {
        let planner = Planner::new(PlannerConfig {
            use_heuristic_ghd: false,
            jigsaw_max_n: 0,
            ..PlannerConfig::default()
        });
        // > 26 vertices: beyond the exact-DP cap.
        let h = random_degree_bounded(30, 3, 3, 0.4, 7);
        assert!(
            h.num_vertices() > 26,
            "instance should exceed the exact cap"
        );
        let s = planner.plan_structure(&h);
        assert!(s.ghd.is_none());
        assert!(matches!(s.bool_plan().plan, QueryPlan::NaiveJoin));
    }

    #[test]
    fn oversize_structures_with_heuristics_get_valid_ghds() {
        let planner = Planner::default();
        let h = hypercycle(30, 2);
        let s = planner.plan_structure(&h);
        let ghd = s.ghd.as_ref().expect("heuristic ghd");
        ghd.validate(&h).unwrap();
        assert!(!s.ghd_exact);
    }

    #[test]
    fn trivial_structure_plans_naive() {
        let h = Hypergraph::new(0, &[]).unwrap();
        let s = Planner::default().plan_structure(&h);
        assert!(matches!(s.bool_plan().plan, QueryPlan::NaiveJoin));
    }
}
