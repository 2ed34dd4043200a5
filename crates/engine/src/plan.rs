//! Query plans: what the planner decided and why.
//!
//! A [`QueryPlan`] names the evaluation strategy the paper's dichotomies
//! single out for a query's structure; a [`CostEstimate`] makes the
//! choice explainable and lets callers predict scaling before touching a
//! database. On the explain path ([`crate::Engine::plan_with_db`]) a
//! [`DataEstimate`] (computed from [`cqd2_cq::stats::DatabaseStats`])
//! adds estimated intermediate cardinalities to the explanation; serving
//! never computes one.

use cqd2_cq::stats::{estimate_join_rows, estimate_naive_cost, DatabaseStats};
use cqd2_cq::{Atom, ConjunctiveQuery};
use cqd2_decomp::Ghd;
use cqd2_dilution::DilutionSequence;

/// The evaluation strategy chosen for one query structure.
///
/// Variants correspond to the algorithmic regimes the paper separates:
///
/// - [`QueryPlan::NaiveJoin`] — no GHD narrower than the atom count;
///   runs on the one-bag GHD ([`Ghd::trivial`]), whose bag is the full
///   join (exponential in query size).
/// - [`QueryPlan::GhdYannakakis`] — Prop. 2.2: bag materialization plus a
///   Yannakakis semijoin pass over a GHD; `O(‖D‖^width)`.
/// - [`QueryPlan::CountingDp`] — Prop. 4.14: the junction-tree counting
///   DP over a GHD, for full-CQ answer counting without enumeration.
/// - [`QueryPlan::JigsawReduce`] — Theorem 4.7 evidence of hardness: a
///   verified dilution sequence to an `n × n` jigsaw. Evaluation runs on
///   the best GHD the structure analysis found (the one-bag GHD when it
///   found none); the plan certifies *why* no bounded-width strategy
///   exists for this structure class.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum QueryPlan {
    /// No GHD narrower than the atom count; runs on the one-bag GHD.
    NaiveJoin,
    /// GHD-guided Boolean evaluation (Prop. 2.2).
    GhdYannakakis {
        /// The decomposition driving bag materialization and semijoins.
        ghd: Ghd,
        /// Its width (`max_u |λ_u|`), the exponent of the data cost.
        width: usize,
    },
    /// GHD-guided counting DP (Prop. 4.14).
    CountingDp {
        /// The decomposition driving the junction-tree DP.
        ghd: Ghd,
    },
    /// Theorem 4.7 hardness certificate: the structure dilutes to the
    /// `n × n` jigsaw, so ghw grows with `n` across the whole
    /// isomorphism class; evaluation uses the structure's best GHD.
    JigsawReduce {
        /// The verified dilution sequence (in the coordinates of the
        /// plan-cache representative of this structure class).
        sequence: DilutionSequence,
        /// Dimension of the jigsaw reached.
        n: usize,
    },
}

impl QueryPlan {
    /// Short strategy tag for logs and provenance.
    pub fn strategy(&self) -> &'static str {
        match self {
            QueryPlan::NaiveJoin => "naive-join",
            QueryPlan::GhdYannakakis { .. } => "ghd-yannakakis",
            QueryPlan::CountingDp { .. } => "counting-dp",
            QueryPlan::JigsawReduce { .. } => "jigsaw-reduce",
        }
    }

    /// The GHD the plan carries, if any.
    pub fn ghd(&self) -> Option<&Ghd> {
        match self {
            QueryPlan::GhdYannakakis { ghd, .. } | QueryPlan::CountingDp { ghd } => Some(ghd),
            _ => None,
        }
    }
}

/// Data-dependent cost estimates, derived from [`DatabaseStats`] for one
/// `(query, database)` pair.
///
/// Units are "tuple touches": the naive side is the product of atom
/// cardinalities (what a join with no pruning can visit); the GHD side
/// sums, per bag, a fixed per-bag setup charge
/// ([`DataEstimate::BAG_SETUP_COST`], modelling hash-table builds and
/// buffer allocation), the bag's input cardinality, and the
/// selectivity-estimated cardinality of the materialized bag join. The
/// estimate explains a plan (`explain()`'s `stats:` line); it does not
/// choose one.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DataEstimate {
    /// Total tuples in the database (`‖D‖` up to constant factors).
    pub db_tuples: usize,
    /// Estimated cost of the naive backtracking join.
    pub naive_cost: f64,
    /// Estimated cost of the GHD route (bag materialization), when the
    /// structure has a GHD whose cover edges all map to query atoms.
    pub ghd_cost: Option<f64>,
    /// Largest estimated materialized-bag cardinality (the intermediate
    /// the GHD route actually builds).
    pub max_bag_rows: Option<f64>,
}

impl DataEstimate {
    /// Fixed per-bag charge (in tuple-touch units) for hash-table builds,
    /// projections, and buffer setup during bag materialization.
    pub const BAG_SETUP_COST: f64 = 64.0;

    /// Estimate costs for evaluating `q` with the given (optional) GHD
    /// against a database summarized by `stats`.
    pub fn compute(q: &ConjunctiveQuery, ghd: Option<&Ghd>, stats: &DatabaseStats) -> DataEstimate {
        let naive_cost = estimate_naive_cost(q.atoms.iter(), stats);
        let mut ghd_cost = None;
        let mut max_bag_rows = None;
        if let Some(g) = ghd {
            // The same edge → representative-atom mapping the evaluator's
            // bag materialization uses, so estimates cost exactly the
            // relations that will be joined.
            let edge_atom = q.edge_representatives(&q.hypergraph());
            let mut total = 0.0f64;
            let mut max_rows = 0.0f64;
            let mut resolvable = true;
            for cover in &g.covers {
                let atoms: Vec<&Atom> = cover
                    .iter()
                    .filter_map(|e| edge_atom.get(e.idx()).copied().flatten())
                    .map(|ai| &q.atoms[ai])
                    .collect();
                if atoms.len() != cover.len() {
                    resolvable = false;
                    break;
                }
                let input: f64 = atoms
                    .iter()
                    .map(|a| {
                        stats
                            .relation(&a.relation)
                            .map_or(0.0, |r| r.cardinality as f64)
                    })
                    .sum();
                let rows = estimate_join_rows(atoms.iter().copied(), stats);
                max_rows = max_rows.max(rows);
                total += Self::BAG_SETUP_COST + input + rows;
            }
            if resolvable {
                ghd_cost = Some(total);
                max_bag_rows = Some(max_rows);
            }
        }
        DataEstimate {
            db_tuples: stats.total_tuples(),
            naive_cost,
            ghd_cost,
            max_bag_rows,
        }
    }
}

/// A coarse, explainable cost model: evaluation cost is taken to be
/// `setup + db_size ^ exponent` up to constants. Good enough to rank
/// strategies and to explain the ranking. On a plan from
/// [`crate::Engine::plan_with_db`], [`CostEstimate::data`] carries the
/// estimated intermediate cardinalities; they do not change the
/// strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CostEstimate {
    /// Exponent of the dominant `‖D‖^k` term (GHD width, or atom count
    /// for the naive join).
    pub db_exponent: f64,
    /// Structure-only setup cost already paid at planning time, in
    /// arbitrary units (decomposition / extraction work).
    pub planning_units: f64,
    /// Data-dependent estimates (present only on plans from
    /// [`crate::Engine::plan_with_db`]).
    pub data: Option<DataEstimate>,
}

impl CostEstimate {
    /// Predicted evaluation cost (arbitrary units) at a database size.
    pub fn predict(&self, db_size: usize) -> f64 {
        (db_size.max(2) as f64).powf(self.db_exponent)
    }
}

/// A plan plus the planner's reasoning — the object the plan cache
/// stores (per structure class) and provenance reports carry.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannedQuery {
    /// The chosen strategy for Boolean evaluation.
    pub plan: QueryPlan,
    /// Cost estimate for the chosen strategy.
    pub cost: CostEstimate,
    /// Human-readable planning notes ("acyclic, ghw = 1", "exact ghw
    /// unavailable above 26 vertices", …).
    pub notes: Vec<String>,
}

impl PlannedQuery {
    /// Multi-line explanation of the decision, for CLIs and logs.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "strategy: {} (cost ≈ ‖D‖^{:.1})",
            self.plan.strategy(),
            self.cost.db_exponent
        );
        if let Some(est) = &self.cost.data {
            out.push_str(&format!(
                "\n  stats: ‖D‖ = {} tuples; est. naive ≈ {:.0} tuple-touches",
                est.db_tuples, est.naive_cost
            ));
            if let Some(g) = est.ghd_cost {
                out.push_str(&format!(", ghd ≈ {g:.0}"));
            }
            if let Some(m) = est.max_bag_rows {
                out.push_str(&format!(", largest bag ≈ {m:.0} rows"));
            }
        }
        match &self.plan {
            QueryPlan::GhdYannakakis { width, ghd } => {
                out.push_str(&format!(
                    "\n  ghd: width {width}, {} bags",
                    ghd.td.bags.len()
                ));
            }
            QueryPlan::CountingDp { ghd } => {
                out.push_str(&format!(
                    "\n  ghd: width {}, {} bags",
                    ghd.width(),
                    ghd.td.bags.len()
                ));
            }
            QueryPlan::JigsawReduce { sequence, n } => {
                out.push_str(&format!(
                    "\n  hardness certificate: dilutes to the {n}×{n} jigsaw in {} ops (Theorem 4.7)",
                    sequence.ops.len()
                ));
            }
            QueryPlan::NaiveJoin => {}
        }
        for note in &self.notes {
            out.push_str("\n  note: ");
            out.push_str(note);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_prediction_is_monotone_in_size_and_exponent() {
        let low = CostEstimate {
            db_exponent: 1.0,
            planning_units: 0.0,
            data: None,
        };
        let high = CostEstimate {
            db_exponent: 3.0,
            planning_units: 0.0,
            data: None,
        };
        assert!(low.predict(100) < low.predict(1000));
        assert!(low.predict(100) < high.predict(100));
    }

    #[test]
    fn data_estimate_crosses_over_with_database_size() {
        use cqd2_cq::generate::{canonical_query, random_database};
        use cqd2_decomp::widths::ghw_decomposition;
        use cqd2_hypergraph::generators::hypercycle;

        let q = canonical_query(&hypercycle(6, 2));
        let ghd = ghw_decomposition(&q.hypergraph()).expect("cycle decomposes");
        // Tiny database: per-bag setup charges dominate the GHD side.
        let small = random_database(&q, 3, 2, 1).stats();
        let est = DataEstimate::compute(&q, Some(&ghd), &small);
        assert!(est.naive_cost <= est.ghd_cost.unwrap(), "{est:?}");
        // Big database: the ‖D‖^6 naive product explodes.
        let big = random_database(&q, 500, 400, 2).stats();
        let est = DataEstimate::compute(&q, Some(&ghd), &big);
        assert!(est.naive_cost > est.ghd_cost.unwrap(), "{est:?}");
        assert!(est.max_bag_rows.is_some());
        // No GHD: no GHD side.
        let est = DataEstimate::compute(&q, None, &big);
        assert_eq!(est.ghd_cost, None);
    }

    #[test]
    fn explain_includes_data_estimates() {
        let planned = PlannedQuery {
            plan: QueryPlan::NaiveJoin,
            cost: CostEstimate {
                db_exponent: 2.0,
                planning_units: 0.0,
                data: Some(DataEstimate {
                    db_tuples: 12,
                    naive_cost: 36.0,
                    ghd_cost: Some(150.0),
                    max_bag_rows: Some(6.0),
                }),
            },
            notes: vec![],
        };
        let text = planned.explain();
        assert!(text.contains("12 tuples"), "{text}");
        assert!(text.contains("naive ≈ 36"), "{text}");
        assert!(text.contains("ghd ≈ 150"), "{text}");
    }

    #[test]
    fn strategy_tags_are_distinct() {
        let naive = QueryPlan::NaiveJoin;
        assert_eq!(naive.strategy(), "naive-join");
        assert!(naive.ghd().is_none());
    }
}
