//! # cqd2 — The Complexity of Conjunctive Queries with Degree 2
//!
//! A from-scratch Rust reproduction of Matthias Lanzinger's PODS 2022
//! paper. The facade re-exports all subsystem crates and provides a small
//! high-level API for the most common workflows:
//!
//! - [`analyze`]: structural analysis of a hypergraph — degree, rank,
//!   certified ghw interval, and (for degree-2 inputs) the jigsaw dilution
//!   extracted by the Theorem 4.7 pipeline.
//! - [`reduce_instance`]: the Theorem 3.4 fpt-reduction along a dilution
//!   sequence.
//!
//! Query evaluation — Boolean CQs, full-CQ answer counting and answer
//! enumeration — goes through [`engine::Engine`]: the query's structure
//! is classified once per isomorphism class (Props. 2.2 and 4.14,
//! Theorem 4.7), the decomposition is cached, and evaluation runs on
//! the plan's bag tree. A one-shot request is
//! [`engine::Engine::serve`]; a batch of `(query, db)` requests, with
//! worker parallelism and plan provenance, is
//! [`engine::Engine::execute_batch`]. Serving workloads should use the
//! handle-based API: open an [`engine::Session`] per database,
//! [`engine::Session::prepare`] each query (structure analysis, plan and
//! bag tree resolved once), then re-run the [`engine::PreparedQuery`] —
//! including streaming enumeration through
//! [`engine::PreparedQuery::cursor`]. The kernel itself is
//! [`cq::MaterializedBags::build`] along a GHD, then its `bcq`, `count`
//! or `enumerator` pass.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`hypergraph`] | hypergraph/graph ADTs, duals, reduced form, isomorphism, generators |
//! | [`decomp`] | tree decompositions, exact tw/ghw/fhw, GHDs, Lemma 4.6 dual bound |
//! | [`minors`] | minor maps, exact minor search, grid minors, expressive minors |
//! | [`dilution`] | Definition 3.1 operations, Lemma 3.6, Theorem 3.5 decision, Lemmas 4.4/B.1 |
//! | [`jigsaw`] | jigsaws, pre-jigsaws (Def. 5.1, Lemma D.4), Theorem 4.7 extraction |
//! | [`cq`] | conjunctive queries, databases, BCQ / #CQ evaluation, cores, semantic ghw |
//! | [`reduction`] | Theorem 3.4 / 4.15 instance reduction with parsimony verification |
//! | [`hyperbench`] | Table 1 corpus, census, recognizers, `.hg` parser |
//! | [`engine`] | serving layer: structure-aware planner, isomorphism-keyed plan cache, sessions / prepared queries, parallel batch executor, and (with the `serde` feature) the `cqd2-serve` socket front-end |

pub use cqd2_cq as cq;
pub use cqd2_decomp as decomp;
pub use cqd2_dilution as dilution;
pub use cqd2_engine as engine;
pub use cqd2_hyperbench as hyperbench;
pub use cqd2_hypergraph as hypergraph;
pub use cqd2_jigsaw as jigsaw;
pub use cqd2_minors as minors;
pub use cqd2_reduction as reduction;

use cqd2_hypergraph::Hypergraph;

/// Structural analysis of a hypergraph (the "what does the paper say about
/// this query structure?" entry point).
#[derive(Debug, Clone)]
pub struct StructureReport {
    /// Maximum vertex degree.
    pub degree: usize,
    /// Maximum edge size.
    pub rank: usize,
    /// Certified ghw interval `[lower, upper]`.
    pub ghw_lower: usize,
    /// Certified ghw interval `[lower, upper]`.
    pub ghw_upper: usize,
    /// For degree-2 inputs: the largest square jigsaw the Theorem 4.7
    /// pipeline extracted, with the verified dilution sequence length.
    pub jigsaw: Option<(usize, usize)>,
}

/// Analyze a hypergraph: certified ghw interval plus, for degree-2 inputs
/// of non-trivial width, a verified jigsaw dilution (Theorem 4.7).
///
/// Routed through the shared [`engine::Engine`], so the structural
/// analysis is cached and later evaluations of isomorphic query
/// structures reuse it.
pub fn analyze(h: &Hypergraph) -> StructureReport {
    let stats = cqd2_hyperbench::census::analyze(h);
    let (structure, _cache_hit) = cqd2_engine::Engine::shared().structure_for(h);
    StructureReport {
        degree: stats.degree,
        rank: stats.rank,
        ghw_lower: stats.ghw_lower,
        ghw_upper: stats.ghw_upper,
        jigsaw: structure
            .jigsaw
            .as_ref()
            .map(|(seq, n)| (*n, seq.ops.len())),
    }
}

/// Run the Theorem 3.4 reduction of an instance bound to the result of a
/// dilution sequence back to the sequence's start hypergraph.
pub fn reduce_instance(
    h: &Hypergraph,
    seq: &cqd2_dilution::DilutionSequence,
    instance: &cqd2_reduction::Instance,
) -> Result<cqd2_reduction::ReductionReport, cqd2_reduction::ReductionError> {
    cqd2_reduction::reduce_along(h, seq, instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2_cq::{ConjunctiveQuery, Database};
    use cqd2_engine::{Answer, Engine, Request, Workload};
    use cqd2_hypergraph::generators::{hyperchain, hypercycle};

    #[test]
    fn analyze_chain() {
        let r = analyze(&hyperchain(4, 3));
        assert_eq!(r.degree, 2);
        assert_eq!((r.ghw_lower, r.ghw_upper), (1, 1));
        assert!(r.jigsaw.is_none());
    }

    #[test]
    fn analyze_jigsaw() {
        let j = cqd2_jigsaw::jigsaw(3, 3);
        let r = analyze(&j);
        assert_eq!(r.degree, 2);
        assert!(r.ghw_lower >= 3);
        let (n, len) = r.jigsaw.expect("pipeline finds the jigsaw");
        assert_eq!(n, 3);
        let _ = len;
    }

    #[test]
    fn bcq_and_count_roundtrip() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2]]);
        db.insert_all("S", &[vec![2, 3], vec![2, 4]]);
        let serve = |workload| {
            let req = Request {
                query: &q,
                db: &db,
                workload,
            };
            Engine::shared().serve(&req).answer
        };
        assert_eq!(serve(Workload::Boolean), Answer::Bool(true));
        assert_eq!(serve(Workload::Count), Answer::Count(2));
        let mut tuples = serve(Workload::Enumerate { limit: None })
            .into_tuples()
            .unwrap();
        tuples.sort_unstable();
        assert_eq!(tuples, vec![vec![1, 2, 3], vec![1, 2, 4]]);
        let capped = serve(Workload::Enumerate { limit: Some(1) });
        assert_eq!(capped.as_tuples().map(<[_]>::len), Some(1));
        let _ = analyze(&hypercycle(4, 2));
    }
}
