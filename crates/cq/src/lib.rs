//! Conjunctive queries and their evaluation.
//!
//! This crate is the database substrate of the reproduction: it provides
//! CQs, databases, and the evaluation algorithms whose complexity the
//! paper characterizes.
//!
//! - [`query`]: function-free conjunctive queries with named variables and
//!   constants; the hypergraph of a query (Section 2).
//! - [`database`]: databases as sets of ground atoms, stored per-relation
//!   — each relation as one sorted-distinct [`FlatRelation`] buffer, the
//!   layout the `.cqds` store persists and `bind` copies.
//! - [`flat`]: the **columnar execution kernel** — [`FlatRelation`] packs
//!   all tuples into one contiguous buffer with a fixed stride, resolves
//!   schemas once per operator, joins/semijoins on packed key slices, and
//!   dedups only where an operator can introduce duplicates. All
//!   evaluators run on it.
//! - [`relation`]: the original row-store [`VRelation`], kept as the
//!   reference implementation for differential tests and benchmarks.
//! - [`stats`]: per-relation cardinality / per-column distinct-count
//!   statistics ([`Database::stats`]) and the selectivity-based join
//!   cardinality estimator the `cqd2-engine` cost model consumes.
//! - [`eval`]: the naive backtracking evaluators (exponential; the
//!   oracle every differential suite targets) and GHD-guided evaluation
//!   on a [`MaterializedBags`] tree — a shared data-independent shape,
//!   the immutable bag relations and one probe-table cache record per
//!   node — walked by one level loop, one non-mutating pass per problem:
//!   bottom-up semijoins for **BCQ** (Prop. 2.2), the junction-tree DP
//!   for **#CQ** (Prop. 4.14; it carries per-row counts, never row
//!   copies), two-way reduction then constant-delay enumeration. One
//!   query's evaluation is one sequential pass; threads are the callers'
//!   business.
//! - [`hom`]: homomorphisms between queries, cores, Boolean equivalence,
//!   and semantic generalized hypertree width (`ghw` of the core,
//!   Section 4.3).
//! - [`generate`]: canonical queries from hypergraphs and seeded database
//!   generators (uniform and planted-solution), used by tests and the
//!   benchmark harness.

pub mod database;
pub mod delta;
pub mod eval;
pub mod flat;
pub mod generate;
pub mod hom;
pub mod par;
pub(crate) mod probe;
pub mod query;
pub mod relation;
pub mod stats;
pub mod sync;

pub use database::{BulkLoadError, Database};
pub use delta::{DatabaseDelta, DeltaApplied, DeltaError, RelationDelta};
pub use eval::{
    bcq_naive, count_naive, enumerate_naive, EvalError, GhdEnumerator, MaterializedBags, Memoized,
    PassStats,
};
pub use flat::FlatRelation;
pub use hom::{core_of, find_homomorphism, semantic_ghw};
pub use query::{Atom, ConjunctiveQuery, Term, Var};
pub use relation::VRelation;
pub use stats::{estimate_join_rows, estimate_naive_cost, DatabaseStats, RelationStats};
pub use sync::{lock_or_poison, read_or_poison, wait_or_poison, write_or_poison};
