//! BCQ evaluation, #CQ counting, and answer enumeration.
//!
//! Two evaluation routes:
//!
//! - [`bcq_naive`] / [`enumerate_naive`] / [`count_naive`]: backtracking
//!   join — correct for every CQ, exponential in general. The baseline the
//!   paper's lower bounds are about, and the oracle the differential tests
//!   check against; the serving engine runs a naive-join plan as the
//!   GHD route over the one-bag [`Ghd::trivial`].
//! - [`MaterializedBags::build`] along a GHD, then one pass over the bag
//!   tree:
//!   - [`MaterializedBags::bcq`]: Prop. 2.2 — one relation per GHD bag
//!     (joining the `λ` cover and the atoms assigned to the bag), then a
//!     Yannakakis semijoin pass over the decomposition tree. Polynomial
//!     `O(‖D‖^k)` for width-`k` GHDs.
//!   - [`MaterializedBags::count`]: Prop. 4.14 — junction-tree counting
//!     DP over the bag relations, computing `|q(D)|` for *full* CQs
//!     without enumerating.
//!   - [`MaterializedBags::enumerator`]: answer *enumeration* in the
//!     preprocessing-then-constant-delay shape of Durand & Grandjean and
//!     Carmeli & Kröll: semijoin-reduce the bag tree bottom-up **and**
//!     top-down (so every surviving bag row extends to a full answer),
//!     then stream answers from a [`GhdEnumerator`] that walks the
//!     reduced tree top-down — no dead-end backtracking, answers on
//!     demand. The plan it walks is the Durand–Grandjean pointer
//!     structure: each bag's rows are ordered by the columns it shares
//!     with its parent bag, and every parent row holds the `[lo, hi)`
//!     range of its compatible child rows, found once when the plan is
//!     built (a binary search over the child's distinct keys, or a direct
//!     table when one-column keys are dense). A descent is then one array
//!     read and an advance is `r + 1`; the walk hashes nothing.
//!
//! Everything a pass computes depends only on `(q, D, GHD)` — so each
//! runs **at most once per tree**: the Boolean answer, the count and the
//! two-way-reduced enumeration plan are memoized on the tree on first
//! demand, and every later `bcq` / `count` / `enumerator` call is a
//! lookup. That is the preprocessing/answering split of the papers
//! above: `build` and the first pass are the preprocessing, a warm call
//! answers.
//!
//! [`MaterializedBags::build`] returns [`EvalError`] (a typed
//! `std::error::Error`) when the supplied decomposition does not fit the
//! query, instead of stringly-typed errors.
//!
//! All strategies run on the columnar [`FlatRelation`] kernel
//! ([`crate::flat`]): bags materialize through packed-key hash joins, the
//! counting DP keeps per-row extension counts in a dense `Vec<u128>`
//! aligned with each bag's row order and aggregates child counts over
//! packed key slices (no `HashMap<Vec<u64>, _>` per tuple). Evaluation
//! of one query is one sequential pass over its bag tree, as the paper
//! prices it; concurrency lives across requests, in the callers' worker
//! pools.

use crate::database::Database;
use crate::flat::{FlatRelation, KeyRuns};
use crate::probe::{AggTable, KeyTable};
use crate::query::{ConjunctiveQuery, Var};
use cqd2_decomp::ghd::GhdError;
use cqd2_decomp::Ghd;
use cqd2_hypergraph::VertexId;
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------
// Typed evaluation errors.
// ---------------------------------------------------------------------

/// Why a GHD-guided evaluation could not run: the supplied decomposition
/// does not fit the query. All variants are *caller* errors (a plan built
/// for a different query, or a hand-rolled GHD); a decomposition produced
/// from `q.hypergraph()` never triggers them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The decomposition fails [`Ghd::validate`] on the query's hypergraph.
    InvalidGhd(GhdError),
    /// Hypergraph edge `edge` has no source atom with the same variable
    /// set — the GHD's covers reference a relation the query cannot name.
    EdgeWithoutAtom {
        /// Index of the uncovered hypergraph edge.
        edge: usize,
    },
    /// Atom `atom`'s variables fit in no bag of the decomposition.
    AtomFitsNoBag {
        /// Index of the unplaceable atom.
        atom: usize,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::InvalidGhd(e) => write!(f, "invalid ghd for this query: {e}"),
            EvalError::EdgeWithoutAtom { edge } => {
                write!(f, "hypergraph edge e{edge} has no source atom")
            }
            EvalError::AtomFitsNoBag { atom } => write!(f, "atom #{atom} fits in no bag"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::InvalidGhd(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Naive backtracking evaluation.
// ---------------------------------------------------------------------

/// Decide `q(D) ≠ ∅` by backtracking join.
pub fn bcq_naive(q: &ConjunctiveQuery, db: &Database) -> bool {
    let mut found = false;
    backtrack(q, db, &mut |_| {
        found = true;
        false // stop at the first solution
    });
    found
}

/// Count `|q(D)|` (all-variable assignments) by backtracking.
pub fn count_naive(q: &ConjunctiveQuery, db: &Database) -> u128 {
    let mut n: u128 = 0;
    backtrack(q, db, &mut |_| {
        n += 1;
        true
    });
    n
}

/// Enumerate all solutions as assignments in `Var` id order. Intended for
/// tests/verification on small instances.
pub fn enumerate_naive(q: &ConjunctiveQuery, db: &Database) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    backtrack(q, db, &mut |sol| {
        out.push(sol.to_vec());
        true
    });
    out.sort_unstable();
    out
}

/// Core backtracking loop. `on_solution` receives the full assignment
/// (indexed by `Var` id) and returns `false` to stop the search.
pub(crate) fn backtrack(
    q: &ConjunctiveQuery,
    db: &Database,
    on_solution: &mut dyn FnMut(&[u64]) -> bool,
) {
    let bound: Vec<FlatRelation> = q.atoms.iter().map(|a| FlatRelation::bind(a, db)).collect();
    if bound.iter().any(FlatRelation::is_empty) {
        return;
    }
    // A variable in no atom cannot be assigned — such queries do not arise
    // from our constructors; guard anyway.
    let mut covered = vec![false; q.num_vars()];
    for r in &bound {
        for v in r.vars() {
            covered[v.idx()] = true;
        }
    }
    if covered.iter().any(|c| !c) {
        return;
    }
    // Atom order: connected, smallest-relation-first.
    let order = atom_order(q, &bound);
    let mut assignment: Vec<Option<u64>> = vec![None; q.num_vars()];
    let _ = dfs(&bound, &order, 0, &mut assignment, on_solution);
}

fn atom_order(q: &ConjunctiveQuery, bound: &[FlatRelation]) -> Vec<usize> {
    let n = q.atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut seen_vars: std::collections::HashSet<Var> = std::collections::HashSet::new();
    for _ in 0..n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| {
                let overlap = bound[i]
                    .vars()
                    .iter()
                    .filter(|v| seen_vars.contains(v))
                    .count();
                (std::cmp::Reverse(overlap), bound[i].len(), i)
            })
            // cqd2-lint: allow(panic-in-hot-path, reason = "the loop runs while unplaced atoms remain, so min_by_key sees a nonempty iterator")
            .expect("unplaced atom");
        placed[next] = true;
        seen_vars.extend(bound[next].vars().iter().copied());
        order.push(next);
    }
    order
}

fn dfs(
    bound: &[FlatRelation],
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<Option<u64>>,
    on_solution: &mut dyn FnMut(&[u64]) -> bool,
) -> bool {
    if depth == order.len() {
        let sol: Vec<u64> = assignment
            .iter()
            // cqd2-lint: allow(panic-in-hot-path, reason = "depth == order.len() means every variable was bound on the way down")
            .map(|a| a.expect("all assigned"))
            .collect();
        return on_solution(&sol);
    }
    let rel = &bound[order[depth]];
    'tuples: for t in rel.iter() {
        let mut newly = Vec::new();
        for (i, v) in rel.vars().iter().enumerate() {
            match assignment[v.idx()] {
                Some(val) => {
                    if val != t[i] {
                        for v in newly {
                            assignment[v] = None;
                        }
                        continue 'tuples;
                    }
                }
                None => {
                    assignment[v.idx()] = Some(t[i]);
                    newly.push(v.idx());
                }
            }
        }
        if !dfs(bound, order, depth + 1, assignment, on_solution) {
            return false;
        }
        for v in newly {
            assignment[v] = None;
        }
    }
    true
}

// ---------------------------------------------------------------------
// GHD-guided evaluation (Prop. 2.2 / Prop. 4.14).
// ---------------------------------------------------------------------

/// Sparsity of a tree's reduction: how many bag nodes lost rows to a
/// semijoin (and are therefore held a second time, filtered, beside
/// their base relation), out of the tree's total. It describes the
/// tree's **one** memoized reduction, so every call on the same tree
/// reports the same value. On join-consistent data the reduction shrinks
/// **zero** nodes (every semijoin keeps every row), and **a count never
/// rewrites** — its DP carries per-row counts beside the base relations.
/// The engine carries this verbatim in its plan provenance, for warm and
/// one-shot runs alike. [`MaterializedBags::refresh`] reuses the type for
/// its maintenance sparsity (bags re-materialized out of the total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Nodes the reduction shrank (filtered into a second relation);
    /// always 0 for counts.
    pub rewritten: usize,
    /// Nodes in the bag tree.
    pub total: usize,
}

/// Which of a [`MaterializedBags`] tree's passes have run and memoized
/// their answer ([`MaterializedBags::memoized`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Memoized {
    /// The Boolean verdict (by [`MaterializedBags::bcq`], or as a
    /// by-product of a count or of the enumeration's reduction).
    pub boolean: bool,
    /// The count.
    pub count: bool,
    /// The two-way reduction behind [`MaterializedBags::enumerator`].
    pub enumeration: bool,
}

/// The materialized bag tree of a `(query, database, GHD)` triple: one
/// relation per bag (the `λ` cover joined with the bag's assigned
/// atoms), rooted and ordered for tree passes.
///
/// This is the **shared preprocessing** of every GHD-guided evaluator —
/// the `O(‖D‖^width)` part — in four parts: the data-independent
/// **shape** (tree order, resolved semijoin keys, per-bag build recipes;
/// one `Arc`, shared across [`MaterializedBags::refresh`]), the immutable
/// **bag relations**, one **cache record** per node (lazily built probe
/// tables over the base relations) and one **memo record** per tree (the
/// answers of the three passes).
///
/// Build it once with [`MaterializedBags::build`] and ask as often as
/// needed. `build` runs no pass; the first [`MaterializedBags::bcq`],
/// [`MaterializedBags::count`] or [`MaterializedBags::enumerator`] call
/// runs its pass over the immutable tree and memoizes the result, and
/// every later call — on this tree or a clone of it, from any thread —
/// reads the memo: a warm Boolean or count is a load, a warm enumerator
/// is an `Arc` bump on the shared enumeration plan. Concurrent first
/// callers compute once (`OnceLock`). No pass mutates the tree: the
/// reduction keeps a filtered copy of exactly the nodes its semijoins
/// shrink (sharing every other node's base `Arc`), and the counting DP
/// carries per-row counts beside the relations and copies nothing. The
/// bottom-up passes are one sequential level walk, deepest level first.
///
/// ```
/// use cqd2_cq::eval::MaterializedBags;
/// use cqd2_cq::{ConjunctiveQuery, Database};
/// use cqd2_decomp::widths::ghw_decomposition;
///
/// let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
/// let mut db = Database::new();
/// db.insert_all("R", &[vec![1, 2]]);
/// db.insert_all("S", &[vec![2, 3], vec![2, 4]]);
/// let ghd = ghw_decomposition(&q.hypergraph()).expect("small instance");
///
/// // Pay the O(‖D‖^width) materialization once…
/// let bags = MaterializedBags::build(&q, &db, &ghd)?;
/// // …each pass runs on first demand, once…
/// assert!(bags.bcq());
/// assert_eq!(bags.count(), 2);
/// assert_eq!(bags.enumerator().count(), 2);
/// // …and asking again is a lookup.
/// assert_eq!(bags.count(), 2);
/// # Ok::<(), cqd2_cq::eval::EvalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MaterializedBags {
    shape: Arc<TreeShape>,
    /// Per-bag relations, `Arc`-shared so refreshed trees and
    /// enumerators hold untouched bags without copying buffers.
    relations: Vec<Arc<FlatRelation>>,
    caches: Vec<NodeCache>,
    /// What the passes over `relations` answered. Shared by clones and by
    /// a refresh that dirtied no bag (same relations, same answers).
    memo: Arc<PassMemo>,
}

/// The data-independent part of a bag tree. Re-running a bag's recipe
/// against any database reproduces the bag's column layout, so the
/// resolved key columns stay valid across [`MaterializedBags::refresh`]
/// and one `TreeShape` serves every epoch of a prepared query.
#[derive(Debug)]
struct TreeShape {
    children: Vec<Vec<usize>>,
    /// Parent of each node (`usize::MAX` at the root).
    parents: Vec<usize>,
    /// The non-leaf nodes grouped by depth, root level first — the nodes
    /// tree passes visit. Nodes within a level are pairwise non-adjacent
    /// in the tree, so per-level pass tasks touch disjoint state.
    levels: Vec<Vec<usize>>,
    /// For each non-root node `u`: the columns of `u`'s relation whose
    /// variables also occur in the parent bag — the semijoin key, child
    /// side. Pass rewrites preserve column layout, so the positions stay
    /// valid all tree passes long.
    up_key: Vec<Vec<usize>>,
    /// The matching key columns in the parent's relation (same variable
    /// order as `up_key`). Empty at the root.
    parent_key: Vec<Vec<usize>>,
    /// Per-bag materialization recipe, re-run by `refresh` for dirty
    /// bags.
    recipes: Vec<BagRecipe>,
    root: usize,
    /// `q.num_vars()` at build time (answer tuple width).
    num_vars: usize,
}

impl TreeShape {
    /// Root `ghd`'s tree at node 0, group it into depth levels, and
    /// resolve the semijoin key columns along every tree edge against
    /// the freshly materialized `relations`.
    fn new(
        ghd: &Ghd,
        recipes: Vec<BagRecipe>,
        relations: &[FlatRelation],
        num_vars: usize,
    ) -> TreeShape {
        let n = relations.len();
        let adj = ghd.td.adjacency();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut parents: Vec<usize> = vec![usize::MAX; n];
        // `ghd` validated as a tree, so walking it level by level from
        // the root reaches every node exactly once, through its parent.
        let root = 0usize;
        let mut levels: Vec<Vec<usize>> = Vec::new();
        let mut level = vec![root];
        while !level.is_empty() {
            let mut next = Vec::new();
            for &u in &level {
                let up = parents[u];
                for &w in adj[u].iter().filter(|&&w| w != up) {
                    parents[w] = u;
                    children[u].push(w);
                    next.push(w);
                }
            }
            level.retain(|&u| !children[u].is_empty());
            levels.push(std::mem::replace(&mut level, next));
        }
        // The variables a child's relation shares with its parent's (in
        // the child's column order), as positions on both sides.
        let mut up_key: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut parent_key: Vec<Vec<usize>> = vec![Vec::new(); n];
        for u in (0..n).filter(|&u| parents[u] != usize::MAX) {
            let parent_vars = relations[parents[u]].vars();
            for (c, v) in relations[u].vars().iter().enumerate() {
                if let Some(pc) = parent_vars.iter().position(|w| w == v) {
                    up_key[u].push(c);
                    parent_key[u].push(pc);
                }
            }
        }
        TreeShape {
            children,
            parents,
            levels,
            up_key,
            parent_key,
            recipes,
            root,
            num_vars,
        }
    }
}

/// What it takes to re-materialize one bag: the atom indices joined as
/// the `λ` cover, the bag's variables (the projection between cover and
/// assigned joins), and the atoms assigned to the bag that the cover
/// has not already joined.
#[derive(Debug)]
struct BagRecipe {
    /// Atom indices of the cover's edge representatives, in cover order.
    cover_atoms: Vec<usize>,
    /// The bag's variables, in bag order.
    bag_vars: Vec<Var>,
    /// Atom indices assigned to this bag, in assignment order, **minus
    /// those in `cover_atoms`**: an assigned atom's variables all lie in
    /// the bag, so the projection kept every column it constrains and
    /// joining it a second time would return the same rows in the same
    /// order. Atoms that merely share a variable set with a cover
    /// representative are different relations and stay.
    assigned_atoms: Vec<usize>,
}

impl BagRecipe {
    /// Every atom index this bag's materialization reads.
    fn atoms(&self) -> impl Iterator<Item = usize> + '_ {
        self.cover_atoms.iter().chain(&self.assigned_atoms).copied()
    }

    /// Join the cover representatives, project to the bag's variables,
    /// then join the remaining assigned atoms. `bound` resolves an atom
    /// index to its bound relation.
    fn run<'a>(&self, bound: impl Fn(usize) -> &'a FlatRelation) -> FlatRelation {
        let mut rel = FlatRelation::unit();
        for &ai in &self.cover_atoms {
            rel = rel.join(bound(ai));
        }
        // Project to bag variables (cover may reach outside the bag).
        let covered = |v: &Var| rel.vars().contains(v);
        let keep: Vec<Var> = self.bag_vars.iter().copied().filter(covered).collect();
        rel = rel.project(&keep);
        for &ai in &self.assigned_atoms {
            rel = rel.join(bound(ai));
        }
        rel
    }
}

/// Materialize the bags `nodes` (indices into `recipes`) of `q` against
/// `db`, in `nodes` order: bind exactly the atoms those bags read, then
/// run each recipe.
fn materialize(
    recipes: &[BagRecipe],
    nodes: &[usize],
    q: &ConjunctiveQuery,
    db: &Database,
) -> Vec<FlatRelation> {
    let mut bound: Vec<Option<FlatRelation>> = q.atoms.iter().map(|_| None).collect();
    for ai in nodes.iter().flat_map(|&u| recipes[u].atoms()) {
        if bound[ai].is_none() {
            bound[ai] = Some(FlatRelation::bind(&q.atoms[ai], db));
        }
    }
    nodes
        .iter()
        .map(|&u| {
            recipes[u].run(|ai| {
                bound[ai]
                    .as_ref()
                    // cqd2-lint: allow(panic-in-hot-path, reason = "every atom these bags read was bound in the loop above")
                    .expect("bag atom bound")
            })
        })
        .collect()
}

/// One node's lazily built probe tables, each over a **base** relation
/// (passes never mutate those) and each consulted by the one-time passes
/// only while they have left that relation unshrunk. `Arc`'d so
/// `refresh` can hand a still-valid table to the refreshed tree — whose
/// first pass re-reduces with it — instead of rebuilding it.
#[derive(Debug, Clone, Default)]
struct NodeCache {
    /// Over the node's own relation, keyed on `up_key`: what the
    /// parent's bottom-up semijoin probes.
    up: OnceLock<Arc<KeyTable>>,
    /// Over the **parent's** relation, keyed on `parent_key`: what the
    /// node's top-down semijoin probes.
    down: OnceLock<Arc<KeyTable>>,
    /// Per-key row multiplicities of a **leaf** node's relation (the
    /// counting DP's child aggregation with all-ones counts).
    leaf_agg: OnceLock<Arc<AggTable>>,
}

impl NodeCache {
    /// The record a refreshed tree starts from: each filled table moves
    /// over iff the relation it was built from did — `up` and `leaf_agg`
    /// with the node itself, `down` with the node's parent.
    fn carried(&self, self_clean: bool, parent_clean: bool) -> NodeCache {
        fn keep<T>(src: &OnceLock<Arc<T>>, valid: bool) -> OnceLock<Arc<T>> {
            match src.get() {
                Some(t) if valid => OnceLock::from(Arc::clone(t)),
                _ => OnceLock::new(),
            }
        }
        NodeCache {
            up: keep(&self.up, self_clean),
            down: keep(&self.down, parent_clean),
            leaf_agg: keep(&self.leaf_agg, self_clean),
        }
    }
}

/// The per-tree memo: each pass's answer, filled on first demand by
/// `OnceLock::get_or_init` (concurrent first callers compute once) and
/// immutable afterwards.
#[derive(Debug, Default)]
struct PassMemo {
    /// The bottom-up reduction's verdict and sparsity.
    boolean: OnceLock<(bool, PassStats)>,
    /// The counting DP's total.
    count: OnceLock<u128>,
    /// The two-way reduction, wired for enumeration, and its sparsity.
    plan: OnceLock<(Arc<EnumPlan>, PassStats)>,
}

/// The working state of one reduction over a shared tree: reads fall
/// through to the base materialization; a semijoin that drops rows
/// writes the filtered relation here and leaves the base untouched.
struct BagOverlay<'a> {
    base: &'a MaterializedBags,
    /// Sparse rewrite layer, indexed by node.
    local: Vec<Option<Arc<FlatRelation>>>,
}

impl<'a> BagOverlay<'a> {
    fn new(base: &'a MaterializedBags) -> BagOverlay<'a> {
        BagOverlay {
            base,
            local: vec![None; base.relations.len()],
        }
    }

    /// The current relation of node `u`: rewritten if the pass touched
    /// it, the shared base otherwise.
    fn rel(&self, u: usize) -> &Arc<FlatRelation> {
        self.local[u].as_ref().unwrap_or(&self.base.relations[u])
    }

    fn set(&mut self, u: usize, rel: FlatRelation) {
        self.local[u] = Some(Arc::new(rel));
    }

    fn stats(&self) -> PassStats {
        PassStats {
            rewritten: self.local.iter().flatten().count(),
            total: self.local.len(),
        }
    }
}

impl MaterializedBags {
    /// Materialize the bag tree of `q` against `db` along `ghd`
    /// (validated against `q.hypergraph()` first).
    pub fn build(
        q: &ConjunctiveQuery,
        db: &Database,
        ghd: &Ghd,
    ) -> Result<MaterializedBags, EvalError> {
        let h = q.hypergraph();
        ghd.validate(&h).map_err(EvalError::InvalidGhd)?;
        // Representative atom for each hypergraph edge (same variable set).
        let edge_rep: Vec<usize> = q
            .edge_representatives(&h)
            .into_iter()
            .enumerate()
            .map(|(i, rep)| rep.ok_or(EvalError::EdgeWithoutAtom { edge: i }))
            .collect::<Result<_, EvalError>>()?;
        // Assign every atom to one node whose bag contains its variables.
        let n = ghd.td.bags.len();
        let bag_contains = |u: usize, vars: &[Var]| {
            vars.iter()
                .all(|v| ghd.td.bags[u].binary_search(&VertexId(v.0)).is_ok())
        };
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ai, atom) in q.atoms.iter().enumerate() {
            let vars = atom.vars();
            let u = (0..n)
                .find(|&u| bag_contains(u, &vars))
                .ok_or(EvalError::AtomFitsNoBag { atom: ai })?;
            assigned[u].push(ai);
        }
        let recipes: Vec<BagRecipe> = assigned
            .into_iter()
            .enumerate()
            .map(|(u, mut assigned_atoms)| {
                let cover_atoms: Vec<usize> =
                    ghd.covers[u].iter().map(|e| edge_rep[e.idx()]).collect();
                assigned_atoms.retain(|ai| !cover_atoms.contains(ai));
                BagRecipe {
                    cover_atoms,
                    bag_vars: ghd.td.bags[u].iter().map(|v| Var(v.0)).collect(),
                    assigned_atoms,
                }
            })
            .collect();
        let all: Vec<usize> = (0..n).collect();
        let relations = materialize(&recipes, &all, q, db);
        let shape = TreeShape::new(ghd, recipes, &relations, q.num_vars());
        Ok(MaterializedBags {
            shape: Arc::new(shape),
            relations: relations.into_iter().map(Arc::new).collect(),
            caches: vec![NodeCache::default(); n],
            memo: Arc::default(),
        })
    }

    /// Total rows across all materialized **base** bag relations. The
    /// tree additionally pins, once enumeration has been asked for, a
    /// filtered copy of every node the reduction shrank.
    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Number of bag nodes in the tree.
    pub fn num_bags(&self) -> usize {
        self.relations.len()
    }

    /// **Warm maintenance** after a delta: rebuild only the bags whose
    /// materialization reads a relation in `dirty`, sharing the tree
    /// shape, every clean bag's relation (an `Arc` bump, no buffer copy)
    /// *and* the probe tables built from clean relations with `self`.
    /// `q` must be the query this tree was built for and `db` the
    /// post-delta database; `dirty` holds the names of the relations the
    /// delta touched.
    ///
    /// Like `build`, this runs no pass. A reduced bag can grow when a
    /// neighbour gains rows, so once any bag is dirty the refreshed tree
    /// starts with an empty memo and re-reduces the whole tree — over
    /// the unreduced base relations, with the carried tables — on its
    /// first read.
    ///
    /// Returns the refreshed tree plus the maintenance sparsity: how
    /// many bags were re-materialized out of the total. `rewritten == 0`
    /// means the delta did not intersect this query at all and the
    /// refreshed tree is a pure share of `self`, memo included.
    pub fn refresh(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        dirty: &[String],
    ) -> (MaterializedBags, PassStats) {
        let shape = &self.shape;
        let dirty_bag: Vec<bool> = shape
            .recipes
            .iter()
            .map(|r| r.atoms().any(|ai| dirty.contains(&q.atoms[ai].relation)))
            .collect();
        let n = dirty_bag.len();
        let dirty_nodes: Vec<usize> = (0..n).filter(|&u| dirty_bag[u]).collect();
        let stats = PassStats {
            rewritten: dirty_nodes.len(),
            total: n,
        };
        if dirty_nodes.is_empty() {
            return (self.clone(), stats);
        }
        let mut relations = self.relations.clone();
        let remat = materialize(&shape.recipes, &dirty_nodes, q, db);
        for (&u, rel) in dirty_nodes.iter().zip(remat) {
            debug_assert_eq!(
                rel.vars(),
                relations[u].vars(),
                "recipe re-run must reproduce the bag's column layout"
            );
            relations[u] = Arc::new(rel);
        }
        let clean = |u: usize| u != usize::MAX && !dirty_bag[u];
        let caches = (0..n)
            .map(|u| self.caches[u].carried(clean(u), clean(shape.parents[u])))
            .collect();
        let refreshed = MaterializedBags {
            shape: Arc::clone(shape),
            relations,
            caches,
            memo: Arc::default(),
        };
        (refreshed, stats)
    }

    /// `Arc` identity of bag `u`'s materialized relation — the witness
    /// differential tests use to assert that a refresh shared (rather
    /// than rebuilt) a clean bag.
    pub fn bag_arc(&self, u: usize) -> &Arc<FlatRelation> {
        &self.relations[u]
    }

    /// Which passes have memoized their answer on this tree — the
    /// witness tests use to assert that nothing forces a pass before an
    /// answer is asked for, and that a warm-up ran the passes it meant to.
    pub fn memoized(&self) -> Memoized {
        Memoized {
            boolean: self.memo.boolean.get().is_some(),
            count: self.memo.count.get().is_some(),
            enumeration: self.memo.plan.get().is_some(),
        }
    }

    /// Decide `q(D) ≠ ∅` (Prop. 2.2 bottom-up semijoins, run on the
    /// first call; a lookup afterwards).
    pub fn bcq(&self) -> bool {
        self.bcq_with_stats().0
    }

    /// [`MaterializedBags::bcq`] plus the bottom-up reduction's sparsity
    /// (the count's, rewriting nothing, when a count decided it first).
    pub fn bcq_with_stats(&self) -> (bool, PassStats) {
        *self.memo.boolean.get_or_init(|| {
            let mut ov = BagOverlay::new(self);
            (self.reduce_bottom_up(&mut ov), ov.stats())
        })
    }

    /// Count `|q(D)|` (Prop. 4.14 junction-tree DP, run on the first
    /// call; a lookup afterwards). Copies no rows.
    pub fn count(&self) -> u128 {
        self.count_with_stats().0
    }

    /// [`MaterializedBags::count`] plus its [`PassStats`]: `rewritten`
    /// is 0 by construction — the DP carries, per non-leaf node, one
    /// extension count per **base** row and never filters a relation.
    pub fn count_with_stats(&self) -> (u128, PassStats) {
        let stats = PassStats {
            rewritten: 0,
            total: self.relations.len(),
        };
        let count = *self.memo.count.get_or_init(|| {
            let count = self.count_dp();
            // The count decides the Boolean too: a later `bcq` must not
            // reduce for it.
            let _ = self.memo.boolean.set((count > 0, stats));
            count
        });
        (count, stats)
    }

    /// The counting DP over the whole tree.
    fn count_dp(&self) -> u128 {
        let shape = &*self.shape;
        // Leaves keep an empty slot: their rows all count 1, and their
        // aggregation comes from the per-leaf cache.
        let mut counts: Vec<Vec<u128>> = vec![Vec::new(); self.relations.len()];
        self.bottom_up(|u| {
            counts[u] = self.count_node(&counts, u);
            true
        });
        if shape.children[shape.root].is_empty() {
            self.relations[shape.root].len() as u128
        } else {
            counts[shape.root].iter().sum()
        }
    }

    /// Open a streaming answer enumerator over the tree's two-way
    /// reduction (semijoin-reduce bottom-up and top-down — on the first
    /// call — then constant-delay enumeration). Every enumerator of a
    /// tree shares one immutable plan by `Arc`, so opening one costs an
    /// `Arc` bump plus its cursor vectors, and any number of concurrent
    /// cursors pin one materialization. The stream yields each answer
    /// exactly once (bag rows are duplicate-free and an answer determines
    /// its row in every bag), in an order fixed by the decomposition tree
    /// — collect and sort to compare against [`enumerate_naive`].
    pub fn enumerator(&self) -> GhdEnumerator {
        self.enumerator_with_stats().0
    }

    /// [`MaterializedBags::enumerator`] plus the reduction's sparsity
    /// (both passes combined).
    pub fn enumerator_with_stats(&self) -> (GhdEnumerator, PassStats) {
        let (plan, stats) = self.memo.plan.get_or_init(|| self.reduce_two_way());
        (GhdEnumerator::open(Arc::clone(plan)), *stats)
    }

    /// Both reduction passes, then the enumeration plan over the result.
    fn reduce_two_way(&self) -> (Arc<EnumPlan>, PassStats) {
        let shape = &*self.shape;
        let mut ov = BagOverlay::new(self);
        let alive = self.reduce_bottom_up(&mut ov);
        // The Boolean answer falls out of the first half: a later `bcq`
        // must not reduce again for it.
        let _ = self.memo.boolean.set((alive, ov.stats()));
        if !alive {
            return (Arc::default(), ov.stats());
        }
        // Top-down pass (parents filter children, shallowest level
        // first): afterwards the tree is globally consistent — every
        // surviving row extends to a full answer.
        for &c in shape
            .levels
            .iter()
            .flatten()
            .flat_map(|&u| &shape.children[u])
        {
            let table = self.down_table(&ov, c);
            if let Some(f) = ov.rel(c).semijoin_filter_with(&table, &shape.up_key[c]) {
                ov.set(c, f);
            }
        }
        (Arc::new(self.enum_plan(&ov)), ov.stats())
    }

    /// The probe table over node `u`'s current relation, keyed on
    /// `up_key[u]`: the cached base-side table while the running pass
    /// has left `u` unrewritten, a fresh one otherwise.
    fn up_table(&self, ov: &BagOverlay<'_>, u: usize) -> Arc<KeyTable> {
        let build = |rel: &FlatRelation| Arc::new(KeyTable::build(rel, &self.shape.up_key[u]));
        match &ov.local[u] {
            Some(rel) => build(rel),
            None => Arc::clone(self.caches[u].up.get_or_init(|| build(&self.relations[u]))),
        }
    }

    /// The probe table over the current relation of `c`'s parent, keyed
    /// on `parent_key[c]`: cached while the parent is unrewritten, fresh
    /// otherwise.
    fn down_table(&self, ov: &BagOverlay<'_>, c: usize) -> Arc<KeyTable> {
        let (p, cache) = (self.shape.parents[c], &self.caches[c].down);
        let build = |rel: &FlatRelation| Arc::new(KeyTable::build(rel, &self.shape.parent_key[c]));
        match &ov.local[p] {
            Some(rel) => build(rel),
            None => Arc::clone(cache.get_or_init(|| build(&self.relations[p]))),
        }
    }

    /// The one bottom-up level walk, deepest level first, over the
    /// non-leaf nodes. `step(u)` computes and installs node `u`'s result
    /// — deeper levels are already done — and returns `false` to stop the
    /// walk (which then returns `false`).
    fn bottom_up(&self, mut step: impl FnMut(usize) -> bool) -> bool {
        self.shape.levels.iter().rev().flatten().all(|&u| step(u))
    }

    /// Bottom-up Yannakakis pass over the overlay. Returns `false` as
    /// soon as any bag is (or becomes) empty — then `q(D) = ∅`.
    fn reduce_bottom_up(&self, ov: &mut BagOverlay<'_>) -> bool {
        !self.relations.iter().any(|r| r.is_empty())
            && self.bottom_up(|u| {
                self.reduce_node(ov, u).is_none_or(|rel| {
                    let alive = !rel.is_empty();
                    ov.set(u, rel);
                    alive
                })
            })
    }

    /// Semijoin node `u` against each of its children through the
    /// overlay. `None` = every row survived every child (node unchanged,
    /// nothing written).
    fn reduce_node(&self, ov: &BagOverlay<'_>, u: usize) -> Option<FlatRelation> {
        let mut cur: Option<FlatRelation> = None;
        for &c in &self.shape.children[u] {
            let parent: &FlatRelation = cur.as_ref().unwrap_or_else(|| ov.rel(u));
            let table = self.up_table(ov, c);
            if let Some(f) = parent.semijoin_filter_with(&table, &self.shape.parent_key[c]) {
                let emptied = f.is_empty();
                cur = Some(f);
                if emptied {
                    break;
                }
            }
        }
        cur
    }

    /// Wire up the enumeration plan over the fully semijoin-reduced tree
    /// in `ov`: covered-variable check, pre-order, each bag's rows in
    /// parent-key order and one row range per parent row. A bag the
    /// reduction left whole and whose rows already are in parent-key
    /// order is the base materialization's own `Arc`; a reduced bag in
    /// that order is the reduction's `Arc`; only a bag out of order is
    /// copied.
    fn enum_plan(&self, ov: &BagOverlay<'_>) -> EnumPlan {
        let shape = &*self.shape;
        // Every variable must be carried by some bag; a variable outside
        // all bags (possible only for degenerate hand-built inputs)
        // cannot be assigned, so — like the naive enumerator — there are
        // no answers.
        let mut covered = vec![false; shape.num_vars];
        for rel in &self.relations {
            for v in rel.vars() {
                covered[v.idx()] = true;
            }
        }
        if covered.iter().any(|c| !c) {
            return EnumPlan::default();
        }
        // Pre-order over the rooted tree, parents first.
        let mut pre_order = Vec::with_capacity(self.relations.len());
        let mut stack = vec![shape.root];
        while let Some(u) = stack.pop() {
            pre_order.push(u);
            stack.extend(shape.children[u].iter().copied());
        }
        // Each bag relation's columns are exactly its bag's variables, and
        // by the running-intersection property every variable of bag `u`
        // already assigned by an earlier (pre-order) bag also lives in
        // `u`'s parent bag — so the rows of `u` that extend the parent's
        // current row are exactly those agreeing with it on the
        // parent-shared columns (`up_key`, empty at the root). With the
        // rows ordered by `up_key` those form one contiguous range, found
        // here once per parent row.
        let mut level_of = vec![usize::MAX; self.relations.len()];
        let mut levels: Vec<EnumLevel> = Vec::with_capacity(pre_order.len());
        for &u in &pre_order {
            let up_key = &shape.up_key[u];
            let mut rel = Arc::clone(ov.rel(u));
            crate::flat::check_row_index_fits(rel.len());
            let (parent, ranges) = match level_of.get(shape.parents[u]) {
                Some(&p) => {
                    // A bag out of parent-key order is copied sorted — at
                    // most once: the copy is in order.
                    let runs = loop {
                        match KeyRuns::of(&rel, up_key) {
                            Some(runs) => break runs,
                            None => rel = Arc::new(rel.sorted_by(up_key)),
                        }
                    };
                    (p, runs.ranges(&levels[p].rel, &shape.parent_key[u]))
                }
                // The root's range is every row, in any order.
                None => (0, Vec::new()),
            };
            // The parent-shared columns hold the values the parent's row
            // already wrote; only the bag's own columns are written.
            let write = (0..rel.arity())
                .filter(|c| !up_key.contains(c))
                .map(|c| (c, rel.vars()[c].idx()))
                .collect();
            level_of[u] = levels.len();
            levels.push(EnumLevel {
                rel,
                write,
                parent,
                ranges,
            });
        }
        EnumPlan {
            levels,
            num_vars: shape.num_vars,
        }
    }

    /// One counting-DP merge: node `u`'s per-base-row extension counts,
    /// the product over `u`'s children of the child counts summed by
    /// shared key. A row some child cannot extend gets 0, which is what
    /// dropping it would contribute to `u`'s own parent.
    fn count_node(&self, counts: &[Vec<u128>], u: usize) -> Vec<u128> {
        let shape = &*self.shape;
        let rel = &*self.relations[u];
        let mut cnt: Vec<u128> = Vec::new();
        for &c in &shape.children[u] {
            let (child, key) = (&*self.relations[c], &shape.up_key[c]);
            let agg = if shape.children[c].is_empty() {
                let leaf = || Arc::new(AggTable::build(child, key, None));
                Arc::clone(self.caches[c].leaf_agg.get_or_init(leaf))
            } else {
                Arc::new(AggTable::build(child, key, Some(&counts[c])))
            };
            let key_cols = &shape.parent_key[c];
            let mut scratch = vec![0u64; key_cols.len()];
            let mut sum_for = |t: &[u64]| {
                for (s, &p) in scratch.iter_mut().zip(key_cols) {
                    *s = t[p];
                }
                agg.get(&scratch)
            };
            if cnt.is_empty() {
                // First child: its sums are the counts so far.
                cnt = rel.iter().map(sum_for).collect();
            } else {
                for (t, n) in rel.iter().zip(&mut cnt).filter(|(_, n)| **n != 0) {
                    *n *= sum_for(t);
                }
            }
        }
        cnt
    }
}

// ---------------------------------------------------------------------
// GHD-guided enumeration (preprocessing + constant-delay streaming).
// ---------------------------------------------------------------------

/// One bag of the reduced decomposition tree, prepared for top-down
/// enumeration (pre-order position).
#[derive(Debug)]
struct EnumLevel {
    /// The fully semijoin-reduced bag relation with its rows ordered by
    /// the parent-shared columns (`up_key`): the base materialization's
    /// own `Arc` where the reduction dropped no row and the rows already
    /// are in that order, the reduction's filtered copy where it is in
    /// order, a reordered copy otherwise.
    rel: Arc<FlatRelation>,
    /// `(column, assignment slot)` of each of `rel`'s columns the parent
    /// bag does not share — every column at the root.
    write: Vec<(usize, usize)>,
    /// Pre-order position of the parent bag's level (0 at the root,
    /// where it is unused).
    parent: usize,
    /// Per row of the parent level's relation, the `[lo, hi)` range of
    /// `rel`'s rows that agree with it on the shared columns: the
    /// Durand–Grandjean pointer from a bag tuple to its compatible child
    /// tuples. Never empty on a two-way-reduced tree. Empty at the root,
    /// whose range is every row.
    ranges: Vec<[u32; 2]>,
}

/// The memoized result of a tree's two-way reduction, wired for
/// enumeration: the globally consistent bag relations in pre-order
/// (parents before children), each ordered by its parent-shared columns
/// and pointed at from every parent row by a row range. Immutable and
/// `Arc`-shared by every [`GhdEnumerator`] of the tree. No levels = no
/// answers.
///
/// What it pins beyond the base materialization: a filtered copy of each
/// bag the reduction shrank, a reordered copy of each bag whose rows are
/// not in parent-key order (none on a chain whose bags are its atoms in
/// order), and 8 bytes of range per parent row. It holds no probe table.
#[derive(Debug, Default)]
struct EnumPlan {
    levels: Vec<EnumLevel>,
    /// Answer tuple width.
    num_vars: usize,
}

/// A streaming answer enumerator over a semijoin-reduced GHD bag tree
/// (created by [`MaterializedBags::enumerator`]).
///
/// After the two reduction passes every bag row extends to at least one
/// full answer, so the top-down walk never backtracks out of a dead end.
/// The plan points each parent row at the contiguous range of its
/// compatible child rows, so descending into a level is **one array
/// read** (`ranges[parent row]`) and advancing within it is `r + 1` —
/// no hashing, no key comparison, no probe table. Each answer, the first
/// included, settles or advances at most `2 × levels` rows, independent
/// of the database: the constant-delay regime of Durand & Grandjean /
/// Carmeli & Kröll, with the `O(‖D‖^k)` work confined to the
/// preprocessing the tree runs once. The enumerator itself is a cursor:
/// a shared reference to the plan plus its own position.
///
/// [`GhdEnumerator::advance`] is the walk; it lends the answer in place.
/// [`Iterator::next`] copies it out for callers that keep answers.
///
/// Answers are full assignments in `Var` id order (the same shape
/// [`enumerate_naive`] produces) but **not** in sorted order; sort the
/// collected prefix if a canonical order is needed. The order is fixed
/// by the tree: every enumerator of one tree yields the same sequence.
#[derive(Debug)]
pub struct GhdEnumerator {
    plan: Arc<EnumPlan>,
    /// Current answer under construction, indexed by `Var` id.
    assignment: Vec<u64>,
    /// Current row per level.
    row: Vec<u32>,
    /// End of the current row range per level.
    end: Vec<u32>,
    started: bool,
    done: bool,
    /// Levels settled or advanced so far (the constant-delay tests'
    /// measure).
    #[cfg(test)]
    steps: usize,
}

impl GhdEnumerator {
    /// A cursor at the start of `plan`'s answers.
    fn open(plan: Arc<EnumPlan>) -> GhdEnumerator {
        GhdEnumerator {
            assignment: vec![0; plan.num_vars],
            row: vec![0; plan.levels.len()],
            end: vec![0; plan.levels.len()],
            started: false,
            done: plan.levels.is_empty(),
            plan,
            #[cfg(test)]
            steps: 0,
        }
    }

    /// The next answer, lent in place (a full assignment in `Var` id
    /// order, valid until the next call); `None` once the answers are
    /// exhausted, and on every call after that.
    pub fn advance(&mut self) -> Option<&[u64]> {
        if self.done {
            return None;
        }
        let found = if self.started {
            self.search(self.plan.levels.len() - 1, true)
        } else {
            self.started = true;
            self.search(0, false)
        };
        if !found {
            self.done = true;
            return None;
        }
        Some(&self.assignment)
    }

    /// Settle level `d` on a row — the next one in its range if
    /// `advance`, else the first of the range its parent's current row
    /// points at — bind it into the assignment, then settle all deeper
    /// levels on the first row of theirs. Backtracks on exhaustion;
    /// `false` means the walk is done.
    fn search(&mut self, mut d: usize, mut advance: bool) -> bool {
        let levels = &self.plan.levels;
        loop {
            #[cfg(test)]
            {
                self.steps += 1;
            }
            let level = &levels[d];
            let (r, end) = if advance {
                (self.row[d] + 1, self.end[d])
            } else if d == 0 {
                (0, level.rel.len() as u32)
            } else {
                let [lo, hi] = level.ranges[self.row[level.parent] as usize];
                (lo, hi)
            };
            if r < end {
                let row = level.rel.row(r as usize);
                for &(c, slot) in &level.write {
                    self.assignment[slot] = row[c];
                }
                self.row[d] = r;
                self.end[d] = end;
                if d + 1 == levels.len() {
                    return true;
                }
                d += 1;
                advance = false;
            } else {
                // Exhausted at `d` (on a reduced tree this only happens
                // when the range is consumed, never on first entry).
                if d == 0 {
                    return false;
                }
                d -= 1;
                advance = true;
            }
        }
    }
}

impl Iterator for GhdEnumerator {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        self.advance().map(<[u64]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DatabaseDelta;
    use crate::generate::{canonical_query, planted_database, random_database};
    use cqd2_decomp::widths::ghw_decomposition;
    use cqd2_hypergraph::generators::{hyperchain, hypercycle};
    use std::collections::HashSet;

    /// The bag tree along an exact GHD of `q`'s hypergraph.
    fn bags(q: &ConjunctiveQuery, db: &Database) -> MaterializedBags {
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        MaterializedBags::build(q, db, &ghd).unwrap()
    }

    fn path_query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])])
    }

    #[test]
    fn naive_path_query() {
        let q = path_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5]]);
        db.insert_all("S", &[vec![2, 3], vec![2, 9]]);
        assert!(bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 2);
        let sols = enumerate_naive(&q, &db);
        assert_eq!(sols, vec![vec![1, 2, 3], vec![1, 2, 9]]);
    }

    #[test]
    fn naive_no_solution() {
        let q = path_query();
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        db.insert("S", &[3, 4]);
        assert!(!bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 0);
    }

    #[test]
    fn ghd_agrees_with_naive_on_path() {
        let q = path_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5], vec![7, 8]]);
        db.insert_all("S", &[vec![2, 3], vec![5, 6]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        assert!(bags.bcq());
        assert_eq!(bags.count(), 2);
    }

    #[test]
    fn triangle_query_with_planted_solution() {
        let q = ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("T", &["?z", "?x"]),
        ]);
        let db = planted_database(&q, 20, 30, 3);
        assert!(bcq_naive(&q, &db));
        assert!(bags(&q, &db).bcq());
        assert_eq!(bags(&q, &db).count(), count_naive(&q, &db));
    }

    #[test]
    fn evaluators_agree_on_random_instances() {
        for seed in 0..8 {
            let h = if seed % 2 == 0 {
                hyperchain(3, 3)
            } else {
                hypercycle(4, 2)
            };
            let q = canonical_query(&h);
            let db = random_database(&q, 6, 25, seed);
            let naive = bcq_naive(&q, &db);
            let via = bags(&q, &db);
            assert_eq!(naive, via.bcq(), "BCQ mismatch on seed {seed}");
            let cn = count_naive(&q, &db);
            let cg = via.count();
            assert_eq!(cn, cg, "#CQ mismatch on seed {seed}");
        }
    }

    #[test]
    fn ghd_route_matches_a_full_join_on_thousands_of_rows() {
        // A few thousand bound tuples per query: answers must match a
        // full join computed with the reference row store (the naive
        // backtracker has no index and would need ~n³ work at this size).
        let q = canonical_query(&hyperchain(3, 2));
        let db = random_database(&q, 1000, 1621, 11);
        assert!(db.size() >= 4096, "fixture too small");
        let mut joined = crate::relation::VRelation::unit();
        for atom in &q.atoms {
            joined = joined.join(&crate::relation::VRelation::bind(atom, &db));
        }
        let expected = joined.tuples.len() as u128;
        let bags = bags(&q, &db);
        assert_eq!(bags.bcq(), expected > 0);
        assert_eq!(bags.count(), expected);
    }

    #[test]
    fn constants_and_repeats_in_evaluation() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"]), ("S", &["?x", "?y"])]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 1, 5], vec![2, 3, 5], vec![4, 4, 6]]);
        db.insert_all("S", &[vec![1, 10], vec![1, 11], vec![4, 12]]);
        assert!(bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 2); // x=1 with y in {10,11}
        assert_eq!(bags(&q, &db).count(), 2);
    }

    #[test]
    fn empty_query_edge_cases() {
        // All-constant atom: acts as an existence check.
        let q = ConjunctiveQuery::parse(&[("R", &["1", "2"])]);
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        assert!(bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 1); // the empty assignment
        let mut db2 = Database::new();
        db2.insert("R", &[9, 9]);
        assert!(!bcq_naive(&q, &db2));
    }

    /// Collected-and-sorted view of the streaming enumerator, for
    /// comparisons against `enumerate_naive` (which sorts).
    fn enumerate_ghd_sorted(q: &ConjunctiveQuery, db: &Database, ghd: &Ghd) -> Vec<Vec<u64>> {
        let bags = MaterializedBags::build(q, db, ghd).unwrap();
        let mut out: Vec<Vec<u64>> = bags.enumerator().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn ghd_enumeration_matches_naive_on_path() {
        let q = path_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5], vec![7, 8]]);
        db.insert_all("S", &[vec![2, 3], vec![2, 9], vec![5, 6]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        assert_eq!(
            enumerate_ghd_sorted(&q, &db, &ghd),
            enumerate_naive(&q, &db)
        );
    }

    #[test]
    fn ghd_enumeration_streams_lazily_and_completely() {
        let q = canonical_query(&hypercycle(5, 2));
        let db = planted_database(&q, 7, 30, 13);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        let total = bags.count();
        assert!(total > 0, "planted instance must have answers");
        // A limited pull sees exactly min(limit, total) answers…
        let mut cursor = bags.enumerator();
        let first: Vec<_> = cursor.by_ref().take(2).collect();
        assert_eq!(first.len() as u128, total.min(2));
        // …and draining the rest completes the answer set, fused at the end.
        let rest: Vec<_> = cursor.by_ref().collect();
        assert_eq!((first.len() + rest.len()) as u128, total);
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn ghd_enumeration_empty_results() {
        let q = path_query();
        // Entirely empty database.
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let empty = Database::new();
        let bags = MaterializedBags::build(&q, &empty, &ghd).unwrap();
        assert_eq!(bags.enumerator().count(), 0);
        // Non-empty relations that do not join.
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        db.insert("S", &[3, 4]);
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        assert_eq!(bags.enumerator().count(), 0);
    }

    #[test]
    fn ghd_enumeration_handles_constants_and_repeats() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"]), ("S", &["?x", "?y"])]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 1, 5], vec![2, 3, 5], vec![4, 4, 6]]);
        db.insert_all("S", &[vec![1, 10], vec![1, 11], vec![4, 12]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        assert_eq!(
            enumerate_ghd_sorted(&q, &db, &ghd),
            enumerate_naive(&q, &db)
        );
    }

    #[test]
    fn invalid_ghd_is_a_typed_error() {
        let q = path_query();
        let other = canonical_query(&hypercycle(6, 2));
        let foreign = ghw_decomposition(&other.hypergraph()).unwrap();
        let db = Database::new();
        let err = MaterializedBags::build(&q, &db, &foreign).unwrap_err();
        assert!(matches!(err, EvalError::InvalidGhd(_)), "{err}");
        // The hierarchy is a real `std::error::Error` with a source chain.
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.source().is_some());
    }

    #[test]
    fn cartesian_product_counting() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x"]), ("S", &["?y"])]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1], vec![2], vec![3]]);
        db.insert_all("S", &[vec![7], vec![8]]);
        assert_eq!(count_naive(&q, &db), 6);
        assert_eq!(bags(&q, &db).count(), 6);
    }

    /// Three-atom chain: R–S–T decomposes into a multi-bag tree, so a
    /// delta to one relation dirties a proper subset of bags.
    fn chain_query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("T", &["?z", "?w"]),
        ])
    }

    #[test]
    fn recipes_join_each_atom_once_and_same_edge_atoms_still_filter() {
        // Width-1 chain: every bag's variables are exactly its cover
        // atom's, so the bag *is* that atom's binding — row for row, in
        // order — and no recipe joins its cover atom a second time.
        let q = chain_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![7, 8], vec![1, 2], vec![4, 5]]);
        db.insert_all("S", &[vec![5, 6], vec![2, 3], vec![2, 9]]);
        db.insert_all("T", &[vec![3, 30], vec![6, 60], vec![6, 61]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        let mut whole_atom_bags = 0;
        for (u, recipe) in bags.shape.recipes.iter().enumerate() {
            assert!(recipe.assigned_atoms.is_empty(), "bag {u}: {recipe:?}");
            let [ai] = recipe.cover_atoms[..] else {
                panic!("bag {u} of a width-1 chain has one cover atom: {recipe:?}");
            };
            if recipe.bag_vars == q.atoms[ai].vars() {
                assert_eq!(*bags.relations[u], FlatRelation::bind(&q.atoms[ai], &db));
                whole_atom_bags += 1;
            }
        }
        assert!(whole_atom_bags >= 2, "{:?}", bags.shape.recipes);
        assert_eq!(bags.count(), count_naive(&q, &db));

        // Two atoms over one variable set: only the edge representative
        // is in the cover, so the other one must still filter its bag.
        let q = ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?x", "?y"]),
            ("T", &["?y", "?z"]),
        ]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![3, 4], vec![5, 6]]);
        db.insert_all("S", &[vec![1, 2], vec![5, 6], vec![9, 9]]);
        db.insert_all("T", &[vec![2, 7], vec![4, 8], vec![6, 9], vec![6, 10]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        let assigned: Vec<usize> = bags
            .shape
            .recipes
            .iter()
            .flat_map(|r| r.assigned_atoms.iter().copied())
            .collect();
        assert_eq!(assigned.len(), 1, "{:?}", bags.shape.recipes);
        assert_eq!(bags.count(), 3);
        assert_eq!(bags.count(), count_naive(&q, &db));
    }

    #[test]
    fn refresh_rebuilds_only_dirty_bags_and_matches_fresh_build() {
        let q = chain_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5], vec![7, 8]]);
        db.insert_all("S", &[vec![2, 3], vec![5, 6]]);
        db.insert_all("T", &[vec![3, 30], vec![6, 60], vec![6, 61]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        // Warm the caches with a full pass mix before refreshing.
        assert!(bags.bcq());
        assert!(bags.count() > 0);
        assert!(bags.enumerator().count() > 0);

        // Delta: grow T, leave R and S untouched.
        let mut delta = DatabaseDelta::new();
        delta.insert("T", vec![3, 31]);
        delta.delete("T", vec![6, 61]);
        let applied = db.apply_delta(&delta).unwrap();
        let (warm, stats) = bags.refresh(&q, &applied.db, &applied.touched);

        // Only the bags reading T were re-materialized.
        assert!(stats.rewritten >= 1, "delta must dirty at least one bag");
        assert!(
            stats.rewritten < stats.total,
            "a single-relation delta must keep some bag clean"
        );
        // Clean bags are shared by Arc identity, dirty ones are not.
        let mut shared = 0;
        for u in 0..bags.num_bags() {
            if Arc::ptr_eq(bags.bag_arc(u), warm.bag_arc(u)) {
                shared += 1;
            }
        }
        assert_eq!(shared, stats.total - stats.rewritten);
        // A table built from a re-materialized relation is not carried:
        // `up` / `leaf_agg` die with the node, `down` with its parent.
        let dirty = |u: usize| !Arc::ptr_eq(bags.bag_arc(u), warm.bag_arc(u));
        for u in 0..bags.num_bags() {
            let (cache, p) = (&warm.caches[u], warm.shape.parents[u]);
            if dirty(u) {
                assert!(cache.up.get().is_none() && cache.leaf_agg.get().is_none());
            }
            if p != usize::MAX && dirty(p) {
                assert!(cache.down.get().is_none());
            }
        }

        // The refreshed tree answers exactly like a cold rebuild.
        let fresh = MaterializedBags::build(&q, &applied.db, &ghd).unwrap();
        assert_eq!(warm.bcq(), fresh.bcq());
        assert_eq!(warm.count(), fresh.count());
        let mut a: Vec<_> = warm.enumerator().collect();
        let mut b: Vec<_> = fresh.enumerator().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(b, enumerate_naive(&q, &applied.db));
    }

    #[test]
    fn refresh_with_disjoint_delta_shares_everything() {
        let q = chain_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2]]);
        db.insert_all("S", &[vec![2, 3]]);
        db.insert_all("T", &[vec![3, 4]]);
        db.insert_all("Unrelated", &[vec![9]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        // Fill every cache family: bcq (up), count (leaf_agg),
        // enumerator (down).
        assert!(bags.bcq());
        assert_eq!(bags.count(), 1);
        assert_eq!(bags.enumerator().count(), 1);
        let mut delta = DatabaseDelta::new();
        delta.insert("Unrelated", vec![10]);
        let applied = db.apply_delta(&delta).unwrap();
        let (warm, stats) = bags.refresh(&q, &applied.db, &applied.touched);
        assert_eq!(stats.rewritten, 0);
        assert!(Arc::ptr_eq(&bags.shape, &warm.shape));
        // No probe table is rebuilt: each one filled before the refresh
        // is the same table after it.
        fn same<T>(a: &OnceLock<Arc<T>>, b: &OnceLock<Arc<T>>) -> bool {
            match (a.get(), b.get()) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
        }
        let mut filled = 0;
        for u in 0..bags.num_bags() {
            assert!(Arc::ptr_eq(bags.bag_arc(u), warm.bag_arc(u)));
            let (old, new) = (&bags.caches[u], &warm.caches[u]);
            assert!(same(&old.up, &new.up), "bag {u}: up table rebuilt");
            assert!(same(&old.down, &new.down), "bag {u}: down table rebuilt");
            assert!(
                same(&old.leaf_agg, &new.leaf_agg),
                "bag {u}: leaf agg rebuilt"
            );
            filled += usize::from(old.up.get().is_some())
                + usize::from(old.down.get().is_some())
                + usize::from(old.leaf_agg.get().is_some());
        }
        assert!(filled > 0, "the warm-up must have filled some cache");
        assert!(warm.bcq());
    }

    #[test]
    fn refresh_carries_clean_caches_and_stays_correct_across_rounds() {
        // Several delta rounds against a planted instance, comparing the
        // warm-refreshed tree against cold rebuilds each round (caches
        // from prior rounds must never leak stale rows into answers).
        let q = chain_query();
        let mut db = planted_database(&q, 40, 120, 17);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let mut warm = MaterializedBags::build(&q, &db, &ghd).unwrap();
        for round in 0u64..4 {
            // Warm every cache family: bcq (up), count (leaf_agg),
            // enumerator (down).
            let _ = warm.bcq();
            let _ = warm.count();
            let _ = warm.enumerator().count();
            let target = if round % 2 == 0 { "R" } else { "S" };
            let mut delta = DatabaseDelta::new();
            delta.insert(target, vec![1000 + round, 2000 + round]);
            if let Some(t) = db.relation(target).and_then(|r| r.tuples.iter().next()) {
                delta.delete(target, t.to_vec());
            }
            let applied = db.apply_delta(&delta).unwrap();
            let (next, stats) = warm.refresh(&q, &applied.db, &applied.touched);
            assert!(stats.rewritten > 0);
            let fresh = MaterializedBags::build(&q, &applied.db, &ghd).unwrap();
            assert_eq!(next.count(), fresh.count(), "round {round}");
            assert_eq!(next.bcq(), fresh.bcq(), "round {round}");
            assert_eq!(
                next.enumerator().count(),
                fresh.enumerator().count(),
                "round {round}"
            );
            db = applied.db;
            warm = next;
        }
    }
    /// The bushy fixture of `tests/overlay_differential.rs` (root `A`,
    /// two internal mid nodes, four leaves), for the tests below that
    /// need private access to the memo.
    fn bushy() -> (ConjunctiveQuery, Ghd) {
        use cqd2_decomp::TreeDecomposition;
        let q = ConjunctiveQuery::parse(&[
            ("A", &["?a", "?b"]),
            ("B0", &["?a", "?c", "?d"]),
            ("B1", &["?b", "?e", "?f"]),
            ("C0", &["?c", "?g"]),
            ("C1", &["?d", "?h"]),
            ("C2", &["?e", "?i"]),
            ("C3", &["?f", "?j"]),
        ]);
        let bags = [
            vec![0u32, 1],
            vec![0, 2, 3],
            vec![1, 4, 5],
            vec![2, 6],
            vec![3, 7],
            vec![4, 8],
            vec![5, 9],
        ]
        .into_iter()
        .map(|b| b.into_iter().map(VertexId).collect())
        .collect();
        let tree = vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
        let ghd = Ghd::from_td_exact(&q.hypergraph(), TreeDecomposition { bags, tree });
        ghd.validate(&q.hypergraph()).unwrap();
        (q, ghd)
    }

    /// One root row over three `B0` rows, two of which dangle (no `C0` /
    /// no `C1` partner), and two `B1` rows, one of which dangles.
    fn dangling_database() -> Database {
        let mut db = Database::new();
        db.insert_all("A", &[vec![1, 1]]);
        db.insert_all("B0", &[vec![1, 2, 3], vec![1, 5, 3], vec![1, 2, 7]]);
        db.insert_all("B1", &[vec![1, 4, 4], vec![1, 4, 8]]);
        db.insert_all("C0", &[vec![2, 10], vec![2, 11], vec![2, 12]]);
        db.insert_all("C1", &[vec![3, 20], vec![3, 21]]);
        db.insert_all("C2", &[vec![4, 30], vec![4, 31]]);
        db.insert_all("C3", &[vec![4, 40]]);
        db
    }

    /// The three-atom chain rooted at its `T` end: bag `{y, z}` shares
    /// `z`, its *second* column, with the root `{z, w}`, so its rows are
    /// not in parent-key order and the plan must reorder them.
    fn chain_rooted_at_t() -> (ConjunctiveQuery, Ghd) {
        use cqd2_decomp::TreeDecomposition;
        let q = chain_query();
        let bags = [vec![2u32, 3], vec![1, 2], vec![0, 1]]
            .into_iter()
            .map(|b| b.into_iter().map(VertexId).collect())
            .collect();
        let tree = vec![(0, 1), (1, 2)];
        let ghd = Ghd::from_td_exact(&q.hypergraph(), TreeDecomposition { bags, tree });
        ghd.validate(&q.hypergraph()).unwrap();
        (q, ghd)
    }

    #[test]
    fn enumeration_plan_is_globally_consistent() {
        // The specification of the two-way reduction: every relation of
        // the memoized plan is exactly the projection of `q(D)` onto its
        // bag's variables — no dangling row survives, no answer's row is
        // lost. The specification of the pointer structure: every bag's
        // rows are in parent-key order, and each parent row's range is
        // nonempty and holds exactly the rows that agree with it. A bag
        // the reduction left whole and that is already in parent-key
        // order is the base Arc.
        use std::collections::BTreeSet;
        let mut cases: Vec<(ConjunctiveQuery, Ghd, Database)> = Vec::new();
        let (q, ghd) = bushy();
        cases.push((q.clone(), ghd.clone(), dangling_database()));
        for seed in 0..2 {
            for db in [3, 8, 32].map(|domain| random_database(&q, domain, 40, seed)) {
                cases.push((q.clone(), ghd.clone(), db));
            }
            cases.push((q.clone(), ghd.clone(), random_database(&q, 2, 300, seed)));
        }
        let (q, ghd) = chain_rooted_at_t();
        for seed in 0..2 {
            cases.push((q.clone(), ghd.clone(), random_database(&q, 6, 20, seed)));
        }
        let (mut shrunk, mut whole, mut reordered) = (0, 0, 0);
        for (i, (q, ghd, db)) in cases.iter().enumerate() {
            let bags = MaterializedBags::build(q, db, ghd).unwrap();
            let answers = enumerate_naive(q, db);
            let (e, stats) = bags.enumerator_with_stats();
            let levels = &e.plan.levels;
            assert_eq!(levels.is_empty(), answers.is_empty(), "db {i}");
            for level in levels {
                let projected: BTreeSet<Vec<u64>> = answers
                    .iter()
                    .map(|a| level.rel.vars().iter().map(|v| a[v.idx()]).collect())
                    .collect();
                let held: BTreeSet<Vec<u64>> = level.rel.iter().map(<[u64]>::to_vec).collect();
                assert_eq!(held.len(), level.rel.len(), "db {i}: duplicate bag row");
                assert_eq!(held, projected, "db {i}: bag {:?}", level.rel.vars());
                let u = (0..bags.num_bags())
                    .find(|&u| bags.relations[u].vars() == level.rel.vars())
                    .unwrap();
                let up_key = &bags.shape.up_key[u];
                let in_order = |rel: &FlatRelation| KeyRuns::of(rel, up_key).is_some();
                assert!(in_order(&level.rel), "db {i}: bag {u}");
                if u != bags.shape.root {
                    let parent = &levels[level.parent].rel;
                    assert_eq!(parent.vars(), bags.relations[bags.shape.parents[u]].vars());
                    assert_eq!(level.ranges.len(), parent.len(), "db {i}: bag {u}");
                    let parent_key = &bags.shape.parent_key[u];
                    for (prow, &[lo, hi]) in parent.iter().zip(&level.ranges) {
                        let agrees = |r: &[u64]| {
                            (up_key.iter().zip(parent_key)).all(|(&c, &pc)| r[c] == prow[pc])
                        };
                        let all = level.rel.iter().filter(|r| agrees(r)).count();
                        assert!(lo < hi, "db {i}: bag {u}: empty range");
                        assert_eq!(all, (hi - lo) as usize, "db {i}: bag {u}");
                        assert!((lo..hi).all(|r| agrees(level.rel.row(r as usize))));
                    }
                }
                let base = &bags.relations[u];
                let left_whole = base.len() == level.rel.len();
                let in_order = in_order(base);
                let is_base = Arc::ptr_eq(base, &level.rel);
                assert_eq!(is_base, left_whole && in_order, "db {i}: bag {u}");
                whole += usize::from(is_base);
                reordered += usize::from(!in_order);
            }
            if !answers.is_empty() {
                shrunk += stats.rewritten;
            }
        }
        assert!(
            shrunk > 0 && whole > 0 && reordered > 0,
            "fixtures must cover every case: {shrunk} shrunk, {whole} whole, {reordered} reordered"
        );
    }

    /// Drain `e`, checking that every call — each answer, the first
    /// included, and the final `None` — settles or advances at most
    /// `2 × levels` rows and that no answer repeats. Returns the answers
    /// and the most steps one call took.
    fn drain_counting_steps(mut e: GhdEnumerator) -> (Vec<Vec<u64>>, usize) {
        let bound = 2 * e.plan.levels.len();
        let (mut seen, mut answers, mut max) = (HashSet::new(), Vec::new(), 0);
        loop {
            let before = e.steps;
            let answer = e.advance().map(<[u64]>::to_vec);
            let took = e.steps - before;
            assert!(took <= bound, "{took} steps for one answer, bound {bound}");
            max = max.max(took);
            let Some(answer) = answer else {
                return (answers, max);
            };
            assert!(seen.insert(answer.clone()), "answer {answer:?} repeated");
            answers.push(answer);
        }
    }

    #[test]
    fn enumeration_has_constant_delay() {
        let (q, ghd) = bushy();
        for db in [dangling_database(), random_database(&q, 3, 40, 1)] {
            let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
            let (mut got, _) = drain_counting_steps(bags.enumerator());
            got.sort_unstable();
            assert_eq!(got, enumerate_naive(&q, &db));
        }
        // Chains along the planner's decomposition and rooted at the far
        // end (the reordered plan): the most steps any one answer takes
        // is the same at 40, 400 and 4 000 rows per relation.
        let q = chain_query();
        let planned = ghw_decomposition(&q.hypergraph()).unwrap();
        let (_, reversed) = chain_rooted_at_t();
        for ghd in [planned, reversed] {
            let mut max_steps = Vec::new();
            for rows in [40, 400, 4_000] {
                let db = random_database(&q, rows as u64, rows, 7);
                let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
                let (got, max) = drain_counting_steps(bags.enumerator());
                assert!(got.len() > 1, "fixture at {rows} rows needs answers");
                assert_eq!(got.len() as u128, bags.count(), "{rows} rows");
                max_steps.push(max);
            }
            assert!(
                max_steps.iter().all(|&m| m == max_steps[0]),
                "steps per answer grew with the database: {max_steps:?}"
            );
        }
    }

    #[test]
    fn racing_first_callers_compute_each_pass_once() {
        let (q, ghd) = bushy();
        let db = random_database(&q, 8, 40, 3);
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        let expected = enumerate_naive(&q, &db);
        assert!(!expected.is_empty(), "fixture must have answers");
        // Eight threads released together onto the cold tree.
        let barrier = std::sync::Barrier::new(8);
        let plans: Vec<Arc<EnumPlan>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (bags, barrier, expected) = (&bags, &barrier, &expected);
                    s.spawn(move || {
                        barrier.wait();
                        match i % 3 {
                            0 => {
                                assert!(bags.bcq());
                                None
                            }
                            1 => {
                                assert_eq!(bags.count(), expected.len() as u128);
                                None
                            }
                            _ => {
                                let e = bags.enumerator();
                                let plan = Arc::clone(&e.plan);
                                let mut got: Vec<Vec<u64>> = e.collect();
                                got.sort_unstable();
                                assert_eq!(&got, expected);
                                Some(plan)
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert!(plans.len() >= 2);
        for plan in &plans {
            assert!(Arc::ptr_eq(plan, &plans[0]), "two reductions ran");
        }
        assert!(Arc::ptr_eq(&bags.enumerator().plan, &plans[0]));
        // The memo is what every later call reports.
        assert_eq!(bags.bcq_with_stats(), bags.bcq_with_stats());
        assert_eq!(bags.count_with_stats(), bags.count_with_stats());
        assert_eq!(
            bags.enumerator_with_stats().1,
            bags.enumerator_with_stats().1
        );
    }

    #[test]
    fn refresh_never_serves_a_stale_memo() {
        let (q, ghd) = bushy();
        let mut db = dangling_database();
        db.insert_all("Unrelated", &[vec![8]]);
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        assert_eq!(bags.memoized(), Memoized::default(), "build runs no pass");
        assert!(bags.bcq());
        assert_eq!(bags.count(), 12);
        assert_eq!(bags.enumerator().count(), 12);
        assert_eq!(
            bags.memoized(),
            Memoized {
                boolean: true,
                count: true,
                enumeration: true
            }
        );

        // A delta that gives a dangling `B0` row its `C0` partner grows
        // the *reduced* form of clean bags too: the memo must go.
        let mut delta = DatabaseDelta::new();
        delta.insert("C0", vec![5, 13]);
        let applied = db.apply_delta(&delta).unwrap();
        let (warm, stats) = bags.refresh(&q, &applied.db, &applied.touched);
        assert_eq!(stats.rewritten, 1);
        assert!(!Arc::ptr_eq(&bags.memo, &warm.memo));
        assert_eq!(warm.memoized(), Memoized::default(), "refresh runs no pass");
        let fresh = MaterializedBags::build(&q, &applied.db, &ghd).unwrap();
        assert_eq!(warm.bcq_with_stats(), fresh.bcq_with_stats());
        assert_eq!(warm.count(), 12 + 2 * 2);
        assert_eq!(warm.count(), fresh.count());
        let mut got: Vec<Vec<u64>> = warm.enumerator().collect();
        got.sort_unstable();
        assert_eq!(got, enumerate_naive(&q, &applied.db));
        // The old tree still answers its own epoch.
        assert_eq!(bags.count(), 12);

        // A delta that touches no bag changes no answer: same memo.
        let mut delta = DatabaseDelta::new();
        delta.insert("Unrelated", vec![9]);
        let applied = db.apply_delta(&delta).unwrap();
        let (same, stats) = bags.refresh(&q, &applied.db, &applied.touched);
        assert_eq!(stats.rewritten, 0);
        assert!(Arc::ptr_eq(&bags.memo, &same.memo));
        assert_eq!(same.count(), 12);
    }
}
