//! The columnar execution kernel: [`FlatRelation`].
//!
//! A [`FlatRelation`] stores all tuples in **one contiguous `Vec<u64>`
//! buffer** with a fixed stride (the arity): row `i` occupies
//! `data[i * arity .. (i + 1) * arity]`. It is the one relation layout
//! of the data plane: a `.cqds` section, a stored relation
//! ([`crate::database::StoredRelation::tuples`], sorted and distinct
//! over positional columns) and a bound relation are all this buffer,
//! so loading adopts a section after one verification, a delta merge
//! writes one, and [`FlatRelation::bind`] of an atom with no constant
//! and no repeated variable is a single buffer copy. Compared with the
//! row-store [`crate::relation::VRelation`] (`Vec<Vec<u64>>`, kept as
//! the reference implementation for differential tests), this layout
//!
//! - allocates **O(1)** buffers per operator instead of one `Vec` per
//!   tuple, per hash key, and per projection;
//! - resolves schemas (shared variables, key positions, output columns)
//!   **once per operator**, not per tuple;
//! - probes through the purpose-built `KeyTable` (crate-private, in
//!   `crate::probe`)
//!   (multiply–xor–shift hashing over flat `u32` chains — no SipHash, no
//!   per-key boxing) with **packed key slices**, so the probe side
//!   allocates nothing;
//! - filters in **fixed-size chunks**: [`FlatRelation::semijoin_filter`]
//!   first gathers and hashes key columns a chunk at a time (a
//!   branch-free, autovectorization-friendly loop), records survivors in
//!   a selection bitmask, and only then materializes output rows — and
//!   returns `None` when *every* row survives, so unchanged inputs are
//!   never copied at all (which is why a bag tree's reduction holds a
//!   second copy of only the bags it shrinks);
//! - runs the sort-based dedup **only where an operator can introduce
//!   duplicates**: binding an atom that drops positions (constants or
//!   repeated variables) and projections that drop columns. Joins and
//!   semijoins of duplicate-free inputs are duplicate-free by
//!   construction and skip the sort entirely;
//! - projects **without touching rows** when `keep` equals the column
//!   list, and by straight prefix copies when `keep` is a prefix.
//!
//! Every constructor establishes the invariant that rows are distinct;
//! all operators preserve it.

use crate::database::Database;
use crate::probe::KeyTable;
use crate::query::{Atom, Term, Var};
use std::collections::HashSet;

/// Rows per chunk in the chunked filter path: big enough to amortize the
/// loop split (gather+hash, then probe), small enough that the hash and
/// key scratch buffers stay L1-resident.
const FILTER_CHUNK: usize = 256;

/// A columnar relation: variables as columns, tuples packed row-major
/// into one flat buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatRelation {
    /// Column variables (distinct).
    pub(crate) vars: Vec<Var>,
    /// Number of rows (tracked explicitly: arity may be 0).
    pub(crate) rows: usize,
    /// `rows * vars.len()` values, row-major.
    pub(crate) data: Vec<u64>,
}

impl FlatRelation {
    /// The relation over no variables containing the empty tuple
    /// (the join identity).
    pub fn unit() -> FlatRelation {
        FlatRelation {
            vars: Vec::new(),
            rows: 1,
            data: Vec::new(),
        }
    }

    /// The empty relation over `vars`.
    pub fn empty(vars: Vec<Var>) -> FlatRelation {
        FlatRelation {
            vars,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Crate-internal constructor from pre-validated parts: the caller
    /// guarantees `data.len() == rows * vars.len()` and that rows are
    /// distinct (e.g. a filtered copy of an existing relation).
    pub(crate) fn from_parts(vars: Vec<Var>, rows: usize, data: Vec<u64>) -> FlatRelation {
        debug_assert_eq!(data.len(), rows * vars.len());
        FlatRelation { vars, rows, data }
    }

    /// Build from explicit rows (each of length `vars.len()`); duplicate
    /// rows are removed.
    pub fn from_rows(vars: Vec<Var>, tuples: &[Vec<u64>]) -> FlatRelation {
        let arity = vars.len();
        let mut data = Vec::with_capacity(tuples.len() * arity);
        for t in tuples {
            assert_eq!(t.len(), arity, "row length must match arity");
            data.extend_from_slice(t);
        }
        let mut rel = FlatRelation {
            vars,
            rows: tuples.len(),
            data,
        };
        rel.dedup();
        rel
    }

    /// Column variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The contiguous row-major buffer: `rows * arity` values, row `i`
    /// occupying `data[i * arity .. (i + 1) * arity]`. This is the
    /// exact layout the snapshot store persists (section-aligned, so a
    /// bulk read restores it without per-tuple work) — byte-for-byte
    /// comparable across a save/load round trip.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Rebuild a relation from a persisted row-major buffer. The shape
    /// (`data.len() == rows * vars.len()`) and the kernel's
    /// distinct-rows invariant (rows strictly increasing
    /// lexicographically — the canonical order every constructor
    /// establishes) are verified in `O(data.len())`; `None` means the
    /// buffer does not describe a valid relation and must not enter
    /// the kernel.
    pub fn from_flat(vars: Vec<Var>, rows: usize, data: Vec<u64>) -> Option<FlatRelation> {
        if rows.checked_mul(vars.len())? != data.len() {
            return None;
        }
        let rel = FlatRelation { vars, rows, data };
        rel.first_unsorted_row().is_none().then_some(rel)
    }

    /// Index of the first row that is not strictly greater than its
    /// predecessor; `None` exactly when the rows are in the canonical
    /// sorted-distinct order (a nullary relation holds the empty tuple
    /// at most once). The one sortedness verifier: [`Self::from_flat`]
    /// and the database's bulk loaders both ask it.
    pub(crate) fn first_unsorted_row(&self) -> Option<usize> {
        if self.vars.is_empty() {
            return (self.rows > 1).then_some(1);
        }
        let mut rows = self.data.chunks_exact(self.vars.len());
        let mut prev = rows.next()?;
        for (i, row) in rows.enumerate() {
            if prev >= row {
                return Some(i + 1);
            }
            prev = row;
        }
        None
    }

    /// Binary search for `tuple` among rows held in the canonical
    /// sorted-distinct order (a stored relation's): `Ok(row)` when
    /// present, else `Err(row)` with the row index that keeps the order
    /// — `slice::binary_search`'s contract, over row slices.
    ///
    /// The loop halves the window with one `<=` row compare per step and
    /// no early exit, and takes the step as a select: a random probe's
    /// three-way branch is one the predictor misses half the time. One
    /// three-way compare at the end decides `Ok` or `Err`.
    pub(crate) fn search(&self, tuple: &[u64]) -> Result<usize, usize> {
        if self.rows == 0 {
            return Err(0);
        }
        // `base` is the last row ≤ `tuple` found so far (or row 0).
        let (mut base, mut size) = (0, self.rows);
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            base = std::hint::select_unpredictable(self.row(mid) <= tuple, mid, base);
            size -= half;
        }
        match self.row(base).cmp(tuple) {
            std::cmp::Ordering::Equal => Ok(base),
            std::cmp::Ordering::Less => Err(base + 1),
            std::cmp::Ordering::Greater => Err(base),
        }
    }

    /// Insert `tuple` (of this relation's arity) as row `at`: one
    /// in-place splice of the buffer.
    pub(crate) fn insert_row(&mut self, at: usize, tuple: &[u64]) {
        debug_assert_eq!(tuple.len(), self.vars.len());
        let start = at * tuple.len();
        self.data.splice(start..start, tuple.iter().copied());
        self.rows += 1;
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Is the relation empty (no rows)?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a slice of the shared buffer.
    pub fn row(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.rows);
        let a = self.vars.len();
        &self.data[i * a..i * a + a]
    }

    /// Iterate over rows as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Copy out as owned tuples (tests and compatibility shims).
    pub fn to_tuples(&self) -> Vec<Vec<u64>> {
        self.iter().map(<[u64]>::to_vec).collect()
    }

    /// Position of `v` among the columns.
    fn col(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    /// [`FlatRelation::col`] for variables the caller has already
    /// established are present (shared-variable lists are computed by
    /// intersecting both schemas first). Centralizing the panic keeps
    /// the join kernels themselves free of `expect` calls.
    fn col_must(&self, v: Var) -> usize {
        // cqd2-lint: allow(panic-in-hot-path, reason = "callers intersect schemas before asking; absence is a join-kernel bug, not a data condition")
        self.col(v).expect("variable present in schema")
    }

    /// Bind `atom` against `db`: select tuples matching the atom's
    /// constants and repeated variables and project to one column per
    /// distinct variable. The per-position checks are resolved **once**
    /// here; the tuple loop is branch-light. An atom with no check to
    /// run — every position a distinct variable, which is every atom of
    /// a chain or canonical query — binds to the stored buffer itself
    /// under the atom's column names: **one buffer copy**, no row loop.
    /// A missing relation (or an arity mismatch) yields the empty
    /// result.
    pub fn bind(atom: &Atom, db: &Database) -> FlatRelation {
        // Resolved once: the projection map (first-occurrence position
        // of each distinct variable) and the selection checks —
        // positions that must hold a constant, positions that must
        // repeat an earlier one.
        let mut vars: Vec<Var> = Vec::new();
        let mut first_pos: Vec<usize> = Vec::new();
        let mut constants: Vec<(usize, u64)> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (i, term) in atom.terms.iter().enumerate() {
            match *term {
                Term::Const(c) => constants.push((i, c)),
                Term::Var(v) => match vars.iter().position(|&w| w == v) {
                    Some(k) => repeats.push((i, first_pos[k])),
                    None => {
                        vars.push(v);
                        first_pos.push(i);
                    }
                },
            }
        }
        let stored = match db.relation(&atom.relation) {
            Some(stored) if stored.arity == atom.terms.len() => &stored.tuples,
            _ => return FlatRelation::empty(vars),
        };
        if constants.is_empty() && repeats.is_empty() {
            return FlatRelation {
                vars,
                rows: stored.rows,
                data: stored.data.clone(),
            };
        }
        let mut data = Vec::with_capacity(stored.rows * vars.len());
        let mut rows = 0usize;
        for t in stored.iter() {
            if constants.iter().all(|&(i, c)| t[i] == c)
                && repeats.iter().all(|&(i, j)| t[i] == t[j])
            {
                data.extend(first_pos.iter().map(|&p| t[p]));
                rows += 1;
            }
        }
        let mut rel = FlatRelation { vars, rows, data };
        // Every check drops a position, and dropping positions can merge
        // distinct stored tuples.
        rel.dedup();
        rel
    }

    /// Natural join on shared variables. Schema resolution (shared
    /// variables, key and payload positions) happens once; the build side
    /// is `other`, probed with packed key slices. Duplicate-free inputs
    /// produce a duplicate-free output, so no dedup pass runs.
    pub fn join(&self, other: &FlatRelation) -> FlatRelation {
        let shared: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|&v| other.col(v).is_some())
            .collect();
        let other_extra: Vec<usize> = (0..other.vars.len())
            .filter(|&i| !shared.contains(&other.vars[i]))
            .collect();
        let mut out_vars = self.vars.clone();
        out_vars.extend(other_extra.iter().map(|&i| other.vars[i]));
        let out_arity = out_vars.len();

        if shared.is_empty() {
            // Cartesian product (also covers joins with `unit`).
            let mut data = Vec::with_capacity(self.rows * other.rows * out_arity);
            for r in self.iter() {
                for s in other.iter() {
                    data.extend_from_slice(r);
                    data.extend(other_extra.iter().map(|&p| s[p]));
                }
            }
            return FlatRelation {
                vars: out_vars,
                rows: self.rows * other.rows,
                data,
            };
        }

        let self_key: Vec<usize> = shared.iter().map(|&v| self.col_must(v)).collect();
        let other_key: Vec<usize> = shared.iter().map(|&v| other.col_must(v)).collect();
        check_row_index_fits(other.rows);
        // Build side indexed once by a flat chained table ([`KeyTable`]:
        // no SipHash, no per-key boxing); the probe side packs keys into
        // a reusable scratch buffer and walks ascending-row-id chains, so
        // match order (and output order) equals the insertion order the
        // previous HashMap index produced.
        let table = KeyTable::build(other, &other_key);
        let mut data = Vec::new();
        let mut rows = 0usize;
        let mut scratch: Vec<u64> = Vec::with_capacity(shared.len());
        for r in self.iter() {
            pack_key(&mut scratch, r, &self_key);
            for j in table.matches(&scratch) {
                let s = other.row(j as usize);
                data.extend_from_slice(r);
                data.extend(other_extra.iter().map(|&p| s[p]));
                rows += 1;
            }
        }
        FlatRelation {
            vars: out_vars,
            rows,
            data,
        }
    }

    /// Semijoin: keep the rows of `self` that join with some row of
    /// `other`. A thin wrapper over [`FlatRelation::semijoin_filter`]
    /// that clones `self` when every row survives.
    pub fn semijoin(&self, other: &FlatRelation) -> FlatRelation {
        match self.semijoin_filter(other) {
            Some(filtered) => filtered,
            None => self.clone(),
        }
    }

    /// Chunked semijoin filter: `Some(filtered)` with the surviving rows,
    /// or **`None` when every row survives** — the caller can keep using
    /// `self` unchanged, paying no copy (the bag tree's reduction shares
    /// its base relations on this).
    ///
    /// The filter runs in fixed-size chunks: key columns are gathered and
    /// hashed in a branch-free loop, survivors recorded in a selection
    /// bitmask, and output rows materialized only afterwards (and only if
    /// something dropped).
    pub fn semijoin_filter(&self, other: &FlatRelation) -> Option<FlatRelation> {
        let shared: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|&v| other.col(v).is_some())
            .collect();
        if shared.is_empty() {
            // Vacuous sharing: a nonempty `other` keeps everything, an
            // empty one drops everything.
            return if other.is_empty() && !self.is_empty() {
                Some(FlatRelation::empty(self.vars.clone()))
            } else {
                None
            };
        }
        let self_key: Vec<usize> = shared.iter().map(|&v| self.col_must(v)).collect();
        let other_key: Vec<usize> = shared.iter().map(|&v| other.col_must(v)).collect();
        let table = KeyTable::build(other, &other_key);
        self.semijoin_filter_with(&table, &self_key)
    }

    /// [`FlatRelation::semijoin_filter`] against a prebuilt probe table
    /// (`table` keyed on the build side's shared columns, `self_key` the
    /// matching columns of `self`, same variable order). Lets tree passes
    /// reuse one table across runs when the build side is unchanged.
    pub(crate) fn semijoin_filter_with(
        &self,
        table: &KeyTable,
        self_key: &[usize],
    ) -> Option<FlatRelation> {
        debug_assert_eq!(table.key_width(), self_key.len());
        let n = self.rows;
        if n == 0 {
            return None; // empty stays empty: unchanged
        }
        let arity = self.arity();
        let k = self_key.len();
        let mut mask = vec![0u64; n.div_ceil(64)];
        let mut kept = 0usize;
        let mut hashes = [0u64; FILTER_CHUNK];
        let mut keys = vec![0u64; FILTER_CHUNK * k];
        let mut base = 0usize;
        while base < n {
            let m = FILTER_CHUNK.min(n - base);
            // Gather + hash: straight-line arithmetic over the strided
            // buffer, no data-dependent branches.
            if k == 1 {
                let c = self_key[0];
                for (j, (key, hash)) in keys[..m].iter_mut().zip(&mut hashes[..m]).enumerate() {
                    let v = self.data[(base + j) * arity + c];
                    *key = v;
                    *hash = crate::probe::hash1(v);
                }
            } else {
                for j in 0..m {
                    let row = &self.data[(base + j) * arity..(base + j + 1) * arity];
                    for (t, &c) in self_key.iter().enumerate() {
                        keys[j * k + t] = row[c];
                    }
                    hashes[j] = crate::probe::hash_key(&keys[j * k..j * k + k]);
                }
            }
            // Probe: set survivor bits in the selection mask.
            for j in 0..m {
                if table.contains_hashed(hashes[j], &keys[j * k..j * k + k]) {
                    let i = base + j;
                    mask[i >> 6] |= 1u64 << (i & 63);
                    kept += 1;
                }
            }
            base += m;
        }
        if kept == n {
            return None; // all rows survive: unchanged
        }
        let mut data = Vec::with_capacity(kept * arity);
        for i in 0..n {
            if mask[i >> 6] >> (i & 63) & 1 == 1 {
                data.extend_from_slice(&self.data[i * arity..(i + 1) * arity]);
            }
        }
        Some(FlatRelation::from_parts(self.vars.clone(), kept, data))
    }

    /// A copy with the rows stably sorted by the key columns `cols`
    /// (lexicographic over `cols`; rows with equal keys keep their
    /// relative order). [`KeyRuns::of`] tells whether a relation needs
    /// it: one in canonical order is already ordered by any prefix of its
    /// columns.
    pub(crate) fn sorted_by(&self, cols: &[usize]) -> FlatRelation {
        check_row_index_fits(self.rows);
        let key = |i: u32| -> Vec<u64> {
            let row = self.row(i as usize);
            cols.iter().map(|&c| row[c]).collect()
        };
        let mut idx: Vec<u32> = (0..self.rows as u32).collect();
        idx.sort_by_cached_key(|&i| key(i));
        let mut data = Vec::with_capacity(self.data.len());
        for &i in &idx {
            data.extend_from_slice(self.row(i as usize));
        }
        FlatRelation::from_parts(self.vars.clone(), self.rows, data)
    }

    /// Reference semijoin on std hashing (`HashSet`, SipHash): the
    /// implementation [`FlatRelation::semijoin`] replaced, kept for
    /// differential tests and as the baseline the `relation_ops` bench
    /// gates the chunked path against.
    pub fn semijoin_reference(&self, other: &FlatRelation) -> FlatRelation {
        let shared: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|&v| other.col(v).is_some())
            .collect();
        if shared.is_empty() {
            return if other.is_empty() {
                FlatRelation::empty(self.vars.clone())
            } else {
                self.clone()
            };
        }
        let self_key: Vec<usize> = shared.iter().map(|&v| self.col_must(v)).collect();
        let other_key: Vec<usize> = shared.iter().map(|&v| other.col_must(v)).collect();
        let mut data = Vec::new();
        let mut rows = 0usize;
        if shared.len() == 1 {
            let (sp, op) = (self_key[0], other_key[0]);
            let keys: HashSet<u64> = other.iter().map(|s| s[op]).collect();
            for r in self.iter() {
                if keys.contains(&r[sp]) {
                    data.extend_from_slice(r);
                    rows += 1;
                }
            }
        } else {
            let mut keys: HashSet<Box<[u64]>> = HashSet::with_capacity(other.rows);
            let mut scratch: Vec<u64> = Vec::with_capacity(shared.len());
            for s in other.iter() {
                pack_key(&mut scratch, s, &other_key);
                if !keys.contains(scratch.as_slice()) {
                    keys.insert(scratch.as_slice().into());
                }
            }
            for r in self.iter() {
                pack_key(&mut scratch, r, &self_key);
                if keys.contains(scratch.as_slice()) {
                    data.extend_from_slice(r);
                    rows += 1;
                }
            }
        }
        FlatRelation {
            vars: self.vars.clone(),
            rows,
            data,
        }
    }

    /// Project to `keep` (order taken from `keep`; unknown variables are
    /// an error). Keeping every column in place is zero-copy per row (a
    /// buffer clone); a strict prefix copies contiguous slices; only
    /// projections that *drop* columns pay the dedup sort.
    pub fn project(&self, keep: &[Var]) -> FlatRelation {
        let pos: Vec<usize> = keep.iter().map(|&v| self.col_must(v)).collect();
        if keep == self.vars.as_slice() {
            return self.clone();
        }
        let arity = self.arity();
        let k = keep.len();
        let mut out = FlatRelation {
            vars: keep.to_vec(),
            rows: self.rows,
            data: Vec::with_capacity(self.rows * k),
        };
        if pos.iter().enumerate().all(|(i, &p)| i == p) {
            // Prefix projection: straight per-row prefix copies.
            for r in self.iter() {
                out.data.extend_from_slice(&r[..k]);
            }
        } else {
            for r in self.iter() {
                out.data.extend(pos.iter().map(|&p| r[p]));
            }
        }
        // Only a *permutation* of the columns is guaranteed to keep rows
        // distinct; dropping a column — or repeating one while another
        // is dropped — can merge rows and needs the dedup.
        let mut hit = vec![false; arity];
        let is_permutation =
            k == arity && pos.iter().all(|&p| !std::mem::replace(&mut hit[p], true));
        if !is_permutation {
            out.dedup();
        }
        out
    }

    /// Sort rows lexicographically and remove duplicates. Operators call
    /// this only where duplicates can actually arise; it is public so the
    /// benches can measure it in isolation.
    pub fn dedup(&mut self) {
        let a = self.vars.len();
        if a == 0 {
            self.rows = self.rows.min(1);
            return;
        }
        if self.rows <= 1 {
            return;
        }
        check_row_index_fits(self.rows);
        let mut idx: Vec<u32> = (0..self.rows as u32).collect();
        let data = &self.data;
        idx.sort_unstable_by(|&i, &j| {
            data[i as usize * a..i as usize * a + a].cmp(&data[j as usize * a..j as usize * a + a])
        });
        let mut out: Vec<u64> = Vec::with_capacity(self.data.len());
        for &i in &idx {
            let row = &self.data[i as usize * a..i as usize * a + a];
            if out.len() < a || &out[out.len() - a..] != row {
                out.extend_from_slice(row);
            }
        }
        self.rows = out.len() / a;
        self.data = out;
    }
}

/// The distinct values a relation ordered by the key columns `cols`
/// holds in those columns, each with the contiguous range of rows that
/// holds it: "the rows that agree with this key" becomes one search over
/// the sorted distinct keys. Built and dropped while an enumeration plan
/// is wired; the plan keeps only the ranges.
pub(crate) struct KeyRuns {
    /// The distinct keys, ascending: a sorted-distinct relation over the
    /// key columns, one row per run.
    keys: FlatRelation,
    /// First row of each key's run, then the row count.
    starts: Vec<u32>,
}

impl KeyRuns {
    /// One pass over `rel`: its distinct keys in `cols` with their row
    /// ranges — or `None` when the rows are not ordered by `cols` (some
    /// key is smaller than the one before it), and the caller sorts them
    /// first ([`FlatRelation::sorted_by`]).
    pub(crate) fn of(rel: &FlatRelation, cols: &[usize]) -> Option<KeyRuns> {
        check_row_index_fits(rel.rows);
        let k = cols.len();
        let (mut keys, mut starts): (Vec<u64>, Vec<u32>) = (Vec::new(), Vec::new());
        for (i, row) in rel.iter().enumerate() {
            // The previous run's key sits at the end of `keys`.
            let last = &keys[keys.len().saturating_sub(k)..];
            let key = cols.iter().map(|&c| row[c]);
            match key.clone().cmp(last.iter().copied()) {
                std::cmp::Ordering::Less if !starts.is_empty() => return None,
                std::cmp::Ordering::Equal if !starts.is_empty() => continue,
                _ => {}
            }
            keys.extend(key);
            starts.push(i as u32);
        }
        let vars = cols.iter().map(|&c| rel.vars[c]).collect();
        let keys = FlatRelation::from_parts(vars, starts.len(), keys);
        starts.push(rel.rows as u32);
        Some(KeyRuns { keys, starts })
    }

    /// For each row of `parent`, the `[lo, hi)` range of rows whose key
    /// equals the row's `parent_cols` (same column order as this index's
    /// `cols`) — empty when no row's does; an empty key matches every
    /// row. A binary search per parent row ([`FlatRelation::search`]);
    /// one-column keys that are dense (span fewer than [`DENSE_SPAN`]
    /// values per distinct key) are looked up in a direct table
    /// instead, one read per parent row.
    pub(crate) fn ranges(&self, parent: &FlatRelation, parent_cols: &[usize]) -> Vec<[u32; 2]> {
        debug_assert_eq!(parent_cols.len(), self.keys.arity());
        let range =
            |run: Option<usize>| run.map_or([0, 0], |j| [self.starts[j], self.starts[j + 1]]);
        let keys = self.keys.data();
        if let ([c], Some(&min), Some(&max)) = (parent_cols, keys.first(), keys.last()) {
            let span = max - min;
            if span < DENSE_SPAN * keys.len() as u64 {
                let mut run_of = vec![u32::MAX; span as usize + 1];
                for (j, &key) in keys.iter().enumerate() {
                    run_of[(key - min) as usize] = j as u32;
                }
                let run = |v: u64| match v.checked_sub(min).and_then(|d| run_of.get(d as usize)) {
                    Some(&j) if j != u32::MAX => Some(j as usize),
                    _ => None,
                };
                return parent.iter().map(|row| range(run(row[*c]))).collect();
            }
        }
        let mut key = Vec::with_capacity(parent_cols.len());
        (parent.iter())
            .map(|row| {
                pack_key(&mut key, row, parent_cols);
                range(self.keys.search(&key).ok())
            })
            .collect()
    }
}

/// One-column keys spanning fewer than this many values per distinct key
/// are dense: [`KeyRuns::ranges`] indexes them through a direct table of
/// at most `4 × DENSE_SPAN` bytes per key, built and dropped with the
/// ranges.
const DENSE_SPAN: u64 = 16;

/// Pack the key columns of `row` into `scratch` (cleared first).
fn pack_key(scratch: &mut Vec<u64>, row: &[u64], pos: &[usize]) {
    scratch.clear();
    scratch.extend(pos.iter().map(|&p| row[p]));
}

/// Row indices inside hash buckets and the dedup permutation are `u32`
/// (halving index-buffer memory); fail loudly rather than silently
/// truncating on relations beyond 2^32 rows.
pub(crate) fn check_row_index_fits(rows: usize) {
    assert!(
        rows <= u32::MAX as usize,
        "FlatRelation limited to 2^32 rows (got {rows})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ConjunctiveQuery;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn rel(vars: &[u32], tuples: &[&[u64]]) -> FlatRelation {
        FlatRelation::from_rows(
            vars.iter().map(|&i| v(i)).collect(),
            &tuples.iter().map(|t| t.to_vec()).collect::<Vec<_>>(),
        )
    }

    fn sorted_tuples(r: &FlatRelation) -> Vec<Vec<u64>> {
        let mut t = r.to_tuples();
        t.sort_unstable();
        t
    }

    #[test]
    fn search_matches_slice_binary_search() {
        for arity in 0..=3u32 {
            // Every tuple over 0..8 in lexicographic order: the probes.
            let mut probes: Vec<Vec<u64>> = vec![Vec::new()];
            for _ in 0..arity {
                probes = probes
                    .iter()
                    .flat_map(|p| (0..8).map(move |x| [p.as_slice(), &[x]].concat()))
                    .collect();
            }
            // Rows on even values only, so odd values probe before,
            // between and after them.
            let rows: Vec<Vec<u64>> = probes
                .iter()
                .filter(|t| t.iter().all(|x| x % 2 == 0) && t.iter().sum::<u64>() % 4 == 0)
                .cloned()
                .collect();
            let vars: Vec<Var> = (0..arity).map(v).collect();
            for r in [
                FlatRelation::empty(vars.clone()),
                FlatRelation::from_rows(vars, &rows),
            ] {
                let tuples = r.to_tuples();
                assert!(tuples.windows(2).all(|w| w[0] < w[1]), "sorted-distinct");
                for p in &probes {
                    assert_eq!(r.search(p), tuples.binary_search(p), "arity {arity}: {p:?}");
                }
            }
        }
    }

    #[test]
    fn layout_and_accessors() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0).len(), 2);
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn flat_buffer_round_trips_through_from_flat() {
        let r = rel(&[0, 1], &[&[3, 4], &[1, 2]]);
        // from_rows dedup-sorted the rows, so the buffer is canonical.
        assert_eq!(r.data(), &[1, 2, 3, 4]);
        let back = FlatRelation::from_flat(r.vars().to_vec(), r.len(), r.data().to_vec())
            .expect("canonical buffer round-trips");
        assert_eq!(back, r);
        // Shape mismatch, unsorted rows, and duplicates are all rejected.
        assert!(FlatRelation::from_flat(vec![v(0), v(1)], 2, vec![1, 2, 3]).is_none());
        assert!(FlatRelation::from_flat(vec![v(0), v(1)], 2, vec![3, 4, 1, 2]).is_none());
        assert!(FlatRelation::from_flat(vec![v(0)], 2, vec![5, 5]).is_none());
        // Nullary relations: the empty tuple at most once, no buffer.
        assert!(FlatRelation::from_flat(vec![], 1, vec![]).is_some());
        assert!(FlatRelation::from_flat(vec![], 2, vec![]).is_none());
    }

    #[test]
    fn from_rows_dedups() {
        let r = rel(&[0], &[&[2], &[1], &[2]]);
        assert_eq!(sorted_tuples(&r), vec![vec![1], vec![2]]);
    }

    #[test]
    fn bind_handles_constants_and_repeats() {
        let mut db = Database::new();
        db.insert_all(
            "R",
            &[vec![1, 1, 5], vec![1, 2, 5], vec![2, 2, 7], vec![3, 3, 5]],
        );
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"])]);
        let r = FlatRelation::bind(&q.atoms[0], &db);
        assert_eq!(r.arity(), 1);
        assert_eq!(sorted_tuples(&r), vec![vec![1], vec![3]]);
    }

    #[test]
    fn bind_of_distinct_variables_is_the_stored_buffer() {
        use crate::relation::VRelation;
        let mut db = Database::new();
        db.insert_all(
            "R",
            &[vec![3, 1, 2], vec![1, 1, 5], vec![1, 2, 5], vec![2, 2, 7]],
        );
        // `S` takes Var(0), so R's columns are renamed away from the
        // stored relation's positional ones.
        let q = ConjunctiveQuery::parse(&[("S", &["?u"]), ("R", &["?c", "?a", "?b"])]);
        let stored = db.relation("R").unwrap();
        let bound = FlatRelation::bind(&q.atoms[1], &db);
        assert_eq!(bound.vars(), &[v(1), v(2), v(3)]);
        assert_eq!(bound.len(), stored.tuples.len());
        assert_eq!(bound.data(), stored.tuples.data());
        // A repeat (adjacent or permuting) or a constant still selects
        // and projects exactly like the reference row store.
        for terms in [
            ["?x", "?y", "?x"],
            ["?y", "?x", "?x"],
            ["?x", "2", "?y"],
            ["1", "?x", "5"],
        ] {
            let q = ConjunctiveQuery::parse(&[("R", &terms)]);
            let flat = FlatRelation::bind(&q.atoms[0], &db);
            let reference = VRelation::bind(&q.atoms[0], &db);
            assert_eq!(flat.vars(), reference.vars.as_slice(), "{terms:?}");
            assert_eq!(flat.to_tuples(), reference.tuples, "{terms:?}");
        }
    }

    #[test]
    fn bind_missing_or_mismatched_relation_is_empty() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x"])]);
        assert!(FlatRelation::bind(&q.atoms[0], &Database::new()).is_empty());
        let mut db = Database::new();
        db.insert("R", &[1, 2]); // arity 2 vs unary atom
        assert!(FlatRelation::bind(&q.atoms[0], &db).is_empty());
    }

    #[test]
    fn join_on_shared_variable() {
        let a = rel(&[0, 1], &[&[1, 2], &[2, 3]]);
        let b = rel(&[1, 2], &[&[2, 10], &[2, 11], &[9, 12]]);
        let j = a.join(&b);
        assert_eq!(j.vars(), &[v(0), v(1), v(2)]);
        assert_eq!(sorted_tuples(&j), vec![vec![1, 2, 10], vec![1, 2, 11]]);
    }

    #[test]
    fn join_multi_column_key() {
        let a = rel(&[0, 1, 2], &[&[1, 2, 7], &[1, 3, 8], &[2, 2, 9]]);
        let b = rel(&[0, 1, 3], &[&[1, 2, 70], &[1, 2, 71], &[2, 3, 72]]);
        let j = a.join(&b);
        assert_eq!(j.vars(), &[v(0), v(1), v(2), v(3)]);
        assert_eq!(
            sorted_tuples(&j),
            vec![vec![1, 2, 7, 70], vec![1, 2, 7, 71]]
        );
    }

    #[test]
    fn join_without_shared_is_product() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[7], &[8]]);
        assert_eq!(a.join(&b).len(), 4);
    }

    #[test]
    fn join_with_unit() {
        let a = rel(&[0], &[&[1]]);
        assert_eq!(a.join(&FlatRelation::unit()), a);
        assert_eq!(
            sorted_tuples(&FlatRelation::unit().join(&a)),
            sorted_tuples(&a)
        );
    }

    #[test]
    fn unit_and_empty_edge_cases() {
        let u = FlatRelation::unit();
        assert_eq!(u.len(), 1);
        assert_eq!(u.arity(), 0);
        assert_eq!(u.join(&u).len(), 1);
        let e = FlatRelation::empty(vec![v(0)]);
        assert!(e.join(&u).is_empty());
        assert!(u.join(&e).is_empty());
    }

    #[test]
    fn project_keep_all_and_prefix_and_scatter() {
        let a = rel(&[0, 1, 2], &[&[1, 2, 3], &[1, 2, 4]]);
        assert_eq!(a.project(&[v(0), v(1), v(2)]), a);
        let p = a.project(&[v(0), v(1)]);
        assert_eq!(sorted_tuples(&p), vec![vec![1, 2]]);
        let s = a.project(&[v(2), v(0)]);
        assert_eq!(sorted_tuples(&s), vec![vec![3, 1], vec![4, 1]]);
    }

    #[test]
    fn project_repeating_a_column_still_dedups() {
        // keep.len() == arity but not a permutation: repeating x while
        // dropping y merges the two rows; the distinct-rows invariant
        // must survive.
        let a = rel(&[0, 1], &[&[1, 2], &[1, 3]]);
        let p = a.project(&[v(0), v(0)]);
        assert_eq!(sorted_tuples(&p), vec![vec![1, 1]]);
    }

    #[test]
    fn semijoin_filters() {
        let a = rel(&[0, 1], &[&[1, 2], &[2, 3]]);
        let b = rel(&[1], &[&[2]]);
        assert_eq!(sorted_tuples(&a.semijoin(&b)), vec![vec![1, 2]]);
        // Disjoint semijoin: nonempty other keeps everything.
        let c = rel(&[9], &[&[5]]);
        assert_eq!(a.semijoin(&c).len(), 2);
        // Disjoint semijoin with empty other: empties.
        let e = FlatRelation::empty(vec![v(9)]);
        assert!(a.semijoin(&e).is_empty());
        // Multi-column semijoin key.
        let d = rel(&[0, 1], &[&[2, 3], &[9, 9]]);
        assert_eq!(sorted_tuples(&a.semijoin(&d)), vec![vec![2, 3]]);
    }

    #[test]
    fn semijoin_filter_reports_unchanged_as_none() {
        let a = rel(&[0, 1], &[&[1, 2], &[2, 3]]);
        // Every row survives: no copy, `None`.
        let all = rel(&[0], &[&[1], &[2]]);
        assert!(a.semijoin_filter(&all).is_none());
        // Some row drops: a filtered copy.
        let some = rel(&[0], &[&[1]]);
        let f = a.semijoin_filter(&some).unwrap();
        assert_eq!(sorted_tuples(&f), vec![vec![1, 2]]);
        // Vacuous sharing: nonempty other is unchanged, empty other
        // empties a nonempty self.
        let disjoint = rel(&[9], &[&[5]]);
        assert!(a.semijoin_filter(&disjoint).is_none());
        let e = FlatRelation::empty(vec![v(9)]);
        assert!(a.semijoin_filter(&e).unwrap().is_empty());
        // Empty self is unchanged by anything.
        let es = FlatRelation::empty(vec![v(0)]);
        assert!(es.semijoin_filter(&all).is_none());
        assert!(es.semijoin_filter(&e).is_none());
    }

    #[test]
    fn semijoin_matches_reference_across_shapes() {
        // The chunked KeyTable path and the std-hash reference must be
        // bit-identical (content *and* row order) on single- and
        // multi-column keys, including above one chunk.
        let mut xs = 0x9E3779B97F4A7C15u64;
        let mut step = move || {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            xs
        };
        for (rows, dom) in [(3usize, 4u64), (700, 40), (1000, 9)] {
            let left: Vec<Vec<u64>> = (0..rows)
                .map(|_| vec![step() % dom, step() % dom, step() % dom])
                .collect();
            let right1: Vec<Vec<u64>> = (0..rows / 4 + 1).map(|_| vec![step() % dom]).collect();
            let right2: Vec<Vec<u64>> = (0..rows / 2 + 1)
                .map(|_| vec![step() % dom, step() % dom])
                .collect();
            let a = FlatRelation::from_rows(vec![v(0), v(1), v(2)], &left);
            let single = FlatRelation::from_rows(vec![v(1)], &right1);
            let multi = FlatRelation::from_rows(vec![v(0), v(2)], &right2);
            assert_eq!(a.semijoin(&single), a.semijoin_reference(&single));
            assert_eq!(a.semijoin(&multi), a.semijoin_reference(&multi));
        }
    }

    #[test]
    fn dedup_is_idempotent_and_total() {
        let mut r = FlatRelation {
            vars: vec![v(0), v(1)],
            rows: 4,
            data: vec![3, 4, 1, 2, 3, 4, 1, 2],
        };
        r.dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(sorted_tuples(&r), vec![vec![1, 2], vec![3, 4]]);
        r.dedup();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn key_runs_detect_order_and_sorted_by_restores_it_stably() {
        let r = rel(&[0, 1], &[&[1, 5], &[2, 3], &[3, 5], &[4, 1]]);
        // Canonical order is ordered by any prefix of the columns.
        assert!(KeyRuns::of(&r, &[0]).is_some() && KeyRuns::of(&r, &[]).is_some());
        assert!(KeyRuns::of(&r, &[0, 1]).is_some());
        assert!(KeyRuns::of(&r, &[1]).is_none() && KeyRuns::of(&r, &[1, 0]).is_none());
        let by_second = r.sorted_by(&[1]);
        // Equal keys (5) keep their relative order.
        assert_eq!(
            by_second.to_tuples(),
            vec![vec![4, 1], vec![2, 3], vec![1, 5], vec![3, 5]]
        );
        let runs = KeyRuns::of(&by_second, &[1]).unwrap();
        assert_eq!(runs.keys.data(), [1, 3, 5]);
        assert_eq!(runs.starts, vec![0, 1, 2, 4]);
        let runs = KeyRuns::of(&r.sorted_by(&[1, 0]), &[1, 0]).unwrap();
        assert_eq!(runs.starts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn key_runs_point_each_parent_row_at_its_matching_rows() {
        // One key column, dense (1, 2, 5) and sparse (multiples of 10^9):
        // the direct table and the binary search agree.
        for scale in [1, 1_000_000_000u64] {
            let child = [[1, 10], [1, 11], [2, 20], [5, 50]].map(|[a, b]| vec![a * scale, b]);
            let child = FlatRelation::from_rows(vec![v(0), v(1)], &child);
            let parent = [[0, 5], [1, 1], [2, 3], [3, 2], [4, 0]].map(|[a, b]| vec![a, b * scale]);
            let parent = FlatRelation::from_rows(vec![v(2), v(0)], &parent);
            let runs = KeyRuns::of(&child, &[0]).unwrap();
            let expected = vec![[3, 4], [0, 2], [0, 0], [2, 3], [0, 0]];
            assert_eq!(runs.ranges(&parent, &[1]), expected, "scale {scale}");
            let none = KeyRuns::of(&FlatRelation::empty(vec![v(0)]), &[0]).unwrap();
            assert_eq!(none.ranges(&parent, &[1]), vec![[0, 0]; 5]);
        }
        // Two key columns, in the parent's column order (v0, v1).
        let child = rel(
            &[0, 1, 2],
            &[&[1, 2, 0], &[1, 2, 1], &[1, 3, 0], &[2, 2, 0]],
        );
        let parent = rel(&[1, 0], &[&[2, 1], &[3, 1], &[2, 2], &[9, 9]]);
        let runs = KeyRuns::of(&child, &[0, 1]).unwrap();
        let expected = vec![[0, 2], [3, 4], [2, 3], [0, 0]];
        assert_eq!(runs.ranges(&parent, &[1, 0]), expected);
        // An empty key: every parent row points at every row.
        let all = KeyRuns::of(&child, &[]).unwrap();
        assert_eq!(all.ranges(&parent, &[]), vec![[0, 4]; 4]);
    }
}
