//! Purpose-built probe tables for the columnar kernel's hot paths.
//!
//! The std `HashMap`/`HashSet` used by the first kernel iteration spend
//! most of a semijoin in SipHash and bucket metadata; on the warm
//! re-execution path (prepared queries re-running tree passes over an
//! unchanged bag tree) the hash probes *are* the whole pass. These two
//! tables trade generality for probe speed:
//!
//! - [`KeyTable`]: a chained hash table over the key columns of a
//!   [`FlatRelation`]. Buckets are a power-of-two `u32` head array,
//!   chains a parallel `u32` next array, and keys are packed row-major
//!   into one `u64` buffer — three flat allocations total, no per-key
//!   boxing, no SipHash. Hashes come from the splitmix64 finalizer
//!   (multiply–xor–shift), cheap enough to recompute per probe and
//!   strong enough for power-of-two masking. Rows are inserted in
//!   reverse so each chain yields ascending row ids — match order (and
//!   therefore join output order) is identical to the insertion-order
//!   `HashMap` it replaces.
//! - [`AggTable`]: an open-addressing `key → u128 sum` map for the
//!   counting DP's child aggregation. Capacity is fixed at build time
//!   (distinct keys ≤ build rows, load factor ≤ ½), so inserts never
//!   resize and probes are a linear scan over a flat slot array.
//!
//! Both verify candidates by comparing the actual key columns, so hash
//! collisions cost a compare, never a wrong answer. A zero-column key
//! (vacuous sharing between bags) degenerates gracefully: every row
//! lands in one chain under the empty key and every probe matches the
//! first entry.

use crate::flat::FlatRelation;

/// Sentinel for "no row" in head/next/slot arrays.
const EMPTY: u32 = u32::MAX;

/// Hash-fold seed (the 64-bit golden ratio, as in splitmix64's stream
/// increment).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: full-avalanche mixing so power-of-two masking
/// is safe on adversarial (e.g. sequential) key values.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a single-column key. Equals [`hash_key`] on a one-element slice.
#[inline]
pub(crate) fn hash1(v: u64) -> u64 {
    mix(SEED ^ v)
}

/// Hash a packed multi-column key by folding [`mix`] over the columns.
#[inline]
pub(crate) fn hash_key(key: &[u64]) -> u64 {
    let mut h = SEED;
    for &v in key {
        h = mix(h ^ v);
    }
    h
}

/// Chained hash table over the key columns of a relation: the build side
/// of semijoin/join probes. Self-contained (key columns are copied in),
/// so a cached table stays valid as long as the relation it was built
/// from is unchanged — the bag tree caches them per node.
#[derive(Debug, Clone)]
pub(crate) struct KeyTable {
    /// Key width (columns per key).
    k: usize,
    /// Bucket mask (`buckets - 1`, buckets a power of two).
    mask: u64,
    /// `heads[hash & mask]` → first row id in the chain.
    heads: Vec<u32>,
    /// `next[row]` → next row in the same chain.
    next: Vec<u32>,
    /// Packed keys, `rows * k` values row-major.
    keys: Vec<u64>,
}

impl KeyTable {
    /// Build over `rel`'s `key_cols`. O(rows) time, three allocations.
    pub(crate) fn build(rel: &FlatRelation, key_cols: &[usize]) -> KeyTable {
        let n = rel.len();
        crate::flat::check_row_index_fits(n);
        let k = key_cols.len();
        let buckets = (n.max(1) * 2).next_power_of_two();
        let mask = buckets as u64 - 1;
        let mut heads = vec![EMPTY; buckets];
        let mut next = vec![EMPTY; n];
        let mut keys = vec![0u64; n * k];
        let arity = rel.arity();
        // Reverse insertion: chains come out in ascending row order, so
        // probe match order equals insertion order (what the previous
        // HashMap-based join produced).
        for i in (0..n).rev() {
            let row = &rel.data[i * arity..i * arity + arity];
            let mut h = SEED;
            for (t, &c) in key_cols.iter().enumerate() {
                let v = row[c];
                keys[i * k + t] = v;
                h = mix(h ^ v);
            }
            let b = (h & mask) as usize;
            next[i] = heads[b];
            heads[b] = i as u32;
        }
        KeyTable {
            k,
            mask,
            heads,
            next,
            keys,
        }
    }

    /// Key width the table was built with.
    pub(crate) fn key_width(&self) -> usize {
        self.k
    }

    /// Does any build row have this key? `hash` must be the key's
    /// [`hash_key`]/[`hash1`] value (precomputed by chunked callers).
    #[inline]
    pub(crate) fn contains_hashed(&self, hash: u64, key: &[u64]) -> bool {
        debug_assert_eq!(key.len(), self.k);
        let mut i = self.heads[(hash & self.mask) as usize];
        while i != EMPTY {
            let o = i as usize * self.k;
            if &self.keys[o..o + self.k] == key {
                return true;
            }
            i = self.next[i as usize];
        }
        false
    }

    /// Does any build row have this key?
    #[cfg(test)]
    #[inline]
    pub(crate) fn contains(&self, key: &[u64]) -> bool {
        self.contains_hashed(hash_key(key), key)
    }

    /// Row ids of every build row with this key, in ascending order.
    #[inline]
    pub(crate) fn matches<'t, 'k>(&'t self, key: &'k [u64]) -> Matches<'t, 'k> {
        debug_assert_eq!(key.len(), self.k);
        Matches {
            table: self,
            key,
            cur: self.heads[(hash_key(key) & self.mask) as usize],
        }
    }
}

/// Iterator over the build rows matching one probe key (see
/// [`KeyTable::matches`]).
pub(crate) struct Matches<'t, 'k> {
    table: &'t KeyTable,
    key: &'k [u64],
    cur: u32,
}

impl Iterator for Matches<'_, '_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.cur != EMPTY {
            let i = self.cur;
            self.cur = self.table.next[i as usize];
            let o = i as usize * self.table.k;
            if &self.table.keys[o..o + self.table.k] == self.key {
                return Some(i);
            }
        }
        None
    }
}

/// Open-addressing `key → u128 sum` map for the counting DP: aggregate
/// child-row extension counts by parent-shared key, then probe from the
/// parent side. Capacity is fixed at build (`2 * rows` slots, load ≤ ½),
/// so [`AggTable::add`] never resizes.
#[derive(Debug, Clone)]
pub(crate) struct AggTable {
    k: usize,
    mask: u64,
    /// `slots[hash & mask]` → entry index (EMPTY = vacant), linear probing.
    slots: Vec<u32>,
    /// Packed entry keys, `entries * k` values.
    keys: Vec<u64>,
    /// Per-entry sums, aligned with `keys`.
    sums: Vec<u128>,
}

impl AggTable {
    /// Aggregate `rel`'s rows by `key_cols`, summing `counts` (`None` =
    /// every row counts 1 — the leaf-bag case, which is what makes the
    /// table cacheable per leaf). Rows counting 0 are skipped: absent
    /// and 0 read the same through [`AggTable::get`], so only the rows
    /// that still extend pay an insert.
    pub(crate) fn build(
        rel: &FlatRelation,
        key_cols: &[usize],
        counts: Option<&[u128]>,
    ) -> AggTable {
        let n = rel.len();
        crate::flat::check_row_index_fits(n);
        let k = key_cols.len();
        let buckets = (n.max(1) * 2).next_power_of_two();
        let mut table = AggTable {
            k,
            mask: buckets as u64 - 1,
            slots: vec![EMPTY; buckets],
            keys: Vec::new(),
            sums: Vec::new(),
        };
        let arity = rel.arity();
        let mut scratch = vec![0u64; k];
        for i in 0..n {
            let count = counts.map_or(1, |c| c[i]);
            if count == 0 {
                continue;
            }
            let row = &rel.data[i * arity..i * arity + arity];
            for (t, &c) in key_cols.iter().enumerate() {
                scratch[t] = row[c];
            }
            table.add(&scratch, count);
        }
        table
    }

    /// Add `count` to the sum for `key` (inserting if new).
    fn add(&mut self, key: &[u64], count: u128) {
        let mut b = (hash_key(key) & self.mask) as usize;
        loop {
            let e = self.slots[b];
            if e == EMPTY {
                self.slots[b] = (self.sums.len()) as u32;
                self.keys.extend_from_slice(key);
                self.sums.push(count);
                return;
            }
            let o = e as usize * self.k;
            if &self.keys[o..o + self.k] == key {
                self.sums[e as usize] += count;
                return;
            }
            b = (b + 1) & self.mask as usize;
        }
    }

    /// The aggregated sum for `key`: 0 when no build row had it — to the
    /// counting DP an unmatched key and one whose rows all count 0 are
    /// the same thing, a parent row with no extension.
    #[inline]
    pub(crate) fn get(&self, key: &[u64]) -> u128 {
        debug_assert_eq!(key.len(), self.k);
        let mut b = (hash_key(key) & self.mask) as usize;
        loop {
            let e = self.slots[b];
            if e == EMPTY {
                return 0;
            }
            let o = e as usize * self.k;
            if &self.keys[o..o + self.k] == key {
                return self.sums[e as usize];
            }
            b = (b + 1) & self.mask as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Var;

    fn rel(vars: &[u32], tuples: &[&[u64]]) -> FlatRelation {
        FlatRelation::from_rows(
            vars.iter().map(|&i| Var(i)).collect(),
            &tuples.iter().map(|t| t.to_vec()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn key_table_single_column_contains_and_matches() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20], &[1, 11], &[3, 30]]);
        let t = KeyTable::build(&r, &[0]);
        assert_eq!(t.key_width(), 1);
        assert!(t.contains(&[1]));
        assert!(t.contains(&[3]));
        assert!(!t.contains(&[4]));
        // Matches come back in ascending row order (`from_rows` dedup
        // leaves rows sorted: [1,10], [1,11], [2,20], [3,30]).
        assert_eq!(t.matches(&[1]).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(t.matches(&[9]).count(), 0);
    }

    #[test]
    fn key_table_multi_column_verifies_actual_columns() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 7], &[2, 1, 8], &[1, 2, 9]]);
        let t = KeyTable::build(&r, &[0, 1]);
        // Sorted by dedup: [1,2,7], [1,2,9], [2,1,8].
        assert_eq!(t.matches(&[1, 2]).collect::<Vec<_>>(), vec![0, 1]);
        // (2,1) hashes differently from (1,2) only by mixing order —
        // the compare must separate them regardless.
        assert_eq!(t.matches(&[2, 1]).collect::<Vec<_>>(), vec![2]);
        assert!(!t.contains(&[2, 2]));
    }

    #[test]
    fn key_table_empty_build_and_empty_key() {
        let e = FlatRelation::empty(vec![Var(0)]);
        let t = KeyTable::build(&e, &[0]);
        assert!(!t.contains(&[1]));
        // Zero-column key: every row matches iff the build side is
        // nonempty (vacuous sharing).
        let r = rel(&[0], &[&[1], &[2]]);
        let t0 = KeyTable::build(&r, &[]);
        assert!(t0.contains(&[]));
        assert_eq!(t0.matches(&[]).collect::<Vec<_>>(), vec![0, 1]);
        let t0e = KeyTable::build(&e, &[]);
        assert!(!t0e.contains(&[]));
    }

    #[test]
    fn key_table_dense_sequential_keys_stay_fast_shaped() {
        // Sequential keys are the classic weak spot of masked identity
        // hashing; splitmix avalanche must spread them. Sanity: every
        // key found, no cross-matches.
        let tuples: Vec<Vec<u64>> = (0..1000u64).map(|i| vec![i, i * 2]).collect();
        let refs: Vec<&[u64]> = tuples.iter().map(Vec::as_slice).collect();
        let r = rel(&[0, 1], &refs);
        let t = KeyTable::build(&r, &[0]);
        for i in 0..1000u64 {
            assert_eq!(t.matches(&[i]).count(), 1);
        }
        assert!(!t.contains(&[1000]));
    }

    #[test]
    fn agg_table_sums_counts_by_key() {
        let r = rel(&[0, 1], &[&[1, 10], &[1, 11], &[2, 20]]);
        // All-ones counts: multiplicity per key.
        let a = AggTable::build(&r, &[0], None);
        assert_eq!(a.get(&[1]), 2);
        assert_eq!(a.get(&[2]), 1);
        assert_eq!(a.get(&[3]), 0);
        // Explicit counts aggregate by sum.
        let b = AggTable::build(&r, &[0], Some(&[5, 7, 11]));
        assert_eq!(b.get(&[1]), 12);
        assert_eq!(b.get(&[2]), 11);
        // Zero-column key aggregates everything.
        let c = AggTable::build(&r, &[], Some(&[5, 7, 11]));
        assert_eq!(c.get(&[]), 23);
        // Rows counting 0 add nothing, alone or beside live rows.
        let d = AggTable::build(&r, &[0], Some(&[0, 7, 0]));
        assert_eq!((d.get(&[1]), d.get(&[2])), (7, 0));
    }

    #[test]
    fn agg_table_empty_relation() {
        let e = FlatRelation::empty(vec![Var(0)]);
        let a = AggTable::build(&e, &[0], None);
        assert_eq!(a.get(&[1]), 0);
        let a0 = AggTable::build(&e, &[], None);
        assert_eq!(a0.get(&[]), 0);
    }
}
