//! Expected answers. On `mixed20k` they come from the library's naive
//! evaluators. On `chain160k` those are too slow to run per seed
//! (`count_naive` needs ~20 s for chain(8)), so this file carries a
//! chain oracle of its own — a per-value path-count DP and an adjacency
//! expansion over plain pair vectors, sharing no code with `cq::flat` /
//! `cq::eval` — and checks it against the naive evaluators on a
//! 1/20-scale fixture of the same seed before anything is timed.

use std::collections::BTreeMap;

use cqd2::cq::eval::{bcq_naive, count_naive, enumerate_naive};
use cqd2::cq::Database;
use cqd2::engine::{Answer, Workload};

use crate::fixture::{self, Text, CHAIN_RELATIONS};

/// Order-independent digest of a tuple multiset: equal digests mean
/// equal sets for every purpose of this check (a duplicate or a
/// substituted tuple moves `sum`), and folding a reply costs a few
/// nanoseconds per tuple, so every timed reply can be checked without
/// the check becoming the client's bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    len: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn of(tuples: &[Vec<u64>]) -> Digest {
        let mut d = Digest::default();
        for t in tuples {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for &v in t {
                h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
                h ^= h >> 29;
            }
            d.len += 1;
            d.sum = d.sum.wrapping_add(h);
            d.xor ^= h.rotate_left((h & 31) as u32);
        }
        d
    }
}

/// What a reply must be.
pub enum Expected {
    /// Exactly this Boolean or count.
    Scalar(Answer),
    /// Exactly this set of tuples (kept sorted for the full compare
    /// and for `limit` membership tests).
    Tuples {
        sorted: Vec<Vec<u64>>,
        digest: Digest,
    },
    /// Any `len` distinct members of `from` (an `@enumerate <limit>`).
    AnyOf { len: usize, from: Vec<Vec<u64>> },
}

impl Expected {
    /// Digest check — what every timed reply gets.
    pub fn accepts(&self, answer: &Answer) -> bool {
        match (self, answer) {
            (Expected::Scalar(want), got) => want == got,
            (Expected::Tuples { digest, .. }, Answer::Tuples(got)) => Digest::of(got) == *digest,
            (Expected::AnyOf { len, from }, Answer::Tuples(got)) => {
                let mut seen: Vec<&Vec<u64>> = got.iter().collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len() == *len && seen.iter().all(|t| from.binary_search(t).is_ok())
            }
            _ => false,
        }
    }

    /// Sorted-set compare — what the first reply of every text gets.
    pub fn accepts_exactly(&self, answer: &Answer) -> bool {
        match (self, answer) {
            (Expected::Tuples { sorted, .. }, Answer::Tuples(got)) => {
                let mut got = got.clone();
                got.sort_unstable();
                got == *sorted
            }
            _ => self.accepts(answer),
        }
    }
}

/// The chain oracle: `R0..R7` as plain pair vectors.
pub struct ChainOracle {
    rels: Vec<Vec<(u64, u64)>>,
}

impl ChainOracle {
    pub fn new(db: &Database) -> ChainOracle {
        ChainOracle {
            rels: (0..CHAIN_RELATIONS)
                .map(|r| fixture::pairs(db, r))
                .collect(),
        }
    }

    /// Replace one relation (after a delta touched it).
    pub fn reload(&mut self, db: &Database, r: usize) {
        self.rels[r] = fixture::pairs(db, r);
    }

    /// `|chain(D)|`: paths through the listed relations, by a DP that
    /// carries, per value, the number of paths continuing from it.
    pub fn count(&self, chain: &[usize]) -> u128 {
        let size = chain
            .iter()
            .flat_map(|&r| self.rels[r].iter().map(|&(a, b)| a.max(b)))
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut onward = vec![1u128; size];
        for &r in chain.iter().rev() {
            let mut from = vec![0u128; size];
            for &(a, b) in &self.rels[r] {
                from[a as usize] += onward[b as usize];
            }
            onward = from;
        }
        onward.iter().sum()
    }

    /// `chain(D)` as sorted assignments `(v0, …, vk)`, by expanding
    /// partial paths along adjacency lists.
    pub fn enumerate(&self, chain: &[usize]) -> Vec<Vec<u64>> {
        let mut paths: Vec<Vec<u64>> = self.rels[chain[0]]
            .iter()
            .map(|&(a, b)| vec![a, b])
            .collect();
        for &r in &chain[1..] {
            let mut adj: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for &(a, b) in &self.rels[r] {
                adj.entry(a).or_default().push(b);
            }
            let mut longer = Vec::new();
            for p in &paths {
                for &b in adj.get(&p[p.len() - 1]).map_or(&[][..], Vec::as_slice) {
                    let mut q = p.clone();
                    q.push(b);
                    longer.push(q);
                }
            }
            paths = longer;
        }
        paths.sort_unstable();
        paths
    }

    pub fn expected(&self, text: &Text) -> Expected {
        let chain = text.chain.as_deref().expect("chain text");
        match text.workload {
            Workload::Boolean => Expected::Scalar(Answer::Bool(self.count(chain) > 0)),
            Workload::Count => Expected::Scalar(Answer::Count(self.count(chain))),
            Workload::Enumerate { limit } => {
                let sorted = self.enumerate(chain);
                match limit {
                    Some(n) if n < sorted.len() => Expected::AnyOf {
                        len: n,
                        from: sorted,
                    },
                    _ => Expected::Tuples {
                        digest: Digest::of(&sorted),
                        sorted,
                    },
                }
            }
        }
    }
}

/// Validate the chain oracle against the naive evaluators on the
/// 1/20-scale fixture of `seed`. Returns what disagreed, if anything.
pub fn self_check(seed: u64) -> Result<(), String> {
    let db = fixture::chain_db(seed, 1_000, 1_500);
    let oracle = ChainOracle::new(&db);
    for text in fixture::warm_point_texts()
        .iter()
        .chain(&fixture::enum_stream_texts())
    {
        let chain = text.chain.as_deref().expect("chain text");
        let ok = match text.workload {
            Workload::Boolean => (oracle.count(chain) > 0) == bcq_naive(&text.query, &db),
            Workload::Count => oracle.count(chain) == count_naive(&text.query, &db),
            Workload::Enumerate { .. } => {
                let mut naive = enumerate_naive(&text.query, &db);
                naive.sort_unstable();
                oracle.enumerate(chain) == naive
            }
        };
        if !ok {
            return Err(format!(
                "chain oracle disagrees with the naive evaluator on `{}`",
                text.label
            ));
        }
    }
    Ok(())
}

/// Expected answers on `mixed20k`, from the naive evaluators, one
/// evaluation per class of texts equal up to variable names.
pub fn naive_expected(texts: &[Text], db: &Database) -> Vec<Expected> {
    let mut by_class: BTreeMap<usize, (bool, u128)> = BTreeMap::new();
    texts
        .iter()
        .map(|t| {
            let (truth, count) = *by_class
                .entry(t.class)
                .or_insert_with(|| (bcq_naive(&t.query, db), count_naive(&t.query, db)));
            match t.workload {
                Workload::Boolean => Expected::Scalar(Answer::Bool(truth)),
                Workload::Count => Expected::Scalar(Answer::Count(count)),
                Workload::Enumerate { .. } => {
                    let mut sorted = enumerate_naive(&t.query, db);
                    sorted.sort_unstable();
                    Expected::Tuples {
                        digest: Digest::of(&sorted),
                        sorted,
                    }
                }
            }
        })
        .collect()
}
