//! The plan cache: structural analysis amortized across isomorphic
//! queries.
//!
//! Workloads repeat *shapes* far more often than literal queries (the
//! same join pattern over different relation names and variable names).
//! Decompositions and jigsaw certificates depend only on the query's
//! hypergraph up to isomorphism, so the cache keys on
//! [`cqd2_hypergraph::fingerprint`] and confirms candidates with
//! [`find_isomorphism`]; on a hit, the stored GHD is translated along
//! the witness isomorphism into the incoming query's coordinates.
//!
//! ```
//! use cqd2_engine::{Engine, Workload};
//! use cqd2_cq::ConjunctiveQuery;
//!
//! let engine = Engine::default();
//! // Same shape, different relation and variable names: one structure
//! // class, analyzed once.
//! let a = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
//! let b = ConjunctiveQuery::parse(&[("T", &["?p", "?q"]), ("U", &["?q", "?r"])]);
//! engine.plan(&a, Workload::Boolean);
//! engine.plan(&b, Workload::Boolean);
//! let stats = engine.cache_stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1));
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use cqd2_decomp::Ghd;
use cqd2_hypergraph::{find_isomorphism, fingerprint, Hypergraph, Isomorphism, VertexId};

use crate::planner::PlannedStructure;

/// Translate a GHD of `rep` into the coordinates of an isomorphic
/// hypergraph via a witness isomorphism `rep → target`.
///
/// Bags map vertex-wise, covers map edge-wise; the tree shape is
/// unchanged. The result is a valid GHD of the target of the same width.
pub fn translate_ghd(ghd: &Ghd, iso: &Isomorphism) -> Ghd {
    let mut out = ghd.clone();
    for bag in &mut out.td.bags {
        for v in bag.iter_mut() {
            *v = iso.vertex_map[v.idx()];
        }
        bag.sort_unstable();
    }
    for cover in &mut out.covers {
        for e in cover.iter_mut() {
            *e = iso.edge_map[e.idx()];
        }
    }
    out
}

/// A cache hit: the stored analysis plus the coordinate translation for
/// the incoming query.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The stored structure analysis (in representative coordinates for
    /// the jigsaw certificate; the GHD below is already translated).
    pub structure: Arc<PlannedStructure>,
    /// The stored GHD translated into the incoming query's coordinates.
    pub ghd: Option<Ghd>,
    /// Vertex renaming `representative → query` that witnessed the hit
    /// (identity-shaped on a first-party miss-then-insert).
    pub vertex_map: Vec<VertexId>,
}

/// Hit/miss counters (snapshot view via [`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required fresh planning.
    pub misses: u64,
    /// Structures currently stored.
    pub entries: usize,
}

struct CacheEntry {
    representative: Hypergraph,
    structure: Arc<PlannedStructure>,
    /// Logical timestamp of the last hit (or the insertion), driving LRU
    /// eviction.
    last_used: u64,
}

/// Fingerprint-bucketed store of planned structures with per-entry LRU
/// eviction.
pub struct PlanCache {
    buckets: HashMap<u64, Vec<CacheEntry>>,
    capacity: usize,
    entries: usize,
    hits: u64,
    misses: u64,
    /// Monotonic logical clock; bumped on every lookup/insert.
    tick: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` structures (0 means
    /// unbounded). On overflow the least-recently-used entry is evicted
    /// from its fingerprint bucket — hot structures survive capacity
    /// pressure, and a translated plan is never served stale (entries are
    /// dropped whole, never mutated).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            buckets: HashMap::new(),
            capacity,
            entries: 0,
            hits: 0,
            misses: 0,
            tick: 0,
        }
    }

    /// Look up the structure class of `h`. On a hit the stored GHD is
    /// translated into `h`'s coordinates and the entry's LRU stamp is
    /// refreshed. Counts a miss otherwise.
    pub fn lookup(&mut self, h: &Hypergraph) -> Option<CachedPlan> {
        self.tick += 1;
        let key = fingerprint(h);
        if let Some(bucket) = self.buckets.get_mut(&key) {
            for entry in bucket.iter_mut() {
                if let Some(iso) = find_isomorphism(&entry.representative, h) {
                    self.hits += 1;
                    entry.last_used = self.tick;
                    let ghd = entry.structure.ghd.as_ref().map(|g| translate_ghd(g, &iso));
                    return Some(CachedPlan {
                        structure: Arc::clone(&entry.structure),
                        ghd,
                        vertex_map: iso.vertex_map,
                    });
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Store the analysis of `h`'s structure class, with `h` as the
    /// class representative. At capacity, the least-recently-used entry
    /// across all fingerprint buckets is evicted first.
    pub fn insert(&mut self, h: &Hypergraph, structure: PlannedStructure) -> Arc<PlannedStructure> {
        while self.capacity > 0 && self.entries >= self.capacity {
            self.evict_lru();
        }
        self.tick += 1;
        let structure = Arc::new(structure);
        self.buckets
            .entry(fingerprint(h))
            .or_default()
            .push(CacheEntry {
                representative: h.clone(),
                structure: Arc::clone(&structure),
                last_used: self.tick,
            });
        self.entries += 1;
        structure
    }

    /// Remove the entry with the oldest LRU stamp (no-op on an empty
    /// cache). Empty buckets are dropped so the bucket map cannot grow
    /// without bound under churn.
    fn evict_lru(&mut self) {
        let victim = self
            .buckets
            .iter()
            .flat_map(|(&key, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (e.last_used, key, i))
            })
            .min()
            .map(|(_, key, i)| (key, i));
        let Some((key, i)) = victim else {
            return;
        };
        // cqd2-lint: allow(panic-in-hot-path, reason = "the victim key was read out of self.buckets two lines up under the same &mut borrow; the bucket cannot have vanished")
        let bucket = self.buckets.get_mut(&key).expect("victim bucket exists");
        bucket.remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.entries -= 1;
    }

    /// Is the structure class of `h` already cached? Unlike
    /// [`PlanCache::lookup`] this bumps no counters and refreshes no LRU
    /// stamps — it is the plan store's preload dedup probe, and must not
    /// distort the serving hit/miss statistics.
    pub fn contains(&self, h: &Hypergraph) -> bool {
        let key = fingerprint(h);
        self.buckets.get(&key).is_some_and(|bucket| {
            bucket
                .iter()
                .any(|e| find_isomorphism(&e.representative, h).is_some())
        })
    }

    /// Clone out every cached structure class as `(representative,
    /// analysis)` pairs, LRU-oldest first (so a capacity-truncating
    /// consumer keeps the hottest classes last-written). This is the
    /// plan store's spill surface; counters are untouched.
    pub fn export(&self) -> Vec<(Hypergraph, PlannedStructure)> {
        let mut entries: Vec<&CacheEntry> = self.buckets.values().flatten().collect();
        entries.sort_by_key(|e| e.last_used);
        entries
            .iter()
            .map(|e| (e.representative.clone(), (*e.structure).clone()))
            .collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use cqd2_hypergraph::generators::{hyperchain, hypercycle};

    fn relabel_reversed(h: &Hypergraph) -> Hypergraph {
        let n = h.num_vertices() as u32;
        let edges: Vec<Vec<u32>> = h
            .edge_ids()
            .map(|e| h.edge(e).iter().map(|v| n - 1 - v.0).collect())
            .collect();
        Hypergraph::new(n as usize, &edges).unwrap()
    }

    #[test]
    fn isomorphic_renamings_hit_after_one_miss() {
        let mut cache = PlanCache::new(0);
        let planner = Planner::default();
        let h = hypercycle(5, 2);
        assert!(cache.lookup(&h).is_none());
        cache.insert(&h, planner.plan_structure(&h));

        // Identical query: hit.
        assert!(cache.lookup(&h).is_some());
        // Renamed-but-isomorphic query: hit, with a translated GHD that
        // validates against the *renamed* hypergraph.
        let renamed = relabel_reversed(&h);
        let hit = cache.lookup(&renamed).expect("isomorphic structure hits");
        let ghd = hit.ghd.expect("cycle has a ghd");
        ghd.validate(&renamed).unwrap();
        assert_eq!(ghd.width(), 2);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn different_structures_miss() {
        let mut cache = PlanCache::new(0);
        let planner = Planner::default();
        let chain = hyperchain(4, 2);
        cache.insert(&chain, planner.plan_structure(&chain));
        assert!(cache.lookup(&hypercycle(4, 2)).is_none());
        assert!(cache.lookup(&hyperchain(5, 2)).is_none());
    }

    #[test]
    fn capacity_overflow_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        let planner = Planner::default();
        for k in 3..6 {
            let h = hyperchain(k, 2);
            cache.insert(&h, planner.plan_structure(&h));
        }
        // LRU order at the third insert was chain-3 < chain-4, so only
        // chain-3 was evicted; the cache stays full.
        assert!(cache.lookup(&hyperchain(3, 2)).is_none());
        assert!(cache.lookup(&hyperchain(4, 2)).is_some());
        assert!(cache.lookup(&hyperchain(5, 2)).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn hot_structure_survives_capacity_pressure() {
        let mut cache = PlanCache::new(2);
        let planner = Planner::default();
        let hot = hypercycle(5, 2);
        cache.insert(&hot, planner.plan_structure(&hot));
        // A stream of one-shot structures churns through the remaining
        // slot; the hot structure is touched between insertions and must
        // never be the LRU victim.
        for k in 3..8 {
            let cold = hyperchain(k, 2);
            assert!(cache.lookup(&hot).is_some(), "hot entry evicted at k={k}");
            cache.insert(&cold, planner.plan_structure(&cold));
        }
        assert!(cache.lookup(&hot).is_some());
        assert_eq!(cache.stats().entries, 2);
        // The cold structures churned: all but the newest were evicted.
        for k in 3..7 {
            assert!(cache.lookup(&hyperchain(k, 2)).is_none(), "k={k}");
        }
        assert!(cache.lookup(&hyperchain(7, 2)).is_some());
    }
}
