//! The per-database prepared-query cache: warm [`PreparedQuery`]
//! handles keyed by query text, validated by catalog epoch, migrated
//! (not purged) across delta epochs.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::session::PreparedQuery;

/// Per-database cache of warm, **owned** [`PreparedQuery`] handles,
/// keyed by the query's canonical rendering
/// ([`ConjunctiveQuery::display`]) and validated by catalog **epoch**:
/// each handle pins the snapshot it was prepared against, and a lookup
/// for a newer epoch treats the entry as stale — it is dropped on the
/// spot, never served. Bounded FIFO: when full, the oldest entry is
/// evicted (repeated-workload serving re-prepares it on next use; the
/// engine's isomorphism-keyed plan cache still amortizes the structure
/// analysis underneath).
pub(super) struct PreparedCache {
    capacity: usize,
    pub(super) map: HashMap<String, Arc<PreparedQuery>>,
    pub(super) order: VecDeque<String>,
}

impl PreparedCache {
    pub(super) fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The warm handle for `key` at exactly `epoch`. A handle from an
    /// *older* epoch is stale (its data was reloaded away): it is
    /// removed and the lookup misses, so the caller re-prepares against
    /// its own pinned snapshot. A handle from a *newer* epoch also
    /// misses — the caller is a lagging batch pinned to a pre-reload
    /// snapshot — but stays cached: evicting it would make interleaved
    /// old- and new-epoch batches ping-pong the entry and re-pay the
    /// `O(‖D‖^width)` materialization on every lookup.
    pub(super) fn get(&mut self, key: &str, epoch: u64) -> Option<Arc<PreparedQuery>> {
        match self.map.get(key) {
            Some(p) if p.epoch() == epoch => Some(Arc::clone(p)),
            Some(p) if p.epoch() < epoch => {
                self.map.remove(key);
                self.order.retain(|k| k != key);
                None
            }
            _ => None,
        }
    }

    pub(super) fn insert(&mut self, key: String, prepared: Arc<PreparedQuery>) {
        if let Some(existing) = self.map.get_mut(&key) {
            // Another worker prepared the same text concurrently: keep
            // whichever pins the newer epoch (ties keep the first).
            if prepared.epoch() > existing.epoch() {
                *existing = prepared;
            }
            return;
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, prepared);
    }

    /// Drop every entry not pinning `current_epoch` (called after a
    /// reload so stale bag trees release their memory eagerly instead
    /// of waiting to be looked up). Returns how many were dropped.
    pub(super) fn purge_stale(&mut self, current_epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|_, p| p.epoch() == current_epoch);
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
        before - self.map.len()
    }

    /// Migrate this cache across a delta epoch *without* purging it —
    /// the whole point of the update plane. Entries pinned to the
    /// pre-delta epoch are rebased warm ([`PreparedQuery::rebase`]:
    /// only the bags whose relations the delta touched are
    /// re-materialized; the clean spine keeps its `Arc`s and probe
    /// caches). Entries from even older epochs are dropped as in
    /// [`PreparedCache::purge_stale`].
    pub(super) fn refresh_after_delta(
        &mut self,
        outcome: &crate::delta::DeltaOutcome,
    ) -> DeltaCacheRefresh {
        let mut refresh = DeltaCacheRefresh::default();
        let previous = outcome.previous.epoch();
        self.map.retain(|_, entry| {
            if entry.epoch() == previous {
                let (warm, pass) = entry.rebase(&outcome.snapshot, &outcome.touched);
                *entry = Arc::new(warm);
                refresh.warm += 1;
                refresh.bags_remat += pass.rewritten as u64;
            }
            // Older entries were stale before this delta.
            entry.epoch() >= previous
        });
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
        refresh
    }
}

/// What [`PreparedCache::refresh_after_delta`] did to a database's warm
/// handles — reported in the `DeltaApplied` frame and folded into the
/// delta metrics.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct DeltaCacheRefresh {
    /// Handles migrated warm (dirty-spine refresh, `warm-overlay`).
    pub(super) warm: u64,
    /// Bag nodes re-materialized across all warm migrations.
    pub(super) bags_remat: u64,
}
