//! The per-database prepared-query cache: warm [`PreparedQuery`]
//! handles keyed by query text, validated by catalog epoch, and
//! migrated (not purged) across a delta before its epoch is published.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use cqd2_cq::sync::lock_or_poison;
use cqd2_cq::{DatabaseDelta, PassStats};

use crate::catalog::Catalog;
use crate::delta::DeltaOutcome;
use crate::error::EngineError;
use crate::session::PreparedQuery;

/// Per-database cache of warm, **owned** [`PreparedQuery`] handles,
/// keyed by the query's canonical rendering
/// ([`ConjunctiveQuery::display`]) and validated by catalog **epoch**:
/// each handle pins the snapshot it was prepared against, and a lookup
/// answers only from a handle pinning exactly the lookup's epoch.
///
/// Each key holds its newest handle plus, for one epoch of grace, the
/// handle that one replaced at the epoch before: a batch pinned to
/// epoch e−1 that looks the key up just after a delta published e
/// still hits. A delta fills both slots at once — it rebases the
/// current handles onto the staged epoch, outside the lock, and
/// installs them beside their parents in the same critical section
/// that publishes the epoch ([`apply_delta_warm`]), so no reader sees
/// the new epoch without its warm handles. A reload migrates nothing:
/// [`PreparedCache::purge_stale`] drops the old epoch's entries.
///
/// Bounded FIFO: when full, the oldest key is evicted (repeated-workload
/// serving re-prepares it on next use; the engine's isomorphism-keyed
/// plan cache still amortizes the structure analysis underneath).
///
/// [`ConjunctiveQuery::display`]: cqd2_cq::ConjunctiveQuery::display
pub(super) struct PreparedCache {
    capacity: usize,
    pub(super) map: HashMap<String, Slots>,
    pub(super) order: VecDeque<String>,
}

/// One key's handles: the one at the newest epoch the cache holds for
/// it, and the one it replaced, kept only when that pins the epoch
/// right before.
pub(super) struct Slots {
    current: Arc<PreparedQuery>,
    previous: Option<Arc<PreparedQuery>>,
}

impl Slots {
    /// Make `newer` current; the replaced handle becomes the grace slot
    /// if it pins the epoch right before `newer`'s.
    fn advance(&mut self, newer: Arc<PreparedQuery>) {
        let replaced = std::mem::replace(&mut self.current, newer);
        self.previous = (replaced.epoch() + 1 == self.current.epoch()).then_some(replaced);
    }
}

/// A handle rebased onto a staged epoch, with the handle it was rebased
/// from and the refresh's sparsity.
struct Migrated {
    key: String,
    parent: Arc<PreparedQuery>,
    handle: Arc<PreparedQuery>,
    pass: PassStats,
}

impl PreparedCache {
    pub(super) fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The warm handle for `key` at exactly `epoch`, from either slot.
    /// An entry whose newest handle is *older* than `epoch` is stale
    /// (its data was reloaded away): it is removed and the lookup
    /// misses, so the caller re-prepares against its own pinned
    /// snapshot. An entry newer than both of a lagging batch's options
    /// also misses but stays cached: evicting it would make interleaved
    /// old- and new-epoch batches ping-pong the entry and re-pay the
    /// `O(‖D‖^width)` materialization on every lookup.
    pub(super) fn get(&mut self, key: &str, epoch: u64) -> Option<Arc<PreparedQuery>> {
        let slots = self.map.get(key)?;
        let mut pinned = std::iter::once(&slots.current).chain(&slots.previous);
        if let Some(hit) = pinned.find(|p| p.epoch() == epoch) {
            return Some(Arc::clone(hit));
        }
        if slots.current.epoch() < epoch {
            self.map.remove(key);
            self.order.retain(|k| k != key);
        }
        None
    }

    pub(super) fn insert(&mut self, key: String, prepared: Arc<PreparedQuery>) {
        if let Some(slots) = self.map.get_mut(&key) {
            // Another worker prepared the same text concurrently: keep
            // whichever pins the newer epoch (ties keep the first).
            if prepared.epoch() > slots.current.epoch() {
                slots.advance(prepared);
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
        let slots = Slots {
            current: prepared,
            previous: None,
        };
        self.map.insert(key, slots);
    }

    /// Drop every entry whose newest handle does not pin
    /// `current_epoch`, and every grace slot that does not pin the epoch
    /// right before it (called after a reload or a delta commit, so
    /// stale bag trees release their memory eagerly instead of waiting
    /// to be looked up). Returns how many entries were dropped.
    pub(super) fn purge_stale(&mut self, current_epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|_, slots| {
            if slots.previous.as_ref().map(|p| p.epoch() + 1) != Some(current_epoch) {
                slots.previous = None;
            }
            slots.current.epoch() == current_epoch
        });
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
        before - self.map.len()
    }

    /// Every entry whose newest handle pins `epoch`, as `(key, handle)`:
    /// what a delta staged on top of `epoch` migrates.
    fn current_at(&self, epoch: u64) -> Vec<(String, Arc<PreparedQuery>)> {
        self.map
            .iter()
            .filter(|(_, slots)| slots.current.epoch() == epoch)
            .map(|(key, slots)| (key.clone(), Arc::clone(&slots.current)))
            .collect()
    }

    /// Install the handles a delta migrated onto the just-committed
    /// `epoch`: each becomes current where its entry still holds the
    /// handle it was rebased from (an eviction or a newer insert in the
    /// meantime wins), with that parent as the grace slot. Then whatever
    /// is stale at `epoch` goes.
    fn install_migrated(&mut self, epoch: u64, migrated: Vec<Migrated>) -> DeltaCacheRefresh {
        let mut refresh = DeltaCacheRefresh::default();
        for m in migrated {
            match self.map.get_mut(&m.key) {
                Some(slots) if Arc::ptr_eq(&slots.current, &m.parent) => {
                    slots.advance(m.handle);
                    refresh.warm += 1;
                    refresh.bags_remat += m.pass.rewritten as u64;
                }
                _ => {}
            }
        }
        self.purge_stale(epoch);
        refresh
    }
}

/// What a delta did to a database's warm handles — reported in the
/// `DeltaApplied` frame and folded into the delta metrics.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct DeltaCacheRefresh {
    /// Handles migrated warm (dirty-spine refresh, `warm-overlay`).
    pub(super) warm: u64,
    /// Bag nodes re-materialized across all warm migrations.
    pub(super) bags_remat: u64,
}

/// Apply `delta` to the database `catalog` publishes under `name`, paying
/// all post-delta work before the new epoch becomes visible and outside
/// the lock readers take:
///
/// 1. stage the merged snapshot without publishing it
///    ([`Catalog::stage_delta`]);
/// 2. under `cache`'s lock, collect the handles pinning the staged
///    snapshot's predecessor, and release the lock;
/// 3. rebase each onto the staged snapshot ([`PreparedQuery::rebase`]:
///    dirty bags re-materialize and every pass the handle served runs
///    again), with no lock held — readers keep answering the old epoch
///    warm meanwhile;
/// 4. under `cache`'s lock, commit ([`Catalog::commit`]) and install the
///    migrated handles. A lost commit (a reload or another delta
///    published first) drops the work and starts over from the winner.
///
/// `before_commit` runs between steps 3 and 4 of every attempt; the
/// server passes a no-op.
pub(super) fn apply_delta_warm(
    catalog: &Catalog,
    cache: &Mutex<PreparedCache>,
    name: &str,
    delta: &DatabaseDelta,
    mut before_commit: impl FnMut(),
) -> Result<(DeltaOutcome, DeltaCacheRefresh), EngineError> {
    loop {
        let staged = catalog.stage_delta(name, delta)?;
        let parents = lock_or_poison(cache).current_at(staged.previous.epoch());
        let migrated: Vec<Migrated> = parents
            .into_iter()
            .map(|(key, parent)| {
                let (handle, pass) = parent.rebase(&staged.snapshot, &staged.touched);
                Migrated {
                    key,
                    parent,
                    handle: Arc::new(handle),
                    pass,
                }
            })
            .collect();
        before_commit();
        let mut locked = lock_or_poison(cache);
        if catalog.commit(&staged)?.is_some() {
            let refresh = locked.install_migrated(staged.snapshot.epoch(), migrated);
            return Ok((staged, refresh));
        }
    }
}
