//! The versioned database catalog: named, epoch-pinned snapshots.
//!
//! The paper's amortization story — pay the `O(‖D‖^w)` GHD
//! preprocessing once, answer cheaply forever after — only holds if the
//! database a prepared handle was built against cannot change
//! underneath it. The original serving API enforced that with borrows
//! (`Session<'a>` froze the database for the handle's lifetime), which
//! also froze the *server*: no database could ever be reloaded while a
//! single handle existed. This module replaces the borrow with a pin:
//!
//! - a [`DatabaseSnapshot`] is an immutable `(name, epoch, database,
//!   statistics)` quadruple, the statistics computed **once at publish
//!   time** (`O(‖D‖)`) and shared by every session that pins the
//!   snapshot;
//! - a [`Catalog`] maps names to `Arc<DatabaseSnapshot>`s with a
//!   monotonically increasing per-name **epoch**. [`Catalog::swap`]
//!   atomically publishes a new snapshot for a name: readers that
//!   already pinned the old `Arc` keep answering consistently against
//!   it (constant-delay cursors included), new sessions see the new
//!   epoch, and the old snapshot's memory is released when its last pin
//!   drops;
//! - the epoch is the invalidation token: caches keyed by `(query text,
//!   epoch)` — like the server's prepared-query cache — go stale
//!   *naturally* on a swap instead of serving answers from reloaded-away
//!   data.
//!
//! ```
//! use cqd2_engine::{Catalog, Engine, Workload};
//! use cqd2_cq::Database;
//!
//! let catalog = Catalog::new();
//! catalog.publish_str("main", "R(1, 2)\nS(2, 3)\n")?;
//!
//! let engine = Engine::default();
//! let session = engine.session_in(&catalog, "main")?;
//! let prepared = session.prepare(&cqd2_cq::ConjunctiveQuery::parse(&[
//!     ("R", &["?x", "?y"]),
//!     ("S", &["?y", "?z"]),
//! ]))?;
//! assert_eq!(prepared.run(Workload::Count).answer.as_count(), Some(1));
//!
//! // Hot reload: the swap does not disturb the pinned session…
//! catalog.swap_str("main", "R(1, 2)\nS(2, 3)\nS(2, 4)\n")?;
//! assert_eq!(prepared.run(Workload::Count).answer.as_count(), Some(1));
//! assert_eq!(prepared.epoch(), 0);
//! // …while a fresh session observes the new epoch and the new data.
//! let fresh = engine.session_in(&catalog, "main")?;
//! assert_eq!(fresh.epoch(), 1);
//! # Ok::<(), cqd2_engine::EngineError>(())
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use cqd2_cq::stats::DatabaseStats;
use cqd2_cq::sync::{read_or_poison, write_or_poison};
use cqd2_cq::Database;

use crate::error::EngineError;
use crate::textio;

/// An immutable published state of one named database: the data, its
/// statistics (computed once, at publish time), the name it is
/// published under, and the epoch that publication got.
///
/// Snapshots are shared as `Arc<DatabaseSnapshot>`: a
/// [`crate::Session`] pins one at creation and every
/// [`crate::PreparedQuery`] prepared on the session keeps the pin, so
/// in-flight work keeps a consistent view across any number of
/// [`Catalog::swap`]s.
#[derive(Debug)]
pub struct DatabaseSnapshot {
    name: String,
    epoch: u64,
    db: Database,
    stats: DatabaseStats,
}

impl DatabaseSnapshot {
    /// Publish-time construction: takes ownership of `db` and computes
    /// its full statistics once (`O(‖D‖)`).
    pub fn new(name: impl Into<String>, epoch: u64, db: Database) -> DatabaseSnapshot {
        let stats = db.stats();
        DatabaseSnapshot::with_stats(name, epoch, db, stats)
    }

    /// Construction from *precomputed* statistics: what the snapshot
    /// store uses — a `.cqds` file carries the statistics persisted at
    /// save time, so publishing a loaded database skips the `O(‖D‖)`
    /// collection pass entirely. The caller vouches that `stats`
    /// describes `db`; inside this crate that is the store's load path,
    /// whose checksums protect the pair together.
    pub fn with_stats(
        name: impl Into<String>,
        epoch: u64,
        db: Database,
        stats: DatabaseStats,
    ) -> DatabaseSnapshot {
        DatabaseSnapshot {
            name: name.into(),
            epoch,
            db,
            stats,
        }
    }

    /// A snapshot that is not published in any catalog (what the
    /// `&Database` convenience shim [`crate::Engine::session`] pins).
    pub(crate) fn detached(db: Database) -> DatabaseSnapshot {
        DatabaseSnapshot::new("", 0, db)
    }

    /// The name this snapshot was published under (empty for detached
    /// snapshots).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The publication epoch: 0 for the first publish of a name, bumped
    /// by one on every [`Catalog::swap`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The statistics snapshot computed at publish time.
    pub fn stats(&self) -> &DatabaseStats {
        &self.stats
    }
}

/// A mutable, versioned source of database snapshots: names map to
/// [`Arc<DatabaseSnapshot>`]s, and [`Catalog::swap`] publishes a new
/// snapshot for a name without disturbing readers of the old one.
///
/// All methods take `&self` (the map sits behind an `RwLock`), so one
/// catalog is shared freely across server threads, reload handlers, and
/// sessions. Lookups clone an `Arc` under the read lock — no data is
/// copied, and writers block readers only for the map update itself,
/// never for statistics computation (which happens before the lock is
/// taken).
#[derive(Default)]
pub struct Catalog {
    entries: RwLock<BTreeMap<String, Arc<DatabaseSnapshot>>>,
}

/// Which map slot [`Catalog::install`] may write.
enum Slot<'a> {
    /// The name must be unpublished; the snapshot gets epoch 0.
    New,
    /// The name must be published; the snapshot gets the next epoch.
    Replace,
    /// As `Replace`, but only while the published snapshot is still
    /// this one (compare-and-swap).
    ReplaceIf(&'a Arc<DatabaseSnapshot>),
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The one publication routine — the only place that takes the
    /// write lock and the only place that publishes an epoch. Callers
    /// compute the statistics *before* calling, so the lock is held for
    /// the map update alone; `snapshot` builds the published record
    /// from the epoch the slot grants (a staged delta already carries
    /// it). `Ok(None)` is a lost [`Slot::ReplaceIf`] race: nothing was
    /// published.
    fn install(
        &self,
        name: &str,
        slot: Slot<'_>,
        snapshot: impl FnOnce(u64) -> Arc<DatabaseSnapshot>,
    ) -> Result<Option<Arc<DatabaseSnapshot>>, EngineError> {
        let mut entries = write_or_poison(&self.entries);
        let epoch = match (entries.get(name), slot) {
            (None, Slot::New) => 0,
            (Some(_), Slot::New) => return Err(EngineError::DuplicateDatabase(name.to_string())),
            (None, _) => return Err(EngineError::UnknownDatabase(name.to_string())),
            (Some(live), Slot::ReplaceIf(expected)) if !Arc::ptr_eq(live, expected) => {
                return Ok(None);
            }
            (Some(live), _) => live.epoch + 1,
        };
        let snapshot = snapshot(epoch);
        entries.insert(name.to_string(), Arc::clone(&snapshot));
        Ok(Some(snapshot))
    }

    /// [`Catalog::install`] of a freshly built snapshot, for the slots
    /// that cannot lose a race.
    fn install_now(
        &self,
        name: &str,
        slot: Slot<'_>,
        db: Database,
        stats: DatabaseStats,
    ) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        let build = |epoch| Arc::new(DatabaseSnapshot::with_stats(name, epoch, db, stats));
        let installed = self.install(name, slot, build)?;
        // cqd2-lint: allow(panic-in-hot-path, reason = "only Slot::ReplaceIf yields Ok(None), and commit, its one user, calls install directly")
        Ok(installed.expect("Slot::New / Slot::Replace cannot lose a race"))
    }

    /// Publish `db` under a *new* name at epoch 0. Rejects names that
    /// are already published ([`EngineError::DuplicateDatabase`]) — use
    /// [`Catalog::swap`] to replace an existing database, so that "load
    /// two databases under one name by accident" is a loud startup
    /// error, never a silent last-wins.
    pub fn publish(
        &self,
        name: impl Into<String>,
        db: Database,
    ) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        let stats = db.stats();
        self.publish_with_stats(name, db, stats)
    }

    /// Atomically publish a new snapshot for an *existing* name at the
    /// next epoch. Sessions and prepared queries pinning the previous
    /// snapshot are undisturbed — they keep answering against their
    /// epoch until dropped; new sessions (and epoch-keyed caches) see
    /// the new snapshot immediately. The statistics scan happens before
    /// the write lock, so readers are blocked only for the pointer swap;
    /// the epoch is read under it, so concurrent swaps serialize cleanly.
    pub fn swap(&self, name: &str, db: Database) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        let stats = db.stats();
        self.swap_with_stats(name, db, stats)
    }

    /// [`Catalog::publish`] with precomputed statistics
    /// ([`DatabaseSnapshot::with_stats`]): no statistics pass runs, not
    /// even outside the lock. This is the snapshot store's publish path.
    pub fn publish_with_stats(
        &self,
        name: impl Into<String>,
        db: Database,
        stats: DatabaseStats,
    ) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        self.install_now(&name.into(), Slot::New, db, stats)
    }

    /// [`Catalog::swap`] with precomputed statistics (the snapshot
    /// store's reload path). Same epoch discipline as [`Catalog::swap`];
    /// on error the current snapshot keeps serving.
    pub fn swap_with_stats(
        &self,
        name: &str,
        db: Database,
        stats: DatabaseStats,
    ) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        self.install_now(name, Slot::Replace, db, stats)
    }

    /// Apply a delta batch to the database published under `name` and
    /// publish the result at the next epoch — the **incremental** swap:
    /// [`Catalog::stage_delta`], then [`Catalog::commit`], redone
    /// against the newer snapshot whenever another publish wins the
    /// commit. Callers with work to finish *before* the new epoch
    /// becomes visible (the server migrates its prepared handles) run
    /// that loop themselves, with their work between the two steps.
    ///
    /// Unlike [`Catalog::swap`], neither the data nor the statistics
    /// are rebuilt from scratch:
    ///
    /// - the merge ([`cqd2_cq::Database::apply_delta`]) rebuilds only
    ///   the relations the delta touches; every untouched relation is
    ///   carried into the new snapshot as the **same `Arc`** (assert
    ///   with [`cqd2_cq::Database::relation_arc`] + `Arc::ptr_eq`);
    /// - statistics are stitched ([`DatabaseStats::updated_for`]): only
    ///   the touched relations are re-scanned.
    ///
    /// The whole batch validates before anything publishes — a typed
    /// [`EngineError::Delta`] (unknown relation, arity mismatch) leaves
    /// the current epoch serving, untouched. Merge and statistics run
    /// outside the write lock, so concurrent deltas serialize cleanly
    /// without holding the lock across `O(‖Δ‖)` work.
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &cqd2_cq::DatabaseDelta,
    ) -> Result<crate::delta::DeltaOutcome, EngineError> {
        loop {
            let staged = self.stage_delta(name, delta)?;
            if self.commit(&staged)?.is_some() {
                return Ok(staged);
            }
            // A concurrent publish won; redo the merge on top of it.
        }
    }

    /// Merge `delta` into the snapshot published under `name` **without
    /// publishing it**: the returned outcome's `snapshot` carries epoch
    /// `previous.epoch() + 1` and is visible to no reader until
    /// [`Catalog::commit`] installs it. No lock is held on return, and
    /// dropping the outcome instead of committing it publishes nothing.
    pub fn stage_delta(
        &self,
        name: &str,
        delta: &cqd2_cq::DatabaseDelta,
    ) -> Result<crate::delta::DeltaOutcome, EngineError> {
        let previous = self.snapshot(name)?;
        let applied = previous.db().apply_delta(delta)?;
        let stats = previous.stats().updated_for(&applied.db, &applied.touched);
        let snapshot = DatabaseSnapshot::with_stats(name, previous.epoch + 1, applied.db, stats);
        Ok(crate::delta::DeltaOutcome {
            snapshot: Arc::new(snapshot),
            previous,
            touched: applied.touched,
            inserted: applied.inserted,
            deleted: applied.deleted,
        })
    }

    /// Publish a [`Catalog::stage_delta`] outcome, compare-and-swap: only
    /// while `staged.previous` is still the published snapshot, so the
    /// staged epoch is exactly the next one. Returns the published
    /// snapshot, or `None` — nothing published — when another publish
    /// (a delta or a reload) won; stage again on top of the winner.
    /// An outcome whose `snapshot` is not `previous`'s name at the next
    /// epoch is never published either.
    pub fn commit(
        &self,
        staged: &crate::delta::DeltaOutcome,
    ) -> Result<Option<Arc<DatabaseSnapshot>>, EngineError> {
        let (next, previous) = (&staged.snapshot, &staged.previous);
        if next.name() != previous.name() || next.epoch() != previous.epoch() + 1 {
            return Ok(None);
        }
        // The swap succeeds only on `previous`, whose next epoch `next`
        // already carries.
        self.install(next.name(), Slot::ReplaceIf(previous), |_| Arc::clone(next))
    }

    /// [`Catalog::publish`] from a facts-only database text
    /// ([`textio::parse_database`]).
    pub fn publish_str(
        &self,
        name: impl Into<String>,
        text: &str,
    ) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        let db = textio::parse_database(text)?;
        self.publish(name, db)
    }

    /// [`Catalog::swap`] from a facts-only database text.
    pub fn swap_str(&self, name: &str, text: &str) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        let db = textio::parse_database(text)?;
        self.swap(name, db)
    }

    /// The current snapshot published under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<DatabaseSnapshot>> {
        read_or_poison(&self.entries).get(name).cloned()
    }

    /// Like [`Catalog::get`], but unknown names are a typed error.
    pub fn snapshot(&self, name: &str) -> Result<Arc<DatabaseSnapshot>, EngineError> {
        self.get(name)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))
    }

    /// All published names, sorted.
    pub fn names(&self) -> Vec<String> {
        read_or_poison(&self.entries).keys().cloned().collect()
    }

    /// The current snapshot of every published name, sorted by name.
    pub fn snapshots(&self) -> Vec<Arc<DatabaseSnapshot>> {
        read_or_poison(&self.entries).values().cloned().collect()
    }

    /// Number of published names.
    pub fn len(&self) -> usize {
        read_or_poison(&self.entries).len()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        read_or_poison(&self.entries).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_swap_and_epochs() {
        let catalog = Catalog::new();
        assert!(catalog.is_empty());
        let first = catalog.publish_str("main", "R(1, 2)\n").unwrap();
        assert_eq!((first.name(), first.epoch()), ("main", 0));
        assert_eq!(first.db().size(), 1);
        assert_eq!(first.stats().total_tuples(), 1);

        // Duplicate publish is a typed error, not last-wins.
        match catalog.publish_str("main", "R(9, 9)\n") {
            Err(EngineError::DuplicateDatabase(name)) => assert_eq!(name, "main"),
            other => panic!("{other:?}"),
        }
        // The failed publish did not disturb the entry.
        assert_eq!(catalog.snapshot("main").unwrap().db().size(), 1);

        // Swaps bump the epoch and leave the old Arc answering.
        let second = catalog.swap_str("main", "R(1, 2)\nR(3, 4)\n").unwrap();
        assert_eq!(second.epoch(), 1);
        assert_eq!(second.db().size(), 2);
        assert_eq!(first.db().size(), 1, "pinned snapshot undisturbed");
        assert_eq!(catalog.swap_str("main", "R(5, 6)\n").unwrap().epoch(), 2);

        // Swapping an unpublished name is a typed error.
        match catalog.swap("ghost", Database::new()) {
            Err(EngineError::UnknownDatabase(name)) => assert_eq!(name, "ghost"),
            other => panic!("{other:?}"),
        }
        match catalog.snapshot("ghost") {
            Err(EngineError::UnknownDatabase(_)) => {}
            other => panic!("{other:?}"),
        }

        catalog.publish_str("aux", "T(7)\n").unwrap();
        assert_eq!(catalog.names(), vec!["aux".to_string(), "main".to_string()]);
        assert_eq!(catalog.len(), 2);
        let snaps = catalog.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].name(), "aux");
    }

    #[test]
    fn swap_is_atomic_under_concurrent_readers() {
        // Readers racing a stream of swaps must only ever observe fully
        // published snapshots whose statistics match their data, with
        // non-decreasing epochs.
        let catalog = Catalog::new();
        catalog.publish_str("hot", "R(0, 0)\n").unwrap();
        let swaps = 200;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 1..=swaps {
                    let mut db = Database::new();
                    db.insert_all("R", &(0..=i).map(|j| vec![j, j]).collect::<Vec<_>>());
                    catalog.swap("hot", db).unwrap();
                }
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut last_epoch = 0;
                    for _ in 0..500 {
                        let snap = catalog.snapshot("hot").unwrap();
                        assert!(snap.epoch() >= last_epoch, "epochs are monotone");
                        last_epoch = snap.epoch();
                        // Stats were computed from exactly this data.
                        assert_eq!(snap.stats().total_tuples(), snap.db().size());
                        assert_eq!(snap.db().size() as u64, snap.epoch() + 1);
                    }
                });
            }
        });
        assert_eq!(catalog.snapshot("hot").unwrap().epoch(), swaps);
    }

    #[test]
    fn parse_failures_surface_and_do_not_publish() {
        let catalog = Catalog::new();
        match catalog.publish_str("bad", "R(banana)\n") {
            Err(EngineError::Parse(e)) => assert_eq!(e.line, Some(1)),
            other => panic!("{other:?}"),
        }
        assert!(catalog.get("bad").is_none());
        catalog.publish_str("ok", "R(1)\n").unwrap();
        match catalog.swap_str("ok", "R(1\n") {
            Err(EngineError::Parse(_)) => {}
            other => panic!("{other:?}"),
        }
        // A failed swap leaves the current epoch serving.
        assert_eq!(catalog.snapshot("ok").unwrap().epoch(), 0);
    }
}
