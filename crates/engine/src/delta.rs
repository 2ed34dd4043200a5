//! The incremental update plane: delta batches, structural-sharing
//! epoch publish, and warm maintenance of prepared handles.
//!
//! A full [`crate::Catalog::swap`] rebuilds everything — the database,
//! its statistics, and (transitively, via epoch invalidation) every
//! prepared handle over it. That is the right tool for wholesale
//! reloads, and exactly the wrong one for a stream of small fact
//! updates: a hundred-tuple delta against a hundred-megabyte database
//! should cost `O(‖Δ‖ + touched)`, not `O(‖D‖)`. This module makes
//! deltas first-class, with structural sharing at every layer:
//!
//! - **Data**: [`cqd2_cq::Database::apply_delta`] rebuilds only the
//!   touched relations; every other relation is carried into the new
//!   snapshot as the same `Arc` (no buffer copy, no re-sort).
//! - **Statistics**: [`cqd2_cq::DatabaseStats::updated_for`] re-scans
//!   only the touched relations and reuses the rest of the snapshot's
//!   per-relation statistics.
//! - **Epochs**: [`crate::Catalog::apply_delta`] publishes the merged
//!   database at the next epoch under the normal swap discipline, in
//!   two steps a caller can also take itself, with work between them:
//!   [`crate::Catalog::stage_delta`] (merge, unpublished) and
//!   [`crate::Catalog::commit`] (compare-and-swap) —
//!   pinned readers are undisturbed, the write lock is held only for
//!   the pointer swap, and a rejected delta provably leaves the
//!   serving epoch unmoved (the whole batch validates before any merge).
//! - **Prepared handles**: [`crate::PreparedQuery::rebase`] migrates a
//!   warm handle onto the new snapshot by refreshing only the bag-tree
//!   nodes whose source relations the delta touched
//!   ([`cqd2_cq::MaterializedBags::refresh`]); clean bags — and their
//!   filled probe-table caches — are shared with the old tree by `Arc`.
//!   The rebase also re-runs the passes the handle had served, so its
//!   next reads are memo lookups. Every handle has a bag tree (a
//!   naive-join plan's is the trivial GHD's one bag), so every handle
//!   migrates this way. Responses from
//!   a maintained handle carry [`MaintenanceClass::WarmOverlay`] in
//!   their provenance.
//!
//! The wire format of a delta batch is the textio delta script
//! ([`crate::textio::parse_delta`]): `@insert` / `@delete` section
//! directives followed by fact lines. [`apply_delta_text`] is the
//! one-call server path: parse, validate, merge, publish.
//!
//! ```
//! use cqd2_engine::{Catalog, Engine, Workload};
//!
//! let catalog = Catalog::new();
//! catalog.publish_str("main", "R(1, 2)\nS(2, 3)\nT(7)\n")?;
//! let engine = Engine::default();
//! let q = cqd2_cq::ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
//! let prepared = engine.session_in(&catalog, "main")?.prepare(&q)?;
//!
//! // A delta touching S publishes epoch 1 incrementally…
//! let outcome = cqd2_engine::delta::apply_delta_text(&catalog, "main", "@insert\nS(2, 4)\n")?;
//! assert_eq!(outcome.snapshot.epoch(), 1);
//! assert_eq!((outcome.inserted, outcome.deleted), (1, 0));
//! // …sharing the untouched relations' buffers with epoch 0.
//! assert!(outcome.shares_relation_with_previous("R"));
//! assert!(outcome.shares_relation_with_previous("T"));
//! assert!(!outcome.shares_relation_with_previous("S"));
//! // The old handle keeps answering at its pinned epoch; a fresh
//! // session sees the delta. (`PreparedQuery::rebase` migrates the
//! // old handle warm instead.)
//! assert_eq!(prepared.run(Workload::Count).answer.as_count(), Some(1));
//! let fresh = engine.session_in(&catalog, "main")?.prepare(&q)?;
//! assert_eq!(fresh.run(Workload::Count).answer.as_count(), Some(2));
//! # Ok::<(), cqd2_engine::EngineError>(())
//! ```

use std::sync::Arc;

use crate::catalog::{Catalog, DatabaseSnapshot};
use crate::error::EngineError;
use crate::textio;

/// How a prepared handle crossed a delta epoch — recorded in
/// [`crate::PlanProvenance::maintenance`] on every response the
/// maintained handle produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceClass {
    /// The handle's materialized bag tree was refreshed in place: only
    /// the bags reading a touched relation were re-materialized, clean
    /// bags and their probe-table caches were shared by `Arc`.
    WarmOverlay,
}

impl MaintenanceClass {
    /// Stable lower-case label (`warm-overlay`), used by provenance
    /// rendering and the wire layer.
    pub fn name(self) -> &'static str {
        match self {
            MaintenanceClass::WarmOverlay => "warm-overlay",
        }
    }
}

/// A merged delta: the new snapshot, the snapshot it replaces, and the
/// merge's account of what changed. [`Catalog::stage_delta`] returns it
/// unpublished; [`Catalog::commit`] publishes it ([`Catalog::apply_delta`]
/// does both).
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The snapshot at the next epoch (published once committed).
    pub snapshot: Arc<DatabaseSnapshot>,
    /// The snapshot the delta was merged against (one epoch older;
    /// pinned readers may still be answering from it).
    pub previous: Arc<DatabaseSnapshot>,
    /// Names of the relations the merge actually rebuilt, sorted. A
    /// relation a delta names but does not change (pure no-op inserts /
    /// deletes) is **not** listed.
    pub touched: Vec<String>,
    /// Tuples genuinely added (inserts of already-present tuples do not
    /// count).
    pub inserted: usize,
    /// Tuples genuinely removed (deletes of absent tuples do not count).
    pub deleted: usize,
}

impl DeltaOutcome {
    /// Does the new snapshot share relation `name`'s storage with the
    /// previous one (same `Arc`, no copy)? The structural-sharing
    /// witness: true for every relation the delta did not touch, false
    /// for rebuilt ones, `false` also if either side lacks the name.
    pub fn shares_relation_with_previous(&self, name: &str) -> bool {
        match (
            self.snapshot.db().relation_arc(name),
            self.previous.db().relation_arc(name),
        ) {
            (Some(new), Some(old)) => Arc::ptr_eq(new, old),
            _ => false,
        }
    }
}

/// Parse a textio delta script (`@insert` / `@delete` sections, see
/// [`textio::parse_delta`]) and apply it to the database `catalog`
/// publishes under `name` — the server's `Delta`-frame path in one
/// call. Parse errors surface as line-attributed
/// [`EngineError::Parse`]; semantic rejections (unknown relation, arity
/// mismatch) as [`EngineError::Delta`]. Either way the current epoch
/// keeps serving, untouched.
pub fn apply_delta_text(
    catalog: &Catalog,
    name: &str,
    text: &str,
) -> Result<DeltaOutcome, EngineError> {
    let delta = textio::parse_delta(text)?;
    catalog.apply_delta(name, &delta)
}

/// Re-export of the batch builder for embedders assembling deltas
/// programmatically instead of via the text format.
pub use cqd2_cq::DatabaseDelta as Delta;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Workload};
    use cqd2_cq::DatabaseDelta;

    fn catalog_with_main() -> Catalog {
        let catalog = Catalog::new();
        catalog
            .publish_str("main", "R(1, 2)\nS(2, 3)\nT(9)\n")
            .unwrap();
        catalog
    }

    #[test]
    fn delta_publishes_next_epoch_and_shares_untouched_arcs() {
        let catalog = catalog_with_main();
        let mut delta = DatabaseDelta::new();
        delta.insert("S", vec![2, 4]);
        let outcome = catalog.apply_delta("main", &delta).unwrap();
        assert_eq!(outcome.snapshot.epoch(), 1);
        assert_eq!(outcome.previous.epoch(), 0);
        assert_eq!(outcome.touched, vec!["S".to_string()]);
        assert_eq!((outcome.inserted, outcome.deleted), (1, 0));
        assert!(outcome.shares_relation_with_previous("R"));
        assert!(outcome.shares_relation_with_previous("T"));
        assert!(!outcome.shares_relation_with_previous("S"));
        // Stitched statistics describe the merged data exactly.
        assert_eq!(
            outcome.snapshot.stats().total_tuples(),
            outcome.snapshot.db().size()
        );
        let s = outcome.snapshot.stats().relation("S").unwrap();
        assert_eq!(s.cardinality, 2);
    }

    #[test]
    fn a_staged_delta_is_invisible_until_its_commit_wins() {
        let catalog = catalog_with_main();
        let mut delta = DatabaseDelta::new();
        delta.insert("S", vec![2, 4]);
        let staged = catalog.stage_delta("main", &delta).unwrap();
        let twin = catalog.stage_delta("main", &delta).unwrap();
        assert_eq!(staged.snapshot.epoch(), 1);
        assert_eq!(
            catalog.snapshot("main").unwrap().epoch(),
            0,
            "staging publishes nothing"
        );
        // An outcome that is not its previous snapshot's next epoch is
        // refused.
        let forged = DeltaOutcome {
            snapshot: Arc::clone(&staged.previous),
            ..staged.clone()
        };
        assert!(catalog.commit(&forged).unwrap().is_none());
        let published = catalog.commit(&staged).unwrap().expect("first commit wins");
        assert!(Arc::ptr_eq(&published, &staged.snapshot));
        // The twin was staged on the epoch the first commit replaced.
        assert!(catalog.commit(&twin).unwrap().is_none());
        assert!(Arc::ptr_eq(
            &catalog.snapshot("main").unwrap(),
            &staged.snapshot
        ));
    }

    #[test]
    fn rejected_delta_leaves_epoch_unmoved() {
        let catalog = catalog_with_main();
        let mut unknown = DatabaseDelta::new();
        unknown.insert("Ghost", vec![1]);
        match catalog.apply_delta("main", &unknown) {
            Err(EngineError::Delta(cqd2_cq::DeltaError::UnknownRelation(n))) => {
                assert_eq!(n, "Ghost")
            }
            other => panic!("{other:?}"),
        }
        let mut arity = DatabaseDelta::new();
        arity.insert("R", vec![1, 2]); // fine…
        arity.delete("T", vec![1, 2]); // …but T has arity 1
        match catalog.apply_delta("main", &arity) {
            Err(EngineError::Delta(cqd2_cq::DeltaError::ArityMismatch { relation, .. })) => {
                assert_eq!(relation, "T")
            }
            other => panic!("{other:?}"),
        }
        // Nothing published: same epoch, same data.
        let snap = catalog.snapshot("main").unwrap();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.db().size(), 3);
    }

    #[test]
    fn delta_text_round_trip_and_parse_errors() {
        let catalog = catalog_with_main();
        let outcome =
            apply_delta_text(&catalog, "main", "@insert\nS(2, 4)\n@delete\nR(1, 2)\n").unwrap();
        assert_eq!((outcome.inserted, outcome.deleted), (1, 1));
        let mut touched = outcome.touched.clone();
        touched.sort();
        assert_eq!(touched, vec!["R".to_string(), "S".to_string()]);

        // Facts before any directive are a line-attributed parse error.
        match apply_delta_text(&catalog, "main", "S(5, 6)\n") {
            Err(EngineError::Parse(e)) => assert_eq!(e.line, Some(1)),
            other => panic!("{other:?}"),
        }
        // Unknown directives too.
        match apply_delta_text(&catalog, "main", "@upsert\nS(5, 6)\n") {
            Err(EngineError::Parse(e)) => assert_eq!(e.line, Some(1)),
            other => panic!("{other:?}"),
        }
        // Neither failed call published anything.
        assert_eq!(catalog.snapshot("main").unwrap().epoch(), 1);
    }

    #[test]
    fn prepared_handles_rebase_warm_across_a_delta() {
        let q = cqd2_cq::ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("U", &["?z", "?w"]),
        ]);
        let db = cqd2_cq::generate::planted_database(&q, 60, 400, 5);
        let catalog = Catalog::new();
        catalog.publish("main", db).unwrap();
        let engine = Engine::default();
        let prepared = engine
            .session_in(&catalog, "main")
            .unwrap()
            .prepare(&q)
            .unwrap();
        let before = cqd2_cq::eval::count_naive(&q, catalog.snapshot("main").unwrap().db());
        assert_eq!(
            prepared.run(Workload::Count).answer.as_count(),
            Some(before)
        );
        assert!(prepared.maintenance().is_none());

        // Graft a fresh U edge onto an existing S endpoint so the count
        // genuinely changes.
        let z = catalog
            .snapshot("main")
            .unwrap()
            .db()
            .relation("S")
            .unwrap()
            .tuples
            .row(0)[1];
        let outcome =
            apply_delta_text(&catalog, "main", &format!("@insert\nU({z}, 999999)\n")).unwrap();
        let (warm, pass) = prepared.rebase(&outcome.snapshot, &outcome.touched);
        assert!(pass.rewritten >= 1 && pass.rewritten < pass.total);
        assert_eq!(warm.epoch(), 1);
        assert_eq!(warm.maintenance(), Some(MaintenanceClass::WarmOverlay));
        let after = cqd2_cq::eval::count_naive(&q, outcome.snapshot.db());
        assert!(after > before, "the grafted edge adds answers");
        let resp = warm.run(Workload::Count);
        assert_eq!(resp.answer.as_count(), Some(after));
        assert_eq!(
            resp.provenance.maintenance,
            Some(MaintenanceClass::WarmOverlay)
        );
        // The old handle still answers at its pinned epoch.
        assert_eq!(
            prepared.run(Workload::Count).answer.as_count(),
            Some(before)
        );
        // A fresh prepare on the new snapshot crossed no delta.
        let fresh = engine
            .session_pinned(Arc::clone(&outcome.snapshot))
            .prepare(&q)
            .unwrap();
        assert_eq!(fresh.run(Workload::Count).provenance.maintenance, None);
        assert_eq!(MaintenanceClass::WarmOverlay.name(), "warm-overlay");
    }

    #[test]
    fn concurrent_deltas_serialize_without_losing_updates() {
        let catalog = Catalog::new();
        let mut facts = String::new();
        for i in 0..4u64 {
            facts.push_str(&format!("R({i}, {i})\n"));
        }
        catalog.publish_str("hot", &facts).unwrap();
        let rounds = 40u64;
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let catalog = &catalog;
                scope.spawn(move || {
                    for i in 0..rounds {
                        let mut delta = DatabaseDelta::new();
                        delta.insert("R", vec![1000 + t * rounds + i, 7]);
                        catalog.apply_delta("hot", &delta).unwrap();
                    }
                });
            }
        });
        let snap = catalog.snapshot("hot").unwrap();
        assert_eq!(snap.epoch(), 3 * rounds);
        assert_eq!(snap.db().size() as u64, 4 + 3 * rounds);
        assert_eq!(snap.stats().total_tuples(), snap.db().size());

        // Mixed writers on the same name: whole-database swaps racing
        // compare-and-swap deltas. Every successful install — of either
        // kind — takes exactly one epoch, and whichever lands last, the
        // published statistics describe the published data.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (catalog, start) = (&catalog, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..rounds {
                        let published = if t % 2 == 0 {
                            let mut delta = DatabaseDelta::new();
                            delta.insert("R", vec![5000 + t * rounds + i, 9]);
                            catalog.apply_delta("hot", &delta).map(|o| o.snapshot)
                        } else {
                            let mut db = cqd2_cq::Database::new();
                            db.insert_all("R", &[vec![t, i], vec![t, i + 1]]);
                            catalog.swap("hot", db)
                        };
                        let snap = published.unwrap();
                        assert_eq!(snap.stats().total_tuples(), snap.db().size());
                    }
                });
            }
        });
        let last = catalog.snapshot("hot").unwrap();
        assert_eq!(last.epoch(), snap.epoch() + 8 * rounds);
        assert_eq!(last.stats().total_tuples(), last.db().size());
    }
}
