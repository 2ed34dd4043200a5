//! Differential tests for the incremental update plane: random
//! insert/delete streams applied through the delta path must be
//! indistinguishable from rebuilding the database from scratch.
//!
//! Three layers of checking:
//!
//! 1. **Kernel level** (randomized via the vendored proptest): a stream
//!    of `@insert`/`@delete` batches applied with
//!    [`Catalog::apply_delta`] must converge to exactly the database a
//!    from-scratch rebuild produces — equal as a value, **bit-identical
//!    [`FlatRelation`] buffers** per relation, and equal statistics
//!    (the stitched [`DatabaseStats::updated_for`] path vs a full
//!    stats pass). Untouched relations must be carried by `Arc`
//!    (pointer equality), and the touched list must name exactly the
//!    relations whose contents changed.
//! 2. **Answer level**: Boolean / Count / Enumerate on the delta'd
//!    database agree with the naive evaluator on the rebuilt one, with
//!    the GHD route exercised on the delta side.
//! 3. **Epoch level**: open [`AnswerCursor`]s stay pinned to their
//!    pre-delta epoch — they keep streaming the old answers after the
//!    catalog publishes the delta — while warm-rebased handles see the
//!    new epoch.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cqd2::cq::eval::{bcq_naive, count_naive, enumerate_naive, MaterializedBags};
use cqd2::cq::generate::{canonical_query, planted_database};
use cqd2::cq::{ConjunctiveQuery, Database, DatabaseDelta, FlatRelation, Var};
use cqd2::decomp::widths::ghw_decomposition;
use cqd2::engine::{Catalog, Engine, MaintenanceClass, Workload};
use cqd2::hypergraph::generators::hyperchain;
use proptest::prelude::*;

/// One random fact-level operation: (is_insert, on_R (else S), tuple).
type Op = (bool, bool, Vec<u64>);

/// Apply one batch to the model with the kernel's documented
/// semantics: `after = (before ∪ inserts) \ deletes` — deletes win
/// over inserts of the same tuple regardless of order in the batch.
fn model_batch(model: &mut BTreeMap<String, BTreeSet<Vec<u64>>>, batch: &[Op]) {
    for &(is_insert, on_r, ref tuple) in batch {
        let rel = model
            .get_mut(if on_r { "R" } else { "S" })
            .expect("model has both relations");
        if is_insert {
            rel.insert(tuple.clone());
        }
    }
    for &(is_insert, on_r, ref tuple) in batch {
        let rel = model
            .get_mut(if on_r { "R" } else { "S" })
            .expect("model has both relations");
        if !is_insert {
            rel.remove(tuple);
        }
    }
}

/// Build a fresh database from the model's final tuple sets.
fn rebuild(model: &BTreeMap<String, BTreeSet<Vec<u64>>>) -> Database {
    let mut db = Database::new();
    for (name, tuples) in model {
        let rows: Vec<Vec<u64>> = tuples.iter().cloned().collect();
        db.insert_all(name, &rows);
        if rows.is_empty() {
            // insert_all of nothing does not declare the relation;
            // deltas can empty a relation but never drop its schema.
            db.insert_sorted_relation(name, 2, vec![]).unwrap();
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delta_stream_matches_from_scratch_rebuild(
        base_r in collection::vec(collection::vec(0u64..8, 2..3), 1..24),
        base_s in collection::vec(collection::vec(0u64..8, 2..3), 1..24),
        ops in collection::vec(
            (any::<bool>(), any::<bool>(), collection::vec(0u64..8, 2..3)),
            0..64,
        ),
        batch_size in 1usize..8,
    ) {
        let mut base = Database::new();
        base.insert_all("R", &base_r);
        base.insert_all("S", &base_s);
        let mut model: BTreeMap<String, BTreeSet<Vec<u64>>> = BTreeMap::new();
        for name in ["R", "S"] {
            model.insert(
                name.to_string(),
                base.relation(name).unwrap().tuples.to_tuples().into_iter().collect(),
            );
        }

        let catalog = Catalog::new();
        catalog.publish("stream", base).unwrap();
        let mut epoch = 0u64;
        for batch in ops.chunks(batch_size) {
            let mut delta = DatabaseDelta::new();
            for &(is_insert, on_r, ref tuple) in batch {
                let rel = if on_r { "R" } else { "S" };
                if is_insert {
                    delta.insert(rel, tuple.clone());
                } else {
                    delta.delete(rel, tuple.clone());
                }
            }
            let before = model.clone();
            model_batch(&mut model, batch);
            let out = catalog.apply_delta("stream", &delta).unwrap();
            epoch += 1;
            prop_assert_eq!(out.snapshot.epoch(), epoch);
            // `touched` names exactly the relations whose contents
            // changed; everything else rides along as the same Arc.
            for name in ["R", "S"] {
                let changed = before[name] != model[name];
                prop_assert!(
                    out.touched.contains(&name.to_string()) == changed,
                    "touched mismatch for {} at epoch {}", name, epoch
                );
                let shared = Arc::ptr_eq(
                    out.previous.db().relation_arc(name).unwrap(),
                    out.snapshot.db().relation_arc(name).unwrap(),
                );
                prop_assert!(
                    shared != changed,
                    "Arc sharing mismatch for {} at epoch {}", name, epoch
                );
            }
        }

        let live = catalog.snapshot("stream").unwrap();
        let rebuilt = rebuild(&model);
        // Value equality, bit-identical flat buffers, equal statistics.
        prop_assert_eq!(live.db(), &rebuilt);
        let vars = vec![Var(0), Var(1)];
        for name in ["R", "S"] {
            let via_delta = &live.db().relation(name).unwrap().tuples;
            let scratch = FlatRelation::from_rows(
                vars.clone(),
                &rebuilt.relation(name).unwrap().tuples.to_tuples(),
            );
            prop_assert!(
                via_delta.data() == scratch.data(),
                "flat buffer of {} differs between delta and rebuild", name
            );
        }
        prop_assert_eq!(live.stats(), &rebuilt.stats());

        // Answers: naive on both sides, plus the GHD route on the
        // delta'd side against naive on the rebuilt side.
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        prop_assert_eq!(count_naive(&q, live.db()), count_naive(&q, &rebuilt));
        prop_assert_eq!(bcq_naive(&q, live.db()), bcq_naive(&q, &rebuilt));
        prop_assert_eq!(enumerate_naive(&q, live.db()), enumerate_naive(&q, &rebuilt));
        let ghd = ghw_decomposition(&q.hypergraph()).expect("chain decomposes");
        prop_assert_eq!(
            MaterializedBags::build(&q, live.db(), &ghd).unwrap().count(),
            count_naive(&q, &rebuilt)
        );
    }
}

#[test]
fn open_cursors_stay_pinned_to_pre_delta_epochs() {
    for seed in 0..4u64 {
        let q = canonical_query(&hyperchain(3, 2));
        let db = planted_database(&q, 60, 400, seed);
        let catalog = Catalog::new();
        catalog.publish("hot", db).unwrap();
        let engine = Engine::default();

        let prepared = engine
            .session_in(&catalog, "hot")
            .unwrap()
            .prepare(&q)
            .unwrap();
        let pre = enumerate_naive(&q, catalog.snapshot("hot").unwrap().db());
        assert!(!pre.is_empty(), "planted database has answers");
        // A cursor opened before the delta…
        let early_cursor = prepared.cursor(None);

        // Graft a fresh R2 edge onto an existing answer's ?v2 value:
        // guaranteed new answers (999999 is outside the planted domain).
        let c = pre[0][2];
        let mut delta = DatabaseDelta::new();
        delta.insert("R2", vec![c, 999_999]);
        let outcome = catalog.apply_delta("hot", &delta).unwrap();
        assert_eq!(outcome.snapshot.epoch(), 1);
        assert_eq!(outcome.touched, vec!["R2".to_string()]);
        let post = enumerate_naive(&q, outcome.snapshot.db());
        assert!(post.len() > pre.len(), "grafted edge adds answers");

        // …and a cursor opened from the old handle after the delta
        // both stream the pre-delta epoch's answers.
        let late_cursor = prepared.cursor(None);
        let mut early: Vec<Vec<u64>> = early_cursor.collect();
        early.sort_unstable();
        assert_eq!(early, pre, "seed {seed}: early cursor drifted");
        let mut late: Vec<Vec<u64>> = late_cursor.collect();
        late.sort_unstable();
        assert_eq!(late, pre, "seed {seed}: late cursor drifted");
        // The old handle itself still answers at its pinned epoch.
        assert_eq!(
            prepared.run(Workload::Count).answer.as_count(),
            Some(pre.len() as u128)
        );

        // A warm rebase migrates to the new epoch: only dirty bags are
        // rewritten, and its answers are the post-delta set.
        let (warm, pass) = prepared.rebase(&outcome.snapshot, &outcome.touched);
        assert!(pass.rewritten >= 1, "seed {seed}: delta rewrote a bag");
        assert!(
            pass.rewritten < pass.total,
            "seed {seed}: clean bags were carried, not rebuilt"
        );
        assert_eq!(warm.maintenance(), Some(MaintenanceClass::WarmOverlay));
        let mut warm_answers: Vec<Vec<u64>> = warm.cursor(None).collect();
        warm_answers.sort_unstable();
        assert_eq!(warm_answers, post, "seed {seed}: warm handle answers");

        // The pre-delta cursor is self-contained: dropping the handle
        // it came from does not disturb an in-flight stream.
        let survivor = prepared.cursor(None);
        drop(prepared);
        let mut survived: Vec<Vec<u64>> = survivor.collect();
        survived.sort_unstable();
        assert_eq!(survived, pre, "seed {seed}: cursor outlives its handle");
    }
}
