//! Integration tests for the `cqd2-engine` serving layer: planner
//! strategy selection, plan-cache semantics under isomorphic renaming,
//! batch execution against the end-to-end pipeline fixtures, and plan
//! persistence through the `serde` feature.

use cqd2::cq::eval::{bcq_naive, count_naive, enumerate_naive};
use cqd2::cq::generate::{canonical_query, planted_database, random_database};
use cqd2::cq::{ConjunctiveQuery, Term, Var};
use cqd2::engine::{Engine, EngineConfig, PlannerConfig, QueryPlan, Request, Workload};
use cqd2::hypergraph::generators::{hyperchain, hypercycle, random_degree_bounded};
use cqd2::jigsaw::extract::decorated_jigsaw_dual;
use cqd2::jigsaw::jigsaw;

/// An isomorphic copy of `q`: variable ids rotated by `shift`, relations
/// renamed with a `tag`. Same hypergraph structure, different names and
/// coordinates — exactly what a repeated-shape workload looks like.
fn renamed_copy(q: &ConjunctiveQuery, shift: usize, tag: &str) -> ConjunctiveQuery {
    let n = q.num_vars();
    let rot = |v: Var| Var(((v.idx() + shift) % n) as u32);
    let mut var_names = vec![String::new(); n];
    for (i, name) in q.var_names.iter().enumerate() {
        var_names[(i + shift) % n] = format!("{name}_{tag}");
    }
    let atoms = q
        .atoms
        .iter()
        .map(|a| cqd2::cq::Atom {
            relation: format!("{}_{tag}", a.relation),
            terms: a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(rot(*v)),
                    Term::Const(c) => Term::Const(*c),
                })
                .collect(),
        })
        .collect();
    ConjunctiveQuery { atoms, var_names }
}

/// Rename the database of `q` to match `renamed_copy(q, _, tag)`.
fn renamed_db(q: &ConjunctiveQuery, db: &cqd2::cq::Database, tag: &str) -> cqd2::cq::Database {
    let mut out = cqd2::cq::Database::new();
    for atom in &q.atoms {
        if let Some(rel) = db.relation(&atom.relation) {
            out.insert_all(&format!("{}_{tag}", atom.relation), &rel.tuples.to_tuples());
        }
    }
    out
}

#[test]
fn planner_routes_acyclic_queries_to_yannakakis() {
    let engine = Engine::default();
    let q = canonical_query(&hyperchain(5, 3));
    let (planned, _, _) = engine.plan(&q, Workload::Boolean);
    match planned.plan {
        QueryPlan::GhdYannakakis { width, .. } => assert_eq!(width, 1),
        other => panic!("expected width-1 Yannakakis for a chain, got {other:?}"),
    }
    let (counted, _, _) = engine.plan(&q, Workload::Count);
    assert!(matches!(counted.plan, QueryPlan::CountingDp { .. }));
}

#[test]
fn planner_routes_grid_like_degree2_queries_to_jigsaw() {
    let engine = Engine::default();
    let q = canonical_query(&jigsaw(3, 3));
    let (planned, _, _) = engine.plan(&q, Workload::Boolean);
    match &planned.plan {
        QueryPlan::JigsawReduce { n, sequence } => {
            // The fixture *is* the 3×3 jigsaw, so the verified dilution
            // sequence to it may legitimately be empty.
            assert_eq!(*n, 3);
            let _ = sequence;
        }
        other => panic!("expected a jigsaw hardness certificate, got {other:?}"),
    }
    // The certificate explains the hard regime in its notes.
    assert!(
        planned.explain().contains("jigsaw"),
        "{}",
        planned.explain()
    );
}

#[test]
fn planner_routes_wide_oversize_queries_to_naive() {
    let engine = Engine::new(EngineConfig {
        planner: PlannerConfig {
            use_heuristic_ghd: false,
            jigsaw_max_n: 0,
            ..PlannerConfig::default()
        },
        ..EngineConfig::default()
    });
    let h = random_degree_bounded(30, 3, 3, 0.4, 7);
    assert!(
        h.num_vertices() > 26,
        "fixture must exceed the exact-ghw cap"
    );
    let q = canonical_query(&h);
    let (planned, _, _) = engine.plan(&q, Workload::Boolean);
    assert!(
        matches!(planned.plan, QueryPlan::NaiveJoin),
        "got {planned:?}"
    );
}

#[test]
fn plan_cache_hits_isomorphic_renamed_queries() {
    let engine = Engine::default();
    let base = canonical_query(&hypercycle(6, 2));
    let base_db = planted_database(&base, 8, 20, 42);
    let serve_bool = |query: &ConjunctiveQuery, db: &cqd2::cq::Database| {
        let resp = engine.serve(&Request {
            query,
            db,
            workload: Workload::Boolean,
        });
        resp.answer.as_bool().expect("boolean workload")
    };

    // Cold: one miss.
    assert!(serve_bool(&base, &base_db));
    let after_first = engine.cache_stats();
    assert_eq!((after_first.hits, after_first.misses), (0, 1));

    // Ten isomorphic-but-renamed copies: all hits, no new entries, and
    // answers agree with naive evaluation on the renamed databases.
    for i in 1..=10 {
        let q = renamed_copy(&base, i, &format!("v{i}"));
        let db = renamed_db(&base, &base_db, &format!("v{i}"));
        assert_eq!(serve_bool(&q, &db), bcq_naive(&q, &db));
    }
    let warm = engine.cache_stats();
    assert_eq!(warm.misses, 1, "renamings must not re-plan");
    assert_eq!(warm.hits, 10);
    assert_eq!(warm.entries, 1);

    // A structurally different query is a miss.
    let other = canonical_query(&hyperchain(6, 2));
    let other_db = random_database(&other, 5, 10, 3);
    serve_bool(&other, &other_db);
    assert_eq!(engine.cache_stats().misses, 2);
}

#[test]
fn batch_execution_matches_naive_on_pipeline_fixtures() {
    // The end-to-end pipeline fixture: a decorated degree-2 host hiding
    // a 3×3 grid in its dual, exactly as in tests/end_to_end.rs.
    let host = decorated_jigsaw_dual(3, 3, 1, 1);
    let host_q = canonical_query(&host);
    let host_db = planted_database(&host_q, 4, 6, 9);

    let cycle_q = canonical_query(&hypercycle(5, 2));
    let cycle_db = random_database(&cycle_q, 6, 14, 5);
    let chain_q = canonical_query(&hyperchain(4, 2));
    let chain_db = random_database(&chain_q, 6, 14, 6);

    let requests = vec![
        Request {
            query: &host_q,
            db: &host_db,
            workload: Workload::Boolean,
        },
        Request {
            query: &cycle_q,
            db: &cycle_db,
            workload: Workload::Boolean,
        },
        Request {
            query: &chain_q,
            db: &chain_db,
            workload: Workload::Count,
        },
        Request {
            query: &cycle_q,
            db: &cycle_db,
            workload: Workload::Count,
        },
        Request {
            query: &host_q,
            db: &host_db,
            workload: Workload::Count,
        },
        Request {
            query: &chain_q,
            db: &chain_db,
            workload: Workload::Enumerate { limit: None },
        },
    ];
    let engine = Engine::new(EngineConfig {
        workers: 3,
        ..EngineConfig::default()
    });
    let responses = engine.execute_batch(&requests);
    assert_eq!(responses.len(), requests.len());

    for (req, resp) in requests.iter().zip(&responses) {
        match req.workload {
            Workload::Boolean => assert_eq!(
                resp.answer.as_bool().unwrap(),
                bcq_naive(req.query, req.db),
                "boolean mismatch"
            ),
            Workload::Count => assert_eq!(
                resp.answer.as_count().unwrap(),
                count_naive(req.query, req.db),
                "count mismatch"
            ),
            Workload::Enumerate { .. } => {
                let mut got = resp.answer.as_tuples().expect("tuples").to_vec();
                got.sort_unstable();
                assert_eq!(got, enumerate_naive(req.query, req.db), "tuple mismatch");
            }
        }
    }
    // The planted host instance must be satisfiable, and its plan must
    // carry the Theorem 4.7 certificate.
    assert_eq!(responses[0].answer.as_bool(), Some(true));
    assert!(matches!(
        responses[0].provenance.planned.plan,
        QueryPlan::JigsawReduce { n: 3, .. }
    ));
    // Three distinct structures, six requests: three cache hits.
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.hits + stats.misses, 6);
    assert_eq!(stats.misses, 3);
}

#[test]
fn sessions_amortize_stats_and_prepared_queries_amortize_planning() {
    let engine = Engine::default();
    let base = canonical_query(&hypercycle(6, 2));
    let db = planted_database(&base, 8, 20, 42);
    let session = engine.session(&db);

    // Preparing ten isomorphic renamings of one structure plans once.
    let mut prepared = vec![session.prepare(&base).unwrap()];
    assert!(!prepared[0].cache_hit());
    for i in 1..=10 {
        let q = renamed_copy(&base, i, &format!("v{i}"));
        prepared.push(session.prepare(&q).unwrap());
        assert!(prepared[i].cache_hit(), "renaming {i} must hit the cache");
    }
    assert_eq!(engine.cache_stats().misses, 1);

    // Every prepared handle runs all workloads with zero planning and
    // answers that match the independent evaluators. (The renamed
    // queries run against the *base* database on purpose: their renamed
    // relations are absent, so they exercise the empty-relation path.)
    let resp = prepared[0].run(Workload::Boolean);
    assert_eq!(resp.answer.as_bool(), Some(true));
    assert_eq!(resp.provenance.planning, std::time::Duration::ZERO);
    let count = prepared[0].run(Workload::Count);
    assert_eq!(count.answer.as_count(), Some(count_naive(&base, &db)));
    let mut tuples = prepared[0]
        .run(Workload::Enumerate { limit: None })
        .answer
        .into_tuples()
        .unwrap();
    tuples.sort_unstable();
    assert_eq!(tuples, enumerate_naive(&base, &db));
    for p in &prepared[1..] {
        assert_eq!(p.run(Workload::Boolean).answer.as_bool(), Some(false));
    }
}

#[test]
fn prepared_cursor_streams_enumeration_answers() {
    let engine = Engine::default();
    let q = canonical_query(&hyperchain(4, 2));
    let db = planted_database(&q, 7, 25, 17);
    let session = engine.session(&db);
    let prepared = session.prepare(&q).unwrap();
    let expected = enumerate_naive(&q, &db);
    // Unlimited cursor covers the whole answer set.
    let mut streamed: Vec<_> = prepared.cursor(None).collect();
    streamed.sort_unstable();
    assert_eq!(streamed, expected);
    // A limit caps the stream; Workload::Enumerate agrees.
    let capped: Vec<_> = prepared.cursor(Some(3)).collect();
    assert_eq!(capped.len(), expected.len().min(3));
    let resp = prepared.run(Workload::Enumerate { limit: Some(3) });
    assert_eq!(resp.answer.as_tuples().map(<[_]>::len), Some(capped.len()));
}

#[test]
fn stats_estimate_is_recorded_and_small_data_keeps_the_ghd() {
    let engine = Engine::default();
    let q = canonical_query(&hypercycle(6, 2));
    // Structure alone says GHD (width 2 beats exponent 6)…
    let (structural, _, _) = engine.plan(&q, Workload::Boolean);
    assert!(
        matches!(structural.plan, QueryPlan::GhdYannakakis { .. }),
        "got {structural:?}"
    );
    assert!(structural.cost.data.is_none());
    // …and on a tiny database, where the estimate prices the naive join
    // below the GHD route, the plan is still the structure's: the
    // estimate is recorded for `--explain`, not acted on.
    let small_db = random_database(&q, 3, 2, 5);
    let (planned, _, _) = engine.plan_with_db(&q, &small_db.stats(), Workload::Boolean);
    assert_eq!(planned.plan, structural.plan, "{planned:?}");
    let est = planned.cost.data.expect("estimate recorded in provenance");
    assert!(est.naive_cost <= est.ghd_cost.unwrap(), "{est:?}");
    assert_eq!(est.db_tuples, small_db.size());
    assert!(
        planned.explain().contains("stats:"),
        "--explain must surface the estimate:\n{}",
        planned.explain()
    );
    let (counted, _, _) = engine.plan_with_db(&q, &small_db.stats(), Workload::Count);
    assert!(
        matches!(counted.plan, QueryPlan::CountingDp { .. }),
        "{counted:?}"
    );
    // Serving runs that GHD, with correct answers — and never computes
    // the estimate: one-shot, batch and prepared responses carry none.
    let req = Request {
        query: &q,
        db: &small_db,
        workload: Workload::Boolean,
    };
    let resp = engine.serve(&req);
    assert_eq!(resp.provenance.planned.plan.strategy(), "ghd-yannakakis");
    assert_eq!(resp.answer.as_bool().unwrap(), bcq_naive(&q, &small_db));
    let batch = engine.execute_batch(&[req]).remove(0);
    let prepared = engine.session(&small_db).prepare(&q).unwrap();
    for resp in [resp, batch, prepared.run(Workload::Boolean)] {
        assert_eq!(resp.answer.as_bool().unwrap(), bcq_naive(&q, &small_db));
        assert!(resp.provenance.planned.cost.data.is_none());
    }
}

#[test]
fn plans_roundtrip_through_json() {
    let engine = Engine::default();
    for h in [hyperchain(4, 2), hypercycle(5, 2), jigsaw(2, 3)] {
        let q = canonical_query(&h);
        let (planned, _, _) = engine.plan(&q, Workload::Boolean);
        let json = serde::json::to_string_pretty(&planned);
        let back: cqd2::engine::PlannedQuery = serde::json::from_str(&json).unwrap();
        assert_eq!(back, planned, "plan JSON roundtrip for {}", q.display());
        // Stats-refined plans carry a DataEstimate; it must roundtrip too.
        let db = random_database(&q, 6, 10, 3);
        let (planned, _, _) = engine.plan_with_db(&q, &db.stats(), Workload::Boolean);
        assert!(planned.cost.data.is_some());
        let json = serde::json::to_string_pretty(&planned);
        let back: cqd2::engine::PlannedQuery = serde::json::from_str(&json).unwrap();
        assert_eq!(
            back,
            planned,
            "stats plan JSON roundtrip for {}",
            q.display()
        );
    }
}

#[test]
fn catalog_reload_under_load_pins_inflight_enumeration() {
    // Engine-level acceptance scenario for the versioned catalog: an
    // in-flight enumeration pinned to epoch 0 completes with the old
    // data's answers while a swap publishes epoch 1, and a session
    // opened afterwards observes the new data — with the plan cache
    // shared across both epochs (the structure didn't change).
    use cqd2::engine::Catalog;

    let q = canonical_query(&hyperchain(3, 2));
    let old_db = planted_database(&q, 6, 30, 21);
    let old_tuples = enumerate_naive(&q, &old_db);
    let old_count = count_naive(&q, &old_db);
    assert!(!old_tuples.is_empty());
    let new_db = planted_database(&q, 5, 12, 22);
    let new_count = count_naive(&q, &new_db);

    let engine = Engine::default();
    let catalog = Catalog::new();
    catalog.publish("hot", old_db.clone()).expect("publish");

    let old_session = engine.session_in(&catalog, "hot").expect("session");
    let old_prepared = old_session.prepare(&q).expect("prepare");
    let mut in_flight = old_prepared.cursor(None);
    // Consume one answer: the cursor is genuinely mid-stream.
    let first = in_flight.next().expect("at least one answer");

    // Hot reload on another thread (the swap is atomic; the join makes
    // the ordering deterministic for the assertions below).
    std::thread::scope(|s| {
        s.spawn(|| {
            catalog.swap("hot", new_db.clone()).expect("swap");
        });
    });
    assert_eq!(catalog.snapshot("hot").unwrap().epoch(), 1);

    // The in-flight cursor and the pinned handle finish on old data.
    let mut streamed = vec![first];
    streamed.extend(&mut in_flight);
    streamed.sort_unstable();
    assert_eq!(streamed, old_tuples, "in-flight cursor pinned to epoch 0");
    assert_eq!(
        old_prepared.run(Workload::Count).answer.as_count(),
        Some(old_count)
    );

    // A fresh catalog session observes epoch 1 and the new answers.
    let new_session = engine.session_in(&catalog, "hot").expect("session");
    assert_eq!(new_session.epoch(), 1);
    let new_prepared = new_session.prepare(&q).expect("prepare");
    assert_eq!(
        new_prepared.run(Workload::Count).answer.as_count(),
        Some(new_count)
    );
    // Same structure class: the second prepare hit the plan cache.
    assert!(new_prepared.cache_hit());
}

/// Plans tagged `naive-join` run on the trivial GHD's one bag: every
/// workload and limit answers like the backtracking oracle, and the
/// handle crosses a delta warm, answering like a fresh prepare.
#[test]
fn one_bag_plans_match_naive() {
    use cqd2::engine::{apply_delta_text, textio, Catalog, MaintenanceClass, PreparedQuery};

    fn check(prepared: &PreparedQuery, q: &ConjunctiveQuery, db: &cqd2::cq::Database, case: &str) {
        assert_eq!(
            prepared.plan(Workload::Boolean).plan,
            QueryPlan::NaiveJoin,
            "{case}"
        );
        let boolean = prepared.run(Workload::Boolean);
        assert_eq!(boolean.answer.as_bool(), Some(bcq_naive(q, db)), "{case}");
        assert_eq!(boolean.provenance.bags.total, 1, "{case}: one bag");
        let count = prepared.run(Workload::Count).answer.as_count();
        assert_eq!(count, Some(count_naive(q, db)), "{case}");
        let expected = enumerate_naive(q, db);
        let n = expected.len();
        for limit in [Some(0), Some(1), Some(n.saturating_sub(1)), Some(n), None] {
            let resp = prepared.run(Workload::Enumerate { limit });
            let mut got = resp.answer.into_tuples().expect("tuples");
            let want = limit.map_or(n, |k| k.min(n));
            assert_eq!(got.len(), want, "{case}: limit {limit:?}");
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), want, "{case}: repeats at limit {limit:?}");
            for t in &got {
                assert!(expected.binary_search(t).is_ok(), "{case}: {t:?} ∉ q(D)");
            }
        }
    }

    let wide = canonical_query(&random_degree_bounded(30, 3, 3, 0.4, 7));
    let wide_db = planted_database(&wide, 3, 2, 11);
    let first = &wide.atoms[0];
    let row = wide_db.relation(&first.relation).unwrap().tuples.row(0);
    let cells: Vec<String> = row.iter().map(u64::to_string).collect();
    let wide_delta = format!("@delete\n{}({})\n", first.relation, cells.join(", "));
    let wide_facts = textio::render_database(&wide_db);
    let parse = |text: &str| textio::parse_query(text).expect("query");
    let cases = [
        (
            parse("S(?y, ?z)"),
            "S(1, 2)\nS(2, 3)\nS(3, 3)\n",
            "@insert\nS(4, 5)\n@delete\nS(1, 2)\n",
        ),
        (
            parse("R(?x, ?y), T(?x, ?y)"),
            "R(1, 2)\nR(2, 3)\nR(3, 4)\nT(1, 2)\nT(3, 4)\nT(5, 6)\n",
            "@insert\nT(2, 3)\n",
        ),
        (
            parse("R(?x, ?x, 5)"),
            "R(1, 1, 5)\nR(2, 2, 5)\nR(3, 3, 6)\nR(1, 2, 5)\n",
            "@insert\nR(4, 4, 5)\n@delete\nR(1, 1, 5)\n",
        ),
        (parse("R(1, 2)"), "R(1, 2)\nR(3, 4)\n", "@delete\nR(1, 2)\n"),
        (parse("R(1, 2)"), "R(3, 4)\n", "@insert\nR(1, 2)\n"),
        (wide, &wide_facts, &wide_delta),
    ];
    let engine = Engine::new(EngineConfig {
        planner: PlannerConfig {
            use_heuristic_ghd: false,
            jigsaw_max_n: 0,
            ..PlannerConfig::default()
        },
        ..EngineConfig::default()
    });
    for (i, (q, facts, delta)) in cases.into_iter().enumerate() {
        let case = format!("case {i} `{}`", q.display());
        let name = format!("db{i}");
        let catalog = Catalog::new();
        catalog.publish_str(&name, facts).expect("publish");
        let prepared = engine
            .session_in(&catalog, &name)
            .unwrap()
            .prepare(&q)
            .unwrap();
        check(&prepared, &q, catalog.snapshot(&name).unwrap().db(), &case);

        let outcome = apply_delta_text(&catalog, &name, delta).expect("delta");
        let (warm, pass) = prepared.rebase(&outcome.snapshot, &outcome.touched);
        assert_eq!((pass.rewritten, pass.total), (1, 1), "{case}");
        assert_eq!(
            warm.maintenance(),
            Some(MaintenanceClass::WarmOverlay),
            "{case}"
        );
        let fresh = engine
            .session_in(&catalog, &name)
            .unwrap()
            .prepare(&q)
            .unwrap();
        let db = outcome.snapshot.db();
        check(&warm, &q, db, &format!("{case} after the delta"));
        for workload in [Workload::Boolean, Workload::Count] {
            let resp = warm.run(workload);
            assert_eq!(resp.answer, fresh.run(workload).answer, "{case}");
            assert_eq!(
                resp.provenance.maintenance,
                Some(MaintenanceClass::WarmOverlay)
            );
        }
        let mut migrated: Vec<_> = warm.cursor(None).collect();
        let mut prepared_fresh: Vec<_> = fresh.cursor(None).collect();
        migrated.sort_unstable();
        prepared_fresh.sort_unstable();
        assert_eq!(migrated, prepared_fresh, "{case}");
    }
}

#[test]
fn chain_plans_carry_one_bag_per_atom() {
    // An elimination order decomposes chain(k) into its k edges plus a
    // leaf `{v_k}` inside the last one; the planner drops that leaf.
    // Answers are checked with strict verification on and off.
    for strict_verify in [false, true] {
        let engine = Engine::new(EngineConfig {
            strict_verify,
            ..EngineConfig::default()
        });
        // chain(1) plans a naive join: one atom is no wider than a GHD.
        for k in 2..=8 {
            let q = canonical_query(&hyperchain(k, 2));
            let (planned, _, _) = engine.plan(&q, Workload::Count);
            let ghd = planned.plan.ghd().expect("chains have a GHD plan");
            assert_eq!(ghd.td.bags.len(), k, "chain({k}): {ghd:?}");
            assert_eq!(ghd.width(), 1);
            cqd2::decomp::verify::verify_ghd(&q.hypergraph(), ghd).unwrap();
            let db = planted_database(&q, 6, 12, k as u64);
            let prepared = engine.session(&db).prepare(&q).unwrap();
            assert_eq!(
                prepared.run(Workload::Boolean).answer.as_bool(),
                Some(bcq_naive(&q, &db))
            );
            assert_eq!(
                prepared.run(Workload::Count).answer.as_count(),
                Some(count_naive(&q, &db))
            );
            let mut tuples: Vec<_> = prepared.cursor(None).collect();
            tuples.sort_unstable();
            assert_eq!(tuples, enumerate_naive(&q, &db), "chain({k})");
        }
    }
}
