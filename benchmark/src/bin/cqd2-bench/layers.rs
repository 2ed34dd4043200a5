//! The in-process layer pass: the generator links the library and times
//! public functions on the workload's own inputs, single-threaded,
//! after the server has been stopped. Each metric is the median of
//! `reps` calls and each call is recorded as a span. These are the
//! numbers that say *which layer moved*; the socket run says whether it
//! mattered.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use cqd2::cq::{ConjunctiveQuery, Database, DatabaseStats, MaterializedBags};
use cqd2::engine::server::frame::{read_frame, write_frame, FrameType};
use cqd2::engine::server::wire::WireResult;
use cqd2::engine::textio::{parse_database, parse_delta, parse_query_batch};
use cqd2::engine::{
    store, Answer, Catalog, Engine, EngineConfig, Planner, PlannerConfig, Workload,
};

use crate::fixture::Text;
use crate::load::DB;
use crate::report::median;

/// Cap on tuples drained / encoded per call, so a structure with a
/// huge answer cannot stretch the pass.
const MAX_TUPLES: usize = 100_000;

pub struct Inputs<'a> {
    pub db: &'a Database,
    pub facts_text: &'a str,
    pub texts: &'a [Text],
    /// Reply payload size the frame codec is timed at (the traced
    /// run's median).
    pub payload_bytes: usize,
    pub reps: usize,
}

pub struct LayerSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Pass {
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<LayerSpan>,
}

struct Timer {
    base: Instant,
    reps: usize,
    spans: Vec<LayerSpan>,
}

impl Timer {
    /// Median nanoseconds of `reps` calls of `f`; `setup` runs untimed
    /// before each call and hands `f` its argument.
    fn median<S, R>(
        &mut self,
        name: &'static str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> f64 {
        let mut samples: Vec<u64> = (0..self.reps)
            .map(|_| {
                let arg = setup();
                let start = Instant::now();
                let out = f(black_box(arg));
                let end = Instant::now();
                black_box(out);
                self.spans.push(LayerSpan {
                    name,
                    start_ns: (start - self.base).as_nanos() as u64,
                    end_ns: (end - self.base).as_nanos() as u64,
                });
                (end - start).as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    }
}

/// A delta on the relation the query's last atom reads: 8 inserts
/// above the active domain, 8 deletes of existing tuples — the shape
/// of one `delta_mix` step, on this workload's own data.
fn delta_script(q: &ConjunctiveQuery, db: &Database) -> String {
    let name = &q.atoms[q.atoms.len() - 1].relation;
    let rel = db
        .relation(name)
        .expect("query relation is in the database");
    let fact = |t: &[u64]| {
        let args: Vec<String> = t.iter().map(u64::to_string).collect();
        format!("{name}({})\n", args.join(", "))
    };
    let mut script = String::from("@insert\n");
    for i in 0..8u64 {
        let fresh: Vec<u64> = (0..rel.arity as u64)
            .map(|c| 1_000_000 + 10 * i + c)
            .collect();
        script.push_str(&fact(&fresh));
    }
    script.push_str("@delete\n");
    for t in rel.tuples.iter().take(8) {
        script.push_str(&fact(t));
    }
    script
}

pub fn run(inputs: &Inputs<'_>, base: Instant) -> Pass {
    let Inputs {
        db,
        facts_text,
        texts,
        payload_bytes,
        reps,
    } = *inputs;
    let mut t = Timer {
        base,
        reps,
        spans: Vec::new(),
    };
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let facts = db.size() as f64;

    // ---- textio, stats, store: what a cold start pays per fact ------
    let per_text = t.median(
        "textio.parse_query_batch",
        || (),
        |()| {
            for text in texts {
                black_box(parse_query_batch(&text.batch).expect("generated text parses"));
            }
        },
    );
    m.push(("textio.parse_query_batch_ns", per_text / texts.len() as f64));
    m.push((
        "textio.parse_database_ms",
        t.median(
            "textio.parse_database",
            || (),
            |()| parse_database(facts_text),
        ) / 1e6,
    ));
    m.push((
        "stats.collect_ms",
        t.median("stats.collect", || (), |()| DatabaseStats::collect(db)) / 1e6,
    ));
    let snapshot = store::encode_snapshot(db);
    m.push((
        "store.encode_snapshot_ms",
        t.median(
            "store.encode_snapshot",
            || (),
            |()| store::encode_snapshot(db),
        ) / 1e6,
    ));
    m.push((
        "store.decode_snapshot_ms",
        t.median(
            "store.decode_snapshot",
            || (),
            |()| store::decode_snapshot(&snapshot),
        ) / 1e6,
    ));
    m.push(("store.bytes_per_fact", snapshot.len() as f64 / facts));

    // ---- planner and plan cache ------------------------------------
    // One representative per class of texts equal up to renaming.
    let mut classes: Vec<&Text> = Vec::new();
    for text in texts {
        if !classes.iter().any(|c| c.class == text.class) {
            classes.push(text);
        }
    }
    let planner = Planner::new(PlannerConfig::default());
    let per_structure: Vec<f64> = classes
        .iter()
        .map(|c| {
            let h = c.query.hypergraph();
            t.median(
                "planner.plan_structure",
                || (),
                |()| planner.plan_structure(&h),
            )
        })
        .collect();
    m.push((
        "planner.plan_structure_max_us",
        per_structure.iter().copied().fold(0.0, f64::max) / 1e3,
    ));
    m.push(("planner.plan_structure_us", median(per_structure) / 1e3));

    // The workload's widest query with a GHD plan carries the kernel
    // measurements (a jigsaw-certified structure has no bag tree).
    let engine = Engine::new(EngineConfig::default());
    let (big, planned) = classes
        .iter()
        .map(|c| (&c.query, engine.plan(&c.query, Workload::Count).0))
        .filter(|(_, planned)| planned.plan.ghd().is_some())
        .max_by_key(|(q, _)| q.atoms.len())
        .expect("every workload has a bounded-width query");
    m.push((
        "plan_cache.lookup_hit_us",
        t.median(
            "plan_cache.lookup_hit",
            || (),
            |()| engine.plan(big, Workload::Count),
        ) / 1e3,
    ));
    let catalog = Catalog::new();
    catalog.publish(DB, db.clone()).expect("fresh catalog");
    let session = engine.session_in(&catalog, DB).expect("just published");
    m.push((
        "session.prepare_us",
        t.median("session.prepare", || (), |()| session.prepare(big)) / 1e3,
    ));

    // ---- eval, flat, wire: the warm kernel ------------------------
    let ghd = planned.plan.ghd().expect("filtered on it above");
    let build = || MaterializedBags::build(big, db, ghd).expect("planned GHD is valid");
    m.push((
        "eval.build_us",
        t.median("eval.build", || (), |()| build()) / 1e3,
    ));
    let bags = build();
    m.push(("eval.bag_rows", bags.total_rows() as f64));
    // A fresh tree's first pass also fills the per-node probe tables
    // (`cq::probe` is crate-private: this minus `eval.count_us` is its
    // only outside view).
    m.push((
        "eval.first_run_us",
        t.median("eval.first_run", build, |fresh| fresh.count()) / 1e3,
    ));
    bags.count();
    bags.bcq();
    m.push((
        "eval.bcq_us",
        t.median("eval.bcq", || (), |()| bags.bcq()) / 1e3,
    ));
    m.push((
        "eval.count_us",
        t.median("eval.count", || (), |()| bags.count()) / 1e3,
    ));
    m.push((
        "eval.enumerator_us",
        t.median("eval.enumerator", || (), |()| bags.enumerator()) / 1e3,
    ));
    let tuples: Vec<Vec<u64>> = bags.enumerator().take(MAX_TUPLES).collect();
    let per_tuple = |ns: f64| ns / tuples.len().max(1) as f64;
    m.push((
        "eval.enumerate_ns_per_tuple",
        per_tuple(t.median(
            "eval.enumerate",
            || bags.enumerator(),
            |e| e.take(MAX_TUPLES).count(),
        )),
    ));

    // The two largest bags that share a variable.
    let n = bags.num_bags();
    let pair = (0..n)
        .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
        .filter(|&(u, v)| {
            let (a, b) = (bags.bag_arc(u), bags.bag_arc(v));
            a.vars().iter().any(|x| b.vars().contains(x))
        })
        .max_by_key(|&(u, v)| (bags.bag_arc(u).len() + bags.bag_arc(v).len(), u, v));
    match pair {
        Some((u, v)) => {
            let (a, b) = (bags.bag_arc(u), bags.bag_arc(v));
            let rows = (a.len() + b.len()).max(1) as f64;
            let shared: Vec<_> = a
                .vars()
                .iter()
                .copied()
                .filter(|x| b.vars().contains(x))
                .collect();
            m.push((
                "flat.join_ns_per_row",
                t.median("flat.join", || (), |()| a.join(b)) / rows,
            ));
            m.push((
                "flat.semijoin_filter_ns_per_row",
                t.median("flat.semijoin_filter", || (), |()| a.semijoin_filter(b)) / rows,
            ));
            m.push((
                "flat.project_ns_per_row",
                t.median("flat.project", || (), |()| a.project(&shared)) / a.len().max(1) as f64,
            ));
        }
        None => {
            // A single-bag tree has no join to time.
            for name in [
                "flat.join_ns_per_row",
                "flat.semijoin_filter_ns_per_row",
                "flat.project_ns_per_row",
            ] {
                m.push((name, 0.0));
            }
        }
    }

    let wire = WireResult {
        request: 1,
        index: 0,
        answer: Answer::Tuples(tuples.clone()),
        strategy: planned.plan.strategy().to_string(),
        cache_hit: true,
        prepared_hit: true,
        planning_ns: 0,
        execution_ns: 1_000_000,
        server_micros: 1_000,
        trace: None,
    };
    let json = serde::json::to_string(&wire);
    m.push((
        "wire.encode_ns_per_tuple",
        per_tuple(t.median("wire.encode", || (), |()| serde::json::to_string(&wire))),
    ));
    m.push((
        "wire.decode_ns_per_tuple",
        per_tuple(t.median(
            "wire.decode",
            || (),
            |()| serde::json::from_str::<WireResult>(&json),
        )),
    ));
    let payload = vec![b'x'; payload_bytes];
    m.push((
        "frame.codec_ns_per_frame",
        t.median(
            "frame.codec",
            || (),
            |()| {
                let mut buf = Vec::new();
                write_frame(&mut buf, FrameType::Result, &payload).expect("write to memory");
                read_frame(&mut Cursor::new(buf), u32::MAX).expect("frame just written")
            },
        ),
    ));

    // ---- the update plane -----------------------------------------
    let script = delta_script(big, db);
    m.push((
        "textio.parse_delta_us",
        t.median("textio.parse_delta", || (), |()| parse_delta(&script)) / 1e3,
    ));
    let delta = parse_delta(&script).expect("generated delta parses");
    m.push((
        "delta.apply_us",
        t.median("delta.apply", || (), |()| db.apply_delta(&delta)) / 1e3,
    ));
    let applied = db
        .apply_delta(&delta)
        .expect("delta names a served relation");
    let stats = DatabaseStats::collect(db);
    m.push((
        "stats.updated_for_us",
        t.median(
            "stats.updated_for",
            || (),
            |()| stats.updated_for(&applied.db, &applied.touched),
        ) / 1e3,
    ));
    m.push((
        "eval.refresh_us",
        t.median(
            "eval.refresh",
            || (),
            |()| bags.refresh(big, &applied.db, &applied.touched),
        ) / 1e3,
    ));
    let prepared = session.prepare(big).expect("prepared above");
    m.push((
        "catalog.apply_delta_us",
        t.median(
            "catalog.apply_delta",
            || catalog.swap(DB, db.clone()).expect("published above"),
            |_| catalog.apply_delta(DB, &delta),
        ) / 1e3,
    ));
    let after = catalog.snapshot(DB).expect("published above");
    m.push((
        "session.rebase_us",
        t.median(
            "session.rebase",
            || (),
            |()| prepared.rebase(&after, &applied.touched),
        ) / 1e3,
    ));
    // The full reload a delta replaces — context for the ack latency.
    m.push((
        "catalog.swap_str_ms",
        t.median(
            "catalog.swap_str",
            || (),
            |()| catalog.swap_str(DB, facts_text),
        ) / 1e6,
    ));

    Pass {
        metrics: m,
        spans: t.spans,
    }
}
