//! `cqd2-bench` — the socket-level perf ledger behind `BENCHMARK.json`.
//!
//! For one workload and one mode it generates inputs from the seed,
//! spawns the unmodified `cqd2-serve` as a child process, drives it
//! over loopback, checks every reply against an oracle, prints every
//! metric as `workload metric value unit n=samples`, and ends with one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`.
//!
//! - `--trace 0`: the end-to-end metrics, from an untraced run.
//! - `--trace 1`: the per-layer metrics, from a run with `@trace` on
//!   every batch plus an in-process pass over the library's public
//!   functions. End-to-end numbers never come from here.
//!
//! Use `benchmark/run.sh`, which builds both sides first; see
//! `benchmark/README.md` for what every metric means.

mod fixture;
mod layers;
mod load;
mod oracle;
mod report;
mod server;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cqd2::cq::Database;
use cqd2::engine::server::client::Client;
use cqd2::engine::server::wire::WireStats;
use cqd2::engine::textio::{parse_delta, render_database};
use cqd2::engine::{store, Answer};

use fixture::{DeltaStep, Rng, Text};
use load::{FeedCounters, Phase, Pick, Reader, Reply, Writer, DB};
use oracle::{ChainOracle, Expected};
use report::{median, percentile, Run};
use server::Server;

const WORKLOADS: [&str; 4] = ["warm_point", "cold_plan", "enum_stream", "delta_mix"];
/// Open-loop update rate of `delta_mix`, deltas per second.
const DELTA_RATE: f64 = 40.0;
/// The generator's own lateness above which a `delta_mix` run says
/// nothing about the server (p99, microseconds).
const MAX_LATENESS_US: f64 = 1_000.0;

struct Args {
    server: PathBuf,
    out: PathBuf,
    commit: String,
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// Modes to run, `false` = untraced.
    traces: Vec<bool>,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cqd2-bench --server PATH --out DIR [--commit HASH] [--workload NAME] [--seed N]\n\
         \x20                 [--seconds S] [--trace 0|1] [--smoke]\n\
         workloads: {}\n\
         without --workload every workload runs; without --trace both modes run",
        WORKLOADS.join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        server: PathBuf::new(),
        out: PathBuf::new(),
        commit: "unknown".to_string(),
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 0.0,
        traces: vec![false, true],
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--server" => args.server = PathBuf::from(value()),
            "--out" => args.out = PathBuf::from(value()),
            "--commit" => args.commit = value(),
            "--workload" => {
                let name = value();
                match WORKLOADS.iter().find(|w| **w == name) {
                    Some(w) => args.workloads = vec![w],
                    None => usage(),
                }
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.traces = match value().as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if args.server.as_os_str().is_empty() || args.out.as_os_str().is_empty() {
        usage();
    }
    if args.seconds <= 0.0 {
        args.seconds = if args.smoke { 3.0 } else { 20.0 };
    }
    args
}

/// Everything one workload needs, generated from the seed.
struct Spec {
    name: &'static str,
    db: Database,
    facts_text: String,
    texts: Vec<Text>,
    /// Expected answers at epoch 0.
    expected: Vec<Expected>,
    /// Server flags after `--listen`.
    flags: Vec<String>,
    readers: usize,
    random_pick: bool,
    /// The open-loop update feed (`delta_mix` only).
    feed: Vec<DeltaStep>,
}

fn build_spec(name: &'static str, args: &Args) -> Result<Spec, String> {
    let seed = args.seed;
    let chain = || fixture::chain_db(seed, 20_000, 30_000);
    let (db, texts, from_snapshot, readers) = match name {
        "warm_point" => (chain(), fixture::warm_point_texts(), true, 2),
        "enum_stream" => (chain(), fixture::enum_stream_texts(), true, 2),
        "delta_mix" => (chain(), fixture::delta_mix_texts(), false, 1),
        _ => (
            fixture::mixed_db(seed),
            fixture::cold_plan_texts(seed),
            false,
            2,
        ),
    };
    let mixed = name == "cold_plan";
    let expected = if mixed {
        oracle::naive_expected(&texts, &db)
    } else {
        let oracle = ChainOracle::new(&db);
        texts.iter().map(|t| oracle.expected(t)).collect()
    };
    let facts_text = render_database(&db);
    let db_file = if from_snapshot {
        let path = args.out.join(format!("{name}.cqds"));
        store::write_snapshot(&path, &db).map_err(|e| format!("{}: {e}", path.display()))?;
        path
    } else {
        let path = args.out.join(format!("{name}.facts.txt"));
        std::fs::write(&path, &facts_text).map_err(|e| format!("{}: {e}", path.display()))?;
        path
    };
    let mut flags = vec![
        "--workers".to_string(),
        "2".to_string(),
        "--db".to_string(),
        format!("{DB}={}", db_file.display()),
    ];
    let mut feed = Vec::new();
    match name {
        // Both caches overflow: 312 texts against 64 prepared handles,
        // up to 55 isomorphism classes against 16 cached plans.
        "cold_plan" => flags.extend(["--prepared", "64", "--cache", "16"].map(String::from)),
        "delta_mix" => {
            flags.push("--allow-reload".to_string());
            // Warm-up plus both windows, with slack.
            let steps = (DELTA_RATE * (2.0 * args.seconds + 4.0)) as usize;
            feed = fixture::delta_feed(seed, &db, 30_000, steps);
        }
        _ => {}
    }
    Ok(Spec {
        name,
        db,
        facts_text,
        texts,
        expected,
        flags,
        readers,
        // A cyclic walk over 312 texts would defeat the LRU caches
        // completely; uniform draws hit them at about 64/312.
        random_pick: mixed,
        feed,
    })
}

/// Failures and attempts of everything checked so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One cold start: spawn → `listening on` → bind → every distinct text
/// answered once. Returns the live server and the seconds it took; the
/// answers are checked as sorted sets after the clock stops.
fn cold_start(spec: &Spec, args: &Args, tally: &mut Tally) -> Result<(Server, f64), String> {
    let log = args.out.join(format!("{}.server.log", spec.name));
    let started = Instant::now();
    let server = Server::start(&args.server, &spec.flags, &log)?;
    let mut client = load::connect(&server.addr)?;
    let answers: Vec<Option<Answer>> = spec
        .texts
        .iter()
        .enumerate()
        .map(|(i, text)| load::round_trip(&mut client, started, i, text, false).1)
        .collect();
    let seconds = started.elapsed().as_secs_f64();
    for (answer, expected) in answers.iter().zip(&spec.expected) {
        tally.add(answer.as_ref().is_some_and(|a| expected.accepts_exactly(a)));
    }
    Ok((server, seconds))
}

/// The traffic against one live server, window after window: the
/// workload's readers, plus the writer continuing the feed where the
/// previous window left off.
struct Traffic<'a> {
    spec: &'a Spec,
    server: &'a Server,
    seed: u64,
    /// Clock base of every span of this server's lifetime.
    base: Instant,
    feed: FeedCounters,
    /// Deltas consumed from the feed so far.
    steps_used: usize,
    windows: u64,
}

impl<'a> Traffic<'a> {
    fn new(spec: &'a Spec, server: &'a Server, seed: u64) -> Traffic<'a> {
        Traffic {
            spec,
            server,
            seed,
            base: Instant::now(),
            feed: FeedCounters::default(),
            steps_used: 0,
            windows: 0,
        }
    }

    fn window(&mut self, seconds: f64, traced: bool) -> Result<Phase, String> {
        let spec = self.spec;
        let readers = (0..spec.readers)
            .map(|r| Reader {
                texts: &spec.texts,
                expected: spec.feed.is_empty().then_some(&spec.expected[..]),
                pick: if spec.random_pick {
                    Pick::Random(Rng::new(self.seed, 100 + 10 * self.windows + r as u64))
                } else {
                    // Readers start half a cycle apart so they do not
                    // ask for the same text in lock-step.
                    Pick::Cycle {
                        offset: r * spec.texts.len() / spec.readers,
                    }
                },
                traced,
            })
            .collect();
        let writer = (!spec.feed.is_empty()).then(|| Writer {
            steps: &spec.feed[self.steps_used..],
            rate: DELTA_RATE,
        });
        let phase = load::run_phase(
            &self.server.addr,
            self.base,
            readers,
            writer,
            Duration::from_secs_f64(seconds),
            &self.feed,
            || self.server.sample().map(|s| s.cpu_ms),
        )?;
        self.steps_used += phase.steps_used;
        self.windows += 1;
        Ok(phase)
    }
}

/// Check `delta_mix` replies after the fact: replay the acknowledged
/// deltas on a model database, evaluate the chain oracle at every
/// epoch, and accept a reply iff it equals the oracle at some epoch
/// between "last delta acked before send" and "last delta sent before
/// receive". Ends with a quiesced all-texts check against the model.
fn check_against_model(
    spec: &Spec,
    server: &Server,
    phases: &mut [&mut Phase],
    acked: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut model = spec.db.clone();
    let mut oracle = ChainOracle::new(&model);
    let answers_at = |oracle: &ChainOracle| -> Vec<Answer> {
        spec.texts
            .iter()
            .map(|t| match oracle.expected(t) {
                Expected::Scalar(a) => a,
                _ => unreachable!("delta_mix texts are Boolean / count"),
            })
            .collect()
    };
    let mut by_epoch = vec![answers_at(&oracle)];
    for (i, step) in spec.feed[..acked].iter().enumerate() {
        let delta = parse_delta(&step.script).map_err(|e| format!("delta {i}: {e}"))?;
        let applied = model
            .apply_delta(&delta)
            .map_err(|e| format!("model delta {i}: {e}"))?;
        model = applied.db;
        for name in &applied.touched {
            let r: usize = name[1..]
                .parse()
                .map_err(|_| format!("relation `{name}`"))?;
            oracle.reload(&model, r);
        }
        by_epoch.push(answers_at(&oracle));
    }
    for phase in phases.iter_mut() {
        for reply in &mut phase.replies {
            if let Some((answer, lo, hi)) = reply.deferred.take() {
                let hi = (hi as usize).min(by_epoch.len() - 1);
                reply.ok = (lo as usize..=hi).any(|e| by_epoch[e][reply.text] == answer);
            }
        }
    }
    let mut client = load::connect(&server.addr)?;
    let last = &by_epoch[by_epoch.len() - 1];
    for (i, text) in spec.texts.iter().enumerate() {
        let (_, answer) = load::round_trip(&mut client, Instant::now(), i, text, false);
        tally.add(answer.as_ref() == Some(&last[i]));
    }
    Ok(())
}

fn tally_phase(phase: &Phase, tally: &mut Tally) {
    for r in &phase.replies {
        tally.add(r.ok);
    }
    for a in &phase.acks {
        tally.add(a.ok);
    }
}

/// Client-observed latencies, sorted, microseconds.
fn latencies_us<'a>(replies: impl Iterator<Item = &'a Reply>) -> Vec<f64> {
    let mut v: Vec<f64> = replies.map(|r| r.latency_ns() as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Seconds of window behind one tail-latency sample: long enough that
/// even the slowest workload (~180 requests/s) has about ten requests
/// beyond its 99th percentile.
const TAIL_SLICES: usize = 5;

/// The steady state of a window: every figure is a **median over
/// slices** of the window, not a figure of the whole window. Rates,
/// p50 and p90 use the one-second slices the CPU samples delimit; p99
/// uses runs of `TAIL_SLICES` of them. This VM stalls for tens to
/// hundreds of milliseconds now and then and slows down for a second
/// at a time; with medians such an episode costs one slice instead of
/// bending the whole run.
struct Steady {
    /// Replies per second.
    qps: f64,
    /// Answers per second: a Boolean or count reply is one answer, an
    /// enumeration one per tuple.
    answers_per_s: f64,
    /// Server CPU milliseconds (utime + stime) per reply.
    cpu_ms_per_query: f64,
    /// Client-observed latency percentiles, microseconds.
    lat_us: [f64; 3],
    slices: usize,
    tail_slices: usize,
}

fn steady(phase: &Phase) -> Result<Steady, String> {
    let between = |from: u64, to: u64| {
        phase
            .replies
            .iter()
            .filter(move |r| from <= r.end_ns && r.end_ns < to)
    };
    let sorted_latencies = |from: u64, to: u64| latencies_us(between(from, to));
    let (mut qps, mut answers, mut cpu, mut p50, mut p90) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for pair in phase.cpu.windows(2) {
        let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
        let lat = sorted_latencies(from, to);
        if lat.is_empty() {
            continue;
        }
        let seconds = (to - from) as f64 / 1e9;
        qps.push(lat.len() as f64 / seconds);
        answers.push(between(from, to).map(|r| r.tuples.max(1)).sum::<u64>() as f64 / seconds);
        cpu.push((cpu_to - cpu_from) / lat.len() as f64);
        p50.push(percentile(&lat, 0.5));
        p90.push(percentile(&lat, 0.9));
    }
    if qps.is_empty() {
        return Err("a window completed no request".to_string());
    }
    let edges: Vec<u64> = phase.cpu.iter().map(|&(at, _)| at).collect();
    let mut p99: Vec<f64> = edges
        .chunks(TAIL_SLICES)
        .zip(edges.chunks(TAIL_SLICES).skip(1))
        .map(|(this, next)| percentile(&sorted_latencies(this[0], next[0]), 0.99))
        .collect();
    if p99.is_empty() {
        // A window shorter than one tail slice (`--smoke`).
        p99.push(percentile(
            &sorted_latencies(edges[0], edges[edges.len() - 1]),
            0.99,
        ));
    }
    Ok(Steady {
        slices: qps.len(),
        tail_slices: p99.len(),
        qps: median(qps),
        answers_per_s: median(answers),
        cpu_ms_per_query: median(cpu),
        lat_us: [median(p50), median(p90), median(p99)],
    })
}

/// Ack latency from the due time, and the generator's own lateness
/// (only where the predecessor was already acknowledged), sorted, µs.
fn ack_series(phase: &Phase) -> (Vec<f64>, Vec<f64>) {
    let mut ack: Vec<f64> = phase
        .acks
        .iter()
        .map(|a| (a.acked_ns - a.due_ns) as f64 / 1e3)
        .collect();
    let mut late: Vec<f64> = phase
        .acks
        .iter()
        .filter(|a| a.predecessor_acked)
        .map(|a| a.sent_ns.saturating_sub(a.due_ns) as f64 / 1e3)
        .collect();
    ack.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    (ack, late)
}

fn warm_up_seconds(args: &Args) -> f64 {
    if args.smoke {
        0.5
    } else {
        1.0
    }
}

fn stats(admin: &mut Client) -> Result<WireStats, String> {
    admin.stats().map_err(|e| format!("stats frame: {e}"))
}

/// `--trace 0`: cold starts for `setup_s`, warm-up, one untraced
/// measured window.
fn run_untraced(spec: &Spec, args: &Args) -> Result<Run, String> {
    let mut tally = Tally::default();
    let cycles = if args.smoke { 1 } else { 5 };
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..cycles {
        if let Some(previous) = live.take() {
            Server::stop(previous)?;
        }
        let (server, seconds) = cold_start(spec, args, &mut tally)?;
        setups.push(seconds);
        live = Some(server);
    }
    let server = live.expect("at least one cold start");

    let mut traffic = Traffic::new(spec, &server, args.seed);
    let mut warm = traffic.window(warm_up_seconds(args), false)?;
    let mut measured = traffic.window(args.seconds, false)?;
    let rss_peak_mib = server.sample()?.rss_peak_mib;
    if !spec.feed.is_empty() {
        check_against_model(
            spec,
            &server,
            &mut [&mut warm, &mut measured],
            traffic.steps_used,
            &mut tally,
        )?;
    }
    Server::stop(server)?;
    tally_phase(&warm, &mut tally);
    tally_phase(&measured, &mut tally);

    let steady = steady(&measured)?;
    let mut run = Run::new(spec.name, false, &spec.flags);
    let cold_starts = setups.len();
    run.push("setup_s", median(setups), cold_starts);
    run.push("qps", steady.qps, steady.slices);
    run.push("lat_p50_us", steady.lat_us[0], steady.slices);
    run.push("lat_p90_us", steady.lat_us[1], steady.slices);
    run.push("lat_p99_us", steady.lat_us[2], steady.tail_slices);
    run.push("tuples_per_s", steady.answers_per_s, steady.slices);
    run.push(
        "server_cpu_ms_per_query",
        steady.cpu_ms_per_query,
        steady.slices,
    );
    run.push("rss_peak_mib", rss_peak_mib, 1);
    // Reported beside the contract's end-to-end set: failures go out as
    // `attempted` / `failed` (a metric may not be 0), and the ack
    // latencies exist only where there is a writer (see README).
    run.push_extra(
        "fail_share",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
        tally.attempted as usize,
    );
    if !measured.acks.is_empty() {
        let (ack, late) = ack_series(&measured);
        run.push_extra("delta_ack_p50_us", percentile(&ack, 0.5), "us", ack.len());
        run.push_extra("delta_ack_p90_us", percentile(&ack, 0.9), "us", ack.len());
        let lateness = percentile(&late, 0.99);
        run.push_extra("delta_lateness_p99_us", lateness, "us", late.len());
        run.valid = lateness < MAX_LATENESS_US;
    }
    run.attempted = tally.attempted;
    run.failed = tally.failed;
    Ok(run)
}

/// `--trace 1`: one cold start, warm-up, an untraced half-window (the
/// base of `metrics.trace_overhead_pct`), a traced half-window, then
/// the in-process layer pass with the server gone.
fn run_traced(spec: &Spec, args: &Args) -> Result<Run, String> {
    let mut tally = Tally::default();
    let (server, _) = cold_start(spec, args, &mut tally)?;
    let mut admin = load::connect(&server.addr)?;
    let mut traffic = Traffic::new(spec, &server, args.seed);
    let half = args.seconds / 2.0;
    let mut warm = traffic.window(warm_up_seconds(args), false)?;
    let mut plain = traffic.window(half, false)?;
    let stats_before = stats(&mut admin)?;
    let mut traced = traffic.window(half, true)?;
    let base = traffic.base;
    let stats_after = stats(&mut admin)?;
    drop(admin);
    if !spec.feed.is_empty() {
        check_against_model(
            spec,
            &server,
            &mut [&mut warm, &mut plain, &mut traced],
            traffic.steps_used,
            &mut tally,
        )?;
    }
    Server::stop(server)?;
    for phase in [&warm, &plain, &traced] {
        tally_phase(phase, &mut tally);
    }

    let n = traced.replies.len();
    let overhead_pct = (1.0 - steady(&traced)?.qps / steady(&plain)?.qps) * 100.0;
    let mut run = Run::new(spec.name, true, &spec.flags);
    let nf = n as f64;

    // ---- traced run: per-query means from spans and client clocks ---
    let mean = |f: &dyn Fn(&Reply) -> f64| traced.replies.iter().map(f).sum::<f64>() / nf;
    let spans_sum = |r: &Reply| r.phases.map_or(0, |p| p.iter().sum::<u64>());
    // The six `@trace` phases, then the two residuals.
    let parts: [f64; 8] = std::array::from_fn(|i| match i {
        6 => mean(&|r| r.server_us.saturating_sub(spans_sum(r)) as f64),
        7 => mean(&|r| r.latency_ns() as f64 / 1e3 - r.server_us as f64),
        _ => mean(&|r| r.phases.map_or(0.0, |p| p[i] as f64)),
    });
    for (name, part) in report::BREAKDOWN_PARTS.iter().zip(parts) {
        run.push(&format!("{name}_us"), part, n);
    }
    run.push("metrics.trace_overhead_pct", overhead_pct, n);

    // ---- counts: Stats-frame difference, client counters ----------
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let hits = stats_after.prepared_hits - stats_before.prepared_hits;
    let misses = stats_after.prepared_misses - stats_before.prepared_misses;
    run.push("prepared_cache.hit_ratio", ratio(hits, hits + misses), n);
    let missed: Vec<&Reply> = traced.replies.iter().filter(|r| !r.prepared_hit).collect();
    let plan_hits = missed.iter().filter(|r| r.plan_cache_hit).count();
    run.push(
        "plan_cache.hit_ratio",
        // With no prepared miss the plan cache was never asked.
        if missed.is_empty() {
            1.0
        } else {
            plan_hits as f64 / missed.len() as f64
        },
        missed.len(),
    );
    run.push(
        "eval.overlay_rewrite_ratio",
        ratio(
            stats_after.bags_rewritten - stats_before.bags_rewritten,
            stats_after.bags_total - stats_before.bags_total,
        ),
        n,
    );
    run.push("queue.high_water", stats_after.queue_high_water as f64, 1);
    run.push(
        "queue.overload_rejects",
        (stats_after.rejected_overload - stats_before.rejected_overload) as f64,
        n,
    );
    let batches = stats_after.delta_batches - stats_before.delta_batches;
    run.push(
        "delta.bags_remat_per_batch",
        ratio(stats_after.bags_remat - stats_before.bags_remat, batches),
        batches as usize,
    );
    run.push(
        "delta.facts_per_batch",
        ratio(
            stats_after.facts_inserted + stats_after.facts_deleted
                - stats_before.facts_inserted
                - stats_before.facts_deleted,
            batches,
        ),
        batches as usize,
    );
    // One reply per distinct text, so the ratio repeats exactly for a
    // seed however many requests the window happened to fit.
    let mut tuple_bytes = 0u64;
    let mut tuples = 0u64;
    for i in 0..spec.texts.len() {
        if let Some(r) = traced.replies.iter().find(|r| r.text == i && r.tuples > 0) {
            tuple_bytes += r.tuple_json_bytes;
            tuples += r.tuples;
        }
    }
    run.push(
        "wire.bytes_per_tuple",
        ratio(tuple_bytes, tuples),
        tuples as usize,
    );
    let bytes: u64 = traced.replies.iter().map(|r| r.bytes).sum();
    run.push("wire.bytes_per_query", bytes as f64 / nf, n);
    let lat = latencies_us(traced.replies.iter());
    run.push("client.read_lat_p99_us", percentile(&lat, 0.99), n);
    let (ack, late) = ack_series(&traced);
    for (name, p) in [
        ("catalog.delta_ack_p50_us", 0.5),
        ("catalog.delta_ack_p90_us", 0.9),
        ("catalog.delta_ack_p99_us", 0.99),
    ] {
        run.push(name, percentile(&ack, p), ack.len());
    }
    let lateness = percentile(&late, 0.99);
    run.push("client.delta_lateness_p99_us", lateness, late.len());
    run.valid = lateness < MAX_LATENESS_US;

    // ---- in-process layer pass --------------------------------------
    let reps = if args.smoke { 3 } else { 9 };
    let mut sizes: Vec<f64> = traced.replies.iter().map(|r| r.bytes as f64).collect();
    sizes.sort_by(f64::total_cmp);
    let pass = layers::run(
        &layers::Inputs {
            db: &spec.db,
            facts_text: &spec.facts_text,
            texts: &spec.texts,
            payload_bytes: percentile(&sizes, 0.5) as usize,
            reps,
        },
        base,
    );
    for (name, value) in &pass.metrics {
        run.push(name, *value, reps);
    }

    report::write_spans(
        &args.out.join(format!("{}.spans.jsonl", spec.name)),
        &traced,
        &pass.spans,
    )?;
    run.breakdown = Some(report::Breakdown {
        parts,
        rtt_us: mean(&|r| r.latency_ns() as f64 / 1e3),
        decode_us: mean(&|r| r.decode_ns as f64 / 1e3),
        per_text: per_text_means(spec, &traced),
    });
    run.attempted = tally.attempted;
    run.failed = tally.failed;
    Ok(run)
}

/// Per-text means of a traced window, for text sets small enough to
/// read (the 312 texts of `cold_plan` are not).
fn per_text_means(spec: &Spec, traced: &Phase) -> Vec<(String, usize, [f64; 4])> {
    if spec.texts.len() > 12 {
        return Vec::new();
    }
    spec.texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let replies: Vec<&Reply> = traced.replies.iter().filter(|r| r.text == i).collect();
            let n = replies.len().max(1) as f64;
            let mean = |f: &dyn Fn(&Reply) -> f64| replies.iter().map(|r| f(r)).sum::<f64>() / n;
            (
                text.label.clone(),
                replies.len(),
                [
                    mean(&|r| r.latency_ns() as f64 / 1e3),
                    mean(&|r| r.phases.map_or(0.0, |p| p[4] as f64)),
                    mean(&|r| r.phases.map_or(0.0, |p| p[5] as f64)),
                    mean(&|r| r.decode_ns as f64 / 1e3),
                ],
            )
        })
        .collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn run_all(args: &Args) -> Result<Vec<Run>, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let previous = report::load_previous(&results_path(&args.out));
    if args.workloads.iter().any(|w| *w != "cold_plan") {
        oracle::self_check(args.seed)?;
    }
    let mut runs = Vec::new();
    for &name in &args.workloads {
        let spec = build_spec(name, args)?;
        for &traced in &args.traces {
            eprintln!(
                "cqd2-bench: {name} (seed {}, {} s, {})",
                args.seed,
                args.seconds,
                if traced { "traced" } else { "untraced" }
            );
            let run = if traced {
                run_traced(&spec, args)?
            } else {
                run_untraced(&spec, args)?
            };
            run.check_complete()?;
            run.print();
            runs.push(run);
        }
    }
    report::check_exact_repeats(previous.as_ref(), args.seed, &runs)?;
    Ok(runs)
}

fn results_path(out: &Path) -> PathBuf {
    out.join("results.json")
}

fn main() {
    let args = parse_args();
    let runs = match run_all(&args) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("cqd2-bench: FAILED: {e}");
            std::process::exit(1);
        }
    };
    let meta = report::Meta {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        nproc: nproc(),
        commit: &args.commit,
    };
    if let Err(e) = report::write_results(&results_path(&args.out), &meta, &runs) {
        eprintln!("cqd2-bench: FAILED: {e}");
        std::process::exit(1);
    }
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    for run in runs.iter().filter(|r| !r.valid) {
        eprintln!(
            "cqd2-bench: INVALID: {} ({}): the generator's own delta lateness p99 reached \
             {MAX_LATENESS_US} us — the run measures this machine's scheduler, not the server",
            run.workload,
            if run.traced { "traced" } else { "untraced" }
        );
    }
    println!("{}", report::contract_line(&runs));
    if failed > 0 {
        eprintln!("cqd2-bench: FAILED: {failed} replies failed the oracle or the transport");
        std::process::exit(1);
    }
}
