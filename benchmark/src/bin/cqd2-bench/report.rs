//! Metric names and units (the same names `BENCHMARK.json` lists),
//! the human-readable report, `results.json`, the spans file, and the
//! one JSON line the benchmark contract asks for.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use serde::Value;

use crate::layers::LayerSpan;
use crate::load::Phase;

/// End-to-end metrics: what `--trace 0` reports, on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("lat_p99_us", "us"),
    ("tuples_per_s", "1/s"),
    ("server_cpu_ms_per_query", "ms"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics: what `--trace 1` reports, on every workload
/// (layer = module name). A metric that has no meaning on a workload —
/// the `delta.*` family without a writer — reads 0 with `n=0`.
pub const PER_LAYER: [(&str, &str); 53] = [
    // Traced run: means per query from `@trace` spans + client clocks.
    ("queue.wait_us", "us"),
    ("textio.parse_us", "us"),
    ("session.plan_us", "us"),
    ("eval.materialize_us", "us"),
    ("eval.execute_us", "us"),
    ("wire.serialize_us", "us"),
    ("server.other_us", "us"),
    ("frame.transport_us", "us"),
    ("metrics.trace_overhead_pct", "%"),
    // Counts: Stats-frame difference across the traced run, client
    // counters.
    ("prepared_cache.hit_ratio", "ratio"),
    ("plan_cache.hit_ratio", "ratio"),
    ("eval.overlay_rewrite_ratio", "ratio"),
    ("queue.high_water", "count"),
    ("queue.overload_rejects", "count"),
    ("delta.bags_remat_per_batch", "count"),
    ("delta.facts_per_batch", "count"),
    ("wire.bytes_per_tuple", "B"),
    ("wire.bytes_per_query", "B"),
    ("client.read_lat_p99_us", "us"),
    ("catalog.delta_ack_p50_us", "us"),
    ("catalog.delta_ack_p90_us", "us"),
    ("catalog.delta_ack_p99_us", "us"),
    ("client.delta_lateness_p99_us", "us"),
    // In-process layer pass.
    ("textio.parse_query_batch_ns", "ns"),
    ("textio.parse_database_ms", "ms"),
    ("stats.collect_ms", "ms"),
    ("textio.parse_delta_us", "us"),
    ("store.decode_snapshot_ms", "ms"),
    ("store.encode_snapshot_ms", "ms"),
    ("store.bytes_per_fact", "B"),
    ("plan_cache.lookup_hit_us", "us"),
    ("planner.plan_structure_us", "us"),
    ("planner.plan_structure_max_us", "us"),
    ("session.prepare_us", "us"),
    ("eval.build_us", "us"),
    ("eval.bag_rows", "rows"),
    ("eval.first_run_us", "us"),
    ("eval.bcq_us", "us"),
    ("eval.count_us", "us"),
    ("eval.enumerator_us", "us"),
    ("eval.enumerate_ns_per_tuple", "ns"),
    ("flat.join_ns_per_row", "ns"),
    ("flat.semijoin_filter_ns_per_row", "ns"),
    ("flat.project_ns_per_row", "ns"),
    ("wire.encode_ns_per_tuple", "ns"),
    ("wire.decode_ns_per_tuple", "ns"),
    ("frame.codec_ns_per_frame", "ns"),
    ("delta.apply_us", "us"),
    ("catalog.apply_delta_us", "us"),
    ("stats.updated_for_us", "us"),
    ("session.rebase_us", "us"),
    ("eval.refresh_us", "us"),
    ("catalog.swap_str_ms", "ms"),
];

/// The terms of the stacked breakdown: the six `@trace` phases under
/// their layer names, in serve-path order, then the two residuals.
/// With `_us` appended they are the first eight per-layer metrics.
pub const BREAKDOWN_PARTS: [&str; 8] = [
    "queue.wait",
    "textio.parse",
    "session.plan",
    "eval.materialize",
    "eval.execute",
    "wire.serialize",
    "server.other",
    "frame.transport",
];

/// Counts that depend on the seed alone: two runs of one seed must
/// agree on them to the last digit.
const EXACT_REPEATS: [&str; 4] = [
    "eval.bag_rows",
    "wire.bytes_per_tuple",
    "delta.facts_per_batch",
    "store.bytes_per_fact",
];

/// Nearest-rank percentile of a sorted series (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a series (the mean of the middle two for an even count,
/// 0 for an empty one).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Listed in `BENCHMARK.json` (as opposed to reported beside it).
    pub contract: bool,
}

/// The stacked per-query breakdown of a traced run, microseconds.
pub struct Breakdown {
    /// `queue.wait + textio.parse + session.plan + eval.materialize +
    /// eval.execute + wire.serialize + server.other + frame.transport`.
    pub parts: [f64; 8],
    pub rtt_us: f64,
    /// Client JSON decode, a part of `frame.transport`.
    pub decode_us: f64,
    /// Per distinct text (small text sets only): label, requests, and
    /// mean RTT / `eval.execute` / `wire.serialize` / client decode, us.
    pub per_text: Vec<(String, usize, [f64; 4])>,
}

pub struct Run {
    pub workload: &'static str,
    pub traced: bool,
    pub server_flags: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// `false` when the generator itself ran late (`delta_mix`).
    pub valid: bool,
    pub breakdown: Option<Breakdown>,
}

impl Run {
    pub fn new(workload: &'static str, traced: bool, server_flags: &[String]) -> Run {
        Run {
            workload,
            traced,
            server_flags: server_flags.to_vec(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            valid: true,
            breakdown: None,
        }
    }

    /// Record a metric of this mode's contract set.
    pub fn push(&mut self, name: &str, value: f64, samples: usize) {
        let table: &[(&'static str, &'static str)] =
            if self.traced { &PER_LAYER } else { &END_TO_END };
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not in this mode's metric table"));
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            contract: true,
        });
    }

    /// Record a metric that is reported beside the contract set.
    pub fn push_extra(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            contract: false,
        });
    }

    /// Every metric the contract lists for this mode is present once
    /// and is a number.
    pub fn check_complete(&self) -> Result<(), String> {
        let table: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        for (name, _) in table {
            let n = self.metrics.iter().filter(|m| m.name == *name).count();
            if n != 1 {
                return Err(format!(
                    "{}: metric `{name}` reported {n} times",
                    self.workload
                ));
            }
        }
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!(
                "{}: metric `{}` is not a number",
                self.workload, m.name
            )),
            None => Ok(()),
        }
    }

    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "{} {} {} {} n={}",
                self.workload, m.name, m.value, m.unit, m.samples
            );
        }
        if let Some(b) = &self.breakdown {
            println!(
                "{} stacked breakdown per query (mean us, share of client RTT {:.1} us):",
                self.workload, b.rtt_us
            );
            for (name, part) in BREAKDOWN_PARTS.iter().zip(b.parts) {
                println!(
                    "{}   {name:<18} {part:>12.1}  {:>5.1} %",
                    self.workload,
                    100.0 * part / b.rtt_us
                );
            }
            println!(
                "{}   the two residuals: server.other = server_micros - sum of spans, \
                 frame.transport = RTT - server_micros ({:.1} us of it is client JSON decode)",
                self.workload, b.decode_us
            );
            for (label, n, [rtt, execute, serialize, decode]) in &b.per_text {
                println!(
                    "{}   text `{label}` n={n}: rtt {rtt:.1} us, eval.execute {execute:.1} us, \
                     wire.serialize {serialize:.1} us, client decode {decode:.1} us",
                    self.workload
                );
            }
        }
    }
}

fn metrics_json(out: &mut String, metrics: &[&Metric], prefix: &str, with_samples: bool) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"",
            m.name, m.value, m.unit
        );
        if with_samples {
            let _ = write!(out, ", \"n\": {}", m.samples);
        }
        out.push('}');
    }
    out.push('}');
}

/// The contract's last line. One run: its contract metrics by name.
/// Several runs (a full set): every run's, keyed `workload.metric`.
pub fn contract_line(runs: &[Run]) -> String {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": ",
        failed == 0,
        attempted.max(1)
    );
    if let [run] = runs {
        let metrics: Vec<&Metric> = run.metrics.iter().filter(|m| m.contract).collect();
        metrics_json(&mut out, &metrics, "", false);
    } else {
        out.push('{');
        for (i, run) in runs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let metrics: Vec<&Metric> = run.metrics.iter().filter(|m| m.contract).collect();
            let mut inner = String::new();
            metrics_json(&mut inner, &metrics, &format!("{}.", run.workload), false);
            out.push_str(&inner[1..inner.len() - 1]);
        }
        out.push('}');
    }
    out.push('}');
    out
}

pub struct Meta<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub nproc: usize,
    pub commit: &'a str,
}

pub fn write_results(path: &Path, meta: &Meta<'_>, runs: &[Run]) -> Result<(), String> {
    let mut out = format!(
        "{{\n  \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"nproc\": {}, \"commit\": \"{}\",\n  \"runs\": [",
        meta.seed, meta.seconds, meta.smoke, meta.nproc, meta.commit
    );
    for (i, run) in runs.iter().enumerate() {
        let flags: Vec<String> = run
            .server_flags
            .iter()
            .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        let _ = write!(
            out,
            "{}\n    {{\"workload\": \"{}\", \"trace\": {}, \"valid\": {}, \"attempted\": {}, \
             \"failed\": {}, \"server_flags\": [{}],\n     \"metrics\": ",
            if i > 0 { "," } else { "" },
            run.workload,
            u8::from(run.traced),
            run.valid,
            run.attempted,
            run.failed,
            flags.join(", ")
        );
        let metrics: Vec<&Metric> = run.metrics.iter().collect();
        metrics_json(&mut out, &metrics, "", true);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// The previous `results.json`, if there is a readable one.
pub fn load_previous(path: &Path) -> Option<Value> {
    serde::json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Compare the seed-determined counts with the previous run of the
/// same seed, workload and mode; any difference is an error.
pub fn check_exact_repeats(
    previous: Option<&Value>,
    seed: u64,
    runs: &[Run],
) -> Result<(), String> {
    let Some(top) = previous.and_then(Value::as_map) else {
        return Ok(());
    };
    if serde::map_get(top, "seed").and_then(number) != Some(seed as f64) {
        return Ok(());
    }
    let old_runs = serde::map_get(top, "runs")
        .and_then(Value::as_seq)
        .unwrap_or(&[]);
    for run in runs {
        let old = old_runs.iter().filter_map(Value::as_map).find(|r| {
            serde::map_get(r, "workload").and_then(Value::as_str) == Some(run.workload)
                && serde::map_get(r, "trace").and_then(number)
                    == Some(f64::from(u8::from(run.traced)))
        });
        let Some(old_metrics) = old
            .and_then(|r| serde::map_get(r, "metrics"))
            .and_then(Value::as_map)
        else {
            continue;
        };
        for m in run
            .metrics
            .iter()
            .filter(|m| EXACT_REPEATS.contains(&m.name))
        {
            let before = serde::map_get(old_metrics, m.name)
                .and_then(Value::as_map)
                .and_then(|e| serde::map_get(e, "value"))
                .and_then(number);
            if before.is_some_and(|b| b != m.value) {
                return Err(format!(
                    "{}: `{}` is {} but the previous run of seed {seed} had {} — a count that \
                     must repeat exactly for a seed did not",
                    run.workload,
                    m.name,
                    m.value,
                    before.unwrap_or(0.0)
                ));
            }
        }
    }
    Ok(())
}

/// Write the traced window's spans, one JSON object per line:
/// `{req, name, start_ns, end_ns, parent}`. Per request the root is
/// the client's send → last-frame-decoded interval; its children are
/// `client.decode` and `server` (`server_micros`, centred in what is
/// left of the round-trip, since the server's clock is not ours); the
/// server's `@trace` phases hang under `server` as durations laid end
/// to end in serve-path order. Deltas are rooted at their due time.
/// Layer-pass calls follow with `req: null`.
pub fn write_spans(path: &Path, traced: &Phase, layer_spans: &[LayerSpan]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut emit = |req: Option<usize>, name: &str, start: u64, end: u64, parent: Option<&str>| {
        let req = req.map_or("null".to_string(), |r| r.to_string());
        let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            w,
            "{{\"req\": {req}, \"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}, \"parent\": {parent}}}"
        )
    };
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    for (req, r) in traced.replies.iter().enumerate() {
        let req = Some(req);
        emit(req, "request", r.start_ns, r.end_ns, None).map_err(io)?;
        let decode_start = r.end_ns.saturating_sub(r.decode_ns).max(r.start_ns);
        emit(
            req,
            "client.decode",
            decode_start,
            r.end_ns,
            Some("request"),
        )
        .map_err(io)?;
        let server_ns = r.server_us * 1_000;
        let slack = (decode_start - r.start_ns).saturating_sub(server_ns);
        let mut at = r.start_ns + slack / 2;
        emit(req, "server", at, at + server_ns, Some("request")).map_err(io)?;
        for (name, micros) in BREAKDOWN_PARTS.iter().zip(r.phases.unwrap_or([0; 6])) {
            emit(req, name, at, at + micros * 1_000, Some("server")).map_err(io)?;
            at += micros * 1_000;
        }
    }
    for (i, a) in traced.acks.iter().enumerate() {
        let req = Some(traced.replies.len() + i);
        emit(req, "delta", a.due_ns, a.acked_ns, None).map_err(io)?;
        emit(
            req,
            "delta.wait_to_send",
            a.due_ns,
            a.sent_ns.max(a.due_ns),
            Some("delta"),
        )
        .map_err(io)?;
    }
    for s in layer_spans {
        emit(None, s.name, s.start_ns, s.end_ns, None).map_err(io)?;
    }
    w.flush().map_err(io)
}
