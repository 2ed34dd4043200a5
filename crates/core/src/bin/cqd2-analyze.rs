//! CLI: structural analysis of hypergraphs, and batch CQ evaluation
//! through the serving engine.
//!
//! ```sh
//! # structural analysis of a HyperBench .hg file (or stdin)
//! cargo run --release --bin cqd2-analyze -- path/to/query.hg
//! echo 'e1(a,b), e2(b,c), e3(c,a)' | cargo run --release --bin cqd2-analyze
//!
//! # evaluate a workload file (queries + facts; see cqd2::engine::textio)
//! cargo run --release --bin cqd2-analyze -- eval workload.txt
//! cargo run --release --bin cqd2-analyze -- eval --count workload.txt
//! cargo run --release --bin cqd2-analyze -- eval --enumerate --limit 10 workload.txt
//!
//! # scripted round-trips against a running cqd2-serve (serde builds)
//! cargo run --release --bin cqd2-analyze -- client --addr 127.0.0.1:7878 \
//!     --db main --query 'R(?x, ?y), S(?y, ?z)' --count
//! cargo run --release --bin cqd2-analyze -- client --addr 127.0.0.1:7878 \
//!     --db main batch.txt   # Q:/directive lines, facts stay server-side
//!
//! # admin round-trips: hot-reload a served database (the server must
//! # run with --allow-reload) and inspect the catalog's epochs
//! cargo run --release --bin cqd2-analyze -- client reload --addr 127.0.0.1:7878 \
//!     --db main new-facts.txt
//! cargo run --release --bin cqd2-analyze -- client catalog --addr 127.0.0.1:7878
//!
//! # incremental update: apply an @insert/@delete delta script — only
//! # touched relations are rebuilt, warm prepared handles stay warm
//! cargo run --release --bin cqd2-analyze -- client delta --addr 127.0.0.1:7878 \
//!     --db main changes.delta
//!
//! # snapshot store: convert facts to the binary .cqds format and back
//! cargo run --release --bin cqd2-analyze -- snapshot save facts.txt db.cqds
//! cargo run --release --bin cqd2-analyze -- snapshot inspect db.cqds
//! cargo run --release --bin cqd2-analyze -- snapshot load db.cqds
//!
//! # reload a served database from a server-local snapshot file
//! cargo run --release --bin cqd2-analyze -- client reload --addr 127.0.0.1:7878 \
//!     --db main --snapshot /var/lib/cqd2/main.cqds
//! ```
//!
//! `eval` flags: `--count` counts answers instead of deciding
//! non-emptiness; `--enumerate` streams answer tuples (`--limit N` caps
//! them); `--explain` prints the full plan explanation; with the `serde`
//! feature, `--json` dumps each chosen plan as JSON. Per-query
//! `@boolean` / `@count` / `@enumerate [limit]` directives inside the
//! workload file override the flag-selected default. Workload parse
//! errors name their line and exit nonzero.

use cqd2::engine::{Answer, Engine, Request, Workload};
use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("eval") => run_eval(&args[1..]),
        Some("client") => run_client(&args[1..]),
        Some("verify") => run_verify(&args[1..]),
        Some("snapshot") => run_snapshot(&args[1..]),
        _ => run_analyze(args.first().map(String::as_str)),
    }
}

/// `snapshot`: convert between the text facts format and the binary
/// `.cqds` snapshot store (see `docs/SNAPSHOT.md`).
///
/// - `snapshot save FACTS.txt OUT.cqds` — parse a facts file and write
///   it as a checksummed snapshot with persisted statistics.
/// - `snapshot load FILE.cqds` — decode a snapshot end to end (checksum
///   and invariant verification included) and print what it holds.
/// - `snapshot inspect FILE.cqds` — validate and print the header and
///   table of contents without materializing any tuples.
fn run_snapshot(args: &[String]) {
    use cqd2::engine::store;
    match args.first().map(String::as_str) {
        Some("save") => {
            let [facts_path, out_path] = &args[1..] else {
                exit_with("snapshot save: usage — snapshot save FACTS.txt OUT.cqds");
            };
            let text = std::fs::read_to_string(facts_path)
                .unwrap_or_else(|e| exit_with(&format!("cannot read {facts_path}: {e}")));
            let db = cqd2::engine::textio::parse_database(&text)
                .unwrap_or_else(|e| exit_with(&format!("{facts_path}: {e}")));
            let bytes = store::write_snapshot(out_path, &db)
                .unwrap_or_else(|e| exit_with(&format!("snapshot save: {e}")));
            println!(
                "saved {out_path}: {} facts in {} relations, {bytes} bytes",
                db.size(),
                db.relations().count()
            );
        }
        Some("load") => {
            let [path] = &args[1..] else {
                exit_with("snapshot load: usage — snapshot load FILE.cqds");
            };
            let file = store::read_snapshot(path)
                .unwrap_or_else(|e| exit_with(&format!("snapshot load: {e}")));
            println!(
                "loaded {path}: {} facts in {} relations (flags {:#010x})",
                file.db.size(),
                file.db.relations().count(),
                file.flags
            );
            for (name, rs) in file.stats.relations() {
                let distinct: Vec<String> = rs.distinct.iter().map(usize::to_string).collect();
                println!(
                    "  {name}: {} rows, distinct per column [{}]",
                    rs.cardinality,
                    distinct.join(", ")
                );
            }
        }
        Some("inspect") => {
            let [path] = &args[1..] else {
                exit_with("snapshot inspect: usage — snapshot inspect FILE.cqds");
            };
            let summary = store::inspect_snapshot(path)
                .unwrap_or_else(|e| exit_with(&format!("snapshot inspect: {e}")));
            println!(
                "{path}: format v{}, flags {:#010x}, {} bytes, {} relations, {} tuples",
                summary.version,
                summary.flags,
                summary.file_len,
                summary.relations.len(),
                summary.total_tuples
            );
            for r in &summary.relations {
                println!(
                    "  {}: arity {}, {} rows, section at byte {}",
                    r.name, r.arity, r.rows, r.offset
                );
            }
        }
        _ => exit_with("snapshot: usage — snapshot save|load|inspect …"),
    }
}

/// `verify`: plan every query of the given workload files and check the
/// derived plans against the paper's structural invariants (valid GHD,
/// width claim, strategy/structure-class consistency) — the same audit
/// `CQD2_STRICT_VERIFY=1` runs inside `Session::prepare`, surfaced as a
/// standalone command. Exits nonzero on the first violated invariant.
fn run_verify(args: &[String]) {
    let files: Vec<&String> = args
        .iter()
        .filter(|a| {
            if a.starts_with("--") {
                exit_with(&format!(
                    "verify: unknown flag {a} (takes workload files only)"
                ));
            }
            true
        })
        .collect();
    if files.is_empty() {
        exit_with("verify: no workload files given");
    }
    let engine = Engine::shared();
    let mut checked = 0usize;
    for path in files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| exit_with(&format!("cannot read {path}: {e}")));
        let parsed = cqd2::engine::textio::parse_workload(&text)
            .unwrap_or_else(|e| exit_with(&format!("{path}: {e}")));
        for (i, query) in parsed.queries.iter().enumerate() {
            let report = engine
                .verify_query(query)
                .unwrap_or_else(|e| exit_with(&format!("{path} q{i}: INVALID — {e}")));
            for plan in &report.plans {
                let ghd = match (plan.width, plan.bags) {
                    (Some(w), Some(b)) => format!(", ghd width {w} over {b} bags"),
                    _ => String::new(),
                };
                println!(
                    "{path} q{i}: {:?} plan ok — {}{ghd}{}",
                    plan.workload,
                    plan.strategy,
                    if report.cache_hit { " [cached]" } else { "" },
                );
            }
            checked += 1;
        }
    }
    println!(
        "verify: {checked} quer{} checked, all plans satisfy the paper's invariants",
        if checked == 1 { "y" } else { "ies" }
    );
}

fn run_analyze(path: Option<&str>) {
    let input = match path {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| exit_with(&format!("cannot read {path}: {e}"))),
        None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .unwrap_or_else(|e| exit_with(&format!("cannot read stdin: {e}")));
            s
        }
    };
    let h = cqd2::hyperbench::io::parse_hg(&input)
        .unwrap_or_else(|e| exit_with(&format!("parse error: {e}")));
    println!(
        "hypergraph: |V| = {}, |E| = {}, degree = {}, rank = {}",
        h.num_vertices(),
        h.num_edges(),
        h.max_degree(),
        h.rank()
    );
    let report = cqd2::analyze(&h);
    println!("ghw ∈ [{}, {}]", report.ghw_lower, report.ghw_upper);
    match report.jigsaw {
        Some((n, ops)) => {
            println!("degree-2: dilutes to the {n}×{n} jigsaw ({ops} operations; Theorem 4.7)")
        }
        None if report.degree <= 2 => {
            println!("degree-2: no jigsaw of dimension ≥ 2 found (low ghw)")
        }
        None => println!(
            "degree {} > 2: jigsaw extraction not applicable",
            report.degree
        ),
    }
}

fn run_eval(args: &[String]) {
    let mut count = false;
    let mut enumerate = false;
    let mut limit: Option<usize> = None;
    let mut explain = false;
    let mut json = false;
    let mut files: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--count" => count = true,
            "--enumerate" => enumerate = true,
            "--limit" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| exit_with("eval: --limit needs a number"));
                limit = Some(value.parse::<usize>().unwrap_or_else(|_| {
                    exit_with(&format!("eval: --limit `{value}` is not a number"))
                }));
            }
            "--explain" => explain = true,
            "--json" => json = true,
            flag if flag.starts_with("--") => exit_with(&format!(
                "unknown eval flag {flag} (try --count, --enumerate, --limit, --explain, --json)"
            )),
            path => files.push(path),
        }
    }
    if files.is_empty() {
        exit_with("eval: no workload files given");
    }
    if count && enumerate {
        exit_with("eval: --count and --enumerate are mutually exclusive");
    }
    if limit.is_some() && !enumerate {
        exit_with("eval: --limit only applies with --enumerate");
    }
    if json && cfg!(not(feature = "serde")) {
        exit_with("eval: --json requires building with the `serde` feature");
    }
    let default_workload = if count {
        Workload::Count
    } else if enumerate {
        Workload::Enumerate { limit }
    } else {
        Workload::Boolean
    };
    let engine = Engine::shared();
    for path in files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| exit_with(&format!("cannot read {path}: {e}")));
        // Parse errors carry their 1-based line number and exit nonzero.
        let parsed = cqd2::engine::textio::parse_workload(&text)
            .unwrap_or_else(|e| exit_with(&format!("{path}: {e}")));
        let requests: Vec<Request<'_>> = parsed
            .queries
            .iter()
            .zip(&parsed.modes)
            .map(|(query, mode)| Request {
                query,
                db: &parsed.db,
                workload: mode.unwrap_or(default_workload),
            })
            .collect();
        let responses = engine.execute_batch(&requests);
        // The explain path's data estimate reads these: one scan per
        // file, shared by every query it explains.
        let stats = (explain || json).then(|| parsed.db.stats());
        println!(
            "{path}: {} facts, {} queries",
            parsed.db.size(),
            parsed.queries.len()
        );
        for (i, (req, resp)) in requests.iter().zip(&responses).enumerate() {
            println!(
                "  q{i}: {}  [{} | cache {} | plan {:?} | exec {:?}]",
                brief_answer(&resp.answer),
                resp.provenance.planned.plan.strategy(),
                if resp.provenance.cache_hit {
                    "hit"
                } else {
                    "miss"
                },
                resp.provenance.planning,
                resp.provenance.execution,
            );
            print_tuples(&resp.answer);
            let Some(stats) = &stats else {
                continue;
            };
            // The served plan with the database's data estimate attached
            // (the `stats:` line); serving itself never computes it.
            let (planned, _, _) = engine.plan_with_db(req.query, stats, req.workload);
            if explain {
                for line in planned.explain().lines() {
                    println!("      {line}");
                }
                let bags = &resp.provenance.bags;
                println!(
                    "      tree pass: {}/{} bags rewritten",
                    bags.rewritten, bags.total,
                );
            }
            if json {
                print_plan_json(&planned);
            }
        }
    }
    let stats = engine.cache_stats();
    println!(
        "plan cache: {} hits, {} misses, {} structures resident",
        stats.hits, stats.misses, stats.entries
    );
}

/// `client`: scripted round-trips against a running `cqd2-serve`.
/// Flags: `--addr host:port` (required), `--db name` (required),
/// `--query 'body'` and/or query-batch files (`Q:` + `@…` lines);
/// `--count` / `--enumerate [--limit N]` set the mode for `--query`.
/// `--trace` asks the server for per-phase span breakdowns.
/// Admin modes: `client reload --addr A --db NAME FACTS_FILE`
/// hot-reloads a served database (server must run `--allow-reload`);
/// `client delta --addr A --db NAME DELTA_FILE` applies an incremental
/// `@insert`/`@delete` batch (same gate, structural-sharing publish);
/// `client catalog --addr A` prints the served names and epochs;
/// `client stats --addr A` prints the server's metrics snapshot.
#[cfg(feature = "serde")]
fn run_client(args: &[String]) {
    use cqd2::engine::server::client::Client;
    use cqd2::engine::server::wire;

    match args.first().map(String::as_str) {
        Some("reload") => return run_client_reload(&args[1..]),
        Some("delta") => return run_client_delta(&args[1..]),
        Some("catalog") => return run_client_catalog(&args[1..]),
        Some("stats") => return run_client_stats(&args[1..]),
        _ => {}
    }
    let mut addr: Option<String> = None;
    let mut db: Option<String> = None;
    let mut inline_query: Option<String> = None;
    let mut count = false;
    let mut enumerate = false;
    let mut trace = false;
    let mut limit: Option<usize> = None;
    let mut files: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> String {
            iter.next()
                .unwrap_or_else(|| exit_with(&format!("client: {flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr")),
            "--db" => db = Some(value_of("--db")),
            "--query" => inline_query = Some(value_of("--query")),
            "--count" => count = true,
            "--enumerate" => enumerate = true,
            "--trace" => trace = true,
            "--limit" => {
                let value = value_of("--limit");
                limit = Some(value.parse::<usize>().unwrap_or_else(|_| {
                    exit_with(&format!("client: --limit `{value}` is not a number"))
                }));
            }
            flag if flag.starts_with("--") => exit_with(&format!(
                "client: unknown flag {flag} (try --addr, --db, --query, --count, --enumerate, \
                 --limit, --trace)"
            )),
            path => files.push(path),
        }
    }
    let addr = addr.unwrap_or_else(|| exit_with("client: --addr host:port is required"));
    let db = db.unwrap_or_else(|| exit_with("client: --db name is required"));
    if inline_query.is_none() && files.is_empty() {
        exit_with("client: nothing to send — give --query or a batch file");
    }
    if count && enumerate {
        exit_with("client: --count and --enumerate are mutually exclusive");
    }
    if limit.is_some() && !enumerate {
        exit_with("client: --limit only applies with --enumerate");
    }

    let mut client = Client::connect(&addr)
        .unwrap_or_else(|e| exit_with(&format!("client: cannot connect to {addr}: {e}")));
    let bound = client
        .bind_db(&db)
        .unwrap_or_else(|e| exit_with(&format!("client: bind `{db}`: {e}")));
    println!(
        "bound to `{}`: {} facts in {} relations",
        bound.db, bound.facts, bound.relations
    );
    let mut batches: Vec<(String, String)> = Vec::new();
    if let Some(q) = inline_query {
        let workload = if count {
            cqd2::engine::Workload::Count
        } else if enumerate {
            cqd2::engine::Workload::Enumerate { limit }
        } else {
            cqd2::engine::Workload::Boolean
        };
        let text = format!("{}\nQ: {q}\n", wire::directive_for(workload));
        batches.push(("--query".to_string(), text));
    }
    for path in files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| exit_with(&format!("client: cannot read {path}: {e}")));
        batches.push((path.to_string(), text));
    }
    for (tag, text) in batches {
        let text = if trace {
            format!("@trace\n{text}")
        } else {
            text
        };
        let reply = client
            .request(&text)
            .unwrap_or_else(|e| exit_with(&format!("client: {tag}: {e}")));
        println!("{tag}: {} result(s)", reply.results.len());
        for r in &reply.results {
            println!(
                "  q{}: {}  [{} | cache {} | prepared {} | plan {}ns | exec {}ns | server {}µs]",
                r.index,
                brief_answer(&r.answer),
                r.strategy,
                if r.cache_hit { "hit" } else { "miss" },
                if r.prepared_hit { "hit" } else { "miss" },
                r.planning_ns,
                r.execution_ns,
                r.server_micros,
            );
            if let Some(t) = &r.trace {
                println!("      trace ({}µs in spans):", t.total_micros);
                for span in &t.spans {
                    match &span.detail {
                        Some(d) => println!("        {:<12} {:>8}µs  {d}", span.phase, span.micros),
                        None => println!("        {:<12} {:>8}µs", span.phase, span.micros),
                    }
                }
            }
            print_tuples(&r.answer);
        }
    }
}

/// `client reload`: publish a new snapshot for a served database over
/// the wire. In-flight work keeps its pinned epoch; new queries see
/// the new facts. With `--snapshot`, the positional argument is a
/// **server-local** `.cqds` file path instead of a client-side facts
/// file — the server loads it from its own filesystem, nothing is
/// uploaded.
#[cfg(feature = "serde")]
fn run_client_reload(args: &[String]) {
    use cqd2::engine::server::client::Client;

    let mut addr: Option<String> = None;
    let mut db: Option<String> = None;
    let mut snapshot = false;
    let mut file: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> String {
            iter.next()
                .unwrap_or_else(|| exit_with(&format!("client reload: {flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr")),
            "--db" => db = Some(value_of("--db")),
            "--snapshot" => snapshot = true,
            flag if flag.starts_with("--") => {
                exit_with(&format!("client reload: unknown flag {flag}"))
            }
            path if file.is_none() => file = Some(path),
            extra => exit_with(&format!("client reload: unexpected argument `{extra}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| exit_with("client reload: --addr host:port is required"));
    let db = db.unwrap_or_else(|| exit_with("client reload: --db name is required"));
    let file = file.unwrap_or_else(|| {
        exit_with(if snapshot {
            "client reload: a server-local snapshot path is required"
        } else {
            "client reload: a facts file is required"
        })
    });
    let mut client = Client::connect(&addr)
        .unwrap_or_else(|e| exit_with(&format!("client reload: cannot connect to {addr}: {e}")));
    let reloaded = if snapshot {
        client
            .reload_snapshot(&db, file)
            .unwrap_or_else(|e| exit_with(&format!("client reload: `{db}`: {e}")))
    } else {
        let facts = std::fs::read_to_string(file)
            .unwrap_or_else(|e| exit_with(&format!("client reload: cannot read {file}: {e}")));
        client
            .reload(&db, &facts)
            .unwrap_or_else(|e| exit_with(&format!("client reload: `{db}`: {e}")))
    };
    println!(
        "reloaded `{}` to epoch {}: {} facts in {} relations",
        reloaded.db, reloaded.epoch, reloaded.facts, reloaded.relations
    );
}

/// `client delta`: apply an incremental update batch to a served
/// database over the wire. The positional argument is a delta-script
/// file — `@insert` / `@delete` section directives followed by fact
/// lines. Unlike `client reload`, the server only rebuilds the touched
/// relations (everything else is structurally shared into the new
/// epoch) and migrates warm prepared handles instead of purging them.
#[cfg(feature = "serde")]
fn run_client_delta(args: &[String]) {
    use cqd2::engine::server::client::Client;

    let mut addr: Option<String> = None;
    let mut db: Option<String> = None;
    let mut file: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> String {
            iter.next()
                .unwrap_or_else(|| exit_with(&format!("client delta: {flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr")),
            "--db" => db = Some(value_of("--db")),
            flag if flag.starts_with("--") => {
                exit_with(&format!("client delta: unknown flag {flag}"))
            }
            path if file.is_none() => file = Some(path),
            extra => exit_with(&format!("client delta: unexpected argument `{extra}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| exit_with("client delta: --addr host:port is required"));
    let db = db.unwrap_or_else(|| exit_with("client delta: --db name is required"));
    let file = file.unwrap_or_else(|| {
        exit_with("client delta: a delta-script file (@insert/@delete sections) is required")
    });
    let script = std::fs::read_to_string(file)
        .unwrap_or_else(|e| exit_with(&format!("client delta: cannot read {file}: {e}")));
    let mut client = Client::connect(&addr)
        .unwrap_or_else(|e| exit_with(&format!("client delta: cannot connect to {addr}: {e}")));
    let applied = client
        .delta(&db, &script)
        .unwrap_or_else(|e| exit_with(&format!("client delta: `{db}`: {e}")));
    println!(
        "delta applied to `{}`: epoch {}, +{} −{} facts (now {}), touched [{}]",
        applied.db,
        applied.epoch,
        applied.inserted,
        applied.deleted,
        applied.facts,
        applied.relations_touched.join(", "),
    );
    println!(
        "  prepared handles: {} migrated warm, {} re-prepared, {} bag(s) re-materialized in {}µs",
        applied.prepared_warm,
        applied.prepared_reprepared,
        applied.bags_remat,
        applied.server_micros,
    );
}

/// `client catalog`: print the served databases, their epochs and
/// sizes, and whether the server accepts reloads.
#[cfg(feature = "serde")]
fn run_client_catalog(args: &[String]) {
    use cqd2::engine::server::client::Client;

    let mut addr: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(
                    iter.next()
                        .unwrap_or_else(|| exit_with("client catalog: --addr needs a value"))
                        .clone(),
                )
            }
            other => exit_with(&format!("client catalog: unexpected argument `{other}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| exit_with("client catalog: --addr host:port is required"));
    let mut client = Client::connect(&addr)
        .unwrap_or_else(|e| exit_with(&format!("client catalog: cannot connect to {addr}: {e}")));
    let info = client
        .catalog_info()
        .unwrap_or_else(|e| exit_with(&format!("client catalog: {e}")));
    println!(
        "{} database(s), reloads {}",
        info.databases.len(),
        if info.reload_enabled {
            "enabled"
        } else {
            "disabled"
        }
    );
    for d in &info.databases {
        println!(
            "  {}: epoch {}, {} facts in {} relations",
            d.name, d.epoch, d.facts, d.relations
        );
    }
}

/// `client stats`: print the server's metrics snapshot — lifetime
/// counters, live queue/connection gauges, and per-database latency
/// quantiles. The output is line-oriented and stable so harnesses can
/// grep it (`batches N`, `p99 Nµs`).
#[cfg(feature = "serde")]
fn run_client_stats(args: &[String]) {
    use cqd2::engine::server::client::Client;

    let mut addr: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(
                    iter.next()
                        .unwrap_or_else(|| exit_with("client stats: --addr needs a value"))
                        .clone(),
                )
            }
            other => exit_with(&format!("client stats: unexpected argument `{other}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| exit_with("client stats: --addr host:port is required"));
    let mut client = Client::connect(&addr)
        .unwrap_or_else(|e| exit_with(&format!("client stats: cannot connect to {addr}: {e}")));
    let stats = client
        .stats()
        .unwrap_or_else(|e| exit_with(&format!("client stats: {e}")));
    println!("uptime {}s", stats.uptime_micros / 1_000_000);
    println!(
        "connections {} ({} active)",
        stats.connections, stats.active_connections
    );
    println!(
        "frames {}, batches {}, queries {} ({} answered)",
        stats.frames, stats.batches, stats.queries, stats.answered
    );
    println!(
        "errors: {} overloaded, {} unauthorized, {} parse, {} protocol, {} internal",
        stats.rejected_overload,
        stats.rejected_unauthorized,
        stats.parse_errors,
        stats.protocol_errors,
        stats.internal_errors
    );
    println!(
        "prepared cache: {} hits / {} misses",
        stats.prepared_hits, stats.prepared_misses
    );
    println!(
        "tree passes: {} / {} bags rewritten",
        stats.bags_rewritten, stats.bags_total
    );
    println!("reloads {}", stats.reloads);
    println!(
        "deltas: {} applied (+{} −{} facts), {} rejected, {} bags re-materialized warm",
        stats.delta_batches,
        stats.facts_inserted,
        stats.facts_deleted,
        stats.delta_errors,
        stats.bags_remat
    );
    println!(
        "queue: depth {}, high-water {}, capacity {}",
        stats.queue_depth, stats.queue_high_water, stats.queue_capacity
    );
    for d in &stats.databases {
        println!(
            "db {}: epoch {}, batches {}, queries {}, errors {}, overloads {}, \
             prepared {}/{} hit/miss",
            d.name,
            d.epoch,
            d.batches,
            d.queries,
            d.errors,
            d.overloads,
            d.prepared_hits,
            d.prepared_misses
        );
        println!(
            "db {}: tree passes {} / {} bags rewritten",
            d.name, d.bags_rewritten, d.bags_total
        );
        if d.delta_batches > 0 {
            println!(
                "db {}: deltas {} (+{} −{} facts), {} bags re-materialized warm",
                d.name, d.delta_batches, d.facts_inserted, d.facts_deleted, d.bags_remat
            );
        }
        let h = &d.latency;
        println!(
            "db {}: latency over {} queries — p50 {}µs p90 {}µs p99 {}µs max {}µs mean {}µs",
            d.name, h.count, h.p50_micros, h.p90_micros, h.p99_micros, h.max_micros, h.mean_micros
        );
    }
}

#[cfg(not(feature = "serde"))]
fn run_client(_args: &[String]) {
    exit_with("the client subcommand requires building with the `serde` feature");
}

#[cfg(feature = "serde")]
fn print_plan_json(planned: &cqd2::engine::PlannedQuery) {
    println!("{}", serde::json::to_string_pretty(planned));
}

#[cfg(not(feature = "serde"))]
fn print_plan_json(_planned: &cqd2::engine::PlannedQuery) {
    // Unreachable: run_eval rejects --json on serde-less builds.
}

/// One-line answer summary shared by `eval` and `client` output.
fn brief_answer(answer: &Answer) -> String {
    match answer {
        Answer::Bool(b) => b.to_string(),
        Answer::Count(n) => n.to_string(),
        Answer::Tuples(t) => format!("{} tuples", t.len()),
    }
}

/// Print an enumerate answer's tuples, one per indented line.
fn print_tuples(answer: &Answer) {
    if let Answer::Tuples(tuples) = answer {
        for t in tuples {
            let cells: Vec<String> = t.iter().map(u64::to_string).collect();
            println!("      ({})", cells.join(", "));
        }
    }
}

fn exit_with(msg: &str) -> ! {
    eprintln!("cqd2-analyze: {msg}");
    std::process::exit(1)
}
