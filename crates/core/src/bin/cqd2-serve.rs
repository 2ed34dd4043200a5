//! `cqd2-serve` — the standalone serving daemon.
//!
//! Publishes one or more named databases into a versioned
//! [`cqd2::engine::Catalog`] at startup, binds a TCP listener,
//! and serves the `docs/PROTOCOL.md` wire protocol until SIGTERM /
//! ctrl-c (or stdin EOF with `--shutdown-on-stdin-close`, for harnesses
//! without signals):
//!
//! ```sh
//! printf 'R(1, 2)\nS(2, 3)\nS(2, 4)\n' > facts.txt
//! cargo run --release --bin cqd2-serve -- --listen 127.0.0.1:7878 \
//!     --db main=facts.txt --allow-reload
//!
//! # then, from another shell:
//! cargo run --release --bin cqd2-analyze -- client --addr 127.0.0.1:7878 \
//!     --db main --query 'R(?x, ?y), S(?y, ?z)' --count
//! # hot-reload `main` without restarting (requires --allow-reload):
//! cargo run --release --bin cqd2-analyze -- client reload \
//!     --addr 127.0.0.1:7878 --db main new-facts.txt
//! # or apply an incremental @insert/@delete delta — only touched
//! # relations are rebuilt, warm prepared handles stay warm:
//! cargo run --release --bin cqd2-analyze -- client delta \
//!     --addr 127.0.0.1:7878 --db main changes.delta
//! ```
//!
//! Flags: `--listen addr:port` (default `127.0.0.1:7878`; port 0 lets
//! the OS pick and prints the bound address), repeated `--db name=path`
//! (the file format is sniffed: binary `.cqds` snapshots — see
//! `docs/SNAPSHOT.md` and `cqd2-analyze snapshot save` — load with
//! their persisted statistics and skip the publish-time stats pass;
//! anything else parses as a facts-only text file, see
//! `cqd2::engine::textio::parse_database`; repeating a name is a
//! startup error, never silent last-wins),
//! `--allow-reload` (accept protocol-v2 `Reload` *and* incremental
//! `Delta` admin frames — both mutate served data, so they share the
//! gate),
//! `--plans path` (plan-store spill: preload the engine's plan cache
//! from `path` at startup when the file exists, and spill the cache
//! back at shutdown),
//! `--workers N` (0 = available parallelism), `--queue N` (bounded
//! request queue = the backpressure point), `--prepared N` (per-db
//! prepared-query cache), `--cache N` (engine plan-cache capacity),
//! `--stats-interval SECS` (print a one-line metrics summary to stderr
//! every SECS seconds; the same numbers the protocol `Stats` admin
//! frame reports).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cqd2::engine::server::{signal, Server, ServerConfig};
use cqd2::engine::{store, Catalog, Engine, EngineConfig};

struct Args {
    listen: String,
    dbs: Vec<(String, String)>,
    config: ServerConfig,
    cache_capacity: usize,
    shutdown_on_stdin_close: bool,
    stats_interval: Option<u64>,
    plans: Option<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7878".to_string(),
        dbs: Vec::new(),
        config: ServerConfig::default(),
        cache_capacity: EngineConfig::default().cache_capacity,
        shutdown_on_stdin_close: false,
        stats_interval: None,
        plans: None,
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> String {
            iter.next()
                .unwrap_or_else(|| exit_with(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--listen" => args.listen = value_of("--listen"),
            "--db" => {
                let spec = value_of("--db");
                let Some((name, path)) = spec.split_once('=') else {
                    exit_with(&format!("--db expects name=path, got `{spec}`"));
                };
                // Repeated names are a configuration bug; refuse to
                // start rather than silently serving whichever file
                // came last under the shared name.
                if args.dbs.iter().any(|(n, _)| n == name) {
                    exit_with(&format!(
                        "duplicate --db name `{name}` — each database needs a unique name \
                         (use `cqd2-analyze client reload` to replace a running database)"
                    ));
                }
                args.dbs.push((name.to_string(), path.to_string()));
            }
            "--allow-reload" => args.config.allow_reload = true,
            "--plans" => args.plans = Some(value_of("--plans")),
            "--workers" => args.config.workers = parse_num(&value_of("--workers"), "--workers"),
            "--queue" => {
                args.config.queue_capacity = parse_num(&value_of("--queue"), "--queue").max(1)
            }
            "--prepared" => {
                args.config.prepared_capacity = parse_num(&value_of("--prepared"), "--prepared")
            }
            "--cache" => args.cache_capacity = parse_num(&value_of("--cache"), "--cache"),
            "--stats-interval" => {
                let secs = parse_num(&value_of("--stats-interval"), "--stats-interval");
                if secs == 0 {
                    exit_with("--stats-interval must be at least 1 second");
                }
                args.stats_interval = Some(secs as u64);
            }
            "--shutdown-on-stdin-close" => args.shutdown_on_stdin_close = true,
            "--help" | "-h" => {
                println!(
                    "cqd2-serve --listen ADDR:PORT --db NAME=PATH [--db NAME=PATH …]\n\
                     \x20          [--allow-reload] [--plans PATH] [--workers N] [--queue N]\n\
                     \x20          [--prepared N] [--cache N] [--stats-interval SECS]\n\
                     \x20          [--shutdown-on-stdin-close]\n\
                     \x20 --db paths may be text facts files or binary .cqds snapshots\n\
                     \x20 (sniffed by magic; see docs/SNAPSHOT.md)\n\
                     \x20 --allow-reload gates both Reload and incremental Delta admin frames"
                );
                std::process::exit(0);
            }
            other => exit_with(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.dbs.is_empty() {
        exit_with("no databases given — at least one --db name=path is required");
    }
    args
}

fn parse_num(text: &str, flag: &str) -> usize {
    text.parse::<usize>()
        .unwrap_or_else(|_| exit_with(&format!("{flag} `{text}` is not a number")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);

    let catalog = Catalog::new();
    for (name, path) in &args.dbs {
        let bytes = std::fs::read(path)
            .unwrap_or_else(|e| exit_with(&format!("loading --db {name}={path}: {e}")));
        // Format sniff: `.cqds` snapshots carry a magic prefix; anything
        // else is treated as a facts-only text file.
        if store::is_snapshot(&bytes) {
            let file = store::decode_snapshot(&bytes)
                .unwrap_or_else(|e| exit_with(&format!("loading --db {name}={path}: {e}")));
            let snapshot = catalog
                .publish_with_stats(name, file.db, file.stats)
                .unwrap_or_else(|e| exit_with(&format!("loading --db {name}={path}: {e}")));
            eprintln!(
                "cqd2-serve: published `{name}` from snapshot {path}: {} facts in {} relations \
                 (epoch 0, stats persisted)",
                snapshot.db().size(),
                snapshot.db().relations().count()
            );
        } else {
            let text = String::from_utf8(bytes).unwrap_or_else(|_| {
                exit_with(&format!(
                    "loading --db {name}={path}: not a .cqds snapshot and not UTF-8 text"
                ))
            });
            let snapshot = catalog
                .publish_str(name, &text)
                .unwrap_or_else(|e| exit_with(&format!("loading --db {name}={path}: {e}")));
            eprintln!(
                "cqd2-serve: published `{name}` from {path}: {} facts in {} relations (epoch 0)",
                snapshot.db().size(),
                snapshot.db().relations().count()
            );
        }
    }

    let engine = Engine::new(EngineConfig {
        cache_capacity: args.cache_capacity,
        ..EngineConfig::default()
    });
    if let Some(plans_path) = &args.plans {
        if std::path::Path::new(plans_path).exists() {
            match store::load_plans(plans_path, &engine) {
                Ok(loaded) => eprintln!("cqd2-serve: preloaded {loaded} plan(s) from {plans_path}"),
                Err(e) => eprintln!("cqd2-serve: ignoring plan store {plans_path}: {e}"),
            }
        }
    }
    let server = Server::bind(&args.listen, args.config.clone())
        .unwrap_or_else(|e| exit_with(&format!("cannot bind {}: {e}", args.listen)));
    let addr = server.local_addr().expect("bound listener has an address");
    let handle = server.handle();
    if !signal::install_shutdown_signals(&handle) {
        eprintln!(
            "cqd2-serve: signal handlers unavailable; stop via --shutdown-on-stdin-close or kill"
        );
    }
    if args.shutdown_on_stdin_close {
        spawn_stdin_watch(handle.shutdown_flag());
    }
    if args.config.allow_reload {
        eprintln!("cqd2-serve: reloads and deltas enabled (--allow-reload)");
    }
    if let Some(secs) = args.stats_interval {
        spawn_stats_dump(handle.clone(), secs);
    }
    // The line harnesses wait for before connecting.
    println!(
        "cqd2-serve: listening on {addr} (dbs: {})",
        catalog.names().join(", ")
    );

    let stats = server
        .run(&engine, &catalog)
        .unwrap_or_else(|e| exit_with(&format!("server failed: {e}")));
    if let Some(plans_path) = &args.plans {
        match store::save_plans(plans_path, &engine) {
            Ok(count) => eprintln!("cqd2-serve: spilled {count} plan(s) to {plans_path}"),
            Err(e) => eprintln!("cqd2-serve: could not spill plans to {plans_path}: {e}"),
        }
    }
    println!(
        "cqd2-serve: shutdown complete — {} connections, {} batches ({} queries, {} answered), \
         {} overload-rejected, {} parse errors, {} reloads, prepared cache {} hits / {} misses",
        stats.connections,
        stats.batches,
        stats.queries,
        stats.answered,
        stats.rejected_overload,
        stats.parse_errors,
        stats.reloads,
        stats.prepared_hits,
        stats.prepared_misses,
    );
}

/// Print the server's one-line metrics summary to stderr every
/// `secs` seconds until shutdown. The line is produced by the running
/// server's own metrics registry, so it matches what a `Stats` admin
/// frame would report at the same instant.
fn spawn_stats_dump(handle: cqd2::engine::server::ServerHandle, secs: u64) {
    let flag = handle.shutdown_flag();
    // cqd2-lint: allow(unscoped-spawn, reason = "daemon-lifetime stats dumper; exits with the process, nothing to join")
    std::thread::spawn(move || {
        let interval = std::time::Duration::from_secs(secs);
        while !flag.load(Ordering::SeqCst) {
            std::thread::sleep(interval);
            if let Some(line) = handle.stats_line() {
                eprintln!("cqd2-serve: {line}");
            }
        }
    });
}

/// Flip the shutdown flag when stdin reaches EOF (the parent process
/// closed the pipe) — a portable stand-in for signals under test
/// harnesses and CI runners that cannot deliver them.
fn spawn_stdin_watch(flag: Arc<AtomicBool>) {
    // cqd2-lint: allow(unscoped-spawn, reason = "blocks in stdin read until the parent closes the pipe; cannot be scoped")
    std::thread::spawn(move || {
        use std::io::Read;
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        flag.store(true, Ordering::SeqCst);
    });
}

fn exit_with(msg: &str) -> ! {
    eprintln!("cqd2-serve: {msg}");
    std::process::exit(1)
}
