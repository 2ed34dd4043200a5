//! The traffic: closed-loop readers (a CQ caller waits for its answer
//! before asking again) and, in `delta_mix`, one open-loop writer (facts
//! arrive on a schedule whether or not the last batch was acknowledged,
//! so each delta is timed from when it was *due*).
//!
//! Every frame goes through `cqd2::engine::server::client::Client`'s
//! `send` / `read`, with the reply loop unrolled here so the client can
//! clock its own JSON decode and count bytes — the two things
//! `Client::request` hides.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cqd2::engine::server::client::Client;
use cqd2::engine::server::frame::{FrameType, HEADER_LEN};
use cqd2::engine::server::wire::{WireDeltaApplied, WireDone, WireError, WireResult};
use cqd2::engine::Answer;

use crate::fixture::{DeltaStep, Rng, Text};
use crate::oracle::Expected;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Move the calling thread to `SCHED_FIFO`, so that its timer wake-ups
/// preempt whatever the fair scheduler is running. An open-loop sender
/// has to send on schedule: under the fair class a sleeper on a busy
/// two-core box waits for a running slice to end (measured here: p50
/// 0.2 ms, p99 3-4 ms late), and that delay would be booked to the
/// server. The writer spends microseconds of CPU per delta, so it takes
/// nothing measurable from the server. Returns `false` where the
/// process may not do this; the run then reports the lateness it had.
fn run_at_fifo_priority() -> bool {
    const SCHED_FIFO: i32 = 1;
    let param = SchedParam { sched_priority: 1 };
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param`
    // (a single int) through the pointer during the call and keeps
    // nothing; `param` outlives the call. Pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_FIFO, &param) == 0 }
}

/// Served name of the one database every workload binds.
pub const DB: &str = "main";

/// `@trace` phase names in serve-path order (`Phase::name`).
pub const PHASES: [&str; 6] = [
    "queue_wait",
    "parse",
    "plan",
    "materialize",
    "execute",
    "serialize",
];

/// One request as the client saw it. Times are nanoseconds since the
/// run's clock base.
pub struct Reply {
    pub text: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside `serde::json::from_str` for this request's frames.
    pub decode_ns: u64,
    /// `WireDone::server_micros`: frame received → `Done` handed to the
    /// socket, i.e. the request's whole server residency.
    pub server_us: u64,
    /// Traced runs: microseconds per `PHASES` entry.
    pub phases: Option<[u64; 6]>,
    /// Reply bytes on the wire (headers + payloads).
    pub bytes: u64,
    /// Answer tuples decoded (0 for a Boolean / count reply).
    pub tuples: u64,
    /// Traced runs: bytes the answer's tuple array takes as JSON — a
    /// function of the answer alone, unlike `bytes`, whose envelope
    /// carries timings of varying width.
    pub tuple_json_bytes: u64,
    pub prepared_hit: bool,
    pub plan_cache_hit: bool,
    /// Checked against the oracle already (`false` also for an error
    /// frame or a broken connection).
    pub ok: bool,
    /// `delta_mix`: the answer and the epoch window it may belong to,
    /// checked after the run when the per-epoch oracle exists.
    pub deferred: Option<(Answer, u64, u64)>,
}

impl Reply {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One delta as the writer saw it.
pub struct DeltaAck {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub acked_ns: u64,
    /// Whether the previous delta was acknowledged before this one was
    /// due — only then is `sent - due` the generator's own lateness.
    pub predecessor_acked: bool,
    pub ok: bool,
}

/// How many deltas have been sent / acknowledged since the server
/// started. A reader brackets each request with them: the answer must
/// match the oracle at some epoch in `[acked at send, sent at receive]`.
#[derive(Default)]
pub struct FeedCounters {
    pub sent: AtomicU64,
    pub acked: AtomicU64,
}

pub enum Pick {
    /// Walk the texts in order, starting at `offset`.
    Cycle { offset: usize },
    /// Draw uniformly with replacement (a cyclic scan would defeat an
    /// LRU cache completely and make `cold_plan` a 0 %-hit workload).
    Random(Rng),
}

pub struct Reader<'a> {
    pub texts: &'a [Text],
    /// `None` defers the check (answers move with the delta feed).
    pub expected: Option<&'a [Expected]>,
    pub pick: Pick,
    pub traced: bool,
}

pub struct Writer<'a> {
    pub steps: &'a [DeltaStep],
    /// Deltas per second.
    pub rate: f64,
}

/// Length of the slices a window is cut into for rates.
pub const SLICE: Duration = Duration::from_secs(1);

pub struct Phase {
    pub replies: Vec<Reply>,
    pub acks: Vec<DeltaAck>,
    /// The server's cumulative CPU milliseconds at the window's start
    /// and at every `SLICE` boundary after it, with the clock reading
    /// (nanoseconds since the run's base) of each sample.
    pub cpu: Vec<(u64, f64)>,
    /// Deltas consumed from the feed.
    pub steps_used: usize,
}

fn ns_since(base: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(base).as_nanos()).unwrap_or(u64::MAX)
}

pub fn connect(addr: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .bind_db(DB)
        .map_err(|e| format!("bind `{DB}`: {e}"))?;
    Ok(client)
}

/// Length of `[[a,b],[c,d],…]` in the server's compact JSON.
fn tuple_array_json_len(tuples: &[Vec<u64>]) -> u64 {
    let digits = |v: u64| u64::from(v.checked_ilog10().unwrap_or(0)) + 1;
    let rows: u64 = tuples
        .iter()
        .map(|t| 2 + t.iter().map(|&v| digits(v)).sum::<u64>() + t.len().saturating_sub(1) as u64)
        .sum();
    2 + rows + tuples.len().saturating_sub(1) as u64
}

/// One closed-loop round-trip: send the text, read frames to `Done`.
pub fn round_trip(
    client: &mut Client,
    base: Instant,
    text_index: usize,
    text: &Text,
    traced: bool,
) -> (Reply, Option<Answer>) {
    let mut reply = Reply {
        text: text_index,
        start_ns: ns_since(base, Instant::now()),
        end_ns: 0,
        decode_ns: 0,
        server_us: 0,
        phases: None,
        bytes: 0,
        tuples: 0,
        tuple_json_bytes: 0,
        prepared_hit: false,
        plan_cache_hit: false,
        ok: false,
        deferred: None,
    };
    let payload = if traced { &text.traced } else { &text.batch };
    let mut answer = None;
    let outcome = (|| -> Result<(), String> {
        client
            .send(FrameType::Query, payload.as_bytes())
            .map_err(|e| e.to_string())?;
        loop {
            let frame = client.read().map_err(|e| e.to_string())?;
            reply.bytes += (HEADER_LEN + frame.payload.len()) as u64;
            let body = frame.text().map_err(|e| e.to_string())?;
            let decoding = Instant::now();
            match frame.frame_type {
                FrameType::Result => {
                    let result: WireResult =
                        serde::json::from_str(body).map_err(|e| e.to_string())?;
                    reply.decode_ns += decoding.elapsed().as_nanos() as u64;
                    reply.prepared_hit = result.prepared_hit;
                    reply.plan_cache_hit = result.cache_hit;
                    if let Some(trace) = &result.trace {
                        let mut phases = [0u64; 6];
                        for span in &trace.spans {
                            if let Some(i) = PHASES.iter().position(|p| *p == span.phase) {
                                phases[i] += span.micros;
                            }
                        }
                        reply.phases = Some(phases);
                    }
                    if let Some(tuples) = result.answer.as_tuples() {
                        reply.tuples = tuples.len() as u64;
                        if traced {
                            reply.tuple_json_bytes = tuple_array_json_len(tuples);
                        }
                    }
                    answer = Some(result.answer);
                }
                FrameType::Done => {
                    let done: WireDone = serde::json::from_str(body).map_err(|e| e.to_string())?;
                    reply.decode_ns += decoding.elapsed().as_nanos() as u64;
                    reply.server_us = done.server_micros;
                    return Ok(());
                }
                FrameType::Error => {
                    let err: WireError = serde::json::from_str(body).map_err(|e| e.to_string())?;
                    return Err(format!("{:?}: {}", err.code, err.message));
                }
                other => return Err(format!("unexpected {other:?} frame")),
            }
        }
    })();
    reply.end_ns = ns_since(base, Instant::now());
    if let Err(e) = outcome {
        eprintln!("cqd2-bench: request failed on `{}`: {e}", text.label);
        answer = None;
    }
    (reply, answer)
}

fn run_reader(
    addr: &str,
    mut reader: Reader<'_>,
    base: Instant,
    barrier: &Barrier,
    duration: Duration,
    feed: &FeedCounters,
) -> Result<Vec<Reply>, String> {
    let client = connect(addr);
    barrier.wait();
    let mut client = client?;
    let until = Instant::now() + duration;
    let mut replies = Vec::new();
    let mut n = 0usize;
    while Instant::now() < until {
        let i = match &mut reader.pick {
            Pick::Cycle { offset } => (*offset + n) % reader.texts.len(),
            Pick::Random(rng) => rng.below(reader.texts.len() as u64) as usize,
        };
        n += 1;
        let lo = feed.acked.load(Ordering::SeqCst);
        let (mut reply, answer) = round_trip(&mut client, base, i, &reader.texts[i], reader.traced);
        let hi = feed.sent.load(Ordering::SeqCst);
        let broken = answer.is_none();
        match (answer, reader.expected) {
            (Some(a), Some(expected)) => reply.ok = expected[i].accepts(&a),
            (Some(a), None) => reply.deferred = Some((a, lo, hi)),
            (None, _) => {}
        }
        replies.push(reply);
        if broken {
            // An error frame leaves the connection usable, a transport
            // error does not; either way the run is already failed, so
            // stop rather than hammer a broken server.
            break;
        }
    }
    Ok(replies)
}

fn run_writer(
    addr: &str,
    writer: &Writer<'_>,
    base: Instant,
    barrier: &Barrier,
    duration: Duration,
    feed: &FeedCounters,
) -> Result<Vec<DeltaAck>, String> {
    let client = connect(addr);
    if !run_at_fifo_priority() {
        eprintln!("cqd2-bench: no SCHED_FIFO for the delta writer; expect it to run late");
    }
    barrier.wait();
    let mut client = client?;
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / writer.rate);
    let mut acks: Vec<DeltaAck> = Vec::new();
    for (i, step) in writer.steps.iter().enumerate() {
        let due = start + period * i as u32;
        if due >= start + duration {
            break;
        }
        if let Some(nap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(nap);
        }
        let due_ns = ns_since(base, due);
        let predecessor_acked = acks.last().is_none_or(|a| a.acked_ns <= due_ns);
        feed.sent.fetch_add(1, Ordering::SeqCst);
        let sent_ns = ns_since(base, Instant::now());
        let applied: Result<WireDeltaApplied, _> = client.delta(DB, &step.script);
        let acked_ns = ns_since(base, Instant::now());
        let ok = match &applied {
            Ok(a) => a.inserted + a.deleted == step.facts,
            Err(e) => {
                eprintln!("cqd2-bench: delta {i} failed: {e}");
                false
            }
        };
        acks.push(DeltaAck {
            due_ns,
            sent_ns,
            acked_ns,
            predecessor_acked,
            ok,
        });
        if applied.is_err() {
            // The model database and the server have diverged.
            break;
        }
        feed.acked.fetch_add(1, Ordering::SeqCst);
    }
    Ok(acks)
}

/// Run the readers (and the writer, if any) side by side for
/// `duration`. Threads connect first and start together; meanwhile this
/// thread samples the server's CPU time once per `SLICE`.
pub fn run_phase(
    addr: &str,
    base: Instant,
    readers: Vec<Reader<'_>>,
    writer: Option<Writer<'_>>,
    duration: Duration,
    feed: &FeedCounters,
    mut server_cpu_ms: impl FnMut() -> Result<f64, String>,
) -> Result<Phase, String> {
    let barrier = Barrier::new(readers.len() + usize::from(writer.is_some()) + 1);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        let reader_threads: Vec<_> = readers
            .into_iter()
            .map(|r| scope.spawn(move || run_reader(addr, r, base, barrier, duration, feed)))
            .collect();
        let writer_thread = writer
            .as_ref()
            .map(|w| scope.spawn(move || run_writer(addr, w, base, barrier, duration, feed)));
        barrier.wait();
        let started = Instant::now();
        let mut error = None;
        let mut cpu = Vec::new();
        for slice in 0..=(duration.as_secs_f64() / SLICE.as_secs_f64()) as u32 {
            if let Some(nap) = (started + SLICE * slice).checked_duration_since(Instant::now()) {
                std::thread::sleep(nap);
            }
            match server_cpu_ms() {
                Ok(ms) => cpu.push((ns_since(base, Instant::now()), ms)),
                Err(e) => error = Some(e),
            }
        }
        let mut replies = Vec::new();
        for t in reader_threads {
            match t.join().map_err(|_| "reader thread panicked".to_string()) {
                Ok(Ok(r)) => replies.extend(r),
                Ok(Err(e)) | Err(e) => error = Some(e),
            }
        }
        let acks = match writer_thread
            .map(|t| t.join().map_err(|_| "writer thread panicked".to_string()))
        {
            Some(Ok(Ok(a))) => a,
            Some(Ok(Err(e))) | Some(Err(e)) => {
                error = Some(e);
                Vec::new()
            }
            None => Vec::new(),
        };
        match error {
            Some(e) => Err(e),
            None => Ok(Phase {
                steps_used: acks.len(),
                replies,
                acks,
                cpu,
            }),
        }
    })
}
