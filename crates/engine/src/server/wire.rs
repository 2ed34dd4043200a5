//! JSON payloads of the server→client frames.
//!
//! Every structure here derives the workspace's `serde` traits and
//! travels as JSON text inside a [`crate::server::frame`] frame. All
//! response payloads carry `request` — the 1-based sequence number of
//! the client frame they answer, counted per connection — so clients
//! may pipeline frames and still correlate responses.
//!
//! The derives write and read the text directly — encoding a payload
//! appends to one byte buffer, decoding allocates only what the decoded
//! value holds (one `Vec` per answer tuple) — and the field order of a
//! struct is its key order on the wire. [`WireResult`] relies on that:
//! its last two fields are the ones only the send can fill in, so a
//! worker encodes everything before them once and appends the rest. An
//! enumerated answer reaches the encoder as one row-major buffer of
//! `u64`s (`FlatRows`), written into the answer's place in the payload
//! as the same `[[…],…]` text the derive writes for `Answer::Tuples`.

use serde::{Deserialize, Serialize};

use crate::engine::{Answer, Response, Workload};
use crate::metrics::{QueryTrace, Snapshot};

/// Payload of a [`crate::server::frame::FrameType::Bound`] frame: the
/// connection is now bound to `db`. `facts`/`relations`/`epoch`
/// describe the catalog's *current* snapshot at bind time; each query
/// batch pins whatever snapshot is current when the batch is accepted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireBound {
    /// Sequence number of the `Bind` frame this answers.
    pub request: u64,
    /// The database name the connection is bound to.
    pub db: String,
    /// Total facts in the database.
    pub facts: u64,
    /// Number of relations in the database.
    pub relations: u64,
    /// The catalog epoch of the snapshot described above (bumped by
    /// every reload).
    pub epoch: u64,
    /// Microseconds the request spent inside the server (receipt of the
    /// client frame → this response handed to the socket). Subtracting
    /// it from a client-measured round-trip isolates network time.
    pub server_micros: u64,
}

/// Payload of a [`crate::server::frame::FrameType::Result`] frame: one
/// query's answer plus its plan provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireResult {
    /// Sequence number of the `Query` frame this answers.
    pub request: u64,
    /// 0-based index of the query within its batch.
    pub index: u64,
    /// The answer (Boolean, count, or tuples).
    pub answer: Answer,
    /// The executed plan's strategy name (e.g. `ghd-yannakakis`).
    pub strategy: String,
    /// Whether the structure analysis came from the engine's plan cache.
    pub cache_hit: bool,
    /// Whether the server reused a prepared-query handle (bag tree
    /// already materialized) for this execution.
    pub prepared_hit: bool,
    /// Nanoseconds of planning this execution paid (0 on prepared
    /// re-execution — the cost was paid when the handle was prepared).
    pub planning_ns: u64,
    /// Nanoseconds of execution (the tree pass on a handle's first run
    /// of a workload kind, a memo read afterwards).
    pub execution_ns: u64,
    /// Microseconds this query spent inside the server, from receipt of
    /// its `Query` frame to this response being handed to the socket
    /// (so it includes queue wait and the batch's earlier queries).
    pub server_micros: u64,
    /// Per-phase span breakdown — present only when the batch carried
    /// the `@trace` directive. The phases are disjoint sub-intervals of
    /// the request's server residency, so their sum ≤ `server_micros`.
    pub trace: Option<WireTrace>,
}

impl WireResult {
    /// Assemble from an engine [`Response`], taking it by value: an
    /// enumerated answer moves onto the wire struct, it is not copied.
    /// `server_micros` is zero and `trace` absent — the reply path
    /// appends both to the encoded payload (`encode_unstamped`, `stamp`).
    pub fn from_response(request: u64, index: u64, prepared_hit: bool, resp: Response) -> Self {
        WireResult {
            request,
            index,
            answer: resp.answer,
            strategy: resp.provenance.planned.plan.strategy().to_string(),
            cache_hit: resp.provenance.cache_hit,
            prepared_hit,
            planning_ns: u64::try_from(resp.provenance.planning.as_nanos()).unwrap_or(u64::MAX),
            execution_ns: u64::try_from(resp.provenance.execution.as_nanos()).unwrap_or(u64::MAX),
            server_micros: 0,
            trace: None,
        }
    }

    /// The payload's JSON up to its last two fields — everything a
    /// worker knows before the send, the answer included. This is the
    /// one encode a `Result` frame pays, so it is also what a trace's
    /// `serialize` span times; [`WireResult::stamp`] completes it.
    ///
    /// With `rows`, the answer is an enumeration the worker drained into
    /// one row-major buffer, and `self.answer` must be the empty
    /// `Answer::Tuples` standing in for it: the derive encodes the
    /// payload around that placeholder — it stays the one place that
    /// knows the key order — and the rows are written into the
    /// placeholder's tuple array, byte-identical to encoding
    /// `Answer::Tuples` of them.
    pub(super) fn encode_unstamped(&self, rows: Option<FlatRows<'_>>) -> Vec<u8> {
        debug_assert!(self.server_micros == 0 && self.trace.is_none());
        let mut json = Vec::new();
        self.write_json(&mut json);
        debug_assert!(json.ends_with(UNSTAMPED_TAIL.as_bytes()));
        json.truncate(json.len().saturating_sub(UNSTAMPED_TAIL.len()));
        if let Some(rows) = rows {
            debug_assert_eq!(self.answer, Answer::Tuples(Vec::new()));
            // `{"Tuples":[[]]}`: the inner `[]` is the empty tuple list.
            // A `{"` never occurs inside an encoded string (its quote
            // would be escaped), so the first match is the answer.
            let placeholder = serde::json::to_string(&self.answer);
            let found = (json.windows(placeholder.len()))
                .position(|w| w == placeholder.as_bytes())
                .zip(placeholder.find("[]"));
            debug_assert!(found.is_some(), "no empty tuple list in {placeholder}");
            if let Some((answer, tuples)) = found {
                let at = answer + tuples;
                let tail = json.split_off(at + "[]".len());
                json.truncate(at);
                rows.write_json(&mut json);
                json.extend_from_slice(&tail);
            }
        }
        json
    }

    /// Complete an [`WireResult::encode_unstamped`] payload with the
    /// `server_micros` stamp and the span block. The result is
    /// byte-identical to encoding the fully populated struct.
    pub(super) fn stamp(json: &mut Vec<u8>, server_micros: u64, trace: Option<&WireTrace>) {
        json.extend_from_slice(b"\"server_micros\":");
        server_micros.write_json(json);
        json.extend_from_slice(b",\"trace\":");
        trace.write_json(json);
        json.push(b'}');
    }
}

/// How an unstamped [`WireResult`] ends: its last two fields, which the
/// reply path overwrites.
const UNSTAMPED_TAIL: &str = "\"server_micros\":0,\"trace\":null}";

/// An enumerated answer as the worker holds it: `rows` answers of
/// `arity` values each, row-major in one buffer (`data.len() == rows ×
/// arity`; a nullary answer still counts its rows). It encodes as the
/// JSON of the same tuples as `Vec<Vec<u64>>` — `[[1,2],[3,4]]` — with
/// no `Vec` per tuple to build or free.
#[derive(Debug, Clone, Copy)]
pub(super) struct FlatRows<'a> {
    pub(super) arity: usize,
    pub(super) rows: usize,
    pub(super) data: &'a [u64],
}

impl Serialize for FlatRows<'_> {
    fn write_json(&self, out: &mut Vec<u8>) {
        debug_assert_eq!(self.data.len(), self.rows * self.arity);
        // Room for the usual row; the buffer still grows if digits run long.
        out.reserve(self.rows * (3 + 7 * self.arity));
        out.push(b'[');
        for i in 0..self.rows {
            if i > 0 {
                out.push(b',');
            }
            out.push(b'[');
            let row = &self.data[i * self.arity..(i + 1) * self.arity];
            for (j, &v) in row.iter().enumerate() {
                if j > 0 {
                    out.push(b',');
                }
                serde::json::write_u64(out, v);
            }
            out.push(b']');
        }
        out.push(b']');
    }
}

/// One phase of a [`WireTrace`] span breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSpan {
    /// Phase name: `queue_wait`, `parse`, `plan`, `materialize`,
    /// `execute`, or `serialize` ([`crate::metrics::Phase::name`]).
    pub phase: String,
    /// Microseconds spent in the phase.
    pub micros: u64,
    /// Optional annotation (e.g. the chosen strategy and cache
    /// provenance on `plan`).
    pub detail: Option<String>,
}

/// The span breakdown attached to a [`WireResult`] when its batch
/// carried `@trace`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTrace {
    /// Sum of the span durations in microseconds. Because the phases
    /// are disjoint, this never exceeds the result's `server_micros`.
    pub total_micros: u64,
    /// The spans, in serve-path order.
    pub spans: Vec<WireSpan>,
}

impl WireTrace {
    /// Encode a recorded [`QueryTrace`]. The total is summed over the
    /// already-truncated per-span microseconds (not truncated from the
    /// exact `Duration` sum), so `total_micros == Σ spans[i].micros`
    /// holds exactly on the wire.
    pub fn from_trace(trace: &QueryTrace) -> WireTrace {
        let spans: Vec<WireSpan> = trace
            .spans()
            .iter()
            .map(|s| WireSpan {
                phase: s.phase.name().to_string(),
                micros: u64::try_from(s.duration.as_micros()).unwrap_or(u64::MAX),
                detail: s.detail.clone(),
            })
            .collect();
        WireTrace {
            total_micros: spans.iter().map(|s| s.micros).sum(),
            spans,
        }
    }
}

/// Payload of a [`crate::server::frame::FrameType::Done`] frame: the
/// batch of `results` answers for `request` is complete.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireDone {
    /// Sequence number of the `Query` frame this answers.
    pub request: u64,
    /// How many `Result` frames were sent for the batch.
    pub results: u64,
    /// Microseconds the whole batch spent inside the server, from
    /// receipt of its `Query` frame to this `Done` being handed to the
    /// socket.
    pub server_micros: u64,
}

/// Payload of a [`crate::server::frame::FrameType::Reloaded`] frame:
/// the catalog published a new snapshot for `db`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireReloaded {
    /// Sequence number of the `Reload` frame this answers.
    pub request: u64,
    /// The reloaded database's name.
    pub db: String,
    /// The new snapshot's epoch (old epoch + 1). Sessions pinned to
    /// older epochs keep answering consistently; new sessions see this
    /// one.
    pub epoch: u64,
    /// Total facts in the new snapshot.
    pub facts: u64,
    /// Number of relations in the new snapshot.
    pub relations: u64,
    /// Microseconds the reload spent inside the server (parse +
    /// statistics + publish).
    pub server_micros: u64,
}

/// Payload of a [`crate::server::frame::FrameType::DeltaApplied`]
/// frame: the catalog merged a delta batch into `db` and published a
/// new epoch by structural sharing (untouched relations are the same
/// `Arc`s as the previous snapshot's).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireDeltaApplied {
    /// Sequence number of the `Delta` frame this answers.
    pub request: u64,
    /// The database the delta was applied to.
    pub db: String,
    /// The new snapshot's epoch (old epoch + 1).
    pub epoch: u64,
    /// Facts actually inserted (inserting an already-present fact is an
    /// uncounted no-op).
    pub inserted: u64,
    /// Facts actually deleted (deleting an absent fact is an uncounted
    /// no-op; deletes win over inserts within one batch).
    pub deleted: u64,
    /// Names of the relations the batch touched, in name order. Every
    /// relation *not* listed here is structurally shared with the
    /// previous epoch.
    pub relations_touched: Vec<String>,
    /// Total facts in the new snapshot.
    pub facts: u64,
    /// Prepared-query cache entries migrated warm across the epoch
    /// (dirty-spine refresh; provenance `warm-overlay`).
    pub prepared_warm: u64,
    /// Always 0: every prepared handle has a bag tree and migrates warm.
    /// The field stays so clients that read it keep decoding the frame.
    pub prepared_reprepared: u64,
    /// Bag-tree nodes re-materialized across all warm migrations (the
    /// dirty spines; every other bag was `Arc`-shared).
    pub bags_remat: u64,
    /// Microseconds the delta spent inside the server (parse + validate
    /// + merge + stats + publish + cache refresh).
    pub server_micros: u64,
}

/// One database in a [`WireCatalog`] description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCatalogDb {
    /// The published name.
    pub name: String,
    /// The current epoch (number of reloads since startup).
    pub epoch: u64,
    /// Total facts in the current snapshot.
    pub facts: u64,
    /// Number of relations in the current snapshot.
    pub relations: u64,
}

/// Payload of a [`crate::server::frame::FrameType::Catalog`] frame:
/// the server's current catalog, one entry per served name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCatalog {
    /// Sequence number of the `CatalogInfo` frame this answers.
    pub request: u64,
    /// Whether this server accepts `Reload` frames (`--allow-reload`).
    pub reload_enabled: bool,
    /// The served databases, in name order.
    pub databases: Vec<WireCatalogDb>,
    /// Microseconds the request spent inside the server.
    pub server_micros: u64,
}

/// Machine-readable error classes of a
/// [`crate::server::frame::FrameType::Error`] frame. An error frame
/// terminates the request it answers (no `Done` follows); whether the
/// *connection* survives depends on the code — see `docs/PROTOCOL.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame's version byte is not this server's protocol version.
    /// Connection is closed.
    Version,
    /// The frame violated the codec (unknown type, oversized payload,
    /// non-UTF-8 text, truncation). Connection is closed.
    BadFrame,
    /// The payload text failed to parse; `line` names the offending
    /// 1-based line. Connection survives.
    Parse,
    /// `Bind` named a database the server does not serve. Connection
    /// survives (the client may bind another name).
    UnknownDb,
    /// `Query` arrived before any successful `Bind`. Connection
    /// survives.
    NotBound,
    /// Backpressure: the server's bounded request queue is full; the
    /// request was rejected *without* being evaluated. Connection
    /// survives — retry later.
    Overloaded,
    /// The server is shutting down and accepts no new work. Connection
    /// is closed after this frame.
    ShuttingDown,
    /// The engine failed internally while evaluating. Connection
    /// survives.
    Internal,
    /// A `Reload` frame arrived but this server was not started with
    /// reloads enabled (`--allow-reload`). Connection survives.
    Unauthorized,
    /// A `Reload` frame named a snapshot file (`@snapshot <path>`) the
    /// server could not use: missing, unreadable, not a snapshot,
    /// version-skewed, or corrupt. The previously published epoch keeps
    /// serving. Connection survives.
    Store,
    /// A `Delta` frame was rejected by the delta kernel (unknown
    /// relation or arity mismatch). Deltas validate wholesale before any
    /// merge, so the previously published epoch keeps serving unchanged.
    /// Connection survives.
    Delta,
}

/// Payload of a [`crate::server::frame::FrameType::Error`] frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Sequence number of the client frame this answers (`None` when
    /// the error is not attributable to one frame, e.g. a truncated
    /// header).
    pub request: Option<u64>,
    /// The machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Parse`]: the offending 1-based line of the
    /// payload text.
    pub line: Option<u64>,
    /// For [`ErrorCode::Overloaded`]: the request queue's depth at
    /// rejection time, so clients can calibrate their retry policy.
    pub queue_depth: Option<u64>,
    /// For [`ErrorCode::Overloaded`]: the queue's configured capacity.
    pub queue_capacity: Option<u64>,
}

/// A latency distribution summary inside a [`WireStats`] report,
/// rendered from a [`crate::metrics::Histogram`] snapshot. All values
/// are microseconds; quantiles carry the histogram's ≤ 1.6% relative
/// error, `max_micros` is exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Median latency.
    pub p50_micros: u64,
    /// 90th-percentile latency.
    pub p90_micros: u64,
    /// 99th-percentile latency.
    pub p99_micros: u64,
    /// Exact maximum latency.
    pub max_micros: u64,
    /// Mean latency.
    pub mean_micros: u64,
}

impl WireHistogram {
    /// Summarize a histogram snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> WireHistogram {
        WireHistogram {
            count: snap.count(),
            p50_micros: snap.p50(),
            p90_micros: snap.p90(),
            p99_micros: snap.p99(),
            max_micros: snap.max(),
            mean_micros: snap.mean(),
        }
    }
}

/// One served database's section of a [`WireStats`] report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireDbStats {
    /// The published name.
    pub name: String,
    /// The catalog's current epoch for the name.
    pub epoch: u64,
    /// Query batches accepted for this database.
    pub batches: u64,
    /// Individual queries answered against this database.
    pub queries: u64,
    /// Errors answered on this database's requests (parse + internal).
    pub errors: u64,
    /// Batches rejected with `Overloaded` while bound to this database.
    pub overloads: u64,
    /// Prepared-query cache hits.
    pub prepared_hits: u64,
    /// Prepared-query cache misses.
    pub prepared_misses: u64,
    /// Bag nodes the memoized reductions of this database's prepared
    /// bag trees had to filter, summed over answered queries (a count
    /// contributes none).
    pub bags_rewritten: u64,
    /// Bag nodes of those trees in total; `rewritten / total` is this
    /// database's reduction sparsity (0 = join-consistent data: no
    /// handle holds a reduced copy of any bag).
    pub bags_total: u64,
    /// Delta batches successfully applied to this database.
    pub delta_batches: u64,
    /// Facts inserted by those deltas (no-op inserts excluded).
    pub facts_inserted: u64,
    /// Facts deleted by those deltas (no-op deletes excluded).
    pub facts_deleted: u64,
    /// Bag-tree nodes re-materialized while migrating this database's
    /// prepared handles warm across delta epochs.
    pub bags_remat: u64,
    /// Per-query server-latency distribution (receipt of the `Query`
    /// frame → the query's `Result` frame handed to the socket).
    pub latency: WireHistogram,
}

/// Payload of a [`crate::server::frame::FrameType::StatsReport`] frame:
/// the server's observability snapshot — lifetime counters, queue
/// gauges, and per-database latency histograms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Sequence number of the `Stats` frame this answers.
    pub request: u64,
    /// Microseconds since the server started serving.
    pub uptime_micros: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Frames received.
    pub frames: u64,
    /// Query batches accepted.
    pub batches: u64,
    /// Individual queries received inside accepted batches.
    pub queries: u64,
    /// Individual queries answered with a `Result` frame.
    pub answered: u64,
    /// Batches rejected with `Overloaded`.
    pub rejected_overload: u64,
    /// `Parse` error frames sent.
    pub parse_errors: u64,
    /// Protocol (`Version` / `BadFrame`) error frames sent.
    pub protocol_errors: u64,
    /// `Internal` error frames sent.
    pub internal_errors: u64,
    /// Prepared-query cache hits (all databases).
    pub prepared_hits: u64,
    /// Prepared-query cache misses (all databases).
    pub prepared_misses: u64,
    /// Successful `Reload` frames.
    pub reloads: u64,
    /// `Reload` frames rejected with `Unauthorized`.
    pub rejected_unauthorized: u64,
    /// `Reload { path }` frames rejected with `Store` (bad snapshot
    /// file; the old epoch kept serving).
    pub store_errors: u64,
    /// Bag nodes filtered by the trees' reductions (all databases).
    pub bags_rewritten: u64,
    /// Bag nodes of those trees in total (all databases).
    pub bags_total: u64,
    /// Successful `Delta` frames (all databases).
    pub delta_batches: u64,
    /// Facts inserted by delta batches (all databases; no-ops excluded).
    pub facts_inserted: u64,
    /// Facts deleted by delta batches (all databases; no-ops excluded).
    pub facts_deleted: u64,
    /// Bag-tree nodes re-materialized by warm prepared-handle
    /// migrations across delta epochs (all databases).
    pub bags_remat: u64,
    /// `Delta` frames rejected with [`ErrorCode::Delta`] (the epoch kept
    /// serving unmoved).
    pub delta_errors: u64,
    /// Jobs in the request queue right now.
    pub queue_depth: u64,
    /// Deepest the request queue has ever been (exact; ≥ 1 once any
    /// batch has been accepted).
    pub queue_high_water: u64,
    /// The request queue's configured capacity.
    pub queue_capacity: u64,
    /// Per-database sections, in name order.
    pub databases: Vec<WireDbStats>,
    /// Microseconds this request spent inside the server.
    pub server_micros: u64,
}

/// Render the workload mode directive for `w` (the inverse of
/// [`crate::textio::parse_queries`]' directive handling) — used by
/// clients that assemble query batches programmatically.
pub fn directive_for(w: Workload) -> String {
    match w {
        Workload::Boolean => "@boolean".to_string(),
        Workload::Count => "@count".to_string(),
        Workload::Enumerate { limit: None } => "@enumerate".to_string(),
        Workload::Enumerate { limit: Some(n) } => format!("@enumerate {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_structs_round_trip_as_json() {
        let result = WireResult {
            request: 3,
            index: 1,
            answer: Answer::Tuples(vec![vec![1, 2], vec![3, 4]]),
            strategy: "ghd-yannakakis".to_string(),
            cache_hit: true,
            prepared_hit: false,
            planning_ns: 0,
            execution_ns: 12_345,
            server_micros: 640,
            trace: Some(WireTrace {
                total_micros: 27,
                spans: vec![
                    WireSpan {
                        phase: "queue_wait".to_string(),
                        micros: 12,
                        detail: None,
                    },
                    WireSpan {
                        phase: "execute".to_string(),
                        micros: 15,
                        detail: Some("ghd-yannakakis".to_string()),
                    },
                ],
            }),
        };
        let json = serde::json::to_string(&result);
        assert_eq!(serde::json::from_str::<WireResult>(&json).unwrap(), result);
        // An untraced result (`trace: null`) round-trips to `None`.
        let plain = WireResult {
            trace: None,
            ..result.clone()
        };
        let json = serde::json::to_string(&plain);
        assert_eq!(serde::json::from_str::<WireResult>(&json).unwrap(), plain);

        let err = WireError {
            request: Some(7),
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
            line: None,
            queue_depth: Some(64),
            queue_capacity: Some(64),
        };
        let json = serde::json::to_string(&err);
        assert!(json.contains("Overloaded"), "{json}");
        assert_eq!(serde::json::from_str::<WireError>(&json).unwrap(), err);

        let big_count = WireResult {
            answer: Answer::Count(u128::from(u64::MAX) + 5),
            ..result
        };
        let json = serde::json::to_string(&big_count);
        assert_eq!(
            serde::json::from_str::<WireResult>(&json).unwrap().answer,
            big_count.answer
        );
    }

    /// The worker encodes a result once, before it knows the stamp, and
    /// appends the last two fields: the bytes on the wire are those of
    /// encoding the whole struct.
    #[test]
    fn a_stamped_payload_is_the_encoding_of_the_whole_struct() {
        let trace = WireTrace {
            total_micros: 27,
            spans: vec![WireSpan {
                phase: "serialize".to_string(),
                micros: 27,
                detail: Some("a \"quoted\" detail".to_string()),
            }],
        };
        for answer in [
            Answer::Bool(true),
            Answer::Count(u128::MAX),
            Answer::Tuples(vec![vec![1, 2], vec![3, 4]]),
        ] {
            for (server_micros, trace) in [(0, None), (640, None), (u64::MAX, Some(trace.clone()))]
            {
                let unstamped = WireResult {
                    request: 3,
                    index: 1,
                    answer: answer.clone(),
                    strategy: "ghd-yannakakis".to_string(),
                    cache_hit: true,
                    prepared_hit: false,
                    planning_ns: 0,
                    execution_ns: 12_345,
                    server_micros: 0,
                    trace: None,
                };
                let mut json = unstamped.encode_unstamped(None);
                assert!(json.ends_with(b"\"execution_ns\":12345,"));
                WireResult::stamp(&mut json, server_micros, trace.as_ref());
                let whole = WireResult {
                    server_micros,
                    trace,
                    ..unstamped
                };
                assert_eq!(json, serde::json::to_string(&whole).into_bytes());
            }
        }
    }

    /// An enumeration drained into one row-major buffer goes on the wire
    /// byte for byte as the derive encodes `Answer::Tuples` of the same
    /// rows: random arity 0–6, 0–50 rows, values at both ends of `u64`,
    /// traced and untraced.
    #[test]
    fn a_flat_answer_encodes_like_its_tuples() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let trace = WireTrace {
            total_micros: 3,
            spans: vec![WireSpan {
                phase: "execute".to_string(),
                micros: 3,
                detail: Some("answer {\"Tuples\":[[]]} in a detail".to_string()),
            }],
        };
        for case in 0..300 {
            let (arity, rows) = ((next() % 7) as usize, (next() % 51) as usize);
            let data: Vec<u64> = (0..rows * arity)
                .map(|_| match next() % 4 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => next() % 1000,
                    _ => next(),
                })
                .collect();
            let tuples: Vec<Vec<u64>> = match arity {
                0 => vec![Vec::new(); rows],
                a => data.chunks_exact(a).map(<[u64]>::to_vec).collect(),
            };
            let traced = (case % 2 == 1).then(|| trace.clone());
            let result = |answer| WireResult {
                request: case,
                index: 2,
                answer,
                // A string holding the placeholder's text is escaped, so
                // it cannot be mistaken for the answer.
                strategy: "naive-join {\"Tuples\":[[]]}".to_string(),
                cache_hit: false,
                prepared_hit: true,
                planning_ns: 7,
                execution_ns: 12_345,
                server_micros: 0,
                trace: None,
            };
            let flat = FlatRows {
                arity,
                rows,
                data: &data,
            };
            let mut json = result(Answer::Tuples(Vec::new())).encode_unstamped(Some(flat));
            WireResult::stamp(&mut json, 640, traced.as_ref());
            let whole = WireResult {
                server_micros: 640,
                trace: traced,
                ..result(Answer::Tuples(tuples))
            };
            assert_eq!(
                String::from_utf8(json).unwrap(),
                serde::json::to_string(&whole),
                "arity {arity}, {rows} rows"
            );
        }
    }

    #[test]
    fn admin_payloads_round_trip_as_json() {
        let reloaded = WireReloaded {
            request: 4,
            db: "main".to_string(),
            epoch: 3,
            facts: 120,
            relations: 2,
            server_micros: 88,
        };
        let json = serde::json::to_string(&reloaded);
        assert_eq!(
            serde::json::from_str::<WireReloaded>(&json).unwrap(),
            reloaded
        );

        let applied = WireDeltaApplied {
            request: 6,
            db: "main".to_string(),
            epoch: 4,
            inserted: 17,
            deleted: 3,
            relations_touched: vec!["R".to_string(), "S".to_string()],
            facts: 134,
            prepared_warm: 2,
            prepared_reprepared: 1,
            bags_remat: 5,
            server_micros: 41,
        };
        let json = serde::json::to_string(&applied);
        assert_eq!(
            serde::json::from_str::<WireDeltaApplied>(&json).unwrap(),
            applied
        );

        let delta_err = WireError {
            request: Some(5),
            code: ErrorCode::Delta,
            message: "delta rejected: unknown relation `Ghost`".to_string(),
            line: None,
            queue_depth: None,
            queue_capacity: None,
        };
        let json = serde::json::to_string(&delta_err);
        assert!(json.contains("Delta"), "{json}");
        assert_eq!(
            serde::json::from_str::<WireError>(&json).unwrap(),
            delta_err
        );

        let catalog = WireCatalog {
            request: 9,
            reload_enabled: true,
            databases: vec![
                WireCatalogDb {
                    name: "aux".to_string(),
                    epoch: 0,
                    facts: 1,
                    relations: 1,
                },
                WireCatalogDb {
                    name: "main".to_string(),
                    epoch: 7,
                    facts: 42,
                    relations: 3,
                },
            ],
            server_micros: 12,
        };
        let json = serde::json::to_string(&catalog);
        assert_eq!(
            serde::json::from_str::<WireCatalog>(&json).unwrap(),
            catalog
        );

        let err = WireError {
            request: Some(2),
            code: ErrorCode::Unauthorized,
            message: "start it with --allow-reload".to_string(),
            line: None,
            queue_depth: None,
            queue_capacity: None,
        };
        let json = serde::json::to_string(&err);
        assert!(json.contains("Unauthorized"), "{json}");
        assert_eq!(serde::json::from_str::<WireError>(&json).unwrap(), err);
    }

    #[test]
    fn stats_report_round_trips_as_json() {
        let hist = crate::metrics::Histogram::new();
        for v in [100u64, 200, 300, 4_000] {
            hist.record(v);
        }
        let latency = WireHistogram::from_snapshot(&hist.snapshot());
        assert_eq!(latency.count, 4);
        assert_eq!(latency.max_micros, 4_000);
        assert!(latency.p50_micros <= latency.p99_micros);

        let stats = WireStats {
            request: 11,
            uptime_micros: 5_000_000,
            connections: 9,
            active_connections: 2,
            frames: 40,
            batches: 12,
            queries: 31,
            answered: 30,
            rejected_overload: 1,
            parse_errors: 0,
            protocol_errors: 0,
            internal_errors: 0,
            prepared_hits: 25,
            prepared_misses: 6,
            reloads: 1,
            rejected_unauthorized: 0,
            store_errors: 0,
            bags_rewritten: 3,
            bags_total: 90,
            delta_batches: 2,
            facts_inserted: 40,
            facts_deleted: 8,
            bags_remat: 4,
            delta_errors: 1,
            queue_depth: 0,
            queue_high_water: 3,
            queue_capacity: 64,
            databases: vec![WireDbStats {
                name: "main".to_string(),
                epoch: 1,
                batches: 12,
                queries: 31,
                errors: 0,
                overloads: 1,
                prepared_hits: 25,
                prepared_misses: 6,
                bags_rewritten: 3,
                bags_total: 90,
                delta_batches: 2,
                facts_inserted: 40,
                facts_deleted: 8,
                bags_remat: 4,
                latency,
            }],
            server_micros: 45,
        };
        let json = serde::json::to_string(&stats);
        assert_eq!(serde::json::from_str::<WireStats>(&json).unwrap(), stats);
    }

    #[test]
    fn directives_render_parseably() {
        for (w, text) in [
            (Workload::Boolean, "@boolean"),
            (Workload::Count, "@count"),
            (Workload::Enumerate { limit: None }, "@enumerate"),
            (Workload::Enumerate { limit: Some(4) }, "@enumerate 4"),
        ] {
            assert_eq!(directive_for(w), text);
            let batch = format!("{text}\nQ: R(?x)\n");
            let parsed = crate::textio::parse_queries(&batch).unwrap();
            assert_eq!(parsed[0].1, Some(w));
        }
    }
}
