//! A blocking client for the `cqd2-serve` wire protocol — what the
//! `cqd2-analyze client` subcommand, the loopback tests, and the
//! concurrent-serving bench drive.
//!
//! One [`Client`] owns one connection. The usual round-trip:
//!
//! ```no_run
//! use cqd2_engine::server::client::Client;
//! use cqd2_engine::Workload;
//!
//! let mut client = Client::connect("127.0.0.1:7878").unwrap();
//! let bound = client.bind_db("main").unwrap();
//! println!("bound to {} ({} facts)", bound.db, bound.facts);
//! let reply = client.request("@count\nQ: R(?x, ?y)\n").unwrap();
//! println!("count = {:?}", reply.results[0].answer.as_count());
//! // Admin round-trips (protocol v2): reload a database in place and
//! // inspect the catalog's epochs.
//! let reloaded = client.reload("main", "R(1, 2)\nR(5, 6)\n").unwrap();
//! println!("`{}` now at epoch {}", reloaded.db, reloaded.epoch);
//! let info = client.catalog_info().unwrap();
//! println!("serving {} database(s)", info.databases.len());
//! ```
//!
//! Errors the *server* signalled arrive as
//! [`ServerError::Rejected`] carrying the typed
//! [`wire::WireError`] (code, message, offending line), so callers can
//! distinguish backpressure (`Overloaded`) from parse errors from
//! shutdown.

use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};

use crate::engine::Workload;
use crate::server::frame::{read_frame, write_frame, Frame, FrameType};
use crate::server::wire::{
    self, WireBound, WireCatalog, WireDeltaApplied, WireDone, WireReloaded, WireResult, WireStats,
};
use crate::server::ServerError;

/// Client-side cap on accepted response payloads (tuples can be big).
const MAX_RESPONSE_LEN: u32 = 256 * 1024 * 1024;

/// All the answers to one `Query` frame.
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// The request sequence number the server answered.
    pub request: u64,
    /// One result per query, in batch order.
    pub results: Vec<WireResult>,
}

/// A blocking connection to a `cqd2-serve` server.
pub struct Client {
    stream: TcpStream,
    seq: u64,
}

impl Client {
    /// Connect. The socket stays blocking (no read timeout): the server
    /// answers every frame, so reads always terminate.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServerError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, seq: 0 })
    }

    /// Bind this connection to the named database. Must precede
    /// [`Client::request`]; may be repeated to switch databases.
    pub fn bind_db(&mut self, name: &str) -> Result<WireBound, ServerError> {
        self.round_trip(FrameType::Bind, name.as_bytes(), FrameType::Bound)
    }

    /// Send a query batch (`Q:` lines + `@…` directives, the
    /// [`crate::textio::parse_queries`] syntax) and collect its answers
    /// until the server's `Done` frame. An error frame — including an
    /// `Overloaded` backpressure rejection — surfaces as
    /// [`ServerError::Rejected`].
    ///
    /// `request` is strictly request-response: it must not be called
    /// while earlier [`Client::send`]-pipelined frames are still
    /// unanswered, because responses to *different* requests may
    /// interleave and this method awaits exactly one request's frames.
    /// A frame correlated to a different request therefore fails
    /// loudly (instead of silently mixing answers across batches);
    /// pipelining callers correlate by [`wire::WireResult::request`]
    /// themselves via [`Client::send`] / [`Client::read`], as the
    /// backpressure tests do.
    pub fn request(&mut self, text: &str) -> Result<BatchReply, ServerError> {
        self.send(FrameType::Query, text.as_bytes())?;
        let request = self.seq;
        // A frame for another request means the caller pipelined.
        let check = |kind: &str, got: u64| {
            if got == request {
                return Ok(());
            }
            Err(ServerError::Decode(format!(
                "{kind} for request {got} while awaiting {request} — use send()/read() \
                 to correlate pipelined requests"
            )))
        };
        let mut results: Vec<WireResult> = Vec::new();
        loop {
            let frame = self.read()?;
            match frame.frame_type {
                FrameType::Result => {
                    let result: WireResult = decode(&frame)?;
                    check("Result", result.request)?;
                    results.push(result);
                }
                FrameType::Done => {
                    check("Done", decode::<WireDone>(&frame)?.request)?;
                    return Ok(BatchReply { request, results });
                }
                FrameType::Error => return Err(ServerError::Rejected(decode(&frame)?)),
                other => return Err(ServerError::UnexpectedFrame(other)),
            }
        }
    }

    /// Single-query convenience: wrap `query_text` (one query body,
    /// e.g. `R(?x, ?y), S(?y, ?z)`) with the directive for `workload`
    /// and return its one result.
    pub fn query(
        &mut self,
        query_text: &str,
        workload: Workload,
    ) -> Result<WireResult, ServerError> {
        let batch = format!("{}\nQ: {}\n", wire::directive_for(workload), query_text);
        let mut reply = self.request(&batch)?;
        reply
            .results
            .pop()
            .ok_or_else(|| ServerError::Decode("empty batch reply".to_string()))
    }

    /// Hot-reload the named database with `facts` (a facts-only
    /// database text): a protocol-v2 `Reload` admin frame. Requires the
    /// server to run with `--allow-reload`; otherwise the typed
    /// `Unauthorized` rejection surfaces as [`ServerError::Rejected`],
    /// as do `UnknownDb` (name not served) and `Parse` (bad facts,
    /// `line` naming the payload line) rejections.
    ///
    /// On success the returned [`WireReloaded`] carries the new
    /// epoch: in-flight batches keep answering against the snapshot
    /// they pinned; queries accepted after this point observe the new
    /// data.
    pub fn reload(&mut self, name: &str, facts: &str) -> Result<WireReloaded, ServerError> {
        let payload = format!("{name}\n{facts}");
        self.round_trip(FrameType::Reload, payload.as_bytes(), FrameType::Reloaded)
    }

    /// Apply an incremental delta batch to the named database: a
    /// protocol-v2 `Delta` admin frame whose payload is the database
    /// name followed by a delta script — `@insert` / `@delete` section
    /// directives and fact lines, the [`crate::textio::parse_delta`]
    /// syntax. Unlike [`Client::reload`], only the touched relations
    /// are rebuilt server-side: everything else is structurally shared
    /// into the new epoch, and warm prepared handles are migrated
    /// across it instead of purged.
    ///
    /// Requires the server to run with `--allow-reload`. A malformed
    /// script surfaces as a typed `Parse` rejection and a batch the
    /// delta kernel refuses (unknown relation, arity mismatch) as a
    /// typed `Delta` rejection — in both cases the previously published
    /// epoch keeps serving unmoved.
    pub fn delta(&mut self, name: &str, script: &str) -> Result<WireDeltaApplied, ServerError> {
        let payload = format!("{name}\n{script}");
        self.round_trip(
            FrameType::Delta,
            payload.as_bytes(),
            FrameType::DeltaApplied,
        )
    }

    /// Hot-reload the named database from a **server-local** snapshot
    /// file (`.cqds`, see [`crate::store`]): a protocol-v2 `Reload`
    /// admin frame whose payload names a path instead of carrying
    /// facts. The path is resolved by the server process — nothing is
    /// uploaded. A missing, corrupt, or version-skewed file surfaces as
    /// a typed `Store` rejection ([`ServerError::Rejected`]) and the
    /// previously published epoch keeps serving.
    pub fn reload_snapshot(&mut self, name: &str, path: &str) -> Result<WireReloaded, ServerError> {
        self.reload(name, &format!("@snapshot {path}"))
    }

    /// Describe the server's catalog (served names, epochs, sizes, and
    /// whether reloads are enabled): a protocol-v2 `CatalogInfo` admin
    /// frame.
    pub fn catalog_info(&mut self) -> Result<WireCatalog, ServerError> {
        self.round_trip(FrameType::CatalogInfo, b"", FrameType::Catalog)
    }

    /// Fetch the server's metrics snapshot — lifetime counters, live
    /// queue/connection gauges, and per-database latency histograms: a
    /// protocol-v2 `Stats` admin frame (always authorized; stats are
    /// read-only).
    pub fn stats(&mut self) -> Result<WireStats, ServerError> {
        self.round_trip(FrameType::Stats, b"", FrameType::StatsReport)
    }

    /// One single-frame exchange: send `payload` as a `send` frame and
    /// decode the answer — an `expect` frame is the typed reply, an
    /// `Error` frame a [`ServerError::Rejected`], anything else
    /// [`ServerError::UnexpectedFrame`].
    fn round_trip<T: serde::Deserialize>(
        &mut self,
        send: FrameType,
        payload: &[u8],
        expect: FrameType,
    ) -> Result<T, ServerError> {
        self.send(send, payload)?;
        let frame = self.read()?;
        match frame.frame_type {
            t if t == expect => decode(&frame),
            FrameType::Error => Err(ServerError::Rejected(decode(&frame)?)),
            other => Err(ServerError::UnexpectedFrame(other)),
        }
    }

    /// The sequence number of the most recent frame sent.
    pub fn last_request(&self) -> u64 {
        self.seq
    }

    /// Send a raw frame without awaiting a response (pipelining; the
    /// loopback tests also use this to probe protocol edges).
    pub fn send(&mut self, frame_type: FrameType, payload: &[u8]) -> Result<(), ServerError> {
        write_frame(&mut self.stream, frame_type, payload)?;
        self.stream.flush()?;
        self.seq += 1;
        Ok(())
    }

    /// Read the next frame (blocking).
    pub fn read(&mut self) -> Result<Frame, ServerError> {
        Ok(read_frame(&mut self.stream, MAX_RESPONSE_LEN)?)
    }
}

/// How much of an undecodable payload a [`ServerError::Decode`] quotes.
const DECODE_QUOTE_LEN: usize = 120;

/// Decode a JSON frame payload. A payload that does not decode is
/// quoted by its head and its length — a reply may be hundreds of
/// megabytes, the error about it must not be.
fn decode<T: serde::Deserialize>(frame: &Frame) -> Result<T, ServerError> {
    let text = frame.text()?;
    serde::json::from_str(text).map_err(|e| {
        let mut end = text.len().min(DECODE_QUOTE_LEN);
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let cut = if end < text.len() { "…" } else { "" };
        let (head, len) = (&text[..end], text.len());
        ServerError::Decode(format!("{e} in `{head}{cut}` ({len} bytes)"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_decode_error_quotes_the_head_of_the_payload_not_all_of_it() {
        let frame = |payload: String| Frame {
            frame_type: FrameType::Result,
            payload: payload.into_bytes(),
        };
        // 1 MB of rows, then the defect; multi-byte text straddling the cut.
        let head = format!(
            "{{\"request\":1,\"strategy\":\"{}\",\"rows\":[",
            "é".repeat(60)
        );
        let body = format!("{head}{}", "[1,2],".repeat(1 << 18));
        let len = body.len();
        assert!(len > 1 << 20);
        let Err(ServerError::Decode(msg)) = decode::<WireResult>(&frame(body)) else {
            panic!("a truncated payload decoded");
        };
        assert!(msg.len() < 300, "{} bytes", msg.len());
        assert!(msg.starts_with("serde: "), "{msg}");
        let quoted = &head[..119];
        assert!(
            msg.contains(&format!(" in `{quoted}…` ({len} bytes)")),
            "{msg}"
        );
        // A short payload is quoted whole.
        let Err(ServerError::Decode(msg)) = decode::<WireDone>(&frame("{\"request\":1}".into()))
        else {
            panic!("an incomplete payload decoded");
        };
        assert_eq!(
            msg,
            "serde: missing field `results` of WireDone in `{\"request\":1}` (13 bytes)"
        );
    }
}
