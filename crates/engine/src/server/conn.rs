//! The connection side: one reader thread per socket decodes frames,
//! answers `Bind` and enqueues `Query` batches itself, and hands the
//! admin frames to [`super::admin`]. Every answer — from this thread or
//! from the worker running the batch — leaves through the request's
//! [`Reply`], which is also the one place an error frame is built and
//! counted.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cqd2_cq::sync::lock_or_poison;

use crate::catalog::{Catalog, DatabaseSnapshot};
use crate::engine::{Engine, Workload};
use crate::error::EngineError;
use crate::textio;

use super::frame::{self, Frame, FrameError, FrameReader, FrameType, PollError, ReadEvent};
use super::queue::{JobQueue, PushError};
use super::stats::{ServedDb, ServerMetrics};
use super::wire::{ErrorCode, WireBound, WireError};
use super::worker::{Job, QueryItem};
use super::{admin, micros, ServerConfig};

/// The write half of a connection, shared between its reader thread and
/// the workers answering its batches. The mutex keeps frames atomic on
/// the wire; `pending` counts batches accepted but not yet fully
/// answered, so shutdown can drain before closing.
pub(super) struct ConnWriter {
    stream: Mutex<TcpStream>,
    pending: AtomicU64,
}

impl ConnWriter {
    pub(super) fn new(stream: TcpStream) -> Arc<ConnWriter> {
        Arc::new(ConnWriter {
            stream: Mutex::new(stream),
            pending: AtomicU64::new(0),
        })
    }

    /// Send an encoded JSON payload as one frame — straight from the
    /// encoder's buffer to the socket, under the frame lock.
    fn send(&self, frame_type: FrameType, json: &[u8]) -> io::Result<()> {
        let mut stream = lock_or_poison(&self.stream);
        frame::write_frame(&mut *stream, frame_type, json)
    }
}

/// Everything a connection thread needs, borrowed from
/// [`super::Server::run`]'s stack (all threads are scoped, so plain
/// references suffice).
#[derive(Clone, Copy)]
pub(super) struct ConnCtx<'e> {
    pub(super) engine: &'e Engine,
    pub(super) catalog: &'e Catalog,
    pub(super) queue: &'e JobQueue<Job<'e>>,
    pub(super) config: &'e ServerConfig,
    pub(super) shutdown: &'e AtomicBool,
    /// The registry, which is also the list of served databases.
    pub(super) metrics: &'e ServerMetrics,
}

/// `(facts, relations, epoch)` of a snapshot — how `Bound`, `Reloaded`
/// and `Catalog` frames all describe a database.
pub(super) fn shape(snapshot: &DatabaseSnapshot) -> (u64, u64, u64) {
    let db = snapshot.db();
    (
        db.size() as u64,
        db.relations().count() as u64,
        snapshot.epoch(),
    )
}

/// The reply path of one client frame: where to write, which request is
/// being answered, since when, and for which database. Success frames
/// leave through [`Reply::ok`] and every error frame through
/// [`Reply::reject`], which also owns the accounting — which counter an
/// error bumps is a function of its [`ErrorCode`] and of whether a
/// database is in scope, nothing else.
pub(super) struct Reply<'e> {
    pub(super) ctx: ConnCtx<'e>,
    writer: Arc<ConnWriter>,
    /// The frame's 1-based sequence number; `None` for an error no frame
    /// asked for (a broken header, the shutdown goodbye).
    seq: Option<u64>,
    /// The zero point of every `server_micros` this request reports.
    received_at: Instant,
    /// The database in scope: the connection's bound one, until an admin
    /// frame names its own target ([`Reply::for_db`]).
    pub(super) db: Option<&'e ServedDb>,
    /// Set while this request is an accepted batch
    /// ([`Reply::begin_batch`]).
    in_flight: Option<InFlight>,
}

/// One accepted-but-unanswered batch in its connection's `pending`
/// count. The decrement lives in `Drop`, so no way of ending a batch —
/// `Done`, an error frame, a vanished client, a refused push, a panic —
/// can skip it and leave shutdown waiting out `drain_timeout`. (Its own
/// type, not `Drop for Reply`: a reply path borrows the queue its job
/// sits in, which a destructor on it would forbid.)
struct InFlight(Arc<ConnWriter>);

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<'e> Reply<'e> {
    /// The reply path for a frame received now.
    pub(super) fn new(
        ctx: ConnCtx<'e>,
        writer: &Arc<ConnWriter>,
        seq: Option<u64>,
        db: Option<&'e ServedDb>,
    ) -> Reply<'e> {
        Reply {
            ctx,
            writer: Arc::clone(writer),
            seq,
            received_at: Instant::now(),
            db,
            in_flight: None,
        }
    }

    /// The same reply path with `db` in scope.
    pub(super) fn for_db(mut self, db: &'e ServedDb) -> Reply<'e> {
        self.db = Some(db);
        self
    }

    /// The request number success payloads carry.
    pub(super) fn request(&self) -> u64 {
        self.seq.unwrap_or_default()
    }

    /// Count this request as an in-flight batch of its connection until
    /// the reply path is dropped — after the batch's last frame, however
    /// the batch ends — so shutdown drains it before saying goodbye.
    pub(super) fn begin_batch(&mut self) {
        self.writer.pending.fetch_add(1, Ordering::SeqCst);
        self.in_flight = Some(InFlight(Arc::clone(&self.writer)));
    }

    /// Send a success frame. `payload` is built from the request number
    /// and the `server_micros` stamp (receipt of the frame → now), then
    /// encoded.
    pub(super) fn ok<T: serde::Serialize>(
        &self,
        frame_type: FrameType,
        payload: impl FnOnce(u64, u64) -> T,
    ) -> io::Result<()> {
        self.ok_encoded(frame_type, |server_micros| {
            serde::json::to_string(&payload(self.request(), server_micros)).into_bytes()
        })
    }

    /// [`Reply::ok`] for a payload its caller encodes: `json` gets the
    /// `server_micros` stamp and returns the frame's JSON bytes (a worker
    /// completes an already encoded `Result` with it).
    pub(super) fn ok_encoded(
        &self,
        frame_type: FrameType,
        json: impl FnOnce(u64) -> Vec<u8>,
    ) -> io::Result<()> {
        let json = json(micros(self.received_at.elapsed()));
        self.writer.send(frame_type, &json)
    }

    /// The frame's payload as text; a non-UTF-8 payload is rejected here.
    pub(super) fn text_or_reject<'f>(&self, f: &'f Frame) -> Option<&'f str> {
        let reject = |e: FrameError| self.reject(ErrorCode::BadFrame, e.to_string(), None);
        f.text().map_err(reject).ok()
    }

    /// Send a typed error frame and bump the counters its code owns: a
    /// server-wide one and, when a database is in scope, that database's.
    /// An `Overloaded` frame also carries the live queue picture, so
    /// clients can make an informed backoff decision.
    pub(super) fn reject(&self, code: ErrorCode, message: impl Into<String>, line: Option<u64>) {
        let totals = &self.ctx.metrics.totals;
        let db = self.db.map(|db| &db.metrics);
        let (total, per_db) = match code {
            ErrorCode::Version | ErrorCode::BadFrame => (Some(&totals.protocol_errors), None),
            ErrorCode::Parse => (Some(&totals.parse_errors), db.map(|m| &m.errors)),
            ErrorCode::Internal => (Some(&totals.internal_errors), db.map(|m| &m.errors)),
            ErrorCode::Store => (Some(&totals.store_errors), db.map(|m| &m.errors)),
            ErrorCode::Delta => (Some(&totals.delta_errors), db.map(|m| &m.errors)),
            ErrorCode::Overloaded => (Some(&totals.rejected_overload), db.map(|m| &m.overloads)),
            ErrorCode::Unauthorized => (Some(&totals.rejected_unauthorized), None),
            ErrorCode::UnknownDb | ErrorCode::NotBound | ErrorCode::ShuttingDown => (None, None),
        };
        for counter in total.into_iter().chain(per_db) {
            counter.inc();
        }
        let queue = (code == ErrorCode::Overloaded).then_some(self.ctx.queue);
        let error = WireError {
            request: self.seq,
            code,
            message: message.into(),
            line,
            queue_depth: queue.map(|q| q.len() as u64),
            queue_capacity: queue.map(|q| q.capacity() as u64),
        };
        let _ = self
            .writer
            .send(FrameType::Error, serde::json::to_string(&error).as_bytes());
    }

    /// Reject a failed `Reload` / `Delta` with the code its
    /// [`EngineError`] maps to. Every arm leaves the previously
    /// published epoch serving unmoved.
    pub(super) fn reject_engine(&self, err: &EngineError) {
        match err {
            // The facts / delta script start on payload line 2 (after
            // the name line); report payload-relative lines.
            EngineError::Parse(e) => self.reject(
                ErrorCode::Parse,
                e.message.clone(),
                e.line.map(|l| l as u64 + 1),
            ),
            // A bad snapshot file is the operator's problem, not the
            // server's.
            EngineError::Store(e) => self.reject(ErrorCode::Store, e.to_string(), None),
            // The delta kernel validated the whole batch and refused it
            // (unknown relation / arity mismatch) before merging anything.
            EngineError::Delta(e) => {
                self.reject(ErrorCode::Delta, format!("delta rejected: {e}"), None)
            }
            e => self.reject(ErrorCode::Internal, e.to_string(), None),
        }
    }
}

/// Decrements the active-connections gauge when a connection thread
/// exits, whichever of `conn_loop`'s many return paths it takes.
struct ActiveConnGuard<'e>(&'e crate::metrics::Gauge);

impl Drop for ActiveConnGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

pub(super) fn conn_loop(ctx: ConnCtx<'_>, stream: TcpStream) {
    ctx.metrics.active_connections.inc();
    let _active = ActiveConnGuard(&ctx.metrics.active_connections);
    if stream
        .set_read_timeout(Some(ctx.config.poll_interval))
        .is_err()
    {
        return;
    }
    // Result frames are small and latency-sensitive; don't let Nagle
    // batch them against the client's next read.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone().map(ConnWriter::new) else {
        return;
    };
    let mut stream = stream;
    let mut reader = FrameReader::new(ctx.config.max_frame_len);
    let mut seq: u64 = 0;
    let mut bound: Option<&ServedDb> = None;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            drain_then_goodbye(ctx, &writer);
            return;
        }
        match reader.poll(&mut stream) {
            Ok(ReadEvent::Idle) => continue,
            Ok(ReadEvent::Closed) => return,
            Ok(ReadEvent::Frame(f)) => {
                seq += 1;
                ctx.metrics.totals.frames.inc();
                let reply = Reply::new(ctx, &writer, Some(seq), bound);
                match f.frame_type {
                    FrameType::Bind => bound = handle_bind(reply, &f).or(bound),
                    FrameType::Query => {
                        if !handle_query(reply, &f) {
                            return;
                        }
                    }
                    FrameType::Reload => admin::handle_reload(reply, &f),
                    FrameType::Delta => admin::handle_delta(reply, &f),
                    FrameType::CatalogInfo => admin::handle_catalog_info(reply, &f),
                    FrameType::Stats => admin::handle_stats(reply, &f),
                    // Server→client frame types are never valid inbound.
                    FrameType::Bound
                    | FrameType::Result
                    | FrameType::Done
                    | FrameType::Reloaded
                    | FrameType::Catalog
                    | FrameType::StatsReport
                    | FrameType::DeltaApplied
                    | FrameType::Error => {
                        let message = format!("{:?} frames are server→client only", f.frame_type);
                        reply.reject(ErrorCode::BadFrame, message, None);
                        return;
                    }
                }
            }
            Err(PollError::Frame(e)) => {
                let code = match e {
                    FrameError::Version(_) => ErrorCode::Version,
                    _ => ErrorCode::BadFrame,
                };
                Reply::new(ctx, &writer, None, bound).reject(code, e.to_string(), None);
                return;
            }
            Err(PollError::Io(_)) => return,
        }
    }
}

/// Answer a `Bind` frame. Returns the newly bound database, or `None`
/// if the bind failed (the connection keeps any previous bind).
fn handle_bind<'e>(reply: Reply<'e>, f: &Frame) -> Option<&'e ServedDb> {
    let ctx = reply.ctx;
    let name = reply.text_or_reject(f)?.trim();
    let (Some(db), Some(snapshot)) = (ctx.metrics.served(name), ctx.catalog.get(name)) else {
        reply.reject(ErrorCode::UnknownDb, ctx.metrics.unknown_db(name), None);
        return None;
    };
    let (facts, relations, epoch) = shape(&snapshot);
    let _ = reply.ok(FrameType::Bound, |request, server_micros| WireBound {
        request,
        db: name.to_string(),
        facts,
        relations,
        epoch,
        server_micros,
    });
    Some(db)
}

/// Answer a `Query` frame: parse, pin the current snapshot, then
/// enqueue (or reject). Returns `false` when the connection must close
/// (shutdown).
fn handle_query(mut reply: Reply<'_>, f: &Frame) -> bool {
    let ctx = reply.ctx;
    let Some(db) = reply.db else {
        let message = "no database bound — send a Bind frame first";
        reply.reject(ErrorCode::NotBound, message, None);
        return true;
    };
    let Some(text) = reply.text_or_reject(f) else {
        return true;
    };
    let parse_started = Instant::now();
    let batch = match textio::parse_query_batch(text) {
        Ok(b) => b,
        Err(e) => {
            reply.reject(ErrorCode::Parse, e.message, e.line.map(|l| l as u64));
            return true;
        }
    };
    let parse = parse_started.elapsed();
    // Pin the catalog's current snapshot *now*: the batch executes
    // against exactly this epoch no matter how many reloads land while
    // it waits in the queue or streams its results.
    let session = match ctx.engine.session_in(ctx.catalog, &db.name) {
        Ok(s) => s,
        Err(e) => {
            // Unreachable while names never leave the catalog, but keep
            // it a typed frame rather than a panic.
            reply.reject(ErrorCode::UnknownDb, e.to_string(), None);
            return true;
        }
    };
    let items: Vec<QueryItem> = batch
        .queries
        .into_iter()
        .map(|(query, mode)| QueryItem {
            key: query.display(),
            query,
            workload: mode.unwrap_or(Workload::Boolean),
        })
        .collect();
    let n_queries = items.len() as u64;
    reply.begin_batch();
    let job = Job {
        session,
        db,
        reply,
        items,
        enqueued_at: Instant::now(),
        parse,
        trace: batch.trace,
    };
    match ctx.queue.try_push(job) {
        Ok(()) => {
            ctx.metrics.totals.queries.add(n_queries);
            db.metrics.batches.inc();
            true
        }
        Err(PushError::Full(job)) => {
            let message = format!(
                "request queue full ({} pending batches) — retry later",
                ctx.config.queue_capacity
            );
            job.reply.reject(ErrorCode::Overloaded, message, None);
            true
        }
        Err(PushError::Closed(job)) => {
            let message = "server is shutting down";
            job.reply.reject(ErrorCode::ShuttingDown, message, None);
            false
        }
    }
}

/// At shutdown, wait (bounded) for this connection's accepted batches
/// to be fully answered, then send `ShuttingDown` and close.
fn drain_then_goodbye(ctx: ConnCtx<'_>, writer: &Arc<ConnWriter>) {
    let deadline = Instant::now() + ctx.config.drain_timeout;
    while writer.pending.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(ctx.config.poll_interval);
    }
    let message = "server shutting down";
    Reply::new(ctx, writer, None, None).reject(ErrorCode::ShuttingDown, message, None);
}
