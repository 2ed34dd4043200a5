//! The worker side: the pool drains the bounded queue of accepted
//! batches, resolving (or preparing) each query's warm handle and
//! streaming `Result` frames through the batch's [`Reply`]. An answer
//! is moved, not copied, from the run onto its wire struct and encoded
//! exactly once, traced or not. An enumeration never becomes a
//! `Vec<Vec<u64>>` here: the run drains it into one row buffer the batch
//! reuses from query to query, and the encoder writes those rows into
//! the payload — no `Vec` is allocated or freed per answer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cqd2_cq::sync::lock_or_poison;
use cqd2_cq::ConjunctiveQuery;

use crate::engine::Workload;
use crate::metrics::{Phase, QueryTrace};
use crate::session::Session;

use super::conn::Reply;
use super::frame::FrameType;
use super::queue::JobQueue;
use super::stats::ServedDb;
use super::wire::{ErrorCode, FlatRows, WireDone, WireResult, WireTrace};

/// One query of a batch, ready to execute.
pub(super) struct QueryItem {
    pub(super) query: ConjunctiveQuery,
    /// Prepared-cache key: the query's canonical rendering, computed on
    /// the connection thread — a prepared-cache hit then never touches
    /// the query itself from the worker's core.
    pub(super) key: String,
    pub(super) workload: Workload,
}

/// One accepted `Query` frame: the batch, the owned session pinning the
/// snapshot it runs against, where to answer — plus the observability
/// context (enqueue timestamp, the already-measured parse span, and
/// whether the client asked for trace spans).
pub(super) struct Job<'e> {
    /// Owned session pinning the catalog snapshot that was current when
    /// the batch was accepted — a concurrent reload cannot change what
    /// this batch answers.
    pub(super) session: Session,
    /// The bound database: its prepared cache and counters.
    pub(super) db: &'e ServedDb,
    /// Where the batch answers; dropping it (with the job) ends the
    /// connection's in-flight count for this batch.
    pub(super) reply: Reply<'e>,
    pub(super) items: Vec<QueryItem>,
    /// When the batch was accepted onto the queue (queue-wait span).
    pub(super) enqueued_at: Instant,
    /// Time the connection thread spent parsing the batch text.
    pub(super) parse: Duration,
    /// Whether the batch carried `@trace`: attach a span breakdown to
    /// every `Result` frame.
    pub(super) trace: bool,
}

pub(super) fn worker_loop(queue: &JobQueue<Job<'_>>) {
    while let Some(job) = queue.pop() {
        execute_job(job);
    }
}

/// Execute one accepted batch: resolve (or prepare) each query's warm
/// handle against the batch's pinned epoch, run it, frame the answer.
/// Any error frame terminates the batch (no `Done` follows), matching
/// the protocol's "error ends the request" rule.
///
/// Observability: every answered query stamps `server_micros` (receipt
/// of the `Query` frame → the encoded result handed to the socket) and
/// records it into the database's latency histogram; when the batch
/// carried `@trace`, a [`QueryTrace`] is assembled per query from
/// disjoint phase sub-intervals (so the span sum never exceeds
/// `server_micros`) and appended to the `Result` payload.
fn execute_job(job: Job<'_>) {
    let (reply, cache, db_metrics) = (&job.reply, &job.db.prepared, &job.db.metrics);
    let queue_wait = job.enqueued_at.elapsed();
    let epoch = job.session.epoch();
    let mut results = 0u64;
    // Every enumeration of the batch drains into this one row-major
    // buffer (`execute`), which the encoder then reads (`serialize`).
    let mut rows: Vec<u64> = Vec::new();
    for (index, item) in job.items.iter().enumerate() {
        let workload = item.workload;
        let cached = lock_or_poison(cache).get(&item.key, epoch);
        let (prepared, prepared_hit) = match cached {
            Some(p) => (p, true),
            None => {
                // Prepare outside the cache lock: planning and bag
                // materialization are the expensive part, and other
                // workers must stay free to hit the cache meanwhile. A
                // concurrent duplicate prepare is possible and benign
                // (the cache keeps the newest epoch). The handle is
                // prepared on the *pinned* session, so even a reload
                // racing this prepare cannot mix epochs within the
                // batch.
                match job.session.prepare(&item.query) {
                    Ok(p) => {
                        let p = Arc::new(p);
                        lock_or_poison(cache).insert(item.key.clone(), Arc::clone(&p));
                        (p, false)
                    }
                    Err(e) => {
                        let message = format!("query {index}: {e}");
                        return reply.reject(ErrorCode::Internal, message, None);
                    }
                }
            }
        };
        if prepared_hit {
            db_metrics.prepared_hits.inc();
        } else {
            db_metrics.prepared_misses.inc();
        }
        // Assemble the trace (batch-level phases first) only when the
        // client asked; the latency histograms are fed either way.
        let mut trace = job.trace.then(QueryTrace::new);
        if let Some(t) = trace.as_mut() {
            t.record(Phase::QueueWait, queue_wait);
            t.record(Phase::Parse, job.parse);
            let provenance = format!(
                "{} ({} | cache {} | prepared {})",
                prepared.plan(workload).plan.strategy(),
                workload.name(),
                if prepared.cache_hit() { "hit" } else { "miss" },
                if prepared_hit { "hit" } else { "miss" },
            );
            // Planning and materialization were paid at prepare time:
            // they belong to this request only on a prepared-cache miss.
            let (plan, materialize) = if prepared_hit {
                (Duration::ZERO, Duration::ZERO)
            } else {
                (prepared.planning_time(), prepared.preprocessing_time())
            };
            t.record_with(Phase::Plan, plan, provenance);
            t.record(Phase::Materialize, materialize);
        }
        rows.clear();
        let enumerate = matches!(workload, Workload::Enumerate { .. });
        let (mut resp, drained) =
            prepared.run_rows(workload, enumerate.then_some(&mut rows), trace.as_mut());
        // Planning is paid at prepare time, so it belongs to this reply
        // only when this request prepared the handle.
        if !prepared_hit {
            resp.provenance.planning = prepared.planning_time();
        }
        // Reduction-sparsity accounting: how much of the prepared bag
        // tree the reduction behind this answer had to filter (0
        // rewritten = no semijoin dropped a row, which is what a count
        // always reports).
        let pass = &resp.provenance.bags;
        db_metrics.bags_rewritten.add(pass.rewritten as u64);
        db_metrics.bags_total.add(pass.total as u64);
        // The one encode of this frame: everything but the two fields
        // only the send can know. It is the `serialize` span; the reply
        // path stamps `server_micros` after it (all phases are then
        // completed sub-intervals of it) and appends the span block.
        let ser_start = Instant::now();
        let flat = enumerate.then(|| FlatRows {
            arity: prepared.query().num_vars(),
            rows: drained,
            data: &rows,
        });
        let mut json = WireResult::from_response(reply.request(), index as u64, prepared_hit, resp)
            .encode_unstamped(flat);
        if let Some(t) = trace.as_mut() {
            t.record(Phase::Serialize, ser_start.elapsed());
        }
        let sent = reply.ok_encoded(FrameType::Result, |server_micros| {
            db_metrics.latency.record(server_micros);
            let trace = trace.as_ref().map(WireTrace::from_trace);
            WireResult::stamp(&mut json, server_micros, trace.as_ref());
            json
        });
        if sent.is_err() {
            // Client went away; drop the rest of the batch.
            return;
        }
        results += 1;
        db_metrics.queries.inc();
    }
    let _ = reply.ok(FrameType::Done, |request, server_micros| WireDone {
        request,
        results,
        server_micros,
    });
}
