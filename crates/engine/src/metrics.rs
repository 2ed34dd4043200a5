//! Zero-dependency observability primitives: lock-free counters and
//! gauges, a log-linear latency [`Histogram`], and the per-query
//! [`QueryTrace`] span recorder.
//!
//! Everything here is built on `std::sync::atomic` only — no external
//! crates, consistent with the repository's vendored offline build —
//! and is cheap enough to leave permanently enabled on the hot path
//! (the benchmark ledger's `metrics.trace_overhead_pct` prices a traced
//! request against an untraced one, end to end).
//!
//! # Histogram design
//!
//! [`Histogram`] uses **log-linear bucketing** (the HdrHistogram /
//! DDSketch family): values below 64 get one bucket each (exact), and
//! every power-of-two octave above that is split into 64 linear
//! sub-buckets. The bucket width within an octave `[2^e, 2^(e+1))` is
//! `2^(e-6)`, so the relative quantile error is bounded by
//! `1/64 ≈ 1.6%` — within the ~2% budget — from a fixed array of 3776
//! `AtomicU64` slots covering the full `u64` range. Recording is one
//! `leading_zeros`, two shifts, and three `fetch_add`s; there is no
//! locking anywhere, so concurrent recorders never serialize and no
//! count is ever lost.
//!
//! Readers take a [`Snapshot`], which is a plain owned value: it can be
//! [merged](Snapshot::merge) with snapshots of other histograms (e.g.
//! per-database latency merged into a server-wide view) and queried for
//! [`quantile`](Snapshot::quantile), mean, and exact max.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS = 64` linear buckets, bounding relative error by 1/64.
const SUB_BITS: u32 = 6;
/// Number of exact single-value buckets at the bottom (`0..64`).
const LINEAR: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`:
/// 64 exact buckets + 58 octaves × 64 sub-buckets.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A monotonically increasing lock-free event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free gauge that remembers its **high-water mark**: the
/// largest value it has ever held, updated with `fetch_max` so
/// concurrent writers cannot lose a peak.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
            high: AtomicU64::new(0),
        }
    }

    /// Increments the gauge and folds the new value into the
    /// high-water mark.
    pub fn inc(&self) {
        let now = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.high.fetch_max(now, Ordering::Relaxed);
    }

    /// Decrements the gauge. Saturates at zero rather than wrapping if
    /// a racing reader has already observed the decrement.
    pub fn dec(&self) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Sets the gauge to an absolute value, folding it into the
    /// high-water mark.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever held.
    pub fn high_water(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }
}

/// Maps a value to its log-linear bucket index. Total mapping is
/// monotone and covers all of `u64` in [`BUCKETS`] slots.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // 6..=63
        let sub = (v >> (e - SUB_BITS)) - LINEAR; // top SUB_BITS after the leading 1
        (((e - SUB_BITS + 1) as u64) << SUB_BITS) as usize + sub as usize
    }
}

/// Inclusive lower bound of a bucket (inverse of [`bucket_index`]).
fn bucket_floor(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR {
        i
    } else {
        let e = (i >> SUB_BITS) + SUB_BITS as u64 - 1;
        let sub = i & (LINEAR - 1);
        (LINEAR + sub) << (e - SUB_BITS as u64)
    }
}

/// Width of a bucket in value units.
fn bucket_width(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR {
        1
    } else {
        1 << ((i >> SUB_BITS) - 1)
    }
}

/// A fixed-size, lock-free log-linear histogram of `u64` samples
/// (typically latencies in microseconds).
///
/// ~30 KiB of `AtomicU64` buckets; ≤ 1.6% relative quantile error;
/// recording never locks or allocates. See the module docs for the
/// bucketing scheme.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array through a Vec
        // to keep the (large) array off the stack.
        let buckets: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            // cqd2-lint: allow(panic-in-hot-path, reason = "construction-time only (not per request) and the vec length is BUCKETS by the range above")
            .unwrap_or_else(|_| unreachable!("vec length is BUCKETS by construction"));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: safe to call from any number of
    /// threads concurrently without losing counts.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as whole microseconds (saturating at
    /// `u64::MAX` µs ≈ 584 thousand years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes an owned, mergeable snapshot of the current state.
    ///
    /// The snapshot is internally consistent per bucket but, under
    /// concurrent recording, `count`/`sum` may trail the bucket array
    /// by in-flight samples; quantiles are computed from the buckets
    /// themselves so they never see a torn rank.
    pub fn snapshot(&self) -> Snapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Snapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned point-in-time copy of a [`Histogram`], supporting quantile
/// readout and merging with snapshots of other histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::empty()
    }
}

impl Snapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Snapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Total samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact largest sample recorded (not bucket-quantized).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the midpoint of the bucket
    /// holding that rank, clamped to the exact recorded max. Relative
    /// error is bounded by half a bucket width (≤ 0.8%). Returns zero
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target == self.count {
            return self.max; // the last rank is the exact recorded max
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let mid = bucket_floor(i) + bucket_width(i) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile shorthand.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot into this one (bucket-wise sum, exact
    /// max of maxes). Merging per-database snapshots yields the
    /// server-wide distribution.
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// The serve-path phases a [`QueryTrace`] splits a request into.
///
/// Each phase is a **disjoint sub-interval** of the request's total
/// server residency, so the sum of span durations never exceeds the
/// `server_micros` stamped on the wire response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// From batch enqueue to a worker dequeuing it.
    QueueWait,
    /// Parsing the query-batch text into conjunctive queries.
    Parse,
    /// Planning: hypergraph analysis and strategy selection (zero on a
    /// prepared-cache hit; the detail string records the strategy and
    /// hit/miss provenance).
    Plan,
    /// Bag materialization for enumeration workloads (zero on a
    /// prepared-cache hit).
    Materialize,
    /// Executing the plan against the pinned snapshot.
    Execute,
    /// Encoding the result payload to JSON.
    Serialize,
}

impl Phase {
    /// Stable wire name of the phase (`snake_case`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Materialize => "materialize",
            Phase::Execute => "execute",
            Phase::Serialize => "serialize",
        }
    }
}

/// One recorded phase of a traced query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which serve-path phase this measures.
    pub phase: Phase,
    /// Wall-clock time spent in the phase.
    pub duration: Duration,
    /// Optional human-readable annotation (e.g. the chosen plan
    /// strategy and cache provenance for [`Phase::Plan`]).
    pub detail: Option<String>,
}

/// A lightweight per-query span recorder threaded through the serve
/// path.
///
/// Recording is a `Vec` push — no clocks are read by the trace itself;
/// callers measure each phase where it happens and hand in the
/// duration. Traces attach to wire responses when the client requests
/// them (`@trace`); the per-query latency histograms are populated
/// whether or not anyone is tracing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    spans: Vec<Span>,
}

impl QueryTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        QueryTrace::default()
    }

    /// Records a phase with no annotation.
    pub fn record(&mut self, phase: Phase, duration: Duration) {
        self.spans.push(Span {
            phase,
            duration,
            detail: None,
        });
    }

    /// Records a phase with an annotation.
    pub fn record_with(&mut self, phase: Phase, duration: Duration, detail: impl Into<String>) {
        self.spans.push(Span {
            phase,
            duration,
            detail: Some(detail.into()),
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of all span durations. Because phases are disjoint
    /// sub-intervals, this is ≤ the request's total server time.
    pub fn total(&self) -> Duration {
        self.spans.iter().map(|s| s.duration).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// xorshift64* — deterministic pseudo-random stream, no crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_self_inverse() {
        let probes = [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            65_535,
            1 << 40,
            u64::MAX,
        ];
        let mut last = 0usize;
        for (i, &v) in probes.iter().enumerate() {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            if i > 0 {
                assert!(idx >= last, "bucketing must be monotone at {v}");
            }
            last = idx;
            let floor = bucket_floor(idx);
            let width = bucket_width(idx);
            assert!(
                floor <= v && (width == 0 || v - floor < width || idx == BUCKETS - 1),
                "value {v} not inside its bucket [{floor}, {floor}+{width})"
            );
            assert_eq!(
                bucket_index(floor),
                idx,
                "floor must map back to its bucket"
            );
        }
        assert_eq!(
            bucket_index(u64::MAX),
            BUCKETS - 1,
            "u64::MAX fills the top bucket"
        );
    }

    #[test]
    fn quantiles_match_a_sorted_reference_within_two_percent() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let h = Histogram::new();
        let mut samples: Vec<u64> = (0..10_000)
            .map(|_| {
                // Mix scales: most samples small, a tail up to ~16M.
                let raw = rng.next();
                match raw % 10 {
                    0..=5 => raw % 1_000,
                    6..=8 => raw % 100_000,
                    _ => raw % 16_000_000,
                }
            })
            .collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), samples.len() as u64);
        assert_eq!(snap.max(), *samples.last().unwrap(), "max is exact");
        for q in [0.50, 0.90, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let reference = samples[rank - 1];
            let estimate = snap.quantile(q);
            let slack = (reference as f64 * 0.02).max(1.0) as u64;
            assert!(
                estimate.abs_diff(reference) <= slack,
                "q={q}: estimate {estimate} vs reference {reference} (slack {slack})"
            );
        }
    }

    #[test]
    fn top_bucket_saturates_without_losing_counts() {
        let h = Histogram::new();
        for _ in 0..5 {
            h.record(u64::MAX);
        }
        h.record(u64::MAX - 1);
        h.record(1);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 7);
        assert_eq!(snap.max(), u64::MAX, "max is exact even in the top bucket");
        // The top-bucket midpoint would overshoot u64::MAX-ish values;
        // quantiles clamp to the exact recorded max instead.
        assert_eq!(snap.quantile(1.0), u64::MAX);
        assert!(snap.quantile(0.9) >= snap.quantile(0.5));
        assert_eq!(snap.p50(), snap.quantile(0.5));
    }

    #[test]
    fn eight_concurrent_recorders_lose_no_counts() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    let mut rng = Rng(0xDEAD_BEEF ^ (t as u64 + 1));
                    for _ in 0..PER_THREAD {
                        h.record(rng.next() % 1_000_000);
                    }
                });
            }
        });
        let snap = h.snapshot();
        let expected = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.count(), expected, "no recorded sample may be lost");
        assert_eq!(h.count(), expected);
        assert!(snap.quantile(0.5) <= snap.quantile(0.99));
        assert!(snap.quantile(0.99) <= snap.max());
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 10, 100, 1_000] {
            a.record(v);
        }
        for v in [5u64, 50, 500_000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.max(), 500_000);
        assert_eq!(merged.mean(), (1 + 10 + 100 + 1_000 + 5 + 50 + 500_000) / 7);
        let mut identity = Snapshot::empty();
        identity.merge(&merged);
        assert_eq!(identity, merged, "empty() is the merge identity");
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.value(), 2);
        assert_eq!(g.high_water(), 3);
        g.set(10);
        g.set(4);
        assert_eq!(g.value(), 4);
        assert_eq!(g.high_water(), 10);
        g.dec();
        g.dec();
        g.dec();
        g.dec();
        g.dec(); // one extra: must saturate, not wrap
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn trace_totals_are_span_sums() {
        let mut t = QueryTrace::new();
        t.record(Phase::QueueWait, Duration::from_micros(5));
        t.record_with(
            Phase::Plan,
            Duration::from_micros(7),
            "ghd-yannakakis (cached)",
        );
        t.record(Phase::Execute, Duration::from_micros(30));
        assert_eq!(t.total(), Duration::from_micros(42));
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].phase.name(), "plan");
        assert_eq!(
            t.spans()[1].detail.as_deref(),
            Some("ghd-yannakakis (cached)")
        );
        let names: Vec<_> = [
            Phase::QueueWait,
            Phase::Parse,
            Phase::Plan,
            Phase::Materialize,
            Phase::Execute,
            Phase::Serialize,
        ]
        .iter()
        .map(|p| p.name())
        .collect();
        assert_eq!(
            names,
            [
                "queue_wait",
                "parse",
                "plan",
                "materialize",
                "execute",
                "serialize"
            ]
        );
    }
}
