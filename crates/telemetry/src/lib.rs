//! # telemetry — the workspace's shared measurement substrate
//!
//! The paper's performance story rests on events that are invisible from
//! the outside: optimistic-read validation failures, write-lock
//! escalations, Algorithm 1/2 restarts, node splits. This crate gives every
//! layer (`optlock`, `specbtree`, `datalog`) one place to count them —
//! without ever slowing the hot path down when observability is not asked
//! for.
//!
//! Three instruments:
//!
//! * **Counters** ([`count`]/[`add`]): named monotone event counts, sharded
//!   across cache-line-padded slots so concurrent increments from different
//!   threads do not contend. Each increment is a single `Relaxed`
//!   `fetch_add` on the thread's own shard.
//! * **Histograms** ([`record`], [`Timer`]): log2-bucketed value
//!   distributions (restart counts per operation, chunk scan latencies,
//!   stratum fixpoint times), same sharding.
//! * **Spans** ([`span`]/[`spans`]): per-thread timeline records (begin/end
//!   nanoseconds, label, operand, thread id) drained by
//!   [`spans::drain_all`] and exported as a Chrome trace
//!   ([`trace_export::write_chrome_trace`]) — the *when/where* view the
//!   two counting instruments cannot give.
//!
//! # Zero cost when off
//!
//! Everything is gated on the `enabled` cargo feature (consumer crates
//! forward their own `telemetry` feature here). With the feature **off**
//! every probe is an empty `#[inline(always)]` function, [`Timer`] and
//! [`Span`] are zero-sized, and no static storage exists — the
//! `no_op_path` test module asserts this, and CI builds both ways. With it
//! **on**, the cost of a probe is one thread-local read plus one relaxed
//! atomic add.
//!
//! # Reading the numbers
//!
//! [`snapshot`] merges all shards into a [`Snapshot`] that renders as an
//! aligned human-readable table ([`Snapshot::to_table`]) or a
//! machine-readable JSON report ([`Snapshot::to_json`]). Counters only
//! grow: a reader that wants one phase takes a snapshot before and after
//! and subtracts, as `tests/telemetry_wiring.rs` does.
//!
//! ```
//! telemetry::count(telemetry::Counter::BtreeInsertRestarts);
//! telemetry::record(telemetry::Hist::EvalDeltaTuples, 37);
//! let snap = telemetry::snapshot();
//! // With the `enabled` feature the counter reads back ≥ 1; without it the
//! // snapshot is empty and reports itself disabled.
//! assert_eq!(snap.enabled, telemetry::ENABLED);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod spans;
pub mod trace_export;

pub use spans::{span, Span, SpanRecord};

use std::fmt::Write as _;

/// Whether the `enabled` feature was compiled in.
pub const ENABLED: bool = cfg!(feature = "enabled");

// ---------------------------------------------------------------------
// The taxonomy: every counter and histogram in the workspace, by layer.
// Keeping the full list here (rather than string-keyed registration at
// each site) makes snapshots allocation-free on the hot path and gives
// DESIGN.md a single table to document.
// ---------------------------------------------------------------------

/// Every event counter in the workspace. Names are `layer.event`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `optlock`: read-lease validations performed (`validate`/`end_read`).
    LockReadValidations,
    /// `optlock`: validations that failed (a writer intervened).
    LockValidationFailures,
    /// `optlock`: lease-to-write upgrade attempts.
    LockUpgradeAttempts,
    /// `optlock`: upgrade attempts that lost the race.
    LockUpgradeFailures,
    /// `optlock`: successful direct write acquisitions (`try_start_write`).
    LockWriteAcquisitions,
    /// `optlock`: backoff spin-loop rounds while waiting on a writer.
    LockSpinIterations,
    /// `specbtree`: Algorithm 1 insert restarts (all causes).
    BtreeInsertRestarts,
    /// `specbtree`: restarts caused by a failed validation during descent.
    BtreeRestartDescend,
    /// `specbtree`: restarts caused by a failed leaf write upgrade.
    BtreeRestartLeafUpgrade,
    /// `specbtree`: restarts after splitting a full leaf (the insert
    /// re-descends into the halved tree).
    BtreeRestartSplitRetry,
    /// `specbtree`: lookup/bound descents restarted by concurrent writes.
    BtreeLookupRestarts,
    /// `specbtree`: leaf node splits (Algorithm 2).
    BtreeLeafSplits,
    /// `specbtree`: inner node splits (Algorithm 2, propagated).
    BtreeInnerSplits,
    /// `specbtree`: root splits growing the tree by one level.
    BtreeRootGrowth,
    /// `datalog`: semi-naive fixpoint iterations across all strata.
    EvalIterations,
    /// `specbtree`: runs a bulk merge or removal cut its source into
    /// (disjoint key ranges along the source's separators; one for a
    /// source no deeper than a root over leaves).
    BtreeMergeChunks,
    /// `specbtree`: successful `remove` operations (tuple was present).
    BtreeRemoves,
    /// `specbtree`: remove operations restarted (failed validation or a
    /// contended spine lock).
    BtreeRemoveRestarts,
    /// `datalog`: secondary index trees built (one per column permutation
    /// registered on a relation, backfill included).
    EvalIndexBuilds,
    /// `specbtree`: keys handed to `insert_run` / `retain_absent`.
    BtreeRunKeys,
    /// `specbtree`: descents those runs made — one per leaf group (and per
    /// restart), so `run_keys / run_descents` is what a descent serves.
    BtreeRunDescents,
}

impl Counter {
    /// Number of counters (array dimension).
    pub const COUNT: usize = 21;

    /// All counters, in declaration order.
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::LockReadValidations,
        Counter::LockValidationFailures,
        Counter::LockUpgradeAttempts,
        Counter::LockUpgradeFailures,
        Counter::LockWriteAcquisitions,
        Counter::LockSpinIterations,
        Counter::BtreeInsertRestarts,
        Counter::BtreeRestartDescend,
        Counter::BtreeRestartLeafUpgrade,
        Counter::BtreeRestartSplitRetry,
        Counter::BtreeLookupRestarts,
        Counter::BtreeLeafSplits,
        Counter::BtreeInnerSplits,
        Counter::BtreeRootGrowth,
        Counter::EvalIterations,
        Counter::BtreeMergeChunks,
        Counter::BtreeRemoves,
        Counter::BtreeRemoveRestarts,
        Counter::EvalIndexBuilds,
        Counter::BtreeRunKeys,
        Counter::BtreeRunDescents,
    ];

    /// The dotted `layer.event` name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::LockReadValidations => "optlock.read_validations",
            Counter::LockValidationFailures => "optlock.validation_failures",
            Counter::LockUpgradeAttempts => "optlock.upgrade_attempts",
            Counter::LockUpgradeFailures => "optlock.upgrade_failures",
            Counter::LockWriteAcquisitions => "optlock.write_acquisitions",
            Counter::LockSpinIterations => "optlock.spin_iterations",
            Counter::BtreeInsertRestarts => "specbtree.insert_restarts",
            Counter::BtreeRestartDescend => "specbtree.restart_descend",
            Counter::BtreeRestartLeafUpgrade => "specbtree.restart_leaf_upgrade",
            Counter::BtreeRestartSplitRetry => "specbtree.restart_split_retry",
            Counter::BtreeLookupRestarts => "specbtree.lookup_restarts",
            Counter::BtreeLeafSplits => "specbtree.leaf_splits",
            Counter::BtreeInnerSplits => "specbtree.inner_splits",
            Counter::BtreeRootGrowth => "specbtree.root_growth",
            Counter::EvalIterations => "datalog.iterations",
            Counter::BtreeMergeChunks => "specbtree.merge_chunks",
            Counter::BtreeRemoves => "specbtree.removes",
            Counter::BtreeRemoveRestarts => "specbtree.remove_restarts",
            Counter::EvalIndexBuilds => "datalog.index_builds",
            Counter::BtreeRunKeys => "specbtree.run_keys",
            Counter::BtreeRunDescents => "specbtree.run_descents",
        }
    }
}

/// Every log2-bucket histogram in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// `specbtree`: restarts of one insert operation (0 = clean first try).
    BtreeInsertRestartsPerOp,
    /// `datalog`: delta-relation sizes per fixpoint iteration (tuples).
    EvalDeltaTuples,
    /// `datalog`: wall time from claiming an outer-scan chunk to finishing
    /// it (nanoseconds).
    EvalChunkNanos,
    /// `datalog`: wall time of one stratum's full fixpoint (nanoseconds).
    EvalStratumNanos,
    /// `datalog`: wall time of one merge phase — folding every `new`
    /// relation of a stratum into its full relation (nanoseconds).
    EvalMergeNanos,
    /// `datalog`: wall time spent keeping secondary index trees in sync
    /// with their primary during bulk `merge_from`/`retract_from` passes
    /// and index backfill builds (nanoseconds).
    EvalIndexMaintainNanos,
}

impl Hist {
    /// Number of histograms (array dimension).
    pub const COUNT: usize = 6;

    /// All histograms, in declaration order.
    pub const ALL: [Hist; Self::COUNT] = [
        Hist::BtreeInsertRestartsPerOp,
        Hist::EvalDeltaTuples,
        Hist::EvalChunkNanos,
        Hist::EvalStratumNanos,
        Hist::EvalMergeNanos,
        Hist::EvalIndexMaintainNanos,
    ];

    /// The dotted `layer.metric` name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::BtreeInsertRestartsPerOp => "specbtree.insert_restarts_per_op",
            Hist::EvalDeltaTuples => "datalog.delta_tuples",
            Hist::EvalChunkNanos => "datalog.chunk_nanos",
            Hist::EvalStratumNanos => "datalog.stratum_nanos",
            Hist::EvalMergeNanos => "datalog.merge_nanos",
            Hist::EvalIndexMaintainNanos => "datalog.index_maintain_nanos",
        }
    }
}

/// Log2 bucket count: bucket 0 holds the value 0, bucket `b > 0` holds
/// values in `[2^(b-1), 2^b)`; `u64::MAX` lands in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index `value` falls into.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower bound of histogram bucket `b`.
#[inline]
pub fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

// ---------------------------------------------------------------------
// Live implementation (feature `enabled`)
// ---------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod imp {
    use super::{Counter, Hist, HIST_BUCKETS};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

    /// Number of independent shards counters are spread over. Threads hash
    /// onto shards round-robin; 32 keeps two threads off the same cache
    /// line up to moderately large worker counts.
    const SHARDS: usize = 32;

    /// One shard's worth of every counter, padded so two shards never
    /// share a cache line.
    #[repr(align(128))]
    struct CounterShard([AtomicU64; Counter::COUNT]);

    #[repr(align(128))]
    struct HistShard {
        buckets: [[AtomicU64; HIST_BUCKETS]; Hist::COUNT],
        sum: [AtomicU64; Hist::COUNT],
        max: [AtomicU64; Hist::COUNT],
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_ROW: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];

    static COUNTERS: [CounterShard; SHARDS] =
        [const { CounterShard([ZERO; Counter::COUNT]) }; SHARDS];
    static HISTS: [HistShard; SHARDS] = [const {
        HistShard {
            buckets: [ZERO_ROW; Hist::COUNT],
            sum: [ZERO; Hist::COUNT],
            max: [ZERO; Hist::COUNT],
        }
    }; SHARDS];

    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    #[inline]
    fn shard() -> usize {
        MY_SHARD.with(|s| {
            let v = s.get();
            if v != usize::MAX {
                v
            } else {
                let v = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
                s.set(v);
                v
            }
        })
    }

    #[inline]
    pub fn add(c: Counter, n: u64) {
        COUNTERS[shard()].0[c as usize].fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn record(h: Hist, value: u64) {
        let s = &HISTS[shard()];
        s.buckets[h as usize][super::bucket_of(value)].fetch_add(1, Relaxed);
        s.sum[h as usize].fetch_add(value, Relaxed);
        s.max[h as usize].fetch_max(value, Relaxed);
    }

    pub fn counter_value(c: Counter) -> u64 {
        COUNTERS.iter().map(|s| s.0[c as usize].load(Relaxed)).sum()
    }

    pub fn hist_merge(h: Hist) -> ([u64; HIST_BUCKETS], u64, u64) {
        let mut buckets = [0u64; HIST_BUCKETS];
        let (mut sum, mut max) = (0u64, 0u64);
        for s in &HISTS {
            for (b, src) in buckets.iter_mut().zip(&s.buckets[h as usize]) {
                *b += src.load(Relaxed);
            }
            sum += s.sum[h as usize].load(Relaxed);
            max = max.max(s.max[h as usize].load(Relaxed));
        }
        (buckets, sum, max)
    }
}

// ---------------------------------------------------------------------
// Public probe API (no-ops without the feature)
// ---------------------------------------------------------------------

/// Increments `c` by one.
#[inline(always)]
pub fn count(c: Counter) {
    add(c, 1);
}

/// Increments `c` by `n`.
#[cfg(feature = "enabled")]
#[inline]
pub fn add(c: Counter, n: u64) {
    imp::add(c, n);
}

/// Increments `c` by `n` (no-op: telemetry disabled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn add(_c: Counter, _n: u64) {}

/// Records `value` into histogram `h`.
#[cfg(feature = "enabled")]
#[inline]
pub fn record(h: Hist, value: u64) {
    imp::record(h, value);
}

/// Records `value` into histogram `h` (no-op: telemetry disabled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn record(_h: Hist, _value: u64) {}

/// A started wall-clock measurement; [`observe`](Timer::observe) records
/// the elapsed nanoseconds into a histogram. Zero-sized (and clock-free)
/// when telemetry is disabled.
#[derive(Debug)]
pub struct Timer(#[cfg(feature = "enabled")] std::time::Instant);

/// Starts a [`Timer`]. Reads no clock when telemetry is disabled.
#[inline(always)]
pub fn start_timer() -> Timer {
    Timer(
        #[cfg(feature = "enabled")]
        std::time::Instant::now(),
    )
}

impl Timer {
    /// Nanoseconds since the timer started (0 when disabled).
    #[inline(always)]
    pub fn elapsed_nanos(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.0.elapsed().as_nanos().min(u64::MAX as u128) as u64
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// Records the elapsed nanoseconds into `h`.
    #[inline(always)]
    pub fn observe(self, h: Hist) {
        record(h, self.elapsed_nanos());
    }
}

// ---------------------------------------------------------------------
// Snapshot: merge + render
// ---------------------------------------------------------------------

/// Merged view of one histogram.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Dotted metric name.
    pub name: &'static str,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets as `(bucket index, sample count)`; the bucket's
    /// value range is `[bucket_lo(i), 2 * bucket_lo(i))` (`{0}` for 0).
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time merge of every shard of every counter and histogram.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Whether the `enabled` feature was compiled in (false ⇒ all zeros).
    pub enabled: bool,
    /// `(name, value)` for every counter, in taxonomy order.
    pub counters: Vec<(&'static str, u64)>,
    /// Merged histograms, in taxonomy order.
    pub hists: Vec<HistSnapshot>,
}

/// Merges all shards into a [`Snapshot`]. Cheap enough to call between
/// benchmark phases; values are `Relaxed` reads (exact once quiescent).
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), imp::counter_value(c)))
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| {
                let (buckets, sum, max) = imp::hist_merge(h);
                HistSnapshot {
                    name: h.name(),
                    count: buckets.iter().sum(),
                    sum,
                    max,
                    buckets: buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| (i, n))
                        .collect(),
                }
            })
            .collect();
        Snapshot {
            enabled: true,
            counters,
            hists,
        }
    }
    #[cfg(not(feature = "enabled"))]
    Snapshot {
        enabled: false,
        counters: Vec::new(),
        hists: Vec::new(),
    }
}

impl Snapshot {
    /// The value of the counter named `name` (0 when absent/disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The merged histogram named `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders an aligned human-readable table (zero rows omitted).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.enabled {
            out.push_str("telemetry disabled (build with --features telemetry)\n");
            return out;
        }
        out.push_str("counter                                   value\n");
        for (name, v) in &self.counters {
            if *v > 0 {
                let _ = writeln!(out, "{name:<40} {v:>10}");
            }
        }
        for h in &self.hists {
            if h.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<40} n={} mean={:.1} max={}",
                h.name,
                h.count,
                h.mean(),
                h.max
            );
            for &(b, n) in &h.buckets {
                let _ = writeln!(out, "  [{:>20} ..] {n:>10}", bucket_lo(b));
            }
        }
        out
    }

    /// Renders the machine-readable JSON report: `{"enabled": bool,
    /// "counters": {name: value, ...}, "histograms": {name: {"count": ..,
    /// "sum": .., "max": .., "buckets": [[lo, n], ...]}, ...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"enabled\": {},", self.enabled);
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = write!(out, "\n    \"{name}\": {v}{sep}");
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, h) in self.hists.iter().enumerate() {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(b, n)| format!("[{}, {n}]", bucket_lo(b)))
                .collect();
            let sep = if i + 1 < self.hists.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}{sep}",
                h.name,
                h.count,
                h.sum,
                h.max,
                buckets.join(", ")
            );
        }
        out.push_str(if self.hists.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod taxonomy_tests {
    use super::*;

    #[test]
    fn counter_all_matches_count_and_names_are_unique() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL order must match discriminants");
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < HIST_BUCKETS);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(4), 8);
        for v in [0u64, 1, 2, 5, 1023, 1024, u64::MAX] {
            let b = bucket_of(v);
            assert!(bucket_lo(b) <= v, "v={v} b={b}");
            if b < 64 {
                assert!(v < bucket_lo(b + 1), "v={v} b={b}");
            }
        }
    }
}

/// The zero-cost contract: with the feature off, handles are zero-sized
/// and snapshots are empty. (Every default-build `cargo test` runs this
/// module; the symmetric `live_path` module runs under `--features enabled`.)
#[cfg(all(test, not(feature = "enabled")))]
mod no_op_path {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // constness is the point
    fn disabled_reports_itself() {
        assert!(!ENABLED);
    }

    #[test]
    fn handles_are_zero_sized() {
        // The whole probe surface must carry no data when disabled: these
        // sizes are what the optimizer folds the call sites away to.
        assert_eq!(std::mem::size_of::<Timer>(), 0);
        assert_eq!(std::mem::size_of_val(&start_timer()), 0);
        assert_eq!(std::mem::size_of::<Span>(), 0);
        assert_eq!(std::mem::size_of_val(&span("x", 0)), 0);
    }

    #[test]
    fn spans_are_inert() {
        {
            let _guard = span("eval.stratum", 3);
        }
        drop(span("eval.chunk", 1));
        assert!(spans::drain_all().is_empty());
        assert_eq!(spans::dropped(), 0);
        // The exporter still works as a pure function of (no) records.
        assert!(trace_export::chrome_trace_json(&[]).contains("traceEvents"));
    }

    #[test]
    fn probes_are_inert() {
        count(Counter::BtreeInsertRestarts);
        add(Counter::LockSpinIterations, 1000);
        record(Hist::EvalDeltaTuples, 42);
        start_timer().observe(Hist::EvalChunkNanos);
        let snap = snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert_eq!(snap.counter("specbtree.insert_restarts"), 0);
        let json = snap.to_json();
        assert!(json.contains("\"enabled\": false"), "{json}");
        assert!(snap.to_table().contains("disabled"));
    }
}

#[cfg(all(test, feature = "enabled"))]
mod live_path {
    use super::*;

    // The statics are process-global and tests run concurrently, so these
    // tests only assert monotone/nonzero properties, never exact totals —
    // except via deltas on counters no other test touches.

    #[test]
    fn counters_accumulate_across_threads() {
        let before = snapshot().counter("optlock.write_acquisitions");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        count(Counter::LockWriteAcquisitions);
                    }
                });
            }
        });
        let after = snapshot().counter("optlock.write_acquisitions");
        assert_eq!(after - before, 4000);
    }

    #[test]
    fn histogram_records_buckets_sum_max() {
        for v in [0u64, 1, 1, 7, 1000] {
            record(Hist::EvalStratumNanos, v);
        }
        let snap = snapshot();
        let h = snap.hist("datalog.stratum_nanos").unwrap();
        assert!(h.count >= 5);
        assert!(h.sum >= 1009);
        assert!(h.max >= 1000);
        assert!(h.buckets.iter().any(|&(b, _)| bucket_lo(b) <= 1000));
    }

    #[test]
    fn timer_observes_elapsed() {
        let t = start_timer();
        std::hint::black_box(0);
        t.observe(Hist::EvalChunkNanos);
        let snap = snapshot();
        assert!(snap.hist("datalog.chunk_nanos").unwrap().count >= 1);
    }

    #[test]
    fn json_shape() {
        count(Counter::BtreeLeafSplits);
        record(Hist::BtreeInsertRestartsPerOp, 2);
        let json = snapshot().to_json();
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"specbtree.leaf_splits\""));
        assert!(json.contains("\"specbtree.insert_restarts_per_op\""));
        assert!(json.contains("\"buckets\""));
    }

    #[test]
    fn snapshot_merges_while_other_threads_keep_bumping() {
        // Relaxed-read tolerance: concurrent snapshots taken mid-bump must
        // observe monotonically non-decreasing values for a counter that
        // only grows, and never panic or tear. (The bumping counter is
        // shared with other tests, so only monotonicity is asserted.)
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(Relaxed) {
                        count(Counter::LockSpinIterations);
                        record(Hist::EvalDeltaTuples, 5);
                    }
                });
            }
            let mut last_counter = 0u64;
            let mut last_hist = 0u64;
            for _ in 0..200 {
                let snap = snapshot();
                let c = snap.counter("optlock.spin_iterations");
                assert!(
                    c >= last_counter,
                    "counter went backwards: {last_counter} -> {c}"
                );
                last_counter = c;
                let h = snap.hist("datalog.delta_tuples").unwrap();
                assert!(h.count >= last_hist, "hist count went backwards");
                last_hist = h.count;
            }
            stop.store(true, Relaxed);
        });
    }

    #[test]
    fn spans_record_across_threads_and_drain_once() {
        // Statics are process-global and tests run concurrently, so use
        // labels unique to this test and tolerate foreign spans in the
        // drained set. A single #[test] covers the whole span surface to
        // avoid two tests draining each other's records.
        assert!(std::mem::size_of::<Span>() > 0, "live spans carry data");
        std::thread::scope(|s| {
            for t in 0..2u64 {
                s.spawn(move || {
                    let _outer = span("test.span_outer", t);
                    for i in 0..3u64 {
                        let _inner = span("test.span_inner", i);
                        std::hint::black_box(i);
                    }
                });
            }
        });
        let drained = spans::drain_all();
        let mine: Vec<_> = drained
            .iter()
            .filter(|r| r.label.starts_with("test.span_"))
            .collect();
        assert!(mine.len() >= 8, "2 outer + 6 inner, got {}", mine.len());
        let tids: std::collections::HashSet<u64> = mine.iter().map(|r| r.tid).collect();
        assert!(tids.len() >= 2, "spans from two threads get distinct tids");
        for r in &mine {
            assert!(r.end_ns >= r.begin_ns);
        }
        // Sorted by begin time.
        assert!(drained.windows(2).all(|w| w[0].begin_ns <= w[1].begin_ns));
        // Inner spans nest inside their thread's outer span.
        for tid in &tids {
            let outer = mine
                .iter()
                .find(|r| r.tid == *tid && r.label == "test.span_outer")
                .expect("outer span present");
            for inner in mine
                .iter()
                .filter(|r| r.tid == *tid && r.label == "test.span_inner")
            {
                assert!(inner.begin_ns >= outer.begin_ns && inner.end_ns <= outer.end_ns);
            }
        }
        // The trace export round-trips the drained records.
        let owned: Vec<SpanRecord> = mine.iter().map(|r| **r).collect();
        let doc = trace_export::chrome_trace_json(&owned);
        assert!(doc.contains("test.span_outer") && doc.contains("test.span_inner"));
        // A drain is destructive: our labels are gone from the next one.
        assert!(spans::drain_all()
            .iter()
            .all(|r| !r.label.starts_with("test.span_")));
    }
}
