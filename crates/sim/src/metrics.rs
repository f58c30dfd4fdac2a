//! Deterministic metrics: saturating counters and fixed-bucket
//! histograms aggregated into a [`MetricsRegistry`].
//!
//! The registry's *deterministic view* ([`MetricsRegistry::render`])
//! must be bit-identical at any worker count. Two rules make that
//! hold:
//!
//! 1. **Only order-free aggregates.** Counters merge with saturating
//!    addition and histogram buckets merge bucket-wise — both
//!    commutative and associative — so per-worker shards
//!    ([`MetricsShard`]) can be merged in any order and still land on
//!    the same totals. The pipeline nevertheless merges shards in
//!    input-index order ([`MetricsRegistry::absorb_in_order`]), so
//!    even a non-commutative future aggregate would stay
//!    deterministic.
//! 2. **No wall clock in the registry.** A stage's wall time is the
//!    duration of its trace span ([`crate::trace::Tracer::span_timings`]),
//!    which the deterministic views leave out; the registry stores
//!    counters and histograms only. Its one clock,
//!    [`MetricsRegistry::stopwatch`], times what no span covers (a whole
//!    run, a serving request) and never records into the registry.
//!
//! Counter adds saturate rather than wrap: a metrics overflow must
//! never turn a huge count into a small one (or panic a release
//! pipeline), and saturation keeps the merge associative
//! (`min(a + b, MAX)` composes).

#![allow(
    clippy::disallowed_types,
    reason = "Stopwatch is the one wall clock outside tracing: whole-run totals and serving latencies"
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A canonical pipeline stage. Each names a top-level trace span
/// ([`crate::Obs::stage`]) and the counters under `<stage>/`; the
/// report's metrics section, the `taster profile` tree and
/// `BENCH_pipeline.json` all key stage data by [`Stage::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// World generation: ground truth + mail world (provider replay).
    Generate,
    /// Feed collection (content feeds + the human-curated feed).
    Collect,
    /// Blacklist simulation (dbl, uribl collectors).
    Blacklist,
    /// Crawl/oracle/tagger pass over the candidate union.
    Crawl,
    /// Live/tagged set derivation after the crawl.
    Classify,
    /// The report: every analysis and its rendering, one child span
    /// per report section (`render/<section>`).
    Render,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Generate,
        Stage::Collect,
        Stage::Blacklist,
        Stage::Crawl,
        Stage::Classify,
        Stage::Render,
    ];

    /// The stage's span name and key prefix.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Collect => "collect",
            Stage::Blacklist => "blacklist",
            Stage::Crawl => "crawl",
            Stage::Classify => "classify",
            Stage::Render => "render",
        }
    }
}

/// A fixed-bucket histogram over `u64` values.
///
/// `bounds` are strictly increasing upper bucket edges: a value `v`
/// lands in the first bucket whose bound satisfies `v <= bound`
/// (edges belong to the bucket they bound), and values above the last
/// bound land in the overflow bucket. Bucket counts saturate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Builds an empty histogram. Panics on unsorted or duplicate
    /// bounds (a programmer error: bucket layouts are static).
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// The bucket index `value` lands in (edges inclusive; the last
    /// index is the overflow bucket).
    pub fn bucket_index(&self, value: u64) -> usize {
        self.bounds.partition_point(|&bound| bound < value)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n` observations of `value` at once (saturating).
    pub fn observe_n(&mut self, value: u64, n: u64) {
        let i = self.bucket_index(value);
        self.counts[i] = self.counts[i].saturating_add(n);
    }

    /// Bucket-wise merge (saturating). Panics on mismatched layouts —
    /// shards of one metric always share the static bucket layout.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
    }

    /// Upper bucket edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations across all buckets (saturating).
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    fn render_into(&self, out: &mut String) {
        for (i, &c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            match self.bounds.get(i) {
                Some(bound) => {
                    let _ = write!(out, "le{bound} {c}");
                }
                None => {
                    let _ = write!(out, "inf {c}");
                }
            }
        }
    }
}

/// A plain (non-thread-safe) bundle of counters and histograms.
///
/// Hot loops accumulate into a shard-local `MetricsShard` (or into
/// plain integers folded into one) and merge it into the shared
/// [`MetricsRegistry`] once per shard, keeping per-record overhead to
/// integer arithmetic.
#[derive(Debug, Clone, Default)]
pub struct MetricsShard {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsShard {
    /// An empty shard.
    pub fn new() -> MetricsShard {
        MetricsShard::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to counter `name` (saturating).
    pub fn add(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Records one observation into histogram `name`, creating it with
    /// `bounds` on first use.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Merges a whole histogram into slot `name`.
    pub fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        match self.histograms.entry(name.to_string()) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(hist),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(hist.clone());
            }
        }
    }

    /// Merges another shard into this one (saturating, bucket-wise).
    pub fn merge(&mut self, other: &MetricsShard) {
        for (name, &delta) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(delta);
        }
        for (name, hist) in &other.histograms {
            self.merge_histogram(name, hist);
        }
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// The shared, thread-safe metrics sink of one observed run.
///
/// A disabled registry ([`MetricsRegistry::off`]) turns every method
/// into a no-op, so instrumented code paths cost nothing on the
/// default (unobserved) pipeline.
#[derive(Debug)]
pub struct MetricsRegistry {
    on: bool,
    shard: Mutex<MetricsShard>,
}

impl MetricsRegistry {
    /// A disabled registry: every operation is a no-op.
    pub fn off() -> MetricsRegistry {
        MetricsRegistry {
            on: false,
            shard: Mutex::new(MetricsShard::default()),
        }
    }

    /// An enabled registry.
    pub fn on() -> MetricsRegistry {
        MetricsRegistry {
            on: true,
            shard: Mutex::new(MetricsShard::default()),
        }
    }

    /// Whether recording is enabled. Hot paths check this once per
    /// shard and skip all accumulation when off.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsShard> {
        // A poisoned lock means a worker panicked mid-update; the
        // counters are still structurally sound, so recover the inner
        // data rather than compounding the panic.
        self.shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `delta` to counter `name` (saturating; no-op when off).
    pub fn add(&self, name: &str, delta: u64) {
        if self.on {
            self.lock().add(name, delta);
        }
    }

    /// Records one histogram observation (no-op when off).
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        if self.on {
            self.lock().observe(name, bounds, value);
        }
    }

    /// Merges one shard (no-op when off).
    pub fn absorb(&self, shard: &MetricsShard) {
        if self.on && !shard.is_empty() {
            self.lock().merge(shard);
        }
    }

    /// Merges per-worker shards in input-index order (no-op when off).
    /// All current aggregates are order-free, but merging in a fixed
    /// order keeps the determinism contract independent of that fact.
    pub fn absorb_in_order(&self, shards: &[MetricsShard]) {
        if !self.on {
            return;
        }
        let mut merged = self.lock();
        for shard in shards {
            merged.merge(shard);
        }
    }

    /// Starts a wall-clock stopwatch. See [`Stopwatch`].
    pub fn stopwatch() -> Stopwatch {
        Stopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Current value of counter `name` (0 when absent or off).
    pub fn counter(&self, name: &str) -> u64 {
        if !self.on {
            return 0;
        }
        self.lock().counter(name)
    }

    /// A snapshot of the aggregated shard.
    pub fn snapshot(&self) -> MetricsShard {
        self.lock().clone()
    }

    /// The deterministic view: counters then histograms, sorted by
    /// name. Bit-identical at any worker count.
    pub fn render(&self) -> String {
        let shard = self.lock();
        let mut out = String::new();
        for (name, value) in &shard.counters {
            let _ = writeln!(out, "counter   {name:<42} {value}");
        }
        for (name, hist) in &shard.histograms {
            let _ = write!(out, "histogram {name:<42} ");
            hist.render_into(&mut out);
            out.push('\n');
        }
        out
    }
}

/// A plain wall-clock stopwatch for what no stage span covers: a whole
/// profiled run, the collect-overhead probe, serving-path latencies
/// (`taster loadgen`, the serve watchdog). Lives in this module so the
/// `Instant` stays inside the wall-clock quarantine; simulation code
/// must keep using [`crate::SimTime`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Seconds elapsed since the stopwatch started.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Microseconds elapsed since the stopwatch started.
    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_edges_are_inclusive() {
        let mut h = Histogram::new(&[1, 2, 5]);
        for v in [0, 1, 2, 3, 5, 6] {
            h.observe(v);
        }
        // 0,1 -> le1; 2 -> le2; 3,5 -> le5; 6 -> inf
        assert_eq!(h.counts(), &[2, 1, 2, 1]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn counters_saturate() {
        let mut s = MetricsShard::new();
        s.add("x", u64::MAX - 1);
        s.add("x", 5);
        assert_eq!(s.counter("x"), u64::MAX);
    }

    #[test]
    fn shard_merge_order_is_irrelevant() {
        let mut a = MetricsShard::new();
        a.add("c", 3);
        a.observe("h", &[10], 4);
        let mut b = MetricsShard::new();
        b.add("c", 7);
        b.add("d", 1);
        b.observe("h", &[10], 40);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter("c"), ba.counter("c"));
        assert_eq!(ab.counter("d"), ba.counter("d"));
        assert_eq!(ab.histogram("h"), ba.histogram("h"));
    }

    #[test]
    fn off_registry_is_a_no_op() {
        let r = MetricsRegistry::off();
        r.add("x", 10);
        r.observe("h", &[1], 1);
        assert_eq!(r.counter("x"), 0);
        assert!(r.render().is_empty());
    }

    #[test]
    fn render_is_sorted_by_name() {
        let r = MetricsRegistry::on();
        r.add("z/last", 1);
        r.add("a/first", 2);
        let text = r.render();
        let a = text.find("a/first").expect("a/first rendered");
        let z = text.find("z/last").expect("z/last rendered");
        assert!(a < z, "counters sorted by name");
    }
}
