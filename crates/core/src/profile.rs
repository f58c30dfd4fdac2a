//! The `taster profile` driver and the registry-clocked stage bench.
//!
//! A profile run is one fully-observed experiment: every pipeline
//! stage executes under a span, stage wall times land in the
//! [`MetricsRegistry`](taster_sim::MetricsRegistry) timing map, and
//! counters/histograms accumulate as usual. Three renderings come out
//! of it:
//!
//! * [`deterministic_profile`] — span tree + metrics, **no wall
//!   times**; bit-identical at any worker count (what the golden
//!   harness snapshots).
//! * [`render_profile_tree`] — the per-stage self-time tree with wall
//!   seconds (what `taster profile` prints for humans).
//! * [`bench_json_string`] — `BENCH_pipeline.json`, whose per-stage
//!   `<stage>_secs` keys come from the same registry timing map the
//!   tree is built from, so the two can never disagree.

#![allow(
    clippy::disallowed_types,
    reason = "`taster profile` and `bench-json` time stages on the wall clock; no report byte depends on it"
)]

use std::fmt::Write as _;

use crate::experiment::Experiment;
use crate::scenario::Scenario;
use taster_analysis::classify::Category;
use taster_analysis::coverage::{coverage_table_par, exclusive_share_par, pairwise_overlap_par};
use taster_analysis::proportionality::{kendall_matrix_par, variation_matrix_par};
use taster_analysis::purity::purity_par;
use taster_analysis::timing::{
    duration_error_par, first_appearance_par, last_appearance_par, FIG9_FEEDS, HONEYPOT_FEEDS,
};
use taster_analysis::Classified;
use taster_ecosystem::buffer::EventBuffer;
use taster_feeds::{try_collect_all_observed, PipelineError};
use taster_mailsim::provider::PROVIDER_BUCKET;
use taster_mailsim::MailWorld;
use taster_sim::metrics::{
    STAGE_BLACKLIST, STAGE_CLASSIFY, STAGE_COLLECT, STAGE_COVERAGE, STAGE_CRAWL, STAGE_GENERATE,
    STAGE_PROPORTIONALITY, STAGE_PURITY, STAGE_RENDER, STAGE_TIMING,
};
use taster_sim::{FaultPlan, FaultProfile, Obs, Parallelism};

// Fault-injection timing keys live in the sim metrics registry
// (`AUX_STAGE_KEYS`) so the stage inventory stays complete; re-export
// them under their historical paths.
pub use taster_sim::metrics::{STAGE_CLASSIFY_FAULTED, STAGE_COLLECT_FAULTED};

/// Runs `scenario` end-to-end with full observability — metrics,
/// tracing, and the four post-classification analysis stage groups —
/// and returns the experiment whose [`Experiment::obs`] holds the
/// complete profile.
pub fn profile_scenario(scenario: &Scenario) -> Result<Experiment, PipelineError> {
    let exp = Experiment::try_run_observed(scenario, Obs::on())?;
    exp.observe_analyses();
    // Render once so the `render` stage is clocked like every other.
    std::hint::black_box(exp.render_report().len());
    Ok(exp)
}

/// The deterministic profile view: the span/event tree (attributes and
/// sim windows, no wall times) followed by the metrics render.
/// Bit-identical at any worker count.
pub fn deterministic_profile(exp: &Experiment) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Profile (deterministic view)");
    let _ = writeln!(out, "   scenario: {}", exp.scenario.name);
    out.push_str(&exp.obs.trace.deterministic_view());
    let _ = writeln!(out, "== Pipeline metrics");
    out.push_str(&exp.obs.metrics.render());
    out
}

/// The per-stage self-time tree with wall seconds. Wall-clock, so not
/// deterministic — `taster profile` prints this after the
/// deterministic view.
pub fn render_profile_tree(exp: &Experiment) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Profile (wall time)");
    let _ = writeln!(out, "   scenario: {}", exp.scenario.name);
    let _ = writeln!(out, "{:<44} {:>12} {:>12}", "span", "wall s", "self s");
    for t in exp.obs.trace.span_timings() {
        let label = format!("{:indent$}{}", "", t.name, indent = t.depth * 2);
        let _ = writeln!(
            out,
            "{label:<44} {:>12.6} {:>12.6}",
            t.wall_secs, t.self_secs
        );
    }
    out
}

/// Best-of-reps stage wall times at one worker count, every number
/// read back from the metrics registry — the same clock the profile
/// tree uses.
#[derive(Debug, Clone, Copy)]
pub struct StageBench {
    /// Worker count the stages ran at.
    pub workers: usize,
    /// Feed collection (content members + Hu), seconds.
    pub collect: f64,
    /// Blacklist simulation (dbl + uribl), seconds.
    pub blacklist: f64,
    /// Crawl/oracle/tagger pass, seconds.
    pub crawl: f64,
    /// Live/tagged set derivation, seconds.
    pub classify: f64,
    /// Feed collection under the `lossy-feeds` profile.
    pub collect_faulted: f64,
    /// Classification under the `flaky-crawler` profile.
    pub classify_faulted: f64,
    /// Coverage analyses (Table 3, Figs 1–2).
    pub coverage: f64,
    /// Purity analysis (Table 2).
    pub purity: f64,
    /// Proportionality analyses (Figs 7–8).
    pub proportionality: f64,
    /// Timing analyses (Figs 9–12).
    pub timing: f64,
}

impl StageBench {
    /// Total analyze-stage wall time (everything after classification).
    pub fn analyze(&self) -> f64 {
        self.coverage + self.purity + self.proportionality + self.timing
    }

    /// Total pipeline wall time across the clean stages this row times
    /// (everything between world generation and report rendering).
    pub fn pipeline(&self) -> f64 {
        self.collect + self.blacklist + self.crawl + self.classify
    }

    /// Reads one bench row out of a registry's timing map (absent
    /// stages read as 0). `workers` is carried through verbatim.
    pub fn from_registry(obs: &Obs, workers: usize) -> StageBench {
        let g = |key: &str| obs.metrics.timing(key).unwrap_or(0.0);
        StageBench {
            workers,
            collect: g(STAGE_COLLECT),
            blacklist: g(STAGE_BLACKLIST),
            crawl: g(STAGE_CRAWL),
            classify: g(STAGE_CLASSIFY),
            collect_faulted: g(STAGE_COLLECT_FAULTED),
            classify_faulted: g(STAGE_CLASSIFY_FAULTED),
            coverage: g(STAGE_COVERAGE),
            purity: g(STAGE_PURITY),
            proportionality: g(STAGE_PROPORTIONALITY),
            timing: g(STAGE_TIMING),
        }
    }
}

/// End-to-end wall accounting from one fully-observed run: every
/// canonical stage's registry time plus the total wall clock around
/// the whole run, so the *untimed* remainder — work no stage covers —
/// is measurable and gateable.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// World generation (ground truth + mail world), seconds.
    pub generate: f64,
    /// Report rendering, seconds.
    pub render: f64,
    /// Sum of all ten canonical stage times, seconds.
    pub timed: f64,
    /// Total wall time of the run, seconds.
    pub total: f64,
}

impl EndToEnd {
    /// Wall time not attributed to any canonical stage, seconds.
    pub fn untimed(&self) -> f64 {
        (self.total - self.timed).max(0.0)
    }

    /// Untimed share of the total (0 when the total is 0).
    pub fn untimed_fraction(&self) -> f64 {
        if self.total > 0.0 {
            self.untimed() / self.total
        } else {
            0.0
        }
    }
}

/// Runs `scenario` once, fully observed (metrics on, trace off), all
/// the way through report rendering, and accounts every canonical
/// stage against the total wall clock. The registry stages and the
/// outer clock measure the same single run, so `untimed` is exactly
/// the wall time the stage inventory misses.
pub fn bench_end_to_end(scenario: &Scenario) -> Result<EndToEnd, PipelineError> {
    let start = std::time::Instant::now();
    let exp = Experiment::try_run_observed(scenario, Obs::with(true, false))?;
    exp.observe_analyses();
    std::hint::black_box(exp.render_report().len());
    let total = start.elapsed().as_secs_f64();
    let g = |key: &str| exp.obs.metrics.timing(key).unwrap_or(0.0);
    let timed: f64 = taster_sim::metrics::STAGE_KEYS.iter().map(|k| g(k)).sum();
    Ok(EndToEnd {
        generate: g(STAGE_GENERATE),
        render: g(STAGE_RENDER),
        timed,
        total,
    })
}

/// Times every pipeline stage at `workers` workers over a pre-built
/// world, best of `reps`, through [`Obs::stage`] (so each number is a
/// registry timing, not an ad-hoc stopwatch). The faulted rows use the
/// `lossy-feeds` profile for collection and `flaky-crawler` for
/// classification, matching the historical bench. Every timed run
/// produces bit-identical output; only wall-clock varies.
pub fn bench_stages(
    world: &MailWorld,
    scenario: &Scenario,
    workers: usize,
    reps: usize,
) -> Result<StageBench, PipelineError> {
    let par = Parallelism::fixed(workers);
    let obs = Obs::with(true, false);
    let off = FaultPlan::off(scenario.seed);
    let lossy = FaultPlan::new(FaultProfile::lossy_feeds(), scenario.seed);
    let flaky = FaultPlan::new(FaultProfile::flaky_crawler(), scenario.seed);
    let oracle = &world.provider.oracle;
    for _ in 0..reps {
        // The pipeline and classifier stage themselves (collect /
        // blacklist / crawl / classify), recording into `obs` directly.
        let feeds = try_collect_all_observed(world, &scenario.feeds, &off, &par, &obs)?;
        let classified =
            Classified::build_observed(&world.truth, &feeds, scenario.classify, &off, &par, &obs);

        let faulted_feeds = obs.stage(STAGE_COLLECT_FAULTED, || {
            try_collect_all_observed(world, &scenario.feeds, &lossy, &par, &Obs::off())
        })?;
        taster_feeds::ensure_nonempty_collection(&faulted_feeds, &lossy, world.truth.window())?;
        obs.stage(STAGE_CLASSIFY_FAULTED, || {
            std::hint::black_box(Classified::build_faulted(
                &world.truth,
                &faulted_feeds,
                scenario.classify,
                &flaky,
                &par,
            ));
        });

        obs.stage(STAGE_COVERAGE, || {
            std::hint::black_box(coverage_table_par(&classified, &par));
            for cat in [Category::All, Category::Live, Category::Tagged] {
                std::hint::black_box(pairwise_overlap_par(&classified, cat, &par));
            }
            std::hint::black_box(exclusive_share_par(&classified, Category::Live, &par));
        });
        obs.stage(STAGE_PURITY, || {
            std::hint::black_box(purity_par(&feeds, &classified, &par));
        });
        obs.stage(STAGE_PROPORTIONALITY, || {
            std::hint::black_box(variation_matrix_par(&feeds, &classified, oracle, &par));
            std::hint::black_box(kendall_matrix_par(&feeds, &classified, oracle, &par));
        });
        obs.stage(STAGE_TIMING, || {
            for refs in [&FIG9_FEEDS[..], &HONEYPOT_FEEDS[..]] {
                std::hint::black_box(first_appearance_par(&feeds, &classified, refs, refs, &par));
            }
            std::hint::black_box(last_appearance_par(
                &feeds,
                &classified,
                &HONEYPOT_FEEDS,
                &HONEYPOT_FEEDS,
                &par,
            ));
            std::hint::black_box(duration_error_par(
                &feeds,
                &classified,
                &HONEYPOT_FEEDS,
                &HONEYPOT_FEEDS,
                &par,
            ));
        });
    }
    Ok(StageBench::from_registry(&obs, workers))
}

/// One scale point of the pipeline bench: the world's event count,
/// the chunk size collection streamed at, a peak streaming-memory
/// estimate, and the per-worker-count stage rows.
#[derive(Debug, Clone)]
pub struct ScaleBench {
    /// Scale factor the scenario ran at.
    pub scale: f64,
    /// Full scenario name (seed and scale included).
    pub scenario_name: String,
    /// Ground-truth event count at this scale.
    pub events: u64,
    /// Event-chunk rows per collection pass.
    pub chunk_size: usize,
    /// Peak bytes the streaming buffers can hold at once
    /// ([`stream_peak_bytes`]).
    pub stream_peak_bytes: u64,
    /// End-to-end wall accounting from one fully-observed run (zeros
    /// when the caller only benched stage rows).
    pub end_to_end: Option<EndToEnd>,
    /// Wall seconds of a small observed replication
    /// ([`crate::replicate::STAGE_REPLICATE`]); 0 when not timed.
    pub replicate_secs: f64,
    /// Stage timings, one row per worker count.
    pub rows: Vec<StageBench>,
}

impl ScaleBench {
    /// Assembles one scale entry, deriving the memory estimate from
    /// `(events, chunk_size)`.
    pub fn new(
        scale: f64,
        scenario_name: &str,
        events: u64,
        chunk_size: usize,
        rows: Vec<StageBench>,
    ) -> ScaleBench {
        ScaleBench {
            scale,
            scenario_name: scenario_name.to_string(),
            events,
            chunk_size,
            stream_peak_bytes: stream_peak_bytes(events, chunk_size),
            end_to_end: None,
            replicate_secs: 0.0,
            rows,
        }
    }

    /// Attaches end-to-end wall accounting to this entry.
    pub fn with_end_to_end(mut self, e2e: EndToEnd) -> ScaleBench {
        self.end_to_end = Some(e2e);
        self
    }

    /// Attaches the replicate-driver wall time to this entry.
    pub fn with_replicate_secs(mut self, secs: f64) -> ScaleBench {
        self.replicate_secs = secs;
        self
    }

    /// Overrides the peak-memory estimate (out-of-core runs derive it
    /// from the `--max-mem-bytes` budget instead of the chunk size).
    pub fn with_stream_peak_bytes(mut self, bytes: u64) -> ScaleBench {
        self.stream_peak_bytes = bytes;
        self
    }

    /// Best collect-stage throughput across the worker rows, events
    /// per second (the CI perf-smoke floor reads this).
    pub fn best_events_per_sec(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| events_per_sec(self.events, r.collect))
            .fold(0.0, f64::max)
    }
}

/// Estimates peak bytes resident in the streaming event buffers: the
/// larger of one collection chunk and one provider bucket
/// (struct-of-arrays rows). Deliberately excludes the feeds themselves
/// — their size depends on capture probabilities, not on the streaming
/// core.
pub fn stream_peak_bytes(events: u64, chunk_size: usize) -> u64 {
    let row = EventBuffer::bytes_per_event() as u64;
    let chunk_rows = (chunk_size as u64).min(events);
    let bucket_rows = (PROVIDER_BUCKET as u64).min(events);
    chunk_rows.max(bucket_rows) * row
}

/// Peak event-row bytes a run holds under `config`'s memory budget:
/// the rows the budget governs. In core that is the sorted cache as it
/// is built ([`EcosystemConfig::cache_peak_bytes`]). Out of core it is
/// the widest of three buffers that are never resident together — the
/// collection chunk and the provider bucket (struct-of-arrays rows, at
/// most [`taster_ecosystem::spill::MAX_READ_ROWS`] per read) and the
/// sort run (encoded spill rows) — each clamped to
/// [`EcosystemConfig::budget_rows`].
///
/// Left out: the per-second time histogram of the sort (4 bytes per
/// second of the horizon, ~37 MB at the default 92 days), the sort's
/// fixed I/O blocks, its single-pass run floor
/// ([`taster_ecosystem::spill::run_rows`], about √(683 n) rows) where
/// that exceeds the budget, and everything that is not an event row:
/// the domain universe, campaigns, feeds, crawl and analysis state.
///
/// [`EcosystemConfig::cache_peak_bytes`]: taster_ecosystem::EcosystemConfig::cache_peak_bytes
/// [`EcosystemConfig::budget_rows`]: taster_ecosystem::EcosystemConfig::budget_rows
pub fn budget_peak_bytes(
    config: &taster_ecosystem::EcosystemConfig,
    events: u64,
    chunk_size: usize,
) -> u64 {
    use taster_ecosystem::spill::{MAX_READ_ROWS, MAX_RUN_ROWS, ROW_BYTES};
    if config.wants_cache(events) {
        return taster_ecosystem::EcosystemConfig::cache_peak_bytes(events);
    }
    let row = EventBuffer::bytes_per_event() as u64;
    let budget = (config.budget_rows(events) as u64).min(events);
    let read = budget.min(MAX_READ_ROWS as u64);
    let chunk_rows = (chunk_size as u64).min(read);
    let bucket_rows = (PROVIDER_BUCKET as u64).min(read);
    let sort_bytes = (MAX_RUN_ROWS as u64).min(budget) * ROW_BYTES as u64;
    (chunk_rows.max(bucket_rows) * row).max(sort_bytes)
}

/// Collect-stage throughput in events per second (0 when the stage
/// recorded no time).
pub fn events_per_sec(events: u64, collect_secs: f64) -> f64 {
    if collect_secs > 0.0 {
        events as f64 / collect_secs
    } else {
        0.0
    }
}

/// Renders the `BENCH_pipeline.json` document: one entry per scale,
/// each with its event count, chunk size, memory estimate, and
/// per-worker-count stage rows. Every canonical stage key
/// ([`STAGE_KEYS`](taster_sim::metrics::STAGE_KEYS)) appears as a
/// `<stage>_secs` field in each run row; speedups are relative to the
/// scale's first row.
pub fn bench_json_string(seed: u64, reps: usize, scales: &[ScaleBench]) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup = |base: f64, now: f64| if now > 0.0 { base / now } else { 0.0 };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"pipeline_scaling\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"scales\": [\n");
    for (s, entry) in scales.iter().enumerate() {
        let outer_comma = if s + 1 < scales.len() { "," } else { "" };
        let base = entry.rows.first().copied().unwrap_or(StageBench {
            workers: 1,
            collect: 1.0,
            blacklist: 0.0,
            crawl: 0.0,
            classify: 1.0,
            collect_faulted: 0.0,
            classify_faulted: 0.0,
            coverage: 1.0,
            purity: 0.0,
            proportionality: 0.0,
            timing: 0.0,
        });
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"scenario\": \"{}\",", entry.scenario_name);
        let _ = writeln!(json, "      \"scale\": {},", entry.scale);
        let _ = writeln!(json, "      \"events\": {},", entry.events);
        let _ = writeln!(json, "      \"chunk_size\": {},", entry.chunk_size);
        let _ = writeln!(
            json,
            "      \"stream_peak_bytes\": {},",
            entry.stream_peak_bytes
        );
        let e2e = entry.end_to_end.unwrap_or(EndToEnd {
            generate: 0.0,
            render: 0.0,
            timed: 0.0,
            total: 0.0,
        });
        let _ = writeln!(json, "      \"generate_secs\": {:.6},", e2e.generate);
        let _ = writeln!(json, "      \"render_secs\": {:.6},", e2e.render);
        let _ = writeln!(json, "      \"total_secs\": {:.6},", e2e.total);
        let _ = writeln!(json, "      \"untimed_secs\": {:.6},", e2e.untimed());
        let _ = writeln!(
            json,
            "      \"replicate_secs\": {:.6},",
            entry.replicate_secs
        );
        json.push_str("      \"runs\": [\n");
        for (i, row) in entry.rows.iter().enumerate() {
            let comma = if i + 1 < entry.rows.len() { "," } else { "" };
            let fault_overhead = if row.pipeline() > 0.0 {
                (row.collect_faulted + row.classify_faulted) / row.pipeline()
            } else {
                0.0
            };
            let _ = writeln!(
                json,
                "        {{\"workers\": {}, \
                 \"collect_secs\": {:.6}, \
                 \"collect_speedup\": {:.3}, \
                 \"events_per_sec\": {:.1}, \
                 \"blacklist_secs\": {:.6}, \
                 \"crawl_secs\": {:.6}, \
                 \"classify_secs\": {:.6}, \
                 \"classify_speedup\": {:.3}, \
                 \"collect_faulted_secs\": {:.6}, \
                 \"classify_faulted_secs\": {:.6}, \
                 \"fault_overhead\": {:.3}, \
                 \"coverage_secs\": {:.6}, \
                 \"purity_secs\": {:.6}, \
                 \"proportionality_secs\": {:.6}, \
                 \"timing_secs\": {:.6}, \
                 \"analyze_secs\": {:.6}, \
                 \"analyze_speedup\": {:.3}}}{comma}",
                row.workers,
                row.collect,
                speedup(base.collect, row.collect),
                events_per_sec(entry.events, row.collect),
                row.blacklist,
                row.crawl,
                row.classify,
                speedup(base.classify, row.classify),
                row.collect_faulted,
                row.classify_faulted,
                fault_overhead,
                row.coverage,
                row.purity,
                row.proportionality,
                row.timing,
                row.analyze(),
                speedup(base.analyze(), row.analyze()),
            );
        }
        json.push_str("      ]\n");
        let _ = writeln!(json, "    }}{outer_comma}");
    }
    json.push_str("  ]\n}\n");
    json
}

/// Measures the `collect` stage uninstrumented and instrumented over
/// the same world, best of `reps`, and returns `(off_secs, on_secs)`.
/// Both numbers come from registry clocks; only the *measured body*
/// differs (a disabled [`Obs`] vs. a metrics-recording one). The CI
/// overhead gate fails when `on / off - 1` exceeds its threshold.
pub fn collect_overhead(scenario: &Scenario, reps: usize) -> Result<(f64, f64), PipelineError> {
    let world = crate::build_world(scenario, &Obs::off())?;
    let par = scenario.parallelism;
    let plan = scenario.fault_plan();
    let off_clock = Obs::with(true, false);
    let on_clock = Obs::with(true, false);
    // The instrumented body records its own inner stages (collect,
    // blacklist); give it a registry separate from the outer probe
    // clocks so the inner `collect` minimum cannot overwrite the
    // whole-pipeline probe timing below.
    let instrumented = Obs::with(true, false);
    for _ in 0..reps {
        off_clock.stage(STAGE_COLLECT, || {
            try_collect_all_observed(&world, &scenario.feeds, &plan, &par, &Obs::off())
        })?;
        on_clock.stage(STAGE_COLLECT, || {
            try_collect_all_observed(&world, &scenario.feeds, &plan, &par, &instrumented)
        })?;
    }
    let g = |obs: &Obs| obs.metrics.timing(STAGE_COLLECT).unwrap_or(0.0);
    Ok((g(&off_clock), g(&on_clock)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario::default_paper()
            .with_scale(0.02)
            .with_seed(71)
            .with_threads(2)
    }

    #[test]
    fn profile_records_every_stage() {
        let exp = profile_scenario(&small()).expect("profile runs");
        for stage in taster_sim::metrics::STAGE_KEYS {
            assert!(
                exp.obs.metrics.timing(stage).is_some(),
                "stage {stage} missing from registry"
            );
        }
        let det = deterministic_profile(&exp);
        assert!(det.contains("span collect"));
        assert!(det.contains("counter   collect/events"));
        assert!(!det.contains("wall"), "wall time leaked: {det}");
        let tree = render_profile_tree(&exp);
        assert!(tree.contains("collect"));
    }

    #[test]
    fn bench_rows_and_json_cover_all_stages() {
        let scenario = small();
        let world = crate::build_world(&scenario, &Obs::off()).unwrap();
        let row = bench_stages(&world, &scenario, 2, 1).expect("bench runs");
        assert!(row.collect > 0.0 && row.classify > 0.0);
        let events = world.truth.log.len as u64;
        let entry = ScaleBench::new(0.02, &scenario.name, events, 64, vec![row]);
        assert!(entry.best_events_per_sec() > 0.0);
        let json = bench_json_string(scenario.seed, 1, &[entry]);
        for stage in taster_sim::metrics::STAGE_KEYS {
            assert!(
                json.contains(&format!("\"{stage}_secs\"")),
                "JSON missing {stage}_secs"
            );
        }
        assert!(json.contains("\"collect_faulted_secs\""));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"scale\": 0.02"));
        assert!(json.contains(&format!("\"events\": {events}")));
        assert!(json.contains("\"chunk_size\": 64"));
        assert!(json.contains("\"stream_peak_bytes\""));
        assert!(json.contains("\"replicate_secs\": 0.000000"));
        let timed =
            ScaleBench::new(0.02, &scenario.name, events, 64, Vec::new()).with_replicate_secs(1.25);
        let json = bench_json_string(scenario.seed, 1, &[timed]);
        assert!(json.contains("\"replicate_secs\": 1.250000"));
    }

    #[test]
    fn stream_peak_estimate_tracks_chunk_and_bucket() {
        let row = EventBuffer::bytes_per_event() as u64;
        // Tiny log: both buffers clamp to the event count.
        assert_eq!(stream_peak_bytes(10, 1 << 20), 10 * row);
        // Paper-scale log: the provider bucket dominates a small chunk.
        let events = 4_000_000u64;
        let expect = (PROVIDER_BUCKET as u64) * row;
        assert_eq!(stream_peak_bytes(events, 1024), expect);
        // A chunk wider than the bucket dominates instead, clamped to
        // the log length.
        let wide = 1 << 22;
        assert_eq!(stream_peak_bytes(events, wide), events * row);
        assert_eq!(events_per_sec(100, 0.0), 0.0);
        assert!((events_per_sec(100, 2.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn budget_peak_respects_cache_and_budget() {
        use taster_ecosystem::EcosystemConfig;
        let mut config = EcosystemConfig::default();
        let events = 4_000_000u64;
        // Default budget caches the whole log.
        assert_eq!(
            budget_peak_bytes(&config, events, 65_536),
            EcosystemConfig::cache_peak_bytes(events)
        );
        // A tight budget streams, and the estimate obeys it.
        let budget = 64u64 << 20;
        config.max_mem_bytes = Some(budget);
        let peak = budget_peak_bytes(&config, events, 65_536);
        assert!(peak <= budget, "peak {peak} over budget {budget}");
        assert!(peak < EcosystemConfig::cache_peak_bytes(events));
    }

    #[test]
    fn overhead_measures_both_modes() {
        let (off, on) = collect_overhead(&small(), 1).expect("overhead run");
        assert!(off > 0.0 && on > 0.0);
    }
}
