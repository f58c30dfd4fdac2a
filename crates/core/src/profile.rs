//! The `taster profile` driver and the `BENCH_pipeline.json` it writes.
//!
//! A profile run is one fully-observed experiment: every pipeline
//! stage executes under a trace span, and counters/histograms
//! accumulate as usual. Three renderings come out of it:
//!
//! * [`deterministic_profile`] — span tree + metrics, **no wall
//!   times**; bit-identical at any worker count (what the golden
//!   harness snapshots).
//! * [`render_profile_tree`] — every span's wall and self seconds
//!   (what `taster profile` prints for humans).
//! * [`bench_json_string`] — `BENCH_pipeline.json`, whose per-stage
//!   `<stage>_secs` keys are the top-level spans of that same tree, so
//!   the two can never disagree.

use std::fmt::Write as _;

use crate::experiment::Experiment;
use crate::scenario::Scenario;
use taster_ecosystem::buffer::EventBuffer;
use taster_feeds::{try_collect_all_observed, PipelineError};
use taster_mailsim::provider::PROVIDER_BUCKET;
use taster_sim::{MetricsRegistry, Obs, SpanTiming, Stage};

/// The deterministic profile view: the span/event tree (attributes, no
/// wall times) followed by the metrics render.
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

/// One profiled run's wall accounting: its span tree and the outer
/// clock around the whole run, plus the facts of the world it ran
/// over. Every stage time is read from the spans, so `untimed` is
/// exactly the wall time the stage inventory misses.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Full scenario name (seed and scale included).
    pub scenario: String,
    /// Worker count of the parallel stages.
    pub workers: usize,
    /// Ground-truth event count.
    pub events: u64,
    /// Event-chunk rows per collection read.
    pub chunk_size: usize,
    /// Peak event-row bytes under the run's memory budget
    /// ([`budget_peak_bytes`]).
    pub budget_peak_bytes: u64,
    /// The process's measured peak resident set when the run ended
    /// ([`peak_rss_bytes`]). It is the process's running high-water
    /// mark, not this run's own: across a `--scale` list each entry
    /// holds the peak of every run so far.
    pub peak_rss_bytes: u64,
    /// Every completed span in execution order; depth 0 is a stage.
    pub spans: Vec<SpanTiming>,
    /// Total wall time of the run, seconds.
    pub total: f64,
}

impl EndToEnd {
    /// Wall seconds of `stage`: its top-level spans, summed (0 when
    /// the stage did not run).
    pub fn stage(&self, stage: Stage) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0 && s.name == stage.name())
            .map(|s| s.wall_secs)
            .sum()
    }

    /// Wall time not attributed to any canonical stage, seconds.
    pub fn untimed(&self) -> f64 {
        let timed: f64 = Stage::ALL.iter().map(|&s| self.stage(s)).sum();
        (self.total - timed).max(0.0)
    }

    /// Untimed share of the total (0 when the total is 0).
    pub fn untimed_fraction(&self) -> f64 {
        ratio(self.untimed(), self.total)
    }

    /// End-to-end throughput: events per second of the whole run.
    pub fn events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.total)
    }

    /// Collect-stage throughput in events per second (the CI
    /// perf-smoke floor reads this).
    pub fn collect_events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.stage(Stage::Collect))
    }
}

/// `num / den`, or 0 when nothing was measured (`den` is 0).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `scenario` once fully observed — metrics, tracing and the one
/// render that runs every analysis, a span per report section — and
/// accounts its span tree against a stopwatch around the whole run.
/// The experiment's [`Experiment::obs`] holds the complete profile.
pub fn run_end_to_end(scenario: &Scenario) -> Result<(Experiment, EndToEnd), PipelineError> {
    let clock = MetricsRegistry::stopwatch();
    let exp = Experiment::try_run_observed(scenario, Obs::on())?;
    std::hint::black_box(exp.try_render_report()?.len());
    let total = clock.elapsed_secs();
    let events = exp.world.truth.log.len as u64;
    let chunk_size = exp.scenario.feeds.chunk_size;
    let e2e = EndToEnd {
        scenario: exp.scenario.name.clone(),
        workers: exp.scenario.parallelism.workers(),
        events,
        chunk_size,
        budget_peak_bytes: budget_peak_bytes(&exp.scenario.ecosystem, events, chunk_size),
        peak_rss_bytes: peak_rss_bytes(),
        spans: exp.obs.trace.span_timings(),
        total,
    };
    Ok((exp, e2e))
}

/// Peak event-row bytes a run holds under `config`'s memory budget:
/// the rows the budget governs. In core that is the sorted cache as it
/// is built ([`EcosystemConfig::cache_peak_bytes`]). Out of core it is
/// the widest of three buffers that are never resident together — the
/// collection chunk and the provider bucket (struct-of-arrays rows, at
/// most [`taster_ecosystem::spill::MAX_READ_ROWS`] per read) and the
/// sort run (16-byte rows) — each clamped to
/// [`EcosystemConfig::budget_rows`].
///
/// Left out: both sorts' row counts per bucket of 2¹¹ seconds (a few
/// thousand counters) and one-bucket scratch buffer, the spill sort's
/// fixed I/O blocks, its single-pass run floor
/// ([`taster_ecosystem::spill::run_rows`], about √(1024 n) rows) where
/// that exceeds the budget, a run widened to one bucket with more rows
/// than that (a bucket's rows grow as n, the floor as √n, so only logs
/// far larger than scale 10's have one), and everything that is not an
/// event row: the domain universe, campaigns, feeds, crawl and analysis
/// state.
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

/// The process's peak resident set so far, in bytes: `VmHWM` from
/// `/proc/self/status`, or 0 where that cannot be read.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Renders the `BENCH_pipeline.json` document: one entry per
/// `(scale, run)`, each with its world's event count, chunk size and
/// memory figures (modelled and measured), its end-to-end and
/// collect-stage throughput, every canonical stage ([`Stage::ALL`]) as
/// `<stage>_secs`, and the whole span tree with wall and self seconds.
pub fn bench_json_string(seed: u64, runs: &[(f64, EndToEnd)]) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"pipeline_scaling\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    json.push_str("  \"scales\": [\n");
    for (s, (scale, run)) in runs.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"scenario\": \"{}\",", run.scenario);
        let _ = writeln!(json, "      \"scale\": {scale},");
        let _ = writeln!(json, "      \"workers\": {},", run.workers);
        let _ = writeln!(json, "      \"events\": {},", run.events);
        let _ = writeln!(json, "      \"chunk_size\": {},", run.chunk_size);
        let _ = writeln!(
            json,
            "      \"budget_peak_bytes\": {},",
            run.budget_peak_bytes
        );
        let _ = writeln!(json, "      \"peak_rss_bytes\": {},", run.peak_rss_bytes);
        let _ = writeln!(json, "      \"total_secs\": {:.6},", run.total);
        let _ = writeln!(json, "      \"untimed_secs\": {:.6},", run.untimed());
        let _ = writeln!(
            json,
            "      \"events_per_sec\": {:.1},",
            run.events_per_sec()
        );
        let _ = writeln!(
            json,
            "      \"collect_events_per_sec\": {:.1},",
            run.collect_events_per_sec()
        );
        for stage in Stage::ALL {
            let key = stage.name();
            let _ = writeln!(json, "      \"{key}_secs\": {:.6},", run.stage(stage));
        }
        json.push_str("      \"spans\": [\n");
        for (i, span) in run.spans.iter().enumerate() {
            let comma = if i + 1 < run.spans.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        {{\"name\": \"{}\", \"depth\": {}, \"wall_secs\": {:.6}, \"self_secs\": {:.6}}}{comma}",
                span.name, span.depth, span.wall_secs, span.self_secs
            );
        }
        json.push_str("      ]\n");
        let comma = if s + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ]\n}\n");
    json
}

/// Measures the `collect` stage uninstrumented and instrumented over
/// the same world, best of `reps` (at least one), and returns
/// `(off_secs, on_secs)`. Both numbers come from the same stopwatch;
/// only the *measured body* differs (a disabled [`Obs`] vs. a
/// metrics-recording one). The CI overhead gate fails when
/// `on / off - 1` exceeds its threshold.
pub fn collect_overhead(scenario: &Scenario, reps: usize) -> Result<(f64, f64), PipelineError> {
    let world = crate::build_world(scenario, &Obs::off())?;
    let par = scenario.parallelism;
    let plan = scenario.fault_plan();
    let instrumented = Obs::with(true, false);
    let time = |obs: &Obs| -> Result<f64, PipelineError> {
        let clock = MetricsRegistry::stopwatch();
        let _feeds = try_collect_all_observed(&world, &scenario.feeds, &plan, &par, obs)?;
        Ok(clock.elapsed_secs())
    };
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        off = off.min(time(&Obs::off())?);
        on = on.min(time(&instrumented)?);
    }
    Ok((off, on))
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

    fn span(name: &str, depth: usize, wall_secs: f64) -> SpanTiming {
        SpanTiming {
            name: name.to_string(),
            depth,
            wall_secs,
            self_secs: wall_secs,
        }
    }

    #[test]
    fn profile_records_every_stage_as_a_top_level_span() {
        let (exp, e2e) = run_end_to_end(&small()).expect("profile runs");
        // The stages are the top-level spans, in pipeline order, and
        // the render (the last) has one child per report section.
        let top: Vec<&str> = e2e
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(top, Stage::ALL.map(Stage::name));
        let sections: Vec<&str> = e2e
            .spans
            .iter()
            .skip_while(|s| s.name != "render")
            .filter(|s| s.depth == 1)
            .map(|s| s.name.as_str())
            .collect();
        let want: Vec<String> = crate::report::SECTIONS
            .iter()
            .map(|s| format!("render/{}", s.name))
            .collect();
        assert_eq!(sections, want);
        assert!(e2e.total >= e2e.stage(Stage::Generate) + e2e.stage(Stage::Render));
        let det = deterministic_profile(&exp);
        assert!(det.contains("span collect"));
        assert!(det.contains("counter   collect/events"));
        assert!(!det.contains("wall"), "wall time leaked: {det}");
        let tree = render_profile_tree(&exp);
        assert!(tree.contains("collect"));
    }

    #[test]
    fn end_to_end_sums_top_level_spans_only() {
        let e2e = EndToEnd {
            scenario: "s".to_string(),
            workers: 1,
            events: 100,
            chunk_size: 64,
            budget_peak_bytes: 0,
            peak_rss_bytes: 0,
            spans: vec![
                span("collect", 0, 1.0),
                span("collect", 1, 0.5),
                span("collect", 0, 1.0),
                span("unregistered", 0, 3.0),
            ],
            total: 10.0,
        };
        assert_eq!(e2e.stage(Stage::Collect), 2.0);
        assert_eq!(e2e.stage(Stage::Render), 0.0);
        assert_eq!(e2e.untimed(), 8.0);
        assert_eq!(e2e.untimed_fraction(), 0.8);
        assert_eq!(e2e.events_per_sec(), 10.0);
        assert_eq!(e2e.collect_events_per_sec(), 50.0);
        let idle = EndToEnd {
            spans: Vec::new(),
            total: 0.0,
            ..e2e
        };
        assert_eq!(idle.events_per_sec(), 0.0);
        assert_eq!(idle.untimed_fraction(), 0.0);
    }

    #[test]
    fn bench_json_covers_every_stage_and_span() {
        let (exp, e2e) = run_end_to_end(&small()).expect("profile runs");
        let events = exp.world.truth.log.len as u64;
        let peak = budget_peak_bytes(
            &exp.scenario.ecosystem,
            events,
            exp.scenario.feeds.chunk_size,
        );
        let json = bench_json_string(exp.scenario.seed, &[(0.02, e2e)]);
        for stage in Stage::ALL {
            let key = stage.name();
            assert!(
                json.contains(&format!("\"{key}_secs\"")),
                "JSON missing {key}_secs"
            );
        }
        assert!(json.contains("\"scale\": 0.02"));
        assert!(json.contains(&format!("\"events\": {events}")));
        assert!(json.contains(&format!("\"budget_peak_bytes\": {peak}")));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"collect_events_per_sec\""));
        assert!(json.contains("{\"name\": \"generate/ground_truth\", \"depth\": 1"));
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
