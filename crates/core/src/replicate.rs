//! `taster replicate`: N-seed replicated experiments with
//! deterministic bootstrap confidence intervals.
//!
//! A replication runs the same scenario under N independent master
//! seeds (each derived from the scenario seed by a keyed RNG stream,
//! so seed i of an N=8 run equals seed i of an N=4 run), collects
//! every headline report metric into a
//! [`taster_stats::infer::MetricSamples`] columnar
//! table, and attaches percentile + BCa bootstrap CIs to each metric.
//! Resampling indices come from streams keyed by `(seed, metric,
//! resample index)` — see [`resample_stream`] — so CI bounds are
//! bit-stable at any worker count.
//!
//! The replicate fan-out runs through the scenario's
//! [`taster_sim::Parallelism`] pool with each inner
//! experiment pinned to one worker: replicates are the parallel axis,
//! and every inner pipeline stage is bit-identical serial anyway.

use crate::experiment::Experiment;
use crate::report::{
    fmt_bca, fmt_bounds, fmt_level, fmt_opt, json_bounds, json_opt, w, BCA_FOOTNOTE,
};
use crate::scenario::Scenario;
use std::fmt::Write as _;
use taster_analysis::classify::Category;
use taster_analysis::timing::FIG9_FEEDS;
use taster_feeds::{FeedId, PipelineError};
use taster_sim::rng::{name_key, RngStream};
use taster_sim::Parallelism;
use taster_stats::infer::{bootstrap_ci_keyed, BootstrapCi, MetricSamples};
use taster_stats::summary::{fraction, mean, std_dev};

/// Stream-name key for per-replicate seed derivation.
const SEED_STREAM: &str = "replicate/seed";
/// Stream-name key for bootstrap resampling.
const RESAMPLE_STREAM: &str = "replicate/resample";

/// Knobs of a replicated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicateOptions {
    /// Number of replicate seeds.
    pub seeds: usize,
    /// Bootstrap resamples per metric.
    pub resamples: usize,
    /// Confidence level in `(0, 1)`.
    pub level: f64,
}

impl Default for ReplicateOptions {
    fn default() -> Self {
        ReplicateOptions {
            seeds: 8,
            resamples: 200,
            level: 0.95,
        }
    }
}

impl ReplicateOptions {
    /// Validates the option ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.seeds == 0 {
            return Err("replicate needs at least one seed".to_string());
        }
        if self.resamples == 0 {
            return Err("replicate needs at least one resample".to_string());
        }
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err("confidence level must be in (0, 1)".to_string());
        }
        Ok(())
    }
}

/// The i-th replicate's master seed, derived from the scenario seed by
/// a keyed stream. Depends only on `(master, index)`, so seed subsets
/// agree across different replicate counts.
pub fn replicate_seed(master: u64, index: u64) -> u64 {
    let mut out = [0u64; 1];
    RngStream::child_keyed(master, name_key(SEED_STREAM), index).fill_u64(&mut out);
    out[0]
}

/// The bootstrap resampling stream for `(master seed, metric, resample
/// index)`. Every resample owns a whole stream, so CI bounds cannot
/// depend on resample evaluation order or worker count.
pub fn resample_stream(master: u64, metric: &str, resample: u64) -> RngStream {
    RngStream::child_keyed2(
        master,
        name_key(RESAMPLE_STREAM),
        name_key(metric),
        resample,
    )
}

/// One metric's replication summary: sample moments plus the
/// percentile/BCa bootstrap CI of the mean (absent when fewer than one
/// replicate defined the metric).
#[derive(Debug, Clone)]
pub struct MetricCi {
    /// Metric name (column name in the samples table).
    pub name: String,
    /// Number of replicates that defined the metric.
    pub n: usize,
    /// Mean over the defined replicates.
    pub mean: Option<f64>,
    /// Sample standard deviation (n−1); `None` for n < 2.
    pub std_dev: Option<f64>,
    /// Bootstrap CI of the mean.
    pub ci: Option<BootstrapCi>,
}

/// A fully-executed replicated experiment.
#[derive(Debug, Clone)]
pub struct Replication {
    /// The base scenario (its seed is the replication master seed).
    pub scenario: Scenario,
    /// The options the replication ran under.
    pub options: ReplicateOptions,
    /// Per-replicate derived seeds, in replicate order.
    pub seeds: Vec<u64>,
    /// The columnar metric table: one row per replicate.
    pub samples: MetricSamples,
}

/// The fixed metric-column layout of a replication, in render order.
/// Static — the layout depends on the feed roster, never on a
/// particular run's data — so every replicate row lines up by
/// construction.
pub fn metric_names() -> Vec<String> {
    let mut names = vec![
        "exclusive_share/live".to_string(),
        "exclusive_share/tagged".to_string(),
    ];
    for id in FeedId::ALL {
        names.push(format!("coverage/live/{}", id.label()));
    }
    for id in FeedId::ALL {
        names.push(format!("coverage/tagged/{}", id.label()));
    }
    for id in FeedId::ALL {
        names.push(format!("purity/dns/{}", id.label()));
    }
    for id in FeedId::ALL {
        names.push(format!("purity/tagged/{}", id.label()));
    }
    for id in FeedId::WITH_VOLUME {
        names.push(format!("variation/mail/{}", id.label()));
    }
    for id in FeedId::WITH_VOLUME {
        names.push(format!("kendall/mail/{}", id.label()));
    }
    for id in FIG9_FEEDS {
        names.push(format!("timing/first_median_days/{}", id.label()));
    }
    names
}

/// Extracts one replicate's metric row, in [`metric_names`] order.
fn metric_values(e: &Experiment) -> Vec<Option<f64>> {
    let mut out: Vec<Option<f64>> = Vec::with_capacity(metric_names().len());
    out.push(Some(e.exclusive_share(Category::Live)));
    out.push(Some(e.exclusive_share(Category::Tagged)));
    let live_union = e.classified.union(&FeedId::ALL, Category::Live).len();
    let tagged_union = e.classified.union(&FeedId::ALL, Category::Tagged).len();
    let rows = e.table3();
    for id in FeedId::ALL {
        let total = rows
            .iter()
            .find(|r| r.feed == id)
            .map_or(0, |r| r.live.total);
        out.push(Some(fraction(total, live_union)));
    }
    for id in FeedId::ALL {
        let total = rows
            .iter()
            .find(|r| r.feed == id)
            .map_or(0, |r| r.tagged.total);
        out.push(Some(fraction(total, tagged_union)));
    }
    let purity = e.table2();
    for id in FeedId::ALL {
        out.push(purity.iter().find(|r| r.feed == id).map(|r| r.dns));
    }
    for id in FeedId::ALL {
        out.push(purity.iter().find(|r| r.feed == id).map(|r| r.tagged));
    }
    let variation = e.fig7();
    for id in FeedId::WITH_VOLUME {
        out.push(variation.try_get_extra(id).ok());
    }
    let kendall = e.fig8();
    for id in FeedId::WITH_VOLUME {
        out.push(kendall.try_get_extra(id).ok());
    }
    let first = e.fig9();
    for id in FIG9_FEEDS {
        out.push(first.iter().find(|(f, _)| *f == id).map(|(_, b)| b.median));
    }
    out
}

/// Runs a replicated experiment. The scenario's seed is the master
/// seed; its parallelism fans the replicates out.
pub fn replicate(
    scenario: &Scenario,
    options: ReplicateOptions,
) -> Result<Replication, PipelineError> {
    options.validate().map_err(PipelineError::InvalidScenario)?;
    scenario
        .validate()
        .map_err(PipelineError::InvalidScenario)?;
    let seeds: Vec<u64> = (0..options.seeds as u64)
        .map(|i| replicate_seed(scenario.seed, i))
        .collect();
    let runs = scenario.parallelism.par_map(seeds.clone(), |seed| {
        // Replicates are the parallel axis; each inner pipeline runs
        // serial (bit-identical to any worker count by design), so
        // total thread count stays bounded by the outer pool.
        let mut inner = scenario.clone().with_seed(seed);
        inner.parallelism = Parallelism::serial();
        Experiment::try_run(&inner).map(|e| metric_values(&e))
    });
    let mut samples = MetricSamples::new(metric_names());
    for run in runs {
        samples
            .push_row(run?)
            .map_err(PipelineError::InvalidScenario)?;
    }
    Ok(Replication {
        scenario: scenario.clone(),
        options,
        seeds,
        samples,
    })
}

impl Replication {
    /// Per-metric replication summaries with bootstrap CIs of the
    /// mean, in column order. Deterministic: resampling is keyed by
    /// `(master seed, metric name, resample index)`.
    pub fn metric_cis(&self) -> Vec<MetricCi> {
        let master = self.scenario.seed;
        self.samples
            .names()
            .iter()
            .enumerate()
            .map(|(m, name)| {
                let values = self.samples.defined(m);
                let ci = bootstrap_ci_keyed(
                    &values,
                    mean,
                    self.options.resamples,
                    self.options.level,
                    |r| resample_stream(master, name, r),
                );
                MetricCi {
                    name: name.clone(),
                    n: values.len(),
                    mean: mean(&values),
                    std_dev: std_dev(&values),
                    ci,
                }
            })
            .collect()
    }
}

/// Renders a replication in the house report style: a per-seed
/// headline table followed by the CI-annotated metric table.
/// Deterministic at any worker count.
pub fn render_replication(rep: &Replication) -> String {
    let mut out = String::new();
    w!(
        out,
        "== Replicated experiment\n   scenario: {}\n",
        rep.scenario.name
    );
    w!(
        out,
        "   replicates: {} seeds from master {} | resamples: {} | level: {}%\n",
        rep.options.seeds,
        rep.scenario.seed,
        rep.options.resamples,
        fmt_level(rep.options.level)
    );
    out.push('\n');
    out.push_str("-- per-seed headline metrics\n");
    w!(
        out,
        "{:>3} {:>20} {:>12} {:>12} {:>13} {:>13}\n",
        "rep",
        "seed",
        "excl(live)",
        "excl(tag)",
        "var(Hu~Mail)",
        "tau(Hu~Mail)"
    );
    let headline = [
        "exclusive_share/live",
        "exclusive_share/tagged",
        "variation/mail/Hu",
        "kendall/mail/Hu",
    ]
    .map(|name| rep.samples.index_of(name));
    for (row, seed) in rep.seeds.iter().enumerate() {
        let cell = |idx: Option<usize>| fmt_opt(idx.and_then(|m| rep.samples.value(row, m)));
        w!(
            out,
            "{row:>3} {seed:>20} {:>12} {:>12} {:>13} {:>13}\n",
            cell(headline[0]),
            cell(headline[1]),
            cell(headline[2]),
            cell(headline[3]),
        );
    }
    out.push('\n');
    out.push_str("-- bootstrap confidence intervals (mean over seeds)\n");
    let lvl = fmt_level(rep.options.level);
    w!(
        out,
        "{:<32} {:>2} {:>9} {:>9} {:>20} {:>21}\n",
        "metric",
        "n",
        "mean",
        "sd",
        format!("pct{lvl} [low, high]"),
        format!("BCa{lvl} [low, high]"),
    );
    let mut marked = false;
    for row in rep.metric_cis() {
        let (pct, bca) = match &row.ci {
            Some(ci) => (fmt_bounds(ci.percentile), fmt_bca(ci, &mut marked)),
            None => ("-".to_string(), "-".to_string()),
        };
        w!(
            out,
            "{:<32} {:>2} {:>9} {:>9} {:>20} {:>21}\n",
            row.name,
            row.n,
            fmt_opt(row.mean),
            fmt_opt(row.std_dev),
            pct,
            bca,
        );
    }
    if marked {
        out.push_str(BCA_FOOTNOTE);
    }
    out
}

/// Renders a replication as a deterministic JSON document (the
/// `--format json` form of `taster replicate`).
pub fn render_replication_json(rep: &Replication) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    w!(out, "  \"kind\": \"replicate\",\n");
    w!(out, "  \"scenario\": \"{}\",\n", rep.scenario.name);
    w!(out, "  \"master_seed\": {},\n", rep.scenario.seed);
    w!(
        out,
        "  \"seeds\": [{}],\n",
        rep.seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    w!(out, "  \"resamples\": {},\n", rep.options.resamples);
    w!(out, "  \"level\": {},\n", rep.options.level);
    out.push_str("  \"metrics\": [\n");
    let cis = rep.metric_cis();
    for (m, row) in cis.iter().enumerate() {
        let comma = if m + 1 < cis.len() { "," } else { "" };
        let (pct_low, pct_high) = json_bounds(row.ci.as_ref().map(|ci| ci.percentile));
        let (bca_low, bca_high) = json_bounds(row.ci.as_ref().map(|ci| ci.bca));
        let fell_back = row.ci.as_ref().is_some_and(|ci| ci.bca_fell_back);
        let values = rep
            .samples
            .column(m)
            .into_iter()
            .map(json_opt)
            .collect::<Vec<_>>()
            .join(", ");
        w!(
            out,
            "    {{\"name\": \"{}\", \"n\": {}, \"mean\": {}, \"sd\": {}, \
             \"pct_low\": {pct_low}, \"pct_high\": {pct_high}, \
             \"bca_low\": {bca_low}, \"bca_high\": {bca_high}, \
             \"bca_fell_back\": {fell_back}, \"values\": [{values}]}}{comma}\n",
            row.name,
            row.n,
            json_opt(row.mean),
            json_opt(row.std_dev),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario::default_paper()
            .with_scale(0.02)
            .with_seed(11)
            .with_threads(2)
    }

    fn opts(seeds: usize) -> ReplicateOptions {
        ReplicateOptions {
            seeds,
            resamples: 50,
            level: 0.95,
        }
    }

    #[test]
    fn layout_is_static_and_rows_fill_it() {
        let names = metric_names();
        assert_eq!(names.len(), 2 + 4 * 10 + 2 * 6 + 8);
        let rep = replicate(&small(), opts(2)).unwrap();
        assert_eq!(rep.samples.rows(), 2);
        assert_eq!(rep.samples.metrics(), names.len());
        assert_eq!(rep.samples.names(), &names[..]);
        // The always-defined columns really are defined for every row.
        for metric in ["exclusive_share/live", "coverage/tagged/dbl"] {
            let m = rep.samples.index_of(metric).unwrap();
            assert_eq!(rep.samples.defined(m).len(), 2, "{metric}");
        }
    }

    #[test]
    fn derived_seeds_are_subset_stable() {
        for i in 0..8u64 {
            assert_eq!(replicate_seed(11, i), replicate_seed(11, i));
        }
        assert_ne!(replicate_seed(11, 0), replicate_seed(11, 1));
        assert_ne!(replicate_seed(11, 0), replicate_seed(12, 0));
        // The master seed itself is not replicated verbatim: replicate
        // 0 is an independent universe, not the base run.
        assert_ne!(replicate_seed(11, 0), 11);
    }

    #[test]
    fn invalid_options_are_typed_errors() {
        assert!(replicate(&small(), opts(0)).is_err());
        let mut o = opts(2);
        o.resamples = 0;
        assert!(replicate(&small(), o).is_err());
        let mut o = opts(2);
        o.level = 1.0;
        assert!(replicate(&small(), o).is_err());
    }

    #[test]
    fn cis_are_deterministic_and_bracket_means() {
        let rep = replicate(&small(), opts(3)).unwrap();
        let a = rep.metric_cis();
        let b = rep.metric_cis();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ci.is_some(), y.ci.is_some(), "{}", x.name);
            if let (Some(cx), Some(cy)) = (&x.ci, &y.ci) {
                assert_eq!(cx, cy, "{}", x.name);
                assert!(cx.percentile.0 <= cx.percentile.1, "{}", x.name);
            }
        }
        let m = rep.samples.index_of("coverage/live/Hu").unwrap();
        let row = &a[m];
        assert_eq!(row.n, 3);
        let ci = row.ci.as_ref().unwrap();
        assert!(ci.percentile.0 <= ci.estimate && ci.estimate <= ci.percentile.1);
    }

    #[test]
    fn renders_are_stable_across_worker_counts() {
        let opts = opts(2);
        let base = replicate(&small().with_threads(1), opts).unwrap();
        let wide = replicate(&small().with_threads(8), opts).unwrap();
        assert_eq!(render_replication(&base), render_replication(&wide));
        assert_eq!(
            render_replication_json(&base),
            render_replication_json(&wide)
        );
        let text = render_replication(&base);
        assert!(text.contains("== Replicated experiment"));
        assert!(text.contains("pct95 [low, high]"));
        let json = render_replication_json(&base);
        assert!(json.contains("\"kind\": \"replicate\""));
        assert!(json.contains("\"bca_fell_back\""));
    }
}
