//! `taster ab`: paired A/B comparison of two collector or ecosystem
//! configurations.
//!
//! Both arms replicate over the *same* derived seed list (the
//! treatment arm is re-anchored to the baseline's master seed), so
//! each replicate index is a paired observation: identical spam
//! universe, different configuration. Per metric the comparison
//! reports control/treatment means, absolute and relative effect, a
//! keyed percentile+BCa bootstrap CI on the mean paired difference,
//! and paired-t / Welch-t p-values — rendered as an experiment table
//! in the house report style.

use crate::replicate::{replicate_observed, ReplicateOptions, Replication};
use crate::report::{fmt_bounds, fmt_opt, fmt_p};
use crate::scenario::Scenario;
use std::fmt::Write as _;
use taster_feeds::PipelineError;
use taster_sim::{FaultProfile, Obs};
use taster_stats::infer::{bootstrap_ci_keyed, paired_t, welch_t, BootstrapCi, TTest};
use taster_stats::summary::mean;

/// `write!` into a `String` cannot fail.
macro_rules! w {
    ($($arg:tt)*) => { let _ = write!($($arg)*); };
}

/// The named scenario vocabulary of `taster ab`: presets, ablations
/// and (batch-relevant) fault profiles, resolvable by CLI name.
pub const NAMED_SCENARIOS: [&str; 9] = [
    "paper",
    "quiet-world",
    "poison-heavy",
    "short-window",
    "no-poisoning",
    "no-provider-filter",
    "unrestricted-blacklists",
    "broad-ac2",
    "<fault profile>",
];

/// Resolves a CLI scenario name at `scale` and `seed`. Accepts the
/// paper default (`paper`/`default`/`clean`), the presets, the four
/// ablations, and any canonical *batch* fault profile (serve-only
/// storm profiles are rejected — they cannot move a collection
/// metric). Returns `None` for unknown names.
pub fn scenario_by_name(name: &str, scale: f64, seed: u64) -> Option<Scenario> {
    let scaled = |s: Scenario| s.with_scale(scale).with_seed(seed);
    Some(match name {
        "paper" | "default" | "clean" => scaled(Scenario::default_paper()),
        "quiet-world" => scaled(Scenario::quiet_world()),
        "poison-heavy" => scaled(Scenario::poison_heavy()),
        "short-window" => scaled(Scenario::short_window()),
        "no-poisoning" => scaled(Scenario::default_paper()).without_poisoning(),
        "no-provider-filter" => scaled(Scenario::default_paper()).without_provider_filter(),
        "unrestricted-blacklists" => {
            scaled(Scenario::default_paper()).with_unrestricted_blacklists()
        }
        "broad-ac2" => scaled(Scenario::default_paper()).with_broad_ac2_seeding(),
        other => {
            let profile = FaultProfile::by_name(other)?;
            if profile.is_serve_only() {
                return None;
            }
            scaled(Scenario::default_paper()).with_faults(profile)
        }
    })
}

/// One metric's paired comparison row.
#[derive(Debug, Clone)]
pub struct AbRow {
    /// Metric name.
    pub name: String,
    /// Number of paired replicates (both arms defined the metric).
    pub pairs: usize,
    /// Baseline mean over the paired replicates.
    pub control_mean: Option<f64>,
    /// Treatment mean over the paired replicates.
    pub treatment_mean: Option<f64>,
    /// Mean paired difference (treatment − control).
    pub effect: Option<f64>,
    /// Effect relative to the control mean (`None` near zero control).
    pub relative_effect: Option<f64>,
    /// Keyed bootstrap CI on the mean paired difference.
    pub ci: Option<BootstrapCi>,
    /// Paired t-test on the differences.
    pub paired: Option<TTest>,
    /// Welch t-test of the two (paired-subset) samples.
    pub welch: Option<TTest>,
}

/// A fully-executed A/B comparison.
#[derive(Debug, Clone)]
pub struct AbComparison {
    /// The baseline arm's replication.
    pub baseline: Replication,
    /// The treatment arm's replication (same derived seed list).
    pub treatment: Replication,
    /// Per-metric paired rows, in metric-column order.
    pub rows: Vec<AbRow>,
}

/// Runs the paired A/B comparison. The baseline scenario's seed is the
/// master seed of *both* arms; the treatment scenario's own seed is
/// ignored so the pairing holds by construction.
pub fn ab_compare(
    baseline: &Scenario,
    treatment: &Scenario,
    options: ReplicateOptions,
    obs: &Obs,
) -> Result<AbComparison, PipelineError> {
    let treatment = treatment.clone().with_seed(baseline.seed);
    let base_rep = replicate_observed(baseline, options, obs)?;
    let treat_rep = replicate_observed(&treatment, options, obs)?;
    let rows = paired_rows(&base_rep, &treat_rep);
    obs.metrics.add("replicate/ab_rows", rows.len() as u64);
    Ok(AbComparison {
        baseline: base_rep,
        treatment: treat_rep,
        rows,
    })
}

/// Builds the per-metric paired rows from two same-layout replications.
fn paired_rows(base: &Replication, treat: &Replication) -> Vec<AbRow> {
    let master = base.scenario.seed;
    base.samples
        .names()
        .iter()
        .enumerate()
        .map(|(m, name)| {
            let mut control = Vec::new();
            let mut treatment = Vec::new();
            for row in 0..base.samples.rows().min(treat.samples.rows()) {
                if let (Some(c), Some(t)) =
                    (base.samples.value(row, m), treat.samples.value(row, m))
                {
                    control.push(c);
                    treatment.push(t);
                }
            }
            let diffs: Vec<f64> = control.iter().zip(&treatment).map(|(c, t)| t - c).collect();
            let control_mean = mean(&control);
            let treatment_mean = mean(&treatment);
            let effect = mean(&diffs);
            let relative_effect = match (effect, control_mean) {
                (Some(e), Some(c)) if c.abs() > 1e-12 => Some(e / c.abs()),
                _ => None,
            };
            let ci_key = format!("ab/{name}");
            let ci = bootstrap_ci_keyed(
                &diffs,
                mean,
                base.options.resamples,
                base.options.level,
                |r| crate::replicate::resample_stream(master, &ci_key, r),
            );
            AbRow {
                name: name.clone(),
                pairs: diffs.len(),
                control_mean,
                treatment_mean,
                effect,
                relative_effect,
                ci,
                paired: paired_t(&control, &treatment),
                welch: welch_t(&control, &treatment),
            }
        })
        .collect()
}

/// Relative-effect cell: signed percent with one decimal.
fn fmt_rel(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{:+.1}%", x * 100.0),
        _ => "-".to_string(),
    }
}

/// Renders the A/B experiment table in the house report style.
/// Deterministic at any worker count.
pub fn render_ab(ab: &AbComparison) -> String {
    let mut out = String::new();
    w!(
        out,
        "== A/B experiment (paired replicates)\n   baseline:  {}\n   treatment: {}\n",
        ab.baseline.scenario.name,
        ab.treatment.scenario.name
    );
    w!(
        out,
        "   replicates: {} paired seeds from master {} | resamples: {} | level: {}%\n",
        ab.baseline.options.seeds,
        ab.baseline.scenario.seed,
        ab.baseline.options.resamples,
        (ab.baseline.options.level * 100.0).round() as u64,
    );
    out.push('\n');
    w!(
        out,
        "{:<32} {:>2} {:>9} {:>9} {:>9} {:>8} {:>22} {:>9} {:>8}\n",
        "metric",
        "n",
        "control",
        "treat",
        "effect",
        "rel",
        "ci(effect) [low, high]",
        "p(pair)",
        "p(welch)",
    );
    let mut any_fallback = false;
    for row in &ab.rows {
        let ci = match &row.ci {
            Some(ci) => {
                let marker = if ci.bca_fell_back {
                    any_fallback = true;
                    "*"
                } else {
                    ""
                };
                format!("{}{marker}", fmt_bounds(ci.bca))
            }
            None => "-".to_string(),
        };
        w!(
            out,
            "{:<32} {:>2} {:>9} {:>9} {:>9} {:>8} {:>22} {:>9} {:>8}\n",
            row.name,
            row.pairs,
            fmt_opt(row.control_mean),
            fmt_opt(row.treatment_mean),
            fmt_opt(row.effect),
            fmt_rel(row.relative_effect),
            ci,
            fmt_p(row.paired.as_ref().map(|t| t.p_value)),
            fmt_p(row.welch.as_ref().map(|t| t.p_value)),
        );
    }
    if any_fallback {
        out.push_str("*  BCa undefined here; bounds fall back to the percentile interval\n");
    }
    out
}

/// JSON value for an optional float (`null` when undefined).
fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// Renders the A/B comparison as a deterministic JSON document (the
/// `--format json` form of `taster ab`).
pub fn render_ab_json(ab: &AbComparison) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    w!(out, "  \"kind\": \"ab\",\n");
    w!(out, "  \"baseline\": \"{}\",\n", ab.baseline.scenario.name);
    w!(
        out,
        "  \"treatment\": \"{}\",\n",
        ab.treatment.scenario.name
    );
    w!(out, "  \"master_seed\": {},\n", ab.baseline.scenario.seed);
    w!(out, "  \"seeds\": {},\n", ab.baseline.options.seeds);
    w!(out, "  \"resamples\": {},\n", ab.baseline.options.resamples);
    w!(out, "  \"level\": {},\n", ab.baseline.options.level);
    out.push_str("  \"metrics\": [\n");
    for (i, row) in ab.rows.iter().enumerate() {
        let comma = if i + 1 < ab.rows.len() { "," } else { "" };
        let (ci_low, ci_high, fell_back) = match &row.ci {
            Some(ci) => (
                json_opt(Some(ci.bca.0)),
                json_opt(Some(ci.bca.1)),
                ci.bca_fell_back,
            ),
            None => ("null".to_string(), "null".to_string(), false),
        };
        w!(
            out,
            "    {{\"name\": \"{}\", \"pairs\": {}, \"control\": {}, \"treatment\": {}, \
             \"effect\": {}, \"relative_effect\": {}, \
             \"ci_low\": {ci_low}, \"ci_high\": {ci_high}, \"bca_fell_back\": {fell_back}, \
             \"p_paired\": {}, \"p_welch\": {}}}{comma}\n",
            row.name,
            row.pairs,
            json_opt(row.control_mean),
            json_opt(row.treatment_mean),
            json_opt(row.effect),
            json_opt(row.relative_effect),
            json_opt(row.paired.as_ref().map(|t| t.p_value)),
            json_opt(row.welch.as_ref().map(|t| t.p_value)),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ReplicateOptions {
        ReplicateOptions {
            seeds: 2,
            resamples: 50,
            level: 0.95,
        }
    }

    fn small(name: &str) -> Scenario {
        scenario_by_name(name, 0.02, 11).unwrap().with_threads(2)
    }

    #[test]
    fn scenario_names_resolve() {
        for name in [
            "paper",
            "default",
            "clean",
            "quiet-world",
            "poison-heavy",
            "short-window",
            "no-poisoning",
            "no-provider-filter",
            "unrestricted-blacklists",
            "broad-ac2",
            "lossy-feeds",
            "flaky-crawler",
            "blackout",
            "off",
        ] {
            let s = scenario_by_name(name, 0.02, 7).unwrap();
            assert_eq!(s.seed, 7, "{name}");
            s.validate().unwrap();
        }
        assert!(scenario_by_name("no-such-scenario", 0.02, 7).is_none());
        // Serve-only storm profiles cannot move a batch metric.
        assert!(scenario_by_name("serve-query-storm", 0.02, 7).is_none());
    }

    #[test]
    fn arms_are_paired_on_the_baseline_master() {
        let ab = ab_compare(
            &small("paper"),
            &small("lossy-feeds").with_seed(999),
            opts(),
            &Obs::off(),
        )
        .unwrap();
        assert_eq!(ab.baseline.seeds, ab.treatment.seeds);
        assert_eq!(ab.treatment.scenario.seed, 11);
        assert_eq!(ab.rows.len(), ab.baseline.samples.metrics());
    }

    #[test]
    fn identical_arms_show_zero_effect() {
        let ab = ab_compare(&small("paper"), &small("paper"), opts(), &Obs::off()).unwrap();
        for row in &ab.rows {
            if row.pairs > 0 {
                assert_eq!(row.effect, Some(0.0), "{}", row.name);
                // Zero-variance differences: the paired test is
                // degenerate, not significant.
                assert!(row.paired.is_none(), "{}", row.name);
            }
        }
    }

    #[test]
    fn a_starved_treatment_moves_coverage() {
        // quiet-world starves the MX honeypots while the real-user feed
        // keeps seeing the quiet campaigns, so mx2's share of the live
        // union collapses — a structural effect, stable at any seed.
        let ab = ab_compare(&small("paper"), &small("quiet-world"), opts(), &Obs::off()).unwrap();
        let row = ab
            .rows
            .iter()
            .find(|r| r.name == "coverage/live/mx2")
            .unwrap();
        assert_eq!(row.pairs, 2);
        let effect = row.effect.unwrap();
        assert!(
            effect < 0.0,
            "starved honeypot should lose union share: {effect}"
        );
        let rel = row.relative_effect.unwrap();
        assert!(rel < 0.0, "{rel}");
    }

    #[test]
    fn renders_are_deterministic() {
        let run =
            || ab_compare(&small("paper"), &small("short-window"), opts(), &Obs::off()).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(render_ab(&a), render_ab(&b));
        assert_eq!(render_ab_json(&a), render_ab_json(&b));
        let text = render_ab(&a);
        assert!(text.contains("== A/B experiment (paired replicates)"));
        assert!(text.contains("p(pair)"));
        let json = render_ab_json(&a);
        assert!(json.contains("\"kind\": \"ab\""));
        assert!(json.contains("\"p_welch\""));
    }
}
