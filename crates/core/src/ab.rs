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

use crate::replicate::{replicate, ReplicateOptions, Replication};
use crate::report::{
    fmt_bca, fmt_level, fmt_opt, fmt_p, json_bounds, json_opt, w, write_table, BCA_FOOTNOTE,
};
use crate::scenario::Scenario;
use std::fmt::Write as _;
use taster_feeds::PipelineError;
use taster_sim::FaultProfile;
use taster_stats::infer::{bootstrap_ci_keyed, paired_t, welch_t, BootstrapCi, TTest};
use taster_stats::summary::mean;

/// A scenario name and how to build the scenario at a scale.
type NamedScenario = (&'static str, fn(f64) -> Scenario);

/// The named scenarios of `taster ab` beside the fault profiles: the
/// paper default, the presets and the four ablations.
#[rustfmt::skip]
const NAMED_SCENARIOS: &[NamedScenario] = &[
    ("paper", paper),
    ("default", paper),
    ("quiet-world", |x| Scenario::quiet_world().with_scale(x)),
    ("poison-heavy", |x| Scenario::poison_heavy().with_scale(x)),
    ("short-window", |x| Scenario::short_window().with_scale(x)),
    ("no-poisoning", |x| paper(x).without_poisoning()),
    ("no-provider-filter", |x| paper(x).without_provider_filter()),
    ("unrestricted-blacklists", |x| paper(x).with_unrestricted_blacklists()),
    ("broad-ac2", |x| paper(x).with_broad_ac2_seeding()),
];

/// The paper default at `scale`.
fn paper(scale: f64) -> Scenario {
    Scenario::default_paper().with_scale(scale)
}

/// Resolves a scenario name at `scale` and `seed`: the paper default
/// (`paper`, `default`), a preset, an ablation, or the paper default
/// under a fault profile. Any other name is refused with a list of the
/// names that resolve.
pub fn scenario_by_name(name: &str, scale: f64, seed: u64) -> Result<Scenario, String> {
    if let Some((_, build)) = NAMED_SCENARIOS.iter().find(|(n, _)| *n == name) {
        return Ok(build(scale).with_seed(seed));
    }
    if let Some(profile) = FaultProfile::by_name(name) {
        return Ok(paper(scale).with_faults(profile).with_seed(seed));
    }
    let named: Vec<&str> = NAMED_SCENARIOS.iter().map(|(n, _)| *n).collect();
    Err(format!(
        "unknown scenario {name}; known: {} and fault profiles: {}",
        named.join(" "),
        FaultProfile::CANONICAL.join(" ")
    ))
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
) -> Result<AbComparison, PipelineError> {
    let treatment = treatment.clone().with_seed(baseline.seed);
    let base_rep = replicate(baseline, options)?;
    let treat_rep = replicate(&treatment, options)?;
    let rows = paired_rows(&base_rep, &treat_rep);
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
                crate::replicate::resample_streams(master, &ci_key),
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
        fmt_level(ab.baseline.options.level),
    );
    out.push('\n');
    let mut table = vec![[
        "metric",
        "n",
        "control",
        "treat",
        "effect",
        "rel",
        "ci(effect) [low, high]",
        "p(pair)",
        "p(welch)",
    ]
    .map(String::from)];
    let mut marked = false;
    for row in &ab.rows {
        let ci = row
            .ci
            .as_ref()
            .map_or("-".to_string(), |ci| fmt_bca(ci, &mut marked));
        table.push([
            row.name.clone(),
            row.pairs.to_string(),
            fmt_opt(row.control_mean),
            fmt_opt(row.treatment_mean),
            fmt_opt(row.effect),
            fmt_rel(row.relative_effect),
            ci,
            fmt_p(row.paired.as_ref().map(|t| t.p_value)),
            fmt_p(row.welch.as_ref().map(|t| t.p_value)),
        ]);
    }
    write_table(&mut out, 1, &table);
    if marked {
        out.push_str(BCA_FOOTNOTE);
    }
    out
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
        let (ci_low, ci_high) = json_bounds(row.ci.as_ref().map(|ci| ci.bca));
        let fell_back = row.ci.as_ref().is_some_and(|ci| ci.bca_fell_back);
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
        // The serve storms are `loadgen`'s, not scenarios.
        for name in ["no-such-scenario", "query-storm", "<fault profile>"] {
            let err = scenario_by_name(name, 0.02, 7).unwrap_err();
            let known = err.strip_prefix(&format!("unknown scenario {name}; known: "));
            assert!(known.is_some_and(|k| k.starts_with("paper ") && !k.contains('<')));
        }
    }

    #[test]
    fn arms_are_paired_on_the_baseline_master() {
        let ab = ab_compare(
            &small("paper"),
            &small("lossy-feeds").with_seed(999),
            opts(),
        )
        .unwrap();
        assert_eq!(ab.baseline.seeds, ab.treatment.seeds);
        assert_eq!(ab.treatment.scenario.seed, 11);
        assert_eq!(ab.rows.len(), ab.baseline.samples.metrics());
    }

    #[test]
    fn identical_arms_show_zero_effect() {
        let ab = ab_compare(&small("paper"), &small("paper"), opts()).unwrap();
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
        let ab = ab_compare(&small("paper"), &small("quiet-world"), opts()).unwrap();
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
    fn lossy_feeds_lose_samples() {
        let ab = ab_compare(&small("paper"), &small("lossy-feeds"), opts()).unwrap();
        let lost: f64 = ab
            .rows
            .iter()
            .filter(|r| r.name.starts_with("samples/"))
            .filter_map(|r| r.effect)
            .sum();
        assert!(lost < 0.0, "drops outweigh duplicates: {lost}");
        for row in &ab.rows {
            let values = [row.control_mean, row.treatment_mean, row.effect];
            assert!(
                values.into_iter().flatten().all(f64::is_finite),
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn a_blackout_empties_every_feed_without_nan() {
        let ab = ab_compare(&small("paper"), &small("blackout"), opts()).unwrap();
        for row in ab.rows.iter().filter(|r| r.name.starts_with("domains/")) {
            assert_eq!(row.treatment_mean, Some(0.0), "{}", row.name);
        }
        assert!(!render_ab(&ab).contains("NaN"));
        assert!(!render_ab_json(&ab).contains("NaN"));
    }

    /// The paper against an ablation, over two paired seeds.
    fn ablation(treatment: &str) -> AbComparison {
        let at = |name| scenario_by_name(name, 0.04, 31).unwrap().with_threads(2);
        ab_compare(&at("paper"), &at(treatment), opts()).unwrap()
    }

    /// A metric's control and treatment means over both pairs.
    fn means(ab: &AbComparison, metric: &str) -> (f64, f64) {
        let row = ab.rows.iter().find(|r| r.name == metric).unwrap();
        assert_eq!(row.pairs, 2, "{metric}");
        (row.control_mean.unwrap(), row.treatment_mean.unwrap())
    }

    #[test]
    fn poisoning_destroys_purity() {
        let ab = ablation("no-poisoning");
        let (bot_with, bot_without) = means(&ab, "purity/dns/Bot");
        let (mx2_with, mx2_without) = means(&ab, "purity/dns/mx2");
        assert!(
            bot_with < bot_without - 0.3,
            "Bot {bot_with} → {bot_without}"
        );
        assert!(
            mx2_with < mx2_without - 0.1,
            "mx2 {mx2_with} → {mx2_without}"
        );
        assert!(bot_without > 0.9, "Bot {bot_without}");
    }

    #[test]
    fn restriction_drops_a_few_percent() {
        let ab = ablation("unrestricted-blacklists");
        let (restricted, full) = means(&ab, "domains/dbl");
        let dropped = (full - restricted) / full;
        assert!(dropped > 0.0, "restriction bites: {restricted} of {full}");
        assert!(dropped < 0.5, "{restricted} of {full}");
    }

    #[test]
    fn filter_compresses_volume_not_coverage() {
        let ab = ablation("no-provider-filter");
        let (with, without) = means(&ab, "samples/Hu");
        assert!(
            without > with,
            "filter caps report volume: {with} → {without}"
        );
        let (with, without) = means(&ab, "coverage/tagged/Hu");
        assert!(
            with / without > 0.85,
            "coverage survives filtering: {with} → {without}"
        );
    }

    #[test]
    fn broad_seeding_pulls_ac2_toward_ac1() {
        let ab = ablation("broad-ac2");
        let (narrow, broad) = means(&ab, "overlap/tagged/Ac2_in_Ac1");
        assert!(
            broad > narrow,
            "broader seeding increases Ac1 overlap: {narrow} → {broad}"
        );
    }

    #[test]
    fn renders_are_deterministic() {
        let run = || ab_compare(&small("paper"), &small("short-window"), opts()).unwrap();
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
