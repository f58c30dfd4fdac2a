//! The `taster degradation` sweep: every canonical fault profile run
//! against the clean baseline, with per-feed metric deltas.
//!
//! The world is built once (ground truth and mail log are upstream of
//! fault injection, so they are shared); each profile then re-collects
//! the feeds and re-crawls under its [`FaultPlan`], and the resulting
//! [`RunSnapshot`] is diffed against the clean run's.

use crate::scenario::Scenario;
use taster_analysis::degradation::{compare, snapshot, ProfileDegradation, RunSnapshot};
use taster_analysis::Classified;
use taster_feeds::{ensure_nonempty_collection, try_collect_all_observed, PipelineError};
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, FaultProfile, Obs};

/// Runs the canonical fault-profile sweep over a scenario. The
/// scenario's own fault profile is ignored — the sweep always compares
/// the canonical set against a clean run of the same seed and scale.
pub fn degradation_sweep(scenario: &Scenario) -> Result<Vec<ProfileDegradation>, PipelineError> {
    let world = crate::build_world(scenario, &Obs::off())?;
    let clean = run_profile(&world, scenario, FaultProfile::off())?;
    FaultProfile::canonical()
        .into_iter()
        .map(|profile| {
            let name = profile.name.clone();
            let faulted = run_profile(&world, scenario, profile)?;
            Ok(compare(&name, &clean, &faulted))
        })
        .collect()
}

fn run_profile(
    world: &MailWorld,
    scenario: &Scenario,
    profile: FaultProfile,
) -> Result<RunSnapshot, PipelineError> {
    let par = &scenario.parallelism;
    let plan = FaultPlan::new(profile, scenario.seed);
    let feeds = try_collect_all_observed(world, &scenario.feeds, &plan, par, &Obs::off())?;
    ensure_nonempty_collection(&feeds, &plan, world.truth.window())?;
    let classified = Classified::build_faulted(&world.truth, &feeds, scenario.classify, &plan, par);
    Ok(snapshot(&feeds, &classified, &world.provider.oracle, par))
}

/// Renders the sweep as the `taster degradation` table.
pub fn render_degradation(scenario_name: &str, sweep: &[ProfileDegradation]) -> String {
    let mut out = format!(
        "== Degradation sweep: canonical fault profiles vs clean run\n   scenario: {scenario_name}\n"
    );
    for d in sweep {
        out.push_str(&format!(
            "\n-- profile {} (tagged-union loss {:.1}%, {} crawl timeouts, {} unreachable) --\n",
            d.profile,
            d.tagged_union_loss * 100.0,
            d.crawl_timeouts,
            d.crawl_unreachable,
        ));
        out.push_str(&format!(
            "{:<6} {:>9} {:>7} {:>7} {:>7} {:>5} {:>13} {:>13} {:>11} {:>9}\n",
            "Feed",
            "Δsamples",
            "Δall",
            "Δlive",
            "Δtag",
            "gaps",
            "DNS c→f",
            "tag c→f",
            "δMail c→f",
            "Δfirst",
        ));
        for row in &d.deltas {
            out.push_str(&format!(
                "{:<6} {:>9} {:>7} {:>7} {:>7} {:>5} {:>6.2}→{:<6.2} {:>6.2}→{:<6.2} {:>11} {:>9}\n",
                row.feed.label(),
                row.samples,
                row.all,
                row.live,
                row.tagged,
                row.gaps,
                row.dns_purity.0,
                row.dns_purity.1,
                row.tagged_purity.0,
                row.tagged_purity.1,
                row.mail_variation
                    .map_or("-".to_string(), |(c, f)| format!("{c:.2}→{f:.2}")),
                row.first_median_days
                    .map_or("-".to_string(), |d| format!("{d:+.2}d")),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_canonical_profile_and_renders() {
        let scenario = Scenario::default_paper()
            .with_scale(0.02)
            .with_seed(67)
            .with_threads(2);
        let sweep = degradation_sweep(&scenario).unwrap();
        assert_eq!(sweep.len(), FaultProfile::CANONICAL.len());
        for d in &sweep {
            assert_eq!(d.deltas.len(), 10);
            assert!((0.0..=1.0).contains(&d.tagged_union_loss), "{}", d.profile);
        }
        let clean = sweep.iter().find(|d| d.profile == "clean").unwrap();
        assert!(clean.tagged_union_loss.abs() < 1e-12);
        assert!(clean.deltas.iter().all(|r| r.samples == 0 && r.all == 0));
        let blackout = sweep.iter().find(|d| d.profile == "blackout").unwrap();
        assert!((blackout.tagged_union_loss - 1.0).abs() < 1e-12);
        let text = render_degradation(&scenario.name, &sweep);
        for name in FaultProfile::CANONICAL {
            assert!(text.contains(name), "missing profile {name}");
        }
        assert!(text.contains("Δsamples"));
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let base = Scenario::default_paper().with_scale(0.02).with_seed(67);
        let a = degradation_sweep(&base.clone().with_threads(1)).unwrap();
        let b = degradation_sweep(&base.clone().with_threads(8)).unwrap();
        let ra = render_degradation("x", &a);
        let rb = render_degradation("x", &b);
        assert_eq!(ra, rb);
    }
}
