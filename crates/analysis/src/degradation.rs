//! Graceful-degradation accounting: how much does each fault profile
//! bend the paper's headline metrics?
//!
//! A [`MetricSnapshot`] freezes the per-feed numbers a report is built
//! from (coverage counts, purity fractions, proportionality against
//! the mail oracle, timing medians); [`compare`] subtracts a faulted
//! run's snapshot from the clean run's, yielding the metric deltas the
//! `taster degradation` subcommand prints for every canonical
//! [`taster_sim::FaultProfile`]. Everything here is arithmetic over
//! already-computed analyses — no RNG, no panics on empty feeds.

use crate::classify::{Category, Classified};
use crate::proportionality::{mail_distribution, tagged_distribution};
use crate::purity::{purity_par, PurityRow};
use crate::timing::{first_appearance_par, FIG9_FEEDS};
use taster_feeds::{FeedId, FeedSet};
use taster_sim::Parallelism;
use taster_stats::{variation_distance, EmpiricalDist};

/// The degradation-relevant numbers of one feed in one run.
#[derive(Debug, Clone, Copy)]
pub struct MetricSnapshot {
    /// The feed.
    pub feed: FeedId,
    /// Raw samples the collector captured (`None` for listing feeds).
    pub samples: Option<u64>,
    /// Distinct domains carried (post-restriction).
    pub all: usize,
    /// Live domains.
    pub live: usize,
    /// Tagged domains.
    pub tagged: usize,
    /// Outage gap markers recorded against the feed.
    pub gaps: usize,
    /// DNS purity (Table 2's first column).
    pub dns_purity: f64,
    /// Tag rate among carried domains (Table 2's Tagged column).
    pub tagged_purity: f64,
    /// Variation distance against the mail oracle over tagged domains
    /// (Fig 7's "Mail" column; `None` for feeds without volume).
    pub mail_variation: Option<f64>,
    /// Median relative first-appearance in days over the Fig 9
    /// reference (`None` when the feed shares no common domain).
    pub first_median_days: Option<f64>,
}

/// A whole run's snapshot: one row per feed plus run-level counters.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// Per-feed rows, in [`FeedId::ALL`] order.
    pub rows: Vec<MetricSnapshot>,
    /// Tagged-domain union size across all feeds.
    pub tagged_union: usize,
    /// Crawl visits that exhausted HTTP retries.
    pub crawl_timeouts: usize,
    /// Crawl visits that exhausted DNS retries.
    pub crawl_unreachable: usize,
}

/// Freezes the degradation-relevant metrics of one collected +
/// classified run. Tolerates arbitrarily empty feeds (a 100 %-outage
/// profile yields zero counts and `None` medians, never NaN).
pub fn snapshot(
    feeds: &FeedSet,
    classified: &Classified,
    oracle: &EmpiricalDist,
    par: &Parallelism,
) -> RunSnapshot {
    let purity = purity_par(feeds, classified, par);
    let firsts = first_appearance_par(feeds, classified, &FIG9_FEEDS, &FeedId::ALL, par);
    let mail = mail_distribution(classified, oracle);
    let rows = FeedId::ALL
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let feed = feeds.get(id);
            let fd = classified.feed(id);
            let p: &PurityRow = &purity[i];
            let mail_variation = if feed.reports_volume {
                let dist = tagged_distribution(feeds, classified, id);
                Some(variation_distance(&dist, &mail))
            } else {
                None
            };
            MetricSnapshot {
                feed: id,
                samples: feed.samples,
                all: fd.all.len(),
                live: fd.live.len(),
                tagged: fd.tagged.len(),
                gaps: feed.gaps().len(),
                dns_purity: p.dns,
                tagged_purity: p.tagged,
                mail_variation,
                first_median_days: firsts.iter().find(|(f, _)| *f == id).map(|(_, b)| b.median),
            }
        })
        .collect();
    RunSnapshot {
        rows,
        tagged_union: classified.union(&FeedId::ALL, Category::Tagged).len(),
        crawl_timeouts: classified.crawl.timeouts(),
        crawl_unreachable: classified.crawl.unreachable(),
    }
}

/// Per-feed deltas of a faulted run against the clean run
/// (faulted − clean for counts; clean and faulted side by side for
/// fractions, since a delta of a ratio hides its base).
#[derive(Debug, Clone, Copy)]
pub struct MetricDelta {
    /// The feed.
    pub feed: FeedId,
    /// Change in raw samples (0 for listing feeds).
    pub samples: i64,
    /// Change in distinct domains.
    pub all: i64,
    /// Change in live domains.
    pub live: i64,
    /// Change in tagged domains.
    pub tagged: i64,
    /// Gap markers in the faulted run.
    pub gaps: usize,
    /// (clean, faulted) DNS purity.
    pub dns_purity: (f64, f64),
    /// (clean, faulted) tag rate.
    pub tagged_purity: (f64, f64),
    /// (clean, faulted) variation distance vs the mail oracle, when
    /// both runs define it.
    pub mail_variation: Option<(f64, f64)>,
    /// Change in the first-appearance median, in days, when both runs
    /// define it.
    pub first_median_days: Option<f64>,
}

/// One fault profile's degradation report.
#[derive(Debug, Clone)]
pub struct ProfileDegradation {
    /// Profile name.
    pub profile: String,
    /// Per-feed deltas, in [`FeedId::ALL`] order.
    pub deltas: Vec<MetricDelta>,
    /// Fractional loss of the tagged-domain union (0 = none, 1 = all).
    pub tagged_union_loss: f64,
    /// Crawl visits that exhausted HTTP retries in the faulted run.
    pub crawl_timeouts: usize,
    /// Crawl visits that exhausted DNS retries in the faulted run.
    pub crawl_unreachable: usize,
}

/// Compares a faulted run against the clean baseline.
pub fn compare(profile: &str, clean: &RunSnapshot, faulted: &RunSnapshot) -> ProfileDegradation {
    let deltas = clean
        .rows
        .iter()
        .zip(&faulted.rows)
        .map(|(c, f)| MetricDelta {
            feed: c.feed,
            samples: f.samples.unwrap_or(0) as i64 - c.samples.unwrap_or(0) as i64,
            all: f.all as i64 - c.all as i64,
            live: f.live as i64 - c.live as i64,
            tagged: f.tagged as i64 - c.tagged as i64,
            gaps: f.gaps,
            dns_purity: (c.dns_purity, f.dns_purity),
            tagged_purity: (c.tagged_purity, f.tagged_purity),
            mail_variation: c.mail_variation.zip(f.mail_variation),
            first_median_days: c
                .first_median_days
                .zip(f.first_median_days)
                .map(|(a, b)| b - a),
        })
        .collect();
    let tagged_union_loss = if clean.tagged_union == 0 {
        0.0
    } else {
        1.0 - faulted.tagged_union as f64 / clean.tagged_union as f64
    };
    ProfileDegradation {
        profile: profile.to_string(),
        deltas,
        tagged_union_loss,
        crawl_timeouts: faulted.crawl_timeouts,
        crawl_unreachable: faulted.crawl_unreachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifyOptions;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{try_collect_all_observed, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};
    use taster_sim::{FaultPlan, FaultProfile, Obs};

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 83).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    fn run(world: &MailWorld, profile: FaultProfile) -> RunSnapshot {
        let par = Parallelism::serial();
        let plan = FaultPlan::new(profile, world.truth.seed);
        let cfg = FeedsConfig::default();
        let feeds = try_collect_all_observed(world, &cfg, &plan, &par, &Obs::off()).unwrap();
        let c = Classified::build_faulted(
            &world.truth,
            &feeds,
            ClassifyOptions::default(),
            &plan,
            &par,
        );
        snapshot(&feeds, &c, &world.provider.oracle, &par)
    }

    #[test]
    fn clean_self_comparison_is_all_zero() {
        let w = world();
        let clean = run(&w, FaultProfile::off());
        let d = compare("off", &clean, &clean);
        assert_eq!(d.tagged_union_loss, 0.0);
        for row in &d.deltas {
            assert_eq!(row.samples, 0, "{}", row.feed);
            assert_eq!((row.all, row.live, row.tagged), (0, 0, 0), "{}", row.feed);
            assert_eq!(row.gaps, 0);
            assert_eq!(row.first_median_days.unwrap_or(0.0), 0.0);
        }
    }

    #[test]
    fn lossy_profile_shrinks_coverage_not_purity_sign() {
        let w = world();
        let clean = run(&w, FaultProfile::off());
        let lossy = run(&w, FaultProfile::lossy_feeds());
        let d = compare("lossy-feeds", &clean, &lossy);
        assert!((0.0..=1.0).contains(&d.tagged_union_loss));
        let total_sample_delta: i64 = d.deltas.iter().map(|r| r.samples).sum();
        assert!(total_sample_delta < 0, "drops outweigh duplicates");
        for row in &d.deltas {
            for (a, b) in [row.dns_purity, row.tagged_purity] {
                assert!(a.is_finite() && b.is_finite(), "{}", row.feed);
            }
        }
    }

    #[test]
    fn blackout_yields_empty_feeds_without_nan() {
        let w = world();
        let clean = run(&w, FaultProfile::off());
        let dark = run(&w, FaultProfile::blackout());
        let d = compare("blackout", &clean, &dark);
        for (row, snap) in d.deltas.iter().zip(&dark.rows) {
            assert_eq!(snap.all, 0, "{} empty under total outage", row.feed);
            assert!(snap.dns_purity == 0.0 && snap.tagged_purity == 0.0);
            assert!(snap.first_median_days.is_none());
            assert!(row.gaps > 0, "{} carries its gap marker", row.feed);
        }
        assert!((d.tagged_union_loss - 1.0).abs() < 1e-12);
    }
}
