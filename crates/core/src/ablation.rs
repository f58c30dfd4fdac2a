//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation runs a pair of scenarios differing in one mechanism
//! and reports the deltas the paper discusses qualitatively:
//!
//! * **poisoning** — how the Rustock incident degrades Bot/mx2 purity;
//! * **blacklist restriction** — how many blacklist entries the
//!   paper's crawl-subset methodology drops (paper: 2.5–3 %);
//! * **provider filter** — how report-driven filtering compresses the
//!   `Hu` feed's sample volume while preserving its coverage;
//! * **Ac2 seeding** — how broader seeding moves Ac2 back toward Ac1.

use crate::experiment::Experiment;
use crate::scenario::Scenario;
use taster_analysis::classify::Category;
use taster_feeds::{FeedId, PipelineError};

/// Purity deltas with and without the poisoning incident.
#[derive(Debug, Clone, Copy)]
pub struct PoisoningAblation {
    /// Bot DNS purity with poisoning.
    pub bot_dns_with: f64,
    /// Bot DNS purity without poisoning.
    pub bot_dns_without: f64,
    /// mx2 DNS purity with poisoning.
    pub mx2_dns_with: f64,
    /// mx2 DNS purity without poisoning.
    pub mx2_dns_without: f64,
}

/// Runs the poisoning ablation.
pub fn poisoning(base: &Scenario) -> Result<PoisoningAblation, PipelineError> {
    let with = Experiment::try_run(base)?;
    let without = Experiment::try_run(&base.clone().without_poisoning())?;
    let dns = |e: &Experiment, id: FeedId| {
        e.table2()
            .into_iter()
            .find(|r| r.feed == id)
            .map(|r| r.dns)
            .unwrap_or(0.0)
    };
    Ok(PoisoningAblation {
        bot_dns_with: dns(&with, FeedId::Bot),
        bot_dns_without: dns(&without, FeedId::Bot),
        mx2_dns_with: dns(&with, FeedId::Mx2),
        mx2_dns_without: dns(&without, FeedId::Mx2),
    })
}

/// Entry counts with and without restricting blacklists to the
/// base-feed union.
#[derive(Debug, Clone, Copy)]
pub struct RestrictionAblation {
    /// dbl entries under restriction / unrestricted.
    pub dbl: (usize, usize),
    /// uribl entries under restriction / unrestricted.
    pub uribl: (usize, usize),
}

impl RestrictionAblation {
    /// Fraction of dbl entries the restriction drops.
    pub fn dbl_dropped_fraction(&self) -> f64 {
        dropped(self.dbl)
    }

    /// Fraction of uribl entries the restriction drops.
    pub fn uribl_dropped_fraction(&self) -> f64 {
        dropped(self.uribl)
    }
}

fn dropped((restricted, full): (usize, usize)) -> f64 {
    if full == 0 {
        0.0
    } else {
        (full - restricted) as f64 / full as f64
    }
}

/// Runs the blacklist-restriction ablation.
pub fn blacklist_restriction(base: &Scenario) -> Result<RestrictionAblation, PipelineError> {
    let restricted = Experiment::try_run(base)?;
    let full = Experiment::try_run(&base.clone().with_unrestricted_blacklists())?;
    let count = |e: &Experiment, id: FeedId| e.classified.feed(id).all.len();
    Ok(RestrictionAblation {
        dbl: (count(&restricted, FeedId::Dbl), count(&full, FeedId::Dbl)),
        uribl: (
            count(&restricted, FeedId::Uribl),
            count(&full, FeedId::Uribl),
        ),
    })
}

/// `Hu` volume/coverage with and without the provider filter.
#[derive(Debug, Clone, Copy)]
pub struct FilterAblation {
    /// Hu raw samples with the filter.
    pub hu_samples_with: u64,
    /// Hu raw samples without it.
    pub hu_samples_without: u64,
    /// Hu tagged-domain count with the filter.
    pub hu_tagged_with: usize,
    /// Hu tagged-domain count without it.
    pub hu_tagged_without: usize,
}

/// Runs the provider-filter ablation.
pub fn provider_filter(base: &Scenario) -> Result<FilterAblation, PipelineError> {
    let with = Experiment::try_run(base)?;
    let without = Experiment::try_run(&base.clone().without_provider_filter())?;
    Ok(FilterAblation {
        hu_samples_with: with.feeds.get(FeedId::Hu).samples.unwrap_or(0),
        hu_samples_without: without.feeds.get(FeedId::Hu).samples.unwrap_or(0),
        hu_tagged_with: with.classified.feed(FeedId::Hu).tagged.len(),
        hu_tagged_without: without.classified.feed(FeedId::Hu).tagged.len(),
    })
}

/// Ac2's distance from Ac1 before and after broad re-seeding.
#[derive(Debug, Clone, Copy)]
pub struct SeedingAblation {
    /// |Ac2 ∩ Ac1| / |Ac1| over tagged domains, narrow seeding.
    pub overlap_narrow: f64,
    /// Same after broad re-seeding.
    pub overlap_broad: f64,
}

/// Runs the Ac2-seeding ablation.
pub fn ac2_seeding(base: &Scenario) -> Result<SeedingAblation, PipelineError> {
    let overlap = |e: &Experiment| {
        let ac1 = e.classified.set(FeedId::Ac1, Category::Tagged);
        let ac2 = e.classified.set(FeedId::Ac2, Category::Tagged);
        if ac1.is_empty() {
            0.0
        } else {
            ac2.intersection_len(ac1) as f64 / ac1.len() as f64
        }
    };
    let narrow = Experiment::try_run(base)?;
    let broad = Experiment::try_run(&base.clone().with_broad_ac2_seeding())?;
    Ok(SeedingAblation {
        overlap_narrow: overlap(&narrow),
        overlap_broad: overlap(&broad),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario::default_paper().with_scale(0.04).with_seed(31)
    }

    #[test]
    fn poisoning_destroys_purity() {
        let a = poisoning(&base()).unwrap();
        assert!(a.bot_dns_with < a.bot_dns_without - 0.3, "{a:?}");
        assert!(a.mx2_dns_with < a.mx2_dns_without - 0.1, "{a:?}");
        assert!(a.bot_dns_without > 0.9, "{a:?}");
    }

    #[test]
    fn restriction_drops_a_few_percent() {
        let a = blacklist_restriction(&base()).unwrap();
        assert!(a.dbl.0 <= a.dbl.1);
        assert!(a.uribl.0 <= a.uribl.1);
        assert!(a.dbl_dropped_fraction() < 0.5, "{a:?}");
        assert!(a.dbl_dropped_fraction() > 0.0, "restriction bites: {a:?}");
    }

    #[test]
    fn filter_compresses_volume_not_coverage() {
        let a = provider_filter(&base()).unwrap();
        assert!(
            a.hu_samples_without > a.hu_samples_with,
            "filter caps report volume: {a:?}"
        );
        let cov_ratio = a.hu_tagged_with as f64 / a.hu_tagged_without.max(1) as f64;
        assert!(cov_ratio > 0.85, "coverage survives filtering: {a:?}");
    }

    #[test]
    fn broad_seeding_pulls_ac2_toward_ac1() {
        let a = ac2_seeding(&base()).unwrap();
        assert!(
            a.overlap_broad > a.overlap_narrow,
            "broader seeding increases Ac1 overlap: {a:?}"
        );
    }
}
