//! The very large Web-mail provider: user reports and the incoming
//! mail oracle.
//!
//! Two of the paper's data sources come from one organisation:
//!
//! * the **`Hu` feed** — messages users flagged with "this is spam".
//!   Reported domains feed the provider's own filters, so a domain's
//!   report volume *saturates* shortly after it is first reported —
//!   the mechanism the paper offers for `Hu` being simultaneously the
//!   smallest feed by volume and the broadest by coverage (§4.2.1);
//! * the **incoming mail oracle** — normalised per-domain message
//!   counts measured at the incoming mail servers (pre-filtering) over
//!   five days, used for volume coverage (Fig 3) and proportionality
//!   (Figs 7–8).

use crate::config::MailConfig;
use rand::RngExt;
use taster_domain::fx::FxHashMap;
use taster_domain::DomainId;
use taster_ecosystem::buffer::EventBuffer;
use taster_ecosystem::campaign::{CampaignStyle, TargetClass};
use taster_ecosystem::event::SpamEvent;
use taster_ecosystem::spill::SpillError;
use taster_ecosystem::{GroundTruth, WorldError};
use taster_sim::{RngStream, SimTime, TimeWindow, DAY};
use taster_stats::sample::standard_normal;
use taster_stats::EmpiricalDist;

/// Widest read of the time-sorted spill the provider loop asks for out
/// of core, in rows (the spill caps reads further). The provider's
/// filter-feedback state is sequential in time-sorted order, so it
/// walks the log in sorted position order, one bucket at a time
/// (~28 bytes/row resident); the RNG/counter state threads across
/// buckets untouched, so the draw sequence is identical to a single
/// pass over the resident cache.
pub const PROVIDER_BUCKET: usize = 1 << 21;

/// One "this is spam" user report.
#[derive(Debug, Clone)]
pub struct UserReport {
    /// When the user clicked the button (delivery + human delay).
    pub time: SimTime,
    /// Domains extracted from the reported message.
    pub domains: Vec<DomainId>,
    /// Ground truth: did this report flag actual spam? (`false` for
    /// reported-but-legitimate newsletters.)
    pub spam: bool,
}

/// Outputs of the provider model.
#[derive(Debug, Clone)]
pub struct ProviderOutputs {
    /// All user reports, time-sorted.
    pub reports: Vec<UserReport>,
    /// Oracle: per-domain message counts over the oracle window.
    pub oracle: EmpiricalDist,
    /// The oracle measurement window.
    pub oracle_window: TimeWindow,
}

/// Runs the provider model over the ground-truth event stream.
///
/// Deterministic in `(truth.seed, config)`; spam reports and the
/// oracle draw from dedicated RNG streams. Fails when `config` is
/// invalid or the out-of-core event spill cannot be read.
pub fn run_provider(
    truth: &GroundTruth,
    config: &MailConfig,
) -> Result<ProviderOutputs, WorldError> {
    config.validate().map_err(WorldError::Invalid)?;
    let mut rng = RngStream::new(truth.seed, "mailsim/provider");
    let mut reports: Vec<UserReport> = Vec::new();

    let oracle_window = TimeWindow::new(
        SimTime::from_days(config.oracle_start_day),
        SimTime::from_days(config.oracle_start_day + config.oracle_days),
    );
    let mut oracle = EmpiricalDist::new();

    // Reports-per-domain so far (drives the filtering feedback loop).
    let mut report_counts: FxHashMap<DomainId, u32> = FxHashMap::default();
    // Copies-per-domain seen at the incoming servers (drives filter
    // learning: fresh domains inbox freely).
    let mut seen_counts: FxHashMap<DomainId, u64> = FxHashMap::default();
    // Copies-per-campaign (content learning: a campaign that rotates
    // throwaway domains — the poisoning — is still one content
    // signature).
    let mut campaign_counts: Vec<u64> = vec![0; truth.campaigns.len()];

    let ln_median = config.report_delay_median_secs.ln();

    let n = truth.log.len;
    // The body below is sequential in time-sorted order: the RNG and
    // the filter-feedback counters thread row to row. It runs directly
    // over the sorted cache in core, or over buckets read from the
    // spill out of core — the rows arrive in the same order either way,
    // so the draw sequence is identical.
    let mut process_row = |bucket: &EventBuffer, r: usize| {
        {
            let event: SpamEvent = bucket.event(r);
            // ---- incoming mail oracle: counts *all* mail crossing the
            // incoming servers, before filtering.
            let reach = match event.target {
                TargetClass::BruteForce => config.reach.brute,
                TargetClass::Harvested(_) => config.reach.harvested,
                TargetClass::Purchased => config.reach.purchased,
                TargetClass::Social => config.reach.social,
            };
            let to_provider = rng.random_bool(reach);
            if to_provider && oracle_window.contains(event.time) {
                oracle.add(event.advertised.0, 1);
                if let Some(c) = event.chaff {
                    oracle.add(c.0, 1);
                }
            }
            if !to_provider {
                return;
            }

            // ---- inbox placement.
            let campaign = truth.campaign(event.campaign);
            let seen = seen_counts.entry(event.advertised).or_insert(0);
            *seen += 1;
            let camp_seen = &mut campaign_counts[event.campaign.index()];
            *camp_seen += 1;
            // Per-domain novelty is what warm-ups exploit; campaign-level
            // content learning only defeats campaigns that never vary
            // their message — the poisoning stream.
            let learned = *seen > config.filter_volume_threshold
                || (campaign.poison && *camp_seen > config.campaign_filter_volume_threshold);
            let base_inbox = if !learned {
                // Filters have not learned the domain yet: the warm-up
                // phase sails through (deliverability testing works).
                config.quiet_inbox_prob
            } else {
                match campaign.style {
                    CampaignStyle::Loud => config.loud_inbox_prob,
                    CampaignStyle::Quiet => config.quiet_inbox_prob,
                }
            };
            let filtered = report_counts
            .get(&event.advertised)
            .is_some_and(|&n| n >= config.filter_threshold)
            // The poisoning stream rotates domains per message but its
            // content never changes: once the campaign signature is
            // learned, fresh domains buy it nothing.
            || (campaign.poison && learned);
            let inbox_prob = if filtered {
                base_inbox * config.filter_leak
            } else {
                base_inbox
            };
            if !rng.random_bool(inbox_prob) {
                return;
            }

            // ---- the human.
            if !rng.random_bool(config.report_prob) {
                return;
            }
            *report_counts.entry(event.advertised).or_insert(0) += 1;
            let delay_secs =
                (ln_median + config.report_delay_sigma * standard_normal(&mut rng)).exp();
            let mut domains = vec![event.advertised];
            if let Some(c) = event.chaff {
                domains.push(c);
            }
            reports.push(UserReport {
                time: event.time.plus(delay_secs as u64),
                domains,
                spam: true,
            });
        }
    };

    truth.visit_sorted(0..n, PROVIDER_BUCKET, |bucket, rows| {
        for r in rows {
            process_row(bucket, r);
        }
        Ok::<(), SpillError>(())
    })?;

    // ---- users reporting legitimate commercial mail (§3.2: "human
    // identified spam can include legitimate commercial e-mail").
    let mut fp_rng = RngStream::new(truth.seed, "mailsim/provider-fp");
    let total_fp = (config.hu_benign_reports_per_day * truth.config.days as f64).round() as u64;
    for _ in 0..total_fp {
        let t = SimTime(fp_rng.random_range(0..truth.config.days * DAY));
        let d = truth.universe.sample_chaff(&mut fp_rng);
        reports.push(UserReport {
            time: t,
            domains: vec![d],
            spam: false,
        });
    }

    // ---- background legitimate volume at the incoming servers.
    let legit_msgs = (config.oracle_legit_per_day * config.oracle_days as f64).round() as u64;
    for _ in 0..legit_msgs {
        let d = truth.universe.sample_chaff(&mut fp_rng);
        oracle.add(d.0, 1);
    }

    reports.sort_by_key(|r| r.time);
    Ok(ProviderOutputs {
        reports,
        oracle,
        oracle_window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::domains::DomainKind;
    use taster_ecosystem::EcosystemConfig;

    fn outputs() -> (GroundTruth, ProviderOutputs) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.05), 17).unwrap();
        let out = run_provider(&truth, &MailConfig::default().with_scale(0.05)).unwrap();
        (truth, out)
    }

    #[test]
    fn reports_are_time_sorted_and_mixed() {
        let (_, out) = outputs();
        assert!(out.reports.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(out.reports.iter().any(|r| r.spam));
        assert!(out.reports.iter().any(|r| !r.spam));
    }

    #[test]
    fn report_volume_saturates_for_loud_domains() {
        let (truth, out) = outputs();
        let cfg = MailConfig::default();
        // Count spam reports per advertised (first) domain.
        let mut per_domain: FxHashMap<DomainId, u32> = FxHashMap::default();
        for r in out.reports.iter().filter(|r| r.spam) {
            *per_domain.entry(r.domains[0]).or_insert(0) += 1;
        }
        // The filter threshold caps per-domain reports; allow slack for
        // in-flight copies at the moment the threshold trips.
        #[expect(
            clippy::disallowed_methods,
            reason = "max is order-free, and the test prints only that one count"
        )]
        let max = per_domain.values().copied().max().unwrap_or(0);
        assert!(
            max <= cfg.filter_threshold * 4,
            "max reports per domain {max} should saturate near {}",
            cfg.filter_threshold
        );
        let _ = truth;
    }

    #[test]
    fn oracle_counts_fall_in_window_and_include_chaff() {
        let (truth, out) = outputs();
        assert!(out.oracle.total() > 0);
        // Some benign (chaff) domains must appear in the oracle.
        let has_benign = out.oracle.iter().any(|(k, _)| {
            matches!(
                truth.universe.record(taster_domain::DomainId(k)).kind,
                DomainKind::Benign
            )
        });
        assert!(has_benign);
    }

    #[test]
    fn quiet_campaign_domains_get_reported() {
        let (truth, out) = outputs();
        use std::collections::HashSet;
        let reported: HashSet<DomainId> = out
            .reports
            .iter()
            .filter(|r| r.spam)
            .map(|r| r.domains[0])
            .collect();
        let mut quiet_total = 0usize;
        let mut quiet_seen = 0usize;
        for c in truth
            .campaigns
            .iter()
            .filter(|c| c.style == CampaignStyle::Quiet && !c.poison)
        {
            for p in &c.domains {
                quiet_total += 1;
                let advertised_ids = [Some(p.storefront), p.landing];
                if advertised_ids
                    .iter()
                    .flatten()
                    .any(|d| reported.contains(d))
                {
                    quiet_seen += 1;
                }
            }
        }
        let frac = quiet_seen as f64 / quiet_total.max(1) as f64;
        assert!(
            frac > 0.5,
            "provider sees most quiet-campaign domains, got {frac:.2}"
        );
    }

    #[test]
    fn deterministic() {
        let truth = GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 5).unwrap();
        let a = run_provider(&truth, &MailConfig::default()).unwrap();
        let b = run_provider(&truth, &MailConfig::default()).unwrap();
        assert_eq!(a.reports.len(), b.reports.len());
        assert_eq!(a.oracle.total(), b.oracle.total());
    }
}
