//! Domain-blacklist collectors (dbl, uribl).
//!
//! Blacklists are *meta-feeds*: professionally curated aggregations of
//! many upstream spam sources, delivering binary listings rather than
//! samples (§3.2). We model one as a listing process over the universe
//! of advertised domains: each domain a campaign rotates through is
//! listed with a probability depending on how observable it is (loud
//! vs quiet, tagged-vertical vs not), after a delay anchored on the
//! moment the blacklist's sources could first see it. Curation drops
//! unregistered garbage (hence 100 % DNS purity in Table 2) and almost
//! all Alexa/ODP-listed domains (hence ≤2 % benign contamination).

use crate::config::{BlacklistConfig, ListingAnchor};
use crate::engine::{ShardObs, SourceRecord};
use crate::id::FeedId;
use rand::RngExt;
use taster_domain::DomainId;
use taster_ecosystem::campaign::CampaignStyle;
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, RngStream, SimTime};
use taster_stats::sample::exponential;

/// Pre-decides one blacklist's listings: every listing draw, delay
/// draw and snapshot-fault decision happens here in one fixed serial
/// order, so the emitted records are a pure function of
/// `(world, config, plan)` and the driver's time cursor can apply them
/// in any split.
///
/// Under fault injection the snapshot transport degrades: every
/// listing is delayed by the profile's snapshot latency, individual
/// snapshot entries can be lost to truncation (keyed by the serial
/// entry index, so the result is identical at any worker count), and
/// listings landing inside an outage window are missed entirely.
pub(crate) fn blacklist_source_records(
    world: &MailWorld,
    config: &BlacklistConfig,
    id: FeedId,
    fault_plan: &FaultPlan,
    local: &mut ShardObs,
) -> Vec<SourceRecord> {
    assert!(matches!(id, FeedId::Dbl | FeedId::Uribl));
    let mut out = Vec::new();
    let mut rng = RngStream::new(world.truth.seed, &format!("feeds/{}", id.label()));
    let truth = &world.truth;
    let day_secs = taster_sim::DAY as f64;
    let faults_on = !fault_plan.is_off();
    let label = id.label();
    let snapshot_stage = format!("snapshot/{label}");
    let mut entry_idx = 0u64;

    let mut consider = |domain: DomainId,
                        base_prob: f64,
                        anchor: SimTime,
                        rng: &mut RngStream,
                        out: &mut Vec<SourceRecord>| {
        let record = truth.universe.record(domain);
        // Curation: registration validation, benign-list suppression.
        let prob = if !record.registered {
            base_prob * config.unregistered_leak
        } else if record.alexa_rank.is_some() || record.odp {
            base_prob * config.benign_leak
        } else {
            base_prob
        };
        if rng.random_bool(prob.clamp(0.0, 1.0)) {
            let delay = exponential(rng, config.delay_mean_days * day_secs) as u64;
            let mut listed = anchor.plus(delay);
            let idx = entry_idx;
            entry_idx += 1;
            if faults_on {
                listed = listed.plus(fault_plan.profile().snapshot_delay_secs);
                if fault_plan.snapshot_dropped(&snapshot_stage, idx) {
                    if local.on {
                        local.snapshot_dropped += 1;
                    }
                    return;
                }
                if fault_plan.outage_at(label, listed) {
                    if local.on {
                        local.outage_skips += 1;
                    }
                    return;
                }
            }
            out.push(SourceRecord {
                time: listed,
                copies: 1,
                counts_sample: false,
                domains: vec![domain],
            });
        }
    };

    for campaign in &truth.campaigns {
        if campaign.poison {
            // Poison domains are unregistered garbage; curation drops
            // them wholesale (handled per-domain below for the leak).
            continue;
        }
        let tagged = truth.roster.program(campaign.program).tagged;
        let base_prob = match (campaign.style, tagged) {
            (CampaignStyle::Loud, _) => config.loud_prob,
            (CampaignStyle::Quiet, true) => config.quiet_tagged_prob,
            (CampaignStyle::Quiet, false) => config.quiet_untagged_prob,
        };
        for plan in &campaign.domains {
            let anchor = match config.anchor {
                ListingAnchor::AdvertStart => plan.window.start,
                ListingAnchor::BlastStart => plan.warmup_end,
            };
            consider(plan.storefront, base_prob, anchor, &mut rng, &mut out);
            if let Some(landing) = plan.landing {
                consider(landing, base_prob, anchor, &mut rng, &mut out);
            }
        }
    }

    // Web-spam corpus (SEO/forum spam also flows into blacklist
    // source networks, more so for the broad blacklist).
    for &(time, domain) in &truth.webspam {
        consider(domain, config.webspam_prob, time, &mut rng, &mut out);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FeedsConfig;
    use crate::pipeline::collect_all;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::MailConfig;

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 61).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    #[test]
    fn listings_are_binary_no_samples_no_volume() {
        let w = world();
        let set = collect_all(&w, &FeedsConfig::default());
        let dbl = set.get(FeedId::Dbl);
        assert_eq!(dbl.samples, None);
        assert!(!dbl.reports_volume);
        for (_, s) in dbl.iter() {
            assert_eq!(s.volume, 1, "one listing per domain");
            assert_eq!(s.first_seen, s.last_seen);
        }
    }

    #[test]
    fn curation_enforces_registration_purity() {
        let w = world();
        let set = collect_all(&w, &FeedsConfig::default());
        for id in [FeedId::Dbl, FeedId::Uribl] {
            let feed = set.get(id);
            let registered = feed
                .domain_ids()
                .filter(|&d| w.truth.universe.record(d).registered)
                .count();
            let frac = registered as f64 / feed.unique_domains().max(1) as f64;
            assert!(frac > 0.99, "{id}: DNS purity {frac}");
        }
    }

    #[test]
    fn benign_contamination_is_tiny() {
        let w = world();
        let set = collect_all(&w, &FeedsConfig::default());
        let uribl = set.get(FeedId::Uribl);
        let benign = uribl
            .domain_ids()
            .filter(|&d| {
                let r = w.truth.universe.record(d);
                r.alexa_rank.is_some() || r.odp
            })
            .count();
        let frac = benign as f64 / uribl.unique_domains().max(1) as f64;
        assert!(frac < 0.05, "benign contamination {frac}");
    }

    #[test]
    fn dbl_lists_earlier_than_uribl() {
        let w = world();
        let set = collect_all(&w, &FeedsConfig::default());
        let (dbl, uribl) = (set.get(FeedId::Dbl), set.get(FeedId::Uribl));
        // Compare mean listing time relative to the domain's first
        // advertisement over the common domains.
        let mut dbl_lag = 0f64;
        let mut uribl_lag = 0f64;
        let mut n = 0f64;
        for c in w.truth.campaigns.iter().filter(|c| !c.poison) {
            for p in &c.domains {
                if let (Some(a), Some(b)) = (dbl.stats(p.storefront), uribl.stats(p.storefront)) {
                    dbl_lag += a.first_seen.signed_diff(p.window.start) as f64;
                    uribl_lag += b.first_seen.signed_diff(p.window.start) as f64;
                    n += 1.0;
                }
            }
        }
        assert!(n > 50.0);
        assert!(
            dbl_lag / n < uribl_lag / n,
            "dbl mean lag {} < uribl {}",
            dbl_lag / n,
            uribl_lag / n
        );
    }
}
