//! Human-identified collector (`Hu`).
//!
//! The provider hands over the messages its users flagged. The feed is
//! raw (one record per report, all URLs included) but its *volume* is
//! not a delivery volume — it is a report volume, distorted by
//! human-time delays and by the provider's own filtering feedback —
//! so the paper excludes it from proportionality analysis, and so do
//! we (`reports_volume == false`).

use crate::engine::{ShardObs, SourceRecord};
use crate::id::FeedId;
use taster_mailsim::MailWorld;
use taster_sim::fault::RecordFault;
use taster_sim::FaultPlan;

/// Pre-decides the Hu feed's records from the provider's report
/// stream: every fault decision (keyed by the serial report index)
/// happens here, so the records are a pure function of `(world, plan)`
/// and the driver's time cursor can apply them in any split.
pub(crate) fn hu_source_records(
    world: &MailWorld,
    plan: &FaultPlan,
    local: &mut ShardObs,
) -> Vec<SourceRecord> {
    let faults_on = !plan.is_off();
    let label = FeedId::Hu.label();
    let mut out = Vec::new();
    for (idx, report) in world.provider.reports.iter().enumerate() {
        if faults_on && plan.outage_at(label, report.time) {
            if local.on {
                local.outage_skips += 1;
            }
            continue;
        }
        let fault = if faults_on {
            plan.record_fault(label, idx as u64)
        } else {
            RecordFault::Deliver
        };
        local.record_fault(fault);
        if fault == RecordFault::Drop {
            continue;
        }
        let copies = if fault == RecordFault::Duplicate {
            2
        } else {
            1
        };
        // A truncated report record lost the tail of its domain list.
        let keep = if fault == RecordFault::Truncate {
            report.domains.len() / 2
        } else {
            report.domains.len()
        };
        out.push(SourceRecord {
            time: report.time,
            copies,
            counts_sample: true,
            domains: report.domains[..keep].to_vec(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::config::FeedsConfig;
    use crate::feed::Feed;
    use crate::id::FeedId;
    use crate::pipeline::try_collect_all_observed;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::{MailConfig, MailWorld};
    use taster_sim::{FaultPlan, Obs, Parallelism};

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 53).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    fn collect_hu(w: &MailWorld, plan: &FaultPlan) -> Feed {
        let (cfg, par) = (FeedsConfig::default(), Parallelism::serial());
        let set = try_collect_all_observed(w, &cfg, plan, &par, &Obs::off()).unwrap();
        set.get(FeedId::Hu).clone()
    }

    #[test]
    fn hu_matches_report_stream() {
        let w = world();
        let feed = collect_hu(&w, &FaultPlan::off(w.truth.seed));
        assert_eq!(feed.samples, Some(w.provider.reports.len() as u64));
        assert!(!feed.reports_volume);
        assert!(feed.unique_domains() > 0);
    }

    #[test]
    fn lossy_plan_shrinks_the_feed() {
        use taster_sim::FaultProfile;
        let w = world();
        let clean = collect_hu(&w, &FaultPlan::off(w.truth.seed));
        let lossy = collect_hu(
            &w,
            &FaultPlan::new(FaultProfile::lossy_feeds(), w.truth.seed),
        );
        assert!(lossy.samples < clean.samples);
        // Deterministic: the same plan reproduces the same feed.
        let again = collect_hu(
            &w,
            &FaultPlan::new(FaultProfile::lossy_feeds(), w.truth.seed),
        );
        assert_eq!(lossy.samples, again.samples);
        assert_eq!(lossy.unique_domains(), again.unique_domains());
    }

    #[test]
    fn report_times_not_delivery_times() {
        let w = world();
        let feed = collect_hu(&w, &FaultPlan::off(w.truth.seed));
        // Every recorded first_seen equals some report time, which
        // trails delivery by the human delay.
        let report_times: std::collections::HashSet<_> =
            w.provider.reports.iter().map(|r| r.time).collect();
        let mut checked = 0;
        for (_, s) in feed.iter().take(200) {
            assert!(report_times.contains(&s.first_seen));
            checked += 1;
        }
        assert!(checked > 0);
    }
}
