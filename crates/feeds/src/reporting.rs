//! Reporting policies: what the provider actually ships.
//!
//! "Sometimes data is reported in raw form, with a data record for
//! each and every spam message, but in other cases providers aggregate
//! and summarize. For example, some providers will de-duplicate
//! identically advertised domains within a given time window" (§2).
//! A policy sits between observation and the feed's recorded volume;
//! it is what makes volume columns comparable-or-not across feeds.

use taster_sim::SimTime;

/// How a provider reports observations of one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportingPolicy {
    /// One record per message (raw feeds: honeypots, botnet output).
    Raw,
    /// At most one record per domain per window of `secs` seconds
    /// (aggregating providers).
    DedupWindow {
        /// Window length in seconds.
        secs: u64,
    },
    /// A single listing record per domain, ever (blacklists).
    BinaryListing,
}

impl ReportingPolicy {
    /// Whether an observation at `time` produces a record, given the
    /// time of the domain's previous record (`None` when first).
    pub fn emits(&self, previous: Option<SimTime>, time: SimTime) -> bool {
        match (*self, previous) {
            (_, None) => true,
            (ReportingPolicy::Raw, _) => true,
            (ReportingPolicy::DedupWindow { secs }, Some(prev)) => {
                time.secs() >= prev.secs().saturating_add(secs)
            }
            (ReportingPolicy::BinaryListing, Some(_)) => false,
        }
    }
}

/// Tracks per-domain record emission under a policy.
#[derive(Debug, Clone, Default)]
pub struct PolicyState {
    last_record: taster_domain::fx::FxHashMap<taster_domain::DomainId, SimTime>,
}

impl PolicyState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the policy to one observation; returns `true` when a
    /// record is emitted (and remembers it).
    pub fn observe(
        &mut self,
        policy: ReportingPolicy,
        domain: taster_domain::DomainId,
        time: SimTime,
    ) -> bool {
        let previous = self.last_record.get(&domain).copied();
        if policy.emits(previous, time) {
            self.last_record.insert(domain, time);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_domain::DomainId;
    use taster_sim::{SimTime, DAY, HOUR};

    #[test]
    fn raw_emits_everything() {
        let mut st = PolicyState::new();
        let d = DomainId(1);
        for t in [0, 1, 1, 2] {
            assert!(st.observe(ReportingPolicy::Raw, d, SimTime(t)));
        }
    }

    #[test]
    fn binary_listing_emits_once() {
        let mut st = PolicyState::new();
        let d = DomainId(1);
        assert!(st.observe(ReportingPolicy::BinaryListing, d, SimTime(5)));
        for t in [6, 100, 10_000] {
            assert!(!st.observe(ReportingPolicy::BinaryListing, d, SimTime(t)));
        }
        // Other domains are independent.
        assert!(st.observe(ReportingPolicy::BinaryListing, DomainId(2), SimTime(6)));
    }

    #[test]
    fn window_dedup_emits_once_per_window() {
        let mut st = PolicyState::new();
        let d = DomainId(9);
        let p = ReportingPolicy::DedupWindow { secs: DAY };
        assert!(st.observe(p, d, SimTime(0)));
        assert!(!st.observe(p, d, SimTime(HOUR)));
        assert!(!st.observe(p, d, SimTime(DAY - 1)));
        assert!(st.observe(p, d, SimTime(DAY)));
        assert!(!st.observe(p, d, SimTime(DAY + HOUR)));
        assert!(st.observe(p, d, SimTime(3 * DAY)));
    }

    /// Window dedup flattens the volume distribution: the paper's
    /// warning that aggregated feeds cannot answer proportionality
    /// questions (§4.3 uses only raw feeds).
    #[test]
    fn dedup_destroys_proportionality_information() {
        use taster_stats::kendall::kendall_tau_b_counts;
        let p = ReportingPolicy::DedupWindow { secs: DAY };
        // Domain 0 is 100x louder than domain 9, all within 3 days.
        let mut raw = [0u64; 10];
        let mut deduped = [0u64; 10];
        let mut st = PolicyState::new();
        for d in 0..10u32 {
            let copies = if d == 0 { 300 } else { 3 };
            for i in 0..copies {
                let t = SimTime((i as u64 * 3 * DAY) / copies as u64);
                raw[d as usize] += 1;
                if st.observe(p, DomainId(d), t) {
                    deduped[d as usize] += 1;
                }
            }
        }
        assert_eq!(raw[0], 300);
        assert!(deduped[0] <= 3, "loud domain collapses to one record/day");
        // Raw counts rank perfectly against themselves; deduped counts
        // are nearly ties and lose the ranking signal.
        let truth: Vec<u64> = raw.to_vec();
        let tau_raw = kendall_tau_b_counts(&truth, &raw).unwrap();
        assert!((tau_raw - 1.0).abs() < 1e-12);
        let tau_dedup = kendall_tau_b_counts(&truth, &deduped).unwrap_or(0.0);
        assert!(
            tau_dedup < tau_raw,
            "dedup weakens rank fidelity: {tau_dedup}"
        );
    }
}
