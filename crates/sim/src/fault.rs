//! Deterministic fault injection.
//!
//! The real 2010 feeds behind *Taster's Choice* were collected by messy
//! infrastructure: collectors went down for hours, crawler visits timed
//! out, DNS lookups returned SERVFAIL, and blacklist snapshots arrived
//! late or truncated. This module models those failure modes as a
//! [`FaultProfile`] (what can go wrong, and how often) compiled into a
//! [`FaultPlan`] (the profile bound to a master seed).
//!
//! **Determinism contract.** Every fault decision is a pure function of
//! `(seed, stage, event index)`: the plan derives a fresh
//! [`RngStream`] child named `fault/<stage>` at the event index and
//! draws from it. Because no stream state is shared between events,
//! decisions are independent of sharding and iteration order — faulted
//! runs stay bit-identical at any worker count. And because the
//! `fault/…` stream names are disjoint from every collector stream,
//! an all-zero profile ([`FaultProfile::off`]) consumes no randomness
//! at all and leaves clean runs byte-identical.

use crate::rng::{name_key, RngStream};
use crate::time::{SimTime, TimeWindow};
use rand::RngExt;

/// Outage stage label matching every stage.
pub const ALL_STAGES: &str = "*";

/// A collector outage: the named stage records nothing inside `window`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outage {
    /// Stage label the outage applies to (a feed label such as `mx1`,
    /// or [`ALL_STAGES`] for a global blackout).
    pub stage: String,
    /// Half-open window during which the stage is down.
    pub window: TimeWindow,
}

/// What the fault layer decided to do with one collected record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFault {
    /// Record passes through untouched.
    Deliver,
    /// Record is lost before the collector logs it.
    Drop,
    /// Record is logged twice (e.g. an at-least-once queue replay).
    Duplicate,
    /// Record arrives with its payload cut short.
    Truncate,
}

/// Declarative description of collection-infrastructure failures.
///
/// All probabilities are per-event and must lie in `[0, 1]`. The
/// default profile is [`FaultProfile::off`] — every rate zero, no
/// outages — under which the pipeline behaves exactly as if the fault
/// layer did not exist.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Profile name, echoed in reports and selectable on the CLI.
    pub name: String,
    /// Collector outage windows.
    pub outages: Vec<Outage>,
    /// Probability a captured record is dropped before logging.
    pub record_drop_prob: f64,
    /// Probability a captured record is logged twice.
    pub record_duplicate_prob: f64,
    /// Probability a captured record's payload is truncated.
    pub record_truncate_prob: f64,
    /// Probability a DNS lookup attempt returns SERVFAIL.
    pub dns_servfail_prob: f64,
    /// Probability an HTTP fetch attempt times out.
    pub http_timeout_prob: f64,
    /// Crawler retries after the first failed attempt.
    pub crawl_max_retries: u32,
    /// Base simulated-time backoff between crawl attempts (doubles
    /// per retry).
    pub crawl_backoff_secs: u64,
    /// Extra latency added to every blacklist listing time.
    pub snapshot_delay_secs: u64,
    /// Probability a blacklist snapshot entry is lost to truncation.
    pub snapshot_truncate_prob: f64,
}

impl FaultProfile {
    /// The no-fault profile: all rates zero, no outages.
    pub fn off() -> FaultProfile {
        FaultProfile {
            name: "off".to_string(),
            outages: Vec::new(),
            record_drop_prob: 0.0,
            record_duplicate_prob: 0.0,
            record_truncate_prob: 0.0,
            dns_servfail_prob: 0.0,
            http_timeout_prob: 0.0,
            crawl_max_retries: 2,
            crawl_backoff_secs: 30,
            snapshot_delay_secs: 0,
            snapshot_truncate_prob: 0.0,
        }
    }

    /// Transient crawler trouble: SERVFAILs and HTTP timeouts with
    /// bounded retries, the collectors themselves healthy.
    pub fn flaky_crawler() -> FaultProfile {
        FaultProfile {
            name: "flaky-crawler".to_string(),
            dns_servfail_prob: 0.08,
            http_timeout_prob: 0.15,
            crawl_max_retries: 2,
            crawl_backoff_secs: 30,
            ..FaultProfile::off()
        }
    }

    /// Multi-day collector outages on three feeds (one honeypot, the
    /// human-identified feed, the botnet monitor).
    pub fn feed_outage() -> FaultProfile {
        FaultProfile {
            name: "feed-outage".to_string(),
            outages: vec![
                Outage {
                    stage: "mx2".to_string(),
                    window: TimeWindow::new(SimTime::from_days(10), SimTime::from_days(20)),
                },
                Outage {
                    stage: "Hu".to_string(),
                    window: TimeWindow::new(SimTime::from_days(40), SimTime::from_days(45)),
                },
                Outage {
                    stage: "Bot".to_string(),
                    window: TimeWindow::new(SimTime::from_days(60), SimTime::from_days(75)),
                },
            ],
            ..FaultProfile::off()
        }
    }

    /// Lossy record handling: drops, duplicates and truncation on every
    /// content collector.
    pub fn lossy_feeds() -> FaultProfile {
        FaultProfile {
            name: "lossy-feeds".to_string(),
            record_drop_prob: 0.10,
            record_duplicate_prob: 0.03,
            record_truncate_prob: 0.05,
            ..FaultProfile::off()
        }
    }

    /// Blacklist snapshots arrive two days late and 20% truncated.
    pub fn delayed_blacklists() -> FaultProfile {
        FaultProfile {
            name: "delayed-blacklists".to_string(),
            snapshot_delay_secs: 2 * crate::time::DAY,
            snapshot_truncate_prob: 0.20,
            ..FaultProfile::off()
        }
    }

    /// Every collector down for the whole measurement period — the
    /// empty-feed stress profile. The pipeline must complete without
    /// panicking and emit an annotated (degenerate) report.
    pub fn blackout() -> FaultProfile {
        FaultProfile {
            name: "blackout".to_string(),
            outages: vec![Outage {
                stage: ALL_STAGES.to_string(),
                window: TimeWindow::new(SimTime::ZERO, SimTime(u64::MAX)),
            }],
            ..FaultProfile::off()
        }
    }

    /// Names of the canonical profiles: every named profile but `off`.
    pub const CANONICAL: [&'static str; 5] = [
        "flaky-crawler",
        "feed-outage",
        "lossy-feeds",
        "delayed-blacklists",
        "blackout",
    ];

    /// Looks a canonical profile up by name (`off` is also accepted).
    pub fn by_name(name: &str) -> Option<FaultProfile> {
        match name {
            "off" => Some(FaultProfile::off()),
            "flaky-crawler" => Some(FaultProfile::flaky_crawler()),
            "feed-outage" => Some(FaultProfile::feed_outage()),
            "lossy-feeds" => Some(FaultProfile::lossy_feeds()),
            "delayed-blacklists" => Some(FaultProfile::delayed_blacklists()),
            "blackout" => Some(FaultProfile::blackout()),
            _ => None,
        }
    }

    /// True when the profile introduces no faults at all.
    pub fn is_off(&self) -> bool {
        self.outages.is_empty()
            && self.record_drop_prob == 0.0
            && self.record_duplicate_prob == 0.0
            && self.record_truncate_prob == 0.0
            && self.dns_servfail_prob == 0.0
            && self.http_timeout_prob == 0.0
            && self.snapshot_delay_secs == 0
            && self.snapshot_truncate_prob == 0.0
    }

    /// Validates rate ranges; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("record_drop_prob", self.record_drop_prob),
            ("record_duplicate_prob", self.record_duplicate_prob),
            ("record_truncate_prob", self.record_truncate_prob),
            ("dns_servfail_prob", self.dns_servfail_prob),
            ("http_timeout_prob", self.http_timeout_prob),
            ("snapshot_truncate_prob", self.snapshot_truncate_prob),
        ];
        for (label, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{label} must lie in [0, 1], got {rate}"));
            }
        }
        let record_total =
            self.record_drop_prob + self.record_duplicate_prob + self.record_truncate_prob;
        if record_total > 1.0 {
            return Err(format!(
                "record fault probabilities sum to {record_total} > 1"
            ));
        }
        Ok(())
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::off()
    }
}

/// A [`FaultProfile`] bound to a master seed: the object collectors and
/// the crawler consult for every fault decision.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    profile: FaultProfile,
    seed: u64,
}

impl FaultPlan {
    /// Binds `profile` to `seed`.
    pub fn new(profile: FaultProfile, seed: u64) -> FaultPlan {
        FaultPlan { profile, seed }
    }

    /// The no-fault plan for `seed`.
    pub fn off(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultProfile::off(), seed)
    }

    /// The profile this plan was built from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The master seed fault decisions are keyed by.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no decision this plan makes can introduce a fault.
    pub fn is_off(&self) -> bool {
        self.profile.is_off()
    }

    /// Precomputed key for `stage`'s decision stream
    /// (`name_key("fault/<stage>")`): hash the name once, then pass the
    /// key to [`Self::record_fault_keyed`] per event instead of paying
    /// a `format!` + name hash per decision.
    pub fn fault_key(stage: &str) -> u64 {
        #[expect(
            clippy::disallowed_methods,
            reason = "fault streams are named by the stages fault profiles match, which are data"
        )]
        let key = name_key(&format!("fault/{stage}"));
        key
    }

    /// The decision stream for `(seed, stage, index)`.
    ///
    /// Deriving a fresh child per event index is what makes every
    /// decision independent of sharding: no draw consumed for one event
    /// can perturb another event's stream.
    pub fn stream(&self, stage: &str, index: u64) -> RngStream {
        RngStream::child_keyed(self.seed, Self::fault_key(stage), index)
    }

    /// [`Self::stream`] with the stage key precomputed via
    /// [`Self::fault_key`] — bit-identical for `key ==
    /// fault_key(stage)`. The crawler derives one decision stream per
    /// domain per stage; hashing the stage name once instead of per
    /// domain keeps the faulted crawl allocation-free.
    pub fn stream_keyed(&self, key: u64, index: u64) -> RngStream {
        RngStream::child_keyed(self.seed, key, index)
    }

    /// True when this plan can ever return a non-Deliver record
    /// decision. Hot loops hoist this check out of the per-event path:
    /// outage-only profiles (and the off plan) then skip the stream
    /// derivation entirely instead of early-returning per record.
    pub fn record_faults_possible(&self) -> bool {
        let p = &self.profile;
        p.record_drop_prob + p.record_duplicate_prob + p.record_truncate_prob > 0.0
    }

    /// True when `stage` is inside an outage window at `t`.
    pub fn outage_at(&self, stage: &str, t: SimTime) -> bool {
        self.profile
            .outages
            .iter()
            .any(|o| (o.stage == stage || o.stage == ALL_STAGES) && o.window.contains(t))
    }

    /// The outage windows that apply to `stage` (gap markers).
    pub fn outage_windows(&self, stage: &str) -> Vec<TimeWindow> {
        self.profile
            .outages
            .iter()
            .filter(|o| o.stage == stage || o.stage == ALL_STAGES)
            .map(|o| o.window)
            .collect()
    }

    /// Fault decision for record `index` of `stage`.
    pub fn record_fault(&self, stage: &str, index: u64) -> RecordFault {
        if !self.record_faults_possible() {
            return RecordFault::Deliver;
        }
        self.record_fault_keyed(Self::fault_key(stage), index)
    }

    /// [`Self::record_fault`] with the stage key precomputed via
    /// [`Self::fault_key`]. Bit-identical for `key == fault_key(stage)`.
    /// Callers on the hot path gate on [`Self::record_faults_possible`]
    /// themselves, so this derives the stream unconditionally.
    pub fn record_fault_keyed(&self, key: u64, index: u64) -> RecordFault {
        let p = &self.profile;
        let total = p.record_drop_prob + p.record_duplicate_prob + p.record_truncate_prob;
        let mut rng = RngStream::child_keyed(self.seed, key, index);
        let x: f64 = rng.random();
        if x < p.record_drop_prob {
            RecordFault::Drop
        } else if x < p.record_drop_prob + p.record_duplicate_prob {
            RecordFault::Duplicate
        } else if x < total {
            RecordFault::Truncate
        } else {
            RecordFault::Deliver
        }
    }

    /// True when blacklist `stage` loses snapshot entry `index` to
    /// truncation.
    pub fn snapshot_dropped(&self, stage: &str, index: u64) -> bool {
        let p = self.profile.snapshot_truncate_prob;
        if p <= 0.0 {
            return false;
        }
        let mut rng = self.stream(&format!("snapshot/{stage}"), index);
        rng.random_bool(p)
    }
}

/// Truncates `payload` to its first half, respecting UTF-8 boundaries.
///
/// This is the canonical "record arrived cut short" transformation
/// applied when [`FaultPlan::record_fault`] returns
/// [`RecordFault::Truncate`].
pub fn truncate_payload(payload: &str) -> &str {
    let mut cut = payload.len() / 2;
    while cut > 0 && !payload.is_char_boundary(cut) {
        cut -= 1;
    }
    &payload[..cut]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::DAY;

    #[test]
    fn off_profile_is_off() {
        assert!(FaultProfile::off().is_off());
        assert!(FaultPlan::off(7).is_off());
        assert!(!FaultProfile::flaky_crawler().is_off());
        assert!(!FaultProfile::blackout().is_off());
    }

    #[test]
    fn canonical_profiles_resolve_and_validate() {
        for name in FaultProfile::CANONICAL {
            let profile = FaultProfile::by_name(name).unwrap();
            profile.validate().unwrap();
            assert_eq!(profile.name, name);
            assert!(!profile.is_off(), "{name}");
        }
        assert!(FaultProfile::by_name("nope").is_none());
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut p = FaultProfile::off();
        p.record_drop_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultProfile::off();
        p.record_drop_prob = 0.6;
        p.record_truncate_prob = 0.6;
        assert!(p.validate().is_err());
        let mut p = FaultProfile::off();
        p.dns_servfail_prob = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn record_faults_are_pure_in_seed_stage_index() {
        let plan = FaultPlan::new(FaultProfile::lossy_feeds(), 99);
        for i in 0..512 {
            assert_eq!(plan.record_fault("mx1", i), plan.record_fault("mx1", i));
        }
        // Stage and seed both perturb decisions.
        let other_seed = FaultPlan::new(FaultProfile::lossy_feeds(), 100);
        let differs_by_stage = (0..512)
            .filter(|&i| plan.record_fault("mx1", i) != plan.record_fault("mx2", i))
            .count();
        let differs_by_seed = (0..512)
            .filter(|&i| plan.record_fault("mx1", i) != other_seed.record_fault("mx1", i))
            .count();
        assert!(differs_by_stage > 0);
        assert!(differs_by_seed > 0);
    }

    #[test]
    fn keyed_record_fault_matches_named() {
        let plan = FaultPlan::new(FaultProfile::lossy_feeds(), 77);
        let key = FaultPlan::fault_key("mx3");
        for i in 0..512 {
            assert_eq!(plan.record_fault("mx3", i), plan.record_fault_keyed(key, i));
        }
        assert!(plan.record_faults_possible());
        // Outage-only profiles can never fault a record: hot loops may
        // skip the per-event decision entirely.
        assert!(!FaultPlan::new(FaultProfile::feed_outage(), 77).record_faults_possible());
        assert!(!FaultPlan::off(77).record_faults_possible());
    }

    #[test]
    fn off_plan_never_faults() {
        let plan = FaultPlan::off(3);
        for i in 0..64 {
            assert_eq!(plan.record_fault("mx1", i), RecordFault::Deliver);
            assert!(!plan.snapshot_dropped("dbl", i));
            assert!(!plan.outage_at("mx1", SimTime(i * DAY)));
        }
    }

    #[test]
    fn outage_windows_respect_stage_and_wildcard() {
        let plan = FaultPlan::new(FaultProfile::feed_outage(), 1);
        assert!(plan.outage_at("mx2", SimTime::from_days(15)));
        assert!(!plan.outage_at("mx2", SimTime::from_days(25)));
        assert!(!plan.outage_at("mx1", SimTime::from_days(15)));
        assert_eq!(plan.outage_windows("mx2").len(), 1);
        assert_eq!(plan.outage_windows("mx1").len(), 0);

        let blackout = FaultPlan::new(FaultProfile::blackout(), 1);
        assert!(blackout.outage_at("mx1", SimTime::from_days(91)));
        assert!(blackout.outage_at("uribl", SimTime::ZERO));
        assert_eq!(blackout.outage_windows("Hyb").len(), 1);
    }

    #[test]
    fn lossy_profile_produces_every_fault_kind() {
        let plan = FaultPlan::new(FaultProfile::lossy_feeds(), 42);
        let mut seen = [false; 4];
        for i in 0..4096 {
            let slot = match plan.record_fault("bot", i) {
                RecordFault::Deliver => 0,
                RecordFault::Drop => 1,
                RecordFault::Duplicate => 2,
                RecordFault::Truncate => 3,
            };
            seen[slot] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn truncate_payload_halves_on_char_boundary() {
        assert_eq!(truncate_payload("abcdef"), "abc");
        assert_eq!(truncate_payload(""), "");
        // 'é' is two bytes; the cut must back off to a boundary.
        let s = "aéé";
        let cut = truncate_payload(s);
        assert!(s.starts_with(cut));
        assert!(cut.len() <= s.len() / 2);
    }
}
