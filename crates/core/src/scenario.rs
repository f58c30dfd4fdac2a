//! Scenario presets.

use taster_analysis::ClassifyOptions;
use taster_ecosystem::EcosystemConfig;
use taster_feeds::FeedsConfig;
use taster_mailsim::MailConfig;
use taster_sim::{FaultPlan, FaultProfile, Parallelism};

/// A complete, self-describing experiment configuration. An
/// [`crate::Experiment`] is a pure function of a `Scenario`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (used in report headers).
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Ground-truth generation knobs.
    pub ecosystem: EcosystemConfig,
    /// Mail-layer knobs.
    pub mail: MailConfig,
    /// Feed-collector knobs.
    pub feeds: FeedsConfig,
    /// Classification options.
    pub classify: ClassifyOptions,
    /// Worker count for the three fan-outs: the collection driver's
    /// event shards, the crawl's domain shards and `replicate`'s seeds
    /// (the analyses after the crawl run serially). Changing this never
    /// changes results — every fan-out is bit-identical to a serial
    /// run — only how fast they arrive.
    pub parallelism: Parallelism,
    /// Fault-injection profile. [`FaultProfile::off`] (the default)
    /// leaves every output byte-identical to a fault-free build.
    pub faults: FaultProfile,
}

impl Scenario {
    /// The default paper-shaped scenario at full scale (~2 M delivered
    /// copies; a release-mode run takes tens of seconds).
    pub fn default_paper() -> Scenario {
        Scenario {
            name: "paper-default".to_string(),
            seed: 20_100_801, // 2010-08-01, the paper's collection start
            ecosystem: EcosystemConfig::default(),
            mail: MailConfig::default(),
            feeds: FeedsConfig::default(),
            classify: ClassifyOptions::default(),
            parallelism: Parallelism::default(),
            faults: FaultProfile::off(),
        }
    }

    /// Scales the scenario: `0.02` is a comfortable unit-test size,
    /// `1.0` the default reproduction, larger values stress runs.
    pub fn with_scale(mut self, factor: f64) -> Scenario {
        self.ecosystem = self.ecosystem.with_scale(factor);
        self.mail = self.mail.with_scale(factor);
        self.name = format!("{} (scale {factor})", self.name);
        self
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Pins the worker count for the parallel stages (the CLI's
    /// `--threads`). Zero is clamped to one worker.
    pub fn with_threads(mut self, workers: usize) -> Scenario {
        self.parallelism = Parallelism::fixed(workers);
        self
    }

    /// Injects a fault profile (the CLI's `--faults`). An off profile
    /// is a no-op and leaves the scenario name untouched, keeping
    /// clean reports byte-identical.
    pub fn with_faults(mut self, profile: FaultProfile) -> Scenario {
        if !profile.is_off() {
            self.name = format!("{} [faults: {}]", self.name, profile.name);
        }
        self.faults = profile;
        self
    }

    /// The concrete fault plan of this scenario: its profile keyed by
    /// its master seed.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new(self.faults.clone(), self.seed)
    }

    /// Ablation: disables the Rustock-style poisoning incident.
    pub fn without_poisoning(mut self) -> Scenario {
        self.ecosystem.poison = None;
        self.name = format!("{} [no poisoning]", self.name);
        self
    }

    /// Ablation: disables the provider's report-driven filtering
    /// (the `Hu` volume-saturation mechanism).
    pub fn without_provider_filter(mut self) -> Scenario {
        self.mail.filter_threshold = u32::MAX;
        self.mail.filter_volume_threshold = u64::MAX;
        self.name = format!("{} [no provider filter]", self.name);
        self
    }

    /// Ablation: keeps blacklist entries that occur in no base feed
    /// (the paper had to drop them; this quantifies that bias).
    pub fn with_unrestricted_blacklists(mut self) -> Scenario {
        self.classify.restrict_blacklists_to_base = false;
        self.name = format!("{} [unrestricted blacklists]", self.name);
        self
    }

    /// Ablation: re-seeds the narrow honey-account feed (Ac2) across
    /// all harvest vectors, making it an Ac1 clone.
    pub fn with_broad_ac2_seeding(mut self) -> Scenario {
        self.feeds.ac[1].vector_mask = self.feeds.ac[0].vector_mask;
        self.name = format!("{} [broad Ac2 seeding]", self.name);
        self
    }

    /// Preset: a world with no loud campaigns at all — every spammer
    /// is a deliverability-focused quiet operator. MX honeypots and
    /// honey accounts starve; only real-user-anchored feeds see
    /// anything. Useful for stress-testing analyses against empty
    /// feed intersections.
    pub fn quiet_world() -> Scenario {
        let mut s = Scenario::default_paper();
        s.ecosystem.loud_fraction = 0.0;
        s.ecosystem.operator_botnet_prob = 0.0;
        s.ecosystem.botnet_rental_prob = 0.0;
        s.ecosystem.poison = None;
        s.name = "quiet-world".to_string();
        s
    }

    /// Preset: a poisoning-dominated world — the Rustock-style stream
    /// is doubled and the rest of the ecosystem halved, exaggerating
    /// Table 2's purity collapse for robustness testing.
    pub fn poison_heavy() -> Scenario {
        let mut s = Scenario::default_paper();
        if let Some(p) = &mut s.ecosystem.poison {
            p.volume *= 2;
        }
        s.ecosystem.campaign_scale *= 0.5;
        s.name = "poison-heavy".to_string();
        s
    }

    /// Preset: a one-month measurement window (the paper's §4.2.2
    /// warning that "all results are inherently tied to their
    /// respective input datasets" includes the window length).
    pub fn short_window() -> Scenario {
        let mut s = Scenario::default_paper();
        s.ecosystem.days = 30;
        if let Some(p) = &mut s.ecosystem.poison {
            p.start_day = 8;
            p.days = 10;
        }
        s.mail.oracle_start_day = 12;
        s.name = "short-window".to_string();
        s
    }

    /// Validates every layer of the scenario.
    pub fn validate(&self) -> Result<(), String> {
        self.ecosystem.validate().map_err(|e| e.to_string())?;
        self.mail.validate()?;
        self.feeds.validate()?;
        self.faults.validate()?;
        Ok(())
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Scenario::default_paper().validate().unwrap();
        Scenario::default_paper()
            .with_scale(0.1)
            .without_poisoning()
            .without_provider_filter()
            .with_unrestricted_blacklists()
            .with_broad_ac2_seeding()
            .validate()
            .unwrap();
    }

    #[test]
    fn ablations_change_the_right_knobs() {
        let s = Scenario::default_paper().without_poisoning();
        assert!(s.ecosystem.poison.is_none());
        let s = Scenario::default_paper().with_unrestricted_blacklists();
        assert!(!s.classify.restrict_blacklists_to_base);
        let s = Scenario::default_paper().with_broad_ac2_seeding();
        assert_eq!(s.feeds.ac[1].vector_mask, s.feeds.ac[0].vector_mask);
        let s = Scenario::default_paper().with_seed(99);
        assert_eq!(s.seed, 99);
        let s = Scenario::default_paper().with_threads(4);
        assert_eq!(s.parallelism.workers(), 4);
        assert_eq!(
            Scenario::default_paper()
                .with_threads(0)
                .parallelism
                .workers(),
            1
        );
    }

    #[test]
    fn presets_are_coherent() {
        for s in [
            Scenario::quiet_world(),
            Scenario::poison_heavy(),
            Scenario::short_window(),
        ] {
            s.validate().unwrap();
        }
        assert!(Scenario::quiet_world().ecosystem.poison.is_none());
        assert_eq!(Scenario::short_window().ecosystem.days, 30);
        let heavy = Scenario::poison_heavy();
        let base = Scenario::default_paper();
        assert_eq!(
            heavy.ecosystem.poison.unwrap().volume,
            base.ecosystem.poison.unwrap().volume * 2
        );
    }

    #[test]
    fn quiet_world_starves_honeypots() {
        use crate::Experiment;
        use taster_ecosystem::domains::DomainKind;
        use taster_feeds::FeedId;
        let e = Experiment::run(&Scenario::quiet_world().with_scale(0.03).with_seed(3));
        let spam_count = |id: FeedId| {
            e.feeds
                .get(id)
                .domain_ids()
                .filter(|&d| {
                    matches!(
                        e.world.truth.universe.record(d).kind,
                        DomainKind::Storefront { .. } | DomainKind::Landing
                    )
                })
                .count()
        };
        // Without loud campaigns there is no brute-force or harvested
        // blast traffic: honeypots hold only typo/sign-up pollution,
        // while the real-user feed still sees the quiet campaigns.
        let mx2_spam = spam_count(FeedId::Mx2);
        let hu_spam = spam_count(FeedId::Hu);
        assert!(
            mx2_spam * 10 < hu_spam,
            "mx2 spam {mx2_spam} vs Hu spam {hu_spam}"
        );
        assert!(hu_spam > 50, "Hu still covers the quiet world: {hu_spam}");
    }

    #[test]
    fn fault_profiles_annotate_names_only_when_on() {
        let clean = Scenario::default_paper().with_faults(FaultProfile::off());
        assert_eq!(clean.name, Scenario::default_paper().name);
        assert!(clean.fault_plan().is_off());
        let flaky = Scenario::default_paper().with_faults(FaultProfile::flaky_crawler());
        assert!(flaky.name.contains("faults: flaky-crawler"));
        assert!(!flaky.fault_plan().is_off());
        assert_eq!(flaky.fault_plan().seed(), flaky.seed);
        flaky.validate().unwrap();
    }

    #[test]
    fn names_record_ablations() {
        let s = Scenario::default_paper()
            .with_scale(0.5)
            .without_poisoning();
        assert!(s.name.contains("scale 0.5"));
        assert!(s.name.contains("no poisoning"));
    }
}
