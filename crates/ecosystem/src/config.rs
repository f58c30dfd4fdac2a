//! Scenario knobs for ground-truth generation.
//!
//! Every parameter of the simulated ecosystem lives here, with
//! defaults shaped to reproduce the paper's qualitative findings at a
//! laptop-friendly scale (≈1.5–2.5 M delivered copies over 92 days —
//! the paper's feeds total >1 B messages over the same period; the
//! analyses only depend on relative structure).

/// Parameters of a bounded-Pareto volume law.
#[derive(Debug, Clone, Copy)]
pub struct VolumeLaw {
    /// Tail exponent (smaller ⇒ heavier tail).
    pub alpha: f64,
    /// Minimum volume (delivered copies).
    pub min: f64,
    /// Maximum volume (delivered copies).
    pub max: f64,
}

/// A campaign targeting mix; fields need not sum to 1 (they are
/// normalised when sampled).
#[derive(Debug, Clone, Copy)]
pub struct TargetMixConfig {
    /// Weight of brute-force address lists (reaches MX honeypots).
    pub brute: f64,
    /// Weight of harvested lists (reaches honey accounts).
    pub harvested: f64,
    /// Weight of purchased high-quality lists (real users only).
    pub purchased: f64,
    /// Weight of social/compromised-account lists (real users only).
    pub social: f64,
}

impl TargetMixConfig {
    /// Sum of weights.
    pub fn total(&self) -> f64 {
        self.brute + self.harvested + self.purchased + self.social
    }
}

/// The Rustock-style poisoning incident (§4.1.1).
#[derive(Debug, Clone, Copy)]
pub struct PoisonConfig {
    /// Day the poisoning starts.
    pub start_day: u64,
    /// Length of the poisoning window in days.
    pub days: u64,
    /// Delivered poison copies over the window (scaled by
    /// `volume_scale`).
    pub volume: u64,
    /// Mean copies advertising the same random domain before a fresh
    /// one is generated (the paper saw ~12 samples per unique domain
    /// in `Bot`).
    pub copies_per_domain: f64,
    /// Fraction of poison domains that happen to be registered
    /// (Table 2 shows <1 % DNS for `Bot`).
    pub registered_prob: f64,
}

/// All ecosystem generation knobs.
#[derive(Debug, Clone)]
pub struct EcosystemConfig {
    /// Measurement window length in days (paper: Aug 1 – Oct 31 2010).
    pub days: u64,
    /// Multiplies campaign counts. 1.0 ≈ default scenario.
    pub campaign_scale: f64,
    /// Multiplies campaign volumes.
    pub volume_scale: f64,

    // ------------------------------------------------ programs
    /// Number of tagged affiliate programs (Click Trajectories: 45).
    pub tagged_programs: usize,
    /// RX-Promotion affiliate count (paper: 846 identifiers).
    pub rx_affiliates: usize,
    /// Affiliates per non-RX tagged program (uniform range).
    pub tagged_affiliates: (usize, usize),
    /// Number of untagged programs (casino/dating/e-book verticals).
    pub untagged_programs: usize,
    /// Affiliates per untagged program (uniform range).
    pub untagged_affiliates: (usize, usize),
    /// Log-normal parameters of affiliate annual revenue (USD).
    pub revenue_mu: f64,
    /// Log-normal sigma of affiliate annual revenue.
    pub revenue_sigma: f64,

    // ------------------------------------------------ botnets
    /// Number of botnets.
    pub botnets: usize,
    /// How many of them the `Bot` feed monitors.
    pub monitored_botnets: usize,
    /// Distinct programs botnet operators advertise for, across all
    /// botnets (paper Fig 4: `Bot` covered only 15 programs).
    pub botnet_program_pool: usize,
    /// Volume multiplier for botnet-delivered campaigns.
    pub botnet_volume_multiplier: f64,
    /// Campaign-rate multiplier for botnet-operator affiliates (they
    /// spam full-time).
    pub operator_campaign_multiplier: f64,
    /// Probability an operator affiliate's campaign is delivered by
    /// their own botnet (loud); otherwise they behave like direct
    /// spammers.
    pub operator_botnet_prob: f64,
    /// Probability a non-operator loud campaign rents a botnet.
    pub botnet_rental_prob: f64,
    /// The poisoning incident; `None` disables it (ablation).
    pub poison: Option<PoisonConfig>,

    // ------------------------------------------------ campaigns
    /// Mean campaigns per affiliate over the window (Poisson; RX
    /// affiliates are guaranteed at least one).
    pub campaigns_per_affiliate: f64,
    /// Couples affiliate revenue to spam output: campaign volume is
    /// multiplied by `(revenue / exp(revenue_mu))^exponent` (clamped),
    /// and campaign count by its square root. An affiliate earns a lot
    /// *because* they spam a lot — the correlation behind Fig 6's
    /// revenue-skewed blacklist coverage.
    pub revenue_volume_exponent: f64,
    /// Base probability a direct (non-botnet) campaign is loud; the
    /// effective probability is `loud_fraction × revenue_factor²`
    /// (clamped to 0.85), concentrating loud campaigns in the few
    /// high-revenue affiliates — the reason honeypot feeds see many
    /// tagged *domains* but few distinct *affiliates* (Fig 5).
    pub loud_fraction: f64,
    /// Probability a loud campaign rents a botnet.
    pub botnet_delivery_fraction: f64,
    /// Trickle (deliverability-test) phase length in days, uniform.
    pub trickle_days: (f64, f64),
    /// Fraction of campaign volume spent in the trickle phase.
    pub trickle_volume_fraction: f64,
    /// Volume law for loud campaigns.
    pub loud_volume: VolumeLaw,
    /// Volume law for quiet campaigns.
    pub quiet_volume: VolumeLaw,
    /// Clamp range for the number of storefront domains a loud
    /// campaign rotates through.
    pub loud_domains: (usize, usize),
    /// Clamp range for quiet campaigns.
    pub quiet_domains: (usize, usize),
    /// Copies sent per domain before a loud campaign rotates (domains
    /// ≈ volume / this, clamped to `loud_domains`).
    pub loud_copies_per_domain: f64,
    /// Copies per domain for quiet campaigns (deliverability-focused
    /// spammers rotate fast to stay ahead of blacklists).
    pub quiet_copies_per_domain: f64,
    /// Mean active lifetime of one spam domain, days (exponential,
    /// clamped to [1, 14]).
    pub domain_lifetime_days: f64,
    /// Targeting mix of loud campaigns' blast phase.
    pub loud_mix: TargetMixConfig,
    /// Targeting mix of quiet campaigns' blast phase.
    pub quiet_mix: TargetMixConfig,
    /// Targeting mix of every trickle phase (real users only).
    pub trickle_mix: TargetMixConfig,
    /// Number of harvest vectors (forums, web pages, mailing lists…).
    pub harvest_vectors: u8,
    /// Probability that a direct loud campaign's brute-force list is
    /// fresh (zone-file derived, hence includes newly-registered MX
    /// honeypot domains). Botnet lists are always fresh.
    pub direct_fresh_list_prob: f64,

    // ------------------------------------------------ landing domains
    /// Probability a campaign advertises through landing domains.
    pub landing_campaign_prob: f64,
    /// Probability an advertised copy uses the landing rather than the
    /// storefront domain (within landing campaigns).
    pub advertise_landing_prob: f64,
    /// Probability a landing domain is a compromised/free-hosting
    /// *benign* domain instead of a fresh registration.
    pub landing_compromised_prob: f64,

    // ------------------------------------------------ web spam corpus
    /// Spam-advertised domains that never appear in e-mail: forum/SEO
    /// ("search-redirection") spam. Only the hybrid feed's non-mail
    /// source sees them — the paper's explanation for `Hyb`'s many
    /// exclusive live domains yet tiny mail-volume coverage (§4.2.2).
    /// Scaled by `campaign_scale`.
    pub webspam_domains: usize,
    /// Fraction of web-spam domains fronting *tagged* programs.
    pub webspam_tagged_fraction: f64,
    /// Registration rate of web-spam domains (forum/SEO spam cites a
    /// lot of dead or junk domains — the source of `Hyb`'s depressed
    /// DNS purity in Table 2).
    pub webspam_registered_prob: f64,

    // ------------------------------------------------ benign universe
    /// Size of the benign popular-domain universe.
    pub benign_domains: usize,
    /// How many benign domains (by popularity) carry an Alexa rank.
    pub alexa_list_size: usize,
    /// Fraction of benign domains listed in the ODP.
    pub odp_fraction: f64,
    /// Zipf exponent of benign-domain popularity.
    pub benign_zipf_s: f64,
    /// Probability a spam copy carries one benign chaff URL.
    pub chaff_prob: f64,

    // ------------------------------------------------ domain ground truth
    /// Probability a storefront domain is DNS-registered.
    pub storefront_registered_prob: f64,
    /// Probability a registered storefront responds over HTTP.
    pub storefront_live_prob: f64,
    /// Probability a fresh landing domain is live.
    pub landing_live_prob: f64,

    // ------------------------------------------------ memory budget
    /// Peak bytes the streaming event core may hold resident at once
    /// (`--max-mem-bytes`). `None` uses [`DEFAULT_MEM_BUDGET`]. The
    /// budget decides whether the sorted event cache is built and, when
    /// it is not, how many rows the sort runs and the streaming
    /// chunk/bucket buffers may hold. It never changes any output byte
    /// — cached and spilled runs hold the same time-sorted rows.
    pub max_mem_bytes: Option<u64>,
}

/// Default streaming-memory budget: 1 GiB, comfortably inside the
/// reference container while letting paper scale (≈4 M events) keep
/// the sorted event cache resident.
pub const DEFAULT_MEM_BUDGET: u64 = 1 << 30;

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            days: 92,
            campaign_scale: 1.0,
            volume_scale: 1.0,

            tagged_programs: 45,
            rx_affiliates: 846,
            tagged_affiliates: (3, 12),
            untagged_programs: 60,
            untagged_affiliates: (6, 24),
            revenue_mu: 9.8,
            revenue_sigma: 1.7,

            botnets: 6,
            monitored_botnets: 4,
            botnet_program_pool: 15,
            botnet_volume_multiplier: 2.5,
            operator_campaign_multiplier: 6.0,
            operator_botnet_prob: 0.85,
            botnet_rental_prob: 0.05,
            poison: Some(PoisonConfig {
                start_day: 34,
                days: 20,
                volume: 650_000,
                copies_per_domain: 2.0,
                registered_prob: 0.004,
            }),

            campaigns_per_affiliate: 1.15,
            revenue_volume_exponent: 0.45,
            loud_fraction: 0.02,
            botnet_delivery_fraction: 0.55,
            trickle_days: (1.0, 3.0),
            trickle_volume_fraction: 0.07,
            loud_volume: VolumeLaw {
                alpha: 1.05,
                min: 400.0,
                max: 80_000.0,
            },
            quiet_volume: VolumeLaw {
                alpha: 1.4,
                min: 50.0,
                max: 900.0,
            },
            loud_domains: (6, 100),
            quiet_domains: (2, 10),
            loud_copies_per_domain: 150.0,
            quiet_copies_per_domain: 35.0,
            domain_lifetime_days: 4.0,
            loud_mix: TargetMixConfig {
                brute: 0.50,
                harvested: 0.30,
                purchased: 0.15,
                social: 0.05,
            },
            quiet_mix: TargetMixConfig {
                brute: 0.0,
                harvested: 0.012,
                purchased: 0.64,
                social: 0.348,
            },
            trickle_mix: TargetMixConfig {
                brute: 0.0,
                harvested: 0.0,
                purchased: 0.7,
                social: 0.3,
            },
            harvest_vectors: 5,
            direct_fresh_list_prob: 0.20,

            landing_campaign_prob: 0.30,
            advertise_landing_prob: 0.8,
            landing_compromised_prob: 0.35,

            webspam_domains: 13_000,
            webspam_tagged_fraction: 0.08,
            webspam_registered_prob: 0.62,

            benign_domains: 2_600,
            alexa_list_size: 1_200,
            odp_fraction: 0.55,
            benign_zipf_s: 1.05,
            chaff_prob: 0.65,

            storefront_registered_prob: 0.99,
            storefront_live_prob: 0.93,
            landing_live_prob: 0.90,

            max_mem_bytes: None,
        }
    }
}

impl EcosystemConfig {
    /// Scales the scenario uniformly: campaign counts and volumes are
    /// both multiplied by `factor`. Useful for fast tests
    /// (`with_scale(0.02)`) and stress runs (`with_scale(4.0)`).
    pub fn with_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale must be positive");
        self.campaign_scale *= factor;
        self.volume_scale *= factor.sqrt();
        if let Some(p) = &mut self.poison {
            p.volume = ((p.volume as f64) * factor).round().max(1.0) as u64;
        }
        // Keep the benign universe roughly proportional so purity
        // percentages survive scaling, with a floor for tiny runs.
        self.benign_domains = ((self.benign_domains as f64 * factor.sqrt()) as usize).max(400);
        self.alexa_list_size = ((self.alexa_list_size as f64 * factor.sqrt()) as usize).max(200);
        self
    }

    /// Validates cross-field invariants; called by the generator.
    pub fn validate(&self) -> Result<(), String> {
        if self.days == 0 {
            return Err("days must be positive".into());
        }
        if self.monitored_botnets > self.botnets {
            return Err("monitored_botnets exceeds botnets".into());
        }
        if self.tagged_programs == 0 {
            return Err("need at least one tagged program (RX)".into());
        }
        if self.alexa_list_size > self.benign_domains {
            return Err("alexa_list_size exceeds benign universe".into());
        }
        for (name, law) in [("loud", &self.loud_volume), ("quiet", &self.quiet_volume)] {
            if !(law.alpha > 0.0 && law.min > 0.0 && law.max > law.min) {
                return Err(format!("invalid {name} volume law"));
            }
        }
        for (name, mix) in [
            ("loud", &self.loud_mix),
            ("quiet", &self.quiet_mix),
            ("trickle", &self.trickle_mix),
        ] {
            if mix.total() <= 0.0 {
                return Err(format!("{name} mix has no mass"));
            }
        }
        if self.harvest_vectors == 0 || self.harvest_vectors > 8 {
            return Err("harvest_vectors must be in 1..=8".into());
        }
        if self.max_mem_bytes == Some(0) {
            return Err("max_mem_bytes must be positive".into());
        }
        Ok(())
    }

    /// Effective streaming-memory budget in bytes.
    pub fn mem_budget(&self) -> u64 {
        self.max_mem_bytes.unwrap_or(DEFAULT_MEM_BUDGET)
    }

    /// Peak bytes building and holding the sorted event cache costs:
    /// the generation-order columns, the widest scatter column (the
    /// 8-byte time column) and the `u32` sorted positions, both
    /// transient during the column-wise re-sort.
    pub fn cache_peak_bytes(events: u64) -> u64 {
        events * (crate::buffer::EventBuffer::bytes_per_event() as u64 + 8 + 4)
    }

    /// Whether a log of `events` rows should keep the sorted event
    /// cache resident under this budget.
    pub fn wants_cache(&self, events: u64) -> bool {
        Self::cache_peak_bytes(events) <= self.mem_budget()
    }

    /// Rows one out-of-core buffer — a sort run, a provider bucket or
    /// a collection chunk — may hold under this budget. Nothing else
    /// scales with the log out of core. At least 1 — a starved budget
    /// degrades to row-at-a-time streaming rather than failing.
    pub fn budget_rows(&self, events: u64) -> usize {
        let rows = self.mem_budget() / crate::buffer::EventBuffer::bytes_per_event() as u64;
        rows.clamp(1, events.max(1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        EcosystemConfig::default().validate().unwrap();
    }

    #[test]
    fn scale_adjusts_counts() {
        let c = EcosystemConfig::default().with_scale(0.25);
        assert!((c.campaign_scale - 0.25).abs() < 1e-12);
        assert!((c.volume_scale - 0.5).abs() < 1e-12);
        assert!(c.benign_domains >= 400);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_errors() {
        let c = EcosystemConfig {
            monitored_botnets: 99,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let mut c = EcosystemConfig::default();
        c.alexa_list_size = c.benign_domains + 1;
        assert!(c.validate().is_err());

        let mut c = EcosystemConfig::default();
        c.loud_volume.max = 1.0;
        assert!(c.validate().is_err());

        let c = EcosystemConfig {
            harvest_vectors: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = EcosystemConfig::default().with_scale(0.0);
    }
}
