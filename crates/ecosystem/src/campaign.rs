//! Campaigns: who advertises what, when, how loudly, and to whom.
//!
//! Two structural ideas carry most of the paper's findings:
//!
//! 1. **Loud vs quiet.** Loud campaigns blast brute-force and harvested
//!    address lists through botnets or bulk mailers — they are what MX
//!    honeypots and honey accounts see. Quiet campaigns buy targeted
//!    lists and focus on deliverability — only real-user feeds (`Hu`)
//!    and broad blacklists ever see them (§2, §3.2).
//! 2. **Trickle then blast.** Every campaign starts with a short
//!    deliverability-testing trickle against real users before the
//!    blast. Feeds anchored on real users therefore observe domains
//!    days before honeypots do (Fig 9 vs Fig 10).

use crate::botnet::Botnet;
use crate::config::{EcosystemConfig, TargetMixConfig};
use crate::domains::DomainUniverse;
use crate::ids::{AffiliateId, BotnetId, CampaignId, ProgramId};
use crate::program::ProgramRoster;
use rand::{Rng, RngExt};
use taster_domain::fx::{FxHashMap, FxHashSet};
use taster_domain::DomainId;
use taster_sim::{SimTime, TimeWindow, DAY};
use taster_stats::sample::{exponential, poisson, BoundedPareto};

/// How a campaign's messages are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryVector {
    /// The spammer's own/bulk mailing infrastructure.
    Direct,
    /// A botnet (the operator's own, or rented).
    Botnet(BotnetId),
}

/// Loudness class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStyle {
    /// High-volume, broadly-targeted.
    Loud,
    /// Low-volume, deliverability-focused.
    Quiet,
}

/// Which class of address list a delivered copy was addressed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetClass {
    /// Brute-force generated lists (every domain with a valid MX).
    BruteForce,
    /// Harvested from the web/forums/lists; carries the vector index.
    Harvested(u8),
    /// Purchased high-quality list — real users only.
    Purchased,
    /// Social-network / compromised-address-book lists — real users.
    Social,
}

/// A normalised targeting mix, sampleable per message.
#[derive(Debug, Clone, Copy)]
pub struct TargetingMix {
    brute: f64,
    harvested: f64,
    purchased: f64,
    // social is the remainder
}

impl TargetingMix {
    /// Normalises a config mix.
    pub fn from_config(c: &TargetMixConfig) -> TargetingMix {
        let t = c.total();
        assert!(t > 0.0, "mix has no mass");
        TargetingMix {
            brute: c.brute / t,
            harvested: c.harvested / t,
            purchased: c.purchased / t,
        }
    }

    /// Samples a target class; harvested copies pick one vector from
    /// `harvest_mask` (a non-zero bitmask over vectors).
    pub fn sample<R: Rng>(&self, harvest_mask: u8, rng: &mut R) -> TargetClass {
        let u: f64 = rng.random();
        if u < self.brute {
            TargetClass::BruteForce
        } else if u < self.brute + self.harvested {
            TargetClass::Harvested(pick_bit(harvest_mask, rng))
        } else if u < self.brute + self.harvested + self.purchased {
            TargetClass::Purchased
        } else {
            TargetClass::Social
        }
    }
}

/// Picks a uniformly random set bit of `mask` (mask must be non-zero).
fn pick_bit<R: Rng>(mask: u8, rng: &mut R) -> u8 {
    debug_assert!(mask != 0);
    let n = mask.count_ones();
    let mut k = rng.random_range(0..n);
    let mut last = 0;
    for bit in 0..8u8 {
        if mask & (1 << bit) != 0 {
            if k == 0 {
                return bit;
            }
            k -= 1;
            last = bit;
        }
    }
    // `k < count_ones(mask)`, so the loop always returns; the highest
    // set bit is an unreachable fallback.
    last
}

/// One rotated domain of a campaign.
#[derive(Debug, Clone, Copy)]
pub struct DomainPlan {
    /// The storefront domain behind this rotation slot.
    pub storefront: DomainId,
    /// Optional landing (redirect) domain advertised instead of the
    /// storefront for most copies.
    pub landing: Option<DomainId>,
    /// The slot's active window.
    pub window: TimeWindow,
    /// End of the slot's warm-up (deliverability-test) sub-phase:
    /// between `window.start` and this instant the domain is advertised
    /// only to real users at low rate; the blast starts here. This is
    /// why human/blacklist feeds see every domain days before the
    /// honeypots do (Fig 9).
    pub warmup_end: SimTime,
}

impl DomainPlan {
    /// The warm-up sub-window.
    pub fn warmup(&self) -> TimeWindow {
        TimeWindow::new(self.window.start, self.warmup_end)
    }

    /// The blast sub-window.
    pub fn blast(&self) -> TimeWindow {
        TimeWindow::new(self.warmup_end, self.window.end)
    }
}

/// A planned campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign id; dense.
    pub id: CampaignId,
    /// Advertising affiliate.
    pub affiliate: AffiliateId,
    /// Program being advertised.
    pub program: ProgramId,
    /// Loudness class.
    pub style: CampaignStyle,
    /// Delivery vector.
    pub delivery: DeliveryVector,
    /// Blast-phase targeting mix.
    pub mix: TargetingMix,
    /// Trickle-phase targeting mix (real users only).
    pub trickle_mix: TargetingMix,
    /// Which MX honeypot address spaces the campaign's brute-force
    /// list covers (bit *i* = honeypot *i*).
    pub brute_mask: u8,
    /// Which harvest vectors the campaign's harvested lists came from.
    pub harvest_mask: u8,
    /// Trickle (deliverability-test) window.
    pub trickle: TimeWindow,
    /// Blast window (starts when the trickle ends).
    pub blast: TimeWindow,
    /// Total delivered copies across both phases.
    pub volume: u64,
    /// Domain rotation plan, chronologically ordered, spanning the
    /// blast window (the trickle uses the first slot's domain).
    pub domains: Vec<DomainPlan>,
    /// Whether this is the Rustock-style poisoning pseudo-campaign.
    pub poison: bool,
}

impl Campaign {
    /// Full activity window (trickle start → blast end).
    pub fn window(&self) -> TimeWindow {
        TimeWindow::new(self.trickle.start, self.blast.end)
    }
}

/// Plans every campaign of the scenario.
pub fn plan_campaigns<R: Rng>(
    config: &EcosystemConfig,
    roster: &ProgramRoster,
    botnets: &[Botnet],
    universe: &mut DomainUniverse,
    rng: &mut R,
) -> Vec<Campaign> {
    let mut campaigns = Vec::new();
    let operator_of: FxHashMap<AffiliateId, BotnetId> = botnets
        .iter()
        .flat_map(|b| b.operator_affiliates.iter().map(move |&a| (a, b.id)))
        .collect();

    let loud_law = BoundedPareto::new(
        config.loud_volume.alpha,
        config.loud_volume.min,
        config.loud_volume.max,
    );
    let quiet_law = BoundedPareto::new(
        config.quiet_volume.alpha,
        config.quiet_volume.min,
        config.quiet_volume.max,
    );
    let loud_mix = TargetingMix::from_config(&config.loud_mix);
    let quiet_mix = TargetingMix::from_config(&config.quiet_mix);
    let trickle_mix = TargetingMix::from_config(&config.trickle_mix);

    let median_revenue = config.revenue_mu.exp();
    // Every program has a flagship: its top-earning affiliate, who
    // blasts (this is why honeypot feeds cover most *programs* while
    // seeing very few distinct *affiliates* — Fig 4 vs Fig 5).
    let flagships: FxHashSet<AffiliateId> = roster
        .programs
        .iter()
        .filter_map(|p| {
            roster
                .affiliates_of(p.id)
                .iter()
                .max_by(|&&a, &&b| {
                    roster
                        .affiliate(a)
                        .annual_revenue_usd
                        .total_cmp(&roster.affiliate(b).annual_revenue_usd)
                })
                .copied()
        })
        .collect();
    for aff in &roster.affiliates {
        let operator = operator_of.get(&aff.id).copied();
        // Revenue couples to output: big earners spam more and louder.
        let revenue_factor = (aff.annual_revenue_usd / median_revenue)
            .powf(config.revenue_volume_exponent)
            .clamp(0.2, 8.0);
        let rate = config.campaigns_per_affiliate
            * config.campaign_scale
            * revenue_factor.sqrt()
            * if operator.is_some() {
                config.operator_campaign_multiplier
            } else {
                1.0
            };
        let mut n = poisson(rng, rate);
        // RX affiliates run at least one campaign at full scale so the
        // 846-identifier universe of Fig 5 is populated.
        if n == 0 && aff.program == crate::program::RX_PROGRAM && config.campaign_scale >= 1.0 {
            n = 1;
        }
        let flagship = flagships.contains(&aff.id);
        for _ in 0..n {
            let id = CampaignId(campaigns.len() as u32);
            campaigns.push(plan_one(
                id,
                aff.id,
                aff.program,
                operator,
                revenue_factor,
                flagship,
                config,
                botnets,
                universe,
                rng,
                &loud_law,
                &quiet_law,
                &loud_mix,
                &quiet_mix,
                &trickle_mix,
            ));
        }
    }
    campaigns
}

#[allow(clippy::too_many_arguments)]
fn plan_one<R: Rng>(
    id: CampaignId,
    affiliate: AffiliateId,
    program: ProgramId,
    operator: Option<BotnetId>,
    revenue_factor: f64,
    flagship: bool,
    config: &EcosystemConfig,
    botnets: &[Botnet],
    universe: &mut DomainUniverse,
    rng: &mut R,
    loud_law: &BoundedPareto,
    quiet_law: &BoundedPareto,
    loud_mix: &TargetingMix,
    quiet_mix: &TargetingMix,
    trickle_mix: &TargetingMix,
) -> Campaign {
    // Delivery and loudness. Loudness concentrates in high-revenue
    // affiliates: blasting costs money, and blasting is how the big
    // earners got big.
    let mut loud_prob = (config.loud_fraction * revenue_factor * revenue_factor).clamp(0.0, 0.85);
    if flagship {
        loud_prob = loud_prob.max(0.5);
    }
    let delivery = match operator {
        Some(b) if rng.random_bool(config.operator_botnet_prob) => DeliveryVector::Botnet(b),
        _ => {
            if rng.random_bool(loud_prob * config.botnet_rental_prob) && !botnets.is_empty() {
                DeliveryVector::Botnet(BotnetId(rng.random_range(0..botnets.len()) as u8))
            } else {
                DeliveryVector::Direct
            }
        }
    };
    let style = match delivery {
        DeliveryVector::Botnet(_) => CampaignStyle::Loud,
        DeliveryVector::Direct => {
            if rng.random_bool(loud_prob) {
                CampaignStyle::Loud
            } else {
                CampaignStyle::Quiet
            }
        }
    };

    // Volume.
    let mut volume = match style {
        CampaignStyle::Loud => loud_law.sample(rng),
        CampaignStyle::Quiet => quiet_law.sample(rng),
    } * config.volume_scale
        * revenue_factor;
    if let DeliveryVector::Botnet(_) = delivery {
        volume *= config.botnet_volume_multiplier;
    }
    let volume = (volume.round() as u64).max(8);

    // Address lists. The actively-developed (monitored-generation)
    // botnets regenerate their lists from fresh zone files — these are
    // the lists that cover the newly-registered mx3 portfolio, which
    // is why mx3's volume mix tracks the Bot feed (Figs 7–8).
    let brute_mask = match delivery {
        DeliveryVector::Botnet(b) if botnets[b.index()].monitored => 0b111,
        DeliveryVector::Botnet(_) => 0b011,
        DeliveryVector::Direct => {
            if rng.random_bool(config.direct_fresh_list_prob) {
                0b111
            } else {
                0b011 // stale lists: abandoned-domain honeypots only
            }
        }
    };
    let vectors = config.harvest_vectors;
    let mut harvest_mask = 0u8;
    for _ in 0..rng.random_range(1..=3u8) {
        harvest_mask |= 1 << rng.random_range(0..vectors);
    }

    // Rotation depth follows volume: spammers register a fresh domain
    // after a target number of copies, bounded by the style's clamp
    // range. This keeps per-domain observability stable across scales.
    let (clamp, per_domain) = match style {
        CampaignStyle::Loud => (config.loud_domains, config.loud_copies_per_domain),
        CampaignStyle::Quiet => (config.quiet_domains, config.quiet_copies_per_domain),
    };
    let n_domains =
        ((volume as f64 / per_domain).round() as usize).clamp(clamp.0.max(1), clamp.1.max(1));

    // Domain rotation: sequential slots with exponential lifetimes
    // (each including its own warm-up), compressed when the rotation
    // would outlast the measurement window (fast-rotating quiet
    // campaigns).
    let min_life = config.trickle_days.0 + 0.75;
    let lifetimes: Vec<f64> = (0..n_domains)
        .map(|_| exponential(rng, config.domain_lifetime_days).clamp(min_life, 14.0))
        .collect();
    let available = (config.days as f64 - 0.5).max(2.0 * min_life);
    let total_life: f64 = lifetimes.iter().sum();
    // Heavy rotators run several domains *in parallel* — a sequential
    // rotation of 100 domains with multi-day warm-ups cannot fit a
    // three-month window, and real campaigns don't try to. Slots are
    // dealt round-robin across the minimum number of parallel lanes
    // that fits; each lane is sequential.
    let lanes = ((total_life / available).ceil() as usize).max(1);
    let mut lane_offsets = vec![0.0f64; lanes];
    // Start day leaves room for the longest lane (approximated by the
    // even split plus the longest single slot as slack).
    let max_lane_len = (total_life / lanes as f64) + lifetimes.iter().cloned().fold(0.0, f64::max);
    let latest_start = (config.days as f64 - max_lane_len.min(available)).max(0.0);
    let start_day: f64 = rng.random::<f64>() * latest_start;
    let campaign_start = SimTime((start_day * DAY as f64) as u64);

    // Landing configuration.
    let uses_landing = rng.random_bool(config.landing_campaign_prob);

    let horizon = config.days as f64;
    let mut domains = Vec::with_capacity(n_domains);
    for (i, &life) in lifetimes.iter().enumerate() {
        let lane = i % lanes;
        let slot_begin_day = (start_day + lane_offsets[lane]).min(horizon - min_life);
        let slot_end_day = (slot_begin_day + life).min(horizon);
        lane_offsets[lane] += life;
        let slot_start = SimTime((slot_begin_day * DAY as f64) as u64);
        let slot_end = SimTime((slot_end_day * DAY as f64) as u64);
        let slot_len_days = slot_end_day - slot_begin_day;
        let warmup_days = rng
            .random_range(config.trickle_days.0..=config.trickle_days.1)
            .min(slot_len_days * 0.6);
        let warmup_end = slot_start.plus((warmup_days * DAY as f64) as u64);
        let storefront = universe.register_storefront(config, program, affiliate, rng);
        let landing = if uses_landing {
            Some(if rng.random_bool(config.landing_compromised_prob) {
                universe.compromise_benign(storefront, rng)
            } else {
                universe.register_landing(config, storefront, rng)
            })
        } else {
            None
        };
        domains.push(DomainPlan {
            storefront,
            landing,
            window: TimeWindow::new(slot_start, slot_end),
            warmup_end,
        });
    }
    // Campaign-level phases: the first slot's warm-up is the campaign
    // trickle; everything after it is blast.
    // The slot loop always pushes at least one plan; the fallbacks
    // keep an (unreachable) empty campaign well-formed.
    let campaign_end = domains
        .iter()
        .map(|p| p.window.end)
        .max()
        .unwrap_or(campaign_start);
    let warmup_end = domains.first().map_or(campaign_start, |p| p.warmup_end);
    let trickle = TimeWindow::new(campaign_start, warmup_end);
    let blast = TimeWindow::new(warmup_end, campaign_end);

    Campaign {
        id,
        affiliate,
        program,
        style,
        delivery,
        mix: match style {
            CampaignStyle::Loud => *loud_mix,
            CampaignStyle::Quiet => *quiet_mix,
        },
        trickle_mix: *trickle_mix,
        brute_mask,
        harvest_mask,
        trickle,
        blast,
        volume,
        domains,
        poison: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::botnet::generate_botnets;
    use taster_sim::RngStream;

    fn setup(scale: f64) -> (EcosystemConfig, ProgramRoster, Vec<Botnet>, Vec<Campaign>) {
        let cfg = EcosystemConfig::default().with_scale(scale);
        let mut rng = RngStream::new(11, "campaign-test");
        let roster = ProgramRoster::generate(&cfg, &mut rng);
        let botnets = generate_botnets(&cfg, &roster, &mut rng);
        let mut universe = DomainUniverse::new(&cfg, &mut rng);
        let campaigns = plan_campaigns(&cfg, &roster, &botnets, &mut universe, &mut rng);
        (cfg, roster, botnets, campaigns)
    }

    #[test]
    fn campaigns_fit_the_window_and_are_wellformed() {
        let (cfg, _, _, campaigns) = setup(0.05);
        assert!(!campaigns.is_empty());
        for c in &campaigns {
            assert_eq!(c.trickle.end, c.blast.start);
            assert!(
                c.blast.end.secs() <= (cfg.days + 1) * DAY,
                "{:?}",
                c.window()
            );
            assert!(!c.domains.is_empty());
            assert!(c.volume >= 8);
            // Slots live inside the campaign window (possibly in
            // parallel lanes); each slot's warm-up sits inside the
            // slot; the first slot anchors the campaign trickle.
            assert_eq!(c.domains[0].window.start, c.trickle.start);
            assert_eq!(c.domains[0].warmup_end, c.trickle.end);
            let max_end = c.domains.iter().map(|p| p.window.end).max().unwrap();
            assert_eq!(max_end, c.blast.end);
            for p in &c.domains {
                assert!(p.window.start >= c.trickle.start);
                assert!(p.window.end <= c.blast.end);
                assert!(p.warmup_end > p.window.start);
                assert!(p.warmup_end < p.window.end);
                assert_eq!(p.warmup().end, p.blast().start);
            }
            assert_ne!(c.brute_mask & 0b111, 0);
            assert_ne!(c.harvest_mask, 0);
        }
    }

    #[test]
    fn ids_are_dense() {
        let (_, _, _, campaigns) = setup(0.05);
        for (i, c) in campaigns.iter().enumerate() {
            assert_eq!(c.id.index(), i);
        }
    }

    #[test]
    fn botnet_campaigns_are_loud_with_fresh_lists() {
        let (cfg, _, botnets, campaigns) = setup(0.3);
        let botnet: Vec<_> = campaigns
            .iter()
            .filter(|c| matches!(c.delivery, DeliveryVector::Botnet(_)))
            .collect();
        assert!(!botnet.is_empty());
        for c in &botnet {
            assert_eq!(c.style, CampaignStyle::Loud);
            let DeliveryVector::Botnet(b) = c.delivery else {
                unreachable!()
            };
            // Monitored-generation botnets use fresh (zone-derived)
            // lists that cover the newly-registered mx3 portfolio.
            let expected = if botnets[b.index()].monitored {
                0b111
            } else {
                0b011
            };
            assert_eq!(c.brute_mask, expected);
        }
        let _ = cfg;
    }

    #[test]
    fn quiet_campaigns_dominate_count_loud_dominates_volume() {
        let (_, _, _, campaigns) = setup(0.3);
        let (mut quiet_n, mut loud_n, mut quiet_v, mut loud_v) = (0u64, 0u64, 0u64, 0u64);
        for c in &campaigns {
            match c.style {
                CampaignStyle::Quiet => {
                    quiet_n += 1;
                    quiet_v += c.volume;
                }
                CampaignStyle::Loud => {
                    loud_n += 1;
                    loud_v += c.volume;
                }
            }
        }
        assert!(quiet_n > loud_n, "quiet {quiet_n} loud {loud_n}");
        assert!(loud_v > quiet_v, "loud vol {loud_v} quiet vol {quiet_v}");
    }

    #[test]
    fn rx_affiliates_all_have_campaigns_at_full_scale() {
        let (cfg, roster, _, campaigns) = setup(1.0);
        let rx_with: std::collections::HashSet<_> = campaigns
            .iter()
            .filter(|c| c.program == crate::program::RX_PROGRAM)
            .map(|c| c.affiliate)
            .collect();
        assert_eq!(rx_with.len(), cfg.rx_affiliates);
        let _ = roster;
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = TargetingMix::from_config(&TargetMixConfig {
            brute: 1.0,
            harvested: 0.0,
            purchased: 0.0,
            social: 0.0,
        });
        let mut rng = RngStream::new(1, "mix");
        for _ in 0..50 {
            assert_eq!(mix.sample(0b1, &mut rng), TargetClass::BruteForce);
        }
        let mix = TargetingMix::from_config(&TargetMixConfig {
            brute: 0.0,
            harvested: 1.0,
            purchased: 0.0,
            social: 0.0,
        });
        for _ in 0..50 {
            match mix.sample(0b10100, &mut rng) {
                TargetClass::Harvested(v) => assert!(v == 2 || v == 4),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn pick_bit_covers_all_set_bits() {
        let mut rng = RngStream::new(2, "bits");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(pick_bit(0b1011, &mut rng));
        }
        assert_eq!(seen, [0u8, 1, 3].into_iter().collect());
    }
}
