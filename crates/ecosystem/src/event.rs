//! Per-delivered-copy spam events, generated as a stream.
//!
//! The unit of simulation is one *delivered copy*: a message as it
//! crosses the SMTP boundary towards one recipient class. All feed
//! collectors, the incoming-mail oracle and the analyses consume this
//! stream. (Real 2010 spam volumes were ~10⁵× larger; the stream is a
//! proportional sample, which preserves every relative quantity the
//! paper measures.)
//!
//! Generation is a pure function of `(config, campaigns, seed)` with a
//! pinned draw sequence — one sequential `ecosystem/events` stream
//! across all campaigns, then the `ecosystem/poison` stream. It runs
//! exactly once, inside `GroundTruth::generate`, which keeps the rows
//! in time-sorted order (resident or spilled) for every consumer.

use crate::campaign::{Campaign, DeliveryVector, TargetClass};
use crate::config::{EcosystemConfig, PoisonConfig};
use crate::domains::DomainUniverse;
use crate::ids::CampaignId;
use rand::{Rng, RngExt};
use taster_domain::DomainId;
use taster_sim::{SimTime, TimeWindow};

/// One delivered spam copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpamEvent {
    /// Delivery instant.
    pub time: SimTime,
    /// Originating campaign.
    pub campaign: CampaignId,
    /// The spam-advertised domain in the message body (storefront or
    /// landing/redirect domain).
    pub advertised: DomainId,
    /// Optional benign chaff domain also present in the body.
    pub chaff: Option<DomainId>,
    /// Which address-list class the recipient belongs to.
    pub target: TargetClass,
    /// How the copy was delivered.
    pub delivery: DeliveryVector,
}

/// Per-plan copy split: how many warm-up and blast copies one
/// [`DomainPlan`](crate::campaign::DomainPlan) emits. Shared between
/// the generator and [`campaign_event_count`] so the two can never
/// disagree.
fn plan_copies(config: &EcosystemConfig, campaign: &Campaign, plan_idx: usize) -> (u64, u64) {
    let total_secs = campaign
        .domains
        .iter()
        .map(|p| p.window.len_secs())
        .sum::<u64>()
        .max(1) as f64;
    let plan = &campaign.domains[plan_idx];
    let share = plan.window.len_secs() as f64 / total_secs;
    let copies = ((campaign.volume as f64) * share).round() as u64;
    let warmup = (((copies as f64) * config.trickle_volume_fraction).round() as u64).max(2);
    let blast = copies.saturating_sub(warmup);
    (warmup, blast)
}

/// Exact number of events [`stream_campaign_events`] will emit for
/// `campaign` — a pure function of the plan windows and volume, no
/// draws. Lets the generator size (and budget) event buffers before
/// the first pass runs.
pub fn campaign_event_count(config: &EcosystemConfig, campaign: &Campaign) -> u64 {
    if campaign.poison {
        return 0;
    }
    (0..campaign.domains.len())
        .map(|pi| {
            let (w, b) = plan_copies(config, campaign, pi);
            w + b
        })
        .sum()
}

/// Draws one campaign event. The draw order (advertised → time →
/// chaff → target) is part of the reproducibility contract.
fn draw_campaign_event<R: Rng>(
    config: &EcosystemConfig,
    campaign: &Campaign,
    universe: &DomainUniverse,
    plan_idx: usize,
    warmup: bool,
    rng: &mut R,
) -> SpamEvent {
    let plan = &campaign.domains[plan_idx];
    let advertised = advertised_domain(config, plan, rng);
    let (window, mix) = if warmup {
        (plan.warmup(), &campaign.trickle_mix)
    } else {
        (plan.blast(), &campaign.mix)
    };
    SpamEvent {
        time: uniform_in(window, rng),
        campaign: campaign.id,
        advertised,
        chaff: sample_chaff(config, universe, rng),
        target: mix.sample(campaign.harvest_mask, rng),
        delivery: campaign.delivery,
    }
}

/// Draws one poison event given the freshly-decided advertised domain
/// (registration lives in the caller).
fn draw_poison_tail<R: Rng>(
    window: TimeWindow,
    campaign_id: CampaignId,
    delivery: DeliveryVector,
    advertised: DomainId,
    rng: &mut R,
) -> SpamEvent {
    let u: f64 = rng.random();
    let target = if u < 0.75 {
        TargetClass::BruteForce
    } else if u < 0.90 {
        TargetClass::Purchased
    } else {
        TargetClass::Social
    };
    SpamEvent {
        time: uniform_in(window, rng),
        campaign: campaign_id,
        advertised,
        chaff: None,
        target,
        delivery,
    }
}

/// Generates all events of one planned campaign into `sink`, in
/// generation order. Volume splits across rotation slots proportional
/// to slot length (slots may run in parallel lanes); within a slot, a
/// small warm-up share goes to real users only (deliverability
/// testing) before the blast.
pub fn stream_campaign_events<R: Rng, F: FnMut(SpamEvent)>(
    config: &EcosystemConfig,
    campaign: &Campaign,
    universe: &DomainUniverse,
    rng: &mut R,
    mut sink: F,
) {
    debug_assert!(!campaign.poison, "poison events use the poison stream");
    for plan_idx in 0..campaign.domains.len() {
        let (warmup_copies, blast_copies) = plan_copies(config, campaign, plan_idx);
        for _ in 0..warmup_copies {
            sink(draw_campaign_event(
                config, campaign, universe, plan_idx, true, rng,
            ));
        }
        for _ in 0..blast_copies {
            sink(draw_campaign_event(
                config, campaign, universe, plan_idx, false, rng,
            ));
        }
    }
}

/// Generates all events of one planned campaign, appending to `out`.
/// Prefer [`stream_campaign_events`] when the log should not be held.
pub fn generate_campaign_events<R: Rng>(
    config: &EcosystemConfig,
    campaign: &Campaign,
    universe: &DomainUniverse,
    rng: &mut R,
    out: &mut Vec<SpamEvent>,
) {
    stream_campaign_events(config, campaign, universe, rng, |e| out.push(e));
}

/// Generates the Rustock-style poisoning stream into `sink`:
/// `poison.volume` copies, each advertising a randomly-generated
/// domain that is fresh with probability `1 / copies_per_domain` (so
/// the mean copies per unique domain matches the config), targeted
/// mostly at brute-force lists plus real users. Registers the poison
/// domains into `universe` as it goes.
pub fn stream_poison_events<R: Rng, F: FnMut(SpamEvent)>(
    poison: &PoisonConfig,
    campaign_id: CampaignId,
    delivery: DeliveryVector,
    universe: &mut DomainUniverse,
    rng: &mut R,
    mut sink: F,
) {
    let window = poison_window(poison);
    let fresh_prob = (1.0 / poison.copies_per_domain).clamp(0.0, 1.0);
    let mut current: Option<DomainId> = None;
    for _ in 0..poison.volume {
        let advertised = match current {
            Some(d) if !rng.random_bool(fresh_prob) => d,
            _ => {
                let d = universe.register_poison(poison.registered_prob, rng);
                current = Some(d);
                d
            }
        };
        sink(draw_poison_tail(
            window,
            campaign_id,
            delivery,
            advertised,
            rng,
        ));
    }
}

/// [`stream_poison_events`] into a vector.
pub fn generate_poison_events<R: Rng>(
    poison: &PoisonConfig,
    campaign_id: CampaignId,
    delivery: DeliveryVector,
    universe: &mut DomainUniverse,
    rng: &mut R,
    out: &mut Vec<SpamEvent>,
) {
    stream_poison_events(poison, campaign_id, delivery, universe, rng, |e| {
        out.push(e)
    });
}

fn poison_window(poison: &PoisonConfig) -> TimeWindow {
    TimeWindow::new(
        SimTime::from_days(poison.start_day),
        SimTime::from_days(poison.start_day + poison.days),
    )
}

fn advertised_domain<R: Rng>(
    config: &EcosystemConfig,
    plan: &crate::campaign::DomainPlan,
    rng: &mut R,
) -> DomainId {
    match plan.landing {
        Some(landing) if rng.random_bool(config.advertise_landing_prob) => landing,
        _ => plan.storefront,
    }
}

fn sample_chaff<R: Rng>(
    config: &EcosystemConfig,
    universe: &DomainUniverse,
    rng: &mut R,
) -> Option<DomainId> {
    rng.random_bool(config.chaff_prob)
        .then(|| universe.sample_chaff(rng))
}

fn uniform_in<R: Rng>(window: TimeWindow, rng: &mut R) -> SimTime {
    let len = window.len_secs().max(1);
    window.start.plus(rng.random_range(0..len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::botnet::generate_botnets;
    use crate::campaign::plan_campaigns;
    use crate::program::ProgramRoster;
    use crate::Stream;
    use taster_sim::RngStream;

    fn small_events() -> (
        EcosystemConfig,
        DomainUniverse,
        Vec<Campaign>,
        Vec<SpamEvent>,
    ) {
        let cfg = EcosystemConfig::default().with_scale(0.02);
        let mut rng = RngStream::new(21, Stream::Test("event-test"));
        let roster = ProgramRoster::generate(&cfg, &mut rng);
        let botnets = generate_botnets(&cfg, &roster, &mut rng);
        let mut universe = DomainUniverse::new(&cfg, &mut rng);
        let campaigns = plan_campaigns(&cfg, &roster, &botnets, &mut universe, &mut rng);
        let mut out = Vec::new();
        for c in &campaigns {
            generate_campaign_events(&cfg, c, &universe, &mut rng, &mut out);
        }
        (cfg, universe, campaigns, out)
    }

    #[test]
    fn events_stay_inside_campaign_windows() {
        let (_, _, campaigns, events) = small_events();
        assert!(!events.is_empty());
        for e in &events {
            let c = &campaigns[e.campaign.index()];
            assert!(
                c.window().contains(e.time) || e.time == c.window().start,
                "event at {} outside {:?}",
                e.time,
                c.window()
            );
        }
    }

    #[test]
    fn event_volume_tracks_campaign_volume() {
        let (cfg, _, campaigns, events) = small_events();
        let planned: u64 = campaigns.iter().map(|c| c.volume).sum();
        let got = events.len() as u64;
        let ratio = got as f64 / planned as f64;
        assert!(
            (ratio - 1.0).abs() < 0.1 + cfg.trickle_volume_fraction,
            "events {got} vs planned {planned}"
        );
    }

    #[test]
    fn advertised_domains_belong_to_campaign_plan() {
        let (_, _, campaigns, events) = small_events();
        for e in events.iter().take(5000) {
            let c = &campaigns[e.campaign.index()];
            assert!(c
                .domains
                .iter()
                .any(|p| p.storefront == e.advertised || p.landing == Some(e.advertised)));
        }
    }

    #[test]
    fn chaff_rate_matches_config() {
        let (cfg, _, _, events) = small_events();
        let with_chaff = events.iter().filter(|e| e.chaff.is_some()).count();
        let frac = with_chaff as f64 / events.len() as f64;
        assert!((frac - cfg.chaff_prob).abs() < 0.05, "chaff frac {frac}");
    }

    #[test]
    fn streaming_matches_vector_generation() {
        // The sink-based generator and the appending wrapper must draw
        // identically: one fresh rng each, same campaign set.
        let cfg = EcosystemConfig::default().with_scale(0.02);
        let mut rng = RngStream::new(33, Stream::Test("event-sink-test"));
        let roster = ProgramRoster::generate(&cfg, &mut rng);
        let botnets = generate_botnets(&cfg, &roster, &mut rng);
        let mut universe = DomainUniverse::new(&cfg, &mut rng);
        let campaigns = plan_campaigns(&cfg, &roster, &botnets, &mut universe, &mut rng);
        let mut via_vec = Vec::new();
        let mut a = RngStream::new(1, Stream::Test("events"));
        for c in &campaigns {
            generate_campaign_events(&cfg, c, &universe, &mut a, &mut via_vec);
        }
        let mut via_sink = Vec::new();
        let mut b = RngStream::new(1, Stream::Test("events"));
        for c in &campaigns {
            stream_campaign_events(&cfg, c, &universe, &mut b, |e| via_sink.push(e));
        }
        assert_eq!(via_vec, via_sink);
    }

    #[test]
    fn poison_generates_mostly_unique_domains() {
        let cfg = EcosystemConfig::default().with_scale(0.02);
        let poison = PoisonConfig {
            start_day: 10,
            days: 5,
            volume: 5000,
            copies_per_domain: 2.2,
            registered_prob: 0.004,
        };
        let mut rng = RngStream::new(4, Stream::Test("poison-test"));
        let mut universe = DomainUniverse::new(&cfg, &mut rng);
        let before = universe.len();
        let mut out = Vec::new();
        generate_poison_events(
            &poison,
            CampaignId(0),
            DeliveryVector::Botnet(crate::ids::BotnetId(0)),
            &mut universe,
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), poison.volume as usize);
        let unique = universe.len() - before;
        let copies_per = poison.volume as f64 / unique as f64;
        assert!(
            (copies_per / poison.copies_per_domain - 1.0).abs() < 0.25,
            "copies per domain {copies_per}"
        );
        let window = TimeWindow::new(SimTime::from_days(10), SimTime::from_days(15));
        assert!(out.iter().all(|e| window.contains(e.time)));
    }
}
