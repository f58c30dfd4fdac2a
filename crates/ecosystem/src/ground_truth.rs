//! Assembly of the complete ground truth.
//!
//! [`GroundTruth::generate`] is the single entry point: a pure function
//! of `(EcosystemConfig, seed)` producing the program roster, botnets,
//! campaigns, domain registry and the event-stream spine. Each
//! generation stage draws from its own named RNG stream, so the ground
//! truth is bit-stable regardless of what the observation layers do.
//!
//! The event log is generated exactly once and kept in time-sorted
//! order: resident as the sorted cache when the memory budget covers
//! it, otherwise as a time-sorted spill file ([`crate::spill`]). Both
//! sort stably by second, ties in generation order, so both hold the
//! same rows in the same order, and consumers read either through
//! [`GroundTruth::visit_sorted`].

use crate::botnet::{generate_botnets, Botnet};
use crate::buffer::EventBuffer;
use crate::campaign::{plan_campaigns, Campaign, CampaignStyle, DeliveryVector, TargetingMix};
use crate::config::{EcosystemConfig, TargetMixConfig};
use crate::domains::{DomainKind, DomainUniverse};
use crate::event::{campaign_event_count, stream_campaign_events, stream_poison_events, SpamEvent};
use crate::ids::{CampaignId, ProgramId};
use crate::program::ProgramRoster;
use crate::spill::{run_rows, Spill, SpillBuilder, SpillError};
use crate::Stream;
use std::ops::Range;
use std::sync::Arc;
use taster_domain::DomainId;
use taster_sim::{Obs, RngStream, SimTime, TimeWindow};

/// Compact spine of the event stream.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// Number of delivered copies.
    pub len: usize,
}

/// Where the time-sorted event rows live. Row `r` is the event at
/// time-sorted position `r` (ties in generation order) — the index
/// every keyed per-event RNG/fault stream uses, so chunking and worker
/// count cannot change any draw.
#[derive(Debug, Clone)]
enum SortedLog {
    /// Resident columns from sorted row 0 (`first == 0`); clones of
    /// the world share them.
    Cache(Arc<EventBuffer>),
    /// On disk; clones of the world share the one file.
    Spill(Arc<Spill>),
}

/// Why a world could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// A configuration failed validation.
    Invalid(String),
    /// The out-of-core event spill could not be written or read.
    Spill(SpillError),
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::Invalid(msg) => f.write_str(msg),
            WorldError::Spill(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorldError {}

impl From<SpillError> for WorldError {
    fn from(e: SpillError) -> WorldError {
        WorldError::Spill(e)
    }
}

/// The generation-order capture of the first pass.
enum FirstPass {
    Cache(EventBuffer),
    Spill(SpillBuilder),
}

impl FirstPass {
    fn push(&mut self, event: &SpamEvent) {
        match self {
            FirstPass::Cache(buf) => buf.push(event),
            FirstPass::Spill(builder) => builder.push(event),
        }
    }
}

/// The fully-generated spam ecosystem.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The configuration that produced this world.
    pub config: EcosystemConfig,
    /// The master seed.
    pub seed: u64,
    /// Domain registry (interner, records, redirects).
    pub universe: DomainUniverse,
    /// Programs and affiliates.
    pub roster: ProgramRoster,
    /// Botnets.
    pub botnets: Vec<Botnet>,
    /// All campaigns (the poisoning pseudo-campaign, when enabled, is
    /// the last entry and has `poison == true` and an empty plan).
    pub campaigns: Vec<Campaign>,
    /// Event-stream spine.
    pub log: EventLog,
    /// Web-spam (non-e-mail) domain sightings: `(first seen, domain)`,
    /// time-sorted. Consumed only by the hybrid feed's non-mail source.
    pub webspam: Vec<(SimTime, DomainId)>,
    /// The time-sorted event rows.
    sorted: SortedLog,
}

impl GroundTruth {
    /// Generates the world. Deterministic in `(config, seed)`.
    pub fn generate(config: &EcosystemConfig, seed: u64) -> Result<GroundTruth, WorldError> {
        Self::generate_observed(config, seed, &Obs::off())
    }

    /// [`GroundTruth::generate`] under an observability handle. The
    /// generation pass runs inside a `generate/events` span and the
    /// time sort inside a `generate/sort` span. In core the sort span
    /// has no children and nothing is counted. Out of core it has one
    /// child span per pass (`generate/sort/distribute`,
    /// `generate/sort/scatter`) and per freed temporary file
    /// (`generate/sort/free_scratch`, `generate/sort/free_runs`), and the
    /// run records `generate/spill_bytes` and `generate/sort_runs`.
    pub fn generate_observed(
        config: &EcosystemConfig,
        seed: u64,
        obs: &Obs,
    ) -> Result<GroundTruth, WorldError> {
        config
            .validate()
            .map_err(|e| WorldError::Invalid(e.to_string()))?;
        let mut roster_rng = RngStream::new(seed, Stream::Roster);
        let roster = ProgramRoster::generate(config, &mut roster_rng);

        let mut botnet_rng = RngStream::new(seed, Stream::Botnets);
        let botnets = generate_botnets(config, &roster, &mut botnet_rng);

        let mut universe_rng = RngStream::new(seed, Stream::Universe);
        let mut universe = DomainUniverse::new(config, &mut universe_rng);

        let mut campaign_rng = RngStream::new(seed, Stream::Campaigns);
        let mut campaigns =
            plan_campaigns(config, &roster, &botnets, &mut universe, &mut campaign_rng);

        // The exact event count is known before the first draw:
        // `plan_copies` is a pure function of the plan, and the poison
        // pseudo-campaign emits exactly its configured volume. That
        // lets the memory budget decide *up front* whether the sorted
        // event cache fits, instead of guessing and re-allocating.
        let poison_active = config.poison.is_some() && botnets.iter().any(|b| b.poisons);
        let expected: u64 = campaigns
            .iter()
            .map(|c| campaign_event_count(config, c))
            .sum::<u64>()
            + if poison_active {
                config.poison.as_ref().map_or(0, |p| p.volume)
            } else {
                0
            };

        // The one generation pass. Within budget every column stays
        // resident; out of core each row is written once to the spill
        // builder's scratch file.
        let mut first = if config.wants_cache(expected) {
            FirstPass::Cache(EventBuffer::with_capacity(expected as usize))
        } else {
            FirstPass::Spill(SpillBuilder::new()?)
        };
        let events_span = obs.span("generate/events");
        let mut sink = |e: SpamEvent| first.push(&e);
        let mut event_rng = RngStream::new(seed, Stream::Events);
        for c in &campaigns {
            stream_campaign_events(config, c, &universe, &mut event_rng, &mut sink);
        }

        // The poisoning pseudo-campaign.
        if let Some(poison) = &config.poison {
            if let Some(rustock) = botnets.iter().find(|b| b.poisons) {
                let id = CampaignId(campaigns.len() as u32);
                let affiliate = rustock
                    .operator_affiliates
                    .first()
                    .copied()
                    .unwrap_or(crate::ids::AffiliateId(0));
                let program = roster.affiliate(affiliate).program;
                let window = TimeWindow::new(
                    SimTime::from_days(poison.start_day),
                    SimTime::from_days(poison.start_day + poison.days),
                );
                let mix = TargetingMix::from_config(&TargetMixConfig {
                    brute: 0.75,
                    harvested: 0.0,
                    purchased: 0.15,
                    social: 0.10,
                });
                let delivery = DeliveryVector::Botnet(rustock.id);
                campaigns.push(Campaign {
                    id,
                    affiliate,
                    program,
                    style: CampaignStyle::Loud,
                    delivery,
                    mix,
                    trickle_mix: mix,
                    // Rustock's list covered the mx2-style abandoned
                    // space only — the reason only Bot and mx2 show the
                    // registration collapse in Table 2.
                    brute_mask: 0b010,
                    harvest_mask: 0b1,
                    trickle: TimeWindow::new(window.start, window.start),
                    blast: window,
                    volume: poison.volume,
                    domains: Vec::new(),
                    poison: true,
                });
                let mut poison_rng = RngStream::new(seed, Stream::Poison);
                stream_poison_events(
                    poison,
                    id,
                    delivery,
                    &mut universe,
                    &mut poison_rng,
                    &mut sink,
                );
            }
        }

        drop(events_span);

        // Time-sort the capture, ties in generation order. Times are
        // seconds bounded by the simulation horizon, so two counting
        // sorts place every row in linear time: by buckets of 2¹¹
        // seconds, then by second (`buffer::sort_by_time`). In core they
        // sort the whole log; out of core, each run of buckets in turn.
        let sorted = {
            let _span = obs.span("generate/sort");
            match first {
                FirstPass::Cache(buf) => SortedLog::Cache(Arc::new(buf.into_time_sorted()?)),
                FirstPass::Spill(builder) => {
                    let run = run_rows(expected as usize, config.budget_rows(expected));
                    let spill = builder.finish(run, obs)?;
                    obs.metrics.add("generate/spill_bytes", spill.bytes());
                    obs.metrics.add("generate/sort_runs", spill.runs() as u64);
                    SortedLog::Spill(Arc::new(spill))
                }
            }
        };
        let log = EventLog {
            len: match &sorted {
                SortedLog::Cache(cache) => cache.len(),
                SortedLog::Spill(spill) => spill.rows(),
            },
        };

        // The web-spam corpus: live storefronts advertised outside
        // e-mail (forum spam, search-redirection). Mostly untagged
        // verticals; a slice fronts tagged programs.
        let mut web_rng = RngStream::new(seed, Stream::Webspam);
        let n_webspam = ((config.webspam_domains as f64) * config.campaign_scale).round() as usize;
        let mut webspam = Vec::with_capacity(n_webspam);
        let tagged_programs: Vec<ProgramId> = roster.tagged_programs().collect();
        let untagged_programs: Vec<ProgramId> = roster
            .programs
            .iter()
            .filter(|p| !p.tagged)
            .map(|p| p.id)
            .collect();
        use rand::RngExt;
        for _ in 0..n_webspam {
            let program = if web_rng.random_bool(config.webspam_tagged_fraction)
                || untagged_programs.is_empty()
            {
                tagged_programs[web_rng.random_range(0..tagged_programs.len())]
            } else {
                untagged_programs[web_rng.random_range(0..untagged_programs.len())]
            };
            let affs = roster.affiliates_of(program);
            let affiliate = affs[web_rng.random_range(0..affs.len())];
            let registered = web_rng.random_bool(config.webspam_registered_prob);
            let live = web_rng.random_bool(config.storefront_live_prob);
            let d = universe.register_storefront_with(
                program,
                affiliate,
                registered,
                live,
                &mut web_rng,
            );
            let t = SimTime(web_rng.random_range(0..config.days * taster_sim::DAY));
            webspam.push((t, d));
        }
        webspam.sort_by_key(|&(t, _)| t);

        Ok(GroundTruth {
            config: config.clone(),
            seed,
            universe,
            roster,
            botnets,
            campaigns,
            log,
            webspam,
            sorted,
        })
    }

    /// The sorted event cache, when the memory budget allowed one
    /// (`None` whenever the log is not resident).
    pub fn cache(&self) -> Option<&EventBuffer> {
        match &self.sorted {
            SortedLog::Cache(cache) => Some(cache),
            SortedLog::Spill(_) => None,
        }
    }

    /// Visits the time-sorted rows `range` (clamped to the log) in
    /// order, at most `width` rows per visit. Each visit gets a buffer
    /// and the rows of it to read; row `r` of a buffer is sorted row
    /// `first + r`. In core there is one visit, borrowing the cache
    /// with no copy. Out of core each visit decodes its rows from the
    /// spill into one buffer of at most the memory budget's rows and at
    /// most [`MAX_READ_ROWS`](crate::spill::MAX_READ_ROWS); each spill
    /// block is fetched and checked once per call, before any of its
    /// rows is decoded. An empty range still gets one, empty, visit.
    pub fn visit_sorted<E: From<SpillError>>(
        &self,
        range: Range<usize>,
        width: usize,
        mut visit: impl FnMut(&EventBuffer, Range<usize>) -> Result<(), E>,
    ) -> Result<(), E> {
        let end = range.end.min(self.log.len);
        let start = range.start.min(end);
        match &self.sorted {
            SortedLog::Cache(cache) => visit(cache, start..end),
            SortedLog::Spill(spill) => spill.visit(
                start..end,
                width.min(self.config.budget_rows(self.log.len as u64)),
                visit,
            ),
        }
    }

    /// Materialises the full time-sorted event log (ties in generation
    /// order) — O(n) memory; meant for tests, examples and small
    /// one-off analyses, not the streaming pipeline.
    pub fn sorted_events(&self) -> Result<Vec<SpamEvent>, SpillError> {
        let mut out = Vec::with_capacity(self.log.len);
        self.visit_sorted(0..self.log.len, usize::MAX, |buf, rows| {
            out.extend(rows.map(|r| buf.event(r)));
            Ok::<(), SpillError>(())
        })?;
        Ok(out)
    }

    /// Campaign lookup.
    pub fn campaign(&self, id: CampaignId) -> &Campaign {
        &self.campaigns[id.index()]
    }

    /// The whole measurement window.
    pub fn window(&self) -> TimeWindow {
        TimeWindow::first_days(self.config.days)
    }

    /// Total delivered copies.
    pub fn total_volume(&self) -> u64 {
        self.log.len as u64
    }

    /// The program whose storefront ultimately sits behind `domain`
    /// (following redirects), if any.
    pub fn storefront_program(&self, domain: DomainId) -> Option<ProgramId> {
        let terminus = self.universe.resolve_final(domain);
        match self.universe.record(terminus).kind {
            DomainKind::Storefront { program, .. } => Some(program),
            _ => None,
        }
    }

    /// True when `domain` (after redirects) fronts a *tagged* program.
    pub fn is_tagged_domain(&self, domain: DomainId) -> bool {
        self.storefront_program(domain)
            .map(|p| self.roster.program(p).tagged)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TargetClass;
    use crate::event::{generate_campaign_events, generate_poison_events};

    fn world(scale: f64, seed: u64) -> GroundTruth {
        GroundTruth::generate(&EcosystemConfig::default().with_scale(scale), seed).unwrap()
    }

    fn events(g: &GroundTruth) -> Vec<SpamEvent> {
        g.sorted_events().unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = world(0.02, 7);
        let b = world(0.02, 7);
        assert_eq!(a.log.len, b.log.len);
        assert_eq!(events(&a), events(&b));
        assert_eq!(a.universe.len(), b.universe.len());
    }

    /// FNV-1a of a stage's output, taken over its `Debug` form.
    fn digest(output: impl std::fmt::Debug) -> u64 {
        use taster_sim::rng::{fnv1a64, FNV1A64_OFFSET};
        fnv1a64(FNV1A64_OFFSET, format!("{output:?}").as_bytes())
    }

    /// Each stage draws from its own stream, so each stage's output is
    /// pinned on its own: a stage fed by another stage's stream fails
    /// here, below the report goldens, and the failing entry names it.
    /// The event rows are left to
    /// `sorted_log_is_the_stable_time_sort_of_register_mode_generation`,
    /// which re-draws them from their own streams.
    #[test]
    fn every_generation_stage_is_pinned() {
        let g = world(0.02, 11);
        let names: Vec<&str> = g.universe.table.iter().map(|(_, name)| name).collect();
        let got = [
            ("roster", digest((&g.roster.programs, &g.roster.affiliates))),
            ("botnets", digest(&g.botnets)),
            ("universe names", digest(&names)),
            ("campaigns", digest(&g.campaigns)),
            ("webspam", digest(&g.webspam)),
        ];
        let want = [
            ("roster", 0xE406_2390_9E89_DF08),
            ("botnets", 0x5A85_F3CF_4886_46A7),
            ("universe names", 0x10D0_0120_224A_6513),
            ("campaigns", 0xA614_63D3_D9CD_FC1C),
            ("webspam", 0x240B_498F_5CD4_D63C),
        ];
        assert_eq!(got, want);
    }

    /// A clone of the world (the serve daemon's final report makes
    /// one) shares the sorted cache instead of copying its rows.
    #[test]
    fn clones_share_the_sorted_cache() {
        let a = world(0.02, 7);
        let b = a.clone();
        let (Some(ca), Some(cb)) = (a.cache(), b.cache()) else {
            panic!("the default budget caches a scale-0.02 log");
        };
        assert!(std::ptr::eq(ca, cb));
    }

    #[test]
    fn different_seeds_differ() {
        let a = world(0.02, 7);
        let b = world(0.02, 8);
        assert_ne!(events(&a), events(&b));
    }

    /// The one generation pass must be draw-for-draw identical to the
    /// register-mode generation, stably sorted by time. Rebuild the
    /// world's first pass by hand (same named streams, same order) and
    /// compare, in core and out of core.
    #[test]
    fn sorted_log_is_the_stable_time_sort_of_register_mode_generation() {
        let config = EcosystemConfig::default().with_scale(0.02);
        let seed = 7;
        let mut roster_rng = RngStream::new(seed, Stream::Roster);
        let roster = ProgramRoster::generate(&config, &mut roster_rng);
        let mut botnet_rng = RngStream::new(seed, Stream::Botnets);
        let botnets = generate_botnets(&config, &roster, &mut botnet_rng);
        let mut universe_rng = RngStream::new(seed, Stream::Universe);
        let mut universe = DomainUniverse::new(&config, &mut universe_rng);
        let mut campaign_rng = RngStream::new(seed, Stream::Campaigns);
        let campaigns =
            plan_campaigns(&config, &roster, &botnets, &mut universe, &mut campaign_rng);
        let mut event_rng = RngStream::new(seed, Stream::Events);
        let mut want = Vec::new();
        for c in &campaigns {
            generate_campaign_events(&config, c, &universe, &mut event_rng, &mut want);
        }
        if let Some(poison) = &config.poison {
            if let Some(rustock) = botnets.iter().find(|b| b.poisons) {
                let id = CampaignId(campaigns.len() as u32);
                let mut poison_rng = RngStream::new(seed, Stream::Poison);
                generate_poison_events(
                    poison,
                    id,
                    DeliveryVector::Botnet(rustock.id),
                    &mut universe,
                    &mut poison_rng,
                    &mut want,
                );
            }
        }
        // `sort_by_key` is stable: ties keep generation order.
        want.sort_by_key(|e| e.time);

        let g = GroundTruth::generate(&config, seed).unwrap();
        assert!(g.cache().is_some(), "default budget caches small worlds");
        assert_eq!(events(&g), want);
        let mut tight = config.clone();
        tight.max_mem_bytes = Some(1024);
        let t = GroundTruth::generate(&tight, seed).unwrap();
        assert!(t.cache().is_none(), "tight budget spills out of core");
        assert_eq!(t.log.len, want.len());
        assert_eq!(events(&t), want);
    }

    #[test]
    fn visits_cover_the_range_with_global_sorted_indices() {
        let mut tight = EcosystemConfig::default().with_scale(0.02);
        tight.max_mem_bytes = Some(100 * EventBuffer::bytes_per_event() as u64);
        for g in [world(0.02, 3), GroundTruth::generate(&tight, 3).unwrap()] {
            let n = g.log.len;
            let (mut visits, mut next) = (0, 10);
            g.visit_sorted(10..n - 5, 37, |buf, rows| {
                visits += 1;
                for r in rows {
                    assert_eq!(buf.first + r, next);
                    next += 1;
                }
                Ok::<(), SpillError>(())
            })
            .unwrap();
            assert_eq!(next, n - 5);
            // One borrowing visit in core, 37-row reads out of core.
            let want = if g.cache().is_some() {
                1
            } else {
                (n - 15).div_ceil(37)
            };
            assert_eq!(visits, want);
            // An empty range still gets one empty visit.
            let mut empty = 0;
            g.visit_sorted(n..n + 4, 37, |_, rows| {
                empty += 1 + rows.len();
                Ok::<(), SpillError>(())
            })
            .unwrap();
            assert_eq!(empty, 1);
        }
    }

    /// The generation pass and the sort are spans of their own on both
    /// paths. Each pass of the out-of-core sort, and each free of a
    /// temporary file, is its own child of `generate/sort`, in order;
    /// in core the sort span has no children.
    #[test]
    fn sort_passes_are_child_spans_only_out_of_core() {
        let config = EcosystemConfig::default().with_scale(0.02);
        let mut tight = config.clone();
        tight.max_mem_bytes = Some(1024);
        for (config, spilled) in [(config, false), (tight, true)] {
            let obs = Obs::on();
            GroundTruth::generate_observed(&config, 7, &obs).unwrap();
            let spans = obs.trace.span_timings();
            let top: Vec<&str> = spans
                .iter()
                .filter(|s| s.depth == 0)
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(top, ["generate/events", "generate/sort"]);
            let sort = spans.iter().find(|s| s.name == "generate/sort").unwrap();
            let passes: Vec<(String, usize)> = spans
                .iter()
                .filter(|s| s.name.starts_with("generate/sort/"))
                .map(|s| (s.name.clone(), s.depth))
                .collect();
            let want: Vec<(String, usize)> = if spilled {
                ["distribute", "free_scratch", "scatter", "free_runs"]
                    .iter()
                    .map(|pass| (format!("generate/sort/{pass}"), sort.depth + 1))
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(passes, want, "spilled: {spilled}");
        }
    }

    #[test]
    fn poison_campaign_is_last_and_marked() {
        let g = world(0.02, 1);
        let poison: Vec<_> = g.campaigns.iter().filter(|c| c.poison).collect();
        assert_eq!(poison.len(), 1);
        assert!(g.campaigns.last().unwrap().poison);
        // Poison events exist and advertise Poison-kind domains.
        let pid = poison[0].id;
        let mut n = 0;
        for e in events(&g).into_iter().filter(|e| e.campaign == pid) {
            assert_eq!(g.universe.record(e.advertised).kind, DomainKind::Poison);
            n += 1;
        }
        assert!(n > 100, "poison events: {n}");
    }

    #[test]
    fn tagged_domains_resolve_through_landings() {
        let g = world(0.05, 3);
        let mut tagged_landings = 0;
        for c in g.campaigns.iter().filter(|c| !c.poison) {
            let tagged = g.roster.program(c.program).tagged;
            for p in &c.domains {
                assert_eq!(
                    g.storefront_program(p.storefront),
                    Some(c.program),
                    "storefront resolves to its own program"
                );
                if let Some(l) = p.landing {
                    if g.is_tagged_domain(l) {
                        tagged_landings += 1;
                    }
                    // Fresh landing domains are exclusive to their
                    // campaign; compromised benign redirectors are
                    // shared (a later campaign may re-point a popular
                    // shortener), so we only check those resolve to
                    // *some* storefront.
                    match g.universe.record(l).kind {
                        DomainKind::Landing => {
                            assert_eq!(g.storefront_program(l), Some(c.program))
                        }
                        _ => assert!(g.storefront_program(l).is_some()),
                    }
                }
                assert_eq!(g.is_tagged_domain(p.storefront), tagged);
            }
        }
        assert!(
            tagged_landings > 0,
            "some landing domains front tagged programs"
        );
    }

    #[test]
    fn brute_force_volume_is_substantial() {
        let g = world(0.02, 2);
        let brute = events(&g)
            .iter()
            .filter(|e| e.target == TargetClass::BruteForce)
            .count();
        let frac = brute as f64 / g.log.len as f64;
        assert!(frac > 0.2 && frac < 0.8, "brute fraction {frac}");
    }

    #[test]
    fn events_fit_in_window_with_slack() {
        let g = world(0.02, 2);
        let limit = g.window().end.plus(15 * taster_sim::DAY);
        assert!(events(&g).iter().all(|e| e.time < limit));
    }
}
