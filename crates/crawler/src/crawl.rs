//! The crawl pipeline: DNS + HTTP + tagging for a set of domains.

use crate::oracle::{DnsOracle, FetchOutcome, HttpOracle, ListMembership};
use crate::page::render_page;
use crate::tagger::{extract_affiliate_id, SignatureSet};
use rand::RngExt;
use taster_domain::{DomainBitset, DomainId, RankIndex};
use taster_ecosystem::ids::{AffiliateId, ProgramId};
use taster_ecosystem::GroundTruth;
use taster_sim::{FaultPlan, Obs, Parallelism};

/// Bucket edges for the crawl attempts-per-domain histogram (1 = no
/// retries; the flaky profiles allow a handful of extra visits).
const ATTEMPTS_BOUNDS: [u64; 5] = [1, 2, 3, 5, 8];

/// A storefront classification produced by signature matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// The matched program.
    pub program: ProgramId,
    /// The embedded affiliate identifier, when the program exposes one.
    pub affiliate: Option<AffiliateId>,
}

/// How a domain's crawl terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Disposition {
    /// The visit completed (whether or not the page responded).
    #[default]
    Ok,
    /// Every HTTP attempt timed out; retries exhausted.
    Timeout,
    /// Every DNS attempt returned SERVFAIL; retries exhausted.
    Unreachable,
}

/// Everything the crawler learned about one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlResult {
    /// Present in the zone files.
    pub registered: bool,
    /// At least one URL fetch returned 200.
    pub http_ok: bool,
    /// Terminal domain of the redirect chain (self when no redirect).
    pub final_domain: DomainId,
    /// Storefront classification, if the final page matched.
    pub tag: Option<Tag>,
    /// Alexa top-list rank.
    pub alexa_rank: Option<u32>,
    /// Listed in the Open Directory.
    pub odp: bool,
    /// How the visit terminated (always [`Disposition::Ok`] without
    /// fault injection).
    pub disposition: Disposition,
    /// Visits spent on this domain (1 + retries consumed).
    pub attempts: u32,
    /// Simulated backoff time spent between retries, in seconds.
    pub backoff_secs: u64,
}

impl CrawlResult {
    /// The paper's *live* predicate **before** benign-list exclusion.
    pub fn responded(&self) -> bool {
        self.http_ok
    }

    /// On either benign list (Alexa/ODP).
    pub fn benign_listed(&self) -> bool {
        self.alexa_rank.is_some() || self.odp
    }

    /// The paper's *live domain* definition (§4.1.4): HTTP-responsive
    /// and not on the Alexa/ODP lists.
    pub fn is_live(&self) -> bool {
        self.http_ok && !self.benign_listed()
    }

    /// The paper's *tagged domain* definition: leads to a classified
    /// storefront and not on the benign lists.
    pub fn is_tagged(&self) -> bool {
        self.tag.is_some() && !self.benign_listed()
    }
}

/// A completed crawl over a set of domains.
///
/// Stored columnar: sorted domain ids, a parallel result column, a
/// membership bitset + rank index for O(1) `get`, and one indicator
/// bitset per classification predicate so the analyses can answer
/// "how many of this feed's domains are live/tagged/listed" with
/// word-level intersection counts instead of per-domain probes.
#[derive(Debug, Clone, Default)]
pub struct CrawlReport {
    ids: Vec<DomainId>,
    results: Vec<CrawlResult>,
    members: DomainBitset,
    rank: RankIndex,
    registered: DomainBitset,
    http_ok: DomainBitset,
    tagged_page: DomainBitset,
    odp: DomainBitset,
    alexa: DomainBitset,
    live: DomainBitset,
    storefront: DomainBitset,
    benign_http: DomainBitset,
    timeouts: usize,
    unreachable: usize,
    total_attempts: u64,
    total_backoff_secs: u64,
}

impl CrawlReport {
    /// Builds from `ids`, ascending with no duplicates, and their
    /// results in worker shards that follow `ids` in order. The first
    /// shard becomes the result column, so a one-worker crawl copies no
    /// result.
    fn from_shards(ids: Vec<DomainId>, shards: Vec<Vec<CrawlResult>>) -> CrawlReport {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted unique");
        let mut shards = shards.into_iter();
        let mut results = shards.next().unwrap_or_default();
        for shard in shards {
            results.extend(shard);
        }
        debug_assert_eq!(ids.len(), results.len(), "one result per id");
        let capacity = ids.last().map_or(0, |d| d.index() + 1);
        let mut report = CrawlReport {
            ids,
            results,
            members: DomainBitset::with_capacity(capacity),
            rank: RankIndex::default(),
            registered: DomainBitset::with_capacity(capacity),
            http_ok: DomainBitset::with_capacity(capacity),
            tagged_page: DomainBitset::with_capacity(capacity),
            odp: DomainBitset::with_capacity(capacity),
            alexa: DomainBitset::with_capacity(capacity),
            live: DomainBitset::with_capacity(capacity),
            storefront: DomainBitset::with_capacity(capacity),
            benign_http: DomainBitset::with_capacity(capacity),
            timeouts: 0,
            unreachable: 0,
            total_attempts: 0,
            total_backoff_secs: 0,
        };
        for (&d, r) in report.ids.iter().zip(&report.results) {
            match r.disposition {
                Disposition::Ok => {}
                Disposition::Timeout => report.timeouts += 1,
                Disposition::Unreachable => report.unreachable += 1,
            }
            report.total_attempts += u64::from(r.attempts);
            report.total_backoff_secs += r.backoff_secs;
            report.members.insert(d);
            if r.registered {
                report.registered.insert(d);
            }
            if r.http_ok {
                report.http_ok.insert(d);
            }
            if r.tag.is_some() {
                report.tagged_page.insert(d);
            }
            if r.odp {
                report.odp.insert(d);
            }
            if r.alexa_rank.is_some() {
                report.alexa.insert(d);
            }
            if r.is_live() {
                report.live.insert(d);
            }
            if r.is_tagged() {
                report.storefront.insert(d);
            }
            if r.http_ok && r.benign_listed() {
                report.benign_http.insert(d);
            }
        }
        report.rank = RankIndex::build(&report.members);
        report
    }

    /// Result for one domain, if it was crawled.
    pub fn get(&self, domain: DomainId) -> Option<&CrawlResult> {
        self.rank
            .rank(&self.members, domain)
            .map(|i| &self.results[i])
    }

    /// Number of crawled domains.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing was crawled.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates `(domain, result)` in ascending domain order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, &CrawlResult)> {
        self.ids.iter().copied().zip(self.results.iter())
    }

    /// Every crawled domain.
    pub fn members(&self) -> &DomainBitset {
        &self.members
    }

    /// Domains present in the zone files.
    pub fn registered_set(&self) -> &DomainBitset {
        &self.registered
    }

    /// Domains with at least one 200 response.
    pub fn http_ok_set(&self) -> &DomainBitset {
        &self.http_ok
    }

    /// Domains whose final page matched a storefront signature
    /// (before benign-list exclusion).
    pub fn tagged_page_set(&self) -> &DomainBitset {
        &self.tagged_page
    }

    /// Domains in the Open Directory.
    pub fn odp_set(&self) -> &DomainBitset {
        &self.odp
    }

    /// Domains with an Alexa rank.
    pub fn alexa_set(&self) -> &DomainBitset {
        &self.alexa
    }

    /// [`CrawlResult::is_live`] domains.
    pub fn live_set(&self) -> &DomainBitset {
        &self.live
    }

    /// [`CrawlResult::is_tagged`] domains.
    pub fn storefront_set(&self) -> &DomainBitset {
        &self.storefront
    }

    /// HTTP-responsive domains on a benign list (the mass excluded
    /// from *live*, analysed in Fig 3).
    pub fn benign_http_set(&self) -> &DomainBitset {
        &self.benign_http
    }

    /// Domains whose crawl ended in [`Disposition::Timeout`].
    pub fn timeouts(&self) -> usize {
        self.timeouts
    }

    /// Domains whose crawl ended in [`Disposition::Unreachable`].
    pub fn unreachable(&self) -> usize {
        self.unreachable
    }

    /// Total visits spent across all domains (per-domain attempt
    /// accounting summed).
    pub fn total_attempts(&self) -> u64 {
        self.total_attempts
    }

    /// Total simulated backoff time spent between retries, in seconds.
    pub fn total_backoff_secs(&self) -> u64 {
        self.total_backoff_secs
    }
}

/// The crawler: wraps the oracles and signature set.
#[derive(Debug, Clone)]
pub struct Crawler<'a> {
    truth: &'a GroundTruth,
    dns: DnsOracle<'a>,
    http: HttpOracle<'a>,
    lists: ListMembership<'a>,
    signatures: SignatureSet,
    faults: Option<FaultPlan>,
    /// Precomputed `fault/crawl/{dns,http}` stream keys: the faulted
    /// crawl derives one decision stream per domain per stage, and
    /// hashing the stage name once here (instead of per domain) keeps
    /// that path allocation-free.
    dns_fault_key: u64,
    http_fault_key: u64,
}

impl<'a> Crawler<'a> {
    /// Builds a crawler (compiles the signature set from the roster)
    /// whose DNS/HTTP visits can fail according to `plan` (transient
    /// SERVFAILs and timeouts with bounded retries). An off plan is not
    /// kept, so its crawl never consults the fault layer.
    pub fn new(truth: &'a GroundTruth, plan: FaultPlan) -> Crawler<'a> {
        Crawler {
            truth,
            dns: DnsOracle::new(truth),
            http: HttpOracle::new(truth),
            lists: ListMembership::new(truth),
            signatures: SignatureSet::from_roster(&truth.roster),
            faults: (!plan.is_off()).then_some(plan),
            dns_fault_key: FaultPlan::fault_key("crawl/dns"),
            http_fault_key: FaultPlan::fault_key("crawl/http"),
        }
    }

    /// Retries `stage` visits for `domain` until one succeeds or the
    /// retry budget runs out. Returns `(survived, extra_attempts,
    /// backoff_secs)`. Decisions draw from a fresh stream keyed by
    /// `(seed, crawl/<stage>, domain index)`, so the outcome is a pure
    /// function of the domain — independent of shard boundaries — and
    /// backoff is deterministic simulated time (base doubling per
    /// retry), not wall-clock sleeping.
    fn visit_with_retries(
        plan: &FaultPlan,
        stage_key: u64,
        domain: DomainId,
        fail_prob: f64,
    ) -> (bool, u32, u64) {
        if fail_prob <= 0.0 {
            return (true, 0, 0);
        }
        let profile = plan.profile();
        let mut rng = plan.stream_keyed(stage_key, domain.index() as u64);
        let mut extra_attempts = 0u32;
        let mut backoff_secs = 0u64;
        for attempt in 0..=profile.crawl_max_retries {
            if attempt > 0 {
                extra_attempts += 1;
                backoff_secs += profile.crawl_backoff_secs << (attempt - 1);
            }
            if !rng.random_bool(fail_prob) {
                return (true, extra_attempts, backoff_secs);
            }
        }
        (false, extra_attempts, backoff_secs)
    }

    /// Crawls one domain.
    ///
    /// A pure function of the domain (the oracles and the fault plan
    /// draw nothing from shared mutable state), which is what keeps
    /// sharded crawls bit-identical to serial ones.
    pub fn crawl_one(&self, domain: DomainId) -> CrawlResult {
        let mut attempts = 1u32;
        let mut backoff_secs = 0u64;
        if let Some(plan) = &self.faults {
            // DNS resolution first: a domain whose every lookup
            // SERVFAILs is terminally unreachable — no HTTP fetch, no
            // registration answer, no silent success.
            let (resolved, extra, backoff) = Self::visit_with_retries(
                plan,
                self.dns_fault_key,
                domain,
                plan.profile().dns_servfail_prob,
            );
            attempts += extra;
            backoff_secs += backoff;
            if !resolved {
                return CrawlResult {
                    registered: false,
                    http_ok: false,
                    final_domain: domain,
                    tag: None,
                    alexa_rank: self.lists.alexa_rank(domain),
                    odp: self.lists.odp_listed(domain),
                    disposition: Disposition::Unreachable,
                    attempts,
                    backoff_secs,
                };
            }
        }
        let registered = self.dns.registered(domain);
        if let Some(plan) = &self.faults {
            let (responded, extra, backoff) = Self::visit_with_retries(
                plan,
                self.http_fault_key,
                domain,
                plan.profile().http_timeout_prob,
            );
            attempts += extra;
            backoff_secs += backoff;
            if !responded {
                return CrawlResult {
                    registered,
                    http_ok: false,
                    final_domain: domain,
                    tag: None,
                    alexa_rank: self.lists.alexa_rank(domain),
                    odp: self.lists.odp_listed(domain),
                    disposition: Disposition::Timeout,
                    attempts,
                    backoff_secs,
                };
            }
        }
        let (http_ok, final_domain) = match self.http.fetch(domain) {
            FetchOutcome::Ok { final_domain, .. } => (true, final_domain),
            FetchOutcome::Failed => (false, domain),
        };
        let tag = if http_ok {
            render_page(self.truth, final_domain).and_then(|html| {
                self.signatures.match_page(&html).map(|program| Tag {
                    program,
                    affiliate: extract_affiliate_id(&html),
                })
            })
        } else {
            None
        };
        CrawlResult {
            registered,
            http_ok,
            final_domain,
            tag,
            alexa_rank: self.lists.alexa_rank(domain),
            odp: self.lists.odp_listed(domain),
            disposition: Disposition::Ok,
            attempts,
            backoff_secs,
        }
    }

    /// Crawls a deduplicated set of domains, sharded across `par`
    /// workers, under a `crawl` span.
    ///
    /// The domain set is deduplicated into a bitset (which yields ids
    /// sorted ascending) and split into contiguous near-equal shards;
    /// each worker crawls one shard. [`Crawler::crawl_one`] is a pure
    /// function of the domain (the oracles draw nothing from shared
    /// mutable state), so the report is bit-identical to a serial
    /// crawl at any worker count. Disposition counters and the
    /// attempts-per-domain histogram are derived from the merged
    /// report, so the sharded hot path carries no metrics and they are
    /// trivially identical at any worker count.
    pub fn crawl<I: IntoIterator<Item = DomainId>>(
        &self,
        domains: I,
        par: &Parallelism,
        obs: &Obs,
    ) -> CrawlReport {
        let mut span = obs.span("crawl");
        let unique: DomainBitset = domains.into_iter().collect();
        let unique: Vec<DomainId> = unique.iter().collect();
        let chunk = unique.len().div_ceil(par.workers()).max(1);
        let shards: Vec<&[DomainId]> = unique.chunks(chunk).collect();
        let results = par.par_map(shards, |shard| {
            shard.iter().map(|&d| self.crawl_one(d)).collect::<Vec<_>>()
        });
        let report = CrawlReport::from_shards(unique, results);
        span.attr_u64("domains", report.len() as u64);
        if obs.metrics.is_on() {
            let m = &obs.metrics;
            m.add("crawl/domains", report.len() as u64);
            m.add("crawl/registered", report.registered_set().len() as u64);
            m.add("crawl/http_ok", report.http_ok_set().len() as u64);
            m.add("crawl/tagged_pages", report.tagged_page_set().len() as u64);
            m.add("crawl/live", report.live_set().len() as u64);
            m.add("crawl/timeouts", report.timeouts() as u64);
            m.add("crawl/unreachable", report.unreachable() as u64);
            m.add("crawl/attempts", report.total_attempts());
            m.add("crawl/backoff_secs", report.total_backoff_secs());
            let mut shard = taster_sim::MetricsShard::new();
            for (_, r) in report.iter() {
                shard.observe(
                    "crawl/attempts_per_domain",
                    &ATTEMPTS_BOUNDS,
                    u64::from(r.attempts),
                );
            }
            m.absorb(&shard);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::domains::DomainKind;
    use taster_ecosystem::program::RX_PROGRAM;
    use taster_ecosystem::EcosystemConfig;

    fn world() -> GroundTruth {
        GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 37).unwrap()
    }

    /// An unobserved crawl on one worker.
    fn crawl_serial(crawler: &Crawler<'_>, ids: impl IntoIterator<Item = DomainId>) -> CrawlReport {
        crawler.crawl(ids, &Parallelism::serial(), &Obs::off())
    }

    #[test]
    fn storefronts_of_tagged_programs_get_tagged() {
        let truth = world();
        let crawler = Crawler::new(&truth, FaultPlan::off(truth.seed));
        let mut tagged = 0;
        let mut untagged_live = 0;
        for (id, rec) in truth.universe.iter() {
            if let DomainKind::Storefront { program, affiliate } = rec.kind {
                let r = crawler.crawl_one(id);
                if !rec.live {
                    assert!(!r.http_ok);
                    continue;
                }
                let is_tagged_prog = truth.roster.program(program).tagged;
                match r.tag {
                    Some(tag) => {
                        assert!(is_tagged_prog);
                        assert_eq!(tag.program, program);
                        if program == RX_PROGRAM {
                            assert_eq!(tag.affiliate, Some(affiliate));
                        } else {
                            assert_eq!(tag.affiliate, None);
                        }
                        tagged += 1;
                    }
                    None => {
                        assert!(!is_tagged_prog, "tagged program page missed");
                        untagged_live += 1;
                    }
                }
            }
        }
        assert!(tagged > 0 && untagged_live > 0);
    }

    #[test]
    fn landing_domains_tag_through_redirects() {
        let truth = world();
        let crawler = Crawler::new(&truth, FaultPlan::off(truth.seed));
        let mut via_landing = 0;
        for (id, rec) in truth.universe.iter() {
            if rec.kind == DomainKind::Landing {
                let r = crawler.crawl_one(id);
                if r.http_ok {
                    assert_ne!(r.final_domain, id);
                    if r.tag.is_some() {
                        via_landing += 1;
                    }
                }
            }
        }
        assert!(via_landing > 0, "redirect-resolved tags exist");
    }

    #[test]
    fn poison_is_dead_and_untagged() {
        let truth = world();
        let crawler = Crawler::new(&truth, FaultPlan::off(truth.seed));
        let mut poison_seen = 0;
        let mut poison_ok = 0;
        for (id, rec) in truth.universe.iter() {
            if rec.kind == DomainKind::Poison {
                poison_seen += 1;
                let r = crawler.crawl_one(id);
                assert!(r.tag.is_none());
                if r.http_ok {
                    poison_ok += 1;
                }
            }
        }
        assert!(poison_seen > 100);
        assert!(
            (poison_ok as f64) < poison_seen as f64 * 0.01,
            "{poison_ok}/{poison_seen} poison responding"
        );
    }

    #[test]
    fn live_and_tagged_exclude_benign_lists() {
        let truth = world();
        let crawler = Crawler::new(&truth, FaultPlan::off(truth.seed));
        // Pick an uncompromised listed benign domain (a compromised
        // one may redirect to a dead storefront and legitimately fail).
        let (benign_id, _) = truth
            .universe
            .iter()
            .find(|(id, r)| {
                r.kind == DomainKind::Benign
                    && r.alexa_rank.is_some()
                    && truth.universe.redirect_target(*id).is_none()
            })
            .unwrap();
        let r = crawler.crawl_one(benign_id);
        assert!(r.http_ok);
        assert!(r.benign_listed());
        assert!(!r.is_live(), "Alexa-listed domain is excluded from live");
        assert!(!r.is_tagged());
    }

    #[test]
    fn sharded_crawl_is_bit_identical_to_serial() {
        let truth = world();
        let crawler = Crawler::new(&truth, FaultPlan::off(truth.seed));
        let ids: Vec<DomainId> = truth.universe.iter().map(|(d, _)| d).collect();
        let serial = crawl_serial(&crawler, ids.iter().copied());
        for workers in [2, 8] {
            let par = crawler.crawl(
                ids.iter().copied(),
                &Parallelism::fixed(workers),
                &Obs::off(),
            );
            assert_eq!(par.len(), serial.len());
            for (d, r) in serial.iter() {
                assert_eq!(par.get(d), Some(r), "{d:?}");
            }
        }
    }

    #[test]
    fn faulted_crawl_is_deterministic_and_degrades() {
        use taster_sim::FaultProfile;
        let truth = world();
        let ids: Vec<DomainId> = truth.universe.iter().map(|(d, _)| d).collect();
        let clean = crawl_serial(
            &Crawler::new(&truth, FaultPlan::off(truth.seed)),
            ids.iter().copied(),
        );
        let plan = FaultPlan::new(FaultProfile::flaky_crawler(), truth.seed);
        let flaky = Crawler::new(&truth, plan.clone());
        let faulted = crawl_serial(&flaky, ids.iter().copied());
        // Terminal dispositions appear and cost extra attempts.
        assert!(faulted.timeouts() > 0, "timeouts observed");
        assert!(faulted.unreachable() > 0, "unreachable observed");
        assert!(faulted.total_attempts() > faulted.len() as u64);
        assert!(faulted.total_backoff_secs() > 0);
        // Deterministic and shard-independent: 1/2/8 workers agree.
        for workers in [2, 8] {
            let par = flaky.crawl(
                ids.iter().copied(),
                &Parallelism::fixed(workers),
                &Obs::off(),
            );
            for (d, r) in faulted.iter() {
                assert_eq!(par.get(d), Some(r), "{d:?}");
            }
        }
        // A timed-out domain never reports http_ok; an unreachable one
        // never reports registered.
        for (_, r) in faulted.iter() {
            match r.disposition {
                Disposition::Timeout => assert!(!r.http_ok),
                Disposition::Unreachable => assert!(!r.http_ok && !r.registered),
                Disposition::Ok => {}
            }
        }
        // An off plan crawls without a fault or a retry.
        assert_eq!(clean.timeouts(), 0);
        assert_eq!(clean.total_attempts(), clean.len() as u64);
    }

    #[test]
    fn retries_recover_some_transient_failures() {
        use taster_sim::FaultProfile;
        let truth = world();
        let ids: Vec<DomainId> = truth.universe.iter().take(2000).map(|(d, _)| d).collect();
        let mut no_retry = FaultProfile::flaky_crawler();
        no_retry.crawl_max_retries = 0;
        let mut with_retry = FaultProfile::flaky_crawler();
        with_retry.crawl_max_retries = 3;
        let hard = crawl_serial(
            &Crawler::new(&truth, FaultPlan::new(no_retry, truth.seed)),
            ids.iter().copied(),
        );
        let soft = crawl_serial(
            &Crawler::new(&truth, FaultPlan::new(with_retry, truth.seed)),
            ids.iter().copied(),
        );
        assert!(
            soft.timeouts() + soft.unreachable() < hard.timeouts() + hard.unreachable(),
            "retries must recover transient failures: {} vs {}",
            soft.timeouts() + soft.unreachable(),
            hard.timeouts() + hard.unreachable()
        );
    }

    #[test]
    fn crawl_set_deduplicates() {
        let truth = world();
        let crawler = Crawler::new(&truth, FaultPlan::off(truth.seed));
        let ids: Vec<DomainId> = truth.universe.iter().take(50).map(|(d, _)| d).collect();
        let doubled: Vec<DomainId> = ids.iter().chain(ids.iter()).copied().collect();
        let report = crawl_serial(&crawler, doubled);
        assert_eq!(report.len(), 50);
        assert!(report.get(ids[0]).is_some());
    }
}
