//! The domain registry: ground truth about every domain the simulation
//! can emit.
//!
//! Four populations exist (paper §3.3, §4.1):
//!
//! * **storefronts** — registered by affiliates, hosting program
//!   storefront pages (tagged by the crawler when the program is one
//!   of the 45 classified ones);
//! * **landing domains** — throwaway redirectors, either freshly
//!   registered or *compromised benign sites / free-hosting services*
//!   (these keep their Alexa/ODP listings — the false-positive trap
//!   the paper highlights in Fig 3);
//! * **benign popular domains** — the Alexa/ODP universe, appearing in
//!   spam as chaff and in legitimate mail;
//! * **poison domains** — randomly-generated garbage from the Rustock
//!   incident, almost never registered.

use crate::config::EcosystemConfig;
use crate::ids::{AffiliateId, ProgramId};
use rand::{Rng, RngExt};
use taster_domain::gen::{BrandableGen, DgaGen, BENIGN_TLD_POOL, SPAM_TLD_POOL};
use taster_domain::{DomainId, DomainTable};
use taster_stats::sample::Zipf;

/// What a domain fundamentally is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainKind {
    /// An affiliate's storefront domain.
    Storefront {
        /// Program whose storefront it hosts.
        program: ProgramId,
        /// The affiliate credited for sales through this domain.
        affiliate: AffiliateId,
    },
    /// A freshly-registered landing (redirect) domain.
    Landing,
    /// A benign popular domain (possibly abused as a redirector).
    Benign,
    /// Random-character poisoning garbage.
    Poison,
}

/// Ground truth about one domain.
#[derive(Debug, Clone, Copy)]
pub struct DomainRecord {
    /// What the domain is.
    pub kind: DomainKind,
    /// Whether it appears in DNS zone files (Table 2 "DNS").
    pub registered: bool,
    /// Whether HTTP requests to it succeed (Table 2 "HTTP").
    pub live: bool,
    /// Alexa-style popularity rank (1-based), if listed.
    pub alexa_rank: Option<u32>,
    /// Whether it appears in the Open Directory listings.
    pub odp: bool,
}

impl DomainRecord {
    /// Whether the domain appears on either benign list (the negative
    /// purity indicators of Table 2).
    pub fn benign_listed(&self) -> bool {
        self.alexa_rank.is_some() || self.odp
    }
}

/// The registry of all domains plus the redirect graph.
#[derive(Debug, Clone)]
pub struct DomainUniverse {
    /// Interner for registered-domain text; ids index `records`.
    pub table: DomainTable,
    records: Vec<DomainRecord>,
    /// Dense redirect column parallel to `records`: `redirects[d]` is
    /// the target id, or [`NO_REDIRECT`]. Redirect chasing happens per
    /// event in the provider and per domain in the crawler, so this is
    /// an indexed load where a hash probe used to be.
    redirects: Vec<u32>,
    benign_by_rank: Vec<DomainId>,
    benign_zipf: Zipf,
    storefront_gen: BrandableGen,
    landing_gen: BrandableGen,
    dga: DgaGen,
    /// Reused name-candidate buffer: registrations stream thousands of
    /// generated names through [`intern_fresh`] and only the accepted
    /// ones deserve a heap string of their own.
    scratch: String,
}

impl DomainUniverse {
    /// Creates the universe with its benign population pre-generated.
    pub fn new<R: Rng>(config: &EcosystemConfig, rng: &mut R) -> DomainUniverse {
        let mut table = DomainTable::new();
        let mut records = Vec::new();
        let benign_gen = BrandableGen {
            prefix_prob: 0.08,
            suffix_prob: 0.10,
            digit_prob: 0.05,
            ..BrandableGen::default()
        };
        let mut benign_by_rank = Vec::with_capacity(config.benign_domains);
        let mut scratch = String::new();
        for rank0 in 0..config.benign_domains {
            let id = intern_fresh(&mut table, &mut scratch, |out| {
                benign_gen.domain_into(rng, BENIGN_TLD_POOL, out)
            });
            debug_assert_eq!(id.index(), records.len());
            records.push(DomainRecord {
                kind: DomainKind::Benign,
                registered: true,
                live: true,
                alexa_rank: (rank0 < config.alexa_list_size).then_some(rank0 as u32 + 1),
                odp: rng.random_bool(config.odp_fraction),
            });
            benign_by_rank.push(id);
        }
        let redirects = vec![NO_REDIRECT; records.len()];
        DomainUniverse {
            table,
            records,
            redirects,
            benign_by_rank,
            benign_zipf: Zipf::new(config.benign_domains.max(1), config.benign_zipf_s),
            storefront_gen: BrandableGen::default(),
            landing_gen: BrandableGen {
                suffix_prob: 0.55,
                digit_prob: 0.35,
                ..BrandableGen::default()
            },
            dga: DgaGen::default(),
            scratch,
        }
    }

    /// Registers a fresh storefront domain for `(program, affiliate)`.
    pub fn register_storefront<R: Rng>(
        &mut self,
        config: &EcosystemConfig,
        program: ProgramId,
        affiliate: AffiliateId,
        rng: &mut R,
    ) -> DomainId {
        let gen = self.storefront_gen.clone();
        let id = intern_fresh(&mut self.table, &mut self.scratch, |out| {
            gen.domain_into(rng, SPAM_TLD_POOL, out)
        });
        let registered = rng.random_bool(config.storefront_registered_prob);
        let live = registered && rng.random_bool(config.storefront_live_prob);
        self.push_record(
            id,
            DomainRecord {
                kind: DomainKind::Storefront { program, affiliate },
                registered,
                live,
                alexa_rank: None,
                odp: false,
            },
        );
        id
    }

    /// Registers a storefront with explicit registration/liveness
    /// flags — used by the web-spam corpus, whose domains are junkier
    /// than e-mail-advertised ones.
    pub fn register_storefront_with<R: Rng>(
        &mut self,
        program: ProgramId,
        affiliate: AffiliateId,
        registered: bool,
        live: bool,
        rng: &mut R,
    ) -> DomainId {
        let gen = self.storefront_gen.clone();
        let id = intern_fresh(&mut self.table, &mut self.scratch, |out| {
            gen.domain_into(rng, SPAM_TLD_POOL, out)
        });
        self.push_record(
            id,
            DomainRecord {
                kind: DomainKind::Storefront { program, affiliate },
                registered,
                live: registered && live,
                alexa_rank: None,
                odp: false,
            },
        );
        id
    }

    /// Registers a fresh landing domain redirecting to `target`.
    pub fn register_landing<R: Rng>(
        &mut self,
        config: &EcosystemConfig,
        target: DomainId,
        rng: &mut R,
    ) -> DomainId {
        let gen = self.landing_gen.clone();
        let id = intern_fresh(&mut self.table, &mut self.scratch, |out| {
            gen.domain_into(rng, SPAM_TLD_POOL, out)
        });
        let live = rng.random_bool(config.landing_live_prob);
        self.push_record(
            id,
            DomainRecord {
                kind: DomainKind::Landing,
                registered: true,
                live,
                alexa_rank: None,
                odp: false,
            },
        );
        self.redirects[id.index()] = target.0;
        id
    }

    /// Marks an existing *benign* domain as abused: spam advertises it
    /// and (while compromised) it redirects to `target`. Returns the
    /// chosen domain. The benign record keeps its Alexa/ODP listings.
    pub fn compromise_benign<R: Rng>(&mut self, target: DomainId, rng: &mut R) -> DomainId {
        // Abuse skews towards popular services (URL shorteners, free
        // hosting), i.e. low ranks — reuse the popularity law.
        let rank = self.benign_zipf.sample(rng);
        let id = self.benign_by_rank[rank];
        self.redirects[id.index()] = target.0;
        id
    }

    /// Registers one poison (DGA) domain.
    pub fn register_poison<R: Rng>(&mut self, registered_prob: f64, rng: &mut R) -> DomainId {
        let gen = self.dga.clone();
        let id = intern_fresh(&mut self.table, &mut self.scratch, |out| {
            gen.domain_into(rng, out)
        });
        let registered = rng.random_bool(registered_prob);
        // A registered "poison" name occasionally collides with a real
        // site; half of those respond to HTTP.
        let live = registered && rng.random_bool(0.5);
        self.push_record(
            id,
            DomainRecord {
                kind: DomainKind::Poison,
                registered,
                live,
                alexa_rank: None,
                odp: false,
            },
        );
        id
    }

    /// Samples one chaff domain by popularity (for message bodies).
    pub fn sample_chaff<R: Rng>(&self, rng: &mut R) -> DomainId {
        self.benign_by_rank[self.benign_zipf.sample(rng)]
    }

    /// Samples a benign domain uniformly (for legitimate mail bodies).
    pub fn sample_benign_uniform<R: Rng>(&self, rng: &mut R) -> DomainId {
        self.benign_by_rank[rng.random_range(0..self.benign_by_rank.len())]
    }

    /// Ground truth for `id`.
    pub fn record(&self, id: DomainId) -> &DomainRecord {
        &self.records[id.index()]
    }

    /// Where `id` redirects, if it is (currently) a redirector.
    pub fn redirect_target(&self, id: DomainId) -> Option<DomainId> {
        match self.redirects.get(id.index()) {
            Some(&t) if t != NO_REDIRECT => Some(DomainId(t)),
            _ => None,
        }
    }

    /// Follows the redirect chain from `id` to its terminus (bounded,
    /// defensive against cycles).
    pub fn resolve_final(&self, id: DomainId) -> DomainId {
        let mut cur = id;
        for _ in 0..8 {
            match self.redirect_target(cur) {
                Some(next) if next != cur => cur = next,
                _ => break,
            }
        }
        cur
    }

    /// Number of domains of every population.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates all `(id, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, &DomainRecord)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (DomainId(i as u32), r))
    }

    /// Picks a random TLD-pool domain name that is *not* in the table —
    /// used by mailsim for never-spammed legitimate sender domains.
    pub fn fresh_benign_name<R: Rng>(&mut self, rng: &mut R) -> DomainId {
        let gen = BrandableGen {
            prefix_prob: 0.0,
            suffix_prob: 0.0,
            digit_prob: 0.1,
            ..BrandableGen::default()
        };
        let id = intern_fresh(&mut self.table, &mut self.scratch, |out| {
            gen.domain_into(rng, BENIGN_TLD_POOL, out)
        });
        self.push_record(
            id,
            DomainRecord {
                kind: DomainKind::Benign,
                registered: true,
                live: true,
                alexa_rank: None,
                odp: rng.random_bool(0.15),
            },
        );
        id
    }

    fn push_record(&mut self, id: DomainId, record: DomainRecord) {
        debug_assert_eq!(id.index(), self.records.len(), "ids must stay dense");
        self.records.push(record);
        self.redirects.push(NO_REDIRECT);
    }
}

/// Sentinel in the dense redirect column: "does not redirect".
const NO_REDIRECT: u32 = u32::MAX;

/// Interns a freshly-generated name, regenerating on collision, and
/// panics after a pathological number of retries (would indicate an
/// exhausted namespace, i.e. a config error). Candidates are written
/// into `scratch` so rejected names never touch the heap.
fn intern_fresh<F: FnMut(&mut String)>(
    table: &mut DomainTable,
    scratch: &mut String,
    mut gen: F,
) -> DomainId {
    for _ in 0..1000 {
        scratch.clear();
        gen(scratch);
        if table.get(scratch).is_none() {
            return table.intern_str(scratch);
        }
    }
    #[expect(
        clippy::panic,
        reason = "1000 straight collisions means the configured namespace cannot hold the universe; abort loudly instead of looping forever"
    )]
    {
        panic!("domain namespace exhausted: 1000 consecutive collisions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RX_PROGRAM;
    use taster_sim::RngStream;

    fn universe() -> (EcosystemConfig, DomainUniverse, RngStream) {
        let cfg = EcosystemConfig {
            benign_domains: 500,
            alexa_list_size: 200,
            ..Default::default()
        };
        let mut rng = RngStream::new(5, "universe-test");
        let u = DomainUniverse::new(&cfg, &mut rng);
        (cfg, u, rng)
    }

    #[test]
    fn benign_universe_is_ranked_and_listed() {
        let (cfg, u, _) = universe();
        assert_eq!(u.len(), cfg.benign_domains);
        let mut odp = 0;
        let mut alexa = 0;
        for (_, r) in u.iter() {
            assert_eq!(r.kind, DomainKind::Benign);
            assert!(r.registered && r.live);
            if r.odp {
                odp += 1;
            }
            if r.alexa_rank.is_some() {
                alexa += 1;
            }
        }
        assert_eq!(alexa, cfg.alexa_list_size);
        let frac = odp as f64 / cfg.benign_domains as f64;
        assert!((frac - cfg.odp_fraction).abs() < 0.1, "odp fraction {frac}");
    }

    #[test]
    fn storefront_registration() {
        let (cfg, mut u, mut rng) = universe();
        let id = u.register_storefront(&cfg, RX_PROGRAM, crate::ids::AffiliateId(7), &mut rng);
        let r = u.record(id);
        assert!(matches!(
            r.kind,
            DomainKind::Storefront { program, affiliate }
                if program == RX_PROGRAM && affiliate.0 == 7
        ));
        assert!(!r.benign_listed());
    }

    #[test]
    fn landing_redirects_resolve() {
        let (cfg, mut u, mut rng) = universe();
        let store = u.register_storefront(&cfg, RX_PROGRAM, crate::ids::AffiliateId(1), &mut rng);
        let landing = u.register_landing(&cfg, store, &mut rng);
        assert_eq!(u.redirect_target(landing), Some(store));
        assert_eq!(u.resolve_final(landing), store);
        assert_eq!(u.resolve_final(store), store);
    }

    #[test]
    fn compromised_benign_keeps_listings() {
        let (cfg, mut u, mut rng) = universe();
        let store = u.register_storefront(&cfg, RX_PROGRAM, crate::ids::AffiliateId(1), &mut rng);
        let abused = u.compromise_benign(store, &mut rng);
        let r = u.record(abused);
        assert_eq!(r.kind, DomainKind::Benign);
        assert_eq!(u.resolve_final(abused), store);
    }

    #[test]
    fn poison_is_mostly_unregistered() {
        let (_, mut u, mut rng) = universe();
        let mut registered = 0;
        for _ in 0..2000 {
            let id = u.register_poison(0.004, &mut rng);
            if u.record(id).registered {
                registered += 1;
            }
        }
        assert!(registered < 30, "registered poison: {registered}");
    }

    #[test]
    fn chaff_sampling_prefers_popular() {
        let (_, u, mut rng) = universe();
        let top = u.benign_by_rank[0];
        let hits = (0..5000)
            .filter(|_| u.sample_chaff(&mut rng) == top)
            .count();
        // Zipf(s≈1) over 500 ranks gives rank 1 ≈ 1/H_500 ≈ 15 %.
        assert!(hits > 200, "top-rank hits: {hits}");
    }

    #[test]
    fn ids_stay_dense_across_registrations() {
        let (cfg, mut u, mut rng) = universe();
        let before = u.len();
        let a = u.register_storefront(&cfg, RX_PROGRAM, crate::ids::AffiliateId(0), &mut rng);
        let b = u.register_landing(&cfg, a, &mut rng);
        let c = u.register_poison(0.0, &mut rng);
        assert_eq!(a.index(), before);
        assert_eq!(b.index(), before + 1);
        assert_eq!(c.index(), before + 2);
        assert_eq!(u.table.len(), u.len());
    }
}
