//! Crawl-driven domain classification.
//!
//! Mirrors §4.1.4: for every domain appearing in any feed, crawl it;
//! *live* domains are those with at least one successful HTTP response
//! minus Alexa/ODP-listed ones; *tagged* domains additionally lead to
//! a classified storefront. The paper could not crawl blacklist-only
//! domains (the blacklists arrived after the crawl), so its blacklist
//! columns count only entries that also occur in a base feed; the same
//! restriction is reproduced here (and can be disabled to quantify the
//! bias it introduces — the paper estimated 2.5–3 %).

use taster_crawler::{CrawlReport, Crawler};
use taster_domain::DomainBitset as DomainSet;
use taster_ecosystem::GroundTruth;
use taster_feeds::{FeedId, FeedSet};
use taster_sim::{FaultPlan, Obs, Parallelism, Stage};

/// Classification options.
#[derive(Debug, Clone, Copy)]
pub struct ClassifyOptions {
    /// Drop blacklist entries that occur in no base feed (the paper's
    /// methodology, §3.4). Default true.
    pub restrict_blacklists_to_base: bool,
}

impl Default for ClassifyOptions {
    fn default() -> Self {
        ClassifyOptions {
            restrict_blacklists_to_base: true,
        }
    }
}

/// A feed's three domain sets.
#[derive(Debug, Clone)]
pub struct FeedDomains {
    /// Every domain the feed carried (post-restriction).
    pub all: DomainSet,
    /// HTTP-responsive minus Alexa/ODP (the paper's *live*).
    pub live: DomainSet,
    /// Storefront-tagged minus Alexa/ODP (the paper's *tagged*).
    pub tagged: DomainSet,
    /// Subset of `all` that is Alexa/ODP-listed *and* HTTP-responsive
    /// (the excluded mass analysed in Fig 3).
    pub benign_listed: DomainSet,
}

/// The classified world: crawl results plus per-feed sets.
#[derive(Debug, Clone)]
pub struct Classified {
    /// Crawl results over the union of feed contents.
    pub crawl: CrawlReport,
    /// Options used.
    pub options: ClassifyOptions,
    per_feed: Vec<FeedDomains>,
}

impl Classified {
    /// Crawls and classifies all feeds. The crawl shards the (sorted)
    /// domain union across `par` workers — pure per domain, so the
    /// result matches a serial build exactly — and its DNS and HTTP
    /// visits can fail (with bounded retries) according to `plan`,
    /// degrading live/tagged sets instead of panicking; an off plan
    /// crawls fault-free. Each feed's sets are then derived in turn.
    ///
    /// Set derivation is pure bitset algebra: a feed's *all* set is
    /// its membership bitset (intersected with the base union for
    /// restricted blacklists), and live/tagged/benign-listed are
    /// word-wise intersections with the crawl's indicator bitsets —
    /// no per-domain probing. The crawl and set derivation run under
    /// spans, and classification counters plus the
    /// analytically-computed bitset word-op count land in
    /// `obs.metrics`; `Obs::off()` records nothing.
    pub fn build_observed(
        truth: &GroundTruth,
        feeds: &FeedSet,
        options: ClassifyOptions,
        plan: &FaultPlan,
        par: &Parallelism,
        obs: &Obs,
    ) -> Classified {
        let crawler = Crawler::new(truth, plan.clone());
        let base_union: DomainSet = feeds.union_domains(&FeedId::BASE);

        // Crawl the union of everything we will classify. Restricted
        // blacklist entries are a subset of the base union, so they
        // only widen the crawl when the restriction is off.
        let mut to_crawl = base_union.clone();
        if !options.restrict_blacklists_to_base {
            for id in [FeedId::Dbl, FeedId::Uribl] {
                to_crawl.union_with(feeds.columns(id).members());
            }
        }
        let crawl = obs.stage(Stage::Crawl, || crawler.crawl(to_crawl.iter(), par, obs));

        let per_feed = obs.stage(Stage::Classify, || {
            let _derive_span = obs.span("classify/derive_sets");
            FeedId::ALL
                .iter()
                .map(|&id| {
                    let members = feeds.columns(id).members();
                    let restrict = options.restrict_blacklists_to_base
                        && matches!(id, FeedId::Dbl | FeedId::Uribl);
                    let all = if restrict {
                        members.intersection(&base_union)
                    } else {
                        members.clone()
                    };
                    debug_assert_eq!(
                        all.difference_len(crawl.members()),
                        0,
                        "crawled every classified domain"
                    );
                    FeedDomains {
                        live: all.intersection(crawl.live_set()),
                        tagged: all.intersection(crawl.storefront_set()),
                        benign_listed: all.intersection(crawl.benign_http_set()),
                        all,
                    }
                })
                .collect::<Vec<_>>()
        });

        if obs.metrics.is_on() {
            let m = &obs.metrics;
            m.add("classify/base_union", base_union.len() as u64);
            m.add("classify/crawled", to_crawl.len() as u64);
            // Word-op accounting is analytic — a pure function of the
            // set sizes the derivation above touched — so the kernels
            // themselves stay counter-free (and a shared global counter
            // could not be deterministic under concurrent tests anyway).
            let mut word_ops = 0u64;
            for id in FeedId::ALL {
                let fd = &per_feed[id.index()];
                let restrict = options.restrict_blacklists_to_base
                    && matches!(id, FeedId::Dbl | FeedId::Uribl);
                if restrict {
                    word_ops += feeds.columns(id).members().kernel_words(&base_union);
                }
                word_ops += fd.all.kernel_words(crawl.live_set());
                word_ops += fd.all.kernel_words(crawl.storefront_set());
                word_ops += fd.all.kernel_words(crawl.benign_http_set());
                let label = id.label();
                m.add(&format!("classify/live/{label}"), fd.live.len() as u64);
                m.add(&format!("classify/tagged/{label}"), fd.tagged.len() as u64);
            }
            m.add("classify/bitset_word_ops", word_ops);
        }

        Classified {
            crawl,
            options,
            per_feed,
        }
    }

    /// A feed's domain sets.
    pub fn feed(&self, id: FeedId) -> &FeedDomains {
        &self.per_feed[id.index()]
    }

    /// Union of one category across `feeds`.
    pub fn union(&self, feeds: &[FeedId], category: Category) -> DomainSet {
        let mut out = DomainSet::with_capacity(0);
        for &f in feeds {
            out.union_with(self.set(f, category));
        }
        out
    }

    /// The selected set of a feed.
    pub fn set(&self, id: FeedId, category: Category) -> &DomainSet {
        let fd = self.feed(id);
        match category {
            Category::All => &fd.all,
            Category::Live => &fd.live,
            Category::Tagged => &fd.tagged,
        }
    }
}

/// The analysis tests' fixture: a fault-free, serial, unobserved
/// classification with the default options.
#[cfg(test)]
pub(crate) fn classify_clean(truth: &GroundTruth, feeds: &FeedSet) -> Classified {
    Classified::build_observed(
        truth,
        feeds,
        ClassifyOptions::default(),
        &FaultPlan::off(truth.seed),
        &Parallelism::serial(),
        &Obs::off(),
    )
}

/// Which domain universe an analysis runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Everything a feed carried.
    All,
    /// Live domains (§4.1.4).
    Live,
    /// Tagged domains (§4.1.4).
    Tagged,
}

impl Category {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Category::All => "all",
            Category::Live => "live",
            Category::Tagged => "tagged",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::EcosystemConfig;
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn classified(restrict: bool) -> (MailWorld, FeedSet, Classified) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 71).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.02)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let options = ClassifyOptions {
            restrict_blacklists_to_base: restrict,
        };
        let plan = FaultPlan::off(world.truth.seed);
        let par = Parallelism::serial();
        let c = Classified::build_observed(&world.truth, &feeds, options, &plan, &par, &Obs::off());
        (world, feeds, c)
    }

    #[test]
    fn sets_nest_properly() {
        let (_, _, c) = classified(true);
        for id in FeedId::ALL {
            let fd = c.feed(id);
            assert!(fd.live.len() <= fd.all.len());
            assert!(fd.tagged.len() <= fd.live.len(), "{id}: tagged ⊆ live");
            for d in fd.tagged.iter() {
                assert!(fd.live.contains(d));
            }
        }
    }

    #[test]
    fn restriction_shrinks_blacklists() {
        let (_, feeds, restricted) = classified(true);
        let (_, _, unrestricted) = classified(false);
        for id in [FeedId::Dbl, FeedId::Uribl] {
            assert!(restricted.feed(id).all.len() <= unrestricted.feed(id).all.len());
            assert!(restricted.feed(id).all.len() <= feeds.get(id).unique_domains());
        }
        // Base feeds are unaffected.
        for id in FeedId::BASE {
            assert_eq!(
                restricted.feed(id).all.len(),
                unrestricted.feed(id).all.len()
            );
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 71).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.02)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let serial = classify_clean(&world.truth, &feeds);
        let (options, plan) = (ClassifyOptions::default(), FaultPlan::off(world.truth.seed));
        for workers in [2, 8] {
            let par = Parallelism::fixed(workers);
            let parallel =
                Classified::build_observed(&world.truth, &feeds, options, &plan, &par, &Obs::off());
            assert_eq!(parallel.crawl.len(), serial.crawl.len());
            for (d, r) in serial.crawl.iter() {
                assert_eq!(parallel.crawl.get(d), Some(r));
            }
            for id in FeedId::ALL {
                for cat in [Category::All, Category::Live, Category::Tagged] {
                    let (a, b) = (serial.set(id, cat), parallel.set(id, cat));
                    assert_eq!(a.len(), b.len(), "{id} {}", cat.label());
                    for d in a.iter() {
                        assert!(b.contains(d), "{id} {} missing {d:?}", cat.label());
                    }
                }
            }
        }
    }

    #[test]
    fn tagged_union_is_nonempty_and_live() {
        let (_, _, c) = classified(true);
        let union = c.union(&FeedId::ALL, Category::Tagged);
        assert!(!union.is_empty());
        let live_union = c.union(&FeedId::ALL, Category::Live);
        assert!(live_union.len() > union.len());
    }
}
