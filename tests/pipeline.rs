//! Cross-crate pipeline consistency: the observation layers may only
//! ever see what ground truth emitted, classification must agree with
//! the crawler, and the analyses must agree with the raw feeds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::sync::OnceLock;
use taster::analysis::classify::Category;
use taster::core::{Experiment, Scenario};
use taster::crawler::Crawler;
use taster::domain::DomainId;
use taster::ecosystem::domains::DomainKind;
use taster::feeds::FeedId;
use taster::sim::DAY;

fn experiment() -> &'static Experiment {
    static EXP: OnceLock<Experiment> = OnceLock::new();
    EXP.get_or_init(|| Experiment::run(&Scenario::default_paper().with_scale(0.04).with_seed(99)))
}

#[test]
fn feeds_only_contain_universe_domains_within_time_bounds() {
    let e = experiment();
    let horizon = (e.world.truth.config.days + 3) * DAY; // report delays trail the window
    for feed in e.feeds.iter() {
        for (d, stats) in feed.iter() {
            assert!(
                (d.index()) < e.world.truth.universe.len(),
                "{}: foreign domain id",
                feed.id
            );
            assert!(stats.first_seen <= stats.last_seen);
            assert!(
                stats.last_seen.secs() < horizon + 30 * DAY,
                "{}: {} beyond horizon",
                feed.id,
                stats.last_seen
            );
            assert!(stats.volume >= 1);
        }
    }
}

#[test]
fn spam_collectors_see_only_advertised_or_chaff_domains() {
    let e = experiment();
    let mut email_visible: HashSet<DomainId> = HashSet::new();
    for ev in e.world.truth.sorted_events().unwrap() {
        email_visible.insert(ev.advertised);
        if let Some(c) = ev.chaff {
            email_visible.insert(c);
        }
    }
    let benign_mail: HashSet<DomainId> = e
        .world
        .benign_mail
        .iter()
        .flat_map(|m| m.domains.iter().copied())
        .collect();
    for id in [
        FeedId::Mx1,
        FeedId::Mx2,
        FeedId::Mx3,
        FeedId::Ac1,
        FeedId::Ac2,
        FeedId::Bot,
    ] {
        for (d, _) in e.feeds.get(id).iter() {
            assert!(
                email_visible.contains(&d) || benign_mail.contains(&d),
                "{id} recorded a domain never mailed"
            );
        }
    }
}

#[test]
fn classification_agrees_with_a_fresh_crawl() {
    let e = experiment();
    let crawler = Crawler::new(&e.world.truth);
    let live = e.classified.set(FeedId::Hu, Category::Live);
    let mut checked = 0;
    for d in live.iter().take(500) {
        let r = crawler.crawl_one(d);
        assert!(r.is_live());
        checked += 1;
    }
    assert!(checked > 0);
    for d in e
        .classified
        .set(FeedId::Hu, Category::Tagged)
        .iter()
        .take(500)
    {
        let r = crawler.crawl_one(d);
        assert!(r.is_tagged());
        let tag = r.tag.unwrap();
        assert!(e.world.truth.roster.program(tag.program).tagged);
    }
}

#[test]
fn tagged_sets_match_ground_truth_tagging() {
    let e = experiment();
    for id in FeedId::ALL {
        for d in e.classified.set(id, Category::Tagged).iter() {
            assert!(
                e.world.truth.is_tagged_domain(d),
                "{id}: crawler tagged a domain ground truth says is untagged"
            );
        }
    }
}

#[test]
fn table1_matches_raw_feed_state() {
    let e = experiment();
    for row in e.table1() {
        let feed = e.feeds.get(row.feed);
        assert_eq!(row.samples, feed.samples);
        assert_eq!(row.unique_domains, feed.unique_domains());
    }
}

#[test]
fn blacklist_restriction_is_a_subset_of_base_union() {
    let e = experiment();
    let base = e.feeds.union_domains(&FeedId::BASE);
    for id in [FeedId::Dbl, FeedId::Uribl] {
        for d in e.classified.feed(id).all.iter() {
            assert!(base.contains(d), "{id}: entry outside base union survived");
        }
    }
}

#[test]
fn poison_domains_never_reach_blacklists_or_tagged_sets() {
    let e = experiment();
    for id in [FeedId::Dbl, FeedId::Uribl] {
        for d in e.classified.feed(id).all.iter() {
            assert_ne!(
                e.world.truth.universe.record(d).kind,
                DomainKind::Poison,
                "{id} listed poison"
            );
        }
    }
    for id in FeedId::ALL {
        for d in e.classified.set(id, Category::Tagged).iter() {
            assert_ne!(e.world.truth.universe.record(d).kind, DomainKind::Poison);
        }
    }
}

#[test]
fn oracle_support_is_spam_or_benign_population() {
    let e = experiment();
    for (k, _) in e.world.provider.oracle.iter() {
        let d = DomainId(k);
        assert!(d.index() < e.world.truth.universe.len());
    }
    assert!(e.world.provider.oracle.total() > 0);
}
