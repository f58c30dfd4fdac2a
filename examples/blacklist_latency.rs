//! Blacklist latency study: how long does a spammer get to monetise a
//! domain before each feed lists/sees it?
//!
//! The paper (§4.4) frames timing as the race between spammers and
//! blacklist maintainers. This example measures, for every feed, the
//! distribution of *unprotected spam*: the fraction of a domain's
//! delivered copies that arrive before the feed first carries the
//! domain.
//!
//! ```sh
//! cargo run --release --example blacklist_latency [scale]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::collections::BTreeMap;
use taster::analysis::classify::Category;
use taster::core::{Experiment, Scenario};
use taster::domain::DomainId;
use taster::feeds::FeedId;
use taster::sim::SimTime;
use taster::stats::Boxplot;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.2);
    let scenario = Scenario::default_paper().with_scale(scale).with_seed(17);
    eprintln!("running {}", scenario.name);
    let e = Experiment::run(&scenario);

    // Delivered copies per tagged domain, in time order (events are
    // already sorted).
    let tagged = e.classified.union(&FeedId::ALL, Category::Tagged);
    let mut deliveries: BTreeMap<DomainId, Vec<SimTime>> = BTreeMap::new();
    for ev in e.world.truth.sorted_events().expect("event log") {
        if tagged.contains(ev.advertised) {
            deliveries.entry(ev.advertised).or_default().push(ev.time);
        }
    }

    println!(
        "{:<6} {:>9} {:>22} {:>22}",
        "Feed", "domains", "unprotected copies (%)", "head start (days)"
    );
    for id in FeedId::ALL {
        let feed = e.feeds.get(id);
        let mut unprotected = Vec::new();
        let mut head_start = Vec::new();
        for (&domain, times) in &deliveries {
            let Some(stats) = feed.stats(domain) else {
                continue; // never listed: no protection at all
            };
            let first = stats.first_seen;
            let before = times.iter().filter(|&&t| t < first).count();
            unprotected.push(before as f64 / times.len() as f64 * 100.0);
            let t0 = times.first().copied().unwrap_or(first);
            head_start.push(first.signed_diff(t0) as f64 / taster::sim::DAY as f64);
        }
        let (Some(u), Some(h)) = (
            Boxplot::from_values(&unprotected),
            Boxplot::from_values(&head_start),
        ) else {
            println!("{:<6} {:>9} {:>22} {:>22}", id.label(), 0, "-", "-");
            continue;
        };
        println!(
            "{:<6} {:>9} {:>9.0} (q3 {:>4.0}) {:>12.2} (q3 {:>5.2})",
            id.label(),
            u.n,
            u.median,
            u.q3,
            h.median,
            h.q3,
        );
    }
    println!();
    println!(
        "reading: 'unprotected copies' is spam delivered before the feed knew \
         the domain; 'head start' is the spammer's time advantage. Blacklists \
         minimise both (the paper's dbl listed >95% of domains within a day); \
         honeypots concede days of monetisation."
    );
}
