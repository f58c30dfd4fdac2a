//! Poisoning forensics: isolate the Rustock-style random-domain
//! incident and quantify what it did to each feed (§4.1.1).
//!
//! Runs the default scenario twice — with and without the poisoning —
//! and reports per-feed deltas in sample volume, unique domains and
//! DNS purity, plus the time profile of garbage in the `Bot` feed.
//!
//! ```sh
//! cargo run --release --example poisoning_forensics [scale]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use taster::core::ablation;
use taster::core::{Experiment, Scenario};
use taster::ecosystem::domains::DomainKind;
use taster::feeds::FeedId;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.15);
    let base = Scenario::default_paper().with_scale(scale).with_seed(23);
    eprintln!("running {} (twice: with/without poisoning)", base.name);

    let with = Experiment::run(&base);
    let without = Experiment::run(&base.clone().without_poisoning());

    println!(
        "{:<6} {:>14} {:>14} {:>12} {:>12}",
        "Feed", "samples +", "uniques +", "DNS with", "DNS without"
    );
    let purity_with = with.table2();
    let purity_without = without.table2();
    for id in FeedId::ALL {
        let fw = with.feeds.get(id);
        let fo = without.feeds.get(id);
        let ds = fw.samples.unwrap_or(0) as i64 - fo.samples.unwrap_or(0) as i64;
        let du = fw.unique_domains() as i64 - fo.unique_domains() as i64;
        let pw = purity_with.iter().find(|r| r.feed == id).unwrap().dns;
        let po = purity_without.iter().find(|r| r.feed == id).unwrap().dns;
        println!(
            "{:<6} {:>+14} {:>+14} {:>11.0}% {:>11.0}%",
            id.label(),
            ds,
            du,
            pw * 100.0,
            po * 100.0
        );
    }

    // Time profile of garbage inside the Bot feed.
    let bot = with.feeds.get(FeedId::Bot);
    let mut per_week = [0u64; 14];
    for (d, stats) in bot.iter() {
        if with.world.truth.universe.record(d).kind == DomainKind::Poison {
            let week = (stats.first_seen.day() / 7).min(13) as usize;
            per_week[week] += 1;
        }
    }
    println!("\nfresh poison domains first seen in Bot, per week:");
    let max = per_week.iter().copied().max().max(Some(1)).unwrap();
    for (i, &n) in per_week.iter().enumerate() {
        if with.world.truth.config.days / 7 < i as u64 {
            break;
        }
        let bar = "#".repeat((n * 50 / max) as usize);
        println!("  w{:02} {:>8}  {}", i, n, bar);
    }

    // The packaged ablation summary.
    let summary = ablation::poisoning(&base).expect("poisoning ablation runs");
    println!(
        "\nablation summary: Bot DNS {:.0}% → {:.0}%, mx2 DNS {:.0}% → {:.0}% when poisoning is removed",
        summary.bot_dns_with * 100.0,
        summary.bot_dns_without * 100.0,
        summary.mx2_dns_with * 100.0,
        summary.mx2_dns_without * 100.0,
    );
    println!(
        "cost asymmetry (the paper's point): generating a random domain costs the \
         spammer nothing; every one of the {} garbage uniques above cost the \
         defenders a crawl, a DNS probe and blacklist-curation work.",
        per_week.iter().sum::<u64>()
    );
}
