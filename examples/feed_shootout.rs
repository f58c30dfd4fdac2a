//! Feed shoot-out: "which feed should I buy for my use case?"
//!
//! The paper's conclusion is that there is no perfect feed — the right
//! choice depends on the question (§5). This example turns that advice
//! into a scored comparison: it runs the default scenario and ranks
//! the feeds along the paper's four quality axes, then prints a
//! per-use-case recommendation.
//!
//! ```sh
//! cargo run --release --example feed_shootout [scale]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use taster::analysis::classify::Category;
use taster::core::{Experiment, Scenario};
use taster::feeds::FeedId;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.2);
    let scenario = Scenario::default_paper().with_scale(scale).with_seed(7);
    eprintln!("running {}", scenario.name);
    let e = Experiment::run(&scenario);

    // ---- per-axis scores ------------------------------------------------
    let purity = e.table2();
    let fig2 = e.fig2(Category::Tagged);
    let fig3 = e.fig3(Category::Tagged);
    // Like Fig 9 but with a laxer reference set (the full Fig 9
    // eight-feed intersection thins out at small scales).
    let reference = [
        FeedId::Hu,
        FeedId::Dbl,
        FeedId::Uribl,
        FeedId::Mx1,
        FeedId::Mx2,
        FeedId::Ac1,
    ];
    let fig9 = taster::analysis::timing::first_appearance(
        &e.feeds,
        &e.classified,
        &reference,
        &FeedId::ALL,
    );

    println!(
        "{:<6} {:>8} {:>9} {:>9} {:>10}",
        "Feed", "purity", "coverage", "volume", "onset(d)"
    );
    for id in FeedId::ALL {
        let p = purity.iter().find(|r| r.feed == id).unwrap();
        // Purity score: positive indicators minus benign contamination.
        let purity_score = p.dns.min(p.http) - (p.odp + p.alexa);
        let coverage = fig2.get_extra(id).fraction;
        let volume = fig3.iter().find(|b| b.feed == id).unwrap().covered;
        let onset = fig9
            .iter()
            .find(|(f, _)| *f == id)
            .map(|(_, b)| format!("{:.2}", b.median))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<6} {:>8.2} {:>8.0}% {:>8.1}% {:>10}",
            id.label(),
            purity_score,
            coverage * 100.0,
            volume * 100.0,
            onset,
        );
    }

    // ---- recommendations ------------------------------------------------
    let best = |score: &dyn Fn(FeedId) -> f64| -> FeedId {
        *FeedId::ALL
            .iter()
            .max_by(|&&a, &&b| score(a).total_cmp(&score(b)))
            .unwrap()
    };
    let coverage_best = best(&|id| fig2.get_extra(id).fraction);
    let volume_best = best(&|id| fig3.iter().find(|b| b.feed == id).unwrap().covered);
    let onset_best = best(&|id| {
        fig9.iter()
            .find(|(f, _)| *f == id)
            .map(|(_, b)| -b.median)
            .unwrap_or(f64::NEG_INFINITY)
    });
    let purity_best = best(&|id| {
        let p = purity.iter().find(|r| r.feed == id).unwrap();
        p.dns.min(p.http) - 3.0 * (p.odp + p.alexa)
    });

    println!();
    println!("recommendations (cf. paper §5):");
    println!("  broadest tagged coverage ........ {coverage_best}");
    println!("  most spam volume intercepted .... {volume_best}");
    println!("  earliest campaign onset ......... {onset_best}");
    println!("  cleanest for production filters . {purity_best}");
    println!();
    println!(
        "  diversity check: coverage of {} not replaced by any other single \
         feed — combine feed *types*, not more of the same type.",
        coverage_best
    );
}
