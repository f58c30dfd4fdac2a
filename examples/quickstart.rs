//! Quickstart: run a small scenario end-to-end and print the headline
//! tables.
//!
//! ```sh
//! cargo run --release --example quickstart [scale] [seed]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use taster::core::{report, Experiment, Scenario};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(20_100_801);

    let scenario = Scenario::default_paper().with_scale(scale).with_seed(seed);
    eprintln!("running scenario: {} (seed {seed})", scenario.name);

    let experiment = Experiment::run(&scenario);
    for name in ["table1", "table2", "table3"] {
        let section = report::section(name).expect("a report section");
        println!(
            "{}",
            section.render(&experiment).expect("the section renders")
        );
    }

    // A taste of the programmatic API: who covers the most tagged
    // domains, and how exclusive is each feed?
    let mut rows = experiment.table3();
    rows.sort_by_key(|r| std::cmp::Reverse(r.tagged.total));
    println!("tagged-coverage ranking:");
    for r in rows.iter().take(5) {
        println!(
            "  {:<6} {:>8} tagged ({} exclusive)",
            r.feed.label(),
            r.tagged.total,
            r.tagged.exclusive
        );
    }
}
