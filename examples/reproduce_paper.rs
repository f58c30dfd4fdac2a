//! Full reproduction: regenerates every table and figure of the
//! paper's evaluation (§4) over the default scenario and prints them
//! in order. This is the binary behind EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release --example reproduce_paper            # full scale
//! cargo run --release --example reproduce_paper 0.25       # faster
//! cargo run --release --example reproduce_paper 1.0 42     # other seed
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use taster::core::{Experiment, Scenario};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(1.0);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(20_100_801);

    let scenario = Scenario::default_paper().with_scale(scale).with_seed(seed);
    eprintln!("generating world + collecting feeds: {}", scenario.name);
    let started = std::time::Instant::now();
    let experiment = Experiment::run(&scenario);
    eprintln!(
        "done in {:.1?}: {} delivered copies, {} domains, {} campaigns",
        started.elapsed(),
        experiment.world.truth.total_volume(),
        experiment.world.truth.universe.len(),
        experiment.world.truth.campaigns.len(),
    );

    println!("{}", experiment.report().full_report());
}
