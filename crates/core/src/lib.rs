//! # taster-core
//!
//! The top of the stack: scenario presets, the end-to-end experiment
//! driver, plain-text report rendering for every table and figure of
//! the paper, and the replicated, paired comparisons (`replicate`,
//! `ab`) that also measure the design choices the paper calls out.
//!
//! ```no_run
//! use taster_core::{Experiment, Scenario};
//!
//! let scenario = Scenario::default_paper().with_scale(0.05).with_seed(7);
//! let experiment = Experiment::run(&scenario);
//! for name in ["table1", "fig9"] {
//!     let section = taster_core::report::section(name).expect("a report section");
//!     println!("{}", section.render(&experiment)?);
//! }
//! println!("{}", experiment.try_render_report()?);
//! # Ok::<(), taster_feeds::PipelineError>(())
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod ab;
pub mod experiment;
mod export;
pub mod profile;
pub mod replicate;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use experiment::{build_world, Experiment};
pub use scenario::Scenario;

use taster_sim::rng::StreamKey;

/// The replication layer's RNG streams.
#[derive(Debug, Clone, Copy)]
enum Stream {
    /// Per-replicate seed derivation.
    Seed,
    /// Bootstrap resampling.
    Resample,
}

impl StreamKey for Stream {
    const ALL: &'static [Stream] = &[Stream::Seed, Stream::Resample];

    fn name(&self) -> &str {
        match self {
            Stream::Seed => "replicate/seed",
            Stream::Resample => "replicate/resample",
        }
    }
}

/// The names of the RNG streams the replication layer draws from.
pub fn stream_names() -> Vec<&'static str> {
    taster_sim::rng::names::<Stream>()
}
