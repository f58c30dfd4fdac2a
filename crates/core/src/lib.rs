//! # taster-core
//!
//! The top of the stack: scenario presets, the end-to-end experiment
//! driver, plain-text report rendering for every table and figure of
//! the paper, and the ablation harness for the design choices the
//! paper calls out.
//!
//! ```no_run
//! use taster_core::{Experiment, Scenario};
//!
//! let scenario = Scenario::default_paper().with_scale(0.05).with_seed(7);
//! let experiment = Experiment::run(&scenario);
//! println!("{}", experiment.report().table1_feed_summary());
//! println!("{}", experiment.report().fig9_first_appearance());
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod ab;
pub mod ablation;
pub mod degradation;
pub mod experiment;
pub mod export;
pub mod profile;
pub mod replicate;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use experiment::{build_world, Experiment};
pub use report::Report;
pub use scenario::Scenario;
