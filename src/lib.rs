//! # taster
//!
//! Facade crate for the *Taster's Choice* spam-feed analysis toolkit —
//! a full reproduction of "Taster's Choice: A Comparative Analysis of
//! Spam Feeds" (IMC 2012) over a deterministic spam-ecosystem
//! simulator.
//!
//! The workspace is layered; this crate re-exports every layer under a
//! stable set of module names so applications can depend on a single
//! crate:
//!
//! * [`domain`] — registered domains, URLs, interning, generators.
//! * [`stats`] — variation distance, Kendall tau-b, quantiles, samplers.
//! * [`sim`] — deterministic event kernel, time, RNG streams.
//! * [`ecosystem`] — affiliate programs, campaigns, botnets, ground truth.
//! * [`mailsim`] — message rendering, delivery, provider filtering, oracle.
//! * [`crawler`] — DNS/HTTP oracles, redirects, storefront tagging.
//! * [`feeds`] — the ten feed collectors and feed records.
//! * [`analysis`] — purity, coverage, proportionality and timing metrics.
//! * [`core`] — scenarios, the experiment driver, and report rendering.
//! * [`serve`] — the `taster serve` daemon: incremental ingestion,
//!   admission control, checkpoint/resume.
//! * [`lint`] — the `taster lint` determinism/panic-safety analyzer.
//!
//! ## Quick start
//!
//! ```no_run
//! use taster::core::{Scenario, Experiment};
//!
//! let scenario = Scenario::default_paper().with_scale(0.02);
//! let experiment = Experiment::run(&scenario);
//! println!("{}", experiment.report().table1_feed_summary());
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub use taster_analysis as analysis;
pub use taster_core as core;
pub use taster_crawler as crawler;
pub use taster_domain as domain;
pub use taster_ecosystem as ecosystem;
pub use taster_feeds as feeds;
pub use taster_lint as lint;
pub use taster_mailsim as mailsim;
pub use taster_serve as serve;
pub use taster_sim as sim;
pub use taster_stats as stats;
