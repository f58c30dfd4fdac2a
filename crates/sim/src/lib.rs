//! # taster-sim
//!
//! The deterministic discrete-event kernel under the *Taster's Choice*
//! spam-ecosystem simulator.
//!
//! Reproducibility is a core requirement of a measurement-replication
//! toolkit: every experiment must be a pure function of its scenario
//! and seed. This crate supplies the primitives that make that
//! possible:
//!
//! * [`time`] — [`time::SimTime`] (seconds since scenario epoch) and
//!   [`time::TimeWindow`], with day/hour arithmetic used throughout the
//!   timing analyses.
//! * [`rng`] — named, independent random streams derived from a single
//!   master seed ([`rng::RngStream`]). Streams are keyed by string so
//!   adding a collector or analysis never perturbs the draws consumed
//!   by ground-truth generation.
//! * [`par`] — deterministic fan-out over scoped threads
//!   ([`par::Parallelism`]): ordered result merge plus per-task RNG
//!   streams keep parallel runs bit-identical to serial ones.
//! * [`fault`] — deterministic fault injection
//!   ([`fault::FaultPlan`]): collector outages, record loss, crawler
//!   timeouts and blacklist snapshot delays, every decision a pure
//!   function of `(seed, stage, event index)`.
//! * [`metrics`] / [`trace`] / [`obs`] — deterministic observability:
//!   saturating counters and fixed-bucket histograms
//!   ([`metrics::MetricsRegistry`]) plus nested stage spans
//!   ([`trace::Tracer`]), bundled into one [`obs::Obs`] handle whose
//!   deterministic views are bit-identical at any worker count.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod rng;
pub mod time;
pub mod trace;

pub use fault::{FaultPlan, FaultProfile, Outage, RecordFault};
pub use metrics::{Histogram, MetricsRegistry, MetricsShard, Stage};
pub use obs::Obs;
pub use par::Parallelism;
pub use rng::RngStream;
pub use time::{SimTime, TimeWindow, DAY, HOUR, MINUTE};
pub use trace::{SpanTiming, Tracer};
