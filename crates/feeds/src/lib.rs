//! # taster-feeds
//!
//! The ten spam-domain feeds of the paper (Table 1), re-created by
//! *collection mechanism* over the simulated ecosystem:
//!
//! | Feed   | Type                  | Collector                        |
//! |--------|-----------------------|----------------------------------|
//! | `Hu`   | Human identified      | [`collectors::hu`]               |
//! | `dbl`  | Domain blacklist      | [`collectors::blacklist`]        |
//! | `uribl`| Domain blacklist      | [`collectors::blacklist`]        |
//! | `mx1-3`| MX honeypots          | [`collectors::mx`]               |
//! | `Ac1-2`| Seeded honey accounts | [`collectors::ac`]               |
//! | `Bot`  | Botnet monitor        | [`collectors::bot`]              |
//! | `Hyb`  | Hybrid                | [`collectors::hyb`]              |
//!
//! Full-content collectors (honeypots, the botnet monitor) receive
//! *rendered message text* and recover registered domains through the
//! URL scanner and public-suffix engine — the same lowest-common-
//! denominator reduction the paper performs (§3). Blacklists are
//! meta-feeds with binary listing semantics and no volume information.
//!
//! One driver collects every feed: [`IngestState`] ingests the
//! time-sorted event log in slices through a fused per-event kernel
//! and replays each feed's pre-decided non-event records by time.
//! [`try_collect_all_observed`] advances it over every row and seals
//! once; `taster serve` advances it epoch by epoch and seals after
//! each, so the daemon's final set is the batch set by construction.
//!
//! The output is a [`feed::FeedSet`]: ten [`feed::Feed`]s, each a map
//! from registered domain to first-seen/last-seen/volume, plus raw
//! sample counts — everything the analyses in `taster-analysis`
//! consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod collectors;
pub mod config;
mod engine;
pub mod error;
pub mod feed;
pub mod id;
pub mod incremental;
pub mod parse;
pub mod pipeline;
pub mod reporting;
pub mod table;

pub use config::FeedsConfig;
pub use error::PipelineError;
pub use feed::{DomainStats, Feed, FeedSet};
pub use id::{FeedId, FeedKind};
pub use incremental::IngestState;
pub use pipeline::{collect_all, ensure_nonempty_collection, try_collect_all_observed};
pub use reporting::ReportingPolicy;
pub use table::FeedColumns;
