//! The ten collectors: what each feed's collection mechanism sees.
//!
//! Each collector is a pure function of the mail world plus its own
//! named RNG stream, producing one [`crate::Feed`]. Collectors never
//! touch ground-truth labels they could not observe in reality:
//! full-content collectors parse rendered message text; blacklists
//! observe domain *advertisement activity* (their upstream trap
//! networks) but apply their own curation.
//!
//! One driver, [`crate::IngestState`], runs them all: the content
//! collectors' per-event rules live in its fused kernel, and the Hu
//! report stream and the blacklist listings are pre-decided here as
//! time-stamped records it replays. [`collect_mx`] and [`collect_ac`]
//! run the driver with a one-member roster, for the parameter sweeps.

pub mod ac;
pub mod blacklist;
pub mod bot;
pub mod hu;
pub mod hyb;
pub mod mx;

pub use ac::collect_ac;
pub use mx::collect_mx;
