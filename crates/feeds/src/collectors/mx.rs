//! MX honeypot collectors (mx1, mx2, mx3).
//!
//! An MX honeypot accepts every SMTP connection to a quiescent domain
//! portfolio (§3.2). It therefore sees exactly the brute-force-
//! addressed share of campaigns whose address lists cover its
//! portfolio: stale lists cover the abandoned-domain honeypots (mx1,
//! mx2); only fresh zone-derived lists — favoured by botnets — cover
//! the newly-registered mx3. Capture probability scales with the
//! portfolio size. A captured copy yields the registered domains an
//! accept-everything sink would parse out of the body it stores (the
//! body without its terminating newline): the collection engine
//! computes them from the renderer's URL draws, and renders and parses
//! that stored body only for a truncated copy. It also receives the
//! doppelganger/sign-up pollution stream.

use crate::config::MxConfig;
use crate::engine::MemberSpec;
use crate::error::PipelineError;
use crate::feed::Feed;
use crate::incremental::collect_one;
use taster_mailsim::MailWorld;

/// Collects MX honeypot `index` (0 = mx1, 1 = mx2, 2 = mx3), fault-free.
///
/// The collection driver with a one-member roster; per-event RNG
/// streams make the result bit-identical to this feed's slot in
/// [`crate::collect_all`]. Fails only when the out-of-core spill
/// cannot be read.
pub fn collect_mx(world: &MailWorld, config: &MxConfig, index: u8) -> Result<Feed, PipelineError> {
    assert!(index < 3);
    collect_one(
        world,
        MemberSpec::Mx {
            config: *config,
            index,
        },
    )
}

#[cfg(test)]
mod tests {
    use crate::collectors::collect_mx;
    use crate::config::FeedsConfig;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::{MailConfig, MailWorld};

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 41).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    #[test]
    fn sizes_follow_capture_probability() {
        let w = world();
        let cfg = FeedsConfig::default();
        let mx1 = collect_mx(&w, &cfg.mx[0], 0).unwrap();
        let mx2 = collect_mx(&w, &cfg.mx[1], 1).unwrap();
        let mx3 = collect_mx(&w, &cfg.mx[2], 2).unwrap();
        assert!(
            mx2.samples > mx1.samples,
            "{:?} > {:?}",
            mx2.samples,
            mx1.samples
        );
        assert!(mx1.samples > mx3.samples);
        assert!(mx2.unique_domains() > mx3.unique_domains());
    }

    #[test]
    fn mx_feeds_record_volume_and_times() {
        let w = world();
        let cfg = FeedsConfig::default();
        let mx2 = collect_mx(&w, &cfg.mx[1], 1).unwrap();
        assert!(mx2.reports_volume);
        let total: u64 = mx2.iter().map(|(_, s)| s.volume).sum();
        assert!(total > 0);
        for (_, s) in mx2.iter() {
            assert!(s.first_seen <= s.last_seen);
        }
    }

    #[test]
    fn deterministic() {
        let w = world();
        let cfg = FeedsConfig::default();
        let a = collect_mx(&w, &cfg.mx[0], 0).unwrap();
        let b = collect_mx(&w, &cfg.mx[0], 0).unwrap();
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.unique_domains(), b.unique_domains());
    }
}
