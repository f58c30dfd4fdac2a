//! Seeded honey-account collectors (Ac1, Ac2).
//!
//! Honey accounts receive spam addressed through *harvested* lists —
//! a campaign can only reach them if it bought lists harvested from a
//! vector the accounts were seeded into (§3.2). Ac1 is broadly seeded;
//! Ac2 sits on a narrow vector set, which is what makes it the outlier
//! of the proportionality analysis (Figs 7–8).

use crate::config::AcConfig;
use crate::engine::MemberSpec;
use crate::error::PipelineError;
use crate::feed::Feed;
use crate::incremental::collect_one;
use taster_mailsim::MailWorld;

/// Collects honey-account feed `index` (0 = Ac1, 1 = Ac2), fault-free.
///
/// The collection driver with a one-member roster; per-event RNG
/// streams make the result bit-identical to this feed's slot in
/// [`crate::collect_all`]. Fails only when the out-of-core spill
/// cannot be read.
pub fn collect_ac(world: &MailWorld, config: &AcConfig, index: u8) -> Result<Feed, PipelineError> {
    assert!(index < 2);
    collect_one(
        world,
        MemberSpec::Ac {
            config: *config,
            index,
        },
    )
}

#[cfg(test)]
mod tests {
    use crate::collectors::collect_ac;
    use crate::config::FeedsConfig;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::{MailConfig, MailWorld};

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 43).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    #[test]
    fn ac1_outcollects_ac2() {
        let w = world();
        let cfg = FeedsConfig::default();
        let ac1 = collect_ac(&w, &cfg.ac[0], 0).unwrap();
        let ac2 = collect_ac(&w, &cfg.ac[1], 1).unwrap();
        assert!(ac1.samples > ac2.samples);
        assert!(ac1.unique_domains() > ac2.unique_domains());
    }

    #[test]
    fn narrow_seeding_restricts_campaign_visibility() {
        let w = world();
        let cfg = FeedsConfig::default();
        // A feed seeded on a single exotic vector sees only campaigns
        // harvesting that vector.
        let narrow = crate::config::AcConfig {
            vector_mask: 0b1_0000,
            capture_prob: 1.0,
        };
        let feed = collect_ac(&w, &narrow, 1).unwrap();
        let broad = collect_ac(&w, &cfg.ac[0], 0).unwrap();
        assert!(feed.unique_domains() < broad.unique_domains() * 2);
        // Every recorded spam domain belongs to a campaign whose
        // harvest mask includes vector 4 (benign pollution aside).
        use taster_ecosystem::campaign::TargetClass;
        let mut eligible = std::collections::HashSet::new();
        for e in w.truth.sorted_events().expect("events") {
            if matches!(e.target, TargetClass::Harvested(4)) {
                eligible.insert(e.advertised);
                if let Some(c) = e.chaff {
                    eligible.insert(c);
                }
            }
        }
        let benign: std::collections::HashSet<_> = w
            .benign_mail
            .iter()
            .flat_map(|m| m.domains.iter().copied())
            .collect();
        for (d, _) in feed.iter() {
            assert!(
                eligible.contains(&d) || benign.contains(&d),
                "unexpected domain in narrow feed"
            );
        }
    }
}
