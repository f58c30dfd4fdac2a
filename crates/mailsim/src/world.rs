//! The assembled mail world.

use crate::benign::{generate_benign_traffic, BenignMailEvent};
use crate::config::MailConfig;
use crate::provider::{run_provider, ProviderOutputs};
use taster_ecosystem::{GroundTruth, WorldError};

/// Relative address-space sizes of the three MX honeypots. mx2 is the
/// big abandoned-domain portfolio (the paper's mx2 was by far the
/// largest feed), mx3 the small newly-registered one.
pub const MX_SIZE_FACTORS: [f64; 3] = [1.0, 5.0, 0.45];

/// Ground truth plus every derived mail-layer stream — the single
/// input the feed collectors consume.
#[derive(Debug, Clone)]
pub struct MailWorld {
    /// The generated ecosystem (universe may contain extra benign
    /// domains interned by the traffic generators).
    pub truth: GroundTruth,
    /// The mail-layer configuration used.
    pub mail_config: MailConfig,
    /// Legitimate trap traffic, time-sorted.
    pub benign_mail: Vec<BenignMailEvent>,
    /// Provider outputs: `Hu` user reports and the incoming-mail oracle.
    pub provider: ProviderOutputs,
}

impl MailWorld {
    /// Builds the world: benign traffic first (extends the universe),
    /// then the provider model. Fails when `mail_config` is invalid or
    /// the out-of-core event spill cannot be read.
    pub fn build(mut truth: GroundTruth, mail_config: MailConfig) -> Result<MailWorld, WorldError> {
        mail_config.validate().map_err(WorldError::Invalid)?;
        let benign_mail = generate_benign_traffic(&mut truth, &mail_config, &MX_SIZE_FACTORS);
        let provider = run_provider(&truth, &mail_config)?;
        Ok(MailWorld {
            truth,
            mail_config,
            benign_mail,
            provider,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::EcosystemConfig;

    #[test]
    fn build_produces_all_streams() {
        let truth = GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 3).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.02)).unwrap();
        assert!(!world.benign_mail.is_empty());
        assert!(!world.provider.reports.is_empty());
        assert!(world.provider.oracle.total() > 0);
        assert!(world.truth.total_volume() > 0);
    }
}
