//! Hybrid collector (`Hyb`).
//!
//! "We do not know the exact collection methodology it uses, but we
//! believe it is a hybrid of multiple methods" (§3.4). We compose it
//! from four sources: a small MX-like trap, narrow honey accounts, a
//! partner's sample of user reports, and — crucially — a *non-e-mail*
//! web-spam corpus, which supplies the feed's striking number of
//! exclusive live domains while contributing almost nothing to mail
//! volume (the paper's hypothesis in §4.2.2: "one possibility is that
//! this feed contains spam domains not derived from e-mail spam").

#[cfg(test)]
mod tests {
    use crate::config::{FeedsConfig, HybConfig};
    use crate::engine::MemberSpec;
    use crate::feed::Feed;
    use crate::incremental::collect_one;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::{MailConfig, MailWorld};

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 59).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    /// The driver with Hyb alone, which also applies its report
    /// sample and web-spam corpus.
    fn collect_hyb(world: &MailWorld, config: &HybConfig) -> Feed {
        collect_one(world, MemberSpec::Hyb { config: *config }).unwrap()
    }

    #[test]
    fn webspam_domains_enter_the_feed() {
        let w = world();
        let feed = collect_hyb(&w, &FeedsConfig::default().hyb);
        let mut covered = 0usize;
        for &(_, d) in &w.truth.webspam {
            if feed.contains(d) {
                covered += 1;
            }
        }
        assert!(
            covered as f64 > w.truth.webspam.len() as f64 * 0.9,
            "webspam coverage {covered}/{}",
            w.truth.webspam.len()
        );
    }

    #[test]
    fn webspam_is_a_large_share_of_uniques() {
        let w = world();
        let feed = collect_hyb(&w, &FeedsConfig::default().hyb);
        let web: std::collections::HashSet<_> = w.truth.webspam.iter().map(|&(_, d)| d).collect();
        let web_in_feed = feed.domain_ids().filter(|d| web.contains(d)).count();
        let frac = web_in_feed as f64 / feed.unique_domains() as f64;
        assert!(frac > 0.3, "webspam unique share {frac:.2}");
    }

    #[test]
    fn without_webspam_feed_shrinks() {
        let w = world();
        let mut cfg = FeedsConfig::default().hyb;
        let with = collect_hyb(&w, &cfg);
        cfg.webspam_prob = 0.0;
        let without = collect_hyb(&w, &cfg);
        assert!(with.unique_domains() > without.unique_domains());
    }
}
