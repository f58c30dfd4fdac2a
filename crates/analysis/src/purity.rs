//! Table 2: purity indicators.
//!
//! For each feed, the fractions of its unique domains that are
//! DNS-registered, HTTP-responsive, storefront-tagged (positive
//! indicators), and ODP/Alexa-listed (negative indicators). Blacklist
//! feeds are evaluated over their restricted entry sets, as in the
//! paper.

use crate::classify::Classified;
use taster_feeds::FeedId;
use taster_stats::summary::fraction;

/// One row of Table 2; all values are fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct PurityRow {
    /// The feed.
    pub feed: FeedId,
    /// Fraction of domains present in the zone files.
    pub dns: f64,
    /// Fraction with at least one successful HTTP response.
    pub http: f64,
    /// Fraction leading to a classified storefront (before benign-list
    /// exclusion — this mirrors the paper, whose Tagged column counts
    /// the tag rate among feed domains).
    pub tagged: f64,
    /// Fraction in the Open Directory listings (negative indicator).
    pub odp: f64,
    /// Fraction in the Alexa top list (negative indicator).
    pub alexa: f64,
}

/// Computes Table 2, one row per feed. The entry sets come from the
/// classification, so the blacklist restriction applies. Each count is
/// a word-wise intersection popcount between the feed's entry set and
/// one of the crawl's indicator bitsets — the single columnar join
/// that replaced the per-domain crawl-result probes.
pub fn purity(classified: &Classified) -> Vec<PurityRow> {
    let crawl = &classified.crawl;
    FeedId::ALL
        .iter()
        .map(|&id| {
            let all = &classified.feed(id).all;
            let n = all.len();
            PurityRow {
                feed: id,
                dns: fraction(all.intersection_len(crawl.registered_set()), n),
                http: fraction(all.intersection_len(crawl.http_ok_set()), n),
                tagged: fraction(all.intersection_len(crawl.tagged_page_set()), n),
                odp: fraction(all.intersection_len(crawl.odp_set()), n),
                alexa: fraction(all.intersection_len(crawl.alexa_set()), n),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_clean;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn rows() -> Vec<PurityRow> {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 79).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let c = classify_clean(&world.truth, &feeds);
        purity(&c)
    }

    fn row(rows: &[PurityRow], id: FeedId) -> PurityRow {
        rows.iter().find(|r| r.feed == id).copied().unwrap()
    }

    #[test]
    fn poisoned_feeds_collapse_others_stay_high() {
        let rows = rows();
        let bot = row(&rows, FeedId::Bot);
        let mx2 = row(&rows, FeedId::Mx2);
        let mx1 = row(&rows, FeedId::Mx1);
        let mx3 = row(&rows, FeedId::Mx3);
        // Absolute levels depend on the poison-to-real ratio, which
        // grows with scale (checked at full scale in the integration
        // suite); here we assert the *relative* collapse.
        assert!(bot.dns < 0.10, "Bot DNS {:.3}", bot.dns);
        assert!(
            mx2.dns < mx1.dns - 0.2,
            "mx2 {:.3} collapses vs mx1 {:.3}",
            mx2.dns,
            mx1.dns
        );
        assert!(mx1.dns > 0.85, "mx1 DNS {:.3}", mx1.dns);
        assert!(mx3.dns > 0.85, "mx3 DNS {:.3}", mx3.dns);
    }

    #[test]
    fn blacklists_are_purest() {
        let rows = rows();
        for id in [FeedId::Dbl, FeedId::Uribl] {
            let r = row(&rows, id);
            assert!(r.dns > 0.98, "{id} DNS {:.3}", r.dns);
            assert!(r.odp + r.alexa < 0.06, "{id} benign {:.3}", r.odp + r.alexa);
        }
    }

    #[test]
    fn honeypots_show_benign_pollution() {
        let rows = rows();
        for id in [FeedId::Mx1, FeedId::Ac1, FeedId::Ac2] {
            let r = row(&rows, id);
            assert!(r.odp > 0.0, "{id} has some ODP contamination");
            assert!(r.http > 0.4 && r.http <= 1.0);
        }
    }

    #[test]
    fn fractions_are_bounded() {
        for r in rows() {
            for v in [r.dns, r.http, r.tagged, r.odp, r.alexa] {
                assert!((0.0..=1.0).contains(&v));
            }
            assert!(
                r.http <= r.dns + 1e-9,
                "{}: live implies registered",
                r.feed
            );
        }
    }
}
