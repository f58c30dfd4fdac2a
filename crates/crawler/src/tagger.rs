//! Storefront signature matching.
//!
//! The Click Trajectories team identified storefronts with a set of
//! hand-generated content signatures (§3.4). We compile one signature
//! per *tagged* program — the `generator` branding its pages carry —
//! plus an extractor for RX-Promotion's embedded affiliate identifier.
//! Matching operates on rendered HTML text, not on ground-truth
//! records, so the pipeline is honest end-to-end.

use taster_ecosystem::ids::{AffiliateId, ProgramId};
use taster_ecosystem::program::ProgramRoster;

/// A compiled signature set over the tagged programs.
#[derive(Debug, Clone)]
pub struct SignatureSet {
    /// (signature text, program), sorted by signature. Signatures key
    /// on the program's page branding (its `generator` meta content).
    by_marker: Vec<(String, ProgramId)>,
}

impl SignatureSet {
    /// Compiles signatures for every *tagged* program in the roster.
    pub fn from_roster(roster: &ProgramRoster) -> SignatureSet {
        let mut by_marker: Vec<(String, ProgramId)> = roster
            .programs
            .iter()
            .filter(|p| p.tagged)
            .map(|p| (format!("content=\"{}\"", p.name), p.id))
            .collect();
        by_marker.sort();
        SignatureSet { by_marker }
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.by_marker.len()
    }

    /// True when no signatures are compiled.
    pub fn is_empty(&self) -> bool {
        self.by_marker.is_empty()
    }

    /// Matches a rendered page against all signatures, in signature
    /// order.
    pub fn match_page(&self, html: &str) -> Option<ProgramId> {
        // Signature sets are small (45); a linear scan over markers is
        // exactly what the original hand-written classifiers did.
        self.by_marker
            .iter()
            .find(|(marker, _)| html.contains(marker.as_str()))
            .map(|(_, p)| *p)
    }
}

/// Extracts an RX-Promotion-style embedded affiliate identifier from a
/// page, if present: `<meta name="affid" content="NNN">`.
pub fn extract_affiliate_id(html: &str) -> Option<AffiliateId> {
    let at = html.find("name=\"affid\"")?;
    let rest = &html[at..];
    let content = rest.find("content=\"")?;
    let value_start = at + content + "content=\"".len();
    let tail = &html[value_start..];
    let end = tail.find('"')?;
    tail[..end].parse::<u32>().ok().map(AffiliateId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::render_page;
    use taster_ecosystem::domains::DomainKind;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};

    fn roster() -> ProgramRoster {
        GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 3)
            .unwrap()
            .roster
    }

    #[test]
    fn one_signature_per_tagged_program() {
        let r = roster();
        let sigs = SignatureSet::from_roster(&r);
        assert_eq!(sigs.len(), r.tagged_programs().count());
        assert!(!sigs.is_empty());
    }

    #[test]
    fn matches_only_its_program() {
        let r = roster();
        let sigs = SignatureSet::from_roster(&r);
        let page = "<meta name=\"generator\" content=\"RX-Promotion\">";
        assert_eq!(
            sigs.match_page(page),
            Some(taster_ecosystem::program::RX_PROGRAM)
        );
        assert_eq!(sigs.match_page("<html>a casino page</html>"), None);
    }

    #[test]
    fn untagged_programs_never_match() {
        let r = roster();
        let sigs = SignatureSet::from_roster(&r);
        for p in r.programs.iter().filter(|p| !p.tagged) {
            let page = format!("<meta name=\"generator\" content=\"{}\">", p.name);
            assert_eq!(sigs.match_page(&page), None, "{}", p.name);
        }
    }

    /// A tagged program's storefront page contains exactly its own
    /// marker and an untagged program's none, so `match_page` has one
    /// answer whatever order it scans the markers in.
    #[test]
    fn each_storefront_page_matches_exactly_one_marker() {
        let truth = GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 3).unwrap();
        let sigs = SignatureSet::from_roster(&truth.roster);
        let mut checked = 0;
        for (id, rec) in truth.universe.iter() {
            let DomainKind::Storefront { program, .. } = rec.kind else {
                continue;
            };
            let Some(html) = render_page(&truth, id) else {
                continue;
            };
            let hits: Vec<ProgramId> = sigs
                .by_marker
                .iter()
                .filter(|(marker, _)| html.contains(marker.as_str()))
                .map(|(_, p)| *p)
                .collect();
            let tagged = truth.roster.program(program).tagged;
            assert_eq!(hits, if tagged { vec![program] } else { vec![] });
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn affiliate_extraction() {
        let html = "<head><meta name=\"affid\" content=\"846\"></head>";
        assert_eq!(extract_affiliate_id(html), Some(AffiliateId(846)));
        assert_eq!(extract_affiliate_id("<head></head>"), None);
        assert_eq!(
            extract_affiliate_id("<meta name=\"affid\" content=\"oops\">"),
            None
        );
        // Unterminated content attribute.
        assert_eq!(
            extract_affiliate_id("<meta name=\"affid\" content=\"12"),
            None
        );
    }
}
