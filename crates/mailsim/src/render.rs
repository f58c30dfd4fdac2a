//! Message rendering.
//!
//! Collectors that model *full-content* feeds receive message text and
//! must extract advertised domains the way real pipelines do: scan the
//! body for URLs, parse them, reduce hosts to registered domains. This
//! module produces that text. Hostnames get random subdomain prefixes
//! and paths so the extraction layer is genuinely exercised (a feed
//! that naively recorded hostnames instead of registered domains would
//! measurably diverge).

use rand::{Rng, RngExt};
use taster_domain::DomainId;
use taster_ecosystem::GroundTruth;
use taster_sim::SimTime;

const SUBJECTS_PHARMA: &[&str] = &[
    "Your prescription is ready",
    "80% off brand medications",
    "Refill reminder - act now",
    "Canadian pharmacy sale",
];
const SUBJECTS_GOODS: &[&str] = &[
    "Luxury watches at replica prices",
    "Designer bags - wholesale",
    "Genuine OEM software downloads",
    "Your exclusive member discount",
];
const SUBJECTS_OTHER: &[&str] = &[
    "You won! claim inside",
    "Meet singles in your area",
    "The ebook they don't want you to read",
    "Final notice regarding your account",
];
/// Subdomain prefixes URL rendering draws from (public so the
/// collectors' render-free records can reconstruct hostnames).
pub const SUBDOMAINS: &[&str] = &["", "www.", "shop.", "secure.", "m.", "go."];
const PATHS: &[&str] = &["/", "/index.html", "/buy", "/sale?id=", "/r/", "/track?c="];

/// A rendered message.
#[derive(Debug, Clone)]
pub struct RenderedMessage {
    /// `From` header value.
    pub from: String,
    /// `Subject` header value.
    pub subject: String,
    /// Full message text (headers + body).
    pub text: String,
}

/// Byte locations of the headers inside a buffer filled by
/// [`render_spam_into`], so collectors can reuse one text buffer per
/// delivery without allocating header copies.
#[derive(Debug, Clone)]
pub struct SpamHeaders {
    /// Byte range of the `From` address within the rendered text.
    pub from: std::ops::Range<usize>,
    /// The chosen subject line.
    pub subject: &'static str,
}

impl SpamHeaders {
    /// The `From` address as a slice of `text`.
    pub fn from_addr<'t>(&self, text: &'t str) -> &'t str {
        &text[self.from.clone()]
    }
}

/// Renders one spam copy into a reusable buffer (cleared first):
/// advertised URL plus optional chaff URL embedded in a plausible
/// plain-text body. This is the collectors' hot path — at full scale
/// every captured delivery renders a message, so the buffer-reusing
/// form avoids three string allocations per copy.
pub fn render_spam_into<R: Rng>(
    text: &mut String,
    truth: &GroundTruth,
    advertised: DomainId,
    chaff: Option<DomainId>,
    time: SimTime,
    rng: &mut R,
) -> SpamHeaders {
    use std::fmt::Write;
    text.clear();
    let adv_url = UrlParts::draw(rng);
    let subject_pool = match rng.random_range(0..3u8) {
        0 => SUBJECTS_PHARMA,
        1 => SUBJECTS_GOODS,
        _ => SUBJECTS_OTHER,
    };
    let subject = subject_pool[rng.random_range(0..subject_pool.len())];
    text.push_str("From: ");
    let from_start = text.len();
    push_sender_localpart(text, rng);
    text.push('@');
    text.push_str(truth.universe.table.text(truth.universe.sample_chaff(rng)));
    let from_end = text.len();
    // Writing to a String cannot fail; ignore the Infallible result.
    let _ = write!(
        text,
        "\nTo: undisclosed-recipients:;\nSubject: {subject}\nDate: {time}\nMIME-Version: 1.0\n\n"
    );
    text.push_str("Dear customer,\n\n");
    text.push_str("We have a special offer selected for you today.\n");
    text.push_str("Order here: ");
    adv_url.push_onto(text, truth, advertised);
    text.push('\n');
    if let Some(c) = chaff {
        // Chaff placement mimics real messages: formatting/support
        // references to legitimate sites (§3.3).
        let curl = UrlParts::draw(rng);
        text.push_str("\nAs reviewed on ");
        curl.push_onto(text, truth, c);
        text.push_str(" and trusted sites.\n");
    }
    text.push_str("\nBest regards,\nCustomer care\n");
    SpamHeaders {
        from: from_start..from_end,
        subject,
    }
}

/// Renders one spam copy into freshly allocated strings. Prefer
/// [`render_spam_into`] in loops.
pub fn render_spam<R: Rng>(
    truth: &GroundTruth,
    advertised: DomainId,
    chaff: Option<DomainId>,
    time: SimTime,
    rng: &mut R,
) -> RenderedMessage {
    let mut text = String::with_capacity(512);
    let headers = render_spam_into(&mut text, truth, advertised, chaff, time, rng);
    RenderedMessage {
        from: headers.from_addr(&text).to_string(),
        subject: headers.subject.to_string(),
        text,
    }
}

/// The random draws behind one URL, separated from string assembly so
/// hot paths can draw first and write into a reused buffer later.
struct UrlParts {
    sub: &'static str,
    path: &'static str,
    tail: Option<u32>,
}

impl UrlParts {
    fn draw<R: Rng>(rng: &mut R) -> UrlParts {
        let sub = SUBDOMAINS[rng.random_range(0..SUBDOMAINS.len())];
        let path = PATHS[rng.random_range(0..PATHS.len())];
        let tail = if path.ends_with('=') || path.ends_with('/') && path.len() > 1 {
            Some(rng.random_range(0..0xffffffu32))
        } else {
            None
        };
        UrlParts { sub, path, tail }
    }

    fn push_onto(&self, out: &mut String, truth: &GroundTruth, domain: DomainId) {
        use std::fmt::Write;
        out.push_str("http://");
        out.push_str(self.sub);
        out.push_str(truth.universe.table.text(domain));
        out.push_str(self.path);
        if let Some(tail) = self.tail {
            // Writing to a String cannot fail; ignore the result.
            let _ = write!(out, "{tail:x}");
        }
    }
}

/// Replays exactly the [`render_spam_into`] draws needed to learn the
/// subdomain prefix of each URL in the body, without rendering any
/// text. Returns the advertised URL's [`SUBDOMAINS`] index, plus the
/// chaff URL's when `chaff_distinct` (a chaff domain different from
/// the advertised one) demands it.
///
/// Domain extraction reduces each URL host to its registered domain
/// and de-duplicates by first appearance, so for a body rendered by
/// `render_spam_into` only these hosts can reach a feed:
/// `sub_adv ++ advertised` always, and `sub_chaff ++ chaff` when the
/// chaff domain is distinct. Every intervening draw is consumed with
/// the same method and operand type as the real renderer so the
/// shared per-event render stream replays bit-identically.
pub fn replay_spam_url_hosts<R: Rng>(rng: &mut R, chaff_distinct: bool) -> (usize, Option<usize>) {
    let adv_sub = rng.random_range(0..SUBDOMAINS.len());
    if !chaff_distinct {
        // The remaining draws cannot affect extracted (domain, host)
        // pairs; the per-event child stream is simply abandoned.
        return (adv_sub, None);
    }
    // Advertised path (+ tail when the path format takes one).
    let path = PATHS[rng.random_range(0..PATHS.len())];
    if path.ends_with('=') || path.ends_with('/') && path.len() > 1 {
        let _ = rng.random_range(0..0xffffffu32);
    }
    // Subject pool then subject; every pool has the same length, so
    // the draw sequence is pool-independent.
    debug_assert!(
        SUBJECTS_PHARMA.len() == SUBJECTS_GOODS.len()
            && SUBJECTS_GOODS.len() == SUBJECTS_OTHER.len()
    );
    let _ = rng.random_range(0..3u8);
    let _ = rng.random_range(0..SUBJECTS_PHARMA.len());
    // Sender localpart (name + digits) and From-header domain (one
    // popularity draw; never URL-extracted).
    let _ = rng.random_range(0..SENDER_NAMES.len());
    let _ = rng.random_range(0..100u8);
    let _: f64 = rng.random();
    let chaff_sub = rng.random_range(0..SUBDOMAINS.len());
    (adv_sub, Some(chaff_sub))
}

const SENDER_NAMES: &[&str] = &["info", "sales", "noreply", "news", "offers", "support"];

fn push_sender_localpart<R: Rng>(out: &mut String, rng: &mut R) {
    use std::fmt::Write;
    out.push_str(SENDER_NAMES[rng.random_range(0..SENDER_NAMES.len())]);
    // Writing to a String cannot fail; ignore the result.
    let _ = write!(out, "{}", rng.random_range(0..100u8));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stream;
    use taster_domain::psl::SuffixList;
    use taster_domain::url::extract_urls;
    use taster_ecosystem::EcosystemConfig;
    use taster_sim::rng::StreamKey;
    use taster_sim::RngStream;

    fn world() -> GroundTruth {
        GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 13).unwrap()
    }

    #[test]
    fn rendered_spam_round_trips_through_extraction() {
        let truth = world();
        let psl = SuffixList::builtin();
        let mut rng = RngStream::new(1, Stream::Test("render-test"));
        let mut checked = 0;
        for e in truth.sorted_events().unwrap().iter().take(300) {
            let msg = render_spam(&truth, e.advertised, e.chaff, e.time, &mut rng);
            let urls = extract_urls(&msg.text);
            assert!(!urls.is_empty(), "no URLs extracted from:\n{}", msg.text);
            let mut regs: Vec<String> = urls
                .iter()
                .filter_map(|u| {
                    psl.registered_domain(&u.host)
                        .map(|r| r.as_str().to_string())
                })
                .collect();
            regs.sort();
            let adv = truth.universe.table.text(e.advertised).to_string();
            assert!(regs.contains(&adv), "advertised {adv} not in {regs:?}");
            if let Some(c) = e.chaff {
                let chaff = truth.universe.table.text(c).to_string();
                assert!(regs.contains(&chaff), "chaff {chaff} not in {regs:?}");
            }
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let truth = world();
        let mut rng_a = RngStream::new(5, Stream::Test("render-into"));
        let mut rng_b = rng_a.clone();
        let mut buf = String::new();
        for e in truth.sorted_events().unwrap().iter().take(200) {
            let msg = render_spam(&truth, e.advertised, e.chaff, e.time, &mut rng_a);
            let headers =
                render_spam_into(&mut buf, &truth, e.advertised, e.chaff, e.time, &mut rng_b);
            assert_eq!(buf, msg.text);
            assert_eq!(headers.from_addr(&buf), msg.from);
            assert_eq!(headers.subject, msg.subject);
        }
    }

    #[test]
    fn replay_pins_full_render_hosts() {
        // The collectors' render-free records must reconstruct exactly the URL
        // hosts a full render would put in the body, from the same
        // per-event stream.
        let truth = world();
        let key = Stream::Test("replay-pin").key();
        for (i, e) in truth.sorted_events().unwrap().iter().take(400).enumerate() {
            let mut full_rng = RngStream::child_keyed(truth.seed, key, i as u64);
            let mut replay_rng = full_rng.clone();
            let mut buf = String::new();
            let _ = render_spam_into(
                &mut buf,
                &truth,
                e.advertised,
                e.chaff,
                e.time,
                &mut full_rng,
            );
            let chaff_distinct = e.chaff.is_some_and(|c| c != e.advertised);
            let (adv_sub, chaff_sub) = replay_spam_url_hosts(&mut replay_rng, chaff_distinct);
            let urls = extract_urls(&buf);
            let adv_text = truth.universe.table.text(e.advertised);
            assert_eq!(
                urls[0].host.as_str(),
                format!("{}{}", SUBDOMAINS[adv_sub], adv_text),
                "advertised host, event {i}"
            );
            if let Some(cs) = chaff_sub {
                let chaff_text = truth.universe.table.text(e.chaff.unwrap());
                assert_eq!(
                    urls[1].host.as_str(),
                    format!("{}{}", SUBDOMAINS[cs], chaff_text),
                    "chaff host, event {i}"
                );
                assert_eq!(urls.len(), 2);
            }
        }
    }

    #[test]
    fn urls_are_parseable() {
        let truth = world();
        let mut rng = RngStream::new(3, Stream::Test("render-url"));
        let mut url = String::new();
        for _ in 0..200 {
            let d = truth.universe.sample_chaff(&mut rng);
            url.clear();
            UrlParts::draw(&mut rng).push_onto(&mut url, &truth, d);
            taster_domain::Url::parse(&url).unwrap_or_else(|e| panic!("{url}: {e}"));
        }
    }
}
