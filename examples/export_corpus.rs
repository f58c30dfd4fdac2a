//! Corpus export: capture one MX honeypot's take — each message as an
//! accept-everything sink stores it, the body without its terminating
//! newline — and write it out as an mbox file, the artifact format
//! static spam corpora (Enron, TREC2005, CEAS2008; paper §2) ship in;
//! then re-parse it and verify the round trip.
//!
//! ```sh
//! cargo run --release --example export_corpus [scale] [out.mbox]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use rand::RngExt;
use taster::ecosystem::campaign::TargetClass;
use taster::ecosystem::{EcosystemConfig, GroundTruth};
use taster::mailsim::mbox::{parse_mbox, write_mbox, MboxMessage};
use taster::mailsim::render::render_spam;
use taster::mailsim::{MailConfig, MailWorld};
use taster::sim::RngStream;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.05);
    let out_path = args.next().unwrap_or_else(|| "honeypot.mbox".to_string());

    eprintln!("generating world at scale {scale}…");
    let truth = GroundTruth::generate(&EcosystemConfig::default().with_scale(scale), 77).unwrap();
    let world =
        MailWorld::build(truth, MailConfig::default().with_scale(scale)).unwrap_or_else(|e| {
            eprintln!("invalid mail config: {e}");
            std::process::exit(2);
        });

    // Sample a fresh MX honeypot's share of the brute-force stream and
    // keep the stored messages (the collectors parse and drop them; a
    // corpus exporter keeps them).
    let mut rng = RngStream::new(world.truth.seed, "example/export-corpus");
    let mut corpus: Vec<MboxMessage> = Vec::new();
    for event in world.truth.sorted_events().expect("event log") {
        if event.target != TargetClass::BruteForce || !rng.random_bool(0.05) {
            continue;
        }
        let msg = render_spam(
            &world.truth,
            event.advertised,
            event.chaff,
            event.time,
            &mut rng,
        );
        let stored = msg.text.strip_suffix('\n').unwrap_or(&msg.text);
        corpus.push(MboxMessage {
            envelope_sender: msg.from.clone(),
            time: event.time,
            text: stored.to_string(),
        });
    }

    let text = write_mbox(&corpus);
    std::fs::write(&out_path, &text).expect("write mbox");
    eprintln!(
        "wrote {} messages ({} bytes) to {out_path}",
        corpus.len(),
        text.len()
    );

    // Round-trip check, like a downstream consumer would.
    let reparsed = parse_mbox(&text).expect("valid mbox");
    assert_eq!(reparsed.len(), corpus.len());
    let mut domains = std::collections::HashSet::new();
    let psl = taster::domain::psl::SuffixList::builtin();
    for m in &reparsed {
        for url in taster::domain::url::extract_urls(&m.text) {
            if let Some(reg) = psl.registered_domain(&url.host) {
                domains.insert(reg.as_str().to_string());
            }
        }
    }
    println!(
        "corpus round trip OK: {} messages, {} distinct registered domains",
        reparsed.len(),
        domains.len()
    );
    let mut sample: Vec<_> = domains.into_iter().collect();
    sample.sort();
    for d in sample.iter().take(10) {
        println!("  {d}");
    }
}
