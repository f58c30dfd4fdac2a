//! Property-based tests for the domain layer.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::collections::BTreeSet;
use taster_domain::interner::DomainTable;
use taster_domain::psl::SuffixList;
use taster_domain::url::{extract_urls, Url};
use taster_domain::{DomainBitset, RankIndex};
use taster_domain::{DomainId, DomainName};

/// Strategy for a syntactically valid label.
fn label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,12}[a-z0-9])?").unwrap()
}

/// Strategy for a valid multi-label domain name.
fn domain_name() -> impl Strategy<Value = String> {
    (label(), proptest::collection::vec(label(), 1..4))
        .prop_map(|(first, rest)| {
            let mut s = first;
            for l in rest {
                s.push('.');
                s.push_str(&l);
            }
            s
        })
        .prop_filter("length", |s| s.len() <= 200)
}

/// Strategy for a domain id, overweighted around the 64-bit word
/// boundaries of the packed bitset representation.
fn boundary_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..200,
        62u32..=66,
        126u32..=130,
        Just(63u32),
        Just(64u32),
        Just(65u32),
    ]
}

proptest! {
    #[test]
    fn punycode_round_trips(
        chars in proptest::collection::vec(any::<char>(), 0..24)
    ) {
        // Any sequence of Unicode scalar values survives
        // encode → decode.
        let s: String = chars.into_iter().collect();
        match taster_domain::punycode::encode(&s) {
            Ok(encoded) => {
                let decoded = taster_domain::punycode::decode(&encoded).unwrap();
                prop_assert_eq!(decoded, s);
            }
            Err(taster_domain::punycode::PunycodeError::Overflow) => {
                // Permitted only for pathological inputs; never for
                // short strings of small code points.
                prop_assert!(s.chars().any(|c| c as u32 > 0xFFFF) || s.chars().count() > 16);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn parse_is_idempotent(name in domain_name()) {
        let parsed = DomainName::parse(&name).unwrap();
        let reparsed = DomainName::parse(parsed.as_str()).unwrap();
        prop_assert_eq!(parsed.as_str(), reparsed.as_str());
    }

    #[test]
    fn parse_is_case_insensitive(name in domain_name()) {
        let upper = name.to_ascii_uppercase();
        let a = DomainName::parse(&name).unwrap();
        let b = DomainName::parse(&upper).unwrap();
        prop_assert_eq!(a.as_str(), b.as_str());
    }

    #[test]
    fn label_count_matches_split(name in domain_name()) {
        let parsed = DomainName::parse(&name).unwrap();
        prop_assert_eq!(parsed.label_count(), name.split('.').count());
        prop_assert_eq!(parsed.labels().count(), parsed.label_count());
    }

    #[test]
    fn registered_domain_is_suffix_plus_one(name in domain_name()) {
        let psl = SuffixList::builtin();
        let parsed = DomainName::parse(&name).unwrap();
        if let Some(reg) = psl.registered_domain(&parsed) {
            // The registered domain is a suffix of the input.
            let (name, reg_name) = (parsed.as_str(), reg.as_str());
            prop_assert!(name == reg_name || name.ends_with(&format!(".{reg_name}")));
            // Re-deriving from the registered domain is a fixed point.
            let again = DomainName::parse(reg.as_str()).unwrap();
            let reg2 = psl.registered_domain(&again).unwrap();
            prop_assert_eq!(reg.as_str(), reg2.as_str());
            // suffix label count + 1 = registered label count.
            prop_assert_eq!(
                reg.suffix_label_count() + 1,
                reg.as_str().split('.').count()
            );
        }
    }

    #[test]
    fn url_round_trip(name in domain_name(), port in proptest::option::of(1u16..), path in "[a-z0-9/]{0,12}") {
        let rendered = match port {
            Some(p) => format!("http://{name}:{p}/{path}"),
            None => format!("http://{name}/{path}"),
        };
        let url = Url::parse(&rendered).unwrap();
        let expected = DomainName::parse(&name).unwrap();
        prop_assert_eq!(url.host.as_str(), expected.as_str());
        prop_assert_eq!(url.port, port);
        let reparsed = Url::parse(&url.to_text()).unwrap();
        prop_assert_eq!(url, reparsed);
    }

    #[test]
    fn extraction_finds_embedded_urls(names in proptest::collection::vec(domain_name(), 1..5)) {
        let mut body = String::from("hello\n");
        for n in &names {
            body.push_str(&format!("click http://{n}/x now\n"));
        }
        let urls = extract_urls(&body);
        prop_assert_eq!(urls.len(), names.len());
        for (u, n) in urls.iter().zip(&names) {
            let expected = DomainName::parse(n).unwrap();
            prop_assert_eq!(u.host.as_str(), expected.as_str());
        }
    }

    #[test]
    fn interner_is_bijective(names in proptest::collection::vec(domain_name(), 1..50)) {
        let mut table = DomainTable::new();
        let ids: Vec<DomainId> = names.iter().map(|n| table.intern_str(n)).collect();
        for (name, &id) in names.iter().zip(&ids) {
            prop_assert_eq!(table.get(name), Some(id));
            prop_assert_eq!(table.text(id), name.as_str());
        }
        // Unique names get unique dense ids.
        let unique: BTreeSet<_> = names.iter().collect();
        prop_assert_eq!(table.len(), unique.len());
    }

    #[test]
    fn domain_set_matches_btreeset_model(
        ops in proptest::collection::vec((0u32..500, any::<bool>()), 0..200)
    ) {
        let mut set = DomainBitset::with_capacity(64);
        let mut model = BTreeSet::new();
        for (id, _insert) in &ops {
            let fresh = set.insert(DomainId(*id));
            let model_fresh = model.insert(*id);
            prop_assert_eq!(fresh, model_fresh);
        }
        prop_assert_eq!(set.len(), model.len());
        for id in 0..500u32 {
            prop_assert_eq!(set.contains(DomainId(id)), model.contains(&id));
        }
        let listed: Vec<u32> = set.iter().map(|d| d.0).collect();
        let expected: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(listed, expected);
    }

    #[test]
    fn domain_set_algebra_matches_model(
        a in proptest::collection::btree_set(0u32..300, 0..80),
        b in proptest::collection::btree_set(0u32..300, 0..80),
    ) {
        let sa: DomainBitset = a.iter().map(|&i| DomainId(i)).collect();
        let sb: DomainBitset = b.iter().map(|&i| DomainId(i)).collect();
        prop_assert_eq!(sa.intersection_len(&sb), a.intersection(&b).count());
        prop_assert_eq!(sa.union_len(&sb), a.union(&b).count());

        let mut u = sa.clone();
        u.union_with(&sb);
        prop_assert_eq!(u.len(), a.union(&b).count());

        let mut i = sa.clone();
        i.intersect_with(&sb);
        prop_assert_eq!(i.len(), a.intersection(&b).count());

        let mut d = sa.clone();
        d.subtract(&sb);
        prop_assert_eq!(d.len(), a.difference(&b).count());
        prop_assert_eq!(sa.difference_len(&sb), a.difference(&b).count());
        prop_assert_eq!(sb.difference_len(&sa), b.difference(&a).count());
    }

    #[test]
    fn boundary_ids_match_model(
        a in proptest::collection::btree_set(boundary_id(), 0..40),
        b in proptest::collection::btree_set(boundary_id(), 0..40),
    ) {
        // Ids drawn heavily around the 64-bit word seams (63/64/65,
        // 127/128) so cross-word carry bugs in the packed kernels
        // can't hide; empty sets arise naturally from the 0.. sizes.
        let sa: DomainBitset = a.iter().map(|&i| DomainId(i)).collect();
        let sb: DomainBitset = b.iter().map(|&i| DomainId(i)).collect();
        prop_assert_eq!(sa.len(), a.len());
        prop_assert_eq!(sa.is_empty(), a.is_empty());
        prop_assert_eq!(sa.intersection_len(&sb), a.intersection(&b).count());
        prop_assert_eq!(sa.union_len(&sb), a.union(&b).count());
        prop_assert_eq!(sa.difference_len(&sb), a.difference(&b).count());
        prop_assert_eq!(sb.difference_len(&sa), b.difference(&a).count());

        let inter = sa.intersection(&sb);
        for id in [62u32, 63, 64, 65, 66, 126, 127, 128, 129] {
            prop_assert_eq!(
                inter.contains(DomainId(id)),
                a.contains(&id) && b.contains(&id),
                "intersection membership at id {}", id
            );
        }

        // from_sorted_ids builds the same set as incremental inserts.
        let sorted: Vec<u32> = a.iter().copied().collect();
        let ids: Vec<DomainId> = sorted.iter().map(|&i| DomainId(i)).collect();
        prop_assert_eq!(DomainBitset::from_sorted_ids(&ids), sa.clone());

        // RankIndex maps each member to its dense ascending row and
        // rejects non-members.
        let rank = RankIndex::build(&sa);
        for (row, &id) in sorted.iter().enumerate() {
            prop_assert_eq!(rank.rank(&sa, DomainId(id)), Some(row));
        }
        for id in [0u32, 63, 64, 65, 128, 199] {
            if !a.contains(&id) {
                prop_assert_eq!(rank.rank(&sa, DomainId(id)), None);
            }
        }
    }
}
