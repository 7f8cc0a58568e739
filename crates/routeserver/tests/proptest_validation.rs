//! IRR and RPKI lookups by covering prefix answer exactly what a scan of
//! every registered object answers: random route objects and ROAs
//! (registered and deregistered) in a narrow address space, so covers,
//! near misses, both families and every prefix length all occur.

use proptest::prelude::*;
use stellar_bgp::types::Asn;
use stellar_net::addr::{Ipv4Address, Ipv6Address};
use stellar_net::prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};
use stellar_routeserver::irr::IrrDb;
use stellar_routeserver::rpki::{Roa, RpkiStatus, RpkiTable};

/// A prefix in 100.10.0.0/16 or 2001:db8::/32 with a few distinct bit
/// patterns below it, at any length of its family.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    let bits = || prop_oneof![Just(0u8), Just(10), Just(128), Just(255)];
    (any::<bool>(), bits(), bits(), 0u8..=128).prop_map(|(v4, a, b, len)| {
        if v4 {
            let addr = Ipv4Address::new(100, 10, a, b);
            Prefix::V4(Ipv4Prefix::new(addr, len % 33).unwrap())
        } else {
            let group = u16::from_be_bytes([a, b]);
            let addr = Ipv6Address::from_groups([0x2001, 0xdb8, group, 0, 0, 0, 0, group]);
            Prefix::V6(Ipv6Prefix::new(addr, len).unwrap())
        }
    })
}

fn arb_origin() -> impl Strategy<Value = Asn> {
    (0u32..3).prop_map(|i| Asn(64500 + i))
}

/// RFC 6811 over every ROA, as the table answered before it looked ROAs
/// up by covering prefix.
fn scan_rpki(roas: &[Roa], prefix: &Prefix, origin: Asn) -> RpkiStatus {
    let covering: Vec<&Roa> = roas.iter().filter(|r| r.prefix.covers(prefix)).collect();
    if covering
        .iter()
        .any(|r| r.asn == origin && prefix.len() <= r.max_len)
    {
        RpkiStatus::Valid
    } else if covering.is_empty() {
        RpkiStatus::NotFound
    } else {
        RpkiStatus::Invalid
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn irr_lookup_by_covering_prefix_matches_the_scan(
        objects in proptest::collection::vec((arb_prefix(), arb_origin(), any::<bool>()), 0..24),
        queries in proptest::collection::vec((arb_prefix(), arb_origin()), 1..24),
    ) {
        let mut irr = IrrDb::new();
        let mut registered: Vec<(Prefix, Asn)> = Vec::new();
        for (prefix, origin, keep) in objects {
            irr.register(prefix, origin);
            registered.push((prefix, origin));
            if !keep {
                irr.deregister(prefix, origin);
                registered.retain(|o| *o != (prefix, origin));
            }
        }
        for (prefix, origin) in queries {
            let scan = registered
                .iter()
                .any(|(p, o)| p.covers(&prefix) && *o == origin);
            prop_assert_eq!(irr.validates(&prefix, origin), scan, "{} from {}", prefix, origin);
        }
    }

    #[test]
    fn rpki_lookup_by_covering_prefix_matches_the_scan(
        roas in proptest::collection::vec((arb_prefix(), 0u8..=128, arb_origin()), 0..24),
        queries in proptest::collection::vec((arb_prefix(), arb_origin()), 1..24),
    ) {
        let mut table = RpkiTable::new();
        let roas: Vec<Roa> = roas
            .into_iter()
            .map(|(prefix, extra, asn)| {
                let max = if prefix.is_v4() { 32 } else { 128 };
                let max_len = prefix.len() + extra % (max - prefix.len() + 1);
                Roa { prefix, max_len, asn }
            })
            .collect();
        for roa in &roas {
            table.add(*roa);
        }
        for (prefix, origin) in queries {
            prop_assert_eq!(
                table.validate(&prefix, origin),
                scan_rpki(&roas, &prefix, origin),
                "{} from {}", prefix, origin
            );
        }
    }
}
