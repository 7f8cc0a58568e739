//! Property tests for the shared set primitives (`classify::set`), both
//! directions, against full enumeration of a shrunken key universe that
//! has every gate on both sides (`common::gated`).
//!
//! - `Region::{is_empty, covers, intersects}` say exactly what the
//!   enumerated keys say under `MatchSpec::matches`, whether the region
//!   reads its cells from the spec or keeps them (`Region::owned`). The regions speak
//!   about every observable key and the enumeration only about the
//!   universe's, so the generator draws criteria that are a strict part
//!   of the universe on their field, or lie wholly outside the field's
//!   observable width — then the two cannot tell a spec pair apart.
//! - `first_uncovered` returns a key iff some enumerated key is won by
//!   the target, and the key it returns is one of the universe's, matches
//!   the target and no earlier rule.

mod common;

use common::{enumerate_keys, gated, num_mac, TCP, UDP, V6_BASE};
use proptest::prelude::*;
use stellar_classify::set::{first_uncovered, Exhausted, Region, Scratch};
use stellar_classify::spec::{BitsMatch, RangeMatch};
use stellar_classify::{MatchSpec, PortMatch};
use stellar_net::addr::{Ipv4Address, Ipv6Address};
use stellar_net::prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};
use stellar_net::proto::IpProtocol;

/// `Some` one draw in four: specs stay sparse enough to be satisfiable.
fn sparse<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u32..4, inner).prop_map(|(w, v)| (w == 0).then_some(v))
}

fn v4_prefix(base: [u8; 4], host: u8, len: u8) -> Prefix {
    let addr = Ipv4Address::new(base[0], base[1], base[2], host);
    Prefix::V4(Ipv4Prefix::new(addr, len).unwrap())
}

fn v6_host(last: u8) -> Prefix {
    let addr = Ipv6Address((V6_BASE + u128::from(last)).to_be_bytes());
    Prefix::V6(Ipv6Prefix::host(addr))
}

fn arb_src_ip() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (0u8..4, 31u8..=32).prop_map(|(h, l)| v4_prefix([10, 0, 0, 0], h & !(32 - l), l)),
        (0u8..2).prop_map(v6_host),
    ]
}

fn arb_dst_ip() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (0u8..2).prop_map(|h| v4_prefix([10, 0, 1, 0], h, 32)),
        (0u8..2).prop_map(v6_host),
    ]
}

/// Port criteria inside `0..=2` but never all of it; one inverted.
fn arb_port() -> impl Strategy<Value = PortMatch> {
    prop_oneof![
        (0u16..3).prop_map(PortMatch::Exact),
        Just(PortMatch::Range(0, 1)),
        Just(PortMatch::Range(1, 2)),
        Just(PortMatch::Range(2, 0)),
    ]
}

fn arb_bit() -> impl Strategy<Value = u8> {
    0u8..2
}

/// The universe's one varying bit set or clear, or an unsatisfiable cube.
fn arb_cube(bit: u8) -> impl Strategy<Value = BitsMatch> {
    prop_oneof![
        Just(BitsMatch::all_of(bit)),
        Just(BitsMatch::none_of(bit)),
        Just(BitsMatch::new(bit, bit | 0x80)),
    ]
}

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        (
            sparse((1u8..3).prop_map(|n| num_mac(n.into()))),
            sparse(arb_src_ip()),
            sparse(arb_dst_ip()),
            sparse(prop_oneof![
                Just(1u8),
                Just(TCP),
                Just(UDP),
                Just(47),
                Just(58)
            ]),
            sparse(arb_port()),
            sparse(arb_port()),
        ),
        (
            sparse(arb_cube(0x02)),
            sparse((100u16..102).prop_map(RangeMatch::exact)),
            sparse(prop_oneof![
                arb_bit().prop_map(RangeMatch::exact),
                Just(RangeMatch::new(64, 70)),
            ]),
            // Bit 4 is outside `frag::DOMAIN`: no key carries it, so
            // requiring it clear is always true and set never.
            sparse(prop_oneof![
                arb_cube(0x01),
                Just(BitsMatch::none_of(0x10)),
                Just(BitsMatch::all_of(0x10)),
            ]),
            sparse(arb_bit().prop_map(RangeMatch::exact)),
            sparse(arb_bit().prop_map(RangeMatch::exact)),
            sparse(prop_oneof![
                (0u32..2).prop_map(RangeMatch::exact),
                Just(RangeMatch::new(0, 0xF_FFFF)),
                Just(RangeMatch::new(0x10_0000, 0x20_0000)),
            ]),
        ),
    )
        .prop_map(
            |((sm, sip, dip, proto, sp, dp), (tf, pl, ds, fr, it, ic, fl))| MatchSpec {
                src_mac: sm,
                dst_mac: None,
                src_ip: sip,
                dst_ip: dip,
                protocol: proto.map(IpProtocol),
                src_port: sp,
                dst_port: dp,
                tcp_flags: tf,
                packet_len: pl,
                dscp: ds,
                fragment: fr,
                icmp_type: it,
                icmp_code: ic,
                flow_label: fl,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn region_relations_are_the_enumerated_ones(a in arb_spec(), b in arb_spec()) {
        let keys = enumerate_keys(&gated());
        let (ra, rb) = (Region::of(&a), Region::of(&b));
        let some_a = keys.iter().any(|k| a.matches(k));
        prop_assert_eq!(ra.is_empty(), !some_a, "is_empty({:?})", a);
        let escapes = keys.iter().any(|k| b.matches(k) && !a.matches(k));
        prop_assert_eq!(ra.covers(&rb), !escapes, "covers({:?}, {:?})", a, b);
        let shared = keys.iter().any(|k| a.matches(k) && b.matches(k));
        prop_assert_eq!(ra.intersects(&rb), shared, "intersects({:?}, {:?})", a, b);
        // Stored cells say what read ones say, against either storage.
        let (oa, ob) = (Region::owned(&a), Region::owned(&b));
        prop_assert!(oa == ra && ob == rb, "stored cells of {:?} / {:?}", a, b);
        prop_assert_eq!(oa.is_empty(), !some_a);
        prop_assert_eq!(oa.covers(&ob), !escapes);
        prop_assert_eq!(oa.covers(&rb), !escapes);
        prop_assert_eq!(ra.covers(&ob), !escapes);
        prop_assert_eq!(oa.intersects(&ob), shared);
        prop_assert_eq!(ra.intersects(&ob), shared);
    }

    #[test]
    fn first_uncovered_finds_a_won_key_iff_one_exists(
        target in arb_spec(),
        earlier in proptest::collection::vec(arb_spec(), 0..5),
        budget in prop_oneof![Just(10_000usize), Just(3usize)],
    ) {
        let dom = gated();
        let keys = enumerate_keys(&dom);
        let wins = |k: &&stellar_net::flow::FlowKey| {
            target.matches(k) && earlier.iter().all(|e| !e.matches(k))
        };
        let region = Region::of(&target);
        let regions: Vec<Region> = earlier.iter().map(Region::of).collect();
        let mut scratch = Scratch::default();
        let found = first_uncovered(&region, regions.iter(), &dom, budget, &mut scratch);
        // The same walk over regions that keep their cells.
        let stored: Vec<Region> = earlier.iter().map(Region::owned).collect();
        let owned = Region::owned(&target);
        let mut scratch = Scratch::default();
        let again = first_uncovered(&owned, stored.iter(), &dom, budget, &mut scratch);
        prop_assert_eq!(&found, &again, "stored cells walked differently");
        match found {
            Ok(Some(key)) => {
                prop_assert!(keys.contains(&key), "{:?} is not a key of the universe", key);
                prop_assert!(wins(&&key), "{:?} is not won by the target", key);
            }
            Ok(None) => prop_assert!(keys.iter().find(wins).is_none(), "missed a won key"),
            Err(Exhausted) => prop_assert_eq!(budget, 3, "tables this small fit 10^4 nodes"),
        }
    }
}
