//! Property tests pinning [`FlowClassifier`] — both of its lookup paths,
//! and every way of arriving at a table — to an independent reference:
//! first match over the rules sorted by `(priority, id)`, deciding each
//! rule with `MatchSpec::matches`, over the full match language
//! (prefixes, ports, TCP-flag / fragment cubes, packet-length / DSCP /
//! ICMP / flow-label intervals).
//!
//! Covered: whole-set compile on small tables, table sizes straddling
//! the scan/index crossover and at the production per-port cap, rank
//! ties, arbitrary interleavings of mutation / lookup / rebuild, and
//! lookups fanned out over scoped threads.

use proptest::prelude::*;
use stellar_classify::interval::IntervalIndex;
use stellar_classify::sharded::parallel_shards;
use stellar_classify::spec::{BitsMatch, RangeMatch};
use stellar_classify::{FlowClassifier, MatchSpec, PortMatch, RuleEntry, LINEAR_MAX};
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};
use stellar_net::proto::IpProtocol;

/// The reference semantics: first match over rules sorted by
/// `(priority, id)`, deciding each rule with `MatchSpec::matches`.
fn linear(entries: &[RuleEntry], key: &FlowKey) -> Option<u64> {
    let mut sorted: Vec<&RuleEntry> = entries.iter().collect();
    sorted.sort_by_key(|e| (e.priority, e.id));
    sorted.iter().find(|e| e.spec.matches(key)).map(|e| e.id)
}

/// A deliberately tiny v6 pool so v6 rules and keys actually collide.
fn v6(last: u8) -> Ipv6Address {
    let mut o = [0u8; 16];
    o[0] = 0x20;
    o[1] = 0x01;
    o[15] = last;
    Ipv6Address(o)
}

fn arb_ip() -> impl Strategy<Value = IpAddress> {
    prop_oneof![
        (0u8..3, 0u8..3, 0u8..3, 0u8..3)
            .prop_map(|(a, b, c, d)| IpAddress::V4(Ipv4Address::new(a, b, c, d))),
        (0u8..2).prop_map(|x| IpAddress::V6(v6(x))),
    ]
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        ((0u8..3, 0u8..3, 0u8..3, 0u8..3), 0u8..=32).prop_map(|((a, b, c, d), l)| {
            Prefix::V4(Ipv4Prefix::new(Ipv4Address::new(a, b, c, d), l).unwrap())
        }),
        (0u8..2, 0u8..=128).prop_map(|(x, l)| Prefix::V6(Ipv6Prefix::new(v6(x), l).unwrap())),
    ]
}

fn arb_proto() -> impl Strategy<Value = IpProtocol> {
    prop_oneof![
        Just(IpProtocol::UDP),
        Just(IpProtocol::TCP),
        Just(IpProtocol::ICMP),
    ]
}

/// Ports from a small pool so range cuts and boundary hits occur.
fn arb_port_match() -> impl Strategy<Value = PortMatch> {
    prop_oneof![
        (0u16..8).prop_map(PortMatch::Exact),
        (0u16..8, 0u16..8).prop_map(|(a, b)| PortMatch::Range(a.min(b), a.max(b))),
    ]
}

/// Small-domain cubes over the low three bits so flag masks collide.
fn arb_bits() -> impl Strategy<Value = BitsMatch> {
    (0u8..8, 0u8..8).prop_map(|(mask, value)| BitsMatch::new(mask, value & mask))
}

/// A criterion present a quarter of the time. Specs with most of their
/// fourteen fields set match almost no key, and a property whose every
/// verdict is `None` pins nothing; sparse specs give each rule a
/// several-percent chance per key, so most keys hit some rule.
fn sparse<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..4, inner).prop_map(|(draw, value)| (draw == 0).then_some(value))
}

/// Small-domain extended criteria so the tree's interval cuts and the
/// rest-list confirmation both get exercised on every field.
fn arb_ext() -> impl Strategy<Value = MatchSpec> {
    (
        sparse(arb_bits()),
        sparse((0u16..6, 0u16..6).prop_map(|(a, b)| RangeMatch::new(a.min(b), a.max(b)))),
        sparse((0u8..4).prop_map(RangeMatch::exact)),
        sparse(arb_bits()),
        sparse((0u8..4).prop_map(RangeMatch::exact)),
        sparse((0u8..3).prop_map(RangeMatch::exact)),
        sparse((0u32..4, 0u32..4).prop_map(|(a, b)| RangeMatch::new(a.min(b), a.max(b)))),
    )
        .prop_map(|(tf, pl, dscp, fr, it, ic, fl)| MatchSpec {
            tcp_flags: tf,
            packet_len: pl,
            dscp,
            fragment: fr,
            icmp_type: it,
            icmp_code: ic,
            flow_label: fl,
            ..Default::default()
        })
}

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        sparse(0u32..4),
        sparse(0u32..4),
        sparse(arb_prefix()),
        sparse(arb_prefix()),
        sparse(arb_proto()),
        sparse(arb_port_match()),
        sparse(arb_port_match()),
        arb_ext(),
    )
        .prop_map(|(sm, dm, sip, dip, proto, sp, dp, ext)| MatchSpec {
            src_mac: sm.map(|m| MacAddr::for_member(64500 + m, 1)),
            dst_mac: dm.map(|m| MacAddr::for_member(64500 + m, 1)),
            src_ip: sip,
            dst_ip: dip,
            protocol: proto,
            src_port: sp,
            dst_port: dp,
            ..ext
        })
}

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (
        (
            0u32..4,
            0u32..4,
            arb_ip(),
            arb_ip(),
            arb_proto(),
            0u16..8,
            0u16..8,
        ),
        (0u8..8, 0u16..6, 0u8..4, 0u8..8, 0u8..4, 0u8..3, 0u32..4),
    )
        .prop_map(
            |((sm, dm, sip, dip, proto, sp, dp), (tf, pl, dscp, fr, it, ic, fl))| FlowKey {
                src_mac: MacAddr::for_member(64500 + sm, 1),
                dst_mac: MacAddr::for_member(64500 + dm, 1),
                src_ip: sip,
                dst_ip: dip,
                protocol: proto,
                src_port: sp,
                dst_port: dp,
                tcp_flags: tf,
                packet_len: pl,
                dscp,
                fragment: fr,
                icmp_type: it,
                icmp_code: ic,
                flow_label: fl,
            },
        )
}

/// `model` in evaluation order — what `FlowClassifier::rules` must equal.
fn sorted(model: &[RuleEntry]) -> Vec<RuleEntry> {
    let mut sorted = model.to_vec();
    sorted.sort_by_key(|e| (e.priority, e.id));
    sorted
}

/// Entries with ids `0..n` from generated `(spec, priority)` pairs.
fn entries(specs: Vec<(MatchSpec, u16)>) -> Vec<RuleEntry> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (spec, prio))| RuleEntry::new(i as u64, prio, spec))
        .collect()
}

/// Checks one classifier against the reference on every key: whichever
/// path its size selects, the scan, and an index built over its rules
/// regardless of size all name the same rule.
fn check_against_linear(
    c: &FlowClassifier,
    model: &[RuleEntry],
    keys: &[FlowKey],
) -> Result<(), TestCaseError> {
    let index = IntervalIndex::build(c.rules());
    for key in keys {
        let want = linear(model, key);
        prop_assert_eq!(c.classify(key), want);
        let pos = c.first_match(key);
        prop_assert_eq!(pos.map(|p| c.rules()[p].id), want);
        prop_assert_eq!(index.first_match(c.rules(), key), pos);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Small tables, whole-set compile: the classifier, the scan and the
    /// index agree with the reference.
    #[test]
    fn both_paths_agree_with_linear_scan(
        specs in proptest::collection::vec((arb_spec(), 0u16..4), 0..12),
        keys in proptest::collection::vec(arb_key(), 1..16),
    ) {
        let model = entries(specs);
        let c = FlowClassifier::compile(model.iter().cloned());
        prop_assert_eq!(c.rules(), &sorted(&model)[..]);
        check_against_linear(&c, &model, &keys)?;
    }

    /// Rank ties (same priority, overlapping specs, only the id breaks
    /// the tie) resolve to the lowest id on both paths. Everything lands
    /// at one priority, and at least one spec appears twice so the tie is
    /// real, not probabilistic; sizes run from 3 to `LINEAR_MAX + 3`.
    #[test]
    fn rank_ties_resolve_by_id_on_both_paths(
        specs in proptest::collection::vec(arb_spec(), 2..LINEAR_MAX + 3),
        dup in 0usize..2,
        keys in proptest::collection::vec(arb_key(), 1..16),
    ) {
        let mut all = specs.clone();
        all.push(specs[dup % specs.len()].clone());
        let model = entries(all.into_iter().map(|s| (s, 10)).collect());
        let c = FlowClassifier::compile(model.iter().cloned());
        check_against_linear(&c, &model, &keys)?;
    }

    /// Any interleaving of insert (including same-id replacement with a
    /// changed priority), remove, `&self` lookups on a dropped index and
    /// tick-entry rebuilds tracks the reference at every step, never
    /// builds the index from a mutation, and ends equal to compiling the
    /// surviving set from scratch. Ids span `0..3·LINEAR_MAX`, so tables
    /// cross the crossover in both directions.
    #[test]
    fn interleaved_mutations_lookups_and_rebuilds_agree(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..(3 * LINEAR_MAX as u64), arb_spec(), 0u16..4),
            1..64,
        ),
        keys in proptest::collection::vec(arb_key(), 1..8),
    ) {
        let mut c = FlowClassifier::new();
        let mut model: Vec<RuleEntry> = Vec::new();
        for (op, id, spec, prio) in ops {
            match op {
                // Insert or replace.
                0..=4 => {
                    let entry = RuleEntry::new(id, prio, spec);
                    model.retain(|e| e.id != id);
                    model.push(entry.clone());
                    let pos = c.insert(entry);
                    prop_assert_eq!(c.rules()[pos].id, id);
                    prop_assert!(!c.is_indexed(), "insert built the index");
                }
                5..=6 => {
                    let held = sorted(&model).iter().position(|e| e.id == id);
                    model.retain(|e| e.id != id);
                    prop_assert_eq!(c.remove(id), held);
                    // Removing an absent id changes nothing, index included.
                    prop_assert!(held.is_none() || !c.is_indexed(), "remove built the index");
                }
                // The tick entry: index iff the table is large enough.
                _ => {
                    c.prepare();
                    prop_assert_eq!(c.is_indexed(), c.len() > LINEAR_MAX);
                }
            }
            prop_assert_eq!(c.rules(), &sorted(&model)[..]);
            for key in &keys {
                prop_assert_eq!(c.classify(key), linear(&model, key));
            }
        }
        let fresh = FlowClassifier::compile(model.iter().cloned());
        prop_assert_eq!(fresh.rules(), c.rules());
        check_against_linear(&fresh, &model, &keys)?;
        c.prepare();
        prop_assert_eq!(c.is_indexed(), fresh.is_indexed());
        check_against_linear(&c, &model, &keys)?;
    }

    /// Shards fanned out over scoped threads borrow classifiers (scan
    /// and index alike) and return what direct lookups return, in order.
    #[test]
    fn lookups_through_the_worker_pool_agree(
        shards in proptest::collection::vec(
            (
                proptest::collection::vec((arb_spec(), 0u16..4), 0..2 * LINEAR_MAX),
                proptest::collection::vec(arb_key(), 0..8),
            ),
            1..5,
        ),
        workers in 1usize..5,
    ) {
        let compiled: Vec<(FlowClassifier, Vec<FlowKey>)> = shards
            .into_iter()
            .map(|(specs, keys)| (FlowClassifier::compile(entries(specs)), keys))
            .collect();
        let requests: Vec<(&FlowClassifier, &[FlowKey])> =
            compiled.iter().map(|(c, keys)| (c, keys.as_slice())).collect();
        let results = parallel_shards(requests, workers, |(c, keys)| {
            keys.iter().map(|k| c.classify(k)).collect::<Vec<_>>()
        });
        prop_assert_eq!(results.len(), compiled.len());
        for ((c, keys), got) in compiled.iter().zip(&results) {
            let direct: Vec<_> = keys.iter().map(|k| linear(c.rules(), k)).collect();
            prop_assert_eq!(got, &direct);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Table sizes on both sides of the crossover and at the production
    /// per-port cap: the path follows the size, the verdicts do not.
    #[test]
    fn tables_straddling_the_crossover_agree(
        specs in proptest::collection::vec((arb_spec(), 0u16..4), 256..257),
        keys in proptest::collection::vec(arb_key(), 1..16),
    ) {
        let model = entries(specs);
        for n in [LINEAR_MAX - 1, LINEAR_MAX, LINEAR_MAX + 1, 256] {
            let model = &model[..n];
            let c = FlowClassifier::compile(model.iter().cloned());
            prop_assert_eq!(c.is_indexed(), n > LINEAR_MAX);
            check_against_linear(&c, model, &keys)?;
        }
    }
}
