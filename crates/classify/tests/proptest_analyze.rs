//! Property tests for the static rule-table analyzer: every flag it
//! raises is checked against the *dynamic* truth of the compiled engine
//! on randomly generated tables.
//!
//! - A rule flagged dead (shadowed / redundant / unreachable) is never
//!   the first match for any sampled packet.
//! - A rule not flagged dead comes with a witness key, and that witness
//!   is a key a packet can produce and really does reach the rule as
//!   first-match through the engine.
//! - Every dead flag is `verify`'s verdict too: deleting the rule from
//!   the rules ranked at or above it changes no key iff it is flagged.
//! - A conflict flag implies a genuine crossing overlap: the two rules'
//!   intersection is non-empty and neither covers the other.
//! - The candidate-scoped entry reports exactly what the whole-table
//!   analysis reports for the same rules.
//!
//! The value pools are deliberately tiny (as in `proptest_engine.rs`) so
//! shadowing, union coverage and crossing overlaps actually occur instead
//! of every random table being anomaly-free.

mod common;

use proptest::prelude::*;
use stellar_classify::analyze::{
    analyze, analyze_candidates_with_budget, analyze_with_budget, spec_covers, spec_intersects,
    RuleFlag,
};
use stellar_classify::spec::{BitsMatch, RangeMatch};
use stellar_classify::verify::{tables_equivalent, Domain, DEFAULT_VERIFY_BUDGET};
use stellar_classify::{ActionClass, AuditRule, FlowClassifier, MatchSpec, PortMatch, RuleEntry};
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};
use stellar_net::proto::IpProtocol;

/// A deliberately tiny v6 pool so v6 rules and keys actually collide.
fn v6(last: u8) -> Ipv6Address {
    let mut o = [0u8; 16];
    o[0] = 0x20;
    o[1] = 0x01;
    o[15] = last;
    Ipv6Address(o)
}

fn arb_v4() -> impl Strategy<Value = Ipv4Address> {
    (0u8..3, 0u8..3, 0u8..3, 0u8..3).prop_map(|(a, b, c, d)| Ipv4Address::new(a, b, c, d))
}

/// Short prefixes dominate so coverage relations occur often.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (
            (0u8..3, 0u8..3, 0u8..3, 0u8..3),
            prop_oneof![0u8..=4, 22u8..=32]
        )
            .prop_map(|((a, b, c, d), l)| {
                Prefix::V4(Ipv4Prefix::new(Ipv4Address::new(a, b, c, d), l).unwrap())
            }),
        (0u8..2, prop_oneof![0u8..=4, 120u8..=128])
            .prop_map(|(x, l)| Prefix::V6(Ipv6Prefix::new(v6(x), l).unwrap())),
    ]
}

fn arb_proto() -> impl Strategy<Value = IpProtocol> {
    prop_oneof![
        Just(IpProtocol::UDP),
        Just(IpProtocol::TCP),
        Just(IpProtocol::ICMP),
    ]
}

fn arb_port_match() -> impl Strategy<Value = PortMatch> {
    prop_oneof![
        (0u16..8).prop_map(PortMatch::Exact),
        (0u16..8, 0u16..8).prop_map(|(a, b)| PortMatch::Range(a.min(b), a.max(b))),
    ]
}

/// A tiny cube pool over the SYN (0x02) / ACK (0x10) bits so cube
/// subset, incompatibility and gate interactions all occur.
fn arb_cube() -> impl Strategy<Value = BitsMatch> {
    prop_oneof![
        Just(BitsMatch::all_of(0x02)),
        Just(BitsMatch::new(0x12, 0x02)),
        Just(BitsMatch::none_of(0x10)),
        Just(BitsMatch::new(0x03, 0x01)),
    ]
}

/// Tiny intervals over `0..domain` (never inverted — emptiness from
/// inversion is covered by unit tests; here we want live overlap).
fn arb_small_range(domain: u8) -> impl Strategy<Value = RangeMatch<u8>> {
    (0..domain, 0..domain).prop_map(|(a, b)| RangeMatch::new(a.min(b), a.max(b)))
}

/// The gated / interval criteria added for FlowSpec matching, generated
/// sparsely (the gates make dense combinations mostly empty).
type ExtFields = (
    Option<BitsMatch>,
    Option<RangeMatch<u16>>,
    Option<RangeMatch<u8>>,
    Option<BitsMatch>,
    Option<RangeMatch<u8>>,
    Option<RangeMatch<u8>>,
    Option<RangeMatch<u32>>,
);

/// `Some` one draw in five — the vendored proptest shim's `option::of`
/// is a fixed 3-in-4 `Some`, far too dense for gated criteria.
fn sparse<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u32..5, inner).prop_map(|(w, v)| (w == 0).then_some(v))
}

fn arb_ext() -> impl Strategy<Value = ExtFields> {
    (
        sparse(arb_cube()),
        sparse(arb_small_range(3).prop_map(|r| RangeMatch::new(u16::from(r.lo), u16::from(r.hi)))),
        sparse(arb_small_range(3)),
        sparse(arb_cube()),
        sparse(arb_small_range(3)),
        sparse(arb_small_range(3)),
        sparse(arb_small_range(3).prop_map(|r| RangeMatch::new(u32::from(r.lo), u32::from(r.hi)))),
    )
}

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        (
            proptest::option::of(0u32..4),
            proptest::option::of(0u32..4),
            proptest::option::of(arb_prefix()),
            proptest::option::of(arb_prefix()),
            proptest::option::of(arb_proto()),
            proptest::option::of(arb_port_match()),
            proptest::option::of(arb_port_match()),
        ),
        arb_ext(),
    )
        .prop_map(
            |((sm, dm, sip, dip, proto, sp, dp), (tf, pl, ds, fr, it, ic, fl))| MatchSpec {
                src_mac: sm.map(|m| MacAddr::for_member(64500 + m, 1)),
                dst_mac: dm.map(|m| MacAddr::for_member(64500 + m, 1)),
                src_ip: sip,
                dst_ip: dip,
                protocol: proto,
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

/// Observable keys only: both addresses of one family (a packet has one
/// IP header) and every field inside its width. The analyzer reasons
/// over the keys `Packet::flow_key` can produce; a sampled key outside
/// them could "reach" a rule the analyzer rightly calls dead.
fn arb_key() -> impl Strategy<Value = FlowKey> {
    (
        (
            0u32..4,
            0u32..4,
            prop_oneof![
                (arb_v4(), arb_v4()).prop_map(|(s, d)| (IpAddress::V4(s), IpAddress::V4(d))),
                (0u8..2, 0u8..2).prop_map(|(s, d)| (IpAddress::V6(v6(s)), IpAddress::V6(v6(d)))),
            ],
            arb_proto(),
            0u16..8,
            0u16..8,
        ),
        (
            prop_oneof![Just(0u8), Just(0x02), Just(0x10), Just(0x12)],
            0u16..3,
            0u8..3,
            0u8..4,
            0u8..3,
            0u8..3,
            0u32..3,
        ),
    )
        .prop_map(
            |((sm, dm, (sip, dip), proto, sp, dp), (tf, pl, ds, fr, it, ic, fl))| FlowKey {
                src_mac: MacAddr::for_member(64500 + sm, 1),
                dst_mac: MacAddr::for_member(64500 + dm, 1),
                src_ip: sip,
                dst_ip: dip,
                protocol: proto,
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

fn arb_action() -> impl Strategy<Value = ActionClass> {
    prop_oneof![
        Just(ActionClass::Drop),
        Just(ActionClass::Shape { rate_bps: 1_000 }),
    ]
}

fn arb_table() -> impl Strategy<Value = Vec<AuditRule>> {
    proptest::collection::vec((arb_spec(), 0u16..3, arb_action()), 0..10).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (spec, prio, action))| {
                AuditRule::new(RuleEntry::new(i as u64, prio, spec), action)
            })
            .collect()
    })
}

/// How a derived rule relates to the table rule it is built from.
#[derive(Debug, Clone, Copy)]
enum Derived {
    /// Same match set, same action.
    Duplicate,
    /// A superset of the base's match set (both prefixes and both port
    /// criteria lifted).
    Cover,
    /// Lifts the base's port criteria and pins a field the base leaves
    /// free, with the opposing action: each side matches keys the other
    /// misses whenever the base had a port criterion.
    Cross,
}

fn arb_derived() -> impl Strategy<Value = Derived> {
    prop_oneof![
        Just(Derived::Duplicate),
        Just(Derived::Cover),
        Just(Derived::Cross),
    ]
}

fn derive(base: &AuditRule, how: Derived, id: u64, priority: u16) -> AuditRule {
    let mut spec = base.entry.spec.clone();
    let mut action = base.action;
    match how {
        Derived::Duplicate => {}
        Derived::Cover => {
            spec.src_ip = None;
            spec.dst_ip = None;
            spec.src_port = None;
            spec.dst_port = None;
        }
        Derived::Cross => {
            spec.src_port = None;
            spec.dst_port = None;
            if spec.dscp.is_none() {
                spec.dscp = Some(RangeMatch::new(0, 1));
            }
            action = match action {
                ActionClass::Drop => ActionClass::Shape { rate_bps: 1_000 },
                _ => ActionClass::Drop,
            };
        }
    }
    AuditRule::new(RuleEntry::new(id, priority, spec), action)
}

/// A table of up to 40 rules plus the candidate ids of one batch: rules
/// derived from picked table rules (so candidates cover, duplicate and
/// cross each other and standing rules), the rules they were derived
/// from, a few arbitrary picks, and ids the table does not contain.
/// Priorities are drawn independently, so candidates sit anywhere in the
/// evaluation order, not at its end.
fn arb_batch() -> impl Strategy<Value = (Vec<AuditRule>, Vec<u64>)> {
    (
        proptest::collection::vec((arb_spec(), 0u16..3, arb_action()), 0..34),
        proptest::collection::vec((0usize..64, arb_derived(), 0u16..3), 0..6),
        proptest::collection::vec(0u64..48, 0..4),
    )
        .prop_map(|(specs, derived, picks)| {
            let mut table: Vec<AuditRule> = specs
                .into_iter()
                .enumerate()
                .map(|(i, (spec, prio, action))| {
                    AuditRule::new(RuleEntry::new(i as u64, prio, spec), action)
                })
                .collect();
            // Picks range past the table's ids on purpose: absent ids.
            let mut ids = picks;
            let standing = table.len();
            for (pick, how, prio) in derived {
                if standing == 0 {
                    break;
                }
                let base = pick % standing;
                let id = table.len() as u64;
                let rule = derive(&table[base], how, id, prio);
                table.push(rule);
                ids.push(id);
                if pick % 2 == 0 {
                    ids.push(base as u64);
                }
            }
            (table, ids)
        })
}

/// Witness budgets: one that every search over these tiny value pools
/// fits, and one leaf — so some searches run dry and the blow-out has to
/// come out the same through both entries too.
fn arb_budget() -> impl Strategy<Value = usize> {
    prop_oneof![Just(400usize), Just(1usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `analyze_candidates(t, ids)` is `analyze(t)` restricted to `ids`:
    /// the same findings in the same order, the same witnesses, the same
    /// whole-table usage.
    #[test]
    fn candidate_scoped_analysis_is_the_whole_table_analysis_restricted(
        batch in arb_batch(),
        budget in arb_budget(),
    ) {
        let (table, ids) = batch;
        let whole = analyze_with_budget(&table, budget);
        let scoped = analyze_candidates_with_budget(&table, &ids, budget);
        let findings: Vec<_> = whole
            .findings
            .iter()
            .filter(|f| ids.contains(&f.rule))
            .copied()
            .collect();
        let witnesses: Vec<_> = whole
            .witnesses
            .iter()
            .filter(|(id, _)| ids.contains(id))
            .cloned()
            .collect();
        prop_assert_eq!(&scoped.findings, &findings);
        prop_assert_eq!(&scoped.witnesses, &witnesses);
        prop_assert_eq!(scoped.usage, whole.usage);
        // Asking about nothing (or only about absent ids) finds nothing.
        let none = analyze_candidates_with_budget(&table, &[1_000, 1_001], budget);
        prop_assert!(none.findings.is_empty() && none.witnesses.is_empty());
        prop_assert_eq!(none.usage, whole.usage);
    }

    /// Dead-flagged rules never win first-match for any sampled packet;
    /// live rules' witnesses demonstrably reach them through the real
    /// engine.
    #[test]
    fn flags_agree_with_engine_semantics(
        table in arb_table(),
        keys in proptest::collection::vec(arb_key(), 1..24),
    ) {
        let report = analyze(&table);
        let engine = FlowClassifier::compile(table.iter().map(|r| r.entry.clone()));
        for rule in &table {
            let id = rule.entry.id;
            if report.dead_flag(id).is_some() {
                // Shadowed / redundant / unreachable: no sampled packet
                // may ever reach this rule as first-match.
                for key in &keys {
                    prop_assert!(
                        engine.classify(key) != Some(id),
                        "dead-flagged rule {} was first-match",
                        id
                    );
                }
                prop_assert!(
                    report.witness(id).is_none(),
                    "dead rule {} also has a witness",
                    id
                );
            } else {
                // A budget blowout proves nothing either way; skip.
                if report
                    .findings
                    .iter()
                    .any(|f| f.rule == id && f.flag == RuleFlag::Unverified)
                {
                    continue;
                }
                // Live: the analyzer must hand us a first-match witness.
                let w = report.witness(id);
                prop_assert!(w.is_some(), "live rule {} has no witness", id);
                prop_assert!(
                    common::is_canonical(w.unwrap()),
                    "no packet produces the witness of rule {}",
                    id
                );
                prop_assert!(
                    engine.classify(w.unwrap()) == Some(id),
                    "witness does not reach rule {}",
                    id
                );
            }
            // The proof side agrees: among the rules ranked at or above
            // this one, deleting it changes some key iff it is live.
            let rank = |r: &AuditRule| (r.entry.priority, r.entry.id);
            let upto = |last: bool| -> Vec<AuditRule> {
                let keep = |r: &&AuditRule| rank(r) < rank(rule) || (last && rank(r) == rank(rule));
                table.iter().filter(keep).cloned().collect()
            };
            let same = tables_equivalent(
                &upto(true),
                &upto(false),
                &Domain::canonical(),
                DEFAULT_VERIFY_BUDGET,
            );
            prop_assert_eq!(
                same,
                Ok(report.dead_flag(id).is_some()),
                "verify disagrees about rule {}",
                id
            );
        }
    }

    /// A conflict flag means a genuine crossing overlap between two
    /// opposing-action rules, with the flagged rule the later-ranked one.
    #[test]
    fn conflicts_are_crossing_overlaps(table in arb_table()) {
        let report = analyze(&table);
        let by_id = |id: u64| table.iter().find(|r| r.entry.id == id).unwrap();
        for rule in &table {
            for with in report.conflicts_of(rule.entry.id) {
                let later = by_id(rule.entry.id);
                let earlier = by_id(with);
                prop_assert!(later.action.conflicts_with(&earlier.action));
                prop_assert!(
                    (earlier.entry.priority, earlier.entry.id)
                        < (later.entry.priority, later.entry.id)
                );
                prop_assert!(spec_intersects(&earlier.entry.spec, &later.entry.spec));
                prop_assert!(!spec_covers(&earlier.entry.spec, &later.entry.spec));
                prop_assert!(!spec_covers(&later.entry.spec, &earlier.entry.spec));
            }
        }
    }

    /// The pairwise relations agree with the matches() predicate on
    /// sampled keys: covers ⇒ superset, ¬intersects ⇒ disjoint.
    #[test]
    fn relations_agree_with_matches(
        a in arb_spec(),
        b in arb_spec(),
        keys in proptest::collection::vec(arb_key(), 1..32),
    ) {
        let covers = spec_covers(&a, &b);
        let intersects = spec_intersects(&a, &b);
        for key in &keys {
            if covers && b.matches(key) {
                prop_assert!(a.matches(key), "covers violated");
            }
            if !intersects {
                prop_assert!(
                    !(a.matches(key) && b.matches(key)),
                    "intersection missed"
                );
            }
        }
    }
}
