//! Property tests for the exact semantic algebra: `verify::diff_tables`
//! is cross-checked against a brute-force oracle that enumerates every
//! canonical flow key of a shrunken domain and evaluates both tables
//! with the reference first-match evaluator.
//!
//! Checked per generated table pair:
//!
//! - `differing_keys` equals the enumerated disagreement count exactly;
//! - each region's `keys` equals the enumerated count of its
//!   `(outcome_a, outcome_b)` class, and the region list is complete;
//! - each region's witness really evaluates to `(outcome_a, outcome_b)`
//!   under `MatchSpec::matches` first-match semantics;
//! - `tables_equivalent` agrees with the oracle;
//! - `drop_not_contained` returns `None` iff the enumerated drop set of
//!   A is a subset of B's, and a valid counterexample otherwise.
//!
//! The pools are deliberately tiny (2 protocols, 4 addresses per side,
//! 4 ports, one varying TCP-flag bit) so the whole domain enumerates in
//! ~3k keys and coverage relations actually occur.

mod common;

use common::{enumerate_keys, tiny, TCP, UDP};
use proptest::prelude::*;
use std::collections::BTreeMap;
use stellar_classify::spec::BitsMatch;
use stellar_classify::verify::{
    diff_tables, drop_not_contained, eval_table, tables_equivalent, Outcome, DEFAULT_VERIFY_BUDGET,
};
use stellar_classify::{ActionClass, AuditRule, MatchSpec, PortMatch, RuleEntry};
use stellar_net::addr::Ipv4Address;
use stellar_net::flow::FlowKey;
use stellar_net::prefix::{Ipv4Prefix, Prefix};
use stellar_net::proto::IpProtocol;

fn src_prefix(host: u8, len: u8) -> Prefix {
    Prefix::V4(Ipv4Prefix::new(Ipv4Address::new(10, 0, 0, host), len).unwrap())
}

fn dst_prefix(host: u8, len: u8) -> Prefix {
    Prefix::V4(Ipv4Prefix::new(Ipv4Address::new(10, 0, 1, host), len).unwrap())
}

/// `Some` one draw in three (the vendored shim's `option::of` is a
/// fixed 3-in-4 `Some`, too dense for multi-field specs).
fn sparse<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u32..3, inner).prop_map(|(w, v)| (w == 0).then_some(v))
}

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        sparse((0u8..4, prop_oneof![Just(30u8), Just(31), Just(32)])),
        sparse((0u8..4, prop_oneof![Just(30u8), Just(31), Just(32)])),
        sparse(prop_oneof![Just(IpProtocol(UDP)), Just(IpProtocol(TCP))]),
        sparse(prop_oneof![
            (0u16..4).prop_map(PortMatch::Exact),
            (0u16..4, 0u16..4).prop_map(|(a, b)| PortMatch::Range(a.min(b), a.max(b))),
        ]),
        sparse((0u16..4).prop_map(PortMatch::Exact)),
        sparse(prop_oneof![
            Just(BitsMatch::all_of(0x02)),
            Just(BitsMatch::none_of(0x02)),
        ]),
    )
        .prop_map(|(sip, dip, proto, sp, dp, tf)| MatchSpec {
            src_ip: sip.map(|(h, l)| src_prefix(h, l)),
            dst_ip: dip.map(|(h, l)| dst_prefix(h, l)),
            protocol: proto,
            src_port: sp,
            dst_port: dp,
            tcp_flags: tf,
            ..Default::default()
        })
}

fn arb_action() -> impl Strategy<Value = ActionClass> {
    prop_oneof![
        Just(ActionClass::Drop),
        Just(ActionClass::Shape { rate_bps: 1_000 }),
        Just(ActionClass::Forward),
    ]
}

fn arb_table(id_base: u64) -> impl Strategy<Value = Vec<AuditRule>> {
    proptest::collection::vec((arb_spec(), arb_action(), 0u16..3), 0..5).prop_map(move |rules| {
        rules
            .into_iter()
            .enumerate()
            .map(|(i, (spec, action, prio))| {
                AuditRule::new(RuleEntry::new(id_base + i as u64, prio, spec), action)
            })
            .collect()
    })
}

/// The brute-force oracle: disagreement counts per (outcome_a,
/// outcome_b) class plus the total, by full enumeration.
fn brute_diff(
    a: &[AuditRule],
    b: &[AuditRule],
    keys: &[FlowKey],
) -> (BTreeMap<(Outcome, Outcome), u128>, u128) {
    let mut classes: BTreeMap<(Outcome, Outcome), u128> = BTreeMap::new();
    let mut total = 0u128;
    for key in keys {
        let oa = eval_table(a, key);
        let ob = eval_table(b, key);
        if oa != ob {
            *classes.entry((oa, ob)).or_default() += 1;
            total += 1;
        }
    }
    (classes, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diff_matches_brute_force_enumeration(
        a in arb_table(1),
        b in arb_table(100),
    ) {
        let dom = tiny();
        let keys = enumerate_keys(&dom);
        prop_assert_eq!(dom.size(), keys.len() as u128);
        let (classes, total) = brute_diff(&a, &b, &keys);
        let diff = diff_tables(&a, &b, &dom, DEFAULT_VERIFY_BUDGET).expect("within budget");

        // Exact total and exact per-class cardinality, both directions.
        prop_assert_eq!(diff.differing_keys, total);
        prop_assert_eq!(diff.regions.len(), classes.len());
        for region in &diff.regions {
            let brute = classes.get(&(region.outcome_a, region.outcome_b)).copied();
            prop_assert_eq!(brute, Some(region.keys));
            // The witness is a real key of the class.
            prop_assert_eq!(eval_table(&a, &region.witness), region.outcome_a);
            prop_assert_eq!(eval_table(&b, &region.witness), region.outcome_b);
        }
        let region_sum: u128 = diff.regions.iter().map(|r| r.keys).sum();
        prop_assert_eq!(region_sum, total);
    }

    #[test]
    fn equivalence_matches_brute_force(
        a in arb_table(1),
        b in arb_table(100),
    ) {
        let dom = tiny();
        let keys = enumerate_keys(&dom);
        let (_, total) = brute_diff(&a, &b, &keys);
        let eq = tables_equivalent(&a, &b, &dom, DEFAULT_VERIFY_BUDGET).expect("within budget");
        prop_assert_eq!(eq, total == 0);
    }

    #[test]
    fn containment_matches_brute_force(
        a in arb_table(1),
        b in arb_table(100),
    ) {
        let dom = tiny();
        let keys = enumerate_keys(&dom);
        let brute_escape = keys.iter().find(|k| {
            eval_table(&a, k) == Outcome::Drop && eval_table(&b, k) != Outcome::Drop
        });
        let report = drop_not_contained(&a, &b, &dom, DEFAULT_VERIFY_BUDGET)
            .expect("within budget");
        match (brute_escape, report) {
            (None, None) => {}
            (Some(_), Some(region)) => {
                // The algebra's counterexample must be genuine.
                prop_assert_eq!(eval_table(&a, &region.witness), Outcome::Drop);
                prop_assert_ne!(eval_table(&b, &region.witness), Outcome::Drop);
                prop_assert!(region.keys > 0);
            }
            (brute, algebra) => {
                return Err(TestCaseError::fail(format!(
                    "containment disagreement: brute={brute:?} algebra={algebra:?}"
                )));
            }
        }
    }

    #[test]
    fn permuting_rule_order_of_disjoint_priorities_is_detected_or_equal(
        table in arb_table(1),
    ) {
        // Reversing a table is either proven equivalent or every
        // reported difference is witness-backed — never a silent wrong
        // answer. (This is the shadow-reorder fixture generalized.)
        let dom = tiny();
        let keys = enumerate_keys(&dom);
        let mut reversed = table.clone();
        reversed.reverse();
        // Re-id ascending so evaluation rank genuinely flips for rules
        // sharing a priority (rank is (priority, id), not vec order).
        for (i, r) in reversed.iter_mut().enumerate() {
            r.entry.id = i as u64 + 1;
        }
        let (_, total) = brute_diff(&table, &reversed, &keys);
        let diff = diff_tables(&table, &reversed, &dom, DEFAULT_VERIFY_BUDGET)
            .expect("within budget");
        prop_assert_eq!(diff.differing_keys, total);
    }
}
