//! Property tests for Stellar's core invariants:
//! - the signaling grammar round-trips through extended communities,
//! - compiled match specs always scope to the victim,
//! - the controller's diffing is idempotent and convergent,
//! - the configuration queue preserves FIFO order and loses nothing.

use proptest::prelude::*;
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::nlri::Nlri;
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_core::config_queue::ConfigChangeQueue;
use stellar_core::controller::{AbstractChange, BlackholingController};
use stellar_core::rule::RuleAction;
use stellar_core::signal::{MatchKind, StellarSignal};
use stellar_net::addr::Ipv4Address;
use stellar_net::prefix::{Ipv4Prefix, Prefix};

const IXP: Asn = Asn(6695);

fn arb_kind() -> impl Strategy<Value = MatchKind> {
    (1u8..=8).prop_map(|v| MatchKind::from_value(v).unwrap())
}

fn arb_action() -> impl Strategy<Value = RuleAction> {
    prop_oneof![
        Just(RuleAction::Drop),
        // Rates on the 10 Mbps grid the wire encoding supports.
        (1u64..=250).prop_map(|k| RuleAction::Shape {
            rate_bps: k * 10_000_000
        }),
    ]
}

fn arb_signal() -> impl Strategy<Value = StellarSignal> {
    (arb_kind(), any::<u16>(), arb_action()).prop_map(|(kind, port, action)| StellarSignal {
        kind,
        port,
        action,
    })
}

fn arb_victim() -> impl Strategy<Value = Prefix> {
    any::<[u8; 4]>().prop_map(|o| Prefix::V4(Ipv4Prefix::host(Ipv4Address(o))))
}

fn update_with(signals: &[StellarSignal], victim: Prefix, path_id: u32) -> UpdateMessage {
    let mut u = UpdateMessage::announce(
        victim,
        Ipv4Address::new(80, 81, 192, 1),
        PathAttribute::AsPath(AsPath::sequence([64500])),
    );
    u.nlri = vec![Nlri::with_path_id(victim, path_id)];
    let ecs: Vec<_> = signals.iter().map(|s| s.encode(IXP)).collect();
    if !ecs.is_empty() {
        u.add_extended_communities(&ecs);
    }
    u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn signal_round_trips_through_extended_community(sig in arb_signal()) {
        let dec = StellarSignal::decode(&sig.encode(IXP), IXP).unwrap();
        prop_assert_eq!(dec, sig);
    }

    #[test]
    fn signal_is_namespace_scoped(sig in arb_signal(), other_asn in 1u32..65000) {
        prop_assume!(other_asn != IXP.0);
        let ec = sig.encode(IXP);
        prop_assert_eq!(StellarSignal::decode(&ec, Asn(other_asn)), None);
    }

    #[test]
    fn match_spec_always_scopes_to_victim(sig in arb_signal(), victim in arb_victim()) {
        let spec = sig.to_match_spec(victim);
        prop_assert_eq!(spec.dst_ip, Some(victim));
        // A blackholing rule always consumes at least the dst-ip
        // criterion and never MAC criteria (controller-issued rules are
        // L3/L4 only).
        prop_assert!(spec.l34_criteria() >= 1);
        prop_assert_eq!(spec.mac_criteria(), 0);
    }

    #[test]
    fn controller_converges_and_is_idempotent(
        sigs in proptest::collection::btree_set(arb_signal(), 0..5),
        victim in arb_victim(),
    ) {
        // Keep only signals that survive the wire (Predefined entries
        // resolve through the catalog and may vanish), so the desired
        // state is well-defined.
        let sigs: Vec<StellarSignal> = sigs
            .into_iter()
            .filter(|s| s.kind != MatchKind::Predefined)
            .collect();
        let mut ctl = BlackholingController::new(IXP);
        let u = update_with(&sigs, victim, 1);
        let first = ctl.process_update(&u);
        prop_assert_eq!(first.len(), sigs.len());
        prop_assert_eq!(ctl.rule_count(), sigs.len());
        // Same announcement again: no churn.
        let second = ctl.process_update(&u);
        prop_assert!(second.is_empty(), "controller not idempotent: {second:?}");
        // Withdrawal drains everything.
        let w = UpdateMessage {
            withdrawn: vec![Nlri::with_path_id(victim, 1)],
            ..Default::default()
        };
        let removed = ctl.process_update(&w);
        prop_assert_eq!(removed.len(), sigs.len());
        prop_assert_eq!(ctl.rule_count(), 0);
    }

    #[test]
    fn controller_diff_is_minimal(
        before in proptest::collection::btree_set(arb_signal(), 0..5),
        after in proptest::collection::btree_set(arb_signal(), 0..5),
        victim in arb_victim(),
    ) {
        let clean = |s: std::collections::BTreeSet<StellarSignal>| -> Vec<StellarSignal> {
            s.into_iter().filter(|x| x.kind != MatchKind::Predefined).collect()
        };
        let before = clean(before);
        let after = clean(after);
        let mut ctl = BlackholingController::new(IXP);
        ctl.process_update(&update_with(&before, victim, 1));
        let changes = ctl.process_update(&update_with(&after, victim, 1));
        let adds = changes.iter().filter(|c| matches!(c, AbstractChange::AddRule(_))).count();
        let removes = changes.iter().filter(|c| matches!(c, AbstractChange::RemoveRule { .. })).count();
        let expected_adds = after.iter().filter(|s| !before.contains(s)).count();
        let expected_removes = before.iter().filter(|s| !after.contains(s)).count();
        prop_assert_eq!(adds, expected_adds);
        prop_assert_eq!(removes, expected_removes);
        prop_assert_eq!(ctl.rule_count(), after.len());
    }

    #[test]
    fn config_queue_is_fifo_and_lossless(
        arrivals in proptest::collection::vec(0u64..10_000_000, 1..60),
        rate_x10 in 5u64..100,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let mut q = ConfigChangeQueue::new(rate_x10 as f64 / 10.0, 2);
        for (i, at) in arrivals.iter().enumerate() {
            q.enqueue(
                AbstractChange::RemoveRule { rule_id: i as u64, owner: Asn(1) },
                *at,
            );
        }
        // Pump far enough into the future that everything drains.
        let mut got = Vec::new();
        let mut t = *arrivals.last().unwrap();
        let mut guard = 0;
        while got.len() < arrivals.len() {
            got.extend(q.dequeue_ready_queued(t).into_iter().map(|qc| (qc, t)));
            t += 1_000_000;
            guard += 1;
            prop_assert!(guard < 10_000, "queue did not drain");
        }
        prop_assert_eq!(q.backlog(), 0);
        // FIFO: rule ids come out in enqueue order.
        let ids: Vec<u64> = got
            .iter()
            .map(|(qc, _)| match qc.change {
                AbstractChange::RemoveRule { rule_id, .. } => rule_id,
                _ => unreachable!(),
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ids, sorted);
        // No change leaves before it arrived.
        for (qc, dequeued_us) in &got {
            prop_assert!(qc.enqueued_us <= *dequeued_us);
        }
    }
}
