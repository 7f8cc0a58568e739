//! The proof ledger against sabotage: every test first runs a clean
//! quiet pass and an unchanged one — so the ledger holds a verdict for
//! every port and the stamps of a clean state — and then edits one state
//! owner *behind the system's back*. The next pass must see the edit,
//! which it can only do if that owner bumped its stamp; and it must
//! re-prove the ports the edit touched, not the fabric.
//!
//! (In these debug builds every pass is also compared with the same
//! obligations over an empty ledger — see `watchdog_check` — and every
//! id diff answered port by port with the full walk — see `id_diff`.)

use super::*;
use stellar_bgp::flowspec::{BitmaskOp, Component, NumericOp};
use stellar_bgp::types::Afi;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_sim::topology::generic_members;

const BASE_ASN: u32 = 64500;
const A: Asn = Asn(BASE_ASN);
const B: Asn = Asn(BASE_ASN + 1);
const C: Asn = Asn(BASE_ASN + 2);
/// Far enough past any activity below for the quiet-state invariants.
const QUIET_US: u64 = 3_600_000_000;

/// Host `h` inside member `m`'s /24 (`MemberSpec::generic`).
fn host(m: u32, h: u8) -> Prefix {
    Prefix::host(IpAddress::V4(Ipv4Address::new(131, m as u8, 0, h)))
}

fn udp_src(dst: Prefix, ports: &[u64]) -> FlowSpec {
    FlowSpec {
        afi: Afi::Ipv4,
        components: vec![
            Component::DstPrefix(dst),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(ports.iter().map(|&p| NumericOp::equals(p)).collect()),
        ],
    }
}

fn counter(sys: &StellarSystem, name: &str) -> u64 {
    sys.obs.registry.counter(name)
}

/// Pumps the queue dry from `from_us` on; returns the changes applied.
fn settle(sys: &mut StellarSystem, from_us: u64) -> usize {
    (0..100).map(|i| sys.pump(from_us + i * 10_000)).sum()
}

/// Six members over two PoPs. `A` signals two rules, `B` one, `C` two
/// FlowSpec NLRIs of one rule each; all installed, then one clean quiet
/// pass (three ports proven) and one unchanged pass.
fn cached() -> StellarSystem {
    let ixp = IxpTopology::build_with_pops(
        &generic_members(BASE_ASN, 6),
        HardwareInfoBase::lab_switch(),
        2,
    );
    let mut sys = StellarSystem::new(ixp, 1000.0);
    let ntp_dns = [
        StellarSignal::drop_udp_src(123),
        StellarSignal::drop_udp_src(53),
    ];
    sys.member_signal(A, host(0, 1), &ntp_dns, 0);
    sys.member_signal(B, host(1, 1), &ntp_dns[..1], 0);
    let drop = ExtendedCommunity::traffic_rate(C.0 as u16, 0.0);
    sys.member_flowspec(C, udp_src(host(2, 1), &[123]), &[drop], 0);
    sys.member_flowspec(C, udp_src(host(2, 1), &[53]), &[drop], 0);
    assert_eq!(settle(&mut sys, 0), 5);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 3);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 0);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 3);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 1);
    sys
}

fn port_of(sys: &StellarSystem, member: Asn) -> PortId {
    sys.ixp.members[&member].port
}

/// The details recorded under `invariant` so far.
fn details(sys: &StellarSystem, invariant: Invariant) -> Vec<&str> {
    sys.watchdog
        .violations()
        .iter()
        .filter(|v| v.invariant == invariant)
        .map(|v| v.detail.as_str())
        .collect()
}

#[test]
fn an_edit_touching_k_ports_reproves_exactly_k() {
    let mut sys = cached();
    // One port: B escalates to a second rule.
    let two = [
        StellarSignal::drop_udp_src(123),
        StellarSignal::drop_udp_src(53),
    ];
    sys.member_signal(B, host(1, 1), &two, 1_000_000);
    assert_eq!(settle(&mut sys, 1_000_000), 1);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 3 + 1);
    // Two ports: A withdraws, C adds an NLRI. A's port goes empty on
    // both sides and drops out of the proof altogether.
    sys.member_withdraw(A, host(0, 1), 2_000_000);
    let drop = ExtendedCommunity::traffic_rate(C.0 as u16, 0.0);
    sys.member_flowspec(C, udp_src(host(2, 1), &[389]), &[drop], 2_000_000);
    assert_eq!(settle(&mut sys, 2_000_000), 3);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 4 + 1);
    // And nothing at all once that pass was clean.
    let unchanged = counter(&sys, "watchdog.checks_unchanged");
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 5);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), unchanged + 1);
    assert!(sys.watchdog.is_clean());
}

#[test]
fn work_in_flight_is_never_answered_from_the_ledger() {
    let mut sys = cached();
    // Every stamp stands, but a change sits in the queue.
    let change = AbstractChange::RemoveRule {
        rule_id: 424_242,
        owner: B,
    };
    sys.queue.enqueue(change, 1_000_000);
    assert_eq!(sys.watchdog_check(QUIET_US), 1);
    assert_eq!(counter(&sys, "watchdog.violations.convergence"), 1);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 1);
}

#[test]
fn sabotage_a_controller_session_down_behind_the_systems_back() {
    let mut sys = cached();
    // Desired state dropped without queueing the removals: A's and B's
    // three hardware rules are orphans and nothing will ever converge.
    sys.controller.session_down();
    assert_eq!(sys.watchdog_check(QUIET_US), 4);
    assert_eq!(counter(&sys, "watchdog.violations.convergence"), 1);
    assert_eq!(counter(&sys, "watchdog.violations.orphan_rules"), 3);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 1);
}

#[test]
fn sabotage_b_hidden_rule_through_port_mut() {
    let mut sys = cached();
    let port = port_of(&sys, B);
    let hidden = FilterRule::new(9_999, MatchSpec::default(), Action::Drop, 1);
    sys.ixp
        .fabric
        .port_mut(port)
        .expect("B's port")
        .policy
        .install(hidden);
    let found = sys.watchdog_check(QUIET_US);
    assert!(found >= 3, "ledger + convergence + orphan, got {found}");
    // Neither the fabric's own books nor the manager's know the rule.
    assert_eq!(counter(&sys, "watchdog.violations.ledger_conservation"), 2);
    assert_eq!(
        details(&sys, Invariant::OrphanRule),
        ["rule_id=9999 has no desired-state owner"]
    );
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 1);
}

#[test]
fn sabotage_b_same_id_retune_through_port_mut() {
    let mut sys = cached();
    let port = port_of(&sys, B);
    let live = sys.ixp.fabric.port(port).expect("B's port").policy.rules()[0].clone();
    // Same id, same action, every packet matched: the rule counts and id
    // sets still agree, only the policy's generation says it moved.
    let widened = FilterRule::new(live.id, MatchSpec::default(), live.action, live.priority);
    sys.ixp
        .fabric
        .port_mut(port)
        .expect("B's port")
        .policy
        .install(widened);
    assert_eq!(sys.watchdog_check(QUIET_US), 1);
    assert_eq!(counter(&sys, "watchdog.violations.placement_sound"), 1);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 3 + 1);
}

#[test]
fn sabotage_c_fabric_restart_behind_the_systems_back() {
    let mut sys = cached();
    assert_eq!(sys.ixp.fabric.restart(1_000_000), 5);
    assert!(sys.watchdog_check(QUIET_US) >= 1);
    assert_eq!(counter(&sys, "watchdog.violations.convergence"), 1);
    assert_eq!(counter(&sys, "watchdog.violations.orphan_rules"), 0);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 1);
}

#[test]
fn sabotage_d_degrade_in_desired_state_only_reproves_that_port_only() {
    let mut sys = cached();
    let rule = sys.controller.desired_rules()[0].clone();
    assert_eq!(rule.owner, A);
    // Same id, coarser spec: the id sets still agree, so only the
    // semantic proof can see it — and only A's port is stale.
    assert!(matches!(
        sys.controller.degrade_rule(rule.id),
        DegradeOutcome::Degraded(_)
    ));
    assert_eq!(sys.watchdog_check(QUIET_US), 1);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 3 + 1);
    let port = port_of(&sys, A);
    let placement = details(&sys, Invariant::PlacementSound);
    assert_eq!(placement.len(), 1);
    assert!(
        placement[0].starts_with(&format!("port={} ", port.0)),
        "{placement:?}"
    );
    // A mismatching port is never cached, and the violation emptied the
    // ledger: the next pass is a full one and is just as loud.
    assert_eq!(sys.watchdog_check(QUIET_US), 1);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 4 + 3);
    assert_eq!(counter(&sys, "watchdog.violations.placement_sound"), 2);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 1);
}

#[test]
fn sabotage_e_flowspec_withdraw_without_queueing_the_removal() {
    let mut sys = cached();
    let removals = sys.flowspec.withdraw(C, &udp_src(host(2, 1), &[53]));
    let [AbstractChange::RemoveRule { rule_id, owner: C }] = removals[..] else {
        panic!("one lowered rule of C's, got {removals:?}");
    };
    assert_eq!(sys.watchdog_check(QUIET_US), 2);
    assert_eq!(counter(&sys, "watchdog.violations.convergence"), 1);
    // That rule only: C's other NLRI and the other ports stay wanted.
    assert_eq!(
        details(&sys, Invariant::OrphanRule),
        [format!("rule_id={rule_id} has no desired-state owner")]
    );
    assert_eq!(counter(&sys, "watchdog.violations.placement_sound"), 0);
    assert_eq!(counter(&sys, "watchdog.checks_unchanged"), 1);
}

/// A FlowSpec withdrawal as the member's session would carry it.
fn unreach(flow: FlowSpec) -> UpdateMessage {
    UpdateMessage {
        withdrawn: vec![],
        attrs: vec![PathAttribute::MpUnreachFlowSpec {
            afi: Afi::Ipv4,
            nlri: vec![flow],
        }],
        nlri: vec![],
    }
}

#[test]
fn sabotage_f_rib_entry_withdrawn_behind_the_planes_back() {
    let mut sys = cached();
    let drop = ExtendedCommunity::traffic_rate(B.0 as u16, 0.0);
    sys.member_flowspec(B, udp_src(host(1, 2), &[19]), &[drop], 1_000_000);
    assert_eq!(settle(&mut sys, 1_000_000), 1);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    // Both sides stand: nothing is looked up.
    let mut ledger = std::mem::take(&mut sys.ledger);
    assert_eq!(sys.check_rib_plane(&mut ledger).probed, 0);
    // The route server drops one of C's NLRIs; the plane keeps its rule.
    let out = sys
        .ixp
        .route_server
        .handle_flowspec_update(C, &unreach(udp_src(host(2, 1), &[53])));
    assert_eq!(out.withdrawn.len(), 1);
    // C's two keys are looked up again, B's one is not.
    let check = sys.check_rib_plane(&mut ledger);
    assert_eq!(check.probed, 2);
    assert_eq!(check.found.len(), 1);
    // Never cached: as loud on the next pass, whatever the ledger holds.
    assert_eq!(sys.check_rib_plane(&mut ledger).probed, 2);
    sys.ledger = ledger;
    assert_eq!(sys.watchdog_check(QUIET_US), 1);
    assert_eq!(
        details(&sys, Invariant::RibPlaneConsistency),
        [format!("plane key owner={} absent from rib", C.0)]
    );
}

#[test]
fn sabotage_g_port_flushed_between_two_manager_applies() {
    let mut sys = cached();
    assert!(sys.reconcile(1_000_000).is_clean());
    assert_eq!(sys.ledger.ids.len(), 3);
    // A's two rules vanish, then the manager goes on applying B's next
    // signal: the fabric's version moved twice, once not by the manager.
    assert_eq!(sys.ixp.fabric.flush_port(port_of(&sys, A), 2_000_000), 2);
    let two = [
        StellarSignal::drop_udp_src(123),
        StellarSignal::drop_udp_src(53),
    ];
    sys.member_signal(B, host(1, 1), &two, 2_000_000);
    assert_eq!(settle(&mut sys, 2_000_000), 1);
    assert!(!sys.is_converged());
    let report = sys.reconcile(3_000_000);
    assert_eq!((report.pruned, report.adds, report.removes), (2, 2, 0));
    assert_eq!(settle(&mut sys, 3_000_000), 2);
    assert!(sys.reconcile(4_000_000).is_clean());
    // A restart takes everything, whoever installed it.
    assert_eq!(sys.ixp.fabric.restart(5_000_000), 6);
    let report = sys.reconcile(5_000_000);
    assert_eq!((report.pruned, report.adds, report.removes), (6, 6, 0));
}

#[test]
fn sabotage_h_rule_removed_through_router_mut() {
    let mut sys = cached();
    assert!(sys.reconcile(1_000_000).is_clean());
    let port = port_of(&sys, B);
    let rule_id = sys.ixp.fabric.port(port).expect("B's port").policy.rules()[0].id;
    let pop = sys.ixp.fabric.pop_of_port(port).expect("B's PoP");
    let router = sys.ixp.fabric.router_mut(pop).expect("B's router");
    assert!(router.remove_rule(port, rule_id, 2_000_000));
    // The manager applied nothing since, and still finds it gone.
    assert_eq!(sys.manager.prune_vanished(&sys.ixp.fabric), [rule_id]);
    assert!(!sys.is_converged());
    let report = sys.reconcile(2_000_000);
    assert_eq!((report.pruned, report.adds, report.removes), (0, 1, 0));
}

#[test]
fn sabotage_i_same_count_other_id_through_port_mut() {
    let mut sys = cached();
    assert!(sys.reconcile(1_000_000).is_clean());
    let port = port_of(&sys, B);
    let policy = &mut sys.ixp.fabric.port_mut(port).expect("B's port").policy;
    let live = policy.rules()[0].clone();
    // As many rules everywhere as before, one of them under another id.
    assert!(policy.remove(live.id));
    policy.install(FilterRule::new(
        9_999,
        live.spec,
        live.action,
        live.priority,
    ));
    assert!(!sys.is_converged());
    let report = sys.reconcile(2_000_000);
    assert_eq!((report.adds, report.removes), (1, 1));
}

#[test]
fn changes_applied_around_pump_leave_every_verdict_right() {
    let mut sys = cached();
    assert!(sys.reconcile(1_000_000).is_clean());
    // The benchmark's staged driver: dequeue and apply by hand.
    let staged = |sys: &mut StellarSystem, now_us: u64| {
        for qc in sys.queue.dequeue_ready_queued(now_us) {
            let applied = sys.manager.apply(&mut sys.ixp.fabric, &qc.change, now_us);
            assert_eq!(applied, Ok(()));
        }
    };
    let drop = ExtendedCommunity::traffic_rate(C.0 as u16, 0.0);
    sys.member_flowspec(C, udp_src(host(2, 1), &[389]), &[drop], 2_000_000);
    sys.member_withdraw(A, host(0, 1), 2_000_000);
    assert!(!sys.is_converged());
    staged(&mut sys, 2_000_000);
    assert!(sys.is_converged());
    assert!(sys.reconcile(3_000_000).is_clean());
    assert_eq!(sys.manager.prune_vanished(&sys.ixp.fabric), [0u64; 0]);
    // C's port re-proven; A's holds nothing and wants nothing.
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 3 + 1);
    sys.member_flowspec_withdraw(C, udp_src(host(2, 1), &[389]), 4_000_000);
    staged(&mut sys, 4_000_000);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), 4 + 1);
    assert!(sys.watchdog.is_clean());
}

#[test]
fn a_reconcile_repair_and_an_injected_fault_empty_the_ledger() {
    let mut sys = cached();
    sys.ixp.fabric.restart(1_000_000);
    assert!(!sys.reconcile(1_000_000).is_clean());
    assert!(sys.ledger.proven.is_empty() && sys.ledger.clean_at.is_none());
    // Pumped back in: a full proof, not three cached verdicts.
    assert_eq!(settle(&mut sys, 1_000_000), 5);
    let before = counter(&sys, "verify.placement.ports_checked");
    sys.watchdog_check(QUIET_US);
    assert_eq!(counter(&sys, "verify.placement.ports_checked"), before + 3);
    assert_eq!(sys.ledger.proven.len(), 3);

    sys.inject_faults(crate::faults::FaultPlan::scripted(vec![FaultEvent {
        at_us: QUIET_US,
        kind: FaultKind::FlowSpecCorrupt { peer: B, salt: 1 },
    }]));
    sys.pump(QUIET_US);
    assert!(sys.ledger.proven.is_empty() && sys.ledger.clean_at.is_none());
}

#[test]
fn unverifiable_lowering_is_admitted_but_counted_and_named() {
    let mut sys = cached();
    assert_eq!(counter(&sys, "verify.lowering.unverified"), 0);
    // SYN set (128 flag bytes) × any fragment bit (15) × three lengths:
    // 12 lowered specs, but 5 760 oracle rules — past `MAX_ORACLE_RULES`,
    // so obligation (a) ends without a verdict.
    let flow = FlowSpec {
        afi: Afi::Ipv4,
        components: vec![
            Component::DstPrefix(host(3, 1)),
            Component::IpProtocol(vec![NumericOp::equals(6)]),
            Component::TcpFlags(vec![BitmaskOp::new(false, false, true, 0x02)]),
            Component::PacketLength(vec![
                NumericOp::equals(40),
                NumericOp::equals(60),
                NumericOp::equals(80),
            ]),
            Component::Fragment(vec![BitmaskOp::new(false, false, false, 0x0F)]),
        ],
    };
    let member = Asn(BASE_ASN + 3);
    let drop = ExtendedCommunity::traffic_rate(member.0 as u16, 0.0);
    let out = sys.member_flowspec(member, flow, &[drop], 5_000_000);
    assert!(out.lowering_errors.is_empty(), "{:?}", out.lowering_errors);
    assert_eq!(out.queued_changes, 12);
    assert_eq!(counter(&sys, "verify.lowering.unverified"), 1);
    let event = sys
        .obs
        .recorder
        .events()
        .find(|e| e.kind == "verify.lowering.unverified")
        .expect("the flight recorder names it");
    let ids: Vec<String> = sys
        .flowspec
        .desired_rules_of(member)
        .map(|r| r.id.to_string())
        .collect();
    assert_eq!(
        event.fields,
        [
            ("reason".to_string(), "oracle-too-large".to_string()),
            ("rule_ids".to_string(), ids.join(",")),
        ]
    );
    // A provable lowering leaves the counter alone.
    let drop = ExtendedCommunity::traffic_rate(B.0 as u16, 0.0);
    sys.member_flowspec(B, udp_src(host(1, 2), &[19]), &[drop], 6_000_000);
    assert_eq!(counter(&sys, "verify.lowering.unverified"), 1);
}
