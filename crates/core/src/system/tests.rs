//! The facade end to end: signals and FlowSpec rules from announcement
//! to dropped bytes, audit refusals, fault classes and the watchdog.

use super::*;
use crate::faults::{DeadLetter, FaultEvent, FaultKind};
use crate::manager::AdmissionError;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::Prefix;
use stellar_net::proto::IpProtocol;
use stellar_sim::topology::generic_members;

/// Ten generic members; 64500 owns 131.0.0.0/24 behind a 1 Gbps port.
fn system() -> StellarSystem {
    let mut specs = generic_members(64500, 10);
    specs[0].capacity_bps = 1_000_000_000;
    let ixp = IxpTopology::build(&specs, HardwareInfoBase::lab_switch());
    StellarSystem::new(ixp, 100.0)
}

fn victim_addr() -> Ipv4Address {
    Ipv4Address::new(131, 0, 0, 10)
}

fn victim() -> Prefix {
    Prefix::host(IpAddress::V4(victim_addr()))
}

fn ntp_offer(bytes: u64) -> OfferedAggregate {
    OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(64505, 1),
            dst_mac: MacAddr::for_member(64500, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
            dst_ip: IpAddress::V4(victim_addr()),
            protocol: IpProtocol::UDP,
            src_port: 123,
            dst_port: 40000,
            ..FlowKey::default()
        },
        bytes,
        packets: bytes / 1400 + 1,
    }
}

#[test]
fn end_to_end_signal_installs_rule_and_drops_attack() {
    let mut sys = system();
    let out = sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
    assert!(out.rejections.is_empty(), "{:?}", out.rejections);
    assert_eq!(out.queued_changes, 1);
    assert_eq!(sys.active_rules(), 0); // not yet pumped
    assert_eq!(sys.pump(0), 1);
    assert_eq!(sys.active_rules(), 1);

    let results = sys.traffic_tick(&[ntp_offer(1_000_000)], 1_000_000, 1_000_000);
    let port = sys.ixp.member(Asn(64500)).unwrap().port;
    assert_eq!(results[&port].counters.dropped_bytes, 1_000_000);
    assert_eq!(results[&port].counters.forwarded_bytes, 0);

    // Telemetry shows the discarded volume.
    let t = sys.telemetry(&[1]);
    assert_eq!(t[0].discarded_bytes, 1_000_000);
}

#[test]
fn withdraw_removes_rule_and_traffic_flows_again() {
    let mut sys = system();
    sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 1);
    let out = sys.member_withdraw(Asn(64500), victim(), 1_000_000);
    assert_eq!(out.queued_changes, 1);
    sys.pump(1_000_000);
    assert_eq!(sys.active_rules(), 0);
    let results = sys.traffic_tick(&[ntp_offer(500)], 2_000_000, 1_000_000);
    let port = sys.ixp.member(Asn(64500)).unwrap().port;
    assert_eq!(results[&port].counters.forwarded_bytes, 500);
}

#[test]
fn signal_for_unowned_prefix_is_rejected() {
    let mut sys = system();
    // 64501 does not own 131.0.0.0/24.
    let out = sys.member_signal(Asn(64501), victim(), &[StellarSignal::drop_udp_src(123)], 0);
    assert_eq!(out.queued_changes, 0);
    assert!(!out.rejections.is_empty());
    sys.pump(0);
    assert_eq!(sys.active_rules(), 0);
}

#[test]
fn queue_rate_limits_installation() {
    let mut sys = system();
    // Signal five distinct rules at t=0 with a slow queue.
    sys.queue = ConfigChangeQueue::production(1.0); // 1/s, MBS 2
    let signals: Vec<StellarSignal> = [123u16, 53, 389, 11211, 19]
        .iter()
        .map(|p| StellarSignal::drop_udp_src(*p))
        .collect();
    let out = sys.member_signal(Asn(64500), victim(), &signals, 0);
    assert_eq!(out.queued_changes, 5);
    assert_eq!(sys.pump(0), 2); // MBS
    assert_eq!(sys.pump(1_000_000), 1);
    assert_eq!(sys.pump(2_000_000), 1);
    assert_eq!(sys.pump(3_000_000), 1);
    assert_eq!(sys.active_rules(), 5);
}

#[test]
fn shadowed_signal_is_refused_by_the_audit() {
    let mut sys = system();
    sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_all()], 0);
    assert_eq!(sys.pump(0), 1);
    // Escalating to a port-scoped drop on top of drop-all: the new
    // rule can never be first-match and is refused at signal time.
    let out = sys.member_signal(
        Asn(64500),
        victim(),
        &[StellarSignal::drop_all(), StellarSignal::drop_udp_src(123)],
        1,
    );
    assert_eq!(out.queued_changes, 0);
    assert_eq!(
        out.audit_rejections,
        vec![(2, crate::audit::AuditRejection::Shadowed { by: Some(1) })]
    );
    assert_eq!(sys.obs.registry.counter("analyze.rejected_shadowed"), 1);
    assert_eq!(sys.obs.registry.counter("analyze.rejected_conflict"), 0);
    sys.pump(1);
    assert_eq!(sys.active_rules(), 1);
    // Desired state dropped the refused rule: the system is converged
    // and the reconciler will not resurrect it.
    assert!(sys.is_converged());
    assert!(sys.reconcile(2).is_clean());
}

#[test]
fn conflicting_signal_is_refused_by_the_audit() {
    let mut sys = system();
    sys.member_signal(
        Asn(64500),
        victim(),
        &[StellarSignal::shape_udp_src(123, 200)],
        0,
    );
    sys.pump(0);
    // A drop on UDP *dst* 80 crosses the installed shape on UDP src
    // 123 (packets with src 123 AND dst 80 hit both; each rule also
    // matches traffic the other misses): refused as a conflict.
    let drop_dst = crate::signal::StellarSignal {
        kind: crate::signal::MatchKind::UdpDstPort,
        port: 80,
        action: crate::rule::RuleAction::Drop,
    };
    let out = sys.member_signal(
        Asn(64500),
        victim(),
        &[StellarSignal::shape_udp_src(123, 200), drop_dst],
        1,
    );
    assert_eq!(out.queued_changes, 0);
    assert_eq!(
        out.audit_rejections,
        vec![(2, crate::audit::AuditRejection::Conflict { with: 1 })]
    );
    assert_eq!(sys.obs.registry.counter("analyze.rejected_conflict"), 1);
    sys.pump(1);
    assert_eq!(sys.active_rules(), 1);
}

#[test]
fn disjoint_signals_pass_the_audit_with_preadmit_accounting() {
    let mut sys = system();
    let out = sys.member_signal(
        Asn(64500),
        victim(),
        &[
            StellarSignal::drop_udp_src(123),
            StellarSignal::drop_udp_src(53),
        ],
        0,
    );
    assert_eq!(out.queued_changes, 2);
    assert!(out.audit_rejections.is_empty());
    assert_eq!(sys.obs.registry.counter("analyze.preadmit.batches"), 1);
    // Two victim-scoped UDP-src rules: 3 L3-L4 criteria each.
    assert_eq!(sys.obs.registry.counter("analyze.preadmit.l34_needed"), 6);
    assert_eq!(
        sys.obs.registry.counter("analyze.preadmit.would_exhaust"),
        0
    );
    sys.pump(0);
    assert_eq!(sys.active_rules(), 2);
}

fn fs_flow() -> FlowSpec {
    use stellar_bgp::flowspec::{Component, NumericOp};
    // Components in ascending type order, as the wire wants.
    FlowSpec {
        afi: stellar_bgp::types::Afi::Ipv4,
        components: vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(123)]),
        ],
    }
}

#[test]
fn end_to_end_flowspec_installs_rule_and_drops_attack() {
    let mut sys = system();
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    let out = sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
    assert!(out.rejections.is_empty(), "{:?}", out.rejections);
    assert!(out.lowering_errors.is_empty(), "{:?}", out.lowering_errors);
    assert!(out.audit_rejections.is_empty());
    assert_eq!(out.queued_changes, 1);
    assert_eq!(sys.obs.registry.counter("flowspec.accepted"), 1);
    assert_eq!(sys.pump(0), 1);
    assert_eq!(sys.active_rules(), 1);
    assert!(sys.is_converged());

    let results = sys.traffic_tick(&[ntp_offer(1_000_000)], 1_000_000, 1_000_000);
    let port = sys.ixp.member(Asn(64500)).unwrap().port;
    assert_eq!(results[&port].counters.dropped_bytes, 1_000_000);
    assert_eq!(results[&port].counters.forwarded_bytes, 0);
}

#[test]
fn flowspec_from_non_owner_is_rejected() {
    let mut sys = system();
    let drop = ExtendedCommunity::traffic_rate(64501, 0.0);
    // 64501 does not own 131.0.0.0/24.
    let out = sys.member_flowspec(Asn(64501), fs_flow(), &[drop], 0);
    assert_eq!(out.queued_changes, 0);
    assert_eq!(out.rejections.len(), 1);
    assert_eq!(sys.obs.registry.counter("flowspec.rejected_validation"), 1);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 0);
}

#[test]
fn flowspec_withdraw_removes_lowered_rules() {
    let mut sys = system();
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 1);
    let out = sys.member_flowspec_withdraw(Asn(64500), fs_flow(), 1_000_000);
    assert_eq!(out.queued_changes, 1);
    sys.pump(1_000_000);
    assert_eq!(sys.active_rules(), 0);
    assert!(sys.is_converged());
}

#[test]
fn flowspec_shadowed_by_signal_rule_is_audit_refused() {
    let mut sys = system();
    // A signal-derived drop-all on the victim's port...
    sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_all()], 0);
    assert_eq!(sys.pump(0), 1);
    // ...shadows the narrower FlowSpec rule: the two planes audit as
    // one table per owner.
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    let out = sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 1);
    assert_eq!(out.queued_changes, 0);
    assert_eq!(out.audit_rejections.len(), 1);
    assert_eq!(sys.obs.registry.counter("flowspec.rejected_audit"), 1);
    assert_eq!(sys.obs.registry.counter("flowspec.accepted"), 0);
    sys.pump(1);
    assert_eq!(sys.active_rules(), 1);
    assert!(sys.is_converged());
    assert!(sys.reconcile(2).is_clean());
}

#[test]
fn unlowerable_flowspec_is_counted_not_installed() {
    use stellar_bgp::flowspec::{Component, NumericOp};
    let mut sys = system();
    // dscp > 63 can match no packet (the field is 6 bits wide):
    // lowering refuses it as an empty match.
    let flow = FlowSpec::new(
        stellar_bgp::types::Afi::Ipv4,
        vec![
            Component::DstPrefix(victim()),
            Component::Dscp(vec![NumericOp::new(false, false, true, false, 63)]),
        ],
    )
    .unwrap();
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    let out = sys.member_flowspec(Asn(64500), flow, &[drop], 0);
    assert_eq!(out.queued_changes, 0);
    assert_eq!(out.lowering_errors.len(), 1);
    assert_eq!(sys.obs.registry.counter("flowspec.rejected_lowering"), 1);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 0);
    assert!(sys.is_converged());
}

fn scripted(events: Vec<(u64, FaultKind)>) -> crate::faults::FaultPlan {
    crate::faults::FaultPlan::scripted(
        events
            .into_iter()
            .map(|(at_us, kind)| FaultEvent { at_us, kind })
            .collect(),
    )
}

#[test]
fn corrupt_flowspec_fault_is_refused_without_poisoning_the_rib() {
    let mut sys = system();
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 1);
    // Corruptions with both salt parities (bit-flip and truncation).
    sys.inject_faults(scripted(vec![
        (
            1_000_000,
            FaultKind::FlowSpecCorrupt {
                peer: Asn(64501),
                salt: 3,
            },
        ),
        (
            1_500_000,
            FaultKind::FlowSpecCorrupt {
                peer: Asn(64501),
                salt: 4,
            },
        ),
    ]));
    sys.pump(1_000_000);
    sys.pump(1_500_000);
    assert_eq!(sys.ixp.route_server.flowspec_stats().malformed, 2);
    // Neither the RIB, the plane, nor the hardware moved.
    assert_eq!(sys.ixp.route_server.flowspec_routes().len(), 1);
    assert_eq!(sys.flowspec.rule_count(), 1);
    assert_eq!(sys.active_rules(), 1);
    assert!(sys.is_converged());
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn corrupt_flowspec_fault_without_live_rules_uses_fallback_fragment() {
    let mut sys = system();
    sys.inject_faults(scripted(vec![(
        0,
        FaultKind::FlowSpecCorrupt {
            peer: Asn(64500),
            salt: 0,
        },
    )]));
    sys.pump(0);
    assert_eq!(sys.ixp.route_server.flowspec_stats().malformed, 1);
    assert!(sys.ixp.route_server.flowspec_routes().is_empty());
    assert!(sys.is_converged());
}

#[test]
fn validation_brownout_defers_then_accepts() {
    let mut sys = system();
    sys.inject_faults(scripted(vec![(
        0,
        FaultKind::ValidationBrownout {
            duration_us: 2_000_000,
        },
    )]));
    sys.pump(0);
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    let out = sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 100_000);
    // Fail-closed, parked for retry: neither accepted nor rejected.
    assert_eq!(out.deferred, 1);
    assert!(out.rejections.is_empty());
    assert_eq!(out.queued_changes, 0);
    assert_eq!(sys.obs.registry.counter("flowspec.validation_deferred"), 1);
    assert_eq!(sys.active_rules(), 0);
    let mut t = 250_000;
    while t <= 10_000_000 {
        sys.pump(t);
        t += 250_000;
    }
    // The oracle came back inside the retry budget: the rule landed.
    assert_eq!(sys.obs.registry.counter("flowspec.accepted"), 1);
    assert_eq!(sys.obs.registry.counter("flowspec.validation_expired"), 0);
    assert_eq!(sys.active_rules(), 1);
    assert!(sys.is_converged());
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn permanent_oracle_outage_exhausts_the_validation_budget() {
    let mut sys = system();
    sys.inject_faults(scripted(vec![(
        0,
        FaultKind::ValidationBrownout {
            duration_us: 3_600_000_000,
        },
    )]));
    sys.pump(0);
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
    let mut t = 250_000;
    while t <= 600_000_000 {
        sys.pump(t);
        t += 250_000;
    }
    assert_eq!(sys.obs.registry.counter("flowspec.validation_expired"), 1);
    assert_eq!(sys.active_rules(), 0);
    assert!(
        sys.is_converged(),
        "expired announcements leave nothing in flight"
    );
}

#[test]
fn delivery_chaos_delays_and_reorders_but_converges() {
    let mut sys = system();
    sys.inject_faults(scripted(vec![(
        0,
        FaultKind::DeliveryChaos {
            duration_us: 2_000_000,
            max_delay_us: 1_000_000,
        },
    )]));
    sys.pump(0);
    let signals: Vec<StellarSignal> = [123u16, 53, 389]
        .iter()
        .map(|p| StellarSignal::drop_udp_src(*p))
        .collect();
    let out = sys.member_signal(Asn(64500), victim(), &signals, 100_000);
    assert_eq!(out.queued_changes, 3);
    // The group was held back by the chaos window, not applied now.
    assert!(sys.obs.registry.counter("core.delivery.delayed") >= 1);
    assert_eq!(sys.pump(100_000), 0);
    let mut t = 250_000;
    while t <= 6_000_000 {
        sys.pump(t);
        t += 250_000;
    }
    assert_eq!(sys.active_rules(), 3);
    assert!(sys.is_converged());
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn peer_flap_flushes_rules_and_resignaling_recovers() {
    let mut sys = system();
    sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 1);
    sys.inject_faults(scripted(vec![
        (1_000_000, FaultKind::PeerDown { peer: Asn(64500) }),
        (2_000_000, FaultKind::PeerUp { peer: Asn(64500) }),
    ]));
    let mut t = 1_000_000;
    while t <= 4_000_000 {
        sys.pump(t);
        t += 250_000;
    }
    // The flap flushed the member's routes; blackholing is
    // per-announcement state, so the rule is gone until re-signaled.
    assert_eq!(sys.active_rules(), 0);
    assert!(sys.is_converged());
    let out = sys.member_signal(
        Asn(64500),
        victim(),
        &[StellarSignal::drop_udp_src(123)],
        5_000_000,
    );
    assert!(out.rejections.is_empty(), "{:?}", out.rejections);
    sys.pump(5_000_000);
    assert_eq!(sys.active_rules(), 1);
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn peer_flap_also_flushes_flowspec_plane() {
    let mut sys = system();
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 1);
    assert_eq!(sys.flowspec.rule_count(), 1);
    sys.inject_faults(scripted(vec![(
        1_000_000,
        FaultKind::PeerDown { peer: Asn(64500) },
    )]));
    let mut t = 1_000_000;
    while t <= 3_000_000 {
        sys.pump(t);
        t += 250_000;
    }
    assert_eq!(sys.flowspec.rule_count(), 0);
    assert_eq!(sys.active_rules(), 0);
    assert!(sys.ixp.route_server.flowspec_routes().is_empty());
    assert!(sys.is_converged());
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn mixed_family_signal_withdraws_to_nothing() {
    let mut specs = generic_members(64500, 10);
    let v6_net: Prefix = "2001:db8:100::/48".parse().unwrap();
    specs[0].prefixes.push(v6_net);
    let mut sys = StellarSystem::new(
        IxpTopology::build(&specs, HardwareInfoBase::lab_switch()),
        100.0,
    );
    let victim6: Prefix = "2001:db8:100::10/128".parse().unwrap();
    // One UPDATE: the v4 /32 in the classic field, the v6 /128 in the
    // MP_REACH of its own announcement, one signal for both.
    let mut mixed = sys.ixp.announcement(Asn(64500), victim());
    let v6 = sys.ixp.announcement(Asn(64500), victim6);
    mixed
        .attrs
        .extend(v6.attrs.into_iter().filter(|a| a.type_code() == 14));
    mixed.add_extended_communities(&[StellarSignal::drop_udp_src(123).encode(Asn(6695))]);
    let rs_out = sys.ixp.route_server.handle_update(Asn(64500), &mixed, 0);
    assert!(rs_out.rejections.is_empty(), "{:?}", rs_out.rejections);
    sys.admit_updates(&rs_out.controller_updates, 0);
    sys.pump(0);
    assert_eq!(sys.controller.rule_count(), 2, "one rule per prefix");
    assert_eq!(sys.active_rules(), 2);
    sys.member_withdraw(Asn(64500), victim(), 1_000_000);
    sys.member_withdraw(Asn(64500), victim6, 1_000_000);
    sys.pump(1_000_000);
    assert_eq!(sys.active_rules(), 0);
    assert_eq!(sys.controller.rule_count(), 0);
    assert!(sys.is_converged());
}

/// Flaps the controller's iBGP session at 1 s / 2 s and pumps to
/// quiescence; returns the ids installed on 64500's port.
fn flap_session(sys: &mut StellarSystem) -> Vec<u64> {
    sys.inject_faults(scripted(vec![
        (1_000_000, FaultKind::SessionDown),
        (2_000_000, FaultKind::SessionUp),
    ]));
    let mut t = 1_000_000;
    while t <= 6_000_000 {
        sys.pump(t);
        t += 250_000;
    }
    let port = sys.ixp.member(Asn(64500)).map(|m| m.port);
    let port = port.and_then(|p| sys.ixp.fabric.port(p));
    port.map_or(Vec::new(), |p| {
        p.policy.rules().iter().map(|r| r.id).collect()
    })
}

#[test]
fn session_resync_refuses_what_the_audit_refused_signal_plane() {
    let mut sys = system();
    let shape = StellarSignal::shape_udp_src(123, 200);
    sys.member_signal(Asn(64500), victim(), &[shape], 0);
    sys.pump(0);
    let drop_dst = crate::signal::StellarSignal {
        kind: crate::signal::MatchKind::UdpDstPort,
        port: 80,
        action: crate::rule::RuleAction::Drop,
    };
    let out = sys.member_signal(Asn(64500), victim(), &[shape, drop_dst], 1);
    assert_eq!(out.audit_rejections.len(), 1);
    // The route server's RIB still carries both communities: the resync
    // re-emits both rules under fresh ids, and the audit refuses the
    // crossing drop again instead of installing it next to the shape.
    let installed = flap_session(&mut sys);
    assert_eq!(installed.len(), 1, "installed {installed:?}");
    assert_eq!(sys.obs.registry.counter("analyze.rejected_conflict"), 2);
    assert!(sys.is_converged());
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn session_resync_refuses_what_the_audit_refused_flowspec_plane() {
    use stellar_bgp::flowspec::{Component, NumericOp};
    let mut sys = system();
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
    sys.pump(0);
    // The same spec under another NLRI (source port as the band
    // `>= 123 && <= 123`): validated, kept in the RIB, refused by the
    // audit as a duplicate.
    let mut band = fs_flow();
    band.components[2] = Component::SrcPort(vec![NumericOp::ge(123), NumericOp::and_le(123)]);
    let out = sys.member_flowspec(Asn(64500), band, &[drop], 1);
    assert_eq!(out.audit_rejections.len(), 1);
    assert_eq!(sys.ixp.route_server.flowspec_routes().len(), 2);
    // The resync re-lowers both NLRIs; the audit admits one.
    let installed = flap_session(&mut sys);
    assert_eq!(installed.len(), 1, "installed {installed:?}");
    assert_eq!(sys.obs.registry.counter("analyze.rejected_duplicate"), 2);
    assert!(sys.is_converged());
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn flowspec_overload_parks_and_requeues_instead_of_dead_lettering() {
    let mut sys = system();
    // A brownout longer than the whole retry ladder: the FlowSpec add
    // exhausts its attempts while the interface is down.
    sys.inject_faults(scripted(vec![(
        0,
        FaultKind::InstallBrownout {
            duration_us: 5_000_000,
        },
    )]));
    let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
    sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
    let mut t = 0;
    while t <= 20_000_000 {
        sys.pump(t);
        t += 250_000;
    }
    // Parked once, requeued once, installed on the second life.
    assert_eq!(sys.obs.registry.counter("deadletter.parked"), 1);
    assert_eq!(sys.obs.registry.counter("deadletter.requeued"), 1);
    assert_eq!(sys.obs.registry.counter("core.dead_letters"), 0);
    assert!(sys.dead_letters.is_empty());
    assert!(sys
        .log
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Requeued { requeue: 1, .. })));
    assert_eq!(sys.active_rules(), 1);
    assert!(sys.is_converged());
    sys.watchdog_check(60_000_000);
    assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
}

#[test]
fn watchdog_flags_orphans_and_divergence() {
    let mut sys = system();
    sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
    sys.pump(0);
    assert_eq!(sys.active_rules(), 1);
    // Sabotage: drop desired state directly, without queueing the
    // removal the real paths would queue. The hardware rule is now an
    // orphan and the system can never converge on its own.
    sys.controller.session_down();
    let found = sys.watchdog_check(60_000_000);
    assert!(found >= 2, "expected convergence + orphan, got {found}");
    assert!(!sys.watchdog.is_clean());
    assert_eq!(
        sys.obs.registry.counter("watchdog.violations.orphan_rules"),
        1
    );
    assert_eq!(
        sys.obs.registry.counter("watchdog.violations.convergence"),
        1
    );
    assert_eq!(
        sys.obs.registry.counter("watchdog.violations"),
        sys.watchdog.total_violations()
    );
}

#[test]
fn a_fresh_system_runs_the_control_constants() {
    let mut sys = system();
    assert_eq!(sys.reconcile_interval_us, RECONCILE_INTERVAL_US);
    // The dead-letter ring keeps its default capacity, then drops
    // the oldest letter.
    let cap = DeadLetterLog::DEFAULT_CAPACITY as u64;
    for i in 0..=cap {
        sys.dead_letters.push(DeadLetter {
            change: AbstractChange::RemoveRule {
                rule_id: i,
                owner: Asn(64500),
            },
            error: AdmissionError::Transient,
            attempts: 1,
            at_us: i,
        });
    }
    assert_eq!(sys.dead_letters.len() as u64, cap);
    assert_eq!(sys.dead_letters.evicted(), 1);
    assert_eq!(sys.dead_letters.iter().next().map(|d| d.at_us), Some(1));
}

#[test]
fn shaping_signal_gives_telemetry_sample() {
    let mut sys = system();
    sys.member_signal(
        Asn(64500),
        victim(),
        &[StellarSignal::shape_udp_src(123, 200)],
        0,
    );
    sys.pump(0);
    // 1 Gbps attack for one second into the 1 Gbps port.
    let results = sys.traffic_tick(&[ntp_offer(125_000_000)], 1_000_000, 1_000_000);
    let port = sys.ixp.member(Asn(64500)).unwrap().port;
    let c = &results[&port].counters;
    // ~200 Mbps passes as telemetry, the rest is shaped away.
    assert!(c.shaped_bytes > 20_000_000 && c.shaped_bytes < 30_000_000);
    assert!(c.shape_dropped_bytes > 90_000_000);
}
