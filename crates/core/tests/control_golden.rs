//! Golden control-plane digests: the pinned reference for everything the
//! control plane does between a member's announcement and the TCAM row.
//!
//! Each episode drives [`StellarSystem`] through its public entries only
//! — member signals and withdrawals, FlowSpec announcements and
//! withdrawals, scripted faults, `pump`, `reconcile`, `watchdog_check` —
//! and is hashed (FNV-1a) over the recovery log's `Debug` rendering, the
//! dead letters, every port's installed rule ids in evaluation order, the
//! watchdog's recorded violations and the final obs snapshot. The digests
//! below were computed before `core::system` was split into stage
//! modules; a mismatch means the control plane changed behaviour — re-pin
//! only with an argument why.

use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::{Component, FlowSpec, NumericOp};
use stellar_bgp::types::{Afi, Asn};
use stellar_core::faults::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use stellar_core::rule::RuleAction;
use stellar_core::signal::{MatchKind, StellarSignal};
use stellar_core::system::StellarSystem;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::prefix::Prefix;
use stellar_sim::topology::{generic_members, IxpTopology};

const BASE_ASN: u32 = 64500;
const A: Asn = Asn(BASE_ASN);
const B: Asn = Asn(BASE_ASN + 1);
const C: Asn = Asn(BASE_ASN + 2);
/// Pump cadence of every episode (the drivers' 250 ms).
const STEP_US: u64 = 250_000;
/// Past the watchdog's 30 s convergence grace after the last activity of
/// every episode: the final pass runs the quiet-state obligations.
const END_US: u64 = 60_000_000;

/// FNV-1a, fed little-endian words and raw bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Runs the final watchdog pass at [`END_US`] and hashes what the episode
/// left behind.
fn digest(sys: &mut StellarSystem) -> u64 {
    sys.watchdog_check(END_US);
    sys.observe(END_US);
    let mut h = Fnv::new();
    h.bytes(format!("{:?}", sys.log).as_bytes());
    for letter in sys.dead_letters.iter() {
        h.bytes(format!("{letter:?}").as_bytes());
    }
    for (pid, port) in sys.ixp.fabric.ports() {
        h.word(u64::from(pid.0));
        for rule in port.policy.rules() {
            h.word(rule.id);
        }
    }
    h.bytes(format!("{:?}", sys.watchdog.violations()).as_bytes());
    h.bytes(sys.obs.snapshot_json(END_US).as_bytes());
    h.0
}

fn system(hib: HardwareInfoBase, pops: usize, rate_per_s: f64) -> StellarSystem {
    let ixp = IxpTopology::build_with_pops(&generic_members(BASE_ASN, 6), hib, pops);
    let mut sys = StellarSystem::new(ixp, rate_per_s);
    // A short fuse, so retry tails, parks and requeues finish well inside
    // an episode.
    sys.retry = RetryPolicy {
        base_backoff_us: 50_000,
        max_backoff_us: 400_000,
        max_attempts: 3,
    };
    sys
}

/// Host `h` inside member `m`'s /24 (`MemberSpec::generic`).
fn host(m: u32, h: u8) -> Prefix {
    Prefix::host(IpAddress::V4(Ipv4Address::new(131, m as u8, 0, h)))
}

fn udp_dst(port: u16) -> StellarSignal {
    StellarSignal {
        kind: MatchKind::UdpDstPort,
        port,
        action: RuleAction::Drop,
    }
}

/// UDP from source `port` to `dst`; `range` spells the port as the band
/// `>= port && <= port` — a different NLRI lowering to the same spec.
fn udp_src_flow(dst: Prefix, port: u64, range: bool) -> FlowSpec {
    let src = if range {
        vec![NumericOp::ge(port), NumericOp::and_le(port)]
    } else {
        vec![NumericOp::equals(port)]
    };
    FlowSpec {
        afi: Afi::Ipv4,
        components: vec![
            Component::DstPrefix(dst),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(src),
        ],
    }
}

fn drop_action(asn: Asn) -> ExtendedCommunity {
    ExtendedCommunity::traffic_rate(asn.0 as u16, 0.0)
}

fn scripted(events: Vec<(u64, FaultKind)>) -> FaultPlan {
    FaultPlan::scripted(
        events
            .into_iter()
            .map(|(at_us, kind)| FaultEvent { at_us, kind })
            .collect(),
    )
}

/// Pumps every [`STEP_US`] over `[from_us, to_us]`, reconciling once a
/// second as the drivers do.
fn drive(sys: &mut StellarSystem, from_us: u64, to_us: u64) {
    let mut t = from_us;
    while t <= to_us {
        sys.pump(t);
        if t.is_multiple_of(sys.reconcile_interval_us) {
            sys.reconcile(t);
        }
        t += STEP_US;
    }
}

/// Shape → drop escalation on a 1/s queue, so the swap pair meets a
/// bucket holding one token and must wait for the second; then the
/// withdrawal.
fn escalation() -> StellarSystem {
    let mut sys = system(HardwareInfoBase::lab_switch(), 1, 1.0);
    sys.member_signal(A, host(0, 10), &[StellarSignal::shape_udp_src(123, 200)], 0);
    sys.member_signal(B, host(1, 10), &[StellarSignal::drop_udp_src(53)], 0);
    drive(&mut sys, 0, 750_000);
    let out = sys.member_signal(
        A,
        host(0, 10),
        &[StellarSignal::drop_udp_src(123)],
        1_000_000,
    );
    assert_eq!(out.queued_changes, 2, "a swap pair");
    drive(&mut sys, 1_000_000, 3_750_000);
    sys.member_withdraw(A, host(0, 10), 4_000_000);
    sys.member_withdraw(B, host(1, 10), 4_000_000);
    drive(&mut sys, 4_000_000, 40_000_000);
    sys
}

/// FlowSpec announce, re-announce with another action, withdraw; a
/// hijack, a corrupt wire, an unlowerable NLRI and both audit refusals
/// (duplicate within the plane, shadowed across planes).
fn flowspec() -> StellarSystem {
    let mut sys = system(HardwareInfoBase::lab_switch(), 2, 1000.0);
    let f = udp_src_flow(host(0, 10), 123, false);
    let out = sys.member_flowspec(A, f.clone(), &[drop_action(A)], 0);
    assert_eq!(out.queued_changes, 1);
    drive(&mut sys, 0, 500_000);
    let shape = ExtendedCommunity::traffic_rate(A.0 as u16, 1_000_000.0);
    sys.member_flowspec(A, f.clone(), &[shape], 1_000_000);
    // B announces for A's prefix: refused by RFC 9117 validation.
    let hijack = sys.member_flowspec(
        B,
        udp_src_flow(host(0, 11), 53, false),
        &[drop_action(B)],
        1_000_000,
    );
    assert_eq!(hijack.rejections.len(), 1);
    // dscp > 63 matches no packet: refused by lowering.
    let empty = FlowSpec {
        afi: Afi::Ipv4,
        components: vec![
            Component::DstPrefix(host(0, 12)),
            Component::Dscp(vec![NumericOp::new(false, false, true, false, 63)]),
        ],
    };
    let out = sys.member_flowspec(A, empty, &[drop_action(A)], 1_000_000);
    assert_eq!(out.lowering_errors.len(), 1);
    drive(&mut sys, 1_000_000, 1_500_000);
    // The same spec under another NLRI: refused as a duplicate.
    let dup = sys.member_flowspec(A, udp_src_flow(host(0, 10), 123, true), &[shape], 2_000_000);
    assert_eq!(dup.audit_rejections.len(), 1);
    // A signal drop-all on C's host shadows C's narrower FlowSpec rule.
    sys.member_signal(C, host(2, 10), &[StellarSignal::drop_all()], 2_000_000);
    drive(&mut sys, 2_000_000, 2_500_000);
    let shadowed = sys.member_flowspec(
        C,
        udp_src_flow(host(2, 10), 123, false),
        &[drop_action(C)],
        3_000_000,
    );
    assert_eq!(shadowed.audit_rejections.len(), 1);
    sys.inject_faults(scripted(vec![
        (3_250_000, FaultKind::FlowSpecCorrupt { peer: B, salt: 3 }),
        (3_500_000, FaultKind::FlowSpecCorrupt { peer: A, salt: 4 }),
    ]));
    drive(&mut sys, 3_000_000, 4_750_000);
    let out = sys.member_flowspec_withdraw(A, f, 5_000_000);
    assert_eq!(out.queued_changes, 1);
    sys.member_withdraw(C, host(2, 10), 5_000_000);
    drive(&mut sys, 5_000_000, 40_000_000);
    sys
}

/// TCAM pressure: a pool one UDP-source rule fills, so A's second rule
/// walks the degradation ladder to a dead letter and B's FlowSpec rule is
/// parked, requeued and finally dead-lettered too; a withdrawal frees the
/// pool and a later announcement fits.
fn ladder() -> StellarSystem {
    let hib = HardwareInfoBase {
        l34_criteria_pool: 3,
        ..HardwareInfoBase::lab_switch()
    };
    let mut sys = system(hib, 1, 1000.0);
    sys.member_signal(A, host(0, 10), &[StellarSignal::drop_udp_src(123)], 0);
    drive(&mut sys, 0, 250_000);
    sys.member_signal(
        A,
        host(0, 10),
        &[
            StellarSignal::drop_udp_src(123),
            StellarSignal::drop_udp_src(53),
        ],
        500_000,
    );
    sys.member_flowspec(
        B,
        udp_src_flow(host(1, 10), 389, false),
        &[drop_action(B)],
        500_000,
    );
    drive(&mut sys, 500_000, 20_000_000);
    assert!(sys.obs.registry.counter("core.degrades") >= 1);
    assert!(sys.obs.registry.counter("deadletter.requeued") >= 1);
    assert!(sys.dead_letters.len() >= 2);
    sys.member_withdraw(A, host(0, 10), 20_000_000);
    drive(&mut sys, 20_000_000, 20_500_000);
    sys.member_signal(
        B,
        host(1, 11),
        &[StellarSignal::drop_udp_src(11211)],
        21_000_000,
    );
    drive(&mut sys, 21_000_000, 40_000_000);
    sys
}

/// The standing state every fault episode starts from: signals on A and
/// B, a FlowSpec rule on C, all installed.
fn standing() -> StellarSystem {
    let mut sys = system(HardwareInfoBase::lab_switch(), 2, 1000.0);
    sys.member_signal(
        A,
        host(0, 10),
        &[
            StellarSignal::drop_udp_src(123),
            StellarSignal::shape_udp_src(53, 200),
        ],
        0,
    );
    sys.member_signal(B, host(1, 10), &[StellarSignal::drop_all()], 0);
    sys.member_flowspec(
        C,
        udp_src_flow(host(2, 10), 389, false),
        &[drop_action(C)],
        0,
    );
    drive(&mut sys, 0, 750_000);
    assert_eq!(sys.active_rules(), 4);
    sys
}

fn install_brownout() -> StellarSystem {
    let mut sys = standing();
    sys.inject_faults(scripted(vec![(
        1_000_000,
        FaultKind::InstallBrownout {
            duration_us: 1_500_000,
        },
    )]));
    drive(&mut sys, 1_000_000, 1_000_000);
    sys.member_signal(
        A,
        host(0, 11),
        &[StellarSignal::drop_udp_src(19)],
        1_100_000,
    );
    sys.member_flowspec(
        C,
        udp_src_flow(host(2, 11), 123, false),
        &[drop_action(C)],
        1_100_000,
    );
    drive(&mut sys, 1_250_000, 40_000_000);
    assert!(sys.obs.registry.counter("deadletter.parked") >= 1);
    sys
}

fn router_restart() -> StellarSystem {
    let mut sys = standing();
    sys.inject_faults(scripted(vec![(1_000_000, FaultKind::RouterRestart)]));
    drive(&mut sys, 1_000_000, 40_000_000);
    sys
}

/// The session flap, over state holding refusals the resync re-emits: a
/// crossing drop the audit refused next to an installed shape, and a
/// FlowSpec duplicate the RIB keeps.
fn session_flap() -> StellarSystem {
    let mut sys = standing();
    let out = sys.member_signal(
        A,
        host(0, 10),
        &[
            StellarSignal::drop_udp_src(123),
            StellarSignal::shape_udp_src(53, 200),
            udp_dst(80),
        ],
        1_000_000,
    );
    assert_eq!(out.audit_rejections.len(), 1);
    let dup = sys.member_flowspec(
        C,
        udp_src_flow(host(2, 10), 389, true),
        &[drop_action(C)],
        1_000_000,
    );
    assert_eq!(dup.audit_rejections.len(), 1);
    sys.inject_faults(scripted(vec![
        (2_000_000, FaultKind::SessionDown),
        (3_000_000, FaultKind::SessionUp),
    ]));
    drive(&mut sys, 1_000_000, 40_000_000);
    sys
}

fn peer_flap() -> StellarSystem {
    let mut sys = standing();
    sys.inject_faults(scripted(vec![
        (1_000_000, FaultKind::PeerDown { peer: A }),
        (1_500_000, FaultKind::PeerDown { peer: C }),
        (2_000_000, FaultKind::PeerUp { peer: A }),
        (2_000_000, FaultKind::PeerUp { peer: C }),
    ]));
    drive(&mut sys, 1_000_000, 2_750_000);
    sys.member_signal(
        A,
        host(0, 10),
        &[StellarSignal::drop_udp_src(123)],
        3_000_000,
    );
    drive(&mut sys, 3_000_000, 40_000_000);
    sys
}

fn flowspec_corrupt() -> StellarSystem {
    let mut sys = standing();
    sys.inject_faults(scripted(vec![
        (1_000_000, FaultKind::FlowSpecCorrupt { peer: B, salt: 7 }),
        (1_250_000, FaultKind::FlowSpecCorrupt { peer: C, salt: 8 }),
    ]));
    drive(&mut sys, 1_000_000, 40_000_000);
    assert_eq!(sys.ixp.route_server.flowspec_stats().malformed, 2);
    sys
}

fn delivery_chaos() -> StellarSystem {
    let mut sys = standing();
    sys.inject_faults(scripted(vec![(
        1_000_000,
        FaultKind::DeliveryChaos {
            duration_us: 3_000_000,
            max_delay_us: 1_500_000,
        },
    )]));
    drive(&mut sys, 1_000_000, 1_000_000);
    sys.member_signal(
        A,
        host(0, 10),
        &[
            StellarSignal::drop_udp_src(123),
            StellarSignal::drop_udp_src(53),
        ],
        1_100_000,
    );
    sys.member_signal(
        B,
        host(1, 11),
        &[StellarSignal::drop_udp_src(389)],
        1_200_000,
    );
    sys.member_flowspec(
        C,
        udp_src_flow(host(2, 11), 19, false),
        &[drop_action(C)],
        1_300_000,
    );
    drive(&mut sys, 1_250_000, 40_000_000);
    assert!(sys.obs.registry.counter("core.delivery.delayed") >= 1);
    sys
}

fn validation_brownout() -> StellarSystem {
    let mut sys = standing();
    sys.inject_faults(scripted(vec![(
        1_000_000,
        FaultKind::ValidationBrownout {
            duration_us: 2_000_000,
        },
    )]));
    drive(&mut sys, 1_000_000, 1_000_000);
    let out = sys.member_flowspec(
        C,
        udp_src_flow(host(2, 11), 123, false),
        &[drop_action(C)],
        1_100_000,
    );
    assert_eq!(out.deferred, 1);
    drive(&mut sys, 1_250_000, 40_000_000);
    sys
}

type Episode = (&'static str, fn() -> StellarSystem, u64);

/// Computed before the split of `core::system` into stage modules.
/// Only the session flap was re-pinned since, by the resync fix.
const GOLDEN: [Episode; 10] = [
    ("escalation", escalation, 0x2256_eee4_2ca2_b7cd),
    ("flowspec", flowspec, 0xeef9_f545_aea1_4db4),
    ("ladder", ladder, 0xedf1_df6e_5026_8e91),
    ("install_brownout", install_brownout, 0x3dfb_7d80_32d6_2211),
    ("router_restart", router_restart, 0xaf4e_a2d5_d597_c3b7),
    // Re-pinned when the session resync went through the audit: the
    // refused crossing drop and FlowSpec duplicate stay refused across
    // the flap. Before, both came back installed: 0x532c_7f97_ec41_42c8.
    ("session_flap", session_flap, 0x92f0_67ec_4ec5_ddc9),
    ("peer_flap", peer_flap, 0xfc79_7a19_010b_a07b),
    ("flowspec_corrupt", flowspec_corrupt, 0x2fbe_7899_e074_1856),
    ("delivery_chaos", delivery_chaos, 0x804f_6ce3_6ab1_b5fc),
    (
        "validation_brownout",
        validation_brownout,
        0x4764_0500_466f_8c91,
    ),
];

#[test]
fn golden_control_digests() {
    for (name, run, want) in GOLDEN {
        let got = digest(&mut run());
        assert_eq!(got, want, "episode {name}: digest {got:#018x}");
    }
}
