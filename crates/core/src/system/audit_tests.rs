//! The owner-scoped admission audit against its reference: the same
//! [`audit_batch`] over the *whole* desired table.
//!
//! [`StellarSystem::audit_changes`] hands the audit only the candidates'
//! owners' rules. In this crate's unit-test builds every call is checked,
//! before it is acted on, against the verdict the full table gives
//! ([`StellarSystem::assert_matches_whole_table_audit`]) — so every
//! system test in the crate (flaps, brownouts, delivery chaos, ...) is a
//! differential run, and the seeded episode below aims the same check at
//! the cases the audit exists for.

use super::*;
use crate::rule::RuleAction;
use crate::signal::MatchKind;
use stellar_bgp::flowspec::{BitmaskOp, Component, NumericOp};
use stellar_bgp::types::Afi;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_sim::topology::generic_members;

impl StellarSystem {
    /// The reference check: `scoped` — the audit of `changes` over the
    /// candidates' owners' rules — must equal, row for row, the audit of
    /// the same candidates over every owner's rules; and each owner view
    /// it was built from must be that owner's slice of the full table.
    pub(super) fn assert_matches_whole_table_audit(
        &self,
        scoped: &BatchAudit,
        changes: &[AbstractChange],
    ) {
        let table = self.desired_table();
        let candidate_ids: Vec<u64> = changes
            .iter()
            .filter_map(|c| match c {
                AbstractChange::AddRule(r) => Some(r.id),
                AbstractChange::RemoveRule { .. } => None,
            })
            .collect();
        let whole = audit_batch(
            &self.ixp.fabric,
            |a| self.manager.owner_port(a),
            &table,
            &candidate_ids,
        );
        assert_eq!(*scoped, whole, "owner-scoped audit diverged");
        let mut owners: Vec<Asn> = table.iter().map(|r| r.owner).collect();
        owners.extend([Asn(0), Asn(u32::MAX)]);
        owners.sort_unstable();
        owners.dedup();
        for owner in owners {
            let slice: Vec<BlackholingRule> =
                table.iter().filter(|r| r.owner == owner).cloned().collect();
            assert_eq!(self.desired_of(&[owner]), slice, "owner view of {owner:?}");
        }
    }
}

const MEMBERS: u32 = 6;
const BASE_ASN: u32 = 64500;

/// Six members over two PoPs on a switch whose L3–L4 pool is small
/// enough that a busy episode exhausts it (so the degradation ladder
/// runs), with a short retry fuse so it does so within the episode.
fn small_ixp() -> StellarSystem {
    let hib = HardwareInfoBase {
        l34_criteria_pool: 36,
        max_rules_per_port: 16,
        ..HardwareInfoBase::lab_switch()
    };
    let ixp = IxpTopology::build_with_pops(&generic_members(BASE_ASN, MEMBERS as usize), hib, 2);
    let mut sys = StellarSystem::new(ixp, 1000.0);
    sys.retry = RetryPolicy {
        base_backoff_us: 50_000,
        max_backoff_us: 100_000,
        max_attempts: 2,
    };
    sys
}

/// Host `h` inside member `m`'s /24 (`MemberSpec::generic`).
fn host(m: u32, h: u8) -> Prefix {
    Prefix::host(IpAddress::V4(Ipv4Address::new(131, m as u8, 0, h)))
}

fn signal(kind: MatchKind, port: u16, action: RuleAction) -> StellarSignal {
    StellarSignal { kind, port, action }
}

/// What a member may put on one announcement: fine and coarse drops
/// (shadowing each other), shapes crossing drops (conflicts), disjoint
/// ports (clean).
fn signal_pool() -> Vec<StellarSignal> {
    let shape = RuleAction::Shape {
        rate_bps: 200_000_000,
    };
    vec![
        StellarSignal::drop_udp_src(123),
        StellarSignal::drop_udp_src(53),
        StellarSignal::shape_udp_src(123, 200),
        StellarSignal::drop_all(),
        signal(MatchKind::AllUdp, 0, RuleAction::Drop),
        signal(MatchKind::UdpDstPort, 80, RuleAction::Drop),
        signal(MatchKind::UdpDstPort, 53, shape),
    ]
}

/// FlowSpec variants for one host: a single spec equal to a signal rule
/// (duplicate / shadowed across planes), a two-spec port list, a
/// tcp-flags bitmask, a packet-length band, and one no packet can match
/// (a port on ICMP — refused before it reaches the audit).
fn flow(dst: Prefix, variant: u64) -> FlowSpec {
    let proto = |p| Component::IpProtocol(vec![NumericOp::equals(p)]);
    let mut components = vec![Component::DstPrefix(dst)];
    match variant % 5 {
        0 => components.extend([proto(17), Component::SrcPort(vec![NumericOp::equals(123)])]),
        1 => components.extend([
            proto(17),
            Component::SrcPort(vec![NumericOp::equals(53), NumericOp::equals(123)]),
        ]),
        2 => components.extend([
            proto(6),
            Component::TcpFlags(vec![BitmaskOp::new(false, false, true, 0x02)]),
        ]),
        3 => components.push(Component::PacketLength(vec![
            NumericOp::ge(1000),
            NumericOp::and_le(1500),
        ])),
        _ => components.extend([proto(1), Component::SrcPort(vec![NumericOp::equals(53)])]),
    }
    // Components are listed in ascending type order, as the wire wants.
    FlowSpec {
        afi: Afi::Ipv4,
        components,
    }
}

/// Draw counter over the crate's stateless SplitMix64 step.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 += 1;
        crate::faults::splitmix64(self.0) % bound
    }
}

/// One seeded episode through the public entry points. Every audit in it
/// is compared with the whole-table reference inside `audit_changes`.
fn run_episode(seed: u64) -> StellarSystem {
    let mut sys = small_ixp();
    let mut rng = Rng(seed << 32);
    let pool = signal_pool();
    let mut now = 0;
    for _ in 0..160 {
        now += 50_000;
        let m = rng.next(u64::from(MEMBERS)) as u32;
        let member = Asn(BASE_ASN + m);
        let victim = host(m, 1 + rng.next(2) as u8);
        match rng.next(10) {
            0..=3 => {
                let first = rng.next(pool.len() as u64) as usize;
                let signals: Vec<StellarSignal> = (0..1 + rng.next(3) as usize)
                    .map(|i| pool[(first + i * 2) % pool.len()])
                    .collect();
                sys.member_signal(member, victim, &signals, now);
            }
            4..=6 => {
                let rate = if rng.next(3) == 0 { 25_000_000.0 } else { 0.0 };
                let action = ExtendedCommunity::traffic_rate(member.0 as u16, rate);
                sys.member_flowspec(member, flow(victim, rng.next(5)), &[action], now);
            }
            7 => {
                sys.member_withdraw(member, victim, now);
            }
            8 => {
                sys.member_flowspec_withdraw(member, flow(victim, rng.next(5)), now);
            }
            _ => {
                // Hijack: somebody else's host, over either plane.
                let theirs = host((m + 1) % MEMBERS, 1);
                sys.member_signal(member, theirs, &pool[..1], now);
                let drop = ExtendedCommunity::traffic_rate(member.0 as u16, 0.0);
                sys.member_flowspec(member, flow(theirs, 0), &[drop], now);
            }
        }
        sys.pump(now);
    }
    // Drain: let retries, ladder steps and repairs settle.
    for _ in 0..80 {
        now += 50_000;
        sys.pump(now);
    }
    sys.reconcile(now);
    sys.pump(now + 50_000);
    assert!(sys.is_converged(), "seed {seed} did not converge");
    assert_eq!(sys.watchdog_check(now + 10_000_000), 0, "seed {seed}");
    sys
}

#[test]
fn seeded_mixed_episodes_audit_like_the_whole_table() {
    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
    for seed in 1..=4 {
        let sys = run_episode(seed);
        for counter in [
            "analyze.preadmit.batches",
            "analyze.rejected_shadowed",
            "analyze.rejected_duplicate",
            "analyze.rejected_conflict",
            "flowspec.rejected_validation",
            "flowspec.rejected_lowering",
            "flowspec.withdrawn",
            "core.degrades",
            "core.removals",
        ] {
            *seen.entry(counter).or_default() += sys.obs.registry.counter(counter);
        }
    }
    // The episodes really went where the audit matters: every refusal
    // kind, both planes' withdrawals, hostile input and the ladder.
    for (counter, hits) in &seen {
        assert!(*hits > 0, "{counter} never hit: {seen:?}");
    }
    assert!(seen["analyze.preadmit.batches"] >= 200, "{seen:?}");
}

#[test]
fn owner_views_follow_an_owner_across_both_planes() {
    let mut sys = small_ixp();
    let (a, b) = (Asn(BASE_ASN), Asn(BASE_ASN + 1));
    let drop = |asn: Asn| ExtendedCommunity::traffic_rate(asn.0 as u16, 0.0);
    sys.member_signal(a, host(0, 1), &[StellarSignal::drop_udp_src(53)], 0);
    sys.member_flowspec(a, flow(host(0, 2), 1), &[drop(a)], 0);
    sys.member_signal(b, host(1, 1), &[StellarSignal::drop_udp_src(53)], 0);
    sys.member_flowspec(b, flow(host(1, 1), 2), &[drop(b)], 0);
    let of_a = sys.desired_of(&[a]);
    // One signal rule, then the two lowered specs, in rule-id order.
    assert_eq!(of_a.len(), 3);
    assert!(of_a.iter().all(|r| r.owner == a));
    assert!(of_a.windows(2).all(|w| w[0].id < w[1].id));
    assert_eq!(of_a[0].signal(), Some(StellarSignal::drop_udp_src(53)));
    assert!(of_a[1].signal().is_none() && of_a[2].signal().is_none());
    assert_eq!(sys.desired_of(&[b]).len(), 2);
    assert!(sys.desired_of(&[Asn(BASE_ASN + 2)]).is_empty());
    assert_eq!(sys.desired_of(&[a, b]), sys.desired_table());
    assert_eq!(sys.desired_table().len(), 5);
    assert_eq!(sys.desired_ids().count(), 5);
    // The ladder obligation reads the same slice.
    assert_eq!(sys.owner_audit_table(a).len(), 3);
}

#[test]
fn unverified_admissions_are_counted_and_logged_by_rule_id() {
    let mut sys = small_ixp();
    let clean = BatchAudit::default();
    sys.apply_audit(&clean, &mut Vec::new(), &mut Vec::new(), 5);
    assert_eq!(sys.obs.registry.counter("analyze.unverified"), 0);
    let audit = BatchAudit {
        unverified: vec![7, 9],
        ..Default::default()
    };
    let mut rejections = Vec::new();
    sys.apply_audit(&audit, &mut Vec::new(), &mut rejections, 10);
    assert!(rejections.is_empty(), "unverified is not a refusal");
    assert_eq!(sys.obs.registry.counter("analyze.unverified"), 2);
    let logged: Vec<&str> = sys
        .obs
        .recorder
        .events()
        .filter(|e| e.kind == "analyze.unverified")
        .flat_map(|e| e.fields.iter())
        .map(|(k, v)| {
            assert_eq!(k, "rule_id");
            v.as_str()
        })
        .collect();
    assert_eq!(logged, vec!["7", "9"]);
}
