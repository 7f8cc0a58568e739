//! Proof obligations: exact semantic checks over control-plane
//! transformations, backed by `classify::verify`.
//!
//! Every transformation between "what a member asked for" and "what the
//! fabric filters" is a place where over- or under-blocking can creep
//! in silently. This module states each transformation's correctness
//! condition as a packet-set equation and discharges it with the exact
//! algebra — no sampling, no probabilistic confidence:
//!
//! - **Lowering exactness** ([`check_lowering`]): the match specs
//!   `core::flowspec::lower_flowspec` emits for an NLRI cover *exactly*
//!   the packets the raw operator sequences describe. The oracle table
//!   is built here from first principles — elementary point evaluation
//!   of [`numeric_seq_matches`] / [`bitmask_seq_matches`] — sharing no
//!   code with the lowering pass it judges.
//! - **Placement soundness** ([`check_placement`]): per egress port,
//!   the installed filter table is semantically equal to the owner's
//!   desired table over the traffic that port actually sees
//!   (`dst_mac == port.mac`). Ports partition routed traffic by egress
//!   MAC, so per-port equality implies the fabric-union property: the
//!   union of per-PoP installed tables over routed traffic equals the
//!   global intent.
//! - **Ladder monotonicity** ([`owner_table`] + re-exported
//!   [`check_ladder_step`]): a degradation step may only widen the
//!   dropped set — never shrink it, never touch shaped traffic the old
//!   spec didn't already cover.

use crate::audit::to_audit_rule;
use crate::rule::BlackholingRule;
use std::collections::BTreeMap;
use stellar_bgp::flowspec::{
    bitmask_seq_matches, numeric_seq_matches, Component, FlowSpec, NumericOp,
};
use stellar_bgp::types::Asn;
use stellar_classify::verify::{diff_tables, DiffRegion, Domain, VerifyError};
pub use stellar_classify::{check_ladder_step, DEFAULT_VERIFY_BUDGET};
use stellar_classify::{ActionClass, AuditRule, RuleEntry};
use stellar_dataplane::filter::{Action, BitsMatch, MatchSpec, PortMatch, RangeMatch};
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::PortId;
use stellar_net::flow::frag;
use stellar_net::proto::IpProtocol;
use stellar_sim::fabric::Fabric;

/// Hard cap on oracle table size. The oracle may be far less minimal
/// than the lowering it checks (singleton bitmask cubes, per-protocol
/// expansion), so this is looser than `MAX_LOWERED_SPECS`; past it the
/// check reports [`LoweringProof::Unverified`] rather than sampling.
pub const MAX_ORACLE_RULES: usize = 4096;

/// Outcome of the lowering-exactness obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweringProof {
    /// The lowered specs match exactly the NLRI's packet set.
    Exact,
    /// Proven disagreement, with one witness-backed region. `region`
    /// has the lowered table as side A and the oracle as side B: a
    /// `(Drop, NoMatch)` region is over-match (the lowering drops
    /// traffic the NLRI never described), `(NoMatch, Drop)` is
    /// under-match.
    Violation {
        /// First disagreement region (deterministic: smallest
        /// `(outcome_a, outcome_b)` pair).
        region: DiffRegion,
        /// Exact total number of disagreeing canonical keys
        /// (saturating).
        differing_keys: u128,
    },
    /// The check could not run to completion (oracle too large or node
    /// budget exhausted). Never treated as a failure: exact-or-nothing.
    Unverified {
        /// Stable token naming why.
        reason: &'static str,
    },
}

impl LoweringProof {
    /// True iff the obligation was proven to hold.
    pub fn is_exact(&self) -> bool {
        matches!(self, LoweringProof::Exact)
    }

    /// The violation direction as a stable token, if proven.
    pub fn violation_kind(&self) -> Option<&'static str> {
        match self {
            LoweringProof::Violation { region, .. } => {
                if region.outcome_b == stellar_classify::verify::Outcome::NoMatch {
                    Some("over-match")
                } else {
                    Some("under-match")
                }
            }
            _ => None,
        }
    }
}

/// Proves (or refutes) that `lowered` covers exactly the packet set the
/// flow specification's components describe, by diffing it against an
/// independently built oracle table over the full canonical domain.
pub fn check_lowering(flow: &FlowSpec, lowered: &[MatchSpec]) -> LoweringProof {
    let oracle = match build_oracle(flow) {
        Ok(specs) => specs,
        Err(reason) => return LoweringProof::Unverified { reason },
    };
    let a: Vec<AuditRule> = lowered
        .iter()
        .enumerate()
        .map(|(i, s)| drop_rule(i as u64 + 1, s.clone()))
        .collect();
    let b: Vec<AuditRule> = oracle
        .into_iter()
        .enumerate()
        .map(|(i, s)| drop_rule(i as u64 + 1, s))
        .collect();
    let dom = Domain::canonical();
    match diff_tables(&a, &b, &dom, DEFAULT_VERIFY_BUDGET) {
        Ok(diff) if diff.is_equivalent() => LoweringProof::Exact,
        Ok(diff) => LoweringProof::Violation {
            region: diff.regions[0],
            differing_keys: diff.differing_keys,
        },
        Err(VerifyError::Budget { .. }) => LoweringProof::Unverified { reason: "budget" },
        Err(VerifyError::WitnessMismatch { .. }) => LoweringProof::Unverified {
            reason: "witness-mismatch",
        },
    }
}

fn drop_rule(id: u64, spec: MatchSpec) -> AuditRule {
    AuditRule::new(RuleEntry::new(id, 100, spec), ActionClass::Drop)
}

/// Builds the oracle: a set of match specs whose union is exactly the
/// flow's packet set, derived from raw operator-sequence evaluation.
///
/// Numeric components are reduced to intervals by evaluating
/// [`numeric_seq_matches`] at elementary cut points (every `op.value`
/// and `op.value + 1`): between consecutive cut points every relation
/// in the sequence is constant, so one point evaluation decides the
/// whole segment. Bitmask components enumerate their (small) byte
/// domain directly into singleton cubes. Couplings (ports require a
/// portful protocol, TCP flags require TCP, …) are deliberately *not*
/// encoded here: `MatchSpec::matches` applies them identically to both
/// tables inside the algebra, which keeps the oracle independent of the
/// lowering pass's coupling-narrowing code.
fn build_oracle(flow: &FlowSpec) -> Result<Vec<MatchSpec>, &'static str> {
    let mut variants = vec![MatchSpec::default()];
    for comp in &flow.components {
        variants = match comp {
            Component::DstPrefix(p) => {
                for v in &mut variants {
                    v.dst_ip = Some(*p);
                }
                variants
            }
            Component::SrcPrefix(p) => {
                for v in &mut variants {
                    v.src_ip = Some(*p);
                }
                variants
            }
            Component::IpProtocol(ops) => {
                let protos: Vec<u8> = byte_values(|x| numeric_seq_matches(ops, x));
                if protos.len() == 256 {
                    variants // unconstrained
                } else {
                    cross(variants, &protos, |v, p| {
                        v.protocol = Some(IpProtocol(p));
                    })?
                }
            }
            Component::Port(ops) => {
                // Either-port: src ∈ S or dst ∈ S — the union of a
                // src-constrained and a dst-constrained variant per
                // interval (same action, so table union is set union).
                let ivs = eval_intervals(ops, u64::from(u16::MAX));
                let mut next = Vec::new();
                for v in &variants {
                    for &(lo, hi) in &ivs {
                        let mut s = v.clone();
                        s.src_port = Some(port_match(lo, hi));
                        next.push(s);
                        let mut d = v.clone();
                        d.dst_port = Some(port_match(lo, hi));
                        next.push(d);
                    }
                }
                capped(next)?
            }
            Component::DstPort(ops) => {
                let ivs = eval_intervals(ops, u64::from(u16::MAX));
                cross(variants, &ivs, |v, (lo, hi)| {
                    v.dst_port = Some(port_match(lo, hi));
                })?
            }
            Component::SrcPort(ops) => {
                let ivs = eval_intervals(ops, u64::from(u16::MAX));
                cross(variants, &ivs, |v, (lo, hi)| {
                    v.src_port = Some(port_match(lo, hi));
                })?
            }
            Component::IcmpType(ops) => {
                let ivs = eval_intervals(ops, 255);
                cross(variants, &ivs, |v, (lo, hi)| {
                    v.icmp_type = Some(RangeMatch {
                        lo: lo as u8,
                        hi: hi as u8,
                    });
                })?
            }
            Component::IcmpCode(ops) => {
                let ivs = eval_intervals(ops, 255);
                cross(variants, &ivs, |v, (lo, hi)| {
                    v.icmp_code = Some(RangeMatch {
                        lo: lo as u8,
                        hi: hi as u8,
                    });
                })?
            }
            Component::TcpFlags(ops) => {
                let xs: Vec<u8> = byte_values(|x| bitmask_seq_matches(ops, x));
                cross(variants, &xs, |v, x| {
                    v.tcp_flags = Some(BitsMatch {
                        mask: 0xFF,
                        value: x,
                    });
                })?
            }
            Component::PacketLength(ops) => {
                let ivs = eval_intervals(ops, u64::from(u16::MAX));
                cross(variants, &ivs, |v, (lo, hi)| {
                    v.packet_len = Some(RangeMatch {
                        lo: lo as u16,
                        hi: hi as u16,
                    });
                })?
            }
            Component::Dscp(ops) => {
                let ivs = eval_intervals(ops, 63);
                cross(variants, &ivs, |v, (lo, hi)| {
                    v.dscp = Some(RangeMatch {
                        lo: lo as u8,
                        hi: hi as u8,
                    });
                })?
            }
            Component::Fragment(ops) => {
                // Canonical keys only carry bits inside `frag::DOMAIN`;
                // enumerating that subdomain is exact over the algebra's
                // universe.
                let xs: Vec<u8> =
                    byte_values(|x| (x as u8) & !frag::DOMAIN == 0 && bitmask_seq_matches(ops, x));
                cross(variants, &xs, |v, x| {
                    v.fragment = Some(BitsMatch {
                        mask: 0xFF,
                        value: x,
                    });
                })?
            }
            Component::FlowLabel(ops) => {
                let ivs = eval_intervals(ops, 0xF_FFFF);
                cross(variants, &ivs, |v, (lo, hi)| {
                    v.flow_label = Some(RangeMatch {
                        lo: lo as u32,
                        hi: hi as u32,
                    });
                })?
            }
        };
        // An empty variant set means some component matches no value at
        // all: the NLRI's packet set is empty and the oracle table is
        // legitimately empty.
        if variants.is_empty() {
            return Ok(Vec::new());
        }
    }
    Ok(variants)
}

/// The values in `0..=255` accepted by `pred`, ascending.
fn byte_values(pred: impl Fn(u64) -> bool) -> Vec<u8> {
    (0u16..=255)
        .map(|x| x as u8)
        .filter(|&x| pred(u64::from(x)))
        .collect()
}

/// Exact match set of a numeric operator sequence over `0..=max`, as
/// minimal closed intervals, using only point evaluation: between
/// consecutive elementary cut points (`op.value`, `op.value + 1`) every
/// comparison in the sequence is constant.
fn eval_intervals(ops: &[NumericOp], max: u64) -> Vec<(u64, u64)> {
    let mut cuts: Vec<u64> = vec![0];
    for op in ops {
        if op.value <= max {
            cuts.push(op.value);
        }
        if op.value < max {
            cuts.push(op.value + 1);
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (i, &lo) in cuts.iter().enumerate() {
        let hi = cuts.get(i + 1).map_or(max, |&n| n - 1);
        if numeric_seq_matches(ops, lo) {
            match out.last_mut() {
                Some(last) if last.1 + 1 == lo => last.1 = hi,
                _ => out.push((lo, hi)),
            }
        }
    }
    out
}

fn port_match(lo: u64, hi: u64) -> PortMatch {
    if lo == hi {
        PortMatch::Exact(lo as u16)
    } else {
        PortMatch::Range(lo as u16, hi as u16)
    }
}

fn cross<T: Copy>(
    variants: Vec<MatchSpec>,
    choices: &[T],
    set: impl Fn(&mut MatchSpec, T),
) -> Result<Vec<MatchSpec>, &'static str> {
    let mut next = Vec::with_capacity(variants.len().saturating_mul(choices.len()));
    for v in &variants {
        for &c in choices {
            let mut s = v.clone();
            set(&mut s, c);
            next.push(s);
        }
    }
    capped(next)
}

fn capped(variants: Vec<MatchSpec>) -> Result<Vec<MatchSpec>, &'static str> {
    if variants.len() > MAX_ORACLE_RULES {
        Err("oracle-too-large")
    } else {
        Ok(variants)
    }
}

/// One port where the installed table provably disagrees with the
/// owner's desired table over that port's traffic.
#[derive(Debug, Clone, Copy)]
pub struct PortMismatch {
    /// The egress port.
    pub port: PortId,
    /// Exact number of disagreeing canonical keys on this port
    /// (saturating).
    pub differing_keys: u128,
    /// First disagreement region, witness-backed.
    pub region: DiffRegion,
}

/// Result of the placement-soundness obligation over a whole fabric.
#[derive(Debug, Clone, Default)]
pub struct PlacementCheck {
    /// Ports actually diffed (installed or intent non-empty).
    pub ports_checked: usize,
    /// Ports whose diff exhausted the node budget (not failures).
    pub unverified: usize,
    /// Desired rules that resolve to no live fabric port.
    pub unplaced: usize,
    /// Proven per-port disagreements, in port-id order.
    pub mismatches: Vec<PortMismatch>,
}

impl PlacementCheck {
    /// True iff no port disagreed with its intent (unverified ports are
    /// not counted against soundness — exact-or-nothing).
    pub fn is_sound(&self) -> bool {
        self.mismatches.is_empty() && self.unplaced == 0
    }

    /// Books one port's verdict; true iff the port was proven equal.
    pub fn book(&mut self, proof: PortProof) -> bool {
        self.ports_checked += 1;
        match proof {
            PortProof::Equal => {}
            PortProof::Mismatch(m) => self.mismatches.push(m),
            PortProof::Unverified => self.unverified += 1,
        }
        matches!(proof, PortProof::Equal)
    }
}

/// The verdict of the placement obligation on one port.
#[derive(Debug, Clone, Copy)]
pub enum PortProof {
    /// Installed and desired tables agree on every key the port sees.
    Equal,
    /// Proven disagreement, witness-backed.
    Mismatch(PortMismatch),
    /// The diff exhausted the node budget: no verdict (never a failure,
    /// never a pass).
    Unverified,
}

/// Obligation (c) for one port: diffs the installed table against
/// `want`, the desired rules of the owners placed on it, over
/// `Domain::canonical().with_dst_mac(port.mac)` — exactly the keys the
/// egress port sees (§4.5 isolation: a member's rules only ever filter
/// traffic addressed to that member). Pure: both [`check_placement`] and
/// the watchdog's incremental pass are loops around this.
pub fn prove_port(id: PortId, port: &MemberPort, want: &[AuditRule], budget: usize) -> PortProof {
    let installed: Vec<AuditRule> = port
        .policy
        .rules()
        .iter()
        .map(|r| {
            AuditRule::new(
                RuleEntry::new(r.id, r.priority, r.spec.clone()),
                match r.action {
                    Action::Drop => ActionClass::Drop,
                    Action::Shape { rate_bps } => ActionClass::Shape { rate_bps },
                    Action::Forward => ActionClass::Forward,
                },
            )
        })
        .collect();
    let dom = Domain::canonical().with_dst_mac(port.mac);
    match diff_tables(&installed, want, &dom, budget) {
        Ok(diff) if diff.is_equivalent() => PortProof::Equal,
        Ok(diff) => PortProof::Mismatch(PortMismatch {
            port: id,
            differing_keys: diff.differing_keys,
            region: diff.regions[0],
        }),
        Err(_) => PortProof::Unverified,
    }
}

/// Proves per-port that the installed filter tables realize the global
/// desired state over routed traffic — the uncached reference: every
/// call proves every port from scratch.
///
/// Each port holding rules or addressed by intent gets [`prove_port`]'s
/// verdict; ports with neither are never visited, which keeps the check
/// linear in *occupied* ports, not fabric size. Because egress MACs
/// partition routed traffic, per-port equality composes into the
/// fabric-wide union property of obligation (c).
pub fn check_placement(
    fabric: &Fabric,
    desired: &[BlackholingRule],
    owner_port: impl Fn(Asn) -> Option<PortId>,
    budget: usize,
) -> PlacementCheck {
    let mut check = PlacementCheck::default();
    // Each port to prove, with what its owners want there.
    let mut ports: BTreeMap<PortId, (Option<&MemberPort>, Vec<AuditRule>)> = fabric
        .occupied_ports()
        .map(|(id, port)| (id, (Some(port), Vec::new())))
        .collect();
    for r in desired {
        let Some(id) = owner_port(r.owner) else {
            check.unplaced += 1;
            continue;
        };
        let (_, want) = ports
            .entry(id)
            .or_insert_with(|| (fabric.port(id), Vec::new()));
        want.push(to_audit_rule(r));
    }
    for (id, (port, want)) in &ports {
        match port {
            Some(port) => {
                check.book(prove_port(*id, port, want, budget));
            }
            // Intent addressed to ports the fabric doesn't have is as
            // unsound as a missing rule on a live port.
            None => check.unplaced += want.len(),
        }
    }
    check
}

/// One owner's desired table in audit form — the input shape
/// [`check_ladder_step`] takes for the monotonicity obligation.
pub fn owner_table(desired: &[BlackholingRule], owner: Asn) -> Vec<AuditRule> {
    desired
        .iter()
        .filter(|r| r.owner == owner)
        .map(to_audit_rule)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowspec::lower_flowspec;
    use stellar_bgp::flowspec::BitmaskOp;
    use stellar_bgp::types::Afi;
    use stellar_net::prefix::{Ipv4Prefix, Prefix};

    fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
        Prefix::V4(Ipv4Prefix::new(stellar_net::addr::Ipv4Address([a, b, c, d]), len).unwrap())
    }

    fn flow(components: Vec<Component>) -> FlowSpec {
        FlowSpec::new(Afi::Ipv4, components).expect("ordered components")
    }

    #[test]
    fn real_lowering_is_proven_exact() {
        // dst 203.0.113.0/24, UDP, src port 123 — the amplification
        // shape; lowering and oracle must agree exactly.
        let f = flow(vec![
            Component::DstPrefix(v4(203, 0, 113, 0, 24)),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(123)]),
        ]);
        let lowered = lower_flowspec(&f).expect("lowers");
        assert_eq!(check_lowering(&f, &lowered), LoweringProof::Exact);
    }

    #[test]
    fn port_range_and_either_port_lower_exactly() {
        let f = flow(vec![
            Component::DstPrefix(v4(198, 51, 100, 7, 32)),
            Component::Port(vec![NumericOp::ge(11211), NumericOp::and_le(11212)]),
        ]);
        let lowered = lower_flowspec(&f).expect("lowers");
        assert_eq!(check_lowering(&f, &lowered), LoweringProof::Exact);
    }

    #[test]
    fn dropped_spec_is_caught_as_under_match() {
        let f = flow(vec![
            Component::DstPrefix(v4(198, 51, 100, 7, 32)),
            Component::DstPort(vec![NumericOp::equals(53), NumericOp::equals(123)]),
        ]);
        let mut lowered = lower_flowspec(&f).expect("lowers");
        assert!(lowered.len() >= 2, "two port values lower to two specs");
        lowered.pop();
        let proof = check_lowering(&f, &lowered);
        assert_eq!(proof.violation_kind(), Some("under-match"));
        let LoweringProof::Violation { differing_keys, .. } = proof else {
            panic!("expected violation, got {proof:?}");
        };
        assert!(differing_keys > 0);
    }

    #[test]
    fn widened_spec_is_caught_as_over_match() {
        let f = flow(vec![
            Component::DstPrefix(v4(198, 51, 100, 7, 32)),
            Component::DstPort(vec![NumericOp::equals(53)]),
        ]);
        let mut lowered = lower_flowspec(&f).expect("lowers");
        // Sabotage: widen the port to a range the NLRI never asked for.
        lowered[0].dst_port = Some(PortMatch::Range(53, 54));
        assert_eq!(
            check_lowering(&f, &lowered).violation_kind(),
            Some("over-match")
        );
    }

    #[test]
    fn tcp_flags_and_fragment_cubes_are_proven_exact() {
        // SYN-only match (mask SYN, not-SYN negated) plus first-fragment
        // bit — exercises both bitmask dimensions and the TCP coupling.
        let f = flow(vec![
            Component::DstPrefix(v4(198, 51, 100, 0, 24)),
            Component::IpProtocol(vec![NumericOp::equals(6)]),
            Component::TcpFlags(vec![BitmaskOp::new(false, false, true, 0x02)]),
        ]);
        let lowered = lower_flowspec(&f).expect("lowers");
        assert_eq!(check_lowering(&f, &lowered), LoweringProof::Exact);
    }

    #[test]
    fn placement_visits_occupied_and_intent_ports_and_books_every_verdict() {
        use crate::signal::StellarSignal;
        use stellar_dataplane::filter::FilterRule;
        use stellar_dataplane::hardware::HardwareInfoBase;
        use stellar_net::mac::MacAddr;
        use stellar_sim::fabric::PopId;

        let mut fabric = Fabric::new(HardwareInfoBase::lab_switch(), 2);
        for p in 1..=40u32 {
            let port = MemberPort::new(64500 + p, MacAddr::for_member(64500 + p, 1), 1_000_000_000);
            fabric.add_port(PopId((p % 2) as u16), PortId(p), port);
        }
        let rule = |id: u64, owner: u32| {
            let victim = v4(100, 10, 10, 10, 32);
            BlackholingRule::from_signal(id, Asn(owner), victim, StellarSignal::drop_udp_src(123))
        };
        // Port 3 holds what its owner wants; port 7 holds a rule nobody
        // wants; owner 64511 wants a rule port 11 does not hold; 64599
        // is placed on a port the fabric lacks and 64600 nowhere.
        let desired = vec![
            rule(1, 64503),
            rule(2, 64511),
            rule(3, 64599),
            rule(4, 64600),
        ];
        fabric
            .install_rule(PortId(3), desired[0].to_filter_rule(), 0)
            .unwrap();
        let hidden = FilterRule::new(9, MatchSpec::default(), Action::Drop, 1);
        fabric.install_rule(PortId(7), hidden, 0).unwrap();
        let owner_port = |a: Asn| match a.0 {
            64599 => Some(PortId(99)),
            64600 => None,
            asn => Some(PortId(asn - 64500)),
        };
        let check = check_placement(&fabric, &desired, owner_port, DEFAULT_VERIFY_BUDGET);
        // Three of forty ports are looked at, in port order.
        assert_eq!(check.ports_checked, 3);
        let mismatched: Vec<u32> = check.mismatches.iter().map(|m| m.port.0).collect();
        assert_eq!(mismatched, [7, 11]);
        assert_eq!((check.unplaced, check.unverified), (2, 0));
        assert!(!check.is_sound());
        // A blown budget is no verdict: counted, neither equal nor a
        // mismatch.
        let starved = check_placement(&fabric, &desired, owner_port, 0);
        assert_eq!((starved.ports_checked, starved.unverified), (3, 3));
        assert!(starved.mismatches.is_empty());
        let port = fabric.port(PortId(3)).expect("port 3");
        let mut booked = PlacementCheck::default();
        assert!(!booked.book(prove_port(PortId(3), port, &[], 0)));
        assert!(booked.book(prove_port(
            PortId(3),
            port,
            &[to_audit_rule(&desired[0])],
            DEFAULT_VERIFY_BUDGET
        )));
        assert_eq!((booked.ports_checked, booked.unverified), (2, 1));
    }

    #[test]
    fn eval_intervals_matches_pointwise_semantics() {
        let ops = vec![
            NumericOp::ge(10),
            NumericOp::and_le(20),
            NumericOp::equals(35),
        ];
        let ivs = eval_intervals(&ops, 63);
        assert_eq!(ivs, vec![(10, 20), (35, 35)]);
        for x in 0..=63u64 {
            let in_ivs = ivs.iter().any(|&(lo, hi)| lo <= x && x <= hi);
            assert_eq!(in_ivs, numeric_seq_matches(&ops, x), "x = {x}");
        }
    }
}
