//! Exact semantic algebra over first-match rule tables.
//!
//! [`crate::analyze`] finds pathologies *within* one table (shadowing,
//! conflicts, unreachability). This module compares *two* tables: are
//! they equivalent, is one's drop set contained in the other's, and —
//! when they differ — exactly which flow keys disagree, how many, and a
//! concrete witness packet for each disagreement class. "Optimal
//! Filtering for DDoS Attacks" frames mitigation as maximizing dropped
//! attack traffic minus collateral damage; that objective is only
//! computable with an exact account of what a table drops, which is what
//! this module provides (and what every control-plane transformation —
//! degradation ladder, FlowSpec lowering, placement fan-out, future
//! aggregation — is verified against).
//!
//! # Method
//!
//! A table denotes a function `FlowKey -> Outcome` under first-match
//! (lowest `(priority, id)` wins; no match = [`Outcome::NoMatch`]). Two
//! tables are compared by recursively partitioning the flow-key space
//! one field at a time, in a fixed order, into *atoms*: subdomains on
//! which every live rule's criterion for that field is constant. Numeric
//! fields (MACs, IPs, ports, lengths, DSCP, ICMP, flow label) atomize
//! into elementary intervals cut at constraint endpoints; flag bytes
//! (TCP flags, fragment bits) atomize into subsets of the constrained
//! bit positions, with unconstrained in-domain bits contributing an
//! exact multiplier; protocols group into equivalence classes by rule
//! membership and gate signature. Field couplings mirror
//! [`MatchSpec::matches`] exactly: a portless protocol never satisfies a
//! port criterion, only TCP satisfies TCP-flag cubes, only ICMP/ICMPv6
//! satisfy ICMP ranges, and only IPv6 destinations satisfy flow-label
//! ranges. Gated-off fields are pinned to 0, so counts are over
//! *canonical* keys — the representative every real packet normalizes
//! to (see [`Domain`]).
//!
//! Three prunes keep the recursion polynomial on real tables: subtrees
//! where both tables' live rule sequences are pointwise identical are
//! skipped; subtrees where both tables are already decided (first live
//! rule unconstrained on all remaining fields, or no live rules) are
//! resolved in bulk with a product-of-domains cardinality; and a node
//! budget bounds the worst case, failing loudly with
//! [`VerifyError::Budget`] instead of silently sampling.
//!
//! Every reported difference region carries a witness key that is
//! re-validated against the *original* tables with the real
//! [`MatchSpec::matches`] before being returned — the algebra is never
//! its own oracle. Cardinalities are exact in `u128`, saturating at
//! `u128::MAX` (only reachable when full IPv6 address dimensions are in
//! the domain).

use crate::analyze::{
    allowed_protos, num_ip, port_interval, prefix_interval, spec_is_empty, ActionClass, AuditRule,
    ProtoSet,
};
use crate::classifier::RuleEntry;
use crate::spec::{is_icmp, BitsMatch, MatchSpec};
use core::fmt;
use std::collections::BTreeMap;
use stellar_net::flow::{frag, FlowKey};
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;

/// Default recursion-node budget for [`diff_tables`]. Each node is
/// `O(live rules)` work; real control-plane tables (tens to a few
/// thousand rules) stay far below this.
pub const DEFAULT_VERIFY_BUDGET: usize = 1_000_000;

/// What a table does with one flow key. [`ActionClass`] plus the
/// "no rule matched" outcome. The derived order is the deterministic
/// region-report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// A drop rule won.
    Drop,
    /// A shape rule won.
    Shape {
        /// Shaping rate in bits per second.
        rate_bps: u64,
    },
    /// An explicit forward rule won.
    Forward,
    /// No rule matched; default forwarding applies.
    NoMatch,
}

impl From<ActionClass> for Outcome {
    fn from(a: ActionClass) -> Self {
        match a {
            ActionClass::Drop => Outcome::Drop,
            ActionClass::Shape { rate_bps } => Outcome::Shape { rate_bps },
            ActionClass::Forward => Outcome::Forward,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Drop => write!(f, "drop"),
            Outcome::Shape { rate_bps } => write!(f, "shape({rate_bps})"),
            Outcome::Forward => write!(f, "forward"),
            Outcome::NoMatch => write!(f, "no-match"),
        }
    }
}

/// The flow-key universe two tables are compared over, as a product of
/// per-field sets. Interval lists must be sorted, disjoint and
/// non-empty ranges (`lo <= hi`); `protocols` sorted and deduplicated —
/// [`Domain::canonical`] satisfies all of this, and restriction helpers
/// preserve it.
///
/// Keys are counted in *canonical* form: a field whose gate is off for
/// the key's protocol/family (ports on portless protocols, TCP flags on
/// non-TCP, ICMP type/code on non-ICMP, flow label on IPv4) is pinned
/// to 0 rather than ranged over, and flag bytes only range over
/// `*_mask` bits. This makes "number of distinct flow keys" mean
/// distinct *observable* header combinations, not storage encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    /// Source-MAC intervals over the 48-bit MAC space.
    pub src_macs: Vec<(u128, u128)>,
    /// Destination-MAC intervals over the 48-bit MAC space.
    pub dst_macs: Vec<(u128, u128)>,
    /// IPv4 source-address intervals (empty = no v4 side).
    pub src_ip_v4: Vec<(u128, u128)>,
    /// IPv4 destination-address intervals.
    pub dst_ip_v4: Vec<(u128, u128)>,
    /// IPv6 source-address intervals (empty = no v6 side).
    pub src_ip_v6: Vec<(u128, u128)>,
    /// IPv6 destination-address intervals.
    pub dst_ip_v6: Vec<(u128, u128)>,
    /// IP protocol numbers present, ascending.
    pub protocols: Vec<u8>,
    /// Port intervals (applies to both src and dst ports).
    pub ports: Vec<(u128, u128)>,
    /// Packet-length intervals.
    pub packet_len: Vec<(u128, u128)>,
    /// DSCP intervals over `0..=63`.
    pub dscp: Vec<(u128, u128)>,
    /// TCP-flag bits that may vary; bits outside are pinned to 0.
    pub tcp_flags_mask: u8,
    /// Fragment bits that may vary; bits outside are pinned to 0.
    pub fragment_mask: u8,
    /// ICMP message-type intervals.
    pub icmp_type: Vec<(u128, u128)>,
    /// ICMP message-code intervals.
    pub icmp_code: Vec<(u128, u128)>,
    /// IPv6 flow-label intervals over `0..=0xF_FFFF`.
    pub flow_label: Vec<(u128, u128)>,
}

impl Domain {
    /// The full canonical flow-key universe: every MAC, both address
    /// families in full, all 256 protocols, full ports/lengths/DSCP/
    /// ICMP/flow-label ranges, all 8 TCP-flag bits and the 4 defined
    /// fragment bits.
    pub fn canonical() -> Self {
        const MACS: u128 = (1 << 48) - 1;
        Domain {
            src_macs: vec![(0, MACS)],
            dst_macs: vec![(0, MACS)],
            src_ip_v4: vec![(0, u128::from(u32::MAX))],
            dst_ip_v4: vec![(0, u128::from(u32::MAX))],
            src_ip_v6: vec![(0, u128::MAX)],
            dst_ip_v6: vec![(0, u128::MAX)],
            protocols: (0..=255).collect(),
            ports: vec![(0, u128::from(u16::MAX))],
            packet_len: vec![(0, u128::from(u16::MAX))],
            dscp: vec![(0, 63)],
            tcp_flags_mask: 0xFF,
            fragment_mask: frag::DOMAIN,
            icmp_type: vec![(0, 255)],
            icmp_code: vec![(0, 255)],
            flow_label: vec![(0, 0xF_FFFF)],
        }
    }

    /// Restricts the domain to IPv4 traffic only.
    pub fn v4_only(mut self) -> Self {
        self.src_ip_v6.clear();
        self.dst_ip_v6.clear();
        self
    }

    /// Restricts the domain to keys addressed to exactly `mac` — the
    /// traffic one egress member port sees (placement soundness is
    /// checked per port over this restriction).
    pub fn with_dst_mac(mut self, mac: MacAddr) -> Self {
        let n = mac_num(mac);
        self.dst_macs = vec![(n, n)];
        self
    }

    /// Number of canonical keys in the domain (saturating).
    pub fn size(&self) -> u128 {
        let d = Differ {
            dom: self,
            a: Vec::new(),
            b: Vec::new(),
            budget: 0,
            nodes: 0,
            regions: BTreeMap::new(),
            total: 0,
        };
        d.size_from(F_FAMILY, true, Gates::default())
    }
}

/// One maximal class of disagreeing flow keys: all keys in the class get
/// `outcome_a` from table A and `outcome_b` from table B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRegion {
    /// What table A does with these keys.
    pub outcome_a: Outcome,
    /// What table B does with these keys.
    pub outcome_b: Outcome,
    /// Exact number of canonical keys in the class (saturating).
    pub keys: u128,
    /// A concrete key in the class, validated against both original
    /// tables with [`MatchSpec::matches`] first-match evaluation.
    pub witness: FlowKey,
}

/// The exact semantic difference of two tables over a [`Domain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemDiff {
    /// Disagreement classes, ordered by `(outcome_a, outcome_b)`.
    /// Empty means the tables are semantically equivalent.
    pub regions: Vec<DiffRegion>,
    /// Total number of keys on which the tables disagree (saturating).
    pub differing_keys: u128,
    /// Recursion nodes visited (work accounting; deterministic).
    pub nodes: usize,
}

impl SemDiff {
    /// True when the tables agree on every key in the domain.
    pub fn is_equivalent(&self) -> bool {
        self.regions.is_empty()
    }

    /// Keys table A drops that table B does not (over-block of A
    /// relative to B), with a witness region if any.
    pub fn drop_lost(&self) -> Option<&DiffRegion> {
        self.regions
            .iter()
            .find(|r| r.outcome_a == Outcome::Drop && r.outcome_b != Outcome::Drop)
    }

    /// Keys table B drops that table A does not, if any.
    pub fn drop_gained(&self) -> Option<&DiffRegion> {
        self.regions
            .iter()
            .find(|r| r.outcome_a != Outcome::Drop && r.outcome_b == Outcome::Drop)
    }

    /// Total keys newly dropped by B (saturating sum over regions).
    pub fn drop_gained_keys(&self) -> u128 {
        self.regions
            .iter()
            .filter(|r| r.outcome_a != Outcome::Drop && r.outcome_b == Outcome::Drop)
            .fold(0u128, |s, r| s.saturating_add(r.keys))
    }
}

/// Why a verification run could not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The recursion-node budget was exhausted: the tables are too
    /// adversarially fragmented for the given budget. No partial answer
    /// is returned — this is exact-or-nothing.
    Budget {
        /// Nodes visited when the budget tripped.
        nodes: usize,
    },
    /// Internal soundness failure: a region's witness did not evaluate
    /// to the region's outcomes under real first-match evaluation. This
    /// indicates a bug in the algebra itself and is never expected.
    WitnessMismatch {
        /// Outcomes the algebra claimed for the witness (A, B).
        expected: (Outcome, Outcome),
        /// Outcomes real evaluation produced (A, B).
        found: (Outcome, Outcome),
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Budget { nodes } => {
                write!(f, "verify budget exhausted after {nodes} nodes")
            }
            VerifyError::WitnessMismatch { expected, found } => write!(
                f,
                "witness mismatch: algebra claimed ({}, {}), evaluation found ({}, {})",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

/// One degradation-ladder step, verified. The ladder obligation: a step
/// may only *widen* the dropped set (never shrink it), and must not
/// change the outcome of any key the degraded rule did not already
/// cover if that key was being shaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderReport {
    /// A region dropped before the step but not after — a drop-set
    /// shrink, violating monotonicity. `None` when monotone.
    pub shrunk: Option<DiffRegion>,
    /// A region *outside* the degraded rule's old match that was shaped
    /// before the step and changed outcome — shaped telemetry traffic
    /// the step had no business touching. `None` when untouched.
    pub shaped_touched: Option<DiffRegion>,
    /// Exact number of keys newly dropped by the step (the widening).
    pub widened_keys: u128,
    /// Recursion nodes spent across both diffs.
    pub nodes: usize,
}

impl LadderReport {
    /// True when the step satisfies the ladder obligation.
    pub fn is_monotone(&self) -> bool {
        self.shrunk.is_none() && self.shaped_touched.is_none()
    }
}

/// Computes the exact semantic difference of two first-match tables
/// over `dom`. Rules are ranked by `(priority, id)` ascending;
/// unsatisfiable specs are dropped (they can never match). `budget`
/// bounds recursion nodes; [`DEFAULT_VERIFY_BUDGET`] is ample for real
/// tables.
pub fn diff_tables(
    a: &[AuditRule],
    b: &[AuditRule],
    dom: &Domain,
    budget: usize,
) -> Result<SemDiff, VerifyError> {
    let mut d = Differ {
        dom,
        a: build(a),
        b: build(b),
        budget,
        nodes: 0,
        regions: BTreeMap::new(),
        total: 0,
    };
    let la: Vec<u32> = (0..d.a.len() as u32).collect();
    let lb: Vec<u32> = (0..d.b.len() as u32).collect();
    d.go(
        F_FAMILY,
        true,
        Gates::default(),
        FlowKey::default(),
        1,
        &la,
        &lb,
    )?;
    let regions = d
        .regions
        .iter()
        .map(|(&(outcome_a, outcome_b), &(keys, witness))| DiffRegion {
            outcome_a,
            outcome_b,
            keys,
            witness,
        })
        .collect();
    Ok(SemDiff {
        regions,
        differing_keys: d.total,
        nodes: d.nodes,
    })
}

/// True when the two tables produce the same outcome for every key in
/// the domain.
pub fn tables_equivalent(
    a: &[AuditRule],
    b: &[AuditRule],
    dom: &Domain,
    budget: usize,
) -> Result<bool, VerifyError> {
    Ok(diff_tables(a, b, dom, budget)?.is_equivalent())
}

/// A witness region that table `a` drops but table `b` does not, if
/// any. `None` certifies `drop(a) ⊆ drop(b)` over the domain.
pub fn drop_not_contained(
    a: &[AuditRule],
    b: &[AuditRule],
    dom: &Domain,
    budget: usize,
) -> Result<Option<DiffRegion>, VerifyError> {
    Ok(diff_tables(a, b, dom, budget)?.drop_lost().copied())
}

/// Evaluates a table's first-match outcome for one key — the reference
/// semantics ([`MatchSpec::matches`], lowest `(priority, id)` wins).
pub fn eval_table(rules: &[AuditRule], key: &FlowKey) -> Outcome {
    let mut best: Option<(u16, u64, Outcome)> = None;
    for r in rules {
        if r.entry.spec.matches(key) {
            let rank = (r.entry.priority, r.entry.id, Outcome::from(r.action));
            if best.is_none_or(|(p, i, _)| (rank.0, rank.1) < (p, i)) {
                best = Some(rank);
            }
        }
    }
    best.map_or(Outcome::NoMatch, |(_, _, o)| o)
}

/// Verifies one degradation-ladder step: `before` is the table prior to
/// the step, `after` the table after, `old_spec` the degraded rule's
/// match *before* degradation. The shaped-untouched half is computed by
/// diffing the two tables each behind a top-priority `Forward` sentinel
/// carrying `old_spec` — the sentinel forces agreement on every key the
/// old rule covered, so the remaining diff is exactly the keys outside
/// it, where any previously-shaped region is a violation.
pub fn check_ladder_step(
    before: &[AuditRule],
    after: &[AuditRule],
    old_spec: &MatchSpec,
    dom: &Domain,
    budget: usize,
) -> Result<LadderReport, VerifyError> {
    let full = diff_tables(before, after, dom, budget)?;
    let shrunk = full.drop_lost().copied();
    let widened_keys = full.drop_gained_keys();
    let masked = diff_tables(
        &with_sentinel(before, old_spec),
        &with_sentinel(after, old_spec),
        dom,
        budget,
    )?;
    let shaped_touched = masked
        .regions
        .iter()
        .find(|r| matches!(r.outcome_a, Outcome::Shape { .. }))
        .copied();
    Ok(LadderReport {
        shrunk,
        shaped_touched,
        widened_keys,
        nodes: full.nodes + masked.nodes,
    })
}

/// Prepends a `Forward` rule matching `mask_spec` at strictly-first
/// rank (shifting priorities by one when 0 is occupied), restricting
/// any subsequent diff to keys outside `mask_spec`.
fn with_sentinel(rules: &[AuditRule], mask_spec: &MatchSpec) -> Vec<AuditRule> {
    let minp = rules.iter().map(|r| r.entry.priority).min().unwrap_or(1);
    let (shift, sentinel_prio) = if minp == 0 { (1, 0) } else { (0, minp - 1) };
    let mut out = Vec::with_capacity(rules.len() + 1);
    out.push(AuditRule::new(
        RuleEntry::new(u64::MAX, sentinel_prio, mask_spec.clone()),
        ActionClass::Forward,
    ));
    for r in rules {
        let mut r2 = r.clone();
        r2.entry.priority = r2.entry.priority.saturating_add(shift);
        out.push(r2);
    }
    out
}

// ---------------------------------------------------------------------
// The recursive differ.
// ---------------------------------------------------------------------

/// Field order of the partition recursion. Family and protocol come
/// first because they gate later fields.
const F_FAMILY: usize = 0;
const F_PROTO: usize = 1;
const F_SRC_MAC: usize = 2;
const F_DST_MAC: usize = 3;
const F_SRC_IP: usize = 4;
const F_DST_IP: usize = 5;
const F_SRC_PORT: usize = 6;
const F_DST_PORT: usize = 7;
const F_TCP_FLAGS: usize = 8;
const F_PACKET_LEN: usize = 9;
const F_DSCP: usize = 10;
const F_FRAGMENT: usize = 11;
const F_ICMP_TYPE: usize = 12;
const F_ICMP_CODE: usize = 13;
const F_FLOW_LABEL: usize = 14;
const NFIELDS: usize = 15;

/// Which gated fields the current protocol class enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Gates {
    has_ports: bool,
    is_tcp: bool,
    is_icmp: bool,
}

impl Gates {
    fn of(p: IpProtocol) -> Self {
        Gates {
            has_ports: p.has_ports(),
            is_tcp: p == IpProtocol::TCP,
            is_icmp: is_icmp(p),
        }
    }
}

/// One rule as the differ sees it: rank-ordered position in the table,
/// spec, derived protocol set, and outcome.
struct EvalRule {
    spec: MatchSpec,
    protos: ProtoSet,
    action: Outcome,
}

/// Rank-sorts and strips unsatisfiable rules; the resulting sequence
/// order *is* the first-match evaluation order.
fn build(rules: &[AuditRule]) -> Vec<EvalRule> {
    let mut sorted: Vec<&AuditRule> = rules.iter().collect();
    sorted.sort_by_key(|r| (r.entry.priority, r.entry.id));
    sorted
        .into_iter()
        .filter(|r| !spec_is_empty(&r.entry.spec))
        .map(|r| EvalRule {
            spec: r.entry.spec.clone(),
            protos: allowed_protos(&r.entry.spec),
            action: Outcome::from(r.action),
        })
        .collect()
}

fn mac_num(m: MacAddr) -> u128 {
    let mut b = [0u8; 16];
    b[10..].copy_from_slice(&m.0);
    u128::from_be_bytes(b)
}

fn num_mac(n: u128) -> MacAddr {
    let b = n.to_be_bytes();
    let mut m = [0u8; 6];
    m.copy_from_slice(&b[10..]);
    MacAddr(m)
}

fn smul(a: u128, b: u128) -> u128 {
    a.saturating_mul(b)
}

fn iv_len(lo: u128, hi: u128) -> u128 {
    (hi - lo).saturating_add(1)
}

fn iv_total(ivs: &[(u128, u128)]) -> u128 {
    ivs.iter()
        .fold(0u128, |s, &(lo, hi)| s.saturating_add(iv_len(lo, hi)))
}

/// Whether a rule constrains field `f` (used by the decided prune: a
/// rule unconstrained on every remaining field matches the whole
/// remaining subdomain). Gate couplings are folded into the protocol
/// set, so plain criterion presence is exact here.
fn constrains(r: &EvalRule, f: usize) -> bool {
    match f {
        F_FAMILY => {
            r.spec.src_ip.is_some() || r.spec.dst_ip.is_some() || r.spec.flow_label.is_some()
        }
        F_PROTO => r.protos != ProtoSet::ALL,
        F_SRC_MAC => r.spec.src_mac.is_some(),
        F_DST_MAC => r.spec.dst_mac.is_some(),
        F_SRC_IP => r.spec.src_ip.is_some(),
        F_DST_IP => r.spec.dst_ip.is_some(),
        F_SRC_PORT => r.spec.src_port.is_some(),
        F_DST_PORT => r.spec.dst_port.is_some(),
        F_TCP_FLAGS => r.spec.tcp_flags.is_some(),
        F_PACKET_LEN => r.spec.packet_len.is_some(),
        F_DSCP => r.spec.dscp.is_some(),
        F_FRAGMENT => r.spec.fragment.is_some(),
        F_ICMP_TYPE => r.spec.icmp_type.is_some(),
        F_ICMP_CODE => r.spec.icmp_code.is_some(),
        _ => r.spec.flow_label.is_some(),
    }
}

/// The table's outcome on the whole remaining subdomain, if already
/// determined: no live rules (NoMatch) or a first live rule that
/// matches everything left.
fn decided(rules: &[EvalRule], live: &[u32], idx: usize) -> Option<Outcome> {
    match live.first() {
        None => Some(Outcome::NoMatch),
        Some(&i) => {
            let r = &rules[i as usize];
            (idx..NFIELDS)
                .all(|f| !constrains(r, f))
                .then_some(r.action)
        }
    }
}

struct Differ<'d> {
    dom: &'d Domain,
    a: Vec<EvalRule>,
    b: Vec<EvalRule>,
    budget: usize,
    nodes: usize,
    /// `(outcome_a, outcome_b)` -> (keys, first witness). BTreeMap for
    /// deterministic report order.
    regions: BTreeMap<(Outcome, Outcome), (u128, FlowKey)>,
    total: u128,
}

impl Differ<'_> {
    #[allow(clippy::too_many_arguments)]
    fn go(
        &mut self,
        idx: usize,
        v4: bool,
        g: Gates,
        key: FlowKey,
        count: u128,
        la: &[u32],
        lb: &[u32],
    ) -> Result<(), VerifyError> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(VerifyError::Budget { nodes: self.nodes });
        }
        // Identical live sequences (including both empty) agree on
        // every remaining key by construction.
        if la.len() == lb.len()
            && la.iter().zip(lb.iter()).all(|(&i, &j)| {
                let (ra, rb) = (&self.a[i as usize], &self.b[j as usize]);
                ra.action == rb.action && ra.spec == rb.spec
            })
        {
            return Ok(());
        }
        let da = decided(&self.a, la, idx);
        let db = decided(&self.b, lb, idx);
        if let (Some(oa), Some(ob)) = (da, db) {
            if oa == ob {
                return Ok(());
            }
            let keys = smul(count, self.size_from(idx, v4, g));
            let wit = self.complete_key(key, idx, v4, g);
            return self.record(oa, ob, keys, wit);
        }
        if idx >= NFIELDS {
            let oa = la
                .first()
                .map_or(Outcome::NoMatch, |&i| self.a[i as usize].action);
            let ob = lb
                .first()
                .map_or(Outcome::NoMatch, |&j| self.b[j as usize].action);
            if oa != ob {
                return self.record(oa, ob, count, key);
            }
            return Ok(());
        }
        let dom = self.dom;
        match idx {
            F_FAMILY => self.split_family(key, count, la, lb),
            F_PROTO => self.split_proto(v4, key, count, la, lb),
            F_SRC_MAC => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.src_macs,
                |r| r.spec.src_mac.map(|m| (mac_num(m), mac_num(m))),
                |k, v| k.src_mac = num_mac(v),
            ),
            F_DST_MAC => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.dst_macs,
                |r| r.spec.dst_mac.map(|m| (mac_num(m), mac_num(m))),
                |k, v| k.dst_mac = num_mac(v),
            ),
            F_SRC_IP => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                if v4 { &dom.src_ip_v4 } else { &dom.src_ip_v6 },
                |r| {
                    r.spec.src_ip.as_ref().map(|p| {
                        let (_, lo, hi) = prefix_interval(p);
                        (lo, hi)
                    })
                },
                move |k, v| k.src_ip = num_ip(v4, v),
            ),
            F_DST_IP => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                if v4 { &dom.dst_ip_v4 } else { &dom.dst_ip_v6 },
                |r| {
                    r.spec.dst_ip.as_ref().map(|p| {
                        let (_, lo, hi) = prefix_interval(p);
                        (lo, hi)
                    })
                },
                move |k, v| k.dst_ip = num_ip(v4, v),
            ),
            F_SRC_PORT if !g.has_ports => self.pin(idx, v4, g, key, count, la, lb, |k| {
                k.src_port = 0;
            }),
            F_SRC_PORT => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.ports,
                |r| {
                    r.spec.src_port.as_ref().map(|pm| {
                        let (lo, hi) = port_interval(pm);
                        (u128::from(lo), u128::from(hi))
                    })
                },
                |k, v| k.src_port = v as u16,
            ),
            F_DST_PORT if !g.has_ports => self.pin(idx, v4, g, key, count, la, lb, |k| {
                k.dst_port = 0;
            }),
            F_DST_PORT => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.ports,
                |r| {
                    r.spec.dst_port.as_ref().map(|pm| {
                        let (lo, hi) = port_interval(pm);
                        (u128::from(lo), u128::from(hi))
                    })
                },
                |k, v| k.dst_port = v as u16,
            ),
            F_TCP_FLAGS if !g.is_tcp => self.pin(idx, v4, g, key, count, la, lb, |k| {
                k.tcp_flags = 0;
            }),
            F_TCP_FLAGS => self.split_bits(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                dom.tcp_flags_mask,
                |r| r.spec.tcp_flags,
                |k, v| k.tcp_flags = v,
            ),
            F_PACKET_LEN => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.packet_len,
                |r| {
                    r.spec
                        .packet_len
                        .as_ref()
                        .map(|r| (u128::from(r.lo), u128::from(r.hi)))
                },
                |k, v| k.packet_len = v as u16,
            ),
            F_DSCP => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.dscp,
                |r| {
                    r.spec
                        .dscp
                        .as_ref()
                        .map(|r| (u128::from(r.lo), u128::from(r.hi)))
                },
                |k, v| k.dscp = v as u8,
            ),
            F_FRAGMENT => self.split_bits(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                dom.fragment_mask,
                |r| r.spec.fragment,
                |k, v| k.fragment = v,
            ),
            F_ICMP_TYPE if !g.is_icmp => self.pin(idx, v4, g, key, count, la, lb, |k| {
                k.icmp_type = 0;
            }),
            F_ICMP_TYPE => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.icmp_type,
                |r| {
                    r.spec
                        .icmp_type
                        .as_ref()
                        .map(|r| (u128::from(r.lo), u128::from(r.hi)))
                },
                |k, v| k.icmp_type = v as u8,
            ),
            F_ICMP_CODE if !g.is_icmp => self.pin(idx, v4, g, key, count, la, lb, |k| {
                k.icmp_code = 0;
            }),
            F_ICMP_CODE => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.icmp_code,
                |r| {
                    r.spec
                        .icmp_code
                        .as_ref()
                        .map(|r| (u128::from(r.lo), u128::from(r.hi)))
                },
                |k, v| k.icmp_code = v as u8,
            ),
            F_FLOW_LABEL if v4 => self.pin(idx, v4, g, key, count, la, lb, |k| {
                k.flow_label = 0;
            }),
            _ => self.split_interval(
                idx,
                v4,
                g,
                key,
                count,
                la,
                lb,
                &dom.flow_label,
                |r| {
                    r.spec
                        .flow_label
                        .as_ref()
                        .map(|r| (u128::from(r.lo), u128::from(r.hi)))
                },
                |k, v| k.flow_label = v as u32,
            ),
        }
    }

    /// Gated-off field: pin the key's field to its canonical 0 and move
    /// on. No live rule can constrain a gated-off field (the protocol
    /// split already removed it), so live sets pass through unchanged.
    #[allow(clippy::too_many_arguments)]
    fn pin(
        &mut self,
        idx: usize,
        v4: bool,
        g: Gates,
        mut key: FlowKey,
        count: u128,
        la: &[u32],
        lb: &[u32],
        set: impl Fn(&mut FlowKey),
    ) -> Result<(), VerifyError> {
        set(&mut key);
        self.go(idx + 1, v4, g, key, count, la, lb)
    }

    fn split_family(
        &mut self,
        key: FlowKey,
        count: u128,
        la: &[u32],
        lb: &[u32],
    ) -> Result<(), VerifyError> {
        for v4 in [true, false] {
            let (src_iv, dst_iv) = if v4 {
                (&self.dom.src_ip_v4, &self.dom.dst_ip_v4)
            } else {
                (&self.dom.src_ip_v6, &self.dom.dst_ip_v6)
            };
            if src_iv.is_empty() || dst_iv.is_empty() {
                continue;
            }
            let keep = |r: &EvalRule| {
                r.spec.src_ip.as_ref().is_none_or(|p| p.is_v4() == v4)
                    && r.spec.dst_ip.as_ref().is_none_or(|p| p.is_v4() == v4)
                    && (!v4 || r.spec.flow_label.is_none())
            };
            let la2: Vec<u32> = la
                .iter()
                .copied()
                .filter(|&i| keep(&self.a[i as usize]))
                .collect();
            let lb2: Vec<u32> = lb
                .iter()
                .copied()
                .filter(|&j| keep(&self.b[j as usize]))
                .collect();
            let mut key2 = key;
            key2.src_ip = num_ip(v4, 0);
            key2.dst_ip = num_ip(v4, 0);
            self.go(F_PROTO, v4, Gates::default(), key2, count, &la2, &lb2)?;
        }
        Ok(())
    }

    /// Groups domain protocols into classes with identical rule
    /// membership and gate signature; one representative recursion per
    /// class, class size as an exact multiplier.
    fn split_proto(
        &mut self,
        v4: bool,
        key: FlowKey,
        count: u128,
        la: &[u32],
        lb: &[u32],
    ) -> Result<(), VerifyError> {
        // (membership over la then lb, gates, representative, count)
        let mut classes: Vec<(Vec<bool>, Gates, u8, u32)> = Vec::new();
        for &p in &self.dom.protocols {
            let mem: Vec<bool> = la
                .iter()
                .map(|&i| self.a[i as usize].protos.contains(p))
                .chain(lb.iter().map(|&j| self.b[j as usize].protos.contains(p)))
                .collect();
            let g = Gates::of(IpProtocol(p));
            match classes.iter_mut().find(|c| c.0 == mem && c.1 == g) {
                Some(c) => c.3 += 1,
                None => classes.push((mem, g, p, 1)),
            }
        }
        for (mem, g, rep, n) in classes {
            let la2: Vec<u32> = la
                .iter()
                .enumerate()
                .filter(|&(k, _)| mem[k])
                .map(|(_, &i)| i)
                .collect();
            let lb2: Vec<u32> = lb
                .iter()
                .enumerate()
                .filter(|&(k, _)| mem[la.len() + k])
                .map(|(_, &j)| j)
                .collect();
            let mut key2 = key;
            key2.protocol = IpProtocol(rep);
            self.go(
                F_SRC_MAC,
                v4,
                g,
                key2,
                smul(count, u128::from(n)),
                &la2,
                &lb2,
            )?;
        }
        Ok(())
    }

    /// Elementary-interval atomization: cut the domain intervals at
    /// every live constraint endpoint; within an atom each rule's
    /// membership is constant, so testing the atom's low end decides
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn split_interval(
        &mut self,
        idx: usize,
        v4: bool,
        g: Gates,
        key: FlowKey,
        count: u128,
        la: &[u32],
        lb: &[u32],
        dom_iv: &[(u128, u128)],
        get: impl Fn(&EvalRule) -> Option<(u128, u128)> + Copy,
        set: impl Fn(&mut FlowKey, u128) + Copy,
    ) -> Result<(), VerifyError> {
        let mut cuts: Vec<u128> = Vec::new();
        for &i in la {
            if let Some((lo, hi)) = get(&self.a[i as usize]) {
                cuts.push(lo);
                if let Some(h) = hi.checked_add(1) {
                    cuts.push(h);
                }
            }
        }
        for &j in lb {
            if let Some((lo, hi)) = get(&self.b[j as usize]) {
                cuts.push(lo);
                if let Some(h) = hi.checked_add(1) {
                    cuts.push(h);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for &(dlo, dhi) in dom_iv {
            let mut lo = dlo;
            loop {
                let hi = cuts
                    .iter()
                    .copied()
                    .filter(|&c| c > lo && c <= dhi)
                    .min()
                    .map_or(dhi, |c| c - 1);
                let la2: Vec<u32> = la
                    .iter()
                    .copied()
                    .filter(|&i| {
                        get(&self.a[i as usize]).is_none_or(|(clo, chi)| clo <= lo && lo <= chi)
                    })
                    .collect();
                let lb2: Vec<u32> = lb
                    .iter()
                    .copied()
                    .filter(|&j| {
                        get(&self.b[j as usize]).is_none_or(|(clo, chi)| clo <= lo && lo <= chi)
                    })
                    .collect();
                let mut key2 = key;
                set(&mut key2, lo);
                self.go(
                    idx + 1,
                    v4,
                    g,
                    key2,
                    smul(count, iv_len(lo, hi)),
                    &la2,
                    &lb2,
                )?;
                if hi >= dhi {
                    break;
                }
                lo = hi + 1;
            }
        }
        Ok(())
    }

    /// Bitmask-cube atomization over a flag byte: enumerate assignments
    /// of the bits any live cube constrains (within the domain mask);
    /// the remaining in-domain bits are free and contribute an exact
    /// power-of-two multiplier. A cube demanding a bit outside the
    /// domain mask matches nothing here and dies on every atom.
    #[allow(clippy::too_many_arguments)]
    fn split_bits(
        &mut self,
        idx: usize,
        v4: bool,
        g: Gates,
        key: FlowKey,
        count: u128,
        la: &[u32],
        lb: &[u32],
        dom_mask: u8,
        get: impl Fn(&EvalRule) -> Option<BitsMatch> + Copy,
        set: impl Fn(&mut FlowKey, u8) + Copy,
    ) -> Result<(), VerifyError> {
        let mut used: u8 = 0;
        for &i in la {
            if let Some(c) = get(&self.a[i as usize]) {
                used |= c.mask;
            }
        }
        for &j in lb {
            if let Some(c) = get(&self.b[j as usize]) {
                used |= c.mask;
            }
        }
        let cbits = used & dom_mask;
        let free = dom_mask & !cbits;
        let fmul = 1u128 << free.count_ones();
        for x in 0..=255u16 {
            let x = x as u8;
            if x & !cbits != 0 {
                continue;
            }
            let la2: Vec<u32> = la
                .iter()
                .copied()
                .filter(|&i| get(&self.a[i as usize]).is_none_or(|c| x & c.mask == c.value))
                .collect();
            let lb2: Vec<u32> = lb
                .iter()
                .copied()
                .filter(|&j| get(&self.b[j as usize]).is_none_or(|c| x & c.mask == c.value))
                .collect();
            let mut key2 = key;
            set(&mut key2, x);
            self.go(idx + 1, v4, g, key2, smul(count, fmul), &la2, &lb2)?;
        }
        Ok(())
    }

    /// Validates a region's witness against the *original* semantics
    /// and accumulates it. The algebra never certifies a difference its
    /// own inputs cannot reproduce.
    fn record(
        &mut self,
        oa: Outcome,
        ob: Outcome,
        keys: u128,
        wit: FlowKey,
    ) -> Result<(), VerifyError> {
        let va = eval_prepared(&self.a, &wit);
        let vb = eval_prepared(&self.b, &wit);
        if va != oa || vb != ob {
            return Err(VerifyError::WitnessMismatch {
                expected: (oa, ob),
                found: (va, vb),
            });
        }
        self.total = self.total.saturating_add(keys);
        let e = self.regions.entry((oa, ob)).or_insert((0u128, wit));
        e.0 = e.0.saturating_add(keys);
        Ok(())
    }

    /// Number of canonical keys in the remaining subdomain from field
    /// `idx` on (saturating product; family/protocol positions sum over
    /// their alternatives).
    fn size_from(&self, idx: usize, v4: bool, g: Gates) -> u128 {
        let dom = self.dom;
        if idx == F_FAMILY {
            let mut s: u128 = 0;
            for fam in [true, false] {
                let (src_iv, dst_iv) = if fam {
                    (&dom.src_ip_v4, &dom.dst_ip_v4)
                } else {
                    (&dom.src_ip_v6, &dom.dst_ip_v6)
                };
                if src_iv.is_empty() || dst_iv.is_empty() {
                    continue;
                }
                s = s.saturating_add(self.size_from(F_PROTO, fam, g));
            }
            return s;
        }
        if idx == F_PROTO {
            let mut s: u128 = 0;
            for &p in &dom.protocols {
                s = s.saturating_add(self.size_from(F_SRC_MAC, v4, Gates::of(IpProtocol(p))));
            }
            return s;
        }
        let mut total: u128 = 1;
        for f in idx..NFIELDS {
            let n = match f {
                F_SRC_MAC => iv_total(&dom.src_macs),
                F_DST_MAC => iv_total(&dom.dst_macs),
                F_SRC_IP => iv_total(if v4 { &dom.src_ip_v4 } else { &dom.src_ip_v6 }),
                F_DST_IP => iv_total(if v4 { &dom.dst_ip_v4 } else { &dom.dst_ip_v6 }),
                F_SRC_PORT | F_DST_PORT if g.has_ports => iv_total(&dom.ports),
                F_TCP_FLAGS if g.is_tcp => 1u128 << dom.tcp_flags_mask.count_ones(),
                F_PACKET_LEN => iv_total(&dom.packet_len),
                F_DSCP => iv_total(&dom.dscp),
                F_FRAGMENT => 1u128 << dom.fragment_mask.count_ones(),
                F_ICMP_TYPE if g.is_icmp => iv_total(&dom.icmp_type),
                F_ICMP_CODE if g.is_icmp => iv_total(&dom.icmp_code),
                F_FLOW_LABEL => {
                    if v4 {
                        1
                    } else {
                        iv_total(&dom.flow_label)
                    }
                }
                _ => 1,
            };
            total = smul(total, n);
        }
        total
    }

    /// Fills every field from `idx` on with its canonical smallest
    /// in-domain value, producing a concrete witness for a bulk-decided
    /// region.
    fn complete_key(&self, key: FlowKey, idx: usize, v4: bool, g: Gates) -> FlowKey {
        let dom = self.dom;
        let mut key = key;
        let mut v4 = v4;
        let mut g = g;
        for f in idx..NFIELDS {
            match f {
                F_FAMILY => {
                    v4 = !dom.src_ip_v4.is_empty() && !dom.dst_ip_v4.is_empty();
                    key.src_ip = num_ip(v4, 0);
                    key.dst_ip = num_ip(v4, 0);
                }
                F_PROTO => {
                    let p = IpProtocol(dom.protocols.first().copied().unwrap_or(0));
                    key.protocol = p;
                    g = Gates::of(p);
                }
                F_SRC_MAC => key.src_mac = num_mac(first_lo(&dom.src_macs)),
                F_DST_MAC => key.dst_mac = num_mac(first_lo(&dom.dst_macs)),
                F_SRC_IP => {
                    key.src_ip = num_ip(
                        v4,
                        first_lo(if v4 { &dom.src_ip_v4 } else { &dom.src_ip_v6 }),
                    )
                }
                F_DST_IP => {
                    key.dst_ip = num_ip(
                        v4,
                        first_lo(if v4 { &dom.dst_ip_v4 } else { &dom.dst_ip_v6 }),
                    )
                }
                F_SRC_PORT => {
                    key.src_port = if g.has_ports {
                        first_lo(&dom.ports) as u16
                    } else {
                        0
                    }
                }
                F_DST_PORT => {
                    key.dst_port = if g.has_ports {
                        first_lo(&dom.ports) as u16
                    } else {
                        0
                    }
                }
                F_TCP_FLAGS => key.tcp_flags = 0,
                F_PACKET_LEN => key.packet_len = first_lo(&dom.packet_len) as u16,
                F_DSCP => key.dscp = first_lo(&dom.dscp) as u8,
                F_FRAGMENT => key.fragment = 0,
                F_ICMP_TYPE => {
                    key.icmp_type = if g.is_icmp {
                        first_lo(&dom.icmp_type) as u8
                    } else {
                        0
                    }
                }
                F_ICMP_CODE => {
                    key.icmp_code = if g.is_icmp {
                        first_lo(&dom.icmp_code) as u8
                    } else {
                        0
                    }
                }
                _ => {
                    key.flow_label = if v4 {
                        0
                    } else {
                        first_lo(&dom.flow_label) as u32
                    }
                }
            }
        }
        key
    }
}

fn first_lo(ivs: &[(u128, u128)]) -> u128 {
    ivs.first().map_or(0, |&(lo, _)| lo)
}

/// First-match evaluation over an already rank-sorted, satisfiable-only
/// sequence.
fn eval_prepared(rules: &[EvalRule], key: &FlowKey) -> Outcome {
    rules
        .iter()
        .find(|r| r.spec.matches(key))
        .map_or(Outcome::NoMatch, |r| r.action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PortMatch;
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::prefix::{Ipv4Prefix, Prefix};

    fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
        match Ipv4Prefix::new(Ipv4Address([a, b, c, d]), len) {
            Ok(p) => Prefix::V4(p),
            Err(_) => Prefix::V4(Ipv4Prefix::host(Ipv4Address([a, b, c, d]))),
        }
    }

    fn rule(id: u64, prio: u16, spec: MatchSpec, action: ActionClass) -> AuditRule {
        AuditRule::new(RuleEntry::new(id, prio, spec), action)
    }

    /// A small fully-v4 domain where counts are checkable by hand:
    /// 1 src MAC x 1 dst MAC x 4 src IPs x 4 dst IPs x 2 protocols
    /// (UDP, GRE) x 4 ports each way x 1 len x 1 dscp x 1 frag value
    /// domain bit off ... etc.
    fn tiny() -> Domain {
        Domain {
            src_macs: vec![(0, 0)],
            dst_macs: vec![(0, 0)],
            src_ip_v4: vec![(0, 3)],
            dst_ip_v4: vec![(0, 3)],
            src_ip_v6: vec![],
            dst_ip_v6: vec![],
            protocols: vec![IpProtocol::UDP.0, IpProtocol::GRE.0],
            ports: vec![(0, 3)],
            packet_len: vec![(100, 100)],
            dscp: vec![(0, 0)],
            tcp_flags_mask: 0,
            fragment_mask: 0,
            icmp_type: vec![(0, 0)],
            icmp_code: vec![(0, 0)],
            flow_label: vec![(0, 0)],
        }
    }

    /// tiny(): UDP keys = 4*4*4*4 = 256, GRE keys = 4*4 = 16.
    const TINY_UDP: u128 = 256;
    const TINY_GRE: u128 = 16;

    #[test]
    fn tiny_domain_size_is_exact() {
        assert_eq!(tiny().size(), TINY_UDP + TINY_GRE);
    }

    #[test]
    fn empty_tables_are_equivalent() {
        let d = tiny();
        let diff = diff_tables(&[], &[], &d, 1000).unwrap();
        assert!(diff.is_equivalent());
        assert_eq!(diff.differing_keys, 0);
    }

    #[test]
    fn drop_all_vs_empty_counts_whole_domain() {
        let d = tiny();
        let t = vec![rule(1, 10, MatchSpec::default(), ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 1000).unwrap();
        assert_eq!(diff.regions.len(), 1);
        let r = &diff.regions[0];
        assert_eq!(
            (r.outcome_a, r.outcome_b),
            (Outcome::Drop, Outcome::NoMatch)
        );
        assert_eq!(r.keys, TINY_UDP + TINY_GRE);
        assert_eq!(diff.differing_keys, TINY_UDP + TINY_GRE);
    }

    #[test]
    fn single_prefix_rule_cardinality_is_exact() {
        let d = tiny();
        // dst 0.0.0.0/31 -> 2 dst IPs; everything else free.
        let spec = MatchSpec::to_destination(v4(0, 0, 0, 0, 31));
        let t = vec![rule(1, 10, spec, ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 10_000).unwrap();
        // UDP: 4 src * 2 dst * 4 * 4 ports = 128; GRE: 4 * 2 = 8.
        assert_eq!(diff.differing_keys, 128 + 8);
    }

    #[test]
    fn port_coupling_restricts_to_portful_protocols() {
        let d = tiny();
        // src_port 2 with no protocol: only UDP (GRE is portless).
        let spec = MatchSpec {
            src_port: Some(PortMatch::Exact(2)),
            ..Default::default()
        };
        let t = vec![rule(1, 10, spec, ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 10_000).unwrap();
        // 4 src * 4 dst * 1 src_port * 4 dst_port = 64 UDP keys.
        assert_eq!(diff.differing_keys, 64);
        assert_eq!(diff.regions[0].witness.protocol, IpProtocol::UDP);
    }

    #[test]
    fn reordering_disjoint_rules_is_equivalent() {
        let d = tiny();
        let s1 = MatchSpec::to_destination(v4(0, 0, 0, 0, 32));
        let s2 = MatchSpec::to_destination(v4(0, 0, 0, 1, 32));
        let a = vec![
            rule(1, 10, s1.clone(), ActionClass::Drop),
            rule(2, 20, s2.clone(), ActionClass::Forward),
        ];
        let b = vec![
            rule(1, 20, s1, ActionClass::Drop),
            rule(2, 10, s2, ActionClass::Forward),
        ];
        assert!(tables_equivalent(&a, &b, &d, 10_000).unwrap());
    }

    #[test]
    fn shadow_reorder_is_detected_with_valid_witness() {
        let d = tiny();
        let wide = MatchSpec::to_destination(v4(0, 0, 0, 0, 30)); // all 4 dsts
        let narrow = MatchSpec::to_destination(v4(0, 0, 0, 1, 32));
        // A: narrow forward first, wide drop second.
        let a = vec![
            rule(1, 10, narrow.clone(), ActionClass::Forward),
            rule(2, 20, wide.clone(), ActionClass::Drop),
        ];
        // B: wide drop first shadows the forward.
        let b = vec![
            rule(1, 20, narrow, ActionClass::Forward),
            rule(2, 10, wide, ActionClass::Drop),
        ];
        let diff = diff_tables(&a, &b, &d, 10_000).unwrap();
        assert_eq!(diff.regions.len(), 1);
        let r = &diff.regions[0];
        assert_eq!(
            (r.outcome_a, r.outcome_b),
            (Outcome::Forward, Outcome::Drop)
        );
        // dst fixed to .1: UDP 4*4*4 + GRE 4 = 68 keys.
        assert_eq!(r.keys, 68);
        assert_eq!(r.witness.dst_ip, IpAddress::V4(Ipv4Address([0, 0, 0, 1])));
        // Witness is real: validated by eval_table over the originals.
        assert_eq!(eval_table(&a, &r.witness), Outcome::Forward);
        assert_eq!(eval_table(&b, &r.witness), Outcome::Drop);
    }

    #[test]
    fn containment_direction_is_reported() {
        let d = tiny();
        let narrow = vec![rule(
            1,
            10,
            MatchSpec::to_destination(v4(0, 0, 0, 0, 32)),
            ActionClass::Drop,
        )];
        let wide = vec![rule(
            1,
            10,
            MatchSpec::to_destination(v4(0, 0, 0, 0, 30)),
            ActionClass::Drop,
        )];
        // narrow ⊆ wide: nothing narrow drops escapes wide.
        assert!(drop_not_contained(&narrow, &wide, &d, 10_000)
            .unwrap()
            .is_none());
        // wide ⊄ narrow, with a witness outside the /32.
        let w = drop_not_contained(&wide, &narrow, &d, 10_000)
            .unwrap()
            .expect("wide must exceed narrow");
        assert_eq!(eval_table(&wide, &w.witness), Outcome::Drop);
        assert_eq!(eval_table(&narrow, &w.witness), Outcome::NoMatch);
    }

    #[test]
    fn ladder_widening_is_monotone() {
        let d = tiny();
        let shape = rule(
            5,
            5,
            MatchSpec {
                dst_ip: Some(v4(0, 0, 0, 2, 32)),
                ..Default::default()
            },
            ActionClass::Shape { rate_bps: 1000 },
        );
        let old = MatchSpec::proto_src_port_to(v4(0, 0, 0, 0, 32), IpProtocol::UDP, 1);
        let new = MatchSpec::to_destination(v4(0, 0, 0, 0, 32));
        let before = vec![shape.clone(), rule(9, 10, old.clone(), ActionClass::Drop)];
        let after = vec![shape, rule(9, 10, new, ActionClass::Drop)];
        let rep = check_ladder_step(&before, &after, &old, &d, 10_000).unwrap();
        assert!(rep.is_monotone(), "widening must be monotone: {rep:?}");
        // Newly dropped: dst .0, minus the 4 old (UDP src_port 1) keys...
        // before: UDP src_port=1 dst=.0: 4 src * 4 dst_port = 16 keys.
        // after: dst=.0 everywhere: UDP 4*4*4=64 + GRE 4 = 68.
        assert_eq!(rep.widened_keys, 68 - 16);
    }

    #[test]
    fn ladder_shrink_is_flagged() {
        let d = tiny();
        let old = MatchSpec::to_destination(v4(0, 0, 0, 0, 31));
        let new = MatchSpec::to_destination(v4(0, 0, 0, 0, 32)); // narrower!
        let before = vec![rule(9, 10, old.clone(), ActionClass::Drop)];
        let after = vec![rule(9, 10, new, ActionClass::Drop)];
        let rep = check_ladder_step(&before, &after, &old, &d, 10_000).unwrap();
        assert!(rep.shrunk.is_some());
        assert!(!rep.is_monotone());
    }

    #[test]
    fn ladder_touching_shaped_traffic_is_flagged() {
        let d = tiny();
        // A shape rule on dst .2; the "degradation" of a drop rule on
        // dst .0 illegally lands on .2 too (covers the shaped key with
        // an earlier priority), turning shaped traffic into drops.
        let shape = rule(
            5,
            20,
            MatchSpec {
                dst_ip: Some(v4(0, 0, 0, 2, 32)),
                ..Default::default()
            },
            ActionClass::Shape { rate_bps: 1000 },
        );
        let old = MatchSpec::to_destination(v4(0, 0, 0, 0, 32));
        let bad_new = MatchSpec::to_destination(v4(0, 0, 0, 2, 31)); // covers .2 and .3
        let before = vec![shape.clone(), rule(9, 10, old.clone(), ActionClass::Drop)];
        let after = vec![shape, rule(9, 10, bad_new, ActionClass::Drop)];
        let rep = check_ladder_step(&before, &after, &old, &d, 10_000).unwrap();
        assert!(rep.shaped_touched.is_some(), "must flag shaped touch");
        let r = rep.shaped_touched.unwrap();
        assert!(matches!(r.outcome_a, Outcome::Shape { .. }));
        assert_eq!(r.outcome_b, Outcome::Drop);
    }

    #[test]
    fn budget_exhaustion_errors_instead_of_sampling() {
        let d = tiny();
        let t: Vec<AuditRule> = (0..8)
            .map(|i| {
                rule(
                    i,
                    10 + i as u16,
                    MatchSpec {
                        src_port: Some(PortMatch::Exact(i as u16 % 4)),
                        dst_port: Some(PortMatch::Exact((i as u16 + 1) % 4)),
                        ..Default::default()
                    },
                    ActionClass::Drop,
                )
            })
            .collect();
        assert_eq!(
            diff_tables(&t, &[], &d, 3),
            Err(VerifyError::Budget { nodes: 4 })
        );
    }

    #[test]
    fn v6_saturating_cardinality() {
        let d = Domain::canonical();
        let t = vec![rule(1, 10, MatchSpec::default(), ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 10_000).unwrap();
        // Full v6 address dimensions saturate the count.
        assert_eq!(diff.differing_keys, u128::MAX);
    }

    #[test]
    fn tcp_flag_cubes_atomize_exactly() {
        let mut d = tiny();
        d.protocols = vec![IpProtocol::TCP.0];
        d.tcp_flags_mask = 0x07;
        // A: drop SYN-set (bit 1). B: drop SYN-set & ACK-clear (0x12
        // mask... use bits within 0x07: mask 0x03 value 0x02).
        let a = vec![rule(
            1,
            10,
            MatchSpec {
                tcp_flags: Some(BitsMatch::new(0x02, 0x02)),
                ..Default::default()
            },
            ActionClass::Drop,
        )];
        let b = vec![rule(
            1,
            10,
            MatchSpec {
                tcp_flags: Some(BitsMatch::new(0x03, 0x02)),
                ..Default::default()
            },
            ActionClass::Drop,
        )];
        let diff = diff_tables(&a, &b, &d, 100_000).unwrap();
        // A drops flags {x1x: bit1 set} = 4 of 8 values; B drops
        // {bit1 set, bit0 clear} = 2 of 8. Difference: 2 flag values,
        // everything else free: 4 src * 4 dst * 4 sport * 4 dport * 2.
        assert_eq!(diff.differing_keys, 4 * 4 * 4 * 4 * 2);
        let r = &diff.regions[0];
        assert_eq!(
            (r.outcome_a, r.outcome_b),
            (Outcome::Drop, Outcome::NoMatch)
        );
        assert_eq!(eval_table(&a, &r.witness), Outcome::Drop);
        assert_eq!(eval_table(&b, &r.witness), Outcome::NoMatch);
    }

    #[test]
    fn unsatisfiable_cube_never_matches() {
        let d = tiny();
        // value demands a bit outside the mask: unsatisfiable, and
        // spec_is_empty strips it -> equivalent to empty.
        let t = vec![rule(
            1,
            10,
            MatchSpec {
                fragment: Some(BitsMatch {
                    mask: 0x01,
                    value: 0x03,
                }),
                ..Default::default()
            },
            ActionClass::Drop,
        )];
        assert!(tables_equivalent(&t, &[], &d, 10_000).unwrap());
    }

    #[test]
    fn dst_mac_restriction_isolates_port_traffic() {
        let d = tiny();
        let m1 = num_mac(0);
        let spec = MatchSpec {
            dst_mac: Some(MacAddr([0, 0, 0, 0, 0, 9])),
            ..Default::default()
        };
        // A rule pinned to a MAC outside the domain: invisible.
        let t = vec![rule(1, 10, spec, ActionClass::Drop)];
        assert!(tables_equivalent(&t, &[], &d.clone().with_dst_mac(m1), 10_000).unwrap());
    }
}
