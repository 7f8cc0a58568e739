//! Static rule-table analysis: shadowing, redundancy, conflicts and
//! reachability witnesses over [`MatchSpec`] tables — *before* anything
//! touches the dataplane.
//!
//! The dynamic path only discovers a bad rule when it fails at install
//! time (TCAM exhaustion) or, worse, never discovers it at all (a rule
//! that can never be first-match silently burns TCAM criteria forever).
//! Classic firewall policy analysis (FIREMAN and the ACL-anomaly line of
//! work) shows these properties are decidable for match languages like
//! ours, where every rule is a product of per-field sets: MAC equality,
//! IP prefixes (aligned intervals), protocol equality, port / length /
//! DSCP / ICMP-type / flow-label intervals, and TCP-flag / fragment bit
//! cubes.
//!
//! Three results per table, all deterministic (rank-ordered, no hash
//! iteration):
//!
//! - **Pairwise anomalies** — rule `R` is [`RuleFlag::Shadowed`] /
//!   [`RuleFlag::Redundant`] when a single earlier rule matches every
//!   flow `R` matches (different / same action); `R` is in
//!   [`RuleFlag::Conflict`] with an earlier rule when their match sets
//!   *cross* (overlap, neither covers the other) and one drops what the
//!   other shapes — the ambiguous split where rank, not intent, decides.
//! - **Reachability witnesses** — for every rule not pairwise covered, a
//!   concrete [`FlowKey`] that reaches it as first-match, found by an
//!   exact backtracking search over violation choices (every earlier
//!   overlapping rule must miss the key on at least one field). A rule
//!   with no witness is union-covered by earlier rules and flagged
//!   [`RuleFlag::Unreachable`].
//! - **TCAM usage** — the criteria-pool footprint ([`table_usage`]) the
//!   table would consume, for pre-admission capacity accounting against
//!   the hardware pools (the paper's Fig. 9 F1/F2 modes) before install.
//!
//! A rule's verdict depends only on that rule and the better-ranked
//! rules of its table, so the analysis comes in two scopes over one
//! implementation: [`analyze`] judges every rule (`n` witness searches
//! and `n²/2` pair tests for `n` rules), [`analyze_candidates`] only the
//! named ones (`k` searches, at most `k·n` pair tests) — what a control
//! plane admitting `k` new rules into a standing table needs.

use crate::classifier::{RuleEntry, RuleId};
use crate::spec::{is_icmp, BitsMatch, MatchSpec, PortMatch, RangeMatch};
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::Prefix;
use stellar_net::proto::IpProtocol;

/// The action a rule takes, as far as the analyzer cares: enough to
/// distinguish "same effect" (redundancy) from "opposing effect"
/// (conflict). Mirrors the dataplane's action set without depending on
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Discard matching traffic.
    Drop,
    /// Rate-limit matching traffic to `rate_bps`.
    Shape {
        /// Shaping rate in bits per second.
        rate_bps: u64,
    },
    /// Explicitly forward (bypass later rules).
    Forward,
}

impl ActionClass {
    /// True when two actions opposing each other on overlapping traffic
    /// is an anomaly worth rejecting: one side discards what the other
    /// deliberately lets through (shaped telemetry or an explicit
    /// forward).
    pub fn conflicts_with(&self, other: &ActionClass) -> bool {
        matches!(
            (self, other),
            (ActionClass::Drop, ActionClass::Shape { .. })
                | (ActionClass::Shape { .. }, ActionClass::Drop)
                | (ActionClass::Drop, ActionClass::Forward)
                | (ActionClass::Forward, ActionClass::Drop)
        )
    }
}

/// One rule as the analyzer sees it: engine identity/priority/match plus
/// the action class.
#[derive(Debug, Clone)]
pub struct AuditRule {
    /// Identity, priority and match spec.
    pub entry: RuleEntry,
    /// What the rule does to matches.
    pub action: ActionClass,
}

impl AuditRule {
    /// Creates an audit rule.
    pub fn new(entry: RuleEntry, action: ActionClass) -> Self {
        AuditRule { entry, action }
    }

    fn rank(&self) -> (u16, RuleId) {
        (self.entry.priority, self.entry.id)
    }
}

/// What the analyzer found wrong with one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFlag {
    /// A single earlier rule matches everything this rule matches, with a
    /// different action: this rule never fires, and its author's intent
    /// is overridden.
    Shadowed {
        /// The covering earlier rule.
        by: RuleId,
    },
    /// A single earlier rule matches everything this rule matches, with
    /// the same action: this rule never fires and removing it changes
    /// nothing.
    Redundant {
        /// The covering earlier rule.
        by: RuleId,
    },
    /// An earlier rule has the *identical* match set AND the identical
    /// action: a literal duplicate. Operationally a different story from
    /// [`RuleFlag::Redundant`] (a broader rule happens to absorb this
    /// one): a duplicate is almost always a double-signal or a replay,
    /// and deleting either copy is safe.
    Duplicate {
        /// The earlier identical rule.
        of: RuleId,
    },
    /// No single earlier rule covers this one, but their union does (or
    /// the spec is self-contradictory): the witness search proved no
    /// packet can reach it as first-match.
    Unreachable,
    /// This rule's match set crosses an earlier rule's (they overlap,
    /// neither covers the other) and the actions oppose (drop vs. shape /
    /// forward): on the shared traffic, evaluation rank — not operator
    /// intent — decides the outcome.
    Conflict {
        /// The earlier rule it crosses.
        with: RuleId,
    },
    /// The witness search exhausted its budget before proving
    /// reachability either way. Never produced at default budgets for
    /// tables of realistic size; treated as reachable (not rejected).
    Unverified,
}

impl RuleFlag {
    /// True for the flags that prove the rule can never be first-match.
    pub fn is_dead(&self) -> bool {
        matches!(
            self,
            RuleFlag::Shadowed { .. }
                | RuleFlag::Redundant { .. }
                | RuleFlag::Duplicate { .. }
                | RuleFlag::Unreachable
        )
    }
}

/// One finding: a rule and what is wrong with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finding {
    /// The flagged rule.
    pub rule: RuleId,
    /// The anomaly.
    pub flag: RuleFlag,
}

/// Aggregate TCAM criteria a rule set consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcamUsage {
    /// MAC (L2) filter criteria.
    pub mac: usize,
    /// L3–L4 filter criteria.
    pub l34: usize,
}

/// The full analysis of one rule table.
#[derive(Debug, Clone, Default)]
pub struct TableAnalysis {
    /// Anomalies, ordered by the flagged rule's evaluation rank (dead
    /// flags before conflicts for the same rule).
    pub findings: Vec<Finding>,
    /// For every rule with no dead flag: a concrete flow key that reaches
    /// it as first-match, in evaluation-rank order.
    pub witnesses: Vec<(RuleId, FlowKey)>,
    /// TCAM criteria the whole table consumes.
    pub usage: TcamUsage,
}

impl TableAnalysis {
    /// The dead flag (shadowed / redundant / unreachable) for a rule, if
    /// any.
    pub fn dead_flag(&self, rule: RuleId) -> Option<RuleFlag> {
        self.findings
            .iter()
            .find(|f| f.rule == rule && f.flag.is_dead())
            .map(|f| f.flag)
    }

    /// The conflicts a rule participates in as the later (lower-ranked)
    /// side.
    pub fn conflicts_of(&self, rule: RuleId) -> Vec<RuleId> {
        self.findings
            .iter()
            .filter_map(|f| match f.flag {
                RuleFlag::Conflict { with } if f.rule == rule => Some(with),
                _ => None,
            })
            .collect()
    }

    /// The witness key for a rule, if the search produced one.
    pub fn witness(&self, rule: RuleId) -> Option<&FlowKey> {
        self.witnesses
            .iter()
            .find(|(id, _)| *id == rule)
            .map(|(_, k)| k)
    }
}

/// Default witness-search budget (leaf instantiations per rule). Far
/// above what tables of control-plane size ever need; the bound exists
/// so a pathological table degrades to [`RuleFlag::Unverified`] instead
/// of hanging the control plane.
pub const DEFAULT_WITNESS_BUDGET: usize = 100_000;

/// Analyzes a rule table with the default witness budget.
pub fn analyze(rules: &[AuditRule]) -> TableAnalysis {
    analyze_with_budget(rules, DEFAULT_WITNESS_BUDGET)
}

/// Analyzes a rule table. See the module docs for the semantics of each
/// flag. Deterministic: rules are processed in evaluation-rank order and
/// all output is rank-sorted.
///
/// Cost for a table of `n` rules: `n` coverage scans, up to `n` witness
/// searches and `n²/2` conflict tests. A caller that only needs the
/// verdict on a few rules should ask [`analyze_candidates`] instead.
pub fn analyze_with_budget(rules: &[AuditRule], budget: usize) -> TableAnalysis {
    analyze_where(rules, budget, |_| true)
}

/// [`analyze`] restricted to the rules whose id is in `ids`: exactly the
/// findings and witnesses `analyze(rules)` reports for those rules, in
/// the same order, and the same whole-table `usage`. Each candidate is
/// still judged against *every* better-ranked rule of the table —
/// candidates included — so a rule's verdict does not depend on which
/// other rules were asked about; ids absent from the table ask nothing.
///
/// Cost for `k` candidates in a table of `n` rules: `k` coverage scans,
/// up to `k` witness searches and at most `k·n` conflict tests — the
/// admission audit's per-announcement bill (see `stellar_core::audit`).
pub fn analyze_candidates(rules: &[AuditRule], ids: &[RuleId]) -> TableAnalysis {
    analyze_candidates_with_budget(rules, ids, DEFAULT_WITNESS_BUDGET)
}

/// [`analyze_candidates`] with an explicit witness budget.
pub fn analyze_candidates_with_budget(
    rules: &[AuditRule],
    ids: &[RuleId],
    budget: usize,
) -> TableAnalysis {
    analyze_where(rules, budget, |id| ids.contains(&id))
}

/// The one analysis loop: ranks the table, then judges every position
/// whose rule id passes `visit`.
fn analyze_where(
    rules: &[AuditRule],
    budget: usize,
    visit: impl Fn(RuleId) -> bool,
) -> TableAnalysis {
    let mut order: Vec<usize> = (0..rules.len()).collect();
    order.sort_by_key(|&i| rules[i].rank());
    let mut out = TableAnalysis {
        usage: table_usage(rules),
        ..Default::default()
    };
    for (pos, &ri) in order.iter().enumerate() {
        if visit(rules[ri].entry.id) {
            judge(rules, &order[..pos], &rules[ri], budget, &mut out);
        }
    }
    out
}

/// Judges one rule against the better-ranked rules `earlier` (indices
/// into `rules`, in rank order) and appends what it finds to `out`. The
/// verdict depends on nothing but `rule` and `earlier` — no state is
/// carried from one rule to the next, which is what makes the
/// candidate-scoped entry exact.
fn judge(
    rules: &[AuditRule],
    earlier: &[usize],
    rule: &AuditRule,
    budget: usize,
    out: &mut TableAnalysis,
) {
    // Pairwise coverage: the first (best-ranked) earlier rule whose
    // match set contains this rule's decides the flag.
    let coverer = earlier
        .iter()
        .map(|&ei| &rules[ei])
        .find(|e| spec_covers(&e.entry.spec, &rule.entry.spec));
    let dead = if let Some(e) = coverer {
        let by = e.entry.id;
        Some(if e.action != rule.action {
            RuleFlag::Shadowed { by }
        } else if spec_covers(&rule.entry.spec, &e.entry.spec) {
            // Mutual cover = identical match set; identical action
            // too, so this is a literal duplicate of `e`.
            RuleFlag::Duplicate { of: by }
        } else {
            RuleFlag::Redundant { by }
        })
    } else {
        // No single cover: search for a first-match witness against
        // the union of earlier rules.
        let earlier_specs: Vec<&MatchSpec> =
            earlier.iter().map(|&ei| &rules[ei].entry.spec).collect();
        let mut fuel = budget;
        match find_witness(&earlier_specs, &rule.entry.spec, &mut fuel) {
            WitnessOutcome::Found(key) => {
                out.witnesses.push((rule.entry.id, key));
                None
            }
            WitnessOutcome::Unreachable => Some(RuleFlag::Unreachable),
            WitnessOutcome::Budget => Some(RuleFlag::Unverified),
        }
    };
    if let Some(flag) = dead {
        out.findings.push(Finding {
            rule: rule.entry.id,
            flag,
        });
    }
    // Crossing-overlap action conflicts, regardless of reachability:
    // even a reachable rule loses part of its traffic to the earlier
    // side of the cross.
    for &ei in earlier {
        let e = &rules[ei];
        if rule.action.conflicts_with(&e.action)
            && spec_intersects(&e.entry.spec, &rule.entry.spec)
            && !spec_covers(&e.entry.spec, &rule.entry.spec)
            && !spec_covers(&rule.entry.spec, &e.entry.spec)
        {
            out.findings.push(Finding {
                rule: rule.entry.id,
                flag: RuleFlag::Conflict { with: e.entry.id },
            });
        }
    }
}

/// TCAM criteria the whole table consumes (criteria pool + MAC pool), for
/// pre-admission accounting against the hardware's free pools.
pub fn table_usage(rules: &[AuditRule]) -> TcamUsage {
    rules.iter().fold(TcamUsage::default(), |mut u, r| {
        u.mac += r.entry.spec.mac_criteria();
        u.l34 += r.entry.spec.l34_criteria();
        u
    })
}

// ---------------------------------------------------------------------
// Set relations on MatchSpecs.
//
// A spec denotes a product of per-field sets over flow keys, with three
// couplings (see `MatchSpec::matches`): port criteria restrict the
// protocol to port-bearing ones, TCP-flag criteria restrict it to TCP
// and ICMP type/code criteria to the two ICMP protocols (all three
// folded into one derived protocol set below), and a flow-label
// criterion restricts the destination to IPv6.
// ---------------------------------------------------------------------

pub(crate) fn port_interval(pm: &PortMatch) -> (u16, u16) {
    match pm {
        PortMatch::Exact(p) => (*p, *p),
        PortMatch::Range(lo, hi) => (*lo, *hi),
    }
}

/// A set of IP protocol numbers as a 256-bit mask. Small enough to pass
/// by value, exact enough to decide every protocol coupling (ports, TCP
/// flags, ICMP fields) without case analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProtoSet {
    lo: u128,
    hi: u128,
}

impl ProtoSet {
    pub(crate) const ALL: ProtoSet = ProtoSet {
        lo: u128::MAX,
        hi: u128::MAX,
    };

    pub(crate) fn single(p: IpProtocol) -> Self {
        let mut s = ProtoSet { lo: 0, hi: 0 };
        s.insert(p.0);
        s
    }

    pub(crate) fn from_pred(f: impl Fn(IpProtocol) -> bool) -> Self {
        let mut s = ProtoSet { lo: 0, hi: 0 };
        for p in 0..=255u8 {
            if f(IpProtocol(p)) {
                s.insert(p);
            }
        }
        s
    }

    fn insert(&mut self, p: u8) {
        if p < 128 {
            self.lo |= 1u128 << p;
        } else {
            self.hi |= 1u128 << (p - 128);
        }
    }

    pub(crate) fn and(self, o: ProtoSet) -> ProtoSet {
        ProtoSet {
            lo: self.lo & o.lo,
            hi: self.hi & o.hi,
        }
    }

    pub(crate) fn is_empty(self) -> bool {
        self.lo == 0 && self.hi == 0
    }

    pub(crate) fn is_subset(self, o: ProtoSet) -> bool {
        self.and(o) == self
    }

    /// Membership test for one protocol number.
    pub(crate) fn contains(self, p: u8) -> bool {
        if p < 128 {
            self.lo & (1u128 << p) != 0
        } else {
            self.hi & (1u128 << (p - 128)) != 0
        }
    }
}

pub(crate) fn portful_protos() -> ProtoSet {
    ProtoSet::from_pred(|p| p.has_ports())
}

/// The protocols a key matching `s` can carry: the explicit protocol
/// field intersected with every implicit protocol coupling (port
/// criteria → port-bearing, TCP flags → TCP, ICMP type/code → ICMP).
pub(crate) fn allowed_protos(s: &MatchSpec) -> ProtoSet {
    let mut set = match s.protocol {
        Some(p) => ProtoSet::single(p),
        None => ProtoSet::ALL,
    };
    if s.src_port.is_some() || s.dst_port.is_some() {
        set = set.and(portful_protos());
    }
    if s.tcp_flags.is_some() {
        set = set.and(ProtoSet::single(IpProtocol::TCP));
    }
    if s.icmp_type.is_some() || s.icmp_code.is_some() {
        set = set.and(ProtoSet::from_pred(is_icmp));
    }
    set
}

/// True if every value satisfying cube `inner` also satisfies `outer`
/// (`inner ⊆ outer` as flag-byte sets): `outer` constrains no bit
/// `inner` leaves free, and they agree on `outer`'s bits.
fn cube_subset(inner: BitsMatch, outer: BitsMatch) -> bool {
    outer.mask & inner.mask == outer.mask && inner.value & outer.mask == outer.value
}

/// True if some value satisfies both (satisfiable) cubes: their values
/// agree on the shared mask bits.
fn cubes_compatible(a: BitsMatch, b: BitsMatch) -> bool {
    a.value & b.mask == b.value & a.mask
}

/// The criterion as an inclusive interval, `(0, full_hi)` when absent.
fn range_iv<T: Copy + Into<u128>>(r: &Option<RangeMatch<T>>, full_hi: u128) -> (u128, u128) {
    r.as_ref()
        .map(|r| (r.lo.into(), r.hi.into()))
        .unwrap_or((0, full_hi))
}

/// One interval dimension of `a` covers the same dimension of `b` over
/// the field's domain `0..=full_hi`.
fn range_covers<T: Copy + Into<u128>>(
    a: &Option<RangeMatch<T>>,
    b: &Option<RangeMatch<T>>,
    full_hi: u128,
) -> bool {
    let Some(ra) = a else {
        return true; // wildcard covers everything
    };
    let (blo, bhi) = range_iv(b, full_hi);
    ra.lo.into() <= blo && bhi <= ra.hi.into()
}

/// The two interval criteria admit a common value of the field.
fn ranges_overlap<T: Copy + Into<u128>>(
    a: &Option<RangeMatch<T>>,
    b: &Option<RangeMatch<T>>,
    full_hi: u128,
) -> bool {
    let (alo, ahi) = range_iv(a, full_hi);
    let (blo, bhi) = range_iv(b, full_hi);
    alo.max(blo) <= ahi.min(bhi)
}

/// True if the spec can match nothing at all: an inverted port or
/// numeric range, an unsatisfiable bit cube, a flow-label criterion on
/// an IPv4 destination, or a field combination whose implied protocol
/// sets are disjoint (a port criterion on a portless protocol, TCP
/// flags next to ICMP fields, ...).
pub fn spec_is_empty(s: &MatchSpec) -> bool {
    let inverted_port = [&s.src_port, &s.dst_port].iter().any(|pm| {
        pm.as_ref().is_some_and(|pm| {
            let (lo, hi) = port_interval(pm);
            lo > hi
        })
    });
    let inverted_range = s.packet_len.is_some_and(|r| r.is_empty())
        || s.dscp.is_some_and(|r| r.is_empty())
        || s.icmp_type.is_some_and(|r| r.is_empty())
        || s.icmp_code.is_some_and(|r| r.is_empty())
        || s.flow_label.is_some_and(|r| r.is_empty());
    let unsat_cube = s.tcp_flags.is_some_and(|c| !c.is_satisfiable())
        || s.fragment.is_some_and(|c| !c.is_satisfiable());
    let v4_flow_label = s.flow_label.is_some() && s.dst_ip.as_ref().is_some_and(|p| p.is_v4());
    inverted_port || inverted_range || unsat_cube || v4_flow_label || allowed_protos(s).is_empty()
}

/// One port dimension of `a` covers the same dimension of `b`: every
/// `b`-matched key's port satisfies `a`'s criterion.
fn port_covers(a: &Option<PortMatch>, b: &Option<PortMatch>, b_portful: bool) -> bool {
    let Some(pa) = a else {
        return true; // wildcard covers everything
    };
    if !b_portful {
        // `b` admits keys on portless protocols, which `a`'s port
        // criterion can never match.
        return false;
    }
    let (alo, ahi) = port_interval(pa);
    let (blo, bhi) = b.as_ref().map(port_interval).unwrap_or((0, u16::MAX));
    alo <= blo && bhi <= ahi
}

/// True if `a` matches every flow key `b` matches (`a ⊇ b`). Exact for
/// this match language; `spec_covers(a, b) && b-matches(k)` implies
/// `a-matches(k)` by per-field set inclusion.
pub fn spec_covers(a: &MatchSpec, b: &MatchSpec) -> bool {
    if spec_is_empty(b) {
        return true; // the empty set is covered by anything
    }
    let mac_ok = |am: &Option<MacAddr>, bm: &Option<MacAddr>| am.is_none() || *am == *bm;
    let ip_ok = |ap: &Option<Prefix>, bp: &Option<Prefix>| match (ap, bp) {
        (None, _) => true,
        (Some(a), Some(b)) => a.covers(b),
        (Some(_), None) => false,
    };
    // Every protocol coupling goes through `b`'s derived protocol set:
    // a protocol-wildcard `b` with a port criterion is still confined to
    // {UDP, TCP}, one with a TCP-flags criterion to {TCP}, and so on —
    // `a`'s constraints only have to hold over what `b` actually admits.
    let b_protos = allowed_protos(b);
    let proto_ok = match a.protocol {
        None => true,
        Some(ap) => b_protos.is_subset(ProtoSet::single(ap)),
    };
    let b_portful = b_protos.is_subset(portful_protos());
    // A gated criterion on `a` (TCP flags, ICMP fields, flow label)
    // covers `b` only when `b` is confined to the gate — otherwise `b`
    // admits keys the gate alone makes `a` miss.
    let tcp_flags_ok = match a.tcp_flags {
        None => true,
        Some(ca) => {
            b_protos.is_subset(ProtoSet::single(IpProtocol::TCP))
                && cube_subset(b.tcp_flags.unwrap_or(BitsMatch::new(0, 0)), ca)
        }
    };
    let b_icmp_only = b_protos.is_subset(ProtoSet::from_pred(is_icmp));
    let icmp_type_ok =
        a.icmp_type.is_none() || (b_icmp_only && range_covers(&a.icmp_type, &b.icmp_type, 255));
    let icmp_code_ok =
        a.icmp_code.is_none() || (b_icmp_only && range_covers(&a.icmp_code, &b.icmp_code, 255));
    let fragment_ok = match a.fragment {
        None => true,
        Some(ca) => cube_subset(b.fragment.unwrap_or(BitsMatch::new(0, 0)), ca),
    };
    let flow_label_ok = match a.flow_label {
        None => true,
        Some(_) => {
            let b_v6_dst_only =
                b.flow_label.is_some() || b.dst_ip.as_ref().is_some_and(|p| !p.is_v4());
            b_v6_dst_only && range_covers(&a.flow_label, &b.flow_label, u128::from(u32::MAX))
        }
    };
    mac_ok(&a.src_mac, &b.src_mac)
        && mac_ok(&a.dst_mac, &b.dst_mac)
        && ip_ok(&a.src_ip, &b.src_ip)
        && ip_ok(&a.dst_ip, &b.dst_ip)
        && proto_ok
        && port_covers(&a.src_port, &b.src_port, b_portful)
        && port_covers(&a.dst_port, &b.dst_port, b_portful)
        && tcp_flags_ok
        && icmp_type_ok
        && icmp_code_ok
        && range_covers(&a.packet_len, &b.packet_len, u128::from(u16::MAX))
        && range_covers(&a.dscp, &b.dscp, 255)
        && fragment_ok
        && flow_label_ok
}

/// True if some flow key matches both specs (their intersection is
/// non-empty). Exact for this match language.
pub fn spec_intersects(a: &MatchSpec, b: &MatchSpec) -> bool {
    if spec_is_empty(a) || spec_is_empty(b) {
        return false;
    }
    let mac_ok = |am: &Option<MacAddr>, bm: &Option<MacAddr>| match (am, bm) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    };
    let ip_ok = |ap: &Option<Prefix>, bp: &Option<Prefix>| match (ap, bp) {
        (Some(x), Some(y)) => x.covers(y) || y.covers(x),
        _ => true,
    };
    let ports_overlap = |x: &Option<PortMatch>, y: &Option<PortMatch>| {
        let (xlo, xhi) = x.as_ref().map(port_interval).unwrap_or((0, u16::MAX));
        let (ylo, yhi) = y.as_ref().map(port_interval).unwrap_or((0, u16::MAX));
        xlo.max(ylo) <= xhi.min(yhi)
    };
    // Joint protocol constraint: the derived sets (explicit protocol
    // plus every implicit coupling on either side) must share a member.
    if allowed_protos(a).and(allowed_protos(b)).is_empty() {
        return false;
    }
    let cubes_ok = |x: &Option<BitsMatch>, y: &Option<BitsMatch>| match (x, y) {
        (Some(cx), Some(cy)) => cubes_compatible(*cx, *cy),
        _ => true,
    };
    // A flow-label criterion on either side forces an IPv6 destination
    // in the intersection.
    let v6_ok = if a.flow_label.is_some() || b.flow_label.is_some() {
        !a.dst_ip.as_ref().is_some_and(|p| p.is_v4())
            && !b.dst_ip.as_ref().is_some_and(|p| p.is_v4())
    } else {
        true
    };
    mac_ok(&a.src_mac, &b.src_mac)
        && mac_ok(&a.dst_mac, &b.dst_mac)
        && ip_ok(&a.src_ip, &b.src_ip)
        && ip_ok(&a.dst_ip, &b.dst_ip)
        && ports_overlap(&a.src_port, &b.src_port)
        && ports_overlap(&a.dst_port, &b.dst_port)
        && cubes_ok(&a.tcp_flags, &b.tcp_flags)
        && cubes_ok(&a.fragment, &b.fragment)
        && ranges_overlap(&a.packet_len, &b.packet_len, u128::from(u16::MAX))
        && ranges_overlap(&a.dscp, &b.dscp, 255)
        && ranges_overlap(&a.icmp_type, &b.icmp_type, 255)
        && ranges_overlap(&a.icmp_code, &b.icmp_code, 255)
        && ranges_overlap(&a.flow_label, &b.flow_label, u128::from(u32::MAX))
        && v6_ok
}

// ---------------------------------------------------------------------
// Witness search.
//
// A first-match witness for rule R against earlier rules E1..En is a key
// k with k ∈ R and k ∉ Ei for every i. Each Ei must be *violated* on at
// least one field; the search branches over which field of each
// overlapping Ei to violate, accumulates the induced per-field
// constraints (bans), and instantiates a concrete key at the leaf. Every
// candidate is verified with the real `MatchSpec::matches` predicate, so
// any returned witness is sound by construction; completeness comes from
// the branching covering every way a product set can miss a key.
// ---------------------------------------------------------------------

enum WitnessOutcome {
    Found(FlowKey),
    Unreachable,
    Budget,
}

/// Accumulated per-field constraints along one search branch.
#[derive(Debug, Clone, Default)]
struct Constraints {
    src_mac_bans: Vec<MacAddr>,
    dst_mac_bans: Vec<MacAddr>,
    /// Banned address intervals `(is_v4, lo, hi)`.
    src_ip_bans: Vec<(bool, u128, u128)>,
    dst_ip_bans: Vec<(bool, u128, u128)>,
    proto_bans: Vec<IpProtocol>,
    src_port_bans: Vec<(u16, u16)>,
    dst_port_bans: Vec<(u16, u16)>,
    /// Banned TCP-flag cubes (the flag byte must satisfy none of them).
    tcp_flags_bans: Vec<BitsMatch>,
    /// Banned fragment-bit cubes.
    fragment_bans: Vec<BitsMatch>,
    packet_len_bans: Vec<(u128, u128)>,
    dscp_bans: Vec<(u128, u128)>,
    icmp_type_bans: Vec<(u128, u128)>,
    icmp_code_bans: Vec<(u128, u128)>,
    flow_label_bans: Vec<(u128, u128)>,
    /// The witness protocol must carry ports (a numeric port violation
    /// or a port criterion on the target).
    must_have_ports: bool,
    /// The witness protocol must NOT carry ports (an earlier rule's port
    /// criterion is violated by choosing a portless protocol).
    must_be_portless: bool,
    /// The witness must be TCP (the target has a TCP-flags criterion).
    must_be_tcp: bool,
    /// The witness must NOT be TCP (an earlier rule's TCP-flags
    /// criterion is violated by leaving the TCP protocol class).
    must_not_tcp: bool,
    /// The witness must be ICMP/ICMPv6 (the target has ICMP criteria).
    must_be_icmp: bool,
    /// The witness must NOT be ICMP/ICMPv6 (an earlier rule's ICMP
    /// criterion is violated by leaving the ICMP protocol class).
    must_not_icmp: bool,
    /// The destination must be IPv4 (an earlier rule's flow-label
    /// criterion is violated through its IPv6 gate).
    must_dst_v4: bool,
}

/// Smallest flag byte satisfying the target's cube (if any) and none of
/// the banned cubes.
fn pick_bits(fixed: Option<BitsMatch>, bans: &[BitsMatch]) -> Option<u8> {
    (0u8..=255).find(|&x| fixed.is_none_or(|c| c.matches(x)) && bans.iter().all(|c| !c.matches(x)))
}

/// Smallest value in the target's interval (the full `0..=full_hi`
/// domain when unconstrained) avoiding every banned interval.
fn pick_num(fixed: Option<(u128, u128)>, full_hi: u128, bans: &[(u128, u128)]) -> Option<u128> {
    let (lo, hi) = fixed.unwrap_or((0, full_hi));
    pick_in(lo, hi, bans)
}

/// The criterion as a concrete interval for `pick_num`.
fn fixed_iv<T: Copy + Into<u128>>(r: &Option<RangeMatch<T>>) -> Option<(u128, u128)> {
    r.as_ref().map(|r| (r.lo.into(), r.hi.into()))
}

pub(crate) fn ip_num(addr: IpAddress) -> (bool, u128) {
    match addr {
        IpAddress::V4(Ipv4Address(b)) => (true, u128::from(u32::from_be_bytes(b))),
        IpAddress::V6(Ipv6Address(b)) => (false, u128::from_be_bytes(b)),
    }
}

pub(crate) fn num_ip(is_v4: bool, n: u128) -> IpAddress {
    if is_v4 {
        IpAddress::V4(Ipv4Address((n as u32).to_be_bytes()))
    } else {
        IpAddress::V6(Ipv6Address(n.to_be_bytes()))
    }
}

/// The prefix as an aligned address interval `(is_v4, lo, hi)`.
pub(crate) fn prefix_interval(p: &Prefix) -> (bool, u128, u128) {
    let (is_v4, lo) = ip_num(p.network());
    let bits = if is_v4 { 32 } else { 128 };
    let host_bits = u32::from(bits - p.len());
    let size = if host_bits >= 128 {
        u128::MAX
    } else {
        (1u128 << host_bits) - 1
    };
    (is_v4, lo, lo.saturating_add(size))
}

/// Smallest value in `[lo, hi]` avoiding every banned interval, if any.
fn pick_in(lo: u128, hi: u128, bans: &[(u128, u128)]) -> Option<u128> {
    let mut clipped: Vec<(u128, u128)> = bans
        .iter()
        .filter(|(blo, bhi)| *bhi >= lo && *blo <= hi)
        .map(|(blo, bhi)| ((*blo).max(lo), (*bhi).min(hi)))
        .collect();
    clipped.sort_unstable();
    let mut cur = lo;
    for (blo, bhi) in clipped {
        if blo > cur {
            return Some(cur);
        }
        cur = cur.max(bhi.checked_add(1)?);
        if cur > hi {
            return None;
        }
    }
    Some(cur)
}

impl Constraints {
    /// A MAC satisfying the target's constraint and every ban, if any.
    fn pick_mac(&self, fixed: Option<MacAddr>, bans: &[MacAddr]) -> Option<MacAddr> {
        if let Some(m) = fixed {
            return (!bans.contains(&m)).then_some(m);
        }
        let ban_nums: Vec<(u128, u128)> = bans
            .iter()
            .map(|m| {
                let mut b = [0u8; 16];
                b[10..].copy_from_slice(&m.0);
                let n = u128::from_be_bytes(b);
                (n, n)
            })
            .collect();
        let n = pick_in(0, (1u128 << 48) - 1, &ban_nums)?;
        let bytes = n.to_be_bytes();
        let mut mac = [0u8; 6];
        mac.copy_from_slice(&bytes[10..]);
        Some(MacAddr(mac))
    }

    /// An address inside the target's prefix constraint (or any address)
    /// avoiding every banned interval. Tries the constrained family, or
    /// v4 then v6 when unconstrained; `family` (Some(true) = v4 only,
    /// Some(false) = v6 only) further confines the choice for the
    /// flow-label gate.
    fn pick_ip(
        &self,
        fixed: &Option<Prefix>,
        bans: &[(bool, u128, u128)],
        family: Option<bool>,
    ) -> Option<IpAddress> {
        let mut families: Vec<(bool, u128, u128)> = match fixed {
            Some(p) => vec![prefix_interval(p)],
            None => vec![(true, 0, u128::from(u32::MAX)), (false, 0, u128::MAX)],
        };
        if let Some(want_v4) = family {
            families.retain(|(f, _, _)| *f == want_v4);
        }
        for (is_v4, lo, hi) in families {
            let fam_bans: Vec<(u128, u128)> = bans
                .iter()
                .filter(|(f, _, _)| *f == is_v4)
                .map(|(_, blo, bhi)| (*blo, *bhi))
                .collect();
            if let Some(n) = pick_in(lo, hi, &fam_bans) {
                return Some(num_ip(is_v4, n));
            }
        }
        None
    }

    /// A protocol satisfying the target constraint, the port flags and
    /// the bans.
    fn pick_proto(&self, fixed: Option<IpProtocol>) -> Option<IpProtocol> {
        if self.must_have_ports && self.must_be_portless {
            return None;
        }
        let ok = |p: IpProtocol| {
            !self.proto_bans.contains(&p)
                && (!self.must_have_ports || p.has_ports())
                && (!self.must_be_portless || !p.has_ports())
                && (!self.must_be_tcp || p == IpProtocol::TCP)
                && (!self.must_not_tcp || p != IpProtocol::TCP)
                && (!self.must_be_icmp || is_icmp(p))
                && (!self.must_not_icmp || !is_icmp(p))
        };
        if let Some(p) = fixed {
            return ok(p).then_some(p);
        }
        // Portful candidates first ordering is irrelevant for soundness:
        // flags already rule out the wrong class.
        let candidates = [
            IpProtocol::UDP,
            IpProtocol::TCP,
            IpProtocol::ICMP,
            IpProtocol::GRE,
            IpProtocol::ESP,
            IpProtocol::IGMP,
            IpProtocol::ICMPV6,
            IpProtocol(99),
            IpProtocol(111),
            IpProtocol(200),
        ];
        candidates.into_iter().find(|p| ok(*p))
    }

    /// A port value satisfying the target's criterion and the bans.
    fn pick_port(&self, fixed: &Option<PortMatch>, bans: &[(u16, u16)]) -> Option<u16> {
        let (lo, hi) = fixed.as_ref().map(port_interval).unwrap_or((0, u16::MAX));
        let ban_nums: Vec<(u128, u128)> = bans
            .iter()
            .map(|(blo, bhi)| (u128::from(*blo), u128::from(*bhi)))
            .collect();
        pick_in(u128::from(lo), u128::from(hi), &ban_nums).map(|n| n as u16)
    }

    /// Instantiates a concrete key for `target` under the accumulated
    /// constraints, if one exists. Gated fields are only picked when the
    /// chosen protocol / destination family activates them — on an
    /// inactive gate the earlier rule's criterion already misses, so the
    /// banned values are irrelevant and the field stays zero.
    fn instantiate(&self, target: &MatchSpec) -> Option<FlowKey> {
        let protocol = self.pick_proto(target.protocol)?;
        let (src_port, dst_port) = if protocol.has_ports() {
            (
                self.pick_port(&target.src_port, &self.src_port_bans)?,
                self.pick_port(&target.dst_port, &self.dst_port_bans)?,
            )
        } else {
            (0, 0)
        };
        // A flow-label criterion on the target forces a v6 destination;
        // a NotV6Dst violation forces v4 (apply_violation refuses the
        // combination).
        let dst_family = if self.must_dst_v4 {
            Some(true)
        } else if target.flow_label.is_some() {
            Some(false)
        } else {
            None
        };
        let dst_ip = self.pick_ip(&target.dst_ip, &self.dst_ip_bans, dst_family)?;
        let tcp_flags = if protocol == IpProtocol::TCP {
            pick_bits(target.tcp_flags, &self.tcp_flags_bans)?
        } else {
            0
        };
        let (icmp_type, icmp_code) = if is_icmp(protocol) {
            (
                pick_num(fixed_iv(&target.icmp_type), 255, &self.icmp_type_bans)? as u8,
                pick_num(fixed_iv(&target.icmp_code), 255, &self.icmp_code_bans)? as u8,
            )
        } else {
            (0, 0)
        };
        let flow_label = if matches!(dst_ip, IpAddress::V6(_)) {
            pick_num(
                fixed_iv(&target.flow_label),
                u128::from(u32::MAX),
                &self.flow_label_bans,
            )? as u32
        } else {
            0
        };
        Some(FlowKey {
            src_mac: self.pick_mac(target.src_mac, &self.src_mac_bans)?,
            dst_mac: self.pick_mac(target.dst_mac, &self.dst_mac_bans)?,
            src_ip: self.pick_ip(&target.src_ip, &self.src_ip_bans, None)?,
            dst_ip,
            protocol,
            src_port,
            dst_port,
            tcp_flags,
            packet_len: pick_num(
                fixed_iv(&target.packet_len),
                u128::from(u16::MAX),
                &self.packet_len_bans,
            )? as u16,
            dscp: pick_num(fixed_iv(&target.dscp), 255, &self.dscp_bans)? as u8,
            fragment: pick_bits(target.fragment, &self.fragment_bans)?,
            icmp_type,
            icmp_code,
            flow_label,
        })
    }
}

/// Which field of an earlier rule a branch violates.
#[derive(Debug, Clone, Copy)]
enum Violation {
    SrcMac,
    DstMac,
    SrcIp,
    DstIp,
    Proto,
    /// Port value outside the earlier rule's range (forces a port-bearing
    /// protocol).
    SrcPortValue,
    DstPortValue,
    /// Portless protocol (defeats any port criterion on the earlier
    /// rule).
    Portless,
    /// Flag byte outside the earlier rule's TCP-flags cube.
    TcpFlagsValue,
    /// Non-TCP protocol (defeats a TCP-flags criterion via its gate).
    NotTcp,
    /// ICMP type outside the earlier rule's interval.
    IcmpTypeValue,
    /// ICMP code outside the earlier rule's interval.
    IcmpCodeValue,
    /// Non-ICMP protocol (defeats ICMP type/code criteria via the gate).
    NotIcmp,
    /// Packet length outside the earlier rule's interval.
    PacketLenValue,
    /// DSCP outside the earlier rule's interval.
    DscpValue,
    /// Fragment bits outside the earlier rule's cube.
    FragmentValue,
    /// Flow label outside the earlier rule's interval.
    FlowLabelValue,
    /// IPv4 destination (defeats a flow-label criterion via its gate).
    NotV6Dst,
}

const ALL_VIOLATIONS: [Violation; 18] = [
    Violation::SrcMac,
    Violation::DstMac,
    Violation::SrcIp,
    Violation::DstIp,
    Violation::Proto,
    Violation::SrcPortValue,
    Violation::DstPortValue,
    Violation::Portless,
    Violation::TcpFlagsValue,
    Violation::NotTcp,
    Violation::IcmpTypeValue,
    Violation::IcmpCodeValue,
    Violation::NotIcmp,
    Violation::PacketLenValue,
    Violation::DscpValue,
    Violation::FragmentValue,
    Violation::FlowLabelValue,
    Violation::NotV6Dst,
];

fn find_witness(earlier: &[&MatchSpec], target: &MatchSpec, fuel: &mut usize) -> WitnessOutcome {
    if spec_is_empty(target) {
        return WitnessOutcome::Unreachable;
    }
    let mut cons = Constraints {
        must_have_ports: target.src_port.is_some() || target.dst_port.is_some(),
        must_be_tcp: target.tcp_flags.is_some(),
        must_be_icmp: target.icmp_type.is_some() || target.icmp_code.is_some(),
        ..Default::default()
    };
    // Only earlier rules whose match set overlaps the target's need an
    // explicit violation; disjoint ones cannot capture a target-matching
    // key (and the final verification double-checks).
    let overlapping: Vec<&MatchSpec> = earlier
        .iter()
        .copied()
        .filter(|e| spec_intersects(e, target))
        .collect();
    match solve(&overlapping, 0, target, earlier, &mut cons, fuel) {
        Some(key) => WitnessOutcome::Found(key),
        None if *fuel == 0 => WitnessOutcome::Budget,
        None => WitnessOutcome::Unreachable,
    }
}

/// Depth-first search over violation choices for `overlapping[idx..]`,
/// verifying the instantiated key against the *full* earlier list.
fn solve(
    overlapping: &[&MatchSpec],
    idx: usize,
    target: &MatchSpec,
    all_earlier: &[&MatchSpec],
    cons: &mut Constraints,
    fuel: &mut usize,
) -> Option<FlowKey> {
    if *fuel == 0 {
        return None;
    }
    if idx == overlapping.len() {
        *fuel -= 1;
        let key = cons.instantiate(target)?;
        if target.matches(&key) && all_earlier.iter().all(|e| !e.matches(&key)) {
            return Some(key);
        }
        return None;
    }
    let e = overlapping[idx];
    for v in ALL_VIOLATIONS {
        let mut next = cons.clone();
        if !apply_violation(&mut next, e, target, v) {
            continue;
        }
        if let Some(key) = solve(overlapping, idx + 1, target, all_earlier, &mut next, fuel) {
            return Some(key);
        }
        if *fuel == 0 {
            return None;
        }
    }
    None
}

/// Adds the constraint that violates field `v` of earlier rule `e` to
/// `cons`, returning false when the choice is structurally infeasible
/// against the target's own constraints (cheap pruning; the leaf
/// verification is the final arbiter).
fn apply_violation(
    cons: &mut Constraints,
    e: &MatchSpec,
    target: &MatchSpec,
    v: Violation,
) -> bool {
    match v {
        Violation::SrcMac => {
            let Some(m) = e.src_mac else { return false };
            if target.src_mac == Some(m) {
                return false;
            }
            cons.src_mac_bans.push(m);
        }
        Violation::DstMac => {
            let Some(m) = e.dst_mac else { return false };
            if target.dst_mac == Some(m) {
                return false;
            }
            cons.dst_mac_bans.push(m);
        }
        Violation::SrcIp => {
            let Some(p) = &e.src_ip else { return false };
            if target.src_ip.as_ref().is_some_and(|t| p.covers(t)) {
                return false;
            }
            cons.src_ip_bans.push(prefix_interval(p));
        }
        Violation::DstIp => {
            let Some(p) = &e.dst_ip else { return false };
            if target.dst_ip.as_ref().is_some_and(|t| p.covers(t)) {
                return false;
            }
            cons.dst_ip_bans.push(prefix_interval(p));
        }
        Violation::Proto => {
            let Some(p) = e.protocol else { return false };
            if target.protocol == Some(p) {
                return false;
            }
            cons.proto_bans.push(p);
        }
        Violation::SrcPortValue => {
            let Some(pm) = &e.src_port else { return false };
            if cons.must_be_portless {
                return false;
            }
            cons.src_port_bans.push(port_interval(pm));
            cons.must_have_ports = true;
        }
        Violation::DstPortValue => {
            let Some(pm) = &e.dst_port else { return false };
            if cons.must_be_portless {
                return false;
            }
            cons.dst_port_bans.push(port_interval(pm));
            cons.must_have_ports = true;
        }
        Violation::Portless => {
            // Defeats a port criterion by making the key portless; only
            // possible when the earlier rule has one and the target has
            // none (and no port-bearing protocol requirement).
            if e.src_port.is_none() && e.dst_port.is_none() {
                return false;
            }
            if cons.must_have_ports
                || target.protocol.is_some_and(|p| p.has_ports())
                || target.src_port.is_some()
                || target.dst_port.is_some()
            {
                return false;
            }
            cons.must_be_portless = true;
        }
        Violation::TcpFlagsValue => {
            let Some(c) = e.tcp_flags else { return false };
            // A mask-0 cube matches every flag byte; a target cube inside
            // the banned cube leaves no value to pick (the target forces
            // TCP, so the flags gate is always active).
            if c.mask == 0 || target.tcp_flags.is_some_and(|t| cube_subset(t, c)) {
                return false;
            }
            cons.tcp_flags_bans.push(c);
        }
        Violation::NotTcp => {
            if e.tcp_flags.is_none()
                || cons.must_be_tcp
                || target.tcp_flags.is_some()
                || target.protocol == Some(IpProtocol::TCP)
            {
                return false;
            }
            cons.must_not_tcp = true;
        }
        Violation::IcmpTypeValue => {
            let Some(r) = e.icmp_type else { return false };
            cons.icmp_type_bans.push((r.lo.into(), r.hi.into()));
        }
        Violation::IcmpCodeValue => {
            let Some(r) = e.icmp_code else { return false };
            cons.icmp_code_bans.push((r.lo.into(), r.hi.into()));
        }
        Violation::NotIcmp => {
            if (e.icmp_type.is_none() && e.icmp_code.is_none())
                || cons.must_be_icmp
                || target.icmp_type.is_some()
                || target.icmp_code.is_some()
                || target.protocol.is_some_and(is_icmp)
            {
                return false;
            }
            cons.must_not_icmp = true;
        }
        Violation::PacketLenValue => {
            let Some(r) = e.packet_len else { return false };
            // Ungated field: a ban swallowing the target's whole interval
            // can never be avoided.
            let (tlo, thi) = range_iv(&target.packet_len, u128::from(u16::MAX));
            if u128::from(r.lo) <= tlo && thi <= u128::from(r.hi) {
                return false;
            }
            cons.packet_len_bans.push((r.lo.into(), r.hi.into()));
        }
        Violation::DscpValue => {
            let Some(r) = e.dscp else { return false };
            let (tlo, thi) = range_iv(&target.dscp, 255);
            if u128::from(r.lo) <= tlo && thi <= u128::from(r.hi) {
                return false;
            }
            cons.dscp_bans.push((r.lo.into(), r.hi.into()));
        }
        Violation::FragmentValue => {
            let Some(c) = e.fragment else { return false };
            if c.mask == 0 || target.fragment.is_some_and(|t| cube_subset(t, c)) {
                return false;
            }
            cons.fragment_bans.push(c);
        }
        Violation::FlowLabelValue => {
            let Some(r) = e.flow_label else { return false };
            cons.flow_label_bans.push((r.lo.into(), r.hi.into()));
        }
        Violation::NotV6Dst => {
            if e.flow_label.is_none()
                || target.flow_label.is_some()
                || target.dst_ip.as_ref().is_some_and(|p| !p.is_v4())
            {
                return false;
            }
            cons.must_dst_v4 = true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::ports;

    fn spec(dst: &str) -> MatchSpec {
        MatchSpec::to_destination(dst.parse().unwrap())
    }

    fn ntp(dst: &str) -> MatchSpec {
        MatchSpec::proto_src_port_to(dst.parse().unwrap(), IpProtocol::UDP, ports::NTP)
    }

    fn rule(id: RuleId, priority: u16, spec: MatchSpec, action: ActionClass) -> AuditRule {
        AuditRule::new(RuleEntry::new(id, priority, spec), action)
    }

    #[test]
    fn covers_is_reflexive_and_respects_fields() {
        let a = spec("100.10.10.0/24");
        let b = ntp("100.10.10.10/32");
        assert!(spec_covers(&a, &a));
        assert!(spec_covers(&a, &b)); // /24 wildcard-proto covers NTP /32
        assert!(!spec_covers(&b, &a));
        // A port criterion cannot cover a port-wildcard spec that admits
        // portless protocols.
        let any_port = MatchSpec {
            src_port: Some(PortMatch::Range(0, u16::MAX)),
            ..Default::default()
        };
        assert!(!spec_covers(&any_port, &MatchSpec::default()));
        // ...but covers one pinned to UDP.
        let all_udp = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        assert!(spec_covers(&any_port, &all_udp));
    }

    #[test]
    fn intersects_handles_protocol_port_coupling() {
        let udp_src = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(123)),
            ..Default::default()
        };
        let icmp = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            ..Default::default()
        };
        assert!(!spec_intersects(&udp_src, &icmp));
        let port_only = MatchSpec {
            src_port: Some(PortMatch::Range(100, 200)),
            ..Default::default()
        };
        assert!(spec_intersects(&udp_src, &port_only));
        assert!(!spec_intersects(&port_only, &icmp));
        // Disjoint port ranges.
        let other_ports = MatchSpec {
            src_port: Some(PortMatch::Range(300, 400)),
            ..Default::default()
        };
        assert!(!spec_intersects(&port_only, &other_ports));
    }

    #[test]
    fn shadowed_and_redundant_are_detected() {
        let t = analyze(&[
            rule(1, 10, spec("100.10.10.0/24"), ActionClass::Drop),
            rule(2, 10, ntp("100.10.10.10/32"), ActionClass::Drop),
            rule(
                3,
                10,
                ntp("100.10.10.11/32"),
                ActionClass::Shape { rate_bps: 1 },
            ),
        ]);
        assert_eq!(t.dead_flag(2), Some(RuleFlag::Redundant { by: 1 }));
        assert_eq!(t.dead_flag(3), Some(RuleFlag::Shadowed { by: 1 }));
        assert!(t.dead_flag(1).is_none());
        assert!(t.witness(1).is_some());
    }

    #[test]
    fn candidate_scope_reports_the_whole_table_verdicts_for_the_named_rules() {
        let udp_src = |port| MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(port)),
            ..Default::default()
        };
        let udp_dst_80 = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            dst_port: Some(PortMatch::Exact(80)),
            ..Default::default()
        };
        let shape = ActionClass::Shape { rate_bps: 1 };
        let table = [
            rule(1, 10, udp_src(123), ActionClass::Drop),
            // Candidates, ranked in the middle of the table: 2 is live,
            // 3 duplicates candidate 2, 4 crosses standing rule 1.
            rule(2, 10, udp_src(53), ActionClass::Drop),
            rule(3, 10, udp_src(53), ActionClass::Drop),
            rule(4, 10, udp_dst_80.clone(), shape),
            // Standing and worse-ranked: shadowed by candidate 4, but
            // nobody asked.
            rule(5, 20, udp_dst_80, ActionClass::Drop),
        ];
        let whole = analyze(&table);
        assert_eq!(whole.dead_flag(5), Some(RuleFlag::Shadowed { by: 4 }));
        let scoped = analyze_candidates(&table, &[4, 2, 3, 99]);
        assert_eq!(
            scoped.findings,
            vec![
                Finding {
                    rule: 3,
                    flag: RuleFlag::Duplicate { of: 2 }
                },
                Finding {
                    rule: 4,
                    flag: RuleFlag::Conflict { with: 1 }
                },
                Finding {
                    rule: 4,
                    flag: RuleFlag::Conflict { with: 2 }
                },
                Finding {
                    rule: 4,
                    flag: RuleFlag::Conflict { with: 3 }
                },
            ]
        );
        let ids: Vec<RuleId> = scoped.witnesses.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 4]);
        assert_eq!(scoped.witness(4), whole.witness(4));
        assert_eq!(scoped.usage, whole.usage);
        // A budget blow-out is reported for the candidate it hit, the
        // same way the whole-table entry reports it.
        let dry = analyze_candidates_with_budget(&table, &[4], 0);
        assert_eq!(dry.findings[0].flag, RuleFlag::Unverified);
        assert_eq!(
            dry.findings,
            analyze_with_budget(&table, 0)
                .findings
                .into_iter()
                .filter(|f| f.rule == 4)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn priority_decides_rank_not_id() {
        // Rule 9 evaluates first despite the higher id.
        let t = analyze(&[
            rule(1, 50, ntp("100.10.10.10/32"), ActionClass::Drop),
            rule(9, 10, spec("100.10.10.0/24"), ActionClass::Drop),
        ]);
        assert_eq!(t.dead_flag(1), Some(RuleFlag::Redundant { by: 9 }));
        assert!(t.dead_flag(9).is_none());
    }

    #[test]
    fn union_coverage_is_flagged_unreachable() {
        // Two /25s cover the /24; no single rule does.
        let t = analyze(&[
            rule(1, 10, spec("100.10.10.0/25"), ActionClass::Drop),
            rule(2, 10, spec("100.10.10.128/25"), ActionClass::Drop),
            rule(3, 10, spec("100.10.10.0/24"), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(1).is_none());
        assert!(t.dead_flag(2).is_none());
        assert_eq!(t.dead_flag(3), Some(RuleFlag::Unreachable));
        // UDP + TCP + ICMP... does NOT cover all protocols.
        let udp = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        let tcp = MatchSpec {
            protocol: Some(IpProtocol::TCP),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, udp, ActionClass::Drop),
            rule(2, 10, tcp, ActionClass::Drop),
            rule(3, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(3).is_none());
        let w = t.witness(3).unwrap();
        assert!(!w.protocol.has_ports());
    }

    #[test]
    fn crossing_drop_shape_overlap_is_a_conflict() {
        // src-port rule vs dst-port rule: crossing overlap, drop vs shape.
        let a = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(123)),
            ..Default::default()
        };
        let b = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            dst_port: Some(PortMatch::Exact(80)),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, a.clone(), ActionClass::Drop),
            rule(2, 10, b.clone(), ActionClass::Shape { rate_bps: 1 }),
        ]);
        assert_eq!(t.conflicts_of(2), vec![1]);
        assert!(t.dead_flag(2).is_none(), "conflicting rule is still live");
        // Same shape but the broader rule merely layers over a carved-out
        // exception (earlier narrower rule inside later broader): no
        // conflict.
        let narrow = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(123)),
            ..Default::default()
        };
        let broad = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, narrow, ActionClass::Drop),
            rule(2, 10, broad, ActionClass::Shape { rate_bps: 1 }),
        ]);
        assert!(t.conflicts_of(2).is_empty());
        // Same actions never conflict.
        let t = analyze(&[
            rule(1, 10, a, ActionClass::Drop),
            rule(2, 10, b, ActionClass::Drop),
        ]);
        assert!(t.findings.is_empty());
    }

    #[test]
    fn witnesses_reach_their_rules_first_match() {
        let rules = [
            rule(1, 10, ntp("100.10.10.10/32"), ActionClass::Drop),
            rule(
                2,
                10,
                MatchSpec {
                    protocol: Some(IpProtocol::UDP),
                    dst_ip: Some("100.10.10.10/32".parse().unwrap()),
                    ..Default::default()
                },
                ActionClass::Shape { rate_bps: 1 },
            ),
            rule(3, 10, spec("100.10.10.10/32"), ActionClass::Drop),
        ];
        let t = analyze(&rules);
        assert!(t.findings.iter().all(|f| !f.flag.is_dead()));
        let engine = crate::FlowClassifier::compile(rules.iter().map(|r| r.entry.clone()));
        for (id, key) in &t.witnesses {
            assert_eq!(engine.classify(key), Some(*id), "witness for rule {id}");
        }
        assert_eq!(t.witnesses.len(), 3);
    }

    #[test]
    fn empty_spec_is_unreachable() {
        let icmp_with_port = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            src_port: Some(PortMatch::Exact(1)),
            ..Default::default()
        };
        assert!(spec_is_empty(&icmp_with_port));
        let t = analyze(&[rule(1, 10, icmp_with_port, ActionClass::Drop)]);
        assert_eq!(t.dead_flag(1), Some(RuleFlag::Unreachable));
    }

    #[test]
    fn mac_scoped_rules_find_witnesses() {
        let m1 = MacAddr::for_member(64500, 1);
        let m2 = MacAddr::for_member(64501, 1);
        let t = analyze(&[
            rule(
                1,
                10,
                MatchSpec {
                    src_mac: Some(m1),
                    ..Default::default()
                },
                ActionClass::Drop,
            ),
            rule(
                2,
                10,
                MatchSpec {
                    src_mac: Some(m2),
                    ..Default::default()
                },
                ActionClass::Drop,
            ),
            rule(3, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(3).is_none());
        let w = t.witness(3).unwrap();
        assert_ne!(w.src_mac, m1);
        assert_ne!(w.src_mac, m2);
    }

    #[test]
    fn table_usage_sums_criteria() {
        let u = table_usage(&[
            rule(1, 10, ntp("100.10.10.10/32"), ActionClass::Drop), // 3 l34
            rule(
                2,
                10,
                MatchSpec {
                    src_mac: Some(MacAddr::for_member(64500, 1)),
                    dst_ip: Some("100.10.10.10/32".parse().unwrap()),
                    ..Default::default()
                },
                ActionClass::Drop,
            ), // 1 mac + 1 l34
        ]);
        assert_eq!(u, TcamUsage { mac: 1, l34: 4 });
    }

    #[test]
    fn empty_specs_on_the_extended_fields_are_detected() {
        use stellar_net::tcp::TcpFlags;
        // Inverted numeric range.
        let inverted_len = MatchSpec {
            packet_len: Some(RangeMatch::new(1000, 64)),
            ..Default::default()
        };
        assert!(spec_is_empty(&inverted_len));
        // Cube demanding a bit outside its own mask.
        let unsat_cube = MatchSpec {
            fragment: Some(BitsMatch::new(0x02, 0x01)),
            ..Default::default()
        };
        assert!(spec_is_empty(&unsat_cube));
        // Gated criteria pinned to the wrong protocol class.
        let udp_with_flags = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            ..Default::default()
        };
        assert!(spec_is_empty(&udp_with_flags));
        let tcp_with_icmp = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            icmp_type: Some(RangeMatch::exact(8)),
            ..Default::default()
        };
        assert!(spec_is_empty(&tcp_with_icmp));
        let icmp_with_port = MatchSpec {
            icmp_type: Some(RangeMatch::exact(8)),
            src_port: Some(PortMatch::Exact(53)),
            ..Default::default()
        };
        assert!(spec_is_empty(&icmp_with_port));
        // Flow label needs an IPv6 destination.
        let v4_flow_label = MatchSpec {
            dst_ip: Some("100.10.10.0/24".parse().unwrap()),
            flow_label: Some(RangeMatch::exact(5)),
            ..Default::default()
        };
        assert!(spec_is_empty(&v4_flow_label));
        // The satisfiable counterparts are not empty.
        let syn = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            ..Default::default()
        };
        assert!(!spec_is_empty(&syn));
    }

    #[test]
    fn covers_and_intersects_respect_the_gated_fields() {
        use stellar_net::tcp::TcpFlags;
        let syn_only = MatchSpec {
            tcp_flags: Some(BitsMatch::new(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN)),
            ..Default::default()
        };
        let all_tcp = MatchSpec {
            protocol: Some(IpProtocol::TCP),
            ..Default::default()
        };
        // The gate confines `syn_only` to TCP, so the protocol spec
        // covers it — but not vice versa (ACK-set keys escape the cube).
        assert!(spec_covers(&all_tcp, &syn_only));
        assert!(!spec_covers(&syn_only, &all_tcp));
        // A wider cube covers a narrower one.
        let syn_set = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            ..Default::default()
        };
        assert!(spec_covers(&syn_set, &syn_only));
        assert!(!spec_covers(&syn_only, &syn_set));
        // Incompatible cubes cannot intersect; disjoint protocol classes
        // cannot either.
        let ack_set = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::ACK)),
            ..Default::default()
        };
        assert!(!spec_intersects(&syn_only, &ack_set));
        assert!(spec_intersects(&syn_only, &syn_set));
        let udp = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        assert!(!spec_intersects(&syn_only, &udp));
        // ICMP intervals: covering needs the gate, intersection needs
        // overlapping intervals.
        let echo = MatchSpec {
            icmp_type: Some(RangeMatch::exact(8)),
            ..Default::default()
        };
        let all_icmp = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            ..Default::default()
        };
        assert!(!spec_covers(&echo, &all_icmp)); // type 3 keys escape
        assert!(spec_intersects(&echo, &all_icmp));
        let unreach = MatchSpec {
            icmp_type: Some(RangeMatch::exact(3)),
            ..Default::default()
        };
        assert!(!spec_intersects(&echo, &unreach));
        // Ungated interval fields cover by inclusion.
        let big = MatchSpec {
            packet_len: Some(RangeMatch::new(1000, u16::MAX)),
            ..Default::default()
        };
        let bigger_only = MatchSpec {
            packet_len: Some(RangeMatch::new(1400, 1500)),
            ..Default::default()
        };
        assert!(spec_covers(&big, &bigger_only));
        assert!(!spec_covers(&bigger_only, &big));
        assert!(!spec_covers(&big, &MatchSpec::default()));
        let small = MatchSpec {
            packet_len: Some(RangeMatch::new(0, 512)),
            ..Default::default()
        };
        assert!(!spec_intersects(&big, &small));
    }

    #[test]
    fn tcp_flag_scoped_rules_find_witnesses() {
        use stellar_net::tcp::TcpFlags;
        let syn_only = MatchSpec {
            dst_ip: Some("100.10.10.10/32".parse().unwrap()),
            tcp_flags: Some(BitsMatch::new(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN)),
            ..Default::default()
        };
        let all_tcp = MatchSpec {
            protocol: Some(IpProtocol::TCP),
            dst_ip: Some("100.10.10.10/32".parse().unwrap()),
            ..Default::default()
        };
        let rules = [
            rule(1, 10, syn_only, ActionClass::Drop),
            rule(2, 10, all_tcp, ActionClass::Drop),
            rule(3, 10, spec("100.10.10.10/32"), ActionClass::Drop),
        ];
        let t = analyze(&rules);
        assert!(t.findings.iter().all(|f| !f.flag.is_dead()));
        // Rule 2's witness must be a TCP key outside the SYN-only cube.
        let w = t.witness(2).unwrap();
        assert_eq!(w.protocol, IpProtocol::TCP);
        assert!(!(w.tcp_flags & TcpFlags::SYN != 0 && w.tcp_flags & TcpFlags::ACK == 0));
        let engine = crate::FlowClassifier::compile(rules.iter().map(|r| r.entry.clone()));
        for (id, key) in &t.witnesses {
            assert_eq!(engine.classify(key), Some(*id), "witness for rule {id}");
        }
        assert_eq!(t.witnesses.len(), 3);
    }

    #[test]
    fn icmp_scoped_rules_find_witnesses() {
        let echo = MatchSpec {
            icmp_type: Some(RangeMatch::exact(8)),
            ..Default::default()
        };
        let all_icmp = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, echo, ActionClass::Drop),
            rule(2, 10, all_icmp, ActionClass::Drop),
        ]);
        assert!(t.dead_flag(2).is_none());
        let w = t.witness(2).unwrap();
        assert_eq!(w.protocol, IpProtocol::ICMP);
        assert_ne!(w.icmp_type, 8);
    }

    #[test]
    fn packet_length_union_coverage_is_unreachable() {
        let short = MatchSpec {
            packet_len: Some(RangeMatch::new(0, 999)),
            ..Default::default()
        };
        let long = MatchSpec {
            packet_len: Some(RangeMatch::new(1000, u16::MAX)),
            ..Default::default()
        };
        let mid = MatchSpec {
            packet_len: Some(RangeMatch::new(500, 1500)),
            ..Default::default()
        };
        // The two length bands cover every length: anything after them
        // is union-covered; a band overlapping the seam alone is not.
        let t = analyze(&[
            rule(1, 10, short.clone(), ActionClass::Drop),
            rule(2, 10, long.clone(), ActionClass::Drop),
            rule(3, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert_eq!(t.dead_flag(3), Some(RuleFlag::Unreachable));
        let t = analyze(&[
            rule(1, 10, short, ActionClass::Drop),
            rule(2, 10, mid, ActionClass::Drop),
        ]);
        assert!(t.dead_flag(2).is_none());
        let w = t.witness(2).unwrap();
        assert!((1000..=1500).contains(&w.packet_len));
    }

    #[test]
    fn flow_label_rules_gate_on_ipv6_destinations() {
        let labeled = MatchSpec {
            dst_ip: Some("2001:db8::/64".parse().unwrap()),
            flow_label: Some(RangeMatch::exact(5)),
            ..Default::default()
        };
        let unlabeled = MatchSpec {
            dst_ip: Some("2001:db8::/64".parse().unwrap()),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, labeled.clone(), ActionClass::Drop),
            rule(2, 10, unlabeled.clone(), ActionClass::Drop),
        ]);
        // Rule 2 escapes rule 1 by picking a different label.
        assert!(t.dead_flag(2).is_none());
        let w = t.witness(2).unwrap();
        assert_ne!(w.flow_label, 5);
        // The unlabeled spec covers the labeled one, not vice versa.
        assert!(spec_covers(&unlabeled, &labeled));
        assert!(!spec_covers(&labeled, &unlabeled));
        // An earlier label criterion can also be escaped through the
        // gate itself: a protocol-wildcard target may go v4.
        let all_label_5 = MatchSpec {
            flow_label: Some(RangeMatch::exact(5)),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, all_label_5, ActionClass::Drop),
            rule(2, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(2).is_none());
    }

    #[test]
    fn v6_rules_analyze_like_v4() {
        let t = analyze(&[
            rule(1, 10, spec("2001:db8::/64"), ActionClass::Drop),
            rule(2, 10, ntp("2001:db8::1/128"), ActionClass::Drop),
        ]);
        assert_eq!(t.dead_flag(2), Some(RuleFlag::Redundant { by: 1 }));
        // Across families there is no coverage.
        let t = analyze(&[
            rule(1, 10, spec("2001:db8::/64"), ActionClass::Drop),
            rule(2, 10, spec("100.10.10.10/32"), ActionClass::Drop),
        ]);
        assert!(t.findings.is_empty());
        assert_eq!(t.witnesses.len(), 2);
    }
}
