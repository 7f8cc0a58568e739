//! Lowering accepted FlowSpec rules into classifier match specs.
//!
//! FlowSpec NLRIs that survive the route server's RFC 9117 validation
//! are translated here into [`MatchSpec`]s and admitted through the same
//! audit pipeline as signal-derived rules. Lowering is *exact*: a flow
//! specification either translates to a **minimal** set of match specs
//! covering precisely the packets the components describe, or it is
//! rejected with a typed [`LowerError`]. Nothing is ever silently
//! widened — installing a filter that matches traffic the member never
//! asked to touch would break the isolation argument of §4.5.

use crate::audit::SpecOf;
use crate::controller::AbstractChange;
use crate::desired::{Payload, Source, Table};
use crate::proof::LoweringProof;
use crate::rule::{BlackholingRule, RuleAction};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::{numeric_match_intervals, BitmaskOp, Component, FlowSpec, NumericOp};
use stellar_bgp::types::{Afi, Asn};
use stellar_classify::set::{cube_and, cube_subset, interval_and};
use stellar_classify::spec::is_icmp;
use stellar_dataplane::filter::{BitsMatch, MatchSpec, PortMatch, RangeMatch};
use stellar_net::flow::frag;
use stellar_net::prefix::Prefix;
use stellar_net::proto::IpProtocol;
use stellar_routeserver::AcceptedFlowSpec;

/// First rule id in the FlowSpec id space. Signal-derived rule ids count
/// up from 1; keeping the planes disjoint lets every consumer (failure
/// ladder, telemetry, reconciler) tell at a glance which plane owns an
/// id.
pub const FLOWSPEC_RULE_ID_BASE: u64 = 1 << 32;

/// Hard cap on the match specs one NLRI may lower to. A protocol range
/// like `>= 6` would otherwise expand to hundreds of per-protocol specs
/// and swallow a member's whole TCAM share.
pub const MAX_LOWERED_SPECS: usize = 64;

/// Why a validated FlowSpec rule could not be lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerError {
    /// The component has no classifier equivalent in this flow's
    /// address family (today only: `flow-label` outside IPv6).
    UnsupportedComponent(&'static str),
    /// An operator sequence matches no value at all, so the rule as a
    /// whole matches no packet.
    EmptyMatch(&'static str),
    /// The minimal exact lowering needs more than
    /// [`MAX_LOWERED_SPECS`] specs.
    TooManySpecs(usize),
    /// No destination prefix (cannot happen post-validation; kept so
    /// lowering stands alone).
    MissingDestPrefix,
    /// The update carried no traffic-rate action to realize.
    NoAction,
    /// The action communities ask for something the dataplane cannot do
    /// (redirect, marking, non-finite rate).
    UnsupportedAction(&'static str),
    /// The exactness proof ([`crate::proof::check_lowering`]) *proved*
    /// the lowered specs disagree with the NLRI's packet set
    /// (`"over-match"` or `"under-match"`). Installing a filter whose
    /// semantics we can refute would break the isolation argument, so
    /// the rule is refused. This indicates a lowering bug, never an
    /// operator error.
    Inexact(&'static str),
}

impl LowerError {
    /// Stable metric-key token for this error.
    pub fn describe(&self) -> &'static str {
        match self {
            LowerError::UnsupportedComponent(name) => name,
            LowerError::EmptyMatch(_) => "empty-match",
            LowerError::TooManySpecs(_) => "too-many-specs",
            LowerError::MissingDestPrefix => "missing-dest-prefix",
            LowerError::NoAction => "no-action",
            LowerError::UnsupportedAction(what) => what,
            LowerError::Inexact(_) => "inexact-lowering",
        }
    }
}

/// Lowers the action extended communities of a FlowSpec update to a
/// [`RuleAction`]. `traffic-rate 0` is a drop, a positive rate shapes
/// (the community carries bytes/s, the shaper thinks in bits/s);
/// `traffic-action` bits are tolerated but change nothing here;
/// redirect and marking have no dataplane analogue and are refused.
pub fn lower_action(actions: &[ExtendedCommunity]) -> Result<RuleAction, LowerError> {
    let mut lowered: Option<RuleAction> = None;
    for ec in actions {
        match ec {
            ExtendedCommunity::TrafficRate { .. } => {
                let Some(bytes_per_sec) = ec.rate_bytes_per_sec() else {
                    return Err(LowerError::UnsupportedAction("bad-traffic-rate"));
                };
                let action = if bytes_per_sec == 0.0 {
                    RuleAction::Drop
                } else {
                    RuleAction::Shape {
                        rate_bps: (f64::from(bytes_per_sec) * 8.0).round() as u64,
                    }
                };
                // RFC 8955 §7: at most one traffic-rate is meaningful;
                // the first wins, as in announcement order.
                lowered.get_or_insert(action);
            }
            ExtendedCommunity::TrafficAction { .. } => {}
            ExtendedCommunity::RedirectAs2 { .. } => {
                return Err(LowerError::UnsupportedAction("redirect"));
            }
            ExtendedCommunity::TrafficMarking { .. } => {
                return Err(LowerError::UnsupportedAction("traffic-marking"));
            }
            _ => {}
        }
    }
    lowered.ok_or(LowerError::NoAction)
}

/// The minimal interval set a port operator sequence matches.
fn port_intervals(ops: &[NumericOp], what: &'static str) -> Result<Vec<(u16, u16)>, LowerError> {
    let iv = numeric_match_intervals(ops, 65_535);
    if iv.is_empty() {
        return Err(LowerError::EmptyMatch(what));
    }
    Ok(iv
        .into_iter()
        .map(|(lo, hi)| (lo as u16, hi as u16))
        .collect())
}

/// One port interval as a classifier match (`Exact` when degenerate).
fn to_port_match((lo, hi): (u16, u16)) -> PortMatch {
    if lo == hi {
        PortMatch::Exact(lo)
    } else {
        PortMatch::Range(lo, hi)
    }
}

/// Intersects an optional constraint with a type-4 port interval.
fn intersect(a: Option<(u16, u16)>, b: (u16, u16)) -> Option<(u16, u16)> {
    a.map_or(Some(b), |a| interval_and(a, b))
}

/// Total number of values a sorted interval set covers, saturating at
/// `u64::MAX`. A full-domain interval like `(0, u64::MAX)` has a
/// cardinality of 2^64, which the naive `hi - lo + 1` sum wraps to
/// zero — and a zero count would sail straight past the expansion cap.
fn interval_cardinality(iv: &[(u64, u64)]) -> u64 {
    iv.iter().fold(0u64, |acc, &(lo, hi)| {
        acc.saturating_add((hi - lo).saturating_add(1))
    })
}

/// The interval alternatives one numeric component contributes: `None`
/// when the sequence covers its whole `0..=max` domain (matching it
/// costs no criterion — same as omitting the component), the minimal
/// interval list otherwise, [`LowerError::EmptyMatch`] when it matches
/// no value at all.
fn numeric_dim(
    ops: &[NumericOp],
    max: u64,
    what: &'static str,
) -> Result<Option<Vec<(u64, u64)>>, LowerError> {
    let iv = numeric_match_intervals(ops, max);
    if iv.is_empty() {
        return Err(LowerError::EmptyMatch(what));
    }
    if iv == [(0, max)] {
        return Ok(None);
    }
    Ok(Some(iv))
}

/// The cube set one bitmask operator denotes over a field whose keys
/// only ever carry `domain` bits. `match_all` is a single cube,
/// `any-bit` an OR over one-bit cubes, and the negations follow by
/// De Morgan — `NOT(all of v)` is "some bit of v clear", `NOT(any of
/// v)` is "all bits of v clear". Bits outside the domain are constant
/// zero in every key, which collapses some operators to always-true
/// (the `(0, 0)` tautology cube) or always-false (no cubes).
fn op_cubes(op: &BitmaskOp, domain: u8) -> Vec<BitsMatch> {
    let dom = u64::from(domain);
    let one_bit_cubes = |bits: u8, value_of: fn(u8) -> u8| -> Vec<BitsMatch> {
        (0..8)
            .map(|i| 1u8 << i)
            .filter(|b| bits & b != 0)
            .map(|b| BitsMatch::new(b, value_of(b)))
            .collect()
    };
    match (op.match_all, op.not) {
        (true, false) => {
            if op.value == 0 {
                vec![BitsMatch::new(0, 0)]
            } else if op.value & !dom != 0 {
                Vec::new()
            } else {
                vec![BitsMatch::new(op.value as u8, op.value as u8)]
            }
        }
        (false, false) => one_bit_cubes((op.value & dom) as u8, |b| b),
        (true, true) => {
            if op.value & !dom != 0 {
                vec![BitsMatch::new(0, 0)]
            } else if op.value == 0 {
                Vec::new()
            } else {
                one_bit_cubes(op.value as u8, |_| 0)
            }
        }
        (false, true) => {
            let bits = (op.value & dom) as u8;
            if bits == 0 {
                vec![BitsMatch::new(0, 0)]
            } else {
                vec![BitsMatch::new(bits, 0)]
            }
        }
    }
}

/// Lowers a bitmask operator sequence to a non-redundant OR-of-cubes
/// over the field's `domain` bits — the exact value set of
/// [`stellar_bgp::flowspec::bitmask_seq_matches`] restricted to keys
/// the dataplane can produce. `Ok(None)` means the sequence matches the
/// whole domain (no criterion needed; the caller still applies any
/// protocol gate the component implies).
fn bitmask_cubes(
    ops: &[BitmaskOp],
    domain: u8,
    what: &'static str,
) -> Result<Option<Vec<BitsMatch>>, LowerError> {
    let push_unique = |out: &mut Vec<BitsMatch>, c: BitsMatch| {
        if !out.contains(&c) {
            out.push(c);
        }
    };
    // Same OR-of-AND-groups fold as the evaluator, lifted to cube sets.
    let mut union: Vec<BitsMatch> = Vec::new();
    let mut group: Option<Vec<BitsMatch>> = None;
    for op in ops {
        let set = op_cubes(op, domain);
        group = Some(match group {
            Some(prev) if op.and => {
                let mut out = Vec::new();
                for &a in &prev {
                    for &b in &set {
                        if let Some(c) = cube_and(a, b) {
                            push_unique(&mut out, c);
                        }
                    }
                }
                out
            }
            Some(prev) => {
                for c in prev {
                    push_unique(&mut union, c);
                }
                set
            }
            None => set,
        });
    }
    if let Some(last) = group {
        for c in last {
            push_unique(&mut union, c);
        }
    }
    // Weakest cubes (fewest constrained bits) first, then drop every
    // cube a weaker one already covers.
    union.sort_by_key(|c| (c.mask.count_ones(), c.mask, c.value));
    let mut cubes: Vec<BitsMatch> = Vec::new();
    for c in union {
        if !cubes.iter().any(|&a| cube_subset(c, a)) {
            cubes.push(c);
        }
    }
    if cubes.is_empty() {
        return Err(LowerError::EmptyMatch(what));
    }
    if cubes.iter().any(|c| c.mask == 0) {
        return Ok(None);
    }
    Ok(Some(cubes))
}

/// Multiplies the spec set by one more component dimension's
/// alternatives (`None`: the dimension is absent or full-domain —
/// nothing to do), refusing before the cross product can exceed
/// [`MAX_LOWERED_SPECS`].
fn expand<T: Clone>(
    specs: Vec<MatchSpec>,
    alts: Option<Vec<T>>,
    set: impl Fn(&mut MatchSpec, T),
) -> Result<Vec<MatchSpec>, LowerError> {
    let Some(alts) = alts else {
        return Ok(specs);
    };
    let product = specs.len().saturating_mul(alts.len());
    if product > MAX_LOWERED_SPECS {
        return Err(LowerError::TooManySpecs(product));
    }
    let mut out = Vec::with_capacity(product);
    for s in &specs {
        for a in &alts {
            let mut s2 = s.clone();
            set(&mut s2, a.clone());
            if !out.contains(&s2) {
                out.push(s2);
            }
        }
    }
    Ok(out)
}

/// Lowers a flow specification to the minimal set of [`MatchSpec`]s
/// matching exactly the packets its components describe.
///
/// All thirteen RFC 8955/8956 component types lower. An operator
/// sequence with several disjoint intervals (or bitmask alternatives)
/// multiplies out — one spec per combination — because the classifier
/// matches a single value, range or cube per field. The type-4 `port`
/// component means "source *or* destination port" (RFC 8955 §4.2.4),
/// so each of its intervals contributes a source variant and a
/// destination variant, intersected with any explicit
/// src-port/dst-port constraint. Components only some protocols can
/// satisfy (tcp-flags, the ICMP fields, the port types) narrow the
/// protocol set instead of being silently dropped, so a contradictory
/// combination (`tcp-flags` + `icmp-type`, ports + an ICMP-only
/// protocol) is refused as an empty match rather than lowered to a
/// dead rule. `flow-label` is IPv6-only (RFC 8956 §3.7) and refused
/// for IPv4 flows.
pub fn lower_flowspec(flow: &FlowSpec) -> Result<Vec<MatchSpec>, LowerError> {
    let mut dst_ip = None;
    let mut src_ip = None;
    let mut protocols: Option<Vec<u8>> = None;
    let mut src_ports: Option<Vec<(u16, u16)>> = None;
    let mut dst_ports: Option<Vec<(u16, u16)>> = None;
    let mut either_ports: Option<Vec<(u16, u16)>> = None;
    let mut has_tcp_flags = false;
    let mut tcp_cubes: Option<Vec<BitsMatch>> = None;
    let mut has_icmp = None::<&'static str>;
    let mut icmp_types: Option<Vec<(u64, u64)>> = None;
    let mut icmp_codes: Option<Vec<(u64, u64)>> = None;
    let mut packet_lens: Option<Vec<(u64, u64)>> = None;
    let mut dscps: Option<Vec<(u64, u64)>> = None;
    let mut frag_cubes: Option<Vec<BitsMatch>> = None;
    let mut flow_labels: Option<Vec<(u64, u64)>> = None;
    for c in &flow.components {
        match c {
            Component::DstPrefix(p) => dst_ip = Some(*p),
            Component::SrcPrefix(p) => src_ip = Some(*p),
            Component::IpProtocol(ops) => {
                let iv = numeric_match_intervals(ops, 255);
                if iv.is_empty() {
                    return Err(LowerError::EmptyMatch("ip-protocol"));
                }
                if iv == [(0, 255)] {
                    // Matches every protocol: equivalent to omitting it.
                    continue;
                }
                let count = interval_cardinality(&iv);
                if count > MAX_LOWERED_SPECS as u64 {
                    return Err(LowerError::TooManySpecs(count as usize));
                }
                protocols = Some(
                    iv.iter()
                        .flat_map(|&(lo, hi)| lo..=hi)
                        .map(|v| v as u8)
                        .collect(),
                );
            }
            Component::Port(ops) => either_ports = Some(port_intervals(ops, "port")?),
            Component::DstPort(ops) => dst_ports = Some(port_intervals(ops, "dst-port")?),
            Component::SrcPort(ops) => src_ports = Some(port_intervals(ops, "src-port")?),
            Component::IcmpType(ops) => {
                has_icmp.get_or_insert("icmp-type");
                icmp_types = numeric_dim(ops, 255, "icmp-type")?;
            }
            Component::IcmpCode(ops) => {
                has_icmp.get_or_insert("icmp-code");
                icmp_codes = numeric_dim(ops, 255, "icmp-code")?;
            }
            Component::TcpFlags(ops) => {
                has_tcp_flags = true;
                // Keys carry the raw TCP flags byte: the full u8 domain.
                tcp_cubes = bitmask_cubes(ops, 0xff, "tcp-flags")?;
            }
            Component::PacketLength(ops) => {
                packet_lens = numeric_dim(ops, 65_535, "packet-length")?;
            }
            Component::Dscp(ops) => dscps = numeric_dim(ops, 63, "dscp")?,
            Component::Fragment(ops) => {
                frag_cubes = bitmask_cubes(ops, frag::DOMAIN, "fragment")?;
            }
            Component::FlowLabel(ops) => {
                if flow.afi != Afi::Ipv6 {
                    return Err(LowerError::UnsupportedComponent("flow-label"));
                }
                flow_labels = numeric_dim(ops, 0xf_ffff, "flow-label")?;
            }
        }
    }
    if dst_ip.is_none() {
        return Err(LowerError::MissingDestPrefix);
    }
    // Components only some protocols can satisfy narrow the protocol
    // set. An ICMP field pins the protocol to ICMP/ICMPv6 even when its
    // value range is a wildcard; tcp-flags pins it to TCP; ports need a
    // ported protocol. An intersection that empties the set means the
    // rule can match no packet — refuse, never install a dead filter.
    if let Some(what) = has_icmp {
        match &mut protocols {
            None => {
                protocols = Some((0..=255u8).filter(|&p| is_icmp(IpProtocol(p))).collect());
            }
            Some(ps) => {
                ps.retain(|&p| is_icmp(IpProtocol(p)));
                if ps.is_empty() {
                    return Err(LowerError::EmptyMatch(what));
                }
            }
        }
    }
    if has_tcp_flags {
        match &mut protocols {
            None => protocols = Some(vec![IpProtocol::TCP.0]),
            Some(ps) => {
                ps.retain(|&p| p == IpProtocol::TCP.0);
                if ps.is_empty() {
                    return Err(LowerError::EmptyMatch("tcp-flags"));
                }
            }
        }
    }
    if src_ports.is_some() || dst_ports.is_some() || either_ports.is_some() {
        if let Some(ps) = &mut protocols {
            ps.retain(|&p| IpProtocol(p).has_ports());
            if ps.is_empty() {
                return Err(LowerError::EmptyMatch("port"));
            }
        }
    }
    let protocols: Vec<Option<IpProtocol>> = match protocols {
        None => vec![None],
        Some(vs) => vs.into_iter().map(|v| Some(IpProtocol(v))).collect(),
    };
    let opt = |ivs: Option<Vec<(u16, u16)>>| -> Vec<Option<(u16, u16)>> {
        match ivs {
            None => vec![None],
            Some(v) => v.into_iter().map(Some).collect(),
        }
    };
    let srcs = opt(src_ports);
    let dsts = opt(dst_ports);
    let mut specs: Vec<MatchSpec> = Vec::new();
    let push = |specs: &mut Vec<MatchSpec>,
                protocol: Option<IpProtocol>,
                src: Option<(u16, u16)>,
                dst: Option<(u16, u16)>| {
        let spec = MatchSpec {
            src_ip,
            dst_ip,
            protocol,
            src_port: src.map(to_port_match),
            dst_port: dst.map(to_port_match),
            ..Default::default()
        };
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    };
    for &protocol in &protocols {
        for &s in &srcs {
            for &d in &dsts {
                match &either_ports {
                    None => push(&mut specs, protocol, s, d),
                    Some(eps) => {
                        for &e in eps {
                            if let Some(s2) = intersect(s, e) {
                                push(&mut specs, protocol, Some(s2), d);
                            }
                            if let Some(d2) = intersect(d, e) {
                                push(&mut specs, protocol, s, Some(d2));
                            }
                        }
                    }
                }
            }
        }
    }
    if specs.is_empty() {
        // Every either-port variant intersected to nothing.
        return Err(LowerError::EmptyMatch("port"));
    }
    if specs.len() > MAX_LOWERED_SPECS {
        return Err(LowerError::TooManySpecs(specs.len()));
    }
    let u8_ranges = |iv: Vec<(u64, u64)>| -> Vec<RangeMatch<u8>> {
        iv.into_iter()
            .map(|(lo, hi)| RangeMatch::new(lo as u8, hi as u8))
            .collect()
    };
    let specs = expand(specs, tcp_cubes, |s, c| s.tcp_flags = Some(c))?;
    let specs = expand(
        specs,
        packet_lens.map(|iv| {
            iv.into_iter()
                .map(|(lo, hi)| RangeMatch::new(lo as u16, hi as u16))
                .collect::<Vec<_>>()
        }),
        |s, r| s.packet_len = Some(r),
    )?;
    let specs = expand(specs, dscps.map(u8_ranges), |s, r| s.dscp = Some(r))?;
    let specs = expand(specs, frag_cubes, |s, c| s.fragment = Some(c))?;
    let specs = expand(specs, icmp_types.map(u8_ranges), |s, r| {
        s.icmp_type = Some(r)
    })?;
    let specs = expand(specs, icmp_codes.map(u8_ranges), |s, r| {
        s.icmp_code = Some(r)
    })?;
    let specs = expand(
        specs,
        flow_labels.map(|iv| {
            iv.into_iter()
                .map(|(lo, hi)| RangeMatch::new(lo as u32, hi as u32))
                .collect::<Vec<_>>()
        }),
        |s, r| s.flow_label = Some(r),
    )?;
    Ok(specs)
}

/// Desired state of the FlowSpec admission plane: every accepted and
/// lowered FlowSpec rule, keyed by `(owner, canonical NLRI bytes)` the
/// same way the route server's FlowSpec RIB is, so announcements,
/// implicit withdraws and explicit withdraws line up one-to-one.
#[derive(Debug)]
pub struct FlowSpecPlane {
    table: Table<Vec<u8>, FlowRule>,
    /// Set by the last [`install`](Self::install) if it admitted a
    /// lowering it could not prove exact.
    unverified: Option<UnverifiedLowering>,
}

/// One spec an NLRI lowered to, with the NLRI's action and victim.
#[derive(Debug, PartialEq)]
pub(crate) struct FlowRule {
    pub(crate) spec: MatchSpec,
    pub(crate) action: RuleAction,
    pub(crate) victim: Prefix,
}

impl Source for Vec<u8> {
    const LEAST: Self = Vec::new();
}

impl Payload<Vec<u8>> for FlowRule {
    fn spec<'a>(&'a self, _: &Vec<u8>) -> SpecOf<'a> {
        SpecOf::Held(&self.spec)
    }

    fn action(&self) -> RuleAction {
        self.action
    }

    fn rule(&self, id: u64, owner: Asn, _: &Vec<u8>) -> BlackholingRule {
        BlackholingRule::from_flowspec(id, owner, self.victim, self.spec.clone(), self.action)
    }
}

/// A lowering that reached desired state although obligation (a) could
/// not be discharged for it (oracle too large or node budget spent) —
/// admitted, since refusal demands a *proven* violation, but never
/// silently: [`FlowSpecPlane::take_unverified`] hands it to the system,
/// which counts it under `verify.lowering.unverified`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnverifiedLowering {
    /// Stable token naming why the proof did not complete.
    pub reason: &'static str,
    /// The rules the NLRI lowered to.
    pub rule_ids: Vec<u64>,
}

impl Default for FlowSpecPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowSpecPlane {
    /// An empty plane; rule ids count up from
    /// [`FLOWSPEC_RULE_ID_BASE`].
    pub fn new() -> Self {
        FlowSpecPlane {
            table: Table::new(FLOWSPEC_RULE_ID_BASE),
            unverified: None,
        }
    }

    /// The desired lowered rules, by owner and NLRI.
    pub(crate) fn table(&self) -> &Table<Vec<u8>, FlowRule> {
        &self.table
    }

    /// The unproven lowering the last [`install`](Self::install)
    /// admitted, if any; reading it clears it.
    pub fn take_unverified(&mut self) -> Option<UnverifiedLowering> {
        self.unverified.take()
    }

    /// Lowers an accepted FlowSpec rule and diffs it into desired state.
    /// Re-announcing an identical rule is a no-op; a re-announcement
    /// with different actions or components replaces the old lowering
    /// (BGP implicit withdraw). Returns the abstract changes to enqueue.
    pub fn install(&mut self, acc: &AcceptedFlowSpec) -> Result<Vec<AbstractChange>, LowerError> {
        let action = lower_action(&acc.actions)?;
        let specs = lower_flowspec(&acc.flow)?;
        // Obligation (a): before anything reaches desired state, prove
        // the lowering exact against the independently built oracle.
        // `Unverified` (oracle/budget overflow) installs anyway —
        // refusal demands a *proven* violation, never a shrug — and is
        // left for the caller in `take_unverified`.
        self.unverified = None;
        let proof = crate::proof::check_lowering(&acc.flow, &specs);
        if let Some(kind) = proof.violation_kind() {
            return Err(LowerError::Inexact(kind));
        }
        let Some(victim) = acc.flow.dst_prefix() else {
            return Err(LowerError::MissingDestPrefix);
        };
        let Ok(wire) = acc.flow.to_wire() else {
            // A decoded flowspec always re-encodes; treat the
            // impossible as unanchorable rather than panicking.
            return Err(LowerError::MissingDestPrefix);
        };
        let lowered = specs.into_iter().map(|spec| FlowRule {
            spec,
            action,
            victim,
        });
        let mut changes = Vec::new();
        let rules = self
            .table
            .replace(acc.owner, wire, lowered.collect(), &mut changes);
        if let LoweringProof::Unverified { reason } = proof {
            self.unverified = Some(UnverifiedLowering {
                reason,
                rule_ids: rules.iter().map(|e| e.id).collect(),
            });
        }
        Ok(changes)
    }

    /// Withdraws one flow's rules (explicit MP_UNREACH or a session-down
    /// flush upstream). Unknown flows remove nothing.
    pub fn withdraw(&mut self, owner: Asn, flow: &FlowSpec) -> Vec<AbstractChange> {
        let mut removals = Vec::new();
        if let Ok(wire) = flow.to_wire() {
            self.table.replace(owner, wire, Vec::new(), &mut removals);
        }
        removals
    }

    /// Flushes the whole plane (iBGP session loss: availability first,
    /// like the controller's `session_down`). Removals come out in rule
    /// id order.
    pub fn flush(&mut self) -> Vec<AbstractChange> {
        self.table.flush()
    }

    /// Every rule the plane wants installed, sorted by id — the
    /// FlowSpec half of the reconciliation diff.
    pub fn desired_rules(&self) -> Vec<BlackholingRule> {
        self.table.rules()
    }

    /// Admission permanently refused `rule_id`: drop it from desired
    /// state. Returns whether the id was known.
    pub fn rule_refused(&mut self, rule_id: u64) -> bool {
        self.table.rewrite(rule_id, |_, _| None).is_some()
    }

    /// Number of lowered rules currently desired.
    pub fn rule_count(&self) -> usize {
        self.table.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stellar_bgp::flowspec::{bitmask_seq_matches, numeric_seq_matches};
    use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
    use stellar_net::flow::FlowKey;
    use stellar_net::mac::MacAddr;
    use stellar_net::prefix::Prefix;
    use stellar_net::tcp::TcpFlags;

    const OWNER: Asn = Asn(64500);

    fn victim() -> Prefix {
        "100.10.10.10/32".parse().unwrap()
    }

    fn flow(components: Vec<Component>) -> FlowSpec {
        FlowSpec::new(Afi::Ipv4, components).unwrap()
    }

    fn key(protocol: IpProtocol, src_port: u16, dst_port: u16, dst_last: u8) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::for_member(65000, 1),
            dst_mac: MacAddr::for_member(64500, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
            dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, dst_last)),
            protocol,
            src_port,
            dst_port,
            ..FlowKey::default()
        }
    }

    /// Direct RFC 8955 evaluation of the flow against a packet, used as
    /// the oracle the lowering must agree with exactly.
    fn flow_matches(f: &FlowSpec, k: &FlowKey) -> bool {
        f.components.iter().all(|c| match c {
            Component::DstPrefix(p) => p.contains(k.dst_ip),
            Component::SrcPrefix(p) => p.contains(k.src_ip),
            Component::IpProtocol(ops) => numeric_seq_matches(ops, k.protocol.0 as u64),
            Component::Port(ops) => {
                k.protocol.has_ports()
                    && (numeric_seq_matches(ops, k.src_port as u64)
                        || numeric_seq_matches(ops, k.dst_port as u64))
            }
            Component::DstPort(ops) => {
                k.protocol.has_ports() && numeric_seq_matches(ops, k.dst_port as u64)
            }
            Component::SrcPort(ops) => {
                k.protocol.has_ports() && numeric_seq_matches(ops, k.src_port as u64)
            }
            Component::IcmpType(ops) => {
                is_icmp(k.protocol) && numeric_seq_matches(ops, k.icmp_type as u64)
            }
            Component::IcmpCode(ops) => {
                is_icmp(k.protocol) && numeric_seq_matches(ops, k.icmp_code as u64)
            }
            Component::TcpFlags(ops) => {
                k.protocol == IpProtocol::TCP && bitmask_seq_matches(ops, k.tcp_flags as u64)
            }
            Component::PacketLength(ops) => numeric_seq_matches(ops, k.packet_len as u64),
            Component::Dscp(ops) => numeric_seq_matches(ops, k.dscp as u64),
            Component::Fragment(ops) => bitmask_seq_matches(ops, k.fragment as u64),
            Component::FlowLabel(ops) => {
                matches!(k.dst_ip, IpAddress::V6(_))
                    && numeric_seq_matches(ops, k.flow_label as u64)
            }
        })
    }

    /// Compares the lowered spec set against the oracle on every probe
    /// key: lowering is exact iff "some spec matches" equals the direct
    /// RFC evaluation, everywhere.
    fn assert_exact_keys(f: &FlowSpec, keys: impl IntoIterator<Item = FlowKey>) {
        let specs = lower_flowspec(f).expect("lowers");
        for k in keys {
            let lowered = specs.iter().any(|s| s.matches(&k));
            assert_eq!(
                lowered,
                flow_matches(f, &k),
                "disagreement on {k} against {specs:?}"
            );
        }
    }

    /// Exhaustively compares the lowered spec set against the oracle
    /// over a probe grid chosen to hit every interval boundary.
    fn assert_exact(f: &FlowSpec, probe_ports: &[u16]) {
        let mut keys = Vec::new();
        for protocol in [IpProtocol::UDP, IpProtocol::TCP, IpProtocol::ICMP] {
            for &sp in probe_ports {
                for &dp in probe_ports {
                    for dst_last in [10u8, 11] {
                        keys.push(key(protocol, sp, dp, dst_last));
                    }
                }
            }
        }
        assert_exact_keys(f, keys);
    }

    #[test]
    fn amplification_flow_lowers_to_one_spec() {
        // UDP source port 123 toward the victim: the NTP reflection
        // pattern, one spec, no widening.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(123)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].dst_ip, Some(victim()));
        assert_eq!(specs[0].protocol, Some(IpProtocol::UDP));
        assert_eq!(specs[0].src_port, Some(PortMatch::Exact(123)));
        assert_exact(&f, &[0, 53, 122, 123, 124, 65535]);
    }

    #[test]
    fn disjoint_port_set_lowers_to_minimal_spec_set() {
        // src-port in {53, 123}: two disjoint intervals, exactly two
        // specs — not one widened range covering 53..=123.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::SrcPort(vec![NumericOp::equals(53), NumericOp::equals(123)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs
            .iter()
            .all(|s| matches!(s.src_port, Some(PortMatch::Exact(53 | 123)))));
        assert_exact(&f, &[0, 52, 53, 54, 88, 122, 123, 124, 65535]);
    }

    #[test]
    fn contiguous_range_lowers_to_single_range_spec() {
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::DstPort(vec![NumericOp::ge(1000), NumericOp::and_le(2000)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].dst_port, Some(PortMatch::Range(1000, 2000)));
        assert_exact(&f, &[0, 999, 1000, 1500, 2000, 2001, 65535]);
    }

    #[test]
    fn either_port_lowers_to_src_and_dst_variants() {
        // Type-4 "port" means src OR dst (RFC 8955 §4.2.4): two specs.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::Port(vec![NumericOp::equals(123)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs
            .iter()
            .any(|s| s.src_port == Some(PortMatch::Exact(123)) && s.dst_port.is_none()));
        assert!(specs
            .iter()
            .any(|s| s.dst_port == Some(PortMatch::Exact(123)) && s.src_port.is_none()));
        assert_exact(&f, &[0, 122, 123, 124, 65535]);
    }

    #[test]
    fn either_port_intersects_explicit_port_constraints() {
        // port=123 AND src-port=123: the dst variant keeps the explicit
        // src constraint, the src variant collapses into it.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::Port(vec![NumericOp::equals(123)]),
            Component::SrcPort(vec![NumericOp::equals(123)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_exact(&f, &[0, 122, 123, 124, 65535]);
        // And a disjoint intersection is an empty match, not a
        // widened one.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::Port(vec![NumericOp::equals(123)]),
            Component::SrcPort(vec![NumericOp::equals(53)]),
        ]);
        let specs2 = lower_flowspec(&f).unwrap();
        // Only the dst-variant (src=53, dst=123) survives.
        assert_eq!(specs2.len(), 1);
        assert_eq!(specs2[0].src_port, Some(PortMatch::Exact(53)));
        assert_eq!(specs2[0].dst_port, Some(PortMatch::Exact(123)));
        assert_exact(&f, &[0, 52, 53, 54, 122, 123, 124]);
        let _ = specs;
    }

    #[test]
    fn protocol_interval_expands_exactly() {
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(6), NumericOp::equals(17)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert_exact(&f, &[0, 80]);
    }

    #[test]
    fn full_range_protocol_is_wildcard_not_enumeration() {
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::ge(0)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].protocol, None);
    }

    #[test]
    fn oversized_protocol_expansion_is_refused_not_widened() {
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::ge(6)]),
        ]);
        assert_eq!(lower_flowspec(&f), Err(LowerError::TooManySpecs(250)));
    }

    #[test]
    fn interval_cardinality_saturates_on_full_domain() {
        // `hi - lo + 1` on the full u64 domain wraps to zero, which
        // would slip under the expansion cap; the saturating fold
        // reports "effectively infinite" instead.
        assert_eq!(interval_cardinality(&[(0, u64::MAX)]), u64::MAX);
        assert_eq!(interval_cardinality(&[(0, 255)]), 256);
        assert_eq!(interval_cardinality(&[(0, 9), (20, 29)]), 20);
        // A full-range numeric component still lowers as a wildcard
        // rather than tripping (or dodging) the cap.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::new(false, true, true, true, 7)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].protocol, None);
    }

    /// Probe grid over the extension fields: every combination of a
    /// few protocols, flag bytes, fragment bits, lengths, DSCPs and
    /// ICMP types, toward both the victim and its neighbor.
    fn ext_keys() -> Vec<FlowKey> {
        let mut keys = Vec::new();
        for protocol in [IpProtocol::TCP, IpProtocol::UDP, IpProtocol::ICMP] {
            for tcp_flags in [0u8, TcpFlags::SYN, TcpFlags::SYN | TcpFlags::ACK, 0xff] {
                for fragment in [0u8, frag::IS_FRAGMENT | frag::FIRST_FRAGMENT, frag::DOMAIN] {
                    for packet_len in [0u16, 999, 1000, 1500, 1501] {
                        for (dscp, icmp_type) in [(0u8, 0u8), (46, 8), (63, 3)] {
                            keys.push(FlowKey {
                                tcp_flags,
                                fragment,
                                packet_len,
                                dscp,
                                icmp_type,
                                icmp_code: icmp_type / 2,
                                ..key(protocol, 123, 443, 10)
                            });
                        }
                    }
                }
            }
        }
        keys
    }

    #[test]
    fn tcp_syn_only_lowers_to_one_cube_pinned_to_tcp() {
        // "SYN set AND ACK clear" — the classic SYN-flood filter. The
        // AND-group folds to a single cube and the component pins the
        // protocol to TCP even though the NLRI never names it.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::TcpFlags(vec![
                BitmaskOp::new(false, false, true, TcpFlags::SYN as u64),
                BitmaskOp::new(true, true, false, TcpFlags::ACK as u64),
            ]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].protocol, Some(IpProtocol::TCP));
        assert_eq!(
            specs[0].tcp_flags,
            Some(BitsMatch::new(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN))
        );
        assert_exact_keys(&f, ext_keys());
    }

    #[test]
    fn tcp_flags_tautology_still_pins_protocol() {
        // "all bits of 0x00 set" is vacuously true for every flags
        // byte, so the cube criterion disappears — but the component
        // still means "this is TCP traffic" and must not widen to
        // other protocols.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::TcpFlags(vec![BitmaskOp::new(false, false, true, 0)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].protocol, Some(IpProtocol::TCP));
        assert_eq!(specs[0].tcp_flags, None);
        assert_exact_keys(&f, ext_keys());
    }

    #[test]
    fn contradictory_protocol_pins_are_refused_as_empty() {
        // tcp-flags on an explicitly-UDP flow can match no packet.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::TcpFlags(vec![BitmaskOp::new(
                false,
                false,
                true,
                TcpFlags::SYN as u64,
            )]),
        ]);
        assert_eq!(lower_flowspec(&f), Err(LowerError::EmptyMatch("tcp-flags")));
        // Ports on an ICMP-only protocol set, likewise.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(1)]),
            Component::DstPort(vec![NumericOp::equals(53)]),
        ]);
        assert_eq!(lower_flowspec(&f), Err(LowerError::EmptyMatch("port")));
        // And icmp-type intersected with tcp-flags.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IcmpType(vec![NumericOp::equals(8)]),
            Component::TcpFlags(vec![BitmaskOp::new(
                false,
                false,
                true,
                TcpFlags::SYN as u64,
            )]),
        ]);
        assert_eq!(lower_flowspec(&f), Err(LowerError::EmptyMatch("tcp-flags")));
    }

    #[test]
    fn icmp_fields_lower_with_protocol_pinned_to_icmp() {
        // echo-request floods: icmp-type 8, code 0. The protocol set
        // narrows to ICMP/ICMPv6 without an explicit ip-protocol
        // component.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IcmpType(vec![NumericOp::equals(8)]),
            Component::IcmpCode(vec![NumericOp::equals(0)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| {
            is_icmp(s.protocol.unwrap())
                && s.icmp_type == Some(RangeMatch::exact(8))
                && s.icmp_code == Some(RangeMatch::exact(0))
        }));
        assert_exact_keys(&f, ext_keys());
        // A full-range icmp-type keeps the pin but spends no criterion.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IcmpType(vec![NumericOp::ge(0)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs
            .iter()
            .all(|s| is_icmp(s.protocol.unwrap()) && s.icmp_type.is_none()));
        assert_exact_keys(&f, ext_keys());
    }

    #[test]
    fn packet_length_and_dscp_lower_to_ranges() {
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::PacketLength(vec![NumericOp::ge(1000), NumericOp::and_le(1500)]),
            Component::Dscp(vec![NumericOp::equals(46)]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].protocol, None);
        assert_eq!(specs[0].packet_len, Some(RangeMatch::new(1000, 1500)));
        assert_eq!(specs[0].dscp, Some(RangeMatch::exact(46)));
        assert_exact_keys(&f, ext_keys());
        // Disjoint length intervals multiply out, minimally.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::PacketLength(vec![
                NumericOp::equals(64),
                NumericOp::ge(1000),
                NumericOp::and_le(1500),
            ]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert_exact_keys(&f, ext_keys());
    }

    #[test]
    fn fragment_bits_lower_to_cubes_over_the_frag_domain() {
        // "is a fragment" — any-bit on IS_FRAGMENT.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::Fragment(vec![BitmaskOp::new(
                false,
                false,
                false,
                frag::IS_FRAGMENT as u64,
            )]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(
            specs[0].fragment,
            Some(BitsMatch::new(frag::IS_FRAGMENT, frag::IS_FRAGMENT))
        );
        assert_exact_keys(&f, ext_keys());
        // "not a fragment" — NOT any-bit: one all-clear cube, and no
        // protocol pin (fragment bits exist on every v4 packet).
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::Fragment(vec![BitmaskOp::new(
                false,
                true,
                false,
                frag::IS_FRAGMENT as u64,
            )]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].protocol, None);
        assert_eq!(
            specs[0].fragment,
            Some(BitsMatch::new(frag::IS_FRAGMENT, 0))
        );
        assert_exact_keys(&f, ext_keys());
    }

    #[test]
    fn bitmask_any_bit_lowers_to_or_of_one_bit_cubes() {
        // any-of {SYN, ACK}: two cubes, exact — not one widened cube
        // requiring both bits.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::TcpFlags(vec![BitmaskOp::new(
                false,
                false,
                false,
                (TcpFlags::SYN | TcpFlags::ACK) as u64,
            )]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert_exact_keys(&f, ext_keys());
        // NOT(all of {SYN, ACK}): some bit clear — two all-clear cubes.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::TcpFlags(vec![BitmaskOp::new(
                false,
                true,
                true,
                (TcpFlags::SYN | TcpFlags::ACK) as u64,
            )]),
        ]);
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 2);
        assert_exact_keys(&f, ext_keys());
    }

    fn victim6() -> Prefix {
        "2001:db8:100::10/128".parse().unwrap()
    }

    fn key6(flow_label: u32, last: u16) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::for_member(65000, 1),
            dst_mac: MacAddr::for_member(64500, 1),
            src_ip: IpAddress::V6(Ipv6Address::from_groups([
                0x2001, 0xdb8, 0xffff, 0, 0, 0, 0, 1,
            ])),
            dst_ip: IpAddress::V6(Ipv6Address::from_groups([
                0x2001, 0xdb8, 0x100, 0, 0, 0, 0, last,
            ])),
            protocol: IpProtocol::UDP,
            src_port: 123,
            dst_port: 443,
            flow_label,
            ..FlowKey::default()
        }
    }

    #[test]
    fn flow_label_lowers_for_ipv6_and_is_refused_for_ipv4() {
        let f = FlowSpec::new(
            Afi::Ipv6,
            vec![
                Component::DstPrefix(victim6()),
                Component::FlowLabel(vec![NumericOp::equals(0x12345)]),
            ],
        )
        .unwrap();
        let specs = lower_flowspec(&f).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].flow_label, Some(RangeMatch::exact(0x12345)));
        let keys = [0u32, 0x12345, 0x12346, 0xf_ffff]
            .into_iter()
            .flat_map(|l| [key6(l, 0x10), key6(l, 0x11)]);
        assert_exact_keys(&f, keys);
        // The same component under IPv4 has nothing to match against.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::FlowLabel(vec![NumericOp::equals(0x12345)]),
        ]);
        assert_eq!(
            lower_flowspec(&f),
            Err(LowerError::UnsupportedComponent("flow-label"))
        );
    }

    #[test]
    fn empty_bitmask_and_numeric_sequences_are_refused() {
        // match-all over bits the flags byte can never carry (the
        // value is wider than the u8 domain): unsatisfiable.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::TcpFlags(vec![BitmaskOp::new(false, false, true, 0x100)]),
        ]);
        assert_eq!(lower_flowspec(&f), Err(LowerError::EmptyMatch("tcp-flags")));
        // dscp > 63 is outside the 6-bit domain.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::Dscp(vec![NumericOp::new(false, false, true, false, 63)]),
        ]);
        assert_eq!(lower_flowspec(&f), Err(LowerError::EmptyMatch("dscp")));
    }

    #[test]
    fn combined_extension_components_stay_exact() {
        // Everything at once: fragmented large UDP toward the victim
        // with a DSCP band — the shape of a carpet-bombing filter.
        let f = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::PacketLength(vec![NumericOp::ge(1000)]),
            Component::Dscp(vec![NumericOp::new(false, true, false, true, 46)]),
            Component::Fragment(vec![BitmaskOp::new(
                false,
                false,
                false,
                frag::IS_FRAGMENT as u64,
            )]),
        ]);
        assert_exact_keys(&f, ext_keys());
    }

    #[test]
    fn actions_lower_to_drop_and_shape() {
        assert_eq!(
            lower_action(&[ExtendedCommunity::traffic_rate(64500, 0.0)]),
            Ok(RuleAction::Drop)
        );
        assert_eq!(
            lower_action(&[ExtendedCommunity::traffic_rate(64500, 25_000_000.0)]),
            Ok(RuleAction::Shape {
                rate_bps: 200_000_000
            })
        );
        assert_eq!(lower_action(&[]), Err(LowerError::NoAction));
        assert_eq!(
            lower_action(&[ExtendedCommunity::RedirectAs2 {
                asn: 64999,
                local: 1
            }]),
            Err(LowerError::UnsupportedAction("redirect"))
        );
    }

    fn accepted(f: FlowSpec, rate: f32) -> AcceptedFlowSpec {
        AcceptedFlowSpec {
            owner: OWNER,
            flow: f,
            actions: vec![ExtendedCommunity::traffic_rate(64500, rate)],
        }
    }

    fn drop_flow() -> FlowSpec {
        flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(123)]),
        ])
    }

    #[test]
    fn plane_install_is_idempotent_and_replaces_on_change() {
        let mut plane = FlowSpecPlane::new();
        let changes = plane.install(&accepted(drop_flow(), 0.0)).unwrap();
        assert_eq!(changes.len(), 1);
        let first_id = match &changes[0] {
            AbstractChange::AddRule(r) => {
                assert!(r.id >= FLOWSPEC_RULE_ID_BASE);
                assert_eq!(r.action(), RuleAction::Drop);
                r.id
            }
            other => panic!("expected add, got {other:?}"),
        };
        // Identical re-announcement: implicit withdraw replaces with
        // itself, nothing to do.
        assert!(plane
            .install(&accepted(drop_flow(), 0.0))
            .unwrap()
            .is_empty());
        assert_eq!(plane.rule_count(), 1);
        // Same NLRI, new action: the old rule goes, a new one comes.
        let changes = plane.install(&accepted(drop_flow(), 25_000_000.0)).unwrap();
        assert_eq!(changes.len(), 2);
        assert!(
            matches!(changes[0], AbstractChange::RemoveRule { rule_id, .. } if rule_id == first_id)
        );
        assert!(matches!(
            &changes[1],
            AbstractChange::AddRule(r)
                if r.id > first_id && r.action() == (RuleAction::Shape { rate_bps: 200_000_000 })
        ));
        assert_eq!(plane.rule_count(), 1);
    }

    #[test]
    fn plane_withdraw_and_flush_remove_rules() {
        let mut plane = FlowSpecPlane::new();
        plane.install(&accepted(drop_flow(), 0.0)).unwrap();
        let removals = plane.withdraw(OWNER, &drop_flow());
        assert_eq!(removals.len(), 1);
        assert_eq!(plane.rule_count(), 0);
        // Withdrawing again is inert.
        assert!(plane.withdraw(OWNER, &drop_flow()).is_empty());

        plane.install(&accepted(drop_flow(), 0.0)).unwrap();
        assert_eq!(plane.flush().len(), 1);
        assert_eq!(plane.rule_count(), 0);
    }

    #[test]
    fn plane_refusal_drops_desired_state() {
        let mut plane = FlowSpecPlane::new();
        let changes = plane.install(&accepted(drop_flow(), 0.0)).unwrap();
        let id = match &changes[0] {
            AbstractChange::AddRule(r) => r.id,
            other => panic!("expected add, got {other:?}"),
        };
        assert!(plane.rule_refused(id));
        assert_eq!(plane.rule_count(), 0);
        assert!(!plane.rule_refused(id));
        assert!(plane.desired_rules().is_empty());
    }

    #[test]
    fn owner_view_is_the_full_snapshot_filtered() {
        let mut plane = FlowSpecPlane::new();
        let two_ports = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(53), NumericOp::equals(389)]),
        ]);
        // Adjacent ASNs, the largest ASN, and two NLRIs (one lowering to
        // two rules) for the owner in the middle, installed interleaved.
        for (owner, f) in [
            (Asn(OWNER.0 + 1), drop_flow()),
            (OWNER, two_ports.clone()),
            (Asn(u32::MAX), drop_flow()),
            (OWNER, drop_flow()),
            (Asn(OWNER.0 - 1), two_ports),
        ] {
            plane
                .install(&AcceptedFlowSpec {
                    owner,
                    ..accepted(f, 0.0)
                })
                .unwrap();
        }
        let all = plane.desired_rules();
        assert_eq!(all.len(), 7);
        for (owner, rules) in [
            (OWNER, 3),
            (Asn(OWNER.0 + 1), 1),
            (Asn(OWNER.0 - 1), 2),
            (Asn(u32::MAX), 1),
            (Asn(0), 0),
            (Asn(OWNER.0 + 2), 0),
        ] {
            let mut view: Vec<_> = plane.table().rules_of(owner).collect();
            view.sort_by_key(|r| r.id);
            let filtered: Vec<_> = all.iter().filter(|r| r.owner == owner).cloned().collect();
            assert_eq!(view, filtered, "{owner:?}");
            assert_eq!(view.len(), rules, "{owner:?}");
        }
        let t = plane.table();
        let mut ids: Vec<u64> = t.owners().flat_map(|o| t.ids_of(o)).collect();
        ids.sort_unstable();
        assert_eq!(ids, all.iter().map(|r| r.id).collect::<Vec<_>>());
    }

    #[test]
    fn every_mutator_stamps_the_owners_it_changed_and_nothing_else() {
        let mut plane = FlowSpecPlane::new();
        let other = Asn(OWNER.0 + 1);
        let stamps = |plane: &FlowSpecPlane, owner| plane.table().revision(owner);
        assert_eq!((plane.table().version(), stamps(&plane, OWNER)), (0, 0));
        let mut version = 0;
        // Did the last call move the plane, and was it OWNER's change?
        let mut moved = |plane: &FlowSpecPlane| {
            let moved = plane.table().version() > version;
            version = plane.table().version();
            assert_eq!(stamps(plane, other), 0, "nobody touched {other:?}");
            moved && stamps(plane, OWNER) == version
        };
        let changes = plane.install(&accepted(drop_flow(), 0.0)).unwrap();
        assert!(moved(&plane));
        // An identical re-announcement changes nothing; a new action does.
        assert!(plane
            .install(&accepted(drop_flow(), 0.0))
            .unwrap()
            .is_empty());
        assert!(!moved(&plane));
        assert_eq!(plane.install(&accepted(drop_flow(), 1e6)).unwrap().len(), 2);
        assert!(moved(&plane));
        assert!(!plane.rule_refused(changes[0].rule_id()));
        assert!(plane.withdraw(other, &drop_flow()).is_empty());
        assert!(!moved(&plane));
        assert!(plane.rule_refused(plane.desired_rules()[0].id));
        assert!(moved(&plane));
        assert!(plane.flush().is_empty());
        assert!(!moved(&plane));
        plane.install(&accepted(drop_flow(), 0.0)).unwrap();
        assert!(moved(&plane));
        assert_eq!(plane.withdraw(OWNER, &drop_flow()).len(), 1);
        assert!(moved(&plane));
        plane.install(&accepted(drop_flow(), 0.0)).unwrap();
        assert!(moved(&plane));
        assert_eq!(plane.flush().len(), 1);
        assert!(moved(&plane));
        assert_eq!(plane.take_unverified(), None);
    }

    #[test]
    fn the_key_set_only_moves_with_its_owners_stamp() {
        let mut plane = FlowSpecPlane::new();
        let other = Asn(OWNER.0 + 1);
        let ntp = drop_flow();
        let dns = flow(vec![
            Component::DstPrefix(victim()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(53)]),
        ]);
        let by = |owner: Asn, f: &FlowSpec| AcceptedFlowSpec {
            owner,
            ..accepted(f.clone(), 0.0)
        };
        let owners = |plane: &FlowSpecPlane| plane.table().owners().collect::<Vec<_>>();
        // Per owner, its keys and the revision they were read under.
        let read = |plane: &FlowSpecPlane| -> Vec<(Asn, u64, Vec<Vec<u8>>)> {
            let t = plane.table();
            [OWNER, other]
                .iter()
                .map(|&o| {
                    let keys: Vec<Vec<u8>> = t.sources_of(o).map(|(k, _)| k.clone()).collect();
                    // Every key stands for at least one rule.
                    assert_eq!(t.rules_of(o).count() > 0, !keys.is_empty());
                    assert_eq!(t.owners().any(|p| p == o), !keys.is_empty());
                    (o, t.revision(o), keys)
                })
                .collect()
        };
        let mut before = read(&plane);
        let mut step = |plane: &FlowSpecPlane| {
            let after = read(plane);
            for (was, is) in before.iter().zip(&after) {
                assert!(was.2 == is.2 || was.1 < is.1, "{:?}: keys moved", is.0);
            }
            before = after;
        };
        plane.install(&by(OWNER, &ntp)).unwrap();
        step(&plane);
        plane.install(&by(other, &ntp)).unwrap();
        step(&plane);
        plane.install(&by(OWNER, &dns)).unwrap();
        step(&plane);
        assert_eq!(owners(&plane), [OWNER, other]);
        assert_eq!(plane.table().sources_of(OWNER).count(), 2);
        // The last rule of a key refused: the key goes with it.
        let refused = plane.table().ids_of(other).next().unwrap();
        assert!(plane.rule_refused(refused));
        step(&plane);
        assert_eq!(owners(&plane), [OWNER]);
        plane.withdraw(OWNER, &ntp);
        step(&plane);
        plane.flush();
        step(&plane);
        assert!(owners(&plane).is_empty());
    }

    /// One step of [`cached_regions_are_their_rules_regions`]: owners are
    /// indexes into three ASNs, flows into [`episode_flow`]'s variants,
    /// picks into the desired rules by id.
    #[derive(Debug, Clone)]
    enum Op {
        /// Announce (or re-announce, implicitly withdrawing the old
        /// lowering) a flow at a drop or a shaping rate.
        Install {
            owner: usize,
            flow: usize,
            shape: bool,
        },
        Withdraw {
            owner: usize,
            flow: usize,
        },
        Refuse {
            pick: usize,
        },
        Flush,
    }

    /// Flows lowering to one spec, two specs, a flag cube and a
    /// fragment cube, towards two victims.
    fn episode_flow(i: usize) -> FlowSpec {
        let dst = ["100.10.10.10/32", "100.10.10.11/32"][i / 4 % 2];
        let mut components = vec![Component::DstPrefix(dst.parse().unwrap())];
        components.extend(match i % 4 {
            0 => vec![
                Component::IpProtocol(vec![NumericOp::equals(17)]),
                Component::SrcPort(vec![NumericOp::equals(123)]),
            ],
            1 => vec![
                Component::IpProtocol(vec![NumericOp::equals(17)]),
                Component::SrcPort(vec![NumericOp::equals(53), NumericOp::equals(389)]),
            ],
            2 => vec![Component::TcpFlags(vec![BitmaskOp::new(
                false, false, true, 0x02,
            )])],
            _ => vec![
                Component::PacketLength(vec![NumericOp::ge(1000)]),
                Component::Fragment(vec![BitmaskOp::new(false, false, false, 0x03)]),
            ],
        });
        flow(components)
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let install = (0usize..3, 0usize..8, any::<bool>())
            .prop_map(|(owner, flow, shape)| Op::Install { owner, flow, shape })
            .boxed();
        prop_oneof![
            install.clone(),
            install,
            (0usize..3, 0usize..8).prop_map(|(owner, flow)| Op::Withdraw { owner, flow }),
            any::<usize>().prop_map(|pick| Op::Refuse { pick }),
            Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every step of a random episode, every lowered rule's
        /// cached region is the region of its spec, and the kept rule
        /// count is the number of desired rules.
        #[test]
        fn cached_regions_are_their_rules_regions(
            ops in proptest::collection::vec(arb_op(), 1..30),
        ) {
            let mut plane = FlowSpecPlane::new();
            let asn = |o: usize| Asn(OWNER.0 + o as u32);
            for op in &ops {
                match *op {
                    Op::Install { owner, flow, shape } => {
                        let acc = AcceptedFlowSpec {
                            owner: asn(owner),
                            ..accepted(episode_flow(flow), if shape { 1e6 } else { 0.0 })
                        };
                        plane.install(&acc).expect("every episode flow lowers");
                    }
                    Op::Withdraw { owner, flow } => {
                        plane.withdraw(asn(owner), &episode_flow(flow));
                    }
                    Op::Refuse { pick } => {
                        let ids: Vec<u64> = plane.desired_rules().iter().map(|r| r.id).collect();
                        plane.rule_refused(ids.get(pick % ids.len().max(1)).copied().unwrap_or(0));
                    }
                    Op::Flush => {
                        plane.flush();
                    }
                }
                let t = plane.table();
                for rule in t.owners().flat_map(|o| t.standing_of(o)) {
                    prop_assert!(rule.region_is_current(), "rule {} after {:?}", rule.id, op);
                }
                prop_assert_eq!(plane.rule_count(), plane.desired_rules().len(), "after {:?}", op);
            }
        }
    }
}
