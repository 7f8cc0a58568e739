//! The match language as sets of flow keys, said once.
//!
//! [`MatchSpec::matches`] is the reference for what one rule does to one
//! key. Everything that reasons about *sets* of keys — [`crate::analyze`]'s
//! pair tests and reachability, [`crate::verify`]'s table differ — goes
//! through this module instead of spelling the criteria out again:
//!
//! - the [`Field`] table: the fifteen dimensions a key is partitioned on,
//!   in walk order (family and protocol first, they gate later fields),
//!   each with its kind and observable width, its gate, how its criterion
//!   is read from a [`MatchSpec`] and how a value is written into a
//!   [`FlowKey`];
//! - [`Region`]: one rule's match set in canonical form — protocol
//!   couplings folded into one protocol set, one address family, every
//!   criterion clipped to its field's width — read from a borrowed spec
//!   for one question, or kept with its cells for as long as its rule
//!   stands;
//! - [`Domain`]: the key universe a question is asked over;
//! - [`each_atom`]: the one splitter, cutting a field of the domain into
//!   atoms on which every live region is constant;
//! - [`first_uncovered`]: a key of one region that no earlier region
//!   matches, by an early-exit walk of that splitter.
//!
//! # The key space
//!
//! Sets are sets of *observable* keys — what `Packet::flow_key` can
//! produce, which is narrower than what a `FlowKey` can store: one address
//! family per key, DSCP in 6 bits, the flow label in 20, fragment bits
//! inside [`frag::DOMAIN`], and a field whose gate is closed for the key's
//! protocol or family (ports on portless protocols, TCP flags off TCP,
//! ICMP type/code off ICMP, the flow label on IPv4) pinned to 0. A rule
//! that differs from another only on unobservable keys does not differ.

use crate::spec::{BitsMatch, MatchSpec, PortMatch, RangeMatch};
use std::sync::OnceLock;
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::flow::{frag, FlowKey};
use stellar_net::mac::MacAddr;
use stellar_net::prefix::Prefix;
use stellar_net::proto::IpProtocol;

// ---------------------------------------------------------------------
// Cell geometry: intervals and bit cubes.
// ---------------------------------------------------------------------

/// The common part of two inclusive intervals, if any.
pub fn interval_and<T: Ord + Copy>(a: (T, T), b: (T, T)) -> Option<(T, T)> {
    let (lo, hi) = (a.0.max(b.0), a.1.min(b.1));
    (lo <= hi).then_some((lo, hi))
}

/// True if every value satisfying cube `inner` also satisfies `outer`:
/// `outer` constrains no bit `inner` leaves free, and they agree on
/// `outer`'s bits.
pub fn cube_subset(inner: BitsMatch, outer: BitsMatch) -> bool {
    outer.mask & inner.mask == outer.mask && inner.value & outer.mask == outer.value
}

/// True if some value satisfies both (satisfiable) cubes: their values
/// agree on the shared mask bits.
fn cubes_compatible(a: BitsMatch, b: BitsMatch) -> bool {
    a.value & b.mask == b.value & a.mask
}

/// The cube both cubes' values satisfy, if they are compatible: the
/// constraints simply union.
pub fn cube_and(a: BitsMatch, b: BitsMatch) -> Option<BitsMatch> {
    cubes_compatible(a, b).then_some(BitsMatch::new(a.mask | b.mask, a.value | b.value))
}

/// One region's constraint on one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cell {
    /// Values in `lo..=hi`.
    Range(u128, u128),
    /// Flag bytes satisfying the cube.
    Cube(BitsMatch),
    /// Protocol numbers in the set.
    Protos(ProtoSet),
}

impl Cell {
    fn exact(v: u128) -> Cell {
        Cell::Range(v, v)
    }

    fn range<T: Copy + Into<u128>>(r: RangeMatch<T>) -> Cell {
        Cell::Range(r.lo.into(), r.hi.into())
    }

    fn port(pm: PortMatch) -> Cell {
        match pm {
            PortMatch::Exact(p) => Cell::exact(p.into()),
            PortMatch::Range(lo, hi) => Cell::Range(lo.into(), hi.into()),
        }
    }

    fn prefix(p: Prefix) -> Cell {
        let (v4, lo) = ip_num(p.network());
        let host_bits = u32::from(if v4 { 32 } else { 128 } - p.len());
        let size = 1u128.checked_shl(host_bits).map_or(u128::MAX, |s| s - 1);
        Cell::Range(lo, lo.saturating_add(size))
    }

    /// The part of the cell inside the observable values `full`. Bits a
    /// key never carries read as 0: a cube stops constraining them, and
    /// one that demands them set keeps a value outside its mask, which
    /// makes it unsatisfiable.
    #[inline]
    fn clip(self, full: Cell) -> Cell {
        match (self, full) {
            (Cell::Range(lo, hi), Cell::Range(_, max)) => Cell::Range(lo, hi.min(max)),
            (Cell::Cube(c), Cell::Cube(f)) => Cell::Cube(BitsMatch::new(c.mask & f.mask, c.value)),
            (cell, _) => cell,
        }
    }

    fn is_empty(self) -> bool {
        match self {
            Cell::Range(lo, hi) => lo > hi,
            Cell::Cube(c) => !c.is_satisfiable(),
            Cell::Protos(s) => s == ProtoSet::NONE,
        }
    }

    #[inline]
    pub(crate) fn admits(self, v: u128) -> bool {
        match self {
            Cell::Range(lo, hi) => lo <= v && v <= hi,
            Cell::Cube(c) => c.matches(v as u8),
            Cell::Protos(s) => s.contains(v as u8),
        }
    }

    fn covers(self, inner: Cell) -> bool {
        match (self, inner) {
            (Cell::Range(lo, hi), Cell::Range(ilo, ihi)) => lo <= ilo && ihi <= hi,
            (Cell::Cube(c), Cell::Cube(i)) => cube_subset(i, c),
            (Cell::Protos(s), Cell::Protos(i)) => i.and(s) == i,
            _ => false,
        }
    }

    fn intersects(self, other: Cell) -> bool {
        match (self, other) {
            (Cell::Range(lo, hi), Cell::Range(olo, ohi)) => {
                interval_and((lo, hi), (olo, ohi)).is_some()
            }
            (Cell::Cube(c), Cell::Cube(o)) => cubes_compatible(c, o),
            (Cell::Protos(s), Cell::Protos(o)) => s.and(o) != ProtoSet::NONE,
            _ => false,
        }
    }
}

fn ip_num(addr: IpAddress) -> (bool, u128) {
    match addr {
        IpAddress::V4(Ipv4Address(b)) => (true, u128::from(u32::from_be_bytes(b))),
        IpAddress::V6(Ipv6Address(b)) => (false, u128::from_be_bytes(b)),
    }
}

fn num_ip(v4: bool, n: u128) -> IpAddress {
    if v4 {
        IpAddress::V4(Ipv4Address((n as u32).to_be_bytes()))
    } else {
        IpAddress::V6(Ipv6Address(n.to_be_bytes()))
    }
}

fn mac_num(m: MacAddr) -> u128 {
    let mut b = [0u8; 16];
    b[10..].copy_from_slice(&m.0);
    u128::from_be_bytes(b)
}

fn num_mac(n: u128) -> MacAddr {
    let mut m = [0u8; 6];
    m.copy_from_slice(&n.to_be_bytes()[10..]);
    MacAddr(m)
}

// ---------------------------------------------------------------------
// Protocol sets and gates.
// ---------------------------------------------------------------------

/// A set of IP protocol numbers as a 256-bit mask: exact enough to
/// decide every protocol coupling without case analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProtoSet([u128; 2]);

impl ProtoSet {
    const ALL: ProtoSet = ProtoSet([u128::MAX; 2]);
    const NONE: ProtoSet = ProtoSet([0; 2]);

    const fn with(mut self, p: u8) -> ProtoSet {
        self.0[(p >> 7) as usize] |= 1 << (p & 127);
        self
    }

    fn and(self, o: ProtoSet) -> ProtoSet {
        ProtoSet([self.0[0] & o.0[0], self.0[1] & o.0[1]])
    }

    fn and_not(self, o: ProtoSet) -> ProtoSet {
        ProtoSet([self.0[0] & !o.0[0], self.0[1] & !o.0[1]])
    }

    fn contains(self, p: u8) -> bool {
        self.and(ProtoSet::NONE.with(p)) != ProtoSet::NONE
    }

    fn len(self) -> u32 {
        self.0[0].count_ones() + self.0[1].count_ones()
    }

    /// The smallest member.
    fn first(self) -> Option<u8> {
        let [lo, hi] = self.0.map(|half| half.trailing_zeros() as u8);
        (self != ProtoSet::NONE).then(|| if lo < 128 { lo } else { 128 + hi })
    }
}

/// What has to hold of a key's protocol or family for it to carry a
/// field; a criterion on the field confines its rule to such keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Open,
    Ports,
    Tcp,
    Icmp,
    V6,
}

impl Gate {
    /// The protocols whose keys carry the fields behind the gate: the
    /// sets `IpProtocol::has_ports` and `is_icmp` describe, spelled out
    /// (a test holds them to the predicates).
    const fn protos(self) -> ProtoSet {
        let none = ProtoSet::NONE;
        match self {
            Gate::Ports => none.with(IpProtocol::TCP.0).with(IpProtocol::UDP.0),
            Gate::Tcp => none.with(IpProtocol::TCP.0),
            Gate::Icmp => none.with(IpProtocol::ICMP.0).with(IpProtocol::ICMPV6.0),
            Gate::Open | Gate::V6 => ProtoSet::ALL,
        }
    }

    fn open(self, ctx: Ctx) -> bool {
        self.protos().contains(ctx.proto) && (self != Gate::V6 || !ctx.v4)
    }

    /// The fields behind the gate, as a set of [`Field::bit`]s.
    const fn fields(self) -> u16 {
        let (mut fields, mut i) = (0, 0);
        while i < Field::ALL.len() {
            if Field::ALL[i].gate() as u8 == self as u8 {
                fields |= 1 << i;
            }
            i += 1;
        }
        fields
    }
}

/// The protocol gates: the fields behind each, and the protocols a
/// criterion on any of them confines a rule to. Constant, so a pair test
/// or a protocol split reads three sets instead of asking the predicates
/// about every protocol number.
const PROTO_GATES: [(u16, ProtoSet); 3] = [
    (Gate::Ports.fields(), Gate::Ports.protos()),
    (Gate::Tcp.fields(), Gate::Tcp.protos()),
    (Gate::Icmp.fields(), Gate::Icmp.protos()),
];

// ---------------------------------------------------------------------
// The field table.
// ---------------------------------------------------------------------

/// One dimension of the key space, in walk order: the address family
/// and the protocol, which gate later fields, then the criteria of
/// [`MatchSpec`] (each port, length, DSCP, ICMP and flow-label field a
/// range; the TCP-flag and fragment bytes bit cubes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    Family,
    Proto,
    SrcMac,
    DstMac,
    SrcIp,
    DstIp,
    SrcPort,
    DstPort,
    TcpFlags,
    PacketLen,
    Dscp,
    Fragment,
    IcmpType,
    IcmpCode,
    FlowLabel,
}

/// Family atoms carry the IP version as their value.
const V4: u128 = 4;
const V6: u128 = 6;

/// The field table, one column per method: each field's observable
/// width, its gate, how its criterion is read from a spec and how a value
/// is written into a key. What a spec says of the family, and of the
/// protocol beyond naming one, is implied by the other fields' criteria
/// through their gates: [`Region::of`] folds that.
impl Field {
    /// Every field, in walk order.
    pub const ALL: [Field; 15] = {
        use Field::*;
        [
            Family, Proto, SrcMac, DstMac, SrcIp, DstIp, SrcPort, DstPort, TcpFlags, PacketLen,
            Dscp, Fragment, IcmpType, IcmpCode, FlowLabel,
        ]
    };

    fn bit(self) -> u16 {
        1 << self as u16
    }

    /// Every observable value of the field — the only copy of the
    /// widths — on keys of `family` (either family when `None`).
    #[inline]
    fn full(self, family: Option<bool>) -> Cell {
        let bits = |mask| Cell::Cube(BitsMatch::new(mask, 0));
        match self {
            Field::Family => Cell::Range(V4, V6),
            Field::Proto => Cell::Protos(ProtoSet::ALL),
            Field::SrcMac | Field::DstMac => Cell::Range(0, (1 << 48) - 1),
            Field::SrcIp | Field::DstIp if family == Some(true) => Cell::Range(0, u32::MAX.into()),
            Field::SrcIp | Field::DstIp => Cell::Range(0, u128::MAX),
            Field::SrcPort | Field::DstPort | Field::PacketLen => Cell::Range(0, 0xFFFF),
            Field::TcpFlags => bits(0xFF),
            Field::Dscp => Cell::Range(0, 63),
            Field::Fragment => bits(frag::DOMAIN),
            Field::IcmpType | Field::IcmpCode => Cell::Range(0, 0xFF),
            Field::FlowLabel => Cell::Range(0, 0xF_FFFF),
        }
    }

    const fn gate(self) -> Gate {
        match self {
            Field::SrcPort | Field::DstPort => Gate::Ports,
            Field::TcpFlags => Gate::Tcp,
            Field::IcmpType | Field::IcmpCode => Gate::Icmp,
            Field::FlowLabel => Gate::V6,
            _ => Gate::Open,
        }
    }

    /// The spec's criterion on the field, unclipped.
    #[inline]
    fn read(self, s: &MatchSpec) -> Option<Cell> {
        match self {
            Field::Family | Field::Proto => None,
            Field::SrcMac => s.src_mac.map(|m| Cell::exact(mac_num(m))),
            Field::DstMac => s.dst_mac.map(|m| Cell::exact(mac_num(m))),
            Field::SrcIp => s.src_ip.map(Cell::prefix),
            Field::DstIp => s.dst_ip.map(Cell::prefix),
            Field::SrcPort => s.src_port.map(Cell::port),
            Field::DstPort => s.dst_port.map(Cell::port),
            Field::TcpFlags => s.tcp_flags.map(Cell::Cube),
            Field::PacketLen => s.packet_len.map(Cell::range),
            Field::Dscp => s.dscp.map(Cell::range),
            Field::Fragment => s.fragment.map(Cell::Cube),
            Field::IcmpType => s.icmp_type.map(Cell::range),
            Field::IcmpCode => s.icmp_code.map(Cell::range),
            Field::FlowLabel => s.flow_label.map(Cell::range),
        }
    }

    /// Stores `v` in the field of a key on the walk `ctx`. The family
    /// stores placeholder addresses; the address fields overwrite them.
    pub(crate) fn write(self, k: &mut FlowKey, ctx: Ctx, v: u128) {
        match self {
            Field::Family => (k.src_ip, k.dst_ip) = (num_ip(v == V4, 0), num_ip(v == V4, 0)),
            Field::Proto => k.protocol = IpProtocol(v as u8),
            Field::SrcMac => k.src_mac = num_mac(v),
            Field::DstMac => k.dst_mac = num_mac(v),
            Field::SrcIp => k.src_ip = num_ip(ctx.v4, v),
            Field::DstIp => k.dst_ip = num_ip(ctx.v4, v),
            Field::SrcPort => k.src_port = v as u16,
            Field::DstPort => k.dst_port = v as u16,
            Field::TcpFlags => k.tcp_flags = v as u8,
            Field::PacketLen => k.packet_len = v as u16,
            Field::Dscp => k.dscp = v as u8,
            Field::Fragment => k.fragment = v as u8,
            Field::IcmpType => k.icmp_type = v as u8,
            Field::IcmpCode => k.icmp_code = v as u8,
            Field::FlowLabel => k.flow_label = v as u32,
        }
    }

    /// Whether keys of `ctx`'s family and protocol carry the field at
    /// all; where they do not, it is pinned to 0.
    fn open(self, ctx: Ctx) -> bool {
        self.gate().open(ctx)
    }
}

// ---------------------------------------------------------------------
// Regions.
// ---------------------------------------------------------------------

/// One spec's match set in canonical form: what its criteria add up to —
/// which fields they constrain (family and protocol included, through
/// the gates), which family, whether anything is left — and the cells
/// of the fields it constrains, clipped to their widths.
///
/// The cells come in two storages with one meaning. [`Region::of`]
/// borrows the spec and reads each cell from it when asked: the form for
/// a table built to answer one question (a diff, an ad-hoc analysis),
/// which costs no allocation. [`Region::owned`] reads them once and
/// keeps them — only the constrained criteria, 32 bytes each — for a
/// region that lives as long as its rule's desired state does (the
/// admission audit judges every candidate against such regions, so a
/// standing rule is canonicalised once, not once per audit). The
/// protocol cell is the spec's protocol intersected with the
/// `PROTO_GATES` sets of the fields it constrains — a few word
/// operations, never a walk over the protocol numbers.
#[derive(Debug, Clone)]
pub struct Region<'a> {
    /// Bit [`Field::bit`] set: the region constrains the field.
    constrained: u16,
    /// `Some(true)`: IPv4 keys only; `Some(false)`: IPv6 only.
    family: Option<bool>,
    empty: bool,
    /// The spec's explicit protocol, if it names one.
    protocol: Option<u8>,
    cells: Cells<'a>,
}

/// Where a region's criterion cells come from.
#[derive(Debug, Clone)]
enum Cells<'a> {
    /// Read from the spec, and clipped, on every ask.
    Read(&'a MatchSpec),
    /// One `(lo, hi)` range or `(mask, value)` cube per constrained
    /// criterion field, clipped, in field order.
    Stored(Box<[(u128, u128)]>),
}

/// The fields whose criterion comes from a spec (all but the family and
/// the protocol, which the region derives).
const CRITERIA: u16 = !(1 << Field::Family as u16 | 1 << Field::Proto as u16);

impl<'a> Region<'a> {
    /// Canonicalises one spec, borrowing it for its cells.
    pub fn of(spec: &'a MatchSpec) -> Self {
        let mut r = Region {
            constrained: 0,
            family: None,
            empty: false,
            protocol: spec.protocol.map(|p| p.0),
            cells: Cells::Read(spec),
        };
        for f in Field::ALL {
            if let Some(cell) = f.read(spec) {
                r.constrained |= f.bit();
                r.empty |= cell.clip(f.full(None)).is_empty();
            }
        }
        // [v6, v4]: the families the criteria ask for. Both: no key.
        let mut asked = [r.constrained & Gate::V6.fields() != 0, false];
        for p in [&spec.src_ip, &spec.dst_ip].into_iter().flatten() {
            asked[usize::from(p.is_v4())] = true;
        }
        if asked != [false, false] {
            r.constrained |= Field::Family.bit();
            r.family = Some(asked[1]);
        }
        let protos = r.protos();
        if protos != ProtoSet::ALL {
            r.constrained |= Field::Proto.bit();
        }
        r.empty |= asked == [true, true] || protos == ProtoSet::NONE;
        r
    }

    /// True if no observable key matches.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// True if the region's criteria say anything about the field.
    #[inline]
    pub(crate) fn constrains(&self, f: Field) -> bool {
        self.constrained & f.bit() != 0
    }

    /// True if the region constrains no field from walk position `idx`
    /// on: it matches every completion of a key it matches so far.
    pub(crate) fn free_from(&self, idx: usize) -> bool {
        self.constrained >> idx == 0
    }

    /// The explicit protocol intersected with every gate a criterion
    /// implies.
    fn protos(&self) -> ProtoSet {
        let gates = PROTO_GATES.into_iter();
        let implied = gates.filter(|(fields, _)| self.constrained & fields != 0);
        let explicit = match self.protocol {
            Some(p) => ProtoSet::NONE.with(p),
            None => ProtoSet::ALL,
        };
        implied.fold(explicit, |set, (_, gate)| set.and(gate))
    }

    /// The region's cell on a field, clipped to the field's width.
    #[inline]
    fn cell(&self, f: Field) -> Cell {
        match (f, self.family) {
            (Field::Family, Some(true)) => Cell::exact(V4),
            (Field::Family, Some(false)) => Cell::exact(V6),
            (Field::Proto, _) => Cell::Protos(self.protos()),
            _ if !self.constrains(f) => f.full(self.family),
            _ => match &self.cells {
                Cells::Read(spec) => {
                    let full = f.full(self.family);
                    f.read(spec).map_or(full, |c| c.clip(full))
                }
                Cells::Stored(cells) => {
                    let before = self.constrained & CRITERIA & (f.bit() - 1);
                    let (lo, hi) = cells[before.count_ones() as usize];
                    match f {
                        Field::TcpFlags | Field::Fragment => {
                            Cell::Cube(BitsMatch::new(lo as u8, hi as u8))
                        }
                        _ => Cell::Range(lo, hi),
                    }
                }
            },
        }
    }

    /// The region's cell on a field for a walk over a [`Domain`]: one
    /// that admits anything where the region does not constrain the
    /// field, whatever values the domain puts there.
    pub(crate) fn cell_or_any(&self, f: Field) -> Cell {
        if self.constrains(f) {
            self.cell(f)
        } else {
            Cell::Range(0, u128::MAX)
        }
    }

    /// True if the region matches every key `inner` matches.
    pub fn covers(&self, inner: &Region) -> bool {
        let covers = |&f: &Field| !self.constrains(f) || self.cell(f).covers(inner.cell(f));
        inner.empty || (!self.empty && Field::ALL.iter().all(covers))
    }

    /// True if some key matches both regions.
    pub fn intersects(&self, other: &Region) -> bool {
        let meet = |&f: &Field| {
            !(self.constrains(f) && other.constrains(f)) || self.cell(f).intersects(other.cell(f))
        };
        !self.empty && !other.empty && Field::ALL.iter().all(meet)
    }
}

impl Region<'static> {
    /// Canonicalises one spec into a region that keeps its cells and
    /// outlives the spec: [`Region::of`], read once.
    pub fn owned(spec: &MatchSpec) -> Self {
        let read = Region::of(spec);
        let criteria = Field::ALL
            .into_iter()
            .filter(|&f| read.constrained & CRITERIA & f.bit() != 0);
        let cells = criteria.map(|f| match read.cell(f) {
            Cell::Range(lo, hi) => (lo, hi),
            Cell::Cube(c) => (c.mask.into(), c.value.into()),
            // Criterion cells are ranges or cubes (the protocol is
            // derived, never stored).
            Cell::Protos(_) => (0, u128::MAX),
        });
        Region {
            constrained: read.constrained,
            family: read.family,
            empty: read.empty,
            protocol: read.protocol,
            cells: Cells::Stored(cells.collect()),
        }
    }
}

/// Regions are equal when they describe the same canonical set the same
/// way — constrained fields, family, emptiness and every cell — however
/// their cells are kept.
impl PartialEq<Region<'_>> for Region<'_> {
    fn eq(&self, other: &Region<'_>) -> bool {
        (self.constrained, self.family, self.empty)
            == (other.constrained, other.family, other.empty)
            && Field::ALL.iter().all(|&f| self.cell(f) == other.cell(f))
    }
}

// ---------------------------------------------------------------------
// Domains.
// ---------------------------------------------------------------------

/// The flow-key universe a question is asked over, as a product of
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
    /// DSCP intervals over its 6 bits.
    pub dscp: Vec<(u128, u128)>,
    /// TCP-flag bits that may vary; bits outside are pinned to 0.
    pub tcp_flags_mask: u8,
    /// Fragment bits that may vary; bits outside are pinned to 0.
    pub fragment_mask: u8,
    /// ICMP message-type intervals.
    pub icmp_type: Vec<(u128, u128)>,
    /// ICMP message-code intervals.
    pub icmp_code: Vec<(u128, u128)>,
    /// IPv6 flow-label intervals over its 20 bits.
    pub flow_label: Vec<(u128, u128)>,
}

/// The values one field takes in a domain.
enum Axis<'d> {
    /// Which of `[v4, v6]` the domain has addresses for on both sides.
    Families([bool; 2]),
    Protos(&'d [u8]),
    Ranges(&'d [(u128, u128)]),
    Bits(u8),
}

impl Domain {
    /// The full canonical flow-key universe: every field of the
    /// [`Field`] table at its whole observable width, both address
    /// families, all 256 protocols.
    pub fn canonical() -> Self {
        let ranges = |f: Field, v4: bool| match f.full(Some(v4)) {
            Cell::Range(lo, hi) => vec![(lo, hi)],
            _ => Vec::new(),
        };
        let mask = |f: Field| match f.full(None) {
            Cell::Cube(c) => c.mask,
            _ => 0,
        };
        Domain {
            src_macs: ranges(Field::SrcMac, true),
            dst_macs: ranges(Field::DstMac, true),
            src_ip_v4: ranges(Field::SrcIp, true),
            dst_ip_v4: ranges(Field::DstIp, true),
            src_ip_v6: ranges(Field::SrcIp, false),
            dst_ip_v6: ranges(Field::DstIp, false),
            protocols: (0..=255).collect(),
            ports: ranges(Field::SrcPort, true),
            packet_len: ranges(Field::PacketLen, true),
            dscp: ranges(Field::Dscp, true),
            tcp_flags_mask: mask(Field::TcpFlags),
            fragment_mask: mask(Field::Fragment),
            icmp_type: ranges(Field::IcmpType, true),
            icmp_code: ranges(Field::IcmpCode, true),
            flow_label: ranges(Field::FlowLabel, true),
        }
    }

    /// [`Domain::canonical`], built once and shared: the key space
    /// admission audits and lowering proofs are judged over.
    pub fn key_space() -> &'static Domain {
        static CANONICAL: OnceLock<Domain> = OnceLock::new();
        CANONICAL.get_or_init(Domain::canonical)
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
        self.size_from(0, Ctx::START)
    }

    fn axis(&self, f: Field, v4: bool) -> Axis<'_> {
        match f {
            Field::Family => Axis::Families([
                !self.src_ip_v4.is_empty() && !self.dst_ip_v4.is_empty(),
                !self.src_ip_v6.is_empty() && !self.dst_ip_v6.is_empty(),
            ]),
            Field::Proto => Axis::Protos(&self.protocols),
            Field::SrcMac => Axis::Ranges(&self.src_macs),
            Field::DstMac => Axis::Ranges(&self.dst_macs),
            Field::SrcIp if v4 => Axis::Ranges(&self.src_ip_v4),
            Field::SrcIp => Axis::Ranges(&self.src_ip_v6),
            Field::DstIp if v4 => Axis::Ranges(&self.dst_ip_v4),
            Field::DstIp => Axis::Ranges(&self.dst_ip_v6),
            Field::SrcPort | Field::DstPort => Axis::Ranges(&self.ports),
            Field::TcpFlags => Axis::Bits(self.tcp_flags_mask),
            Field::PacketLen => Axis::Ranges(&self.packet_len),
            Field::Dscp => Axis::Ranges(&self.dscp),
            Field::Fragment => Axis::Bits(self.fragment_mask),
            Field::IcmpType => Axis::Ranges(&self.icmp_type),
            Field::IcmpCode => Axis::Ranges(&self.icmp_code),
            Field::FlowLabel => Axis::Ranges(&self.flow_label),
        }
    }

    /// Number of canonical keys in the subdomain from walk position
    /// `idx` on (saturating): the product of the remaining fields' value
    /// counts, summed over the alternatives where family or protocol —
    /// which gate later fields — are still to be chosen.
    pub(crate) fn size_from(&self, idx: usize, ctx: Ctx) -> u128 {
        let Some(&f) = Field::ALL.get(idx) else {
            return 1;
        };
        let gates_later = matches!(f, Field::Family | Field::Proto);
        let mut sum: u128 = 0;
        let _: Result<(), ()> = each_atom(f, ctx, self, std::iter::empty(), |v, keys| {
            let rest = if gates_later {
                self.size_from(idx + 1, ctx.with(f, v))
            } else {
                1
            };
            sum = sum.saturating_add(keys.saturating_mul(rest));
            Ok(())
        });
        if gates_later {
            sum
        } else {
            sum.saturating_mul(self.size_from(idx + 1, ctx))
        }
    }

    /// Fills every field from walk position `idx` on with its smallest
    /// in-domain value: a concrete member of a subdomain decided in
    /// bulk.
    pub(crate) fn complete_key(&self, mut key: FlowKey, idx: usize, mut ctx: Ctx) -> FlowKey {
        for &f in Field::ALL.iter().skip(idx) {
            let first = each_atom(f, ctx, self, std::iter::empty(), |v, _| Err(v));
            let v = first.err().unwrap_or(0);
            ctx = ctx.with(f, v);
            f.write(&mut key, ctx, v);
        }
        key
    }
}

// ---------------------------------------------------------------------
// The splitter.
// ---------------------------------------------------------------------

/// The family and protocol chosen so far on a walk down the field
/// table: what decides the later fields' gates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ctx {
    v4: bool,
    proto: u8,
}

impl Ctx {
    /// Before either is chosen.
    pub(crate) const START: Ctx = Ctx { v4: true, proto: 0 };

    /// The context after choosing value `v` for field `f`.
    pub(crate) fn with(mut self, f: Field, v: u128) -> Ctx {
        match f {
            Field::Family => self.v4 = v == V4,
            Field::Proto => self.proto = v as u8,
            _ => {}
        }
        self
    }
}

/// Cuts field `f` of the domain into atoms — maximal sets of values none
/// of `cells`, the live regions' cells on `f`, tells apart — and visits
/// them in ascending order as `(smallest value, number of domain
/// values)`, stopping at the first `Err`. A field whose gate is closed in
/// `ctx` is the single atom 0. Intervals are cut at every cell endpoint;
/// flag bytes atomise into the assignments of the bits some cube
/// constrains, the free in-domain bits contributing an exact
/// power-of-two multiplier; protocols group by cell membership and gate
/// signature; the two families stay apart.
pub(crate) fn each_atom<E>(
    f: Field,
    ctx: Ctx,
    dom: &Domain,
    cells: impl Iterator<Item = Cell> + Clone,
    mut visit: impl FnMut(u128, u128) -> Result<(), E>,
) -> Result<(), E> {
    if !f.open(ctx) {
        return visit(0, 1);
    }
    match dom.axis(f, ctx.v4) {
        Axis::Families(present) => {
            for (has, value) in present.into_iter().zip([V4, V6]) {
                if has {
                    visit(value, 1)?;
                }
            }
        }
        Axis::Protos(protocols) => {
            let mut rest = protocols.iter().fold(ProtoSet::NONE, |s, &p| s.with(p));
            let gates = PROTO_GATES.map(|(_, protos)| Cell::Protos(protos));
            while let Some(p) = rest.first() {
                let splitters = gates.into_iter().chain(cells.clone());
                let class = splitters.fold(rest, |class, cell| match cell {
                    Cell::Protos(s) if s.contains(p) => class.and(s),
                    Cell::Protos(s) => class.and_not(s),
                    _ => class,
                });
                visit(p.into(), class.len().into())?;
                rest = rest.and_not(class);
            }
        }
        Axis::Ranges(ivs) => {
            let cuts = cells.filter_map(|c| match c {
                Cell::Range(lo, hi) => Some([Some(lo), hi.checked_add(1)]),
                _ => None,
            });
            for &(dlo, dhi) in ivs {
                let mut lo = dlo;
                loop {
                    let inside = |c: &u128| *c > lo && *c <= dhi;
                    let cut = cuts.clone().flatten().flatten().filter(inside).min();
                    let hi = cut.map_or(dhi, |c| c - 1);
                    visit(lo, (hi - lo).saturating_add(1))?;
                    if hi >= dhi {
                        break;
                    }
                    lo = hi + 1;
                }
            }
        }
        Axis::Bits(dom_mask) => {
            let used = cells.fold(0u8, |m, c| match c {
                Cell::Cube(c) => m | c.mask,
                _ => m,
            }) & dom_mask;
            let keys = 1u128 << (dom_mask & !used).count_ones();
            // Every subset of `used`, ascending.
            let mut x = 0u8;
            loop {
                visit(x.into(), keys)?;
                x = x.wrapping_sub(used) & used;
                if x == 0 {
                    break;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Reachability.
// ---------------------------------------------------------------------

/// [`first_uncovered`] spent its node budget before it could answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted;

/// One depth of a [`first_uncovered`] walk: the earlier regions that
/// match the key so far, and their cells on the field being split.
#[derive(Debug, Default)]
struct Level<'r> {
    live: Vec<&'r Region<'r>>,
    cells: Vec<Cell>,
}

/// The levels of a [`first_uncovered`] walk, kept between calls so that
/// judging a whole table allocates them once.
#[derive(Debug, Default)]
pub struct Scratch<'r> {
    levels: [Level<'r>; Field::ALL.len() + 1],
}

struct Uncovered<'w, 'r> {
    target: &'r Region<'r>,
    dom: &'w Domain,
    budget: usize,
    nodes: usize,
}

/// A key of `dom` that `target` matches and no region of `earlier` does
/// — a key `target` wins as first match — or `None` when their union
/// covers it there. Walks the field table like the differ, confined to
/// `target`'s own region: only atoms `target` admits are entered, a
/// subtree some live earlier region matches whole is skipped, and the
/// first key to outlive every earlier region is returned. `budget`
/// bounds the walk in splitter nodes.
pub fn first_uncovered<'r>(
    target: &'r Region<'r>,
    earlier: impl Iterator<Item = &'r Region<'r>>,
    dom: &Domain,
    budget: usize,
    scratch: &mut Scratch<'r>,
) -> Result<Option<FlowKey>, Exhausted> {
    if target.is_empty() {
        return Ok(None);
    }
    let live = &mut scratch.levels[0].live;
    live.clear();
    live.extend(earlier.filter(|e| e.intersects(target)));
    let mut walk = Uncovered {
        target,
        dom,
        budget,
        nodes: 0,
    };
    walk.go(0, Ctx::START, FlowKey::default(), &mut scratch.levels)
}

impl<'r> Uncovered<'_, 'r> {
    /// One node: `key` is fixed before walk position `idx`, `levels[0]`
    /// holds the earlier regions that match it so far, the rest is
    /// scratch for the levels below.
    fn go(
        &mut self,
        idx: usize,
        ctx: Ctx,
        key: FlowKey,
        levels: &mut [Level<'r>],
    ) -> Result<Option<FlowKey>, Exhausted> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(Exhausted);
        }
        // One level per field and one past the last: never short.
        let [cur, deeper @ ..] = levels else {
            return Ok(None);
        };
        if cur.live.iter().any(|e| e.free_from(idx)) {
            return Ok(None);
        }
        let Some(&f) = Field::ALL.get(idx) else {
            return Ok(Some(key));
        };
        let (target, dom) = (self.target.cell_or_any(f), self.dom);
        cur.cells.clear();
        cur.cells.extend(cur.live.iter().map(|e| e.cell_or_any(f)));
        let cells = std::iter::once(target).chain(cur.cells.iter().copied());
        let found = each_atom(f, ctx, dom, cells, |v, _| {
            if !target.admits(v) {
                return Ok(());
            }
            if let Some(next) = deeper.first_mut() {
                let outlive = cur.live.iter().zip(&cur.cells).filter(|(_, c)| c.admits(v));
                next.live.clear();
                next.live.extend(outlive.map(|(e, _)| *e));
            }
            let ctx = ctx.with(f, v);
            let mut key = key;
            f.write(&mut key, ctx, v);
            match self.go(idx + 1, ctx, key, deeper) {
                Ok(None) => Ok(()),
                found => Err(found),
            }
        });
        found.err().unwrap_or(Ok(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::is_icmp;

    #[test]
    fn gate_sets_agree_with_the_predicates_matches_uses() {
        for p in 0..=255u8 {
            let proto = IpProtocol(p);
            assert_eq!(Gate::Ports.protos().contains(p), proto.has_ports());
            assert_eq!(Gate::Tcp.protos().contains(p), proto == IpProtocol::TCP);
            assert_eq!(Gate::Icmp.protos().contains(p), is_icmp(proto));
            assert!(Gate::Open.protos().contains(p) && Gate::V6.protos().contains(p));
        }
    }

    #[test]
    fn table_rows_line_up_with_the_field_order() {
        for (i, f) in Field::ALL.into_iter().enumerate() {
            assert_eq!(f as usize, i);
        }
        assert_eq!(Gate::V6.fields(), Field::FlowLabel.bit());
    }
}
