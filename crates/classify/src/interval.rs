//! The index behind large tables: a compiled decision tree in the
//! HyperCuts / DPDK-ACL lineage over a rank-sorted rule slice.
//!
//! [`IntervalIndex`] is derived from the `(priority, id)`-sorted rule
//! `Vec` of a [`FlowClassifier`](crate::classifier::FlowClassifier) and
//! holds nothing but positions into it, in a fixed three-level tree:
//!
//! 1. **Destination prefix bits** — a binary trie per address family,
//!    walked along the key's destination address. Every trie node a
//!    rule's prefix anchors at holds that rule; a lookup visits the ≤
//!    `prefix_len` anchored nodes on its path (in practice 1–2), plus
//!    the root bucket of destination-wildcard rules.
//! 2. **Protocol** — within a node, rules split by exact IP protocol
//!    with a wildcard bucket alongside.
//! 3. **Port/length elementary intervals** — within a protocol bucket,
//!    rules carrying a source-port constraint are partitioned over the
//!    *elementary intervals* of their source-port ranges (the classic
//!    interval-stabbing table: sorted distinct boundaries + one
//!    ascending position list per gap, found by binary search). Rules
//!    without a source-port constraint partition over destination-port
//!    intervals, then packet-length intervals, and finally a `rest` list
//!    for rules constrained by none of the cut dimensions.
//!
//! The slice is rank-sorted, so a smaller position is a better rank and
//! every leaf list is ascending by construction. Every candidate the
//! tree surfaces is confirmed against the **full**
//! [`MatchSpec::matches`] predicate — the tree can only produce false
//! *positives* that confirmation rejects, never false negatives, because
//! each level only separates rules along a dimension they actually
//! constrain (wildcards ride along in the `wild`/`rest` buckets every
//! lookup visits). First-match semantics follow from scanning each
//! candidate list in order and keeping the global minimum position.

use std::collections::BTreeMap;

use crate::classifier::RuleEntry;
use crate::spec::{MatchSpec, PortMatch};
use stellar_net::addr::IpAddress;
use stellar_net::flow::FlowKey;

/// A rule's position in the rank-sorted slice the index was built over.
type Pos = u32;

/// "No match yet": larger than any real position.
const NO_MATCH: Pos = Pos::MAX;

/// Address bits left-aligned in a u128 plus the family tag, so v4 and v6
/// prefixes walk the same trie code.
fn addr_bits(addr: IpAddress) -> (bool, u128) {
    match addr {
        IpAddress::V4(a) => (true, (u32::from_be_bytes(a.0) as u128) << 96),
        IpAddress::V6(a) => (false, u128::from_be_bytes(a.0)),
    }
}

/// Bit `i` (0 = most significant) of left-aligned address bits.
fn bit_at(bits: u128, i: u8) -> usize {
    ((bits >> (127 - i)) & 1) as usize
}

/// An elementary-interval table over one u16 dimension: `bounds` holds
/// the sorted distinct interval start points (always beginning at 0), and
/// `lists[i]` the ascending rules covering `bounds[i]..bounds[i+1]-1`
/// (the last interval extends to `u16::MAX`). A rule spanning several
/// elementary intervals is replicated into each — lookup is then a
/// single binary search.
#[derive(Debug, Default, Clone)]
struct IntervalCut {
    bounds: Vec<u16>,
    lists: Vec<Vec<Pos>>,
}

impl IntervalCut {
    /// `ranges` must be ascending by position, which makes every list
    /// ascending without a sort.
    fn build(ranges: &[(u16, u16, Pos)]) -> Self {
        if ranges.is_empty() {
            return Self::default();
        }
        let mut bounds: Vec<u16> = Vec::with_capacity(ranges.len() * 2 + 1);
        bounds.push(0);
        for &(lo, hi, _) in ranges {
            bounds.push(lo);
            if hi < u16::MAX {
                bounds.push(hi + 1);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        let mut lists: Vec<Vec<Pos>> = vec![Vec::new(); bounds.len()];
        for &(lo, hi, pos) in ranges {
            let start = bounds.partition_point(|b| *b < lo);
            for (i, &b) in bounds.iter().enumerate().skip(start) {
                if b > hi {
                    break;
                }
                lists[i].push(pos);
            }
        }
        IntervalCut { bounds, lists }
    }

    fn probe(&self, x: u16) -> &[Pos] {
        if self.bounds.is_empty() {
            return &[];
        }
        // bounds[0] == 0, so the partition point is always >= 1.
        let idx = self.bounds.partition_point(|b| *b <= x) - 1;
        &self.lists[idx]
    }
}

/// A tree leaf: rules under one (dst-prefix node, protocol) pair, cut by
/// the first interval dimension each rule constrains.
#[derive(Debug, Default, Clone)]
struct Leaf {
    /// Rules with a source-port criterion, over src-port intervals.
    src_cut: IntervalCut,
    /// Rules with a dst-port criterion (and no src-port), over dst-port
    /// intervals.
    dst_cut: IntervalCut,
    /// Rules with a packet-length criterion (and no port criteria), over
    /// length intervals.
    len_cut: IntervalCut,
    /// Rules constrained by none of the cut dimensions, ascending.
    rest: Vec<Pos>,
}

impl Leaf {
    /// Files one rule; callers add in ascending position.
    fn add(&mut self, spec: &MatchSpec, pos: Pos, pending: &mut LeafRanges) {
        if let Some(pm) = spec.src_port {
            if let Some((lo, hi)) = port_range(pm) {
                pending.src.push((lo, hi, pos));
            }
            // An inverted (empty) range matches nothing; the rule can be
            // omitted without changing any verdict.
        } else if let Some(pm) = spec.dst_port {
            if let Some((lo, hi)) = port_range(pm) {
                pending.dst.push((lo, hi, pos));
            }
        } else if let Some(r) = spec.packet_len {
            if !r.is_empty() {
                pending.len.push((r.lo, r.hi, pos));
            }
        } else {
            self.rest.push(pos);
        }
    }

    fn finish(&mut self, pending: &LeafRanges) {
        self.src_cut = IntervalCut::build(&pending.src);
        self.dst_cut = IntervalCut::build(&pending.dst);
        self.len_cut = IntervalCut::build(&pending.len);
    }
}

/// Scratch range lists collected per leaf during a build, compiled into
/// [`IntervalCut`]s by [`Leaf::finish`].
#[derive(Debug, Default, Clone)]
struct LeafRanges {
    src: Vec<(u16, u16, Pos)>,
    dst: Vec<(u16, u16, Pos)>,
    len: Vec<(u16, u16, Pos)>,
}

fn port_range(pm: PortMatch) -> Option<(u16, u16)> {
    match pm {
        PortMatch::Exact(p) => Some((p, p)),
        PortMatch::Range(lo, hi) if lo <= hi => Some((lo, hi)),
        PortMatch::Range(..) => None,
    }
}

/// Per-node protocol split: exact-protocol leaves plus the wildcard leaf
/// every lookup also visits.
#[derive(Debug, Default, Clone)]
struct ProtoTable {
    by_proto: Vec<(u8, Leaf)>,
    wild: Leaf,
}

/// A binary trie node. Child 0 follows a clear address bit, child 1 a
/// set bit; `u32::MAX` marks a missing child. `table` is present on
/// nodes where at least one rule's destination prefix ends.
#[derive(Debug, Clone)]
struct TrieNode {
    children: [u32; 2],
    table: Option<Box<ProtoTable>>,
}

const NO_CHILD: u32 = u32::MAX;

impl TrieNode {
    fn new() -> Self {
        TrieNode {
            children: [NO_CHILD, NO_CHILD],
            table: None,
        }
    }
}

/// One address family's destination-prefix trie.
#[derive(Debug, Clone)]
struct Trie {
    nodes: Vec<TrieNode>,
}

impl Trie {
    fn new() -> Self {
        Trie {
            nodes: vec![TrieNode::new()],
        }
    }

    /// The node index for a prefix, creating the path as needed.
    fn node_for(&mut self, bits: u128, len: u8) -> usize {
        let mut cur = 0usize;
        for i in 0..len {
            let b = bit_at(bits, i);
            let next = self.nodes[cur].children[b];
            cur = if next == NO_CHILD {
                let idx = self.nodes.len() as u32;
                self.nodes.push(TrieNode::new());
                self.nodes[cur].children[b] = idx;
                idx as usize
            } else {
                next as usize
            };
        }
        cur
    }

    /// Visits every anchored table on the path of `bits`, root first.
    fn walk<'a>(&'a self, bits: u128, mut visit: impl FnMut(&'a ProtoTable)) {
        let mut cur = 0usize;
        let mut depth = 0u8;
        loop {
            if let Some(t) = &self.nodes[cur].table {
                visit(t);
            }
            if depth >= 128 {
                break;
            }
            let next = self.nodes[cur].children[bit_at(bits, depth)];
            if next == NO_CHILD {
                break;
            }
            cur = next as usize;
            depth += 1;
        }
    }
}

/// The compiled decision tree over one rank-sorted rule slice. Same
/// observable semantics as scanning that slice: the first (lowest)
/// position whose spec matches, `None` when nothing matches.
#[derive(Debug)]
pub struct IntervalIndex {
    v4: Trie,
    v6: Trie,
    /// Rules with no destination-prefix constraint (visited for every
    /// key, both families).
    any: ProtoTable,
}

impl IntervalIndex {
    /// Builds the index over `rules`, which must be in evaluation order
    /// (ascending `(priority, id)`). The index stores positions only, so
    /// it answers for exactly this slice: any change to the slice needs a
    /// new index.
    pub fn build(rules: &[RuleEntry]) -> Self {
        let mut index = IntervalIndex {
            v4: Trie::new(),
            v6: Trie::new(),
            any: ProtoTable::default(),
        };
        // Group rules by (family, trie node, protocol bucket) first; the
        // leaves' interval tables need all their ranges at once.
        type LeafKey = (u8, usize, Option<u8>);
        let mut groups: BTreeMap<LeafKey, Vec<Pos>> = BTreeMap::new();
        for (pos, e) in rules.iter().enumerate() {
            let (family, node) = match &e.spec.dst_ip {
                None => (0u8, 0usize),
                Some(p) => {
                    let (is_v4, bits) = addr_bits(p.network());
                    let trie = if is_v4 { &mut index.v4 } else { &mut index.v6 };
                    (if is_v4 { 1 } else { 2 }, trie.node_for(bits, p.len()))
                }
            };
            let proto = e.spec.protocol.map(|p| p.0);
            groups
                .entry((family, node, proto))
                .or_default()
                .push(pos as Pos);
        }
        for ((family, node, proto), positions) in &groups {
            let mut leaf = Leaf::default();
            let mut pending = LeafRanges::default();
            for &pos in positions {
                leaf.add(&rules[pos as usize].spec, pos, &mut pending);
            }
            leaf.finish(&pending);
            let table = match family {
                0 => &mut index.any,
                1 => &mut **index.v4.nodes[*node].table.get_or_insert_with(Box::default),
                _ => &mut **index.v6.nodes[*node].table.get_or_insert_with(Box::default),
            };
            // BTreeMap group order yields ascending protocol values per
            // (family, node) — the order `scan_table` binary-searches.
            match proto {
                None => table.wild = leaf,
                Some(p) => table.by_proto.push((*p, leaf)),
            }
        }
        index
    }

    /// The position in `rules` of the first rule matching `key`. `rules`
    /// must be the slice the index was [built](Self::build) over.
    pub fn first_match(&self, rules: &[RuleEntry], key: &FlowKey) -> Option<usize> {
        let mut best = NO_MATCH;
        scan_table(&self.any, rules, key, &mut best);
        let (is_v4, bits) = addr_bits(key.dst_ip);
        let trie = if is_v4 { &self.v4 } else { &self.v6 };
        trie.walk(bits, |table| scan_table(table, rules, key, &mut best));
        (best != NO_MATCH).then_some(best as usize)
    }
}

/// Scans one candidate list, improving `best`. Lists are ascending, so
/// the scan stops at the first confirmed match or as soon as the current
/// best outranks the remainder.
fn scan_list(list: &[Pos], rules: &[RuleEntry], key: &FlowKey, best: &mut Pos) {
    for &pos in list {
        if pos >= *best {
            break;
        }
        // Confirm with the full predicate: the tree is a prefilter
        // (src-ip, MACs, flags, every residual dimension checked here).
        if rules[pos as usize].spec.matches(key) {
            *best = pos;
            break;
        }
    }
}

fn scan_leaf(leaf: &Leaf, rules: &[RuleEntry], key: &FlowKey, best: &mut Pos) {
    scan_list(leaf.src_cut.probe(key.src_port), rules, key, best);
    scan_list(leaf.dst_cut.probe(key.dst_port), rules, key, best);
    scan_list(leaf.len_cut.probe(key.packet_len), rules, key, best);
    scan_list(&leaf.rest, rules, key, best);
}

fn scan_table(table: &ProtoTable, rules: &[RuleEntry], key: &FlowKey, best: &mut Pos) {
    scan_leaf(&table.wild, rules, key, best);
    let p = key.protocol.0;
    if let Ok(i) = table.by_proto.binary_search_by_key(&p, |(v, _)| *v) {
        scan_leaf(&table.by_proto[i].1, rules, key, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::RuleId;
    use crate::spec::{BitsMatch, RangeMatch};
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::mac::MacAddr;
    use stellar_net::proto::IpProtocol;

    fn key(dst: [u8; 4], proto: IpProtocol, src_port: u16, dst_port: u16) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::for_member(64500, 1),
            dst_mac: MacAddr::for_member(64501, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
            dst_ip: IpAddress::V4(Ipv4Address(dst)),
            protocol: proto,
            src_port,
            dst_port,
            ..FlowKey::default()
        }
    }

    fn rule(id: RuleId, priority: u16, spec: MatchSpec) -> RuleEntry {
        RuleEntry::new(id, priority, spec)
    }

    /// A rank-sorted table with its index: lookups by id, and every
    /// lookup checked against the scan of the same slice.
    struct Indexed {
        rules: Vec<RuleEntry>,
        index: IntervalIndex,
    }

    impl Indexed {
        fn new(mut rules: Vec<RuleEntry>) -> Self {
            rules.sort_by_key(|e| (e.priority, e.id));
            let index = IntervalIndex::build(&rules);
            Indexed { rules, index }
        }

        fn classify(&self, key: &FlowKey) -> Option<RuleId> {
            let got = self.index.first_match(&self.rules, key);
            assert_eq!(got, self.rules.iter().position(|e| e.spec.matches(key)));
            got.map(|pos| self.rules[pos].id)
        }
    }

    #[test]
    fn empty_index_matches_nothing() {
        let t = Indexed::new(Vec::new());
        assert_eq!(t.classify(&key([1, 2, 3, 4], IpProtocol::UDP, 1, 2)), None);
    }

    #[test]
    fn prefix_protocol_and_port_cuts_compose() {
        let victim: stellar_net::prefix::Prefix = "100.10.10.10/32".parse().unwrap();
        let net: stellar_net::prefix::Prefix = "100.10.0.0/16".parse().unwrap();
        let t = Indexed::new(vec![
            rule(
                1,
                10,
                MatchSpec::proto_src_port_to(victim, IpProtocol::UDP, 123),
            ),
            rule(2, 20, MatchSpec::to_destination(net)),
            rule(
                3,
                5,
                MatchSpec {
                    protocol: Some(IpProtocol::TCP),
                    dst_port: Some(PortMatch::Range(0, 1023)),
                    ..Default::default()
                },
            ),
        ]);
        // NTP reflection at the victim: rule 1 outranks the /16 blanket.
        assert_eq!(
            t.classify(&key([100, 10, 10, 10], IpProtocol::UDP, 123, 9)),
            Some(1)
        );
        // Other UDP to the /16: only the blanket matches.
        assert_eq!(
            t.classify(&key([100, 10, 99, 1], IpProtocol::UDP, 53, 9)),
            Some(2)
        );
        // TCP to a low port anywhere: the range rule.
        assert_eq!(
            t.classify(&key([9, 9, 9, 9], IpProtocol::TCP, 5555, 80)),
            Some(3)
        );
        // TCP to a low port at the victim network: rank 5 beats rank 20.
        assert_eq!(
            t.classify(&key([100, 10, 10, 10], IpProtocol::TCP, 5555, 80)),
            Some(3)
        );
        // High TCP port off-net: nothing.
        assert_eq!(
            t.classify(&key([9, 9, 9, 9], IpProtocol::TCP, 5555, 8080)),
            None
        );
    }

    #[test]
    fn elementary_intervals_cover_boundaries() {
        let t = Indexed::new(vec![
            rule(
                1,
                0,
                MatchSpec {
                    src_port: Some(PortMatch::Range(100, 200)),
                    ..Default::default()
                },
            ),
            rule(
                2,
                1,
                MatchSpec {
                    src_port: Some(PortMatch::Range(150, 65535)),
                    ..Default::default()
                },
            ),
        ]);
        let k = |sp| key([1, 1, 1, 1], IpProtocol::UDP, sp, 1);
        assert_eq!(t.classify(&k(99)), None);
        assert_eq!(t.classify(&k(100)), Some(1));
        assert_eq!(t.classify(&k(150)), Some(1)); // overlap: rank wins
        assert_eq!(t.classify(&k(200)), Some(1));
        assert_eq!(t.classify(&k(201)), Some(2));
        assert_eq!(t.classify(&k(65535)), Some(2));
    }

    #[test]
    fn new_field_criteria_are_confirmed() {
        let t = Indexed::new(vec![
            rule(
                1,
                0,
                MatchSpec {
                    tcp_flags: Some(BitsMatch::all_of(0x02)),
                    ..Default::default()
                },
            ),
            rule(
                2,
                1,
                MatchSpec {
                    packet_len: Some(RangeMatch::new(1000, 1500)),
                    ..Default::default()
                },
            ),
        ]);
        let mut k = key([1, 1, 1, 1], IpProtocol::TCP, 1, 2);
        k.tcp_flags = 0x12; // SYN|ACK
        assert_eq!(t.classify(&k), Some(1));
        k.tcp_flags = 0x10; // ACK only
        assert_eq!(t.classify(&k), None);
        k.packet_len = 1200;
        assert_eq!(t.classify(&k), Some(2));
    }

    #[test]
    fn inverted_port_range_matches_nothing() {
        let t = Indexed::new(vec![rule(
            1,
            0,
            MatchSpec {
                src_port: Some(PortMatch::Range(200, 100)),
                ..Default::default()
            },
        )]);
        assert_eq!(
            t.classify(&key([1, 1, 1, 1], IpProtocol::UDP, 150, 1)),
            None
        );
    }
}
