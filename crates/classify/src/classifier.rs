//! The flow classifier: one rule store, and a lookup path picked from
//! the table's size.
//!
//! [`FlowClassifier`] keeps its rules exactly once, in a `Vec` sorted by
//! `(priority, id)`. First-match semantics *are* a scan of that `Vec`:
//! the winning rule is the first one whose [`MatchSpec::matches`] accepts
//! the key. Tables of at most [`LINEAR_MAX`] rules — the paper's regime,
//! a handful of rules on each of very many member ports — are classified
//! by exactly that scan. Larger tables are classified through an
//! [`IntervalIndex`] over the same `Vec`, whose leaves hold positions
//! into it.
//!
//! The index is derived state. Every mutation drops it; only
//! [`prepare`](FlowClassifier::prepare) (the dataplane's `&mut` tick
//! entry) and [`compile`](FlowClassifier::compile) build it; a lookup
//! that finds none scans. Control-plane churn therefore never compiles
//! anything, and nothing but the table's length selects the path.

use crate::interval::IntervalIndex;
use crate::spec::MatchSpec;
use stellar_net::flow::FlowKey;

/// Stable rule identifier (assigned by the manager).
pub type RuleId = u64;

/// One rule as the classifier sees it: identity, evaluation priority, and
/// the match spec. Actions live with the caller (the classifier answers
/// "which rule", not "what to do").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleEntry {
    /// Stable rule identifier.
    pub id: RuleId,
    /// Lower value = evaluated earlier.
    pub priority: u16,
    /// Match specification.
    pub spec: MatchSpec,
}

impl RuleEntry {
    /// Creates an entry.
    pub fn new(id: RuleId, priority: u16, spec: MatchSpec) -> Self {
        RuleEntry { id, priority, spec }
    }

    /// Evaluation rank: lower wins, ties broken by id.
    fn rank(&self) -> (u16, RuleId) {
        (self.priority, self.id)
    }
}

/// The largest table classified by first-match scan; above it lookups go
/// through the [`IntervalIndex`].
///
/// Fixed from the `size_sweep` rows of `results/bench_classify.json`
/// (`cargo bench -p stellar-bench --bench classify`; 1000 keys, half of
/// them missing every rule — the scan's worst case). The scan costs
/// ~4–5 ns per rule, the index a flat 55–70 ns per key from 8 rules to
/// 10^4: at 8 rules the scan wins on both mixes (35 vs 68 ns/key
/// standard, 46 vs 60 range-heavy), at 16 the index already does (72 vs
/// 59, 80 vs 65), and by 256 — the production per-port cap — it is
/// 15–17x ahead. 8 is the largest swept size the scan wins at.
pub const LINEAR_MAX: usize = 8;

/// The classifier the dataplane holds per member port. See the module
/// docs for the design; the API is plain: [`insert`](Self::insert) /
/// [`remove`](Self::remove) rules incrementally (or
/// [`compile`](Self::compile) a whole set), then
/// [`classify`](Self::classify) keys.
#[derive(Debug, Default)]
pub struct FlowClassifier {
    /// The only rule store, ascending `(priority, id)`.
    rules: Vec<RuleEntry>,
    /// Derived from `rules`; `None` after any mutation.
    index: Option<IntervalIndex>,
}

impl FlowClassifier {
    /// An empty classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles a rule set in one go, index included. Later entries
    /// replace earlier ones with the same id, matching incremental
    /// [`insert`](Self::insert) semantics.
    pub fn compile(entries: impl IntoIterator<Item = RuleEntry>) -> Self {
        let mut rules: Vec<RuleEntry> = entries.into_iter().collect();
        // Reversed then stably sorted by id, each run of equal ids starts
        // with the last one given — the one `dedup_by_key` keeps.
        rules.reverse();
        rules.sort_by_key(|e| e.id);
        rules.dedup_by_key(|e| e.id);
        rules.sort_unstable_by_key(RuleEntry::rank);
        let mut classifier = FlowClassifier { rules, index: None };
        classifier.prepare();
        classifier
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The installed rules in evaluation order.
    pub fn rules(&self) -> &[RuleEntry] {
        &self.rules
    }

    /// Installs a rule, replacing any rule with the same id. Returns the
    /// position in evaluation order the rule now holds, so a caller
    /// keeping per-rule data alongside can keep it in the same order.
    pub fn insert(&mut self, entry: RuleEntry) -> usize {
        self.remove(entry.id);
        let rank = entry.rank();
        let pos = self.rules.partition_point(|e| e.rank() < rank);
        self.rules.insert(pos, entry);
        self.index = None;
        pos
    }

    /// Removes a rule by id. Returns the position in evaluation order it
    /// held, or `None` if it was not installed.
    pub fn remove(&mut self, id: RuleId) -> Option<usize> {
        let pos = self.rules.iter().position(|e| e.id == id)?;
        self.rules.remove(pos);
        self.index = None;
        Some(pos)
    }

    /// Removes every rule, returning the removed ids in evaluation order.
    pub fn clear(&mut self) -> Vec<RuleId> {
        self.index = None;
        self.rules.drain(..).map(|e| e.id).collect()
    }

    /// Builds the index if the table is large enough to want one and a
    /// mutation has dropped it. The tick path calls this once per tick
    /// through its `&mut` entry; it is a no-op in steady state.
    pub fn prepare(&mut self) {
        if self.index.is_none() && self.rules.len() > LINEAR_MAX {
            self.index = Some(IntervalIndex::build(&self.rules));
        }
    }

    /// Whether lookups currently go through the index.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The position in evaluation order of the first rule matching `key`.
    pub fn first_match(&self, key: &FlowKey) -> Option<usize> {
        match &self.index {
            Some(index) => index.first_match(&self.rules, key),
            None => self.rules.iter().position(|e| e.spec.matches(key)),
        }
    }

    /// The first matching rule id for a key (minimal `(priority, id)`
    /// among matching rules), if any.
    pub fn classify(&self, key: &FlowKey) -> Option<RuleId> {
        self.first_match(key).map(|pos| self.rules[pos].id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PortMatch;
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::mac::MacAddr;
    use stellar_net::ports;
    use stellar_net::proto::IpProtocol;

    fn key(dst: [u8; 4], proto: IpProtocol, src_port: u16) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::for_member(64500, 1),
            dst_mac: MacAddr::for_member(64501, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
            dst_ip: IpAddress::V4(Ipv4Address(dst)),
            protocol: proto,
            src_port,
            dst_port: 44444,
            ..FlowKey::default()
        }
    }

    fn ntp_entry(id: RuleId, priority: u16, dst: &str) -> RuleEntry {
        RuleEntry::new(
            id,
            priority,
            MatchSpec::proto_src_port_to(dst.parse().unwrap(), IpProtocol::UDP, ports::NTP),
        )
    }

    /// `n` NTP drops on distinct victims 100.10.x.y, ids 0..n.
    fn ntp_table(n: u64) -> Vec<RuleEntry> {
        (0..n)
            .map(|i| ntp_entry(i, 10, &format!("100.10.{}.{}/32", i / 256, i % 256)))
            .collect()
    }

    #[test]
    fn empty_classifier_matches_nothing() {
        let c = FlowClassifier::new();
        assert!(c.is_empty());
        assert_eq!(c.classify(&key([1, 2, 3, 4], IpProtocol::UDP, 123)), None);
    }

    #[test]
    fn first_match_rank_is_priority_then_id() {
        let mut c = FlowClassifier::new();
        c.insert(ntp_entry(9, 10, "100.10.10.10/32"));
        c.insert(RuleEntry::new(
            5,
            10,
            MatchSpec::to_destination("100.10.10.10/32".parse().unwrap()),
        ));
        let k = key([100, 10, 10, 10], IpProtocol::UDP, ports::NTP);
        // Tie on priority: lower id wins.
        assert_eq!(c.classify(&k), Some(5));
        // A strictly better priority beats both.
        c.insert(RuleEntry::new(
            20,
            1,
            MatchSpec::to_destination("100.10.10.0/24".parse().unwrap()),
        ));
        assert_eq!(c.classify(&k), Some(20));
        assert_eq!(c.first_match(&k), Some(0));
    }

    #[test]
    fn port_criteria_never_match_portless_protocols() {
        let c = FlowClassifier::compile([RuleEntry::new(
            2,
            10,
            MatchSpec {
                src_port: Some(PortMatch::Range(0, 65535)),
                ..Default::default()
            },
        )]);
        // The ICMP flow key carries src_port 0, inside the range.
        assert_eq!(c.classify(&key([1, 1, 1, 1], IpProtocol::ICMP, 0)), None);
        assert_eq!(c.classify(&key([1, 1, 1, 1], IpProtocol::UDP, 0)), Some(2));
    }

    #[test]
    fn match_all_and_family_mismatch() {
        let mut c = FlowClassifier::new();
        c.insert(RuleEntry::new(7, 50, MatchSpec::default()));
        c.insert(RuleEntry::new(
            8,
            10,
            MatchSpec::to_destination("2001:db8::1/128".parse().unwrap()),
        ));
        // The v6 rule cannot match a v4 flow; the match-all catches it.
        assert_eq!(c.classify(&key([9, 9, 9, 9], IpProtocol::TCP, 80)), Some(7));
        let mut v6key = key([0, 0, 0, 0], IpProtocol::UDP, 123);
        v6key.dst_ip = IpAddress::V6("2001:db8::1".parse().unwrap());
        assert_eq!(c.classify(&v6key), Some(8));
    }

    #[test]
    fn insert_replaces_and_remove_restores_earlier_match() {
        let mut c = FlowClassifier::new();
        c.insert(ntp_entry(1, 10, "100.10.10.10/32"));
        c.insert(RuleEntry::new(
            2,
            5,
            MatchSpec::to_destination("100.10.10.10/32".parse().unwrap()),
        ));
        let k = key([100, 10, 10, 10], IpProtocol::UDP, ports::NTP);
        assert_eq!(c.classify(&k), Some(2));
        // Replace rule 2 with a lower-ranked spec that no longer matches.
        let pos = c.insert(RuleEntry::new(
            2,
            20,
            MatchSpec::to_destination("100.99.99.99/32".parse().unwrap()),
        ));
        assert_eq!(pos, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.rules()[pos].priority, 20);
        assert_eq!(c.classify(&k), Some(1));
        assert_eq!(c.remove(1), Some(0));
        assert_eq!(c.remove(1), None);
        assert_eq!(c.classify(&k), None);
    }

    #[test]
    fn compile_keeps_the_last_entry_per_id() {
        let c = FlowClassifier::compile([
            ntp_entry(1, 10, "100.10.10.1/32"),
            ntp_entry(2, 10, "100.10.10.2/32"),
            ntp_entry(1, 3, "100.10.10.9/32"),
        ]);
        assert_eq!(c.len(), 2);
        let ids: Vec<RuleId> = c.rules().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(
            c.classify(&key([100, 10, 10, 9], IpProtocol::UDP, ports::NTP)),
            Some(1)
        );
        assert_eq!(
            c.classify(&key([100, 10, 10, 1], IpProtocol::UDP, ports::NTP)),
            None
        );
    }

    #[test]
    fn clear_returns_ids_in_evaluation_order() {
        let mut c = FlowClassifier::new();
        c.insert(ntp_entry(3, 20, "100.10.10.3/32"));
        c.insert(ntp_entry(1, 10, "100.10.10.1/32"));
        c.insert(ntp_entry(2, 10, "100.10.10.2/32"));
        assert_eq!(c.clear(), vec![1, 2, 3]);
        assert!(c.is_empty());
        assert_eq!(c.clear(), Vec::<RuleId>::new());
    }

    #[test]
    fn path_follows_table_size() {
        let small = FlowClassifier::compile(ntp_table(LINEAR_MAX as u64));
        assert!(!small.is_indexed());
        let large = FlowClassifier::compile(ntp_table(LINEAR_MAX as u64 + 1));
        assert!(large.is_indexed());
        // Both paths give the scan's answer.
        for c in [&small, &large] {
            let hit = key([100, 10, 0, 7], IpProtocol::UDP, ports::NTP);
            assert_eq!(c.classify(&hit), Some(7));
            assert_eq!(c.classify(&key([100, 10, 0, 7], IpProtocol::UDP, 53)), None);
        }
    }

    #[test]
    fn mutations_never_build_the_index() {
        const N: u64 = 128;
        let mut c = FlowClassifier::compile(ntp_table(N));
        assert!(c.is_indexed());
        let extra = key([100, 20, 0, 5], IpProtocol::UDP, ports::NTP);
        for i in 0..N {
            c.insert(ntp_entry(1000 + i, 10, &format!("100.20.0.{i}/32")));
            assert!(!c.is_indexed(), "insert {i} built the index");
        }
        // A `&self` lookup without an index scans, and is right.
        assert_eq!(c.classify(&extra), Some(1005));
        for i in 0..N {
            assert_eq!(c.remove(1000 + i), Some(N as usize));
            assert!(!c.is_indexed(), "remove {i} built the index");
        }
        assert_eq!(c.classify(&extra), None);
        // The tick entry rebuilds once; steady state keeps it.
        c.prepare();
        assert!(c.is_indexed());
        assert_eq!(
            c.classify(&key([100, 10, 0, 5], IpProtocol::UDP, ports::NTP)),
            Some(5)
        );
    }
}
