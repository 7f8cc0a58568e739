//! Per-port QoS policies (§4.5, Fig. 8): classification into the three
//! queues — drop, shape, forward — applied on the IXP **egress** towards
//! the member port.

use crate::counters::{PortCounters, RuleCounters};
use crate::filter::{Action, FilterRule};
use crate::queue;
use crate::shaper::TokenBucket;
use std::collections::HashMap;
use stellar_classify::FlowClassifier;
use stellar_net::flow::FlowKey;

/// One offered traffic aggregate within a tick.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// Flow key.
    pub key: FlowKey,
    /// Bytes offered this tick.
    pub bytes: u64,
    /// Packets offered this tick.
    pub packets: u64,
}

/// Result of pushing one tick of traffic through a port's policy.
#[derive(Debug, Default, PartialEq)]
pub struct TickResult {
    /// Traffic delivered to the member: `(key, bytes, packets)`.
    pub delivered: Vec<(FlowKey, u64, u64)>,
    /// Counter deltas for this tick.
    pub counters: PortCounters,
}

impl TickResult {
    /// Resets to the empty result, keeping the delivered buffer's
    /// capacity so a recycled result allocates nothing in steady state.
    pub fn clear(&mut self) {
        self.delivered.clear();
        self.counters = PortCounters::default();
    }
}

/// Reusable tick buffers: every vector a policy's tick needs, cleared
/// (never freed) between ticks. The caller owns them — an edge router
/// keeps them in its tick arena, not in its ports — so a steady-state
/// [`apply_tick_into`](QosPolicy::apply_tick_into) makes no heap
/// allocations.
#[derive(Debug, Default)]
pub struct TickWork {
    /// `(shape rule id, offer index)` tags; sorted to form the shaping
    /// groups deterministically without a per-tick hash map.
    shape_tags: Vec<(u64, u32)>,
    /// Aggregates headed for the forwarding queue.
    to_forward: Vec<(FlowKey, u64, u64)>,
    /// Byte columns handed to the proportional drain.
    byte_offers: Vec<u64>,
    /// Per-offer `(forwarded, dropped)` splits from the drain.
    drained: Vec<(u64, u64)>,
    /// Sort scratch for the drain's remainder distribution.
    order: Vec<usize>,
}

/// The QoS policy of one member port: a generation, the rule and shaper
/// counts, and a boxed state, which exists only while the policy holds a
/// rule or a rule counter — so an idle port's policy is 24 bytes, and a
/// walk over ports that reads only the counts never follows the box.
///
/// The state keeps the installed rules (with their actions) in the
/// [`FlowClassifier`]'s evaluation order, so the position a lookup
/// returns indexes them directly; [`install`](Self::install) and
/// [`remove`](Self::remove) keep the two aligned. Lookups are
/// behavior-identical to a first-match scan of [`rules`](Self::rules).
///
/// The state is private, so those mutators are the only way the table
/// changes and each one that changes it bumps
/// [`generation`](Self::generation), which lives outside the box and
/// only grows: two reads of one policy object that see the same
/// generation saw the same rule table.
#[derive(Debug, Default)]
pub struct QosPolicy {
    /// Rule-table edits so far (see the type docs).
    generation: u64,
    /// The state's `(rules, shapers)` lengths, refreshed by every mutator.
    counts: (u32, u32),
    state: Option<Box<PolicyState>>,
}

/// A policy's rules and what they own. Every installed rule has a
/// counter, so a state without counters holds nothing and is dropped.
#[derive(Debug, Default)]
struct PolicyState {
    rules: Vec<FilterRule>,
    classifier: FlowClassifier,
    shapers: HashMap<u64, TokenBucket>,
    rule_counters: HashMap<u64, RuleCounters>,
}

/// Default burst allowance for shaping queues: one second at the shaping
/// rate, so ticks up to 1 s see the full configured rate (the bucket
/// starts empty, so this is a smoothing window, not a free burst).
fn shaper_burst(rate_bps: u64) -> u64 {
    (rate_bps / 8).max(1500)
}

impl QosPolicy {
    /// An empty (forward-everything) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a rule, replacing any rule with the same id (whose
    /// counters the replacement keeps).
    pub fn install(&mut self, rule: FilterRule) {
        let state = self.state.get_or_insert_with(Box::default);
        if let Some(pos) = state.classifier.remove(rule.id) {
            state.rules.remove(pos);
        }
        state.shapers.remove(&rule.id);
        if let Action::Shape { rate_bps } = rule.action {
            let bucket = TokenBucket::new(rate_bps, shaper_burst(rate_bps));
            state.shapers.insert(rule.id, bucket);
        }
        state.rule_counters.entry(rule.id).or_default();
        let pos = state.classifier.insert(rule.entry());
        state.rules.insert(pos, rule);
        self.generation += 1;
        self.sync_counts();
    }

    /// Removes a rule by id, and its counters with it. Returns true if
    /// it was installed.
    pub fn remove(&mut self, rule_id: u64) -> bool {
        let Some(state) = self.state.as_deref_mut() else {
            return false;
        };
        state.shapers.remove(&rule_id);
        state.rule_counters.remove(&rule_id);
        let pos = state.classifier.remove(rule_id);
        if let Some(pos) = pos {
            state.rules.remove(pos);
            self.generation += 1;
        }
        if state.rule_counters.is_empty() {
            self.state = None;
        }
        self.sync_counts();
        pos.is_some()
    }

    /// Removes every rule, returning the removed ids in evaluation order
    /// (fallback-to-forwarding resilience, §4.1.2). The counters stay:
    /// a flushed port whose rules are re-added keeps their telemetry.
    pub fn clear(&mut self) -> Vec<u64> {
        let Some(state) = self.state.as_deref_mut() else {
            return Vec::new();
        };
        let ids = state.classifier.clear();
        state.rules.clear();
        state.shapers.clear();
        if !ids.is_empty() {
            self.generation += 1;
        }
        self.counts = (0, 0);
        ids
    }

    /// Cold-restart reset: like [`clear`](Self::clear), but the
    /// per-rule telemetry counters are lost too — everything a power
    /// cycle wipes. Returns how many rules were installed.
    pub fn reset(&mut self) -> usize {
        let n = self.clear().len();
        self.state = None;
        n
    }

    fn sync_counts(&mut self) {
        let lens = |s: &PolicyState| (s.rules.len() as u32, s.shapers.len() as u32);
        self.counts = self.state.as_deref().map_or((0, 0), lens);
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.counts.0 as usize
    }

    /// How many times the rule table has been edited (`install`,
    /// `remove`, `clear` and `reset` bump it when they change a rule).
    /// The watchdog keys its per-port proof verdicts on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of active shaping queues (one token bucket per shape rule).
    pub fn shaper_count(&self) -> usize {
        self.counts.1 as usize
    }

    /// Whether a rule with this id is installed.
    pub fn contains(&self, rule_id: u64) -> bool {
        self.rule(rule_id).is_some()
    }

    /// The installed rule with this id, if any (reconciliation reads
    /// this to compare actual hardware state against desired state).
    pub fn rule(&self, rule_id: u64) -> Option<&FilterRule> {
        self.rules().iter().find(|r| r.id == rule_id)
    }

    /// The installed rules in evaluation order.
    pub fn rules(&self) -> &[FilterRule] {
        self.state.as_ref().map_or(&[], |s| &s.rules)
    }

    /// Telemetry counters for a rule.
    pub fn rule_counters(&self, rule_id: u64) -> Option<&RuleCounters> {
        self.state.as_ref()?.rule_counters.get(&rule_id)
    }

    /// First matching rule for a key, if any. Served by the classifier;
    /// identical to `rules().iter().find(|r| r.spec.matches(key))`.
    pub fn classify(&self, key: &FlowKey) -> Option<&FilterRule> {
        let s = self.state.as_ref()?;
        s.classifier.first_match(key).map(|pos| &s.rules[pos])
    }

    /// Pushes one tick of offered aggregates through the policy — the
    /// one tick path. `tick_end_us` clocks the shapers; `tick_us` is the
    /// tick duration; `capacity_bps` is the member port capacity.
    /// Classification, grouping, and queue arithmetic all run in the
    /// caller's reusable `work` buffers and the outcome lands in the
    /// caller-recycled `result` (cleared first). Steady state makes
    /// zero heap allocations per tick.
    ///
    /// This is the `&mut` tick entry that (re)builds the classifier's
    /// index after a mutation dropped it. Phase 1 classifies every offer
    /// and dispatches it into drop / shape / forward (a policy without
    /// state forwards all). Offers matching
    /// the same shaping rule are grouped so the shaped rate is shared
    /// proportionally across flows within the tick — a real shaping
    /// queue lets every contending flow keep a share, which is why "the
    /// number of peers remains constant" while shaping (§5.3). Groups
    /// are formed by sorting `(rule id, offer index)` tags, so they come
    /// out in ascending rule id with offers in arrival order — exactly
    /// the order the old hash-map grouping produced after its own sort.
    /// Phase 2 pushes the forwarding queue at port capacity.
    pub fn apply_tick_into(
        &mut self,
        offers: &[Offer],
        tick_end_us: u64,
        tick_us: u64,
        capacity_bps: u64,
        work: &mut TickWork,
        result: &mut TickResult,
    ) {
        result.clear();
        work.to_forward.clear();
        match self.state.as_deref_mut() {
            Some(state) => state.filter(offers, tick_end_us, work, result),
            None => work
                .to_forward
                .extend(offers.iter().map(|o| (o.key, o.bytes, o.packets))),
        }
        // Phase 2: the forwarding queue at port capacity.
        let TickWork {
            to_forward,
            byte_offers,
            drained,
            order,
            ..
        } = work;
        let budget = queue::capacity_bytes(capacity_bps, tick_us);
        byte_offers.clear();
        byte_offers.extend(to_forward.iter().map(|(_, b, _)| *b));
        queue::drain_proportional_into(byte_offers, budget, drained, order);
        for (&(key, bytes, packets), &(fwd, dropped)) in to_forward.iter().zip(drained.iter()) {
            if fwd > 0 {
                let pkts = (packets * fwd).checked_div(bytes).map_or(0, |p| p.max(1));
                result.counters.forwarded_bytes += fwd;
                result.counters.forwarded_packets += pkts;
                result.delivered.push((key, fwd, pkts));
            }
            result.counters.congestion_dropped_bytes += dropped;
        }
    }
}

impl PolicyState {
    /// Phase 1 of [`QosPolicy::apply_tick_into`]: drops and shapes in
    /// place, leaving what goes on in `work.to_forward`.
    fn filter(
        &mut self,
        offers: &[Offer],
        tick_end_us: u64,
        work: &mut TickWork,
        result: &mut TickResult,
    ) {
        let TickWork {
            shape_tags,
            to_forward,
            byte_offers,
            drained,
            order,
        } = work;
        self.classifier.prepare();
        shape_tags.clear();
        for (i, offer) in offers.iter().enumerate() {
            let rule = self.classifier.first_match(&offer.key);
            let rule = rule.map(|pos| &self.rules[pos]);
            match rule.map(|r| (r.id, r.action)) {
                Some((id, Action::Drop)) => {
                    result.counters.dropped_bytes += offer.bytes;
                    result.counters.dropped_packets += offer.packets;
                    let rc = self.rule_counters.entry(id).or_default();
                    rc.matched_bytes += offer.bytes;
                    rc.matched_packets += offer.packets;
                    rc.discarded_bytes += offer.bytes;
                }
                Some((id, Action::Shape { .. })) => shape_tags.push((id, i as u32)),
                Some((id, Action::Forward)) => {
                    let rc = self.rule_counters.entry(id).or_default();
                    rc.matched_bytes += offer.bytes;
                    rc.matched_packets += offer.packets;
                    rc.passed_bytes += offer.bytes;
                    to_forward.push((offer.key, offer.bytes, offer.packets));
                }
                None => to_forward.push((offer.key, offer.bytes, offer.packets)),
            }
        }
        // Ascending (rule id, offer index): deterministic groups, no
        // per-tick hash map.
        shape_tags.sort_unstable();
        let mut g = 0;
        while g < shape_tags.len() {
            let id = shape_tags[g].0;
            let end = g + shape_tags[g..].iter().take_while(|t| t.0 == id).count();
            let group = &shape_tags[g..end];
            let total: u64 = group.iter().map(|&(_, i)| offers[i as usize].bytes).sum();
            let shaper = self.shapers.get_mut(&id).expect("shaper exists for rule");
            let admitted_total = shaper.admit(total, tick_end_us);
            byte_offers.clear();
            byte_offers.extend(group.iter().map(|&(_, i)| offers[i as usize].bytes));
            queue::drain_proportional_into(byte_offers, admitted_total, drained, order);
            let rc = self.rule_counters.entry(id).or_default();
            rc.matched_bytes += total;
            rc.matched_packets += group
                .iter()
                .map(|&(_, i)| offers[i as usize].packets)
                .sum::<u64>();
            rc.discarded_bytes += total - admitted_total;
            rc.passed_bytes += admitted_total;
            result.counters.shaped_bytes += admitted_total;
            result.counters.shape_dropped_bytes += total - admitted_total;
            for (&(_, i), &(fwd, _dropped)) in group.iter().zip(drained.iter()) {
                if fwd > 0 {
                    let o = &offers[i as usize];
                    let pkts = (o.packets * fwd)
                        .checked_div(o.bytes)
                        .map_or(0, |p| p.max(1));
                    to_forward.push((o.key, fwd, pkts));
                }
            }
            g = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{MatchSpec, PortMatch};
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::mac::MacAddr;
    use stellar_net::ports;
    use stellar_net::proto::IpProtocol;

    fn key(src_port: u16) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::for_member(64500, 1),
            dst_mac: MacAddr::for_member(64501, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
            dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
            protocol: IpProtocol::UDP,
            src_port,
            dst_port: 443,
            ..FlowKey::default()
        }
    }

    /// One tick into a fresh result.
    fn tick(
        p: &mut QosPolicy,
        offers: &[Offer],
        tick_end_us: u64,
        tick_us: u64,
        capacity_bps: u64,
    ) -> TickResult {
        let (mut work, mut result) = (TickWork::default(), TickResult::default());
        p.apply_tick_into(
            offers,
            tick_end_us,
            tick_us,
            capacity_bps,
            &mut work,
            &mut result,
        );
        result
    }

    fn ntp_drop_rule(id: u64) -> FilterRule {
        FilterRule::new(
            id,
            MatchSpec::proto_src_port_to(
                "100.10.10.10/32".parse().unwrap(),
                IpProtocol::UDP,
                ports::NTP,
            ),
            Action::Drop,
            10,
        )
    }

    #[test]
    fn empty_policy_forwards_up_to_capacity() {
        let mut p = QosPolicy::new();
        let offers = [Offer {
            key: key(443),
            bytes: 1000,
            packets: 2,
        }];
        let r = tick(&mut p, &offers, 1_000_000, 1_000_000, 1_000_000_000);
        assert_eq!(r.delivered.len(), 1);
        assert_eq!(r.counters.forwarded_bytes, 1000);
        assert_eq!(r.counters.total_discarded_bytes(), 0);
    }

    #[test]
    fn drop_rule_removes_matching_traffic_only() {
        let mut p = QosPolicy::new();
        p.install(ntp_drop_rule(1));
        let offers = [
            Offer {
                key: key(ports::NTP),
                bytes: 10_000,
                packets: 10,
            },
            Offer {
                key: key(ports::HTTPS),
                bytes: 5_000,
                packets: 5,
            },
        ];
        let r = tick(&mut p, &offers, 1_000_000, 1_000_000, 1_000_000_000);
        assert_eq!(r.counters.dropped_bytes, 10_000);
        assert_eq!(r.counters.forwarded_bytes, 5_000);
        assert_eq!(r.delivered.len(), 1);
        assert_eq!(r.delivered[0].0.src_port, ports::HTTPS);
        let rc = p.rule_counters(1).unwrap();
        assert_eq!(rc.matched_bytes, 10_000);
        assert_eq!(rc.discard_ratio(), 1.0);
    }

    #[test]
    fn shape_rule_limits_matching_traffic() {
        let mut p = QosPolicy::new();
        p.install(FilterRule::new(
            2,
            MatchSpec::proto_src_port_to(
                "100.10.10.10/32".parse().unwrap(),
                IpProtocol::UDP,
                ports::NTP,
            ),
            Action::Shape {
                rate_bps: 200_000_000,
            },
            10,
        ));
        // Offer 1 Gbps of NTP for 5 seconds in 100 ms ticks.
        let mut shaped_total = 0u64;
        for t in 1..=50u64 {
            let offers = [Offer {
                key: key(ports::NTP),
                bytes: 12_500_000,
                packets: 8900,
            }];
            let r = tick(&mut p, &offers, t * 100_000, 100_000, 10_000_000_000);
            shaped_total += r.counters.shaped_bytes;
        }
        let rate = shaped_total as f64 * 8.0 / 5.0;
        assert!((rate - 200e6).abs() / 200e6 < 0.1, "rate {rate}");
        let rc = p.rule_counters(2).unwrap();
        assert!(rc.discard_ratio() > 0.7);
        assert!(rc.passed_bytes > 0);
    }

    #[test]
    fn congestion_drops_when_port_overloaded() {
        let mut p = QosPolicy::new();
        // 10 Gbps offered into a 1 Gbps port for one 1 s tick.
        let offers = [Offer {
            key: key(ports::HTTPS),
            bytes: 1_250_000_000,
            packets: 1_000_000,
        }];
        let r = tick(&mut p, &offers, 1_000_000, 1_000_000, 1_000_000_000);
        assert_eq!(r.counters.forwarded_bytes, 125_000_000);
        assert_eq!(r.counters.congestion_dropped_bytes, 1_125_000_000);
    }

    #[test]
    fn priority_orders_rule_evaluation() {
        let mut p = QosPolicy::new();
        // A forward rule at higher priority shields NTP from the drop rule.
        p.install(ntp_drop_rule(1));
        p.install(FilterRule::new(
            2,
            MatchSpec::proto_src_port_to(
                "100.10.10.10/32".parse().unwrap(),
                IpProtocol::UDP,
                ports::NTP,
            ),
            Action::Forward,
            5,
        ));
        let got = p.classify(&key(ports::NTP)).unwrap();
        assert_eq!(got.id, 2);
        let offers = [Offer {
            key: key(ports::NTP),
            bytes: 100,
            packets: 1,
        }];
        let r = tick(&mut p, &offers, 1, 1_000_000, 1_000_000_000);
        assert_eq!(r.counters.forwarded_bytes, 100);
        assert_eq!(r.counters.dropped_bytes, 0);
    }

    #[test]
    fn install_replaces_same_id_and_remove_works() {
        let mut p = QosPolicy::new();
        p.install(ntp_drop_rule(7));
        p.install(FilterRule::new(
            7,
            MatchSpec::to_destination("100.10.10.10/32".parse().unwrap()),
            Action::Forward,
            1,
        ));
        assert_eq!(p.rule_count(), 1);
        assert!(p.remove(7));
        assert!(!p.remove(7));
        assert_eq!(p.rule_count(), 0);
    }

    #[test]
    fn generation_moves_with_every_table_edit_and_only_then() {
        let mut p = QosPolicy::new();
        assert_eq!(p.generation(), 0);
        let mut last = 0;
        let mut moved = |p: &QosPolicy| {
            let moved = p.generation() > last;
            last = p.generation();
            moved
        };
        p.install(ntp_drop_rule(1));
        assert!(moved(&p));
        // A same-id replacement edits the table too.
        p.install(ntp_drop_rule(1));
        assert!(moved(&p));
        assert!(!p.remove(2));
        assert!(!moved(&p));
        assert!(p.remove(1));
        assert!(moved(&p));
        // Nothing left to clear or reset: the table did not change.
        assert!(p.clear().is_empty());
        assert_eq!(p.reset(), 0);
        assert!(!moved(&p));
        p.install(ntp_drop_rule(3));
        assert!(moved(&p));
        assert_eq!(p.clear(), vec![3]);
        assert!(moved(&p));
        p.install(ntp_drop_rule(4));
        assert!(moved(&p));
        assert_eq!(p.reset(), 1);
        assert!(moved(&p));
        // Ticks read the table, they never edit it.
        tick(&mut p, &[], 1, 1_000_000, 1_000_000_000);
        assert!(!moved(&p));
    }

    /// Counter entries held by the policy (all of them, not only the
    /// installed rules').
    fn counter_entries(p: &QosPolicy) -> usize {
        p.state.as_ref().map_or(0, |s| s.rule_counters.len())
    }

    #[test]
    fn removed_rules_leave_no_counters_behind() {
        let mut p = QosPolicy::new();
        p.install(ntp_drop_rule(1));
        for id in 2..1_002 {
            p.install(ntp_drop_rule(id));
            assert!(p.remove(id));
        }
        assert_eq!(counter_entries(&p), 1);
        assert!(p.rule_counters(1).is_some());
        assert!(p.rule_counters(1_001).is_none());
        // A same-id replacement and a flush keep the rule's telemetry;
        // the flushed rule comes back to its old counters.
        let offers = [Offer {
            key: key(ports::NTP),
            bytes: 700,
            packets: 1,
        }];
        tick(&mut p, &offers, 1, 1_000_000, 1_000_000_000);
        p.install(ntp_drop_rule(1));
        assert_eq!(p.clear(), vec![1]);
        p.install(ntp_drop_rule(1));
        assert_eq!(p.rule_counters(1).map(|c| c.matched_bytes), Some(700));
        // Losing the last rule and its counters drops the whole state.
        assert!(p.remove(1));
        assert!(p.state.is_none());
    }

    #[test]
    fn the_kept_counts_follow_every_mutator() {
        let mut p = QosPolicy::new();
        let shape = |id| {
            let spec = MatchSpec::to_destination("100.10.10.10/32".parse().unwrap());
            FilterRule::new(id, spec, Action::Shape { rate_bps: 1_000 }, 5)
        };
        let check = |p: &QosPolicy| {
            let lens = p.state.as_deref().map(|s| (s.rules.len(), s.shapers.len()));
            assert_eq!((p.rule_count(), p.shaper_count()), lens.unwrap_or((0, 0)));
        };
        p.install(ntp_drop_rule(1));
        check(&p);
        p.install(shape(2));
        p.install(shape(3));
        check(&p);
        // A shape rule replaced by a drop rule loses its shaper.
        p.install(ntp_drop_rule(3));
        assert_eq!((p.rule_count(), p.shaper_count()), (3, 1));
        check(&p);
        assert!(p.remove(2));
        check(&p);
        assert_eq!(p.clear().len(), 2);
        check(&p);
        p.install(shape(4));
        check(&p);
        assert_eq!(p.reset(), 1);
        check(&p);
    }

    #[test]
    fn a_policy_without_state_is_empty() {
        let mut p = QosPolicy::new();
        p.install(ntp_drop_rule(1));
        assert!(p.remove(1));
        assert!(p.state.is_none());
        assert_eq!(p.rules(), &[]);
        assert_eq!((p.rule_count(), p.shaper_count()), (0, 0));
        assert!(p.classify(&key(ports::NTP)).is_none());
        assert!(p.rule_counters(1).is_none());
        assert!(!p.remove(1));
        assert!(p.clear().is_empty());
        assert_eq!(p.reset(), 0);
        // The generation lives outside the state: it never goes back.
        assert_eq!(p.generation(), 2);
    }

    #[test]
    fn shaped_and_forwarded_share_port_capacity() {
        let mut p = QosPolicy::new();
        p.install(FilterRule::new(
            3,
            MatchSpec {
                src_port: Some(PortMatch::Exact(ports::NTP)),
                protocol: Some(IpProtocol::UDP),
                ..Default::default()
            },
            Action::Shape {
                rate_bps: 800_000_000,
            },
            10,
        ));
        // 1 Gbps NTP (shaped to 800 Mbps) + 600 Mbps web into a 1 Gbps
        // port: forwarding queue must congest.
        let offers = [
            Offer {
                key: key(ports::NTP),
                bytes: 125_000_000,
                packets: 10_000,
            },
            Offer {
                key: key(ports::HTTPS),
                bytes: 75_000_000,
                packets: 7_000,
            },
        ];
        let r = tick(&mut p, &offers, 1_000_000, 1_000_000, 1_000_000_000);
        assert!(r.counters.congestion_dropped_bytes > 0);
        let total_delivered: u64 = r.delivered.iter().map(|(_, b, _)| b).sum();
        assert!(total_delivered <= 125_000_000);
    }
}
