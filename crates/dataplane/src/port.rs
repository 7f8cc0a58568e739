//! A member port on the edge router.

use crate::counters::PortCounters;
use crate::qos::{Offer, QosPolicy, TickResult};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;

/// One IXP member port: the egress interface towards a member's router.
#[derive(Debug)]
pub struct MemberPort {
    /// Member AS number this port belongs to.
    pub member_asn: u32,
    /// The member router's MAC address on the peering LAN.
    pub mac: MacAddr,
    /// Port capacity in bits per second (e.g. 1G, 10G).
    pub capacity_bps: u64,
    /// The egress QoS policy (Stellar's filtering layer).
    pub policy: QosPolicy,
    /// Cumulative counters.
    pub counters: PortCounters,
}

impl MemberPort {
    /// Creates a port with an empty policy.
    pub fn new(member_asn: u32, mac: MacAddr, capacity_bps: u64) -> Self {
        MemberPort {
            member_asn,
            mac,
            capacity_bps,
            policy: QosPolicy::new(),
            counters: PortCounters::default(),
        }
    }

    /// Pushes one tick of traffic destined to this port through the
    /// policy and accumulates the counters. The tick runs in the policy's
    /// scratch buffers and lands in the recycled `result` (cleared
    /// first).
    pub fn process_tick_into(
        &mut self,
        offers: &[Offer],
        tick_end_us: u64,
        tick_us: u64,
        result: &mut TickResult,
    ) {
        self.policy
            .apply_tick_into(offers, tick_end_us, tick_us, self.capacity_bps, result);
        self.counters.absorb(&result.counters);
    }

    /// Classifies a single flow key (per-packet functional path).
    pub fn classify(&self, key: &FlowKey) -> Option<&crate::filter::FilterRule> {
        self.policy.classify(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Action, FilterRule, MatchSpec};
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::proto::IpProtocol;

    fn offer(bytes: u64) -> Offer {
        Offer {
            key: FlowKey {
                src_mac: MacAddr::for_member(1, 1),
                dst_mac: MacAddr::for_member(2, 1),
                src_ip: IpAddress::V4(Ipv4Address::new(1, 1, 1, 1)),
                dst_ip: IpAddress::V4(Ipv4Address::new(2, 2, 2, 2)),
                protocol: IpProtocol::UDP,
                src_port: 123,
                dst_port: 9,
                ..FlowKey::default()
            },
            bytes,
            packets: 1,
        }
    }

    #[test]
    fn counters_accumulate_across_ticks() {
        let mut p = MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000);
        let mut r = TickResult::default();
        for t in 1..=3u64 {
            p.process_tick_into(&[offer(1000)], t * 1_000_000, 1_000_000, &mut r);
        }
        assert_eq!(p.counters.forwarded_bytes, 3000);
    }

    #[test]
    fn installed_drop_rule_applies() {
        let mut p = MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000);
        p.policy.install(FilterRule::new(
            1,
            MatchSpec {
                protocol: Some(IpProtocol::UDP),
                ..Default::default()
            },
            Action::Drop,
            10,
        ));
        let mut r = TickResult::default();
        p.process_tick_into(&[offer(500)], 1_000_000, 1_000_000, &mut r);
        assert!(r.delivered.is_empty());
        assert_eq!(p.counters.dropped_bytes, 500);
        assert!(p.classify(&offer(1).key).is_some());
    }
}
