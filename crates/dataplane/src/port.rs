//! A member port on the edge router.

use crate::counters::PortCounters;
use crate::qos::{Offer, QosPolicy, TickResult, TickWork};
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
    /// policy and accumulates the counters. The tick runs in the caller's
    /// scratch buffers and lands in the recycled `result` (cleared
    /// first).
    pub fn process_tick_into(
        &mut self,
        offers: &[Offer],
        tick_end_us: u64,
        tick_us: u64,
        work: &mut TickWork,
        result: &mut TickResult,
    ) {
        let cap = self.capacity_bps;
        self.policy
            .apply_tick_into(offers, tick_end_us, tick_us, cap, work, result);
        self.counters.absorb(&result.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Action, FilterRule, MatchSpec};
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::flow::FlowKey;
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

    /// Every port of the fabric is a `MemberPort`, and at 10^5 ports
    /// nearly all are idle: each byte an idle port carries is 100 kB of
    /// resident memory. Rule state belongs behind the policy's box, tick
    /// scratch in the router's arena.
    #[test]
    fn an_idle_port_is_a_small_record() {
        assert!(std::mem::size_of::<MemberPort>() <= 128);
    }

    #[test]
    fn counters_accumulate_across_ticks() {
        let mut p = MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000);
        let (mut w, mut r) = (TickWork::default(), TickResult::default());
        for t in 1..=3u64 {
            p.process_tick_into(&[offer(1000)], t * 1_000_000, 1_000_000, &mut w, &mut r);
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
        let (mut w, mut r) = (TickWork::default(), TickResult::default());
        p.process_tick_into(&[offer(500)], 1_000_000, 1_000_000, &mut w, &mut r);
        assert!(r.delivered.is_empty());
        assert_eq!(p.counters.dropped_bytes, 500);
        assert!(p.policy.classify(&offer(1).key).is_some());
    }
}
