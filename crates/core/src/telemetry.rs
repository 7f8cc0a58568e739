//! Member-facing telemetry (§3.1): "a well-designed DDoS mitigation
//! system should enable the network under attack to still receive
//! telemetry information about the status of the attack", both via the
//! shaped traffic sample and via statistics about discarded traffic.

use crate::qos_manager::QosNetworkManager;
use stellar_sim::fabric::Fabric;

/// Telemetry for one installed blackholing rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleTelemetry {
    /// The rule id.
    pub rule_id: u64,
    /// Bytes that matched the rule so far.
    pub matched_bytes: u64,
    /// Bytes discarded.
    pub discarded_bytes: u64,
    /// Bytes passed through (the shaped sample).
    pub passed_bytes: u64,
}

impl RuleTelemetry {
    /// The attack-activity heuristic a victim uses to decide whether the
    /// attack is over: traffic is still matching the rule.
    pub fn attack_active(&self, prev_matched_bytes: u64) -> bool {
        self.matched_bytes > prev_matched_bytes
    }
}

/// Reads telemetry for a set of rule ids owned by one member.
pub fn rule_telemetry(
    fabric: &Fabric,
    manager: &QosNetworkManager,
    rule_ids: &[u64],
) -> Vec<RuleTelemetry> {
    let mut out = Vec::new();
    for &rule_id in rule_ids {
        let Some(port) = manager.port_of_rule(rule_id) else {
            continue;
        };
        let Some(port_ref) = fabric.port(port) else {
            continue;
        };
        if let Some(c) = port_ref.policy.rule_counters(rule_id) {
            out.push(RuleTelemetry {
                rule_id,
                matched_bytes: c.matched_bytes,
                discarded_bytes: c.discarded_bytes,
                passed_bytes: c.passed_bytes,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::AbstractChange;
    use crate::manager::NetworkManager;
    use crate::rule::BlackholingRule;
    use crate::signal::StellarSignal;
    use stellar_bgp::types::Asn;
    use stellar_dataplane::hardware::HardwareInfoBase;
    use stellar_dataplane::port::MemberPort;
    use stellar_dataplane::switch::{OfferedAggregate, PortId};
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::flow::FlowKey;
    use stellar_net::mac::MacAddr;
    use stellar_net::proto::IpProtocol;

    #[test]
    fn telemetry_reflects_shaped_sample_and_discards() {
        let mut fabric = Fabric::single(HardwareInfoBase::lab_switch());
        fabric.add_port(
            stellar_sim::fabric::PopId(0),
            PortId(1),
            MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000),
        );
        let mut mgr = QosNetworkManager::default();
        mgr.register_owner(Asn(64500), PortId(1));
        mgr.apply(
            &mut fabric,
            &AbstractChange::AddRule(BlackholingRule::from_signal(
                1,
                Asn(64500),
                "100.10.10.10/32".parse().unwrap(),
                StellarSignal::shape_udp_src(123, 200),
            )),
            0,
        )
        .unwrap();

        let offer = OfferedAggregate {
            key: FlowKey {
                src_mac: MacAddr::for_member(65000, 1),
                dst_mac: MacAddr::for_member(64500, 1),
                src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 1)),
                dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
                protocol: IpProtocol::UDP,
                src_port: 123,
                dst_port: 40000,
                ..FlowKey::default()
            },
            bytes: 125_000_000, // 1 Gbps over 1 s
            packets: 100_000,
        };
        fabric.process_tick_in_place(&[offer], 1_000_000, 1_000_000);

        let t = rule_telemetry(&fabric, &mgr, &[1]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].matched_bytes, 125_000_000);
        // Shaped to 200 Mbps: ~25 MB passed, rest discarded.
        assert!(t[0].passed_bytes > 20_000_000 && t[0].passed_bytes < 30_000_000);
        assert_eq!(t[0].matched_bytes, t[0].passed_bytes + t[0].discarded_bytes);
        assert!(t[0].attack_active(0));
        assert!(!t[0].attack_active(t[0].matched_bytes));
    }

    #[test]
    fn unknown_rules_yield_no_telemetry() {
        let fabric = Fabric::single(HardwareInfoBase::lab_switch());
        let mgr = QosNetworkManager::default();
        assert!(rule_telemetry(&fabric, &mgr, &[1, 2, 3]).is_empty());
    }
}
