//! Attack-signature detection over delivered traffic — the monitor-side
//! piece of §6's "Combining Advanced Blackholing with other solutions":
//!
//! "Stellar together with deep packet inspection of attack traffic can be
//! used to, e.g., infer attack signatures or an attack start/end."
//!
//! The detector watches a member's delivered (or shaped-sample) traffic
//! aggregates and flags L4 signatures whose rate and share exceed
//! thresholds; each finding maps directly to a [`StellarSignal`], so a
//! monitoring pipeline (a scrubbing center receiving the 200 Mbps sample,
//! or the member's own NOC tooling) can close the loop automatically.

use crate::rule::RuleAction;
use crate::signal::{MatchKind, StellarSignal};
use std::collections::BTreeMap;
use stellar_net::flow::FlowKey;
use stellar_net::ports;
use stellar_net::proto::IpProtocol;

/// One detected attack signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The matched signature.
    pub signal: StellarSignal,
    /// Observed rate of the signature in bits/second.
    pub rate_bps: f64,
    /// Share of the member's total observed traffic.
    pub share: f64,
}

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Minimum rate before a signature is considered (bps).
    pub min_rate_bps: f64,
    /// Minimum share of total traffic before a signature is considered.
    pub min_share: f64,
    /// Only flag amplification-prone source ports (conservative default:
    /// true — arbitrary ports need human review before auto-dropping).
    pub amplification_ports_only: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            min_rate_bps: 50e6,
            min_share: 0.25,
            amplification_ports_only: true,
        }
    }
}

/// A sliding-window signature detector.
#[derive(Debug, Default)]
pub struct SignatureDetector {
    /// (proto, src_port) → bytes in the current window.
    window: BTreeMap<(IpProtocol, u16), u64>,
    total_bytes: u64,
    window_start_us: u64,
}

impl SignatureDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observed aggregate.
    pub fn observe(&mut self, key: &FlowKey, bytes: u64) {
        if key.protocol.has_ports() {
            *self.window.entry((key.protocol, key.src_port)).or_insert(0) += bytes;
        }
        self.total_bytes += bytes;
    }

    /// Closes the window at `now_us` and returns detections, sorted by
    /// rate (highest first; equal rates by protocol, then port). Resets
    /// the window.
    pub fn analyze(&mut self, now_us: u64, config: &DetectorConfig) -> Vec<Detection> {
        let dt_s = ((now_us.saturating_sub(self.window_start_us)) as f64 / 1e6).max(1e-9);
        let total = self.total_bytes.max(1) as f64;
        let mut out = Vec::new();
        for ((proto, src_port), bytes) in std::mem::take(&mut self.window) {
            let rate_bps = bytes as f64 * 8.0 / dt_s;
            let share = bytes as f64 / total;
            if rate_bps < config.min_rate_bps || share < config.min_share {
                continue;
            }
            if config.amplification_ports_only && !ports::is_amplification_prone(src_port) {
                continue;
            }
            let kind = match proto {
                IpProtocol::UDP => MatchKind::UdpSrcPort,
                IpProtocol::TCP => MatchKind::TcpSrcPort,
                _ => continue,
            };
            out.push(Detection {
                signal: StellarSignal {
                    kind,
                    port: src_port,
                    action: RuleAction::Drop,
                },
                rate_bps,
                share,
            });
        }
        self.total_bytes = 0;
        self.window_start_us = now_us;
        // Stable: equal rates keep the window's (protocol, port) order.
        out.sort_by(|a, b| b.rate_bps.total_cmp(&a.rate_bps));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::mac::MacAddr;

    fn key(src_port: u16, proto: IpProtocol) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::for_member(65000, 1),
            dst_mac: MacAddr::for_member(64500, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 1)),
            dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
            protocol: proto,
            src_port,
            dst_port: 40000,
            ..FlowKey::default()
        }
    }

    #[test]
    fn dominant_amplification_signature_is_detected() {
        let mut d = SignatureDetector::new();
        // One second: 900 Mbps NTP + 100 Mbps web.
        d.observe(&key(123, IpProtocol::UDP), 112_500_000);
        d.observe(&key(51000, IpProtocol::TCP), 12_500_000);
        let found = d.analyze(1_000_000, &DetectorConfig::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].signal, StellarSignal::drop_udp_src(123));
        assert!((found[0].rate_bps - 900e6).abs() / 900e6 < 0.01);
        assert!(found[0].share > 0.85);
    }

    #[test]
    fn low_rate_or_low_share_is_ignored() {
        let mut d = SignatureDetector::new();
        // 40 Mbps NTP against 1 Gbps web: below both thresholds.
        d.observe(&key(123, IpProtocol::UDP), 5_000_000);
        d.observe(&key(51000, IpProtocol::TCP), 125_000_000);
        assert!(d.analyze(1_000_000, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn non_amplification_ports_need_opt_in() {
        let mut d = SignatureDetector::new();
        d.observe(&key(4444, IpProtocol::UDP), 112_500_000);
        assert!(d.analyze(1_000_000, &DetectorConfig::default()).is_empty());
        let mut d = SignatureDetector::new();
        d.observe(&key(4444, IpProtocol::UDP), 112_500_000);
        let cfg = DetectorConfig {
            amplification_ports_only: false,
            ..Default::default()
        };
        let found = d.analyze(1_000_000, &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].signal.port, 4444);
    }

    #[test]
    fn window_resets_after_analyze() {
        let mut d = SignatureDetector::new();
        d.observe(&key(123, IpProtocol::UDP), 112_500_000);
        assert_eq!(d.analyze(1_000_000, &DetectorConfig::default()).len(), 1);
        // Fresh window: nothing observed yet.
        assert!(d.analyze(2_000_000, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn multiple_signatures_sorted_by_rate() {
        let mut d = SignatureDetector::new();
        d.observe(&key(123, IpProtocol::UDP), 60_000_000); // 480 Mbps
        d.observe(&key(11211, IpProtocol::UDP), 80_000_000); // 640 Mbps
        let cfg = DetectorConfig {
            min_share: 0.1,
            ..Default::default()
        };
        let found = d.analyze(1_000_000, &cfg);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].signal.port, 11211);
        assert_eq!(found[1].signal.port, 123);
    }

    #[test]
    fn equal_rates_come_out_by_protocol_then_port() {
        let cfg = DetectorConfig {
            min_share: 0.1,
            ..Default::default()
        };
        // Each detector is fresh, so a hash-ordered window would reseed
        // and shuffle the ties between runs.
        for _ in 0..64 {
            let mut d = SignatureDetector::new();
            for (port, proto) in [
                (123, IpProtocol::UDP),
                (53, IpProtocol::UDP),
                (53, IpProtocol::TCP),
            ] {
                d.observe(&key(port, proto), 50_000_000);
            }
            let found = d.analyze(1_000_000, &cfg);
            let order: Vec<_> = found
                .iter()
                .map(|f| (f.signal.kind, f.signal.port))
                .collect();
            assert_eq!(
                order,
                [
                    (MatchKind::TcpSrcPort, 53),
                    (MatchKind::UdpSrcPort, 53),
                    (MatchKind::UdpSrcPort, 123)
                ]
            );
        }
    }

    #[test]
    fn portless_protocols_never_form_signatures() {
        let mut d = SignatureDetector::new();
        d.observe(&key(0, IpProtocol::ICMP), 500_000_000);
        let cfg = DetectorConfig {
            amplification_ports_only: false,
            min_share: 0.0,
            ..Default::default()
        };
        assert!(d.analyze(1_000_000, &cfg).is_empty());
    }
}
