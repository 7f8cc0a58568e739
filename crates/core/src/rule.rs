//! Blackholing rules: the manager-facing representation of one installed
//! filter (§3.2: "fine-grained filter rules are instantiated by the IXP
//! on behalf of a member who owns the IP address under attack").

use crate::signal::StellarSignal;
use stellar_bgp::types::Asn;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec};
use stellar_net::prefix::Prefix;

/// What to do with traffic matching a blackholing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleAction {
    /// Discard at the IXP (zero-length queue).
    Drop,
    /// Rate-limit to `rate_bps`, passing a telemetry sample through.
    Shape {
        /// Shaping rate in bits per second.
        rate_bps: u64,
    },
}

impl RuleAction {
    /// The dataplane action.
    pub fn to_dataplane(self) -> Action {
        match self {
            RuleAction::Drop => Action::Drop,
            RuleAction::Shape { rate_bps } => Action::Shape { rate_bps },
        }
    }
}

/// Where a rule's match came from — and therefore how it compiles.
///
/// The Stellar signaling grammar and BGP FlowSpec (RFC 8955) are two
/// front-ends onto the same filtering back-end: a signal names one of a
/// small set of victim-scoped patterns, while a lowered FlowSpec NLRI
/// carries an explicit match spec produced by
/// [`crate::flowspec::lower_flowspec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleMatcher {
    /// A Stellar extended-community signal (compiled against the victim
    /// prefix at spec time).
    Signal(StellarSignal),
    /// One member of a lowered FlowSpec rule's minimal match-spec set,
    /// with the action carried by the flow's extended communities.
    FlowSpec {
        /// The explicit match (already victim-scoped by lowering).
        spec: MatchSpec,
        /// The action from the traffic-rate community.
        action: RuleAction,
    },
}

/// A fully resolved blackholing rule, ready for compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackholingRule {
    /// Stable id assigned by the controller (FlowSpec-derived rules live
    /// in their own id space above
    /// [`crate::flowspec::FLOWSPEC_RULE_ID_BASE`]).
    pub id: u64,
    /// The member that owns the victim prefix (and thus the egress port
    /// the rule is installed on).
    pub owner: Asn,
    /// The victim prefix (typically a /32).
    pub victim: Prefix,
    /// What the rule matches and does.
    pub matcher: RuleMatcher,
}

impl BlackholingRule {
    /// A rule realizing a Stellar signal.
    pub fn from_signal(id: u64, owner: Asn, victim: Prefix, signal: StellarSignal) -> Self {
        BlackholingRule {
            id,
            owner,
            victim,
            matcher: RuleMatcher::Signal(signal),
        }
    }

    /// A rule realizing one spec of a lowered FlowSpec NLRI.
    pub fn from_flowspec(
        id: u64,
        owner: Asn,
        victim: Prefix,
        spec: MatchSpec,
        action: RuleAction,
    ) -> Self {
        BlackholingRule {
            id,
            owner,
            victim,
            matcher: RuleMatcher::FlowSpec { spec, action },
        }
    }

    /// The signal behind this rule, if it is signal-derived (the
    /// degradation ladder only applies to those).
    pub fn signal(&self) -> Option<StellarSignal> {
        match &self.matcher {
            RuleMatcher::Signal(s) => Some(*s),
            RuleMatcher::FlowSpec { .. } => None,
        }
    }

    /// What matching traffic gets.
    pub fn action(&self) -> RuleAction {
        match &self.matcher {
            RuleMatcher::Signal(s) => s.action,
            RuleMatcher::FlowSpec { action, .. } => *action,
        }
    }

    /// The dataplane match spec (victim-scoped).
    pub fn match_spec(&self) -> MatchSpec {
        match &self.matcher {
            RuleMatcher::Signal(s) => s.to_match_spec(self.victim),
            RuleMatcher::FlowSpec { spec, .. } => spec.clone(),
        }
    }

    /// Compiles to a dataplane filter rule. Blackholing rules evaluate
    /// before any default QoS policy (priority 100).
    pub fn to_filter_rule(&self) -> FilterRule {
        FilterRule::new(
            self.id,
            self.match_spec(),
            self.action().to_dataplane(),
            100,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_dataplane::filter::PortMatch;
    use stellar_net::proto::IpProtocol;

    #[test]
    fn compiles_to_victim_scoped_filter() {
        let rule = BlackholingRule::from_signal(
            7,
            Asn(64500),
            "100.10.10.10/32".parse().unwrap(),
            StellarSignal::drop_udp_src(123),
        );
        let f = rule.to_filter_rule();
        assert_eq!(f.id, 7);
        assert_eq!(f.action, Action::Drop);
        assert_eq!(f.priority, 100);
        assert_eq!(f.spec.dst_ip, Some("100.10.10.10/32".parse().unwrap()));
        assert_eq!((f.spec.mac_criteria(), f.spec.l34_criteria()), (0, 3));
        assert_eq!(rule.signal(), Some(StellarSignal::drop_udp_src(123)));
    }

    #[test]
    fn shape_action_carries_rate() {
        let rule = BlackholingRule::from_signal(
            1,
            Asn(64500),
            "100.10.10.10/32".parse().unwrap(),
            StellarSignal::shape_udp_src(123, 200),
        );
        assert_eq!(
            rule.to_filter_rule().action,
            Action::Shape {
                rate_bps: 200_000_000
            }
        );
    }

    #[test]
    fn flowspec_matcher_compiles_its_explicit_spec() {
        let victim: Prefix = "100.10.10.10/32".parse().unwrap();
        let spec = MatchSpec {
            dst_ip: Some(victim),
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Range(53, 123)),
            ..Default::default()
        };
        let rule = BlackholingRule::from_flowspec(
            1 << 32,
            Asn(64500),
            victim,
            spec.clone(),
            RuleAction::Drop,
        );
        assert_eq!(rule.match_spec(), spec);
        assert_eq!(rule.signal(), None);
        assert_eq!(rule.action(), RuleAction::Drop);
        assert_eq!((spec.mac_criteria(), spec.l34_criteria()), (0, 3));
        assert_eq!(rule.to_filter_rule().action, Action::Drop);
    }
}
