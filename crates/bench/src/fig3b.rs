//! Figure 3(b): usage of policy control for RTBH at L-IXP — the share of
//! blackholing announcements by export scope (§2.4).
//!
//! The experiment generates blackholing announcements whose route-server
//! action communities follow the operational distribution the paper
//! measured, then *measures* the scopes back by parsing the communities
//! with the route server's classifier — exercising the real code path an
//! operator's analysis pipeline would use.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use stellar_bgp::community::Community;
use stellar_bgp::types::Asn;
use stellar_routeserver::control::ExportScope;

/// The scope distribution the paper reports (Fig. 3b): label → share of
/// announcements.
pub const PAPER_DISTRIBUTION: [(&str, f64); 7] = [
    ("All", 0.9397),
    ("All-1", 0.0528),
    ("All-4", 0.0013),
    ("All-5", 0.0049),
    ("All-18", 0.0003),
    ("20", 0.0006),
    ("21", 0.0003),
];

/// Builds the community set for a given scope label.
fn communities_for(label: &str, ixp: Asn, rng: &mut SmallRng) -> Vec<Community> {
    let ixp16 = ixp.0 as u16;
    let mut cs = vec![Community::new(ixp16, 666)]; // the blackhole tag
    let random_peer = |rng: &mut SmallRng| 64500 + rng.random_range(0..800) as u16;
    match label {
        "All" => {}
        l if l.starts_with("All-") => {
            let k: usize = l[4..].parse().expect("numeric suffix");
            let mut seen = std::collections::BTreeSet::new();
            while seen.len() < k {
                seen.insert(random_peer(rng));
            }
            for p in seen {
                cs.push(Community::new(0, p));
            }
        }
        l => {
            // Explicit whitelist of k peers.
            let k: usize = l.parse().expect("numeric label");
            cs.push(Community::new(0, ixp16));
            let mut seen = std::collections::BTreeSet::new();
            while seen.len() < k {
                seen.insert(random_peer(rng));
            }
            for p in seen {
                cs.push(Community::new(ixp16, p));
            }
        }
    }
    cs
}

/// Generates `n` announcements following the paper's distribution and
/// classifies them back. Returns label → measured share.
pub fn run(n: usize, seed: u64) -> BTreeMap<String, f64> {
    let ixp = Asn(6695);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for _ in 0..n {
        let roll: f64 = rng.random();
        let mut acc = 0.0;
        let mut label = "All";
        for (l, share) in PAPER_DISTRIBUTION {
            acc += share;
            if roll < acc {
                label = l;
                break;
            }
        }
        let cs = communities_for(label, ixp, &mut rng);
        let scope = ExportScope::parse(&cs, ixp).classify();
        // Sanity: every generated set must classify back to its label.
        debug_assert_eq!(scope.label(), label, "classifier disagrees");
        *counts.entry(scope.label()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(l, c)| (l, c as f64 / n as f64))
        .collect()
}

/// The share of members that do not honor the signal, for the summary
/// line the paper pairs with this figure ("almost 70 % of these IXP
/// members do not honor the blackholing community").
pub fn non_honoring_share(n_members: usize, seed: u64) -> f64 {
    let model = stellar_sim::honoring::HonoringModel::new(0.30, seed);
    let ignoring = (0..n_members)
        .filter(|i| !model.honors(Asn(64500 + *i as u32)))
        .count();
    ignoring as f64 / n_members as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_routeserver::control::PolicyScope;

    #[test]
    fn measured_shares_match_generated_distribution() {
        let shares = run(100_000, 11);
        for (label, expect) in PAPER_DISTRIBUTION {
            let got = shares.get(label).copied().unwrap_or(0.0);
            assert!(
                (got - expect).abs() < 0.01,
                "{label}: got {got}, expected {expect}"
            );
        }
        // "All" dominates at ~94%.
        assert!(shares["All"] > 0.92);
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn generated_sets_classify_to_their_scope() {
        let ixp = Asn(6695);
        let mut rng = SmallRng::seed_from_u64(3);
        for (label, _) in PAPER_DISTRIBUTION {
            let cs = communities_for(label, ixp, &mut rng);
            assert_eq!(ExportScope::parse(&cs, ixp).classify().label(), label);
            // All variants still carry the blackhole tag.
            assert!(cs.iter().any(|c| c.is_blackhole(ixp)));
        }
    }

    #[test]
    fn non_honoring_is_about_seventy_percent() {
        let share = non_honoring_share(650, 5);
        assert!((share - 0.70).abs() < 0.06, "share {share}");
    }

    #[test]
    fn scope_labels_cover_figure_axis() {
        // The x-axis of Fig. 3(b).
        let labels: Vec<&str> = PAPER_DISTRIBUTION.iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec!["All", "All-1", "All-4", "All-5", "All-18", "20", "21"]
        );
        assert_eq!(PolicyScope::AllExcept(18).label(), "All-18");
        assert_eq!(PolicyScope::Only(21).label(), "21");
    }
}
