//! Deterministic fault injection and the recovery vocabulary of the
//! self-healing control plane.
//!
//! The paper's availability claim (§4.1.2) is that Stellar keeps the
//! fabric forwarding through controller crashes, iBGP session failures
//! and hardware-resource exhaustion. This module supplies the failure
//! side of that bargain as *data*: a [`FaultPlan`] is a seeded, sorted
//! script of [`FaultEvent`]s that [`crate::system::StellarSystem`]
//! consumes while pumping its configuration queue. Everything is
//! deterministic — the same seed and the same signal sequence produce
//! byte-identical [`RecoveryEvent`] logs, which is what the acceptance
//! tests diff.

use crate::controller::AbstractChange;
use crate::manager::AdmissionError;
use crate::signal::StellarSignal;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stellar_bgp::types::Asn;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The switch's configuration interface goes dark for `duration_us`:
    /// every change applied in the window fails with
    /// [`AdmissionError::Transient`] without touching the fabric.
    InstallBrownout {
        /// How long the brownout lasts.
        duration_us: u64,
    },
    /// The edge router power-cycles: TCAM and every port policy are
    /// wiped while the ports keep forwarding (fallback to plain
    /// forwarding — availability first).
    RouterRestart,
    /// The iBGP session between route server and blackholing controller
    /// drops: the controller flushes desired state and queues removals.
    SessionDown,
    /// The session comes back: the controller resynchronizes from the
    /// route server's live RIB. Flaps are scripted as a Down/Up pair so
    /// recovery timing stays explicit and deterministic.
    SessionUp,
    /// A member's eBGP session to the route server drops: the route
    /// server flushes the peer's unicast routes *and* its FlowSpec rules
    /// and emits the implicit withdrawals, so every mitigation the peer
    /// signaled is torn down.
    PeerDown {
        /// The member whose session dropped.
        peer: Asn,
    },
    /// The member's session comes back and it re-announces its prefixes.
    /// Blackholing signals do not return automatically — as on a real
    /// flap, the member must re-signal.
    PeerUp {
        /// The member whose session recovered.
        peer: Asn,
    },
    /// Corrupted/truncated FlowSpec NLRI bytes arrive on the wire from
    /// `peer`. The strict decoder must refuse them without touching the
    /// `(peer, wire-bytes)` RIB.
    FlowSpecCorrupt {
        /// The peer the garbage appears to come from.
        peer: Asn,
        /// Drives the deterministic corruption
        /// ([`stellar_bgp::flowspec::corrupt_wire`]).
        salt: u64,
    },
    /// Announcement delivery to the fabric degrades for the window:
    /// every change group enqueued while it is open picks up a
    /// deterministic pseudo-random delay in `[0, max_delay_us]`, so
    /// deliveries arrive late and out of order.
    DeliveryChaos {
        /// How long the window stays open.
        duration_us: u64,
        /// Upper bound of the per-group delivery delay.
        max_delay_us: u64,
    },
    /// The IRR/RPKI validation oracle is unreachable for the window:
    /// RFC 9117 checks fail closed, and the refused announcements are
    /// parked for retry with backoff instead of being silently rejected.
    ValidationBrownout {
        /// How long the oracle stays dark.
        duration_us: u64,
    },
}

impl FaultKind {
    /// A stable metric/event label for this fault kind.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::InstallBrownout { .. } => "install_brownout",
            FaultKind::RouterRestart => "router_restart",
            FaultKind::SessionDown => "session_down",
            FaultKind::SessionUp => "session_up",
            FaultKind::PeerDown { .. } => "peer_down",
            FaultKind::PeerUp { .. } => "peer_up",
            FaultKind::FlowSpecCorrupt { .. } => "flowspec_corrupt",
            FaultKind::DeliveryChaos { .. } => "delivery_chaos",
            FaultKind::ValidationBrownout { .. } => "validation_brownout",
        }
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at_us: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Shape of a generated fault plan.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Faults are scheduled in `[0, horizon_us)`.
    pub horizon_us: u64,
    /// Number of edge-router restarts.
    pub restarts: u32,
    /// Number of iBGP session flaps (each a Down/Up pair).
    pub flaps: u32,
    /// Number of install brownouts.
    pub brownouts: u32,
    /// Brownout durations are drawn from `[1, max_brownout_us]`.
    pub max_brownout_us: u64,
    /// Session flap outages are drawn from `[1, max_flap_us]`.
    pub max_flap_us: u64,
    /// Number of member eBGP session flaps (each a PeerDown/PeerUp pair;
    /// needs a non-empty `peers` pool).
    pub peer_flaps: u32,
    /// Number of corrupted FlowSpec NLRI injections (needs `peers`).
    pub corruptions: u32,
    /// Number of delayed/reordered delivery windows.
    pub delivery_windows: u32,
    /// Number of IRR/RPKI validation-oracle brownouts.
    pub validation_brownouts: u32,
    /// Upper bound of the per-group delivery delay in a chaos window.
    pub max_delivery_delay_us: u64,
    /// Candidate members for peer-scoped faults; drawn uniformly.
    pub peers: Vec<Asn>,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon_us: 10_000_000,
            restarts: 1,
            flaps: 1,
            brownouts: 2,
            max_brownout_us: 1_000_000,
            max_flap_us: 2_000_000,
            peer_flaps: 0,
            corruptions: 0,
            delivery_windows: 0,
            validation_brownouts: 0,
            max_delivery_delay_us: 1_500_000,
            peers: Vec::new(),
        }
    }
}

/// A sorted, deterministic script of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A hand-written plan; events are stably sorted by time (ties keep
    /// the order given).
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_us);
        FaultPlan { events }
    }

    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan from a seed. Identical `(seed, cfg)` pairs yield
    /// identical plans on every platform (the vendored `SmallRng` is
    /// stable).
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let horizon = cfg.horizon_us.max(1);
        for _ in 0..cfg.restarts {
            events.push(FaultEvent {
                at_us: rng.random_range(0..horizon),
                kind: FaultKind::RouterRestart,
            });
        }
        for _ in 0..cfg.flaps {
            let down = rng.random_range(0..horizon);
            let outage = rng.random_range(1..=cfg.max_flap_us.max(1));
            events.push(FaultEvent {
                at_us: down,
                kind: FaultKind::SessionDown,
            });
            events.push(FaultEvent {
                at_us: down.saturating_add(outage),
                kind: FaultKind::SessionUp,
            });
        }
        for _ in 0..cfg.brownouts {
            events.push(FaultEvent {
                at_us: rng.random_range(0..horizon),
                kind: FaultKind::InstallBrownout {
                    duration_us: rng.random_range(1..=cfg.max_brownout_us.max(1)),
                },
            });
        }
        if !cfg.peers.is_empty() {
            for _ in 0..cfg.peer_flaps {
                let peer = cfg.peers[rng.random_range(0..cfg.peers.len())];
                let down = rng.random_range(0..horizon);
                let outage = rng.random_range(1..=cfg.max_flap_us.max(1));
                events.push(FaultEvent {
                    at_us: down,
                    kind: FaultKind::PeerDown { peer },
                });
                events.push(FaultEvent {
                    at_us: down.saturating_add(outage),
                    kind: FaultKind::PeerUp { peer },
                });
            }
            for _ in 0..cfg.corruptions {
                let peer = cfg.peers[rng.random_range(0..cfg.peers.len())];
                events.push(FaultEvent {
                    at_us: rng.random_range(0..horizon),
                    kind: FaultKind::FlowSpecCorrupt {
                        peer,
                        salt: rng.random::<u64>(),
                    },
                });
            }
        }
        for _ in 0..cfg.delivery_windows {
            events.push(FaultEvent {
                at_us: rng.random_range(0..horizon),
                kind: FaultKind::DeliveryChaos {
                    duration_us: rng.random_range(1..=cfg.max_brownout_us.max(1)),
                    max_delay_us: cfg.max_delivery_delay_us.max(1),
                },
            });
        }
        for _ in 0..cfg.validation_brownouts {
            events.push(FaultEvent {
                at_us: rng.random_range(0..horizon),
                kind: FaultKind::ValidationBrownout {
                    duration_us: rng.random_range(1..=cfg.max_brownout_us.max(1)),
                },
            });
        }
        FaultPlan::scripted(events)
    }

    /// The scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The time after which no scripted fault is active any more: the
    /// last event time plus any open window's tail (brownouts, delivery
    /// chaos including its maximum injected delay, oracle outages).
    /// Reconciliation after this point must converge.
    pub fn quiescent_after_us(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                FaultKind::InstallBrownout { duration_us }
                | FaultKind::ValidationBrownout { duration_us } => {
                    e.at_us.saturating_add(duration_us)
                }
                FaultKind::DeliveryChaos {
                    duration_us,
                    max_delay_us,
                } => e
                    .at_us
                    .saturating_add(duration_us)
                    .saturating_add(max_delay_us),
                _ => e.at_us,
            })
            .max()
            .unwrap_or(0)
    }
}

/// A fixed-increment splitmix64 step: the deterministic, stateless
/// pseudo-random source behind delivery-chaos delays (no RNG object to
/// seed, so scripted plans and generated plans behave identically).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Walks a [`FaultPlan`] as simulation time advances and tracks which
/// faults are currently active.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    brownout_until_us: u64,
    delivery_until_us: u64,
    delivery_max_delay_us: u64,
    delivery_seq: u64,
    validation_until_us: u64,
}

impl FaultInjector {
    /// An injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            ..FaultInjector::default()
        }
    }

    /// An injector that never faults.
    pub fn idle() -> Self {
        FaultInjector::default()
    }

    /// Returns the events due at or before `now_us` (at most once each)
    /// and arms any fault windows they open (install brownouts, delivery
    /// chaos, validation-oracle outages).
    pub fn poll(&mut self, now_us: u64) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        while let Some(ev) = self.plan.events.get(self.cursor) {
            if ev.at_us > now_us {
                break;
            }
            match ev.kind {
                FaultKind::InstallBrownout { duration_us } => {
                    self.brownout_until_us = self
                        .brownout_until_us
                        .max(ev.at_us.saturating_add(duration_us));
                }
                FaultKind::DeliveryChaos {
                    duration_us,
                    max_delay_us,
                } => {
                    self.delivery_until_us = self
                        .delivery_until_us
                        .max(ev.at_us.saturating_add(duration_us));
                    self.delivery_max_delay_us = self.delivery_max_delay_us.max(max_delay_us);
                }
                FaultKind::ValidationBrownout { duration_us } => {
                    self.validation_until_us = self
                        .validation_until_us
                        .max(ev.at_us.saturating_add(duration_us));
                }
                _ => {}
            }
            fired.push(*ev);
            self.cursor += 1;
        }
        fired
    }

    /// Whether a configuration change applied at `now_us` hits a
    /// brownout window.
    pub fn install_faulted(&self, now_us: u64) -> bool {
        now_us < self.brownout_until_us
    }

    /// While a delivery-chaos window is open, yields the deterministic
    /// delivery delay for the next change group; `None` outside windows.
    /// Consecutive calls draw different delays, which is what reorders
    /// delivery.
    pub fn delivery_delay(&mut self, now_us: u64) -> Option<u64> {
        if now_us >= self.delivery_until_us {
            return None;
        }
        self.delivery_seq = self.delivery_seq.wrapping_add(1);
        Some(splitmix64(self.delivery_seq) % (self.delivery_max_delay_us.max(1) + 1))
    }

    /// Whether the IRR/RPKI validation oracle is dark at `now_us`.
    pub fn validation_faulted(&self, now_us: u64) -> bool {
        now_us < self.validation_until_us
    }

    /// Whether every scripted event has fired.
    pub fn drained(&self) -> bool {
        self.cursor == self.plan.events.len()
    }

    /// See [`FaultPlan::quiescent_after_us`].
    pub fn quiescent_after_us(&self) -> u64 {
        self.plan.quiescent_after_us()
    }
}

/// Retry policy for refused configuration changes: exponential backoff
/// with bounded attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Backoff after the first failed attempt.
    pub base_backoff_us: u64,
    /// Backoff ceiling.
    pub max_backoff_us: u64,
    /// Total apply attempts before a change is dead-lettered (or
    /// degraded, for TCAM exhaustion).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// Defaults sized for the production queue (≈4.33 changes/s): first
    /// retry after 250 ms (about one token), doubling to a 8 s ceiling,
    /// five attempts total.
    fn default() -> Self {
        RetryPolicy {
            base_backoff_us: 250_000,
            max_backoff_us: 8_000_000,
            max_attempts: 5,
        }
    }
}

impl RetryPolicy {
    /// The backoff after `attempt` failures (1-based): `base × 2^(n-1)`,
    /// capped.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.base_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us)
    }
}

/// How often drivers run [`crate::system::StellarSystem::reconcile`]:
/// once a second, four pump cadences (read through
/// `StellarSystem::reconcile_interval_us`).
pub const RECONCILE_INTERVAL_US: u64 = 1_000_000;

/// How many times one FlowSpec overload refusal is re-admitted from the
/// dead-letter parking lot before it is terminally dead-lettered.
pub const DEADLETTER_REQUEUES: u32 = 2;

/// A change that permanently failed: kept for operator review with the
/// reason and the effort spent.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The refused change.
    pub change: AbstractChange,
    /// The final refusal.
    pub error: AdmissionError,
    /// Apply attempts made.
    pub attempts: u32,
    /// When it was given up on.
    pub at_us: u64,
}

/// One entry in the system's recovery log. The log is plain data so two
/// runs under the same seed can be compared for equality — the
/// determinism acceptance criterion.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// A scripted fault fired.
    FaultInjected {
        /// When it was scheduled.
        at_us: u64,
        /// What it was.
        kind: FaultKind,
    },
    /// The edge router restarted, losing this many installed rules.
    RouterRestarted {
        /// When.
        at_us: u64,
        /// Hardware rules wiped.
        rules_lost: usize,
    },
    /// A failed change was parked for retry.
    Retried {
        /// When the attempt failed.
        at_us: u64,
        /// Rule id the change concerns.
        rule_id: u64,
        /// Failed attempts so far.
        attempt: u32,
        /// Why it failed.
        error: AdmissionError,
    },
    /// A rule was stepped down the degradation ladder.
    Degraded {
        /// When.
        at_us: u64,
        /// The rule (id preserved across the step).
        rule_id: u64,
        /// The coarser replacement signature.
        to: StellarSignal,
    },
    /// A change was given up on.
    DeadLettered {
        /// When.
        at_us: u64,
        /// Rule id the change concerns.
        rule_id: u64,
        /// The final refusal.
        error: AdmissionError,
    },
    /// A FlowSpec overload refusal was parked in the dead-letter lot
    /// with a cool-off instead of being terminally dead-lettered; it
    /// re-enters the queue with a fresh attempt budget when the cool-off
    /// expires.
    Requeued {
        /// When it was parked.
        at_us: u64,
        /// Rule id the change concerns.
        rule_id: u64,
        /// Which re-admission this will be (1-based).
        requeue: u32,
    },
    /// The controller resynchronized from the route server after a
    /// session came back.
    Resynced {
        /// When.
        at_us: u64,
        /// Configuration changes the resync produced.
        changes: usize,
    },
    /// A reconciliation pass queued repairs.
    RepairsQueued {
        /// When.
        at_us: u64,
        /// Missing desired rules re-queued for install.
        adds: usize,
        /// Undesired installed rules queued for removal.
        removes: usize,
        /// Manager bookkeeping entries pruned (vanished from hardware).
        pruned: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_deterministic_and_sorted() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a.events(), b.events());
        assert!(a.events().windows(2).all(|w| w[0].at_us <= w[1].at_us));
        let c = FaultPlan::generate(43, &cfg);
        assert_ne!(a.events(), c.events(), "different seeds differ");
        // 1 restart + 1 flap (two events) + 2 brownouts.
        assert_eq!(a.events().len(), 5);
    }

    #[test]
    fn flaps_pair_down_before_up() {
        let cfg = FaultPlanConfig {
            restarts: 0,
            brownouts: 0,
            flaps: 3,
            ..Default::default()
        };
        let plan = FaultPlan::generate(7, &cfg);
        let downs = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::SessionDown)
            .count();
        let ups = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::SessionUp)
            .count();
        assert_eq!(downs, 3);
        assert_eq!(ups, 3);
        // At any prefix of the timeline, downs >= ups.
        let mut balance = 0i32;
        for e in plan.events() {
            match e.kind {
                FaultKind::SessionDown => balance += 1,
                FaultKind::SessionUp => balance -= 1,
                _ => {}
            }
            assert!(balance >= 0, "an Up fired before its Down");
        }
    }

    #[test]
    fn injector_fires_each_event_once_and_tracks_brownouts() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at_us: 100,
                kind: FaultKind::InstallBrownout { duration_us: 50 },
            },
            FaultEvent {
                at_us: 200,
                kind: FaultKind::RouterRestart,
            },
        ]);
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.install_faulted(100));
        assert!(inj.poll(99).is_empty());
        assert_eq!(inj.poll(100).len(), 1);
        assert!(inj.install_faulted(100));
        assert!(inj.install_faulted(149));
        assert!(!inj.install_faulted(150));
        assert!(!inj.drained());
        assert_eq!(inj.poll(1000).len(), 1);
        assert!(inj.poll(2000).is_empty());
        assert!(inj.drained());
        assert_eq!(inj.quiescent_after_us(), 200);
    }

    #[test]
    fn expanded_fault_classes_generate_deterministically() {
        let cfg = FaultPlanConfig {
            restarts: 0,
            flaps: 0,
            brownouts: 0,
            peer_flaps: 2,
            corruptions: 2,
            delivery_windows: 1,
            validation_brownouts: 1,
            peers: vec![Asn(64500), Asn(64501)],
            ..Default::default()
        };
        let a = FaultPlan::generate(9, &cfg);
        let b = FaultPlan::generate(9, &cfg);
        assert_eq!(a.events(), b.events());
        // 2 peer flaps (2 events each) + 2 corruptions + 1 + 1.
        assert_eq!(a.events().len(), 8);
        for e in a.events() {
            if let FaultKind::PeerDown { peer } | FaultKind::PeerUp { peer } = e.kind {
                assert!(cfg.peers.contains(&peer));
            }
        }
        // Peer-scoped classes are skipped without a peer pool.
        let no_peers = FaultPlanConfig {
            peers: vec![],
            ..cfg.clone()
        };
        assert_eq!(FaultPlan::generate(9, &no_peers).events().len(), 2);
    }

    #[test]
    fn quiescence_covers_delivery_and_validation_windows() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at_us: 100,
                kind: FaultKind::DeliveryChaos {
                    duration_us: 50,
                    max_delay_us: 30,
                },
            },
            FaultEvent {
                at_us: 120,
                kind: FaultKind::ValidationBrownout { duration_us: 40 },
            },
        ]);
        assert_eq!(plan.quiescent_after_us(), 180);
    }

    #[test]
    fn delivery_delays_are_deterministic_bounded_and_windowed() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at_us: 100,
            kind: FaultKind::DeliveryChaos {
                duration_us: 100,
                max_delay_us: 500,
            },
        }]);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        assert_eq!(a.delivery_delay(0), None, "window not armed yet");
        a.poll(100);
        b.poll(100);
        let da: Vec<_> = (0..8).filter_map(|_| a.delivery_delay(150)).collect();
        let db: Vec<_> = (0..8).filter_map(|_| b.delivery_delay(150)).collect();
        assert_eq!(da, db);
        assert_eq!(da.len(), 8);
        assert!(da.iter().all(|d| *d <= 500));
        // Consecutive draws differ — that is what reorders delivery.
        assert!(da.windows(2).any(|w| w[0] != w[1]));
        assert_eq!(a.delivery_delay(200), None, "window closed");
    }

    #[test]
    fn validation_window_tracks_the_scripted_outage() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at_us: 50,
            kind: FaultKind::ValidationBrownout { duration_us: 25 },
        }]);
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.validation_faulted(60));
        inj.poll(50);
        assert!(inj.validation_faulted(60));
        assert!(!inj.validation_faulted(75));
    }

    #[test]
    fn control_tuning_defaults_match_retry_policy() {
        let retry = RetryPolicy::default();
        // A reconcile pass comes round after the first retry's backoff
        // and well before the retry ladder gives up.
        assert!(retry.backoff_us(1) < RECONCILE_INTERVAL_US);
        assert!(retry.backoff_us(retry.max_attempts) > RECONCILE_INTERVAL_US);
        assert_eq!(RECONCILE_INTERVAL_US, 1_000_000);
        assert_eq!(DEADLETTER_REQUEUES, 2);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff_us: 100,
            max_backoff_us: 500,
            max_attempts: 5,
        };
        assert_eq!(p.backoff_us(1), 100);
        assert_eq!(p.backoff_us(2), 200);
        assert_eq!(p.backoff_us(3), 400);
        assert_eq!(p.backoff_us(4), 500);
        assert_eq!(p.backoff_us(40), 500, "huge attempts do not overflow");
    }
}
