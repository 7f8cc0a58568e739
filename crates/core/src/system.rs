//! The end-to-end Stellar system (Fig. 5): signaling → management →
//! filtering, wired over a real IXP topology.
//!
//! This facade is what the examples and benches drive: a member sends one
//! BGP UPDATE; the route server validates it and feeds the blackholing
//! controller; the controller diffs its RIB into abstract changes; the
//! token-bucket queue meters them; the QoS network manager compiles them
//! onto the victim's egress port.
//!
//! The facade is also where the control plane self-heals (§4.1.2's
//! availability-first posture made concrete):
//!
//! - a [`FaultInjector`] replays a scripted [`crate::faults::FaultPlan`]
//!   (brownouts, edge-router restarts, iBGP session flaps) as the queue
//!   is pumped;
//! - refused changes retry with exponential backoff under a
//!   [`RetryPolicy`]; TCAM-exhausted rules step down the degradation
//!   ladder; permanent failures land in [`StellarSystem::dead_letters`];
//! - [`StellarSystem::reconcile`] periodically diffs the controller's
//!   desired rule set against the hardware and queues repairs, so a
//!   restart converges back instead of diverging forever.

use crate::audit::{audit_batch, AuditRejection, BatchAudit};
use crate::config_queue::{ConfigChangeQueue, QueuedChange};
use crate::controller::{AbstractChange, BlackholingController, DegradeOutcome};
use crate::faults::{
    DeadLetter, FaultEvent, FaultInjector, FaultKind, RecoveryEvent, RetryPolicy,
    DEADLETTER_REQUEUES, RECONCILE_INTERVAL_US,
};
use crate::flowspec::{FlowSpecPlane, LowerError};
use crate::manager::{AdmissionError, DeadLetterLog, NetworkManager};
use crate::proof::{self, DEFAULT_VERIFY_BUDGET};
use crate::qos_manager::QosNetworkManager;
use crate::rule::BlackholingRule;
use crate::signal::StellarSignal;
use crate::telemetry::{rule_telemetry, RuleTelemetry};
use crate::watchdog::{Invariant, Watchdog};
use std::collections::{BTreeMap, HashSet};
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::FlowSpec;
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_dataplane::qos::TickResult;
use stellar_dataplane::switch::{OfferedAggregate, PortId};
use stellar_net::prefix::Prefix;
use stellar_obs::Obs;
use stellar_routeserver::policy::RejectReason;
use stellar_routeserver::FlowSpecRejectReason;
use stellar_sim::topology::IxpTopology;

mod ledger;
use ledger::ProofLedger;

/// Outcome of one member signal.
#[derive(Debug, Default)]
pub struct SignalOutcome {
    /// Changes accepted into the configuration queue.
    pub queued_changes: usize,
    /// Import-policy rejections, if any.
    pub rejections: Vec<(Prefix, RejectReason)>,
    /// Rules refused by the static batch audit (shadowed or conflicting
    /// on the owner's egress port) before reaching the queue.
    pub audit_rejections: Vec<(u64, AuditRejection)>,
}

/// Outcome of one member FlowSpec announcement or withdrawal.
#[derive(Debug, Default)]
pub struct FlowSpecOutcome {
    /// Changes accepted into the configuration queue.
    pub queued_changes: usize,
    /// NLRIs refused by the RFC 9117 validation procedure.
    pub rejections: Vec<(FlowSpec, FlowSpecRejectReason)>,
    /// NLRIs whose validation could not complete (oracle brownout):
    /// parked for automatic retry with backoff, not rejected.
    pub deferred: usize,
    /// NLRIs that validated but could not be lowered exactly.
    pub lowering_errors: Vec<(FlowSpec, LowerError)>,
    /// Lowered rules refused by the static batch audit.
    pub audit_rejections: Vec<(u64, AuditRejection)>,
}

/// A FlowSpec overload refusal parked in the dead-letter lot with a
/// cool-off, instead of being terminally dead-lettered.
#[derive(Debug)]
struct ParkedChange {
    qc: QueuedChange,
    release_at_us: u64,
}

/// A FlowSpec announcement whose RFC 9117 validation failed closed
/// during an oracle brownout, awaiting its backoff before resubmission.
#[derive(Debug)]
struct PendingValidation {
    member: Asn,
    flow: FlowSpec,
    actions: Vec<ExtendedCommunity>,
    attempts: u32,
    not_before_us: u64,
}

/// Resubmission budget for oracle-deferred announcements: generous
/// enough to outlast any plausible brownout window under the capped
/// backoff, still bounded so a permanently dark oracle cannot pin
/// announcements forever.
const VALIDATION_RETRY_ATTEMPTS: u32 = 10;

/// How far past its release time a parked change may sit before the
/// watchdog calls the requeue machinery stalled. Must exceed the pump
/// cadence of every driver (they pump at 250 ms or faster).
const PARKED_OVERDUE_SLACK_US: u64 = 2_000_000;

/// What one reconciliation pass found and queued.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Desired rules missing from hardware, queued for install.
    pub adds: usize,
    /// Hardware rules absent from desired state, queued for removal.
    pub removes: usize,
    /// Manager bookkeeping entries pruned (hardware entry vanished).
    pub pruned: usize,
}

impl ReconcileReport {
    /// No repairs were needed.
    pub fn is_clean(&self) -> bool {
        self.adds == 0 && self.removes == 0 && self.pruned == 0
    }
}

/// The assembled system.
pub struct StellarSystem {
    /// The IXP (route server + switching fabric + members).
    pub ixp: IxpTopology,
    /// The blackholing controller.
    pub controller: BlackholingController,
    /// Desired state of the FlowSpec signaling plane (lowered rules).
    pub flowspec: FlowSpecPlane,
    /// The token-bucket configuration queue.
    pub queue: ConfigChangeQueue,
    /// The QoS network manager.
    pub manager: QosNetworkManager,
    /// Retry/backoff policy for refused changes.
    pub retry: RetryPolicy,
    /// How often [`StellarSystem::reconcile`] is meant to run (drivers
    /// read this instead of hard-coding a cadence).
    pub reconcile_interval_us: u64,
    /// The fault injector driving scripted failures (idle by default).
    pub injector: FaultInjector,
    /// Changes that permanently failed, with reason and effort spent —
    /// a bounded drop-oldest ring kept for operator review.
    pub dead_letters: DeadLetterLog,
    /// The runtime invariant monitor (see [`crate::watchdog`]).
    pub watchdog: Watchdog,
    /// FlowSpec overload refusals cooling off before a bounded requeue.
    parked: Vec<ParkedChange>,
    /// Announcements deferred by an oracle brownout, awaiting backoff.
    pending_validation: Vec<PendingValidation>,
    /// What the watchdog's quiet passes have already proven.
    ledger: ProofLedger,
    /// The recovery event log: plain data, identical across runs with
    /// the same seed and workload.
    pub log: Vec<RecoveryEvent>,
    /// Observability: metrics, spans and the flight recorder, all clocked
    /// off simulation time. [`StellarSystem::observe`] scrapes the
    /// subsystem gauges; the control-plane paths push counters, spans and
    /// flight events inline.
    pub obs: Obs,
}

impl StellarSystem {
    /// Wires Stellar onto an IXP. `queue_rate_per_s` is the configuration
    /// change rate (4.33/s fits the production CPU cap, §5.1).
    pub fn new(ixp: IxpTopology, queue_rate_per_s: f64) -> Self {
        let ixp_asn = ixp.route_server.config().ixp_asn;
        let mut manager = QosNetworkManager::default();
        for (asn, info) in &ixp.members {
            manager.register_owner(*asn, info.port);
        }
        StellarSystem {
            ixp,
            controller: BlackholingController::new(ixp_asn),
            flowspec: FlowSpecPlane::new(),
            queue: ConfigChangeQueue::production(queue_rate_per_s),
            manager,
            retry: RetryPolicy::default(),
            reconcile_interval_us: RECONCILE_INTERVAL_US,
            injector: FaultInjector::idle(),
            dead_letters: DeadLetterLog::default(),
            watchdog: Watchdog::default(),
            parked: Vec::new(),
            pending_validation: Vec::new(),
            ledger: ProofLedger::default(),
            log: Vec::new(),
            obs: Obs::new(),
        }
    }

    /// Arms a fault plan (replacing any previous injector state).
    pub fn inject_faults(&mut self, plan: crate::faults::FaultPlan) {
        self.injector = FaultInjector::new(plan);
    }

    /// Admits a group of changes to the queue, routing them through the
    /// delivery-chaos window when one is armed: a chaotic delivery holds
    /// the group back by a deterministic pseudo-random delay, reordering
    /// it against groups enqueued after it (announcement delivery is not
    /// FIFO under chaos). Groups stay atomic either way.
    fn enqueue_changes(&mut self, changes: Vec<AbstractChange>, now_us: u64) {
        if changes.is_empty() {
            return;
        }
        self.watchdog.note_activity(now_us);
        match self.injector.delivery_delay(now_us) {
            Some(delay) if delay > 0 => {
                self.obs.registry.counter_inc("core.delivery.delayed");
                self.queue
                    .enqueue_group_delayed(changes, now_us, now_us + delay);
            }
            _ => self.queue.enqueue_group(changes, now_us),
        }
    }

    /// A member signals Advanced Blackholing: announces `victim` tagged
    /// with the given rules' extended communities. One BGP UPDATE, no
    /// cooperation from any other member (§3.3).
    pub fn member_signal(
        &mut self,
        member: Asn,
        victim: Prefix,
        signals: &[StellarSignal],
        now_us: u64,
    ) -> SignalOutcome {
        let ixp_asn = self.ixp.route_server.config().ixp_asn;
        let mut update = self.ixp.announcement(member, victim);
        let ecs: Vec<_> = signals.iter().map(|s| s.encode(ixp_asn)).collect();
        update.add_extended_communities(&ecs);
        let rs_out = self.ixp.route_server.handle_update(member, &update, now_us);
        let mut outcome = SignalOutcome {
            rejections: rs_out.rejections,
            ..Default::default()
        };
        for cu in &rs_out.controller_updates {
            let mut changes = self.controller.process_update(cu);
            self.audit_changes(&mut changes, &mut outcome.audit_rejections, now_us);
            outcome.queued_changes += changes.len();
            // One emission carrying several changes is a same-path swap
            // (e.g. shape→drop escalation): dequeue it atomically so the
            // victim is never unprotected between Remove and Add.
            self.enqueue_changes(changes, now_us);
        }
        outcome
    }

    /// A member signals over BGP FlowSpec instead of the Stellar
    /// community grammar: one MP_REACH update under SAFI 133 carrying
    /// `flow` and its action extended communities. The route server
    /// applies the RFC 9117 validation procedure, accepted NLRIs are
    /// lowered to exact match specs, and the lowered rules go through
    /// the same audit + queue admission path as signal-derived rules.
    pub fn member_flowspec(
        &mut self,
        member: Asn,
        flow: FlowSpec,
        actions: &[ExtendedCommunity],
        now_us: u64,
    ) -> FlowSpecOutcome {
        self.submit_flowspec(member, flow, actions.to_vec(), 0, now_us)
    }

    /// The shared announcement path for fresh submissions
    /// (`prior_attempts == 0`) and oracle-brownout resubmissions.
    fn submit_flowspec(
        &mut self,
        member: Asn,
        flow: FlowSpec,
        actions: Vec<ExtendedCommunity>,
        prior_attempts: u32,
        now_us: u64,
    ) -> FlowSpecOutcome {
        let afi = flow.afi;
        let mut update = UpdateMessage {
            withdrawn: vec![],
            attrs: vec![
                PathAttribute::AsPath(AsPath::sequence([member.0])),
                PathAttribute::MpReachFlowSpec {
                    afi,
                    nlri: vec![flow],
                },
            ],
            nlri: vec![],
        };
        if !actions.is_empty() {
            update.add_extended_communities(&actions);
        }
        let rs_out = self
            .ixp
            .route_server
            .handle_flowspec_update(member, &update);
        self.admit_flowspec_output(member, rs_out, &actions, prior_attempts, now_us)
    }

    /// A member withdraws a FlowSpec rule (MP_UNREACH, SAFI 133): every
    /// match spec it lowered to is queued for removal.
    pub fn member_flowspec_withdraw(
        &mut self,
        member: Asn,
        flow: FlowSpec,
        now_us: u64,
    ) -> FlowSpecOutcome {
        let afi = flow.afi;
        let update = UpdateMessage {
            withdrawn: vec![],
            attrs: vec![PathAttribute::MpUnreachFlowSpec {
                afi,
                nlri: vec![flow],
            }],
            nlri: vec![],
        };
        let rs_out = self
            .ixp
            .route_server
            .handle_flowspec_update(member, &update);
        self.admit_flowspec_output(member, rs_out, &[], 0, now_us)
    }

    /// Admits the route server's FlowSpec output into the change queue:
    /// withdrawals first (RFC 4271 processing order), then accepted
    /// announcements through lowering and the static batch audit. Every
    /// fate increments its `flowspec.*` counter. Transient rejections
    /// (oracle brownout fails closed) are deferred for resubmission with
    /// backoff instead of being terminally refused.
    fn admit_flowspec_output(
        &mut self,
        member: Asn,
        rs_out: stellar_routeserver::FlowSpecOutput,
        actions: &[ExtendedCommunity],
        prior_attempts: u32,
        now_us: u64,
    ) -> FlowSpecOutcome {
        let mut outcome = FlowSpecOutcome::default();
        for (owner, flow) in &rs_out.withdrawn {
            let removals = self.flowspec.withdraw(*owner, flow);
            // Counted per NLRI (like `flowspec.accepted`), not per
            // lowered rule; a withdraw of an unknown NLRI counts zero.
            if !removals.is_empty() {
                self.obs.registry.counter_inc("flowspec.withdrawn");
            }
            outcome.queued_changes += removals.len();
            self.enqueue_changes(removals, now_us);
        }
        for (flow, reason) in rs_out.rejections {
            if reason.is_transient() {
                // Fail closed, but not forever: park the announcement and
                // resubmit once the backoff expires (the oracle may be
                // back). Only a permanently dark oracle exhausts the
                // budget into a real rejection.
                let attempts = prior_attempts + 1;
                if attempts >= VALIDATION_RETRY_ATTEMPTS {
                    self.obs.registry.counter_inc("flowspec.validation_expired");
                    self.obs.event(
                        now_us,
                        "flowspec.rejected",
                        vec![
                            ("reason".to_string(), reason.describe().to_string()),
                            ("attempts".to_string(), attempts.to_string()),
                        ],
                    );
                    outcome.rejections.push((flow, reason));
                } else {
                    self.obs
                        .registry
                        .counter_inc("flowspec.validation_deferred");
                    self.obs.event(
                        now_us,
                        "flowspec.deferred",
                        vec![("attempt".to_string(), attempts.to_string())],
                    );
                    self.watchdog.note_activity(now_us);
                    self.pending_validation.push(PendingValidation {
                        member,
                        flow,
                        actions: actions.to_vec(),
                        attempts,
                        not_before_us: now_us + self.retry.backoff_us(attempts),
                    });
                    outcome.deferred += 1;
                }
                continue;
            }
            self.obs
                .registry
                .counter_inc("flowspec.rejected_validation");
            self.obs.event(
                now_us,
                "flowspec.rejected",
                vec![("reason".to_string(), reason.describe().to_string())],
            );
            outcome.rejections.push((flow, reason));
        }
        for acc in rs_out.accepted {
            let installed = self.flowspec.install(&acc);
            self.note_unverified_lowering(now_us);
            match installed {
                Err(e) => {
                    self.obs.registry.counter_inc("flowspec.rejected_lowering");
                    self.obs.event(
                        now_us,
                        "flowspec.rejected",
                        vec![("reason".to_string(), e.describe().to_string())],
                    );
                    outcome.lowering_errors.push((acc.flow, e));
                }
                Ok(mut changes) => {
                    let before = outcome.audit_rejections.len();
                    self.audit_changes(&mut changes, &mut outcome.audit_rejections, now_us);
                    let audit_rejected = outcome.audit_rejections.len() - before;
                    self.obs
                        .registry
                        .counter_add("flowspec.rejected_audit", audit_rejected as u64);
                    if audit_rejected == 0 {
                        self.obs.registry.counter_inc("flowspec.accepted");
                    }
                    outcome.queued_changes += changes.len();
                    // Like a same-path signal swap: the specs of one NLRI
                    // install atomically.
                    self.enqueue_changes(changes, now_us);
                }
            }
        }
        outcome
    }

    /// Obligation (a) left undischarged is never invisible: a lowering
    /// [`FlowSpecPlane::install`] admitted without proof is counted and
    /// named in the flight recorder, like the other three `*.unverified`
    /// counters (incremented only when hit).
    fn note_unverified_lowering(&mut self, now_us: u64) {
        let Some(unverified) = self.flowspec.take_unverified() else {
            return;
        };
        self.obs.registry.counter_inc("verify.lowering.unverified");
        let ids: Vec<String> = unverified.rule_ids.iter().map(u64::to_string).collect();
        self.obs.event(
            now_us,
            "verify.lowering.unverified",
            vec![
                ("reason".to_string(), unverified.reason.to_string()),
                ("rule_ids".to_string(), ids.join(",")),
            ],
        );
    }

    /// Resubmits oracle-deferred announcements whose backoff has expired.
    fn retry_pending_validation(&mut self, now_us: u64) {
        if self.pending_validation.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_validation);
        let (due, keep): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|pv| pv.not_before_us <= now_us);
        self.pending_validation = keep;
        for pv in due {
            self.submit_flowspec(pv.member, pv.flow, pv.actions, pv.attempts, now_us);
        }
    }

    /// Static batch audit (see [`crate::audit`]): judges the proposed
    /// adds — and only them — against their owner's full desired rule
    /// table, refuses the ones that come back shadowed or
    /// crossing-conflicted (they leave desired state and never reach the
    /// queue), and accounts the survivors' TCAM footprint against the
    /// free pools. The cost follows the candidates and their owner's
    /// table, not the number of standing rules at the IXP. Degrade and
    /// reconcile repairs skip this gate: they re-install rules the audit
    /// already admitted.
    fn audit_changes(
        &mut self,
        changes: &mut Vec<AbstractChange>,
        rejections: &mut Vec<(u64, AuditRejection)>,
        now_us: u64,
    ) {
        if let Some(audit) = self.audit_adds(changes) {
            // Unit-test builds of this crate check every verdict against
            // the whole-table reference before acting on it.
            #[cfg(test)]
            self.assert_matches_whole_table_audit(&audit, changes);
            self.apply_audit(&audit, changes, rejections, now_us);
        }
    }

    /// The audit verdict on the adds of one change group, `None` when it
    /// adds nothing. Rules only compete within an owner's egress port, so
    /// [`audit_batch`] is handed the candidates' owners' tables and
    /// nobody else's.
    fn audit_adds(&self, changes: &[AbstractChange]) -> Option<BatchAudit> {
        let (candidate_ids, mut owners): (Vec<u64>, Vec<Asn>) = changes
            .iter()
            .filter_map(|c| match c {
                AbstractChange::AddRule(r) => Some((r.id, r.owner)),
                AbstractChange::RemoveRule { .. } => None,
            })
            .unzip();
        if candidate_ids.is_empty() {
            return None;
        }
        owners.sort_unstable();
        owners.dedup();
        let desired = self.desired_of(&owners);
        Some(audit_batch(
            &self.ixp.fabric,
            |a| self.manager.owner_port(a),
            &desired,
            &candidate_ids,
        ))
    }

    /// Acts on an audit verdict: refused candidates leave desired state
    /// and `changes`, every fate is counted and logged.
    fn apply_audit(
        &mut self,
        audit: &BatchAudit,
        changes: &mut Vec<AbstractChange>,
        rejections: &mut Vec<(u64, AuditRejection)>,
        now_us: u64,
    ) {
        for (rule_id, rejection) in &audit.rejected {
            if !self.controller.rule_refused(*rule_id) {
                self.flowspec.rule_refused(*rule_id);
            }
            changes.retain(|c| !matches!(c, AbstractChange::AddRule(r) if r.id == *rule_id));
            let (counter, detail) = match rejection {
                AuditRejection::Shadowed { by } => (
                    "analyze.rejected_shadowed",
                    (
                        "by".to_string(),
                        by.map_or("union".into(), |b| b.to_string()),
                    ),
                ),
                AuditRejection::Conflict { with } => (
                    "analyze.rejected_conflict",
                    ("with".to_string(), with.to_string()),
                ),
                AuditRejection::EmptyMatch => (
                    "analyze.rejected_empty",
                    ("reason".to_string(), "empty-match".to_string()),
                ),
                AuditRejection::Duplicate { of } => (
                    "analyze.rejected_duplicate",
                    ("of".to_string(), of.to_string()),
                ),
            };
            self.obs.registry.counter_inc(counter);
            self.obs.event(
                now_us,
                "analyze.rejected",
                vec![("rule_id".to_string(), rule_id.to_string()), detail],
            );
        }
        rejections.extend(audit.rejected.iter().copied());
        // Admitted without a reachability verdict (witness budget ran
        // out): the obligation is counted as undischarged, by rule id.
        for rule_id in &audit.unverified {
            self.obs.registry.counter_inc("analyze.unverified");
            self.obs.event(
                now_us,
                "analyze.unverified",
                vec![("rule_id".to_string(), rule_id.to_string())],
            );
        }
        let reg = &mut self.obs.registry;
        reg.counter_inc("analyze.preadmit.batches");
        reg.counter_add(
            "analyze.preadmit.mac_needed",
            audit.preadmit.mac_needed as u64,
        );
        reg.counter_add(
            "analyze.preadmit.l34_needed",
            audit.preadmit.l34_needed as u64,
        );
        if !audit.fits() {
            reg.counter_inc("analyze.preadmit.would_exhaust");
        }
    }

    /// A member withdraws its signal (attack over): the /32 is withdrawn
    /// and every rule attached to it is queued for removal.
    pub fn member_withdraw(&mut self, member: Asn, victim: Prefix, now_us: u64) -> SignalOutcome {
        let update = match victim {
            Prefix::V4(_) => stellar_bgp::update::UpdateMessage::withdraw(victim),
            Prefix::V6(_) => stellar_bgp::update::UpdateMessage {
                withdrawn: vec![],
                attrs: vec![stellar_bgp::attr::PathAttribute::MpUnreach {
                    afi: stellar_bgp::types::Afi::Ipv6,
                    safi: stellar_bgp::types::Safi::Unicast,
                    nlri: vec![stellar_bgp::nlri::Nlri::plain(victim)],
                }],
                nlri: vec![],
            },
        };
        let rs_out = self.ixp.route_server.handle_update(member, &update, now_us);
        let mut outcome = SignalOutcome::default();
        for cu in &rs_out.controller_updates {
            let changes = self.controller.process_update(cu);
            outcome.queued_changes += changes.len();
            self.enqueue_changes(changes, now_us);
        }
        outcome
    }

    /// Pumps the configuration queue: fires any scripted faults due by
    /// `now_us`, dequeues what the token bucket allows and applies it to
    /// the fabric. Refusals go through the failure-handling ladder
    /// (retry → degrade → dead-letter) instead of being dropped. Returns
    /// how many changes were applied.
    pub fn pump(&mut self, now_us: u64) -> usize {
        self.poll_faults(now_us);
        // The validation oracle fails closed for exactly as long as its
        // brownout window is armed.
        let oracle_down = self.injector.validation_faulted(now_us);
        self.ixp.route_server.policy_mut().oracle_down = oracle_down;
        self.release_parked(now_us);
        self.retry_pending_validation(now_us);
        let ready = self.queue.dequeue_ready_queued(now_us);
        let mut applied = 0;
        for qc in ready {
            // A brownout makes the configuration interface unavailable:
            // the change fails without touching the fabric.
            let result = if self.injector.install_faulted(now_us) {
                Err(AdmissionError::Transient)
            } else {
                self.manager.apply(&mut self.ixp.fabric, &qc.change, now_us)
            };
            match result {
                Ok(()) => {
                    applied += 1;
                    // End-to-end signal→installed latency: `enqueued_us`
                    // survives retries, so this is the member-visible
                    // reaction time, backoff included.
                    self.obs
                        .registry
                        .observe("core.signal_to_install_us", now_us - qc.enqueued_us);
                    let rule_id = match &qc.change {
                        AbstractChange::AddRule(r) => {
                            self.obs.registry.counter_inc("core.installs");
                            r.id
                        }
                        AbstractChange::RemoveRule { rule_id, .. } => {
                            self.obs.registry.counter_inc("core.removals");
                            *rule_id
                        }
                    };
                    if qc.attempts > 0 {
                        // Closes the retry episode opened at first failure.
                        self.obs.span_end("retry", rule_id, now_us);
                    }
                }
                Err(e) => self.handle_failure(qc, e, now_us),
            }
        }
        if self.watchdog.due(now_us) {
            self.watchdog_check(now_us);
        }
        applied
    }

    /// Releases parked dead-letter requeues whose cool-off has expired
    /// back into the queue with a fresh retry budget.
    fn release_parked(&mut self, now_us: u64) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        let (due, keep): (Vec<_>, Vec<_>) =
            parked.into_iter().partition(|p| p.release_at_us <= now_us);
        self.parked = keep;
        for p in due {
            self.obs.registry.counter_inc("deadletter.requeued");
            self.watchdog.note_activity(now_us);
            self.queue.readmit(p.qc, now_us);
        }
    }

    /// Fires scripted faults due by `now_us` and reacts to them.
    fn poll_faults(&mut self, now_us: u64) {
        for ev in self.injector.poll(now_us) {
            self.log.push(RecoveryEvent::FaultInjected {
                at_us: ev.at_us,
                kind: ev.kind,
            });
            self.obs
                .registry
                .counter_inc(&format!("core.faults.{}", ev.kind.label()));
            let mut fields = Vec::new();
            match ev.kind {
                FaultKind::InstallBrownout { duration_us }
                | FaultKind::ValidationBrownout { duration_us } => {
                    fields.push(("duration_us".to_string(), duration_us.to_string()));
                }
                FaultKind::DeliveryChaos {
                    duration_us,
                    max_delay_us,
                } => {
                    fields.push(("duration_us".to_string(), duration_us.to_string()));
                    fields.push(("max_delay_us".to_string(), max_delay_us.to_string()));
                }
                FaultKind::PeerDown { peer } | FaultKind::PeerUp { peer } => {
                    fields.push(("peer".to_string(), peer.0.to_string()));
                }
                FaultKind::FlowSpecCorrupt { peer, salt } => {
                    fields.push(("peer".to_string(), peer.0.to_string()));
                    fields.push(("salt".to_string(), salt.to_string()));
                }
                FaultKind::RouterRestart | FaultKind::SessionDown | FaultKind::SessionUp => {}
            }
            self.obs
                .event(ev.at_us, &format!("fault.{}", ev.kind.label()), fields);
            self.watchdog.note_activity(ev.at_us.max(now_us));
            self.ledger = ProofLedger::default();
            self.apply_fault(&ev, now_us);
        }
    }

    fn apply_fault(&mut self, ev: &FaultEvent, now_us: u64) {
        match ev.kind {
            // Brownout windows are tracked by the injector itself and
            // consulted on every apply.
            FaultKind::InstallBrownout { .. } => {}
            FaultKind::RouterRestart => {
                let rules_lost = self.ixp.fabric.restart(now_us);
                self.log.push(RecoveryEvent::RouterRestarted {
                    at_us: now_us,
                    rules_lost,
                });
                self.obs.event(
                    now_us,
                    "router_restarted",
                    vec![("rules_lost".to_string(), rules_lost.to_string())],
                );
            }
            FaultKind::SessionDown => {
                // The controller can no longer trust its feed: fall back
                // to plain forwarding by removing every rule (§4.1.2).
                // Both signaling planes ride the same iBGP session, so
                // the FlowSpec plane flushes too.
                let mut removals = self.controller.session_down();
                removals.extend(self.flowspec.flush());
                self.enqueue_changes(removals, now_us);
            }
            FaultKind::SessionUp => {
                // Resynchronize from the route server's live RIB: the
                // routes (and their blackholing communities) survived the
                // controller-side flap.
                let updates = self.ixp.route_server.controller_resync();
                let mut changes = 0;
                for u in &updates {
                    let emitted = self.controller.process_update(u);
                    changes += emitted.len();
                    self.enqueue_changes(emitted, now_us);
                }
                // The FlowSpec RIB also survived at the route server:
                // re-lower every accepted rule (fresh ids, same specs).
                let accepted: Vec<_> = self
                    .ixp
                    .route_server
                    .flowspec_routes()
                    .into_iter()
                    .cloned()
                    .collect();
                for acc in accepted {
                    let installed = self.flowspec.install(&acc);
                    self.note_unverified_lowering(now_us);
                    if let Ok(emitted) = installed {
                        changes += emitted.len();
                        self.enqueue_changes(emitted, now_us);
                    }
                }
                self.log.push(RecoveryEvent::Resynced {
                    at_us: now_us,
                    changes,
                });
                self.obs.event(
                    now_us,
                    "resynced",
                    vec![("changes".to_string(), changes.to_string())],
                );
            }
            FaultKind::PeerDown { peer } => {
                // The peer's eBGP session to the route server drops: its
                // unicast routes (signals included) and FlowSpec rules
                // flush, and the controller diff tears the derived
                // hardware rules down.
                let rs_out = self.ixp.route_server.peer_down(peer);
                for cu in &rs_out.controller_updates {
                    let emitted = self.controller.process_update(cu);
                    self.enqueue_changes(emitted, now_us);
                }
                for (owner, flow) in &rs_out.flowspec_withdrawn {
                    let removals = self.flowspec.withdraw(*owner, flow);
                    self.enqueue_changes(removals, now_us);
                }
            }
            FaultKind::PeerUp { peer } => {
                // The session re-establishes and the peer re-announces
                // its plain prefixes. Blackholing state does not survive
                // an eBGP flap: the member must re-signal (communities
                // and FlowSpec rules are per-announcement state).
                let prefixes = self
                    .ixp
                    .members
                    .get(&peer)
                    .map(|m| m.prefixes.clone())
                    .unwrap_or_default();
                for prefix in prefixes {
                    let update = self.ixp.announcement(peer, prefix);
                    let rs_out = self.ixp.route_server.handle_update(peer, &update, now_us);
                    for cu in &rs_out.controller_updates {
                        let emitted = self.controller.process_update(cu);
                        self.enqueue_changes(emitted, now_us);
                    }
                }
            }
            FaultKind::FlowSpecCorrupt { peer, salt } => {
                // A corrupted/truncated NLRI arrives on the wire. The
                // codec must refuse it whole — the `(peer, wire-bytes)`
                // RIB takes nothing, desired state does not move.
                let wire = self
                    .ixp
                    .route_server
                    .flowspec_routes()
                    .first()
                    .and_then(|acc| acc.flow.to_wire().ok())
                    // No live rule to mangle: a hand-rolled fragment
                    // (dst-prefix component with a truncated prefix body).
                    .unwrap_or_else(|| vec![0x06, 0x01, 0x20, 100, 10, 10, 10]);
                let bad = stellar_bgp::flowspec::corrupt_wire(&wire, salt);
                let rs_out = self.ixp.route_server.handle_flowspec_wire(
                    peer,
                    stellar_bgp::types::Afi::Ipv4,
                    &bad,
                    &[],
                );
                self.admit_flowspec_output(peer, rs_out, &[], 0, now_us);
            }
            FaultKind::ValidationBrownout { .. } => {
                // Window tracked by the injector; flip the oracle down
                // immediately so even a same-tick announcement sees it.
                self.ixp.route_server.policy_mut().oracle_down = true;
            }
            // Window tracked by the injector and consulted on every
            // enqueue.
            FaultKind::DeliveryChaos { .. } => {}
        }
    }

    /// The failure-handling ladder for a refused change.
    fn handle_failure(&mut self, qc: QueuedChange, error: AdmissionError, now_us: u64) {
        // Removing a rule that is not installed: the desired state is
        // already reality (e.g. a restart wiped it first) — idempotent
        // success, not a failure.
        if error == AdmissionError::NoSuchRule
            && matches!(qc.change, AbstractChange::RemoveRule { .. })
        {
            return;
        }
        let rule_id = qc.change.rule_id();
        if qc.attempts == 0 {
            // First refusal opens the retry episode; it closes on the
            // eventual successful apply or is abandoned at dead-letter.
            self.obs.span_start("retry", rule_id, now_us);
        }
        let attempts = qc.attempts + 1; // counting this one
        let retryable = error.is_transient() || error.is_capacity() || error.is_degradable();
        if retryable && attempts < self.retry.max_attempts {
            let delay = self.retry.backoff_us(attempts);
            self.log.push(RecoveryEvent::Retried {
                at_us: now_us,
                rule_id,
                attempt: attempts,
                error,
            });
            self.obs.registry.counter_inc("core.retries");
            self.watchdog.note_activity(now_us);
            self.queue.requeue(qc, now_us + delay);
            return;
        }
        // FlowSpec installs have no degradation ladder to absorb an
        // overloaded fabric, so a retry-exhausted but still-retryable
        // refusal gets a bounded second life: park with a long cool-off
        // and requeue with a fresh retry budget. Desired state is kept —
        // the rule is still wanted, just not installable right now.
        let flowspec_add = matches!(&qc.change, AbstractChange::AddRule(r) if r.signal().is_none());
        if retryable && flowspec_add && qc.requeues < DEADLETTER_REQUEUES {
            let requeue = qc.requeues + 1;
            self.log.push(RecoveryEvent::Requeued {
                at_us: now_us,
                rule_id,
                requeue,
            });
            self.obs.registry.counter_inc("deadletter.parked");
            self.obs.spans.abandon("retry", rule_id);
            self.watchdog.note_activity(now_us);
            self.parked.push(ParkedChange {
                qc,
                release_at_us: now_us + self.retry.max_backoff_us,
            });
            return;
        }
        // Retry budget exhausted (or the error was permanent). TCAM
        // exhaustion gets one more option: trade precision for fit.
        if error.is_degradable()
            && matches!(&qc.change, AbstractChange::AddRule(r) if r.signal().is_none())
        {
            // FlowSpec-derived rules have no degradation ladder: widening
            // a lowered spec would silently match traffic the member
            // never asked to filter — exactly what exact lowering
            // forbids. Straight to dead-letter, desired state dropped.
            if let AbstractChange::AddRule(rule) = &qc.change {
                self.flowspec.rule_refused(rule.id);
            }
        } else if error.is_degradable() {
            if let AbstractChange::AddRule(rule) = &qc.change {
                // Obligation (b) needs the owner's table and the old
                // spec as they were *before* the ladder rewrites
                // desired state.
                let ladder_owner = rule.owner;
                let old_spec = rule.match_spec();
                let before = self.owner_audit_table(ladder_owner);
                match self.controller.degrade_rule(rule.id) {
                    DegradeOutcome::Degraded(coarser) => {
                        if let Some(to) = coarser.signal() {
                            self.log.push(RecoveryEvent::Degraded {
                                at_us: now_us,
                                rule_id: coarser.id,
                                to,
                            });
                        }
                        self.obs.registry.counter_inc("core.degrades");
                        self.obs.spans.abandon("retry", rule_id);
                        let after = self.owner_audit_table(ladder_owner);
                        self.check_ladder_obligation(
                            now_us, coarser.id, &before, &after, &old_spec,
                        );
                        // Fresh change, fresh retry budget: the ladder
                        // can descend again if the coarser rule still
                        // does not fit.
                        self.queue.enqueue(AbstractChange::AddRule(coarser), now_us);
                        return;
                    }
                    // Covered by a surviving coarser rule, or already
                    // withdrawn: nothing left to install.
                    DegradeOutcome::Merged | DegradeOutcome::Unknown => return,
                    // Bottom of the ladder: fall through to dead-letter.
                    DegradeOutcome::Exhausted => {}
                }
            }
        } else if let AbstractChange::AddRule(rule) = &qc.change {
            // Permanent refusal: drop the rule from desired state so
            // rule_count()/telemetry reflect hardware reality and the
            // reconciler stops trying to repair it.
            if !self.controller.rule_refused(rule.id) {
                self.flowspec.rule_refused(rule.id);
            }
        }
        self.log.push(RecoveryEvent::DeadLettered {
            at_us: now_us,
            rule_id,
            error,
        });
        self.obs.registry.counter_inc("core.dead_letters");
        self.obs.spans.abandon("retry", rule_id);
        self.obs.event(
            now_us,
            "dead_letter",
            vec![
                ("rule_id".to_string(), rule_id.to_string()),
                ("error".to_string(), format!("{error:?}")),
                ("attempts".to_string(), attempts.to_string()),
            ],
        );
        let evicted = self.dead_letters.push(DeadLetter {
            change: qc.change,
            error,
            attempts,
            at_us: now_us,
        });
        if evicted > 0 {
            self.obs.registry.counter_add("deadletter.evicted", evicted);
        }
    }

    /// Every desired rule across both signaling planes, in rule-id order
    /// (FlowSpec ids sit above every signal id) — for the passes that
    /// really need the whole table: reconciliation and the placement
    /// proof.
    fn desired_table(&self) -> Vec<BlackholingRule> {
        let mut desired = self.controller.desired_rules();
        desired.extend(self.flowspec.desired_rules());
        desired
    }

    /// The `owners`' slice of [`Self::desired_table`] (`owners` sorted
    /// ascending), in the same rule-id order, built without touching
    /// anyone else's rules. Signal-derived and FlowSpec-derived rules
    /// share an owner's egress port, so it spans both planes.
    fn desired_of(&self, owners: &[Asn]) -> Vec<BlackholingRule> {
        let mut desired: Vec<BlackholingRule> = self.controller.desired_rules_of(owners).collect();
        for &owner in owners {
            desired.extend(self.flowspec.desired_rules_of(owner).cloned());
        }
        desired.sort_by_key(|r| r.id);
        desired
    }

    /// The ids of every desired rule across both planes, unordered.
    fn desired_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.controller
            .desired_ids()
            .chain(self.flowspec.desired_ids())
    }

    /// One owner's desired table across both signaling planes, in the
    /// audit shape the exact verifier consumes.
    fn owner_audit_table(&self, owner: Asn) -> Vec<stellar_classify::AuditRule> {
        proof::owner_table(&self.desired_of(&[owner]), owner)
    }

    /// Obligation (b): proves one degradation-ladder step monotone —
    /// the dropped set may only widen, and shaped traffic the replaced
    /// spec didn't cover must be untouched. A proven violation is
    /// recorded like any watchdog invariant break; budget exhaustion
    /// only bumps `verify.ladder.unverified` (exact-or-nothing, never a
    /// sampled verdict).
    fn check_ladder_obligation(
        &mut self,
        now_us: u64,
        rule_id: u64,
        before: &[stellar_classify::AuditRule],
        after: &[stellar_classify::AuditRule],
        old_spec: &stellar_classify::MatchSpec,
    ) {
        self.obs.registry.counter_inc("verify.ladder.checked");
        let dom = stellar_classify::Domain::canonical();
        match proof::check_ladder_step(before, after, old_spec, &dom, DEFAULT_VERIFY_BUDGET) {
            Ok(report) if report.is_monotone() => {
                let widened = report.widened_keys.min(u128::from(u64::MAX)) as u64;
                self.obs
                    .registry
                    .counter_add("verify.ladder.widened_keys", widened);
            }
            Ok(report) => {
                let detail = if let Some(r) = report.shrunk {
                    format!("rule_id={rule_id} dropped set shrank ({} keys)", r.keys)
                } else if let Some(r) = report.shaped_touched {
                    format!(
                        "rule_id={rule_id} uncovered shaped traffic touched ({} keys)",
                        r.keys
                    )
                } else {
                    format!("rule_id={rule_id}")
                };
                self.record_violation(now_us, Invariant::LadderMonotone, detail);
            }
            Err(_) => {
                self.obs.registry.counter_inc("verify.ladder.unverified");
            }
        }
    }

    /// One watchdog pass: evaluates the invariant catalogue against live
    /// state and records every violation (flight recorder event with a
    /// deterministic label, `watchdog.violations.*` counters, bounded
    /// in-memory record). `pump` runs this on the configured cadence;
    /// call it directly for a final end-of-run check. Returns how many
    /// violations this pass found.
    pub fn watchdog_check(&mut self, now_us: u64) -> usize {
        self.watchdog.begin_check(now_us);
        let quiet = self.watchdog.quiet(now_us);
        let mut found: Vec<(Invariant, String)> = Vec::new();

        // Ledger conservation: installs − removals must equal what the
        // hardware holds, at all times (the managers and the fabric keep
        // double-entry books).
        let (installs, removals) = self.ixp.fabric.rule_ledger();
        let total = self.ixp.fabric.total_rules() as u64;
        if installs.checked_sub(removals) != Some(total) {
            found.push((
                Invariant::LedgerConservation,
                format!("installs={installs} removals={removals} hardware={total}"),
            ));
        }
        if quiet && self.manager.installed_rules() as u64 != total {
            found.push((
                Invariant::LedgerConservation,
                format!(
                    "manager={} hardware={total}",
                    self.manager.installed_rules()
                ),
            ));
        }
        if quiet && total == 0 {
            for (pop, r) in self.ixp.fabric.routers().iter().enumerate() {
                let tcam = r.tcam();
                if tcam.l34_used() != 0 || tcam.mac_used() != 0 {
                    found.push((
                        Invariant::LedgerConservation,
                        format!(
                            "pop={pop} empty table but tcam l34={} mac={}",
                            tcam.l34_used(),
                            tcam.mac_used()
                        ),
                    ));
                }
            }
        }

        // The periodic obligations, answered from the proof ledger as far
        // as the state owners' stamps say nothing changed. Debug builds
        // run each again over an empty ledger: the incremental pass must
        // find what a full one does.
        let mut ledger = std::mem::take(&mut self.ledger);
        let rib_plane = self.check_rib_plane(&mut ledger);
        if cfg!(debug_assertions) {
            let full = self.check_rib_plane(&mut ProofLedger::default());
            assert_eq!(rib_plane.found, full.found, "incremental pass diverged");
        }
        found.extend(rib_plane.found);
        if quiet {
            // Convergence, orphan rules and obligation (c), placement
            // soundness.
            let pass = self.quiet_obligations(&mut ledger);
            if cfg!(debug_assertions) {
                let full = self.quiet_obligations(&mut ProofLedger::default());
                assert_eq!(pass.found, full.found, "incremental quiet pass diverged");
            }
            let reg = &mut self.obs.registry;
            if pass.unchanged {
                reg.counter_inc("watchdog.checks_unchanged");
            }
            if let Some(placement) = &pass.placement {
                reg.counter_add(
                    "verify.placement.ports_checked",
                    placement.ports_checked as u64,
                );
                if placement.unverified > 0 {
                    reg.counter_add("verify.placement.unverified", placement.unverified as u64);
                }
            }
            found.extend(pass.found);
        }
        self.ledger = ledger;

        // Dead-letter drainage: a parked requeue sitting past its release
        // time (plus pump-cadence slack) means the release machinery
        // stalled.
        for p in &self.parked {
            if now_us > p.release_at_us.saturating_add(PARKED_OVERDUE_SLACK_US) {
                found.push((
                    Invariant::DeadLetterDrain,
                    format!("rule_id={} parked past release", p.qc.change.rule_id()),
                ));
            }
        }

        let count = found.len();
        for (invariant, detail) in found {
            self.record_violation(now_us, invariant, detail);
        }
        count
    }

    /// Records one invariant violation: bounded in-memory record,
    /// `watchdog.violations.*` counters, flight-recorder event. Whatever
    /// broke, nothing the proof ledger holds is trusted past it.
    fn record_violation(&mut self, now_us: u64, invariant: Invariant, detail: String) {
        let v = self.watchdog.record(now_us, invariant, detail);
        self.obs.registry.counter_inc("watchdog.violations");
        self.obs
            .registry
            .counter_inc(&format!("watchdog.violations.{}", invariant.label()));
        self.obs.event(
            now_us,
            "watchdog.violation",
            vec![
                ("invariant".to_string(), invariant.label().to_string()),
                ("detail".to_string(), v.detail),
            ],
        );
        self.ledger = ProofLedger::default();
    }

    /// Nothing queued, deferred, parked or awaiting validation.
    fn nothing_in_flight(&self) -> bool {
        self.queue.backlog() == 0 && self.parked.is_empty() && self.pending_validation.is_empty()
    }

    /// The ids of the rules whose change is already on its way (queued,
    /// deferred, or parked in the dead-letter lot awaiting requeue).
    fn in_flight_ids(&self) -> HashSet<u64> {
        let parked = self.parked.iter().map(|p| &p.qc.change);
        self.queue
            .pending()
            .chain(parked)
            .map(AbstractChange::rule_id)
            .collect()
    }

    /// Reconciliation: diffs the controller's desired rule set against
    /// what is actually installed in hardware and queues repairs —
    /// re-adds for desired rules that vanished (edge-router restart),
    /// removals for hardware rules no longer desired. Changes already in
    /// flight in the queue are not repaired twice. Run this periodically;
    /// it is idempotent once the system has converged.
    pub fn reconcile(&mut self, now_us: u64) -> ReconcileReport {
        self.poll_faults(now_us);
        let mut report = ReconcileReport {
            pruned: self.manager.prune_vanished(&self.ixp.fabric).len(),
            ..Default::default()
        };
        let mut ledger = std::mem::take(&mut self.ledger);
        let diff = self.id_diff(&mut ledger);
        self.ledger = ledger;
        if !diff.is_empty() {
            // Work already on its way is not repaired twice.
            let in_flight = self.in_flight_ids();
            // Desired but missing from hardware: re-queue the install.
            if !diff.missing.is_empty() {
                for rule in self.desired_table() {
                    if diff.missing.binary_search(&rule.id).is_ok() && !in_flight.contains(&rule.id)
                    {
                        self.queue.enqueue(AbstractChange::AddRule(rule), now_us);
                        report.adds += 1;
                    }
                }
            }
            // Installed but not desired: queue the removal, in rule-id
            // order (owner looked up from the port the rule sits on).
            let extra: BTreeMap<u64, PortId> =
                diff.extra.iter().map(|&(port, id)| (id, port)).collect();
            for (rule_id, port_id) in extra {
                if in_flight.contains(&rule_id) {
                    continue;
                }
                let owner = self
                    .ixp
                    .fabric
                    .port(port_id)
                    .map(|p| Asn(p.member_asn))
                    .unwrap_or(Asn(0));
                self.queue
                    .enqueue(AbstractChange::RemoveRule { rule_id, owner }, now_us);
                report.removes += 1;
            }
        }
        self.obs.registry.counter_inc("core.reconcile.passes");
        self.obs
            .registry
            .counter_add("core.reconcile.adds", report.adds as u64);
        self.obs
            .registry
            .counter_add("core.reconcile.removes", report.removes as u64);
        self.obs
            .registry
            .counter_add("core.reconcile.pruned", report.pruned as u64);
        if !report.is_clean() {
            self.watchdog.note_activity(now_us);
            self.ledger = ProofLedger::default();
            self.log.push(RecoveryEvent::RepairsQueued {
                at_us: now_us,
                adds: report.adds,
                removes: report.removes,
                pruned: report.pruned,
            });
            // The divergence window opens at the first dirty pass (span
            // starts are first-wins, so repeat dirty passes keep the
            // original open time) and closes at the next clean pass.
            self.obs.span_start("reconcile_repair", 0, now_us);
        } else {
            self.obs.span_end("reconcile_repair", 0, now_us);
        }
        report
    }

    /// Whether desired state and hardware state agree and nothing is in
    /// flight — the convergence predicate of the fault-soak tests.
    pub fn is_converged(&self) -> bool {
        self.nothing_in_flight() && self.ids_agree(&self.ledger)
    }

    /// Pushes one tick of traffic through the fabric.
    pub fn traffic_tick(
        &mut self,
        offers: &[OfferedAggregate],
        tick_end_us: u64,
        tick_us: u64,
    ) -> BTreeMap<PortId, TickResult> {
        self.ixp
            .fabric
            .process_tick_in_place(offers, tick_end_us, tick_us);
        self.ixp.fabric.take_tick_results()
    }

    /// Telemetry for the given rules (§3.1).
    pub fn telemetry(&self, rule_ids: &[u64]) -> Vec<RuleTelemetry> {
        rule_telemetry(&self.ixp.fabric, &self.manager, rule_ids)
    }

    /// Rules currently active in hardware.
    pub fn active_rules(&self) -> usize {
        self.manager.installed_rules()
    }

    /// Scrapes every subsystem's gauges into the metrics registry: TCAM
    /// occupancy and per-port queue counters from the fabric, import
    /// counters from the route server, backlog depths from the
    /// configuration queue. Call before exporting a snapshot.
    pub fn observe(&mut self, _now_us: u64) {
        self.ixp.fabric.observe(&mut self.obs.registry);
        self.ixp.route_server.observe(&mut self.obs.registry);
        let reg = &mut self.obs.registry;
        reg.gauge_set("core.queue.backlog", self.queue.backlog() as i64);
        reg.gauge_set("core.queue.deferred", self.queue.deferred_len() as i64);
        reg.gauge_set("core.active_rules", self.manager.installed_rules() as i64);
        reg.gauge_set("core.flowspec_rules", self.flowspec.rule_count() as i64);
        reg.gauge_set("core.dead_letters", self.dead_letters.len() as i64);
        reg.gauge_set("core.parked", self.parked.len() as i64);
        reg.gauge_set(
            "core.pending_validation",
            self.pending_validation.len() as i64,
        );
        reg.counter_set("watchdog.checks", self.watchdog.checks());
    }

    /// Scrapes the gauges and writes the full snapshot to `path` — the
    /// `results/metrics_*.json` artifact the examples and the CI
    /// determinism gate consume.
    pub fn export_metrics(
        &mut self,
        path: impl AsRef<std::path::Path>,
        now_us: u64,
    ) -> std::io::Result<()> {
        self.observe(now_us);
        self.obs.export(path, now_us)
    }
}

#[cfg(test)]
mod audit_tests;

#[cfg(test)]
mod ledger_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_dataplane::hardware::HardwareInfoBase;
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::flow::FlowKey;
    use stellar_net::mac::MacAddr;
    use stellar_net::prefix::{Ipv4Prefix, Prefix};
    use stellar_net::proto::IpProtocol;
    use stellar_sim::topology::{generic_members, MemberSpec};

    fn system() -> StellarSystem {
        let mut specs = generic_members(64501, 9);
        specs.insert(
            0,
            MemberSpec {
                asn: 64500,
                capacity_bps: 1_000_000_000,
                prefixes: vec![Prefix::V4(
                    Ipv4Prefix::new(Ipv4Address::new(100, 10, 10, 0), 24).unwrap(),
                )],
            },
        );
        let ixp = IxpTopology::build(&specs, HardwareInfoBase::lab_switch());
        StellarSystem::new(ixp, 100.0)
    }

    fn victim() -> Prefix {
        "100.10.10.10/32".parse().unwrap()
    }

    fn ntp_offer(bytes: u64) -> OfferedAggregate {
        OfferedAggregate {
            key: FlowKey {
                src_mac: MacAddr::for_member(64505, 1),
                dst_mac: MacAddr::for_member(64500, 1),
                src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
                dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
                protocol: IpProtocol::UDP,
                src_port: 123,
                dst_port: 40000,
                ..FlowKey::default()
            },
            bytes,
            packets: bytes / 1400 + 1,
        }
    }

    #[test]
    fn end_to_end_signal_installs_rule_and_drops_attack() {
        let mut sys = system();
        let out = sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
        assert!(out.rejections.is_empty(), "{:?}", out.rejections);
        assert_eq!(out.queued_changes, 1);
        assert_eq!(sys.active_rules(), 0); // not yet pumped
        assert_eq!(sys.pump(0), 1);
        assert_eq!(sys.active_rules(), 1);

        let results = sys.traffic_tick(&[ntp_offer(1_000_000)], 1_000_000, 1_000_000);
        let port = sys.ixp.member(Asn(64500)).unwrap().port;
        assert_eq!(results[&port].counters.dropped_bytes, 1_000_000);
        assert_eq!(results[&port].counters.forwarded_bytes, 0);

        // Telemetry shows the discarded volume.
        let t = sys.telemetry(&[1]);
        assert_eq!(t[0].discarded_bytes, 1_000_000);
    }

    #[test]
    fn withdraw_removes_rule_and_traffic_flows_again() {
        let mut sys = system();
        sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 1);
        let out = sys.member_withdraw(Asn(64500), victim(), 1_000_000);
        assert_eq!(out.queued_changes, 1);
        sys.pump(1_000_000);
        assert_eq!(sys.active_rules(), 0);
        let results = sys.traffic_tick(&[ntp_offer(500)], 2_000_000, 1_000_000);
        let port = sys.ixp.member(Asn(64500)).unwrap().port;
        assert_eq!(results[&port].counters.forwarded_bytes, 500);
    }

    #[test]
    fn signal_for_unowned_prefix_is_rejected() {
        let mut sys = system();
        // 64501 does not own 100.10.10.0/24.
        let out = sys.member_signal(Asn(64501), victim(), &[StellarSignal::drop_udp_src(123)], 0);
        assert_eq!(out.queued_changes, 0);
        assert!(!out.rejections.is_empty());
        sys.pump(0);
        assert_eq!(sys.active_rules(), 0);
    }

    #[test]
    fn queue_rate_limits_installation() {
        let mut sys = system();
        // Signal five distinct rules at t=0 with a slow queue.
        sys.queue = ConfigChangeQueue::production(1.0); // 1/s, MBS 2
        let signals: Vec<StellarSignal> = [123u16, 53, 389, 11211, 19]
            .iter()
            .map(|p| StellarSignal::drop_udp_src(*p))
            .collect();
        let out = sys.member_signal(Asn(64500), victim(), &signals, 0);
        assert_eq!(out.queued_changes, 5);
        assert_eq!(sys.pump(0), 2); // MBS
        assert_eq!(sys.pump(1_000_000), 1);
        assert_eq!(sys.pump(2_000_000), 1);
        assert_eq!(sys.pump(3_000_000), 1);
        assert_eq!(sys.active_rules(), 5);
    }

    #[test]
    fn shadowed_signal_is_refused_by_the_audit() {
        let mut sys = system();
        sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_all()], 0);
        assert_eq!(sys.pump(0), 1);
        // Escalating to a port-scoped drop on top of drop-all: the new
        // rule can never be first-match and is refused at signal time.
        let out = sys.member_signal(
            Asn(64500),
            victim(),
            &[StellarSignal::drop_all(), StellarSignal::drop_udp_src(123)],
            1,
        );
        assert_eq!(out.queued_changes, 0);
        assert_eq!(
            out.audit_rejections,
            vec![(2, crate::audit::AuditRejection::Shadowed { by: Some(1) })]
        );
        assert_eq!(sys.obs.registry.counter("analyze.rejected_shadowed"), 1);
        assert_eq!(sys.obs.registry.counter("analyze.rejected_conflict"), 0);
        sys.pump(1);
        assert_eq!(sys.active_rules(), 1);
        // Desired state dropped the refused rule: the system is converged
        // and the reconciler will not resurrect it.
        assert!(sys.is_converged());
        assert!(sys.reconcile(2).is_clean());
    }

    #[test]
    fn conflicting_signal_is_refused_by_the_audit() {
        let mut sys = system();
        sys.member_signal(
            Asn(64500),
            victim(),
            &[StellarSignal::shape_udp_src(123, 200)],
            0,
        );
        sys.pump(0);
        // A drop on UDP *dst* 80 crosses the installed shape on UDP src
        // 123 (packets with src 123 AND dst 80 hit both; each rule also
        // matches traffic the other misses): refused as a conflict.
        let drop_dst = crate::signal::StellarSignal {
            kind: crate::signal::MatchKind::UdpDstPort,
            port: 80,
            action: crate::rule::RuleAction::Drop,
        };
        let out = sys.member_signal(
            Asn(64500),
            victim(),
            &[StellarSignal::shape_udp_src(123, 200), drop_dst],
            1,
        );
        assert_eq!(out.queued_changes, 0);
        assert_eq!(
            out.audit_rejections,
            vec![(2, crate::audit::AuditRejection::Conflict { with: 1 })]
        );
        assert_eq!(sys.obs.registry.counter("analyze.rejected_conflict"), 1);
        sys.pump(1);
        assert_eq!(sys.active_rules(), 1);
    }

    #[test]
    fn disjoint_signals_pass_the_audit_with_preadmit_accounting() {
        let mut sys = system();
        let out = sys.member_signal(
            Asn(64500),
            victim(),
            &[
                StellarSignal::drop_udp_src(123),
                StellarSignal::drop_udp_src(53),
            ],
            0,
        );
        assert_eq!(out.queued_changes, 2);
        assert!(out.audit_rejections.is_empty());
        assert_eq!(sys.obs.registry.counter("analyze.preadmit.batches"), 1);
        // Two victim-scoped UDP-src rules: 3 L3-L4 criteria each.
        assert_eq!(sys.obs.registry.counter("analyze.preadmit.l34_needed"), 6);
        assert_eq!(
            sys.obs.registry.counter("analyze.preadmit.would_exhaust"),
            0
        );
        sys.pump(0);
        assert_eq!(sys.active_rules(), 2);
    }

    fn fs_flow() -> FlowSpec {
        use stellar_bgp::flowspec::{Component, NumericOp};
        FlowSpec::new(
            stellar_bgp::types::Afi::Ipv4,
            vec![
                Component::DstPrefix(victim()),
                Component::IpProtocol(vec![NumericOp::equals(17)]),
                Component::SrcPort(vec![NumericOp::equals(123)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_flowspec_installs_rule_and_drops_attack() {
        let mut sys = system();
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        let out = sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
        assert!(out.rejections.is_empty(), "{:?}", out.rejections);
        assert!(out.lowering_errors.is_empty(), "{:?}", out.lowering_errors);
        assert!(out.audit_rejections.is_empty());
        assert_eq!(out.queued_changes, 1);
        assert_eq!(sys.obs.registry.counter("flowspec.accepted"), 1);
        assert_eq!(sys.pump(0), 1);
        assert_eq!(sys.active_rules(), 1);
        assert!(sys.is_converged());

        let results = sys.traffic_tick(&[ntp_offer(1_000_000)], 1_000_000, 1_000_000);
        let port = sys.ixp.member(Asn(64500)).unwrap().port;
        assert_eq!(results[&port].counters.dropped_bytes, 1_000_000);
        assert_eq!(results[&port].counters.forwarded_bytes, 0);
    }

    #[test]
    fn flowspec_from_non_owner_is_rejected() {
        let mut sys = system();
        let drop = ExtendedCommunity::traffic_rate(64501, 0.0);
        // 64501 does not own 100.10.10.0/24.
        let out = sys.member_flowspec(Asn(64501), fs_flow(), &[drop], 0);
        assert_eq!(out.queued_changes, 0);
        assert_eq!(out.rejections.len(), 1);
        assert_eq!(sys.obs.registry.counter("flowspec.rejected_validation"), 1);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 0);
    }

    #[test]
    fn flowspec_withdraw_removes_lowered_rules() {
        let mut sys = system();
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 1);
        let out = sys.member_flowspec_withdraw(Asn(64500), fs_flow(), 1_000_000);
        assert_eq!(out.queued_changes, 1);
        sys.pump(1_000_000);
        assert_eq!(sys.active_rules(), 0);
        assert!(sys.is_converged());
    }

    #[test]
    fn flowspec_shadowed_by_signal_rule_is_audit_refused() {
        let mut sys = system();
        // A signal-derived drop-all on the victim's port...
        sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_all()], 0);
        assert_eq!(sys.pump(0), 1);
        // ...shadows the narrower FlowSpec rule: the two planes audit as
        // one table per owner.
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        let out = sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 1);
        assert_eq!(out.queued_changes, 0);
        assert_eq!(out.audit_rejections.len(), 1);
        assert_eq!(sys.obs.registry.counter("flowspec.rejected_audit"), 1);
        assert_eq!(sys.obs.registry.counter("flowspec.accepted"), 0);
        sys.pump(1);
        assert_eq!(sys.active_rules(), 1);
        assert!(sys.is_converged());
        assert!(sys.reconcile(2).is_clean());
    }

    #[test]
    fn unlowerable_flowspec_is_counted_not_installed() {
        use stellar_bgp::flowspec::{Component, NumericOp};
        let mut sys = system();
        // dscp > 63 can match no packet (the field is 6 bits wide):
        // lowering refuses it as an empty match.
        let flow = FlowSpec::new(
            stellar_bgp::types::Afi::Ipv4,
            vec![
                Component::DstPrefix(victim()),
                Component::Dscp(vec![NumericOp::new(false, false, true, false, 63)]),
            ],
        )
        .unwrap();
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        let out = sys.member_flowspec(Asn(64500), flow, &[drop], 0);
        assert_eq!(out.queued_changes, 0);
        assert_eq!(out.lowering_errors.len(), 1);
        assert_eq!(sys.obs.registry.counter("flowspec.rejected_lowering"), 1);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 0);
        assert!(sys.is_converged());
    }

    fn scripted(events: Vec<(u64, FaultKind)>) -> crate::faults::FaultPlan {
        crate::faults::FaultPlan::scripted(
            events
                .into_iter()
                .map(|(at_us, kind)| FaultEvent { at_us, kind })
                .collect(),
        )
    }

    #[test]
    fn corrupt_flowspec_fault_is_refused_without_poisoning_the_rib() {
        let mut sys = system();
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 1);
        // Corruptions with both salt parities (bit-flip and truncation).
        sys.inject_faults(scripted(vec![
            (
                1_000_000,
                FaultKind::FlowSpecCorrupt {
                    peer: Asn(64501),
                    salt: 3,
                },
            ),
            (
                1_500_000,
                FaultKind::FlowSpecCorrupt {
                    peer: Asn(64501),
                    salt: 4,
                },
            ),
        ]));
        sys.pump(1_000_000);
        sys.pump(1_500_000);
        assert_eq!(sys.ixp.route_server.flowspec_stats().malformed, 2);
        // Neither the RIB, the plane, nor the hardware moved.
        assert_eq!(sys.ixp.route_server.flowspec_routes().len(), 1);
        assert_eq!(sys.flowspec.rule_count(), 1);
        assert_eq!(sys.active_rules(), 1);
        assert!(sys.is_converged());
        sys.watchdog_check(60_000_000);
        assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
    }

    #[test]
    fn corrupt_flowspec_fault_without_live_rules_uses_fallback_fragment() {
        let mut sys = system();
        sys.inject_faults(scripted(vec![(
            0,
            FaultKind::FlowSpecCorrupt {
                peer: Asn(64500),
                salt: 0,
            },
        )]));
        sys.pump(0);
        assert_eq!(sys.ixp.route_server.flowspec_stats().malformed, 1);
        assert!(sys.ixp.route_server.flowspec_routes().is_empty());
        assert!(sys.is_converged());
    }

    #[test]
    fn validation_brownout_defers_then_accepts() {
        let mut sys = system();
        sys.inject_faults(scripted(vec![(
            0,
            FaultKind::ValidationBrownout {
                duration_us: 2_000_000,
            },
        )]));
        sys.pump(0);
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        let out = sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 100_000);
        // Fail-closed, parked for retry: neither accepted nor rejected.
        assert_eq!(out.deferred, 1);
        assert!(out.rejections.is_empty());
        assert_eq!(out.queued_changes, 0);
        assert_eq!(sys.obs.registry.counter("flowspec.validation_deferred"), 1);
        assert_eq!(sys.active_rules(), 0);
        let mut t = 250_000;
        while t <= 10_000_000 {
            sys.pump(t);
            t += 250_000;
        }
        // The oracle came back inside the retry budget: the rule landed.
        assert_eq!(sys.obs.registry.counter("flowspec.accepted"), 1);
        assert_eq!(sys.obs.registry.counter("flowspec.validation_expired"), 0);
        assert_eq!(sys.active_rules(), 1);
        assert!(sys.is_converged());
        sys.watchdog_check(60_000_000);
        assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
    }

    #[test]
    fn permanent_oracle_outage_exhausts_the_validation_budget() {
        let mut sys = system();
        sys.inject_faults(scripted(vec![(
            0,
            FaultKind::ValidationBrownout {
                duration_us: 3_600_000_000,
            },
        )]));
        sys.pump(0);
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
        let mut t = 250_000;
        while t <= 600_000_000 {
            sys.pump(t);
            t += 250_000;
        }
        assert_eq!(sys.obs.registry.counter("flowspec.validation_expired"), 1);
        assert_eq!(sys.active_rules(), 0);
        assert!(
            sys.is_converged(),
            "expired announcements leave nothing in flight"
        );
    }

    #[test]
    fn delivery_chaos_delays_and_reorders_but_converges() {
        let mut sys = system();
        sys.inject_faults(scripted(vec![(
            0,
            FaultKind::DeliveryChaos {
                duration_us: 2_000_000,
                max_delay_us: 1_000_000,
            },
        )]));
        sys.pump(0);
        let signals: Vec<StellarSignal> = [123u16, 53, 389]
            .iter()
            .map(|p| StellarSignal::drop_udp_src(*p))
            .collect();
        let out = sys.member_signal(Asn(64500), victim(), &signals, 100_000);
        assert_eq!(out.queued_changes, 3);
        // The group was held back by the chaos window, not applied now.
        assert!(sys.obs.registry.counter("core.delivery.delayed") >= 1);
        assert_eq!(sys.pump(100_000), 0);
        let mut t = 250_000;
        while t <= 6_000_000 {
            sys.pump(t);
            t += 250_000;
        }
        assert_eq!(sys.active_rules(), 3);
        assert!(sys.is_converged());
        sys.watchdog_check(60_000_000);
        assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
    }

    #[test]
    fn peer_flap_flushes_rules_and_resignaling_recovers() {
        let mut sys = system();
        sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 1);
        sys.inject_faults(scripted(vec![
            (1_000_000, FaultKind::PeerDown { peer: Asn(64500) }),
            (2_000_000, FaultKind::PeerUp { peer: Asn(64500) }),
        ]));
        let mut t = 1_000_000;
        while t <= 4_000_000 {
            sys.pump(t);
            t += 250_000;
        }
        // The flap flushed the member's routes; blackholing is
        // per-announcement state, so the rule is gone until re-signaled.
        assert_eq!(sys.active_rules(), 0);
        assert!(sys.is_converged());
        let out = sys.member_signal(
            Asn(64500),
            victim(),
            &[StellarSignal::drop_udp_src(123)],
            5_000_000,
        );
        assert!(out.rejections.is_empty(), "{:?}", out.rejections);
        sys.pump(5_000_000);
        assert_eq!(sys.active_rules(), 1);
        sys.watchdog_check(60_000_000);
        assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
    }

    #[test]
    fn peer_flap_also_flushes_flowspec_plane() {
        let mut sys = system();
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 1);
        assert_eq!(sys.flowspec.rule_count(), 1);
        sys.inject_faults(scripted(vec![(
            1_000_000,
            FaultKind::PeerDown { peer: Asn(64500) },
        )]));
        let mut t = 1_000_000;
        while t <= 3_000_000 {
            sys.pump(t);
            t += 250_000;
        }
        assert_eq!(sys.flowspec.rule_count(), 0);
        assert_eq!(sys.active_rules(), 0);
        assert!(sys.ixp.route_server.flowspec_routes().is_empty());
        assert!(sys.is_converged());
        sys.watchdog_check(60_000_000);
        assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
    }

    #[test]
    fn flowspec_overload_parks_and_requeues_instead_of_dead_lettering() {
        let mut sys = system();
        // A brownout longer than the whole retry ladder: the FlowSpec add
        // exhausts its attempts while the interface is down.
        sys.inject_faults(scripted(vec![(
            0,
            FaultKind::InstallBrownout {
                duration_us: 5_000_000,
            },
        )]));
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        sys.member_flowspec(Asn(64500), fs_flow(), &[drop], 0);
        let mut t = 0;
        while t <= 20_000_000 {
            sys.pump(t);
            t += 250_000;
        }
        // Parked once, requeued once, installed on the second life.
        assert_eq!(sys.obs.registry.counter("deadletter.parked"), 1);
        assert_eq!(sys.obs.registry.counter("deadletter.requeued"), 1);
        assert_eq!(sys.obs.registry.counter("core.dead_letters"), 0);
        assert!(sys.dead_letters.is_empty());
        assert!(sys
            .log
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Requeued { requeue: 1, .. })));
        assert_eq!(sys.active_rules(), 1);
        assert!(sys.is_converged());
        sys.watchdog_check(60_000_000);
        assert!(sys.watchdog.is_clean(), "{:?}", sys.watchdog.violations());
    }

    #[test]
    fn watchdog_flags_orphans_and_divergence() {
        let mut sys = system();
        sys.member_signal(Asn(64500), victim(), &[StellarSignal::drop_udp_src(123)], 0);
        sys.pump(0);
        assert_eq!(sys.active_rules(), 1);
        // Sabotage: drop desired state directly, without queueing the
        // removal the real paths would queue. The hardware rule is now an
        // orphan and the system can never converge on its own.
        sys.controller.session_down();
        let found = sys.watchdog_check(60_000_000);
        assert!(found >= 2, "expected convergence + orphan, got {found}");
        assert!(!sys.watchdog.is_clean());
        assert_eq!(
            sys.obs.registry.counter("watchdog.violations.orphan_rules"),
            1
        );
        assert_eq!(
            sys.obs.registry.counter("watchdog.violations.convergence"),
            1
        );
        assert_eq!(
            sys.obs.registry.counter("watchdog.violations"),
            sys.watchdog.total_violations()
        );
    }

    #[test]
    fn a_fresh_system_runs_the_control_constants() {
        let mut sys = system();
        assert_eq!(sys.reconcile_interval_us, RECONCILE_INTERVAL_US);
        // The dead-letter ring keeps its default capacity, then drops
        // the oldest letter.
        let cap = DeadLetterLog::DEFAULT_CAPACITY as u64;
        for i in 0..=cap {
            sys.dead_letters.push(DeadLetter {
                change: AbstractChange::RemoveRule {
                    rule_id: i,
                    owner: Asn(64500),
                },
                error: AdmissionError::Transient,
                attempts: 1,
                at_us: i,
            });
        }
        assert_eq!(sys.dead_letters.len() as u64, cap);
        assert_eq!(sys.dead_letters.evicted(), 1);
        assert_eq!(sys.dead_letters.iter().next().map(|d| d.at_us), Some(1));
    }

    #[test]
    fn shaping_signal_gives_telemetry_sample() {
        let mut sys = system();
        sys.member_signal(
            Asn(64500),
            victim(),
            &[StellarSignal::shape_udp_src(123, 200)],
            0,
        );
        sys.pump(0);
        // 1 Gbps attack for one second into the 1 Gbps port.
        let results = sys.traffic_tick(&[ntp_offer(125_000_000)], 1_000_000, 1_000_000);
        let port = sys.ixp.member(Asn(64500)).unwrap().port;
        let c = &results[&port].counters;
        // ~200 Mbps passes as telemetry, the rest is shaped away.
        assert!(c.shaped_bytes > 20_000_000 && c.shaped_bytes < 30_000_000);
        assert!(c.shape_dropped_bytes > 90_000_000);
    }
}
