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
//!
//! Each pipeline stage owns one decision in its own module: `admission`
//! (route-server output → controller diff or FlowSpec lowering → audit
//! → queue), `apply` (dequeue → install → failure ladder), `inject`
//! (scripted faults) and `ledger` (watch and repair). This file keeps the
//! state, the public entries and the desired-state views they share.

use crate::audit::{AuditRejection, Standing};
use crate::config_queue::ConfigChangeQueue;
use crate::controller::{AbstractChange, BlackholingController};
use crate::faults::{FaultInjector, RecoveryEvent, RetryPolicy, RECONCILE_INTERVAL_US};
use crate::flowspec::{FlowSpecPlane, LowerError};
use crate::manager::{DeadLetterLog, NetworkManager};
use crate::qos_manager::QosNetworkManager;
use crate::rule::BlackholingRule;
use crate::signal::StellarSignal;
use crate::telemetry::{rule_telemetry, RuleTelemetry};
use crate::watchdog::Watchdog;
use std::collections::{BTreeMap, BTreeSet, HashSet};
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

mod admission;
mod apply;
mod inject;
mod ledger;
use admission::PendingValidation;
use apply::ParkedChange;
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
        SignalOutcome {
            rejections: rs_out.rejections,
            ..self.admit_updates(&rs_out.controller_updates, now_us)
        }
    }

    /// A member withdraws its signal (attack over): the /32 is withdrawn
    /// and every rule attached to it is queued for removal.
    pub fn member_withdraw(&mut self, member: Asn, victim: Prefix, now_us: u64) -> SignalOutcome {
        let update = UpdateMessage::withdraw(victim);
        let rs_out = self.ixp.route_server.handle_update(member, &update, now_us);
        self.admit_updates(&rs_out.controller_updates, now_us)
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

    /// A member withdraws a FlowSpec rule (MP_UNREACH, SAFI 133): every
    /// match spec it lowered to is queued for removal.
    pub fn member_flowspec_withdraw(
        &mut self,
        member: Asn,
        flow: FlowSpec,
        now_us: u64,
    ) -> FlowSpecOutcome {
        let update = UpdateMessage::withdraw_flowspec(flow);
        let rs_out = self
            .ixp
            .route_server
            .handle_flowspec_update(member, &update);
        self.admit_flowspec_output(member, rs_out, &[], 0, now_us)
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
        let applied = self.apply_ready(now_us);
        if self.watchdog.due(now_us) {
            self.watchdog_check(now_us);
        }
        applied
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

    /// Every desired rule across both signaling planes, in rule-id order
    /// (FlowSpec ids sit above every signal id) — for the passes that
    /// really need the whole table: reconciliation and the placement
    /// proof.
    fn desired_table(&self) -> Vec<BlackholingRule> {
        let mut desired = self.controller.desired_rules();
        desired.extend(self.flowspec.desired_rules());
        desired
    }

    /// The `owners`' slice of [`Self::desired_table`], in the same
    /// rule-id order, built without touching anyone else's rules.
    /// Signal-derived and FlowSpec-derived rules share an owner's egress
    /// port, so it spans both planes.
    fn desired_of(&self, owners: &[Asn]) -> Vec<BlackholingRule> {
        let (signaled, lowered) = (self.controller.table(), self.flowspec.table());
        let of = |&owner| signaled.rules_of(owner).chain(lowered.rules_of(owner));
        let mut desired: Vec<BlackholingRule> = owners.iter().flat_map(of).collect();
        desired.sort_unstable_by_key(|r| r.id);
        desired
    }

    /// Both planes' revisions of one owner (each only grows, so the sum
    /// moves with either).
    fn owner_revision(&self, owner: Asn) -> u64 {
        self.controller.table().revision(owner) + self.flowspec.table().revision(owner)
    }

    /// How many rules are desired, of `owner` alone or (`None`) in all.
    fn desired_count(&self, owner: Option<Asn>) -> usize {
        let (signaled, lowered) = (self.controller.table(), self.flowspec.table());
        match owner {
            Some(owner) => signaled.ids_of(owner).count() + lowered.ids_of(owner).count(),
            None => signaled.count() + lowered.count(),
        }
    }

    /// The owners with at least one desired rule, ascending, each once.
    fn desired_owners(&self) -> BTreeSet<Asn> {
        let mut owners: BTreeSet<Asn> = self.controller.table().owners().collect();
        owners.extend(self.flowspec.table().owners());
        owners
    }

    /// The ids of the `owners`' desired rules, each with its owner, in
    /// no particular order.
    fn desired_ids_of<'a>(
        &'a self,
        owners: impl Iterator<Item = Asn> + 'a,
    ) -> impl Iterator<Item = (Asn, u64)> + 'a {
        let (signaled, lowered) = (self.controller.table(), self.flowspec.table());
        owners.flat_map(move |owner| {
            let ids = signaled.ids_of(owner).chain(lowered.ids_of(owner));
            ids.map(move |id| (owner, id))
        })
    }

    /// The ids of every desired rule across both planes, unordered.
    fn desired_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let (signaled, lowered) = (self.controller.table(), self.flowspec.table());
        let ids = signaled.owners().flat_map(|owner| signaled.ids_of(owner));
        ids.chain(lowered.owners().flat_map(|owner| lowered.ids_of(owner)))
    }

    /// `owner`'s rules across both planes as the admission audit reads
    /// them, each with the region built when it entered desired state,
    /// in no particular order.
    fn standing_of(&self, owner: Asn) -> impl Iterator<Item = Standing<'_>> {
        let (signaled, lowered) = (self.controller.table(), self.flowspec.table());
        signaled
            .standing_of(owner)
            .chain(lowered.standing_of(owner))
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
}

#[cfg(test)]
mod audit_tests;

#[cfg(test)]
mod ledger_tests;

#[cfg(test)]
mod tests;
