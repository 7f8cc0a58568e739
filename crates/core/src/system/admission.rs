//! Admission: route-server output → controller diff or FlowSpec lowering
//! → static batch audit → configuration queue. Every path that grows
//! desired state — member signals and FlowSpec announcements, oracle-
//! deferred resubmissions, fault-driven re-emissions — goes through
//! [`StellarSystem::admit_updates`] or [`StellarSystem::admit_lowering`],
//! and a rule refused for good leaves desired state through
//! [`StellarSystem::refuse`] alone.

use super::{FlowSpecOutcome, SignalOutcome, StellarSystem};
use crate::audit::{AuditRejection, Auditor, BatchAudit, Standing};
use crate::controller::AbstractChange;
use crate::flowspec::{LowerError, FLOWSPEC_RULE_ID_BASE};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::FlowSpec;
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_classify::analyze::DEFAULT_WITNESS_BUDGET;
use stellar_routeserver::{AcceptedFlowSpec, FlowSpecOutput};

/// A FlowSpec announcement whose RFC 9117 validation failed closed
/// during an oracle brownout, awaiting its backoff before resubmission.
#[derive(Debug)]
pub(super) struct PendingValidation {
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

impl StellarSystem {
    /// The route server's unicast output for the controller: each update
    /// diffed into changes, audited and queued.
    pub(super) fn admit_updates(
        &mut self,
        updates: &[UpdateMessage],
        now_us: u64,
    ) -> SignalOutcome {
        let mut outcome = SignalOutcome::default();
        for update in updates {
            let mut changes = self.controller.process_update(update);
            self.audit_changes(&mut changes, &mut outcome.audit_rejections, now_us);
            outcome.queued_changes += changes.len();
            // One emission carrying several changes is a same-path swap
            // (e.g. shape→drop escalation): dequeue it atomically so the
            // victim is never unprotected between Remove and Add.
            self.enqueue_changes(changes, now_us);
        }
        outcome
    }

    /// One accepted NLRI lowered into desired state, audited and queued
    /// (its specs install atomically, like a same-path signal swap).
    /// Returns how many changes were queued.
    pub(super) fn admit_lowering(
        &mut self,
        acc: &AcceptedFlowSpec,
        rejections: &mut Vec<(u64, AuditRejection)>,
        now_us: u64,
    ) -> Result<usize, LowerError> {
        let installed = self.flowspec.install(acc);
        // Obligation (a) left undischarged is never invisible: a lowering
        // admitted without proof is counted and named in the flight
        // recorder, like the other three `*.unverified` counters.
        if let Some(unverified) = self.flowspec.take_unverified() {
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
        let mut changes = installed?;
        self.audit_changes(&mut changes, rejections, now_us);
        let queued = changes.len();
        self.enqueue_changes(changes, now_us);
        Ok(queued)
    }

    /// The shared announcement path for fresh submissions
    /// (`prior_attempts == 0`) and oracle-brownout resubmissions.
    pub(super) fn submit_flowspec(
        &mut self,
        member: Asn,
        flow: FlowSpec,
        actions: Vec<ExtendedCommunity>,
        prior_attempts: u32,
        now_us: u64,
    ) -> FlowSpecOutcome {
        let update = UpdateMessage::announce_flowspec(member, flow, &actions);
        let rs_out = self
            .ixp
            .route_server
            .handle_flowspec_update(member, &update);
        self.admit_flowspec_output(member, rs_out, &actions, prior_attempts, now_us)
    }

    /// Admits the route server's FlowSpec output into the change queue:
    /// withdrawals first (RFC 4271 processing order), then accepted
    /// announcements through lowering and the static batch audit. Every
    /// fate increments its `flowspec.*` counter. Transient rejections
    /// (oracle brownout fails closed) are deferred for resubmission with
    /// backoff instead of being terminally refused.
    pub(super) fn admit_flowspec_output(
        &mut self,
        member: Asn,
        rs_out: FlowSpecOutput,
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
            // A transient rejection (oracle brownout) fails closed, but
            // not forever: the announcement is parked and resubmitted
            // once the backoff expires. Only a permanently dark oracle
            // exhausts the budget into a real rejection.
            let attempts = prior_attempts + 1;
            if reason.is_transient() && attempts < VALIDATION_RETRY_ATTEMPTS {
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
                continue;
            }
            let mut fields = vec![("reason".to_string(), reason.describe().to_string())];
            let counter = if reason.is_transient() {
                fields.push(("attempts".to_string(), attempts.to_string()));
                "flowspec.validation_expired"
            } else {
                "flowspec.rejected_validation"
            };
            self.obs.registry.counter_inc(counter);
            self.obs.event(now_us, "flowspec.rejected", fields);
            outcome.rejections.push((flow, reason));
        }
        for acc in rs_out.accepted {
            let before = outcome.audit_rejections.len();
            match self.admit_lowering(&acc, &mut outcome.audit_rejections, now_us) {
                Err(e) => {
                    self.obs.registry.counter_inc("flowspec.rejected_lowering");
                    self.obs.event(
                        now_us,
                        "flowspec.rejected",
                        vec![("reason".to_string(), e.describe().to_string())],
                    );
                    outcome.lowering_errors.push((acc.flow, e));
                }
                Ok(queued) => {
                    let audit_rejected = outcome.audit_rejections.len() - before;
                    self.obs
                        .registry
                        .counter_add("flowspec.rejected_audit", audit_rejected as u64);
                    if audit_rejected == 0 {
                        self.obs.registry.counter_inc("flowspec.accepted");
                    }
                    outcome.queued_changes += queued;
                }
            }
        }
        outcome
    }

    /// Resubmits oracle-deferred announcements whose backoff has expired.
    pub(super) fn retry_pending_validation(&mut self, now_us: u64) {
        let pending = self
            .pending_validation
            .extract_if(.., |pv| pv.not_before_us <= now_us);
        for pv in pending.collect::<Vec<_>>() {
            self.submit_flowspec(pv.member, pv.flow, pv.actions, pv.attempts, now_us);
        }
    }

    /// Static batch audit (see [`crate::audit`]): judges the proposed
    /// adds — and only them — against their owner's full desired rule
    /// table, refuses the ones that come back shadowed or
    /// crossing-conflicted (they leave desired state and never reach the
    /// queue), and accounts the survivors' TCAM footprint against the
    /// free pools. The owner's table is read in place from both planes,
    /// each rule with the region built when it entered desired state:
    /// nothing is cloned or canonicalised here, and the cost follows the
    /// candidates and their owner's table, not the number of standing
    /// rules at the IXP. Degrade and reconcile repairs skip this gate:
    /// they re-install rules the audit already admitted.
    fn audit_changes(
        &mut self,
        changes: &mut Vec<AbstractChange>,
        rejections: &mut Vec<(u64, AuditRejection)>,
        now_us: u64,
    ) {
        // Rules only compete within an owner's egress port, so only the
        // candidates' owners' tables are judged.
        let (candidate_ids, mut owners): (Vec<u64>, Vec<Asn>) = changes
            .iter()
            .filter_map(|c| match c {
                AbstractChange::AddRule(r) => Some((r.id, r.owner)),
                AbstractChange::RemoveRule { .. } => None,
            })
            .unzip();
        if candidate_ids.is_empty() {
            return;
        }
        owners.sort_unstable();
        owners.dedup();
        let mut auditor = Auditor::new(&self.ixp.fabric, DEFAULT_WITNESS_BUDGET);
        let mut table: Vec<Standing> = Vec::new();
        for owner in owners {
            table.clear();
            table.extend(self.standing_of(owner));
            table.sort_unstable_by_key(|r| r.id);
            debug_assert!(
                table.iter().all(Standing::region_is_current),
                "cached region diverged from its rule's spec"
            );
            auditor.judge(self.manager.owner_port(owner), &table, &candidate_ids);
        }
        let audit = auditor.finish();
        // Unit-test builds of this crate check every verdict against the
        // whole-table reference before acting on it.
        #[cfg(test)]
        self.assert_matches_whole_table_audit(&audit, changes);
        self.apply_audit(&audit, changes, rejections, now_us);
    }

    /// Acts on an audit verdict: refused candidates leave desired state
    /// and `changes`, every fate is counted and logged.
    pub(super) fn apply_audit(
        &mut self,
        audit: &BatchAudit,
        changes: &mut Vec<AbstractChange>,
        rejections: &mut Vec<(u64, AuditRejection)>,
        now_us: u64,
    ) {
        for (rule_id, rejection) in &audit.rejected {
            self.refuse(*rule_id);
            changes.retain(|c| !matches!(c, AbstractChange::AddRule(r) if r.id == *rule_id));
            let (counter, key, value) = match rejection {
                AuditRejection::Shadowed { by } => {
                    let by = by.map_or("union".into(), |b| b.to_string());
                    ("analyze.rejected_shadowed", "by", by)
                }
                AuditRejection::Conflict { with } => {
                    ("analyze.rejected_conflict", "with", with.to_string())
                }
                AuditRejection::EmptyMatch => {
                    ("analyze.rejected_empty", "reason", "empty-match".into())
                }
                AuditRejection::Duplicate { of } => {
                    ("analyze.rejected_duplicate", "of", of.to_string())
                }
            };
            let detail = (key.to_string(), value);
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

    /// A rule refused for good — by the audit, or permanently by
    /// admission control — leaves the desired state of the plane its id
    /// belongs to, so `rule_count()` and telemetry reflect hardware
    /// reality and the reconciler stops trying to repair it. The planes'
    /// id spaces are disjoint at [`FLOWSPEC_RULE_ID_BASE`].
    pub(super) fn refuse(&mut self, rule_id: u64) {
        if rule_id >= FLOWSPEC_RULE_ID_BASE {
            self.flowspec.rule_refused(rule_id);
        } else {
            self.controller.rule_refused(rule_id);
        }
    }

    /// Admits a group of changes to the queue, routing them through the
    /// delivery-chaos window when one is armed: a chaotic delivery holds
    /// the group back by a deterministic pseudo-random delay, reordering
    /// it against groups enqueued after it (announcement delivery is not
    /// FIFO under chaos). Groups stay atomic either way.
    pub(super) fn enqueue_changes(&mut self, changes: Vec<AbstractChange>, now_us: u64) {
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
}
