//! Apply: dequeue what the token bucket allows, install it through the
//! network manager, and walk every refusal down one failure ladder —
//! retry with backoff, park and requeue (FlowSpec), degrade with
//! obligation (b) (signals), dead-letter.

use super::StellarSystem;
use crate::config_queue::QueuedChange;
use crate::controller::{AbstractChange, DegradeOutcome};
use crate::faults::{DeadLetter, RecoveryEvent, DEADLETTER_REQUEUES};
use crate::manager::{AdmissionError, NetworkManager};
use crate::proof::{self, DEFAULT_VERIFY_BUDGET};
use crate::rule::BlackholingRule;
use crate::watchdog::Invariant;

/// A FlowSpec overload refusal parked in the dead-letter lot with a
/// cool-off, instead of being terminally dead-lettered.
#[derive(Debug)]
pub(super) struct ParkedChange {
    pub(super) qc: QueuedChange,
    pub(super) release_at_us: u64,
}

impl StellarSystem {
    /// Dequeues what the token bucket allows at `now_us` and applies it
    /// to the fabric; refusals go down the failure ladder. Returns how
    /// many changes were applied.
    pub(super) fn apply_ready(&mut self, now_us: u64) -> usize {
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
                    let counter = match qc.change {
                        AbstractChange::AddRule(_) => "core.installs",
                        AbstractChange::RemoveRule { .. } => "core.removals",
                    };
                    self.obs.registry.counter_inc(counter);
                    if qc.attempts > 0 {
                        // Closes the retry episode opened at first failure.
                        self.obs.span_end("retry", qc.change.rule_id(), now_us);
                    }
                }
                Err(e) => self.handle_failure(qc, e, now_us),
            }
        }
        applied
    }

    /// Releases parked dead-letter requeues whose cool-off has expired
    /// back into the queue with a fresh retry budget.
    pub(super) fn release_parked(&mut self, now_us: u64) {
        for p in self.parked.extract_if(.., |p| p.release_at_us <= now_us) {
            self.obs.registry.counter_inc("deadletter.requeued");
            self.watchdog.note_activity(now_us);
            self.queue.readmit(p.qc, now_us);
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
        // The one signal-vs-FlowSpec decision of the ladder: only
        // signal-derived adds have a degradation ladder, FlowSpec adds a
        // park-and-requeue round instead.
        let add = match &qc.change {
            AbstractChange::AddRule(r) => Some((r, r.signal().is_some())),
            AbstractChange::RemoveRule { .. } => None,
        };
        let flowspec_add = add.is_some_and(|(_, signal)| !signal);
        // FlowSpec installs have no degradation ladder to absorb an
        // overloaded fabric, so a retry-exhausted but still-retryable
        // refusal gets a bounded second life: park with a long cool-off
        // and requeue with a fresh retry budget. Desired state is kept —
        // the rule is still wanted, just not installable right now.
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
        // exhaustion of a signal rule gets one more option: trade
        // precision for fit. Every other refused add — FlowSpec rules
        // included: widening a lowered spec would silently match traffic
        // the member never asked to filter — leaves desired state.
        if let Some((rule, signal)) = add {
            if signal && error.is_degradable() {
                if self.degrade(rule, now_us) {
                    return;
                }
            } else {
                self.refuse(rule.id);
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

    /// Steps a TCAM-refused signal rule one rung down the degradation
    /// ladder and queues the coarser rule, proving the step monotone
    /// (obligation (b)). Returns false at the bottom of the ladder, where
    /// the rule is dead-lettered.
    fn degrade(&mut self, rule: &BlackholingRule, now_us: u64) -> bool {
        // Obligation (b) needs the owner's table and the old spec as they
        // were *before* the ladder rewrites desired state.
        let old_spec = rule.match_spec();
        let owner_table =
            |sys: &Self| proof::owner_table(&sys.desired_of(&[rule.owner]), rule.owner);
        let before = owner_table(self);
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
                self.obs.spans.abandon("retry", rule.id);
                let after = owner_table(self);
                self.check_ladder_obligation(now_us, coarser.id, &before, &after, &old_spec);
                // Fresh change, fresh retry budget: the ladder can
                // descend again if the coarser rule still does not fit.
                self.queue.enqueue(AbstractChange::AddRule(coarser), now_us);
                true
            }
            // Covered by a surviving coarser rule, or already withdrawn:
            // nothing left to install.
            DegradeOutcome::Merged | DegradeOutcome::Unknown => true,
            // Bottom of the ladder: dead-letter.
            DegradeOutcome::Exhausted => false,
        }
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
        let dom = stellar_classify::Domain::key_space();
        match proof::check_ladder_step(before, after, old_spec, dom, DEFAULT_VERIFY_BUDGET) {
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
}
