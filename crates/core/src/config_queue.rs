//! The blackholing manager's configuration-change queue (§4.4).
//!
//! "To limit the number of configuration changes within any time interval
//! to a rate that is manageable by the switch hardware, the queue uses a
//! Token Bucket algorithm. This ensures that the configurable Maximum
//! Burst Size (MBS) and a reasonable long-term rate limit is never
//! exceeded." Fig. 10(b) measures the waiting time this queue induces at
//! dequeue rates of 4/s and 5/s.
//!
//! Beyond the paper's metering, the queue carries the control plane's
//! self-healing machinery:
//!
//! - **Swap-pair atomicity** — a shape→drop escalation emits a
//!   Remove/Add pair for the same path; dequeuing the Remove in one
//!   token-bucket tick and the Add a tick later would leave the victim
//!   unprotected in between. [`ConfigChangeQueue::enqueue_group`] marks
//!   such pairs and the dequeue path takes their tokens all-or-nothing.
//! - **Retry with backoff** — [`ConfigChangeQueue::requeue`] parks a
//!   failed change in a deferred list until its backoff expires, then it
//!   re-enters the FIFO (at the back, so a repeatedly failing change
//!   never head-of-line-blocks fresh work).
//! - **Bounded wait log** — the Fig. 10(b) sample is capped; past the
//!   cap it decimates deterministically (keep-every-other, doubling
//!   stride) so fault-soak runs do not grow memory linearly.

use crate::controller::AbstractChange;
use std::collections::VecDeque;
use stellar_dataplane::shaper::WorkBucket;

/// A change waiting in the queue.
#[derive(Debug, Clone)]
pub struct QueuedChange {
    /// The abstract configuration change.
    pub change: AbstractChange,
    /// When it was first enqueued (retries keep the original time, so
    /// waiting-time telemetry measures end-to-end latency).
    pub enqueued_us: u64,
    /// Failed apply attempts so far.
    pub attempts: u32,
    /// Earliest dequeue time (backoff); 0 for fresh changes.
    pub not_before_us: u64,
    /// Same-path swap-pair marker: members of one group dequeue
    /// atomically.
    pub group: Option<u64>,
    /// Times this change came back from the dead-letter ladder (bounded
    /// requeue-with-backoff; distinct from per-pass `attempts`, which
    /// reset on requeue).
    pub requeues: u32,
}

/// Deterministically bounded sample of waiting times: records every
/// `stride`-th sample; when the buffer hits its cap it drops every other
/// retained sample and doubles the stride. No RNG, so fault-soak runs
/// stay reproducible and the retained sample remains uniformly spaced.
#[derive(Debug)]
struct WaitLog {
    samples: Vec<u64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl WaitLog {
    fn new(cap: usize) -> Self {
        WaitLog {
            samples: Vec::new(),
            cap: cap.max(2),
            stride: 1,
            seen: 0,
        }
    }

    fn record(&mut self, wait_us: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() == self.cap {
                let mut keep = 0;
                self.samples.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.samples.push(wait_us);
            }
        }
        self.seen += 1;
    }
}

/// The token-bucket change queue.
#[derive(Debug)]
pub struct ConfigChangeQueue {
    bucket: WorkBucket,
    queue: VecDeque<QueuedChange>,
    /// Backoff parking lot, sorted by `not_before_us` (stable: ties keep
    /// insertion order).
    deferred: VecDeque<QueuedChange>,
    wait_log: WaitLog,
    next_group: u64,
}

/// Default wait-log capacity: comfortably above the Fig. 10(b) trace
/// (~3.5k arrivals) so the bench sees every sample, bounded for soaks.
const DEFAULT_WAIT_LOG_CAP: usize = 65_536;

impl ConfigChangeQueue {
    /// A queue dequeuing at `rate_per_s` with maximum burst size `mbs`.
    pub fn new(rate_per_s: f64, mbs: u32) -> Self {
        ConfigChangeQueue {
            bucket: WorkBucket::new(rate_per_s, mbs),
            queue: VecDeque::new(),
            deferred: VecDeque::new(),
            wait_log: WaitLog::new(DEFAULT_WAIT_LOG_CAP),
            next_group: 1,
        }
    }

    /// The production configuration at the paper's measured sustainable
    /// rate (4.33 updates/s fits under the 15 % CPU cap; the bench sweeps
    /// 4/s and 5/s as Fig. 10b does).
    pub fn production(rate_per_s: f64) -> Self {
        ConfigChangeQueue::new(rate_per_s, 2)
    }

    /// Overrides the wait-log capacity (minimum 2).
    pub fn with_wait_log_capacity(mut self, cap: usize) -> Self {
        self.wait_log = WaitLog::new(cap);
        self
    }

    /// Enqueues a change at `now_us`.
    pub fn enqueue(&mut self, change: AbstractChange, now_us: u64) {
        self.push(change, now_us, 0, None);
    }

    /// Enqueues the changes one diff emission produced. Two or more
    /// changes from one emission are a same-path swap (e.g. Remove old
    /// shape rule + Add drop rule) and are marked as an atomic group; a
    /// single change degenerates to a plain enqueue.
    pub fn enqueue_group(&mut self, changes: Vec<AbstractChange>, now_us: u64) {
        self.enqueue_group_delayed(changes, now_us, 0);
    }

    /// Like [`ConfigChangeQueue::enqueue_group`], but the changes only
    /// become dequeueable at `not_before_us` — the delivery-chaos fault
    /// injects announcement delay here, after validation but before the
    /// token bucket. Delayed emissions land in the backoff lot, so two
    /// emissions with different delays reorder against each other while
    /// each group still dequeues atomically (ties keep insertion order,
    /// so a group stays adjacent in the lot and promotes together).
    pub fn enqueue_group_delayed(
        &mut self,
        changes: Vec<AbstractChange>,
        now_us: u64,
        not_before_us: u64,
    ) {
        let group = (changes.len() >= 2).then(|| {
            self.next_group += 1;
            self.next_group - 1
        });
        for change in changes {
            self.push(change, now_us, not_before_us, group);
        }
    }

    /// The one way fresh work enters: at the back of the FIFO, or — when
    /// it may only leave after `now_us` — into the backoff lot.
    fn push(
        &mut self,
        change: AbstractChange,
        now_us: u64,
        not_before_us: u64,
        group: Option<u64>,
    ) {
        let delayed = not_before_us > now_us;
        let qc = QueuedChange {
            change,
            enqueued_us: now_us,
            attempts: 0,
            not_before_us: if delayed { not_before_us } else { 0 },
            group,
            requeues: 0,
        };
        if delayed {
            self.defer(qc);
        } else {
            self.queue.push_back(qc);
        }
    }

    /// Inserts into the backoff lot, keeping it sorted by
    /// `not_before_us` (stable: ties keep insertion order).
    fn defer(&mut self, qc: QueuedChange) {
        let at = self
            .deferred
            .iter()
            .position(|d| d.not_before_us > qc.not_before_us)
            .unwrap_or(self.deferred.len());
        self.deferred.insert(at, qc);
    }

    /// Readmits a dead-letter-ladder survivor as fresh work: per-pass
    /// attempts reset, the bounded `requeues` odometer advances, and the
    /// change re-enters the FIFO at the back.
    pub fn readmit(&mut self, mut qc: QueuedChange, now_us: u64) {
        qc.attempts = 0;
        qc.requeues += 1;
        qc.not_before_us = 0;
        qc.group = None;
        qc.enqueued_us = now_us;
        self.queue.push_back(qc);
    }

    /// Parks a failed change until `not_before_us`, counting the attempt.
    /// It re-enters the FIFO (at the back) once the backoff expires. The
    /// group marker is dropped: a retried member rejoins alone, its
    /// partner already applied.
    pub fn requeue(&mut self, mut qc: QueuedChange, not_before_us: u64) {
        qc.attempts += 1;
        qc.not_before_us = not_before_us;
        qc.group = None;
        self.defer(qc);
    }

    /// Dequeues every change the token bucket allows at `now_us`. Expired
    /// deferred changes are promoted first; groups leave all-or-nothing
    /// (a group wider than the bucket's burst size could never fit and
    /// falls back to per-item dequeue rather than wedging the queue).
    pub fn dequeue_ready_queued(&mut self, now_us: u64) -> Vec<QueuedChange> {
        let due = self.deferred.partition_point(|d| d.not_before_us <= now_us);
        self.queue.extend(self.deferred.drain(..due));
        let mut out = Vec::new();
        while let Some(front_group) = self.queue.front().map(|qc| qc.group) {
            let take = match front_group {
                Some(g) => {
                    let run = self
                        .queue
                        .iter()
                        .take_while(|qc| qc.group == Some(g))
                        .count();
                    if run as u32 > self.bucket.max_burst() {
                        // Could never fit atomically: demote the whole
                        // run to per-item so it drains instead of
                        // wedging the queue.
                        for qc in self.queue.iter_mut().take(run) {
                            qc.group = None;
                        }
                        1
                    } else {
                        run as u32
                    }
                }
                None => 1,
            };
            if !self.bucket.try_take_n(take, now_us) {
                break;
            }
            for qc in self.queue.drain(..take as usize) {
                if qc.attempts == 0 && qc.requeues == 0 {
                    // Retries and dead-letter requeues would distort the
                    // Fig. 10(b) queue-wait sample with backoff time; log
                    // first passes only.
                    self.wait_log.record(now_us - qc.enqueued_us);
                }
                out.push(qc);
            }
        }
        out
    }

    /// Changes currently waiting (ready FIFO plus deferred retries).
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.deferred.len()
    }

    /// Changes parked in the backoff lot only.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Every change still in flight — the reconciler consults this so it
    /// does not queue a repair for work that is already on its way.
    pub fn pending(&self) -> impl Iterator<Item = &AbstractChange> {
        self.queue
            .iter()
            .chain(self.deferred.iter())
            .map(|qc| &qc.change)
    }

    /// The recorded waiting-time sample (µs) — Fig. 10(b)'s input. Past
    /// the capacity this is a deterministic every-`stride`-th decimation,
    /// not the full population.
    pub fn wait_log_us(&self) -> &[u64] {
        &self.wait_log.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::BlackholingRule;
    use crate::signal::StellarSignal;
    use stellar_bgp::types::Asn;

    fn change(i: u64) -> AbstractChange {
        AbstractChange::RemoveRule {
            rule_id: i,
            owner: Asn(64500),
        }
    }

    fn add(i: u64) -> AbstractChange {
        AbstractChange::AddRule(BlackholingRule::from_signal(
            i,
            Asn(64500),
            "100.10.10.10/32".parse().unwrap(),
            StellarSignal::drop_udp_src(123),
        ))
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = ConfigChangeQueue::new(100.0, 100);
        for i in 0..5 {
            q.enqueue(change(i), 0);
        }
        let got = q.dequeue_ready_queued(1);
        let ids: Vec<u64> = got
            .iter()
            .map(|qc| match qc.change {
                AbstractChange::RemoveRule { rule_id, .. } => rule_id,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn rate_limit_throttles_bursts() {
        // 4/s, MBS 2: a burst of 10 drains 2 immediately, then 4/s.
        let mut q = ConfigChangeQueue::production(4.0);
        for i in 0..10 {
            q.enqueue(change(i), 0);
        }
        assert_eq!(q.dequeue_ready_queued(0).len(), 2);
        assert_eq!(q.backlog(), 8);
        // After 1 s, four more.
        assert_eq!(q.dequeue_ready_queued(1_000_000).len(), 4);
        // After another second the rest drain.
        assert_eq!(q.dequeue_ready_queued(2_000_000).len(), 4);
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn waiting_times_are_recorded() {
        let mut q = ConfigChangeQueue::new(1.0, 1);
        q.enqueue(change(0), 0);
        q.enqueue(change(1), 0);
        assert_eq!(q.dequeue_ready_queued(0).len(), 1);
        assert!(q.dequeue_ready_queued(500_000).is_empty());
        let got = q.dequeue_ready_queued(1_000_000);
        assert_eq!(got.len(), 1);
        assert_eq!(1_000_000 - got[0].enqueued_us, 1_000_000);
        assert_eq!(q.wait_log_us(), &[0, 1_000_000]);
    }

    #[test]
    fn add_changes_flow_through_too() {
        let mut q = ConfigChangeQueue::new(10.0, 10);
        let rule = crate::rule::BlackholingRule::from_signal(
            1,
            Asn(64500),
            "100.10.10.10/32".parse().unwrap(),
            StellarSignal::drop_udp_src(123),
        );
        q.enqueue(AbstractChange::AddRule(rule.clone()), 5);
        let got = q.dequeue_ready_queued(10);
        assert_eq!(got.len(), 1);
        match &got[0].change {
            AbstractChange::AddRule(r) => assert_eq!(*r, rule),
            _ => panic!(),
        }
    }

    #[test]
    fn swap_pair_dequeues_atomically() {
        // 1/s, MBS 2: after the initial burst is spent, tokens arrive one
        // per second — the exact splitting hazard from the issue.
        let mut q = ConfigChangeQueue::new(1.0, 2);
        q.enqueue(change(99), 0);
        assert_eq!(q.dequeue_ready_queued(0).len(), 1); // 1 token left
        q.enqueue_group(vec![change(1), add(2)], 0);
        // One token is not enough for the pair: nothing comes out — the
        // victim keeps its old rule instead of losing protection.
        assert!(q.dequeue_ready_queued(0).is_empty());
        assert!(q.dequeue_ready_queued(500_000).is_empty());
        // Once two tokens are available the pair leaves together.
        let got = q.dequeue_ready_queued(1_000_000);
        assert_eq!(got.len(), 2);
        assert!(matches!(
            got[0].change,
            AbstractChange::RemoveRule { rule_id: 1, .. }
        ));
        assert!(matches!(&got[1].change, AbstractChange::AddRule(r) if r.id == 2));
    }

    #[test]
    fn oversized_group_falls_back_to_per_item() {
        // A group wider than the MBS can never fit atomically; it must
        // drain item-by-item rather than wedge the queue forever.
        let mut q = ConfigChangeQueue::new(1.0, 2);
        q.enqueue_group(vec![change(1), change(2), change(3)], 0);
        assert_eq!(q.dequeue_ready_queued(0).len(), 2);
        assert_eq!(q.dequeue_ready_queued(1_000_000).len(), 1);
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn requeue_defers_until_backoff_expires() {
        let mut q = ConfigChangeQueue::new(100.0, 100);
        q.enqueue(add(1), 0);
        let mut got = q.dequeue_ready_queued(0);
        assert_eq!(got.len(), 1);
        let qc = got.pop().unwrap();
        assert_eq!(qc.attempts, 0);
        q.requeue(qc, 500_000);
        assert_eq!(q.backlog(), 1);
        // Still parked before the backoff expires.
        assert!(q.dequeue_ready_queued(250_000).is_empty());
        let got = q.dequeue_ready_queued(500_000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].attempts, 1);
        // Retries keep the original enqueue time...
        assert_eq!(got[0].enqueued_us, 0);
        // ...but only first passes feed the Fig. 10b sample.
        assert_eq!(q.wait_log_us(), &[0]);
    }

    #[test]
    fn retries_rejoin_behind_fresh_work() {
        let mut q = ConfigChangeQueue::new(100.0, 100);
        q.enqueue(add(1), 0);
        let qc = q.dequeue_ready_queued(0).pop().unwrap();
        q.requeue(qc, 100_000);
        q.enqueue(change(2), 50_000);
        let got = q.dequeue_ready_queued(200_000);
        assert_eq!(got.len(), 2);
        // The fresh change was already in the FIFO when the retry was
        // promoted, so it goes first: no head-of-line blocking.
        assert!(matches!(
            got[0].change,
            AbstractChange::RemoveRule { rule_id: 2, .. }
        ));
        assert!(matches!(&got[1].change, AbstractChange::AddRule(r) if r.id == 1));
    }

    #[test]
    fn pending_spans_fifo_and_deferred() {
        let mut q = ConfigChangeQueue::new(100.0, 100);
        q.enqueue(add(1), 0);
        let qc = q.dequeue_ready_queued(0).pop().unwrap();
        q.requeue(qc, 1_000_000);
        q.enqueue(change(2), 0);
        let pending: Vec<_> = q.pending().collect();
        assert_eq!(pending.len(), 2);
        assert_eq!(q.backlog(), 2);
    }

    #[test]
    fn delayed_groups_reorder_but_stay_atomic() {
        let mut q = ConfigChangeQueue::new(100.0, 100);
        // Emission A delayed further than emission B: B overtakes A.
        q.enqueue_group_delayed(vec![change(1), add(2)], 0, 900_000);
        q.enqueue_group_delayed(vec![change(3), add(4)], 0, 300_000);
        assert!(q.dequeue_ready_queued(100_000).is_empty());
        let got = q.dequeue_ready_queued(1_000_000);
        let ids: Vec<u64> = got
            .iter()
            .map(|qc| match &qc.change {
                AbstractChange::RemoveRule { rule_id, .. } => *rule_id,
                AbstractChange::AddRule(r) => r.id,
            })
            .collect();
        assert_eq!(ids, vec![3, 4, 1, 2], "later emission delivered first");
        // Pair adjacency survived the delay (same group markers).
        assert_eq!(got[0].group, got[1].group);
        assert!(got[0].group.is_some());
    }

    #[test]
    fn undelayed_emission_degenerates_to_plain_enqueue() {
        let mut q = ConfigChangeQueue::new(100.0, 100);
        q.enqueue_group_delayed(vec![change(1)], 50, 50);
        assert_eq!(q.deferred_len(), 0);
        assert_eq!(q.dequeue_ready_queued(50).len(), 1);
    }

    #[test]
    fn readmit_resets_attempts_and_counts_requeues() {
        let mut q = ConfigChangeQueue::new(100.0, 100);
        q.enqueue(add(1), 0);
        let qc = q.dequeue_ready_queued(0).pop().unwrap();
        q.requeue(qc, 100_000);
        let qc = q.dequeue_ready_queued(100_000).pop().unwrap();
        assert_eq!(qc.attempts, 1);
        q.readmit(qc, 200_000);
        let got = q.dequeue_ready_queued(200_000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].attempts, 0, "fresh retry budget after readmit");
        assert_eq!(got[0].requeues, 1);
        // Neither the retry pass nor the readmitted pass fed the wait
        // log — only the first dequeue did.
        assert_eq!(q.wait_log_us(), &[0]);
    }

    #[test]
    fn wait_log_is_bounded_and_decimates_deterministically() {
        let mut q = ConfigChangeQueue::new(1e9, u32::MAX).with_wait_log_capacity(8);
        for i in 0..1000u64 {
            q.enqueue(change(i), i);
            q.dequeue_ready_queued(i);
        }
        assert!(q.wait_log_us().len() <= 8);
        assert!(!q.wait_log_us().is_empty());
        // Same workload, same retained sample: determinism.
        let mut q2 = ConfigChangeQueue::new(1e9, u32::MAX).with_wait_log_capacity(8);
        for i in 0..1000u64 {
            q2.enqueue(change(i), i);
            q2.dequeue_ready_queued(i);
        }
        assert_eq!(q.wait_log_us(), q2.wait_log_us());
    }
}
