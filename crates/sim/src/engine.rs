//! A deterministic discrete-event scheduler.
//!
//! Events are `FnOnce(&mut S, &mut Scheduler)` closures over the
//! experiment state `S`; handlers schedule follow-up events through the
//! [`Scheduler`] handle. Ties at the same timestamp run in scheduling
//! order (a strictly increasing sequence number breaks them), so runs are
//! reproducible regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

type Handler<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    handler: Handler<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Handle through which event handlers schedule more events.
pub struct Scheduler<S> {
    now: SimTime,
    pending: Vec<(SimTime, Handler<S>)>,
}

impl<S> Scheduler<S> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `handler` to run at absolute time `at` (clamped to now).
    pub fn at(&mut self, at: SimTime, handler: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static) {
        self.pending.push((at.max(self.now), Box::new(handler)));
    }

    /// Schedules `handler` to run `delay` after now.
    pub fn after(
        &mut self,
        delay: SimTime,
        handler: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        self.at(self.now + delay, handler);
    }
}

/// The discrete-event engine.
pub struct Engine<S> {
    queue: BinaryHeap<Reverse<Scheduled<S>>>,
    now: SimTime,
    seq: u64,
    executed: u64,
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            executed: 0,
        }
    }
}

impl<S> Engine<S> {
    /// Creates an empty engine at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at absolute time `at`.
    pub fn schedule(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            handler: Box::new(handler),
        }));
    }

    /// Runs until the queue is empty or `until` is reached. Returns the
    /// number of events executed.
    pub fn run(&mut self, state: &mut S, until: SimTime) -> usize {
        let mut executed = 0;
        loop {
            let Some(head) = self.queue.peek_mut() else {
                break;
            };
            if head.0.at > until {
                break;
            }
            let Reverse(ev) = PeekMut::pop(head);
            self.now = ev.at;
            let mut sched = Scheduler {
                now: self.now,
                pending: Vec::new(),
            };
            (ev.handler)(state, &mut sched);
            for (at, h) in sched.pending {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Reverse(Scheduled {
                    at,
                    seq,
                    handler: h,
                }));
            }
            executed += 1;
        }
        self.now = self.now.max(until.min(self.now.max(until)));
        self.executed += executed as u64;
        executed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events executed over the engine's lifetime (across `run` calls).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Publishes the engine gauges: lifetime event count, pending queue
    /// depth, and the simulation clock.
    pub fn observe(&self, reg: &mut stellar_obs::MetricsRegistry) {
        reg.counter_set("sim.engine.executed", self.executed);
        reg.gauge_set("sim.engine.pending", self.queue.len() as i64);
        reg.gauge_set("sim.engine.now_us", self.now as i64);
    }
}

/// Schedules `f` to run at `at` and then every `every` units until it
/// returns `false`. The recurrence is expressed through boxed `FnOnce`
/// re-scheduling, so it composes with the engine's deterministic
/// tie-breaking like any other event. This is the idiom for periodic
/// control-plane work — queue pumping, reconciliation sweeps — in
/// fault-scenario experiments.
pub fn schedule_repeating<S: 'static>(
    engine: &mut Engine<S>,
    at: SimTime,
    every: SimTime,
    f: impl FnMut(&mut S, SimTime) -> bool + 'static,
) {
    assert!(every > 0, "period must be positive");
    type RepeatFn<S> = Box<dyn FnMut(&mut S, SimTime) -> bool>;
    fn tick<S: 'static>(mut f: RepeatFn<S>, every: SimTime) -> Handler<S> {
        Box::new(move |state, sched| {
            if f(state, sched.now()) {
                sched.after(every, tick(f, every));
            }
        })
    }
    let handler = tick(Box::new(f), every);
    engine.schedule(at, handler);
}

/// Drives a fixed-tick loop from `start` to `end` (exclusive of the final
/// partial tick): calls `f(tick_start, tick_end, state)` for every tick.
/// This is the pattern the traffic experiments use.
pub fn run_ticks<S>(
    state: &mut S,
    start: SimTime,
    end: SimTime,
    tick: SimTime,
    mut f: impl FnMut(&mut S, SimTime, SimTime),
) {
    assert!(tick > 0, "tick must be positive");
    let mut t = start;
    while t < end {
        let t1 = (t + tick).min(end);
        f(state, t, t1);
        t = t1;
    }
}

/// [`run_ticks`] with wall-clock instrumentation for benchmark
/// harnesses: returns `(ticks executed, elapsed wall time)`. The wall
/// clock never touches the simulation — tick boundaries, state, and any
/// exported metrics stay byte-identical to a plain [`run_ticks`] run —
/// so `scale_sweep` can time the same loop the experiments drive
/// without forking the driver.
pub fn run_ticks_timed<S>(
    state: &mut S,
    start: SimTime,
    end: SimTime,
    tick: SimTime,
    mut f: impl FnMut(&mut S, SimTime, SimTime),
) -> (u64, std::time::Duration) {
    let mut ticks = 0u64;
    let t0 = std::time::Instant::now();
    run_ticks(state, start, end, tick, |s, a, b| {
        f(s, a, b);
        ticks += 1;
    });
    (ticks, t0.elapsed())
}

/// [`run_ticks`] with tick timing recorded into `reg`: each tick's
/// sim-time duration feeds the `sim.tick_us` histogram and bumps the
/// `sim.ticks` counter. Durations are simulation time, not wall clock —
/// the final partial tick is the only one that differs from `tick`, and
/// the record is identical across identically-parameterized runs.
pub fn run_ticks_observed<S>(
    state: &mut S,
    start: SimTime,
    end: SimTime,
    tick: SimTime,
    reg: &mut stellar_obs::MetricsRegistry,
    mut f: impl FnMut(&mut S, SimTime, SimTime),
) {
    run_ticks(state, start, end, tick, |s, t0, t1| {
        f(s, t0, t1);
        reg.observe("sim.tick_us", t1 - t0);
        reg.counter_inc("sim.ticks");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule(20, |s: &mut Vec<&str>, _| s.push("b"));
        eng.schedule(10, |s, _| s.push("a"));
        eng.schedule(20, |s, _| s.push("c"));
        let n = eng.run(&mut log, 100);
        assert_eq!(n, 3);
        assert_eq!(log, vec!["a", "b", "c"]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        fn recurse(s: &mut Vec<u64>, sched: &mut Scheduler<Vec<u64>>) {
            s.push(sched.now());
            if sched.now() < 50 {
                sched.after(10, recurse);
            }
        }
        eng.schedule(10, recurse);
        eng.run(&mut log, 1000);
        assert_eq!(log, vec![10, 20, 30, 40, 50]);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn run_stops_at_until_and_resumes() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        for t in [5u64, 15, 25] {
            eng.schedule(t, move |s: &mut Vec<u64>, _| s.push(t));
        }
        eng.run(&mut log, 20);
        assert_eq!(log, vec![5, 15]);
        assert_eq!(eng.pending(), 1);
        eng.run(&mut log, 30);
        assert_eq!(log, vec![5, 15, 25]);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule(50, |s: &mut Vec<u64>, sched| {
            s.push(sched.now());
            // "Yesterday" clamps to now.
            sched.at(1, |s, sched| s.push(sched.now()));
        });
        eng.run(&mut log, 100);
        assert_eq!(log, vec![50, 50]);
    }

    #[test]
    fn repeating_events_run_until_cancelled() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        schedule_repeating(&mut eng, 10, 20, |s, now| {
            s.push(now);
            now < 70
        });
        eng.run(&mut log, 1_000);
        assert_eq!(log, vec![10, 30, 50, 70]);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn repeating_events_interleave_deterministically() {
        let mut eng: Engine<Vec<(u64, &'static str)>> = Engine::new();
        let mut log = Vec::new();
        schedule_repeating(&mut eng, 0, 10, |s, now| {
            s.push((now, "a"));
            now < 20
        });
        schedule_repeating(&mut eng, 0, 10, |s, now| {
            s.push((now, "b"));
            now < 20
        });
        eng.run(&mut log, 100);
        // Ties break in scheduling order on every recurrence.
        assert_eq!(
            log,
            vec![
                (0, "a"),
                (0, "b"),
                (10, "a"),
                (10, "b"),
                (20, "a"),
                (20, "b")
            ]
        );
    }

    #[test]
    fn timed_tick_driver_counts_ticks_and_mutates_state() {
        let mut n = 0u64;
        let (ticks, _wall) = run_ticks_timed(&mut n, 0, 1_000, 250, |s, _, _| *s += 1);
        assert_eq!(ticks, 4);
        assert_eq!(n, 4);
    }

    #[test]
    fn tick_driver_covers_range_exactly() {
        let mut spans: Vec<(u64, u64)> = Vec::new();
        run_ticks(&mut spans, 0, 1_050, 250, |s, a, b| s.push((a, b)));
        assert_eq!(
            spans,
            vec![(0, 250), (250, 500), (500, 750), (750, 1000), (1000, 1050)]
        );
    }
}
