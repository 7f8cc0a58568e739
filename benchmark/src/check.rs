//! Output checks that do not trust the code under test: a linear
//! first-match recomputation of one tick's verdicts, and the end-of-run
//! invariants.

use crate::json;
use std::collections::BTreeMap;
use stellar_core::system::StellarSystem;
use stellar_dataplane::counters::PortCounters;
use stellar_dataplane::filter::Action;
use stellar_dataplane::switch::{OfferedAggregate, PortId};
use stellar_sim::fabric::Fabric;

#[derive(Default)]
struct PortExpectation {
    offered: u64,
    dropped: u64,
    to_shapers: u64,
    before: PortCounters,
}

/// What one tick must do to every port it touches, worked out before the
/// tick with a linear scan over each port's rules in evaluation order —
/// no classifier, no batching.
pub struct TickCheck {
    ports: BTreeMap<PortId, PortExpectation>,
}

impl TickCheck {
    pub fn before(fabric: &Fabric, offers: &[OfferedAggregate]) -> Self {
        let mut ports: BTreeMap<PortId, PortExpectation> = BTreeMap::new();
        for o in offers {
            let Some(pid) = fabric.port_of_mac(o.key.dst_mac) else {
                continue; // unroutable: reaches no port
            };
            let Some(port) = fabric.port(pid) else {
                continue;
            };
            let e = ports.entry(pid).or_insert_with(|| PortExpectation {
                before: port.counters,
                ..Default::default()
            });
            e.offered += o.bytes;
            let verdict = port.policy.rules().iter().find(|r| r.spec.matches(&o.key));
            match verdict.map(|r| r.action) {
                Some(Action::Drop) => e.dropped += o.bytes,
                Some(Action::Shape { .. }) => e.to_shapers += o.bytes,
                Some(Action::Forward) | None => {}
            }
        }
        TickCheck { ports }
    }

    /// Compares the tick's counter deltas with the expectation; returns
    /// the number of ports that disagree. Drop rules must discard exactly
    /// the bytes that matched them; bytes that matched a shape rule must
    /// all be either passed or discarded by its queue; and every offered
    /// byte must be forwarded, dropped, shape-dropped or lost to
    /// congestion.
    pub fn after(self, fabric: &Fabric) -> usize {
        self.ports
            .into_iter()
            .filter(|(pid, e)| {
                let Some(port) = fabric.port(*pid) else {
                    return true;
                };
                let (now, was) = (&port.counters, &e.before);
                let dropped = now.dropped_bytes - was.dropped_bytes;
                let shaped = now.shaped_bytes - was.shaped_bytes;
                let shape_dropped = now.shape_dropped_bytes - was.shape_dropped_bytes;
                let forwarded = now.forwarded_bytes - was.forwarded_bytes;
                let congested = now.congestion_dropped_bytes - was.congestion_dropped_bytes;
                dropped != e.dropped
                    || shaped + shape_dropped != e.to_shapers
                    || forwarded + dropped + shape_dropped + congested != e.offered
            })
            .count()
    }
}

/// The end-of-round invariants of the system. Returns one line per
/// violated invariant.
pub fn invariants(sys: &StellarSystem, standing_rules: usize) -> Vec<String> {
    let mut broken = Vec::new();
    if !sys.is_converged() {
        broken.push("desired state and hardware disagree (not converged)".to_string());
    }
    if !sys.watchdog.is_clean() {
        broken.push(format!(
            "watchdog recorded {} violation(s): {:?}",
            sys.watchdog.total_violations(),
            sys.watchdog.violations().first()
        ));
    }
    let (installs, removals) = sys.ixp.fabric.rule_ledger();
    let total = sys.ixp.fabric.total_rules();
    if installs.checked_sub(removals) != Some(standing_rules as u64)
        || total != standing_rules
        || sys.active_rules() != standing_rules
    {
        broken.push(format!(
            "rule ledger: installs={installs} removals={removals} hardware={total} \
             manager={} expected standing={standing_rules}",
            sys.active_rules()
        ));
    }
    if sys.queue.backlog() != 0 {
        broken.push(format!(
            "queue backlog {} at end of run",
            sys.queue.backlog()
        ));
    }
    broken
}

/// The last exported snapshot must parse and carry `core.installs`.
/// Returns one line per fault and the number of series (counters, gauges,
/// histograms) the snapshot carries.
pub fn snapshot(snapshot: &str, standing_rules: usize) -> (Vec<String>, usize) {
    let mut broken = Vec::new();
    let mut series = 0;
    match json::parse(snapshot) {
        Err(e) => broken.push(format!("snapshot does not parse: {e}")),
        Ok(doc) => {
            let metrics = doc.get("metrics");
            for section in ["counters", "gauges", "histograms"] {
                if let Some(json::Value::Obj(entries)) = metrics.and_then(|m| m.get(section)) {
                    series += entries.len();
                }
            }
            let installs = metrics
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("core.installs"))
                .and_then(json::Value::as_f64);
            if installs.is_none_or(|n| n < standing_rules as f64) {
                broken.push(format!(
                    "snapshot carries core.installs={installs:?}, expected at least {standing_rules}"
                ));
            }
        }
    }
    (broken, series)
}
