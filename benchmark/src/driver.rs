//! The two drivers.
//!
//! The *direct* driver calls the facade the examples and benches use —
//! `member_signal`, `member_flowspec`, `pump`, `reconcile`, `observe` — and
//! is what every end-to-end metric is measured with.
//!
//! The *staged* driver (`--trace 1`) issues the same public calls those
//! facade methods compose, one layer at a time, with a span around each:
//! it mirrors `stellar_core::system`'s composition from outside, because
//! this PR may not add spans inside the program. The mirror cannot drift
//! silently: a traced run must end in the same installed rule ids, rule
//! ledger and FlowSpec RIB as the direct run of the same seed
//! ([`Driver::state_digest`]).

use crate::trace::Tracer;
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::FlowSpec;
use stellar_bgp::types::{Afi, Asn};
use stellar_bgp::update::UpdateMessage;
use stellar_core::audit::{audit_batch, AuditRejection};
use stellar_core::config_queue::ConfigChangeQueue;
use stellar_core::controller::AbstractChange;
use stellar_core::manager::NetworkManager;
use stellar_core::signal::StellarSignal;
use stellar_core::system::StellarSystem;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::switch::OfferedAggregate;
use stellar_net::prefix::Prefix;
use stellar_routeserver::FlowSpecOutput;
use stellar_sim::topology::{IxpTopology, MemberSpec};

pub const TICK_US: u64 = 1_000_000;

/// What one announcement or withdrawal did, reduced to what the oracle
/// compares: changes queued and announcements refused (import policy,
/// RFC 9117 validation, malformed wire, lowering, audit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Admit {
    pub queued: usize,
    pub refused: usize,
}

pub struct Driver {
    pub sys: StellarSystem,
    /// `Some` selects the staged path.
    pub tracer: Option<Tracer>,
    /// Changes the staged pump could not apply. The direct driver hands
    /// refusals to the system's retry ladder, which is private; no
    /// workload here may produce one, so the staged pump only counts them.
    pub apply_failures: usize,
}

/// Builds the IXP and wires Stellar onto it under the benchmark's fixed
/// conditions: TCAM pools and the config queue sized so that neither ever
/// refuses or delays a change (the software is timed, not the modelled
/// hardware budget), and one tick worker.
pub fn build_system(specs: &[MemberSpec], pops: usize) -> StellarSystem {
    let hib = HardwareInfoBase {
        l34_criteria_pool: 1 << 24,
        mac_filter_pool: 1 << 24,
        ..HardwareInfoBase::production_er()
    };
    let ixp = IxpTopology::build_with_pops(specs, hib, pops);
    let mut sys = StellarSystem::new(ixp, 4.33);
    sys.queue = ConfigChangeQueue::new(1e9, 1 << 20);
    sys.ixp.fabric.set_tick_workers(1);
    sys
}

impl Driver {
    pub fn new(sys: StellarSystem, tracer: Option<Tracer>) -> Self {
        Driver {
            sys,
            tracer,
            apply_failures: 0,
        }
    }

    /// Runs `f` as one op: under the staged driver its spans hang under a
    /// fresh `op` root span and share an op id.
    pub fn in_op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let root = self.tracer.as_mut().map(Tracer::open_op);
        let out = f(self);
        if let (Some(tr), Some(root)) = (self.tracer.as_mut(), root) {
            tr.close(root);
        }
        out
    }

    pub fn signal(
        &mut self,
        member: Asn,
        victim: Prefix,
        signals: &[StellarSignal],
        now: u64,
    ) -> Admit {
        let Some(tr) = self.tracer.as_mut() else {
            let out = self.sys.member_signal(member, victim, signals, now);
            return Admit {
                queued: out.queued_changes,
                refused: out.rejections.len() + out.audit_rejections.len(),
            };
        };
        let sys = &mut self.sys;
        let ixp_asn = sys.ixp.route_server.config().ixp_asn;
        let update = tr.span("sim.announcement", || {
            let mut update = sys.ixp.announcement(member, victim);
            let ecs: Vec<_> = signals.iter().map(|s| s.encode(ixp_asn)).collect();
            update.add_extended_communities(&ecs);
            update
        });
        let rs_out = tr.span("routeserver.handle_update", || {
            sys.ixp.route_server.handle_update(member, &update, now)
        });
        let mut admit = Admit {
            queued: 0,
            refused: rs_out.rejections.len(),
        };
        for cu in &rs_out.controller_updates {
            let mut changes = tr.span("core.process_update", || sys.controller.process_update(cu));
            admit.refused += staged_audit(sys, tr, &mut changes, now);
            admit.queued += changes.len();
            staged_enqueue(sys, tr, changes, now);
        }
        // Freeing the per-member exports is part of the layer's bill.
        tr.span("routeserver.handle_update", || drop(rs_out));
        admit
    }

    pub fn withdraw(&mut self, member: Asn, victim: Prefix, now: u64) -> Admit {
        let Some(tr) = self.tracer.as_mut() else {
            let out = self.sys.member_withdraw(member, victim, now);
            return Admit {
                queued: out.queued_changes,
                refused: out.rejections.len(),
            };
        };
        let sys = &mut self.sys;
        let update = UpdateMessage::withdraw(victim);
        let rs_out = tr.span("routeserver.handle_update", || {
            sys.ixp.route_server.handle_update(member, &update, now)
        });
        let mut admit = Admit::default();
        for cu in &rs_out.controller_updates {
            let changes = tr.span("core.withdraw", || sys.controller.process_update(cu));
            admit.queued += changes.len();
            staged_enqueue(sys, tr, changes, now);
        }
        tr.span("routeserver.handle_update", || drop(rs_out));
        admit
    }

    /// A FlowSpec announcement as it arrives: NLRI bytes off the wire.
    /// Bytes that do not decode go to the route server as they are, which
    /// counts them malformed and refuses them whole.
    pub fn flowspec_wire(
        &mut self,
        member: Asn,
        wire: &[u8],
        actions: &[ExtendedCommunity],
        now: u64,
    ) -> Admit {
        let Some(tr) = self.tracer.as_mut() else {
            let Ok(flows) = FlowSpec::decode_many(Afi::Ipv4, wire) else {
                let out = self.sys.ixp.route_server.handle_flowspec_wire(
                    member,
                    Afi::Ipv4,
                    wire,
                    actions,
                );
                return Admit {
                    queued: out.accepted.len(),
                    refused: 1,
                };
            };
            let mut admit = Admit::default();
            for flow in flows {
                let out = self.sys.member_flowspec(member, flow, actions, now);
                admit.queued += out.queued_changes;
                admit.refused +=
                    out.rejections.len() + out.lowering_errors.len() + out.audit_rejections.len();
            }
            return admit;
        };
        let sys = &mut self.sys;
        let decoded = tr.span("bgp.flowspec_decode", || {
            FlowSpec::decode_many(Afi::Ipv4, wire)
        });
        let Ok(flows) = decoded else {
            let out = tr.span("routeserver.handle_flowspec_update", || {
                sys.ixp
                    .route_server
                    .handle_flowspec_wire(member, Afi::Ipv4, wire, actions)
            });
            return Admit {
                queued: out.accepted.len(),
                refused: 1,
            };
        };
        let mut admit = Admit::default();
        for flow in flows {
            let mut update = UpdateMessage {
                withdrawn: vec![],
                attrs: vec![
                    PathAttribute::AsPath(AsPath::sequence([member.0])),
                    PathAttribute::MpReachFlowSpec {
                        afi: Afi::Ipv4,
                        nlri: vec![flow],
                    },
                ],
                nlri: vec![],
            };
            if !actions.is_empty() {
                update.add_extended_communities(actions);
            }
            let rs_out = tr.span("routeserver.handle_flowspec_update", || {
                sys.ixp.route_server.handle_flowspec_update(member, &update)
            });
            let a = staged_admit_flowspec(sys, tr, rs_out, now);
            admit.queued += a.queued;
            admit.refused += a.refused;
        }
        admit
    }

    pub fn flowspec_withdraw(&mut self, member: Asn, flow: FlowSpec, now: u64) -> Admit {
        let Some(tr) = self.tracer.as_mut() else {
            let out = self.sys.member_flowspec_withdraw(member, flow, now);
            return Admit {
                queued: out.queued_changes,
                refused: out.rejections.len(),
            };
        };
        let sys = &mut self.sys;
        let update = UpdateMessage {
            withdrawn: vec![],
            attrs: vec![PathAttribute::MpUnreachFlowSpec {
                afi: Afi::Ipv4,
                nlri: vec![flow],
            }],
            nlri: vec![],
        };
        let rs_out = tr.span("routeserver.handle_flowspec_update", || {
            sys.ixp.route_server.handle_flowspec_update(member, &update)
        });
        staged_admit_flowspec(sys, tr, rs_out, now)
    }

    /// Pumps the configuration queue; returns the changes applied.
    pub fn pump(&mut self, now: u64) -> usize {
        let Some(tr) = self.tracer.as_mut() else {
            return self.sys.pump(now);
        };
        let sys = &mut self.sys;
        // No fault plan is ever armed here, so the fault poll, the parked
        // and the deferred-validation lots of `pump` have nothing to do;
        // the oracle flag is still refreshed as `pump` does.
        sys.ixp.route_server.policy_mut().oracle_down = sys.injector.validation_faulted(now);
        let ready = tr.span("core.queue", || sys.queue.dequeue_ready_queued(now));
        let mut applied = 0;
        for qc in ready {
            let result = tr.span("core.manager_apply", || {
                sys.manager.apply(&mut sys.ixp.fabric, &qc.change, now)
            });
            match result {
                Ok(()) => {
                    applied += 1;
                    let reg = &mut sys.obs.registry;
                    reg.observe("core.signal_to_install_us", now - qc.enqueued_us);
                    reg.counter_inc(match &qc.change {
                        AbstractChange::AddRule(_) => "core.installs",
                        AbstractChange::RemoveRule { .. } => "core.removals",
                    });
                }
                Err(_) => self.apply_failures += 1,
            }
        }
        if sys.watchdog.due(now) {
            tr.span("core.watchdog_busy", || sys.watchdog_check(now));
        }
        applied
    }

    pub fn reconcile(&mut self, now: u64) -> bool {
        let sys = &mut self.sys;
        match self.tracer.as_mut() {
            None => sys.reconcile(now).is_clean(),
            Some(tr) => tr.span("core.reconcile", || sys.reconcile(now)).is_clean(),
        }
    }

    pub fn tick(&mut self, offers: &[OfferedAggregate], tick_end_us: u64) {
        let fabric = &mut self.sys.ixp.fabric;
        match self.tracer.as_mut() {
            None => fabric.process_tick_in_place(offers, tick_end_us, TICK_US),
            Some(tr) => tr.span("sim.fabric_tick", || {
                fabric.process_tick_in_place(offers, tick_end_us, TICK_US)
            }),
        }
    }

    /// What an operator's scrape costs: refresh every gauge, serialise the
    /// whole snapshot.
    pub fn export(&mut self, now: u64) -> String {
        let Some(tr) = self.tracer.as_mut() else {
            self.sys.observe(now);
            return self.sys.obs.snapshot_json(now);
        };
        let sys = &mut self.sys;
        tr.span("sim.fabric_observe", || {
            sys.ixp.fabric.observe(&mut sys.obs.registry)
        });
        // The rest of `StellarSystem::observe`.
        sys.ixp.route_server.observe(&mut sys.obs.registry);
        let reg = &mut sys.obs.registry;
        reg.gauge_set("core.queue.backlog", sys.queue.backlog() as i64);
        reg.gauge_set("core.queue.deferred", sys.queue.deferred_len() as i64);
        reg.gauge_set("core.active_rules", sys.manager.installed_rules() as i64);
        reg.gauge_set("core.flowspec_rules", sys.flowspec.rule_count() as i64);
        reg.gauge_set("core.dead_letters", sys.dead_letters.len() as i64);
        reg.gauge_set("core.parked", 0);
        reg.gauge_set("core.pending_validation", 0);
        reg.counter_set("watchdog.checks", sys.watchdog.checks());
        tr.span("obs.snapshot_json", || sys.obs.snapshot_json(now))
    }

    /// One watchdog pass in the quiet, converged end state; returns the
    /// violations it found.
    pub fn quiet_pass(&mut self, now: u64) -> usize {
        let sys = &mut self.sys;
        match self.tracer.as_mut() {
            None => sys.watchdog_check(now),
            Some(tr) => tr.span("core.watchdog_quiet", || sys.watchdog_check(now)),
        }
    }

    /// FNV-1a over the per-port installed rule ids, the rule ledger and
    /// the FlowSpec RIB size — what the direct and the staged run of one
    /// seed must agree on.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (pid, port) in self.sys.ixp.fabric.ports() {
            let rules = port.policy.rules();
            if rules.is_empty() {
                continue;
            }
            h.word(u64::from(pid.0));
            h.word(rules.len() as u64);
            for r in rules {
                h.word(r.id);
            }
        }
        let (installs, removals) = self.sys.ixp.fabric.rule_ledger();
        h.word(installs);
        h.word(removals);
        h.word(self.sys.ixp.route_server.flowspec_routes().len() as u64);
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `StellarSystem::audit_changes`, staged: refuses shadowed, conflicting,
/// empty and duplicate candidates before they reach the queue. Returns how
/// many were refused.
fn staged_audit(
    sys: &mut StellarSystem,
    tr: &mut Tracer,
    changes: &mut Vec<AbstractChange>,
    now: u64,
) -> usize {
    let candidates: Vec<u64> = changes
        .iter()
        .filter_map(|c| match c {
            AbstractChange::AddRule(r) => Some(r.id),
            AbstractChange::RemoveRule { .. } => None,
        })
        .collect();
    if candidates.is_empty() {
        return 0;
    }
    let desired = tr.span("core.desired_rules", || {
        let mut desired = sys.controller.desired_rules();
        desired.extend(sys.flowspec.desired_rules());
        desired
    });
    let audit = tr.span("core.audit_batch", || {
        audit_batch(
            &sys.ixp.fabric,
            |a| sys.manager.owner_port(a),
            &desired,
            &candidates,
        )
    });
    // Freeing the cloned table is part of the clone's bill.
    tr.span("core.desired_rules", || drop(desired));
    for (rule_id, rejection) in &audit.rejected {
        if !sys.controller.rule_refused(*rule_id) {
            sys.flowspec.rule_refused(*rule_id);
        }
        changes.retain(|c| !matches!(c, AbstractChange::AddRule(r) if r.id == *rule_id));
        sys.obs.registry.counter_inc(match rejection {
            AuditRejection::Shadowed { .. } => "analyze.rejected_shadowed",
            AuditRejection::Conflict { .. } => "analyze.rejected_conflict",
            AuditRejection::EmptyMatch => "analyze.rejected_empty",
            AuditRejection::Duplicate { .. } => "analyze.rejected_duplicate",
        });
        sys.obs.event(
            now,
            "analyze.rejected",
            vec![("rule_id".to_string(), rule_id.to_string())],
        );
    }
    let reg = &mut sys.obs.registry;
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
    audit.rejected.len()
}

/// `StellarSystem::enqueue_changes` without the delivery-chaos branch.
fn staged_enqueue(
    sys: &mut StellarSystem,
    tr: &mut Tracer,
    changes: Vec<AbstractChange>,
    now: u64,
) {
    if changes.is_empty() {
        return;
    }
    sys.watchdog.note_activity(now);
    tr.span("core.queue", || sys.queue.enqueue_group(changes, now));
}

/// `StellarSystem::admit_flowspec_output`, staged: withdrawals first, then
/// refusals, then accepted NLRIs through lowering, proof and audit.
fn staged_admit_flowspec(
    sys: &mut StellarSystem,
    tr: &mut Tracer,
    rs_out: FlowSpecOutput,
    now: u64,
) -> Admit {
    let mut admit = Admit::default();
    for (owner, flow) in &rs_out.withdrawn {
        let removals = tr.span("core.withdraw", || sys.flowspec.withdraw(*owner, flow));
        if !removals.is_empty() {
            sys.obs.registry.counter_inc("flowspec.withdrawn");
        }
        admit.queued += removals.len();
        staged_enqueue(sys, tr, removals, now);
    }
    for (_, reason) in &rs_out.rejections {
        sys.obs.registry.counter_inc("flowspec.rejected_validation");
        sys.obs.event(
            now,
            "flowspec.rejected",
            vec![("reason".to_string(), reason.describe().to_string())],
        );
        admit.refused += 1;
    }
    for acc in rs_out.accepted {
        match tr.span("core.flowspec_install", || sys.flowspec.install(&acc)) {
            Err(e) => {
                sys.obs.registry.counter_inc("flowspec.rejected_lowering");
                sys.obs.event(
                    now,
                    "flowspec.rejected",
                    vec![("reason".to_string(), e.describe().to_string())],
                );
                admit.refused += 1;
            }
            Ok(mut changes) => {
                let rejected = staged_audit(sys, tr, &mut changes, now);
                let reg = &mut sys.obs.registry;
                reg.counter_add("flowspec.rejected_audit", rejected as u64);
                if rejected == 0 {
                    reg.counter_inc("flowspec.accepted");
                }
                admit.refused += rejected;
                admit.queued += changes.len();
                staged_enqueue(sys, tr, changes, now);
            }
        }
    }
    admit
}
