//! Fault injection: fires the scripted faults due and reacts to each.
//! Whatever a fault makes the route server or the planes re-emit goes
//! through admission like a member's own announcement.

use super::{ProofLedger, StellarSystem};
use crate::faults::{FaultEvent, FaultKind, RecoveryEvent};

impl StellarSystem {
    /// Fires scripted faults due by `now_us` and reacts to them.
    pub(super) fn poll_faults(&mut self, now_us: u64) {
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
                // controller-side flap, and so did the FlowSpec RIB
                // (re-lowered under fresh ids, same specs). Both re-enter
                // through admission, audit included: a rule the audit
                // refused before the flap is refused again.
                let updates = self.ixp.route_server.controller_resync();
                let mut resync = self.admit_updates(&updates, now_us);
                let rib = self.ixp.route_server.flowspec_routes();
                let accepted: Vec<_> = rib.into_iter().cloned().collect();
                for acc in &accepted {
                    let lowered = self.admit_lowering(acc, &mut resync.audit_rejections, now_us);
                    resync.queued_changes += lowered.unwrap_or(0);
                }
                let changes = resync.queued_changes;
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
                self.admit_updates(&rs_out.controller_updates, now_us);
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
                    self.admit_updates(&rs_out.controller_updates, now_us);
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
}
