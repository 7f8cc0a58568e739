//! The edge router: member ports + TCAM + control-plane CPU.
//!
//! IXPs "often deploy routers but configure them to act as switches"
//! (§5.1 fn. 5): the ER forwards on L2 (destination MAC → member port)
//! while its QoS machinery implements Stellar's filtering layer.

use crate::cpu::ControlPlaneCpu;
use crate::filter::FilterRule;
use crate::hardware::HardwareInfoBase;
use crate::port::MemberPort;
use crate::qos::{Offer, TickResult};
use crate::tcam::{Tcam, TcamHandle, TcamVerdict};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use stellar_classify::sharded;
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::packet::Packet;

/// Identifies a member port on the ER. `u32` so multi-PoP fabrics can
/// address ~10^6 ports with one flat, fabric-unique id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// One tick's worth of traffic belonging to one flow.
#[derive(Debug, Clone, Copy)]
pub struct OfferedAggregate {
    /// Flow key; `dst_mac` selects the egress port.
    pub key: FlowKey,
    /// Bytes in this tick.
    pub bytes: u64,
    /// Packets in this tick.
    pub packets: u64,
}

/// Errors installing a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// No such port.
    NoSuchPort,
    /// The vendor's per-port rule limit would be exceeded.
    PerPortLimit,
    /// TCAM exhaustion (F1/F2, Fig. 9).
    Tcam(TcamVerdict),
}

/// Fate of a single packet on the functional path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketVerdict {
    /// Delivered to the member on this port.
    Delivered(PortId),
    /// Discarded by a drop rule.
    Dropped,
    /// Queued behind a shaping rule (per-packet path reports the match;
    /// rate enforcement happens on the aggregate path).
    Shaped(PortId),
    /// No port knows this destination MAC.
    Unroutable,
}

/// The tick pipeline's reusable arena: per-port offer buckets, the
/// touched-port worklist, and one recycled [`TickResult`] per port, all
/// keyed by a dense port index (position in the router's ascending
/// `PortId` order). Buckets and results are cleared, never freed,
/// between ticks, so a steady-state tick allocates nothing here.
#[derive(Debug, Default)]
struct TickScratch {
    /// Offers routed to each port this tick, by dense index.
    buckets: Vec<Vec<Offer>>,
    /// Dense indices that received traffic this tick, sorted ascending
    /// (= ascending `PortId`, the deterministic merge order).
    touched: Vec<u32>,
    /// Recycled per-port results, by dense index.
    results: Vec<TickResult>,
}

/// Borrowed view of one tick's outcome, indexed over the arena: the
/// results stay owned by the router for recycling.
#[derive(Debug, Clone, Copy)]
pub struct TickView<'a> {
    dense: &'a [PortId],
    touched: &'a [u32],
    results: &'a [TickResult],
}

impl<'a> TickView<'a> {
    /// Per-port results in ascending `PortId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, &'a TickResult)> + '_ {
        self.touched
            .iter()
            .map(|&i| (self.dense[i as usize], &self.results[i as usize]))
    }

    /// The result for one port, if it saw traffic this tick.
    pub fn get(&self, pid: PortId) -> Option<&'a TickResult> {
        self.touched
            .iter()
            .find(|&&i| self.dense[i as usize] == pid)
            .map(|&i| &self.results[i as usize])
    }

    /// Number of ports that saw traffic this tick.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no port saw traffic.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

/// A point lookup in the port map costs about this many steps of an
/// in-order walk over it (17–70 ns against 2–6 ns, measured warm at 800
/// to 10^5 ports), so [`EdgeRouter::occupied_ports`] walks once the
/// occupied share passes one in this many: 20 of 6 250 ports per PoP
/// are looked up, 800 of 800 are walked.
const OCCUPIED_WALK_RATIO: usize = 16;

/// The edge router.
#[derive(Debug)]
pub struct EdgeRouter {
    hib: HardwareInfoBase,
    ports: BTreeMap<PortId, MemberPort>,
    mac_to_port: HashMap<MacAddr, PortId>,
    tcam: Tcam,
    cpu: ControlPlaneCpu,
    handles: HashMap<(PortId, u64), TcamHandle>,
    /// The ports that may hold rules: a superset of the ports with at
    /// least one, under every public path — `install_rule`, `add_port`
    /// with a pre-populated policy, and `port_mut`, whose caller can
    /// install straight into `port.policy`. Reads filter out the ports
    /// that turn out empty, so rule-state walks cost O(occupied ports).
    occupied: BTreeSet<PortId>,
    /// Bumped by every call that changed, or (`port_mut`) may have
    /// changed, a rule table: equal versions mean equal rule state.
    rule_version: u64,
    /// Port ids in ascending order; position = dense index.
    dense: Vec<PortId>,
    /// Destination MAC → dense index (the tick path's routing table).
    mac_dense: HashMap<MacAddr, u32>,
    /// Tick arena (see [`TickScratch`]).
    scratch: TickScratch,
    /// Dense index / arena are out of date (ports were added since the
    /// last rebuild). Rebuilt lazily at the next tick, so bulk topology
    /// construction is O(ports), not O(ports²).
    dense_dirty: bool,
    /// Max workers for the parallel tick mode; 1 = sequential.
    tick_workers: usize,
    /// Minimum per-tick work (Σ over touched ports of 1 + rules) below
    /// which the tick runs sequentially even when `tick_workers` > 1.
    parallel_min_work: u64,
    /// Whether the most recent tick actually fanned out to the pool.
    last_parallel: bool,
    /// Cumulative rule installs (including replacements' re-installs).
    installs: u64,
    /// Cumulative rule removals, including flush/restart wipes — so
    /// `installs - removals` always equals the live rule count and the
    /// obs ledger cannot drift from TCAM occupancy after a
    /// fault-recovery flush.
    removals: u64,
}

impl EdgeRouter {
    /// Creates an ER from a hardware description.
    pub fn new(hib: HardwareInfoBase) -> Self {
        let tcam = hib.tcam();
        let cpu = hib.cpu_model();
        EdgeRouter {
            hib,
            ports: BTreeMap::new(),
            mac_to_port: HashMap::new(),
            tcam,
            cpu,
            handles: HashMap::new(),
            occupied: BTreeSet::new(),
            rule_version: 0,
            dense: Vec::new(),
            mac_dense: HashMap::new(),
            scratch: TickScratch::default(),
            dense_dirty: false,
            tick_workers: sharded::default_workers(),
            parallel_min_work: sharded::DEFAULT_PARALLEL_MIN_WORK,
            last_parallel: false,
            installs: 0,
            removals: 0,
        }
    }

    /// Adds a member port. Panics if the port id is taken (topology bug).
    /// The dense tick index is rebuilt lazily at the next tick, so adding
    /// N ports costs O(N log N) total rather than O(N²).
    pub fn add_port(&mut self, id: PortId, port: MemberPort) {
        assert!(
            !self.ports.contains_key(&id),
            "duplicate port id {id:?} in topology"
        );
        self.mac_to_port.insert(port.mac, id);
        if port.policy.rule_count() > 0 {
            self.occupied.insert(id);
            self.rule_version += 1;
        }
        self.ports.insert(id, port);
        self.dense_dirty = true;
    }

    /// Rebuilds the dense port index and resizes the arena after topology
    /// changes. No-op on the steady-state tick path.
    fn ensure_dense(&mut self) {
        if !self.dense_dirty {
            return;
        }
        self.dense_dirty = false;
        self.dense.clear();
        self.dense.extend(self.ports.keys().copied());
        self.mac_dense.clear();
        for (i, p) in self.ports.values().enumerate() {
            self.mac_dense.insert(p.mac, i as u32);
        }
        self.scratch.buckets.resize_with(self.dense.len(), Vec::new);
        self.scratch
            .results
            .resize_with(self.dense.len(), TickResult::default);
        // Stale touched indices would point at re-dense-indexed ports.
        for b in &mut self.scratch.buckets {
            b.clear();
        }
        self.scratch.touched.clear();
    }

    /// Caps the parallel tick fan-out; `1` forces the sequential
    /// in-place path. Defaults to the machine's available parallelism.
    pub fn set_tick_workers(&mut self, workers: usize) {
        self.tick_workers = workers.max(1);
    }

    /// The current parallel tick fan-out cap.
    pub fn tick_workers(&self) -> usize {
        self.tick_workers
    }

    /// Sets the adaptive-parallelism cutoff: ticks whose work estimate
    /// (Σ over touched ports of 1 + rules) falls below this run
    /// sequentially regardless of `tick_workers`. `0` disables the
    /// cutoff. Defaults to [`sharded::DEFAULT_PARALLEL_MIN_WORK`].
    pub fn set_parallel_min_work(&mut self, min_work: u64) {
        self.parallel_min_work = min_work;
    }

    /// The adaptive-parallelism cutoff currently in force.
    pub fn parallel_min_work(&self) -> u64 {
        self.parallel_min_work
    }

    /// Whether the most recent tick actually fanned out to the worker
    /// pool (false: sequential, by configuration or by the adaptive
    /// cutoff). Benchmarks record this as the effective execution mode.
    pub fn last_tick_parallel(&self) -> bool {
        self.last_parallel
    }

    /// The port a MAC address is attached to.
    pub fn port_of_mac(&self, mac: MacAddr) -> Option<PortId> {
        self.mac_to_port.get(&mac).copied()
    }

    /// Immutable access to a port.
    pub fn port(&self, id: PortId) -> Option<&MemberPort> {
        self.ports.get(&id)
    }

    /// Mutable access to a port. The caller may edit `port.policy`
    /// behind the router's back, so the port counts as occupied and the
    /// rule state as changed from here on.
    pub fn port_mut(&mut self, id: PortId) -> Option<&mut MemberPort> {
        let port = self.ports.get_mut(&id)?;
        self.occupied.insert(id);
        self.rule_version += 1;
        Some(port)
    }

    /// Iterates over all ports.
    pub fn ports(&self) -> impl Iterator<Item = (&PortId, &MemberPort)> {
        self.ports.iter()
    }

    /// The ports holding at least one rule, ascending by id — what
    /// [`ports`](Self::ports) yields with the empty ones filtered out.
    /// While few ports are occupied each is looked up from the index;
    /// once more than one in [`OCCUPIED_WALK_RATIO`] is, walking every
    /// port in order is the cheaper way to the same answer.
    pub fn occupied_ports(&self) -> impl Iterator<Item = (PortId, &MemberPort)> {
        let dense = self.occupied.len() * OCCUPIED_WALK_RATIO > self.ports.len();
        let walked = dense.then(|| self.ports.iter()).into_iter().flatten();
        let indexed = (!dense).then(|| self.occupied.iter()).into_iter().flatten();
        walked
            .map(|(id, port)| (*id, port))
            .chain(indexed.filter_map(|id| Some((*id, self.ports.get(id)?))))
            .filter(|(_, port)| port.policy.rule_count() > 0)
    }

    /// The rule-state version: it strictly increases across every call
    /// that changed a rule table, so an unchanged version means every
    /// port's installed rules are what they were.
    pub fn rule_version(&self) -> u64 {
        self.rule_version
    }

    /// The TCAM (read access for scaling experiments).
    pub fn tcam(&self) -> &Tcam {
        self.tcam_ref()
    }

    fn tcam_ref(&self) -> &Tcam {
        &self.tcam
    }

    /// The control-plane CPU model.
    pub fn cpu_mut(&mut self) -> &mut ControlPlaneCpu {
        &mut self.cpu
    }

    /// Installs a rule on a port's egress policy, charging TCAM and CPU.
    /// All-or-nothing: on any failure neither the TCAM nor the policy is
    /// modified.
    pub fn install_rule(
        &mut self,
        port_id: PortId,
        rule: FilterRule,
        now_us: u64,
    ) -> Result<(), InstallError> {
        let port = self
            .ports
            .get_mut(&port_id)
            .ok_or(InstallError::NoSuchPort)?;
        let replacing = self.handles.contains_key(&(port_id, rule.id));
        if !replacing && port.policy.rule_count() >= self.hib.max_rules_per_port {
            return Err(InstallError::PerPortLimit);
        }
        // Release the old allocation first when replacing, so retuning a
        // rule never double-charges the TCAM.
        if let Some(old) = self.handles.remove(&(port_id, rule.id)) {
            self.tcam.free(old);
        }
        let handle = self.tcam.alloc(&rule.spec).map_err(InstallError::Tcam)?;
        self.handles.insert((port_id, rule.id), handle);
        port.policy.install(rule);
        // A replacement is one removal plus one install in the ledger,
        // counted only once the new allocation succeeded.
        if replacing {
            self.removals += 1;
        }
        self.installs += 1;
        self.occupied.insert(port_id);
        self.rule_version += 1;
        self.cpu.record_update(now_us);
        Ok(())
    }

    /// Removes a rule, releasing its TCAM allocation.
    pub fn remove_rule(&mut self, port_id: PortId, rule_id: u64, now_us: u64) -> bool {
        let Some(port) = self.ports.get_mut(&port_id) else {
            return false;
        };
        let removed = port.policy.remove(rule_id);
        if removed {
            if let Some(h) = self.handles.remove(&(port_id, rule_id)) {
                self.tcam.free(h);
            }
            if port.policy.rule_count() == 0 {
                self.occupied.remove(&port_id);
            }
            self.removals += 1;
            self.rule_version += 1;
            self.cpu.record_update(now_us);
        }
        removed
    }

    /// Removes every rule on a port (fallback-to-forwarding resilience,
    /// §4.1.2). Returns how many rules were removed.
    pub fn flush_port(&mut self, port_id: PortId, now_us: u64) -> usize {
        let Some(port) = self.ports.get_mut(&port_id) else {
            return 0;
        };
        // The policy reports what was installed, so nothing re-walks
        // the rule list here.
        let ids = port.policy.clear();
        for id in &ids {
            if let Some(h) = self.handles.remove(&(port_id, *id)) {
                self.tcam.free(h);
            }
        }
        // A flush is N removals in the obs ledger, same as N
        // remove_rule calls — occupancy gauges cannot drift from it.
        self.removals += ids.len() as u64;
        self.occupied.remove(&port_id);
        if !ids.is_empty() {
            self.rule_version += 1;
            self.cpu.record_update(now_us);
        }
        ids.len()
    }

    /// Cold-restarts the edge router: every volatile piece of filter
    /// state — per-port QoS policies, rule telemetry counters, TCAM
    /// allocations — is wiped, while the persistent configuration (ports,
    /// MAC table, hardware description) survives, exactly as a power
    /// cycle behaves. Traffic keeps forwarding unfiltered afterwards
    /// (availability first, §4.1.2); the control plane must reconcile
    /// the rules back in. Returns how many installed rules were lost.
    pub fn restart(&mut self, now_us: u64) -> usize {
        let mut wiped = 0;
        for port in self.ports.values_mut() {
            wiped += port.policy.reset();
        }
        self.handles.clear();
        self.tcam.reset();
        // Like flush_port: every wiped rule is a ledger removal, so the
        // install/removal counters keep agreeing with TCAM occupancy
        // across a power cycle.
        self.removals += wiped as u64;
        self.occupied.clear();
        if wiped > 0 {
            self.rule_version += 1;
            self.cpu.record_update(now_us);
        }
        wiped
    }

    /// Moves the most recent tick's per-port results out of the arena, in
    /// ascending `PortId` order. The arena slots are left empty, so their
    /// buffers are reallocated by the next tick.
    pub fn take_tick_results(&mut self) -> impl Iterator<Item = (PortId, TickResult)> + '_ {
        let TickScratch {
            touched, results, ..
        } = &mut self.scratch;
        let dense = &self.dense;
        touched
            .iter()
            .map(move |&i| (dense[i as usize], std::mem::take(&mut results[i as usize])))
    }

    /// The zero-allocation tick path: routes `offers` into the arena's
    /// per-port buckets, runs every touched port's policy (in parallel
    /// when [`tick_workers`](Self::tick_workers) > 1), and returns a
    /// borrowed view of the per-port results, merged in ascending
    /// `PortId` order.
    ///
    /// Ports are independent shards — each owns its policy, shapers and
    /// counters, and is mutated only by its owning worker — so parallel
    /// and sequential modes produce bit-identical results and obs
    /// snapshots; only wall-clock differs.
    pub fn process_tick_in_place(
        &mut self,
        offers: &[OfferedAggregate],
        tick_end_us: u64,
        tick_us: u64,
    ) -> TickView<'_> {
        self.run_tick(offers, tick_end_us, tick_us);
        TickView {
            dense: &self.dense,
            touched: &self.scratch.touched,
            results: &self.scratch.results,
        }
    }

    fn run_tick(&mut self, offers: &[OfferedAggregate], tick_end_us: u64, tick_us: u64) {
        self.ensure_dense();
        let TickScratch {
            buckets,
            touched,
            results,
        } = &mut self.scratch;
        // Clear-don't-free: only last tick's touched buckets hold data.
        for &i in touched.iter() {
            buckets[i as usize].clear();
        }
        touched.clear();
        for o in offers {
            if let Some(&i) = self.mac_dense.get(&o.key.dst_mac) {
                let bucket = &mut buckets[i as usize];
                if bucket.is_empty() {
                    touched.push(i);
                }
                bucket.push(Offer {
                    key: o.key,
                    bytes: o.bytes,
                    packets: o.packets,
                });
            }
            // Unroutable aggregates vanish (no port = no delivery), as on
            // a real fabric with no FDB entry and unicast flooding off.
        }
        // Deterministic merge order: ascending dense index == ascending
        // PortId, independent of offer arrival order and worker count.
        touched.sort_unstable();
        // Adaptive cutoff: estimate the tick's work as Σ over touched
        // ports of (1 + installed rules) — roughly ports × rules. Below
        // the threshold, pool dispatch costs more than it buys (the
        // 4-port sweep cell ran at 0.48× sequential), so fall back to
        // the in-place sequential walk, which also allocates nothing.
        let mut work = 0u64;
        for &i in touched.iter() {
            if let Some(p) = self.ports.get(&self.dense[i as usize]) {
                work += 1 + p.policy.rule_count() as u64;
            }
        }
        let workers = sharded::effective_workers(self.tick_workers, work, self.parallel_min_work);
        self.last_parallel = workers > 1 && touched.len() > 1;
        // `ports` iterates in key order and `touched` is ascending, so a
        // single forward walk pairs each touched dense index with its
        // port (position in the iteration == dense index).
        if !self.last_parallel {
            let mut ports_iter = self.ports.values_mut().enumerate();
            for &i in touched.iter() {
                if let Some((_, port)) = ports_iter.find(|(j, _)| *j == i as usize) {
                    port.process_tick_into(
                        &buckets[i as usize],
                        tick_end_us,
                        tick_us,
                        &mut results[i as usize],
                    );
                }
            }
            return;
        }
        // One shard per touched port: the port (sole owner of its
        // policy/shaper/counter state), its bucket, and its recycled
        // result slot.
        let mut shards: Vec<(&mut MemberPort, &[Offer], &mut TickResult)> =
            Vec::with_capacity(touched.len());
        let mut ports_iter = self.ports.values_mut().enumerate();
        let mut results_iter = results.iter_mut().enumerate();
        for &i in touched.iter() {
            let (Some((_, port)), Some((_, result))) = (
                ports_iter.find(|(j, _)| *j == i as usize),
                results_iter.find(|(j, _)| *j == i as usize),
            ) else {
                continue;
            };
            shards.push((port, &buckets[i as usize], result));
        }
        sharded::parallel_shards(shards, workers, |(port, offers, result)| {
            port.process_tick_into(offers, tick_end_us, tick_us, result);
        });
    }

    /// Functional per-packet path (§5.2): decodes real wire bytes,
    /// classifies them against the egress port's policy, and reports the
    /// packet's fate.
    pub fn process_packet(&self, wire: &[u8]) -> Result<PacketVerdict, stellar_net::NetError> {
        let packet = Packet::decode(wire)?;
        let key = packet.flow_key();
        let Some((pid, port)) = self
            .mac_to_port
            .get(&key.dst_mac)
            .and_then(|pid| Some((pid, self.ports.get(pid)?)))
        else {
            return Ok(PacketVerdict::Unroutable);
        };
        match port.policy.classify(&key).map(|r| r.action) {
            Some(crate::filter::Action::Drop) => Ok(PacketVerdict::Dropped),
            Some(crate::filter::Action::Shape { .. }) => Ok(PacketVerdict::Shaped(*pid)),
            _ => Ok(PacketVerdict::Delivered(*pid)),
        }
    }

    /// Total rules installed across all ports.
    pub fn total_rules(&self) -> usize {
        self.occupied_ports()
            .map(|(_, p)| p.policy.rule_count())
            .sum()
    }

    /// The cumulative `(installs, removals)` ledger published to obs.
    /// Invariant: `installs - removals == total_rules()`.
    pub fn rule_ledger(&self) -> (u64, u64) {
        (self.installs, self.removals)
    }

    /// Publishes the data-plane gauges — TCAM occupancy, the rule ledger —
    /// and replaces the registry's per-port table with this router's
    /// ports.
    pub fn observe(&self, reg: &mut stellar_obs::MetricsRegistry) {
        self.tcam.observe(reg);
        reg.gauge_set("dataplane.total_rules", self.total_rules() as i64);
        // Cumulative install/removal ledger: every mutation path —
        // install_rule, remove_rule, flush_port, restart — feeds these,
        // so `rule_installs - rule_removals == total_rules` always.
        reg.counter_set("dataplane.rule_installs", self.installs);
        reg.counter_set("dataplane.rule_removals", self.removals);
        reg.replace_ports(self.port_rows());
    }

    /// One scrape row per member port, ascending by port id: rule/shaper
    /// population and the cumulative queue counters (forwarded, drop-rule
    /// drops, shaper passes/drops, congestion drops). The multi-PoP
    /// fabric chains these across routers (port ids are fabric-unique)
    /// while aggregating the router-global gauges itself.
    pub fn port_rows(&self) -> impl Iterator<Item = stellar_obs::PortRow> + '_ {
        self.ports.iter().map(|(pid, port)| {
            let c = &port.counters;
            stellar_obs::PortRow {
                port: pid.0,
                rules: port.policy.rule_count() as u64,
                shape_queues: port.policy.shaper_count() as u64,
                forwarded_bytes: c.forwarded_bytes,
                dropped_bytes: c.dropped_bytes,
                shaped_bytes: c.shaped_bytes,
                shape_dropped_bytes: c.shape_dropped_bytes,
                congestion_dropped_bytes: c.congestion_dropped_bytes,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Action, MatchSpec};
    use stellar_net::addr::Ipv4Address;
    use stellar_net::proto::IpProtocol;

    fn router_with_two_ports() -> EdgeRouter {
        let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
        er.add_port(
            PortId(1),
            MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000),
        );
        er.add_port(
            PortId(2),
            MemberPort::new(64501, MacAddr::for_member(64501, 1), 10_000_000_000),
        );
        er
    }

    /// One tick, its results moved out of the arena.
    fn tick(
        er: &mut EdgeRouter,
        offers: &[OfferedAggregate],
        tick_end_us: u64,
        tick_us: u64,
    ) -> BTreeMap<PortId, TickResult> {
        er.process_tick_in_place(offers, tick_end_us, tick_us);
        er.take_tick_results().collect()
    }

    fn ntp_flow(dst_member: u32, bytes: u64) -> OfferedAggregate {
        OfferedAggregate {
            key: FlowKey {
                src_mac: MacAddr::for_member(64502, 1),
                dst_mac: MacAddr::for_member(dst_member, 1),
                src_ip: stellar_net::addr::IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
                dst_ip: stellar_net::addr::IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
                protocol: IpProtocol::UDP,
                src_port: 123,
                dst_port: 44444,
                ..FlowKey::default()
            },
            bytes,
            packets: bytes / 1000 + 1,
        }
    }

    #[test]
    fn traffic_routes_to_destination_port() {
        let mut er = router_with_two_ports();
        let res = tick(
            &mut er,
            &[ntp_flow(64500, 1000), ntp_flow(64501, 2000)],
            1_000_000,
            1_000_000,
        );
        assert_eq!(res[&PortId(1)].counters.forwarded_bytes, 1000);
        assert_eq!(res[&PortId(2)].counters.forwarded_bytes, 2000);
        // Unroutable destination disappears.
        let res = tick(&mut er, &[ntp_flow(9999, 500)], 2_000_000, 1_000_000);
        assert!(res.is_empty());
    }

    #[test]
    fn install_rule_charges_tcam_and_cpu() {
        let mut er = router_with_two_ports();
        let rule = FilterRule::new(
            1,
            MatchSpec::proto_src_port_to("100.10.10.10/32".parse().unwrap(), IpProtocol::UDP, 123),
            Action::Drop,
            10,
        );
        er.install_rule(PortId(1), rule.clone(), 0).unwrap();
        assert_eq!(er.tcam().l34_used(), 3);
        assert_eq!(er.total_rules(), 1);
        let res = tick(&mut er, &[ntp_flow(64500, 1000)], 1_000_000, 1_000_000);
        assert_eq!(res[&PortId(1)].counters.dropped_bytes, 1000);
        assert!(er.remove_rule(PortId(1), 1, 2));
        assert_eq!(er.tcam().l34_used(), 0);
        let (rate, _) = er.cpu_mut().sample_window(5_000_000);
        assert!(rate > 0.0);
    }

    #[test]
    fn replacing_a_rule_does_not_leak_tcam() {
        let mut er = router_with_two_ports();
        let mk = |rate| {
            FilterRule::new(
                1,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    123,
                ),
                Action::Shape { rate_bps: rate },
                10,
            )
        };
        er.install_rule(PortId(1), mk(200_000_000), 0).unwrap();
        let used = er.tcam().l34_used();
        er.install_rule(PortId(1), mk(100_000_000), 1).unwrap();
        assert_eq!(er.tcam().l34_used(), used);
        assert_eq!(er.total_rules(), 1);
    }

    #[test]
    fn per_port_limit_is_enforced() {
        let mut er = router_with_two_ports(); // lab: 8 rules/port
        for i in 0..8u64 {
            let rule = FilterRule::new(
                i,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    i as u16,
                ),
                Action::Drop,
                10,
            );
            er.install_rule(PortId(1), rule, 0).unwrap();
        }
        let extra = FilterRule::new(
            99,
            MatchSpec::to_destination("100.10.10.10/32".parse().unwrap()),
            Action::Drop,
            10,
        );
        assert_eq!(
            er.install_rule(PortId(1), extra, 0),
            Err(InstallError::PerPortLimit)
        );
    }

    #[test]
    fn tcam_exhaustion_fails_and_rolls_back() {
        let mut er = router_with_two_ports(); // lab: 64 L3-L4 criteria
        let mut installed = 0;
        // Rules with 5 L3-L4 criteria each across the two ports.
        'outer: for port in [PortId(1), PortId(2)] {
            for i in 0..8u64 {
                let rule = FilterRule::new(
                    1000 + installed as u64 * 10 + i,
                    MatchSpec {
                        src_ip: Some("203.0.113.0/24".parse().unwrap()),
                        dst_ip: Some("100.10.10.10/32".parse().unwrap()),
                        protocol: Some(IpProtocol::UDP),
                        src_port: Some(crate::filter::PortMatch::Exact(i as u16)),
                        dst_port: Some(crate::filter::PortMatch::Exact(443)),
                        ..Default::default()
                    },
                    Action::Drop,
                    10,
                );
                match er.install_rule(port, rule, 0) {
                    Ok(()) => installed += 1,
                    Err(InstallError::Tcam(TcamVerdict::F1)) => break 'outer,
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
        assert_eq!(installed, 12); // 64 / 5 = 12 rules fit
        assert_eq!(er.total_rules(), 12);
        assert_eq!(er.tcam().l34_used(), 60);
    }

    #[test]
    fn flush_port_releases_everything() {
        let mut er = router_with_two_ports();
        for i in 0..4u64 {
            let rule = FilterRule::new(
                i,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    i as u16,
                ),
                Action::Drop,
                10,
            );
            er.install_rule(PortId(1), rule, 0).unwrap();
        }
        assert_eq!(er.flush_port(PortId(1), 1), 4);
        assert_eq!(er.total_rules(), 0);
        assert_eq!(er.tcam().l34_used(), 0);
        assert_eq!(er.flush_port(PortId(1), 2), 0);
    }

    #[test]
    fn restart_wipes_filters_but_keeps_forwarding() {
        let mut er = router_with_two_ports();
        for i in 0..3u64 {
            let rule = FilterRule::new(
                i,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    i as u16,
                ),
                Action::Drop,
                10,
            );
            er.install_rule(PortId(1), rule, 0).unwrap();
        }
        assert_eq!(er.restart(1), 3);
        assert_eq!(er.total_rules(), 0);
        assert_eq!(er.tcam().l34_used(), 0);
        assert_eq!(er.tcam().allocation_count(), 0);
        // Ports and MAC table survive: traffic still forwards (now
        // unfiltered — the fallback-to-forwarding posture).
        let res = tick(&mut er, &[ntp_flow(64500, 1000)], 1_000_000, 1_000_000);
        assert_eq!(res[&PortId(1)].counters.forwarded_bytes, 1000);
        // Rules can be reinstalled against the fresh TCAM.
        let rule = FilterRule::new(
            7,
            MatchSpec::proto_src_port_to("100.10.10.10/32".parse().unwrap(), IpProtocol::UDP, 123),
            Action::Drop,
            10,
        );
        er.install_rule(PortId(1), rule, 2).unwrap();
        assert_eq!(er.total_rules(), 1);
        // An idle restart wipes nothing.
        let mut fresh = router_with_two_ports();
        assert_eq!(fresh.restart(0), 0);
    }

    #[test]
    fn rule_ledger_survives_flush_and_restart() {
        let mut er = router_with_two_ports();
        let mk = |id: u64| {
            FilterRule::new(
                id,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    id as u16,
                ),
                Action::Drop,
                10,
            )
        };
        let agree = |er: &EdgeRouter| {
            let (installs, removals) = er.rule_ledger();
            assert_eq!(
                installs - removals,
                er.total_rules() as u64,
                "ledger drifted from live rules"
            );
            assert_eq!(
                er.tcam().allocation_count() as u64,
                installs - removals,
                "ledger drifted from TCAM occupancy"
            );
        };
        for i in 0..4u64 {
            er.install_rule(PortId(1), mk(i), 0).unwrap();
        }
        er.install_rule(PortId(2), mk(9), 0).unwrap();
        // A replacement counts once on each side of the ledger.
        er.install_rule(PortId(1), mk(2), 1).unwrap();
        agree(&er);
        assert!(er.remove_rule(PortId(1), 0, 2));
        agree(&er);
        // Fault-recovery flush: the gauges must not drift (the fix).
        assert_eq!(er.flush_port(PortId(1), 3), 3);
        agree(&er);
        assert_eq!(er.rule_ledger(), (6, 5));
        // Cold restart wipes the remaining rule on port 2.
        assert_eq!(er.restart(4), 1);
        agree(&er);
        assert_eq!(er.rule_ledger(), (6, 6));
        // And the obs snapshot carries the same numbers.
        let mut reg = stellar_obs::MetricsRegistry::new();
        er.observe(&mut reg);
        let json = serde_json::to_string(&reg.to_content()).unwrap();
        assert!(json.contains("\"dataplane.rule_installs\":6"));
        assert!(json.contains("\"dataplane.rule_removals\":6"));
    }

    #[test]
    fn occupied_index_and_rule_version_follow_every_mutation_path() {
        let mut er = router_with_two_ports();
        let mk = |id: u64| FilterRule::new(id, MatchSpec::default(), Action::Drop, 10);
        let occupied = |er: &EdgeRouter| -> Vec<u32> {
            let ids: Vec<u32> = er.occupied_ports().map(|(pid, _)| pid.0).collect();
            let walked: Vec<u32> = er
                .ports()
                .filter(|(_, p)| p.policy.rule_count() > 0)
                .map(|(pid, _)| pid.0)
                .collect();
            assert_eq!(ids, walked, "index diverged from the walk");
            let total: usize = er.ports().map(|(_, p)| p.policy.rule_count()).sum();
            assert_eq!(er.total_rules(), total);
            ids
        };
        let mut version = er.rule_version();
        let mut moved = |er: &EdgeRouter| {
            let moved = er.rule_version() > version;
            version = er.rule_version();
            moved
        };
        assert!(occupied(&er).is_empty());
        er.install_rule(PortId(2), mk(1), 0).unwrap();
        er.install_rule(PortId(2), mk(2), 0).unwrap();
        assert_eq!(occupied(&er), [2]);
        assert!(moved(&er));
        // A refused install and a miss change nothing.
        assert!(er.install_rule(PortId(9), mk(3), 0).is_err());
        assert!(!er.remove_rule(PortId(1), 1, 0));
        assert!(!moved(&er));
        assert!(er.remove_rule(PortId(2), 1, 1));
        assert_eq!(occupied(&er), [2]);
        assert!(moved(&er));
        assert!(er.remove_rule(PortId(2), 2, 1));
        assert!(occupied(&er).is_empty());
        assert!(moved(&er));
        // Straight into the policy, behind the router's back.
        er.port_mut(PortId(1)).unwrap().policy.install(mk(4));
        assert_eq!(occupied(&er), [1]);
        assert!(moved(&er));
        er.port_mut(PortId(1)).unwrap().policy.remove(4);
        assert!(occupied(&er).is_empty());
        assert!(moved(&er));
        er.install_rule(PortId(1), mk(5), 2).unwrap();
        assert_eq!(er.flush_port(PortId(1), 3), 1);
        assert!(occupied(&er).is_empty());
        assert!(moved(&er));
        assert_eq!(er.flush_port(PortId(1), 3), 0);
        assert!(!moved(&er));
        er.install_rule(PortId(1), mk(6), 4).unwrap();
        er.install_rule(PortId(2), mk(7), 4).unwrap();
        assert_eq!(occupied(&er), [1, 2]);
        assert!(moved(&er));
        assert_eq!(er.restart(5), 2);
        assert!(occupied(&er).is_empty());
        assert!(moved(&er));
        // A port attached with rules already in its policy.
        let mut populated = MemberPort::new(64502, MacAddr::for_member(64502, 1), 1_000_000_000);
        populated.policy.install(mk(8));
        er.add_port(PortId(3), populated);
        assert_eq!(occupied(&er), [3]);
        assert!(moved(&er));
    }

    #[test]
    fn port_counter_above_i64_max_survives_the_snapshot() {
        let mut er = router_with_two_ports();
        let big = i64::MAX as u64 + 12_345;
        er.port_mut(PortId(2)).unwrap().counters.shape_dropped_bytes = big;
        let mut obs = stellar_obs::Obs::new();
        er.observe(&mut obs.registry);
        assert_eq!(obs.registry.port(2).shape_dropped_bytes, big);
        // Port 1 never saw a byte: offered, not reported, reads as zero.
        assert_eq!(obs.registry.ports_total(), 2);
        assert_eq!(
            obs.registry.port(1),
            stellar_obs::PortRow {
                port: 1,
                ..Default::default()
            }
        );
        let json = obs.snapshot_json(0);
        assert!(json.contains(&format!("[2, 0, 0, 0, 0, 0, {big}, 0]")));
        assert!(!json.contains("dataplane.port."));
    }

    #[test]
    fn in_place_tick_agrees_with_owned_result() {
        let mut er = router_with_two_ports();
        let offers = [ntp_flow(64500, 1000), ntp_flow(64501, 2000)];
        let view = er.process_tick_in_place(&offers, 1_000_000, 1_000_000);
        assert_eq!(view.len(), 2);
        let got: Vec<(PortId, u64)> = view
            .iter()
            .map(|(pid, r)| (pid, r.counters.forwarded_bytes))
            .collect();
        assert_eq!(got, vec![(PortId(1), 1000), (PortId(2), 2000)]);
        assert_eq!(view.get(PortId(2)).unwrap().counters.forwarded_bytes, 2000);
        assert!(view.get(PortId(9)).is_none());
        // Second tick reuses the arena; the drain moves results out.
        let res = tick(&mut er, &offers, 2_000_000, 1_000_000);
        assert_eq!(res[&PortId(1)].counters.forwarded_bytes, 1000);
        assert!(!res.contains_key(&PortId(9)));
    }

    #[test]
    fn per_packet_path_agrees_with_policy() {
        let mut er = router_with_two_ports();
        er.install_rule(
            PortId(1),
            FilterRule::new(
                1,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    123,
                ),
                Action::Drop,
                10,
            ),
            0,
        )
        .unwrap();
        let ntp = Packet::udp_v4(
            MacAddr::for_member(64502, 1),
            MacAddr::for_member(64500, 1),
            Ipv4Address::new(203, 0, 113, 7),
            Ipv4Address::new(100, 10, 10, 10),
            123,
            44444,
            vec![0; 64],
        );
        assert_eq!(
            er.process_packet(&ntp.encode()).unwrap(),
            PacketVerdict::Dropped
        );
        let https = Packet::tcp_v4(
            MacAddr::for_member(64502, 1),
            MacAddr::for_member(64500, 1),
            Ipv4Address::new(198, 51, 100, 1),
            Ipv4Address::new(100, 10, 10, 10),
            51000,
            443,
            stellar_net::tcp::TcpFlags::SYN,
            vec![],
        );
        assert_eq!(
            er.process_packet(&https.encode()).unwrap(),
            PacketVerdict::Delivered(PortId(1))
        );
        let unroutable = Packet::udp_v4(
            MacAddr::for_member(64502, 1),
            MacAddr::for_member(7777, 1),
            Ipv4Address::new(1, 1, 1, 1),
            Ipv4Address::new(2, 2, 2, 2),
            1,
            2,
            vec![],
        );
        assert_eq!(
            er.process_packet(&unroutable.encode()).unwrap(),
            PacketVerdict::Unroutable
        );
    }
}
