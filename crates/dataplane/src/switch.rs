//! The edge router: member ports + TCAM + control-plane CPU.
//!
//! IXPs "often deploy routers but configure them to act as switches"
//! (§5.1 fn. 5): the ER forwards on L2 (destination MAC → member port)
//! while its QoS machinery implements Stellar's filtering layer.

use crate::cpu::ControlPlaneCpu;
use crate::filter::FilterRule;
use crate::hardware::HardwareInfoBase;
use crate::port::MemberPort;
use crate::qos::{Offer, TickResult, TickWork};
use crate::tcam::{Tcam, TcamHandle, TcamVerdict};
use std::collections::{BTreeMap, HashMap};
use stellar_classify::sharded;
use stellar_net::flow::FlowKey;
use stellar_net::mac::{MacAddr, MacMap};
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

/// Marks a slot no offer reached this tick in [`TickScratch::index`].
const UNTOUCHED: u32 = u32::MAX;

/// The tick pipeline's reusable arena, sized to the ports a tick
/// touches: one word per port slot (see [`EdgeRouter::add_port`]) finds
/// a touched port's *touched index* — the order in which the tick's
/// offers first reached it — and by that index sit its offer bucket and
/// recycled [`TickResult`]. Idle ports own no tick state at all, not
/// even policy scratch: the [`TickWork`] sits here, one per tick lane.
/// Everything is cleared, never freed, between ticks, so a steady-state
/// tick allocates nothing here.
#[derive(Debug, Default)]
struct TickScratch {
    /// Slot → touched index this tick, or [`UNTOUCHED`].
    index: Vec<u32>,
    /// `(slot, touched index)` of every port that received traffic this
    /// tick; sorted by `PortId` once the tick runs (the deterministic
    /// merge order).
    touched: Vec<(u32, u32)>,
    /// Offers staged this tick, by touched index.
    buckets: Vec<Vec<Offer>>,
    /// Recycled per-port results, by touched index.
    results: Vec<TickResult>,
    /// Policy scratch: the sequential walk uses the first, a fanned-out
    /// tick one per lane.
    lanes: Vec<TickWork>,
}

/// Borrowed view of one tick's outcome, indexed over the arena: the
/// results stay owned by the router for recycling.
#[derive(Debug, Clone, Copy)]
pub struct TickView<'a> {
    dense: &'a [PortId],
    touched: &'a [(u32, u32)],
    results: &'a [TickResult],
}

impl<'a> TickView<'a> {
    /// Per-port results in ascending `PortId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, &'a TickResult)> + '_ {
        self.touched
            .iter()
            .map(|&(s, i)| (self.dense[s as usize], &self.results[i as usize]))
    }

    /// The result for one port, if it saw traffic this tick.
    pub fn get(&self, pid: PortId) -> Option<&'a TickResult> {
        self.iter().find(|&(p, _)| p == pid).map(|(_, r)| r)
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

/// The edge router.
#[derive(Debug)]
pub struct EdgeRouter {
    hib: HardwareInfoBase,
    /// Member ports by slot: a port's slot is its position in attach
    /// order, handed out by `add_port` and never shifted.
    ports: Vec<MemberPort>,
    /// Port id → slot, ascending by id: the order of every port walk.
    slots: BTreeMap<PortId, u32>,
    /// Slot → port id.
    dense: Vec<PortId>,
    /// Member MAC → slot: the router's routing table.
    mac_slot: MacMap<u32>,
    tcam: Tcam,
    cpu: ControlPlaneCpu,
    handles: HashMap<(PortId, u64), TcamHandle>,
    /// The ports that may hold rules: a superset of the ports with at
    /// least one, under every public path — `install_rule`, `add_port`
    /// with a pre-populated policy, and `port_mut`, whose caller can
    /// install straight into `port.policy`. Reads filter out the ports
    /// that turn out empty, so rule-state walks cost O(occupied ports).
    /// Keyed like `slots`, so walking it reads no other map.
    occupied: BTreeMap<PortId, u32>,
    /// Bumped by every call that changed, or (`port_mut`) may have
    /// changed, a rule table: equal versions mean equal rule state.
    rule_version: u64,
    /// Tick arena (see [`TickScratch`]).
    scratch: TickScratch,
    /// The slots a scrape reads (see [`ScrapeList`]).
    scrape: ScrapeList,
    /// Max workers for the parallel tick mode; 1 = sequential.
    tick_workers: usize,
    /// Whether the most recent tick took the fanned-out path.
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
            ports: Vec::new(),
            slots: BTreeMap::new(),
            dense: Vec::new(),
            mac_slot: MacMap::default(),
            tcam,
            cpu,
            handles: HashMap::new(),
            occupied: BTreeMap::new(),
            rule_version: 0,
            scratch: TickScratch::default(),
            scrape: ScrapeList::default(),
            tick_workers: 1,
            last_parallel: false,
            installs: 0,
            removals: 0,
        }
    }

    /// Adds a member port and returns its slot: the next free one, kept
    /// for the router's lifetime, so a slot handed out earlier (to the
    /// fabric's routing table, or staged in the arena) never moves.
    /// Panics if the port id is taken (topology bug).
    pub fn add_port(&mut self, id: PortId, port: MemberPort) -> u32 {
        assert!(
            !self.slots.contains_key(&id),
            "duplicate port id {id:?} in topology"
        );
        let slot = self.ports.len() as u32;
        self.mac_slot.insert(port.mac, slot);
        if port.policy.rule_count() > 0 {
            self.occupied.insert(id, slot);
            self.rule_version += 1;
        }
        self.slots.insert(id, slot);
        self.dense.push(id);
        self.ports.push(port);
        self.scrape.listed.push(false);
        if self.row(slot).is_active() {
            self.scrape.add(slot);
        }
        slot
    }

    /// Number of member ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    fn slot(&self, id: PortId) -> Option<usize> {
        self.slots.get(&id).map(|&s| s as usize)
    }

    /// Caps the parallel tick fan-out; `1` (the default) is the
    /// sequential in-place path.
    pub fn set_tick_workers(&mut self, workers: usize) {
        self.tick_workers = workers.max(1);
    }

    /// The current parallel tick fan-out cap.
    pub fn tick_workers(&self) -> usize {
        self.tick_workers
    }

    /// Whether the most recent tick fanned its touched ports out over
    /// [`tick_workers`](Self::tick_workers) lanes (false: one worker, or
    /// at most one touched port). Benchmarks record this as the
    /// effective execution mode.
    pub fn last_tick_parallel(&self) -> bool {
        self.last_parallel
    }

    /// The port a MAC address is attached to.
    pub fn port_of_mac(&self, mac: MacAddr) -> Option<PortId> {
        self.mac_slot.get(&mac).map(|&s| self.dense[s as usize])
    }

    /// The port in `slot`, as returned by [`add_port`](Self::add_port).
    pub fn port_at(&self, slot: u32) -> Option<PortId> {
        self.dense.get(slot as usize).copied()
    }

    /// Immutable access to a port.
    pub fn port(&self, id: PortId) -> Option<&MemberPort> {
        Some(&self.ports[self.slot(id)?])
    }

    /// Mutable access to a port. The caller may edit `port.policy` and
    /// `port.counters` behind the router's back, so the port counts as
    /// occupied and scraped, and the rule state as changed, from here on.
    pub fn port_mut(&mut self, id: PortId) -> Option<&mut MemberPort> {
        let s = self.slot(id)?;
        self.occupied.insert(id, s as u32);
        self.scrape.add(s as u32);
        self.rule_version += 1;
        Some(&mut self.ports[s])
    }

    /// Iterates over all ports, ascending by id.
    pub fn ports(&self) -> impl Iterator<Item = (&PortId, &MemberPort)> {
        self.slots
            .iter()
            .map(|(id, &s)| (id, &self.ports[s as usize]))
    }

    /// The ports holding at least one rule, ascending by id — what
    /// [`ports`](Self::ports) yields with the empty ones filtered out,
    /// read from the index: never more steps than the full walk.
    pub fn occupied_ports(&self) -> impl Iterator<Item = (PortId, &MemberPort)> {
        let ports = self
            .occupied
            .iter()
            .map(|(id, &s)| (*id, &self.ports[s as usize]));
        ports.filter(|(_, port)| port.policy.rule_count() > 0)
    }

    /// The rule-state version: it strictly increases across every call
    /// that changed a rule table, so an unchanged version means every
    /// port's installed rules are what they were.
    pub fn rule_version(&self) -> u64 {
        self.rule_version
    }

    /// The TCAM (read access for scaling experiments).
    pub fn tcam(&self) -> &Tcam {
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
        let s = self.slot(port_id).ok_or(InstallError::NoSuchPort)?;
        let port = &mut self.ports[s];
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
        self.occupied.insert(port_id, s as u32);
        self.scrape.add(s as u32);
        self.rule_version += 1;
        self.cpu.record_update(now_us);
        Ok(())
    }

    /// Removes a rule, releasing its TCAM allocation.
    pub fn remove_rule(&mut self, port_id: PortId, rule_id: u64, now_us: u64) -> bool {
        let Some(s) = self.slot(port_id) else {
            return false;
        };
        let port = &mut self.ports[s];
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
        let Some(s) = self.slot(port_id) else {
            return 0;
        };
        // The policy reports what was installed, so nothing re-walks
        // the rule list here.
        let ids = self.ports[s].policy.clear();
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
        for port in &mut self.ports {
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
            .map(move |&(s, i)| (dense[s as usize], std::mem::take(&mut results[i as usize])))
    }

    /// The zero-allocation tick path: stages `offers` into the arena's
    /// per-port buckets by destination MAC, then runs them
    /// ([`run_staged`](Self::run_staged)) and returns a borrowed view of
    /// the per-port results, merged in ascending `PortId` order.
    /// Unroutable aggregates vanish (no port = no delivery), as on a real
    /// fabric with no FDB entry and unicast flooding off.
    pub fn process_tick_in_place(
        &mut self,
        offers: &[OfferedAggregate],
        tick_end_us: u64,
        tick_us: u64,
    ) -> TickView<'_> {
        self.begin_tick();
        for o in offers {
            if let Some(&slot) = self.mac_slot.get(&o.key.dst_mac) {
                self.stage(slot, o);
            }
        }
        self.run_staged(tick_end_us, tick_us);
        TickView {
            dense: &self.dense,
            touched: &self.scratch.touched,
            results: &self.scratch.results,
        }
    }

    /// Opens a tick's staging phase: sizes the slot index to the ports
    /// (a router that never ticks never allocates one) and empties the
    /// entries the last tick filled (clear-don't-free).
    pub fn begin_tick(&mut self) {
        let scratch = &mut self.scratch;
        scratch.index.resize(self.ports.len(), UNTOUCHED);
        for &(s, i) in &scratch.touched {
            scratch.index[s as usize] = UNTOUCHED;
            scratch.buckets[i as usize].clear();
        }
        scratch.touched.clear();
    }

    /// Stages one offer for the port in `slot` — a slot this router
    /// returned from [`add_port`](Self::add_port) before the last
    /// [`begin_tick`](Self::begin_tick), which the fabric resolves once
    /// per offer from its own routing table.
    #[inline]
    pub fn stage(&mut self, slot: u32, o: &OfferedAggregate) {
        let scratch = &mut self.scratch;
        let i = &mut scratch.index[slot as usize];
        if *i == UNTOUCHED {
            *i = scratch.touched.len() as u32;
            scratch.touched.push((slot, *i));
            if scratch.buckets.len() == *i as usize {
                scratch.buckets.push(Vec::new());
                scratch.results.push(TickResult::default());
            }
        }
        scratch.buckets[*i as usize].push(Offer {
            key: o.key,
            bytes: o.bytes,
            packets: o.packets,
        });
    }

    /// Runs every port staged since [`begin_tick`](Self::begin_tick)
    /// through its policy (in parallel when
    /// [`tick_workers`](Self::tick_workers) > 1 and more than one port
    /// was touched), leaving the results in the arena.
    ///
    /// Ports are independent shards — each owns its policy, shapers and
    /// counters, and is mutated only by its owning worker — so parallel
    /// and sequential modes produce bit-identical results and obs
    /// snapshots; only wall-clock differs.
    pub fn run_staged(&mut self, tick_end_us: u64, tick_us: u64) {
        let TickScratch {
            touched,
            buckets,
            results,
            lanes,
            ..
        } = &mut self.scratch;
        for &(s, _) in touched.iter() {
            self.scrape.add(s);
        }
        // Deterministic merge order: ascending PortId, independent of
        // offer arrival order and worker count.
        touched.sort_unstable_by_key(|&(s, _)| self.dense[s as usize]);
        self.last_parallel = self.tick_workers > 1 && touched.len() > 1;
        let lane_count = self.tick_workers.min(touched.len()).max(1);
        if lanes.len() < lane_count {
            lanes.resize_with(lane_count, TickWork::default);
        }
        if !self.last_parallel {
            for &(s, i) in touched.iter() {
                let (port, work) = (&mut self.ports[s as usize], &mut lanes[0]);
                let (offers, result) = (&buckets[i as usize], &mut results[i as usize]);
                port.process_tick_into(offers, tick_end_us, tick_us, work, result);
            }
            return;
        }
        // One lane per worker, each with its own scratch and a run of
        // touched indices: their ports (each the sole owner of its
        // policy/shaper/counter state), buckets and recycled results.
        // Ports are borrowed in ascending slot order by skipping ahead
        // (`nth` is O(1) on a slice iterator) — never a walk over every
        // port — then put back in touched-index order. The touched list
        // returns to `PortId` order after.
        touched.sort_unstable();
        let (mut ports, mut next) = (self.ports.iter_mut(), 0);
        let mut by_index: Vec<(u32, &mut MemberPort)> = Vec::with_capacity(touched.len());
        by_index.extend(touched.iter().filter_map(|&(s, i)| {
            let (s, skip) = (s as usize, s as usize - next);
            next = s + 1;
            Some((i, ports.nth(skip)?))
        }));
        by_index.sort_unstable_by_key(|&(i, _)| i);
        let n = by_index.len().div_ceil(lane_count);
        let runs = by_index
            .chunks_mut(n)
            .zip(buckets.chunks(n).zip(results.chunks_mut(n)));
        let lanes: Vec<_> = lanes.iter_mut().zip(runs).collect();
        sharded::parallel_shards(lanes, lane_count, |(work, (ports, (buckets, results)))| {
            for (((_, port), offers), result) in ports.iter_mut().zip(buckets).zip(results) {
                port.process_tick_into(offers, tick_end_us, tick_us, work, result);
            }
        });
        touched.sort_unstable_by_key(|&(s, _)| self.dense[s as usize]);
    }

    /// Functional per-packet path (§5.2): decodes real wire bytes,
    /// classifies them against the egress port's policy, and reports the
    /// packet's fate.
    pub fn process_packet(&self, wire: &[u8]) -> Result<PacketVerdict, stellar_net::NetError> {
        let packet = Packet::decode(wire)?;
        let key = packet.flow_key();
        let Some(&s) = self.mac_slot.get(&key.dst_mac) else {
            return Ok(PacketVerdict::Unroutable);
        };
        let pid = self.dense[s as usize];
        match self.ports[s as usize]
            .policy
            .classify(&key)
            .map(|r| r.action)
        {
            Some(crate::filter::Action::Drop) => Ok(PacketVerdict::Dropped),
            Some(crate::filter::Action::Shape { .. }) => Ok(PacketVerdict::Shaped(pid)),
            _ => Ok(PacketVerdict::Delivered(pid)),
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
        reg.replace_ports(self.port_rows(), self.ports.len() as u64);
    }

    /// One scrape row — rule/shaper population and the cumulative queue
    /// counters — per slot of the [`ScrapeList`], in list order: every
    /// active port, maybe a few idle ones, never a walk over all ports.
    /// The registry filters and sorts them; the multi-PoP fabric chains
    /// them across routers (port ids are fabric-unique).
    pub fn port_rows(&self) -> impl Iterator<Item = stellar_obs::PortRow> + '_ {
        self.scrape.slots.iter().map(|&s| self.row(s))
    }

    fn row(&self, slot: u32) -> stellar_obs::PortRow {
        let port = &self.ports[slot as usize];
        let c = &port.counters;
        stellar_obs::PortRow {
            port: self.dense[slot as usize].0,
            rules: port.policy.rule_count() as u64,
            shape_queues: port.policy.shaper_count() as u64,
            forwarded_bytes: c.forwarded_bytes,
            dropped_bytes: c.dropped_bytes,
            shaped_bytes: c.shaped_bytes,
            shape_dropped_bytes: c.shape_dropped_bytes,
            congestion_dropped_bytes: c.congestion_dropped_bytes,
        }
    }
}

/// The slots a scrape reads: a superset of the active ports (any
/// non-zero [`stellar_obs::PortRow`] column), as `occupied` is of the
/// ruled ones. A slot joins once, on every path that can make its port
/// active — a tick that touches it (`run_staged`, once per touched port,
/// never per offer), `install_rule`, `port_mut`, `add_port` of an active
/// port — and stays.
#[derive(Debug, Default)]
struct ScrapeList {
    slots: Vec<u32>,
    /// Slot → whether it is in `slots`.
    listed: Vec<bool>,
}

impl ScrapeList {
    #[inline]
    fn add(&mut self, slot: u32) {
        if !std::mem::replace(&mut self.listed[slot as usize], true) {
            self.slots.push(slot);
        }
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
