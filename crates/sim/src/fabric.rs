//! The multi-PoP fabric: N edge routers joined by a deterministic
//! inter-PoP delivery layer.
//!
//! The paper's L-IXP spans 20+ PoPs; a single [`EdgeRouter`] caps every
//! scale number at one router's tick loop. The [`Fabric`] shards the
//! topology at router granularity: each member port is assigned to one
//! PoP, offered aggregates are routed to their destination MAC's PoP in
//! offer order (the per-tick cross-PoP exchange — pure data movement, no
//! wall clock, no unordered iteration), and every PoP then runs its own
//! arena tick pipeline. PoPs share nothing — each owns its ports, TCAM
//! and scratch arena — so the per-PoP ticks are perfect shards for the
//! [`stellar_classify::pool`] worker pool, and parallel, sequential and
//! single-PoP execution produce byte-identical verdicts, counters and
//! obs snapshots. Per-PoP results merge in ascending PoP order; port ids
//! are fabric-unique, so the merged view is exactly the single-router
//! view of the same topology.
//!
//! Determinism argument, in short: routing reads only the offer stream
//! (stable order) and the MAC→PoP map (point lookups, never iterated);
//! each aggregate lands in exactly one PoP bucket, in arrival order;
//! PoPs are data-independent, so execution interleaving cannot change
//! any per-port outcome; and every merge (results, snapshots, port
//! walks) is keyed on ascending PoP / PortId order.

use std::collections::{BTreeMap, HashMap};
use stellar_classify::sharded;
use stellar_dataplane::filter::FilterRule;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::qos::TickResult;
use stellar_dataplane::switch::{
    EdgeRouter, InstallError, OfferedAggregate, PacketVerdict, PortId,
};
use stellar_net::mac::MacAddr;
use stellar_net::packet::Packet;

/// Identifies one PoP (one edge router) in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PopId(pub u16);

/// Cumulative byte accounting for the inter-PoP delivery layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Bytes whose ingress and egress port share a PoP.
    pub local_bytes: u64,
    /// Bytes that crossed PoPs (ingress member on one PoP, egress port
    /// on another) — the backbone load a smarter rule placement saves.
    pub cross_pop_bytes: u64,
    /// Bytes sourced outside the fabric (unknown source MAC): they enter
    /// at their egress PoP's external uplink.
    pub external_bytes: u64,
    /// Bytes toward MACs no port owns; they vanish, as on a real fabric
    /// with no FDB entry and unicast flooding off.
    pub unroutable_bytes: u64,
}

/// A sharded IXP data plane: one [`EdgeRouter`] per PoP plus the
/// member-port → PoP assignment and the per-tick exchange buffers.
#[derive(Debug)]
pub struct Fabric {
    pops: Vec<EdgeRouter>,
    /// Port → owning PoP. Point lookups only — never iterated.
    port_pop: HashMap<PortId, u16>,
    /// Member MAC → owning PoP. Point lookups only — never iterated.
    mac_pop: HashMap<MacAddr, u16>,
    /// Per-PoP offer buckets, cleared (never freed) each tick so the
    /// steady-state exchange allocates nothing.
    buckets: Vec<Vec<OfferedAggregate>>,
    /// Max pool workers for the PoP fan-out; 1 = sequential.
    tick_workers: usize,
    /// Minimum routed aggregates per tick before the PoP fan-out uses
    /// the pool (each PoP applies its own finer-grained cutoff too).
    parallel_min_work: u64,
    /// Whether the most recent tick fanned PoPs out to the pool.
    last_parallel: bool,
    counters: FabricCounters,
    /// Cumulative bytes sourced by members of each PoP.
    pop_ingress_bytes: Vec<u64>,
    /// Cumulative bytes delivered toward ports of each PoP.
    pop_egress_bytes: Vec<u64>,
}

impl Fabric {
    /// Creates a fabric of `pops` identical edge routers. Every PoP gets
    /// its own TCAM, control-plane CPU and rule budget from `hib`.
    pub fn new(hib: HardwareInfoBase, pops: usize) -> Self {
        let n = pops.max(1);
        Fabric {
            pops: (0..n).map(|_| EdgeRouter::new(hib.clone())).collect(),
            port_pop: HashMap::new(),
            mac_pop: HashMap::new(),
            buckets: (0..n).map(|_| Vec::new()).collect(),
            tick_workers: sharded::default_workers(),
            parallel_min_work: sharded::DEFAULT_PARALLEL_MIN_WORK,
            last_parallel: false,
            counters: FabricCounters::default(),
            pop_ingress_bytes: vec![0; n],
            pop_egress_bytes: vec![0; n],
        }
    }

    /// Single-PoP fabric — the single-router topology.
    pub fn single(hib: HardwareInfoBase) -> Self {
        Fabric::new(hib, 1)
    }

    /// Number of PoPs.
    pub fn num_pops(&self) -> usize {
        self.pops.len()
    }

    /// Read access to every PoP's router, ascending PoP order.
    pub fn routers(&self) -> &[EdgeRouter] {
        &self.pops
    }

    /// One PoP's router.
    pub fn router(&self, pop: PopId) -> Option<&EdgeRouter> {
        self.pops.get(pop.0 as usize)
    }

    /// Mutable access to one PoP's router (tests and benches; topology
    /// membership must go through [`Fabric::add_port`]).
    pub fn router_mut(&mut self, pop: PopId) -> Option<&mut EdgeRouter> {
        self.pops.get_mut(pop.0 as usize)
    }

    /// Attaches a member port to a PoP. Port ids are fabric-unique —
    /// the flat id space is what makes the multi-PoP merge identical to
    /// the single-router view. Panics on a duplicate id or an unknown
    /// PoP (topology bugs).
    pub fn add_port(&mut self, pop: PopId, id: PortId, port: MemberPort) {
        let p = pop.0 as usize;
        assert!(p < self.pops.len(), "unknown PoP {pop:?} in topology");
        assert!(
            !self.port_pop.contains_key(&id),
            "duplicate port id {id:?} in fabric topology"
        );
        self.port_pop.insert(id, pop.0);
        self.mac_pop.insert(port.mac, pop.0);
        self.pops[p].add_port(id, port);
    }

    /// The PoP a port is attached to.
    pub fn pop_of_port(&self, id: PortId) -> Option<PopId> {
        self.port_pop.get(&id).map(|&p| PopId(p))
    }

    /// The port a member MAC is attached to.
    pub fn port_of_mac(&self, mac: MacAddr) -> Option<PortId> {
        self.mac_pop
            .get(&mac)
            .and_then(|&p| self.pops.get(p as usize))
            .and_then(|r| r.port_of_mac(mac))
    }

    /// Immutable access to a port.
    pub fn port(&self, id: PortId) -> Option<&MemberPort> {
        self.port_pop
            .get(&id)
            .and_then(|&p| self.pops.get(p as usize))
            .and_then(|r| r.port(id))
    }

    /// Mutable access to a port (counts as a rule-state change: see
    /// [`EdgeRouter::port_mut`]).
    pub fn port_mut(&mut self, id: PortId) -> Option<&mut MemberPort> {
        let &p = self.port_pop.get(&id)?;
        self.pops.get_mut(p as usize)?.port_mut(id)
    }

    /// Every port in the fabric in ascending `PortId` order, regardless
    /// of PoP assignment — the same walk order a single router yields.
    /// Cold path (reconcile/watchdog cadence): collects and sorts.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &MemberPort)> {
        let mut all: Vec<(PortId, &MemberPort)> = self
            .pops
            .iter()
            .flat_map(|r| r.ports().map(|(pid, port)| (*pid, port)))
            .collect();
        all.sort_unstable_by_key(|(pid, _)| *pid);
        all.into_iter()
    }

    /// The ports holding at least one rule, in ascending `PortId` order
    /// across PoPs: exactly [`ports`](Self::ports) without the ports whose
    /// policy is empty, read from every PoP's occupied-port index — the
    /// cost follows the ports under mitigation, not the size of the
    /// platform.
    pub fn occupied_ports(&self) -> impl Iterator<Item = (PortId, &MemberPort)> {
        let mut occupied: Vec<(PortId, &MemberPort)> = self
            .pops
            .iter()
            .flat_map(EdgeRouter::occupied_ports)
            .collect();
        occupied.sort_unstable_by_key(|(pid, _)| *pid);
        occupied.into_iter()
    }

    /// The fabric's rule-state version: the sum of every PoP's
    /// [`EdgeRouter::rule_version`], so it also sees edits made through
    /// [`Fabric::router_mut`]. It strictly increases across every call
    /// that changed a rule table anywhere; O(PoPs) to read.
    pub fn rule_version(&self) -> u64 {
        self.pops.iter().map(EdgeRouter::rule_version).sum()
    }

    /// Installs a rule on the owning PoP, charging that PoP's TCAM and
    /// CPU — the control-plane fan-out path.
    pub fn install_rule(
        &mut self,
        port_id: PortId,
        rule: FilterRule,
        now_us: u64,
    ) -> Result<(), InstallError> {
        let &p = self
            .port_pop
            .get(&port_id)
            .ok_or(InstallError::NoSuchPort)?;
        match self.pops.get_mut(p as usize) {
            Some(r) => r.install_rule(port_id, rule, now_us),
            None => Err(InstallError::NoSuchPort),
        }
    }

    /// Removes a rule from the owning PoP.
    pub fn remove_rule(&mut self, port_id: PortId, rule_id: u64, now_us: u64) -> bool {
        let Some(&p) = self.port_pop.get(&port_id) else {
            return false;
        };
        self.pops
            .get_mut(p as usize)
            .is_some_and(|r| r.remove_rule(port_id, rule_id, now_us))
    }

    /// Removes every rule on a port. Returns how many were removed.
    pub fn flush_port(&mut self, port_id: PortId, now_us: u64) -> usize {
        let Some(&p) = self.port_pop.get(&port_id) else {
            return 0;
        };
        self.pops
            .get_mut(p as usize)
            .map_or(0, |r| r.flush_port(port_id, now_us))
    }

    /// Cold-restarts every PoP (a fabric-wide power event): volatile
    /// filter state is wiped everywhere, forwarding state survives.
    /// Returns the total rules lost.
    pub fn restart(&mut self, now_us: u64) -> usize {
        self.pops.iter_mut().map(|r| r.restart(now_us)).sum()
    }

    /// Functional per-packet path: routes the packet to its destination
    /// MAC's PoP and classifies it there.
    pub fn process_packet(&self, wire: &[u8]) -> Result<PacketVerdict, stellar_net::NetError> {
        let packet = Packet::decode(wire)?;
        let Some(&p) = self.mac_pop.get(&packet.flow_key().dst_mac) else {
            return Ok(PacketVerdict::Unroutable);
        };
        match self.pops.get(p as usize) {
            Some(r) => r.process_packet(wire),
            None => Ok(PacketVerdict::Unroutable),
        }
    }

    /// Total rules installed across every PoP.
    pub fn total_rules(&self) -> usize {
        self.pops.iter().map(|r| r.total_rules()).sum()
    }

    /// The `(installs, removals)` ledger summed across PoPs. The
    /// conservation invariant holds fabric-wide because it holds per
    /// PoP: `installs - removals == total_rules()`.
    pub fn rule_ledger(&self) -> (u64, u64) {
        self.pops.iter().fold((0, 0), |(i, r), er| {
            let (pi, pr) = er.rule_ledger();
            (i + pi, r + pr)
        })
    }

    /// L3–L4 TCAM criteria in use, summed across PoPs.
    pub fn l34_used_total(&self) -> usize {
        self.pops.iter().map(|r| r.tcam().l34_used()).sum()
    }

    /// MAC TCAM criteria in use, summed across PoPs.
    pub fn mac_used_total(&self) -> usize {
        self.pops.iter().map(|r| r.tcam().mac_used()).sum()
    }

    /// Free L3–L4 TCAM criteria, summed across PoPs.
    pub fn l34_free_total(&self) -> usize {
        self.pops.iter().map(|r| r.tcam().l34_free()).sum()
    }

    /// Free MAC TCAM criteria, summed across PoPs.
    pub fn mac_free_total(&self) -> usize {
        self.pops.iter().map(|r| r.tcam().mac_free()).sum()
    }

    /// Live TCAM allocations, summed across PoPs.
    pub fn allocation_count_total(&self) -> usize {
        self.pops.iter().map(|r| r.tcam().allocation_count()).sum()
    }

    /// Caps the PoP fan-out and every PoP's internal port fan-out.
    pub fn set_tick_workers(&mut self, workers: usize) {
        self.tick_workers = workers.max(1);
        for r in &mut self.pops {
            r.set_tick_workers(workers);
        }
    }

    /// The current PoP fan-out cap.
    pub fn tick_workers(&self) -> usize {
        self.tick_workers
    }

    /// Sets the adaptive-parallelism cutoff, fabric-wide (the fabric
    /// compares it against routed aggregates per tick; each PoP against
    /// its own touched-ports × rules estimate).
    pub fn set_parallel_min_work(&mut self, min_work: u64) {
        self.parallel_min_work = min_work;
        for r in &mut self.pops {
            r.set_parallel_min_work(min_work);
        }
    }

    /// The fabric-level adaptive-parallelism cutoff.
    pub fn parallel_min_work(&self) -> u64 {
        self.parallel_min_work
    }

    /// Whether the most recent tick fanned PoPs out to the worker pool.
    pub fn last_tick_parallel(&self) -> bool {
        self.last_parallel
    }

    /// Cumulative inter-PoP delivery accounting.
    pub fn counters(&self) -> FabricCounters {
        self.counters
    }

    /// Cumulative bytes sourced by members of `pop`.
    pub fn pop_ingress_bytes(&self, pop: PopId) -> u64 {
        self.pop_ingress_bytes
            .get(pop.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Cumulative bytes delivered toward ports of `pop`.
    pub fn pop_egress_bytes(&self, pop: PopId) -> u64 {
        self.pop_egress_bytes
            .get(pop.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The per-tick cross-PoP exchange: every offered aggregate is routed
    /// to its destination MAC's PoP bucket in arrival order, with the
    /// local / cross-PoP / external split accounted. Returns the number
    /// of routed aggregates (the fabric-level work estimate).
    fn route(&mut self, offers: &[OfferedAggregate]) -> u64 {
        for b in &mut self.buckets {
            b.clear();
        }
        let mut routed = 0u64;
        for o in offers {
            // Ingress accounting happens where the bytes enter the
            // fabric, whether or not they turn out to be routable.
            let ingress = self.mac_pop.get(&o.key.src_mac).copied();
            if let Some(i) = ingress {
                self.pop_ingress_bytes[i as usize] += o.bytes;
            }
            let Some(&egress) = self.mac_pop.get(&o.key.dst_mac) else {
                self.counters.unroutable_bytes += o.bytes;
                continue;
            };
            match ingress {
                Some(i) if i == egress => self.counters.local_bytes += o.bytes,
                Some(_) => self.counters.cross_pop_bytes += o.bytes,
                None => self.counters.external_bytes += o.bytes,
            }
            self.pop_egress_bytes[egress as usize] += o.bytes;
            self.buckets[egress as usize].push(*o);
            routed += 1;
        }
        routed
    }

    /// Decides the fan-out width for this tick and records the effective
    /// mode.
    fn plan_tick(&mut self, routed: u64) -> usize {
        let workers = sharded::effective_workers(self.tick_workers, routed, self.parallel_min_work);
        self.last_parallel = workers > 1 && self.pops.len() > 1;
        workers
    }

    /// The zero-allocation fabric tick: exchanges aggregates across PoPs,
    /// then runs every PoP's arena pipeline — in parallel at router
    /// granularity when enough work is on offer. Results stay in each
    /// PoP's arena (read them through cumulative port counters or
    /// [`Fabric::take_tick_results`]); parallel and sequential execution are
    /// byte-identical because PoPs share no state and all merges are
    /// order-keyed.
    pub fn process_tick_in_place(
        &mut self,
        offers: &[OfferedAggregate],
        tick_end_us: u64,
        tick_us: u64,
    ) {
        let routed = self.route(offers);
        let workers = self.plan_tick(routed);
        if !self.last_parallel {
            for (pop, bucket) in self.pops.iter_mut().zip(self.buckets.iter()) {
                pop.process_tick_in_place(bucket, tick_end_us, tick_us);
            }
            return;
        }
        let shards: Vec<(&mut EdgeRouter, &[OfferedAggregate])> = self
            .pops
            .iter_mut()
            .zip(self.buckets.iter().map(|b| b.as_slice()))
            .collect();
        sharded::parallel_shards(shards, workers, |(pop, offers)| {
            pop.process_tick_in_place(offers, tick_end_us, tick_us);
        });
    }

    /// Moves the most recent tick's per-port results out of every PoP's
    /// arena into one map in ascending PoP (and therefore ascending,
    /// fabric-unique `PortId`) order — the single-router view of the
    /// tick. The arena slots are left empty, so their buffers are
    /// reallocated by the next tick.
    pub fn take_tick_results(&mut self) -> BTreeMap<PortId, TickResult> {
        self.pops
            .iter_mut()
            .flat_map(EdgeRouter::take_tick_results)
            .collect()
    }

    /// Publishes the fabric gauges. A 1-PoP fabric delegates to its
    /// single router — byte-identical to the bare router's snapshot. A
    /// multi-PoP fabric publishes the same router-global gauges as
    /// PoP-wide sums (dashboards keep working), adds per-PoP
    /// occupancy and the inter-PoP delivery counters, and replaces the
    /// registry's per-port table with the ports of every PoP (port ids
    /// are fabric-unique; the registry sorts them).
    pub fn observe(&self, reg: &mut stellar_obs::MetricsRegistry) {
        if self.pops.len() == 1 {
            self.pops[0].observe(reg);
            return;
        }
        reg.gauge_set("dataplane.tcam.l34_used", self.l34_used_total() as i64);
        reg.gauge_set("dataplane.tcam.l34_free", self.l34_free_total() as i64);
        reg.gauge_set("dataplane.tcam.mac_used", self.mac_used_total() as i64);
        reg.gauge_set("dataplane.tcam.mac_free", self.mac_free_total() as i64);
        reg.gauge_set(
            "dataplane.tcam.allocations",
            self.allocation_count_total() as i64,
        );
        reg.gauge_set("dataplane.total_rules", self.total_rules() as i64);
        let (installs, removals) = self.rule_ledger();
        reg.counter_set("dataplane.rule_installs", installs);
        reg.counter_set("dataplane.rule_removals", removals);
        reg.gauge_set("fabric.pops", self.pops.len() as i64);
        let c = &self.counters;
        reg.counter_set("fabric.local_bytes", c.local_bytes);
        reg.counter_set("fabric.cross_pop_bytes", c.cross_pop_bytes);
        reg.counter_set("fabric.external_bytes", c.external_bytes);
        reg.counter_set("fabric.unroutable_bytes", c.unroutable_bytes);
        for (i, r) in self.pops.iter().enumerate() {
            let p = format!("fabric.pop.{i}");
            reg.gauge_set(&format!("{p}.rules"), r.total_rules() as i64);
            reg.gauge_set(&format!("{p}.tcam_l34_used"), r.tcam().l34_used() as i64);
            reg.gauge_set(&format!("{p}.tcam_mac_used"), r.tcam().mac_used() as i64);
            reg.counter_set(&format!("{p}.ingress_bytes"), self.pop_ingress_bytes[i]);
            reg.counter_set(&format!("{p}.egress_bytes"), self.pop_egress_bytes[i]);
        }
        reg.replace_ports(self.pops.iter().flat_map(EdgeRouter::port_rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_dataplane::filter::{Action, MatchSpec};
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::flow::FlowKey;
    use stellar_net::proto::IpProtocol;

    fn offer(src_member: u32, dst_member: u32, bytes: u64) -> OfferedAggregate {
        OfferedAggregate {
            key: FlowKey {
                src_mac: MacAddr::for_member(src_member, 1),
                dst_mac: MacAddr::for_member(dst_member, 1),
                src_ip: IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
                dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
                protocol: IpProtocol::UDP,
                src_port: 123,
                dst_port: 44444,
                ..FlowKey::default()
            },
            bytes,
            packets: bytes / 1000 + 1,
        }
    }

    /// One tick, its results drained from every PoP.
    fn tick(
        f: &mut Fabric,
        offers: &[OfferedAggregate],
        tick_end_us: u64,
        tick_us: u64,
    ) -> BTreeMap<PortId, TickResult> {
        f.process_tick_in_place(offers, tick_end_us, tick_us);
        f.take_tick_results()
    }

    /// 4 members round-robined over `pops` PoPs.
    fn fabric(pops: usize) -> Fabric {
        let mut f = Fabric::new(HardwareInfoBase::lab_switch(), pops);
        for i in 0..4u32 {
            let asn = 64500 + i;
            f.add_port(
                PopId((i as usize % pops) as u16),
                PortId(i + 1),
                MemberPort::new(asn, MacAddr::for_member(asn, 1), 1_000_000_000),
            );
        }
        f
    }

    #[test]
    fn cross_pop_delivery_matches_single_pop() {
        let offers = [
            offer(64500, 64501, 1000),
            offer(64501, 64502, 2000),
            offer(64503, 64500, 3000),
            offer(65000, 64503, 4000), // external source
            offer(64500, 9999, 5000),  // unroutable
        ];
        let mut single = fabric(1);
        let mut multi = fabric(4);
        let a = tick(&mut single, &offers, 1_000_000, 1_000_000);
        let b = tick(&mut multi, &offers, 1_000_000, 1_000_000);
        assert_eq!(a, b);
        assert_eq!(b[&PortId(2)].counters.forwarded_bytes, 1000);
        // Accounting: with one PoP everything member-sourced is local.
        assert_eq!(single.counters().local_bytes, 6000);
        assert_eq!(single.counters().cross_pop_bytes, 0);
        // With one port per PoP, every member-sourced delivery crosses.
        assert_eq!(multi.counters().local_bytes, 0);
        assert_eq!(multi.counters().cross_pop_bytes, 6000);
        assert_eq!(multi.counters().external_bytes, 4000);
        assert_eq!(multi.counters().unroutable_bytes, 5000);
        assert_eq!(multi.pop_ingress_bytes(PopId(0)), 1000 + 5000);
        assert_eq!(multi.pop_egress_bytes(PopId(3)), 4000);
    }

    #[test]
    fn rules_install_against_owning_pop_tcam() {
        let mut f = fabric(4);
        let rule = FilterRule::new(
            1,
            MatchSpec::proto_src_port_to("100.10.10.10/32".parse().unwrap(), IpProtocol::UDP, 123),
            Action::Drop,
            10,
        );
        // Port 2 lives on PoP 1.
        assert_eq!(f.pop_of_port(PortId(2)), Some(PopId(1)));
        f.install_rule(PortId(2), rule, 0).unwrap();
        assert_eq!(f.total_rules(), 1);
        assert_eq!(f.routers()[1].tcam().l34_used(), 3);
        assert_eq!(f.routers()[0].tcam().l34_used(), 0);
        assert_eq!(f.l34_used_total(), 3);
        let res = tick(&mut f, &[offer(64500, 64501, 1000)], 1_000_000, 1_000_000);
        assert_eq!(res[&PortId(2)].counters.dropped_bytes, 1000);
        assert!(f.remove_rule(PortId(2), 1, 1));
        assert_eq!(f.l34_used_total(), 0);
        assert_eq!(f.rule_ledger(), (1, 1));
        // Unknown port: refused, no ledger movement.
        assert_eq!(
            f.install_rule(
                PortId(99),
                FilterRule::new(2, MatchSpec::default(), Action::Drop, 10),
                2
            ),
            Err(InstallError::NoSuchPort)
        );
        assert!(!f.remove_rule(PortId(99), 1, 2));
        assert_eq!(f.flush_port(PortId(99), 2), 0);
    }

    #[test]
    fn restart_wipes_every_pop() {
        let mut f = fabric(2);
        for (pid, port) in [(PortId(1), 123u16), (PortId(2), 124)] {
            f.install_rule(
                pid,
                FilterRule::new(
                    u64::from(port),
                    MatchSpec::proto_src_port_to(
                        "100.10.10.10/32".parse().unwrap(),
                        IpProtocol::UDP,
                        port,
                    ),
                    Action::Drop,
                    10,
                ),
                0,
            )
            .unwrap();
        }
        assert_eq!(f.total_rules(), 2);
        assert_eq!(f.restart(1), 2);
        assert_eq!(f.total_rules(), 0);
        assert_eq!(f.l34_used_total(), 0);
        let (i, r) = f.rule_ledger();
        assert_eq!(i, r);
    }

    #[test]
    fn ports_walk_is_sorted_across_pops() {
        let f = fabric(3);
        let ids: Vec<u32> = f.ports().map(|(pid, _)| pid.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(f.port(PortId(3)).map(|p| p.member_asn), Some(64502));
        assert_eq!(
            f.port_of_mac(MacAddr::for_member(64503, 1)),
            Some(PortId(4))
        );
    }

    #[test]
    fn multi_pop_observe_aggregates_and_single_pop_delegates() {
        let mut reg = stellar_obs::MetricsRegistry::new();
        let mut legacy = stellar_obs::MetricsRegistry::new();
        let f1 = fabric(1);
        f1.observe(&mut reg);
        f1.routers()[0].observe(&mut legacy);
        assert_eq!(
            serde_json::to_string(&reg.to_content()).unwrap(),
            serde_json::to_string(&legacy.to_content()).unwrap()
        );
        let mut f4 = fabric(4);
        tick(&mut f4, &[offer(64500, 64501, 1000)], 1_000_000, 1_000_000);
        let mut reg4 = stellar_obs::MetricsRegistry::new();
        f4.observe(&mut reg4);
        let json = serde_json::to_string(&reg4.to_content()).unwrap();
        assert!(json.contains("\"fabric.pops\""));
        assert!(json.contains("\"fabric.cross_pop_bytes\":1000"));
        assert!(json.contains("\"fabric.pop.1.egress_bytes\":1000"));
        assert_eq!(reg4.port(2).forwarded_bytes, 1000);
        assert_eq!(reg4.ports_total(), 4);
        assert!(json.contains("\"rows\":[[2,0,0,1000,0,0,0,0]]"));
    }
}
