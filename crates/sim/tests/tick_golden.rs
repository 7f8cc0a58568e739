//! Golden tick digests: the pinned reference the deleted legacy tick
//! path used to be.
//!
//! A fixed set of seeded episodes — six ports whose capacities bind,
//! drop / shape / forward rules whose shaping rates bind, offers with so
//! few packets that forwarded-packet rounding matters, one rule-table
//! edit mid-episode — runs on a bare [`EdgeRouter`] and on a 4-PoP
//! [`Fabric`], each sequential and fanned out. FNV-1a over every tick's
//! per-port `(delivered, counters)`, every rule's counters and the final
//! obs snapshot bytes must equal the digests below, which were computed
//! at the commit that still had `process_tick_legacy`, with every
//! episode's arena results asserted equal to the legacy reference's
//! first.

use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::qos::TickResult;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;
use stellar_sim::fabric::{Fabric, PopId};

const TICK_US: u64 = 100_000;
const TICKS: u64 = 24;
const PORTS: usize = 6;
const POPS: usize = 4;
const EPISODES: u64 = 8;

/// splitmix64: the episodes' only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One seeded episode: port capacities, initial rule tables, the
/// mid-episode edit and every tick's offers.
struct Episode {
    capacities: Vec<u64>,
    rules: Vec<Vec<FilterRule>>,
    /// At tick `TICKS / 2`: on this port remove this rule id (if
    /// installed) and install this rule.
    edit: (usize, u64, FilterRule),
    ticks: Vec<Vec<OfferedAggregate>>,
}

fn asn(p: usize) -> u32 {
    64500 + p as u32
}

fn random_rule(rng: &mut Rng, id: u64) -> FilterRule {
    let protocol = match rng.below(3) {
        0 => Some(IpProtocol::UDP),
        1 => Some(IpProtocol::TCP),
        _ => None,
    };
    let src_port = (rng.below(4) != 0).then(|| PortMatch::Exact(rng.below(12) as u16));
    let dst_port = (rng.below(3) == 0).then(|| {
        let lo = 40_000 + rng.below(4) as u16;
        PortMatch::Range(lo, lo + rng.below(3) as u16)
    });
    let action = match rng.below(3) {
        0 => Action::Drop,
        // 0.5–8 Mbps: 6–100 KB per 100 ms tick, below what is offered.
        1 => Action::Shape {
            rate_bps: 500_000 + rng.below(16) * 500_000,
        },
        _ => Action::Forward,
    };
    let spec = MatchSpec {
        protocol,
        src_port,
        dst_port,
        ..Default::default()
    };
    FilterRule::new(id, spec, action, rng.below(8) as u16)
}

fn episode(seed: u64) -> Episode {
    let mut rng = Rng(seed);
    // 10 Mbps – 1 Gbps: 125 KB – 12.5 MB per tick.
    let capacities = (0..PORTS)
        .map(|_| [10_000_000, 50_000_000, 100_000_000, 1_000_000_000][rng.below(4) as usize])
        .collect();
    let rules = (0..PORTS)
        .map(|p| {
            let n = rng.below(10);
            (0..n)
                .map(|i| random_rule(&mut rng, (p as u64) * 100 + i + 1))
                .collect()
        })
        .collect();
    let edit_port = rng.below(PORTS as u64) as usize;
    let edit = (
        edit_port,
        edit_port as u64 * 100 + 1,
        random_rule(&mut rng, edit_port as u64 * 100 + 99),
    );
    let ticks = (0..TICKS)
        .map(|_| {
            (0..48)
                .map(|_| {
                    // One destination in seven is no member's: unroutable.
                    let dst = rng.below(PORTS as u64 + 1) as usize;
                    let src = rng.below(PORTS as u64 + 2) as usize;
                    let udp = rng.below(4) != 0;
                    let bytes = 10_000 + rng.below(2_000_000);
                    // Half the aggregates carry a handful of packets, so a
                    // proportional share rounds below one packet.
                    let packets = if rng.below(2) == 0 {
                        1 + rng.below(3)
                    } else {
                        bytes / 1_200 + 1
                    };
                    OfferedAggregate {
                        key: FlowKey {
                            src_mac: MacAddr::for_member(asn(src), 1),
                            dst_mac: MacAddr::for_member(asn(dst), 1),
                            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, src as u8)),
                            dst_ip: IpAddress::V4(Ipv4Address::new(100, 0, dst as u8, 10)),
                            protocol: if udp {
                                IpProtocol::UDP
                            } else {
                                IpProtocol::TCP
                            },
                            src_port: rng.below(14) as u16,
                            dst_port: 40_000 + rng.below(6) as u16,
                            ..FlowKey::default()
                        },
                        bytes,
                        packets,
                    }
                })
                .collect()
        })
        .collect();
    Episode {
        capacities,
        rules,
        edit,
        ticks,
    }
}

fn port(ep: &Episode, p: usize) -> MemberPort {
    MemberPort::new(asn(p), MacAddr::for_member(asn(p), 1), ep.capacities[p])
}

fn build_router(ep: &Episode) -> EdgeRouter {
    let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
    for p in 0..PORTS {
        let pid = PortId(p as u32 + 1);
        er.add_port(pid, port(ep, p));
        let policy = &mut er.port_mut(pid).expect("port just added").policy;
        for rule in &ep.rules[p] {
            policy.install(rule.clone());
        }
    }
    er
}

fn build_fabric(ep: &Episode) -> Fabric {
    let mut fabric = Fabric::new(HardwareInfoBase::lab_switch(), POPS);
    for p in 0..PORTS {
        let pid = PortId(p as u32 + 1);
        fabric.add_port(PopId((p % POPS) as u16), pid, port(ep, p));
        let policy = &mut fabric.port_mut(pid).expect("port just added").policy;
        for rule in &ep.rules[p] {
            policy.install(rule.clone());
        }
    }
    fabric
}

fn edit_router(er: &mut EdgeRouter, ep: &Episode) {
    let (p, remove, rule) = &ep.edit;
    let policy = &mut er.port_mut(PortId(*p as u32 + 1)).expect("port").policy;
    policy.remove(*remove);
    policy.install(rule.clone());
}

fn edit_fabric(fabric: &mut Fabric, ep: &Episode) {
    let (p, remove, rule) = &ep.edit;
    let policy = &mut fabric.port_mut(PortId(*p as u32 + 1)).expect("port").policy;
    policy.remove(*remove);
    policy.install(rule.clone());
}

/// FNV-1a, fed little-endian words and raw bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn result(&mut self, pid: PortId, r: &TickResult) {
        self.word(u64::from(pid.0));
        self.word(r.delivered.len() as u64);
        for (key, bytes, packets) in &r.delivered {
            self.bytes(&key.dst_mac.0);
            self.bytes(&[key.protocol.0]);
            self.word(u64::from(key.src_port));
            self.word(u64::from(key.dst_port));
            self.word(*bytes);
            self.word(*packets);
        }
        let c = &r.counters;
        for v in [
            c.forwarded_bytes,
            c.forwarded_packets,
            c.dropped_bytes,
            c.dropped_packets,
            c.shaped_bytes,
            c.shape_dropped_bytes,
            c.congestion_dropped_bytes,
        ] {
            self.word(v);
        }
    }

    /// Every installed rule's counters, ascending port then evaluation
    /// order, then the exported snapshot bytes.
    fn finish<'a>(
        mut self,
        ports: impl Iterator<Item = (PortId, &'a MemberPort)>,
        obs: &str,
    ) -> u64 {
        for (pid, port) in ports {
            self.word(u64::from(pid.0));
            for rule in port.policy.rules() {
                let rc = port
                    .policy
                    .rule_counters(rule.id)
                    .copied()
                    .unwrap_or_default();
                self.word(rule.id);
                for v in [
                    rc.matched_bytes,
                    rc.matched_packets,
                    rc.discarded_bytes,
                    rc.passed_bytes,
                ] {
                    self.word(v);
                }
            }
        }
        self.bytes(obs.as_bytes());
        self.0
    }
}

fn router_obs(er: &EdgeRouter) -> String {
    let mut reg = stellar_obs::MetricsRegistry::default();
    er.observe(&mut reg);
    serde_json::to_string(&reg.to_content()).expect("serialize registry")
}

fn fabric_obs(fabric: &Fabric) -> String {
    let mut reg = stellar_obs::MetricsRegistry::default();
    fabric.observe(&mut reg);
    serde_json::to_string(&reg.to_content()).expect("serialize registry")
}

/// Byte totals over one episode, for the "rates and capacity bind" check.
#[derive(Default)]
struct Binds {
    dropped: u64,
    shape_dropped: u64,
    congestion_dropped: u64,
}

impl Binds {
    fn add(&mut self, r: &TickResult) {
        self.dropped += r.counters.dropped_bytes;
        self.shape_dropped += r.counters.shape_dropped_bytes;
        self.congestion_dropped += r.counters.congestion_dropped_bytes;
    }
}

/// The episode on a bare router with `workers` tick workers: the
/// digest, reading each tick's results in place from the arena.
fn router_digest(ep: &Episode, workers: usize, binds: &mut Binds) -> u64 {
    let mut er = build_router(ep);
    er.set_tick_workers(workers);
    er.set_parallel_min_work(0);
    let mut h = Fnv::new();
    for (t, offers) in ep.ticks.iter().enumerate() {
        if t as u64 == TICKS / 2 {
            edit_router(&mut er, ep);
        }
        h.word(t as u64);
        let view = er.process_tick_in_place(offers, (t as u64 + 1) * TICK_US, TICK_US);
        for (pid, r) in view.iter() {
            h.result(pid, r);
            binds.add(r);
        }
    }
    let obs = router_obs(&er);
    h.finish(er.ports().map(|(pid, port)| (*pid, port)), &obs)
}

/// The episode on a 4-PoP fabric with `workers` tick workers: the
/// digest, draining each tick's results as `traffic_tick` does.
fn fabric_digest(ep: &Episode, workers: usize) -> u64 {
    let mut fabric = build_fabric(ep);
    fabric.set_tick_workers(workers);
    fabric.set_parallel_min_work(0);
    let mut h = Fnv::new();
    for (t, offers) in ep.ticks.iter().enumerate() {
        if t as u64 == TICKS / 2 {
            edit_fabric(&mut fabric, ep);
        }
        h.word(t as u64);
        fabric.process_tick_in_place(offers, (t as u64 + 1) * TICK_US, TICK_US);
        for (pid, r) in fabric.take_tick_results() {
            h.result(pid, &r);
        }
    }
    let obs = fabric_obs(&fabric);
    h.finish(fabric.ports(), &obs)
}

/// Computed at the parent of the commit that deleted the legacy path,
/// after every episode's arena results were asserted equal to
/// `process_tick_legacy`'s (the bare router tick by tick, the 4-PoP
/// fabric's drained results against the legacy router's).
const ROUTER_GOLDEN: [u64; EPISODES as usize] = [
    0x0d03_b02a_e255_bb8c,
    0x97f9_a1a7_5a39_1280,
    0xfa8d_75fe_8b6f_4058,
    0x974e_8036_c554_7164,
    0x3042_bbaa_13bd_405f,
    0xe451_de7d_1af5_37c5,
    0xc6cb_e108_e42f_08c6,
    0xbf60_aa0d_7407_43b5,
];

/// The same episodes on the 4-PoP fabric.
const FABRIC_GOLDEN: [u64; EPISODES as usize] = [
    0x65b2_8e45_dbed_76b0,
    0x4548_d191_9468_72eb,
    0xc44c_1201_8576_7e8c,
    0x2329_41a2_f7bc_541f,
    0x2700_f770_a2fe_031a,
    0x38e9_89e9_78a7_ea1a,
    0x8d33_6376_ac4d_7cae,
    0x4853_0b9d_4fc8_3850,
];

#[test]
fn golden_tick_digests() {
    let mut binds = Binds::default();
    for seed in 0..EPISODES {
        let ep = episode(seed);
        let i = seed as usize;
        assert_eq!(
            router_digest(&ep, 1, &mut binds),
            ROUTER_GOLDEN[i],
            "episode {seed}: bare router, sequential"
        );
        assert_eq!(
            router_digest(&ep, 4, &mut Binds::default()),
            ROUTER_GOLDEN[i],
            "episode {seed}: bare router, 4 workers"
        );
        assert_eq!(
            fabric_digest(&ep, 1),
            FABRIC_GOLDEN[i],
            "episode {seed}: 4-PoP fabric, sequential"
        );
        assert_eq!(
            fabric_digest(&ep, 4),
            FABRIC_GOLDEN[i],
            "episode {seed}: 4-PoP fabric, 4 workers"
        );
    }
    // The episodes exercise every discard class: drop rules, shaping
    // rates and port capacity all bind.
    assert!(binds.dropped > 0 && binds.shape_dropped > 0 && binds.congestion_dropped > 0);
}
