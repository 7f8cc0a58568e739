//! The seeded input generator.
//!
//! Everything a workload feeds the system — member order, amplification
//! source ports, NLRI variants, corrupt and hijacked announcements, offered
//! traffic — is drawn here from `--seed`. The system under test sees only
//! the generated inputs. Every op also carries what *must* happen to it
//! (install, be refused, remove), which is what the run loop checks.
//!
//! Seeds change the draws, never the shape: each workload has the same
//! number of members, rules, NLRI variants and hostile ops under every
//! seed, so metrics from different seeds are comparable.

use crate::rng::Rng;
use crate::workload::{Kind, Workload};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::{corrupt_wire, BitmaskOp, Component, FlowSpec, NumericOp};
use stellar_bgp::types::{Afi, Asn};
use stellar_core::signal::StellarSignal;
use stellar_dataplane::switch::OfferedAggregate;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::{Ipv4Prefix, Prefix};
use stellar_net::proto::IpProtocol;
use stellar_sim::topology::MemberSpec;

/// UDP source ports of the amplification services the measurement papers
/// see attacked most (chargen, DNS, NTP, SNMP, CLDAP, SSDP, memcached).
pub const AMP_PORTS: [u16; 7] = [19, 53, 123, 161, 389, 1900, 11211];

const BASE_ASN: u32 = 64_500;

/// Standing community-signalled rules per signalling member port.
const SIGNALS_PER_PORT: usize = 5;

/// Attacked hosts per FlowSpec victim, NLRI variants per host, and the
/// rules each variant lowers to: 8 hosts x (2+2+1+1+1+1) = 64 rules and
/// 48 NLRIs per victim port.
const VICTIM_HOSTS: usize = 8;
const VARIANT_RULES: [usize; 6] = [2, 2, 1, 1, 1, 1];
pub const NLRIS_PER_VICTIM: usize = VICTIM_HOSTS * VARIANT_RULES.len();
pub const RULES_PER_VICTIM: usize = 64;

/// Distinct offered-traffic sets a tick workload cycles through.
const OFFER_SETS: usize = 4;

pub fn member_asn(i: usize) -> Asn {
    Asn(BASE_ASN + i as u32)
}

fn member_mac(i: usize) -> MacAddr {
    MacAddr::for_member(BASE_ASN + i as u32, 1)
}

/// Host `h` of member `i`'s /24. Members own 20.0.0.0/24, 20.0.1.0/24, …
/// — public space, clear of every bogon range, distinct up to 2^24
/// members.
fn host(i: usize, h: u8) -> Ipv4Address {
    Ipv4Address::new(20 + (i >> 16) as u8, (i >> 8) as u8, i as u8, h)
}

fn host_prefix(i: usize, h: u8) -> Prefix {
    Prefix::V4(Ipv4Prefix::host(host(i, h)))
}

fn member_specs(n: usize) -> Vec<MemberSpec> {
    (0..n)
        .map(|i| MemberSpec {
            asn: BASE_ASN + i as u32,
            capacity_bps: 10_000_000_000,
            prefixes: vec![Prefix::V4(
                Ipv4Prefix::new(host(i, 0), 24).expect("a /24 is a valid prefix length"),
            )],
        })
        .collect()
}

/// What the system must do with an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Accept it and install this many rules.
    Install(usize),
    /// Refuse it (corrupt wire image, non-owner hijack): no rule, no
    /// queue entry.
    Refuse,
}

/// One control-plane op: an announcement, then (in steady state) the
/// withdrawal of the announcement it replaces.
#[derive(Debug, Clone)]
pub enum ControlOp {
    Signal {
        member: Asn,
        victim: Prefix,
        signals: Vec<StellarSignal>,
        /// The oldest standing announcement of this member, withdrawn
        /// after the new one is installed (one rule each).
        retire: Option<Prefix>,
    },
    Flowspec {
        member: Asn,
        /// RFC 8955 NLRI bytes as they arrive on the wire.
        wire: Vec<u8>,
        actions: Vec<ExtendedCommunity>,
        expect: Expect,
        /// The standing NLRI this one replaces and the rules it holds.
        retire: Option<(FlowSpec, usize)>,
    },
}

impl ControlOp {
    pub fn expect(&self) -> Expect {
        match self {
            ControlOp::Signal { signals, .. } => Expect::Install(signals.len()),
            ControlOp::Flowspec { expect, .. } => *expect,
        }
    }
}

/// Everything one run needs, generated before any clock starts.
pub struct Plan {
    pub specs: Vec<MemberSpec>,
    /// Announcements that build the standing state, replayed through the
    /// real signalling path by every set-up.
    pub preload: Vec<ControlOp>,
    /// Warm-up plus measured control ops (control workloads).
    pub ops: Vec<ControlOp>,
    /// Offered traffic, one set per tick, cycled (tick workloads).
    pub offers: Vec<Vec<OfferedAggregate>>,
    /// Rules standing whenever no op is in flight.
    pub standing_rules: usize,
}

pub fn plan(w: &Workload, seed: u64, control_ops: usize) -> Plan {
    let specs = member_specs(w.members);
    match w.kind {
        Kind::SignalStorm => signal_storm(w, seed, control_ops, specs),
        Kind::FlowspecVictims => flowspec_victims(w, seed, control_ops, specs),
        Kind::TickIxpMix => tick_ixp_mix(w, seed, specs),
        Kind::TickSparseFabric => tick_sparse_fabric(w, seed, specs),
    }
}

fn shape_signal(port: u16, rng: &mut Rng) -> StellarSignal {
    // The community encodes shape rates in 10 Mbps steps.
    StellarSignal::shape_udp_src(port, 10 * rng.between(1, 20) as u32)
}

/// 800 members x 5 standing announcements of one rule each. The members
/// are visited in one seeded cyclic order by pre-load and ops alike, so
/// the globally oldest announcement always belongs to the member that is
/// announcing: every port holds exactly five rules between ops.
fn signal_storm(w: &Workload, seed: u64, n_ops: usize, specs: Vec<MemberSpec>) -> Plan {
    let order = Rng::new(seed, 1).permutation(w.members);
    let mut rng = Rng::new(seed, 2);
    // Which of a member's five standing slots shapes (the other four
    // drop): 80 % drop / 20 % shape, exactly, at all times.
    let shape_slot: Vec<usize> = (0..w.members)
        .map(|_| rng.below(SIGNALS_PER_PORT))
        .collect();
    let victim_of = |m: usize, round: usize| host_prefix(m, 1 + (round % 250) as u8);
    let mut announce = |m: usize, round: usize, retire: Option<Prefix>| {
        let port = AMP_PORTS[rng.below(AMP_PORTS.len())];
        let signal = if round % SIGNALS_PER_PORT == shape_slot[m] {
            shape_signal(port, &mut rng)
        } else {
            StellarSignal::drop_udp_src(port)
        };
        ControlOp::Signal {
            member: member_asn(m),
            victim: victim_of(m, round),
            signals: vec![signal],
            retire,
        }
    };
    let mut preload = Vec::with_capacity(w.members * SIGNALS_PER_PORT);
    for round in 0..SIGNALS_PER_PORT {
        for &m in &order {
            preload.push(announce(m, round, None));
        }
    }
    let ops = (0..n_ops)
        .map(|i| {
            let m = order[i % w.members];
            let round = SIGNALS_PER_PORT + i / w.members;
            announce(m, round, Some(victim_of(m, round - SIGNALS_PER_PORT)))
        })
        .collect();
    Plan {
        specs,
        preload,
        ops,
        offers: Vec::new(),
        standing_rules: w.members * SIGNALS_PER_PORT,
    }
}

/// One of a victim's 48 NLRI slots: attacked host x variant.
#[derive(Debug, Clone, Copy)]
struct Slot {
    victim: usize,
    host: usize,
    variant: usize,
}

/// The attacked address of a victim's host slot. It alternates between two
/// addresses by generation, so the NLRI replacing a slot never overlaps
/// the one it replaces while both are installed.
fn victim_host(victim: usize, host_slot: usize, generation: usize) -> Ipv4Address {
    host(
        victim,
        (10 + host_slot + VICTIM_HOSTS * (generation % 2)) as u8,
    )
}

/// The NLRI of `slot` at `generation`, its action and the rules it lowers
/// to. The six variants of one attacked host are pairwise disjoint
/// (distinct source ports, a port range clear of every amplification
/// port, disjoint TCP-flag cubes), mix drop and shape, and exercise
/// source-port lists, port ranges, packet-length ranges and tcp-flag
/// bitmasks.
fn nlri(seed: u64, slot: Slot, generation: usize) -> (FlowSpec, Vec<ExtendedCommunity>, usize) {
    // One stream per (victim, host, generation): all six variants of a
    // host see the same port draw, whatever order they are built in.
    let salt = 0x1000 + ((slot.victim * VICTIM_HOSTS + slot.host) * 64 + generation) as u64;
    let mut rng = Rng::new(seed, salt);
    let mut ports = AMP_PORTS;
    rng.shuffle(&mut ports);
    let len_lo = rng.between(64, 512);
    let len_hi = rng.between(1000, 1500);
    let shape_rate = 1_250_000.0 * rng.between(1, 16) as f32; // bytes/s
    let dst = Component::DstPrefix(Prefix::V4(Ipv4Prefix::host(victim_host(
        slot.victim,
        slot.host,
        generation,
    ))));
    let proto = |p: u8| Component::IpProtocol(vec![NumericOp::equals(u64::from(p))]);
    let eq = |p: u16| NumericOp::equals(u64::from(p));
    let (rest, shape) = match slot.variant {
        0 => (
            vec![
                proto(17),
                Component::SrcPort(vec![eq(ports[0]), eq(ports[1])]),
            ],
            false,
        ),
        1 => (
            vec![
                proto(17),
                Component::SrcPort(vec![eq(ports[2]), eq(ports[3])]),
            ],
            true,
        ),
        2 => (
            vec![
                proto(17),
                Component::SrcPort(vec![NumericOp::ge(32_768), NumericOp::and_le(60_999)]),
                Component::PacketLength(vec![NumericOp::ge(len_lo), NumericOp::and_le(len_hi)]),
            ],
            false,
        ),
        3 => (
            vec![
                proto(17),
                Component::SrcPort(vec![eq(ports[4])]),
                Component::PacketLength(vec![NumericOp::ge(1000)]),
            ],
            true,
        ),
        // SYN set and ACK clear.
        4 => (
            vec![
                proto(6),
                Component::TcpFlags(vec![
                    BitmaskOp::new(false, false, true, 0x02),
                    BitmaskOp::new(true, true, false, 0x10),
                ]),
            ],
            false,
        ),
        // ACK and RST both set.
        _ => (
            vec![
                proto(6),
                Component::TcpFlags(vec![BitmaskOp::new(false, false, true, 0x14)]),
            ],
            true,
        ),
    };
    let mut components = vec![dst];
    components.extend(rest);
    let flow = FlowSpec::new(Afi::Ipv4, components).expect("components are in type order");
    let asn16 = member_asn(slot.victim).0 as u16;
    let rate = if shape { shape_rate } else { 0.0 };
    (
        flow,
        vec![ExtendedCommunity::traffic_rate(asn16, rate)],
        VARIANT_RULES[slot.variant],
    )
}

fn victim_slots(victims: &[usize]) -> Vec<Slot> {
    let mut slots = Vec::with_capacity(victims.len() * NLRIS_PER_VICTIM);
    for &victim in victims {
        for host in 0..VICTIM_HOSTS {
            for variant in 0..VARIANT_RULES.len() {
                slots.push(Slot {
                    victim,
                    host,
                    variant,
                });
            }
        }
    }
    slots
}

fn flowspec_announce(seed: u64, slot: Slot, generation: usize, retire: bool) -> ControlOp {
    let (flow, actions, rules) = nlri(seed, slot, generation);
    let wire = flow.to_wire().expect("generated NLRI encodes");
    let retire = retire.then(|| {
        let (old, _, old_rules) = nlri(seed, slot, generation - 1);
        (old, old_rules)
    });
    ControlOp::Flowspec {
        member: member_asn(slot.victim),
        wire,
        actions,
        expect: Expect::Install(rules),
        retire,
    }
}

/// 32 victims among 400 members x 48 standing NLRIs. Ops walk the slots in
/// a seeded cyclic order, each replacing a slot's NLRI with its next
/// generation; in every block of 20 ops one is a corrupt wire image and
/// one a non-owner hijack, both of which must be refused.
fn flowspec_victims(w: &Workload, seed: u64, n_ops: usize, specs: Vec<MemberSpec>) -> Plan {
    const VICTIMS: usize = 32;
    let victims = &Rng::new(seed, 1).permutation(w.members)[..VICTIMS];
    let mut slots = victim_slots(victims);
    Rng::new(seed, 3).shuffle(&mut slots);
    let preload = slots
        .iter()
        .map(|&s| flowspec_announce(seed, s, 0, false))
        .collect();
    Rng::new(seed, 4).shuffle(&mut slots);
    let mut rng = Rng::new(seed, 5);
    let mut ops = Vec::with_capacity(n_ops);
    let mut replaced = 0usize;
    let (mut corrupt_at, mut hijack_at) = (0, 0);
    for i in 0..n_ops {
        if i % 20 == 0 {
            corrupt_at = rng.below(20);
            hijack_at = (corrupt_at + 1 + rng.below(19)) % 20;
        }
        if i % 20 != corrupt_at && i % 20 != hijack_at {
            let slot = slots[replaced % slots.len()];
            ops.push(flowspec_announce(
                seed,
                slot,
                1 + replaced / slots.len(),
                true,
            ));
            replaced += 1;
            continue;
        }
        // Hostile announcements name NLRIs of a generation no slot ever
        // reaches, so they can never collide with a standing rule.
        let target = slots[rng.below(slots.len())];
        let (flow, actions, _) = nlri(seed, target, 63);
        let wire = flow.to_wire().expect("generated NLRI encodes");
        let (member, wire) = if i % 20 == corrupt_at {
            // `corrupt_wire` truncates on odd salts (always refused) and
            // flips length bits on even ones; a flipped length only
            // decodes by accident when it shrinks, i.e. when bit 6 of the
            // original length is set — force truncation there.
            let mut salt = rng.next_u64();
            if wire[0] & 0x40 != 0 {
                salt |= 1;
            }
            (target.victim, corrupt_wire(&wire, salt))
        } else {
            // A member that does not own the destination announces it.
            (
                (target.victim + 1 + rng.below(w.members - 1)) % w.members,
                wire,
            )
        };
        ops.push(ControlOp::Flowspec {
            member: member_asn(member),
            wire,
            actions,
            expect: Expect::Refuse,
            retire: None,
        });
    }
    Plan {
        specs,
        preload,
        ops,
        offers: Vec::new(),
        standing_rules: VICTIMS * RULES_PER_VICTIM,
    }
}

/// One announcement carrying five signals: five distinct amplification
/// ports towards the member's host .1, one of them shaped.
fn five_signals(m: usize, rng: &mut Rng) -> ControlOp {
    let mut ports = AMP_PORTS;
    rng.shuffle(&mut ports);
    let shaped = rng.below(SIGNALS_PER_PORT);
    let signals = (0..SIGNALS_PER_PORT)
        .map(|i| {
            if i == shaped {
                shape_signal(ports[i], rng)
            } else {
                StellarSignal::drop_udp_src(ports[i])
            }
        })
        .collect();
    ControlOp::Signal {
        member: member_asn(m),
        victim: host_prefix(m, 1),
        signals,
        retire: None,
    }
}

fn random_src_ip(rng: &mut Rng) -> IpAddress {
    IpAddress::V4(Ipv4Address::new(
        198,
        51,
        rng.below(256) as u8,
        rng.below(256) as u8,
    ))
}

fn aggregate(key: FlowKey, bytes: u64) -> OfferedAggregate {
    OfferedAggregate {
        key,
        bytes,
        packets: bytes / u64::from(key.packet_len.max(1)) + 1,
    }
}

/// Ordinary traffic towards a uniformly drawn member: mostly TCP 443 with
/// ACK set, some UDP from ephemeral ports.
fn benign(members: usize, rng: &mut Rng) -> OfferedAggregate {
    let dst = rng.below(members);
    let src = (dst + 1 + rng.below(members - 1)) % members;
    let tcp = rng.below(10) < 7;
    let key = FlowKey {
        src_mac: member_mac(src),
        dst_mac: member_mac(dst),
        src_ip: IpAddress::V4(host(src, 1 + rng.below(250) as u8)),
        dst_ip: IpAddress::V4(host(dst, 1 + rng.below(250) as u8)),
        protocol: if tcp {
            IpProtocol::TCP
        } else {
            IpProtocol::UDP
        },
        src_port: rng.between(32_768, 60_999) as u16,
        dst_port: 443,
        tcp_flags: if tcp { 0x10 } else { 0 },
        packet_len: if tcp { 1400 } else { 1200 },
        ..FlowKey::default()
    };
    aggregate(key, rng.between(10_000, 110_000))
}

/// Amplification traffic towards `dst_ip` on member `dst`: UDP from a
/// reflector port, large packets, arriving through a random member.
fn amplification(
    members: usize,
    dst: usize,
    dst_ip: Ipv4Address,
    rng: &mut Rng,
) -> OfferedAggregate {
    let key = FlowKey {
        src_mac: member_mac((dst + 1 + rng.below(members - 1)) % members),
        dst_mac: member_mac(dst),
        src_ip: random_src_ip(rng),
        dst_ip: IpAddress::V4(dst_ip),
        protocol: IpProtocol::UDP,
        src_port: AMP_PORTS[rng.below(AMP_PORTS.len())],
        dst_port: rng.between(1024, 65_535) as u16,
        packet_len: rng.between(900, 1500) as u16,
        ..FlowKey::default()
    };
    aggregate(key, rng.between(500_000, 8_000_000))
}

fn syn_flood(members: usize, dst: usize, dst_ip: Ipv4Address, rng: &mut Rng) -> OfferedAggregate {
    let key = FlowKey {
        src_mac: member_mac((dst + 1 + rng.below(members - 1)) % members),
        dst_mac: member_mac(dst),
        src_ip: random_src_ip(rng),
        dst_ip: IpAddress::V4(dst_ip),
        protocol: IpProtocol::TCP,
        src_port: rng.between(1024, 65_535) as u16,
        dst_port: if rng.below(2) == 0 { 80 } else { 443 },
        tcp_flags: 0x02,
        packet_len: 60,
        ..FlowKey::default()
    };
    aggregate(key, rng.between(200_000, 2_000_000))
}

/// Shuffled offer sets: half benign, and of the attack half, `to_victims`
/// aggregates aimed at FlowSpec victims' attacked hosts and the rest at
/// signalling members' host .1.
fn offer_sets(
    w: &Workload,
    seed: u64,
    victims: &[usize],
    signallers: &[usize],
    to_victims: usize,
) -> Vec<Vec<OfferedAggregate>> {
    let mut rng = Rng::new(seed, 7);
    let attack = w.offers_per_tick / 2;
    (0..OFFER_SETS)
        .map(|_| {
            let mut set = Vec::with_capacity(w.offers_per_tick);
            for _ in attack..w.offers_per_tick {
                set.push(benign(w.members, &mut rng));
            }
            for _ in 0..to_victims {
                let v = victims[rng.below(victims.len())];
                let dst_ip = victim_host(v, rng.below(VICTIM_HOSTS), 0);
                set.push(if rng.below(4) == 0 {
                    syn_flood(w.members, v, dst_ip, &mut rng)
                } else {
                    amplification(w.members, v, dst_ip, &mut rng)
                });
            }
            for _ in to_victims..attack {
                let m = signallers[rng.below(signallers.len())];
                set.push(amplification(w.members, m, host(m, 1), &mut rng));
            }
            rng.shuffle(&mut set);
            set
        })
        .collect()
}

/// 784 ports with five signal rules and 16 victim ports with 64
/// FlowSpec-lowered rules; half of every tick's offers are attack
/// traffic, half of that aimed at the 16 victims.
fn tick_ixp_mix(w: &Workload, seed: u64, specs: Vec<MemberSpec>) -> Plan {
    const VICTIMS: usize = 16;
    let order = Rng::new(seed, 1).permutation(w.members);
    let (victims, signallers) = order.split_at(VICTIMS);
    let mut rng = Rng::new(seed, 2);
    let mut preload: Vec<ControlOp> = signallers
        .iter()
        .map(|&m| five_signals(m, &mut rng))
        .collect();
    let mut slots = victim_slots(victims);
    Rng::new(seed, 3).shuffle(&mut slots);
    preload.extend(slots.iter().map(|&s| flowspec_announce(seed, s, 0, false)));
    Plan {
        specs,
        preload,
        ops: Vec::new(),
        offers: offer_sets(w, seed, victims, signallers, w.offers_per_tick / 4),
        standing_rules: signallers.len() * SIGNALS_PER_PORT + VICTIMS * RULES_PER_VICTIM,
    }
}

/// 100 000 ports of which 20 carry five signal rules; half of every tick's
/// offers are attack traffic at those 20, the rest is spread over all
/// ports.
fn tick_sparse_fabric(w: &Workload, seed: u64, specs: Vec<MemberSpec>) -> Plan {
    const RULED: usize = 20;
    let mut pick = Rng::new(seed, 1);
    let mut ruled = Vec::with_capacity(RULED);
    while ruled.len() < RULED {
        let m = pick.below(w.members);
        if !ruled.contains(&m) {
            ruled.push(m);
        }
    }
    let mut rng = Rng::new(seed, 2);
    let preload = ruled.iter().map(|&m| five_signals(m, &mut rng)).collect();
    Plan {
        specs,
        preload,
        ops: Vec::new(),
        offers: offer_sets(w, seed, &[], &ruled, 0),
        standing_rules: RULED * SIGNALS_PER_PORT,
    }
}
