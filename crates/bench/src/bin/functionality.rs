//! §5.2 functionality validation: a 10 Gbps hardware-accelerated traffic
//! generator drives NTP, DNS and benign flows at a 1 Gbps member port;
//! the ER with Stellar must (a) congest without rules, (b) drop/shape
//! exactly the targeted flows with rules, leaving benign traffic
//! untouched — per targeted IP address.

use stellar_bench::output;
use stellar_bgp::types::Asn;
use stellar_core::controller::AbstractChange;
use stellar_core::manager::NetworkManager;
use stellar_core::qos_manager::QosNetworkManager;
use stellar_core::rule::BlackholingRule;
use stellar_core::signal::StellarSignal;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::{OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;
use stellar_sim::fabric::{Fabric, PopId};
use stellar_stats::table::{fmt_bps, render_table};

fn flow(src_port: u16, proto: IpProtocol, dst: Ipv4Address, rate_bps: f64) -> OfferedAggregate {
    let bytes = (rate_bps / 8.0) as u64; // one-second tick
    OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(65000, 1),
            dst_mac: MacAddr::for_member(64500, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 9)),
            dst_ip: IpAddress::V4(dst),
            protocol: proto,
            src_port,
            dst_port: if proto == IpProtocol::TCP { 443 } else { 40000 },
            ..FlowKey::default()
        },
        bytes,
        packets: bytes / 1000 + 1,
    }
}

fn run(er: &mut Fabric, offers: &[OfferedAggregate], t: &mut u64) -> Vec<(u16, IpProtocol, f64)> {
    *t += 1_000_000;
    er.process_tick_in_place(offers, *t, 1_000_000);
    let results = er.take_tick_results();
    let mut out = Vec::new();
    for offer in offers {
        let delivered = results
            .values()
            .flat_map(|r| &r.delivered)
            .filter(|(k, _, _)| *k == offer.key)
            .map(|(_, b, _)| *b)
            .sum::<u64>();
        out.push((
            offer.key.src_port,
            offer.key.protocol,
            delivered as f64 * 8.0,
        ));
    }
    out
}

fn main() {
    let exp = output::start(
        "§5.2",
        "Functionality: 10G generator into a 1G member port — drop/shape/forward per targeted IP",
        output::RunOpts {
            seed: stellar_bench::SEED,
            ticks: 0,
        },
    );
    let mut er = Fabric::single(HardwareInfoBase::production_er());
    er.add_port(
        PopId(0),
        PortId(1),
        MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000),
    );
    let mut mgr = QosNetworkManager::default();
    mgr.register_owner(Asn(64500), PortId(1));

    let ip_a = Ipv4Address::new(100, 10, 10, 10);
    let ip_b = Ipv4Address::new(100, 10, 10, 20);
    // ~10 Gbps aggregate: NTP 6G + DNS 3G to IP A, benign 0.35G each IP.
    let offers = vec![
        flow(123, IpProtocol::UDP, ip_a, 6e9),
        flow(53, IpProtocol::UDP, ip_a, 3e9),
        flow(51000, IpProtocol::TCP, ip_a, 0.35e9),
        flow(51000, IpProtocol::TCP, ip_b, 0.35e9),
    ];
    let label = |p: u16, proto: IpProtocol, ip: &str| format!("{proto} src {p} -> {ip}");
    let names = [
        label(123, IpProtocol::UDP, "A"),
        label(53, IpProtocol::UDP, "A"),
        label(51000, IpProtocol::TCP, "A (benign)"),
        label(51000, IpProtocol::TCP, "B (benign)"),
    ];

    let mut t = 0u64;
    let mut rows = vec![{
        let mut h = vec!["configuration".to_string()];
        h.extend(names.iter().cloned());
        h
    }];
    let push_row = |cfg: &str, rates: &[(u16, IpProtocol, f64)], rows: &mut Vec<Vec<String>>| {
        let mut row = vec![cfg.to_string()];
        row.extend(rates.iter().map(|(_, _, r)| fmt_bps(*r)));
        rows.push(row);
    };

    // Phase 1: no rules — the port congests, everything suffers.
    let rates = run(&mut er, &offers, &mut t);
    push_row("no rules (congested)", &rates, &mut rows);

    // Phase 2: drop NTP, shape DNS to 200 Mbps.
    let victim = stellar_net::prefix::Prefix::host(IpAddress::V4(ip_a));
    mgr.apply(
        &mut er,
        &AbstractChange::AddRule(BlackholingRule::from_signal(
            1,
            Asn(64500),
            victim,
            StellarSignal::drop_udp_src(123),
        )),
        t,
    )
    .expect("install drop");
    mgr.apply(
        &mut er,
        &AbstractChange::AddRule(BlackholingRule::from_signal(
            2,
            Asn(64500),
            victim,
            StellarSignal::shape_udp_src(53, 200),
        )),
        t,
    )
    .expect("install shape");
    // Two ticks so the shaping queue reaches steady state.
    run(&mut er, &offers, &mut t);
    let rates = run(&mut er, &offers, &mut t);
    push_row("drop NTP, shape DNS@200M", &rates, &mut rows);

    // Phase 3: remove rules — flows share the congested port again.
    mgr.apply(
        &mut er,
        &AbstractChange::RemoveRule {
            rule_id: 1,
            owner: Asn(64500),
        },
        t,
    )
    .expect("remove");
    mgr.apply(
        &mut er,
        &AbstractChange::RemoveRule {
            rule_id: 2,
            owner: Asn(64500),
        },
        t,
    )
    .expect("remove");
    let rates = run(&mut er, &offers, &mut t);
    push_row("rules removed (congested)", &rates, &mut rows);

    println!("{}", render_table(&rows));
    println!(
        "Expected (paper §5.2): dropping-queue flows are not forwarded;\n\
         shaping-queue flows share the shaping rate; with the attack flows\n\
         handled, the benign flows to BOTH targeted IPs pass untouched."
    );
    exp.write("functionality", &rows);
}
