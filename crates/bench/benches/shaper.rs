//! Microbenchmark: token-bucket shaping and a full QoS traffic tick at
//! production-like aggregate counts.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use stellar_core::rule::BlackholingRule;
use stellar_core::signal::StellarSignal;
use stellar_dataplane::qos::{Offer, QosPolicy, TickResult, TickWork};
use stellar_dataplane::shaper::TokenBucket;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;

fn offers(n: usize) -> Vec<Offer> {
    (0..n)
        .map(|i| Offer {
            key: FlowKey {
                src_mac: MacAddr::for_member(65000 + i as u32, 1),
                dst_mac: MacAddr::for_member(64500, 1),
                src_ip: IpAddress::V4(Ipv4Address::from_u32(0xc633_6400 + i as u32)),
                dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
                protocol: IpProtocol::UDP,
                src_port: if i % 3 == 0 { 123 } else { 40000 + i as u16 },
                dst_port: 443,
                ..FlowKey::default()
            },
            bytes: 2_000_000,
            packets: 1400,
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    c.bench_function("shaper/admit_million_ticks", |b| {
        b.iter_batched(
            || TokenBucket::new(200_000_000, 25_000_000),
            |mut tb| {
                let mut admitted = 0u64;
                for t in 1..=1000u64 {
                    admitted += tb.admit(black_box(5_000_000), t * 1_000);
                }
                black_box(admitted)
            },
            BatchSize::SmallInput,
        )
    });

    for n in [60usize, 600] {
        let mut g = c.benchmark_group("qos/traffic_tick");
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("{n}_aggregates"), |b| {
            b.iter_batched(
                || {
                    let mut p = QosPolicy::new();
                    p.install(
                        BlackholingRule::from_signal(
                            1,
                            stellar_bgp::types::Asn(64500),
                            "100.10.10.10/32".parse().unwrap(),
                            StellarSignal::shape_udp_src(123, 200),
                        )
                        .to_filter_rule(),
                    );
                    (p, offers(n))
                },
                |(mut p, offers)| {
                    let (mut w, mut r) = (TickWork::default(), TickResult::default());
                    p.apply_tick_into(
                        &offers,
                        1_000_000,
                        1_000_000,
                        10_000_000_000,
                        &mut w,
                        &mut r,
                    );
                    black_box(r.counters)
                },
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
