//! The size sweep that fixes `stellar_classify::LINEAR_MAX`.
//!
//! At 8 / 16 / 32 / 64 / 128 / 256 / 10^3 / 10^4 installed rules, on a
//! standard and a range-heavy rule mix, the same 1 000-key batch is
//! classified two ways over the same `(priority, id)`-sorted table:
//!
//! * `scan`  — first-match scan of the sorted rules (the reference
//!   semantics, and [`FlowClassifier`]'s path up to `LINEAR_MAX`),
//! * `index` — [`IntervalIndex::first_match`] (its path above), plus
//!   what the index costs to `build`.
//!
//! Verdict equality between the two — and with a compiled
//! [`FlowClassifier`] — is asserted before anything is timed. A final
//! `report` target reads the collected summaries and writes the rows
//! (ns/key, build ns, scan/index ratio) to `results/bench_classify.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use stellar_bench::output;
use stellar_classify::interval::IntervalIndex;
use stellar_classify::spec::{BitsMatch, RangeMatch};
use stellar_classify::{FlowClassifier, MatchSpec, PortMatch, RuleEntry, LINEAR_MAX};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::{frag, FlowKey};
use stellar_net::mac::MacAddr;
use stellar_net::prefix::{Ipv4Prefix, Prefix};
use stellar_net::proto::IpProtocol;
use stellar_net::tcp::TcpFlags;

/// Table sizes swept: dense around the per-port regime (the production
/// edge router caps a port at 256 rules), then the large-table tail.
const RULE_COUNTS: [usize; 8] = [8, 16, 32, 64, 128, 256, 1_000, 10_000];
const MIXES: [&str; 2] = ["std", "range"];
const KEY_COUNT: usize = 1_000;

/// Amplification source ports a Stellar member would drop (NTP, DNS,
/// chargen, memcached).
const AMP_PORTS: [u16; 4] = [123, 53, 19, 11211];

fn victim(i: usize) -> Ipv4Address {
    Ipv4Address::new(
        100,
        (i / 65_536) as u8,
        ((i / 256) % 256) as u8,
        (i % 256) as u8,
    )
}

fn host_prefix(addr: Ipv4Address) -> Prefix {
    Prefix::V4(Ipv4Prefix::new(addr, 32).unwrap())
}

/// A Stellar-realistic rule mix: mostly fine-grained advanced-blackholing
/// rules (victim /32 + UDP + amplification source port), plus plain
/// destination blackholes, dst-port-range scrubs and src-prefix scoped
/// drops. The mix exercises exact, prefix and range dimensions.
fn rules(n: usize) -> Vec<RuleEntry> {
    (0..n)
        .map(|i| {
            let dst = host_prefix(victim(i));
            let spec = match i % 10 {
                // 40%: victim /32, UDP, exact amplification source port.
                0..=3 => MatchSpec::proto_src_port_to(
                    dst,
                    IpProtocol::UDP,
                    AMP_PORTS[i % AMP_PORTS.len()],
                ),
                // 30%: plain destination blackhole.
                4..=6 => MatchSpec::to_destination(dst),
                // 20%: destination + TCP + destination port range.
                7..=8 => MatchSpec {
                    protocol: Some(IpProtocol::TCP),
                    dst_port: Some(PortMatch::Range(0, 1023)),
                    ..MatchSpec::to_destination(dst)
                },
                // 10%: source-prefix scoped drop towards the victim.
                _ => MatchSpec {
                    src_ip: Some(Prefix::V4(
                        Ipv4Prefix::new(Ipv4Address::new(203, (i % 200) as u8, 0, 0), 16).unwrap(),
                    )),
                    ..MatchSpec::to_destination(dst)
                },
            };
            RuleEntry::new(i as u64, 10, spec)
        })
        .collect()
}

/// Half the keys hit installed victims (with amplification ports so the
/// fine-grained rules fire), half miss entirely — misses are the linear
/// scan's worst case and the common case under attack traffic churn.
fn keys(n_rules: usize) -> Vec<FlowKey> {
    (0..KEY_COUNT)
        .map(|i| {
            let dst = if i % 2 == 0 {
                victim((i * 7) % n_rules)
            } else {
                Ipv4Address::new(198, 51, (i % 256) as u8, (i / 256) as u8)
            };
            FlowKey {
                src_mac: MacAddr::for_member(64500 + (i % 4) as u32, 1),
                dst_mac: MacAddr::for_member(64510, 1),
                src_ip: IpAddress::V4(Ipv4Address::new(203, (i % 200) as u8, 7, 9)),
                dst_ip: IpAddress::V4(dst),
                protocol: IpProtocol::UDP,
                src_port: AMP_PORTS[i % AMP_PORTS.len()],
                dst_port: 44_444,
                ..FlowKey::default()
            }
        })
        .collect()
}

/// A range-heavy mix: the FlowSpec-era rules advanced blackholing lowers
/// to — SYN-only cubes, packet-length bands, wide port ranges, DSCP
/// bands and fragment bits — few exact values, many intervals and cubes.
fn range_rules(n: usize) -> Vec<RuleEntry> {
    (0..n)
        .map(|i| {
            let dst = host_prefix(victim(i));
            let spec = match i % 10 {
                // 30%: SYN-flood filter: victim /32, TCP, SYN-only cube.
                0..=2 => MatchSpec {
                    protocol: Some(IpProtocol::TCP),
                    tcp_flags: Some(BitsMatch::new(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN)),
                    ..MatchSpec::to_destination(dst)
                },
                // 30%: packet-length band + UDP (fragmentation floods).
                3..=5 => {
                    let bands = [(0u16, 128u16), (1_000, 1_499), (1_500, u16::MAX)];
                    let (lo, hi) = bands[i % bands.len()];
                    MatchSpec {
                        protocol: Some(IpProtocol::UDP),
                        packet_len: Some(RangeMatch::new(lo, hi)),
                        ..MatchSpec::to_destination(dst)
                    }
                }
                // 20%: wide destination port range on the victim's /24.
                6..=7 => {
                    let (lo, hi) = if i % 2 == 0 {
                        (0, 1_023)
                    } else {
                        (1_024, 49_151)
                    };
                    MatchSpec {
                        protocol: Some(IpProtocol::TCP),
                        dst_port: Some(PortMatch::Range(lo, hi)),
                        ..MatchSpec::to_destination(Prefix::V4(
                            Ipv4Prefix::new(victim(i), 24).unwrap(),
                        ))
                    }
                }
                // 10%: low-DSCP band towards the victim.
                8 => MatchSpec {
                    dscp: Some(RangeMatch::new(0, 31)),
                    ..MatchSpec::to_destination(dst)
                },
                // 10%: fragments towards the victim.
                _ => MatchSpec {
                    fragment: Some(BitsMatch::all_of(frag::IS_FRAGMENT)),
                    ..MatchSpec::to_destination(dst)
                },
            };
            RuleEntry::new(i as u64, 10, spec)
        })
        .collect()
}

/// Keys for the range-heavy mix: half aimed at installed victims with
/// header fields spread across the bands and cubes, half misses.
fn range_keys(n_rules: usize) -> Vec<FlowKey> {
    (0..KEY_COUNT)
        .map(|i| {
            let dst = if i % 2 == 0 {
                victim((i * 7) % n_rules)
            } else {
                Ipv4Address::new(198, 51, (i % 256) as u8, (i / 256) as u8)
            };
            let tcp = i % 3 != 0;
            FlowKey {
                src_mac: MacAddr::for_member(64500 + (i % 4) as u32, 1),
                dst_mac: MacAddr::for_member(64510, 1),
                src_ip: IpAddress::V4(Ipv4Address::new(203, (i % 200) as u8, 7, 9)),
                dst_ip: IpAddress::V4(dst),
                protocol: if tcp {
                    IpProtocol::TCP
                } else {
                    IpProtocol::UDP
                },
                src_port: AMP_PORTS[i % AMP_PORTS.len()],
                dst_port: ((i * 131) % 65_536) as u16,
                tcp_flags: if i % 4 == 0 {
                    TcpFlags::SYN
                } else {
                    TcpFlags::SYN | TcpFlags::ACK
                },
                packet_len: [64, 600, 1_200, 1_500][i % 4],
                dscp: (i % 64) as u8,
                fragment: if i % 5 == 0 { frag::IS_FRAGMENT } else { 0 },
                ..FlowKey::default()
            }
        })
        .collect()
}

/// The reference semantics: first match over the rank-sorted rules.
fn scan(sorted: &[RuleEntry], key: &FlowKey) -> Option<usize> {
    sorted.iter().position(|e| e.spec.matches(key))
}

/// One sweep cell's table and key batch.
fn workload(mix: &str, n: usize) -> (Vec<RuleEntry>, Vec<FlowKey>) {
    match mix {
        "std" => (rules(n), keys(n)),
        _ => (range_rules(n), range_keys(n)),
    }
}

fn size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("size_sweep");
    group.throughput(Throughput::Elements(KEY_COUNT as u64));
    for n in RULE_COUNTS {
        for mix in MIXES {
            let (entries, batch) = workload(mix, n);
            let classifier = FlowClassifier::compile(entries);
            // The classifier's own store is the rank-sorted table.
            let sorted = classifier.rules();
            let index = IntervalIndex::build(sorted);
            for key in &batch {
                let want = scan(sorted, key);
                assert_eq!(
                    index.first_match(sorted, key),
                    want,
                    "index diverges from the scan on mix {mix} at {n} rules"
                );
                assert_eq!(
                    classifier.first_match(key),
                    want,
                    "classifier diverges from the scan on mix {mix} at {n} rules"
                );
            }
            group.bench_function(format!("scan_{mix}/{n}"), |b| {
                b.iter(|| {
                    let sorted = black_box(sorted);
                    batch.iter().filter(|k| scan(sorted, k).is_some()).count()
                })
            });
            group.bench_function(format!("index_{mix}/{n}"), |b| {
                b.iter(|| {
                    let (index, sorted) = (black_box(&index), black_box(sorted));
                    batch
                        .iter()
                        .filter(|k| index.first_match(sorted, k).is_some())
                        .count()
                })
            });
            group.bench_function(format!("build_{mix}/{n}"), |b| {
                b.iter(|| IntervalIndex::build(black_box(sorted)))
            });
        }
    }
    group.finish();
}

/// Reads the summaries recorded by `size_sweep` and writes a
/// machine-readable comparison to `results/bench_classify.json`.
fn report(c: &mut Criterion) {
    let ns_per_iter = |name: &str, mix: &str, n: usize| {
        c.summaries()
            .iter()
            .find(|s| s.name == format!("size_sweep/{name}_{mix}/{n}"))
            .map(|s| s.ns_per_iter)
    };
    let mut rows = Vec::new();
    for n in RULE_COUNTS {
        for mix in MIXES {
            let scan = ns_per_iter("scan", mix, n).map(|ns| ns / KEY_COUNT as f64);
            let index = ns_per_iter("index", mix, n).map(|ns| ns / KEY_COUNT as f64);
            let ratio = match (scan, index) {
                (Some(s), Some(i)) if i > 0.0 => serde_json::json!(s / i),
                _ => serde_json::json!(null),
            };
            rows.push(serde_json::json!({
                "rules": n,
                "mix": mix,
                "verdicts_identical": true, // asserted before timing
                "scan_ns_per_key": serde_json::json!(scan),
                "index_ns_per_key": serde_json::json!(index),
                "scan_over_index": ratio,
                "index_build_ns": serde_json::json!(ns_per_iter("build", mix, n)),
                "classifier_path": if n > LINEAR_MAX { "index" } else { "scan" },
            }));
        }
    }
    output::banner(
        "bench_classify",
        "first-match scan vs interval index across table sizes",
    );
    output::write_json(
        "bench_classify",
        &serde_json::json!({
            "bench": "classify",
            "workload": "1000-key batch, 50% hits, Stellar-style rule mixes",
            "linear_max": LINEAR_MAX,
            "size_sweep": serde_json::json!(rows),
        }),
    );
}

criterion_group!(benches, size_sweep, report);
criterion_main!(benches);
