//! A periodic pass costs what changed, not what exists — counted in
//! allocations, which repeat exactly where wall-clock does not:
//!
//! - on a 16-PoP fabric with 100 rules on 20 ports, a quiet watchdog
//!   pass over unchanged state allocates exactly as often with 10^5
//!   member ports as with 10^3 — and, in release builds, not at all: it
//!   compares stamps and visits no port;
//! - with standing FlowSpec NLRIs an unchanged pass allocates nothing
//!   either (the RIB ↔ plane check looks no key up), and the first pass
//!   after one owner's withdraw allocates the same with 8 owners as
//!   with 64;
//! - a clean `reconcile` after a one-port edit allocates the same with
//!   200 occupied ports as with 2 000.
//!
//! Debug builds also run every obligation in full for the incremental ≡
//! full assertions, which allocates — by occupied ports, so only the
//! first equality holds there too and the others are asserted in release
//! only. `scripts/check.sh` runs this file in release.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::{Component, FlowSpec, NumericOp};
use stellar_bgp::types::{Afi, Asn};
use stellar_core::signal::StellarSignal;
use stellar_core::system::StellarSystem;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::prefix::Prefix;
use stellar_sim::topology::{generic_members, IxpTopology};

thread_local! {
    /// Allocations made by this thread — per thread, so the harness's own
    /// threads cannot perturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic in
// a const-initialised thread-local with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BASE_ASN: u32 = 100_000;
const POPS: usize = 16;
const VICTIMS: u32 = 20;
/// Past the watchdog's grace bound after the set-up below.
const QUIET_US: u64 = 600_000_000;

/// `members` members over 16 PoPs; 20 of them, spread over the first
/// thousand, hold five drop rules each. Returns the system after one
/// clean quiet pass (every port proven) and one unchanged pass (so the
/// counter it bumps exists).
fn quiet_system(members: usize) -> StellarSystem {
    let ixp = IxpTopology::build_with_pops(
        &generic_members(BASE_ASN, members),
        HardwareInfoBase::production_er(),
        POPS,
    );
    let mut sys = StellarSystem::new(ixp, 1000.0);
    let signals: Vec<StellarSignal> = [123u16, 53, 389, 11211, 19]
        .iter()
        .map(|p| StellarSignal::drop_udp_src(*p))
        .collect();
    for k in 0..VICTIMS {
        let i = k * 49;
        let out = sys.member_signal(Asn(BASE_ASN + i), host(i, 10), &signals, 0);
        assert_eq!(out.queued_changes, signals.len(), "{:?}", out.rejections);
    }
    let applied: usize = (0..100).map(|t| sys.pump(t * 10_000)).sum();
    assert_eq!(applied, 100);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    let reg = &sys.obs.registry;
    assert_eq!(reg.counter("verify.placement.ports_checked"), 20);
    assert_eq!(reg.counter("watchdog.checks_unchanged"), 1);
    sys
}

/// Allocations of one more pass over the unchanged system.
fn unchanged_pass_allocs(sys: &mut StellarSystem) -> u64 {
    let (found, allocs) = allocs_of(|| sys.watchdog_check(QUIET_US));
    assert_eq!(found, 0);
    let reg = &sys.obs.registry;
    assert_eq!(reg.counter("verify.placement.ports_checked"), 20);
    assert_eq!(reg.counter("watchdog.checks_unchanged"), 2);
    allocs
}

#[test]
fn unchanged_quiet_pass_cost_follows_occupied_ports_not_fabric_size() {
    let small = unchanged_pass_allocs(&mut quiet_system(1_000));
    let large = unchanged_pass_allocs(&mut quiet_system(100_000));
    assert_eq!(large, small);
    if !cfg!(debug_assertions) {
        assert_eq!(large, 0, "an unchanged pass allocated");
    }
}

/// Allocations this thread makes while `f` runs.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Member `m`'s host `h` (`MemberSpec::generic`: 131+(m/200).m%200.0.0/24).
fn host(m: u32, h: u8) -> Prefix {
    let addr = Ipv4Address::new(131 + (m / 200) as u8, (m % 200) as u8, 0, h);
    Prefix::host(IpAddress::V4(addr))
}

fn udp_src(dst: Prefix, port: u64) -> FlowSpec {
    FlowSpec {
        afi: Afi::Ipv4,
        components: vec![
            Component::DstPrefix(dst),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(port)]),
        ],
    }
}

/// Pumps until the queue is dry; returns the changes applied.
fn settle(sys: &mut StellarSystem, from_us: u64) -> usize {
    (0..200).map(|t| sys.pump(from_us + t * 10_000)).sum()
}

/// `(unchanged pass, first pass after one owner's withdraw)` allocations
/// with `owners` members holding six FlowSpec NLRIs each.
fn flowspec_pass_allocs(owners: u32) -> (u64, u64) {
    const NLRIS: u64 = 6;
    let ixp = IxpTopology::build_with_pops(
        &generic_members(BASE_ASN, 64),
        HardwareInfoBase::production_er(),
        POPS,
    );
    let mut sys = StellarSystem::new(ixp, 100_000.0);
    for m in 0..owners {
        let drop = ExtendedCommunity::traffic_rate(0, 0.0);
        for port in 0..NLRIS {
            let flow = udp_src(host(m, 10), 1000 + port);
            let out = sys.member_flowspec(Asn(BASE_ASN + m), flow, &[drop], 0);
            assert_eq!(out.queued_changes, 1, "{:?}", out.rejections);
        }
    }
    assert_eq!(settle(&mut sys, 0) as u64, u64::from(owners) * NLRIS);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    assert_eq!(sys.watchdog_check(QUIET_US), 0);
    let (found, unchanged) = allocs_of(|| sys.watchdog_check(QUIET_US));
    assert_eq!(found, 0);
    assert_eq!(sys.obs.registry.counter("watchdog.checks_unchanged"), 2);

    let flow = udp_src(host(3, 10), 1000);
    let out = sys.member_flowspec_withdraw(Asn(BASE_ASN + 3), flow, QUIET_US);
    assert_eq!(out.queued_changes, 1);
    assert_eq!(settle(&mut sys, QUIET_US), 1);
    let checked = sys.obs.registry.counter("verify.placement.ports_checked");
    let (found, edited) = allocs_of(|| sys.watchdog_check(2 * QUIET_US));
    assert_eq!(found, 0);
    let reg = &sys.obs.registry;
    assert_eq!(reg.counter("verify.placement.ports_checked"), checked + 1);
    assert_eq!(reg.counter("watchdog.checks_unchanged"), 2);
    (unchanged, edited)
}

#[test]
fn flowspec_pass_cost_follows_the_owners_that_changed() {
    let (unchanged_small, edited_small) = flowspec_pass_allocs(8);
    let (unchanged_large, edited_large) = flowspec_pass_allocs(64);
    if !cfg!(debug_assertions) {
        assert_eq!(unchanged_small, 0, "an unchanged pass allocated");
        assert_eq!(unchanged_large, 0, "an unchanged pass allocated");
        assert_eq!(edited_large, edited_small);
    }
}

/// Allocations of a clean `reconcile` after one port gained a rule, with
/// `occupied` ports holding one signaled rule each.
fn reconcile_allocs_after_one_port_edit(occupied: u32) -> u64 {
    let ixp = IxpTopology::build_with_pops(
        &generic_members(BASE_ASN, 2_000),
        HardwareInfoBase::production_er(),
        POPS,
    );
    let mut sys = StellarSystem::new(ixp, 100_000.0);
    let ntp = StellarSignal::drop_udp_src(123);
    for m in 0..occupied {
        let out = sys.member_signal(Asn(BASE_ASN + m), host(m, 10), &[ntp], 0);
        assert_eq!(out.queued_changes, 1, "{:?}", out.rejections);
    }
    assert_eq!(settle(&mut sys, 0), occupied as usize);
    assert!(sys.reconcile(QUIET_US).is_clean());
    let two = [ntp, StellarSignal::drop_udp_src(53)];
    sys.member_signal(Asn(BASE_ASN + 7), host(7, 10), &two, QUIET_US);
    assert_eq!(settle(&mut sys, QUIET_US), 1);
    let (report, allocs) = allocs_of(|| sys.reconcile(2 * QUIET_US));
    assert!(report.is_clean());
    allocs
}

#[test]
fn clean_reconcile_cost_follows_the_ports_that_changed() {
    let small = reconcile_allocs_after_one_port_edit(200);
    let large = reconcile_allocs_after_one_port_edit(2_000);
    if !cfg!(debug_assertions) {
        assert_eq!(large, small);
    }
}
