//! A quiet watchdog pass costs what changed, not what exists: on a
//! 16-PoP fabric with 100 rules on 20 ports, a pass over unchanged state
//! allocates exactly as often with 10^5 member ports as with 10^3 — and,
//! in release builds, not at all: it compares four stamps and visits no
//! port. (Debug builds also run the full obligations for the
//! incremental ≡ full assertion, which allocates — by occupied ports,
//! so the equality holds there too. `scripts/check.sh` runs this file
//! in release for the zero.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stellar_bgp::types::Asn;
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
        // Member `i` owns 131+(i/200) . i%200 . 0.0/24.
        let i = k * 49;
        let victim = Ipv4Address::new(131 + (i / 200) as u8, (i % 200) as u8, 0, 10);
        let out = sys.member_signal(
            Asn(BASE_ASN + i),
            Prefix::host(IpAddress::V4(victim)),
            &signals,
            0,
        );
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
    let before = ALLOCS.with(Cell::get);
    let found = sys.watchdog_check(QUIET_US);
    let allocs = ALLOCS.with(Cell::get) - before;
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
