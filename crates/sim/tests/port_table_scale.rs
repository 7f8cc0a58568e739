//! The scrape scales with *active* ports: a 16-PoP / 10^5-port fabric
//! with 20 active ports exports a small snapshot, and `observe` +
//! `snapshot_json` allocate exactly as often over 10^5 idle ports as
//! over 10^3. So do the rule-state reads behind the watchdog —
//! `total_rules` and `occupied_ports` — which go through the
//! occupied-port index (the watchdog pass itself is pinned in
//! `crates/core/tests/quiet_pass_scale.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::PortId;
use stellar_net::mac::MacAddr;
use stellar_sim::fabric::{Fabric, PopId};

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

const POPS: usize = 16;
const ACTIVE: u32 = 20;

/// `ports` member ports round-robined over 16 PoPs; one drop rule on
/// each of 20 ports spread over the first thousand ids.
fn fabric(ports: u32) -> Fabric {
    let mut f = Fabric::new(HardwareInfoBase::lab_switch(), POPS);
    for p in 0..ports {
        let asn = 100_000 + p;
        f.add_port(
            PopId((p as usize % POPS) as u16),
            PortId(p + 1),
            MemberPort::new(asn, MacAddr::for_member(asn, 1), 1_000_000_000),
        );
    }
    for k in 0..ACTIVE {
        let rule = FilterRule::new(u64::from(k) + 1, MatchSpec::default(), Action::Drop, 10);
        f.install_rule(PortId(k * 49 + 1), rule, 0)
            .expect("a drop-all rule fits an empty TCAM");
    }
    f
}

/// One scrape into a fresh bundle: `(snapshot, allocations it cost)`.
fn scrape(f: &Fabric) -> (String, u64) {
    let mut obs = stellar_obs::Obs::new();
    let before = ALLOCS.with(Cell::get);
    f.observe(&mut obs.registry);
    let json = obs.snapshot_json(0);
    (json, ALLOCS.with(Cell::get) - before)
}

#[test]
fn scrape_cost_follows_active_ports_not_fabric_size() {
    let (small_json, small_allocs) = scrape(&fabric(1_000));
    let (large_json, large_allocs) = scrape(&fabric(100_000));
    assert!(large_json.contains("\"total\": 100000,\n      \"reported\": 20,"));
    assert!(
        large_json.len() < 64 * 1024,
        "10^5-port snapshot is {} bytes",
        large_json.len()
    );
    // Same rows either way; only the digits of `total` differ.
    assert_eq!(large_json.len(), small_json.len() + 2);
    assert_eq!(large_allocs, small_allocs);
}

#[test]
fn rule_state_reads_follow_occupied_ports_not_fabric_size() {
    let read = |f: &Fabric| {
        let before = ALLOCS.with(Cell::get);
        let total = f.total_rules();
        let summed = ALLOCS.with(Cell::get) - before;
        let occupied = f.occupied_ports().count();
        (total, occupied, summed, ALLOCS.with(Cell::get) - before)
    };
    let small = read(&fabric(1_000));
    let large = read(&fabric(100_000));
    assert_eq!(large, small);
    let (total, occupied, summed, _) = large;
    assert_eq!((total, occupied), (ACTIVE as usize, ACTIVE as usize));
    assert_eq!(summed, 0, "total_rules allocated");
}
