//! Export allocation pin: a member's signal and its withdrawal allocate
//! the same with 8 and with 800 peers. Each export is one update group —
//! the message built once, its target list sized once — so membership
//! grows the `Asn` list, never the number of allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_net::addr::Ipv4Address;
use stellar_net::prefix::Prefix;
use stellar_routeserver::irr::IrrDb;
use stellar_routeserver::policy::ImportPolicy;
use stellar_routeserver::rpki::RpkiTable;
use stellar_routeserver::server::{RouteServer, RouteServerConfig};

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

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const VICTIM_OWNER: Asn = Asn(64500);

/// A route server with `n` members, the first of which owns
/// 100.10.0.0/16.
fn server(n: u32) -> RouteServer {
    let mut irr = IrrDb::new();
    irr.register("100.10.0.0/16".parse().unwrap(), VICTIM_OWNER);
    let mut rs = RouteServer::new(
        RouteServerConfig::l_ixp(),
        ImportPolicy::new(irr, RpkiTable::new()),
    );
    for i in 0..n {
        let [_, _, hi, lo] = i.to_be_bytes();
        rs.add_peer(Asn(64500 + i), Ipv4Address::new(80, 81, hi, lo));
    }
    rs
}

/// A Stellar signal for `victim`: drop UDP from source port 123.
fn signal(victim: Prefix) -> UpdateMessage {
    let mut u = UpdateMessage::announce(
        victim,
        Ipv4Address::new(80, 81, 192, 10),
        PathAttribute::AsPath(AsPath::sequence([VICTIM_OWNER.0])),
    );
    u.add_extended_communities(&[ExtendedCommunity::TwoOctetAs {
        subtype: 0xbb,
        asn: 6695,
        local: 0x0200_007b,
        transitive: true,
    }]);
    u
}

/// Allocations of one accepted signal plus its withdrawal, outputs
/// dropped, after one warm-up round of the same pair.
fn signal_and_withdrawal_allocs(peers: u32) -> u64 {
    let mut rs = server(peers);
    let victim: Prefix = "100.10.10.10/32".parse().unwrap();
    let (announce, withdraw) = (signal(victim), UpdateMessage::withdraw(victim));
    let round = |rs: &mut RouteServer, now_us: u64| {
        let out = rs.handle_update(VICTIM_OWNER, &announce, now_us);
        assert!(out.rejections.is_empty(), "{:?}", out.rejections);
        assert_eq!(out.exports[0].targets.len() as u32, peers - 1);
        drop(out);
        let out = rs.handle_update(VICTIM_OWNER, &withdraw, now_us + 1);
        assert_eq!(out.exports[0].targets.len() as u32, peers - 1);
    };
    round(&mut rs, 0);
    allocs_during(|| round(&mut rs, 10))
}

#[test]
fn signal_and_withdrawal_allocate_the_same_at_8_and_800_peers() {
    let small = signal_and_withdrawal_allocs(8);
    let large = signal_and_withdrawal_allocs(800);
    assert!(small > 0);
    assert_eq!(small, large, "export allocations grew with the membership");
}
