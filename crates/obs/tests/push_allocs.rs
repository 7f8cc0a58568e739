//! Push-path allocation pin: once a series exists, pushing to it again
//! allocates nothing — the registry and the span tracker look names up
//! by `&str` and build an owned key (or a `span.<name>_us` histogram
//! name) only on first insertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stellar_obs::Obs;

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

fn push_everything(o: &mut Obs, key: u64, now_us: u64) {
    o.registry.counter_add("core.installs", 2);
    o.registry.counter_inc("core.installs");
    o.registry.counter_set("dataplane.rule_installs", now_us);
    o.registry.gauge_set("core.queue.backlog", -3);
    o.registry.observe("core.signal_to_install_us", 42_000);
    o.span_start("install", key, now_us);
    assert!(o.spans.is_open("install", key));
    assert_eq!(o.span_end("install", key, now_us + 500), Some(500));
    o.span_start("retry", key, now_us);
    assert!(o.spans.abandon("retry", key));
}

#[test]
fn second_push_to_an_existing_series_allocates_nothing() {
    let mut o = Obs::new();
    // A span left open keeps each name's key map from emptying between
    // the two rounds.
    o.span_start("install", 0, 0);
    o.span_start("retry", 0, 0);
    let first = allocs_during(|| push_everything(&mut o, 1, 1_000));
    assert!(first > 0, "the first push creates the series");
    let second = allocs_during(|| push_everything(&mut o, 2, 2_000));
    assert_eq!(second, 0, "pushes to existing series allocated");
    assert_eq!(o.registry.counter("core.installs"), 6);
    assert_eq!(o.spans.completed_count("install"), 2);
}
