//! A store that keeps its tuples allocates nothing per slice: once warm,
//! a store cycling slices through a bounded live set performs no more
//! allocations over four times the slices than over one.
//!
//! A counting global allocator needs a process of its own, hence an
//! integration test with a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gss_core::testsupport::SumI64;
use gss_core::{Range, SliceStore, StorePolicy, Time};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Slices alive at once, and the width of each.
const LIVE: Time = 16;
const WIDTH: Time = 10;

/// Allocations while `store` takes `slices` more slices, the next one
/// starting at `*next * WIDTH`. Per slice: an append, an in-order run of
/// three, a late run of two into the middle of the live set, and the
/// eviction of every slice more than `LIVE` back.
fn allocations(store: &mut SliceStore<SumI64>, next: &mut Time, slices: Time) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..slices {
        let t = *next * WIDTH;
        store.append_slice(Range::new(t, t + WIDTH));
        store.add_in_order_run_columns(&[t, t + 1, t + 5], &[1, 2, 3]);
        let idx = store.len() / 2;
        let late = store.slice(idx).start() + 2;
        store.add_out_of_order_run(idx, &[(late, 4), (late + 1, 5)]);
        store.evict_before(t - LIVE * WIDTH);
        *next += 1;
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn kept_tuples_allocate_nothing_per_slice() {
    let mut store = SliceStore::new(SumI64, StorePolicy::Lazy, true);
    let mut next = 0;
    allocations(&mut store, &mut next, 4 * LIVE);
    let one = allocations(&mut store, &mut next, 64);
    let four = allocations(&mut store, &mut next, 4 * 64);
    assert!(store.keeps_tuples() && store.len() as Time <= LIVE + 1);
    assert!(four <= one, "{four} allocations over 256 slices, {one} over 64");
}
