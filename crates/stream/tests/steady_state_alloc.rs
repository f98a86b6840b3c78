//! Steady state allocates nothing per chunk: once the chunk buffers are
//! in circulation — source → channel → worker → return channel → source —
//! a longer run performs no more allocations than a short one.
//!
//! A counting global allocator needs a process of its own, hence an
//! integration test with a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gss_core::testsupport::SumI64;
use gss_core::{StreamElement, Time, WindowAggregator, WindowResult};
use gss_stream::{run_keyed, PipelineConfig};

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

/// An operator that keeps no state and emits nothing, so every allocation
/// of a run is the transport's.
struct Sink;

impl WindowAggregator<SumI64> for Sink {
    fn process(&mut self, _: Time, _: i64, _: &mut Vec<WindowResult<i64>>) {}

    fn process_batch_columns(&mut self, _: &[Time], _: &[i64], _: &mut Vec<WindowResult<i64>>) {}

    fn on_watermark(&mut self, _: Time, _: &mut Vec<WindowResult<i64>>) {}

    fn memory_bytes(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "sink"
    }
}

const CHUNK: usize = 256;
const CAPACITY: u64 = 8;

/// Allocations of one `run_keyed` run over `chunks` full chunks, a
/// watermark after every tenth.
fn allocations(chunks: usize) -> u64 {
    let elements = (0..chunks * CHUNK).flat_map(|i| {
        let record = StreamElement::Record { ts: i as Time, value: (i as u64 % 5, 1i64) };
        let mark =
            (i % (10 * CHUNK) == 10 * CHUNK - 1).then_some(StreamElement::Watermark(i as Time));
        std::iter::once(record).chain(mark)
    });
    let mut cfg = PipelineConfig::default().with_batch_size(CHUNK).throughput_only();
    cfg.channel_capacity = CAPACITY as usize;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_keyed::<SumI64, _>(elements, cfg, |_| Box::new(Sink));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.records, (chunks * CHUNK) as u64);
    assert_eq!(report.batch_sizes.count(), chunks as u64);
    after - before
}

#[test]
fn a_long_run_allocates_no_more_than_a_short_one() {
    allocations(10); // warm the process up (lazy statics, thread-locals)
    let short = allocations(100);
    let long = allocations(1_000);
    // At most `CAPACITY` buffers ride the forward channel, as many wait on
    // the return channel, one is being filled and one consumed, two
    // columns each. How many of those a run ends up allocating depends on
    // how the two threads interleave, never on how long it runs.
    let in_flight = 2 * (CAPACITY + CAPACITY + 2);
    assert!(
        long <= short + in_flight,
        "1000 chunks took {long} allocations, 100 chunks {short}: the transport allocates per chunk"
    );
}
