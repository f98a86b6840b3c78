//! Figure 15: processing time for recomputing slice aggregates — the cost
//! of the split operation.
//!
//! Context-aware windows can require splitting a slice, which recomputes
//! both halves from stored tuples (paper Sections 5.2 / 6.3.3). Expected
//! shape: linear in the number of tuples in the slice; the holistic median
//! costs a constant factor more than the algebraic sum.
//!
//! Run: `cargo run --release -p gss-bench --bin fig15`

use std::time::Instant;

use gss_aggregates::{Median, Sum};
use gss_bench::Output;
use gss_core::{AggregateFunction, Range, SliceStore, StorePolicy, Time};

/// Builds a store whose one slice holds `n` stored tuples and measures a
/// split through the middle (both halves recomputed), median of `reps`
/// runs, nanoseconds.
fn split_cost<A: AggregateFunction<Input = i64> + Copy>(f: A, n: usize, reps: usize) -> f64 {
    let times: Vec<Time> = (0..n as Time).collect();
    let values: Vec<i64> = times.iter().map(|i| i % 97).collect();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut store = SliceStore::new(f, StorePolicy::Lazy, true);
        store.append_slice(Range::new(0, n as Time));
        store.add_in_order_run_columns(&times, &values);
        let t = Instant::now();
        let split = store.split_at(n as Time / 2);
        std::hint::black_box(&store);
        samples.push(t.elapsed().as_nanos() as f64);
        assert!(split, "the split point lies inside the slice");
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let mut out = Output::new("fig15", &["aggregation", "tuples_in_slice", "split_ns"]);
    out.print_header();
    for n in [100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let reps = (1_000_000 / n).clamp(5, 101);
        let sum_ns = split_cost(Sum, n, reps);
        let median_ns = split_cost(Median, n, reps);
        out.row(&["sum".into(), n.to_string(), format!("{sum_ns:.0}")]);
        out.row(&["median".into(), n.to_string(), format!("{median_ns:.0}")]);
    }
    out.finish();
}
