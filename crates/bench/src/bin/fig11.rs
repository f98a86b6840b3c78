//! Figure 11: output latency of the aggregate stores — the cost of
//! producing one final window aggregate from `n` stored entries.
//!
//! (a) sum (algebraic) and (c) median (holistic), for 10 … 100 000
//! entries. Expected shape (paper Section 6.2.4): lazy aggregation (lazy
//! slicing, tuple buffer) scales linearly up to ~1 ms at 10⁵ entries;
//! eager stores (eager slicing, aggregate tree) answer in microseconds
//! (log n combines); buckets answer in nanoseconds (pre-computed, one
//! lookup). Holistic medians shift slicing latencies up (the final merge
//! is expensive) but leave buckets untouched. The finger-tree store
//! (beyond the paper) sits with the eager one.
//!
//! A second table, `fig11_sweep`, measures what an operator deployment
//! feels: not one window but the *sweep* of one watermark — 1, 10, 100
//! or 500 sliding `Max` windows (the shape of the repo benchmark's
//! `query_heavy`: fifty lengths, ten consecutive ends, longest first)
//! over 600 and 3 000 slices. It compares one range query per window on
//! each store with the shared scan ([`SliceStore::shared_scan`], which
//! reads slice partials only and so costs the same on every store), and
//! reports which of the two the store's own cost rule
//! ([`SliceStore::query_time_batch`]) picks.
//!
//! Run: `cargo run --release -p gss-bench --bin fig11`
//! (`GSS_SCALE` < 1 cuts repetitions and the largest entry counts).

use std::collections::BTreeMap;
use std::time::Instant;

use gss_aggregates::{Max, Median, Sum};
use gss_core::{AggregateFunction, Range, SliceStore, StorePolicy};

fn scale() -> f64 {
    std::env::var("GSS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Repetitions per cell: an odd count (the median is a sample), at
/// least five.
fn reps() -> usize {
    ((301.0 * scale()) as usize).max(5) | 1
}

/// Median latency of `f` over `reps` runs, in nanoseconds.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Builds a slice store with `n` single-tuple slices, its index (if
/// any) built, repaired and ready to be queried. The finger store
/// builds its tree at the first flush after a long range query, so one
/// full-range query goes before the flush.
fn slice_store<A: AggregateFunction<Input = i64>>(
    f: A,
    policy: StorePolicy,
    n: usize,
) -> SliceStore<A> {
    let mut st = SliceStore::new(f, policy, false);
    for i in 0..n as i64 {
        st.append_slice(Range::new(i * 10, (i + 1) * 10));
        st.add_in_order(i * 10, i % 97);
    }
    st.query_time(Range::new(0, n as i64 * 10));
    st.flush_eager_repairs();
    st
}

fn bench_function<A: AggregateFunction<Input = i64> + Copy>(
    f: A,
    label: &str,
    out: &mut gss_bench::Output,
) {
    let reps = reps();
    let largest = (100_000.0 * scale()).max(1_000.0) as usize;
    for n in [10usize, 100, 1_000, 10_000, 100_000].into_iter().filter(|&n| n <= largest) {
        // Lazy slicing: combine n slice partials on demand.
        let lazy = slice_store(f, StorePolicy::Lazy, n);
        let full = Range::new(0, n as i64 * 10);
        let t_lazy = time_ns(reps, || f.lower(&lazy.query_time(full).unwrap()));

        // Eager slicing: FlatFAT over slices, O(log n) combines.
        let eager = slice_store(f, StorePolicy::Eager, n);
        let t_eager = time_ns(reps, || f.lower(&eager.query_time(full).unwrap()));

        // Finger-tree slicing: a finger B-tree over slices, O(log n).
        let finger = slice_store(f, StorePolicy::FingerTree, n);
        let t_finger = time_ns(reps, || f.lower(&finger.query_time(full).unwrap()));

        // Buckets: the aggregate is precomputed; output is one map lookup
        // plus lower().
        let mut buckets: BTreeMap<i64, A::Partial> = BTreeMap::new();
        let mut acc = f.lift(&0);
        for i in 1..n as i64 {
            acc = f.combine(acc, &f.lift(&(i % 97)));
        }
        buckets.insert(0, acc);
        let t_buckets = time_ns(reps, || f.lower(buckets.get(&0).unwrap()));

        // Tuple buffer: fold n raw tuples.
        let tuples: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
        let t_buffer = time_ns(reps, || f.lower(&f.lift_all(tuples.iter()).unwrap()));

        // Aggregate tree over tuples: FlatFAT with n leaves.
        let mut tree = gss_core::FlatFat::with_capacity(f, n);
        for i in 0..n as i64 {
            tree.push(Some(f.lift(&(i % 97))));
        }
        let t_tree = time_ns(reps, || f.lower(&tree.query(0, n).unwrap()));

        for (tech, ns) in [
            ("Lazy Slicing", t_lazy),
            ("Eager Slicing", t_eager),
            ("Finger-Tree Slicing", t_finger),
            ("Buckets", t_buckets),
            ("Tuple Buffer", t_buffer),
            ("Aggregate Tree", t_tree),
        ] {
            out.row(&[label.to_string(), tech.to_string(), n.to_string(), format!("{ns:.0}")]);
        }
    }
}

/// The windows of one watermark's sweep over `n` slices of width 10:
/// `count` sliding windows listed query by query, longest query first —
/// query `q` (50 down to 1) spans `q * n / 50` slices and contributes
/// the ten windows ending on the last ten slice edges.
fn sweep_windows(n: usize, count: usize) -> Vec<((), Range)> {
    let n = n as i64;
    (0..count as i64)
        .map(|i| {
            let (q, k) = (50 - i / 10, 9 - i % 10);
            let end = (n - k) * 10;
            ((), Range::new((end - q * (n / 50) * 10).max(0), end))
        })
        .collect()
}

/// Windows per sweep: per-window queries on each store against the
/// shared scan, in ns per window.
fn bench_sweeps(out: &mut gss_bench::Output) {
    let reps = reps();
    for n in [600usize, 3_000] {
        let stores = [
            ("per-window lazy", slice_store(Max, StorePolicy::Lazy, n)),
            ("per-window eager", slice_store(Max, StorePolicy::Eager, n)),
            ("per-window finger", slice_store(Max, StorePolicy::FingerTree, n)),
        ];
        for count in [1usize, 10, 100, 500] {
            let windows = sweep_windows(n, count);
            let mut row = |technique: &str, sweep_ns: f64, rule: &str| {
                out.row(&[
                    n.to_string(),
                    count.to_string(),
                    technique.to_string(),
                    format!("{:.1}", sweep_ns / count as f64),
                    rule.to_string(),
                ]);
            };
            let mut sink = 0i64;
            for (name, st) in &stores {
                let ns = time_ns(reps, || st.query_time_each(&windows, |_, _, p| sink ^= p));
                // What the store's own rule does with this sweep.
                let scanned = st.query_time_batch(&windows, |_, _, p| sink ^= p);
                row(name, ns, if scanned > 0 { "rule: scan" } else { "rule: per window" });
            }
            let lazy = &stores[0].1;
            let ns = time_ns(reps, || lazy.shared_scan(&windows, |_, _, p| sink ^= p));
            row("shared scan", ns, "");
            let finger = &stores[2].1;
            let ns = time_ns(reps, || finger.query_time_batch(&windows, |_, _, p| sink ^= p));
            row("batch call (finger)", ns, "");
            std::hint::black_box(sink);
        }
    }
}

fn main() {
    let mut out = Output::new("fig11", &["aggregation", "technique", "entries", "latency_ns"]);
    out.print_header();
    bench_function(Sum, "sum", &mut out);
    bench_function(Median, "median", &mut out);
    out.finish();

    let mut out = Output::new(
        "fig11_sweep",
        &["slices", "windows_per_sweep", "technique", "ns_per_window", "cost_rule"],
    );
    out.print_header();
    bench_sweeps(&mut out);
    out.finish();
}

use gss_bench::Output;
