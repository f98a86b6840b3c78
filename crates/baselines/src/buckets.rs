//! Bucket-per-window baseline — the WID approach of Li et al. [31–33]
//! adopted by Flink and friends (paper Section 3.3, Table 1 rows 3–4).
//!
//! Every window is an independent bucket; tuples are assigned to **all**
//! buckets whose window contains their event time, with no aggregate
//! sharing. A tuple overlapping `k` concurrent windows costs `k` ⊕ steps —
//! the linear-in-windows slowdown of Figures 8 and 9. In exchange, final
//! aggregates are fully precomputed per bucket, giving the nanosecond
//! output latencies of Figure 11.
//!
//! Two variants mirror Table 1: [`BucketMode::Aggregate`] stores one
//! partial per bucket; [`BucketMode::Tuple`] additionally keeps the
//! bucket's tuples (needed for holistic/non-commutative out-of-order
//! workloads), replicating tuples across overlapping buckets.

use std::collections::BTreeMap;

use gss_core::{
    window::beyond_lateness, AggregateFunction, Count, HeapSize, Measure, QueryId, QuerySet, Range,
    StreamOrder, Time,
};

use crate::tuples::{TupleDriver, TupleStore};

/// Bucket storage mode (Table 1 rows 3 vs. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketMode {
    /// One partial aggregate per bucket, no tuples.
    Aggregate,
    /// Tuples are kept per bucket (replicated across overlapping windows).
    Tuple,
}

struct Bucket<A: AggregateFunction> {
    end: Time,
    partial: Option<A::Partial>,
    tuples: Option<Vec<(Time, A::Input)>>,
}

impl<A: AggregateFunction> Bucket<A> {
    fn new(end: Time, mode: BucketMode) -> Self {
        Bucket { end, partial: None, tuples: matches!(mode, BucketMode::Tuple).then(Vec::new) }
    }

    fn add(&mut self, f: &A, ts: Time, value: &A::Input) {
        if let Some(tuples) = &mut self.tuples {
            let pos = tuples.partition_point(|(t, _)| *t <= ts);
            tuples.insert(pos, (ts, value.clone()));
            if pos + 1 < tuples.len() && !f.properties().commutative {
                // Retain aggregation order: recompute from tuples.
                self.partial = f.lift_all(tuples.iter().map(|(_, v)| v));
                return;
            }
        }
        let lifted = f.lift(value);
        self.partial = Some(match self.partial.take() {
            None => lifted,
            Some(p) => f.combine(p, &lifted),
        });
    }
}

impl<A: AggregateFunction> HeapSize for Bucket<A> {
    fn heap_bytes(&self) -> usize {
        self.partial.heap_bytes() + self.tuples.heap_bytes()
    }
}

/// Window aggregation with one bucket per window.
///
/// Count-measure windows use **arrival counts** (the Flink semantic): a
/// bucket-per-window structure cannot repair the count shift that an
/// out-of-order tuple causes under event-time counting (paper Figure 6),
/// so late tuples simply take the next arrival position. Event-time count
/// semantics require slicing or a tuple buffer.
pub type Buckets<A> = TupleDriver<A, BucketStore<A>>;

/// The buckets of every query.
pub struct BucketStore<A: AggregateFunction> {
    mode: BucketMode,
    /// Per query id: window start -> bucket (starts are unique per query;
    /// session buckets merge).
    buckets: BTreeMap<QueryId, BTreeMap<Time, Bucket<A>>>,
}

impl<A: AggregateFunction> Buckets<A> {
    pub fn new(f: A, mode: BucketMode, order: StreamOrder, allowed_lateness: Time) -> Self {
        let store = BucketStore { mode, buckets: BTreeMap::new() };
        TupleDriver::with_store(f, store, order, allowed_lateness)
    }
}

impl<A: AggregateFunction> TupleStore<A> for BucketStore<A> {
    fn name(&self) -> &'static str {
        match self.mode {
            BucketMode::Aggregate => "Buckets (aggregate)",
            BucketMode::Tuple => "Buckets (tuples)",
        }
    }

    fn add_query(&mut self, id: QueryId) {
        self.buckets.insert(id, BTreeMap::new());
    }

    /// Assigns the tuple to every containing window of every query. For
    /// merging window types (sessions), existing buckets covered by the
    /// post-merge window are first absorbed into one — the equivalent of
    /// Flink's `MergingWindowAssigner`.
    fn insert(&mut self, f: &A, queries: &QuerySet, ts: Time, value: A::Input, count: Count) {
        let mode = self.mode;
        let mut ranges: Vec<Range> = Vec::new();
        for q in queries.iter() {
            ranges.clear();
            match q.measure() {
                Measure::Time => q.window.windows_containing(ts, &mut |r| ranges.push(r)),
                // No count window starts before the first tuple's count 0.
                Measure::Count => q.window.windows_containing(count as Time, &mut |r| {
                    if r.start >= 0 {
                        ranges.push(r)
                    }
                }),
            }
            let Some(per_query) = self.buckets.get_mut(&q.id) else { continue };
            let merging = q.window.is_session();
            for &range in &ranges {
                // A session bucket absorbs every bucket its merged window
                // covers.
                let covered: Vec<Time> = if merging {
                    per_query.range(range.start..range.end).map(|(s, _)| *s).collect()
                } else {
                    Vec::new()
                };
                let exact = covered == [range.start] && per_query[&range.start].end == range.end;
                if !covered.is_empty() && !exact {
                    let mut merged = Bucket::new(range.end, mode);
                    let mut tuples: Vec<(Time, A::Input)> = Vec::new();
                    for b in covered.iter().filter_map(|s| per_query.remove(s)) {
                        merged.partial = f.combine_opt(merged.partial, b.partial.as_ref());
                        tuples.extend(b.tuples.into_iter().flatten());
                    }
                    if let Some(t) = &mut merged.tuples {
                        tuples.sort_by_key(|(t, _)| *t);
                        *t = tuples;
                        if !f.properties().commutative {
                            merged.partial = f.lift_all(t.iter().map(|(_, v)| v));
                        }
                    }
                    per_query.insert(range.start, merged);
                }
                let bucket =
                    per_query.entry(range.start).or_insert_with(|| Bucket::new(range.end, mode));
                bucket.end = bucket.end.max(range.end);
                bucket.add(f, ts, &value);
            }
        }
    }

    fn answer(&self, f: &A, query: QueryId, _: Measure, range: Range) -> Option<A::Output> {
        let bucket = self.buckets.get(&query)?.get(&range.start)?;
        bucket.partial.as_ref().map(|p| f.lower(p))
    }

    /// Count-measure buckets live on the count axis: evicts only those
    /// whose (count) end has been reached and emitted.
    fn evict(&mut self, queries: &QuerySet, wm: Time, lateness: Time, count: Count) {
        for q in queries.iter() {
            let Some(per_query) = self.buckets.get_mut(&q.id) else { continue };
            match q.measure() {
                Measure::Time => per_query.retain(|_, b| !beyond_lateness(b.end - 1, wm, lateness)),
                Measure::Count => per_query.retain(|_, b| b.end > count as Time),
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        let per_bucket = std::mem::size_of::<Bucket<A>>() + 2 * std::mem::size_of::<Time>();
        let buckets = self.buckets.values().flat_map(|per| per.values());
        buckets.map(|b| per_bucket + b.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;
    use gss_core::WindowAggregator;
    use gss_windows::{CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow};

    impl<A: AggregateFunction> Buckets<A> {
        /// Total number of live buckets.
        fn bucket_count(&self) -> usize {
            self.store.buckets.values().map(|m| m.len()).sum()
        }
    }

    fn agg_buckets(order: StreamOrder, lateness: Time) -> Buckets<SumI64> {
        Buckets::new(SumI64, BucketMode::Aggregate, order, lateness)
    }

    #[test]
    fn tumbling_in_order() {
        let mut b = agg_buckets(StreamOrder::InOrder, 0);
        b.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        for ts in [1, 5, 9, 11, 15, 21] {
            b.process(ts, ts, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 15);
        assert_eq!(out[1].value, 26);
    }

    #[test]
    fn sliding_assigns_to_all_overlapping_buckets() {
        let mut b = agg_buckets(StreamOrder::InOrder, 0);
        b.add_query(Box::new(SlidingWindow::new(10, 2)));
        let mut out = Vec::new();
        b.process(9, 1, &mut out);
        // Tuple 9 lies in windows starting at 0, 2, 4, 6, 8: 5 buckets.
        assert_eq!(b.bucket_count(), 5);
    }

    #[test]
    fn sliding_results_match_scan() {
        let mut b = agg_buckets(StreamOrder::InOrder, 0);
        b.add_query(Box::new(SlidingWindow::new(10, 4)));
        let mut out = Vec::new();
        for i in 0..60 {
            b.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
    }

    #[test]
    fn session_buckets_merge() {
        let mut b = agg_buckets(StreamOrder::InOrder, 0);
        b.add_query(Box::new(SessionWindow::new(10)));
        let mut out = Vec::new();
        for (ts, v) in [(0, 1), (5, 2), (40, 5), (60, 9)] {
            b.process(ts, v, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].range, Range::new(0, 15));
        assert_eq!(out[0].value, 3);
        assert_eq!(out[1].range, Range::new(40, 50));
        assert_eq!(out[1].value, 5);
    }

    #[test]
    fn ooo_session_bridging_merges_buckets() {
        let mut b = Buckets::new(SumI64, BucketMode::Aggregate, StreamOrder::OutOfOrder, 1000);
        b.add_query(Box::new(SessionWindow::new(10).with_retention(100_000)));
        let mut out = Vec::new();
        b.process(0, 1, &mut out);
        b.process(15, 2, &mut out);
        assert_eq!(b.bucket_count(), 2);
        // Bridge: 8 is within gap of 0 (8 < 10) and 15 < 8 + 10.
        b.process(8, 4, &mut out);
        assert_eq!(b.bucket_count(), 1);
        b.on_watermark(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].range, Range::new(0, 25));
        assert_eq!(out[0].value, 7);
    }

    #[test]
    fn ooo_update_reemits_bucket() {
        let mut b = Buckets::new(SumI64, BucketMode::Aggregate, StreamOrder::OutOfOrder, 100);
        b.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        b.process(5, 5, &mut out);
        b.process(15, 15, &mut out);
        b.on_watermark(10, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        b.process(7, 7, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_update);
        assert_eq!(out[0].value, 12);
    }

    #[test]
    fn tuple_mode_replicates_tuples() {
        let mut agg = Buckets::new(SumI64, BucketMode::Aggregate, StreamOrder::InOrder, 0);
        let mut tup = Buckets::new(SumI64, BucketMode::Tuple, StreamOrder::InOrder, 0);
        agg.add_query(Box::new(SlidingWindow::new(20, 2)));
        tup.add_query(Box::new(SlidingWindow::new(20, 2)));
        let mut out = Vec::new();
        for i in 0..100 {
            agg.process(i, 1, &mut out);
            tup.process(i, 1, &mut out);
        }
        // Tuple buckets replicate every tuple into ~10 buckets.
        assert!(tup.memory_bytes() > 2 * agg.memory_bytes());
    }

    #[test]
    fn count_windows_in_order() {
        let mut b = agg_buckets(StreamOrder::InOrder, 0);
        b.add_query(Box::new(CountTumblingWindow::new(3)));
        let mut out = Vec::new();
        for i in 0..10i64 {
            b.process(i * 2, i, &mut out);
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].value, 3);
        assert_eq!(out[1].value, 12);
        assert_eq!(out[2].value, 21);
    }

    #[test]
    fn count_windows_on_ooo_use_arrival_counts() {
        let mut b = agg_buckets(StreamOrder::OutOfOrder, 1_000);
        b.add_query(Box::new(CountTumblingWindow::new(3)));
        let mut out = Vec::new();
        // Arrival order defines count positions: 0,20,10 form window 1.
        for (ts, v) in [(0, 1), (20, 2), (10, 4), (30, 8), (40, 16), (50, 32)] {
            b.process(ts, v, &mut out);
        }
        b.on_watermark(60, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 7); // 1 + 2 + 4 by arrival
        assert_eq!(out[1].value, 56);
    }

    #[test]
    fn eviction_drops_expired_buckets() {
        let mut b = agg_buckets(StreamOrder::InOrder, 0);
        b.add_query(Box::new(SlidingWindow::new(10, 2)));
        let mut out = Vec::new();
        for i in 0..10_000 {
            b.process(i, 1, &mut out);
        }
        assert!(b.bucket_count() < 20, "buckets must be evicted: {}", b.bucket_count());
    }
}
