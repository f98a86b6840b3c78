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
    AggregateFunction, ContextEdges, Count, HeapSize, Measure, QueryId, Range, StreamOrder, Time,
    WindowAggregator, WindowFunction, WindowResult, TIME_MIN,
};

use crate::common::QuerySet;

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

    fn add(&mut self, f: &A, ts: Time, value: &A::Input, in_order: bool) {
        if let Some(tuples) = &mut self.tuples {
            let pos = tuples.partition_point(|(t, _)| *t <= ts);
            tuples.insert(pos, (ts, value.clone()));
            if !in_order && !f.properties().commutative {
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
        self.partial.as_ref().map_or(0, |p| p.heap_bytes())
            + self.tuples.as_ref().map_or(0, |t| t.heap_bytes())
    }
}

/// Window aggregation with one bucket per window.
pub struct Buckets<A: AggregateFunction> {
    f: A,
    mode: BucketMode,
    order: StreamOrder,
    allowed_lateness: Time,
    queries: QuerySet,
    /// Per query id: window start -> bucket (starts are unique per query;
    /// session buckets merge).
    buckets: BTreeMap<QueryId, BTreeMap<Time, Bucket<A>>>,
    watermark: Time,
    max_ts: Time,
    first_ts: Time,
    total_count: Count,
    scratch: ContextEdges,
}

impl<A: AggregateFunction> Buckets<A> {
    pub fn new(f: A, mode: BucketMode, order: StreamOrder, allowed_lateness: Time) -> Self {
        Buckets {
            f,
            mode,
            order,
            allowed_lateness,
            queries: QuerySet::new(),
            buckets: BTreeMap::new(),
            watermark: TIME_MIN,
            max_ts: TIME_MIN,
            first_ts: TIME_MIN,
            total_count: 0,
            scratch: ContextEdges::new(),
        }
    }

    /// Registers a query.
    ///
    /// Count-measure windows use **arrival counts** (the Flink semantic):
    /// a bucket-per-window structure cannot repair the count shift that an
    /// out-of-order tuple causes under event-time counting (paper Figure
    /// 6), so late tuples simply take the next arrival position. Event-time
    /// count semantics require slicing or a tuple buffer.
    pub fn add_query(&mut self, w: Box<dyn WindowFunction>) -> QueryId {
        let id = self.queries.add(w);
        self.buckets.insert(id, BTreeMap::new());
        id
    }

    /// Total number of live buckets.
    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.buckets.values().map(|m| m.len()).sum()
    }

    /// Assigns the tuple to every containing window of every query. For
    /// merging window types (sessions), existing buckets covered by the
    /// post-merge window are first absorbed into one — the equivalent of
    /// Flink's `MergingWindowAssigner`.
    fn assign(&mut self, ts: Time, value: &A::Input, in_order: bool) {
        let count_pos = self.total_count;
        let f = &self.f;
        let mode = self.mode;
        let buckets = &mut self.buckets;
        let mut ranges: Vec<Range> = Vec::new();
        for q in self.queries.iter() {
            ranges.clear();
            match q.window.measure() {
                Measure::Time => q.window.windows_containing(ts, &mut |r| ranges.push(r)),
                Measure::Count => {
                    q.window.windows_containing(count_pos as Time, &mut |r| ranges.push(r))
                }
            }
            let Some(per_query) = buckets.get_mut(&q.id) else {
                continue;
            };
            let merging = q.window.is_session();
            for &range in &ranges {
                if merging {
                    // Absorb every pre-merge bucket covered by the merged
                    // window into a single bucket at the merged start.
                    let absorbed: Vec<Time> = per_query
                        .range(range.start..range.end)
                        .filter(|(s, b)| **s != range.start || b.end != range.end)
                        .map(|(s, _)| *s)
                        .collect();
                    if !absorbed.is_empty() {
                        let mut merged = Bucket::new(range.end, mode);
                        let mut partial: Option<A::Partial> = None;
                        let mut tuples: Vec<(Time, A::Input)> = Vec::new();
                        let mut sources = absorbed;
                        if !sources.contains(&range.start) && per_query.contains_key(&range.start) {
                            sources.push(range.start);
                            sources.sort_unstable();
                        }
                        for s in sources {
                            if let Some(b) = per_query.remove(&s) {
                                partial = f.combine_opt(partial, b.partial.as_ref());
                                if let Some(mut t) = b.tuples {
                                    tuples.append(&mut t);
                                }
                            }
                        }
                        if let Some(t) = &mut merged.tuples {
                            tuples.sort_by_key(|(t, _)| *t);
                            *t = tuples;
                            if !f.properties().commutative {
                                partial = f.lift_all(t.iter().map(|(_, v)| v));
                            }
                        }
                        merged.partial = partial;
                        per_query.insert(range.start, merged);
                    }
                }
                let bucket =
                    per_query.entry(range.start).or_insert_with(|| Bucket::new(range.end, mode));
                bucket.end = bucket.end.max(range.end);
                bucket.add(f, ts, value, in_order);
            }
        }
    }

    fn emit(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        // Arrival counts are final the moment a tuple arrives, regardless
        // of stream order.
        let count_wm = self.total_count;
        let mut windows: Vec<(QueryId, Measure, Range)> = Vec::new();
        self.queries
            .trigger(wm, count_wm, self.first_ts, self.max_ts, |id, m, r| windows.push((id, m, r)));
        for (id, m, r) in windows {
            let key = match m {
                Measure::Time => r.start,
                Measure::Count => r.start,
            };
            if let Some(b) = self.buckets.get(&id).and_then(|per| per.get(&key)) {
                if let Some(p) = &b.partial {
                    out.push(WindowResult::new(id, m, r, self.f.lower(p)));
                }
            }
        }
        self.evict(wm);
    }

    fn emit_updates(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        let wm = self.watermark;
        let mut windows: Vec<(QueryId, Measure, Range)> = Vec::new();
        self.queries.containing(ts, 0, |id, m, r| {
            if m == Measure::Time && r.end <= wm {
                windows.push((id, m, r));
            }
        });
        for (id, m, r) in windows {
            if let Some(b) = self.buckets.get(&id).and_then(|per| per.get(&r.start)) {
                if let Some(p) = &b.partial {
                    out.push(WindowResult::update(id, m, r, self.f.lower(p)));
                }
            }
        }
    }

    fn evict(&mut self, wm: Time) {
        let lateness = if self.order.is_in_order() { 0 } else { self.allowed_lateness };
        let horizon = wm.saturating_sub(lateness);
        // Count-measure buckets live on the count axis: evict only those
        // whose (count) end has been reached and emitted.
        let count_horizon = self.total_count as Time;
        let buckets = &mut self.buckets;
        for q in self.queries.iter() {
            let Some(per_query) = buckets.get_mut(&q.id) else {
                continue;
            };
            match q.window.measure() {
                Measure::Time => per_query.retain(|_, b| b.end > horizon),
                Measure::Count => per_query.retain(|_, b| b.end > count_horizon),
            }
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for Buckets<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        // Track the minimum event time (not the first arrival): stragglers
        // older than the first arrival still anchor the trigger sweep.
        self.first_ts = if self.first_ts == TIME_MIN { ts } else { self.first_ts.min(ts) };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.queries.notify(ts, &mut scratch);
        self.scratch = scratch;
        let in_order = ts >= self.max_ts;
        if !in_order
            && self.watermark != TIME_MIN
            && ts < self.watermark.saturating_sub(self.allowed_lateness)
        {
            return; // dropped: too late
        }
        self.assign(ts, &value, in_order);
        self.total_count += 1;
        if in_order {
            self.max_ts = ts;
            if self.order.is_in_order() {
                self.watermark = ts;
                self.emit(ts, out);
            }
        } else if self.watermark != TIME_MIN && ts <= self.watermark {
            self.emit_updates(ts, out);
        }
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        self.emit(wm, out);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .buckets
                .values()
                .flat_map(|per| per.values())
                .map(|b| {
                    std::mem::size_of::<Bucket<A>>()
                        + 2 * std::mem::size_of::<Time>()
                        + b.heap_bytes()
                })
                .sum::<usize>()
    }

    fn name(&self) -> &'static str {
        match self.mode {
            BucketMode::Aggregate => "Buckets (aggregate)",
            BucketMode::Tuple => "Buckets (tuples)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;
    use gss_windows::{CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow};

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
