//! Aggregate tree baseline: FlatFAT over individual tuples (paper Section
//! 3.2, Table 1 row 2).
//!
//! Leaves are lifted tuples, inner nodes combine children, so final window
//! aggregates need only `O(log n)` combine steps — low latency. The price:
//! every in-order tuple updates `log n` tree nodes, and an out-of-order
//! tuple inserts a leaf in the middle, shifting the tail and recomputing
//! inner nodes (`O(n)`) — the "rebalancing" cost the paper measures in
//! Figures 9 and 12.

use std::collections::VecDeque;

use gss_core::{
    window::admit, AggregateFunction, ContextEdges, Count, FlatFat, HeapSize, Measure, QueryId,
    QuerySet, Range, StreamOrder, Time, WindowAggregator, WindowFunction, WindowResult, WindowRun,
    TIME_MIN,
};

/// Window aggregation over a FlatFAT tree of tuples.
pub struct AggregateTree<A: AggregateFunction> {
    f: A,
    order: StreamOrder,
    allowed_lateness: Time,
    queries: QuerySet,
    /// Leaf `i` = lift(tuple `i`), tuples in event-time order.
    tree: FlatFat<A>,
    /// Leaf timestamps, parallel to the tree's leaves.
    times: VecDeque<Time>,
    evicted: Count,
    watermark: Time,
    max_ts: Time,
    first_ts: Time,
    scratch: ContextEdges,
}

impl<A: AggregateFunction> AggregateTree<A> {
    pub fn new(f: A, order: StreamOrder, allowed_lateness: Time) -> Self {
        AggregateTree {
            tree: FlatFat::new(f.clone()),
            f,
            order,
            allowed_lateness: order.lateness(allowed_lateness),
            queries: QuerySet::default(),
            times: VecDeque::new(),
            evicted: 0,
            watermark: TIME_MIN,
            max_ts: TIME_MIN,
            first_ts: TIME_MIN,
            scratch: ContextEdges::new(),
        }
    }

    pub fn add_query(&mut self, w: Box<dyn WindowFunction>) -> QueryId {
        self.queries.add(w)
    }

    pub fn len(&self) -> usize {
        self.times.len()
    }

    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    fn aggregate_time(&self, range: Range) -> Option<A::Partial> {
        let l = self.times.partition_point(|t| *t < range.start);
        let r = self.times.partition_point(|t| *t < range.end);
        if l >= r {
            None
        } else {
            self.tree.query(l, r)
        }
    }

    fn aggregate_count(&self, c1: Count, c2: Count) -> Option<A::Partial> {
        let l = c1.saturating_sub(self.evicted) as usize;
        let r = (c2.saturating_sub(self.evicted) as usize).min(self.times.len());
        if l >= r {
            None
        } else {
            self.tree.query(l, r)
        }
    }

    /// Emits the windows due at `wm`, or with `late = Some(ts)` the fired
    /// windows a late tuple at `ts` changes, as updates.
    fn emit(&mut self, wm: Time, late: Option<Time>, out: &mut Vec<WindowResult<A::Output>>) {
        let at_or_before = |t| self.evicted + self.times.partition_point(|u| *u <= t) as Count;
        let counted = self.queries.has(Measure::Count);
        let mut windows: Vec<(QueryId, Measure, Range)> = Vec::new();
        let push = |id, m, run: WindowRun| windows.extend(run.windows().map(|r| (id, m, r)));
        if let Some(ts) = late {
            let counts = counted.then(|| (at_or_before(ts) - 1, at_or_before(wm)));
            self.queries.updates(ts, wm, counts, push);
        } else {
            let count_wm = match (counted, self.order.is_in_order()) {
                (false, _) => 0,
                (true, true) => self.evicted + self.times.len() as Count,
                (true, false) => at_or_before(wm),
            };
            self.queries.trigger(wm, count_wm, self.max_ts, Some(self.first_ts), push);
        }
        for (query, measure, range) in windows {
            let p = match measure {
                Measure::Time => self.aggregate_time(range),
                Measure::Count => self.aggregate_count(range.start as Count, range.end as Count),
            };
            if let Some(p) = p {
                let (value, is_update) = (self.f.lower(&p), late.is_some());
                out.push(WindowResult { query, measure, range, value, is_update });
            }
        }
        if late.is_none() {
            self.evict(wm);
        }
    }

    fn evict(&mut self, wm: Time) {
        let horizon = self.queries.horizon(wm, self.allowed_lateness);
        let mut k = self.times.partition_point(|t| *t < horizon);
        if self.queries.has(Measure::Count) {
            let keep = self.queries.max_extent(Measure::Count) as usize;
            k = k.min(self.times.len().saturating_sub(keep));
        }
        if k > 0 {
            self.times.drain(..k);
            self.tree.remove_prefix(k);
            self.evicted += k as Count;
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for AggregateTree<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        let ahead = self.max_ts.max(self.queries.fired_to());
        let admitted = admit(self.order, ts, ahead, self.watermark, self.allowed_lateness);
        let Some(revises) = admitted.revises() else { return };
        // Track the minimum event time (not the first arrival): stragglers
        // older than the first arrival still anchor the trigger sweep.
        self.first_ts = if self.first_ts == TIME_MIN { ts } else { self.first_ts.min(ts) };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.queries.notify(ts, &mut scratch);
        self.scratch = scratch;
        let lifted = self.f.lift(&value);
        if ts >= self.max_ts {
            // In-order append: O(log n) ancestor updates.
            self.times.push_back(ts);
            self.tree.push(Some(lifted));
            self.max_ts = ts;
            if self.order.is_in_order() {
                self.watermark = ts;
                self.emit(ts, None, out);
            }
        } else {
            // The expensive path: leaf insert in the middle shifts the tail
            // and rebuilds inner nodes.
            let pos = self.times.partition_point(|t| *t <= ts);
            self.times.insert(pos, ts);
            self.tree.insert(pos, Some(lifted));
        }
        if revises {
            self.emit(self.watermark, Some(ts), out);
        }
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        self.emit(wm, None, out);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.tree.heap_bytes() + self.times.heap_bytes()
    }

    fn name(&self) -> &'static str {
        "Aggregate Tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::{Concat, SumI64};
    use gss_windows::{SlidingWindow, TumblingWindow};

    #[test]
    fn tumbling_in_order() {
        let mut at = AggregateTree::new(SumI64, StreamOrder::InOrder, 0);
        at.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        for ts in [1, 5, 9, 11, 15, 21] {
            at.process(ts, ts, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 15);
        assert_eq!(out[1].value, 26);
    }

    #[test]
    fn sliding_overlap_shares_tree() {
        let mut at = AggregateTree::new(SumI64, StreamOrder::InOrder, 0);
        at.add_query(Box::new(SlidingWindow::new(10, 5)));
        let mut out = Vec::new();
        for i in 0..40 {
            at.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
    }

    #[test]
    fn ooo_leaf_insert_keeps_order() {
        let mut at = AggregateTree::new(Concat, StreamOrder::OutOfOrder, 1000);
        at.add_query(Box::new(TumblingWindow::new(100)));
        let mut out = Vec::new();
        at.process(10, 1, &mut out);
        at.process(50, 5, &mut out);
        at.process(30, 3, &mut out);
        at.process(70, 7, &mut out);
        at.on_watermark(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, vec![1, 3, 5, 7]);
    }

    #[test]
    fn late_update_emitted() {
        let mut at = AggregateTree::new(SumI64, StreamOrder::OutOfOrder, 100);
        at.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        at.process(5, 5, &mut out);
        at.process(15, 15, &mut out);
        at.on_watermark(10, &mut out);
        out.clear();
        at.process(7, 7, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_update);
        assert_eq!(out[0].value, 12);
    }

    #[test]
    fn eviction_bounds_tree() {
        let mut at = AggregateTree::new(SumI64, StreamOrder::InOrder, 0);
        at.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        for i in 0..5_000 {
            at.process(i, 1, &mut out);
        }
        assert!(at.len() < 50, "tree must be evicted: {}", at.len());
    }

    #[test]
    fn agrees_with_tuple_buffer_on_random_ooo_stream() {
        use crate::tuple_buffer::TupleBuffer;
        let mut tuples: Vec<(i64, i64)> = (0..400).map(|i| (i, (i * 17) % 23)).collect();
        for i in (0..tuples.len()).step_by(3) {
            let j = (i + (i % 11)).min(tuples.len() - 1);
            tuples.swap(i, j);
        }
        let mut at = AggregateTree::new(SumI64, StreamOrder::OutOfOrder, 10_000);
        at.add_query(Box::new(SlidingWindow::new(20, 5)));
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::OutOfOrder, 10_000);
        tb.add_query(Box::new(SlidingWindow::new(20, 5)));
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for &(ts, v) in &tuples {
            at.process(ts, v, &mut o1);
            tb.process(ts, v, &mut o2);
        }
        at.on_watermark(500, &mut o1);
        tb.on_watermark(500, &mut o2);
        let f1: std::collections::BTreeMap<(i64, i64), i64> =
            o1.iter().map(|r| ((r.range.start, r.range.end), r.value)).collect();
        let f2: std::collections::BTreeMap<(i64, i64), i64> =
            o2.iter().map(|r| ((r.range.start, r.range.end), r.value)).collect();
        assert_eq!(f1, f2);
    }
}
