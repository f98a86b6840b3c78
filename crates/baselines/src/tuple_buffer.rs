//! Tuple buffer baseline (paper Section 3.1, Table 1 row 1).
//!
//! A sorted ring buffer of raw tuples with **no aggregate sharing**: every
//! window is computed independently by scanning its tuple range. In-order
//! tuples append at the tail; out-of-order tuples require a memory-copying
//! insert in the middle of the buffer — the costs the paper's Figures 9
//! and 12 attribute to this technique.

use std::collections::VecDeque;

use gss_core::{
    AggregateFunction, ContextEdges, Count, HeapSize, Measure, Range, StreamOrder, Time,
    WindowAggregator, WindowFunction, WindowResult, TIME_MIN,
};

use crate::common::QuerySet;

/// Window aggregation over a sorted tuple ring buffer.
pub struct TupleBuffer<A: AggregateFunction> {
    f: A,
    order: StreamOrder,
    allowed_lateness: Time,
    queries: QuerySet,
    /// Tuples sorted by timestamp (stable for ties).
    buffer: VecDeque<(Time, A::Input)>,
    /// Count-measure offset of `buffer[0]`.
    evicted: Count,
    watermark: Time,
    max_ts: Time,
    first_ts: Time,
    scratch: ContextEdges,
}

impl<A: AggregateFunction> TupleBuffer<A> {
    pub fn new(f: A, order: StreamOrder, allowed_lateness: Time) -> Self {
        TupleBuffer {
            f,
            order,
            allowed_lateness,
            queries: QuerySet::new(),
            buffer: VecDeque::new(),
            evicted: 0,
            watermark: TIME_MIN,
            max_ts: TIME_MIN,
            first_ts: TIME_MIN,
            scratch: ContextEdges::new(),
        }
    }

    pub fn add_query(&mut self, w: Box<dyn WindowFunction>) -> gss_core::QueryId {
        self.queries.add(w)
    }

    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Aggregates tuples in `[range.start, range.end)` by a full scan —
    /// the repeated computation that stream slicing avoids.
    fn aggregate_time(&self, range: Range) -> Option<A::Partial> {
        let l = self.buffer.partition_point(|(t, _)| *t < range.start);
        let r = self.buffer.partition_point(|(t, _)| *t < range.end);
        self.f.lift_all(self.buffer.iter().skip(l).take(r - l).map(|(_, v)| v))
    }

    /// Aggregates tuples at absolute counts `[c1, c2)`.
    fn aggregate_count(&self, c1: Count, c2: Count) -> Option<A::Partial> {
        let l = c1.saturating_sub(self.evicted) as usize;
        let r = (c2.saturating_sub(self.evicted) as usize).min(self.buffer.len());
        if l >= r {
            return None;
        }
        self.f.lift_all(self.buffer.iter().skip(l).take(r - l).map(|(_, v)| v))
    }

    fn emit(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        let count_wm = if self.queries.has_count_measure() {
            if self.order.is_in_order() {
                self.evicted + self.buffer.len() as Count
            } else {
                self.evicted + self.buffer.partition_point(|(t, _)| *t <= wm) as Count
            }
        } else {
            0
        };
        let mut windows: Vec<(gss_core::QueryId, Measure, Range)> = Vec::new();
        self.queries
            .trigger(wm, count_wm, self.first_ts, self.max_ts, |id, m, r| windows.push((id, m, r)));
        for (id, m, r) in windows {
            let p = match m {
                Measure::Time => self.aggregate_time(r),
                Measure::Count => self.aggregate_count(r.start as Count, r.end as Count),
            };
            if let Some(p) = p {
                out.push(WindowResult::new(id, m, r, self.f.lower(&p)));
            }
        }
        self.evict(wm);
    }

    fn emit_updates(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        let wm = self.watermark;
        let count_pos = self.evicted + self.buffer.partition_point(|(t, _)| *t <= ts) as Count - 1;
        let count_wm = self.evicted + self.buffer.partition_point(|(t, _)| *t <= wm) as Count;
        let mut windows: Vec<(gss_core::QueryId, Measure, Range)> = Vec::new();
        self.queries.containing(ts, count_pos, |id, m, r| windows.push((id, m, r)));
        for (id, m, r) in windows {
            let (p, fresh) = match m {
                Measure::Time => (self.aggregate_time(r), r.end <= wm),
                Measure::Count => (
                    self.aggregate_count(r.start as Count, r.end as Count),
                    (r.end as Count) <= count_wm,
                ),
            };
            if !fresh {
                continue;
            }
            if let Some(p) = p {
                out.push(WindowResult::update(id, m, r, self.f.lower(&p)));
            }
        }
    }

    fn evict(&mut self, wm: Time) {
        let lateness = if self.order.is_in_order() { 0 } else { self.allowed_lateness };
        let mut boundary =
            wm.saturating_sub(lateness).saturating_sub(self.queries.max_time_extent());
        for q in self.queries.iter() {
            if let Some(p) = q.window.earliest_pending_start() {
                boundary = boundary.min(p);
            }
        }
        let mut k = self.buffer.partition_point(|(t, _)| *t < boundary);
        if self.queries.has_count_measure() {
            let keep = self.queries.max_count_extent() as usize;
            k = k.min(self.buffer.len().saturating_sub(keep));
        }
        self.buffer.drain(..k);
        self.evicted += k as Count;
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for TupleBuffer<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        // Track the minimum event time (not the first arrival): stragglers
        // older than the first arrival still anchor the trigger sweep.
        self.first_ts = if self.first_ts == TIME_MIN { ts } else { self.first_ts.min(ts) };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.queries.notify(ts, &mut scratch);
        self.scratch = scratch;
        if ts >= self.max_ts {
            self.buffer.push_back((ts, value));
            self.max_ts = ts;
            if self.order.is_in_order() {
                self.watermark = ts;
                self.emit(ts, out);
            }
        } else {
            if self.watermark != TIME_MIN
                && ts < self.watermark.saturating_sub(self.allowed_lateness)
            {
                return; // dropped: too late
            }
            // The costly path: shift the tail to make room (sorted insert).
            let pos = self.buffer.partition_point(|(t, _)| *t <= ts);
            self.buffer.insert(pos, (ts, value));
            if self.watermark != TIME_MIN && ts <= self.watermark {
                self.emit_updates(ts, out);
            }
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
        std::mem::size_of::<Self>() + self.buffer.heap_bytes()
    }

    fn name(&self) -> &'static str {
        "Tuple Buffer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::{Concat, SumI64};
    use gss_windows::{CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow};

    #[test]
    fn tumbling_in_order() {
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::InOrder, 0);
        tb.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        for ts in [1, 5, 9, 11, 15, 21] {
            tb.process(ts, ts, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 15);
        assert_eq!(out[1].value, 26);
    }

    #[test]
    fn sliding_matches_scan_semantics() {
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::InOrder, 0);
        tb.add_query(Box::new(SlidingWindow::new(10, 4)));
        let mut out = Vec::new();
        for i in 0..50 {
            tb.process(i, 1, &mut out);
        }
        for r in &out {
            assert_eq!(r.value, r.range.len().min(r.range.end).max(0), "window {}", r.range);
        }
    }

    #[test]
    fn ooo_insert_and_update() {
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::OutOfOrder, 100);
        tb.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        tb.process(5, 5, &mut out);
        tb.process(15, 15, &mut out);
        tb.on_watermark(10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 5);
        out.clear();
        tb.process(7, 7, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_update);
        assert_eq!(out[0].value, 12);
    }

    #[test]
    fn non_commutative_scan_preserves_order() {
        let mut tb = TupleBuffer::new(Concat, StreamOrder::OutOfOrder, 1000);
        tb.add_query(Box::new(TumblingWindow::new(100)));
        let mut out = Vec::new();
        tb.process(10, 1, &mut out);
        tb.process(50, 5, &mut out);
        tb.process(30, 3, &mut out);
        tb.on_watermark(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, vec![1, 3, 5]);
    }

    #[test]
    fn count_windows_over_buffer() {
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::InOrder, 0);
        tb.add_query(Box::new(CountTumblingWindow::new(3)));
        let mut out = Vec::new();
        for i in 0..10i64 {
            tb.process(i * 2, i, &mut out);
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].value, 1 + 2);
        assert_eq!(out[1].value, 3 + 4 + 5);
        assert_eq!(out[2].value, 6 + 7 + 8);
    }

    #[test]
    fn sessions_supported_via_window_function() {
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::InOrder, 0);
        tb.add_query(Box::new(SessionWindow::new(10)));
        let mut out = Vec::new();
        for (ts, v) in [(0, 1), (4, 2), (30, 5), (60, 9)] {
            tb.process(ts, v, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].range, Range::new(0, 14));
        assert_eq!(out[0].value, 3);
        assert_eq!(out[1].range, Range::new(30, 40));
        assert_eq!(out[1].value, 5);
    }

    #[test]
    fn eviction_bounds_buffer() {
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::InOrder, 0);
        tb.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        for i in 0..10_000 {
            tb.process(i, 1, &mut out);
        }
        assert!(tb.len() < 50, "buffer must be evicted: {}", tb.len());
    }

    #[test]
    fn memory_grows_with_tuples() {
        let mut tb = TupleBuffer::new(SumI64, StreamOrder::OutOfOrder, 1_000_000);
        tb.add_query(Box::new(TumblingWindow::new(1_000_000)));
        let m0 = tb.memory_bytes();
        let mut out = Vec::new();
        for i in 0..1000 {
            tb.process(i, 1, &mut out);
        }
        assert!(tb.memory_bytes() > m0 + 1000 * 8);
    }
}
