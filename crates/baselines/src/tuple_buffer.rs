//! Tuple buffer baseline (paper Section 3.1, Table 1 row 1).
//!
//! A sorted ring buffer of raw tuples with **no aggregate sharing**: every
//! window is computed independently by scanning its tuple range. In-order
//! tuples append at the tail; out-of-order tuples require a memory-copying
//! insert in the middle of the buffer — the costs the paper's Figures 9
//! and 12 attribute to this technique.

use gss_core::{AggregateFunction, HeapSize, StreamOrder, Time};

use crate::tuples::{Items, Reader, Sorted, TupleDriver};

/// Window aggregation over a sorted tuple ring buffer.
pub type TupleBuffer<A> = TupleDriver<A, Sorted<A, Scan>>;

/// The tuple buffer's reader: it keeps the tuples and scans each window's
/// — the repeated computation that stream slicing avoids.
pub struct Scan;

impl HeapSize for Scan {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl<A: AggregateFunction> TupleBuffer<A> {
    pub fn new(f: A, order: StreamOrder, allowed_lateness: Time) -> Self {
        TupleDriver::sorted(f, Scan, order, allowed_lateness)
    }
}

impl<A: AggregateFunction> Reader<A> for Scan {
    const NAME: &'static str = "Tuple Buffer";
    type Item = A::Input;

    fn insert(&mut self, _: &A, _: usize, value: A::Input, _: bool) -> A::Input {
        value
    }

    fn query(&self, f: &A, items: &Items<A::Input>, l: usize, r: usize) -> Option<A::Partial> {
        f.lift_all(items.iter().skip(l).take(r - l).map(|(_, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::{Concat, SumI64};
    use gss_core::{Range, WindowAggregator};
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
