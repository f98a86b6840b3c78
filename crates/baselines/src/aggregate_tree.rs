//! Aggregate tree baseline: FlatFAT over individual tuples (paper Section
//! 3.2, Table 1 row 2).
//!
//! Leaves are lifted tuples, inner nodes combine children, so final window
//! aggregates need only `O(log n)` combine steps — low latency. The price:
//! every in-order tuple updates `log n` tree nodes, and an out-of-order
//! tuple inserts a leaf in the middle, shifting the tail and recomputing
//! inner nodes (`O(n)`) — the "rebalancing" cost the paper measures in
//! Figures 9 and 12.

use gss_core::{AggregateFunction, FlatFat, StreamOrder, Time};

use crate::tuples::{Items, Reader, Sorted, TupleDriver};

/// Window aggregation over a FlatFAT tree of tuples: leaf `i` lifts tuple
/// `i` of the sorted store, which keeps only the times.
pub type AggregateTree<A> = TupleDriver<A, Sorted<A, FlatFat<A>>>;

impl<A: AggregateFunction> AggregateTree<A> {
    pub fn new(f: A, order: StreamOrder, allowed_lateness: Time) -> Self {
        TupleDriver::sorted(f.clone(), FlatFat::new(f), order, allowed_lateness)
    }
}

impl<A: AggregateFunction> Reader<A> for FlatFat<A> {
    const NAME: &'static str = "Aggregate Tree";
    type Item = ();

    /// An append updates `log n` ancestors; an insert in the middle
    /// shifts the tail and rebuilds the inner nodes.
    fn insert(&mut self, f: &A, at: usize, value: A::Input, append: bool) {
        let lifted = Some(f.lift(&value));
        if append {
            self.push(lifted);
        } else {
            FlatFat::insert(self, at, lifted);
        }
    }

    fn query(&self, _: &A, _: &Items<()>, l: usize, r: usize) -> Option<A::Partial> {
        FlatFat::query(self, l, r)
    }

    fn remove_prefix(&mut self, k: usize) {
        FlatFat::remove_prefix(self, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::{Concat, SumI64};
    use gss_core::WindowAggregator;
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
