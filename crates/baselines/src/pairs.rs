//! Pairs baseline (Krishnamurthy et al. \[28\], paper Sections 3.4 / 6.2.1).
//!
//! The original on-the-fly slicing technique: for periodic windows, the
//! stream is cut into two alternating slice lengths per query — `l mod l_s`
//! and `l_s − (l mod l_s)` — which is exactly the union of all window start
//! and end edges. Pairs is limited to **in-order streams** and **periodic
//! (tumbling/sliding) time windows**; those are the assumptions general
//! stream slicing removes.

use gss_core::{AggregateFunction, Measure, QueryId, QuerySet, Time, TIME_MAX};
use gss_windows::SlidingWindow;

use crate::in_order::InOrder;
use crate::slicer::{Cut, Linear, Slices};

/// Specialized slicing for periodic in-order window aggregation.
pub type Pairs<A> = InOrder<A, Slices<A, StartsAndEnds>>;

/// Pairs' cut rule: every window start and end edge.
pub struct StartsAndEnds;

impl<A: AggregateFunction> Cut<A> for StartsAndEnds {
    const NAME: &'static str = "Pairs";
    type Partials = Linear<A>;

    fn next_cut(&self, queries: &QuerySet, start: Time) -> Time {
        queries.next_edge(Measure::Time, start, false).unwrap_or(TIME_MAX)
    }
}

impl<A: AggregateFunction> Pairs<A> {
    pub fn new(f: A) -> Self {
        InOrder::slicing(f, StartsAndEnds)
    }

    /// Registers a periodic window (`length`, `slide`). Tumbling windows
    /// use `slide == length`.
    pub fn add_query(&mut self, length: i64, slide: i64) -> QueryId {
        self.queries.add(Box::new(SlidingWindow::new(length, slide)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;
    use gss_core::WindowAggregator;

    #[test]
    fn tumbling_matches_expected() {
        let mut p = Pairs::new(SumI64);
        p.add_query(10, 10);
        let mut out = Vec::new();
        for ts in [1, 5, 9, 11, 15, 21] {
            p.process(ts, ts, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 15);
        assert_eq!(out[1].value, 26);
    }

    #[test]
    fn sliding_pairs_cut_two_lengths() {
        // l = 10, slide = 4: slice edges at 0,2,4,6,8,10,12,... (starts at
        // multiples of 4, ends at 4k + 10 ≡ 2 mod 4).
        let mut p = Pairs::new(SumI64);
        p.add_query(10, 4);
        let mut out = Vec::new();
        for i in 0..100 {
            p.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
        // Eviction keeps the slice count bounded.
        assert!(p.slice_count() < 12, "slices: {}", p.slice_count());
    }

    #[test]
    fn multi_query_edge_union() {
        let mut p = Pairs::new(SumI64);
        p.add_query(10, 10);
        p.add_query(15, 15);
        let mut out = Vec::new();
        for i in 0..60 {
            p.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
        // Both queries fire.
        assert!(out.iter().any(|r| r.query == 0));
        assert!(out.iter().any(|r| r.query == 1));
    }
}
