//! Panes baseline (Li et al., "No pane, no gain" \[30\]).
//!
//! The earliest slicing technique: a sliding window (`l`, `l_s`) is split
//! into uniform *panes* of length `gcd(l, l_s)`; each window aggregates
//! `l / gcd` panes. For multiple queries the pane size is the gcd across
//! all window parameters — which is panes' weakness: unlike Pairs or
//! general slicing, badly-aligned queries force tiny panes (down to one
//! unit), multiplying the final-aggregation work. In-order, periodic time
//! windows only.

use gss_core::{AggregateFunction, QueryId, QuerySet, Time};
use gss_windows::SlidingWindow;

use crate::in_order::InOrder;
use crate::slicer::{Cut, Linear, Slices};

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Uniform-pane slicing for periodic in-order window aggregation.
pub type Panes<A> = InOrder<A, Slices<A, Grid>>;

/// Panes' cut rule: a grid of panes, as long as the gcd over all window
/// lengths and slides.
pub struct Grid {
    pane: i64,
}

impl<A: AggregateFunction> Cut<A> for Grid {
    const NAME: &'static str = "Panes";
    type Partials = Linear<A>;

    /// The next multiple of the pane length: the first pane starts at
    /// the first tuple and ends on the grid.
    fn next_cut(&self, _: &QuerySet, start: Time) -> Time {
        assert!(self.pane > 0, "register queries before data");
        start - start.rem_euclid(self.pane) + self.pane
    }

    /// One pane behind the other techniques' horizon.
    fn horizon(&self, queries: &QuerySet, now: Time) -> Time {
        queries.horizon(now, 0).saturating_sub(self.pane)
    }
}

impl<A: AggregateFunction> Panes<A> {
    pub fn new(f: A) -> Self {
        InOrder::slicing(f, Grid { pane: 0 })
    }

    /// Registers a periodic window; recomputes the global pane size.
    /// Must be called before the first tuple (panes are fixed-size).
    pub fn add_query(&mut self, length: i64, slide: i64) -> QueryId {
        assert!(self.first.is_none(), "Panes queries must be registered before data");
        self.store.cut.pane = gcd(self.store.cut.pane, gcd(length, slide));
        self.queries.add(Box::new(SlidingWindow::new(length, slide)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;
    use gss_core::WindowAggregator;

    impl<A: AggregateFunction> Panes<A> {
        /// The computed pane length.
        fn pane_length(&self) -> i64 {
            self.store.cut.pane
        }
    }

    #[test]
    fn gcd_pane_size() {
        let mut p = Panes::new(SumI64);
        p.add_query(10, 4);
        assert_eq!(p.pane_length(), 2);
        p.add_query(15, 15);
        assert_eq!(p.pane_length(), 1);
    }

    #[test]
    fn tumbling_results_match() {
        let mut p = Panes::new(SumI64);
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
    fn sliding_results_match_scan() {
        let mut p = Panes::new(SumI64);
        p.add_query(10, 4);
        let mut out = Vec::new();
        for i in 0..100 {
            p.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
        // Eviction bounds pane count: window 10 / pane 2 + slack.
        assert!(p.slice_count() < 12, "panes: {}", p.slice_count());
    }

    #[test]
    fn misaligned_queries_degrade_to_unit_panes() {
        let mut p = Panes::new(SumI64);
        p.add_query(10, 3);
        p.add_query(7, 7);
        assert_eq!(p.pane_length(), 1);
        let mut out = Vec::new();
        for i in 0..50 {
            p.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
    }

    #[test]
    #[should_panic(expected = "before data")]
    fn late_registration_rejected() {
        let mut p = Panes::new(SumI64);
        p.add_query(10, 10);
        let mut out = Vec::new();
        p.process(1, 1, &mut out);
        p.add_query(20, 20);
    }
}
