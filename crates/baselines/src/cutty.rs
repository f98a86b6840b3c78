//! Cutty baseline (Carbone et al. \[10\], paper Sections 3.4 / 6.2.1).
//!
//! Cutty generalizes slicing to user-defined **context-free** windows: it
//! slices only at window *start* edges and aggregates eagerly with a
//! FlatFAT tree over slices. Its limitation — and the gap general stream
//! slicing closes — is the lack of out-of-order support: windows are
//! triggered tuple-at-a-time on an in-order stream, relying on the
//! first-tuple-past-the-end trick for end alignment.

use gss_core::{
    AggregateFunction, ContextClass, FlatFat, Measure, QueryId, QuerySet, Time, WindowFunction,
    TIME_MAX,
};

use crate::in_order::InOrder;
use crate::slicer::{Cut, Slices};

/// Eager slicing for user-defined context-free windows, in-order only.
pub type Cutty<A> = InOrder<A, Slices<A, Starts>>;

/// Cutty's cut rule: window starts only (its minimal edge set).
pub struct Starts;

impl<A: AggregateFunction> Cut<A> for Starts {
    const NAME: &'static str = "Cutty";
    type Partials = FlatFat<A>;

    fn next_cut(&self, queries: &QuerySet, start: Time) -> Time {
        queries.next_edge(Measure::Time, start, true).unwrap_or(TIME_MAX)
    }
}

impl<A: AggregateFunction> Cutty<A> {
    pub fn new(f: A) -> Self {
        InOrder::slicing(f, Starts)
    }

    /// Registers a context-free time window (tumbling, sliding, or any
    /// user-defined CF type).
    pub fn add_query(&mut self, w: Box<dyn WindowFunction>) -> QueryId {
        assert_eq!(
            w.context(),
            ContextClass::ContextFree,
            "Cutty supports context-free windows only"
        );
        assert_eq!(w.measure(), Measure::Time, "this Cutty implementation slices on time");
        self.queries.add(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;
    use gss_core::WindowAggregator;
    use gss_windows::{SessionWindow, SlidingWindow, TumblingWindow};

    #[test]
    fn tumbling_matches_expected() {
        let mut c = Cutty::new(SumI64);
        c.add_query(Box::new(TumblingWindow::new(10)));
        let mut out = Vec::new();
        for ts in [1, 5, 9, 11, 15, 21] {
            c.process(ts, ts, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 15);
        assert_eq!(out[1].value, 26);
    }

    #[test]
    fn unaligned_sliding_ends_handled_by_trigger_rule() {
        let mut c = Cutty::new(SumI64);
        c.add_query(Box::new(SlidingWindow::new(10, 4)));
        let mut out = Vec::new();
        for i in 0..100 {
            c.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
        // Start-only slicing: fewer slices than Pairs would cut.
        assert!(c.slice_count() <= 5, "slices: {}", c.slice_count());
    }

    #[test]
    fn multi_query_sharing() {
        let mut c = Cutty::new(SumI64);
        c.add_query(Box::new(TumblingWindow::new(10)));
        c.add_query(Box::new(SlidingWindow::new(20, 5)));
        let mut out = Vec::new();
        for i in 0..80 {
            c.process(i, 1, &mut out);
        }
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "query {} window {}", r.query, r.range);
        }
    }

    #[test]
    #[should_panic(expected = "context-free")]
    fn context_aware_windows_rejected() {
        let mut c = Cutty::new(SumI64);
        c.add_query(Box::new(SessionWindow::new(10)));
    }
}
