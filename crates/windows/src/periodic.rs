//! Context-free periodic windows: tumbling and sliding, on time and count
//! measures (paper Section 2 / Figure 1).
//!
//! All edge arithmetic lives in [`PeriodicEdges`], defined in `gss-core`,
//! whose query set answers these windows with it directly; the four
//! public window types are thin wrappers choosing a measure and a slide.
//! Windows are `[k·slide, k·slide + length)` for every integer `k` — start
//! and end timestamps are known a priori, the definition of context
//! freedom.

pub use gss_core::PeriodicEdges;
use gss_core::{ContextClass, Measure, Range, Time, WindowFunction};

macro_rules! periodic_window {
    ($(#[$doc:meta])* $name:ident, $measure:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name {
            edges: PeriodicEdges,
        }

        impl WindowFunction for $name {
            fn measure(&self) -> Measure {
                $measure
            }
            fn context(&self) -> ContextClass {
                ContextClass::ContextFree
            }
            fn periodic(&self) -> Option<PeriodicEdges> {
                Some(self.edges)
            }
            fn next_edge(&self, ts: Time) -> Option<Time> {
                Some(self.edges.next_edge(ts))
            }
            fn next_start_edge(&self, ts: Time) -> Option<Time> {
                Some(self.edges.next_start(ts))
            }
            fn next_window_end(&self, ts: Time) -> Option<Time> {
                Some(self.edges.next_end(ts))
            }
            fn prev_edge(&self, ts: Time) -> Option<Time> {
                Some(self.edges.prev_edge(ts))
            }
            fn has_static_edges(&self) -> bool {
                true
            }
            fn requires_edge_at(&self, e: Time) -> bool {
                self.edges.edge_at(e)
            }
            fn trigger_windows(&mut self, prev: Time, cur: Time, out: &mut dyn FnMut(Range)) {
                self.edges.ends_in(prev, cur, out);
            }
            fn windows_containing(&self, ts: Time, out: &mut dyn FnMut(Range)) {
                self.edges.containing(ts, out);
            }
            fn max_extent(&self) -> i64 {
                self.edges.length
            }
            fn clone_box(&self) -> Box<dyn WindowFunction> {
                Box::new(*self)
            }
        }
    };
}

periodic_window!(
    /// Time-measure tumbling window of fixed `length`: `[k·l, (k+1)·l)`.
    TumblingWindow,
    Measure::Time
);

impl TumblingWindow {
    pub fn new(length: i64) -> Self {
        TumblingWindow { edges: PeriodicEdges::new(length, length) }
    }

    /// Tumbling windows phase-shifted by `offset` (e.g. hourly windows
    /// aligned to a timezone).
    pub fn with_offset(length: i64, offset: i64) -> Self {
        TumblingWindow { edges: PeriodicEdges::with_offset(length, length, offset) }
    }

    pub fn length(&self) -> i64 {
        self.edges.length
    }
}

periodic_window!(
    /// Time-measure sliding window: length `l`, new window every `l_s`.
    /// Consecutive windows overlap when `l_s < l` (paper Figure 1).
    SlidingWindow,
    Measure::Time
);

impl SlidingWindow {
    pub fn new(length: i64, slide: i64) -> Self {
        SlidingWindow { edges: PeriodicEdges::new(length, slide) }
    }

    /// Sliding windows phase-shifted by `offset`.
    pub fn with_offset(length: i64, slide: i64, offset: i64) -> Self {
        SlidingWindow { edges: PeriodicEdges::with_offset(length, slide, offset) }
    }

    pub fn length(&self) -> i64 {
        self.edges.length
    }

    pub fn slide(&self) -> i64 {
        self.edges.slide
    }
}

periodic_window!(
    /// Count-measure tumbling window: every `length` tuples.
    CountTumblingWindow,
    Measure::Count
);

impl CountTumblingWindow {
    pub fn new(length: u64) -> Self {
        let l = length as i64;
        CountTumblingWindow { edges: PeriodicEdges::new(l, l) }
    }
}

periodic_window!(
    /// Count-measure sliding window: `length` tuples, advancing every
    /// `slide` tuples.
    CountSlidingWindow,
    Measure::Count
);

impl CountSlidingWindow {
    pub fn new(length: u64, slide: u64) -> Self {
        CountSlidingWindow { edges: PeriodicEdges::new(length as i64, slide as i64) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_edges() {
        let w = TumblingWindow::new(10);
        assert_eq!(w.next_edge(0), Some(10));
        assert_eq!(w.next_edge(9), Some(10));
        assert_eq!(w.next_edge(10), Some(20));
        assert_eq!(w.next_edge(-1), Some(0));
        assert_eq!(w.next_edge(-11), Some(-10));
    }

    #[test]
    fn sliding_edges_include_starts_and_ends() {
        // length 10, slide 4: starts at 0,4,8,...; ends at 10,14,18,...
        let w = SlidingWindow::new(10, 4);
        assert_eq!(w.next_start_edge(0), Some(4));
        // Ends exist at k*slide + length for every integer k, so the next
        // end after 0 is 2 (the end of window [-8, 2)).
        assert_eq!(w.next_window_end(0), Some(2));
        assert_eq!(w.next_window_end(2), Some(6));
        assert_eq!(w.next_edge(8), Some(10)); // end of [0,10) before start 12
        assert_eq!(w.next_edge(10), Some(12));
        assert!(w.requires_edge_at(4)); // start
        assert!(w.requires_edge_at(14)); // end of [4,14)
        assert!(!w.requires_edge_at(5));
    }

    #[test]
    fn trigger_enumerates_ends_in_range() {
        let mut w = SlidingWindow::new(10, 4);
        let mut got = Vec::new();
        w.trigger_windows(10, 18, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(4, 14), Range::new(8, 18)]);
        got.clear();
        w.trigger_windows(18, 18, &mut |r| got.push(r));
        assert!(got.is_empty());
    }

    #[test]
    fn containing_lists_all_overlapping_windows() {
        let w = SlidingWindow::new(10, 4);
        let mut got = Vec::new();
        w.windows_containing(9, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(0, 10), Range::new(4, 14), Range::new(8, 18)]);
    }

    #[test]
    fn tumbling_contains_exactly_one_window() {
        let w = TumblingWindow::new(10);
        let mut got = Vec::new();
        w.windows_containing(25, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(20, 30)]);
    }

    #[test]
    fn negative_timestamps_are_handled() {
        let w = SlidingWindow::new(10, 4);
        let mut got = Vec::new();
        w.windows_containing(-3, &mut |r| got.push(r));
        assert!(got.iter().all(|r| r.contains(-3)));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn slide_larger_than_length_gives_gaps() {
        // Sampling window: 5 long, every 20.
        let w = SlidingWindow::new(5, 20);
        let mut got = Vec::new();
        w.windows_containing(10, &mut |r| got.push(r));
        assert!(got.is_empty());
        got.clear();
        w.windows_containing(3, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(0, 5)]);
    }

    #[test]
    fn count_windows_use_count_measure() {
        let w = CountTumblingWindow::new(100);
        assert_eq!(w.measure(), Measure::Count);
        assert_eq!(w.next_edge(0), Some(100));
        let w = CountSlidingWindow::new(10, 2);
        assert_eq!(w.measure(), Measure::Count);
        assert_eq!(w.next_window_end(10), Some(12));
    }

    #[test]
    fn ends_in_never_reports_outside_range() {
        let e = PeriodicEdges::new(7, 3);
        for prev in 0..40 {
            for cur in prev..40 {
                e.ends_in(prev, cur, |r| {
                    assert!(r.end > prev && r.end <= cur);
                    assert_eq!(r.len(), 7);
                    assert_eq!(r.start.rem_euclid(3), 0);
                });
            }
        }
    }

    #[test]
    fn offset_shifts_window_phase() {
        let w = TumblingWindow::with_offset(10, 3);
        // Windows: [3,13), [13,23), ...
        assert_eq!(w.next_edge(0), Some(3));
        assert_eq!(w.next_edge(3), Some(13));
        let mut got = Vec::new();
        w.windows_containing(5, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(3, 13)]);
        assert!(w.requires_edge_at(13));
        assert!(!w.requires_edge_at(10));
        let mut w = SlidingWindow::with_offset(10, 5, 2);
        let mut ends = Vec::new();
        w.trigger_windows(0, 20, &mut |r| ends.push(r));
        // Ends at 5k + 12 for all k: 2, 7, 12, 17 within (0, 20].
        assert_eq!(
            ends,
            vec![Range::new(-8, 2), Range::new(-3, 7), Range::new(2, 12), Range::new(7, 17)]
        );
    }

    #[test]
    fn offset_normalizes_modulo_slide() {
        let a = PeriodicEdges::with_offset(10, 5, 7);
        let b = PeriodicEdges::with_offset(10, 5, 2);
        assert_eq!(a, b);
        let c = PeriodicEdges::with_offset(10, 5, -3);
        assert_eq!(c.offset, 2);
    }

    #[test]
    fn offset_windows_work_through_the_operator() {
        use gss_core::operator::{OperatorConfig, WindowOperator};
        use gss_core::testsupport::SumI64;
        let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
        op.add_query(Box::new(TumblingWindow::with_offset(10, 4))).unwrap();
        let mut out = Vec::new();
        for ts in 0..40 {
            op.process_tuple(ts, 1, &mut out);
        }
        // Windows [-6,4), [4,14), [14,24), [24,34) complete; the first
        // holds only the tuples 0..3.
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].range, Range::new(-6, 4));
        assert_eq!(out[0].value, 4);
        for r in &out[1..] {
            assert_eq!(r.value, 10, "window {}", r.range);
            assert_eq!(r.range.start.rem_euclid(10), 4);
        }
    }

    #[test]
    fn next_end_matches_brute_force() {
        let e = PeriodicEdges::new(10, 4);
        for ts in -30..30 {
            let brute = (-20..60).map(|k| k * 4 + 10).find(|&end| end > ts).unwrap();
            assert_eq!(e.next_end(ts), brute, "ts={ts}");
        }
    }
}
