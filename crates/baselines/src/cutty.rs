//! Cutty baseline (Carbone et al. \[10\], paper Sections 3.4 / 6.2.1).
//!
//! Cutty generalizes slicing to user-defined **context-free** windows: it
//! slices only at window *start* edges and aggregates eagerly with a
//! FlatFAT tree over slices. Its limitation — and the gap general stream
//! slicing closes — is the lack of out-of-order support: windows are
//! triggered tuple-at-a-time on an in-order stream, relying on the
//! first-tuple-past-the-end trick for end alignment.

use std::collections::VecDeque;

use gss_core::{
    AggregateFunction, FlatFat, HeapSize, Measure, Query, QueryId, Range, Time, WindowAggregator,
    WindowFunction, WindowResult, TIME_MAX, TIME_MIN,
};

/// Eager slicing for user-defined context-free windows, in-order only.
pub struct Cutty<A: AggregateFunction> {
    f: A,
    queries: Vec<Query>,
    next_id: QueryId,
    /// Ranges of closed slices; leaf `i` of `tree` holds slice `i`'s
    /// partial.
    ranges: VecDeque<Range>,
    tree: FlatFat<A>,
    open_start: Time,
    open_edge: Time,
    open_partial: Option<A::Partial>,
    last_trigger: Time,
    next_end: Time,
    started: bool,
    max_extent: i64,
}

impl<A: AggregateFunction> Cutty<A> {
    pub fn new(f: A) -> Self {
        Cutty {
            tree: FlatFat::new(f.clone()),
            f,
            queries: Vec::new(),
            next_id: 0,
            ranges: VecDeque::new(),
            open_start: TIME_MIN,
            open_edge: TIME_MAX,
            open_partial: None,
            last_trigger: TIME_MIN,
            next_end: TIME_MAX,
            started: false,
            max_extent: 0,
        }
    }

    /// Registers a context-free time window (tumbling, sliding, or any
    /// user-defined CF type).
    pub fn add_query(&mut self, w: Box<dyn WindowFunction>) -> QueryId {
        assert_eq!(
            w.context(),
            gss_core::ContextClass::ContextFree,
            "Cutty supports context-free windows only"
        );
        assert_eq!(w.measure(), Measure::Time, "this Cutty implementation slices on time");
        self.max_extent = self.max_extent.max(w.max_extent());
        let id = self.next_id;
        self.next_id += 1;
        self.queries.push(Query::new(id, w));
        id
    }

    pub fn slice_count(&self) -> usize {
        self.ranges.len() + 1
    }

    fn next_start_edge(&self, ts: Time) -> Time {
        self.queries.iter().filter_map(|q| q.window.next_start_edge(ts)).min().unwrap_or(TIME_MAX)
    }

    fn next_window_end(&self, ts: Time) -> Time {
        self.queries.iter().filter_map(|q| q.window.next_window_end(ts)).min().unwrap_or(TIME_MAX)
    }

    /// Eager aggregation: `O(log s)` tree query plus the open slice.
    fn aggregate(&self, range: Range) -> Option<A::Partial> {
        let l = self.ranges.partition_point(|r| r.end <= range.start);
        let r = self.ranges.partition_point(|r| r.start < range.end);
        let mut acc = if l < r { self.tree.query(l, r) } else { None };
        if self.open_start < range.end && self.open_start >= range.start {
            acc = self.f.combine_opt(acc, self.open_partial.as_ref());
        }
        acc
    }

    fn evict(&mut self, now: Time) {
        let boundary = now.saturating_sub(self.max_extent);
        let k = self.ranges.partition_point(|r| r.end <= boundary);
        if k > 0 {
            self.ranges.drain(..k);
            self.tree.remove_prefix(k);
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for Cutty<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        debug_assert!(!self.started || ts >= self.open_start, "Cutty requires in-order streams");
        if !self.started {
            self.started = true;
            self.open_start = ts;
            self.open_edge = self.next_start_edge(ts);
            self.last_trigger = ts;
            self.next_end = self.next_window_end(ts);
        }
        // Slice only at window starts (Cutty's minimal edge set).
        while ts >= self.open_edge {
            self.ranges.push_back(Range::new(self.open_start, self.open_edge));
            self.tree.push(self.open_partial.take());
            self.open_start = self.open_edge;
            self.open_edge = self.next_start_edge(self.open_start);
        }
        // Trigger before inserting the tuple (first-tuple-past-the-end).
        if ts >= self.next_end {
            let mut windows: Vec<(QueryId, Range)> = Vec::new();
            for q in &mut self.queries {
                let id = q.id;
                q.window.trigger_windows(self.last_trigger, ts, &mut |r| windows.push((id, r)));
            }
            for (id, r) in windows {
                if let Some(p) = self.aggregate(r) {
                    out.push(WindowResult::new(id, Measure::Time, r, self.f.lower(&p)));
                }
            }
            self.last_trigger = ts;
            self.next_end = self.next_window_end(ts);
            self.evict(ts);
        }
        let lifted = self.f.lift(&value);
        self.open_partial = Some(match self.open_partial.take() {
            None => lifted,
            Some(p) => self.f.combine(p, &lifted),
        });
    }

    fn on_watermark(&mut self, _wm: Time, _out: &mut Vec<WindowResult<A::Output>>) {
        // Cutty is in-order only; every tuple acts as its own watermark.
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ranges.heap_bytes()
            + self.tree.heap_bytes()
            + self.open_partial.as_ref().map_or(0, |p| p.heap_bytes())
    }

    fn name(&self) -> &'static str {
        "Cutty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;
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
