//! Pairs baseline (Krishnamurthy et al. \[28\], paper Sections 3.4 / 6.2.1).
//!
//! The original on-the-fly slicing technique: for periodic windows, the
//! stream is cut into two alternating slice lengths per query — `l mod l_s`
//! and `l_s − (l mod l_s)` — which is exactly the union of all window start
//! and end edges. Pairs is limited to **in-order streams** and **periodic
//! (tumbling/sliding) time windows**; those are the assumptions general
//! stream slicing removes.

use std::collections::VecDeque;

use gss_core::{
    AggregateFunction, HeapSize, Measure, QueryId, Range, Time, WindowAggregator, WindowResult,
    TIME_MAX, TIME_MIN,
};
use gss_windows::PeriodicEdges;

/// Specialized slicing for periodic in-order window aggregation.
pub struct Pairs<A: AggregateFunction> {
    f: A,
    queries: Vec<(QueryId, PeriodicEdges)>,
    next_id: QueryId,
    /// Closed slices: range plus partial.
    slices: VecDeque<(Range, Option<A::Partial>)>,
    /// Open slice.
    open_start: Time,
    open_end: Time,
    open_partial: Option<A::Partial>,
    last_trigger: Time,
    /// The latest tuple's timestamp.
    max_ts: Time,
    /// Earliest upcoming window end; the per-tuple hot path compares one
    /// timestamp against it instead of sweeping all queries.
    next_end: Time,
    started: bool,
    max_extent: i64,
}

impl<A: AggregateFunction> Pairs<A> {
    pub fn new(f: A) -> Self {
        Pairs {
            f,
            queries: Vec::new(),
            next_id: 0,
            slices: VecDeque::new(),
            open_start: TIME_MIN,
            open_end: TIME_MAX,
            open_partial: None,
            last_trigger: TIME_MIN,
            max_ts: TIME_MIN,
            next_end: TIME_MAX,
            started: false,
            max_extent: 0,
        }
    }

    /// Registers a periodic window (`length`, `slide`). Tumbling windows
    /// use `slide == length`.
    pub fn add_query(&mut self, length: i64, slide: i64) -> QueryId {
        let id = self.next_id;
        self.next_id += 1;
        self.queries.push((id, PeriodicEdges::new(length, slide)));
        self.max_extent = self.max_extent.max(length);
        id
    }

    pub fn slice_count(&self) -> usize {
        self.slices.len() + 1
    }

    /// Union of all queries' next start/end edges after `ts` — the pairs
    /// edge set.
    fn next_edge(&self, ts: Time) -> Time {
        self.queries.iter().map(|(_, e)| e.next_edge(ts)).min().unwrap_or(TIME_MAX)
    }

    /// Earliest window end strictly after `ts`.
    fn next_window_end(&self, ts: Time) -> Time {
        self.queries.iter().map(|(_, e)| e.next_end(ts)).min().unwrap_or(TIME_MAX)
    }

    fn aggregate(&self, range: Range) -> Option<A::Partial> {
        let l = self.slices.partition_point(|(r, _)| r.end <= range.start);
        let r = self.slices.partition_point(|(r, _)| r.start < range.end);
        let mut acc: Option<A::Partial> = None;
        for (_, p) in self.slices.iter().skip(l).take(r.saturating_sub(l)) {
            acc = self.f.combine_opt(acc, p.as_ref());
        }
        // The open slice participates when it overlaps; its tuples are all
        // strictly before any window end being triggered (in-order).
        if self.open_start < range.end && self.open_start >= range.start {
            acc = self.f.combine_opt(acc, self.open_partial.as_ref());
        }
        acc
    }

    /// Emits the windows ending in `(last_trigger, now]` and evicts the
    /// slices no later window reaches.
    fn trigger(&mut self, now: Time, out: &mut Vec<WindowResult<A::Output>>) {
        let mut windows: Vec<(QueryId, Range)> = Vec::new();
        for (id, e) in &self.queries {
            e.ends_in(self.last_trigger, now, &mut |r| windows.push((*id, r)));
        }
        for (id, r) in windows {
            if let Some(p) = self.aggregate(r) {
                out.push(WindowResult::new(id, Measure::Time, r, self.f.lower(&p)));
            }
        }
        self.last_trigger = now;
        self.next_end = self.next_window_end(now);
        self.evict(now);
    }

    fn evict(&mut self, now: Time) {
        let boundary = now.saturating_sub(self.max_extent);
        let k = self.slices.partition_point(|(r, _)| r.end <= boundary);
        self.slices.drain(..k);
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for Pairs<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        debug_assert!(!self.started || ts >= self.open_start, "Pairs requires in-order streams");
        if !self.started {
            self.started = true;
            self.open_start = ts;
            self.open_end = self.next_edge(ts);
            self.last_trigger = ts;
            self.next_end = self.next_window_end(ts);
        }
        // On-the-fly slicing: one timestamp comparison per tuple.
        while ts >= self.open_end {
            let closed = Range::new(self.open_start, self.open_end);
            self.slices.push_back((closed, self.open_partial.take()));
            self.open_start = self.open_end;
            self.open_end = self.next_edge(self.open_start);
        }
        // Trigger windows ending in (last_trigger, ts] *before* adding the
        // tuple (windows ending at or before ts never contain it).
        if ts >= self.next_end {
            self.trigger(ts, out);
        }
        self.max_ts = ts;
        let lifted = self.f.lift(&value);
        self.open_partial = Some(match self.open_partial.take() {
            None => lifted,
            Some(p) => self.f.combine(p, &lifted),
        });
    }

    /// Every tuple is its own watermark, so a watermark only adds the
    /// windows whose end it passes and no tuple has: those ending in
    /// `(last_trigger, wm]`, up to the last that can hold a tuple.
    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        let wm = wm.min(self.max_ts.saturating_add(self.max_extent));
        if self.started && wm > self.last_trigger {
            self.trigger(wm, out);
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slices.heap_bytes()
            + self.open_partial.as_ref().map_or(0, |p| p.heap_bytes())
    }

    fn name(&self) -> &'static str {
        "Pairs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;

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
