//! Panes baseline (Li et al., "No pane, no gain" \[30\]).
//!
//! The earliest slicing technique: a sliding window (`l`, `l_s`) is split
//! into uniform *panes* of length `gcd(l, l_s)`; each window aggregates
//! `l / gcd` panes. For multiple queries the pane size is the gcd across
//! all window parameters — which is panes' weakness: unlike Pairs or
//! general slicing, badly-aligned queries force tiny panes (down to one
//! unit), multiplying the final-aggregation work. In-order, periodic time
//! windows only.

use std::collections::VecDeque;

use gss_core::{
    AggregateFunction, HeapSize, Measure, QueryId, Range, Time, WindowAggregator, WindowResult,
    TIME_MAX, TIME_MIN,
};
use gss_windows::PeriodicEdges;

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Uniform-pane slicing for periodic in-order window aggregation.
pub struct Panes<A: AggregateFunction> {
    f: A,
    queries: Vec<(QueryId, PeriodicEdges)>,
    next_id: QueryId,
    /// Pane length: gcd over all window lengths and slides.
    pane: i64,
    /// Closed panes (start, partial); pane `i` covers
    /// `[start, start + pane)`.
    panes: VecDeque<(Time, Option<A::Partial>)>,
    open_start: Time,
    open_partial: Option<A::Partial>,
    last_trigger: Time,
    next_end: Time,
    started: bool,
    max_extent: i64,
}

impl<A: AggregateFunction> Panes<A> {
    pub fn new(f: A) -> Self {
        Panes {
            f,
            queries: Vec::new(),
            next_id: 0,
            pane: 0,
            panes: VecDeque::new(),
            open_start: TIME_MIN,
            open_partial: None,
            last_trigger: TIME_MIN,
            next_end: TIME_MAX,
            started: false,
            max_extent: 0,
        }
    }

    /// Registers a periodic window; recomputes the global pane size.
    /// Must be called before the first tuple (panes are fixed-size).
    pub fn add_query(&mut self, length: i64, slide: i64) -> QueryId {
        assert!(!self.started, "Panes queries must be registered before data");
        let id = self.next_id;
        self.next_id += 1;
        self.queries.push((id, PeriodicEdges::new(length, slide)));
        self.max_extent = self.max_extent.max(length);
        let g = gcd(length, slide);
        self.pane = if self.pane == 0 { g } else { gcd(self.pane, g) };
        id
    }

    /// The computed pane length.
    #[cfg(test)]
    fn pane_length(&self) -> i64 {
        self.pane
    }

    #[cfg(test)]
    fn pane_count(&self) -> usize {
        self.panes.len() + 1
    }

    fn next_window_end(&self, ts: Time) -> Time {
        self.queries.iter().map(|(_, e)| e.next_end(ts)).min().unwrap_or(TIME_MAX)
    }

    /// Window aggregate = ⊕ of the panes it covers (always aligned: every
    /// window edge is a multiple of the pane size).
    fn aggregate(&self, range: Range) -> Option<A::Partial> {
        let mut acc: Option<A::Partial> = None;
        for (start, p) in &self.panes {
            if *start >= range.start && *start < range.end {
                acc = self.f.combine_opt(acc, p.as_ref());
            }
        }
        if self.open_start >= range.start && self.open_start < range.end {
            acc = self.f.combine_opt(acc, self.open_partial.as_ref());
        }
        acc
    }

    fn evict(&mut self, now: Time) {
        let boundary = now.saturating_sub(self.max_extent).saturating_sub(self.pane);
        while self.panes.front().is_some_and(|(s, _)| *s + self.pane <= boundary) {
            self.panes.pop_front();
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for Panes<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        debug_assert!(!self.started || ts >= self.open_start, "Panes requires in-order streams");
        if !self.started {
            assert!(self.pane > 0, "register queries before data");
            self.started = true;
            self.open_start = PeriodicEdges::new(self.pane, self.pane).prev_edge(ts);
            self.last_trigger = ts;
            self.next_end = self.next_window_end(ts);
        }
        // Close every pane the stream has passed.
        while ts >= self.open_start + self.pane {
            self.panes.push_back((self.open_start, self.open_partial.take()));
            self.open_start += self.pane;
        }
        // Trigger before inserting (windows ending at or before ts never
        // contain the tuple).
        if ts >= self.next_end {
            let mut windows: Vec<(QueryId, Range)> = Vec::new();
            for (id, e) in &self.queries {
                e.ends_in(self.last_trigger, ts, &mut |r| windows.push((*id, r)));
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
        // In-order only; every tuple is its own watermark.
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.panes.heap_bytes()
            + self.open_partial.as_ref().map_or(0, |p| p.heap_bytes())
    }

    fn name(&self) -> &'static str {
        "Panes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;

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
        assert!(p.pane_count() < 12, "panes: {}", p.pane_count());
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
