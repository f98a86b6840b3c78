//! Two-Stacks FIFO aggregation (the classic queue-from-two-stacks trick,
//! the basis of Tangwongsan et al.'s DABA line of work [42, 43]).
//!
//! A sliding-window aggregator over a FIFO stream with **amortized O(1)**
//! inserts/evicts and **O(1)** queries, for any associative function — no
//! invertibility needed. It serves one sliding window per instance
//! (no aggregate sharing), which is exactly the restriction the paper's
//! related work notes and general slicing removes.
//!
//! The structure: a *back* stack accumulates new tuples with a running
//! prefix aggregate; a *front* stack holds suffix aggregates of older
//! tuples. The window aggregate is `front.top ⊕ back.agg`. When the front
//! empties, the back stack is flipped into it (the amortized step).

use std::collections::VecDeque;

use gss_core::{
    AggregateFunction, HeapSize, Measure, Range, Time, WindowAggregator, WindowResult, TIME_MAX,
    TIME_MIN,
};
use gss_windows::PeriodicEdges;

/// FIFO aggregation queue with amortized O(1) operations.
pub struct FifoAggregator<A: AggregateFunction> {
    f: A,
    /// Front: (timestamp, suffix aggregate from this element to the front
    /// end of the original back stack).
    front: Vec<(Time, A::Partial)>,
    /// Back: raw lifted values with timestamps.
    back: VecDeque<(Time, A::Partial)>,
    /// Running aggregate of the whole back stack.
    back_agg: Option<A::Partial>,
}

impl<A: AggregateFunction> FifoAggregator<A> {
    pub fn new(f: A) -> Self {
        FifoAggregator { f, front: Vec::new(), back: VecDeque::new(), back_agg: None }
    }

    pub fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the oldest element, if any.
    pub(crate) fn front_ts(&self) -> Option<Time> {
        self.front.last().map(|(t, _)| *t).or_else(|| self.back.front().map(|(t, _)| *t))
    }

    /// Appends a new element (FIFO order: timestamps must not decrease).
    pub fn push(&mut self, ts: Time, value: &A::Input) {
        let lifted = self.f.lift(value);
        self.back_agg = Some(match self.back_agg.take() {
            None => lifted.clone(),
            Some(a) => self.f.combine(a, &lifted),
        });
        self.back.push_back((ts, lifted));
    }

    /// Removes the oldest element. Amortized O(1): flips the back stack
    /// into suffix aggregates when the front runs dry.
    pub fn pop(&mut self) -> Option<Time> {
        if self.front.is_empty() {
            // Flip: build suffix aggregates in reverse order so that
            // front.last() aggregates the whole former back content.
            let mut suffix: Option<A::Partial> = None;
            while let Some((ts, lifted)) = self.back.pop_back() {
                let s = match suffix.take() {
                    None => lifted,
                    // `lifted` precedes the current suffix in stream order.
                    Some(s) => self.f.combine(lifted, &s),
                };
                self.front.push((ts, s.clone()));
                suffix = Some(s);
            }
            self.back_agg = None;
        }
        self.front.pop().map(|(ts, _)| ts)
    }

    /// The aggregate of the whole queue in FIFO order: O(1) combines.
    pub fn query(&self) -> Option<A::Partial> {
        let front = self.front.last().map(|(_, p)| p.clone());
        self.f.combine_opt(front, self.back_agg.as_ref())
    }
}

impl<A: AggregateFunction> HeapSize for FifoAggregator<A> {
    fn heap_bytes(&self) -> usize {
        self.front.heap_bytes()
            + self.back.heap_bytes()
            + self.back_agg.as_ref().map_or(0, |p| p.heap_bytes())
    }
}

/// A single sliding time window served by a [`FifoAggregator`] — the
/// specialized single-query competitor from the related work.
pub struct TwoStacksSliding<A: AggregateFunction> {
    fifo: FifoAggregator<A>,
    f: A,
    edges: PeriodicEdges,
    last_trigger: Time,
    next_end: Time,
    started: bool,
}

impl<A: AggregateFunction> TwoStacksSliding<A> {
    pub fn new(f: A, length: i64, slide: i64) -> Self {
        TwoStacksSliding {
            fifo: FifoAggregator::new(f.clone()),
            f,
            edges: PeriodicEdges::new(length, slide),
            last_trigger: TIME_MIN,
            next_end: TIME_MAX,
            started: false,
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for TwoStacksSliding<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        debug_assert!(
            self.fifo.front_ts().is_none_or(|t| ts >= t),
            "TwoStacks requires in-order streams"
        );
        if !self.started {
            self.started = true;
            self.last_trigger = ts;
            self.next_end = self.edges.next_end(ts);
        }
        // Trigger every window ending in (last_trigger, ts] before adding
        // the tuple; for each, evict elements before the window start and
        // read the queue aggregate.
        if ts >= self.next_end {
            let mut ends: Vec<Range> = Vec::new();
            self.edges.ends_in(self.last_trigger, ts, &mut |r| ends.push(r));
            for r in ends {
                while self.fifo.front_ts().is_some_and(|t| t < r.start) {
                    self.fifo.pop();
                }
                if let Some(p) = self.fifo.query() {
                    out.push(WindowResult::new(0, Measure::Time, r, self.f.lower(&p)));
                }
            }
            self.last_trigger = ts;
            self.next_end = self.edges.next_end(ts);
        }
        self.fifo.push(ts, &value);
    }

    fn on_watermark(&mut self, _wm: Time, _out: &mut Vec<WindowResult<A::Output>>) {}

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.fifo.heap_bytes()
    }

    fn name(&self) -> &'static str {
        "Two-Stacks"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::{Concat, SumI64};

    #[test]
    fn fifo_query_matches_running_content() {
        let mut q = FifoAggregator::new(SumI64);
        assert_eq!(q.query(), None);
        q.push(1, &10);
        q.push(2, &20);
        q.push(3, &30);
        assert_eq!(q.query(), Some(60));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.query(), Some(50));
        q.push(4, &40);
        assert_eq!(q.query(), Some(90));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.query(), Some(40));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.query(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_preserves_order_for_non_commutative() {
        let mut q = FifoAggregator::new(Concat);
        for (ts, v) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
            q.push(ts, &v);
        }
        q.pop();
        q.push(5, &5);
        // Content 2,3,4,5 in stream order despite the flip.
        assert_eq!(q.query(), Some(vec![2, 3, 4, 5]));
    }

    #[test]
    fn fifo_randomized_against_model() {
        let mut q = FifoAggregator::new(Concat);
        let mut model: std::collections::VecDeque<i64> = Default::default();
        let mut ts = 0i64;
        for step in 0..2_000 {
            if step % 3 != 0 || model.is_empty() {
                ts += 1;
                q.push(ts, &ts);
                model.push_back(ts);
            } else {
                q.pop();
                model.pop_front();
            }
            let expect: Vec<i64> = model.iter().copied().collect();
            let got = q.query().unwrap_or_default();
            assert_eq!(got, expect, "step {step}");
            assert_eq!(q.len(), model.len());
        }
    }

    #[test]
    fn sliding_window_matches_scan() {
        let mut ts2 = TwoStacksSliding::new(SumI64, 10, 4);
        let mut out = Vec::new();
        for i in 0..100 {
            ts2.process(i, 1, &mut out);
        }
        assert!(out.len() > 20);
        for r in &out {
            let expect = r.range.len().min(r.range.end).max(0);
            assert_eq!(r.value, expect, "window {}", r.range);
        }
    }

    #[test]
    fn works_without_invertibility() {
        use gss_core::testsupport::SumNoInvert;
        let mut ts2 = TwoStacksSliding::new(SumNoInvert, 20, 5);
        let mut out = Vec::new();
        for i in 0..200 {
            ts2.process(i, i % 7, &mut out);
        }
        for r in &out {
            let expect: i64 = (r.range.start.max(0)..r.range.end.min(200)).map(|i| i % 7).sum();
            assert_eq!(r.value, expect, "window {}", r.range);
        }
    }
}
