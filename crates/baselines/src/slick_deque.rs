//! SlickDeque-style sliding extremum aggregation (Shein et al. \[40\]).
//!
//! For *selection* functions (min/max), a monotonic deque gives amortized
//! O(1) inserts, O(1) evictions, and O(1) queries over a FIFO sliding
//! window: elements that can never become the extremum again are discarded
//! on insert. Specialized to one query and one function class — another
//! point in the related-work trade-off space that general slicing covers
//! uniformly.

use std::collections::VecDeque;

use gss_aggregates::Max;
use gss_core::{HeapSize, Range, Time};

use crate::in_order::{InOrder, InOrderStore};

/// Monotonic deque maintaining the window extremum.
pub struct MonotonicDeque {
    /// `(ts, value)`; values are monotone from front to back such that
    /// the front is always the current extremum.
    deque: VecDeque<(Time, i64)>,
    /// `true` for max semantics, `false` for min.
    is_max: bool,
}

impl MonotonicDeque {
    pub fn new_max() -> Self {
        MonotonicDeque { deque: VecDeque::new(), is_max: true }
    }

    /// Inserts a new element, discarding dominated tail elements.
    pub fn push(&mut self, ts: Time, value: i64) {
        let is_max = self.is_max;
        let dominated = |old: i64| if is_max { value >= old } else { value <= old };
        while self.deque.back().is_some_and(|&(_, v)| dominated(v)) {
            self.deque.pop_back();
        }
        self.deque.push_back((ts, value));
    }

    /// Evicts elements with timestamps before `start`.
    pub fn evict_before(&mut self, start: Time) {
        while self.deque.front().is_some_and(|&(t, _)| t < start) {
            self.deque.pop_front();
        }
    }

    /// Current extremum, if any element remains.
    fn extremum(&self) -> Option<i64> {
        self.deque.front().map(|&(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.deque.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deque.is_empty()
    }
}

impl HeapSize for MonotonicDeque {
    fn heap_bytes(&self) -> usize {
        self.deque.heap_bytes()
    }
}

impl InOrderStore<Max> for MonotonicDeque {
    const NAME: &'static str = "SlickDeque";

    fn push(&mut self, _: &Max, ts: Time, value: &i64) {
        MonotonicDeque::push(self, ts, *value);
    }

    fn answer(&mut self, _: &Max, range: Range) -> Option<i64> {
        self.evict_before(range.start);
        self.extremum()
    }
}

/// One sliding time window computing the maximum via a monotonic deque:
/// a `WindowAggregator<gss_aggregates::Max>`.
pub type SlickDequeSliding = InOrder<Max, MonotonicDeque>;

impl SlickDequeSliding {
    pub fn new_max(length: i64, slide: i64) -> Self {
        InOrder::sliding(Max, MonotonicDeque::new_max(), length, slide)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::WindowAggregator;

    impl MonotonicDeque {
        fn new_min() -> Self {
            MonotonicDeque { deque: VecDeque::new(), is_max: false }
        }
    }

    impl SlickDequeSliding {
        fn deque_len(&self) -> usize {
            self.store.len()
        }
    }

    #[test]
    fn deque_tracks_max() {
        let mut d = MonotonicDeque::new_max();
        d.push(1, 5);
        d.push(2, 3);
        d.push(3, 4); // discards 3
        assert_eq!(d.extremum(), Some(5));
        assert_eq!(d.len(), 2); // 5 and 4
        d.evict_before(2);
        assert_eq!(d.extremum(), Some(4));
    }

    #[test]
    fn deque_tracks_min() {
        let mut d = MonotonicDeque::new_min();
        for (ts, v) in [(1, 5), (2, 3), (3, 4), (4, 1)] {
            d.push(ts, v);
        }
        // 1 dominates everything before it; the deque holds only (4, 1).
        assert_eq!(d.extremum(), Some(1));
        assert_eq!(d.len(), 1);
        d.evict_before(5);
        assert_eq!(d.extremum(), None);
    }

    #[test]
    fn sliding_max_matches_scan() {
        let values: Vec<i64> = (0..200).map(|i| (i * 37) % 101).collect();
        let mut sd = SlickDequeSliding::new_max(20, 5);
        let mut out = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            sd.process(i as Time, v, &mut out);
        }
        assert!(out.len() > 20);
        for r in &out {
            let expect = values[(r.range.start.max(0) as usize)..(r.range.end.min(200) as usize)]
                .iter()
                .max()
                .copied()
                .unwrap();
            assert_eq!(r.value, expect, "window {}", r.range);
        }
    }

    #[test]
    fn deque_stays_small_on_monotone_input() {
        // Increasing values: each push discards the whole tail.
        let mut sd = SlickDequeSliding::new_max(1_000, 100);
        let mut out = Vec::new();
        for i in 0..10_000 {
            sd.process(i, i, &mut out);
        }
        assert!(sd.deque_len() <= 2, "deque: {}", sd.deque_len());
    }
}
