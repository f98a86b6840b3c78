//! The slices of Pairs, Panes and Cutty, cut where a [`Cut`] rule says.

use std::collections::VecDeque;

use gss_core::{AggregateFunction, FlatFat, HeapSize, QuerySet, Range, Time, TIME_MIN};

use crate::in_order::{InOrder, InOrderStore};

/// Where a slicing technique cuts, and how it keeps its closed slices.
pub trait Cut<A: AggregateFunction>: Send {
    const NAME: &'static str;

    type Partials: Partials<A>;

    /// The cut that closes the slice starting at `start`.
    fn next_cut(&self, queries: &QuerySet, start: Time) -> Time;

    /// Slices ending at or before it go after a trigger at `now`.
    fn horizon(&self, queries: &QuerySet, now: Time) -> Time {
        queries.horizon(now, 0)
    }
}

/// The closed slices' partials, and how a window combines a run of them.
pub trait Partials<A: AggregateFunction>: HeapSize + Send {
    fn new(f: &A) -> Self;

    fn push(&mut self, p: Option<A::Partial>);

    /// The combined partials of slices `[l, r)`, `l < r`.
    fn query(&self, f: &A, l: usize, r: usize) -> Option<A::Partial>;

    fn remove_prefix(&mut self, k: usize);
}

/// A linear combine over the covered slices (Pairs, Panes).
pub type Linear<A> = VecDeque<Option<<A as AggregateFunction>::Partial>>;

impl<A: AggregateFunction> Partials<A> for Linear<A> {
    fn new(_: &A) -> Self {
        VecDeque::new()
    }

    fn push(&mut self, p: Option<A::Partial>) {
        self.push_back(p);
    }

    fn query(&self, f: &A, l: usize, r: usize) -> Option<A::Partial> {
        self.range(l..r).fold(None, |acc, p| f.combine_opt(acc, p.as_ref()))
    }

    fn remove_prefix(&mut self, k: usize) {
        self.drain(..k);
    }
}

/// Eager aggregation: an `O(log s)` FlatFAT query (Cutty).
impl<A: AggregateFunction> Partials<A> for FlatFat<A> {
    fn new(f: &A) -> Self {
        FlatFat::new(f.clone())
    }

    fn push(&mut self, p: Option<A::Partial>) {
        FlatFat::push(self, p);
    }

    fn query(&self, _: &A, l: usize, r: usize) -> Option<A::Partial> {
        FlatFat::query(self, l, r)
    }

    fn remove_prefix(&mut self, k: usize) {
        FlatFat::remove_prefix(self, k);
    }
}

/// The slices of a [`Cut`] rule.
pub struct Slices<A: AggregateFunction, C: Cut<A>> {
    pub(crate) cut: C,
    /// The closed slices; partial `i` of `partials` is slice `i`'s.
    ranges: VecDeque<Range>,
    partials: C::Partials,
    open_start: Time,
    open_edge: Time,
    open_partial: Option<A::Partial>,
}

impl<A: AggregateFunction, C: Cut<A>> InOrder<A, Slices<A, C>> {
    pub(crate) fn slicing(f: A, cut: C) -> Self {
        let (ranges, partials) = (VecDeque::new(), C::Partials::new(&f));
        let (open_start, open_edge) = (TIME_MIN, TIME_MIN);
        let slices = Slices { cut, ranges, partials, open_start, open_edge, open_partial: None };
        InOrder::with_store(f, slices)
    }

    /// Live slices, the open one included.
    pub fn slice_count(&self) -> usize {
        self.store.ranges.len() + 1
    }
}

impl<A: AggregateFunction, C: Cut<A>> HeapSize for Slices<A, C> {
    fn heap_bytes(&self) -> usize {
        self.ranges.heap_bytes() + self.partials.heap_bytes() + self.open_partial.heap_bytes()
    }
}

impl<A: AggregateFunction, C: Cut<A>> InOrderStore<A> for Slices<A, C> {
    const NAME: &'static str = C::NAME;

    fn start(&mut self, queries: &QuerySet, ts: Time) {
        (self.open_start, self.open_edge) = (ts, self.cut.next_cut(queries, ts));
    }

    /// On-the-fly slicing: one timestamp comparison per tuple.
    #[inline]
    fn advance(&mut self, queries: &QuerySet, ts: Time) {
        while ts >= self.open_edge {
            self.ranges.push_back(Range::new(self.open_start, self.open_edge));
            self.partials.push(self.open_partial.take());
            self.open_start = self.open_edge;
            self.open_edge = self.cut.next_cut(queries, self.open_start);
        }
    }

    fn push(&mut self, f: &A, _: Time, value: &A::Input) {
        let lifted = f.lift(value);
        self.open_partial = Some(match self.open_partial.take() {
            None => lifted,
            Some(p) => f.combine(p, &lifted),
        });
    }

    /// The closed slices a window covers, and the open one if the window
    /// holds its start (its tuples precede any end being triggered).
    fn answer(&mut self, f: &A, range: Range) -> Option<A::Output> {
        let l = self.ranges.partition_point(|r| r.end <= range.start);
        let r = self.ranges.partition_point(|r| r.start < range.end);
        let mut acc = if l < r { self.partials.query(f, l, r) } else { None };
        if self.open_start < range.end && self.open_start >= range.start {
            acc = f.combine_opt(acc, self.open_partial.as_ref());
        }
        acc.map(|p| f.lower(&p))
    }

    fn evict(&mut self, queries: &QuerySet, now: Time) {
        let horizon = self.cut.horizon(queries, now);
        let k = self.ranges.partition_point(|r| r.end <= horizon);
        if k > 0 {
            self.ranges.drain(..k);
            self.partials.remove_prefix(k);
        }
    }
}
