//! Slices and the three fundamental slice operations (paper Section 5.2).
//!
//! A slice is a non-overlapping chunk of the stream holding a partial
//! aggregate and — only when the workload requires it (Figure 4) — its
//! source tuples. The three operations are **merge**, **split**, and
//! **update**; workload characteristics determine what each costs and how
//! often it runs.
//!
//! An update has one entry per kind of change, and a single tuple is a
//! run of one: [`Slice::add_run_columns`] (an in-order run),
//! `add_out_of_order_run` (a sorted late run, merged after stored
//! equal-timestamp tuples), [`Slice::add_out_of_order_partial`] (late
//! tuples pre-folded without storage) and `add_shifted` (the Figure-6
//! count shift, placed before them).

use crate::function::AggregateFunction;
use crate::mem::HeapSize;
use crate::time::{Range, Time, TIME_MAX, TIME_MIN};

/// A slice: `[t_start, t_end)` plus metadata and aggregate state.
///
/// Per the paper, a slice stores its start/end timestamps and the timestamps
/// of the first and last tuple it contains — which need not coincide with
/// the slice boundaries (a slice `[1, 10)` may contain tuples only in
/// `[2, 9]`).
#[derive(Clone)]
pub struct Slice<A: AggregateFunction> {
    range: Range,
    /// Timestamp of the earliest contained tuple; `TIME_MAX` if empty.
    t_first: Time,
    /// Timestamp of the latest contained tuple; `TIME_MIN` if empty.
    t_last: Time,
    /// Number of contained tuples (drives the count measure).
    n_tuples: usize,
    /// Partial aggregate of the contained tuples in event-time order;
    /// `None` iff the slice is empty.
    agg: Option<A::Partial>,
    /// Source tuples sorted by timestamp (stable w.r.t. arrival for ties).
    /// Present iff the decision logic requires tuple storage.
    tuples: Option<Vec<(Time, A::Input)>>,
}

impl<A: AggregateFunction> Slice<A> {
    /// Creates an empty slice covering `range`. `keep_tuples` mirrors the
    /// Figure-4 decision and must be uniform across all slices of a store.
    pub fn new(range: Range, keep_tuples: bool) -> Self {
        Slice {
            range,
            t_first: TIME_MAX,
            t_last: TIME_MIN,
            n_tuples: 0,
            agg: None,
            tuples: if keep_tuples { Some(Vec::new()) } else { None },
        }
    }

    #[inline]
    pub fn range(&self) -> Range {
        self.range
    }

    #[inline]
    pub fn start(&self) -> Time {
        self.range.start
    }

    #[inline]
    pub fn end(&self) -> Time {
        self.range.end
    }

    /// Timestamp of the first (earliest) contained tuple.
    #[inline]
    pub fn t_first(&self) -> Time {
        self.t_first
    }

    /// Timestamp of the last (latest) contained tuple.
    #[inline]
    pub fn t_last(&self) -> Time {
        self.t_last
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.n_tuples
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_tuples == 0
    }

    /// The partial aggregate (event-time order), `None` for empty slices.
    #[inline]
    pub fn aggregate(&self) -> Option<&A::Partial> {
        self.agg.as_ref()
    }

    /// Whether this slice stores its source tuples.
    #[inline]
    pub fn keeps_tuples(&self) -> bool {
        self.tuples.is_some()
    }

    /// The stored tuples, if kept.
    pub fn tuples(&self) -> Option<&[(Time, A::Input)]> {
        self.tuples.as_deref()
    }

    /// Extends the slice's end (metadata update; used when the successor is
    /// merged away or when the latest slice grows).
    pub(crate) fn set_end(&mut self, end: Time) {
        debug_assert!(end >= self.range.start);
        self.range.end = end;
    }

    /// Adds a run of in-order tuples — one tuple is a run of one — given
    /// as parallel `times` / `values` columns, in one step. The caller
    /// guarantees the run is non-decreasing in timestamp, starts at or
    /// after `t_last`, lies inside the slice range, and that the columns
    /// are equally long. The contiguous values column is folded
    /// left-to-right into one partial by
    /// [`AggregateFunction::fold_slice`], which is combined into the
    /// slice aggregate with a single ⊕: by associativity this equals
    /// adding the tuples one by one, including for non-commutative
    /// functions (event-time order is preserved).
    pub fn add_run_columns(&mut self, f: &A, times: &[Time], values: &[A::Input]) {
        debug_assert_eq!(times.len(), values.len(), "SoA run length mismatch");
        let (Some(&first_ts), Some(&last_ts)) = (times.first(), times.last()) else {
            return;
        };
        debug_assert!(first_ts >= self.t_last || self.is_empty(), "run {first_ts} not in order");
        debug_assert!(
            self.range.contains(first_ts) && self.range.contains(last_ts),
            "run [{first_ts}, {last_ts}] outside slice {}",
            self.range
        );
        debug_assert!(times.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
        let Some(p) = f.fold_slice(values) else {
            return;
        };
        self.agg = Some(match self.agg.take() {
            None => p,
            Some(a) => f.combine(a, &p),
        });
        self.t_first = self.t_first.min(first_ts);
        self.t_last = self.t_last.max(last_ts);
        self.n_tuples += times.len();
        if let Some(tuples) = &mut self.tuples {
            tuples.extend(times.iter().copied().zip(values.iter().cloned()));
        }
    }

    /// Adds a sorted run of out-of-order tuples — one late tuple is a run
    /// of one — in one step. The caller guarantees the run is
    /// non-decreasing in timestamp; nothing else is assumed — tuples may
    /// fall anywhere relative to the stored ones. Stored tuples are merged
    /// in place in one `O(n + k)` pass from the back (each run tuple lands
    /// *after* existing equal-timestamp tuples, preserving arrival-order
    /// ties). For commutative functions the run folds into one lifted
    /// partial combined with a single ⊕; non-commutative functions
    /// recompute once (paper Section 5.2, Update).
    pub(crate) fn add_out_of_order_run(&mut self, f: &A, run: &[(Time, A::Input)]) {
        let (Some(&(first_ts, _)), Some(&(last_ts, _))) = (run.first(), run.last()) else {
            return;
        };
        debug_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "run not sorted");
        let commutative = f.properties().commutative;
        if let Some(tuples) = &mut self.tuples {
            // Grow by the run, then merge from the back: slot `i + j - 1` is
            // the next to fill, so each stored tuple moves at most once, and
            // a slot a swap leaves stale lies in `[i, i + j)`, which is
            // written before the merge ends.
            let (mut i, mut j) = (tuples.len(), run.len());
            tuples.extend_from_slice(run);
            while j > 0 && i > 0 {
                if tuples[i - 1].0 > run[j - 1].0 {
                    i -= 1;
                    tuples.swap(i, i + j);
                } else {
                    j -= 1;
                    tuples[i + j] = run[j].clone();
                }
            }
            // With `i == 0` the run's head is still at `[0, j)`: put it there.
            tuples[..j].clone_from_slice(&run[..j]);
        } else {
            debug_assert!(
                commutative,
                "non-commutative out-of-order insert requires stored tuples (Figure 4)"
            );
        }
        self.t_first = self.t_first.min(first_ts);
        self.t_last = self.t_last.max(last_ts);
        self.n_tuples += run.len();
        if commutative {
            if let Some(p) = f.lift_all(run.iter().map(|(_, v)| v)) {
                self.agg = Some(match self.agg.take() {
                    None => p,
                    Some(a) => f.combine(a, &p),
                });
            }
        } else {
            self.recompute(f);
        }
    }

    /// Merges a pre-folded partial of out-of-order tuples (minimum
    /// timestamp `t_first`, maximum `t_last`, `n` tuples) with a single ⊕.
    /// Only valid without tuple storage and for commutative functions:
    /// nothing then observes the order late tuples were folded in, so the
    /// caller may group them by covering slice without sorting.
    pub fn add_out_of_order_partial(
        &mut self,
        f: &A,
        partial: A::Partial,
        t_first: Time,
        t_last: Time,
        n: usize,
    ) {
        debug_assert!(self.tuples.is_none(), "partial-only insert requires dropped tuples");
        debug_assert!(
            f.properties().commutative,
            "partial-only insert requires a commutative function"
        );
        self.t_first = self.t_first.min(t_first);
        self.t_last = self.t_last.max(t_last);
        self.n_tuples += n;
        self.agg = Some(match self.agg.take() {
            None => partial,
            Some(a) => f.combine(a, &partial),
        });
    }

    /// Adds a tuple moved here by the count shift (Figure 6). Unlike a
    /// late run, the tuple is inserted *before* any stored tuple with an
    /// equal timestamp: it comes from the predecessor slice, so its count
    /// position precedes everything already here.
    pub(crate) fn add_shifted(&mut self, f: &A, ts: Time, value: A::Input) {
        let commutative = f.properties().commutative;
        if let Some(tuples) = &mut self.tuples {
            let pos = tuples.partition_point(|(t, _)| *t < ts);
            tuples.insert(pos, (ts, value.clone()));
        } else {
            debug_assert!(commutative, "shifts require stored tuples (Figure 4)");
        }
        self.t_first = self.t_first.min(ts);
        self.t_last = self.t_last.max(ts);
        self.n_tuples += 1;
        if commutative {
            let lifted = f.lift(&value);
            self.agg = Some(match self.agg.take() {
                None => lifted,
                Some(a) => f.combine(a, &lifted),
            });
        } else {
            self.recompute(f);
        }
    }

    /// Recomputes the aggregate from the stored tuples (the expensive path
    /// used by splits and non-commutative updates). Panics if tuples are
    /// not stored — the decision logic (Figure 4) guarantees they are
    /// whenever a recomputation can be required.
    fn recompute(&mut self, f: &A) {
        let tuples = self
            .tuples
            .as_ref()
            .expect("recompute requires stored tuples; decision logic should have kept them");
        self.agg = f.lift_all(tuples.iter().map(|(_, v)| v));
        self.n_tuples = tuples.len();
        self.t_first = tuples.first().map_or(TIME_MAX, |(t, _)| *t);
        self.t_last = tuples.last().map_or(TIME_MIN, |(t, _)| *t);
    }

    /// Removes and returns the latest tuple. Used by the count-measure
    /// shift (Figure 6): invertible functions pay one ⊖ step, everything
    /// else recomputes from stored tuples.
    ///
    /// Returns `None` if the slice is empty. Panics if tuples are not
    /// stored (removals always require them, Figure 4).
    pub(crate) fn remove_last(&mut self, f: &A) -> Option<(Time, A::Input)> {
        let tuples = self
            .tuples
            .as_mut()
            .expect("tuple removal requires stored tuples; decision logic should have kept them");
        let (ts, value) = tuples.pop()?;
        self.n_tuples -= 1;
        if self.n_tuples == 0 {
            self.agg = None;
            self.t_first = TIME_MAX;
            self.t_last = TIME_MIN;
            return Some((ts, value));
        }
        self.t_last = tuples.last().map_or(TIME_MIN, |(t, _)| *t);
        let removed = f.lift(&value);
        let inverted = self.agg.take().and_then(|a| {
            if f.properties().invertible {
                f.invert(a, &removed)
            } else {
                None
            }
        });
        match inverted {
            Some(p) => self.agg = Some(p),
            None => self.recompute(f),
        }
        Some((ts, value))
    }

    /// Merges `other` (the immediate successor slice) into `self`:
    /// 1. `t_end(self) ← t_end(other)`
    /// 2. `agg ← agg ⊕ other.agg`
    /// 3. `other` is consumed.
    pub fn merge(&mut self, f: &A, other: Slice<A>) {
        debug_assert_eq!(
            self.range.end, other.range.start,
            "merge requires adjacent slices ({} then {})",
            self.range, other.range
        );
        self.range.end = other.range.end;
        self.agg = f.combine_opt(self.agg.take(), other.agg.as_ref());
        self.t_first = self.t_first.min(other.t_first);
        self.t_last = self.t_last.max(other.t_last);
        self.n_tuples += other.n_tuples;
        match (&mut self.tuples, other.tuples) {
            (Some(a), Some(b)) => a.extend(b),
            (None, None) => {}
            _ => unreachable!("tuple storage must be uniform across slices"),
        }
    }

    /// Splits the slice at `t`: `self` becomes `[start, t)` and the
    /// returned slice covers `[t, end)`.
    ///
    /// Fast paths (no recomputation, used by session windows): if `t` is
    /// beyond `t_last` all tuples stay left; if `t` is at or before
    /// `t_first` all tuples move right. Otherwise both aggregates are
    /// recomputed from stored tuples — the expensive operation the paper
    /// benchmarks in Figure 15.
    pub fn split(&mut self, f: &A, t: Time) -> Slice<A> {
        debug_assert!(
            t > self.range.start && t < self.range.end,
            "split point {t} must fall strictly inside {}",
            self.range
        );
        let right_range = Range::new(t, self.range.end);
        self.range.end = t;
        if t > self.t_last {
            // All tuples remain in the left part; right is empty.
            return Slice::new(right_range, self.tuples.is_some());
        }
        if t <= self.t_first {
            // All tuples move to the right part; left becomes empty.
            let mut right = Slice {
                range: right_range,
                t_first: self.t_first,
                t_last: self.t_last,
                n_tuples: self.n_tuples,
                agg: self.agg.take(),
                tuples: self.tuples.as_mut().map(std::mem::take),
            };
            // `tuples` of self must stay Some(vec![]) when storage is on.
            if right.tuples.is_none() && self.tuples.is_some() {
                right.tuples = Some(Vec::new());
            }
            self.t_first = TIME_MAX;
            self.t_last = TIME_MIN;
            self.n_tuples = 0;
            self.agg = None;
            return right;
        }
        // Genuine split through stored tuples: recompute both sides.
        let tuples =
            self.tuples.as_mut().expect("split through tuples requires stored tuples (Figure 4)");
        let pos = tuples.partition_point(|(ts, _)| *ts < t);
        let right_tuples: Vec<(Time, A::Input)> = tuples.split_off(pos);
        let mut right = Slice {
            range: right_range,
            t_first: TIME_MAX,
            t_last: TIME_MIN,
            n_tuples: 0,
            agg: None,
            tuples: Some(right_tuples),
        };
        self.recompute(f);
        right.recompute(f);
        right
    }

    /// Drops stored tuples (used when a query removal makes storage
    /// unnecessary). The aggregate is kept.
    pub(crate) fn drop_tuples(&mut self) {
        self.tuples = None;
    }

    /// Starts storing tuples. Only valid on empty slices: the operator
    /// refuses a query that would turn storage on over slices holding
    /// tuples it did not keep.
    pub(crate) fn enable_tuple_storage(&mut self) {
        debug_assert!(self.is_empty(), "cannot enable tuple storage retroactively");
        if self.tuples.is_none() {
            self.tuples = Some(Vec::new());
        }
    }
}

impl<A: AggregateFunction> HeapSize for Slice<A> {
    fn heap_bytes(&self) -> usize {
        self.agg.as_ref().map_or(0, |p| p.heap_bytes())
            + self.tuples.as_ref().map_or(0, |t| t.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{Concat, SumI64, SumNoInvert};

    /// A slice over `range` holding `tuples` (in order), written as one run.
    fn slice_with<A: AggregateFunction<Input = i64>>(
        f: &A,
        range: Range,
        keep: bool,
        tuples: &[(Time, i64)],
    ) -> Slice<A> {
        let mut s = Slice::new(range, keep);
        let (times, values): (Vec<Time>, Vec<i64>) = tuples.iter().copied().unzip();
        s.add_run_columns(f, &times, &values);
        s
    }

    /// Everything a write may change: the aggregate, the length, the
    /// tuple extent and the stored tuples.
    fn assert_same<A>(a: &Slice<A>, b: &Slice<A>)
    where
        A: AggregateFunction,
        A::Partial: PartialEq + std::fmt::Debug,
        A::Input: PartialEq + std::fmt::Debug,
    {
        assert_eq!(a.aggregate(), b.aggregate());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.t_first(), b.t_first());
        assert_eq!(a.t_last(), b.t_last());
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn empty_slice_has_no_aggregate() {
        let s: Slice<SumI64> = Slice::new(Range::new(0, 10), false);
        assert!(s.is_empty());
        assert!(s.aggregate().is_none());
        assert_eq!(s.t_first(), TIME_MAX);
        assert_eq!(s.t_last(), TIME_MIN);
    }

    #[test]
    fn in_order_adds_accumulate() {
        let f = SumI64;
        let s = slice_with(&f, Range::new(0, 10), false, &[(1, 5), (3, 7), (9, 1)]);
        assert_eq!(s.aggregate(), Some(&13));
        assert_eq!(s.len(), 3);
        assert_eq!(s.t_first(), 1);
        assert_eq!(s.t_last(), 9);
    }

    #[test]
    fn first_last_need_not_match_boundaries() {
        // Paper's own example: slice [1,10) with t_first=2, t_last=9.
        let f = SumI64;
        let s = slice_with(&f, Range::new(1, 10), false, &[(2, 1), (9, 1)]);
        assert_eq!(s.start(), 1);
        assert_eq!(s.end(), 10);
        assert_eq!(s.t_first(), 2);
        assert_eq!(s.t_last(), 9);
    }

    #[test]
    fn ooo_add_commutative_is_incremental() {
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 10), false, &[(2, 5), (8, 7)]);
        s.add_out_of_order_run(&f, &[(4, 100)]);
        assert_eq!(s.aggregate(), Some(&112));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ooo_add_non_commutative_recomputes_in_event_time_order() {
        let f = Concat;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(2, 20), (8, 80)]);
        s.add_out_of_order_run(&f, &[(4, 40)]);
        // Event-time order must be retained despite arrival order 20,80,40.
        assert_eq!(s.aggregate(), Some(&vec![20, 40, 80]));
    }

    #[test]
    fn late_run_of_one_lands_after_ties_and_a_shift_before_them() {
        let f = Concat;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(5, 1), (5, 2), (7, 4)]);
        // Same timestamp as two stored tuples, arrived later: after them.
        s.add_out_of_order_run(&f, &[(5, 3)]);
        assert_eq!(s.aggregate(), Some(&vec![1, 2, 3, 4]));
        assert_eq!(s.tuples(), Some(&[(5, 1), (5, 2), (5, 3), (7, 4)][..]));
        // A count shift comes from the predecessor slice: before them.
        s.add_shifted(&f, 5, 0);
        assert_eq!(s.aggregate(), Some(&vec![0, 1, 2, 3, 4]));
        assert_eq!(s.len(), 5);
        assert_eq!((s.t_first(), s.t_last()), (5, 7));
    }

    #[test]
    fn k_in_order_runs_of_one_equal_one_run_of_k() {
        fn check<A>(f: &A, keep: bool)
        where
            A: AggregateFunction<Input = i64>,
            A::Partial: PartialEq + std::fmt::Debug,
        {
            let run: Vec<(Time, i64)> = (0..40).map(|i| (i * 2, i * 3 + 1)).collect();
            let mut ones = Slice::new(Range::new(0, 100), keep);
            for &(ts, v) in &run {
                ones.add_run_columns(f, &[ts], &[v]);
            }
            assert_same(&ones, &slice_with(f, Range::new(0, 100), keep, &run));
        }
        for keep in [false, true] {
            check(&SumI64, keep);
            check(&Concat, keep);
        }
        // Empty columns are a no-op.
        let mut s: Slice<SumI64> = Slice::new(Range::new(0, 100), false);
        s.add_run_columns(&SumI64, &[], &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn k_late_runs_of_one_equal_one_run_of_k() {
        let stored = [(10, 1), (50, 5), (50, 6), (90, 9)];
        let run = [(5, 50), (10, 100), (10, 101), (50, 7), (55, 2), (95, 3)];
        for keep in [false, true] {
            let mut ones = slice_with(&SumI64, Range::new(0, 100), keep, &stored);
            let mut whole = ones.clone();
            for t in &run {
                ones.add_out_of_order_run(&SumI64, std::slice::from_ref(t));
            }
            whole.add_out_of_order_run(&SumI64, &run);
            assert_same(&ones, &whole);
        }
        // Non-commutative: the order of every tie shows in the aggregate.
        let mut ones = slice_with(&Concat, Range::new(0, 100), true, &stored);
        let mut whole = ones.clone();
        for t in &run {
            ones.add_out_of_order_run(&Concat, std::slice::from_ref(t));
        }
        whole.add_out_of_order_run(&Concat, &run);
        assert_same(&ones, &whole);
        assert_eq!(whole.aggregate(), Some(&vec![50, 1, 100, 101, 5, 6, 7, 2, 9, 3]));
    }

    #[test]
    fn ooo_run_appends_when_past_t_last() {
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 100), true, &[(10, 1), (20, 2)]);
        s.add_out_of_order_run(&f, &[(20, 200), (30, 3)]);
        // The tied (20, 200) lands after the stored (20, 2).
        assert_eq!(s.tuples(), Some(&[(10, 1), (20, 2), (20, 200), (30, 3)][..]));
        assert_eq!(s.aggregate(), Some(&206));
    }

    #[test]
    fn ooo_run_non_commutative_recomputes_in_event_time_order() {
        let f = Concat;
        let mut s = slice_with(&f, Range::new(0, 100), true, &[(20, 20), (80, 80)]);
        s.add_out_of_order_run(&f, &[(10, 10), (20, 21), (50, 50)]);
        // Event-time order with arrival-order ties: 21 follows the stored 20.
        assert_eq!(s.aggregate(), Some(&vec![10, 20, 21, 50, 80]));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn ooo_run_into_empty_slice() {
        let f = SumI64;
        let mut s: Slice<SumI64> = Slice::new(Range::new(0, 100), true);
        s.add_out_of_order_run(&f, &[(3, 3), (7, 7)]);
        assert_eq!(s.aggregate(), Some(&10));
        assert_eq!(s.t_first(), 3);
        assert_eq!(s.t_last(), 7);
        s.add_out_of_order_run(&f, &[]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_combines_aggregates_and_metadata() {
        let f = SumI64;
        let mut a = slice_with(&f, Range::new(0, 10), false, &[(1, 1), (9, 2)]);
        let b = slice_with(&f, Range::new(10, 20), false, &[(12, 10)]);
        a.merge(&f, b);
        assert_eq!(a.range(), Range::new(0, 20));
        assert_eq!(a.aggregate(), Some(&13));
        assert_eq!(a.len(), 3);
        assert_eq!(a.t_first(), 1);
        assert_eq!(a.t_last(), 12);
    }

    #[test]
    fn merge_with_empty_keeps_aggregate() {
        let f = SumI64;
        let mut a = slice_with(&f, Range::new(0, 10), false, &[(1, 7)]);
        let b: Slice<SumI64> = Slice::new(Range::new(10, 20), false);
        a.merge(&f, b);
        assert_eq!(a.aggregate(), Some(&7));
        assert_eq!(a.end(), 20);
    }

    #[test]
    fn merge_preserves_order_for_non_commutative() {
        let f = Concat;
        let mut a = slice_with(&f, Range::new(0, 10), true, &[(1, 1)]);
        let b = slice_with(&f, Range::new(10, 20), true, &[(11, 2)]);
        a.merge(&f, b);
        assert_eq!(a.aggregate(), Some(&vec![1, 2]));
    }

    #[test]
    fn split_through_tuples_recomputes_both_sides() {
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(1, 1), (4, 4), (8, 8)]);
        let right = s.split(&f, 5);
        assert_eq!(s.range(), Range::new(0, 5));
        assert_eq!(right.range(), Range::new(5, 10));
        assert_eq!(s.aggregate(), Some(&5));
        assert_eq!(right.aggregate(), Some(&8));
        assert_eq!(s.len(), 2);
        assert_eq!(right.len(), 1);
    }

    #[test]
    fn split_at_tuple_timestamp_puts_tuple_right() {
        // Windows are [start, end): a tuple exactly at the split point
        // belongs to the right slice.
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(2, 2), (5, 5)]);
        let right = s.split(&f, 5);
        assert_eq!(s.aggregate(), Some(&2));
        assert_eq!(right.aggregate(), Some(&5));
    }

    #[test]
    fn split_after_last_tuple_is_free_even_without_stored_tuples() {
        // The session-window fast path: no recomputation, works on
        // aggregate-only slices.
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 10), false, &[(1, 1), (3, 3)]);
        let right = s.split(&f, 7);
        assert_eq!(s.aggregate(), Some(&4));
        assert!(right.is_empty());
        assert_eq!(right.range(), Range::new(7, 10));
    }

    #[test]
    fn split_before_first_tuple_moves_everything_right() {
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(6, 6), (8, 8)]);
        let right = s.split(&f, 4);
        assert!(s.is_empty());
        assert_eq!(s.aggregate(), None);
        assert_eq!(right.aggregate(), Some(&14));
        assert_eq!(right.len(), 2);
        assert!(right.keeps_tuples());
        assert!(s.keeps_tuples());
    }

    #[test]
    fn remove_last_with_invert_is_incremental() {
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(1, 1), (4, 4), (8, 8)]);
        let removed = s.remove_last(&f);
        assert_eq!(removed, Some((8, 8)));
        assert_eq!(s.aggregate(), Some(&5));
        assert_eq!(s.t_last(), 4);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_last_without_invert_recomputes() {
        let f = SumNoInvert;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(1, 1), (4, 4), (8, 8)]);
        assert_eq!(s.remove_last(&f), Some((8, 8)));
        assert_eq!(s.aggregate(), Some(&5));
    }

    #[test]
    fn remove_last_empties_slice() {
        let f = SumI64;
        let mut s = slice_with(&f, Range::new(0, 10), true, &[(1, 1)]);
        assert_eq!(s.remove_last(&f), Some((1, 1)));
        assert!(s.is_empty());
        assert!(s.aggregate().is_none());
        assert_eq!(s.remove_last(&f), None);
    }

    #[test]
    fn heap_size_reflects_tuple_storage() {
        let f = SumI64;
        let no_tuples = slice_with(&f, Range::new(0, 10), false, &[(1, 1), (2, 2)]);
        let with_tuples = slice_with(&f, Range::new(0, 10), true, &[(1, 1), (2, 2)]);
        assert!(with_tuples.heap_bytes() > no_tuples.heap_bytes());
    }
}
