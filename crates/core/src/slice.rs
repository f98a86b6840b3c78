//! Slices and the three fundamental slice operations (paper Section 5.2).
//!
//! A slice is a non-overlapping chunk of the stream holding a partial
//! aggregate and — only when the workload requires it (Figure 4) — its
//! source tuples. The three operations are **merge**, **split**, and
//! **update**; workload characteristics determine what each costs and how
//! often it runs.

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

    /// Adds an in-order tuple (`ts >= t_last`) with one incremental ⊕ step.
    pub fn add_in_order(&mut self, f: &A, ts: Time, value: A::Input) {
        debug_assert!(ts >= self.t_last || self.is_empty(), "tuple {ts} not in order");
        debug_assert!(self.range.contains(ts), "tuple {ts} outside slice {}", self.range);
        let lifted = f.lift(&value);
        self.agg = Some(match self.agg.take() {
            None => lifted,
            Some(a) => f.combine(a, &lifted),
        });
        self.t_first = self.t_first.min(ts);
        self.t_last = self.t_last.max(ts);
        self.n_tuples += 1;
        if let Some(tuples) = &mut self.tuples {
            tuples.push((ts, value));
        }
    }

    /// Adds a run of in-order tuples, given as parallel `times` / `values`
    /// columns, in one step. The caller guarantees the run is
    /// non-decreasing in timestamp, starts at or after `t_last`, lies
    /// inside the slice range, and that the columns are equally long. The
    /// contiguous values column is folded left-to-right into one partial
    /// by [`AggregateFunction::fold_slice`], which is combined into the
    /// slice aggregate with a single ⊕: by
    /// associativity this equals adding the tuples one by one, including
    /// for non-commutative functions (event-time order is preserved).
    pub(crate) fn add_run_columns(&mut self, f: &A, times: &[Time], values: &[A::Input]) {
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

    /// Adds an out-of-order tuple. For commutative functions the aggregate
    /// is updated with one incremental ⊕ step; for non-commutative
    /// functions the aggregate is recomputed from the stored tuples to
    /// retain the order of aggregation steps (paper Section 5.2, Update).
    pub(crate) fn add_out_of_order(&mut self, f: &A, ts: Time, value: A::Input) {
        // Note: no range assertion here — count-delimited slices (Figure 6
        // shifts) legitimately receive tuples before their nominal start.
        let commutative = f.properties().commutative;
        if let Some(tuples) = &mut self.tuples {
            // Stable insert: after existing tuples with the same timestamp.
            let pos = tuples.partition_point(|(t, _)| *t <= ts);
            tuples.insert(pos, (ts, value.clone()));
        } else {
            debug_assert!(
                commutative,
                "non-commutative out-of-order insert requires stored tuples (Figure 4)"
            );
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

    /// Adds a sorted run of out-of-order tuples in one step (the batched
    /// out-of-order fast path). The caller guarantees the run is
    /// non-decreasing in timestamp; nothing else is assumed — tuples may
    /// fall anywhere relative to the stored ones. Equivalent to calling
    /// [`Slice::add_out_of_order`] once per tuple in run order: stored
    /// tuples are merged in one `O(n + k)` pass (each run tuple lands
    /// *after* existing equal-timestamp tuples, preserving arrival-order
    /// ties), and for commutative functions the run folds into one lifted
    /// partial combined with a single ⊕ instead of k separate ⊕ steps.
    /// Non-commutative functions recompute once instead of k times.
    pub(crate) fn add_out_of_order_run(&mut self, f: &A, run: &[(Time, A::Input)]) {
        let (Some(&(first_ts, _)), Some(&(last_ts, _))) = (run.first(), run.last()) else {
            return;
        };
        debug_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "run not sorted");
        let commutative = f.properties().commutative;
        if let Some(tuples) = &mut self.tuples {
            if first_ts >= self.t_last {
                // The whole run follows every stored tuple (ties included:
                // equal timestamps append after, matching the per-tuple
                // stable insert).
                tuples.extend_from_slice(run);
            } else {
                // One merge pass; run tuples go after stored equal-ts ones.
                let mut merged = Vec::with_capacity(tuples.len() + run.len());
                let mut it = run.iter();
                let mut next = it.next();
                for old in tuples.drain(..) {
                    while let Some(&(ts, ref v)) = next {
                        if ts < old.0 {
                            merged.push((ts, v.clone()));
                            next = it.next();
                        } else {
                            break;
                        }
                    }
                    merged.push(old);
                }
                while let Some(&(ts, ref v)) = next {
                    merged.push((ts, v.clone()));
                    next = it.next();
                }
                *tuples = merged;
            }
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

    /// Adds a tuple moved here by the count shift (Figure 6). Unlike
    /// [`Slice::add_out_of_order`], the tuple is inserted *before* any
    /// stored tuple with an equal timestamp: it comes from the predecessor
    /// slice, so its count position precedes everything already here.
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
            return Slice::new_with_storage(right_range, self.tuples.is_some());
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

    fn new_with_storage(range: Range, keep_tuples: bool) -> Self {
        Slice::new(range, keep_tuples)
    }

    /// Drops stored tuples (used when a query removal makes storage
    /// unnecessary). The aggregate is kept.
    pub(crate) fn drop_tuples(&mut self) {
        self.tuples = None;
    }

    /// Starts storing tuples from now on. Only valid on slices that are
    /// still empty — the paper's adaptivity re-derives the decision when
    /// queries change, and new slices pick up the new policy.
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

    fn slice_with(f: &SumI64, range: Range, keep: bool, tuples: &[(Time, i64)]) -> Slice<SumI64> {
        let mut s = Slice::new(range, keep);
        for (ts, v) in tuples {
            s.add_in_order(f, *ts, *v);
        }
        s
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
        s.add_out_of_order(&f, 4, 100);
        assert_eq!(s.aggregate(), Some(&112));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ooo_add_non_commutative_recomputes_in_event_time_order() {
        let f = Concat;
        let mut s: Slice<Concat> = Slice::new(Range::new(0, 10), true);
        s.add_in_order(&f, 2, 20);
        s.add_in_order(&f, 8, 80);
        s.add_out_of_order(&f, 4, 40);
        // Event-time order must be retained despite arrival order 20,80,40.
        assert_eq!(s.aggregate(), Some(&vec![20, 40, 80]));
    }

    #[test]
    fn ooo_tie_breaks_by_arrival_order() {
        let f = Concat;
        let mut s: Slice<Concat> = Slice::new(Range::new(0, 10), true);
        s.add_in_order(&f, 5, 1);
        s.add_in_order(&f, 7, 3);
        s.add_out_of_order(&f, 5, 2); // same ts as first tuple, arrived later
        assert_eq!(s.aggregate(), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn columnar_run_matches_tuple_run() {
        let f = SumI64;
        for keep in [false, true] {
            let run: Vec<(Time, i64)> = (0..40).map(|i| (i * 2, i * 3 + 1)).collect();
            let (times, values): (Vec<Time>, Vec<i64>) = run.iter().copied().unzip();
            let mut a: Slice<SumI64> = Slice::new(Range::new(0, 100), keep);
            let mut b = a.clone();
            for &(ts, v) in &run {
                a.add_in_order(&f, ts, v);
            }
            b.add_run_columns(&f, &times, &values);
            assert_eq!(a.aggregate(), b.aggregate());
            assert_eq!(a.len(), b.len());
            assert_eq!(a.t_first(), b.t_first());
            assert_eq!(a.t_last(), b.t_last());
            assert_eq!(a.tuples(), b.tuples());
        }
        // Empty columns are a no-op.
        let mut s: Slice<SumI64> = Slice::new(Range::new(0, 100), false);
        s.add_run_columns(&f, &[], &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn ooo_run_matches_per_tuple_adds() {
        let f = SumI64;
        for keep in [false, true] {
            let mut a = slice_with(&f, Range::new(0, 100), keep, &[(10, 1), (50, 5), (90, 9)]);
            let mut b = a.clone();
            let run = [(5, 50), (10, 100), (10, 101), (55, 2), (95, 3)];
            for (ts, v) in run {
                a.add_out_of_order(&f, ts, v);
            }
            b.add_out_of_order_run(&f, &run);
            assert_eq!(a.aggregate(), b.aggregate());
            assert_eq!(a.len(), b.len());
            assert_eq!(a.t_first(), b.t_first());
            assert_eq!(a.t_last(), b.t_last());
            assert_eq!(a.tuples(), b.tuples());
        }
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
        let mut s: Slice<Concat> = Slice::new(Range::new(0, 100), true);
        s.add_in_order(&f, 20, 20);
        s.add_in_order(&f, 80, 80);
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
        let mut a: Slice<Concat> = Slice::new(Range::new(0, 10), true);
        a.add_in_order(&f, 1, 1);
        let mut b: Slice<Concat> = Slice::new(Range::new(10, 20), true);
        b.add_in_order(&f, 11, 2);
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
        let mut s: Slice<SumNoInvert> = Slice::new(Range::new(0, 10), true);
        s.add_in_order(&f, 1, 1);
        s.add_in_order(&f, 4, 4);
        s.add_in_order(&f, 8, 8);
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
