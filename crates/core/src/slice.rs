//! Slices and the three fundamental slice operations (paper Section 5.2).
//!
//! A slice is a non-overlapping chunk of the stream: its time range, the
//! times of its first and last tuple, a partial aggregate and — only when
//! the workload requires it (Figure 4) — its source tuples. The store keeps
//! these as columns (`SliceGeometry` for the times and counts, one column
//! of partials, one of tuples while the plan keeps them, a slice's count
//! after its predecessors'); a [`Slice`] is a view of one position in
//! them. The three operations — **merge**,
//! **split** and **update** — are the store's, and workload
//! characteristics decide what each costs and how often it runs.

use crate::function::AggregateFunction;
use crate::geometry::{Column, Extent};
use crate::time::{Range, Time, TIME_MAX, TIME_MIN};

/// One slice of a store, borrowed: `[t_start, t_end)`, its tuple extent,
/// its partial aggregate and, if kept, its tuples.
///
/// Per the paper, the first and last tuple's timestamps need not coincide
/// with the slice boundaries (a slice `[1, 10)` may contain tuples only in
/// `[2, 9]`).
pub struct Slice<'a, A: AggregateFunction> {
    pub(crate) range: Range,
    pub(crate) extent: Extent,
    pub(crate) aggregate: Option<&'a A::Partial>,
    pub(crate) tuples: Option<&'a [(Time, A::Input)]>,
}

impl<'a, A: AggregateFunction> Slice<'a, A> {
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

    /// Timestamp of the first (earliest) contained tuple; `TIME_MAX` if
    /// empty.
    #[inline]
    pub fn t_first(&self) -> Time {
        self.extent.t_first
    }

    /// Timestamp of the last (latest) contained tuple; `TIME_MIN` if empty.
    #[inline]
    pub fn t_last(&self) -> Time {
        self.extent.t_last
    }

    /// Number of contained tuples (drives the count measure).
    #[inline]
    pub fn len(&self) -> usize {
        self.extent.count
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.extent.count == 0
    }

    /// The partial aggregate (event-time order), `None` for empty slices.
    #[inline]
    pub fn aggregate(&self) -> Option<&'a A::Partial> {
        self.aggregate
    }

    /// The stored tuples, sorted by timestamp (ties in arrival order), if
    /// kept.
    pub fn tuples(&self) -> Option<&'a [(Time, A::Input)]> {
        self.tuples
    }
}

/// The extent of `tuples`, sorted by time.
pub(crate) fn extent_of<V>(tuples: &[(Time, V)]) -> Extent {
    Extent {
        count: tuples.len(),
        t_first: tuples.first().map_or(TIME_MAX, |t| t.0),
        t_last: tuples.last().map_or(TIME_MIN, |t| t.0),
    }
}

/// Merges the sorted late `run` into one slice's sorted `column[lo..hi]`
/// from the back, a stored block at a time: each run tuple lands *after*
/// stored tuples with an equal timestamp, keeping arrival-order ties
/// (paper Section 5.2, Update). Each later and each stored tuple moves
/// once, so a run of `k` costs `O(n + k)` moves.
pub(crate) fn merge_late_run<V: Clone>(
    column: &mut Column<(Time, V)>,
    lo: usize,
    hi: usize,
    run: &[(Time, V)],
) {
    // Free slots at `[hi, hi + k)`. Before run tuple `j` lands, `[lo, i)`
    // holds the stored tuples not moved yet and `[i, i + j]` the free slots.
    column.insert_run(hi, run);
    let mut i = hi;
    for (j, t) in run.iter().enumerate().rev() {
        let p = lo + column[lo..i].partition_point(|s| s.0 <= t.0);
        let (block, free) = (i - p, j + 1);
        let span = &mut column[p..i + free];
        if block <= free {
            // Swap with the top free slots: a rotation would move every
            // free slot again, `O(k²)` over a long run.
            let (low, high) = span.split_at_mut(free);
            low[..block].swap_with_slice(high);
        } else {
            span.rotate_right(free);
        }
        column[p + j] = t.clone();
        i = p;
    }
}

#[cfg(test)]
mod tests {
    use crate::function::AggregateFunction;
    use crate::mem::HeapSize;
    use crate::store::{SliceStore, StorePolicy};
    use crate::testsupport::{Concat, SumI64, SumNoInvert};
    use crate::time::{Range, Time, TIME_MAX, TIME_MIN};

    /// A store whose one slice covers `range` and holds `tuples` (in
    /// order), written as one run.
    fn slice_with<A: AggregateFunction<Input = i64>>(
        f: A,
        range: Range,
        keep: bool,
        tuples: &[(Time, i64)],
    ) -> SliceStore<A> {
        let mut st = SliceStore::new(f, StorePolicy::Lazy, keep);
        st.append_slice(range);
        let (times, values): (Vec<Time>, Vec<i64>) = tuples.iter().copied().unzip();
        st.add_in_order_run_columns(&times, &values);
        st
    }

    /// Everything a write may change on slice `i`: the aggregate, the
    /// length, the tuple extent and the stored tuples.
    fn assert_same<A>(a: &SliceStore<A>, b: &SliceStore<A>, i: usize)
    where
        A: AggregateFunction,
        A::Partial: PartialEq + std::fmt::Debug,
        A::Input: PartialEq + std::fmt::Debug,
    {
        let (a, b) = (a.slice(i), b.slice(i));
        assert_eq!(a.aggregate(), b.aggregate());
        assert_eq!(a.len(), b.len());
        assert_eq!((a.t_first(), a.t_last()), (b.t_first(), b.t_last()));
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn empty_slice_has_no_aggregate() {
        let st = slice_with(SumI64, Range::new(0, 10), false, &[]);
        let s = st.slice(0);
        assert!(s.is_empty());
        assert!(s.aggregate().is_none());
        assert_eq!((s.t_first(), s.t_last()), (TIME_MAX, TIME_MIN));
    }

    #[test]
    fn in_order_adds_accumulate() {
        let st = slice_with(SumI64, Range::new(0, 10), false, &[(1, 5), (3, 7), (9, 1)]);
        let s = st.slice(0);
        assert_eq!(s.aggregate(), Some(&13));
        assert_eq!(s.len(), 3);
        assert_eq!((s.t_first(), s.t_last()), (1, 9));
    }

    #[test]
    fn first_last_need_not_match_boundaries() {
        // Paper's own example: slice [1,10) with t_first=2, t_last=9.
        let st = slice_with(SumI64, Range::new(1, 10), false, &[(2, 1), (9, 1)]);
        let s = st.slice(0);
        assert_eq!((s.start(), s.end()), (1, 10));
        assert_eq!((s.t_first(), s.t_last()), (2, 9));
    }

    #[test]
    fn ooo_add_commutative_is_incremental() {
        let mut st = slice_with(SumI64, Range::new(0, 10), false, &[(2, 5), (8, 7)]);
        st.add_out_of_order_run(0, &[(4, 100)]);
        assert_eq!(st.slice(0).aggregate(), Some(&112));
        assert_eq!(st.slice(0).len(), 3);
    }

    #[test]
    fn ooo_add_non_commutative_recomputes_in_event_time_order() {
        let mut st = slice_with(Concat, Range::new(0, 10), true, &[(2, 20), (8, 80)]);
        st.add_out_of_order_run(0, &[(4, 40)]);
        // Event-time order must be retained despite arrival order 20,80,40.
        assert_eq!(st.slice(0).aggregate(), Some(&vec![20, 40, 80]));
    }

    #[test]
    fn late_run_of_one_lands_after_ties_and_a_shift_before_them() {
        let mut st = slice_with(Concat, Range::new(0, 5), true, &[(4, 0)]);
        st.append_slice(Range::new(5, 10));
        st.add_in_order_run_columns(&[5, 5, 7], &[1, 2, 4]);
        // Same timestamp as two stored tuples, arrived later: after them.
        st.add_out_of_order_run(1, &[(5, 3)]);
        assert_eq!(st.slice(1).aggregate(), Some(&vec![1, 2, 3, 4]));
        assert_eq!(st.slice(1).tuples(), Some(&[(5, 1), (5, 2), (5, 3), (7, 4)][..]));
        // A count shift comes from the predecessor slice: before them,
        // even when tied with them.
        st.add_out_of_order_run(0, &[(5, -1)]);
        assert_eq!(st.add_out_of_order_counted(3, 9), 1);
        assert_eq!(st.slice(1).aggregate(), Some(&vec![-1, 1, 2, 3, 4]));
        assert_eq!(st.slice(1).len(), 5);
        assert_eq!((st.slice(1).t_first(), st.slice(1).t_last()), (5, 7));
        assert_eq!(st.slice(0).aggregate(), Some(&vec![9, 0]));
    }

    #[test]
    fn k_in_order_runs_of_one_equal_one_run_of_k() {
        fn check<A>(f: A, keep: bool)
        where
            A: AggregateFunction<Input = i64>,
            A::Partial: PartialEq + std::fmt::Debug,
        {
            let run: Vec<(Time, i64)> = (0..40).map(|i| (i * 2, i * 3 + 1)).collect();
            let mut ones = slice_with(f.clone(), Range::new(0, 100), keep, &[]);
            for &(ts, v) in &run {
                ones.add_in_order_run_columns(&[ts], &[v]);
            }
            assert_same(&ones, &slice_with(f, Range::new(0, 100), keep, &run), 0);
        }
        for keep in [false, true] {
            check(SumI64, keep);
            check(Concat, keep);
        }
        // Empty columns are a no-op, and so is a run into a store without
        // an open slice.
        let mut st = slice_with(SumI64, Range::new(0, 100), false, &[]);
        st.add_in_order_run_columns(&[], &[]);
        assert!(st.slice(0).is_empty());
        let mut none = SliceStore::new(SumI64, StorePolicy::Lazy, false);
        none.add_in_order_run_columns(&[3], &[3]);
        assert_eq!((none.len(), none.total_count()), (0, 0));
    }

    #[test]
    fn k_late_runs_of_one_equal_one_run_of_k() {
        let stored = [(10, 1), (50, 5), (50, 6), (90, 9)];
        let run = [(5, 50), (10, 100), (10, 101), (50, 7), (55, 2), (95, 3)];
        for keep in [false, true] {
            let mut ones = slice_with(SumI64, Range::new(0, 100), keep, &stored);
            let mut whole = ones.clone();
            for t in &run {
                ones.add_out_of_order_run(0, std::slice::from_ref(t));
            }
            whole.add_out_of_order_run(0, &run);
            assert_same(&ones, &whole, 0);
        }
        // Non-commutative: the order of every tie shows in the aggregate.
        let mut ones = slice_with(Concat, Range::new(0, 100), true, &stored);
        let mut whole = ones.clone();
        for t in &run {
            ones.add_out_of_order_run(0, std::slice::from_ref(t));
        }
        whole.add_out_of_order_run(0, &run);
        assert_same(&ones, &whole, 0);
        assert_eq!(whole.slice(0).aggregate(), Some(&vec![50, 1, 100, 101, 5, 6, 7, 2, 9, 3]));
    }

    #[test]
    fn ooo_run_appends_when_past_t_last() {
        let mut st = slice_with(SumI64, Range::new(0, 100), true, &[(10, 1), (20, 2)]);
        st.add_out_of_order_run(0, &[(20, 200), (30, 3)]);
        // The tied (20, 200) lands after the stored (20, 2).
        assert_eq!(st.slice(0).tuples(), Some(&[(10, 1), (20, 2), (20, 200), (30, 3)][..]));
        assert_eq!(st.slice(0).aggregate(), Some(&206));
    }

    #[test]
    fn ooo_run_non_commutative_recomputes_in_event_time_order() {
        let mut st = slice_with(Concat, Range::new(0, 100), true, &[(20, 20), (80, 80)]);
        st.add_out_of_order_run(0, &[(10, 10), (20, 21), (50, 50)]);
        // Event-time order with arrival-order ties: 21 follows the stored 20.
        assert_eq!(st.slice(0).aggregate(), Some(&vec![10, 20, 21, 50, 80]));
        assert_eq!(st.slice(0).len(), 5);
    }

    #[test]
    fn ooo_run_into_empty_slice() {
        let mut st = slice_with(SumI64, Range::new(0, 100), true, &[]);
        st.add_out_of_order_run(0, &[(3, 3), (7, 7)]);
        assert_eq!(st.slice(0).aggregate(), Some(&10));
        assert_eq!((st.slice(0).t_first(), st.slice(0).t_last()), (3, 7));
        st.add_out_of_order_run(0, &[]);
        assert_eq!(st.slice(0).len(), 2);
    }

    /// Slices `[0, 10)` and `[10, 20)` holding `left` and `right`.
    fn two<A: AggregateFunction<Input = i64>>(
        f: A,
        keep: bool,
        left: &[(Time, i64)],
        right: &[(Time, i64)],
    ) -> SliceStore<A> {
        let mut st = slice_with(f, Range::new(0, 10), keep, left);
        st.append_slice(Range::new(10, 20));
        let (times, values): (Vec<Time>, Vec<i64>) = right.iter().copied().unzip();
        st.add_in_order_run_columns(&times, &values);
        st
    }

    #[test]
    fn merge_combines_aggregates_and_metadata() {
        let mut st = two(SumI64, false, &[(1, 1), (9, 2)], &[(12, 10)]);
        assert!(st.merge_at(10));
        let s = st.slice(0);
        assert_eq!(s.range(), Range::new(0, 20));
        assert_eq!(s.aggregate(), Some(&13));
        assert_eq!(s.len(), 3);
        assert_eq!((s.t_first(), s.t_last()), (1, 12));
    }

    #[test]
    fn merge_with_empty_keeps_aggregate() {
        let mut st = two(SumI64, false, &[(1, 7)], &[]);
        assert!(st.merge_at(10));
        assert_eq!(st.slice(0).aggregate(), Some(&7));
        assert_eq!(st.slice(0).end(), 20);
    }

    #[test]
    fn merge_preserves_order_for_non_commutative() {
        let mut st = two(Concat, true, &[(1, 1)], &[(11, 2)]);
        assert!(st.merge_at(10));
        assert_eq!(st.slice(0).aggregate(), Some(&vec![1, 2]));
        assert_eq!(st.slice(0).tuples(), Some(&[(1, 1), (11, 2)][..]));
    }

    #[test]
    fn split_through_tuples_recomputes_both_sides() {
        let mut st = slice_with(SumI64, Range::new(0, 10), true, &[(1, 1), (4, 4), (8, 8)]);
        assert!(st.split_at(5));
        let (l, r) = (st.slice(0), st.slice(1));
        assert_eq!((l.range(), r.range()), (Range::new(0, 5), Range::new(5, 10)));
        assert_eq!((l.aggregate(), r.aggregate()), (Some(&5), Some(&8)));
        assert_eq!((l.len(), r.len()), (2, 1));
        assert_eq!((l.t_last(), r.t_first()), (4, 8));
    }

    #[test]
    fn split_at_tuple_timestamp_puts_tuple_right() {
        // Windows are [start, end): a tuple exactly at the split point
        // belongs to the right slice.
        let mut st = slice_with(SumI64, Range::new(0, 10), true, &[(2, 2), (5, 5)]);
        assert!(st.split_at(5));
        assert_eq!((st.slice(0).aggregate(), st.slice(1).aggregate()), (Some(&2), Some(&5)));
    }

    #[test]
    fn split_after_last_tuple_is_free_even_without_stored_tuples() {
        // The session-window fast path: no recomputation, works on
        // aggregate-only slices.
        let mut st = slice_with(SumI64, Range::new(0, 10), false, &[(1, 1), (3, 3)]);
        assert!(st.split_at(7));
        assert_eq!(st.slice(0).aggregate(), Some(&4));
        assert!(st.slice(1).is_empty());
        assert_eq!(st.slice(1).range(), Range::new(7, 10));
    }

    #[test]
    fn split_before_first_tuple_moves_everything_right() {
        for keep in [false, true] {
            let mut st = slice_with(SumI64, Range::new(0, 10), keep, &[(6, 6), (8, 8)]);
            assert!(st.split_at(4));
            assert!(st.slice(0).is_empty());
            assert_eq!(st.slice(0).aggregate(), None);
            assert_eq!(st.slice(1).aggregate(), Some(&14));
            assert_eq!(st.slice(1).len(), 2);
            assert_eq!(st.slice(1).tuples().map(<[_]>::len), keep.then_some(2));
            assert_eq!(st.slice(0).tuples().map(<[_]>::len), keep.then_some(0));
        }
    }

    #[test]
    fn split_among_tuples_not_kept_is_refused() {
        // Figure 4 keeps tuples wherever a split can fall among them; a
        // split that would need tuples the store dropped does nothing.
        let mut st = slice_with(SumI64, Range::new(0, 10), false, &[(2, 2), (8, 8)]);
        assert!(!st.split_at(5));
        assert_eq!(st.len(), 1);
        assert_eq!(st.slice(0).aggregate(), Some(&10));
    }

    #[test]
    fn shift_with_invert_is_incremental() {
        let mut st = two(SumI64, true, &[(1, 1), (4, 4), (8, 8)], &[(12, 12)]);
        assert_eq!(st.add_out_of_order_counted(0, 100), 1);
        assert_eq!(st.slice(0).aggregate(), Some(&105));
        assert_eq!((st.slice(0).t_last(), st.slice(0).len()), (4, 3));
        assert_eq!(st.slice(1).aggregate(), Some(&20));
        assert_eq!(st.slice(1).t_first(), 8);
    }

    #[test]
    fn shift_without_invert_recomputes() {
        let mut st = two(SumNoInvert, true, &[(1, 1), (4, 4), (8, 8)], &[]);
        assert_eq!(st.add_out_of_order_counted(0, 100), 1);
        assert_eq!(st.slice(0).aggregate(), Some(&105));
        assert_eq!(st.slice(1).aggregate(), Some(&8));
    }

    #[test]
    fn shift_passes_through_an_empty_slice() {
        let mut st = two(SumI64, true, &[(1, 1)], &[]);
        st.append_slice(Range::new(20, 30));
        // Slice 1 takes (1, 1) and passes it on: it stays empty.
        assert_eq!(st.add_out_of_order_counted(0, 5), 2);
        let s = st.slice(1);
        assert!(s.is_empty() && s.aggregate().is_none());
        assert_eq!((s.t_first(), s.t_last()), (TIME_MAX, TIME_MIN));
        assert_eq!((st.slice(0).aggregate(), st.slice(2).aggregate()), (Some(&5), Some(&1)));
        // No tuple column, no count order: nothing is written.
        let mut dropped = two(SumI64, false, &[(1, 1)], &[]);
        assert_eq!(dropped.add_out_of_order_counted(0, 5), 0);
        assert_eq!(dropped.total_count(), 1);
    }

    #[test]
    fn heap_size_reflects_tuple_storage() {
        let no_tuples = slice_with(SumI64, Range::new(0, 10), false, &[(1, 1), (2, 2)]);
        let with_tuples = slice_with(SumI64, Range::new(0, 10), true, &[(1, 1), (2, 2)]);
        assert!(with_tuples.heap_bytes() > no_tuples.heap_bytes());
    }
}
