//! The Aggregate Store (paper Figure 7): the shared data structure holding
//! slices, accessed by the stream slicer (to create slices), the slice
//! manager (to update them), and the window manager (to compute window
//! aggregates).
//!
//! A store is a `SliceGeometry` (where every slice lies, compiled once for
//! every aggregate) plus columns that follow it: the partials, and the
//! tuples, in one column that split, merge and the count shift never move,
//! while the `SlicePlan` keeps them. Only the fold and the write of a
//! partial are generic; the plan decides the rest (Figures 4–6).
//!
//! The store comes in the paper's two forms (Section 3.4, Table 1 rows
//! 5–8): the **lazy** store keeps only the columns and combines partials
//! on demand; the **eager** store also keeps a [`FlatFat`] over the
//! partials for `O(log s)` window queries (Figure 11), written through at
//! every leaf write.
//!
//! A slice changes through one store entry per kind of change, and one
//! tuple is a run of one: an in-order run into the open slice, a sorted
//! late run, a pre-folded late partial, and a late tuple in count order
//! with its Figure-6 shift.
//!
//! A trigger sweep's windows arrive as runs (a periodic query's due
//! windows, one slide apart) and are resolved to slice ranges at each
//! run's two ends; when they all contain one slice boundary they are
//! answered from one suffix and one prefix scan around it, otherwise one
//! by one. Either way a window's slices are its predecessor's stepped one
//! slice on, checked with two compares per edge.

use std::collections::VecDeque;

use crate::cast;
use crate::characteristics::SlicePlan;
use crate::flatfat::FlatFat;
use crate::function::{is_holistic, AggregateFunction};
use crate::geometry::{Column, Extent, RunBounds, SliceGeometry, SweepPlan};
use crate::mem::HeapSize;
use crate::slice::{extent_of, merge_late_run, Slice};
use crate::time::{Range, Time};
use crate::window::WindowRun;

/// Lazy vs. eager final aggregation (paper Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorePolicy {
    /// Store slices only; combine on demand when windows end.
    Lazy,
    /// Maintain a dense FlatFAT aggregate tree over slices for
    /// low-latency output.
    Eager,
    /// The lazy store under another name, kept while `benchmark/` names
    /// it; removed with the benchmark revision (ROADMAP.md item 4).
    FingerTree,
}

/// Ranges at most this many slices long are answered by folding the
/// partial column sequentially instead of consulting the FlatFAT: a
/// handful of sequential combines beats a descent over the tree's levels,
/// while past the cutoff an `O(log n)` visit beats `O(n)` combines.
pub(crate) const INDEX_SCAN_CUTOFF: usize = 32;

/// An ordered collection of slices: their geometry, their partials, their
/// tuples while the plan keeps them, and an optional eager index.
#[derive(Clone)]
pub struct SliceStore<A: AggregateFunction> {
    f: A,
    geometry: SliceGeometry,
    /// Slice `i`'s partial aggregate in event-time order; `None` iff the
    /// slice holds no tuple.
    partials: VecDeque<Option<A::Partial>>,
    /// Present iff the plan keeps tuples (Figure 4), sorted by time (ties
    /// in arrival order): slice `i`'s count of them after slices `0..i`'s.
    tuples: Option<Column<(Time, A::Input)>>,
    plan: SlicePlan,
    /// Holistic partials are never copied into a shared scan.
    holistic: bool,
    /// The eager store's FlatFAT: leaf `i` mirrors `partials[i]`. `None`
    /// in the lazy store.
    index: Option<FlatFat<A>>,
}

impl<A: AggregateFunction> SliceStore<A> {
    /// A store used on its own: it keeps tuples iff `keep_tuples`, and its
    /// writes do whatever `f` allows (an operator passes its plan instead).
    pub fn new(f: A, policy: StorePolicy, keep_tuples: bool) -> Self {
        let plan = SlicePlan::standalone(&f, keep_tuples);
        Self::with_plan(f, policy, plan)
    }

    pub(crate) fn with_plan(f: A, policy: StorePolicy, plan: SlicePlan) -> Self {
        let index = match policy {
            StorePolicy::Lazy | StorePolicy::FingerTree => None,
            StorePolicy::Eager => Some(FlatFat::new(f.clone())),
        };
        SliceStore {
            holistic: is_holistic(&f),
            f,
            geometry: SliceGeometry::default(),
            partials: VecDeque::new(),
            tuples: plan.keep_tuples.then(Column::default),
            plan,
            index,
        }
    }

    /// Number of slices currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.geometry.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the slices lie: the time-only side of the store.
    #[inline]
    pub(crate) fn geometry(&self) -> &SliceGeometry {
        &self.geometry
    }

    /// The Figure 4–6 decisions the store's writes follow.
    #[inline]
    pub(crate) fn plan(&self) -> &SlicePlan {
        &self.plan
    }

    /// Whether slices store their source tuples (Figure-4 decision).
    #[inline]
    pub fn keeps_tuples(&self) -> bool {
        self.tuples.is_some()
    }

    /// Adopts the plan of a changed query set (the paper's query-add/remove
    /// adaptivity). When it stops keeping tuples, the tuple column goes;
    /// when it starts, every slice must be empty (the operator refuses a
    /// query that would turn storage on over tuples it did not keep).
    pub(crate) fn set_plan(&mut self, plan: SlicePlan) {
        if plan.keep_tuples != self.keeps_tuples() {
            debug_assert!(
                !plan.keep_tuples || self.slices().all(|s| s.is_empty()),
                "tuple storage cannot start over tuples it did not keep"
            );
            self.tuples = plan.keep_tuples.then(Column::default);
        }
        self.plan = plan;
    }

    pub fn slice(&self, i: usize) -> Slice<'_, A> {
        Slice {
            range: Range::new(self.geometry.start(i), self.geometry.end(i)),
            extent: self.geometry.extent(i),
            aggregate: self.partials[i].as_ref(),
            tuples: self.tuples.as_deref().zip(self.tuple_range(i)).map(|(t, r)| &t[r]),
        }
    }

    pub fn slices(&self) -> impl Iterator<Item = Slice<'_, A>> {
        (0..self.len()).map(|i| self.slice(i))
    }

    /// Where slice `i`'s tuples lie in the column, if kept: counted back
    /// over the later slices, whose tuples a write into slice `i` moves.
    fn tuple_range(&self, i: usize) -> Option<std::ops::Range<usize>> {
        let end = self.tuples.as_ref()?.len() - self.geometry.tuples_in(i + 1..self.len());
        Some(end - self.geometry.extent(i).count..end)
    }

    /// Appends a fresh empty slice covering `range`. The caller (stream
    /// slicer) guarantees ranges are appended in order and do not overlap.
    pub fn append_slice(&mut self, range: Range) {
        debug_assert!(
            self.geometry.last_end().is_none_or(|end| end <= range.start),
            "slices must be appended in order"
        );
        self.geometry.push(range);
        self.open_columns(self.len() - 1);
    }

    /// Sets the end of the latest (open) slice unconditionally — used when
    /// query changes move the next window edge earlier. The caller must
    /// guarantee no stored tuple lies at or beyond `end`.
    pub(crate) fn set_last_end(&mut self, end: Time) {
        self.geometry.set_last_end(end);
    }

    /// Cuts the open (latest) slice at `ts` if it covers `ts`: its end
    /// becomes `ts` and a fresh slice `[ts, old_end)` is appended. Existing
    /// tuples stay in the left part (count edges, where all current tuples
    /// precede the cut). Returns whether it cut.
    #[inline]
    pub(crate) fn cut_last_at(&mut self, ts: Time) -> bool {
        self.geometry.cut_last(ts).then(|| self.open_columns(self.len() - 1)).is_some()
    }

    /// Inserts a slice into a coverage gap (late tuples landing between
    /// existing slices). Returns the insertion index. The range must not
    /// overlap existing slices.
    pub fn insert_gap_slice(&mut self, range: Range) -> usize {
        let idx = self.geometry.insert_gap(range);
        self.open_columns(idx);
        #[cfg(feature = "audit")]
        self.assert_invariants();
        idx
    }

    /// Opens the columns of the empty slice the geometry placed at `idx`.
    fn open_columns(&mut self, idx: usize) {
        self.partials.insert(idx, None);
        if let Some(t) = &mut self.index {
            t.insert(idx, None);
        }
    }

    /// Dense structural checks for the audit build: the geometry's, the
    /// partial column as long as the geometry, each slice's tuples as its
    /// extent says, and a FlatFAT with exactly one leaf per slice.
    #[cfg(feature = "audit")]
    pub(crate) fn assert_invariants(&self) {
        self.geometry.assert_invariants();
        let n = self.len();
        assert_eq!(self.partials.len(), n, "partial column out of sync with slices");
        if let Some(tuples) = &self.tuples {
            let rest = (0..n).fold(&tuples[..], |rest, i| {
                let (slice, rest) = rest.split_at(self.geometry.extent(i).count);
                assert_eq!(extent_of(slice), self.geometry.extent(i), "slice {i}");
                rest
            });
            assert!(rest.is_empty(), "tuple column out of sync");
        }
        if let Some(t) = &self.index {
            assert_eq!(t.len(), n, "eager index out of sync with slices");
            t.assert_invariants();
        }
    }

    /// `partials[idx] ⊕= p`: the one write of a partial.
    fn absorb(&mut self, idx: usize, p: A::Partial) {
        let slot = &mut self.partials[idx];
        *slot = Some(match slot.take() {
            None => p,
            Some(a) => self.f.combine(a, &p),
        });
    }

    /// Adds a sorted run of in-order tuples (one tuple is a run of one),
    /// given as parallel `times` / `values` columns, to the **latest**
    /// slice: one fold through the bulk kernel
    /// ([`AggregateFunction::fold_slice`]) + ⊕ into its partial (equal to
    /// one-by-one adds by associativity), one tuple-column append and one
    /// index leaf write. A store without slices writes nothing.
    pub fn add_in_order_run_columns(&mut self, times: &[Time], values: &[A::Input]) {
        debug_assert_eq!(times.len(), values.len(), "SoA run length mismatch");
        let (Some(idx), Some(&t_first), Some(&t_last)) =
            (self.len().checked_sub(1), times.first(), times.last())
        else {
            return;
        };
        debug_assert!(times.is_sorted() && t_first >= self.geometry.extent(idx).t_last);
        let Some(p) = self.f.fold_slice(values) else {
            return;
        };
        self.absorb(idx, p);
        self.geometry.widen(idx, Extent { count: times.len(), t_first, t_last });
        if let Some(tuples) = &mut self.tuples {
            tuples.extend(times.iter().copied().zip(values.iter().cloned()));
        }
        self.refresh_leaf(idx);
    }

    /// Index of the slice whose time range contains `ts` (time-tiled
    /// stores).
    pub fn covering_index(&self, ts: Time) -> Option<usize> {
        self.geometry.covering_search(ts, None).ok()
    }

    /// Adds a sorted run of out-of-order tuples (one late tuple is a run
    /// of one) to slice `idx`, merged into its tuples after equal
    /// timestamps, with one index leaf write. Where the plan recomputes
    /// late inserts (Section 5.2), the partial is refolded from the
    /// tuples; otherwise the run's lifted fold is combined in with one ⊕.
    pub fn add_out_of_order_run(&mut self, idx: usize, run: &[(Time, A::Input)]) {
        let (Some(&(t_first, _)), Some(&(t_last, _))) = (run.first(), run.last()) else {
            return;
        };
        debug_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "run not sorted");
        let range = self.tuple_range(idx);
        self.geometry.widen(idx, Extent { count: run.len(), t_first, t_last });
        debug_assert!(self.keeps_tuples() || !self.plan.late_recomputes, "Figure 4 keeps them");
        let refolded = range.zip(self.tuples.as_mut()).and_then(|(range, tuples)| {
            merge_late_run(tuples, range.start, range.end, run);
            let values = tuples[range.start..range.end + run.len()].iter().map(|(_, v)| v);
            self.plan.late_recomputes.then(|| self.f.lift_all(values))
        });
        match refolded {
            Some(p) => self.partials[idx] = p,
            None => {
                if let Some(p) = self.f.lift_all(run.iter().map(|(_, v)| v)) {
                    self.absorb(idx, p);
                }
            }
        }
        self.refresh_leaf(idx);
    }

    /// Applies a pre-folded partial of late tuples to slice `idx` — the
    /// unsorted out-of-order fast path for commutative functions without
    /// tuple storage, where nothing observes the order late tuples were
    /// folded in. `t_first`/`t_last` are the group's extreme timestamps
    /// and `n` its tuple count.
    pub fn add_out_of_order_partial(
        &mut self,
        idx: usize,
        partial: A::Partial,
        t_first: Time,
        t_last: Time,
        n: usize,
    ) {
        debug_assert!(
            !self.keeps_tuples() && !self.plan.late_recomputes,
            "a pre-folded late write needs dropped tuples and a commutative function"
        );
        self.geometry.widen(idx, Extent { count: n, t_first, t_last });
        self.absorb(idx, partial);
        self.refresh_leaf(idx);
    }

    /// Called before a batch of window queries. Every write reaches the
    /// FlatFAT at once, so nothing is pending: the audit build checks the
    /// store's invariants here, and other builds do nothing.
    pub fn flush_eager_repairs(&mut self) {
        #[cfg(feature = "audit")]
        self.assert_invariants();
    }

    /// Splits the slice covering `ts` at `ts`. Returns `false` if `ts`
    /// already is a slice edge, lies outside all slices, or falls among
    /// tuples the plan did not keep (Figure 4 keeps them wherever a split
    /// can: a session's split point lies in a tuple-free gap).
    ///
    /// A split beyond the slice's last tuple leaves every tuple left, one
    /// at or before its first moves them all right; neither recomputes.
    /// Any other split recomputes both partials from the stored tuples —
    /// the expensive operation the paper benchmarks in Figure 15.
    #[inline]
    pub fn split_at(&mut self, ts: Time) -> bool {
        let idx = self.covering_index(ts).filter(|&i| self.geometry.start(i) != ts);
        idx.is_some_and(|idx| self.split_columns(idx, ts))
    }

    /// The column side of a split of slice `idx` at `ts`: divides its
    /// partial (its tuples stay where they are), has the geometry split,
    /// and opens slice `idx + 1` with the right part.
    fn split_columns(&mut self, idx: usize, ts: Time) -> bool {
        let whole = self.geometry.extent(idx);
        let (left, right, left_partial, right_partial) = if ts > whole.t_last {
            (whole, Extent::EMPTY, self.partials[idx].take(), None)
        } else if ts <= whole.t_first {
            (Extent::EMPTY, whole, None, self.partials[idx].take())
        } else if let Some(tuples) = self.slice(idx).tuples() {
            let (stay, moved) = tuples.split_at(tuples.partition_point(|(t, _)| *t < ts));
            let fold = |part: &[(Time, A::Input)]| self.f.lift_all(part.iter().map(|(_, v)| v));
            (extent_of(stay), extent_of(moved), fold(stay), fold(moved))
        } else {
            return false;
        };
        self.geometry.split(idx, ts, left, right);
        self.partials[idx] = left_partial;
        self.partials.insert(idx + 1, right_partial);
        if let Some(t) = &mut self.index {
            t.insert(idx + 1, None);
        }
        self.refresh_leaf(idx);
        self.refresh_leaf(idx + 1);
        true
    }

    /// Merges the two slices adjacent at edge `ts` (`slices[i].end == ts ==
    /// slices[i+1].start`): `agg ← agg ⊕ next.agg`, their adjacent tuples
    /// one range. Returns `false` if `ts` is not such an edge.
    #[inline]
    pub fn merge_at(&mut self, ts: Time) -> bool {
        self.geometry.merge_at(ts).map(|idx| self.merge_columns(idx)).is_some()
    }

    /// The column side of merging slice `idx + 1` into slice `idx`.
    fn merge_columns(&mut self, idx: usize) {
        let right = self.partials.remove(idx + 1).flatten();
        let left = self.partials[idx].take();
        self.partials[idx] = self.f.combine_opt(left, right.as_ref());
        if let Some(t) = &mut self.index {
            drop(t.remove(idx + 1));
        }
        self.refresh_leaf(idx);
    }

    /// Combines the partial aggregates of all slices inside the time range
    /// `[range.start, range.end)`, in slice order. Window edges align with
    /// slice edges (the slicing invariant), so overlap implies containment.
    pub fn query_time(&self, range: Range) -> Option<A::Partial> {
        let (l, r) = self.geometry.slice_span(range);
        if l >= r {
            return None;
        }
        debug_assert!(
            self.geometry.aligned(range, l, r),
            "window {range} does not align with slice contents"
        );
        self.query_slice_range(l, r)
    }

    /// Combines the partials of slices `[l, r)` (indices), in order.
    ///
    /// Short ranges fold the partial column directly: a handful of
    /// sequential combines beats a tree descent. The FlatFAT only earns
    /// its keep past `INDEX_SCAN_CUTOFF` slices (large lateness, many
    /// live slices).
    #[inline]
    pub fn query_slice_range(&self, l: usize, r: usize) -> Option<A::Partial> {
        match &self.index {
            Some(t) if r - l > INDEX_SCAN_CUTOFF => t.query(l, r),
            _ => self.fold(l, r),
        }
    }

    /// The partials of slices `[l, r)`, folded in order.
    fn fold(&self, l: usize, r: usize) -> Option<A::Partial> {
        if r == l + 1 {
            return self.partials[l].clone();
        }
        self.partials.range(l..r).fold(None, |acc, p| self.f.combine_opt(acc, p.as_ref()))
    }

    /// The per-window path: one [`query_time`](SliceStore::query_time)
    /// per window, in order; `emit` sees every window with an answer.
    pub fn query_time_each<T>(
        &self,
        runs: &[(T, WindowRun)],
        mut emit: impl FnMut(&T, Range, A::Partial),
    ) {
        for (tag, run) in runs {
            for range in run.windows() {
                if let Some(p) = self.query_time(range) {
                    emit(tag, range, p);
                }
            }
        }
    }

    /// Answers the windows of one trigger sweep together: same answers,
    /// same `emit` order as [`query_time_each`], and the number of
    /// windows the shared scan answered is returned (0 or all of them).
    ///
    /// The windows of a sliding or late-update sweep all contain one
    /// slice boundary, so [`shared_scan`] answers them with one combine
    /// each after one pass over the slices. Whether that pays is decided
    /// at a cost per window: fewer than `MIN_BATCH_WINDOWS` windows, or
    /// holistic partials, go per window. Otherwise one edge pass resolves
    /// each run at its first and last window, finds whether the windows
    /// share a boundary, and prices each run's windows as
    /// [`query_slice_range`] would (their length, or `O(log d)` through
    /// the FlatFAT) against the scan (the slices under the sweep, the prefix
    /// entries, one combine per window). The cheaper side answers; a
    /// sweep with no shared boundary is answered per window. Either way
    /// each window's slices are its predecessor's stepped one slice on,
    /// checked, and searched only where the check fails.
    ///
    /// [`query_time_each`]: SliceStore::query_time_each
    /// [`shared_scan`]: SliceStore::shared_scan
    /// [`query_slice_range`]: SliceStore::query_slice_range
    pub fn query_time_batch<T>(
        &self,
        runs: &[(T, WindowRun)],
        mut emit: impl FnMut(&T, Range, A::Partial),
    ) -> usize {
        let windows = runs.iter().map(|(_, run)| run.len).sum();
        if windows < MIN_BATCH_WINDOWS || self.holistic {
            self.emit_each(runs, None, &mut emit);
            return 0;
        }
        let edges = self.geometry.resolve(runs, self.index.is_some());
        // The scan visits every slice under the sweep, fills the prefix
        // column and combines once per window.
        let pays = |plan: &SweepPlan| edges.scan_cost(plan) + windows <= edges.each_cost;
        match SweepPlan::new(&edges).filter(pays) {
            Some(plan) => {
                self.emit_scanned(runs, &edges.bounds, &plan, &mut emit);
                windows
            }
            None => {
                self.emit_each(runs, Some(&edges.bounds), &mut emit);
                0
            }
        }
    }

    /// The shared scan itself, unconditionally: when every covered
    /// window contains one slice boundary, each is answered from one
    /// suffix scan leftwards and one prefix scan rightwards of it, with
    /// at most one combine; any other sweep is answered per window.
    /// `suffix[i] = aggᵢ ⊕ suffix[i+1]` and `prefix[j] = prefix[j-1] ⊕
    /// aggⱼ` keep slice order, so only associativity of ⊕ is used and
    /// non-commutative functions get the per-window answer. Reads slice
    /// partials only, never the FlatFAT, so the cost is the same under
    /// every [`StorePolicy`].
    /// [`query_time_batch`](SliceStore::query_time_batch) decides when
    /// this is the cheaper way.
    pub fn shared_scan<T>(
        &self,
        runs: &[(T, WindowRun)],
        mut emit: impl FnMut(&T, Range, A::Partial),
    ) {
        let edges = self.geometry.resolve(runs, self.index.is_some());
        match SweepPlan::new(&edges) {
            Some(plan) => self.emit_scanned(runs, &edges.bounds, &plan, &mut emit),
            None => self.emit_each(runs, Some(&edges.bounds), &mut emit),
        }
    }

    /// Emits a sweep's windows in order, each from its own slice range
    /// (`bounds` as `SliceGeometry::resolve` gives them, or
    /// `None` to search each run's first window here).
    fn emit_each<T>(
        &self,
        runs: &[(T, WindowRun)],
        bounds: Option<&[RunBounds]>,
        emit: &mut impl FnMut(&T, Range, A::Partial),
    ) {
        self.geometry.walk(runs, bounds, |tag, range, l, r| {
            debug_assert!(self.geometry.aligned(range, l, r), "window {range} off its slices");
            if let Some(p) = self.query_slice_range(l, r) {
                emit(tag, range, p);
            }
        });
    }

    /// Builds the scan columns of a planned sweep and emits its windows
    /// in order.
    fn emit_scanned<T>(
        &self,
        runs: &[(T, WindowRun)],
        bounds: &[RunBounds],
        plan: &SweepPlan,
        emit: &mut impl FnMut(&T, Range, A::Partial),
    ) {
        let scan = SharedScan::build(
            plan,
            |x| self.partials[plan.base + x].clone(),
            |a: A::Partial, b: &A::Partial| self.f.combine(a, b),
        );
        // `query_time`'s alignment check, once per sweep instead of once
        // per slice per window: the same scan over each slice's tuple
        // extent gives every window the extent of the tuples it covers.
        let extents = cfg!(debug_assertions).then(|| {
            let extent = |x| {
                let e = self.geometry.extent(plan.base + x);
                (e.count > 0).then_some((e.t_first, e.t_last))
            };
            SharedScan::build(plan, extent, |a: (Time, Time), b: &(Time, Time)| {
                (a.0.min(b.0), a.1.max(b.1))
            })
        });
        let mut i = 0;
        self.geometry.walk(runs, Some(bounds), |tag, range, l, r| {
            if cfg!(feature = "audit") && i % 16 == 0 {
                assert_eq!((l, r), self.geometry.slice_span(range), "window {range} resolved off");
            }
            i += 1;
            let (l, r) = (l - plan.base, r - plan.base);
            if let Some((first, last)) = extents.as_ref().and_then(|e| e.answer(plan, l, r)) {
                debug_assert!(
                    first >= range.start && last < range.end,
                    "window {range} does not align with slice contents"
                );
            }
            if let Some(p) = scan.answer(plan, l, r) {
                emit(tag, range, p);
            }
        });
    }

    /// Combines the partials of slices covering the absolute count range
    /// `[c1, c2)`. Slice boundaries must align with `c1`/`c2` (the count
    /// slicing invariant maintained by the Figure-6 shift).
    pub fn query_count(&self, c1: u64, c2: u64) -> Option<A::Partial> {
        let (l, r) = self.geometry.count_span(c1, c2);
        self.fold(l, r)
    }

    /// Number of tuples (absolute count) with timestamp `<= ts`, counting
    /// evicted tuples: a search of the tuple column, which count windows
    /// keep on a disordered stream (Figure 4); without it, every tuple.
    pub fn count_at_or_before(&self, ts: Time) -> u64 {
        self.tuples.as_deref().map_or(self.total_count(), |t| {
            self.total_count() - cast::to_u64(t.len() - t.partition_point(|(t, _)| *t <= ts))
        })
    }

    /// Total number of tuples ever added (absolute count).
    pub fn total_count(&self) -> u64 {
        self.geometry.total_count()
    }

    /// Index of the slice an out-of-order tuple at `ts` joins in a
    /// count-delimited store: the first whose last tuple lies after `ts`
    /// (count ties break by arrival order), else the latest; `None` without
    /// slices. It walks back the extents the count shift walks next.
    pub fn covering_index_by_count(&self, ts: Time) -> Option<usize> {
        let last = self.len().checked_sub(1)?;
        let earlier =
            (0..last).rev().map(|i| (i, self.geometry.extent(i))).filter(|e| e.1.count > 0);
        Some(earlier.take_while(|e| e.1.t_last > ts).last().map_or(last, |e| e.0))
    }

    /// Adds an out-of-order tuple to a count-delimited store (Figure 6):
    /// it takes its count position, in slice `covering_index_by_count(ts)`,
    /// and each later slice passes its last tuple on, so every count edge
    /// stays where it is and no tuple moves. A slice tries one ⊖ for the
    /// tuple it passes on and refolds where ⊖ is not exact (`None`), and
    /// combines in the one it takes, or refolds where the plan recomputes
    /// late inserts. Returns the shifts; writes nothing without a slice or
    /// tuple column.
    pub fn add_out_of_order_counted(&mut self, ts: Time, value: A::Input) -> usize {
        let (Some(idx), Some(mut tuples)) = (self.covering_index_by_count(ts), self.tuples.take())
        else {
            return 0;
        };
        let last = self.len() - 1;
        let mut start = tuples.len() - self.geometry.tuples_in(idx..last + 1);
        // Slice `i` takes the tuple at `taken`: the late one, then its
        // predecessor's last; it passes its own last on, the next's first.
        let slice = &tuples[start..start + self.geometry.extent(idx).count];
        let mut taken = start + slice.partition_point(|(t, _)| *t <= ts);
        tuples.insert_run(taken, &[(ts, value)]);
        for i in idx..=last {
            let f = &self.f;
            let range = start..start + self.geometry.extent(i).count + usize::from(i == last);
            let kept = match self.partials[i].take().filter(|_| !self.plan.late_recomputes) {
                Some(a) if i < last => f.invert(a, &f.lift(&tuples[range.end].1)),
                a => a,
            };
            self.partials[i] = match kept {
                Some(a) => Some(f.combine(a, &f.lift(&tuples[taken].1))),
                None => f.lift_all(tuples[range.clone()].iter().map(|(_, v)| v)),
            };
            self.geometry.set_extent(i, extent_of(&tuples[range.clone()]));
            (start, taken) = (range.end, range.end);
            self.refresh_leaf(i);
        }
        self.tuples = Some(tuples);
        last - idx
    }

    /// Evicts every slice whose end lies at or before `ts`. Returns the
    /// number of evicted slices.
    pub fn evict_before(&mut self, ts: Time) -> usize {
        let k = self.geometry.ended_by(ts);
        self.evict_first(k);
        k
    }

    /// Evicts the first `k` slices unconditionally.
    #[inline]
    pub(crate) fn evict_first(&mut self, k: usize) {
        if let Some(tuples) = &mut self.tuples {
            tuples.drop_front(self.geometry.tuples_in(0..k));
        }
        self.geometry.evict(k);
        self.drop_columns(k);
    }

    /// The column side of evicting the first `k` slices.
    fn drop_columns(&mut self, k: usize) {
        self.partials.drain(..k);
        if let Some(t) = &mut self.index {
            t.remove_prefix(k);
        }
        #[cfg(feature = "audit")]
        self.assert_invariants();
    }

    /// Evicts leading slices whose tuples are entirely below the absolute
    /// count `keep_from` (count-measure eviction).
    pub fn evict_keeping_counts(&mut self, keep_from: u64) -> usize {
        let k = self.geometry.count_evictable(keep_from);
        self.evict_first(k);
        k
    }

    /// Re-synchronizes the FlatFAT leaf for slice `idx`; the tree
    /// repairs its ancestors at once, as the paper's eager store does.
    fn refresh_leaf(&mut self, idx: usize) {
        if let Some(t) = &mut self.index {
            t.update(idx, self.partials[idx].clone());
        }
    }

    /// The aggregate function.
    pub fn function(&self) -> &A {
        &self.f
    }
}

/// The FlatFAT sits inline in the store, so only its heap counts here:
/// the store's owner adds the store's inline size once.
impl<A: AggregateFunction> HeapSize for SliceStore<A> {
    fn heap_bytes(&self) -> usize {
        self.geometry.heap_bytes()
            + self.partials.heap_bytes()
            + self
                .tuples
                .as_ref()
                .map_or(0, |t| t.heap_bytes() + t.iter().map(HeapSize::heap_bytes).sum::<usize>())
            + self.index.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

/// Sweeps with fewer windows than this (counted over their runs) are
/// answered per window without looking at anything else: below it the
/// scan's fixed costs (the edge pass, the plan, the scan columns) are not
/// recovered even when every window shares one pivot.
pub(crate) const MIN_BATCH_WINDOWS: usize = 9;

/// The scan columns of a planned sweep over per-slice values `M`:
/// `suffix[x]` folds slices `[x, pivot)` and `prefix[k]` folds slices
/// `[pivot, pivot + k)`. `None` is the fold of no values, as everywhere
/// in the store.
struct SharedScan<M, C> {
    suffix: Vec<Option<M>>,
    prefix: Vec<Option<M>>,
    combine: C,
}

impl<M: Clone, C: Fn(M, &M) -> M> SharedScan<M, C> {
    fn build(plan: &SweepPlan, leaf: impl Fn(usize) -> Option<M>, combine: C) -> Self {
        let merge = |a: Option<M>, b: Option<&M>| merge_opt(a, b, &combine);
        let mut suffix: Vec<Option<M>> = vec![None; plan.pivot];
        let mut acc = None;
        for x in (0..plan.pivot).rev() {
            acc = merge(leaf(x), acc.as_ref());
            suffix[x] = acc.clone();
        }
        let mut prefix = Vec::with_capacity(plan.reach - plan.pivot + 1);
        prefix.push(None);
        let mut acc = None;
        for x in plan.pivot..plan.reach {
            acc = merge(acc, leaf(x).as_ref());
            prefix.push(acc.clone());
        }
        SharedScan { suffix, prefix, combine }
    }

    /// The fold of slices `[l, r)` of a covered window, relative to the
    /// plan's base (`l < pivot <= r`).
    fn answer(&self, plan: &SweepPlan, l: usize, r: usize) -> Option<M> {
        debug_assert!(l < plan.pivot && plan.pivot <= r, "window [{l}, {r}) misses the pivot");
        merge_opt(self.suffix[l].clone(), self.prefix[r - plan.pivot].as_ref(), &self.combine)
    }
}

/// `a ⊕ b` over optional values, `None` neutral (`a` before `b`).
fn merge_opt<M: Clone>(a: Option<M>, b: Option<&M>, combine: impl Fn(M, &M) -> M) -> Option<M> {
    match (a, b) {
        (Some(a), Some(b)) => Some(combine(a, b)),
        (Some(a), None) => Some(a),
        (None, b) => b.cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{Concat, Lifts, MinI64, SumI64};

    /// One in-order tuple, written as a run of one.
    trait RunOfOne<I> {
        fn add_one(&mut self, ts: Time, value: I);
    }

    impl<A: AggregateFunction> RunOfOne<A::Input> for SliceStore<A> {
        fn add_one(&mut self, ts: Time, value: A::Input) {
            self.add_in_order_run_columns(&[ts], std::slice::from_ref(&value));
        }
    }

    fn store(policy: StorePolicy, keep: bool) -> SliceStore<SumI64> {
        SliceStore::new(SumI64, policy, keep)
    }

    /// Builds a store with slices [0,10), [10,20), [20,30) holding the
    /// given tuples.
    fn filled(policy: StorePolicy, keep: bool) -> SliceStore<SumI64> {
        let mut st = store(policy, keep);
        st.append_slice(Range::new(0, 10));
        st.add_one(1, 1);
        st.add_one(5, 5);
        st.append_slice(Range::new(10, 20));
        st.add_one(12, 12);
        st.append_slice(Range::new(20, 30));
        st.add_one(21, 21);
        st.add_one(29, 29);
        st
    }

    #[test]
    fn append_and_query_lazy() {
        let st = filled(StorePolicy::Lazy, false);
        assert_eq!(st.len(), 3);
        assert_eq!(st.query_time(Range::new(0, 30)), Some(68));
        assert_eq!(st.query_time(Range::new(10, 20)), Some(12));
        assert_eq!(st.query_time(Range::new(0, 20)), Some(18));
        assert_eq!(st.query_time(Range::new(30, 40)), None);
    }

    #[test]
    fn eager_matches_lazy() {
        let lazy = filled(StorePolicy::Lazy, false);
        let eager = filled(StorePolicy::Eager, false);
        for (a, b) in [(0, 10), (0, 20), (0, 30), (10, 30), (20, 30)] {
            assert_eq!(
                lazy.query_time(Range::new(a, b)),
                eager.query_time(Range::new(a, b)),
                "range [{a},{b})"
            );
        }
    }

    #[test]
    fn covering_index_finds_slice() {
        let st = filled(StorePolicy::Lazy, false);
        assert_eq!(st.covering_index(0), Some(0));
        assert_eq!(st.covering_index(9), Some(0));
        assert_eq!(st.covering_index(10), Some(1));
        assert_eq!(st.covering_index(29), Some(2));
        assert_eq!(st.covering_index(30), None);
        assert_eq!(st.covering_index(-1), None);
    }

    #[test]
    fn covering_index_respects_session_gaps() {
        let mut st = store(StorePolicy::Lazy, false);
        st.append_slice(Range::new(0, 10));
        st.append_slice(Range::new(50, 60)); // gap [10, 50)
        assert_eq!(st.covering_index(5), Some(0));
        assert_eq!(st.covering_index(30), None);
        assert_eq!(st.covering_index(55), Some(1));
    }

    #[test]
    fn covering_search_finds_slice_or_gap_from_every_hint() {
        // Unevenly long slices with two gaps, so interpolated guesses
        // land off target on both sides.
        let mut st = store(StorePolicy::Lazy, false);
        let ranges = [(0, 3), (3, 4), (4, 40), (55, 56), (56, 90), (90, 91), (200, 1_000)];
        for (a, b) in ranges {
            st.append_slice(Range::new(a, b));
        }
        for ts in -5..1_010 {
            let covering = ranges.iter().position(|&(a, b)| a <= ts && ts < b);
            let want = covering.ok_or(ranges.iter().filter(|&&(a, _)| a <= ts).count());
            for near in std::iter::once(None).chain((0..ranges.len()).map(Some)) {
                assert_eq!(st.geometry().covering_search(ts, near), want, "ts {ts} near {near:?}");
            }
            assert_eq!(st.covering_index(ts), covering);
        }
        assert_eq!(store(StorePolicy::Lazy, false).geometry().covering_search(7, None), Err(0));
    }

    #[test]
    fn ooo_add_updates_aggregate_and_eager_leaf() {
        let mut st = filled(StorePolicy::Eager, false);
        let idx = st.covering_index(13).unwrap();
        st.add_out_of_order_run(idx, &[(13, 100)]);
        assert_eq!(st.query_time(Range::new(10, 20)), Some(112));
        assert_eq!(st.query_time(Range::new(0, 30)), Some(168));
    }

    #[test]
    fn split_inserts_new_slice() {
        let mut st = filled(StorePolicy::Eager, true);
        assert!(st.split_at(3));
        assert_eq!(st.len(), 4);
        assert_eq!(st.query_time(Range::new(0, 3)), Some(1));
        assert_eq!(st.query_time(Range::new(3, 10)), Some(5));
        assert_eq!(st.query_time(Range::new(0, 30)), Some(68));
    }

    #[test]
    fn split_on_existing_edge_is_noop() {
        let mut st = filled(StorePolicy::Lazy, true);
        assert!(!st.split_at(10));
        assert!(!st.split_at(0));
        assert!(!st.split_at(99));
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn merge_at_edge_combines() {
        let mut st = filled(StorePolicy::Eager, false);
        assert!(st.merge_at(10));
        assert_eq!(st.len(), 2);
        assert_eq!(st.query_time(Range::new(0, 20)), Some(18));
        assert_eq!(st.query_time(Range::new(0, 30)), Some(68));
        assert!(!st.merge_at(15)); // not an edge
        assert!(!st.merge_at(30)); // no successor
    }

    #[test]
    fn merge_skips_gap_boundaries() {
        let mut st = store(StorePolicy::Lazy, false);
        st.append_slice(Range::new(0, 10));
        st.append_slice(Range::new(50, 60));
        // 10 ends slice 0 but slice 1 starts at 50: not a shared edge.
        assert!(!st.merge_at(10));
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn eviction_advances_count_offset() {
        let mut st = filled(StorePolicy::Eager, false);
        assert_eq!(st.total_count(), 5);
        assert_eq!(st.evict_before(20), 2);
        assert_eq!(st.len(), 1);
        assert_eq!(st.total_count(), 5); // absolute counts keep history
        assert_eq!(st.query_time(Range::new(20, 30)), Some(50));
    }

    #[test]
    fn count_queries_align_with_slice_counts() {
        let st = filled(StorePolicy::Lazy, true);
        // Slice tuple counts: 2, 1, 2 -> boundaries at 0, 2, 3, 5.
        assert_eq!(st.query_count(0, 2), Some(6));
        assert_eq!(st.query_count(2, 3), Some(12));
        assert_eq!(st.query_count(0, 5), Some(68));
        assert_eq!(st.query_count(3, 5), Some(50));
        assert_eq!(st.query_count(4, 4), None);
    }

    #[test]
    fn count_at_or_before_counts_within_slices() {
        let st = filled(StorePolicy::Lazy, true);
        assert_eq!(st.count_at_or_before(-5), 0);
        assert_eq!(st.count_at_or_before(1), 1);
        assert_eq!(st.count_at_or_before(5), 2);
        assert_eq!(st.count_at_or_before(12), 3);
        assert_eq!(st.count_at_or_before(28), 4);
        assert_eq!(st.count_at_or_before(1000), 5);
    }

    #[test]
    fn counted_late_tuple_shifts_every_later_slice() {
        let mut st = filled(StorePolicy::Lazy, true);
        // (3, 3) lands in slice 0, which passes (5, 5) on; slice 1 passes
        // (12, 12) on to the open slice.
        assert_eq!(st.add_out_of_order_counted(3, 3), 2);
        let lens: Vec<usize> = st.slices().map(|s| s.len()).collect();
        assert_eq!(lens, [2, 1, 3]);
        let firsts_lasts: Vec<_> = st.slices().map(|s| (s.t_first(), s.t_last())).collect();
        assert_eq!(firsts_lasts, [(1, 3), (5, 5), (12, 29)]);
        assert_eq!(st.slice(1).tuples(), Some(&[(5, 5)][..]));
        // Count boundaries stay at 0, 2, 3; the open slice grew.
        assert_eq!(st.query_count(0, 2), Some(4));
        assert_eq!(st.query_count(2, 3), Some(5));
        assert_eq!(st.query_count(3, 6), Some(62));
        assert_eq!(st.total_count(), 6);
        // A tuple landing in the open slice shifts nothing.
        assert_eq!(st.add_out_of_order_counted(28, 28), 0);
        assert_eq!(st.slice(2).tuples(), Some(&[(12, 12), (21, 21), (28, 28), (29, 29)][..]));
    }

    #[test]
    fn counted_late_tuple_keeps_event_time_order_for_non_commutative() {
        let mut st: SliceStore<Concat> = SliceStore::new(Concat, StorePolicy::Lazy, true);
        st.append_slice(Range::new(0, 10));
        st.add_one(1, 1);
        st.add_one(8, 8);
        st.append_slice(Range::new(10, 20));
        st.add_one(11, 11);
        assert_eq!(st.add_out_of_order_counted(5, 5), 1);
        assert_eq!(st.slice(0).aggregate(), Some(&vec![1, 5]));
        assert_eq!(st.slice(1).aggregate(), Some(&vec![8, 11]));
    }

    #[test]
    fn counted_shift_above_the_minimum_inverts_without_refolding() {
        let f = Lifts::new(MinI64);
        let mut st = SliceStore::new(f.clone(), StorePolicy::Lazy, true);
        st.append_slice(Range::new(0, 10));
        st.add_in_order_run_columns(&[1, 2, 3, 4, 5], &[5, 8, 3, 6, 9]);
        st.append_slice(Range::new(10, 20));
        st.add_in_order_run_columns(&[12], &[7]);
        // Slice 0 passes 9 on, above its minimum: ⊖ answers, so the only
        // lifts are 9's for ⊖, and the late tuple's and 9's for the ⊕s.
        let before = f.count();
        assert_eq!(st.add_out_of_order_counted(0, 10), 1);
        assert_eq!(f.count() - before, 3);
        assert_eq!((st.slice(0).aggregate(), st.slice(1).aggregate()), (Some(&3), Some(&7)));
        // 6 too; then 3 is the minimum itself, and slice 0's five tuples
        // are refolded.
        assert_eq!(st.add_out_of_order_counted(0, 10), 1);
        let before = f.count();
        assert_eq!(st.add_out_of_order_counted(0, 10), 1);
        assert_eq!(f.count() - before, 1 + 5 + 1);
        assert_eq!((st.slice(0).aggregate(), st.slice(1).aggregate()), (Some(&5), Some(&3)));
    }

    #[test]
    fn covering_index_by_count_places_ties_after_equals() {
        // Slice t_lasts: 5, 12, 29. A tuple tied with a slice's last tuple
        // belongs to the *next* slice (its count position follows every
        // stored equal-timestamp tuple).
        let st = filled(StorePolicy::Lazy, true);
        assert_eq!(st.covering_index_by_count(0), Some(0));
        assert_eq!(st.covering_index_by_count(5), Some(1));
        assert_eq!(st.covering_index_by_count(6), Some(1));
        assert_eq!(st.covering_index_by_count(12), Some(2));
        assert_eq!(st.covering_index_by_count(13), Some(2));
        assert_eq!(st.covering_index_by_count(99), Some(2));
    }

    #[test]
    fn covering_index_by_count_skips_empty_slices() {
        let mut st = store(StorePolicy::Lazy, true);
        st.append_slice(Range::new(0, 10));
        st.add_one(5, 5);
        st.append_slice(Range::new(10, 20)); // empty
        st.append_slice(Range::new(20, 30));
        st.add_one(25, 25);
        st.append_slice(Range::new(30, 40)); // open slice, still empty
        assert_eq!(st.covering_index_by_count(0), Some(0));
        // Tie with (5, ·): lands after it, in the next *non-empty* slice.
        assert_eq!(st.covering_index_by_count(5), Some(2));
        assert_eq!(st.covering_index_by_count(24), Some(2));
        // Nothing stored after ts: falls back to the latest slice.
        assert_eq!(st.covering_index_by_count(25), Some(3));
        assert_eq!(st.covering_index_by_count(99), Some(3));
        // No slice, no lookup: the operator routes such a tuple in order.
        let none = store(StorePolicy::Lazy, true);
        assert_eq!(none.covering_index_by_count(3), None);
    }

    #[test]
    fn in_order_runs_of_one_equal_one_run() {
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            for keep in [false, true] {
                let mut per_tuple = store(policy, keep);
                let mut batched = store(policy, keep);
                for st in [&mut per_tuple, &mut batched] {
                    st.append_slice(Range::new(0, 100));
                }
                let (times, values) = ([1, 4, 4, 9], [1, 4, 40, 9]);
                for (ts, v) in times.into_iter().zip(values) {
                    per_tuple.add_one(ts, v);
                }
                batched.add_in_order_run_columns(&times, &values);
                per_tuple.flush_eager_repairs();
                batched.flush_eager_repairs();
                assert_eq!(
                    per_tuple.query_time(Range::new(0, 100)),
                    batched.query_time(Range::new(0, 100))
                );
                assert_eq!(per_tuple.total_count(), batched.total_count());
                assert_eq!(per_tuple.slice(0).t_first(), batched.slice(0).t_first());
                assert_eq!(per_tuple.slice(0).t_last(), batched.slice(0).t_last());
                assert_eq!(per_tuple.slice(0).tuples(), batched.slice(0).tuples());
            }
        }
    }

    #[test]
    fn late_runs_of_one_equal_one_run() {
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            for keep in [false, true] {
                let mut per_tuple = filled(policy, keep);
                let mut batched = filled(policy, keep);
                // One sorted run per slice, as the operator writes a run.
                let groups: [&[(Time, i64)]; 3] =
                    [&[(2, 2), (5, 50), (5, 51)], &[(11, 11)], &[(25, 100), (29, 290)]];
                for run in groups {
                    let idx = per_tuple.covering_index(run[0].0).unwrap();
                    for &(ts, v) in run {
                        per_tuple.add_out_of_order_run(idx, &[(ts, v)]);
                    }
                    batched.add_out_of_order_run(idx, run);
                }
                batched.flush_eager_repairs();
                per_tuple.flush_eager_repairs();
                for (a, b) in [(0, 10), (10, 20), (20, 30), (0, 30)] {
                    assert_eq!(
                        per_tuple.query_time(Range::new(a, b)),
                        batched.query_time(Range::new(a, b)),
                        "policy {policy:?} keep {keep} range [{a},{b})"
                    );
                }
                if keep {
                    for i in 0..3 {
                        assert_eq!(per_tuple.slice(i).tuples(), batched.slice(i).tuples());
                    }
                }
            }
        }
    }

    #[test]
    fn add_out_of_order_partial_matches_runs_of_one() {
        // Pre-folded group inserts (the operator's unsorted late path)
        // must land like the equivalent per-tuple adds. Tuples are
        // dropped (`keep = false`): the API is only legal there.
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            let mut per_tuple = filled(policy, false);
            let mut grouped = filled(policy, false);
            let groups: [&[(Time, i64)]; 3] =
                [&[(5, 50), (2, 2), (5, 51)], &[(11, 11)], &[(29, 290), (25, 100)]];
            for run in groups {
                let idx = per_tuple.covering_index(run[0].0).unwrap();
                for &(ts, v) in run {
                    per_tuple.add_out_of_order_run(idx, &[(ts, v)]);
                }
                let partial = run.iter().skip(1).fold(run[0].1, |a, &(_, v)| a + v);
                let t_first = run.iter().map(|&(t, _)| t).min().unwrap();
                let t_last = run.iter().map(|&(t, _)| t).max().unwrap();
                grouped.add_out_of_order_partial(idx, partial, t_first, t_last, run.len());
            }
            grouped.flush_eager_repairs();
            per_tuple.flush_eager_repairs();
            for (a, b) in [(0, 10), (10, 20), (20, 30), (0, 30)] {
                assert_eq!(
                    per_tuple.query_time(Range::new(a, b)),
                    grouped.query_time(Range::new(a, b)),
                    "policy {policy:?} range [{a},{b})"
                );
            }
            assert_eq!(per_tuple.total_count(), grouped.total_count());
            for i in 0..3 {
                assert_eq!(per_tuple.slice(i).t_first(), grouped.slice(i).t_first());
                assert_eq!(per_tuple.slice(i).t_last(), grouped.slice(i).t_last());
            }
        }
    }

    #[test]
    fn eager_late_writes_are_queryable_without_a_flush() {
        // The FlatFAT is written through: right after a late run or a
        // pre-folded late partial, a range past the scan cutoff is
        // answered by the tree, and equals the slice fold.
        let mut st = store(StorePolicy::Eager, false);
        let n = INDEX_SCAN_CUTOFF + 8;
        for i in 0..n {
            let t = i as Time * 10;
            st.append_slice(Range::new(t, t + 10));
            st.add_one(t, i as i64 + 1);
        }
        st.flush_eager_repairs();
        let fold = |st: &SliceStore<SumI64>| {
            st.slices().filter_map(|s| s.aggregate().copied()).reduce(|a, b| a + b)
        };
        st.add_out_of_order_run(3, &[(31, 100), (33, 7)]);
        let tree = |st: &SliceStore<SumI64>, l| st.index.as_ref().unwrap().query(l, n);
        assert_eq!(tree(&st, 0), fold(&st), "after a late run");
        assert_eq!(st.query_slice_range(0, n), fold(&st));
        st.add_out_of_order_partial(n - 2, -40, 381, 385, 3);
        assert_eq!(tree(&st, 1), st.query_slice_range(1, n));
        assert_eq!(tree(&st, 0), fold(&st), "after a late partial");
        assert_eq!(st.query_time(Range::new(0, n as Time * 10)), fold(&st));
    }

    /// Slices `[10 i, 10 i + 10)` for `i` in `from..to`, except every
    /// seventh (a coverage gap), each holding one tuple of value `i`.
    fn fill_every_but_seventh(st: &mut SliceStore<SumI64>, from: i64, to: i64) {
        for i in (from..to).filter(|i| i % 7 != 3) {
            st.append_slice(Range::new(i * 10, i * 10 + 10));
            st.add_one(i * 10 + 1, i);
        }
    }

    #[test]
    fn eager_structural_ops_match_lazy_past_the_scan_cutoff() {
        // Tuples kept: a split needs them.
        let mut lazy = store(StorePolicy::Lazy, true);
        let mut eager = store(StorePolicy::Eager, true);
        for st in [&mut lazy, &mut eager] {
            fill_every_but_seventh(st, 0, 300);
            for gap in [3, 10, 17, 150, 297] {
                let idx = st.insert_gap_slice(Range::new(gap * 10, gap * 10 + 10));
                st.add_out_of_order_run(idx, &[(gap * 10 + 2, 1_000 + gap)]);
            }
            for ts in [5, 1_234, 2_001, 2_990] {
                let idx = st.covering_index(ts).unwrap();
                st.add_out_of_order_run(idx, &[(ts, ts)]);
            }
            assert!(st.merge_at(1_000));
            assert!(st.split_at(1_505));
            // Slices 0..40, three of their six gaps filled above.
            assert_eq!(st.evict_before(400), 37);
        }
        assert_eq!(eager.len(), lazy.len());
        let n = eager.len();
        let tree = eager.index.as_ref().unwrap();
        for l in (0..n).step_by(13) {
            for r in (l + INDEX_SCAN_CUTOFF + 1..=n).step_by(29) {
                let want = lazy.query_slice_range(l, r);
                assert_eq!(tree.query(l, r), want, "tree [{l}, {r})");
                assert_eq!(eager.query_slice_range(l, r), want, "query [{l}, {r})");
            }
        }
    }

    /// Per-window answers for `windows`, `None`s included.
    fn each<A: AggregateFunction>(
        st: &SliceStore<A>,
        windows: &[((), Range)],
    ) -> Vec<Option<A::Partial>> {
        windows.iter().map(|(_, w)| st.query_time(*w)).collect()
    }

    /// What `run` (a batch entry point) emitted for `windows`, expanded
    /// back to one entry per window; also checks the emit order.
    fn emitted<A: AggregateFunction>(
        windows: &[((), Range)],
        run: impl FnOnce(&mut dyn FnMut(&(), Range, A::Partial)),
    ) -> Vec<Option<A::Partial>> {
        let mut got: Vec<Option<A::Partial>> = vec![None; windows.len()];
        let mut next = 0;
        run(&mut |_, range, p| {
            // Emission follows the window order and skips unanswered ones.
            next += windows[next..].iter().position(|(_, w)| *w == range).expect("in order");
            got[next] = Some(p);
            next += 1;
        });
        got
    }

    /// The windows as runs of one.
    fn ones(windows: &[((), Range)]) -> Vec<((), WindowRun)> {
        windows.iter().map(|&(tag, w)| (tag, WindowRun::one(w))).collect()
    }

    /// The windows as runs: each stretch of windows a constant positive
    /// slide apart is one.
    fn runs_of(windows: &[((), Range)]) -> Vec<((), WindowRun)> {
        let mut runs: Vec<((), WindowRun)> = Vec::new();
        for &((), w) in windows {
            if let Some(((), run)) = runs.last_mut() {
                let last = run.window(run.len - 1);
                let slide = w.start - last.start;
                if slide > 0 && w.end - last.end == slide && (run.len == 1 || slide == run.slide) {
                    (run.slide, run.len) = (slide, run.len + 1);
                    continue;
                }
            }
            runs.push(((), WindowRun::one(w)));
        }
        runs
    }

    /// Every `[a, b)` over `edges`, in an order that is neither sorted
    /// by start nor by end (sweeps list windows query by query).
    fn all_pairs(edges: &[Time]) -> Vec<((), Range)> {
        let mut windows = Vec::new();
        for len in (1..edges.len()).rev() {
            for i in 0..edges.len() - len {
                windows.push(((), Range::new(edges[i], edges[i + len])));
            }
        }
        windows
    }

    /// Slices of width 10 from 0, with a session gap (no slice over
    /// `[40, 70)`), empty slices, and an open slice that nominally runs
    /// far past its last tuple.
    fn gappy<A: AggregateFunction<Input = i64>>(f: A, policy: StorePolicy) -> SliceStore<A> {
        let mut st = SliceStore::new(f, policy, false);
        for i in 0..48 {
            let t = i * 10;
            if (40..70).contains(&t) {
                continue;
            }
            st.append_slice(Range::new(t, t + 10));
            if i % 5 != 3 {
                st.add_one(t + 1, i);
                st.add_one(t + 7, 100 + i);
            }
        }
        st.append_slice(Range::new(480, 10_000));
        st.add_one(481, 7);
        st
    }

    fn batch_matches_each<A>(st: &SliceStore<A>, windows: &[((), Range)], what: &str)
    where
        A: AggregateFunction,
        A::Partial: PartialEq + std::fmt::Debug,
    {
        let want = each(st, windows);
        for (runs, as_runs) in [(ones(windows), "one window a run"), (runs_of(windows), "runs")] {
            let scanned = emitted::<A>(windows, |emit| st.shared_scan(&runs, emit));
            assert_eq!(scanned, want, "{what}, {as_runs}: shared scan");
            let batched = emitted::<A>(windows, |emit| {
                st.query_time_batch(&runs, emit);
            });
            assert_eq!(batched, want, "{what}, {as_runs}: batch call");
        }
    }

    #[test]
    fn batch_call_matches_per_window_queries_on_every_pair() {
        // Window edges: every slice edge, the gap's inside, and edges
        // before and past the store — so the pair set holds windows that
        // straddle the gap, lie inside it, cover one slice, miss every
        // slice, and end inside the open slice beyond its last tuple.
        let edges: Vec<Time> = (-2..=48).map(|i| i * 10).collect();
        let mut windows = all_pairs(&edges);
        for &start in &edges {
            windows.push(((), Range::new(start, 500)));
            windows.push(((), Range::new(start, 20_000)));
        }
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            let mut sum = gappy(SumI64, policy);
            sum.flush_eager_repairs();
            batch_matches_each(&sum, &windows, &format!("sum {policy:?}"));
            // Non-commutative: any window answered out of slice order shows.
            let mut concat = gappy(Concat, policy);
            concat.flush_eager_repairs();
            batch_matches_each(&concat, &windows, &format!("concat {policy:?}"));
        }
    }

    #[test]
    fn batch_call_handles_disjoint_groups_and_tiny_stores() {
        // Tumbling windows share no boundary, so these go per window;
        // windows nested inside a long one share its pivot.
        let st = gappy(Concat, StorePolicy::Lazy);
        let mut windows: Vec<((), Range)> =
            (0..48).map(|i| ((), Range::new(i * 10, i * 10 + 10))).collect();
        windows.push(((), Range::new(0, 480)));
        windows.extend((0..12).map(|i| ((), Range::new(i * 40, i * 40 + 30))));
        batch_matches_each(&st, &windows, "tumbling + nested");
        // Sliding sweeps: suffix and prefix columns fold long runs of
        // slices (gap and empties in); a sweep longer than its windows
        // has no pivot.
        for len in [3, 7, 20, 45] {
            let mut windows: Vec<((), Range)> =
                (0..=48 - len).map(|i| ((), Range::new(i * 10, (i + len) * 10))).collect();
            batch_matches_each(&st, &windows, &format!("sliding {len}"));
            // Query-major order, as a sweep over two queries lists them.
            windows
                .extend((0..=48 - 2 * len).map(|i| ((), Range::new(i * 10, (i + 2 * len) * 10))));
            batch_matches_each(&st, &windows, &format!("sliding {len} + {}", 2 * len));
        }

        // A single-slice store, asked the same window many times over
        // (enough to pass the batch threshold) plus misses on both sides.
        let mut one = store(StorePolicy::Eager, false);
        one.append_slice(Range::new(0, 10));
        one.add_one(3, 3);
        let mut windows = vec![((), Range::new(0, 10)); MIN_BATCH_WINDOWS + 2];
        windows.push(((), Range::new(-10, 0)));
        windows.push(((), Range::new(10, 20)));
        windows.push(((), Range::new(-10, 20)));
        batch_matches_each(&one, &windows, "single slice");

        // An empty store and an empty sweep answer nothing.
        let none = store(StorePolicy::Lazy, false);
        batch_matches_each(&none, &windows, "empty store");
        batch_matches_each(&one, &[], "empty sweep");
    }

    #[test]
    fn batch_call_picks_its_path_from_the_sweep() {
        let windows_over = |n: i64, len: i64, count: i64| -> Vec<((), Range)> {
            (0..count).map(|i| ((), Range::new((n - len - i) * 10, (n - i) * 10))).collect()
        };
        let dense = |policy, n: i64| {
            let mut st = store(policy, false);
            for i in 0..n {
                st.append_slice(Range::new(i * 10, i * 10 + 10));
                st.add_one(i * 10, 1);
            }
            st.flush_eager_repairs();
            st
        };
        let scanned = |st: &SliceStore<SumI64>, windows: &[((), Range)]| {
            st.query_time_batch(&runs_of(windows), |_, _, _| {})
        };
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            let st = dense(policy, 600);
            // A sliding sweep: many long windows a slide apart.
            assert_eq!(scanned(&st, &windows_over(600, 300, 100)), 100, "{policy:?}");
            // Too few windows to be worth a plan.
            assert_eq!(scanned(&st, &windows_over(600, 300, MIN_BATCH_WINDOWS as i64 - 1)), 0);
            // A tumbling catch-up: one slice per window, nothing shared.
            let tumbling: Vec<((), Range)> =
                (100..200).map(|i| ((), Range::new(i * 10, i * 10 + 10))).collect();
            assert_eq!(scanned(&st, &tumbling), 0, "{policy:?}");
            // A sliding sweep that spans more than one window length
            // shares no boundary: answered per window, and alike.
            let spread: Vec<((), Range)> =
                (100..112).map(|i| ((), Range::new(i * 10, (i + 4) * 10))).collect();
            assert_eq!(scanned(&st, &spread), 0, "{policy:?}");
            let got = emitted::<SumI64>(&spread, |e| {
                st.query_time_batch(&runs_of(&spread), e);
            });
            assert_eq!(got, each(&st, &spread), "{policy:?}");
        }
        // A dozen windows over thousands of slices: an index answers
        // each in O(log d); a store without one folds each window's
        // slices, and there the scan's one pass wins.
        let st = dense(StorePolicy::Eager, 3_000);
        assert_eq!(scanned(&st, &windows_over(3_000, 2_900, 12)), 0);
        // Holistic partials are never scanned.
        let mut concat: SliceStore<Concat> = SliceStore::new(Concat, StorePolicy::Lazy, false);
        for i in 0..100 {
            concat.append_slice(Range::new(i * 10, i * 10 + 10));
            concat.add_one(i * 10, i);
        }
        assert_eq!(concat.query_time_batch(&ones(&windows_over(100, 50, 40)), |_, _, _| {}), 0);
    }

    #[test]
    fn evict_keeping_counts_drops_leading_slices() {
        let mut st = filled(StorePolicy::Eager, true);
        // Keep counts from 3 on: slices 0 (counts 0..2) and 1 (2..3) go.
        assert_eq!(st.evict_keeping_counts(3), 2);
        assert_eq!(st.len(), 1);
        assert_eq!(st.query_count(3, 5), Some(50));
    }

    #[test]
    fn set_plan_drops_existing_tuples() {
        let mut st = filled(StorePolicy::Lazy, true);
        assert!(st.slice(0).tuples().is_some());
        st.set_plan(SlicePlan::standalone(&SumI64, false));
        assert!(!st.keeps_tuples() && st.slice(0).tuples().is_none());
        // Aggregates survive.
        assert_eq!(st.query_time(Range::new(0, 30)), Some(68));
    }

    #[test]
    fn memory_grows_with_tuple_storage() {
        let a = filled(StorePolicy::Lazy, false);
        let b = filled(StorePolicy::Lazy, true);
        let c = filled(StorePolicy::Eager, true);
        assert!(b.heap_bytes() > a.heap_bytes());
        assert!(c.heap_bytes() > b.heap_bytes());
    }

    proptest::proptest! {
        /// Merging adjacent slices equals building one slice directly.
        #[test]
        fn slice_merge_equals_direct_build(
            left in proptest::collection::vec((0i64..500, -50i64..50), 0..50),
            right in proptest::collection::vec((500i64..1_000, -50i64..50), 0..50),
        ) {
            let mut sorted_left = left.clone();
            sorted_left.sort();
            let mut sorted_right = right.clone();
            sorted_right.sort();
            let mut merged = SliceStore::new(SumI64, StorePolicy::Lazy, true);
            for (range, tuples) in [(Range::new(0, 500), &sorted_left), (Range::new(500, 1_000), &sorted_right)] {
                merged.append_slice(range);
                for (ts, v) in tuples {
                    merged.add_in_order_run_columns(&[*ts], &[*v]);
                }
            }
            proptest::prop_assert!(merged.merge_at(500));
            let mut direct = SliceStore::new(SumI64, StorePolicy::Lazy, true);
            direct.append_slice(Range::new(0, 1_000));
            for (ts, v) in sorted_left.iter().chain(&sorted_right) {
                direct.add_in_order_run_columns(&[*ts], &[*v]);
            }
            let (a, d) = (merged.slice(0), direct.slice(0));
            proptest::prop_assert_eq!(merged.len(), 1);
            proptest::prop_assert_eq!(a.range(), d.range());
            proptest::prop_assert_eq!(a.aggregate(), d.aggregate());
            proptest::prop_assert_eq!(a.len(), d.len());
            proptest::prop_assert_eq!(a.t_first(), d.t_first());
            proptest::prop_assert_eq!(a.t_last(), d.t_last());
            proptest::prop_assert_eq!(a.tuples(), d.tuples());
        }
    }
}
