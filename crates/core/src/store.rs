//! The Aggregate Store (paper Figure 7): the shared data structure holding
//! slices, accessed by the stream slicer (to create slices), the slice
//! manager (to update them), and the window manager (to compute window
//! aggregates).
//!
//! A store is a `SliceGeometry` (where every slice lies, compiled once for
//! every aggregate) plus columns that follow it: the partials, and the
//! tuples while the `SlicePlan` keeps them. Only the fold and the write of
//! a partial are generic; the plan decides the rest (Figures 4–6).
//!
//! Three variants extend the paper's lazy/eager distinction (Table 1 rows
//! 5–8): the **lazy** store keeps only the columns and combines partials
//! on demand; the **eager** store also keeps a [`FlatFat`] over the
//! partials for `O(log s)` window queries (Figure 11); the **finger-tree**
//! store keeps a [`FingerTree`] instead (FiBA-style finger B-tree), built
//! when a query first asks for a long range. Each index has one write
//! discipline: the FlatFAT writes through at every leaf write, the finger
//! tree defers every write to one spine repair at the next query flush.
//!
//! A slice changes through one store entry per kind of change, and one
//! tuple is a run of one: an in-order run into the open slice, a sorted
//! late run, a pre-folded late partial, and the count shift.
//!
//! A trigger sweep's windows are resolved to slice ranges in one pass;
//! when they all contain one slice boundary they are answered from one
//! suffix and one prefix scan around it, otherwise one by one.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::cast;
use crate::characteristics::{RemovalStrategy, SlicePlan};
use crate::fiba::FingerTree;
use crate::flatfat::FlatFat;
use crate::function::{is_holistic, AggregateFunction};
use crate::geometry::{Extent, SliceGeometry, SweepPlan};
use crate::mem::HeapSize;
use crate::slice::{extent_of, merge_late_run, Slice};
use crate::time::{Range, Time, TIME_MIN};

/// Lazy vs. eager final aggregation (paper Section 3.4), plus the
/// disorder-tuned eager variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorePolicy {
    /// Store slices only; combine on demand when windows end.
    Lazy,
    /// Maintain a dense FlatFAT aggregate tree over slices for
    /// low-latency output.
    Eager,
    /// Maintain a finger B-tree aggregate index: eager-grade query
    /// latency, O(log d) out-of-order writes, and O(1)-amortized bulk
    /// eviction (FiBA, arXiv 2307.11210).
    FingerTree,
}

/// The per-slice aggregate index backing the eager policies. `None`
/// (lazy) stores nothing; the other variants mirror `partials[i]` at
/// leaf `i`. When a leaf write reaches the ancestors is up to the index:
/// at once in the FlatFAT, at the next [`repair`](AggIndex::repair) in
/// the finger tree.
#[derive(Clone)]
enum AggIndex<A: AggregateFunction> {
    None,
    Flat(FlatFat<A>),
    Finger(FingerTree<A>),
}

impl<A: AggregateFunction> AggIndex<A> {
    fn insert(&mut self, i: usize, p: Option<A::Partial>) {
        match self {
            AggIndex::None => {}
            AggIndex::Flat(t) => t.insert(i, p),
            AggIndex::Finger(t) => t.insert(i, p),
        }
    }

    /// Writes leaf `i`.
    fn update(&mut self, i: usize, p: Option<A::Partial>) {
        match self {
            AggIndex::None => {}
            AggIndex::Flat(t) => t.update(i, p),
            AggIndex::Finger(t) => t.update(i, p),
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            AggIndex::None => {}
            AggIndex::Flat(t) => drop(t.remove(i)),
            AggIndex::Finger(t) => drop(t.remove(i)),
        }
    }

    fn remove_prefix(&mut self, k: usize) {
        match self {
            AggIndex::None => {}
            AggIndex::Flat(t) => t.remove_prefix(k),
            AggIndex::Finger(t) => t.remove_prefix(k),
        }
    }

    fn repair(&mut self) {
        if let AggIndex::Finger(t) = self {
            t.repair_dirty();
        }
    }

    /// Indexed range query; `None` when no index is maintained (lazy).
    fn query(&self, l: usize, r: usize) -> Option<Option<A::Partial>> {
        match self {
            AggIndex::None => None,
            AggIndex::Flat(t) => Some(t.query(l, r)),
            AggIndex::Finger(t) => Some(t.query(l, r)),
        }
    }
}

/// Ranges at most this many slices long are answered by folding the
/// partial column sequentially instead of consulting the aggregate index.
/// Measured on the `ooo` workload (~25 live slices, windows spanning
/// 1–20): the scan closes the finger store's entire in-order query
/// overhead vs the lazy store, while ranges past the cutoff are where
/// an O(log n) index visit beats O(n) combines anyway.
pub(crate) const INDEX_SCAN_CUTOFF: usize = 32;

/// One slice's tuples, sorted by time (ties in arrival order).
type Tuples<A> = Vec<(Time, <A as AggregateFunction>::Input)>;

/// An ordered collection of slices: their geometry, their partials, their
/// tuples while the plan keeps them, and an optional eager index.
#[derive(Clone)]
pub struct SliceStore<A: AggregateFunction> {
    f: A,
    geometry: SliceGeometry,
    /// Slice `i`'s partial aggregate in event-time order; `None` iff the
    /// slice holds no tuple.
    partials: VecDeque<Option<A::Partial>>,
    /// Slice `i`'s tuples: present iff the plan keeps tuples (Figure 4).
    tuples: Option<VecDeque<Tuples<A>>>,
    plan: SlicePlan,
    /// Holistic partials are never copied into a shared scan.
    holistic: bool,
    /// Aggregate index: leaf `i` mirrors `partials[i]`.
    index: AggIndex<A>,
    /// Whether the index mirrors the partials. Lazy and eager stores are
    /// born live; the finger tree is built *on first need*: until a query
    /// asks for a range longer than [`INDEX_SCAN_CUTOFF`] slices its
    /// maintenance is this flag check, and the flush after such a query
    /// builds it and flips this for good.
    index_live: bool,
    /// Set by a long range query against the unbuilt finger tree; the
    /// next flush builds it. A `Cell` because queries take `&self`.
    index_wanted: Cell<bool>,
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
            StorePolicy::Lazy => AggIndex::None,
            StorePolicy::Eager => AggIndex::Flat(FlatFat::new(f.clone())),
            StorePolicy::FingerTree => AggIndex::Finger(FingerTree::new(f.clone())),
        };
        SliceStore {
            holistic: is_holistic(&f),
            f,
            geometry: SliceGeometry::default(),
            partials: VecDeque::new(),
            tuples: plan.keep_tuples.then(VecDeque::new),
            plan,
            index,
            index_live: policy != StorePolicy::FingerTree,
            index_wanted: Cell::new(false),
        }
    }

    /// Bulk-builds the finger tree from the current partials if a long
    /// range query asked for it since the last flush. The pushes leave
    /// the spine dirty, as every finger write does; the calling flush
    /// repairs it. O(n) once per store lifetime.
    fn maybe_build_index(&mut self) {
        if !self.index_wanted.take() {
            return;
        }
        if let AggIndex::Finger(t) = &mut self.index {
            debug_assert_eq!(t.len(), 0, "building an already-populated index");
            for p in &self.partials {
                t.push(p.clone());
            }
        }
        self.index_live = true;
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
            self.tuples = plan.keep_tuples.then(|| (0..self.len()).map(|_| Vec::new()).collect());
        }
        self.plan = plan;
    }

    pub fn slice(&self, i: usize) -> Slice<'_, A> {
        Slice {
            range: Range::new(self.geometry.start(i), self.geometry.end(i)),
            extent: self.geometry.extent(i),
            aggregate: self.partials[i].as_ref(),
            tuples: self.tuples.as_ref().map(|t| t[i].as_slice()),
        }
    }

    pub fn slices(&self) -> impl Iterator<Item = Slice<'_, A>> {
        (0..self.len()).map(|i| self.slice(i))
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
    pub(crate) fn insert_gap_slice(&mut self, range: Range) -> usize {
        let idx = self.geometry.insert_gap(range);
        self.open_columns(idx);
        #[cfg(feature = "audit")]
        self.assert_invariants();
        idx
    }

    /// Opens the columns of the empty slice the geometry placed at `idx`.
    fn open_columns(&mut self, idx: usize) {
        self.partials.insert(idx, None);
        if let Some(tuples) = &mut self.tuples {
            tuples.insert(idx, Vec::new());
        }
        if self.index_live {
            self.index.insert(idx, None);
        }
    }

    /// Dense structural checks for the audit build: the geometry's, every
    /// column as long as the geometry, and a live index with exactly one
    /// leaf per slice.
    #[cfg(feature = "audit")]
    pub fn assert_invariants(&self) {
        self.geometry.assert_invariants();
        let n = self.len();
        assert_eq!(self.partials.len(), n, "partial column out of sync with slices");
        assert!(self.tuples.as_ref().is_none_or(|t| t.len() == n), "tuple column out of sync");
        match &self.index {
            AggIndex::None => {}
            AggIndex::Flat(t) => {
                assert_eq!(t.len(), n, "eager index out of sync with slices");
                t.assert_invariants();
            }
            AggIndex::Finger(t) => {
                let leaves = if self.index_live { n } else { 0 };
                assert_eq!(t.len(), leaves, "finger index out of sync with slices");
                t.assert_invariants();
            }
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
            tuples[idx].extend(times.iter().copied().zip(values.iter().cloned()));
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
    pub(crate) fn add_out_of_order_run(&mut self, idx: usize, run: &[(Time, A::Input)]) {
        let (Some(&(t_first, _)), Some(&(t_last, _))) = (run.first(), run.last()) else {
            return;
        };
        debug_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "run not sorted");
        self.geometry.widen(idx, Extent { count: run.len(), t_first, t_last });
        debug_assert!(self.keeps_tuples() || !self.plan.late_recomputes, "Figure 4 keeps them");
        let refolded = self.tuples.as_mut().and_then(|tuples| {
            merge_late_run(&mut tuples[idx], run);
            let values = tuples[idx].iter().map(|(_, v)| v);
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

    /// Repairs the finger tree's dirty spine after its deferred leaf
    /// writes, first building the tree if a long range query asked for
    /// it since the last flush. Must run before any window query; a
    /// no-op for the lazy and eager stores, which have nothing pending.
    pub fn flush_eager_repairs(&mut self) {
        self.maybe_build_index();
        // While the store holds at most [`INDEX_SCAN_CUTOFF`] slices, no
        // range query can be long enough to consult the index (every
        // range is bounded by the store length, and short ranges scan
        // the partial column — see `query_slice_range`), so deferred
        // writes can keep accumulating for free. The moment the store
        // outgrows the cutoff, the next query sweep lands here and
        // repairs before the first index visit.
        if self.len() > INDEX_SCAN_CUTOFF {
            self.index.repair();
        }
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
    /// tuples and partial, has the geometry split, and opens slice
    /// `idx + 1` with the right part.
    fn split_columns(&mut self, idx: usize, ts: Time) -> bool {
        let whole = self.geometry.extent(idx);
        let (left, right, moved, right_partial) = if ts > whole.t_last {
            (whole, Extent::EMPTY, Vec::new(), None)
        } else if ts <= whole.t_first {
            let moved = self.tuples.as_mut().map(|t| std::mem::take(&mut t[idx]));
            (Extent::EMPTY, whole, moved.unwrap_or_default(), self.partials[idx].take())
        } else if let Some(tuples) = &mut self.tuples {
            let stay = &mut tuples[idx];
            let moved = stay.split_off(stay.partition_point(|(t, _)| *t < ts));
            self.partials[idx] = self.f.lift_all(stay.iter().map(|(_, v)| v));
            let right_partial = self.f.lift_all(moved.iter().map(|(_, v)| v));
            (extent_of(stay), extent_of(&moved), moved, right_partial)
        } else {
            return false;
        };
        self.geometry.split(idx, ts, left, right);
        self.partials.insert(idx + 1, right_partial);
        if let Some(tuples) = &mut self.tuples {
            tuples.insert(idx + 1, moved);
        }
        if self.index_live {
            self.index.insert(idx + 1, None);
        }
        self.refresh_leaf(idx);
        self.refresh_leaf(idx + 1);
        true
    }

    /// Merges the two slices adjacent at edge `ts` (`slices[i].end == ts ==
    /// slices[i+1].start`): `agg ← agg ⊕ next.agg`, tuples appended.
    /// Returns `false` if `ts` is not such an edge.
    #[inline]
    pub(crate) fn merge_at(&mut self, ts: Time) -> bool {
        self.geometry.merge_at(ts).map(|idx| self.merge_columns(idx)).is_some()
    }

    /// The column side of merging slice `idx + 1` into slice `idx`.
    fn merge_columns(&mut self, idx: usize) {
        let right = self.partials.remove(idx + 1).flatten();
        let left = self.partials[idx].take();
        self.partials[idx] = self.f.combine_opt(left, right.as_ref());
        if let Some(tuples) = &mut self.tuples {
            let right = tuples.remove(idx + 1).unwrap_or_default();
            tuples[idx].extend(right);
        }
        if self.index_live {
            self.index.remove(idx + 1);
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
    /// sequential combines beats a tree descent over cold pointers. The
    /// index only earns its keep past `INDEX_SCAN_CUTOFF` slices (large
    /// lateness, many live slices). The column is the source of truth, so
    /// the scan is immune to deferred index repairs.
    ///
    /// A long range against a finger tree not built yet is scanned too,
    /// with the same answer, and asks for the tree: the next
    /// [`flush_eager_repairs`](SliceStore::flush_eager_repairs) builds
    /// it, so only queries before that flush pay the scan.
    pub fn query_slice_range(&self, l: usize, r: usize) -> Option<A::Partial> {
        if r - l > INDEX_SCAN_CUTOFF {
            if !self.index_live {
                self.index_wanted.set(true);
            } else if let Some(q) = self.index.query(l, r) {
                return q;
            }
        }
        self.fold(l, r)
    }

    /// The partials of slices `[l, r)`, folded in order.
    fn fold(&self, l: usize, r: usize) -> Option<A::Partial> {
        self.partials.range(l..r).fold(None, |acc, p| self.f.combine_opt(acc, p.as_ref()))
    }

    /// The per-window path: one [`query_time`](SliceStore::query_time)
    /// per window, in order; `emit` sees every window with an answer.
    pub fn query_time_each<T>(
        &self,
        windows: &[(T, Range)],
        mut emit: impl FnMut(&T, Range, A::Partial),
    ) {
        for (tag, range) in windows {
            if let Some(p) = self.query_time(*range) {
                emit(tag, *range, p);
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
    /// every window to slice indices, finds whether they share a
    /// boundary, and prices each window as [`query_slice_range`] would
    /// (its length, or `O(log d)` through an index) against the scan
    /// (the slices under the sweep, the prefix entries, one combine per
    /// window). The cheaper side answers; a sweep with no shared
    /// boundary is answered per window.
    ///
    /// [`query_time_each`]: SliceStore::query_time_each
    /// [`shared_scan`]: SliceStore::shared_scan
    /// [`query_slice_range`]: SliceStore::query_slice_range
    pub fn query_time_batch<T>(
        &self,
        windows: &[(T, Range)],
        mut emit: impl FnMut(&T, Range, A::Partial),
    ) -> usize {
        if windows.len() < MIN_BATCH_WINDOWS || self.holistic {
            self.query_time_each(windows, emit);
            return 0;
        }
        let edges = self.geometry.resolve(windows, self.index_cost());
        // The scan visits every slice under the sweep, fills the prefix
        // column and combines once per window.
        let pays = |plan: &SweepPlan| edges.scan_cost(plan) + windows.len() <= edges.each_cost;
        match SweepPlan::new(&edges).filter(pays) {
            Some(plan) => {
                self.emit_scanned(windows, &edges.bounds, &plan, &mut emit);
                windows.len()
            }
            None => {
                self.emit_each(windows, &edges.bounds, &mut emit);
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
    /// partials only, never the index, so the cost is the same under
    /// every [`StorePolicy`].
    /// [`query_time_batch`](SliceStore::query_time_batch) decides when
    /// this is the cheaper way.
    pub fn shared_scan<T>(
        &self,
        windows: &[(T, Range)],
        mut emit: impl FnMut(&T, Range, A::Partial),
    ) {
        let edges = self.geometry.resolve(windows, self.index_cost());
        match SweepPlan::new(&edges) {
            Some(plan) => self.emit_scanned(windows, &edges.bounds, &plan, &mut emit),
            None => self.emit_each(windows, &edges.bounds, &mut emit),
        }
    }

    /// Combines [`query_slice_range`](SliceStore::query_slice_range)
    /// spends on a range longer than `INDEX_SCAN_CUTOFF` slices: `None`
    /// without an index (the range's length, then). An unbuilt finger
    /// tree is priced as built, so that a sweep wanting per-window
    /// queries gets them and its first long query triggers the build.
    fn index_cost(&self) -> Option<usize> {
        match self.index {
            AggIndex::None => None,
            _ => Some(2 * cast::idx32(self.len().max(1).ilog2())),
        }
    }

    /// Emits a resolved sweep's windows in order, each from its own
    /// slice range.
    fn emit_each<T>(
        &self,
        windows: &[(T, Range)],
        bounds: &[(u32, u32)],
        emit: &mut impl FnMut(&T, Range, A::Partial),
    ) {
        for ((tag, range), &(l, r)) in windows.iter().zip(bounds) {
            let (l, r) = (cast::idx32(l), cast::idx32(r));
            if l < r {
                debug_assert!(self.geometry.aligned(*range, l, r), "window {range} off its slices");
                if let Some(p) = self.query_slice_range(l, r) {
                    emit(tag, *range, p);
                }
            }
        }
    }

    /// Builds the scan columns of a planned sweep and emits its windows
    /// in order.
    fn emit_scanned<T>(
        &self,
        windows: &[(T, Range)],
        bounds: &[(u32, u32)],
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
        for (i, ((tag, range), &(l, r))) in windows.iter().zip(bounds).enumerate() {
            let (l, r) = (cast::idx32(l), cast::idx32(r));
            if l >= r {
                continue;
            }
            if cfg!(feature = "audit") && i % 16 == 0 {
                assert_eq!((l, r), self.geometry.slice_span(*range), "window {range} resolved off");
            }
            let (l, r) = (l - plan.base, r - plan.base);
            if let Some((first, last)) = extents.as_ref().and_then(|e| e.answer(plan, l, r)) {
                debug_assert!(
                    first >= range.start && last < range.end,
                    "window {range} does not align with slice contents"
                );
            }
            if let Some(p) = scan.answer(plan, l, r) {
                emit(tag, *range, p);
            }
        }
    }

    /// Combines the partials of slices covering the absolute count range
    /// `[c1, c2)`. Slice boundaries must align with `c1`/`c2` (the count
    /// slicing invariant maintained by the Figure-6 shift).
    pub fn query_count(&self, c1: u64, c2: u64) -> Option<A::Partial> {
        let (l, r) = self.geometry.count_span(c1, c2);
        self.fold(l, r)
    }

    /// Number of tuples (absolute count) with timestamp `<= ts`, counting
    /// evicted tuples. Requires stored tuples for the partially-covered
    /// slice; exact because count workloads always store tuples.
    pub(crate) fn count_at_or_before(&self, ts: Time) -> u64 {
        let (count, i) = self.geometry.count_through(ts);
        let within = self.tuples.as_ref().and_then(|t| t.get(i));
        count + within.map_or(0, |t| cast::to_u64(t.partition_point(|(t, _)| *t <= ts)))
    }

    /// Total number of tuples ever added (absolute count).
    pub fn total_count(&self) -> u64 {
        self.geometry.total_count()
    }

    /// Moves the last tuple of slice `idx` into slice `idx + 1` (the
    /// Figure-6 shift for count-based windows), to the front of its
    /// timestamp group: it comes from the predecessor, so its count
    /// position precedes everything there. The source pays one ⊖ where
    /// the plan inverts and recomputes from its tuples otherwise; the
    /// destination combines the tuple in, or recomputes where the plan
    /// recomputes late inserts. Returns `false` without a successor,
    /// with an empty slice, or without a tuple column.
    pub(crate) fn shift_last_into_next(&mut self, idx: usize) -> bool {
        let Some(tuples) = &mut self.tuples else {
            return false;
        };
        if idx + 1 >= tuples.len() {
            return false;
        }
        let Some((ts, value)) = tuples[idx].pop() else {
            return false;
        };
        let (f, rest) = (&self.f, &tuples[idx]);
        let recompute = || f.lift_all(rest.iter().map(|(_, v)| v));
        let source = match (self.plan.removal, self.partials[idx].take()) {
            _ if rest.is_empty() => None,
            (RemovalStrategy::Invert, Some(a)) => f.invert(a, &f.lift(&value)).or_else(recompute),
            _ => recompute(),
        };
        let new_last = rest.last().map_or(TIME_MIN, |t| t.0);
        self.partials[idx] = source;
        let next = &mut tuples[idx + 1];
        next.insert(next.partition_point(|(t, _)| *t < ts), (ts, value.clone()));
        if self.plan.late_recomputes {
            self.partials[idx + 1] = f.lift_all(next.iter().map(|(_, v)| v));
        } else {
            self.absorb(idx + 1, self.f.lift(&value));
        }
        self.geometry.shift_last(idx, ts, new_last);
        self.refresh_leaf(idx);
        self.refresh_leaf(idx + 1);
        true
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
        self.geometry.evict(k);
        self.drop_columns(k);
    }

    /// The column side of evicting the first `k` slices.
    fn drop_columns(&mut self, k: usize) {
        self.partials.drain(..k);
        if let Some(tuples) = &mut self.tuples {
            tuples.drain(..k);
        }
        if self.index_live {
            self.index.remove_prefix(k);
        }
        #[cfg(feature = "audit")]
        self.assert_invariants();
    }

    /// Evicts leading slices whose tuples are entirely below the absolute
    /// count `keep_from` (count-measure eviction).
    pub(crate) fn evict_keeping_counts(&mut self, keep_from: u64) -> usize {
        let k = self.geometry.count_evictable(keep_from);
        self.evict_first(k);
        k
    }

    /// Re-synchronizes the index leaf for slice `idx`. The FlatFAT
    /// repairs its ancestors at once, as the paper's eager store does;
    /// the finger tree marks its spine for
    /// [`SliceStore::flush_eager_repairs`], so k hot-slice writes between
    /// queries share one repair.
    fn refresh_leaf(&mut self, idx: usize) {
        if self.index_live {
            self.index.update(idx, self.partials[idx].clone());
        }
    }

    /// The aggregate function.
    pub fn function(&self) -> &A {
        &self.f
    }
}

/// The index sits inline in the store, so only its heap counts here: the
/// store's owner adds the store's inline size once.
impl<A: AggregateFunction> HeapSize for SliceStore<A> {
    fn heap_bytes(&self) -> usize {
        self.geometry.heap_bytes()
            + self.partials.heap_bytes()
            + self.tuples.heap_bytes()
            + match &self.index {
                AggIndex::None => 0,
                AggIndex::Flat(t) => t.heap_bytes(),
                AggIndex::Finger(t) => t.heap_bytes(),
            }
    }
}

/// Sweeps with fewer windows than this are answered per window without
/// looking at anything else: below it the scan's fixed costs (the edge
/// pass, the plan, the scan columns) are not recovered even when every
/// window shares one pivot.
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
    use crate::testsupport::{Concat, SumI64};

    impl<A: AggregateFunction> SliceStore<A> {
        /// Whether deferred finger-tree writes are pending repair.
        fn has_pending_repairs(&self) -> bool {
            matches!(&self.index, AggIndex::Finger(t) if t.has_dirty())
        }

        /// Whether the finger tree has been built (always true for the
        /// other policies).
        fn index_built(&self) -> bool {
            self.index_live
        }
    }

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
    fn shift_moves_last_tuple_to_successor() {
        let mut st = filled(StorePolicy::Lazy, true);
        assert!(st.shift_last_into_next(0));
        // Tuple (5,5) moved from slice 0 to slice 1.
        assert_eq!(st.slice(0).len(), 1);
        assert_eq!(st.slice(1).len(), 2);
        assert_eq!(st.slice(0).aggregate(), Some(&1));
        assert_eq!(st.slice(1).aggregate(), Some(&17));
        // Count boundaries now: 0,1,3,5.
        assert_eq!(st.query_count(0, 1), Some(1));
        assert_eq!(st.query_count(1, 3), Some(17));
    }

    #[test]
    fn shift_preserves_event_time_order_for_non_commutative() {
        let mut st: SliceStore<Concat> = SliceStore::new(Concat, StorePolicy::Lazy, true);
        st.append_slice(Range::new(0, 10));
        st.add_one(1, 1);
        st.add_one(8, 8);
        st.append_slice(Range::new(10, 20));
        st.add_one(11, 11);
        assert!(st.shift_last_into_next(0));
        assert_eq!(st.slice(1).aggregate(), Some(&vec![8, 11]));
    }

    #[test]
    fn shift_without_successor_fails() {
        let mut st = filled(StorePolicy::Lazy, true);
        assert!(!st.shift_last_into_next(2));
    }

    #[test]
    fn covering_index_by_tuples_places_ties_after_equals() {
        // Slice t_lasts: 5, 12, 29. A tuple tied with a slice's last tuple
        // belongs to the *next* slice (its count position follows every
        // stored equal-timestamp tuple).
        let st = filled(StorePolicy::Lazy, true);
        assert_eq!(st.geometry().covering_index_by_tuples(0), Some(0));
        assert_eq!(st.geometry().covering_index_by_tuples(5), Some(1));
        assert_eq!(st.geometry().covering_index_by_tuples(6), Some(1));
        assert_eq!(st.geometry().covering_index_by_tuples(12), Some(2));
        assert_eq!(st.geometry().covering_index_by_tuples(13), Some(2));
        assert_eq!(st.geometry().covering_index_by_tuples(99), Some(2));
    }

    #[test]
    fn covering_index_by_tuples_skips_empty_slices() {
        let mut st = store(StorePolicy::Lazy, true);
        st.append_slice(Range::new(0, 10));
        st.add_one(5, 5);
        st.append_slice(Range::new(10, 20)); // drained by shifts: empty
        st.append_slice(Range::new(20, 30));
        st.add_one(25, 25);
        st.append_slice(Range::new(30, 40)); // open slice, still empty
        assert_eq!(st.geometry().covering_index_by_tuples(0), Some(0));
        // Tie with (5, ·): lands after it, in the next *non-empty* slice.
        assert_eq!(st.geometry().covering_index_by_tuples(5), Some(2));
        assert_eq!(st.geometry().covering_index_by_tuples(24), Some(2));
        // Nothing stored after ts: falls back to the latest slice.
        assert_eq!(st.geometry().covering_index_by_tuples(25), Some(3));
        assert_eq!(st.geometry().covering_index_by_tuples(99), Some(3)); // No slice, no lookup: the operator routes such a tuple in order.
        let none = store(StorePolicy::Lazy, true);
        assert_eq!(none.geometry().covering_index_by_tuples(3), None);
    }

    #[test]
    fn in_order_runs_of_one_equal_one_run() {
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
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
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
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
                // Lazy has no index, the FlatFAT writes through and the
                // small finger store has not built its tree.
                assert!(!batched.has_pending_repairs());
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
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
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
            assert!(!grouped.has_pending_repairs());
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
        assert_eq!(st.index.query(0, n), Some(fold(&st)), "after a late run");
        assert_eq!(st.query_slice_range(0, n), fold(&st));
        st.add_out_of_order_partial(n - 2, -40, 381, 385, 3);
        assert_eq!(st.index.query(1, n), Some(st.query_slice_range(1, n)));
        assert_eq!(st.index.query(0, n), Some(fold(&st)), "after a late partial");
        assert_eq!(st.query_time(Range::new(0, n as Time * 10)), fold(&st));
    }

    #[test]
    fn finger_structural_ops_between_deferred_writes_stay_consistent() {
        // The finger tree keeps its deferred-repair region across gap
        // inserts — the repair contract only requires queries to flush
        // first. A long query and a flush build the tree first.
        let mut st = store(StorePolicy::FingerTree, true);
        let n = INDEX_SCAN_CUTOFF + 4;
        for i in 0..n {
            if i == 3 {
                continue; // leave a coverage gap at [30, 40)
            }
            let t = i as Time * 10;
            st.append_slice(Range::new(t, t + 10));
            st.add_one(t + 1, 1);
        }
        assert_eq!(st.query_time(Range::new(0, n as Time * 10)), Some(n as i64 - 1));
        st.flush_eager_repairs();
        assert!(st.index_built());
        st.add_out_of_order_run(0, &[(3, 3)]);
        assert!(st.has_pending_repairs());
        let gap_idx = st.insert_gap_slice(Range::new(30, 40));
        assert_eq!(gap_idx, 3);
        st.add_out_of_order_run(gap_idx, &[(33, 33)]);
        st.flush_eager_repairs();
        assert!(!st.has_pending_repairs());
        assert_eq!(st.query_time(Range::new(0, 10)), Some(4));
        assert_eq!(st.query_time(Range::new(30, 40)), Some(33));
        // Long range: answered by the tree (past the scan cutoff).
        let full = st.query_time(Range::new(0, n as Time * 10));
        assert_eq!(full, Some((n as i64 - 1) + 3 + 33));
    }

    #[test]
    fn flush_repairs_only_when_index_queryable() {
        // Below INDEX_SCAN_CUTOFF every query folds the slice deque, so
        // flush leaves deferred dirt alone; past the cutoff the next
        // flush must repair before the first index visit, once a long
        // query has had the tree built.
        let mut st = store(StorePolicy::FingerTree, false);
        let n = INDEX_SCAN_CUTOFF + 4;
        for i in 0..n {
            let t = i as Time * 10;
            st.append_slice(Range::new(t, t + 10));
            st.add_one(t, i as i64 + 1);
        }
        let full = Range::new(0, n as Time * 10);
        let expect: i64 = (1..=n as i64).sum::<i64>() + 100;
        st.add_out_of_order_run(0, &[(3, 100)]);
        // Unbuilt: the late write leaves no dirt, a flush builds
        // nothing, and the first long query scans.
        assert!(!st.has_pending_repairs());
        st.flush_eager_repairs();
        assert!(!st.index_built());
        assert_eq!(st.query_time(full), Some(expect), "scan before the build");
        assert!(!st.index_built(), "a query alone built the index");
        st.flush_eager_repairs();
        assert!(st.index_built(), "flush after a long query did not build");
        // A zero-valued late write dirties the built tree.
        st.add_out_of_order_run(0, &[(4, 0)]);
        assert!(st.has_pending_repairs(), "deferred write left no dirt");
        st.flush_eager_repairs();
        assert!(!st.has_pending_repairs(), "flush skipped a queryable index");
        // Full range exceeds the cutoff: answered via the index.
        assert_eq!(st.index.query(0, n), Some(Some(expect)), "index after repair");
        assert_eq!(st.query_time(full), Some(expect), "query after repair");
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
    fn finger_store_without_long_queries_never_builds() {
        // Hundreds of live slices, late writes, evictions, short-range
        // queries and tumbling sweeps between flushes: nothing reads a
        // long range, so the tree is never built and the store holds on
        // the heap exactly what the lazy one holds.
        let mut lazy = store(StorePolicy::Lazy, false);
        let mut finger = store(StorePolicy::FingerTree, false);
        for round in 0..6 {
            let (from, to) = (round * 500, round * 500 + 500);
            for st in [&mut lazy, &mut finger] {
                fill_every_but_seventh(st, from, to);
                let idx = st.len() / 2;
                let ts = st.slice(idx).start() + 4;
                st.add_out_of_order_run(idx, &[(ts, 1)]);
                st.flush_eager_repairs();
                st.evict_before((from - 400) * 10);
            }
            let short = Range::new(to * 10 - 300, to * 10);
            assert_eq!(finger.query_time(short), lazy.query_time(short));
            let tumbling: Vec<((), Range)> =
                (from..to).map(|i| ((), Range::new(i * 10, i * 10 + 10))).collect();
            let got = emitted::<SumI64>(&tumbling, |e| {
                finger.query_time_batch(&tumbling, e);
            });
            assert_eq!(got, each(&lazy, &tumbling));
            for _ in 0..3 {
                finger.flush_eager_repairs();
            }
            assert!(!finger.index_built(), "round {round}: built without a long query");
            assert!(!finger.has_pending_repairs());
            assert!(finger.len() > INDEX_SCAN_CUTOFF);
            assert_eq!(finger.heap_bytes(), lazy.heap_bytes(), "round {round}");
        }
    }

    #[test]
    fn finger_long_query_scans_then_the_next_flush_builds() {
        // Tuples kept: a split needs them.
        let mut lazy = store(StorePolicy::Lazy, true);
        let mut finger = store(StorePolicy::FingerTree, true);
        for st in [&mut lazy, &mut finger] {
            fill_every_but_seventh(st, 0, 300);
            st.flush_eager_repairs();
        }
        let full = Range::new(0, 3_000);
        // Before the build: the scan's answer, and a request for the tree.
        assert_eq!(finger.query_time(full), lazy.query_time(full));
        assert!(!finger.index_built());
        finger.flush_eager_repairs();
        assert!(finger.index_built(), "flush after a long query did not build");
        assert!(!finger.has_pending_repairs());

        // Structural operations and late writes against the built tree.
        for st in [&mut lazy, &mut finger] {
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
            st.flush_eager_repairs();
        }
        assert_eq!(finger.len(), lazy.len());
        assert!(!finger.has_pending_repairs());
        let n = finger.len();
        for l in (0..n).step_by(13) {
            for r in (l + INDEX_SCAN_CUTOFF + 1..=n).step_by(29) {
                let want = lazy.query_slice_range(l, r);
                assert_eq!(finger.index.query(l, r), Some(want), "tree [{l}, {r})");
                assert_eq!(finger.query_slice_range(l, r), want, "query [{l}, {r})");
            }
        }
    }

    #[test]
    fn per_window_sweep_over_thousands_of_slices_builds_the_index() {
        // Long windows over thousands of slices: the cost rule prices the
        // index as built and picks per-window queries, whose long ranges
        // ask for the tree; the next flush builds it.
        let dense = |policy| {
            let mut st = store(policy, false);
            for i in 0..3_000 {
                st.append_slice(Range::new(i * 10, i * 10 + 10));
                st.add_one(i * 10, i % 13);
            }
            st.flush_eager_repairs();
            st
        };
        let (lazy, mut finger) = (dense(StorePolicy::Lazy), dense(StorePolicy::FingerTree));
        let windows: Vec<((), Range)> =
            (0..12).map(|i| ((), Range::new((100 - i) * 10, (3_000 - i) * 10))).collect();
        assert!(windows.len() >= MIN_BATCH_WINDOWS);
        let want = each(&lazy, &windows);
        for built in [false, true] {
            assert_eq!(finger.index_built(), built);
            let mut scanned = 0;
            let got = emitted::<SumI64>(&windows, |e| {
                scanned = finger.query_time_batch(&windows, e);
            });
            assert_eq!(scanned, 0, "the cost rule picked the scan");
            assert_eq!(got, want);
            finger.flush_eager_repairs();
        }
        assert!(finger.index_built());
    }

    #[test]
    fn finger_matches_lazy() {
        let lazy = filled(StorePolicy::Lazy, false);
        let mut finger = filled(StorePolicy::FingerTree, false);
        finger.flush_eager_repairs();
        for (a, b) in [(0, 10), (10, 20), (20, 30), (0, 20), (10, 30), (0, 30)] {
            assert_eq!(
                lazy.query_time(Range::new(a, b)),
                finger.query_time(Range::new(a, b)),
                "range [{a}, {b})"
            );
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
        let scanned = emitted::<A>(windows, |emit| st.shared_scan(windows, emit));
        assert_eq!(scanned, want, "{what}: shared scan");
        let batched = emitted::<A>(windows, |emit| {
            st.query_time_batch(windows, emit);
        });
        assert_eq!(batched, want, "{what}: batch call");
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
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
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
        let mut one = store(StorePolicy::FingerTree, false);
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
            st.query_time_batch(windows, |_, _, _| {})
        };
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
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
                st.query_time_batch(&spread, e);
            });
            assert_eq!(got, each(&st, &spread), "{policy:?}");
        }
        // A dozen windows over thousands of slices: an index answers
        // each in O(log d); a store without one folds each window's
        // slices, and there the scan's one pass wins.
        let st = dense(StorePolicy::FingerTree, 3_000);
        assert_eq!(scanned(&st, &windows_over(3_000, 2_900, 12)), 0);
        // Holistic partials are never scanned.
        let mut concat: SliceStore<Concat> = SliceStore::new(Concat, StorePolicy::Lazy, false);
        for i in 0..100 {
            concat.append_slice(Range::new(i * 10, i * 10 + 10));
            concat.add_one(i * 10, i);
        }
        assert_eq!(concat.query_time_batch(&windows_over(100, 50, 40), |_, _, _| {}), 0);
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
        assert!(st.slice(0).keeps_tuples());
        st.set_plan(SlicePlan::standalone(&SumI64, false));
        assert!(!st.keeps_tuples() && !st.slice(0).keeps_tuples());
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
