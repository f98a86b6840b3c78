//! Slice geometry: where every slice lies in time and in count, apart
//! from what it aggregates (paper Section 5.2).
//!
//! A slice is its time range `[start, end)`, the number of tuples it
//! holds and the times of its first and last tuple. [`SliceGeometry`]
//! keeps these as three columns and owns every operation that reads only
//! them, compiled once whatever the aggregate; the store's partial column
//! follows it position for position, its tuple column count for count.

use std::ops::{Deref, DerefMut};

use crate::cast;
use crate::mem::HeapSize;
use crate::store::INDEX_SCAN_CUTOFF;
use crate::time::{Range, Time, TIME_MAX, TIME_MIN};
use crate::window::WindowRun;

/// A slice's tuples as time and count see them: how many, and the times
/// of the first and last (a slice `[1, 10)` may hold tuples in `[2, 9]`
/// only). Empty: `t_first = TIME_MAX`, `t_last = TIME_MIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    pub(crate) count: usize,
    pub(crate) t_first: Time,
    pub(crate) t_last: Time,
}

impl Extent {
    pub(crate) const EMPTY: Extent = Extent { count: 0, t_first: TIME_MAX, t_last: TIME_MIN };

    /// Takes in the tuples of `e`.
    #[inline]
    fn widen(&mut self, e: Extent) {
        self.count += e.count;
        self.t_first = self.t_first.min(e.t_first);
        self.t_last = self.t_last.max(e.t_last);
    }
}

/// The slices of a store as columns: slice `i` covers `[starts[i],
/// ends[i])` and holds the tuples of `extents[i]`. The searches read the
/// two edge columns alone; every write touches one extent, so a count
/// and its two times are one record. Slices are in ascending,
/// non-overlapping time order; gaps are allowed (sessions, bounded
/// stores), and so are zero-width ranges (count cuts at tied timestamps).
#[derive(Clone, Default)]
pub(crate) struct SliceGeometry {
    starts: Column<Time>,
    ends: Column<Time>,
    extents: Column<Extent>,
    /// Tuples ever added, evicted ones included, so count positions are
    /// absolute.
    total: u64,
}

impl SliceGeometry {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.starts.len()
    }

    #[inline]
    pub(crate) fn start(&self, i: usize) -> Time {
        self.starts[i]
    }

    #[inline]
    pub(crate) fn end(&self, i: usize) -> Time {
        self.ends[i]
    }

    #[inline]
    pub(crate) fn extent(&self, i: usize) -> Extent {
        self.extents[i]
    }

    /// Start of the open (latest) slice, if any.
    #[inline]
    pub(crate) fn open_start(&self) -> Option<Time> {
        self.starts.last().copied()
    }

    /// End of the open slice (exclusive), if any.
    #[inline]
    pub(crate) fn last_end(&self) -> Option<Time> {
        self.ends.last().copied()
    }

    /// Adds the tuples of `e`, new to the store, to slice `i`.
    #[inline]
    pub(crate) fn widen(&mut self, i: usize, e: Extent) {
        self.total += cast::to_u64(e.count);
        self.extents[i].widen(e);
    }

    /// Places a slice over `range` holding `e` at position `i`.
    fn place(&mut self, i: usize, range: Range, e: Extent) {
        self.starts.insert(i, range.start);
        self.ends.insert(i, range.end);
        self.extents.insert(i, e);
    }

    /// Appends an empty slice over `range` after every other.
    pub(crate) fn push(&mut self, range: Range) {
        self.starts.push(range.start);
        self.ends.push(range.end);
        self.extents.push(Extent::EMPTY);
    }

    /// Sets the end of the open slice; no tuple of it may lie at or
    /// beyond `end`.
    pub(crate) fn set_last_end(&mut self, end: Time) {
        if let (Some(e), Some(x)) = (self.ends.last_mut(), self.extents.last()) {
            debug_assert!(x.t_last < end, "open-slice tuples beyond new end");
            *e = end;
        }
    }

    /// Cuts the open slice at `ts` if it covers `ts`: it ends there, and an
    /// empty slice over `[ts, old end)` follows it. Every tuple stays left
    /// (count edges, where they all precede the cut). `false` when no open
    /// slice covers `ts`.
    pub(crate) fn cut_last(&mut self, ts: Time) -> bool {
        let (Some(&start), Some(end)) = (self.starts.last(), self.ends.last_mut()) else {
            return false;
        };
        if ts < start || ts >= *end {
            return false;
        }
        let old_end = std::mem::replace(end, ts);
        self.push(Range::new(ts, old_end));
        true
    }

    /// Places an empty slice over `range`, which must lie in a coverage
    /// gap, and returns its position.
    pub(crate) fn insert_gap(&mut self, range: Range) -> usize {
        let i = self.ends.partition_point(|&e| e <= range.start);
        debug_assert!(
            i == self.len() || range.end <= self.starts[i],
            "gap slice {range} overlaps successor"
        );
        self.place(i, range, Extent::EMPTY);
        i
    }

    /// Splits slice `i` at `ts`, strictly inside it: slice `i` keeps
    /// `[start, ts)` with the tuples of `left`, and a new slice `i + 1`
    /// takes `[ts, end)` with those of `right`.
    pub(crate) fn split(&mut self, i: usize, ts: Time, left: Extent, right: Extent) {
        debug_assert!(self.starts[i] < ts && ts < self.ends[i], "split point {ts} not inside");
        debug_assert_eq!(left.count + right.count, self.extents[i].count, "split loses tuples");
        let end = std::mem::replace(&mut self.ends[i], ts);
        self.extents[i] = left;
        self.place(i + 1, Range::new(ts, end), right);
    }

    /// Merges the two slices that meet at `ts` (`end(i) == ts ==
    /// start(i + 1)`) into slice `i` and returns `i`; `None` when `ts` is
    /// not such an edge.
    pub(crate) fn merge_at(&mut self, ts: Time) -> Option<usize> {
        let i = self.ends.partition_point(|&e| e < ts);
        if i + 1 >= self.len() || self.ends[i] != ts || self.starts[i + 1] != ts {
            return None;
        }
        let right = self.extent(i + 1);
        self.ends[i] = self.ends[i + 1];
        self.extents[i].widen(right);
        self.starts.remove(i + 1);
        self.ends.remove(i + 1);
        self.extents.remove(i + 1);
        Some(i)
    }

    /// Sets slice `i`'s tuples to those of `e`; a count it gains or loses
    /// is tuples added to or taken from the store.
    pub(crate) fn set_extent(&mut self, i: usize, e: Extent) {
        self.total = self.total + cast::to_u64(e.count) - cast::to_u64(self.extents[i].count);
        self.extents[i] = e;
    }

    /// Drops the first `k` slices; their tuples stay counted.
    pub(crate) fn evict(&mut self, k: usize) {
        self.starts.drop_front(k);
        self.ends.drop_front(k);
        self.extents.drop_front(k);
    }

    /// Number of leading slices that end at or before `ts`.
    pub(crate) fn ended_by(&self, ts: Time) -> usize {
        self.ends.partition_point(|&e| e <= ts)
    }

    /// Number of leading slices whose tuples all lie at absolute counts
    /// below `keep_from`, the open slice excepted.
    pub(crate) fn count_evictable(&self, keep_from: u64) -> usize {
        let mut pos = self.evicted();
        let fits = |e: &&Extent| {
            pos += cast::to_u64(e.count);
            pos <= keep_from
        };
        self.extents.iter().take(self.len().saturating_sub(1)).take_while(fits).count()
    }

    /// Total number of tuples ever added (absolute count).
    pub(crate) fn total_count(&self) -> u64 {
        self.total
    }

    /// The absolute count of the first live tuple: the tuples evicted.
    fn evicted(&self) -> u64 {
        self.total - cast::to_u64(self.extents.iter().map(|e| e.count).sum())
    }

    /// The number of tuples slices `slices` hold.
    pub(crate) fn tuples_in(&self, slices: std::ops::Range<usize>) -> usize {
        self.extents[slices].iter().map(|e| e.count).sum()
    }

    /// The slices `[l, r)` holding the absolute counts `[c1, c2)`. Slice
    /// edges must align with both (the count slicing invariant the
    /// Figure-6 shift maintains).
    pub(crate) fn count_span(&self, c1: u64, c2: u64) -> (usize, usize) {
        if c2 <= c1 {
            return (0, 0);
        }
        let (mut l, mut r) = (usize::MAX, 0);
        let mut pos = self.evicted();
        for (i, e) in self.extents.iter().enumerate() {
            if pos >= c2 {
                break;
            }
            let next = pos + cast::to_u64(e.count);
            if next > c1 {
                debug_assert!(
                    pos >= c1 && next <= c2,
                    "count window [{c1}, {c2}) does not align with slice counts at slice {i}"
                );
                (l, r) = (l.min(i), i + 1);
            }
            pos = next;
        }
        (l.min(r), r)
    }

    /// The slices `[l, r)` inside the time range `range`: those that
    /// start in it. `l >= r` when none is. A zero-width slice `[t, t)`
    /// (a count cut among tuples tied at `t`) holds tuples at `t`, so it
    /// belongs to the windows with `start <= t < end`, a window starting
    /// at `t` included.
    pub(crate) fn slice_span(&self, range: Range) -> (usize, usize) {
        (
            self.starts.partition_point(|&s| s < range.start),
            self.starts.partition_point(|&s| s < range.end),
        )
    }

    /// Whether slices `[l, r)` hold tuples of `range` only, and slice
    /// `l - 1` none of it. Window starts are slice edges, but the open
    /// slice and session slices may extend past a window's end while
    /// holding no tuple there. Debug checks.
    pub(crate) fn aligned(&self, range: Range, l: usize, r: usize) -> bool {
        let inside =
            |e: &Extent| e.count == 0 || (e.t_first >= range.start && e.t_last < range.end);
        let before = l.checked_sub(1).is_none_or(|i| self.extents[i].t_last < range.start);
        before && self.extents[l..r].iter().all(inside)
    }

    /// Where `ts` falls among the time-tiled slices: `Ok(i)` when slice
    /// `i` covers it (session gaps leave holes), `Err(i)` when it lies
    /// in a coverage gap, `i` being the first slice after the gap — the
    /// position a slice covering `ts` is inserted at.
    ///
    /// The search starts at `guess`, usually a [`SliceMap`]'s: it checks
    /// slice `guess`, then its two neighbours, and only then gallops
    /// outwards. A guess `d` slices off costs `O(log d)` probes — two or
    /// three when slices are evenly long (periodic windows), the order of
    /// a binary search at worst. Any guess gives the same answer, so a
    /// map taken before the slices changed costs probes, never a wrong
    /// slice.
    #[inline]
    pub(crate) fn covering_search(&self, ts: Time, guess: usize) -> Result<usize, usize> {
        let (starts, ends) = (&*self.starts, &*self.ends);
        if guess < ends.len() && starts[guess] <= ts && ts < ends[guess] {
            return Ok(guess);
        }
        // First slice whose end is beyond ts…
        let idx = gallop_by(ends.len(), guess, |i| ends[i] <= ts);
        // …must also start at or before ts.
        if idx < starts.len() && starts[idx] <= ts {
            Ok(idx)
        } else {
            Err(idx)
        }
    }

    /// The affine map through the first and the last slice's start, for
    /// [`covering_search`](Self::covering_search)'s guesses.
    pub(crate) fn slice_map(&self) -> SliceMap {
        let (Some(&s0), Some(&last)) = (self.starts.first(), self.starts.last()) else {
            return SliceMap { s0: 0, inv: 0.0 };
        };
        let span = last.abs_diff(s0);
        let inv = if span == 0 { 0.0 } else { (self.len() - 1) as f64 / span as f64 };
        SliceMap { s0, inv }
    }

    /// The slices `[l, r)` window `w` covers, as
    /// [`slice_span`](Self::slice_span) has them, guessed at `(l, r)`:
    /// each edge is checked there with two compares (`starts[l - 1] <
    /// w.start <= starts[l]`, `starts[r - 1] < w.end <= starts[r]`), and
    /// both are galloped from there when a check fails.
    #[inline(always)]
    fn step(&self, w: Range, (l, r): (usize, usize)) -> (usize, usize) {
        let starts = &*self.starts;
        let l_holds = l <= starts.len()
            && (l == 0 || starts[l - 1] < w.start)
            && (l == starts.len() || w.start <= starts[l]);
        let r_holds = r <= starts.len()
            && (r == 0 || starts[r - 1] < w.end)
            && (r == starts.len() || w.end <= starts[r]);
        if l_holds && r_holds {
            (l, r)
        } else {
            self.seek(w, Some((l, r)))
        }
    }

    /// The slices `[l, r)` window `w` covers, galloped from `near` if
    /// given, else searched.
    #[inline(never)]
    fn seek(&self, w: Range, near: Option<(usize, usize)>) -> (usize, usize) {
        let starts = &*self.starts;
        match near {
            Some((l, r)) => (
                gallop_by(starts.len(), l, |i| starts[i] < w.start),
                gallop_by(starts.len(), r, |i| starts[i] < w.end),
            ),
            None => self.slice_span(w),
        }
    }

    /// The windows `from..to` of `run` that overlap the slices' time
    /// span; the others cover no slice. By arithmetic, since the windows
    /// of a run step by its slide.
    fn overlapping(&self, run: &WindowRun) -> (usize, usize) {
        let (Some(&lo), Some(&hi)) = (self.starts.first(), self.ends.last()) else {
            return (0, 0);
        };
        // The windows before `from` end at or before `lo`; those from
        // `to` on start at or after `hi`.
        let to = run.up_to(run.first.start, hi.saturating_sub(1));
        (run.up_to(run.first.end, lo).min(to), to)
    }

    /// Where `run` lies among the slices: the windows that can cover a
    /// slice and the slices the first of them covers, searched (galloped
    /// from `near` if given).
    fn bound(&self, run: &WindowRun, near: Option<(usize, usize)>) -> RunBounds {
        let (from, to) = self.overlapping(run);
        let (l, r) = if from < to { self.seek(run.window(from), near) } else { (0, 0) };
        RunBounds { from, to, l, r }
    }

    /// Resolves every run of a sweep to where it lies among the slices
    /// and gathers what planning the sweep needs (`indexed`: whether a
    /// FlatFAT answers a range longer than `INDEX_SCAN_CUTOFF` slices, in
    /// about two combines per level). Only each run's first and last
    /// window are searched: along a run `l` and `r` never decrease, so
    /// the two bound every window between them. A run whose first or
    /// last window lies in a coverage gap leaves its middle unbounded,
    /// and the sweep gets no plan.
    pub(crate) fn resolve<T>(&self, runs: &[(T, WindowRun)], indexed: bool) -> SweepEdges {
        let mut edges = SweepEdges {
            bounds: Vec::with_capacity(runs.len()),
            base: usize::MAX,
            max_l: 0,
            min_r: usize::MAX,
            top: 0,
            each_cost: 0,
        };
        let index_cost = 2 * cast::idx32(self.len().max(1).ilog2());
        let cost = |(l, r): (usize, usize)| match r.saturating_sub(l) {
            len if indexed && len > INDEX_SCAN_CUTOFF => index_cost,
            len => len,
        };
        let mut near = None;
        for (_, run) in runs {
            let b = self.bound(run, near);
            edges.bounds.push(b);
            let n = b.to - b.from;
            if n == 0 {
                continue;
            }
            let first = (b.l, b.r);
            let last = match n {
                1 => first,
                _ => self.step(run.window(b.to - 1), (b.l + n - 1, b.r + n - 1)),
            };
            near = Some(first);
            match (first.0 < first.1, last.0 < last.1) {
                (true, true) => {
                    edges.base = edges.base.min(first.0);
                    edges.max_l = edges.max_l.max(last.0);
                    edges.min_r = edges.min_r.min(first.1);
                    edges.top = edges.top.max(last.1);
                    edges.each_cost += (cost(first) + cost(last)) * n / 2;
                }
                (false, false) if n == 1 => {}
                _ => edges.max_l = usize::MAX,
            }
        }
        edges
    }

    /// `visit(tag, window, l, r)` for every window of `runs` that covers
    /// slices `[l, r)`, in order. A run's first window is taken from its
    /// `bounds` entry, or searched; each next one is first guessed a
    /// slice further on both edges — one slice per slide, as periodic
    /// slicing cuts them — and galloped only where the check fails.
    /// Always inlined: the loop is each caller's, and the searches it
    /// calls are compiled once.
    #[inline(always)]
    pub(crate) fn walk<T>(
        &self,
        runs: &[(T, WindowRun)],
        bounds: Option<&[RunBounds]>,
        mut visit: impl FnMut(&T, Range, usize, usize),
    ) {
        let mut near = None;
        for (i, (tag, run)) in runs.iter().enumerate() {
            let b = bounds.map_or_else(|| self.bound(run, near), |b| b[i]);
            let (mut l, mut r) = (b.l, b.r);
            near = Some((l, r));
            for k in b.from..b.to {
                let w = run.window(k);
                if k > b.from {
                    (l, r) = self.step(w, (l + 1, r + 1));
                }
                if l < r {
                    visit(tag, w, l, r);
                }
            }
        }
    }

    /// Dense structural checks for the audit build: slices are in
    /// ascending, non-overlapping time order, every column is as long as
    /// the others, and an extent is empty exactly when its count is 0.
    #[cfg(feature = "audit")]
    pub(crate) fn assert_invariants(&self) {
        let n = self.len();
        assert_eq!(
            [self.ends.len(), self.extents.len()],
            [n; 2],
            "geometry columns differ in length"
        );
        for i in 0..n {
            assert!(self.starts[i] <= self.ends[i], "slice {i} inverted");
            if i > 0 {
                assert!(self.ends[i - 1] <= self.starts[i], "slice {i} overlaps its predecessor");
            }
            let e = self.extents[i];
            assert_eq!(e.count == 0, e == Extent::EMPTY, "slice {i}: count and extent disagree");
        }
    }
}

impl HeapSize for SliceGeometry {
    fn heap_bytes(&self) -> usize {
        self.starts.heap_bytes() + self.ends.heap_bytes() + self.extents.heap_bytes()
    }
}

/// One column: a `Vec` whose first `head` records are evicted,
/// dereferencing to the live ones, so every search reads one contiguous
/// slice (a ring buffer splits into two halves once it wraps). Eviction
/// only advances `head`; an append or insert that would grow the buffer
/// first compacts the dead prefix away, so the capacity grows exactly when,
/// and by as much as, a ring buffer's would: once the live records fill
/// it. The dead prefix is dropped at that compaction.
pub(crate) struct Column<T> {
    buf: Vec<T>,
    head: usize,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column { buf: Vec::new(), head: 0 }
    }
}

impl<T: Clone> Column<T> {
    /// Compacts the dead prefix away if `k` more records would not fit.
    #[inline]
    fn make_room(&mut self, k: usize) {
        if self.buf.len() + k > self.buf.capacity() && self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// The number of live records, without forming the slice.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn push(&mut self, x: T) {
        self.make_room(1);
        self.buf.push(x);
    }

    /// Appends a run of records.
    pub(crate) fn extend(&mut self, run: impl ExactSizeIterator<Item = T>) {
        self.make_room(run.len());
        self.buf.extend(run);
    }

    /// Inserts `x` at live position `i`.
    fn insert(&mut self, i: usize, x: T) {
        self.make_room(1);
        self.buf.insert(self.head + i, x);
    }

    /// Inserts `run` at live position `i`, moving each later record once.
    pub(crate) fn insert_run(&mut self, i: usize, run: &[T]) {
        self.extend(run.iter().cloned());
        self.buf[self.head + i..].rotate_right(run.len());
    }

    fn remove(&mut self, i: usize) {
        self.buf.remove(self.head + i);
    }

    /// Evicts the first `k` live records.
    pub(crate) fn drop_front(&mut self, k: usize) {
        self.head += k;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Clone> Clone for Column<T> {
    /// A copy of the live records, with no spare capacity.
    fn clone(&self) -> Self {
        Column { buf: self.to_vec(), head: 0 }
    }
}

impl<T> Deref for Column<T> {
    type Target = [T];

    /// `head` never passes the end of `buf`; the `min` tells the
    /// compiler so, which drops a bounds check from every access.
    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[self.head.min(self.buf.len())..]
    }
}

impl<T> DerefMut for Column<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        let head = self.head.min(self.buf.len());
        &mut self.buf[head..]
    }
}

/// Where a run lies among the slices: its windows `from..to` overlap the
/// slices' time span, and window `from` covers slices `[l, r)`.
#[derive(Clone, Copy)]
pub(crate) struct RunBounds {
    from: usize,
    to: usize,
    l: usize,
    r: usize,
}

/// The runs of one sweep resolved to slices, and what planning needs of
/// them. Every extreme is taken over the runs whose first and last window
/// cover slices (`l < r`), and bounds every window between them; with
/// none, `base > top`.
pub(crate) struct SweepEdges {
    /// Per run, where it lies among the slices.
    pub(crate) bounds: Vec<RunBounds>,
    /// Smallest `l`: the store index of the first slice under the sweep.
    base: usize,
    max_l: usize,
    min_r: usize,
    /// Largest `r`: one past the last slice under the sweep.
    top: usize,
    /// What answering each window on its own costs, summed.
    pub(crate) each_cost: usize,
}

impl SweepEdges {
    /// The slices a shared scan of `plan` visits, and its prefix entries.
    pub(crate) fn scan_cost(&self, plan: &SweepPlan) -> usize {
        (self.top - self.base) + (plan.reach - plan.pivot)
    }
}

/// The plan of a sweep whose covered windows all contain slice boundary
/// `pivot`. Positions are boundaries relative to `base` (boundary `x`
/// sits before slice `x`).
pub(crate) struct SweepPlan {
    /// Store index of the first slice under the sweep.
    pub(crate) base: usize,
    /// The smallest right edge, which every covered window starts before.
    pub(crate) pivot: usize,
    /// The largest right edge; the prefix scan covers slices
    /// `[pivot, reach)`.
    pub(crate) reach: usize,
}

impl SweepPlan {
    /// The plan read off the edge pass, or `None` when no boundary lies
    /// in every covered window (or no window covers a slice).
    pub(crate) fn new(edges: &SweepEdges) -> Option<Self> {
        (edges.base < edges.top && edges.max_l < edges.min_r).then(|| SweepPlan {
            base: edges.base,
            pivot: edges.min_r - edges.base,
            reach: edges.top - edges.base,
        })
    }
}

/// An affine guess of a time's slice position, `(ts - s0) · inv`: exact
/// when slices are evenly long and abut, a few slices off when their
/// lengths jitter. One subtraction, one conversion, one multiply and one
/// truncation per guess; the division is paid once, when the map is
/// taken. A time before `s0` guesses 0 (the conversion saturates).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SliceMap {
    s0: Time,
    inv: f64,
}

impl SliceMap {
    #[inline(always)]
    pub(crate) fn guess(self, ts: Time) -> usize {
        cast::f64_idx(ts.saturating_sub(self.s0) as f64 * self.inv)
    }
}

/// The partition point of `below` over positions `0..n` (true on a
/// prefix, false after it), found by galloping outwards from `hint`.
fn gallop_by(n: usize, hint: usize, below: impl Fn(usize) -> bool) -> usize {
    let hint = hint.min(n);
    let (mut lo, mut hi) = (0, n);
    let mut step = 1;
    if hint < n && below(hint) {
        // The point lies in (hint, n].
        lo = hint + 1;
        while hint + step < n {
            if below(hint + step) {
                lo = hint + step + 1;
                step *= 2;
            } else {
                hi = hint + step;
                break;
            }
        }
    } else {
        // The point lies in [0, hint].
        hi = hint;
        while step <= hint {
            if below(hint - step) {
                lo = hint - step + 1;
                break;
            }
            hi = hint - step;
            step *= 2;
        }
    }
    // Branch-free bisection of `[lo, hi)`, as `partition_point` does it:
    // `lo` ends on the last position known to be below, if there is one.
    let mut size = hi - lo;
    if size == 0 {
        return lo;
    }
    while size > 1 {
        let half = size / 2;
        let mid = lo + half;
        lo = if below(mid) { mid } else { lo };
        size -= half;
    }
    lo + usize::from(below(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One slice of the model: its range and its tuples' times, sorted.
    #[derive(Clone, Debug)]
    struct Model {
        start: Time,
        end: Time,
        times: Vec<Time>,
    }

    impl Model {
        fn extent(&self) -> Extent {
            Extent {
                count: self.times.len(),
                t_first: self.times.first().copied().unwrap_or(TIME_MAX),
                t_last: self.times.last().copied().unwrap_or(TIME_MIN),
            }
        }
    }

    /// Every column against the model, row by row.
    fn assert_matches(g: &SliceGeometry, model: &[Model], evicted: u64, step: &str) {
        let rows: Vec<_> = (0..g.len()).map(|i| (g.start(i), g.end(i), g.extent(i))).collect();
        let want: Vec<_> = model.iter().map(|m| (m.start, m.end, m.extent())).collect();
        assert_eq!(rows, want, "after {step}");
        let total = evicted + model.iter().map(|m| m.times.len() as u64).sum::<u64>();
        assert_eq!(g.total_count(), total, "after {step}");
    }

    /// The lookups against linear scans of the model: the covering search
    /// from every guess and from the slice map's, and the edge pass's
    /// bounds against `partition_point`.
    fn assert_lookups(g: &SliceGeometry, model: &[Model], rng: &mut StdRng) {
        let n = model.len();
        let ended = |ts: Time| model.iter().take_while(|m| m.end <= ts).count();
        let begun = |ts: Time| model.iter().take_while(|m| m.start < ts).count();
        let lo = model.first().map_or(0, |m| m.start) - 5;
        let hi = model.last().map_or(0, |m| m.end.min(lo + 10_000)) + 5;
        for _ in 0..20 {
            let ts = rng.gen_range(lo..hi);
            let p = ended(ts);
            let want = if p < n && model[p].start <= ts { Ok(p) } else { Err(p) };
            for guess in (0..n + 2).chain([g.slice_map().guess(ts)]) {
                assert_eq!(g.covering_search(ts, guess), want, "ts {ts} from {guess}");
            }
        }
        // Runs of windows, some a slide apart and some alone: the walk
        // visits every covered window with its `partition_point` bounds,
        // from the edge pass's bounds and from its own searches alike.
        let runs: Vec<(usize, WindowRun)> = (0..12)
            .map(|i| {
                let a = rng.gen_range(lo..hi);
                let first = Range::new(a, a + rng.gen_range(0..200));
                let (len, slide) = (rng.gen_range(1..8), rng.gen_range(0..40));
                let run = if slide == 0 {
                    WindowRun::one(first)
                } else {
                    WindowRun { first, len, slide }
                };
                (i, run)
            })
            .collect();
        let want: Vec<_> = runs
            .iter()
            .flat_map(|&(i, run)| run.windows().map(move |w| (i, w)))
            .map(|(i, w)| (i, w, begun(w.start), begun(w.end)))
            .filter(|&(_, _, l, r)| l < r)
            .collect();
        for (i, w, l, r) in &want {
            assert_eq!(g.slice_span(*w), (*l, *r), "window {w} of run {i}");
        }
        let edges = g.resolve(&runs, false);
        for bounds in [None, Some(&edges.bounds[..])] {
            let mut got = Vec::new();
            g.walk(&runs, bounds, |&i, w, l, r| got.push((i, w, l, r)));
            assert_eq!(got, want, "bounds given: {}", bounds.is_some());
        }
    }

    #[test]
    fn geometry_matches_a_vec_model_under_random_operations() {
        for seed in 0..48 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = SliceGeometry::default();
            let mut model: Vec<Model> = Vec::new();
            let mut evicted = 0u64;
            for step in 0..300 {
                let n = model.len();
                let op = if n == 0 { 0 } else { rng.gen_range(0..10) };
                let name = match op {
                    // Append after the last slice, now and then past a gap.
                    0 => {
                        let from = model.last().map_or(0, |m| m.end) + rng.gen_range(0..3) * 7;
                        let range = Range::new(from, from + rng.gen_range(1..40));
                        g.push(range);
                        model.push(Model { start: range.start, end: range.end, times: vec![] });
                        "append"
                    }
                    // An in-order run into the open slice.
                    1 => {
                        let m = &mut model[n - 1];
                        let from = m.times.last().copied().unwrap_or(m.start).max(m.start);
                        let k = rng.gen_range(1..5);
                        let mut run: Vec<Time> =
                            (0..k).map(|_| rng.gen_range(from..m.end)).collect();
                        run.sort_unstable();
                        let e = Extent { count: k, t_first: run[0], t_last: run[k - 1] };
                        g.widen(n - 1, e);
                        m.times.extend(run);
                        "run"
                    }
                    // A late tuple anywhere in a slice.
                    2 => {
                        let i = rng.gen_range(0..n);
                        let m = &mut model[i];
                        if m.start == m.end {
                            continue;
                        }
                        let ts = rng.gen_range(m.start..m.end);
                        g.widen(i, Extent { count: 1, t_first: ts, t_last: ts });
                        m.times.insert(m.times.partition_point(|&t| t <= ts), ts);
                        "late"
                    }
                    // Cut the open slice past its last tuple.
                    3 => {
                        let m = &mut model[n - 1];
                        let from = m.times.last().map_or(m.start, |&t| t + 1).max(m.start);
                        // Outside the open slice there is nothing to cut.
                        assert!(!g.cut_last(m.end) && !g.cut_last(m.start - 1));
                        if from >= m.end {
                            continue;
                        }
                        let ts = rng.gen_range(from..m.end);
                        assert!(g.cut_last(ts));
                        let end = std::mem::replace(&mut m.end, ts);
                        model.push(Model { start: ts, end, times: vec![] });
                        "cut"
                    }
                    // A gap slice before the first slice or between two.
                    4 => {
                        let i = rng.gen_range(0..n);
                        let (lo, hi) = (
                            if i == 0 { model[0].start - 20 } else { model[i - 1].end },
                            model[i].start,
                        );
                        if lo >= hi {
                            continue;
                        }
                        let a = rng.gen_range(lo..hi);
                        let range = Range::new(a, rng.gen_range(a..hi) + 1);
                        assert_eq!(g.insert_gap(range), i, "gap {range}");
                        model
                            .insert(i, Model { start: range.start, end: range.end, times: vec![] });
                        "gap"
                    }
                    // Split a slice at a point strictly inside it.
                    5 => {
                        let i = rng.gen_range(0..n);
                        let m = &mut model[i];
                        if m.end - m.start < 2 {
                            continue;
                        }
                        let ts = rng.gen_range(m.start + 1..m.end);
                        let right = Model {
                            start: ts,
                            end: std::mem::replace(&mut m.end, ts),
                            times: m.times.split_off(m.times.partition_point(|&t| t < ts)),
                        };
                        g.split(i, ts, m.extent(), right.extent());
                        model.insert(i + 1, right);
                        "split"
                    }
                    // Merge at a shared edge, or fail to off one.
                    6 => {
                        // The first slice ending at `ts` merges (zero-width
                        // slices can make two of them).
                        let ts = model[rng.gen_range(0..n)].end;
                        let i = model.iter().take_while(|m| m.end < ts).count();
                        let edge = i + 1 < n && model[i].end == ts && model[i + 1].start == ts;
                        assert_eq!(g.merge_at(ts), edge.then_some(i), "merge at {ts}");
                        if edge {
                            let right = model.remove(i + 1);
                            model[i].end = right.end;
                            model[i].times.extend(right.times);
                            model[i].times.sort_unstable();
                        }
                        "merge"
                    }
                    // The count shift: a slice's last tuple to the next.
                    7 => {
                        let i = rng.gen_range(0..n);
                        if i + 1 == n || model[i].times.is_empty() {
                            continue;
                        }
                        let ts = model[i].times.pop().unwrap_or_default();
                        model[i + 1].times.insert(0, ts);
                        model[i + 1].times.sort_unstable();
                        g.set_extent(i, model[i].extent());
                        g.set_extent(i + 1, model[i + 1].extent());
                        "shift"
                    }
                    // Evict by time.
                    8 => {
                        let ts = rng.gen_range(model[0].start..model[n - 1].end + 1);
                        let k = g.ended_by(ts);
                        assert_eq!(k, model.iter().take_while(|m| m.end <= ts).count());
                        g.evict(k);
                        evicted += model.drain(..k).map(|m| m.times.len() as u64).sum::<u64>();
                        "evict by time"
                    }
                    // Evict by count, the open slice excepted.
                    _ => {
                        let total = g.total_count();
                        let keep_from = rng.gen_range(evicted..total + 2);
                        let mut pos = evicted;
                        let mut want = 0;
                        while want + 1 < n && pos + model[want].times.len() as u64 <= keep_from {
                            pos += model[want].times.len() as u64;
                            want += 1;
                        }
                        let k = g.count_evictable(keep_from);
                        assert_eq!(k, want, "keep from {keep_from}");
                        g.evict(k);
                        evicted = pos;
                        model.drain(..k);
                        "evict by count"
                    }
                };
                assert_matches(&g, &model, evicted, &format!("seed {seed} step {step}: {name}"));
                assert_lookups(&g, &model, &mut rng);
            }
        }
    }

    /// The search from a slice map's guess against a linear scan, for
    /// every time in and around the slices' span and at the domain's
    /// ends: evenly long slices, jittered ones, gaps, zero-width slices
    /// (one time, all of them), one slice and two; and the map taken
    /// before appends, a gap insert in front and evictions, stale.
    #[test]
    fn searches_from_a_map_guess_match_a_linear_scan() {
        let scan = |g: &SliceGeometry, ts: Time| {
            let p = (0..g.len()).take_while(|&i| g.end(i) <= ts).count();
            if p < g.len() && g.start(p) <= ts {
                Ok(p)
            } else {
                Err(p)
            }
        };
        let check = |g: &SliceGeometry, map: SliceMap, what: &str| {
            let (lo, hi) = (g.start(0), g.last_end().unwrap_or_default());
            let edges = [TIME_MIN, TIME_MIN + 1, TIME_MAX - 1, TIME_MAX];
            for ts in (lo - 30..hi + 30).chain(edges) {
                let want = scan(g, ts);
                assert_eq!(g.covering_search(ts, map.guess(ts)), want, "{what}: ts {ts}");
            }
        };
        let mut rng = StdRng::seed_from_u64(55);
        for case in 0..300 {
            let n = match case % 6 {
                0 => 1,
                1 => 2,
                _ => rng.gen_range(3..400),
            };
            let shape = (case / 6) % 5;
            let mut g = SliceGeometry::default();
            let mut t: Time = rng.gen_range(-1_000..1_000);
            let width = |rng: &mut StdRng| match shape {
                0 => 10,
                1 => rng.gen_range(5..16),
                2 => rng.gen_range(1..20),
                3 if rng.gen_bool(0.3) => 0,
                3 => rng.gen_range(1..12),
                _ => 0,
            };
            let append = |g: &mut SliceGeometry, t: &mut Time, rng: &mut StdRng| {
                if shape == 2 && rng.gen_bool(0.2) {
                    *t += rng.gen_range(1..60);
                }
                let w = width(rng);
                g.push(Range::new(*t, *t + w));
                *t += w;
            };
            for _ in 0..n {
                append(&mut g, &mut t, &mut rng);
            }
            let what = format!("case {case}, {n} slices of shape {shape}");
            let map = g.slice_map();
            check(&g, map, &what);
            for _ in 0..rng.gen_range(1..50) {
                append(&mut g, &mut t, &mut rng);
            }
            check(&g, map, &format!("{what}, appended"));
            let first = g.start(0);
            let gap = Range::new(first - rng.gen_range(2..40), first - 1);
            assert_eq!(g.insert_gap(gap), 0);
            check(&g, map, &format!("{what}, gap in front"));
            g.evict(rng.gen_range(1..g.len()));
            check(&g, map, &format!("{what}, evicted"));
        }
    }

    #[test]
    fn gallop_matches_partition_point_from_every_hint() {
        let col: Vec<Time> = vec![0, 10, 10, 20, 35, 35, 35, 50, 80];
        for probe in -5..90 {
            let want_le = col.partition_point(|&t| t <= probe);
            let want_lt = col.partition_point(|&t| t < probe);
            for hint in 0..=col.len() + 2 {
                let at = format!("{probe} from {hint}");
                assert_eq!(gallop_by(col.len(), hint, |i| col[i] <= probe), want_le, "<= {at}");
                assert_eq!(gallop_by(col.len(), hint, |i| col[i] < probe), want_lt, "< {at}");
            }
        }
        assert_eq!(gallop_by(0, 3, |_| true), 0);
    }

    #[test]
    fn column_compacts_its_dead_prefix_before_it_grows() {
        let mut rng = StdRng::seed_from_u64(39);
        let mut c: Column<u64> = Column::default();
        let mut model: Vec<u64> = Vec::new();
        for step in 0..2_000u64 {
            let (len, cap) = (c.len(), c.buf.capacity());
            match rng.gen_range(0..8) {
                0..=3 => {
                    c.push(step);
                    model.push(step);
                }
                4 => {
                    let i = rng.gen_range(0..=len);
                    c.insert(i, step);
                    model.insert(i, step);
                }
                5 if len > 0 => {
                    let i = rng.gen_range(0..len);
                    c.remove(i);
                    model.remove(i);
                }
                _ => {
                    let k = rng.gen_range(0..=len.min(3));
                    c.drop_front(k);
                    model.drain(..k);
                }
            }
            assert_eq!(&*c, &model[..], "step {step}");
            // The buffer grows only when the live records filled it, and
            // then as a full `Vec` of that capacity grows on a push.
            if c.buf.capacity() != cap {
                assert_eq!(len, cap, "step {step}: grew with dead records in the buffer");
                let mut full: Vec<u64> = Vec::with_capacity(cap);
                full.extend(std::iter::repeat_n(0, cap + 1));
                assert_eq!(c.buf.capacity(), full.capacity(), "step {step}");
            }
            assert_eq!(c.clone().buf.capacity(), c.len(), "step {step}");
        }
    }
}
