//! Slice geometry: where every slice lies in time and in count, apart
//! from what it aggregates (paper Section 5.2).
//!
//! A slice is its time range `[start, end)`, the number of tuples it
//! holds and the times of its first and last tuple. [`SliceGeometry`]
//! keeps these as three columns and owns every operation that reads only
//! them, compiled once whatever the aggregate; the store's partial and
//! tuple columns follow it position for position.

use std::ops::{Deref, DerefMut};

use crate::cast;
use crate::mem::HeapSize;
use crate::store::INDEX_SCAN_CUTOFF;
use crate::time::{Range, Time, TIME_MAX, TIME_MIN};

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
    /// Tuples evicted from the front, so count positions are absolute.
    evicted: u64,
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

    /// Adds the tuples of `e` to slice `i`.
    #[inline]
    pub(crate) fn widen(&mut self, i: usize, e: Extent) {
        let x = &mut self.extents[i];
        x.count += e.count;
        x.t_first = x.t_first.min(e.t_first);
        x.t_last = x.t_last.max(e.t_last);
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
        self.widen(i, right);
        self.starts.remove(i + 1);
        self.ends.remove(i + 1);
        self.extents.remove(i + 1);
        Some(i)
    }

    /// Moves the last tuple of slice `i`, at `ts`, to the front of slice
    /// `i + 1` (the Figure-6 count shift); `new_last` is the time of the
    /// tuple that is last in slice `i` afterwards. Ranges stay: count
    /// slices treat them as advisory.
    pub(crate) fn shift_last(&mut self, i: usize, ts: Time, new_last: Time) {
        let x = &mut self.extents[i];
        x.count -= 1;
        *x = if x.count == 0 { Extent::EMPTY } else { Extent { t_last: new_last, ..*x } };
        self.widen(i + 1, Extent { count: 1, t_first: ts, t_last: ts });
    }

    /// Drops the first `k` slices; their tuples stay counted.
    pub(crate) fn evict(&mut self, k: usize) {
        self.evicted += cast::to_u64(self.extents[..k].iter().map(|e| e.count).sum());
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
        let mut pos = self.evicted;
        let fits = |e: &&Extent| {
            pos += cast::to_u64(e.count);
            pos <= keep_from
        };
        self.extents.iter().take(self.len().saturating_sub(1)).take_while(fits).count()
    }

    /// Total number of tuples ever added (absolute count).
    pub(crate) fn total_count(&self) -> u64 {
        self.evicted + cast::to_u64(self.extents.iter().map(|e| e.count).sum())
    }

    /// The absolute count of the tuples in the leading slices whose
    /// tuples all lie at or before `ts`, and the first slice after them
    /// (some of whose tuples may lie at or before `ts` too).
    pub(crate) fn count_through(&self, ts: Time) -> (u64, usize) {
        let mut count = self.evicted;
        for (i, e) in self.extents.iter().enumerate() {
            if e.count == 0 || e.t_last > ts {
                return (count, i);
            }
            count += cast::to_u64(e.count);
        }
        (count, self.len())
    }

    /// The slices `[l, r)` holding the absolute counts `[c1, c2)`. Slice
    /// edges must align with both (the count slicing invariant the
    /// Figure-6 shift maintains).
    pub(crate) fn count_span(&self, c1: u64, c2: u64) -> (usize, usize) {
        if c2 <= c1 {
            return (0, 0);
        }
        let (mut l, mut r) = (usize::MAX, 0);
        let mut pos = self.evicted;
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

    /// The slices `[l, r)` inside the time range `range`; `l >= r` when
    /// none is.
    pub(crate) fn slice_span(&self, range: Range) -> (usize, usize) {
        (
            self.ends.partition_point(|&e| e <= range.start),
            self.starts.partition_point(|&s| s < range.end),
        )
    }

    /// Whether slices `[l, r)` hold tuples of `range` only. Window edges
    /// are slice edges, but the open slice and session slices may extend
    /// past a window's end while holding no tuple there. Debug checks.
    pub(crate) fn aligned(&self, range: Range, l: usize, r: usize) -> bool {
        let inside =
            |e: &Extent| e.count == 0 || (e.t_first >= range.start && e.t_last < range.end);
        self.extents[l..r].iter().all(inside)
    }

    /// Where `ts` falls among the time-tiled slices: `Ok(i)` when slice
    /// `i` covers it (session gaps leave holes), `Err(i)` when it lies
    /// in a coverage gap, `i` being the first slice after the gap — the
    /// position a slice covering `ts` is inserted at.
    ///
    /// The search starts from a guess and gallops outwards from it. The
    /// guess interpolates `ts` linearly between the nearest slices whose
    /// position is known without searching: the two ends and, if given,
    /// slice `near` (the previous late tuple's, say). A guess `d` slices
    /// off costs `O(log d)` probes — a couple when slices are evenly long
    /// (periodic windows) or `near` is a neighbour (a sorted burst), and
    /// the order of a binary search at worst.
    pub(crate) fn covering_search(&self, ts: Time, near: Option<usize>) -> Result<usize, usize> {
        let (starts, ends) = (&*self.starts, &*self.ends);
        let Some(open) = starts.len().checked_sub(1) else {
            return Err(0);
        };
        let mut below = (0, starts[0]);
        let mut above = (open, starts[open]);
        if let Some(i) = near {
            let at = (i, starts[i]);
            if ts >= at.1 {
                below = at;
            } else {
                above = at;
            }
        }
        let guess = if ts <= below.1 {
            below.0
        } else if ts >= above.1 {
            above.0
        } else {
            let share = ts.abs_diff(below.1) as f64 / above.1.abs_diff(below.1) as f64;
            below.0 + cast::idx32((share * (above.0 - below.0) as f64) as u32)
        };
        // First slice whose end is beyond ts…
        let idx = gallop_by(ends.len(), guess, |i| ends[i] <= ts);
        // …must also start at or before ts.
        if idx <= open && starts[idx] <= ts {
            Ok(idx)
        } else {
            Err(idx)
        }
    }

    /// Index of the slice an out-of-order tuple at `ts` joins in a
    /// count-delimited store: the first slice whose last tuple lies
    /// strictly after `ts` (slices partition the event-time-sorted tuple
    /// sequence, and a late tie lands *after* every stored tuple with an
    /// equal timestamp — count ties break by arrival order), else the
    /// latest slice. `None` without slices.
    pub(crate) fn covering_index_by_tuples(&self, ts: Time) -> Option<usize> {
        let n = self.len();
        let last = n.checked_sub(1)?;
        // Binary search: `t_last` is non-decreasing across *non-empty*
        // slices. Empty slices (shifts can drain one) break strict
        // monotonicity, so each probe advances to the first non-empty
        // slice in its half; the search stays O(log s) plus the length of
        // the empty runs it skips.
        let (mut lo, mut hi, mut found) = (0, n, last);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut probe = mid;
            while probe < hi && self.extents[probe].count == 0 {
                probe += 1;
            }
            if probe == hi {
                // Everything in [mid, hi) is empty: candidates are < mid.
                hi = mid;
            } else if self.extents[probe].t_last > ts {
                found = probe;
                hi = mid;
            } else {
                lo = probe + 1;
            }
        }
        Some(found)
    }

    /// Resolves every window to the slices `[l, r)` it covers, as
    /// [`slice_span`](Self::slice_span) does, and gathers what planning
    /// the sweep needs (`index_cost`: one index query, `None` without an
    /// index). Each edge gallops from the previous window's over the
    /// `ends` / `starts` columns in place: a few probes a window of a
    /// sliding sweep, `O(log d)` for windows far apart.
    pub(crate) fn resolve<T>(
        &self,
        windows: &[(T, Range)],
        index_cost: Option<usize>,
    ) -> SweepEdges {
        let (ends, starts) = (&*self.ends, &*self.starts);
        let mut edges = SweepEdges {
            bounds: Vec::with_capacity(windows.len()),
            base: usize::MAX,
            max_l: 0,
            min_r: usize::MAX,
            top: 0,
            each_cost: 0,
        };
        let (mut l, mut r) = (0, 0);
        for (_, w) in windows {
            l = gallop_by(ends.len(), l, |i| ends[i] <= w.start);
            r = gallop_by(starts.len(), r, |i| starts[i] < w.end);
            edges.bounds.push((cast::slot32(l), cast::slot32(r)));
            if l < r {
                edges.base = edges.base.min(l);
                edges.max_l = edges.max_l.max(l);
                edges.min_r = edges.min_r.min(r);
                edges.top = edges.top.max(r);
                edges.each_cost += match index_cost {
                    Some(cost) if r - l > INDEX_SCAN_CUTOFF => cost,
                    _ => r - l,
                };
            }
        }
        edges
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

/// One geometry column: a `Vec` whose first `head` records are evicted,
/// dereferencing to the live ones, so every search reads one contiguous
/// slice (a ring buffer splits into two halves once it wraps). Eviction
/// only advances `head`; an append or insert that would grow the buffer
/// first compacts the dead prefix away, so the capacity grows exactly when,
/// and by as much as, a ring buffer's would: once the live records fill
/// it. Records are `Copy`: a dead prefix owns nothing.
struct Column<T> {
    buf: Vec<T>,
    head: usize,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column { buf: Vec::new(), head: 0 }
    }
}

impl<T: Copy> Column<T> {
    /// Compacts the dead prefix away if the buffer is full.
    #[inline]
    fn make_room(&mut self) {
        if self.buf.len() == self.buf.capacity() && self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// The number of live records, without forming the slice.
    #[inline]
    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn push(&mut self, x: T) {
        self.make_room();
        self.buf.push(x);
    }

    /// Inserts `x` at live position `i`.
    fn insert(&mut self, i: usize, x: T) {
        self.make_room();
        self.buf.insert(self.head + i, x);
    }

    fn remove(&mut self, i: usize) {
        self.buf.remove(self.head + i);
    }

    /// Evicts the first `k` live records.
    fn drop_front(&mut self, k: usize) {
        self.head += k;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Copy> Clone for Column<T> {
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

/// The windows of one sweep resolved to slices, and what planning needs
/// of them. Every extreme is taken over the covered windows (`l < r`)
/// only; with none, `base > top`.
pub(crate) struct SweepEdges {
    /// Per window, the store indices `[l, r)` of the slices it covers.
    pub(crate) bounds: Vec<(u32, u32)>,
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
    /// from every hint, the count-order lookup, and the edge pass's bounds
    /// against `partition_point`.
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
            for near in std::iter::once(None).chain((0..n).map(Some)) {
                assert_eq!(g.covering_search(ts, near), want, "ts {ts} near {near:?}");
            }
            // The count-order lookup presumes count slices: the slices'
            // tuples in time order (late tuples and shifts in one run mix
            // time-tiled and count writes, which can break that).
            let lasts: Vec<Time> = model.iter().filter_map(|m| m.times.last().copied()).collect();
            if lasts.is_sorted() {
                let by_tuples = (0..n).find(|&i| model[i].times.last().is_some_and(|&t| t > ts));
                let want = by_tuples.or(n.checked_sub(1));
                assert_eq!(g.covering_index_by_tuples(ts), want, "ts {ts}");
            }
        }
        let windows: Vec<((), Range)> = (0..12)
            .map(|_| {
                let a = rng.gen_range(lo..hi);
                ((), Range::new(a, a + rng.gen_range(0..200)))
            })
            .collect();
        let edges = g.resolve(&windows, None);
        for (((), w), &(l, r)) in windows.iter().zip(&edges.bounds) {
            let want = (ended(w.start), begun(w.end));
            assert_eq!((l as usize, r as usize), want, "window {w}");
            assert_eq!(g.slice_span(*w), want, "window {w}");
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
                        let new_last = model[i].times.last().copied().unwrap_or(TIME_MIN);
                        g.shift_last(i, ts, new_last);
                        model[i + 1].times.insert(0, ts);
                        model[i + 1].times.sort_unstable();
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
