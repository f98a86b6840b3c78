//! The shared slice timeline: window-edge boundary math decoupled from
//! aggregate storage.
//!
//! For time-measure, context-free windows with **static edges**
//! ([`WindowFunction::has_static_edges`]), slice boundaries are a pure
//! function of the query set — every observer derives the same `[start,
//! end)` spans without coordination, from the union of the set's edges
//! ([`QuerySet::prev_edge`], [`QuerySet::next_edge`]). The keyed operator exploits this to
//! share one boundary list across all keys.
//!
//! Slices are addressed by a *global index* (`base + position`) that stays
//! stable across front eviction, so consumers holding dense rings of
//! per-slice state need no fixups when the timeline advances. Stability
//! holds only within one `Timeline::generation`: once eviction empties
//! the timeline, the next slice re-anchors the index↔time map at its own
//! timestamp, and indices from the previous generation must be discarded.
//!
//! [`WindowFunction::has_static_edges`]: crate::window::WindowFunction::has_static_edges
//! [`QuerySet::prev_edge`]: crate::window::QuerySet::prev_edge
//! [`QuerySet::next_edge`]: crate::window::QuerySet::next_edge

use std::collections::VecDeque;

use crate::cast;
use crate::function::AggregateFunction;
use crate::time::{Measure, Range, Time, TIME_MAX, TIME_MIN};
use crate::window::{ContextClass, QuerySet, WindowFunction};

/// Whether `windows` over `f` can share one static slice timeline: at
/// least one window, a commutative `f` (partials combine in any order),
/// and every window time-measure, context-free and static-edged (slice
/// boundaries are a pure function of the query set). The keyed
/// operator's shared mode takes exactly this rule.
pub(crate) fn shares_static_timeline<A: AggregateFunction>(
    f: &A,
    windows: &[Box<dyn WindowFunction>],
) -> bool {
    !windows.is_empty()
        && f.properties().commutative
        && windows.iter().all(|w| {
            w.measure() == Measure::Time
                && w.context() == ContextClass::ContextFree
                && w.has_static_edges()
        })
}

/// One shared slice: a half-open `[start, end)` span bounded by window
/// edges. Unlike [`crate::slice::Slice`] it holds **no aggregate** — those
/// live with whoever aligns state to the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceMeta {
    pub start: Time,
    pub end: Time,
}

/// The shared, contiguous slice timeline (see module docs).
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    slices: VecDeque<SliceMeta>,
    /// Global index of `slices[0]`. Increases on eviction, decreases when
    /// a late tuple forces a prepend.
    base: i64,
    /// Bumped every time the timeline regrows from empty. Global indices
    /// are only comparable *within* one generation: an empty timeline has
    /// lost its anchor, so the next slice re-anchors the index↔time map
    /// wherever its timestamp lands. Consumers caching per-slice state
    /// keyed by global index must drop it when the generation changes.
    generation: u64,
}

impl Timeline {
    /// An empty timeline that has already been through `generation`
    /// rebirths — `2^32` of them take too long to wait for.
    #[cfg(test)]
    pub(crate) fn at_generation(generation: u64) -> Self {
        Timeline { generation, ..Timeline::default() }
    }

    pub fn len(&self) -> usize {
        self.slices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Global index of the slice at position 0.
    pub fn base(&self) -> i64 {
        self.base
    }

    /// The current anchor generation. Global indices obtained under a
    /// different generation are meaningless against this timeline (see
    /// the field docs); consumers must discard state keyed by them.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Slice metadata at `position` (an index into the live span, not a
    /// global index).
    pub fn get(&self, position: usize) -> SliceMeta {
        self.slices[position]
    }

    /// Extends the timeline (in either direction) so some slice covers
    /// `ts`, and returns that slice's **position** (index into the live
    /// span). Increments `slices_created` once per slice added.
    pub(crate) fn ensure_covering(
        &mut self,
        ts: Time,
        queries: &QuerySet,
        slices_created: &mut u64,
    ) -> usize {
        let next_edge = |ts| queries.next_edge(Measure::Time, ts, false).unwrap_or(TIME_MAX);
        let prev_edge = |ts| queries.prev_edge(ts).unwrap_or(TIME_MIN);
        if self.slices.is_empty() {
            // Rebirth: the first slice anchors the index↔time map anew,
            // at whatever `base` eviction left behind — the old numbering
            // no longer means anything, so start a new generation.
            self.generation += 1;
            let (start, end) = (prev_edge(ts), next_edge(ts));
            self.slices.push_back(SliceMeta { start, end });
            *slices_created += 1;
            return 0;
        }
        while let Some(start) = self.slices.back().map(|s| s.end) {
            if ts < start {
                break;
            }
            let end = next_edge(start);
            self.slices.push_back(SliceMeta { start, end });
            *slices_created += 1;
        }
        while let Some(end) = self.slices.front().map(|s| s.start) {
            if ts >= end {
                break;
            }
            let start = prev_edge(end - 1);
            debug_assert!(start < end);
            self.slices.push_front(SliceMeta { start, end });
            self.base -= 1;
            *slices_created += 1;
        }
        // The loops above extended coverage to include `ts`.
        let pos = self.pos_covering(ts);
        debug_assert!(pos.is_some(), "timeline extended to cover ts");
        #[cfg(feature = "audit")]
        self.assert_invariants();
        pos.unwrap_or(0)
    }

    /// Dense structural checks for the audit build: every slice is
    /// non-empty and the timeline is contiguous (each slice starts where
    /// its predecessor ends), so global indices map 1:1 onto disjoint
    /// covering time ranges.
    #[cfg(feature = "audit")]
    pub(crate) fn assert_invariants(&self) {
        let mut prev_end: Option<Time> = None;
        for s in &self.slices {
            assert!(s.start < s.end, "slice [{}, {}) empty or inverted", s.start, s.end);
            if let Some(pe) = prev_end {
                assert_eq!(
                    pe, s.start,
                    "timeline gap: predecessor ends {pe}, slice starts {}",
                    s.start
                );
            }
            prev_end = Some(s.end);
        }
    }

    /// Position of the slice covering `ts`, if any.
    fn pos_covering(&self, ts: Time) -> Option<usize> {
        let (front, back) = (self.slices.front()?, self.slices.back()?);
        if ts < front.start || ts >= back.end {
            return None;
        }
        // Largest position whose start <= ts; slices are contiguous.
        let pos = self.slices.partition_point(|s| s.start <= ts);
        debug_assert!(pos > 0);
        Some(pos - 1)
    }

    /// Maps a window `[range.start, range.end)` to the inclusive-exclusive
    /// global slice index span it covers, clamped to current coverage.
    /// `None` if the window doesn't overlap the timeline at all.
    pub(crate) fn global_range(&self, range: Range) -> Option<(i64, i64)> {
        let first = self.slices.front()?;
        let last = self.slices.back()?;
        if range.end <= first.start || range.start >= last.end {
            return None;
        }
        let lo_pos = if range.start <= first.start {
            0
        } else {
            // Guarded above: first.start < range.start < last.end.
            let pos = self.pos_covering(range.start);
            debug_assert!(pos.is_some(), "start within coverage");
            pos.unwrap_or(0)
        };
        // Exclusive upper bound: first slice whose start >= range.end.
        let hi_pos = self.slices.partition_point(|s| s.start < range.end);
        debug_assert!(hi_pos > lo_pos);
        Some((self.base + cast::to_i64(lo_pos), self.base + cast::to_i64(hi_pos)))
    }

    /// Drops slices that end at or before `boundary`; keeps global
    /// numbering monotone by advancing `base`.
    pub(crate) fn evict_to(&mut self, boundary: Time) {
        while let Some(front) = self.slices.front() {
            if front.end <= boundary {
                self.slices.pop_front();
                self.base += 1;
            } else {
                break;
            }
        }
        #[cfg(feature = "audit")]
        self.assert_invariants();
    }

    pub fn heap_bytes(&self) -> usize {
        self.slices.capacity() * std::mem::size_of::<SliceMeta>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::TumblingStub;

    fn queries() -> QuerySet {
        let mut set = QuerySet::default();
        set.add(Box::new(TumblingStub { length: 10 }));
        set.add(Box::new(TumblingStub { length: 15 }));
        set
    }

    #[test]
    fn covering_grows_both_directions() {
        let qs = queries();
        let mut t = Timeline::default();
        let mut created = 0u64;
        let pos = t.ensure_covering(17, &qs, &mut created);
        // Union edges of tumble(10) and tumble(15) around 17: [15, 20).
        assert_eq!(t.get(pos), SliceMeta { start: 15, end: 20 });
        let before = t.base();
        let pos2 = t.ensure_covering(3, &qs, &mut created);
        assert_eq!(t.get(pos2), SliceMeta { start: 0, end: 10 });
        assert!(t.base() < before, "prepend must lower the base");
        let pos3 = t.ensure_covering(42, &qs, &mut created);
        assert_eq!(t.get(pos3), SliceMeta { start: 40, end: 45 });
        assert_eq!(created, t.len() as u64);
        // Contiguity: every neighbor pair shares an edge.
        for i in 1..t.len() {
            assert_eq!(t.get(i - 1).end, t.get(i).start);
        }
    }

    #[test]
    fn boundaries_are_deterministic_across_instances() {
        // Two independent timelines fed disjoint timestamp subsets must
        // agree on every span they both cover: the spans are a function of
        // the query set alone.
        let qs = queries();
        let (mut a, mut b) = (Timeline::default(), Timeline::default());
        let mut c = 0u64;
        for ts in [3, 17, 42, 8, 29] {
            let p = a.ensure_covering(ts, &qs, &mut c);
            let q = b.ensure_covering(ts, &qs, &mut c);
            assert_eq!(a.get(p), b.get(q));
        }
    }

    #[test]
    fn rebirth_bumps_generation_and_reanchors_indices() {
        let qs = queries();
        let mut t = Timeline::default();
        let mut c = 0u64;
        t.ensure_covering(17, &qs, &mut c);
        let gen = t.generation();
        // Growth and partial eviction keep the anchor.
        t.ensure_covering(42, &qs, &mut c);
        t.evict_to(20);
        assert_eq!(t.generation(), gen);
        let id_42 = t.base() + t.pos_covering(42).unwrap() as i64;
        // Evicting to empty loses the anchor; the regrown timeline may
        // reuse old indices for different times, so the generation bumps.
        t.evict_to(TIME_MAX);
        assert!(t.is_empty());
        assert_eq!(t.generation(), gen, "emptying alone keeps the generation");
        let pos = t.ensure_covering(1_000, &qs, &mut c);
        assert!(t.generation() > gen, "rebirth must start a new generation");
        let id_1000 = t.base() + pos as i64;
        // The stale index for 42 now sits below the new anchor entirely
        // by accident of eviction order — the point is it is meaningless.
        assert_ne!(id_42, id_1000);
    }

    #[test]
    fn evict_advances_base() {
        let qs = queries();
        let mut t = Timeline::default();
        let mut c = 0u64;
        t.ensure_covering(0, &qs, &mut c);
        t.ensure_covering(55, &qs, &mut c);
        let len = t.len();
        t.evict_to(30);
        assert!(t.len() < len);
        assert_eq!(t.base(), (len - t.len()) as i64);
        assert!(t.get(0).end > 30);
    }
}
