//! Window-type interfaces (paper Sections 4.4 and 5.4.2) and the query
//! side of window management.
//!
//! Window types are classified by the *context* needed to know where windows
//! start and end (Li et al. \[31\]): context free (CF), forward context free
//! (FCF), and forward context aware (FCA). The slicing core is agnostic to
//! concrete window types; they plug in through [`WindowFunction`], mirroring
//! the paper's `getNextEdge` / `triggerWindows` / `notifyContext` interface.
//! Implementations live in the `gss-windows` crate.
//!
//! A [`QuerySet`] turns the registered queries into what the Window Manager
//! (paper Figure 7, Section 5.3 Step 3) needs: the union of their edges,
//! the windows that end now, the fired windows a late tuple changes, and
//! how far back state must be kept. Every technique — the slicing
//! operator, the keyed operator, the shared timeline and the baselines —
//! asks the one set, so all of them answer the same windows.

use crate::cast;
use crate::time::{Count, Measure, Range, Time, TIME_MAX, TIME_MIN};

/// Identifier of a query registered with a window operator.
pub type QueryId = u32;

/// Context classification of a window type (paper Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextClass {
    /// All start/end timestamps are known a priori (tumbling, sliding).
    ContextFree,
    /// Start/end timestamps up to `t` are known once all tuples up to `t`
    /// are processed (punctuation-based windows).
    ForwardContextFree,
    /// Tuples *after* `t` may determine edges *before* `t` (multi-measure
    /// windows, sessions).
    ForwardContextAware,
}

impl ContextClass {
    /// Context-aware = not context free (paper Figure 5 vocabulary).
    #[inline]
    fn is_context_aware(self) -> bool {
        !matches!(self, ContextClass::ContextFree)
    }
}

/// Edge changes requested by a context-aware window while observing a tuple
/// or punctuation. The slice manager translates additions into slice splits
/// and removals into slice merges (paper Section 5.3, Step 2).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ContextEdges {
    added: Vec<Time>,
    removed: Vec<Time>,
}

impl ContextEdges {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a new window start/end edge at `ts`.
    pub fn add_edge(&mut self, ts: Time) {
        self.added.push(ts);
    }

    /// Declare that the edge at `ts` no longer exists (e.g. two sessions
    /// merged and the later session's start edge vanished).
    pub fn remove_edge(&mut self, ts: Time) {
        self.removed.push(ts);
    }

    pub fn added(&self) -> &[Time] {
        &self.added
    }

    pub fn removed(&self) -> &[Time] {
        &self.removed
    }

    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
    }
}

/// A window type pluggable into the slicing core and the baselines.
///
/// All positions (`ts` arguments, reported [`Range`]s) are expressed in the
/// window's own [`Measure`]: timestamps for time-measure windows, counts for
/// count-measure windows. The window operator translates watermarks into the
/// right measure before calling [`WindowFunction::trigger_windows`].
pub trait WindowFunction: Send {
    /// The measure this window is defined on.
    fn measure(&self) -> Measure;

    /// Context class; decides whether tuples must be kept and whether
    /// splits/merges can occur (paper Figures 4 and 5).
    fn context(&self) -> ContextClass;

    /// Session windows are context aware but never require aggregate
    /// recomputation (paper Section 5.1, condition 2). The decision logic
    /// special-cases them through this flag.
    fn is_session(&self) -> bool {
        false
    }

    /// Next window edge (start or end) strictly after `ts`, if known.
    ///
    /// CF windows always know this; context-aware windows return their
    /// current best knowledge or `None`. The stream slicer caches the
    /// returned edge and compares each in-order tuple against it (paper
    /// Section 5.3, Step 1).
    fn next_edge(&self, ts: Time) -> Option<Time>;

    /// Latest window edge (start or end) at or **before** `ts`, if the
    /// window can compute it without stream context. Context-free periodic
    /// windows derive it arithmetically; stateful windows keep the default
    /// `None`. Used by the keyed operator to extend its shared slice
    /// timeline backwards for late tuples.
    fn prev_edge(&self, _ts: Time) -> Option<Time> {
        None
    }

    /// True iff this window's edge set is a pure function of its
    /// parameters — independent of the tuples observed (tumbling, sliding).
    /// Such windows can share one slice timeline across all keys of a
    /// keyed operator; everything else (sessions, punctuation windows,
    /// count measures) needs per-key edges. Implementations returning
    /// `true` must also implement [`WindowFunction::prev_edge`] and
    /// [`WindowFunction::next_window_end`].
    fn has_static_edges(&self) -> bool {
        false
    }

    /// Next window **start** edge strictly after `ts`. On in-order streams
    /// it suffices to start slices when windows start (paper Section 5.3,
    /// Step 1: "In an in-order stream, it is sufficient to start slices
    /// when windows start"); out-of-order streams also slice at window
    /// ends, via [`WindowFunction::next_edge`]. Defaults to `next_edge`.
    fn next_start_edge(&self, ts: Time) -> Option<Time> {
        self.next_edge(ts)
    }

    /// Earliest position still needed by a window that has not been
    /// finally emitted (e.g. the start of the oldest live session). The
    /// operator never evicts slices at or after this position. `None`
    /// means no such constraint.
    fn earliest_pending_start(&self) -> Option<Time> {
        None
    }

    /// True iff this window currently defines a start or end edge exactly
    /// at `e`. Used before merging slices away: an edge is only removed if
    /// no query still needs it. The default derives the answer from
    /// [`WindowFunction::next_edge`]; stateful windows (sessions) override
    /// it.
    fn requires_edge_at(&self, e: Time) -> bool {
        self.next_edge(e - 1) == Some(e)
    }

    /// The earliest window **end** strictly after `ts`, if known. Lets the
    /// operator skip the trigger sweep entirely until a window can actually
    /// complete — the key to constant per-tuple cost with many concurrent
    /// context-free queries. `None` means "unknown, sweep every time".
    fn next_window_end(&self, _ts: Time) -> Option<Time> {
        None
    }

    /// Reports every window `[start, end)` whose **end** lies in
    /// `(prev_wm, curr_wm]`, i.e. windows that completed since the previous
    /// watermark. Mirrors `triggerWindows(Callback, prevWM, currWM)`.
    fn trigger_windows(&mut self, prev_wm: Time, curr_wm: Time, out: &mut dyn FnMut(Range));

    /// Reports every *currently known* window that contains position `ts`.
    /// Used by the bucket baseline for window assignment and by the window
    /// manager to re-emit updated aggregates for late tuples.
    fn windows_containing(&self, ts: Time, out: &mut dyn FnMut(Range));

    /// Context-aware windows observe every tuple here and may add or remove
    /// window edges. Context-free windows keep the default no-op.
    fn notify_context(&mut self, _ts: Time, _edges: &mut ContextEdges) {}

    /// FCF windows observe stream punctuations here (paper Section 4.4).
    fn on_punctuation(&mut self, _ts: Time, _edges: &mut ContextEdges) {}

    /// An upper bound on how far back (in this window's measure) a window
    /// containing position `ts` can start. Used for state eviction.
    fn max_extent(&self) -> i64;

    /// Clones the window into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn WindowFunction>;
}

impl Clone for Box<dyn WindowFunction> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A registered query: a window function plus its identifier.
pub struct Query {
    pub id: QueryId,
    pub window: Box<dyn WindowFunction>,
    measure: Measure,
}

impl Query {
    pub fn new(id: QueryId, window: Box<dyn WindowFunction>) -> Self {
        Query { id, measure: window.measure(), window }
    }

    /// The window's measure, asked of it once, when the query is made.
    pub fn measure(&self) -> Measure {
        self.measure
    }
}

impl Clone for Query {
    fn clone(&self) -> Self {
        Query { id: self.id, window: self.window.clone_box(), measure: self.measure }
    }
}

/// The registered queries of one technique, in registration order (ids
/// are never reused), the facts derived from them once per change, and
/// the upper bounds of the last trigger sweep.
#[derive(Clone)]
pub struct QuerySet {
    queries: Vec<Query>,
    /// Indices into `queries` of the context-aware windows.
    pub(crate) context_aware: Box<[u32]>,
    /// Per measure (time, count): the longest extent, and whether any
    /// query uses it.
    max_extent: [i64; 2],
    has: [bool; 2],
    last_trigger: (Time, Count),
    next_id: QueryId,
    pub(crate) has_fca: bool,
    pub(crate) has_context_aware_non_session: bool,
}

impl Default for QuerySet {
    fn default() -> Self {
        QuerySet {
            queries: Vec::new(),
            context_aware: Box::new([]),
            max_extent: [0; 2],
            has: [false; 2],
            last_trigger: (TIME_MIN, 0),
            next_id: 0,
            has_fca: false,
            has_context_aware_non_session: false,
        }
    }
}

fn slot(m: Measure) -> usize {
    usize::from(m == Measure::Count)
}

impl QuerySet {
    /// Registers `window` under the next id.
    pub fn add(&mut self, window: Box<dyn WindowFunction>) -> QueryId {
        let added = self.try_add(window, |_| Ok::<(), std::convert::Infallible>(()));
        added.unwrap_or_else(|never| match never {})
    }

    /// Registers `window` if `check` accepts the set with it; a refused
    /// window uses up no id.
    pub(crate) fn try_add<E>(
        &mut self,
        window: Box<dyn WindowFunction>,
        check: impl FnOnce(&Self) -> Result<(), E>,
    ) -> Result<QueryId, E> {
        self.queries.push(Query::new(self.next_id, window));
        self.derive();
        if let Err(e) = check(self) {
            self.queries.pop();
            self.derive();
            return Err(e);
        }
        self.next_id += 1;
        Ok(self.next_id - 1)
    }

    /// Removes a query; returns `true` if it existed.
    pub(crate) fn remove(&mut self, id: QueryId) -> bool {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != id);
        self.derive();
        self.queries.len() != before
    }

    fn derive(&mut self) {
        (self.has, self.max_extent) = ([false; 2], [0; 2]);
        for q in &self.queries {
            let (s, extent) = (slot(q.measure), q.window.max_extent());
            (self.has[s], self.max_extent[s]) = (true, self.max_extent[s].max(extent));
        }
        let windows = || self.queries.iter().map(|q| &*q.window);
        let aware = |w: &dyn WindowFunction| w.context().is_context_aware();
        self.has_fca = windows().any(|w| w.context() == ContextClass::ForwardContextAware);
        self.has_context_aware_non_session = windows().any(|w| aware(w) && !w.is_session());
        let aware_at = |&i: &usize| aware(&*self.queries[i].window);
        self.context_aware = (0..self.queries.len()).filter(aware_at).map(cast::slot32).collect();
    }

    /// The queries in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, Query> {
        self.queries.iter()
    }

    /// The queries of measure `m`; none are walked when no query has it.
    fn of_measure(&self, m: Measure) -> impl Iterator<Item = &Query> {
        let queries = if self.has(m) { &self.queries[..] } else { &[] };
        queries.iter().filter(move |q| q.measure == m)
    }

    /// Some query uses measure `m`.
    pub fn has(&self, m: Measure) -> bool {
        self.has[slot(m)]
    }

    /// The longest extent among the queries of measure `m` (0 if none).
    pub fn max_extent(&self, m: Measure) -> i64 {
        self.max_extent[slot(m)]
    }

    /// Context-aware windows observe a tuple; `edges` collects their changes.
    pub fn notify(&mut self, ts: Time, edges: &mut ContextEdges) {
        edges.clear();
        for &i in self.context_aware.iter() {
            self.queries[cast::idx32(i)].window.notify_context(ts, edges);
        }
    }

    /// Every window observes a punctuation; `edges` collects their changes.
    pub(crate) fn punctuate(&mut self, ts: Time, edges: &mut ContextEdges) {
        edges.clear();
        self.queries.iter_mut().for_each(|q| q.window.on_punctuation(ts, edges));
    }

    /// Does a time-measure query define a window edge exactly at `e`?
    pub(crate) fn requires_edge_at(&self, e: Time) -> bool {
        self.of_measure(Measure::Time).any(|q| q.window.requires_edge_at(e))
    }

    /// The earliest edge of a measure-`m` query strictly after `ts`:
    /// window starts only if `starts_only`, starts and ends otherwise.
    #[inline]
    pub fn next_edge(&self, m: Measure, ts: Time, starts_only: bool) -> Option<Time> {
        let edge = |w: &dyn WindowFunction| {
            if starts_only {
                w.next_start_edge(ts)
            } else {
                w.next_edge(ts)
            }
        };
        let next = self.of_measure(m).filter_map(|q| edge(&*q.window)).min();
        debug_assert!(next.is_none_or(|e| e > ts), "next edge must be strictly after ts");
        next
    }

    /// The latest time edge at or before `ts` known without context.
    pub fn prev_edge(&self, ts: Time) -> Option<Time> {
        let prev = self.of_measure(Measure::Time).filter_map(|q| q.window.prev_edge(ts)).max();
        debug_assert!(prev.is_none_or(|e| e <= ts), "prev edge must be at or before ts");
        prev
    }

    /// The earliest end after `probe` among the measure-`m` windows that
    /// know theirs, and whether one does not.
    fn end_after(&self, m: Measure, probe: Time) -> (Option<Time>, bool) {
        let ends = self.of_measure(m).map(|q| q.window.next_window_end(probe));
        ends.fold((None, false), |(min, unknown), e| match e {
            Some(e) => (Some(min.map_or(e, |x: Time| x.min(e))), unknown),
            None => (min, true),
        })
    }

    /// The earliest time window end after `probe`, or `TIME_MAX`.
    pub fn next_window_end(&self, probe: Time) -> Time {
        self.end_after(Measure::Time, probe).0.unwrap_or(TIME_MAX)
    }

    /// The earliest time and count at which a window can end after the
    /// last sweep, and whether a window needs a sweep on every tuple.
    pub(crate) fn next_trigger(&self, max_ts: Time) -> (Option<Time>, Option<Count>, bool) {
        let (time, count) = self.last_trigger;
        let probe = if time == TIME_MIN { max_ts.max(0) } else { time };
        let (time, time_unknown) = self.end_after(Measure::Time, probe);
        let (count, count_unknown) = self.end_after(Measure::Count, count as Time);
        let always = !self.context_aware.is_empty() || time_unknown || count_unknown;
        (time, count.map(|c| c as Count), always)
    }

    /// The data clamp: a time window ending after `data_pos` plus the
    /// longest extent holds no data up to `data_pos`.
    #[inline]
    pub(crate) fn clamp(&self, wm: Time, data_pos: Time) -> Time {
        wm.min(data_pos.saturating_add(self.max_extent(Measure::Time)).saturating_add(1))
    }

    /// The trigger sweep: `QuerySet::fire` for the windows that ended
    /// since the last sweep, time up to `wm` clamped at `data_pos`
    /// (`QuerySet::clamp`) and count up to `count_wm`, then advances the
    /// bounds. The first sweep starts at the first data position
    /// `first_pos`. Without data it sweeps nothing and returns `false`.
    pub fn trigger(
        &mut self,
        wm: Time,
        count_wm: Count,
        data_pos: Time,
        first_pos: Option<Time>,
        f: impl FnMut(QueryId, Measure, Range),
    ) -> bool {
        if data_pos == TIME_MIN {
            return false;
        }
        let wm = self.clamp(wm, data_pos);
        let (mut time, count) = self.last_trigger;
        if time == TIME_MIN {
            time = first_pos.map_or(wm, |s| s.min(wm));
        }
        self.fire((time, wm), (count as Time, count_wm as Time), f);
        self.last_trigger = (time.max(wm), count.max(count_wm));
        true
    }

    /// `f(query, measure, range)`, in query order, for each time window
    /// ending in `(time.0, time.1]` and each count window ending in
    /// `(count.0, count.1]`.
    pub(crate) fn fire(
        &mut self,
        time: (Time, Time),
        count: (Time, Time),
        mut f: impl FnMut(QueryId, Measure, Range),
    ) {
        for q in &mut self.queries {
            let (id, m) = (q.id, q.measure);
            let (from, to) = if m == Measure::Time { time } else { count };
            q.window.trigger_windows(from, to, &mut |r| f(id, m, r));
        }
    }

    /// The late-update rule: `f(query, measure, range)`, in query order,
    /// for each fired window a late tuple at `ts` changes under watermark
    /// `wm`: the time windows containing `ts` that end by `wm`, and with
    /// `counts` = (the tuple's count position, the count watermark) every
    /// count window in between, since the tuple shifts later positions.
    pub fn updates(
        &mut self,
        ts: Time,
        wm: Time,
        counts: Option<(Count, Count)>,
        mut f: impl FnMut(QueryId, Measure, Range),
    ) {
        for q in &mut self.queries {
            let (id, m) = (q.id, q.measure);
            match (m, counts) {
                (Measure::Time, _) => q.window.windows_containing(ts, &mut |r| {
                    if r.end <= wm {
                        f(id, m, r);
                    }
                }),
                (Measure::Count, Some((pos, count_wm))) => {
                    q.window.trigger_windows(pos as Time, count_wm as Time, &mut |r| f(id, m, r));
                }
                (Measure::Count, None) => {}
            }
        }
    }

    /// The eviction horizon: no window a tuple can still join or update
    /// starts before `wm - lateness -` the longest time extent, nor before
    /// a window's earliest pending start.
    pub fn horizon(&self, wm: Time, lateness: Time) -> Time {
        let h = wm.saturating_sub(lateness).saturating_sub(self.max_extent(Measure::Time));
        let pending = self.queries.iter().filter_map(|q| q.window.earliest_pending_start());
        pending.fold(h, Time::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{SlidingStub, TumblingStub};

    fn tumbling(length: Time) -> Box<dyn WindowFunction> {
        Box::new(TumblingStub { length })
    }

    #[test]
    fn ids_are_never_reused_and_a_refused_query_uses_none() {
        let mut qs = QuerySet::default();
        let a = qs.add(tumbling(10));
        let b = qs.add(tumbling(20));
        assert_ne!(a, b);
        assert!(qs.remove(a));
        assert!(!qs.remove(a));
        assert_eq!(qs.iter().count(), 1);
        assert_eq!(qs.try_add(tumbling(5), |_| Err(())), Err(()));
        assert_eq!(qs.iter().count(), 1);
        assert_eq!(qs.add(tumbling(5)), b + 1);
    }

    #[test]
    fn trigger_sweeps_every_query_from_where_the_last_sweep_ended() {
        let mut qs = QuerySet::default();
        qs.add(tumbling(10));
        qs.add(tumbling(5));
        let mut got = Vec::new();
        assert!(!qs.trigger(20, 0, TIME_MIN, None, |id, _, r| got.push((id, r))));
        assert!(qs.trigger(20, 0, 20, Some(0), |id, _, r| got.push((id, r))));
        // Tumbling 10: [0,10), [10,20). Tumbling 5: [0,5)..[15,20).
        assert_eq!(got.iter().filter(|(id, _)| *id == 0).count(), 2);
        assert_eq!(got.iter().filter(|(id, _)| *id == 1).count(), 4);
        got.clear();
        qs.trigger(25, 0, 25, Some(0), |id, _, r| got.push((id, r)));
        assert_eq!(got, [(1, Range::new(20, 25))]);
    }

    #[test]
    fn facts_follow_the_queries() {
        let mut qs = QuerySet::default();
        qs.add(tumbling(10));
        let sliding = qs.add(Box::new(SlidingStub { length: 30, slide: 10 }));
        assert!(qs.has(Measure::Time) && !qs.has(Measure::Count));
        assert_eq!(qs.max_extent(Measure::Time), 30);
        assert_eq!(qs.horizon(100, 5), 65);
        qs.remove(sliding);
        assert_eq!(qs.max_extent(Measure::Time), 10);
        assert_eq!(qs.next_window_end(10), 20);
    }

    #[test]
    fn context_awareness_classification() {
        assert!(!ContextClass::ContextFree.is_context_aware());
        assert!(ContextClass::ForwardContextFree.is_context_aware());
        assert!(ContextClass::ForwardContextAware.is_context_aware());
    }

    #[test]
    fn context_edges_collects_changes() {
        let mut e = ContextEdges::new();
        assert!(e.is_empty());
        e.add_edge(10);
        e.add_edge(20);
        e.remove_edge(15);
        assert_eq!(e.added(), &[10, 20]);
        assert_eq!(e.removed(), &[15]);
        assert!(!e.is_empty());
        e.clear();
        assert!(e.is_empty());
    }
}
