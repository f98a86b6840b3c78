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
//! asks the one set, so all of them answer the same windows. Periodic
//! windows ([`PeriodicEdges`]) it answers by arithmetic over the edge
//! families they share, and asks only the other windows.

use crate::cast;
use crate::time::{Count, Measure, Range, StreamOrder, Time, TIME_MAX, TIME_MIN};

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

/// The positions `k·slide + phase` for every integer `k`: the starts, or
/// the ends, of one periodic window. Every periodic edge answer is one of
/// its steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Family {
    slide: i64,
    phase: i64,
}

impl Family {
    /// The family of `phase` taken modulo `slide`, so that windows whose
    /// edges coincide share one family.
    fn new(slide: i64, phase: i64) -> Self {
        Family { slide, phase: phase.rem_euclid(slide) }
    }

    /// The smallest position strictly after `ts`.
    #[inline]
    fn next_after(self, ts: Time) -> Time {
        ((ts - self.phase).div_euclid(self.slide) + 1) * self.slide + self.phase
    }

    /// The largest position at or before `ts`.
    #[inline]
    fn at_or_before(self, ts: Time) -> Time {
        (ts - self.phase).div_euclid(self.slide) * self.slide + self.phase
    }

    /// Is `e` a position?
    #[inline]
    fn holds(self, e: Time) -> bool {
        (e - self.phase).rem_euclid(self.slide) == 0
    }
}

/// How many steps of `slide` from `from` stay at or before `to`: 0 when
/// `from` lies beyond `to`.
#[inline]
fn steps_to(from: Time, to: Time, slide: Time) -> usize {
    if from > to {
        return 0;
    }
    cast::to_usize(to.abs_diff(from) / slide.unsigned_abs()).saturating_add(1)
}

/// Windows of one query that a sweep reports together: `len` windows,
/// the first `first`, each next one `slide` later. A periodic window's
/// due windows are one run; any other window is a run of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRun {
    pub first: Range,
    pub len: usize,
    pub slide: Time,
}

impl WindowRun {
    /// The run of the one window `w`.
    pub fn one(w: Range) -> Self {
        WindowRun { first: w, len: 1, slide: 0 }
    }

    /// Window `k` of the run.
    #[inline]
    pub(crate) fn window(&self, k: usize) -> Range {
        let shift = cast::to_i64(k) * self.slide;
        Range::new(self.first.start + shift, self.first.end + shift)
    }

    /// The windows, in order.
    pub fn windows(self) -> impl Iterator<Item = Range> {
        (0..self.len).map(move |k| self.window(k))
    }

    /// How many leading windows have an edge at or before `bound`, where
    /// that edge (a start or an end) lies at `edge` in the first window.
    #[inline]
    pub(crate) fn up_to(&self, edge: Time, bound: Time) -> usize {
        self.len.min(steps_to(edge, bound, self.slide.max(1)))
    }
}

/// Edge arithmetic for periodic windows
/// `[k·slide + offset, k·slide + offset + length)`, for every integer `k`.
///
/// `offset` shifts the window phase — e.g. hourly windows aligned to a
/// timezone, or daily windows starting at 09:00. The periodic window types
/// of `gss-windows` are thin wrappers over it, and a [`QuerySet`] answers
/// every window that reports one ([`WindowFunction::periodic`]) with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicEdges {
    pub length: i64,
    pub slide: i64,
    pub offset: i64,
}

impl PeriodicEdges {
    pub fn new(length: i64, slide: i64) -> Self {
        Self::with_offset(length, slide, 0)
    }

    pub fn with_offset(length: i64, slide: i64, offset: i64) -> Self {
        assert!(length > 0, "window length must be positive");
        assert!(slide > 0, "window slide must be positive");
        PeriodicEdges { length, slide, offset: offset.rem_euclid(slide) }
    }

    /// The window starts.
    #[inline]
    fn starts(&self) -> Family {
        Family { slide: self.slide, phase: self.offset }
    }

    /// The window ends.
    #[inline]
    fn ends(&self) -> Family {
        Family { slide: self.slide, phase: self.offset + self.length }
    }

    /// Smallest window start strictly after `ts`.
    #[inline]
    pub fn next_start(&self, ts: Time) -> Time {
        self.starts().next_after(ts)
    }

    /// Smallest window end strictly after `ts`.
    #[inline]
    pub fn next_end(&self, ts: Time) -> Time {
        self.ends().next_after(ts)
    }

    /// Smallest window edge (start or end) strictly after `ts`.
    #[inline]
    pub fn next_edge(&self, ts: Time) -> Time {
        self.next_start(ts).min(self.next_end(ts))
    }

    /// Largest window edge (start or end) at or before `ts`.
    #[inline]
    pub fn prev_edge(&self, ts: Time) -> Time {
        self.starts().at_or_before(ts).max(self.ends().at_or_before(ts))
    }

    /// Is there a window start or end exactly at `e`?
    #[inline]
    pub fn edge_at(&self, e: Time) -> bool {
        self.starts().holds(e) || self.ends().holds(e)
    }

    /// All windows whose end lies in `(prev, cur]`, by end.
    #[inline]
    pub fn ends_in(&self, prev: Time, cur: Time, out: impl FnMut(Range)) {
        self.ending_in(prev, cur).windows().for_each(out);
    }

    /// All windows containing position `ts`, by start.
    #[inline]
    pub fn containing(&self, ts: Time, out: impl FnMut(Range)) {
        self.containing_run(ts).windows().for_each(out);
    }

    /// The windows whose end lies in `(prev, cur]`, as one run.
    #[inline]
    fn ending_in(&self, prev: Time, cur: Time) -> WindowRun {
        let end = self.next_end(prev);
        let first = Range::new(end - self.length, end);
        WindowRun { first, len: steps_to(end, cur, self.slide), slide: self.slide }
    }

    /// The windows containing position `ts`, as one run.
    #[inline]
    fn containing_run(&self, ts: Time) -> WindowRun {
        let start = self.next_start(ts - self.length);
        let first = Range::new(start, start + self.length);
        WindowRun { first, len: steps_to(start, ts, self.slide), slide: self.slide }
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

    /// The window's edges, if it is periodic: context free, with windows
    /// exactly those of the returned [`PeriodicEdges`] in its measure. A
    /// [`QuerySet`] then answers its edges, ends and windows by arithmetic
    /// over the edge families its periodic windows share, without asking
    /// the window; the window's own answers must agree with the
    /// arithmetic. Read once, when the query is made.
    fn periodic(&self) -> Option<PeriodicEdges> {
        None
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

/// A registered query: a window function plus its identifier, and the
/// facts the set reads of the window once, when the query is made.
pub struct Query {
    pub id: QueryId,
    pub window: Box<dyn WindowFunction>,
    measure: Measure,
    context: ContextClass,
    is_session: bool,
    max_extent: i64,
    periodic: Option<PeriodicEdges>,
}

impl Query {
    pub fn new(id: QueryId, window: Box<dyn WindowFunction>) -> Self {
        let (context, periodic) = (window.context(), window.periodic());
        debug_assert!(periodic.is_none() || context == ContextClass::ContextFree);
        Query {
            id,
            measure: window.measure(),
            context,
            is_session: window.is_session(),
            max_extent: window.max_extent(),
            periodic,
            window,
        }
    }

    /// The window's measure, asked of it once, when the query is made.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// `out` for the windows whose end lies in `(prev, cur]`: one run if
    /// the window is periodic (none if it is empty), else a run per window.
    #[inline]
    fn ends_in(&mut self, prev: Time, cur: Time, mut out: impl FnMut(WindowRun)) {
        match self.periodic {
            Some(p) => {
                let run = p.ending_in(prev, cur);
                if run.len > 0 {
                    out(run);
                }
            }
            None => self.window.trigger_windows(prev, cur, &mut |w| out(WindowRun::one(w))),
        }
    }

    /// `out` for the windows containing `ts` that end at or before `wm`,
    /// as `ends_in` reports them.
    #[inline]
    fn containing(&self, ts: Time, wm: Time, mut out: impl FnMut(WindowRun)) {
        let mut due = |run: WindowRun| {
            let run = WindowRun { len: run.up_to(run.first.end, wm), ..run };
            if run.len > 0 {
                out(run);
            }
        };
        match self.periodic {
            Some(p) => due(p.containing_run(ts)),
            None => self.window.windows_containing(ts, &mut |w| due(WindowRun::one(w))),
        }
    }
}

impl Clone for Query {
    fn clone(&self) -> Self {
        Query { window: self.window.clone_box(), ..*self }
    }
}

/// The registered queries of one technique, in registration order (ids
/// are never reused), the facts derived from them, and the upper bounds
/// of the last trigger sweep. Each added query appends its facts; a
/// removal derives them anew.
#[derive(Clone)]
pub struct QuerySet {
    queries: Vec<Query>,
    /// The index columns and edge families, in one allocation.
    derived: Box<Derived>,
    /// Per measure (time, count): the longest extent, and whether any
    /// query uses it.
    max_extent: [i64; 2],
    has: [bool; 2],
    last_trigger: (Time, Count),
    next_id: QueryId,
    pub(crate) has_fca: bool,
    pub(crate) has_context_aware_non_session: bool,
}

/// What a [`QuerySet`] walks instead of its queries. The periodic windows
/// of a measure share few edge families — 50 sliding windows with one
/// slide share one — so an edge or an end costs one step per family; only
/// the other windows are asked through the vtable.
#[derive(Clone, Default)]
struct Derived {
    /// Indices into `queries` of the context-aware windows.
    context_aware: Vec<u32>,
    /// Indices into `queries` of the windows that are not periodic.
    walked: Vec<u32>,
    /// Per measure (time, count), the distinct families of the periodic
    /// windows: their starts; their starts and ends; their ends.
    starts: [Vec<Family>; 2],
    edges: [Vec<Family>; 2],
    ends: [Vec<Family>; 2],
}

impl Default for QuerySet {
    fn default() -> Self {
        QuerySet {
            queries: Vec::new(),
            derived: Box::default(),
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

/// Appends `f` to `families` unless it is there.
fn insert(families: &mut Vec<Family>, f: Family) {
    if !families.contains(&f) {
        families.push(f);
    }
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
        let query = Query::new(self.next_id, window);
        self.note(&query, self.queries.len());
        self.queries.push(query);
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

    /// Derives every fact anew from the queries' own.
    fn derive(&mut self) {
        let queries = std::mem::take(&mut self.queries);
        let (last_trigger, next_id) = (self.last_trigger, self.next_id);
        *self = QuerySet { last_trigger, next_id, ..QuerySet::default() };
        queries.iter().enumerate().for_each(|(i, q)| self.note(q, i));
        self.queries = queries;
    }

    /// Adds the facts of `q`, the query at index `i`.
    fn note(&mut self, q: &Query, i: usize) {
        let s = slot(q.measure);
        (self.has[s], self.max_extent[s]) = (true, self.max_extent[s].max(q.max_extent));
        let aware = q.context.is_context_aware();
        self.has_fca |= q.context == ContextClass::ForwardContextAware;
        self.has_context_aware_non_session |= aware && !q.is_session;
        let d = &mut *self.derived;
        if aware {
            d.context_aware.push(cast::slot32(i));
        }
        let Some(p) = q.periodic else {
            d.walked.push(cast::slot32(i));
            return;
        };
        let (start, end) =
            (Family::new(p.slide, p.offset), Family::new(p.slide, p.offset + p.length));
        insert(&mut d.starts[s], start);
        insert(&mut d.edges[s], start);
        insert(&mut d.edges[s], end);
        insert(&mut d.ends[s], end);
    }

    /// The queries in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, Query> {
        self.queries.iter()
    }

    /// The non-periodic queries of measure `m`.
    fn walked(&self, m: Measure) -> impl Iterator<Item = &Query> {
        let walked = self.derived.walked.iter().map(|&i| &self.queries[cast::idx32(i)]);
        walked.filter(move |q| q.measure == m)
    }

    /// Some query uses measure `m`.
    pub fn has(&self, m: Measure) -> bool {
        self.has[slot(m)]
    }

    /// Some window is context aware.
    pub(crate) fn has_context_aware(&self) -> bool {
        !self.derived.context_aware.is_empty()
    }

    /// The longest extent among the queries of measure `m` (0 if none).
    pub fn max_extent(&self, m: Measure) -> i64 {
        self.max_extent[slot(m)]
    }

    /// Context-aware windows observe a tuple; `edges` collects their changes.
    pub fn notify(&mut self, ts: Time, edges: &mut ContextEdges) {
        edges.clear();
        for &i in self.derived.context_aware.iter() {
            self.queries[cast::idx32(i)].window.notify_context(ts, edges);
        }
    }

    /// Every non-periodic window observes a punctuation; `edges` collects
    /// their changes.
    pub(crate) fn punctuate(&mut self, ts: Time, edges: &mut ContextEdges) {
        edges.clear();
        for &i in self.derived.walked.iter() {
            self.queries[cast::idx32(i)].window.on_punctuation(ts, edges);
        }
    }

    /// Does a time-measure query define a window edge exactly at `e`?
    pub(crate) fn requires_edge_at(&self, e: Time) -> bool {
        self.derived.edges[0].iter().any(|f| f.holds(e))
            || self.walked(Measure::Time).any(|q| q.window.requires_edge_at(e))
    }

    /// The earliest edge of a measure-`m` query strictly after `ts`:
    /// window starts only if `starts_only`, starts and ends otherwise.
    #[inline]
    pub fn next_edge(&self, m: Measure, ts: Time, starts_only: bool) -> Option<Time> {
        let d = &*self.derived;
        let families = if starts_only { &d.starts[slot(m)] } else { &d.edges[slot(m)] };
        let periodic = families.iter().map(|f| f.next_after(ts)).min();
        let edge = |w: &dyn WindowFunction| {
            if starts_only {
                w.next_start_edge(ts)
            } else {
                w.next_edge(ts)
            }
        };
        let walked = self.walked(m).filter_map(|q| edge(&*q.window));
        let next = walked.fold(periodic, |min, e| Some(min.map_or(e, |x| x.min(e))));
        debug_assert!(next.is_none_or(|e| e > ts), "next edge must be strictly after ts");
        next
    }

    /// The latest time edge at or before `ts` known without context.
    pub fn prev_edge(&self, ts: Time) -> Option<Time> {
        let periodic = self.derived.edges[0].iter().map(|f| f.at_or_before(ts));
        let walked = self.walked(Measure::Time).filter_map(|q| q.window.prev_edge(ts));
        let prev = periodic.chain(walked).max();
        debug_assert!(prev.is_none_or(|e| e <= ts), "prev edge must be at or before ts");
        prev
    }

    /// The earliest end after `probe` among the measure-`m` windows that
    /// know theirs, and whether one does not.
    fn end_after(&self, m: Measure, probe: Time) -> (Option<Time>, bool) {
        let periodic = self.derived.ends[slot(m)].iter().map(|f| f.next_after(probe)).min();
        let ends = self.walked(m).map(|q| q.window.next_window_end(probe));
        ends.fold((periodic, false), |(min, unknown), e| match e {
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
        let always = self.has_context_aware() || time_unknown || count_unknown;
        (time, count.map(|c| c as Count), always)
    }

    /// The time up to which the trigger sweeps have fired windows
    /// (`TIME_MIN` before the first).
    #[inline]
    pub fn fired_to(&self) -> Time {
        self.last_trigger.0
    }

    /// The data clamp: a time window ending after `data_pos` plus the
    /// longest extent holds no data up to `data_pos`.
    #[inline]
    pub(crate) fn clamp(&self, wm: Time, data_pos: Time) -> Time {
        wm.min(data_pos.saturating_add(self.max_extent(Measure::Time)).saturating_add(1))
    }

    /// The time span `(from, to]` of the next trigger sweep: up to `wm`
    /// clamped at `data_pos`, from where the last sweep ended or, for the
    /// first, from the first data position `first_pos`. `None` without
    /// data.
    fn time_span(&self, wm: Time, data_pos: Time, first_pos: Option<Time>) -> Option<(Time, Time)> {
        if data_pos == TIME_MIN {
            return None;
        }
        let wm = self.clamp(wm, data_pos);
        let from = match self.last_trigger.0 {
            TIME_MIN => first_pos.map_or(wm, |s| s.min(wm)),
            time => time,
        };
        Some((from, wm))
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
        f: impl FnMut(QueryId, Measure, WindowRun),
    ) -> bool {
        let Some((from, wm)) = self.time_span(wm, data_pos, first_pos) else { return false };
        let count = self.last_trigger.1;
        self.fire((from, wm), (count as Time, count_wm as Time), f);
        self.last_trigger = (from.max(wm), count.max(count_wm));
        true
    }

    /// `f(query, measure, run)`, in query order, for the time windows
    /// ending in `(time.0, time.1]` and the count windows ending in
    /// `(count.0, count.1]`: a periodic query's as one run, by end.
    pub(crate) fn fire(
        &mut self,
        time: (Time, Time),
        count: (Time, Time),
        mut f: impl FnMut(QueryId, Measure, WindowRun),
    ) {
        for q in &mut self.queries {
            let (id, m) = (q.id, q.measure);
            let (from, to) = if m == Measure::Time { time } else { count };
            q.ends_in(from, to, |r| f(id, m, r));
        }
    }

    /// The late-update rule: `f(query, measure, run)`, in query order,
    /// for the fired windows a late tuple at `ts` changes under watermark
    /// `wm`: the time windows containing `ts` that end by `wm`, and with
    /// `counts` = (the tuple's count position, the count watermark) every
    /// count window in between, since the tuple shifts later positions.
    /// A periodic query's windows come as one run, by start.
    pub fn updates(
        &mut self,
        ts: Time,
        wm: Time,
        counts: Option<(Count, Count)>,
        mut f: impl FnMut(QueryId, Measure, WindowRun),
    ) {
        for q in &mut self.queries {
            let (id, m) = (q.id, q.measure);
            match (m, counts) {
                (Measure::Time, _) => q.containing(ts, wm, |r| f(id, m, r)),
                (Measure::Count, Some((pos, count_wm))) => {
                    q.ends_in(pos as Time, count_wm as Time, |r| f(id, m, r));
                }
                (Measure::Count, None) => {}
            }
        }
    }

    /// The eviction horizon: no window a tuple can still join or update
    /// starts before `wm - lateness -` the longest time extent, nor before
    /// a window's earliest pending start (a periodic window has none).
    pub fn horizon(&self, wm: Time, lateness: Time) -> Time {
        let h = wm.saturating_sub(lateness).saturating_sub(self.max_extent(Measure::Time));
        let walked = self.derived.walked.iter().map(|&i| &self.queries[cast::idx32(i)]);
        walked.filter_map(|q| q.window.earliest_pending_start()).fold(h, Time::min)
    }
}

/// How a technique takes a tuple ([`admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// At or above the ahead bound: the tuple joins the open slice.
    InOrder,
    /// Behind the ahead bound, within the lateness; `revises` the emitted
    /// windows when at or below the watermark.
    Late { revises: bool },
    /// Behind the ahead bound on an in-order stream, or beyond the
    /// lateness: aggregated nowhere (the operators count `dropped_late`).
    Drop,
}

impl Admit {
    /// Whether an admitted tuple revises emitted windows; `None` if dropped.
    #[inline]
    pub fn revises(self) -> Option<bool> {
        match self {
            Admit::InOrder => Some(false),
            Admit::Late { revises } => Some(revises),
            Admit::Drop => None,
        }
    }
}

/// The admission rule (DESIGN.md, "The admission rule"), which every
/// technique asks. `ahead` is the largest of the latest time seen, what
/// the sweeps have fired and where slices have been cut; `lateness`
/// counts on out-of-order streams only.
#[inline]
pub fn admit(order: StreamOrder, ts: Time, ahead: Time, wm: Time, lateness: Time) -> Admit {
    if ts >= ahead {
        Admit::InOrder
    } else if order.is_in_order() || beyond_lateness(ts, wm, lateness) {
        Admit::Drop
    } else {
        Admit::Late { revises: wm != TIME_MIN && ts <= wm }
    }
}

/// Whether `ts` lies below `wm - lateness` (saturating; never before the
/// first watermark): too late for any window to take it.
#[inline]
pub fn beyond_lateness(ts: Time, wm: Time, lateness: Time) -> bool {
    wm != TIME_MIN && ts < wm.saturating_sub(lateness)
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
        let mut push = |id, _, run: WindowRun| got.extend(run.windows().map(|r| (id, r)));
        assert!(!qs.trigger(20, 0, TIME_MIN, None, &mut push));
        assert!(qs.trigger(20, 0, 20, Some(0), &mut push));
        // Tumbling 10: [0,10), [10,20). Tumbling 5: [0,5)..[15,20).
        assert_eq!(got.iter().filter(|(id, _)| *id == 0).count(), 2);
        assert_eq!(got.iter().filter(|(id, _)| *id == 1).count(), 4);
        got.clear();
        qs.trigger(25, 0, 25, Some(0), |id, _, run| got.extend(run.windows().map(|r| (id, r))));
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
    fn a_sweep_reaches_one_past_the_data_plus_the_longest_extent() {
        // Data up to 9, tumbling 10: the clamp is 9 + 10 + 1 = 20, so a
        // sweep to 25 fires [0, 10) and [10, 20); the next one, with data
        // up to 29, goes on from 20 to 40.
        let mut qs = QuerySet::default();
        qs.add(tumbling(10));
        assert_eq!(qs.clamp(25, 9), 20);
        let mut got = Vec::new();
        assert!(qs.trigger(25, 0, 9, Some(0), |_, _, run| got.extend(run.windows())));
        assert_eq!(got, [Range::new(0, 10), Range::new(10, 20)]);
        got.clear();
        qs.trigger(45, 0, 29, Some(0), |_, _, run| got.extend(run.windows()));
        assert_eq!(got, [Range::new(20, 30), Range::new(30, 40)]);
    }

    /// The raw edges of a periodic window: the offset is kept as given,
    /// negative or beyond the slide.
    fn raw(length: i64, slide: i64, offset: i64) -> PeriodicEdges {
        PeriodicEdges { length, slide, offset }
    }

    /// A periodic window answered by search, not arithmetic: every trait
    /// method scans positions one by one. With `walked` it reports no
    /// `periodic`, so a set asks it through the trait.
    #[derive(Clone)]
    struct Searched {
        measure: Measure,
        edges: PeriodicEdges,
        walked: bool,
    }

    impl Searched {
        fn is_start(&self, p: Time) -> bool {
            (p - self.edges.offset).rem_euclid(self.edges.slide) == 0
        }
        fn is_end(&self, p: Time) -> bool {
            self.is_start(p - self.edges.length)
        }
        fn is_edge(&self, p: Time) -> bool {
            self.is_start(p) || self.is_end(p)
        }
        fn first_after(ts: Time, is: impl Fn(Time) -> bool) -> Option<Time> {
            (ts + 1..).find(|&p| is(p))
        }
    }

    impl WindowFunction for Searched {
        fn measure(&self) -> Measure {
            self.measure
        }
        fn context(&self) -> ContextClass {
            ContextClass::ContextFree
        }
        fn periodic(&self) -> Option<PeriodicEdges> {
            (!self.walked).then_some(self.edges)
        }
        fn next_edge(&self, ts: Time) -> Option<Time> {
            Self::first_after(ts, |p| self.is_edge(p))
        }
        fn next_start_edge(&self, ts: Time) -> Option<Time> {
            Self::first_after(ts, |p| self.is_start(p))
        }
        fn next_window_end(&self, ts: Time) -> Option<Time> {
            Self::first_after(ts, |p| self.is_end(p))
        }
        fn prev_edge(&self, ts: Time) -> Option<Time> {
            (ts - self.edges.slide..=ts).rev().find(|&p| self.is_edge(p))
        }
        fn requires_edge_at(&self, e: Time) -> bool {
            self.is_edge(e)
        }
        fn trigger_windows(&mut self, prev: Time, cur: Time, out: &mut dyn FnMut(Range)) {
            let ends = (prev + 1..=cur).filter(|&e| self.is_end(e));
            ends.for_each(|e| out(Range::new(e - self.edges.length, e)));
        }
        fn windows_containing(&self, ts: Time, out: &mut dyn FnMut(Range)) {
            let starts = (ts - self.edges.length + 1..=ts).filter(|&s| self.is_start(s));
            starts.for_each(|s| out(Range::new(s, s + self.edges.length)));
        }
        fn max_extent(&self) -> i64 {
            self.edges.length
        }
        fn clone_box(&self) -> Box<dyn WindowFunction> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn periodic_windows_whose_edges_coincide_share_a_family() {
        let mut qs = QuerySet::default();
        // `query_heavy`'s 50 sliding windows: one family of starts and ends.
        for q in 1..=50 {
            qs.add(Box::new(SlidingStub { length: q * 1200, slide: 100 }));
        }
        // Offsets 7, -93 and 207 are one phase; with length 13 their ends
        // fall on the starts of phase 20.
        for offset in [7, -93, 207] {
            let edges = raw(13, 100, offset);
            qs.add(Box::new(Searched { measure: Measure::Time, edges, walked: false }));
        }
        let d = &qs.derived;
        assert_eq!(d.starts[0], [Family { slide: 100, phase: 0 }, Family { slide: 100, phase: 7 }]);
        assert_eq!(d.edges[0].len(), 3);
        assert_eq!(d.ends[0], [Family { slide: 100, phase: 0 }, Family::new(100, 20)]);
        assert!(d.walked.is_empty() && d.starts[1].is_empty());
        // Each query's due windows come as one run.
        let mut runs = Vec::new();
        assert!(qs.trigger(1_000, 0, 1_000, Some(0), |id, _, run| runs.push((id, run))));
        assert_eq!(runs.len(), 53);
        assert!(runs.iter().all(|(_, run)| run.len == 10 && run.slide == 100));
        assert_eq!(runs[0].1.first, Range::new(-1_100, 100));
    }

    #[test]
    fn a_periodic_query_reports_its_windows_as_one_run() {
        let mut qs = QuerySet::default();
        qs.add(Box::new(SlidingStub { length: 30, slide: 10 }));
        let mut runs = Vec::new();
        qs.fire((0, 45), (0, 0), |_, _, run| runs.push(run));
        assert_eq!(runs, [WindowRun { first: Range::new(-20, 10), len: 4, slide: 10 }]);
        let windows: Vec<Range> = runs[0].windows().collect();
        assert_eq!(windows[3], Range::new(10, 40));
        // The windows containing 25 are [0, 30), [10, 40), [20, 50); by
        // watermark 40 only the first two have fired.
        runs.clear();
        qs.updates(25, 40, None, |_, _, run| runs.push(run));
        assert_eq!(runs, [WindowRun { first: Range::new(0, 30), len: 2, slide: 10 }]);
        runs.clear();
        qs.updates(25, 29, None, |_, _, run| runs.push(run));
        assert!(runs.is_empty());
    }

    /// A set's periodic answers against a walk over its windows' own trait
    /// methods, which search instead of computing.
    struct Reference(Vec<Searched>);

    impl Reference {
        fn of(&self, m: Measure) -> impl Iterator<Item = &Searched> {
            self.0.iter().filter(move |w| w.measure == m)
        }

        fn fire(&mut self, time: (Time, Time), count: (Time, Time)) -> Vec<(usize, Range)> {
            let mut got = Vec::new();
            for (i, w) in self.0.iter_mut().enumerate() {
                let (from, to) = if w.measure == Measure::Time { time } else { count };
                w.trigger_windows(from, to, &mut |r| got.push((i, r)));
            }
            got
        }

        fn updates(&self, ts: Time, wm: Time, counts: (Count, Count)) -> Vec<(usize, Range)> {
            let mut got = Vec::new();
            for (i, w) in self.0.iter().enumerate() {
                match w.measure {
                    Measure::Time => w.windows_containing(ts, &mut |r| {
                        if r.end <= wm {
                            got.push((i, r));
                        }
                    }),
                    Measure::Count => {
                        w.clone().trigger_windows(counts.0 as Time, counts.1 as Time, &mut |r| {
                            got.push((i, r))
                        })
                    }
                }
            }
            got
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Every answer of a set of periodic windows — time and count,
        /// offsets negative, zero and beyond the slide, slides that do not
        /// divide the length, duplicates, and now and then a window the
        /// set walks — equals the walk over the windows' trait methods.
        #[test]
        fn periodic_answers_match_the_walk_over_the_windows(
            windows in proptest::collection::vec(
                (0u8..3, 1i64..30, 1i64..20, -60i64..60, 0u8..6),
                1..8,
            ),
            duplicates in 0usize..3,
            probes in proptest::collection::vec((-150i64..150, 0i64..60), 12),
        ) {
            let mut windows: Vec<Searched> = windows
                .iter()
                .map(|&(m, length, slide, offset, walked)| Searched {
                    measure: if m == 0 { Measure::Count } else { Measure::Time },
                    edges: raw(length, slide, offset),
                    walked: walked == 0,
                })
                .collect();
            // A duplicate written with its offset 0 or 2 slides away.
            for i in 0..duplicates {
                let mut twin = windows[i % windows.len()].clone();
                twin.edges.offset += (i as i64 - 1) * 2 * twin.edges.slide;
                windows.push(twin);
            }
            let mut qs = QuerySet::default();
            windows.iter().for_each(|w| {
                qs.add(w.clone_box());
            });
            let mut reference = Reference(windows);
            for m in [Measure::Time, Measure::Count] {
                let distinct = |families: &[Family]| families.len();
                let mut phases: Vec<(i64, i64)> = reference
                    .of(m)
                    .filter(|w| !w.walked)
                    .map(|w| (w.edges.slide, w.edges.offset.rem_euclid(w.edges.slide)))
                    .collect();
                phases.sort_unstable();
                phases.dedup();
                proptest::prop_assert_eq!(distinct(&qs.derived.starts[slot(m)]), phases.len());
            }
            let id = |q: QueryId| cast::idx32(q);
            for &(ts, width) in &probes {
                for m in [Measure::Time, Measure::Count] {
                    let starts = reference.of(m).filter_map(|w| w.next_start_edge(ts)).min();
                    let edges = reference.of(m).filter_map(|w| w.next_edge(ts)).min();
                    let ends = reference.of(m).filter_map(|w| w.next_window_end(ts)).min();
                    proptest::prop_assert_eq!(qs.next_edge(m, ts, true), starts);
                    proptest::prop_assert_eq!(qs.next_edge(m, ts, false), edges);
                    proptest::prop_assert_eq!(qs.end_after(m, ts), (ends, false));
                }
                let time = || reference.of(Measure::Time);
                let prev = time().filter_map(|w| w.prev_edge(ts)).max();
                let end = time().filter_map(|w| w.next_window_end(ts)).min();
                proptest::prop_assert_eq!(qs.prev_edge(ts), prev);
                proptest::prop_assert_eq!(qs.next_window_end(ts), end.unwrap_or(TIME_MAX));
                proptest::prop_assert_eq!(qs.requires_edge_at(ts), time().any(|w| w.is_edge(ts)));

                let (time, count) = ((ts, ts + width), (ts.max(0), ts.max(0) + width / 2));
                // Runs are never empty, a walked window's hold one window,
                // and a periodic window reports at most one run a sweep.
                let mut runs: Vec<(usize, WindowRun)> = Vec::new();
                let walked: Vec<bool> = reference.0.iter().map(|w| w.walked).collect();
                let well_formed = |runs: &[(usize, WindowRun)]| {
                    runs.iter().all(|&(i, run)| {
                        let alone = runs.iter().filter(|(j, _)| *j == i).count() == 1;
                        run.len > 0 && if walked[i] { run.len == 1 } else { alone }
                    })
                };
                qs.fire(time, count, |q, _, run| runs.push((id(q), run)));
                proptest::prop_assert!(well_formed(&runs));
                let expand = |runs: &[(usize, WindowRun)]| -> Vec<(usize, Range)> {
                    runs.iter().flat_map(|&(i, run)| run.windows().map(move |r| (i, r))).collect()
                };
                proptest::prop_assert_eq!(expand(&runs), reference.fire(time, count));

                let wm = ts + width;
                let counts = (count.0 as Count, count.1 as Count);
                runs.clear();
                qs.updates(ts, wm, Some(counts), |q, _, run| runs.push((id(q), run)));
                proptest::prop_assert!(well_formed(&runs));
                proptest::prop_assert_eq!(expand(&runs), reference.updates(ts, wm, counts));
            }
        }
    }

    /// The admission rule as one table: each class on both stream orders,
    /// its boundaries (`ts` at the ahead bound, at `wm`, at
    /// `wm - lateness`) and its extremes, where nothing may overflow.
    #[test]
    fn admit_classifies_every_tuple_by_one_table() {
        use Admit::{Drop, InOrder};
        let (io, ooo) = (StreamOrder::InOrder, StreamOrder::OutOfOrder);
        let (kept, revises) = (Admit::Late { revises: false }, Admit::Late { revises: true });
        let max = i64::MAX;
        // (order, ts, ahead, wm, lateness, class)
        let table = [
            (io, 50, 50, 40, 10, InOrder),
            (ooo, 50, 50, 40, 10, InOrder),
            (io, 51, 50, TIME_MIN, 0, InOrder),
            (ooo, TIME_MIN, TIME_MIN, TIME_MIN, 0, InOrder),
            (io, TIME_MAX, TIME_MAX, TIME_MAX - 1, max, InOrder),
            // Behind the ahead bound on an in-order stream: whatever the
            // watermark and lateness.
            (io, 49, 50, TIME_MIN, max, Drop),
            (io, 45, 50, 40, 100, Drop),
            (io, TIME_MIN, TIME_MAX, TIME_MIN, 0, Drop),
            // Out of order: late above the watermark, revising at or below.
            (ooo, 49, 50, 40, 10, kept),
            (ooo, 41, 50, 40, 10, kept),
            (ooo, 40, 50, 40, 10, revises),
            (ooo, 30, 50, 40, 10, revises),
            (ooo, 29, 50, 40, 10, Drop),
            (ooo, 40, 50, 40, 0, revises),
            (ooo, 39, 50, 40, 0, Drop),
            // Before the first watermark nothing is dropped or revised.
            (ooo, -1_000, 50, TIME_MIN, 0, kept),
            (ooo, TIME_MIN, 50, TIME_MIN, 0, kept),
            // Unbounded lateness saturates instead of wrapping.
            (ooo, -100, 0, -60, max, revises),
            (ooo, TIME_MIN, 50, 40, max, Drop),
            (ooo, TIME_MIN + 41, 50, 40, max, revises),
            (ooo, TIME_MAX - 1, TIME_MAX, TIME_MAX, max, revises),
            (ooo, TIME_MIN, TIME_MAX, TIME_MAX, max, Drop),
            (ooo, TIME_MIN, TIME_MAX, TIME_MIN, max, kept),
        ];
        for (order, ts, ahead, wm, lateness, class) in table {
            assert_eq!(
                admit(order, ts, ahead, wm, lateness),
                class,
                "{order:?} ts {ts} ahead {ahead} wm {wm} lateness {lateness}"
            );
        }
        assert_eq!((io.lateness(100), ooo.lateness(100)), (0, 100));
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
