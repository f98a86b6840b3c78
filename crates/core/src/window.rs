//! Window-type interfaces (paper Sections 4.4 and 5.4.2).
//!
//! Window types are classified by the *context* needed to know where windows
//! start and end (Li et al. \[31\]): context free (CF), forward context free
//! (FCF), and forward context aware (FCA). The slicing core is agnostic to
//! concrete window types; they plug in through [`WindowFunction`], mirroring
//! the paper's `getNextEdge` / `triggerWindows` / `notifyContext` interface.
//! Implementations live in the `gss-windows` crate.

use crate::time::{Measure, Range, Time};

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
    pub fn is_context_aware(self) -> bool {
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
}

impl Query {
    pub fn new(id: QueryId, window: Box<dyn WindowFunction>) -> Self {
        Query { id, window }
    }
}

impl Clone for Query {
    fn clone(&self) -> Self {
        Query { id: self.id, window: self.window.clone_box() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
