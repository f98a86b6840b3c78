//! Session windows (paper Sections 2, 4.4, 5.1).
//!
//! A session covers a period of activity followed by a period of
//! inactivity: it times out when no tuple arrives for `gap` units. Sessions
//! are context aware — out-of-order tuples can extend sessions backwards or
//! bridge two sessions into one — but they are the special case of Figure 4
//! that never requires recomputing aggregates: every split they cause lands
//! in a tuple-free region, and every merge is a plain ⊕.

use gss_core::{ContextClass, ContextEdges, Measure, Range, Time, WindowFunction};

/// One tracked session: tuples in `[start, last]`, window `[start,
/// last + gap)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Session {
    start: Time,
    last: Time,
}

/// Time-measure session window with inactivity gap `gap`.
///
/// Two tuples belong to the same session iff their timestamps differ by
/// less than `gap` (transitively). The session's window is
/// `[first, last + gap)`.
#[derive(Debug, Clone)]
pub struct SessionWindow {
    gap: i64,
    /// Sessions ordered by start; non-overlapping with at least `gap`
    /// between one session's end and the next session's start.
    sessions: Vec<Session>,
    /// Everything at or before this has been reported by `trigger_windows`.
    triggered_up_to: Time,
    /// Sessions whose window closed before `max_seen - retention` are
    /// dropped. Must exceed the allowed lateness of the stream for late
    /// tuples to keep updating old sessions.
    retention: i64,
    max_seen: Time,
}

impl SessionWindow {
    /// Creates a session window. `retention` defaults to `16 * gap`.
    pub fn new(gap: i64) -> Self {
        assert!(gap > 0, "session gap must be positive");
        SessionWindow {
            gap,
            sessions: Vec::new(),
            triggered_up_to: gss_core::TIME_MIN,
            retention: gap.saturating_mul(16),
            max_seen: gss_core::TIME_MIN,
        }
    }

    /// Sets how long closed sessions stay available for late updates.
    pub fn with_retention(mut self, retention: i64) -> Self {
        self.retention = retention.max(self.gap);
        self
    }

    pub fn gap(&self) -> i64 {
        self.gap
    }

    /// Number of currently tracked sessions (closed-but-retained included).
    #[cfg(test)]
    fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Drops sessions that can no longer be extended or updated.
    fn trim(&mut self) {
        if self.max_seen == gss_core::TIME_MIN {
            return;
        }
        let horizon = self.max_seen.saturating_sub(self.retention);
        let triggered = self.triggered_up_to;
        let gap = self.gap;
        self.sessions.retain(|s| s.last + gap > horizon || s.last + gap > triggered);
    }
}

impl WindowFunction for SessionWindow {
    fn measure(&self) -> Measure {
        Measure::Time
    }

    fn context(&self) -> ContextClass {
        ContextClass::ForwardContextAware
    }

    fn is_session(&self) -> bool {
        true
    }

    /// Sessions have no precomputable edges; all slicing is driven by
    /// `notify_context`.
    fn next_edge(&self, _ts: Time) -> Option<Time> {
        None
    }

    fn requires_edge_at(&self, e: Time) -> bool {
        self.sessions.binary_search_by(|s| s.start.cmp(&e)).is_ok()
    }

    fn notify_context(&mut self, ts: Time, edges: &mut ContextEdges) {
        self.max_seen = self.max_seen.max(ts);
        // First session with start > ts.
        let idx = self.sessions.partition_point(|s| s.start <= ts);
        let joins_left = idx > 0 && ts < self.sessions[idx - 1].last + self.gap;
        let joins_right = idx < self.sessions.len() && self.sessions[idx].start < ts + self.gap;
        match (joins_left, joins_right) {
            (true, true) => {
                // Bridges the two sessions: the right session's start edge
                // disappears (slice merge), the left session absorbs it.
                let right = self.sessions.remove(idx);
                let left = &mut self.sessions[idx - 1];
                left.last = left.last.max(ts).max(right.last);
                edges.remove_edge(right.start);
            }
            (true, false) => {
                // Inside or extending the left session; its start (the only
                // edge) is unchanged.
                let left = &mut self.sessions[idx - 1];
                left.last = left.last.max(ts);
            }
            (false, true) => {
                // Backwards-extends the right session: its start edge moves
                // from `old` to `ts`. The region in between is tuple-free,
                // so the split is free and the merge is a plain ⊕.
                let right = &mut self.sessions[idx];
                let old = right.start;
                right.start = ts;
                edges.add_edge(ts);
                edges.remove_edge(old);
            }
            (false, false) => {
                // A brand-new session.
                self.sessions.insert(idx, Session { start: ts, last: ts });
                edges.add_edge(ts);
            }
        }
        self.trim();
    }

    fn trigger_windows(&mut self, prev: Time, cur: Time, out: &mut dyn FnMut(Range)) {
        for s in &self.sessions {
            let end = s.last + self.gap;
            if end > prev && end <= cur {
                out(Range::new(s.start, end));
            }
        }
        self.triggered_up_to = self.triggered_up_to.max(cur);
    }

    fn windows_containing(&self, ts: Time, out: &mut dyn FnMut(Range)) {
        let idx = self.sessions.partition_point(|s| s.start <= ts);
        if idx > 0 {
            let s = &self.sessions[idx - 1];
            if ts < s.last + self.gap {
                out(Range::new(s.start, s.last + self.gap));
            }
        }
    }

    /// Eviction margin for lateness-based eviction.
    fn max_extent(&self) -> i64 {
        self.retention
    }

    /// Pin slices of sessions that have not been finally emitted yet.
    fn earliest_pending_start(&self) -> Option<Time> {
        self.sessions
            .iter()
            .filter(|s| s.last + self.gap > self.triggered_up_to)
            .map(|s| s.start)
            .min()
    }

    fn clone_box(&self) -> Box<dyn WindowFunction> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notify(w: &mut SessionWindow, ts: Time) -> (Vec<Time>, Vec<Time>) {
        let mut e = ContextEdges::new();
        w.notify_context(ts, &mut e);
        (e.added().to_vec(), e.removed().to_vec())
    }

    #[test]
    fn first_tuple_opens_session() {
        let mut w = SessionWindow::new(10);
        let (added, removed) = notify(&mut w, 100);
        assert_eq!(added, vec![100]);
        assert!(removed.is_empty());
        assert_eq!(w.session_count(), 1);
    }

    #[test]
    fn tuple_within_gap_extends_without_edges() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        let (added, removed) = notify(&mut w, 105);
        assert!(added.is_empty());
        assert!(removed.is_empty());
        let mut got = Vec::new();
        w.windows_containing(105, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(100, 115)]);
    }

    #[test]
    fn gap_elapsed_starts_new_session() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        let (added, _) = notify(&mut w, 115); // 115 >= 100 + 10 + 5
        assert_eq!(added, vec![115]);
        assert_eq!(w.session_count(), 2);
    }

    #[test]
    fn boundary_tuple_at_exact_gap_starts_new_session() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        // Window is [100, 110); a tuple at exactly 110 is outside.
        let (added, _) = notify(&mut w, 110);
        assert_eq!(added, vec![110]);
        assert_eq!(w.session_count(), 2);
    }

    #[test]
    fn ooo_tuple_bridges_sessions() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        notify(&mut w, 130);
        assert_eq!(w.session_count(), 2);
        // 107 is within gap of session 1's last (100) ... and 130 - 107 < ...
        // 107 + 10 = 117 < 130, so it does NOT bridge; extends session 1.
        notify(&mut w, 107);
        assert_eq!(w.session_count(), 2);
        // 122 is within gap of 130 (backwards) and of 107+10=117? No:
        // 122 >= 117, so it backwards-extends session 2 only.
        let (added, removed) = notify(&mut w, 122);
        assert_eq!(added, vec![122]);
        assert_eq!(removed, vec![130]);
        assert_eq!(w.session_count(), 2);
        // 113 bridges: 113 < 107 + 10 = 117 and 122 < 113 + 10 = 123.
        let (added, removed) = notify(&mut w, 113);
        assert!(added.is_empty());
        assert_eq!(removed, vec![122]);
        assert_eq!(w.session_count(), 1);
        let mut got = Vec::new();
        w.windows_containing(100, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(100, 140)]);
    }

    #[test]
    fn trigger_reports_closed_sessions_once_range_passes() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        notify(&mut w, 105);
        notify(&mut w, 200);
        let mut got = Vec::new();
        w.trigger_windows(100, 114, &mut |r| got.push(r));
        assert!(got.is_empty());
        w.trigger_windows(114, 116, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(100, 115)]);
        got.clear();
        // Already triggered; later sweeps skip it.
        w.trigger_windows(116, 300, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(200, 210)]);
    }

    #[test]
    fn requires_edge_at_tracks_session_starts() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        notify(&mut w, 130);
        assert!(w.requires_edge_at(100));
        assert!(w.requires_edge_at(130));
        assert!(!w.requires_edge_at(105));
        // After a backwards extension, the old start is no longer required —
        // this is what lets the operator merge the slices at the old edge.
        notify(&mut w, 121); // 121 + 10 > 130: backwards-extends session 2.
        assert!(!w.requires_edge_at(130));
        assert!(w.requires_edge_at(121));
    }

    #[test]
    fn earliest_pending_start_pins_open_sessions() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        notify(&mut w, 200);
        assert_eq!(w.earliest_pending_start(), Some(100));
        let mut sink = Vec::new();
        w.trigger_windows(0, 150, &mut |r| sink.push(r));
        // Session 1 (ends 110) is triggered; only session 2 pins now.
        assert_eq!(w.earliest_pending_start(), Some(200));
    }

    #[test]
    fn trim_drops_old_closed_sessions() {
        let mut w = SessionWindow::new(10).with_retention(50);
        notify(&mut w, 100);
        let mut sink = Vec::new();
        w.trigger_windows(0, 120, &mut |r| sink.push(r));
        // Far in the future: session 1 is beyond retention and triggered.
        notify(&mut w, 1000);
        assert_eq!(w.session_count(), 1);
    }

    #[test]
    fn interior_ooo_tuple_changes_nothing() {
        let mut w = SessionWindow::new(10);
        notify(&mut w, 100);
        notify(&mut w, 108);
        let (added, removed) = notify(&mut w, 104);
        assert!(added.is_empty() && removed.is_empty());
        assert_eq!(w.session_count(), 1);
    }
}
