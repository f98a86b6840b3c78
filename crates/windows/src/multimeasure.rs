//! Multi-measure windows — the paper's forward-context-aware exemplar
//! (Section 4.4): *"output the last N tuples (count-measure) every S time
//! units (time-measure)"*. The window **end** is a time edge known a
//! priori; the window **start** is the timestamp of the N-th most recent
//! tuple, known only once all tuples up to the end have been processed —
//! forward context.

use gss_core::{ContextClass, ContextEdges, Measure, PeriodicEdges, Range, Time, WindowFunction};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resolved {
    start: Time,
    end: Time,
    reported: bool,
}

/// "Last `count` tuples, evaluated every `every` time units."
#[derive(Debug, Clone)]
pub struct MultiMeasureWindow {
    count: usize,
    /// The evaluation times, the multiples of `every`: the ends of a
    /// tumbling grid.
    every: PeriodicEdges,
    /// Timestamps of retained tuples, ascending.
    buffer: Vec<Time>,
    /// Windows whose end has been crossed; start already derived.
    resolved: Vec<Resolved>,
    /// Ends at or before this are resolved.
    resolved_up_to: Option<Time>,
    /// Retention horizon for reported windows (late-update support).
    retention: i64,
    max_seen: Time,
}

impl MultiMeasureWindow {
    pub fn new(count: usize, every: i64) -> Self {
        assert!(count > 0, "tuple count must be positive");
        assert!(every > 0, "evaluation period must be positive");
        MultiMeasureWindow {
            count,
            every: PeriodicEdges::new(every, every),
            buffer: Vec::new(),
            resolved: Vec::new(),
            resolved_up_to: None,
            retention: every.saturating_mul(16),
            max_seen: gss_core::TIME_MIN,
        }
    }

    /// Sets how long reported windows stay updatable by late tuples.
    pub fn with_retention(mut self, retention: i64) -> Self {
        self.retention = retention.max(self.every.slide);
        self
    }

    /// The derived start of the window ending at `end`: the timestamp of
    /// the `count`-th most recent tuple before `end` (or of the earliest
    /// tuple when fewer exist). `None` when no tuple precedes `end`.
    fn derive_start(&self, end: Time) -> Option<Time> {
        let n_before = self.buffer.partition_point(|&t| t < end);
        if n_before == 0 {
            return None;
        }
        Some(self.buffer[n_before.saturating_sub(self.count)])
    }

    /// Resolves every end edge in `(resolved_up_to, up_to]`.
    fn resolve_ends(&mut self, up_to: Time, edges: &mut ContextEdges) {
        let Some(mut at) = self.resolved_up_to else {
            return;
        };
        loop {
            let end = self.every.next_end(at);
            if end > up_to {
                break;
            }
            if let Some(start) = self.derive_start(end) {
                self.resolved.push(Resolved { start, end, reported: false });
                edges.add_edge(start);
            }
            at = end;
            self.resolved_up_to = Some(end);
        }
    }

    /// Re-derives starts of resolved windows whose content shifted because
    /// a tuple at `ts` arrived out of order.
    fn reresolve_after(&mut self, ts: Time, edges: &mut ContextEdges) {
        for i in 0..self.resolved.len() {
            let w = self.resolved[i];
            if w.end <= ts {
                continue;
            }
            let Some(new_start) = self.derive_start(w.end) else {
                continue;
            };
            if new_start != w.start {
                let old = w.start;
                self.resolved[i].start = new_start;
                edges.add_edge(new_start);
                // Remove the old edge only if no other retained window
                // still starts there.
                if !self.resolved.iter().any(|r| r.start == old) {
                    edges.remove_edge(old);
                }
            }
        }
    }

    fn trim(&mut self) {
        if self.max_seen == gss_core::TIME_MIN {
            return;
        }
        let horizon = self.max_seen.saturating_sub(self.retention);
        self.resolved.retain(|w| !w.reported || w.end > horizon);
        // Tuples needed: the last `count` (future windows) and everything
        // from the earliest retained window start on (re-resolution).
        let mut floor = self.buffer.get(self.buffer.len().saturating_sub(self.count)).copied();
        for w in &self.resolved {
            floor = Some(floor.map_or(w.start, |f: Time| f.min(w.start)));
        }
        if let Some(f) = floor {
            let cut = self.buffer.partition_point(|&t| t < f);
            self.buffer.drain(..cut);
        }
    }
}

impl WindowFunction for MultiMeasureWindow {
    fn measure(&self) -> Measure {
        Measure::Time
    }

    fn context(&self) -> ContextClass {
        ContextClass::ForwardContextAware
    }

    /// Ends are periodic time edges; starts only emerge from context, so
    /// they are *not* part of `next_edge`.
    fn next_edge(&self, ts: Time) -> Option<Time> {
        Some(self.every.next_end(ts))
    }

    /// Starts are unknown a priori: in-order slicing relies purely on
    /// context-driven splits (plus the trigger-before-insert rule for
    /// ends).
    fn next_start_edge(&self, _ts: Time) -> Option<Time> {
        None
    }

    fn requires_edge_at(&self, e: Time) -> bool {
        self.every.edge_at(e) || self.resolved.iter().any(|w| w.start == e)
    }

    fn notify_context(&mut self, ts: Time, edges: &mut ContextEdges) {
        if self.resolved_up_to.is_none() {
            // No window ends before the first tuple's period.
            self.resolved_up_to = Some(self.every.prev_edge(ts));
        }
        let in_order = ts >= self.max_seen;
        self.max_seen = self.max_seen.max(ts);
        let pos = self.buffer.partition_point(|&t| t <= ts);
        self.buffer.insert(pos, ts);
        if in_order {
            // Resolve every end the stream has now passed. The current
            // tuple itself lies after those ends, so it never belongs to
            // them.
            self.resolve_ends(ts, edges);
        } else {
            self.reresolve_after(ts, edges);
        }
        self.trim();
    }

    fn trigger_windows(&mut self, _prev: Time, cur: Time, out: &mut dyn FnMut(Range)) {
        for w in &mut self.resolved {
            if !w.reported && w.end <= cur {
                w.reported = true;
                out(Range::new(w.start, w.end));
            }
        }
    }

    fn windows_containing(&self, ts: Time, out: &mut dyn FnMut(Range)) {
        for w in &self.resolved {
            if w.start <= ts && ts < w.end {
                out(Range::new(w.start, w.end));
            }
        }
    }

    fn max_extent(&self) -> i64 {
        self.retention
    }

    fn earliest_pending_start(&self) -> Option<Time> {
        // The retained buffer's first tuple bounds every start we may still
        // derive or re-derive.
        self.buffer.first().copied()
    }

    fn clone_box(&self) -> Box<dyn WindowFunction> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notify(w: &mut MultiMeasureWindow, ts: Time) -> (Vec<Time>, Vec<Time>) {
        let mut e = ContextEdges::new();
        w.notify_context(ts, &mut e);
        (e.added().to_vec(), e.removed().to_vec())
    }

    fn triggered(w: &mut MultiMeasureWindow, cur: Time) -> Vec<Range> {
        let mut got = Vec::new();
        w.trigger_windows(0, cur, &mut |r| got.push(r));
        got
    }

    #[test]
    fn start_is_nth_most_recent_tuple() {
        // Last 3 tuples, every 10.
        let mut w = MultiMeasureWindow::new(3, 10);
        for ts in [1, 3, 5, 8] {
            notify(&mut w, ts);
        }
        // Crossing end 10: window should cover last 3 tuples: 3, 5, 8.
        let (added, _) = notify(&mut w, 12);
        assert_eq!(added, vec![3]);
        assert_eq!(triggered(&mut w, 12), vec![Range::new(3, 10)]);
    }

    #[test]
    fn fewer_tuples_than_count_start_at_first() {
        let mut w = MultiMeasureWindow::new(10, 10);
        notify(&mut w, 2);
        notify(&mut w, 7);
        let (added, _) = notify(&mut w, 11);
        assert_eq!(added, vec![2]);
        assert_eq!(triggered(&mut w, 11), vec![Range::new(2, 10)]);
    }

    #[test]
    fn empty_period_produces_no_window() {
        let mut w = MultiMeasureWindow::new(3, 10);
        notify(&mut w, 25);
        // Ends 30, 40 pass without any tuple before them except 25.
        let (added, _) = notify(&mut w, 45);
        // Both ends (30 and 40) derive the same start; the duplicate edge
        // request is harmless (splitting at an existing edge is a no-op).
        assert_eq!(added, vec![25, 25]);
        // Window ending 40 also covers tuple 25 (last 3 tuples before 40).
        assert_eq!(triggered(&mut w, 45), vec![Range::new(25, 30), Range::new(25, 40)]);
    }

    #[test]
    fn consecutive_windows_resolve_each_period() {
        let mut w = MultiMeasureWindow::new(2, 10);
        for ts in [1, 5, 12, 15, 23] {
            notify(&mut w, ts);
        }
        // Tuple 12 resolved end 10 -> start = buffer[..][n-2] among {1,5} = 1.
        // Tuple 23 resolved end 20 -> last 2 tuples before 20: {12, 15} -> 12.
        let wins = triggered(&mut w, 23);
        assert_eq!(wins, vec![Range::new(1, 10), Range::new(12, 20)]);
    }

    #[test]
    fn ooo_tuple_shifts_resolved_start() {
        let mut w = MultiMeasureWindow::new(2, 10);
        for ts in [1, 5, 12] {
            notify(&mut w, ts);
        }
        assert_eq!(triggered(&mut w, 12), vec![Range::new(1, 10)]);
        // An out-of-order tuple at 7 makes the last-2-before-10 set {5, 7}.
        let (added, removed) = notify(&mut w, 7);
        assert_eq!(added, vec![5]);
        assert_eq!(removed, vec![1]);
        let mut got = Vec::new();
        w.windows_containing(7, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(5, 10)]);
    }

    #[test]
    fn shared_start_edge_not_removed() {
        let mut w = MultiMeasureWindow::new(5, 10);
        for ts in [1, 2, 12, 22] {
            notify(&mut w, ts);
        }
        // Windows ending 10 and 20 both start at 1 (fewer than 5 tuples).
        let wins = triggered(&mut w, 22);
        assert_eq!(wins, vec![Range::new(1, 10), Range::new(1, 20)]);
        // An ooo tuple at 4 keeps window-10's start at 1 (still < 5 tuples
        // before 10) — no edge churn.
        let (added, removed) = notify(&mut w, 4);
        assert!(added.is_empty());
        assert!(removed.is_empty());
    }

    #[test]
    fn next_edge_is_periodic_ends_only() {
        let w = MultiMeasureWindow::new(3, 10);
        assert_eq!(w.next_edge(0), Some(10));
        assert_eq!(w.next_edge(10), Some(20));
        assert_eq!(w.next_start_edge(0), None);
        assert!(w.requires_edge_at(20));
    }

    #[test]
    fn trim_respects_retention() {
        let mut w = MultiMeasureWindow::new(2, 10).with_retention(20);
        for ts in [1, 5, 12, 15] {
            notify(&mut w, ts);
        }
        triggered(&mut w, 15);
        notify(&mut w, 100);
        // Window [1, 10) reported and far past retention: dropped.
        assert!(w.resolved.iter().all(|r| r.end > 100 - 20 || !r.reported));
    }
}
