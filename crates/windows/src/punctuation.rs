//! Punctuation-based windows (forward context free, paper Section 4.4).
//!
//! Window punctuations embedded in the stream mark window boundaries
//! [14, 20]: each window spans from one punctuation to the next. Once all
//! tuples (and thus punctuations) up to time `t` are processed, every
//! window edge up to `t` is known — the definition of FCF.

use gss_core::{ContextClass, ContextEdges, Measure, Range, Time, WindowFunction};

/// Windows delimited by consecutive stream punctuations.
#[derive(Debug, Clone, Default)]
pub struct PunctuationWindow {
    /// Received boundaries, ascending. `boundaries[i]..boundaries[i+1]` is
    /// a window.
    boundaries: Vec<Time>,
    /// Everything at or before this has been reported.
    triggered_up_to: Time,
}

impl PunctuationWindow {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of boundaries currently tracked.
    #[cfg(test)]
    fn boundary_count(&self) -> usize {
        self.boundaries.len()
    }

    /// Drops boundaries whose windows have been fully reported, keeping the
    /// last one (it starts the next window).
    fn trim(&mut self) {
        let keep_from =
            self.boundaries.partition_point(|&b| b < self.triggered_up_to).saturating_sub(1);
        self.boundaries.drain(..keep_from);
    }
}

impl WindowFunction for PunctuationWindow {
    fn measure(&self) -> Measure {
        Measure::Time
    }

    fn context(&self) -> ContextClass {
        ContextClass::ForwardContextFree
    }

    /// Edges are known only up to the latest received punctuation.
    fn next_edge(&self, ts: Time) -> Option<Time> {
        let idx = self.boundaries.partition_point(|&b| b <= ts);
        self.boundaries.get(idx).copied()
    }

    fn requires_edge_at(&self, e: Time) -> bool {
        self.boundaries.binary_search(&e).is_ok()
    }

    fn on_punctuation(&mut self, ts: Time, edges: &mut ContextEdges) {
        // Punctuations may arrive out of order on out-of-order streams.
        match self.boundaries.binary_search(&ts) {
            Ok(_) => {} // duplicate punctuation, idempotent
            Err(pos) => {
                self.boundaries.insert(pos, ts);
                edges.add_edge(ts);
            }
        }
    }

    fn trigger_windows(&mut self, prev: Time, cur: Time, out: &mut dyn FnMut(Range)) {
        for pair in self.boundaries.windows(2) {
            let (start, end) = (pair[0], pair[1]);
            if end > prev && end <= cur {
                out(Range::new(start, end));
            }
        }
        self.triggered_up_to = self.triggered_up_to.max(cur);
        self.trim();
    }

    fn windows_containing(&self, ts: Time, out: &mut dyn FnMut(Range)) {
        let idx = self.boundaries.partition_point(|&b| b <= ts);
        if idx > 0 && idx < self.boundaries.len() {
            out(Range::new(self.boundaries[idx - 1], self.boundaries[idx]));
        }
    }

    fn max_extent(&self) -> i64 {
        // Window spans are data-driven; eviction safety comes from
        // `earliest_pending_start` instead.
        0
    }

    /// The last boundary starts a window that has not closed yet; pin it.
    fn earliest_pending_start(&self) -> Option<Time> {
        self.boundaries.last().copied()
    }

    fn clone_box(&self) -> Box<dyn WindowFunction> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn punct(w: &mut PunctuationWindow, ts: Time) -> Vec<Time> {
        let mut e = ContextEdges::new();
        w.on_punctuation(ts, &mut e);
        e.added().to_vec()
    }

    #[test]
    fn punctuations_define_windows() {
        let mut w = PunctuationWindow::new();
        assert_eq!(punct(&mut w, 10), vec![10]);
        assert_eq!(punct(&mut w, 25), vec![25]);
        assert_eq!(punct(&mut w, 40), vec![40]);
        let mut got = Vec::new();
        w.trigger_windows(0, 30, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(10, 25)]);
        got.clear();
        w.trigger_windows(30, 40, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(25, 40)]);
    }

    #[test]
    fn duplicate_punctuation_is_idempotent() {
        let mut w = PunctuationWindow::new();
        punct(&mut w, 10);
        assert!(punct(&mut w, 10).is_empty());
        assert_eq!(w.boundary_count(), 1);
    }

    #[test]
    fn out_of_order_punctuation_inserts_edge() {
        let mut w = PunctuationWindow::new();
        punct(&mut w, 10);
        punct(&mut w, 40);
        assert_eq!(punct(&mut w, 25), vec![25]);
        let mut got = Vec::new();
        w.trigger_windows(0, 100, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(10, 25), Range::new(25, 40)]);
    }

    #[test]
    fn next_edge_known_only_up_to_context() {
        let mut w = PunctuationWindow::new();
        punct(&mut w, 10);
        punct(&mut w, 25);
        assert_eq!(w.next_edge(5), Some(10));
        assert_eq!(w.next_edge(10), Some(25));
        assert_eq!(w.next_edge(25), None); // forward context missing
    }

    #[test]
    fn windows_containing_finds_enclosing_window() {
        let mut w = PunctuationWindow::new();
        punct(&mut w, 10);
        punct(&mut w, 25);
        let mut got = Vec::new();
        w.windows_containing(15, &mut |r| got.push(r));
        assert_eq!(got, vec![Range::new(10, 25)]);
        got.clear();
        w.windows_containing(5, &mut |r| got.push(r));
        assert!(got.is_empty());
        w.windows_containing(30, &mut |r| got.push(r));
        assert!(got.is_empty());
    }

    #[test]
    fn trim_keeps_open_window_start() {
        let mut w = PunctuationWindow::new();
        for ts in [10, 20, 30, 40] {
            punct(&mut w, ts);
        }
        let mut sink = Vec::new();
        w.trigger_windows(0, 100, &mut |r| sink.push(r));
        assert_eq!(sink.len(), 3);
        // Only the last boundary (start of the open window) is kept.
        assert_eq!(w.boundary_count(), 1);
        assert_eq!(w.earliest_pending_start(), Some(40));
    }
}
