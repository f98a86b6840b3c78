//! Shared query bookkeeping for the baseline techniques.
//!
//! Every baseline manages the same set of [`gss_core::WindowFunction`]
//! queries as the general slicing operator, so comparisons across
//! techniques exercise identical window semantics.

use gss_core::{Count, Measure, Query, QueryId, Range, Time, WindowFunction, TIME_MIN};

/// Query set plus trigger bookkeeping shared by all baselines.
pub struct QuerySet {
    queries: Vec<Query>,
    next_id: QueryId,
    pub last_trigger_time: Time,
    pub last_trigger_count: Count,
}

impl Default for QuerySet {
    fn default() -> Self {
        Self::new()
    }
}

impl QuerySet {
    pub fn new() -> Self {
        QuerySet {
            queries: Vec::new(),
            next_id: 0,
            last_trigger_time: TIME_MIN,
            last_trigger_count: 0,
        }
    }

    pub fn add(&mut self, window: Box<dyn WindowFunction>) -> QueryId {
        let id = self.next_id;
        self.next_id += 1;
        self.queries.push(Query::new(id, window));
        id
    }

    pub fn remove(&mut self, id: QueryId) -> bool {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != id);
        self.queries.len() != before
    }

    pub fn iter(&self) -> impl Iterator<Item = &Query> {
        self.queries.iter()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Query> {
        self.queries.iter_mut()
    }

    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    pub fn has_count_measure(&self) -> bool {
        self.queries.iter().any(|q| q.window.measure() == Measure::Count)
    }

    /// Longest extent among time-measure queries.
    pub fn max_time_extent(&self) -> i64 {
        self.queries
            .iter()
            .filter(|q| q.window.measure() == Measure::Time)
            .map(|q| q.window.max_extent())
            .max()
            .unwrap_or(0)
    }

    /// Longest extent among count-measure queries.
    pub fn max_count_extent(&self) -> i64 {
        self.queries
            .iter()
            .filter(|q| q.window.measure() == Measure::Count)
            .map(|q| q.window.max_extent())
            .max()
            .unwrap_or(0)
    }

    /// Lets context-aware queries observe a tuple (edge changes are
    /// irrelevant to non-slicing baselines and discarded).
    pub(crate) fn notify(&mut self, ts: Time, scratch: &mut gss_core::ContextEdges) {
        for q in &mut self.queries {
            if q.window.context().is_context_aware() {
                scratch.clear();
                q.window.notify_context(ts, scratch);
            }
        }
    }

    /// Sweeps all queries for windows completing in `(last_trigger, wm]` /
    /// `(last_count, count_wm]`, invoking `f(query, measure, range)` for
    /// each. Advances the bookkeeping. `max_ts` is the highest event time
    /// seen — the sweep clamps to `max_ts + max_extent` so a flush
    /// watermark cannot enumerate empty windows across the time axis.
    pub(crate) fn trigger(
        &mut self,
        wm: Time,
        count_wm: Count,
        first_data: Time,
        max_ts: Time,
        mut f: impl FnMut(QueryId, Measure, Range),
    ) {
        if max_ts == TIME_MIN {
            return;
        }
        let wm = wm.min(max_ts.saturating_add(self.max_time_extent()).saturating_add(1));
        let time_prev = if self.last_trigger_time == TIME_MIN {
            first_data.min(wm)
        } else {
            self.last_trigger_time
        };
        let count_prev = self.last_trigger_count;
        for q in &mut self.queries {
            let id = q.id;
            match q.window.measure() {
                Measure::Time => {
                    q.window.trigger_windows(time_prev, wm, &mut |r| f(id, Measure::Time, r));
                }
                Measure::Count => {
                    q.window.trigger_windows(count_prev as Time, count_wm as Time, &mut |r| {
                        f(id, Measure::Count, r)
                    });
                }
            }
        }
        self.last_trigger_time = self.last_trigger_time.max(wm);
        self.last_trigger_count = self.last_trigger_count.max(count_wm);
    }

    /// Enumerates all currently known windows containing a position, per
    /// query: `f(query, measure, range)`.
    pub fn containing(
        &self,
        ts: Time,
        count_pos: Count,
        mut f: impl FnMut(QueryId, Measure, Range),
    ) {
        for q in &self.queries {
            let id = q.id;
            match q.window.measure() {
                Measure::Time => {
                    q.window.windows_containing(ts, &mut |r| f(id, Measure::Time, r));
                }
                Measure::Count => {
                    q.window
                        .windows_containing(count_pos as Time, &mut |r| f(id, Measure::Count, r));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_windows::{SessionWindow, TumblingWindow};

    #[test]
    fn add_remove_and_ids() {
        let mut qs = QuerySet::new();
        let a = qs.add(Box::new(TumblingWindow::new(10)));
        let b = qs.add(Box::new(TumblingWindow::new(20)));
        assert_ne!(a, b);
        assert!(qs.remove(a));
        assert!(!qs.remove(a));
        assert_eq!(qs.iter().count(), 1);
    }

    #[test]
    fn trigger_sweeps_all_queries() {
        let mut qs = QuerySet::new();
        qs.add(Box::new(TumblingWindow::new(10)));
        qs.add(Box::new(TumblingWindow::new(5)));
        let mut got = Vec::new();
        qs.trigger(20, 0, 0, 20, |id, _, r| got.push((id, r)));
        // Tumbling 10: [0,10), [10,20). Tumbling 5: [0,5)..[15,20).
        assert_eq!(got.iter().filter(|(id, _)| *id == 0).count(), 2);
        assert_eq!(got.iter().filter(|(id, _)| *id == 1).count(), 4);
        // Second sweep starts where the first ended.
        got.clear();
        qs.trigger(25, 0, 0, 25, |id, _, r| got.push((id, r)));
        assert_eq!(got.len(), 1); // only tumbling-5 [20, 25)
    }

    #[test]
    fn extents_and_flags() {
        let mut qs = QuerySet::new();
        qs.add(Box::new(TumblingWindow::new(10)));
        qs.add(Box::new(SessionWindow::new(7)));
        assert!(!qs.has_count_measure());
        assert!(qs.max_time_extent() >= 10);
    }
}
