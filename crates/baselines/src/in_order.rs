//! The window manager of the slicers and the single-query aggregators.

use gss_core::{
    window::{admit, Admit},
    AggregateFunction, HeapSize, Measure, QuerySet, Range, StreamOrder, Time, WindowAggregator,
    WindowResult, TIME_MIN,
};
use gss_windows::SlidingWindow;

/// What an in-order technique keeps, and how it answers a window.
pub trait InOrderStore<A: AggregateFunction>: HeapSize + Send {
    const NAME: &'static str;

    /// Takes the first tuple's time, before anything else.
    fn start(&mut self, _queries: &QuerySet, _ts: Time) {}

    /// Closes what a tuple at `ts` passes (a slicer's slices), before the
    /// windows ending at or before `ts` fire.
    fn advance(&mut self, _queries: &QuerySet, _ts: Time) {}

    /// Adds a tuple.
    fn push(&mut self, f: &A, ts: Time, value: &A::Input);

    /// An ended window's final aggregate, `None` if empty. A query's windows
    /// come by end, so a one-query queue may evict before `range.start`.
    fn answer(&mut self, f: &A, range: Range) -> Option<A::Output>;

    /// Drops what no window ending after `now` reaches.
    fn evict(&mut self, _queries: &QuerySet, _now: Time) {}
}

/// Window aggregation over an [`InOrderStore`] on an in-order stream. It
/// fires the windows that end at or before a tuple *before* adding it:
/// they never contain it, which keeps start-only slicing correct when a
/// window end falls inside a slice. A tuple behind the latest time or the
/// watermark breaks the in-order contract and is dropped ([`admit`]).
pub struct InOrder<A: AggregateFunction, S> {
    f: A,
    pub(crate) queries: QuerySet,
    pub(crate) store: S,
    next_end: Time,
    /// The latest tuple's timestamp.
    max_ts: Time,
    watermark: Time,
    /// The first tuple's timestamp: where the first trigger sweep starts.
    pub(crate) first: Option<Time>,
}

impl<A: AggregateFunction, S: InOrderStore<A>> InOrder<A, S> {
    pub(crate) fn with_store(f: A, store: S) -> Self {
        let (next_end, max_ts, watermark) = (TIME_MIN, TIME_MIN, TIME_MIN);
        InOrder { f, queries: QuerySet::default(), store, next_end, max_ts, watermark, first: None }
    }

    /// A single-query aggregator: one sliding window over `store`.
    pub(crate) fn sliding(f: A, store: S, length: i64, slide: i64) -> Self {
        let mut sliding = Self::with_store(f, store);
        sliding.queries.add(Box::new(SlidingWindow::new(length, slide)));
        sliding
    }

    /// Emits the windows ending since the last trigger, up to `wm` clamped
    /// at `data_pos` (`QuerySet::trigger`), and evicts.
    fn trigger(&mut self, wm: Time, data_pos: Time, out: &mut Vec<WindowResult<A::Output>>) {
        let (f, store) = (&self.f, &mut self.store);
        self.queries.trigger(wm, 0, data_pos, self.first, |id, _, run| {
            for r in run.windows() {
                if let Some(value) = store.answer(f, r) {
                    out.push(WindowResult::new(id, Measure::Time, r, value));
                }
            }
        });
        self.next_end = self.queries.next_window_end(wm);
        self.store.evict(&self.queries, wm);
    }
}

impl<A: AggregateFunction, S: InOrderStore<A>> WindowAggregator<A> for InOrder<A, S> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        if admit(StreamOrder::InOrder, ts, self.max_ts, self.watermark, 0) == Admit::Drop {
            return;
        }
        if self.first.is_none() {
            self.first = Some(ts);
            self.store.start(&self.queries, ts);
            self.next_end = self.queries.next_window_end(ts);
        }
        self.store.advance(&self.queries, ts);
        // One timestamp comparison per tuple, unless a window ends.
        if ts >= self.next_end {
            self.trigger(ts, ts, out);
        }
        self.max_ts = ts;
        self.store.push(&self.f, ts, &value);
    }

    /// Every tuple is its own watermark, so a watermark only adds windows
    /// no tuple passed the end of, up to the last that can hold a tuple.
    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        self.watermark = self.watermark.max(wm);
        let wm = wm.min(self.max_ts.saturating_add(self.queries.max_extent(Measure::Time)));
        if self.first.is_some() && wm > self.max_ts {
            self.trigger(wm, self.max_ts, out);
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.store.heap_bytes()
    }

    fn name(&self) -> &'static str {
        S::NAME
    }
}

/// A FIFO queue serving one sliding window: it evicts the tuples before
/// each window that ends, then answers with its whole content.
macro_rules! fifo_store {
    ($queue:ident, $name:literal) => {
        impl<A: AggregateFunction> InOrderStore<A> for $queue<A> {
            const NAME: &'static str = $name;

            fn push(&mut self, _: &A, ts: Time, value: &A::Input) {
                $queue::push(self, ts, value);
            }

            fn answer(&mut self, f: &A, range: Range) -> Option<A::Output> {
                while self.front_ts().is_some_and(|t| t < range.start) {
                    self.pop();
                }
                self.query().map(|p| f.lower(&p))
            }
        }
    };
}
pub(crate) use fifo_store;
