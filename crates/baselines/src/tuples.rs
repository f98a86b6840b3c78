//! The window manager of the tuple buffer, the aggregate tree and
//! Buckets, on either stream order.

use std::collections::VecDeque;

use gss_core::{
    window::admit, AggregateFunction, ContextEdges, Count, HeapSize, Measure, QueryId, QuerySet,
    Range, StreamOrder, Time, WindowAggregator, WindowFunction, WindowResult, WindowRun, TIME_MIN,
};

/// What a tuple-holding technique stores, and how it answers a window.
pub trait TupleStore<A: AggregateFunction>: Send {
    fn name(&self) -> &'static str;

    /// Makes room for a new query's windows.
    fn add_query(&mut self, _id: QueryId) {}

    /// Takes the `count`-th admitted tuple.
    fn insert(&mut self, f: &A, queries: &QuerySet, ts: Time, value: A::Input, count: Count);

    /// The count position just past the tuples at or before `t`, or
    /// `None` where count windows take arrival counts (Buckets).
    fn position(&self, _t: Time) -> Option<Count> {
        None
    }

    /// The final aggregate of one window, `None` if it holds no tuple.
    fn answer(&self, f: &A, query: QueryId, measure: Measure, range: Range) -> Option<A::Output>;

    /// Drops what no window can still join or update under `wm`; `count`
    /// tuples have been admitted.
    fn evict(&mut self, queries: &QuerySet, wm: Time, lateness: Time, count: Count);

    fn heap_bytes(&self) -> usize;
}

/// Window aggregation over a [`TupleStore`].
pub struct TupleDriver<A: AggregateFunction, S> {
    f: A,
    order: StreamOrder,
    allowed_lateness: Time,
    queries: QuerySet,
    pub(crate) store: S,
    /// Tuples admitted: the next arrival count.
    count: Count,
    watermark: Time,
    max_ts: Time,
    first_ts: Time,
    scratch: ContextEdges,
}

impl<A: AggregateFunction, S: TupleStore<A>> TupleDriver<A, S> {
    pub(crate) fn with_store(f: A, store: S, order: StreamOrder, allowed_lateness: Time) -> Self {
        TupleDriver {
            f,
            order,
            allowed_lateness: order.lateness(allowed_lateness),
            queries: QuerySet::default(),
            store,
            count: 0,
            watermark: TIME_MIN,
            max_ts: TIME_MIN,
            first_ts: TIME_MIN,
            scratch: ContextEdges::new(),
        }
    }

    pub fn add_query(&mut self, w: Box<dyn WindowFunction>) -> QueryId {
        let id = self.queries.add(w);
        self.store.add_query(id);
        id
    }

    /// Emits the windows due at `wm`, or with `late = Some(ts)` the fired
    /// windows a late tuple at `ts` changes, as updates.
    fn emit(&mut self, wm: Time, late: Option<Time>, out: &mut Vec<WindowResult<A::Output>>) {
        let (f, store, is_update) = (&self.f, &self.store, late.is_some());
        let counted = self.queries.has(Measure::Count);
        let mut windows: Vec<(QueryId, Measure, Range)> = Vec::new();
        let push = |id, m, run: WindowRun| windows.extend(run.windows().map(|r| (id, m, r)));
        if let Some(ts) = late {
            // A late tuple shifts the event-time count of every later one.
            let counts = counted.then(|| Some((store.position(ts)? - 1, store.position(wm)?)));
            self.queries.updates(ts, wm, counts.flatten(), push);
        } else {
            let count_wm = counted.then(|| store.position(wm)).flatten().unwrap_or(self.count);
            self.queries.trigger(wm, count_wm, self.max_ts, Some(self.first_ts), push);
        }
        for (query, measure, range) in windows {
            if let Some(value) = store.answer(f, query, measure, range) {
                out.push(WindowResult { query, measure, range, value, is_update });
            }
        }
        if late.is_none() {
            self.store.evict(&self.queries, wm, self.allowed_lateness, self.count);
        }
    }
}

impl<A: AggregateFunction, S: TupleStore<A>> WindowAggregator<A> for TupleDriver<A, S> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        let ahead = self.max_ts.max(self.queries.fired_to());
        let admitted = admit(self.order, ts, ahead, self.watermark, self.allowed_lateness);
        let Some(revises) = admitted.revises() else { return };
        // Track the minimum event time (not the first arrival): stragglers
        // older than the first arrival still anchor the trigger sweep.
        self.first_ts = if self.first_ts == TIME_MIN { ts } else { self.first_ts.min(ts) };
        self.queries.notify(ts, &mut self.scratch);
        self.store.insert(&self.f, &self.queries, ts, value, self.count);
        self.count += 1;
        if ts >= self.max_ts {
            self.max_ts = ts;
            if self.order.is_in_order() {
                self.watermark = ts;
                self.emit(ts, None, out);
            }
        }
        if revises {
            self.emit(self.watermark, Some(ts), out);
        }
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        self.emit(wm, None, out);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.store.heap_bytes()
    }

    fn name(&self) -> &'static str {
        self.store.name()
    }
}

/// Tuples in event-time order (stable for ties), with a [`Reader`]'s items.
pub type Items<I> = VecDeque<(Time, I)>;

/// The tuple buffer's and the aggregate tree's store: the tuples in
/// event-time order, each window read by a [`Reader`].
pub struct Sorted<A: AggregateFunction, R: Reader<A>> {
    items: Items<R::Item>,
    /// Count position of `items[0]`.
    evicted: Count,
    reader: R,
}

/// How a sorted store reads a window: a scan, or a tree of the lifts.
pub trait Reader<A: AggregateFunction>: HeapSize + Send {
    const NAME: &'static str;

    /// What the store keeps beside a tuple's time.
    type Item: HeapSize + Send;

    /// Takes the tuple inserted at index `at` (appended if `append`).
    fn insert(&mut self, f: &A, at: usize, value: A::Input, append: bool) -> Self::Item;

    /// The combined tuples `[l, r)`, `l < r`.
    fn query(&self, f: &A, items: &Items<Self::Item>, l: usize, r: usize) -> Option<A::Partial>;

    fn remove_prefix(&mut self, _k: usize) {}
}

impl<A: AggregateFunction, R: Reader<A>> TupleDriver<A, Sorted<A, R>> {
    pub(crate) fn sorted(f: A, reader: R, order: StreamOrder, allowed_lateness: Time) -> Self {
        let store = Sorted { items: VecDeque::new(), evicted: 0, reader };
        TupleDriver::with_store(f, store, order, allowed_lateness)
    }

    pub fn len(&self) -> usize {
        self.store.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.items.is_empty()
    }
}

impl<A: AggregateFunction, R: Reader<A>> TupleStore<A> for Sorted<A, R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    /// Appends an in-order tuple; any other takes a memory-copying insert
    /// in the middle.
    fn insert(&mut self, f: &A, _: &QuerySet, ts: Time, value: A::Input, _: Count) {
        let append = self.items.back().is_none_or(|(t, _)| *t <= ts);
        let at =
            if append { self.items.len() } else { self.items.partition_point(|(t, _)| *t <= ts) };
        let item = self.reader.insert(f, at, value, append);
        self.items.insert(at, (ts, item));
    }

    fn position(&self, t: Time) -> Option<Count> {
        Some(self.evicted + self.items.partition_point(|(u, _)| *u <= t) as Count)
    }

    /// A time window's tuples by event time, a count window's by position.
    fn answer(&self, f: &A, _: QueryId, measure: Measure, range: Range) -> Option<A::Output> {
        let (l, r) = match measure {
            Measure::Time => {
                let before = |t| self.items.partition_point(|(u, _)| *u < t);
                (before(range.start), before(range.end))
            }
            Measure::Count => {
                let index = |c: Time| (c as Count).saturating_sub(self.evicted) as usize;
                (index(range.start), index(range.end).min(self.items.len()))
            }
        };
        let p = if l < r { self.reader.query(f, &self.items, l, r) } else { None };
        p.map(|p| f.lower(&p))
    }

    /// Keeps the longest count window's worth of tuples.
    fn evict(&mut self, queries: &QuerySet, wm: Time, lateness: Time, _: Count) {
        let horizon = queries.horizon(wm, lateness);
        let mut k = self.items.partition_point(|(t, _)| *t < horizon);
        if queries.has(Measure::Count) {
            let keep = queries.max_extent(Measure::Count) as usize;
            k = k.min(self.items.len().saturating_sub(keep));
        }
        if k > 0 {
            self.items.drain(..k);
            self.reader.remove_prefix(k);
            self.evicted += k as Count;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.items.heap_bytes() + self.reader.heap_bytes()
    }
}
