//! The general stream slicing window operator (paper Section 5).
//!
//! Combines the three processing components of Figure 7 — the **Stream
//! Slicer** (creates slices on the fly for in-order tuples), the **Slice
//! Manager** (triggers merge/split/update operations), and the **Window
//! Manager** (computes final window aggregates) — around the shared
//! [`SliceStore`]. The operator adapts automatically to the workload
//! characteristics of its registered queries (Section 5.1): it stores
//! tuples only when required, uses ⊖ when the function is invertible, and
//! recomputes from source tuples only when unavoidable.

use crate::aggregator::{column_run_len, WindowAggregator};
use crate::cast;
use crate::characteristics::WorkloadCharacteristics;
use crate::function::AggregateFunction;
use crate::mem::HeapSize;
use crate::result::WindowResult;
use crate::store::{SliceStore, StorePolicy, MIN_BATCH_WINDOWS};
use crate::time::{Count, Measure, Range, StreamOrder, Time, TIME_MAX, TIME_MIN};
use crate::window::{ContextEdges, Query, QueryId, WindowFunction};

/// Configuration of a [`WindowOperator`].
#[derive(Debug, Clone, Copy)]
pub struct OperatorConfig {
    /// Declared stream order (workload characteristic 1). In-order streams
    /// emit windows directly — every tuple acts as a watermark; out-of-order
    /// streams wait for explicit watermarks.
    pub order: StreamOrder,
    /// Lazy or eager final aggregation (Table 1 rows 5–8).
    pub policy: StorePolicy,
    /// How long after the watermark late tuples still update emitted
    /// windows (paper Section 2). Ignored for in-order streams.
    pub allowed_lateness: Time,
    /// Ablation switch: keep tuples in slices even when the Figure-4
    /// decision logic would drop them. Used to measure the value of the
    /// adaptive storage decision; never needed in production.
    pub force_tuple_storage: bool,
    /// Ablation switch: slice at window ends even on in-order streams
    /// (the paper's out-of-order edge set). Measures the value of
    /// start-only slicing; never needed in production.
    pub force_end_edges: bool,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        OperatorConfig {
            order: StreamOrder::InOrder,
            policy: StorePolicy::Lazy,
            allowed_lateness: 0,
            force_tuple_storage: false,
            force_end_edges: false,
        }
    }
}

impl OperatorConfig {
    pub fn in_order() -> Self {
        Self::default()
    }

    pub fn out_of_order(allowed_lateness: Time) -> Self {
        OperatorConfig { order: StreamOrder::OutOfOrder, allowed_lateness, ..Default::default() }
    }

    pub fn with_policy(mut self, policy: StorePolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Why a query could not be registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// Count-measure and time-measure queries cannot share one operator on
    /// an out-of-order stream: the Figure-6 count shift moves tuples across
    /// slice boundaries, which would corrupt time-window aggregates. (The
    /// paper evaluates the two measures separately; in-order streams may
    /// mix them freely.)
    MixedMeasuresOutOfOrder,
    /// The query needs stored tuples (Figure 4) while live slices already
    /// hold tuples that were not kept: its splits, recomputations or
    /// shifts would need tuples that are gone. Register it before the
    /// data, or once the live slices are evicted.
    TuplesNotKept,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::MixedMeasuresOutOfOrder => write!(
                f,
                "count-measure and time-measure queries cannot be mixed on an \
                 out-of-order stream"
            ),
            QueryError::TuplesNotKept => write!(
                f,
                "the query needs stored tuples, but live slices hold tuples that were not kept"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Operational counters, useful for tests and the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorStats {
    pub tuples: u64,
    pub ooo_tuples: u64,
    pub dropped_late: u64,
    pub slices_created: u64,
    pub splits: u64,
    pub merges: u64,
    pub shifts: u64,
    pub windows_emitted: u64,
    pub updates_emitted: u64,
    /// Store calls that answered the time-measure windows of a trigger or
    /// late-update sweep (sweeps with no such window due are not counted).
    pub sweeps: u64,
    /// Time-measure windows those calls asked about, empty ones included.
    pub sweep_windows: u64,
    /// Of `sweep_windows`, those answered by the store's shared scan
    /// rather than one range query each.
    pub shared_scan_windows: u64,
    /// Slice writes made by late-batch flushes: one per covering slice a
    /// flush touched, so `ooo_tuples / late_slices` reads as late tuples
    /// per touched slice (late tuples that took the per-tuple path count
    /// in the numerator only).
    pub late_slices: u64,
    /// Bulk runs folded through a hand-written
    /// [`AggregateFunction::fold_slice`] kernel.
    pub fold_kernel_hits: u64,
    /// Bulk runs folded through the default lift/combine loop (the
    /// function has no kernel).
    pub fold_kernel_misses: u64,
}

/// Index bits per pass of [`LateBatch::sort_runs`]: 256 four-byte
/// counters are 1 KB of L1, and a hull below 256 slices sorts in one pass.
const RUN_SORT_BITS: u32 = 8;
const RUN_SORT_BUCKETS: usize = 1 << RUN_SORT_BITS;

/// The batch loop partitions the rest of a batch once late and in-order
/// tuples each make up more than one in `PARTITION_SHARE` of what it has
/// seen of the batch, and at least `PARTITION_MIN_SEEN` tuples: stretches
/// are short then, and there are in-order tuples to gather (a sorted
/// burst of late tuples has none). EXPERIMENTS.md, "One batch loop".
const PARTITION_SHARE: u64 = 8;
const PARTITION_MIN_SEEN: u64 = 4;

/// A run of deferred late tuples: the tuples deferred to store slice
/// `slot` while that slice sat in entry `col` of the lookup memo, lying at
/// `start..end` of that entry's columns in arrival order.
#[derive(Clone, Copy)]
struct LateRun {
    slot: u32,
    col: u32,
    start: u32,
    end: u32,
}

/// The late tuples deferred within one batch call, bucketed by covering
/// slice. A deferred tuple is appended to the columns of the memo entry
/// that holds its slice; refilling an entry with another slice only ends
/// a [`LateRun`] in those columns. The flush sorts the runs by slice
/// ([`LateBatch::sort_runs`]) and writes the slices in ascending order,
/// each from its runs where they lie — no tuple is moved after deferral.
/// All vectors are scratch: empty between calls, allocations reused,
/// nothing here is operator state.
struct LateBatch<V> {
    /// The lookup memo: the last four distinct slices resolved, entry `k`
    /// covering `[memo_start[k], memo_start[k] + memo_width[k])` (zero
    /// width when unset) at store index `memo_slot[k]`. Late tuples
    /// alternate among the few slices behind the stream head or arrive
    /// in sorted bursts, so most lookups end here. `memo_last` is the
    /// entry hit or filled last, `memo_next` the one a miss refills.
    memo_start: [Time; 4],
    memo_width: [u64; 4],
    memo_slot: [u32; 4],
    memo_last: usize,
    memo_next: usize,
    /// Per memo entry: every tuple deferred through it, and where its
    /// open run starts.
    times: [Vec<Time>; 4],
    values: [Vec<V>; 4],
    open_from: [u32; 4],
    /// The ended runs. Slice indices here and in the memo are kept valid
    /// when a gap slice is inserted mid-batch.
    runs: Vec<LateRun>,
    /// Flush scratch: the counters and the output of a sorting pass over
    /// the runs, and one slice's tuples as pairs for the sorted-run write.
    counts: Vec<u32>,
    sorted: Vec<LateRun>,
    pairs: Vec<(Time, V)>,
    /// Partition scratch of a batch's disordered part
    /// ([`WindowOperator::partition_rest`]): batch positions, in-order
    /// ones from the front and late ones from the back in reverse arrival
    /// order, and the in-order tuples gathered into columns.
    part_idx: Vec<u32>,
    head: (Vec<Time>, Vec<V>),
    /// The columns [`WindowOperator::process_batch_tuples`] unzips a pair
    /// batch into.
    unzipped: (Vec<Time>, Vec<V>),
}

impl<V> LateBatch<V> {
    fn new() -> Self {
        LateBatch {
            memo_start: [0; 4],
            memo_width: [0; 4],
            memo_slot: [0; 4],
            memo_last: 0,
            memo_next: 0,
            times: std::array::from_fn(|_| Vec::new()),
            values: std::array::from_fn(|_| Vec::new()),
            open_from: [0; 4],
            runs: Vec::new(),
            counts: Vec::new(),
            sorted: Vec::new(),
            pairs: Vec::new(),
            part_idx: Vec::new(),
            head: (Vec::new(), Vec::new()),
            unzipped: (Vec::new(), Vec::new()),
        }
    }

    /// Ends the open run of memo entry `k`.
    fn end_run(&mut self, k: usize) {
        let (start, end) = (self.open_from[k], cast::slot32(self.times[k].len()));
        if end > start {
            self.runs.push(LateRun { slot: self.memo_slot[k], col: cast::slot32(k), start, end });
            self.open_from[k] = end;
        }
    }

    /// Sorts the ended runs by slice, the runs of one slice staying in the
    /// order they were opened: a stable counting sort on the slice index
    /// relative to the lowest touched, [`RUN_SORT_BITS`] bits at a pass
    /// from the lowest up. A hull (lowest to highest touched slice) below
    /// 256 slices is one pass over one counter per hull slice; two
    /// stragglers thousands of slices apart are two passes over a few
    /// hundred counters, where one counter per hull slice cost the
    /// finger store a third of its throughput (EXPERIMENTS.md, "Late
    /// grouping").
    fn sort_runs(&mut self) {
        let slots = || self.runs.iter().map(|r| r.slot);
        let (Some(base), Some(top)) = (slots().min(), slots().max()) else { return };
        let hull = u64::from(top - base);
        let mut shift = 0;
        loop {
            let digit = move |r: &LateRun| cast::idx32((r.slot - base) >> shift) % RUN_SORT_BUCKETS;
            // Runs per digit value — no more values than the hull has
            // left at this shift — turned into where each value's runs
            // start in the output.
            self.counts.clear();
            self.counts.resize(cast::to_usize(hull >> shift).min(RUN_SORT_BUCKETS - 1) + 1, 0);
            for r in &self.runs {
                self.counts[digit(r)] += 1;
            }
            let mut start = 0;
            for c in &mut self.counts {
                let count = *c;
                *c = start;
                start += count;
            }
            self.sorted.clear();
            self.sorted.resize(self.runs.len(), self.runs[0]);
            for r in &self.runs {
                let at = &mut self.counts[digit(r)];
                self.sorted[cast::idx32(*at)] = *r;
                *at += 1;
            }
            std::mem::swap(&mut self.runs, &mut self.sorted);
            shift += RUN_SORT_BITS;
            if hull >> shift == 0 {
                break;
            }
        }
    }
}

/// One worker-local pre-aggregated slice from the intra-query parallel
/// path: everything a worker folded into the static-edge span
/// `[start, end)`, plus the extreme timestamps and tuple count. Produced
/// by worker-side slicers, consumed by
/// [`WindowOperator::merge_parallel_partials`].
pub struct SlicePartial<A: AggregateFunction> {
    /// Slice span start (a static window edge).
    pub start: Time,
    /// Slice span end (the next static window edge after `start`).
    pub end: Time,
    /// ⊕-fold of the lifted values of every contributing tuple.
    pub partial: A::Partial,
    /// Earliest contributing timestamp (`start <= t_first`).
    pub t_first: Time,
    /// Latest contributing timestamp (`t_last < end`).
    pub t_last: Time,
    /// Number of contributing tuples.
    pub n: u64,
}

impl<A: AggregateFunction> Clone for SlicePartial<A> {
    fn clone(&self) -> Self {
        SlicePartial {
            start: self.start,
            end: self.end,
            partial: self.partial.clone(),
            t_first: self.t_first,
            t_last: self.t_last,
            n: self.n,
        }
    }
}

/// The time-measure windows one sweep has collected, in emission order.
/// Sweeps too small for [`SliceStore::query_time_batch`] to consider —
/// almost all of them: a tumbling query fires one window at a time —
/// stay in the inline array, so collecting first costs them no
/// allocation; the heap list of a large sweep is freed with the sweep
/// (scratch kept between sweeps would be operator state).
struct SweepList {
    inline: [(QueryId, Range); MIN_BATCH_WINDOWS - 1],
    len: usize,
    spill: Vec<(QueryId, Range)>,
}

impl SweepList {
    fn new() -> Self {
        let none = (0, Range { start: 0, end: 0 });
        SweepList { inline: [none; MIN_BATCH_WINDOWS - 1], len: 0, spill: Vec::new() }
    }

    fn push(&mut self, id: QueryId, range: Range) {
        if self.len < self.inline.len() {
            self.inline[self.len] = (id, range);
        } else {
            if self.len == self.inline.len() {
                self.spill.reserve(8 * self.inline.len());
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push((id, range));
        }
        self.len += 1;
    }

    fn windows(&self) -> &[(QueryId, Range)] {
        if self.len <= self.inline.len() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Answers the collected windows from `store`, pushes one result per
    /// non-empty window onto `out` in collection order, and empties the
    /// list. The one place a sweep queries time windows: the store
    /// chooses between the shared scan and per-window queries.
    fn answer<A: AggregateFunction>(
        &mut self,
        store: &SliceStore<A>,
        per_window_only: bool,
        update: bool,
        stats: &mut OperatorStats,
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        let windows = self.windows();
        if windows.is_empty() {
            return;
        }
        let f = store.function();
        let emitted = out.len();
        let emit = |&id: &QueryId, range: Range, p: A::Partial| {
            let value = f.lower(&p);
            out.push(WindowResult {
                query: id,
                measure: Measure::Time,
                range,
                value,
                is_update: update,
            });
        };
        let scanned = if per_window_only {
            store.query_time_each(windows, emit);
            0
        } else {
            store.query_time_batch(windows, emit)
        };
        let emitted = cast::to_u64(out.len() - emitted);
        if update {
            stats.updates_emitted += emitted;
        } else {
            stats.windows_emitted += emitted;
        }
        stats.sweeps += 1;
        stats.sweep_windows += cast::to_u64(windows.len());
        stats.shared_scan_windows += cast::to_u64(scanned);
        self.len = 0;
        self.spill.clear();
    }
}

/// The general stream slicing operator.
pub struct WindowOperator<A: AggregateFunction> {
    f: A,
    cfg: OperatorConfig,
    queries: Vec<Query>,
    next_query_id: QueryId,
    chars: WorkloadCharacteristics,
    store: SliceStore<A>,
    /// Cached next time-measure window edge (end of the open slice), the
    /// single comparison the hot path performs per tuple.
    next_time_edge: Option<Time>,
    /// Cached next count-measure window edge.
    next_count_edge: Option<Count>,
    /// Highest event time processed so far.
    max_ts: Time,
    /// Highest punctuation position seen (punctuations can mark window
    /// ends beyond the latest tuple).
    max_punct: Time,
    /// Last processed watermark.
    watermark: Time,
    /// Upper bound of the last trigger sweep, per measure.
    last_trigger_time: Time,
    last_trigger_count: Count,
    /// Longest time-measure window extent among registered queries.
    max_time_extent: i64,
    /// Longest count-measure window extent among registered queries.
    max_count_extent: i64,
    /// Earliest time at which a time-measure window can end next; lets the
    /// in-order hot path skip the trigger sweep (one comparison per tuple).
    next_trigger_time: Option<Time>,
    /// Earliest count at which a count-measure window can end next.
    next_trigger_count: Option<Count>,
    /// Sweep on every tuple (context-aware or unknown-end windows).
    sweep_always: bool,
    /// At least one trigger sweep has run (the first tuple always sweeps).
    swept_once: bool,
    /// Test switch ([`crate::testsupport::force_per_window_queries`]):
    /// sweeps never use the store's shared scan, so tests can hold the
    /// two paths against each other.
    pub(crate) per_window_only: bool,
    stats: OperatorStats,
    /// Scratch of the batch calls, allocated by the first batch that
    /// defers a late tuple or arrives as pairs; empty between calls.
    /// Taken out and put back around each use: held in a local across
    /// the batch loop, its drop glue cost a quarter of the in-order
    /// throughput.
    late: Option<Box<LateBatch<A::Input>>>,
    /// Indices into `queries` of context-aware windows (precomputed so the
    /// per-tuple notify loop touches only those).
    context_aware: Vec<usize>,
    /// Reusable buffer for context notifications.
    edges: ContextEdges,
}

impl<A: AggregateFunction> WindowOperator<A> {
    /// Creates an operator with no queries. Add at least one query before
    /// feeding tuples — tuples processed with no registered query are
    /// absorbed into a single catch-all slice.
    pub fn new(f: A, cfg: OperatorConfig) -> Self {
        let chars = WorkloadCharacteristics::derive(&[], cfg.order, f.properties());
        let store = SliceStore::new(f.clone(), cfg.policy, chars.requires_tuple_storage());
        WindowOperator {
            f,
            cfg,
            queries: Vec::new(),
            next_query_id: 0,
            chars,
            store,
            next_time_edge: None,
            next_count_edge: None,
            max_ts: TIME_MIN,
            max_punct: TIME_MIN,
            watermark: TIME_MIN,
            last_trigger_time: TIME_MIN,
            last_trigger_count: 0,
            max_time_extent: 0,
            max_count_extent: 0,
            next_trigger_time: None,
            next_trigger_count: None,
            sweep_always: false,
            swept_once: false,
            per_window_only: false,
            stats: OperatorStats::default(),
            late: None,
            context_aware: Vec::new(),
            edges: ContextEdges::new(),
        }
    }

    /// Registers a window query. The operator re-derives its workload
    /// characteristics and adapts storage decisions (paper Section 5:
    /// "our aggregator adapts when one adds or removes queries"). Tuple
    /// storage only turns on over empty slices: a query that needs it
    /// while live slices hold unkept tuples is refused.
    pub fn add_query(&mut self, window: Box<dyn WindowFunction>) -> Result<QueryId, QueryError> {
        if self.cfg.order == StreamOrder::OutOfOrder {
            let new_measure = window.measure();
            if self.queries.iter().any(|q| q.window.measure() != new_measure) {
                return Err(QueryError::MixedMeasuresOutOfOrder);
            }
        }
        let id = self.next_query_id;
        self.queries.push(Query::new(id, window));
        let props = self.f.properties();
        let chars = WorkloadCharacteristics::derive(&self.queries, self.cfg.order, props);
        if chars.requires_tuple_storage()
            && !self.store.keeps_tuples()
            && self.store.slices().any(|s| !s.is_empty())
        {
            self.queries.pop();
            return Err(QueryError::TuplesNotKept);
        }
        self.next_query_id += 1;
        self.rederive();
        Ok(id)
    }

    /// Removes a query; returns `true` if it existed.
    pub fn remove_query(&mut self, id: QueryId) -> bool {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != id);
        let removed = self.queries.len() != before;
        if removed {
            self.rederive();
        }
        removed
    }

    /// Current workload characteristics (for inspection/tests).
    pub fn characteristics(&self) -> &WorkloadCharacteristics {
        &self.chars
    }

    /// Operational counters.
    pub fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    /// Number of slices currently stored.
    pub fn slice_count(&self) -> usize {
        self.store.len()
    }

    /// Read access to the aggregate store (benchmarks measure its latency
    /// and memory directly).
    pub fn store(&self) -> &SliceStore<A> {
        &self.store
    }

    /// The last processed watermark.
    pub fn current_watermark(&self) -> Time {
        self.watermark
    }

    fn rederive(&mut self) {
        self.chars =
            WorkloadCharacteristics::derive(&self.queries, self.cfg.order, self.f.properties());
        self.store
            .set_keep_tuples(self.chars.requires_tuple_storage() || self.cfg.force_tuple_storage);
        self.max_time_extent = self
            .queries
            .iter()
            .filter(|q| q.window.measure() == Measure::Time)
            .map(|q| q.window.max_extent())
            .max()
            .unwrap_or(0);
        self.max_count_extent = self
            .queries
            .iter()
            .filter(|q| q.window.measure() == Measure::Count)
            .map(|q| q.window.max_extent())
            .max()
            .unwrap_or(0);
        // Re-derive edge caches: a new query may introduce earlier edges
        // than the cached ones. Slicing for the new query starts strictly
        // after the data already processed (`max_ts`) — windows of a new
        // query that overlap the registration instant see partial data,
        // like in the reference implementation.
        if let Some(open_start) = self.store.last_slice().map(|s| s.start()) {
            let from = open_start.max(self.max_ts);
            self.next_time_edge = self.compute_next_time_edge(from);
            self.store.set_last_end(self.next_time_edge.unwrap_or(TIME_MAX));
        }
        self.next_count_edge = self.compute_next_count_edge(self.store.total_count());
        self.context_aware = self
            .queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.window.context().is_context_aware())
            .map(|(i, _)| i)
            .collect();
        self.refresh_trigger_caches();
    }

    /// Recomputes the cached positions at which the next window can end.
    fn refresh_trigger_caches(&mut self) {
        let probe_t = if self.last_trigger_time == TIME_MIN {
            self.max_ts.max(0)
        } else {
            self.last_trigger_time
        };
        let probe_c = self.last_trigger_count as Time;
        let mut sweep = self.chars.has_context_aware;
        let mut next_t: Option<Time> = None;
        let mut next_c: Option<Count> = None;
        for q in &self.queries {
            match q.window.measure() {
                Measure::Time => match q.window.next_window_end(probe_t) {
                    Some(e) => next_t = Some(next_t.map_or(e, |x| x.min(e))),
                    None => sweep = true,
                },
                Measure::Count => match q.window.next_window_end(probe_c) {
                    Some(e) => next_c = Some(next_c.map_or(e as Count, |x| x.min(e as Count))),
                    None => sweep = true,
                },
            }
        }
        self.next_trigger_time = next_t;
        self.next_trigger_count = next_c;
        self.sweep_always = sweep;
    }

    /// Minimum next time edge over all time-measure queries, strictly
    /// after `ts`. In-order streams slice only at window starts.
    fn compute_next_time_edge(&self, ts: Time) -> Option<Time> {
        let starts_only = self.cfg.order.is_in_order() && !self.cfg.force_end_edges;
        self.queries
            .iter()
            .filter(|q| q.window.measure() == Measure::Time)
            .filter_map(|q| {
                if starts_only {
                    q.window.next_start_edge(ts)
                } else {
                    q.window.next_edge(ts)
                }
            })
            .min()
    }

    /// Minimum next count edge over all count-measure queries, strictly
    /// after count position `c`.
    fn compute_next_count_edge(&self, c: Count) -> Option<Count> {
        let starts_only = self.cfg.order.is_in_order();
        self.queries
            .iter()
            .filter(|q| q.window.measure() == Measure::Count)
            .filter_map(|q| {
                let edge = if starts_only {
                    q.window.next_start_edge(c as Time)
                } else {
                    q.window.next_edge(c as Time)
                };
                edge.map(|e| e as Count)
            })
            .min()
    }

    /// True when this operator runs in count-delimited mode (count-measure
    /// queries on an out-of-order stream): slice lookups go by tuple
    /// content and the Figure-6 shift keeps count alignment.
    fn count_mode(&self) -> bool {
        self.chars.has_count_measure && self.cfg.order == StreamOrder::OutOfOrder
    }

    // ------------------------------------------------------------------
    // Step 1: the Stream Slicer (in-order tuples only)
    // ------------------------------------------------------------------

    /// Appends slices for every cached edge at or before `ts`. The common
    /// case — no edge crossed — costs a single comparison.
    fn advance_time_edges(&mut self, ts: Time) {
        while let Some(edge) = self.next_time_edge {
            if ts < edge {
                break;
            }
            let next = self.compute_next_time_edge(edge);
            self.store.append_slice(Range::new(edge, next.unwrap_or(TIME_MAX)));
            self.stats.slices_created += 1;
            self.next_time_edge = next;
        }
    }

    /// Cuts the open slice when the tuple count reaches a count edge. The
    /// incoming tuple at `ts` will be the first of the next count slice.
    fn advance_count_edge_in_order(&mut self, ts: Time) {
        while let Some(edge) = self.next_count_edge {
            if self.store.total_count() < edge {
                break;
            }
            if self.store.last_end().is_some_and(|end| ts < end)
                && self.store.last_slice().is_some_and(|s| s.start() <= ts)
            {
                self.store.cut_last_at(ts);
                self.stats.slices_created += 1;
            }
            self.next_count_edge = self.compute_next_count_edge(edge);
        }
    }

    /// Closes the open slice whenever the total count has reached a count
    /// edge. The cut lands at `max_ts`: all current tuples stay in the
    /// closed slice (they precede the edge in count order) and later
    /// arrivals — including ties at `max_ts`, whose count positions come
    /// after — fall into the new open slice.
    fn advance_count_edge_after_insert(&mut self) {
        while let Some(edge) = self.next_count_edge {
            if self.store.total_count() < edge {
                break;
            }
            let cut_at = self.max_ts;
            if self.store.last_end().is_some_and(|end| cut_at < end)
                && self.store.last_slice().is_some_and(|sl| sl.start() <= cut_at)
            {
                self.store.cut_last_at(cut_at);
                self.stats.slices_created += 1;
            }
            self.next_count_edge = self.compute_next_count_edge(edge);
        }
    }

    /// Ensures the store has an open slice covering `ts` (first tuple).
    fn ensure_first_slice(&mut self, ts: Time) {
        if self.store.is_empty() {
            let next = self.compute_next_time_edge(ts);
            self.store.append_slice(Range::new(ts, next.unwrap_or(TIME_MAX)));
            self.stats.slices_created += 1;
            self.next_time_edge = next;
        }
    }

    // ------------------------------------------------------------------
    // Step 2: the Slice Manager
    // ------------------------------------------------------------------

    /// Lets every context-aware window observe `ts` and applies the edge
    /// changes it requests (splits for new edges, merges for removed ones).
    fn notify_context_aware(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        if !self.chars.has_context_aware {
            return;
        }
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        for &i in &self.context_aware {
            self.queries[i].window.notify_context(ts, &mut edges);
        }
        self.apply_edges(&edges, out);
        self.edges = edges;
    }

    /// Applies requested edge additions (slice splits) and removals (slice
    /// merges). An edge is only merged away if no other query still needs
    /// an edge at that position — slice edges must exactly match window
    /// edges to keep the slice count minimal (paper Section 5.3, Step 2).
    fn apply_edges(&mut self, edges: &ContextEdges, _out: &mut Vec<WindowResult<A::Output>>) {
        for &e in edges.added() {
            if self.store.split_at(e) {
                self.stats.splits += 1;
            }
        }
        for &e in edges.removed() {
            if self.edge_required_by_any_query(e) {
                continue;
            }
            if self.store.merge_at(e) {
                self.stats.merges += 1;
            }
        }
    }

    /// Does any registered query define a window edge exactly at `e`?
    fn edge_required_by_any_query(&self, e: Time) -> bool {
        self.queries
            .iter()
            .any(|q| q.window.measure() == Measure::Time && q.window.requires_edge_at(e))
    }

    // ------------------------------------------------------------------
    // Step 3: the Window Manager
    // ------------------------------------------------------------------

    /// Emits every window that completed in `(last_trigger, wm]`.
    /// `data_pos` is the highest *data* position known to the caller (the
    /// current tuple's timestamp for in-order sweeps, `max_ts` for
    /// watermark sweeps) and bounds the enumeration so flush watermarks
    /// cannot sweep the whole time axis.
    fn trigger_up_to(&mut self, wm: Time, data_pos: Time, out: &mut Vec<WindowResult<A::Output>>) {
        // Deferred index repairs (late runs, finger-tree in-order leaf
        // writes) must land before the sweep queries the store. A no-op
        // when the dirty set is empty.
        self.store.flush_eager_repairs();
        let store = &self.store;
        let f = &self.f;
        let stats = &mut self.stats;
        // Count-space watermark: on in-order streams every processed tuple
        // is final; on out-of-order streams counts below the number of
        // tuples at or before the time watermark are final.
        let count_wm = if !self.chars.has_count_measure {
            0
        } else if self.cfg.order.is_in_order() {
            store.total_count()
        } else {
            store.count_at_or_before(wm)
        };
        // Clamp the sweep to the data extent: windows ending beyond
        // `max_ts + max_extent` are empty by construction, and a flush
        // watermark (e.g. i64::MAX) must not enumerate windows across the
        // whole time axis.
        let max_pos = data_pos.max(self.max_punct);
        if max_pos == TIME_MIN {
            // No data yet: nothing can trigger, and advancing the trigger
            // bookkeeping to an arbitrary watermark would skip windows of
            // data still to come.
            self.swept_once = true;
            return;
        }
        let wm = wm.min(max_pos.saturating_add(self.max_time_extent).saturating_add(1));
        // The first sweep starts from the first data position: windows
        // ending earlier are empty by construction, and enumerating from
        // TIME_MIN would overflow window arithmetic.
        let time_prev = if self.last_trigger_time == TIME_MIN {
            store.first_slice().map_or(wm, |s| s.start()).min(wm)
        } else {
            self.last_trigger_time
        };
        let count_prev = self.last_trigger_count;
        let mut sweep = SweepList::new();
        for q in &mut self.queries {
            let id = q.id;
            match q.window.measure() {
                Measure::Time => {
                    q.window.trigger_windows(time_prev, wm, &mut |range| sweep.push(id, range));
                }
                Measure::Count => {
                    // Results keep query order: the time windows of the
                    // queries before this one go out first.
                    sweep.answer(store, self.per_window_only, false, stats, out);
                    q.window.trigger_windows(count_prev as Time, count_wm as Time, &mut |range| {
                        if let Some(p) = store.query_count(range.start as Count, range.end as Count)
                        {
                            stats.windows_emitted += 1;
                            out.push(WindowResult::new(id, Measure::Count, range, f.lower(&p)));
                        }
                    });
                }
            }
        }
        sweep.answer(store, self.per_window_only, false, stats, out);
        self.last_trigger_time = self.last_trigger_time.max(wm);
        self.last_trigger_count = self.last_trigger_count.max(count_wm);
        self.swept_once = true;
        self.refresh_trigger_caches();
    }

    /// Emits updated aggregates for already-triggered windows affected by a
    /// late tuple at `ts` (within the allowed lateness).
    fn emit_updates(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        // Late-tuple revisions query the store: land deferred repairs.
        self.store.flush_eager_repairs();
        let store = &self.store;
        let f = &self.f;
        let stats = &mut self.stats;
        let wm = self.watermark;
        let count_wm = if self.chars.has_count_measure { store.count_at_or_before(wm) } else { 0 };
        // Every collected window contains `ts`: one pivot group.
        let mut sweep = SweepList::new();
        for q in &mut self.queries {
            let id = q.id;
            match q.window.measure() {
                Measure::Time => {
                    q.window.windows_containing(ts, &mut |range| {
                        if range.end <= wm {
                            sweep.push(id, range);
                        }
                    });
                }
                Measure::Count => {
                    sweep.answer(store, self.per_window_only, true, stats, out);
                    // The count shift affects every already-final window at
                    // or after the insert position, not just the one
                    // containing it.
                    let c_ins = store.count_at_or_before(ts).saturating_sub(1);
                    q.window.trigger_windows(c_ins as Time, count_wm as Time, &mut |range| {
                        if let Some(p) = store.query_count(range.start as Count, range.end as Count)
                        {
                            stats.updates_emitted += 1;
                            out.push(WindowResult::update(id, Measure::Count, range, f.lower(&p)));
                        }
                    });
                }
            }
        }
        sweep.answer(store, self.per_window_only, true, stats, out);
    }

    /// Evicts slices no longer reachable by any window or late update. A
    /// slice is evictable only if **every** registered measure allows it:
    /// time queries bound eviction by `wm - lateness - max_extent` (and by
    /// pending context-aware windows), count queries by the trailing
    /// `max_count_extent` tuple counts.
    fn evict(&mut self, wm: Time) {
        let lateness = if self.cfg.order.is_in_order() { 0 } else { self.cfg.allowed_lateness };
        if self.count_mode() {
            let final_count = self.store.count_at_or_before(wm.saturating_sub(lateness));
            let keep_from = final_count.saturating_sub(self.max_count_extent as u64);
            self.store.evict_keeping_counts(keep_from);
            return;
        }
        let has_time_queries = self.queries.iter().any(|q| q.window.measure() == Measure::Time);
        let k_time = if has_time_queries {
            let mut boundary = wm.saturating_sub(lateness).saturating_sub(self.max_time_extent);
            for q in &self.queries {
                if let Some(pending) = q.window.earliest_pending_start() {
                    boundary = boundary.min(pending);
                }
            }
            self.store.slices().take_while(|s| s.end() <= boundary).count()
        } else {
            self.store.len().saturating_sub(1)
        };
        let k_count = if self.chars.has_count_measure {
            let keep_from = self.store.total_count().saturating_sub(self.max_count_extent as u64);
            self.store.count_evictable(keep_from)
        } else {
            self.store.len()
        };
        self.store.evict_first(k_time.min(k_count));
    }

    // ------------------------------------------------------------------
    // Tuple processing (Figure 7 input path)
    // ------------------------------------------------------------------

    /// Processes one tuple. Emits window results on `out` (in-order
    /// streams emit directly; out-of-order streams emit on watermarks plus
    /// late-update corrections here).
    pub fn process_tuple(
        &mut self,
        ts: Time,
        value: A::Input,
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        self.stats.tuples += 1;
        if ts >= self.max_ts || self.store.is_empty() {
            self.process_in_order(ts, value, out);
        } else {
            self.process_out_of_order(ts, value, out);
        }
    }

    fn process_in_order(
        &mut self,
        ts: Time,
        value: A::Input,
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        let slices_at_entry = self.stats.slices_created;
        // Stream Slicer: cut slices for every window edge at or before ts.
        self.ensure_first_slice(ts);
        self.advance_time_edges(ts);
        self.advance_count_edge_in_order(ts);
        // Slice Manager: context-aware windows may add/remove edges.
        self.notify_context_aware(ts, out);
        // Window Manager: on in-order streams every tuple acts as a
        // watermark carrying its own timestamp (paper Section 5.3, Step 3).
        // Triggering happens *before* the tuple is added: windows ending at
        // or before `ts` never contain it, which keeps start-only slicing
        // correct even when window ends fall between start edges (Cutty's
        // in-order trick) — the open slice holds no tuple at or past any
        // end being triggered.
        let in_order_emit = self.cfg.order.is_in_order();
        if in_order_emit {
            let sweep = self.sweep_always
                || !self.swept_once
                || self.next_trigger_time.is_some_and(|t| ts >= t)
                || self.next_trigger_count.is_some_and(|c| self.store.total_count() >= c);
            if sweep {
                self.trigger_up_to(ts, ts, out);
                self.watermark = ts;
            }
        }
        // Update: the tuple is a run of one into the open slice.
        self.store.add_in_order_run_columns(&[ts], std::slice::from_ref(&value));
        self.max_ts = ts;
        if in_order_emit {
            // Count windows can complete exactly with this tuple; emit them
            // immediately rather than on the next arrival.
            if self.next_trigger_count.is_some_and(|c| self.store.total_count() >= c) {
                self.trigger_up_to(ts, ts, out);
                self.watermark = ts;
            }
            // Evict only when slices were cut this call — eviction work is
            // amortized over slice lifetimes, keeping the per-tuple hot
            // path at one comparison.
            if self.stats.slices_created != slices_at_entry {
                self.evict(ts);
            }
        }
    }

    fn process_out_of_order(
        &mut self,
        ts: Time,
        value: A::Input,
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        self.stats.ooo_tuples += 1;
        debug_assert!(
            self.cfg.order == StreamOrder::OutOfOrder,
            "out-of-order tuple on a stream declared in-order"
        );
        if self.watermark != TIME_MIN
            && ts < self.watermark.saturating_sub(self.cfg.allowed_lateness)
        {
            self.stats.dropped_late += 1;
            return;
        }
        // Slice Manager: context changes first (may split/merge so the
        // tuple's slice exists and is correctly bounded).
        self.notify_context_aware(ts, out);
        if self.count_mode() {
            // If earlier arrivals already filled the open slice to a count
            // edge (the in-order path defers that cut to the next tuple),
            // close it *before* inserting so the boundary exists and the
            // shift cascade below sees correctly sized slices.
            self.advance_count_edge_after_insert();
            let idx = self
                .store
                .covering_index_by_tuples(ts)
                .expect("store cannot be empty when processing an out-of-order tuple");
            self.store.add_out_of_order_run(idx, &[(ts, value)]);
            // Figure 6: restore count alignment by shifting the last tuple
            // of each slice one slice further, starting at the insert
            // slice. A tuple landing in the open (latest) slice needs no
            // shift at all.
            let last = self.store.len() - 1;
            for i in idx..last {
                if self.store.shift_last_into_next(i) {
                    self.stats.shifts += 1;
                }
            }
            // The insert grew the total count; close the open slice if it
            // just reached a count edge.
            self.advance_count_edge_after_insert();
        } else {
            let (idx, _) = self.late_slice_index(ts, None);
            self.store.add_out_of_order_run(idx, &[(ts, value)]);
        }
        // Window Manager: late tuples below the watermark revise emitted
        // windows.
        if self.watermark != TIME_MIN && ts <= self.watermark {
            self.emit_updates(ts, out);
        }
    }

    /// Slice index for a late tuple at `ts` in a time-tiled store (`near`
    /// as in [`SliceStore::covering_search`]). When `ts` falls into a
    /// coverage gap (before the first slice, or between slices after a
    /// bounded insert), a fresh slice is created there — slices at and
    /// after the returned index move up by one, which the second result
    /// reports — bounded by the next window edge and the next slice so it
    /// spans neither.
    fn late_slice_index(&mut self, ts: Time, near: Option<usize>) -> (usize, bool) {
        match self.store.covering_search(ts, near) {
            Ok(idx) => (idx, false),
            Err(next) => {
                let next_slice_start =
                    if next < self.store.len() { self.store.slice(next).start() } else { TIME_MAX };
                let next_edge = self.compute_next_time_edge(ts).unwrap_or(TIME_MAX);
                let end = next_edge.min(next_slice_start);
                debug_assert!(end > ts, "gap slice must cover its tuple");
                let idx = self.store.insert_gap_slice(Range::new(ts, end));
                debug_assert_eq!(idx, next, "gap slice landed off its partition point");
                self.stats.slices_created += 1;
                (idx, true)
            }
        }
    }

    /// Length of the longest prefix of `times[start..]` that can go into
    /// the open slice as one run with exact per-tuple semantics:
    /// consecutive in-order tuples that cross no slice edge, complete no
    /// window, and need no context notification. 0 when the tuple at
    /// `start` must take the per-tuple path.
    fn run_len(&self, times: &[Time], start: usize) -> usize {
        if self.store.is_empty() || self.chars.has_context_aware {
            return 0;
        }
        let in_order_emit = self.cfg.order.is_in_order();
        // The first tuple always sweeps; context-aware and unknown-end
        // windows sweep on every tuple.
        if in_order_emit && (self.sweep_always || !self.swept_once) {
            return 0;
        }
        // Tuples must be in order, inside the open slice (punctuations can
        // cut slices ahead of the data), and strictly below the next slice
        // edge and the next window completion.
        let open_start = self.store.last_slice().map_or(TIME_MAX, |s| s.start());
        let time_trigger = self.next_trigger_time.filter(|_| in_order_emit);
        let bound = self.next_time_edge.unwrap_or(TIME_MAX).min(time_trigger.unwrap_or(TIME_MAX));
        if times[start] < self.max_ts.max(open_start) || times[start] >= bound {
            return 0;
        }
        // Count caps: stop before the next count edge cuts the open slice
        // and before any count window completes (the per-tuple path checks
        // the trigger both before and after the insert, so the run must
        // keep the post-insert count strictly below the trigger).
        // `total_count` walks every live slice, so only pay for it when a
        // count edge or count trigger actually exists.
        let mut cap = times.len() - start;
        let count_trigger = self.next_trigger_count.filter(|_| in_order_emit);
        if self.next_count_edge.is_some() || count_trigger.is_some() {
            let total = self.store.total_count();
            let to_edge = self.next_count_edge.map_or(u64::MAX, |e| e.saturating_sub(total));
            let to_trigger = count_trigger.map_or(u64::MAX, |c| c.saturating_sub(total + 1));
            cap = cast::to_usize(cast::to_u64(cap).min(to_edge).min(to_trigger));
        }
        // The scan stops at the bound itself: finding the sorted prefix
        // first and searching it for the bound reads a sorted batch to its
        // end once per slice edge (0.68× on `query_heavy`).
        column_run_len(&times[start..start + cap], bound)
    }

    /// Whether late tuples can be deferred into the late batch and
    /// applied slice by slice at the end of the batch call: per-tuple
    /// processing must touch exactly one covering slice and emit nothing.
    /// That takes a declared out-of-order stream (late tuples only emit
    /// on watermarks), time-tiled slices (the count-measure Figure-6
    /// shift cascades across slices), no context-aware windows (their
    /// per-tuple notifications can split/merge) — none of which changes
    /// within a batch, so the loop asks once — and, per tuple, a
    /// non-empty store and a timestamp strictly above the watermark (at
    /// or below it the tuple revises emitted windows *immediately* via
    /// `emit_updates`).
    fn defer_config_ok(&self) -> bool {
        self.cfg.order == StreamOrder::OutOfOrder
            && !self.count_mode()
            && !self.chars.has_context_aware
    }

    /// Attributes one run folded by [`AggregateFunction::fold_slice`] to
    /// the kernel or fallback counter.
    fn count_fold(&mut self) {
        if self.f.has_fold_kernel() {
            self.stats.fold_kernel_hits += 1;
        } else {
            self.stats.fold_kernel_misses += 1;
        }
    }

    /// Defers a late tuple: appends it to the open run of its covering
    /// slice. The memo is probed without branching on which entry
    /// matches — the slice alternates unpredictably from tuple to tuple —
    /// by the one-compare interval test (`ts - start < width` unsigned:
    /// a too-small `ts` wraps to a huge value). Slices are disjoint, so
    /// at most one entry matches; the weighted sum of the match flags of
    /// entries 1–3 is its number, or 0, which the one branch then checks.
    /// The miss stays out of line: with it inlined here, this function
    /// was itself too large to inline and cost the batch loop a call with
    /// six saved registers per late tuple.
    #[inline(always)]
    fn defer_late(&mut self, late: &mut LateBatch<A::Input>, ts: Time, value: &A::Input) {
        let hit = |k: usize| (ts.wrapping_sub(late.memo_start[k]) as u64) < late.memo_width[k];
        let mut k = usize::from(hit(1)) + 2 * usize::from(hit(2)) + 3 * usize::from(hit(3));
        if !hit(k) {
            k = self.resolve_late(late, ts);
        }
        late.memo_last = k;
        late.times[k].push(ts);
        late.values[k].push(value.clone());
    }

    /// Ends the run of the memo entry next in turn, refills the entry
    /// with the slice covering `ts` — creating a gap slice if none does —
    /// and returns it. The slice of the entry used last is handed to the
    /// search as a known position: a sorted burst steps to the
    /// neighbouring slice, a straggler lands near an interpolated guess,
    /// and neither walks the slice deque.
    #[cold]
    #[inline(never)]
    fn resolve_late(&mut self, late: &mut LateBatch<A::Input>, ts: Time) -> usize {
        let last = late.memo_last;
        let near = (late.memo_width[last] > 0).then(|| cast::idx32(late.memo_slot[last]));
        let (idx, inserted) = self.late_slice_index(ts, near);
        if inserted {
            // Slices at and after the gap slice moved up by one.
            let from = cast::slot32(idx);
            let runs = late.runs.iter_mut().map(|r| &mut r.slot);
            for slot in runs.chain(&mut late.memo_slot) {
                *slot += u32::from(*slot >= from);
            }
        }
        let k = late.memo_next;
        late.memo_next = (k + 1) % late.memo_slot.len();
        late.end_run(k);
        let s = self.store.slice(idx);
        late.memo_start[k] = s.start();
        late.memo_width[k] = s.end().wrapping_sub(s.start()) as u64;
        late.memo_slot[k] = cast::slot32(idx);
        k
    }

    /// Applies the deferred late tuples: one store write per covering
    /// slice, in ascending slice order, then one flush (which repairs a
    /// finger tree's dirty spine once).
    ///
    /// The runs are sorted by slice ([`LateBatch::sort_runs`]: a stable
    /// counting sort, runs per slice → starts → scatter of the 16-byte
    /// run records); their tuples stay where deferral put them. With
    /// tuples dropped and a commutative ⊕ nothing observes the order late
    /// tuples were folded in: a slice folds each of its runs through the
    /// bulk kernel — one run, almost always — and becomes one
    /// [`SliceStore::add_out_of_order_partial`]. Otherwise its runs are
    /// gathered in the order they were opened, stable-sorted by timestamp
    /// and written as one [`SliceStore::add_out_of_order_run`]. k late
    /// tuples in r runs over m slices cost k appends, an O(r + min(hull,
    /// 256)) sorting pass (two for a hull of thousands of slices) and m
    /// slice writes, each one index leaf write.
    ///
    /// Deferral preserves per-tuple semantics: deferred tuples emit
    /// nothing (they sit above the watermark), in-order appends mid-batch
    /// only add slices behind all existing ones, a gap insert shifts the
    /// recorded indices with it, and equal timestamps keep arrival order
    /// — a run is in arrival order, the runs of one slice were open one
    /// after the other, the timestamp sort is stable — so each slice gets
    /// the same tuples in the same tie order as on the per-tuple path.
    fn flush_late(&mut self) {
        let Some(mut late) = self.late.take() else { return };
        (0..late.memo_slot.len()).for_each(|k| late.end_run(k));
        if late.runs.is_empty() {
            self.late = Some(late);
            return;
        }
        late.sort_runs();
        let prefold = self.f.properties().commutative && !self.store.keeps_tuples();
        let LateBatch { times, values, runs, pairs, .. } = &mut *late;
        for of_slice in runs.chunk_by(|a, b| a.slot == b.slot) {
            let idx = cast::idx32(of_slice[0].slot);
            self.stats.late_slices += 1;
            let columns = of_slice.iter().map(|r| {
                let (col, at) = (cast::idx32(r.col), cast::idx32(r.start)..cast::idx32(r.end));
                (&times[col][at.clone()], &values[col][at])
            });
            if prefold {
                let mut folded: Option<A::Partial> = None;
                let (mut t_first, mut t_last, mut len) = (TIME_MAX, TIME_MIN, 0);
                for (times, values) in columns {
                    self.count_fold();
                    let partial = self.f.fold_slice(values);
                    folded = self.f.combine_opt(folded, partial.as_ref());
                    for &t in times {
                        (t_first, t_last) = (t_first.min(t), t_last.max(t));
                    }
                    len += times.len();
                }
                if let Some(p) = folded {
                    self.store.add_out_of_order_partial(idx, p, t_first, t_last, len);
                }
            } else {
                pairs.clear();
                for (times, values) in columns {
                    pairs.extend(times.iter().copied().zip(values.iter().cloned()));
                }
                pairs.sort_by_key(|&(t, _)| t);
                self.store.add_out_of_order_run(idx, pairs);
            }
        }
        late.pairs.clear();
        late.times.iter_mut().for_each(Vec::clear);
        late.values.iter_mut().for_each(Vec::clear);
        late.open_from = [0; 4];
        late.runs.clear();
        late.memo_width = [0; 4];
        self.late = Some(late);
        self.store.flush_eager_repairs();
    }

    /// Applies the rest of a batch in two bulk halves. One branchless
    /// pass splits it into its in-order subsequence — the tuples at or
    /// above the running maximum, as `max_ts` classifies them per tuple —
    /// and the late rest (at 50 % late a late/in-order branch is
    /// mispredicted every other tuple). The in-order tuples are gathered
    /// into columns and committed run by run, cut at slice edges exactly
    /// where the per-tuple slicer cuts; the late ones are then deferred
    /// in arrival order. The passes cost every tuple about what
    /// [`run_len`](Self::run_len) and a store touch cost a whole stretch,
    /// so the batch loop comes here only once stretches are short.
    ///
    /// The caller has checked [`defer_config_ok`](Self::defer_config_ok):
    /// an in-order tuple emits nothing and only appends slices at the
    /// head, and writing late tuples after the in-order ones is the order
    /// deferral produces anyway. A late tuple lies below some committed
    /// in-order tuple, hence below the open slice's end, so it resolves
    /// to the same covering slice after the commits as before them.
    ///
    /// Returns `false`, having applied nothing, when the open slice does
    /// not cover the stream head (a punctuation can cut slices ahead of
    /// the data) or a late tuple lies at or below the watermark: that one
    /// revises emitted windows the moment it arrives.
    fn partition_rest(&mut self, times: &[Time], values: &[A::Input]) -> bool {
        if self.store.last_slice().is_none_or(|s| s.start() > self.max_ts) {
            return false;
        }
        let Some(mut late) = self.late.take() else { return false };
        let len = times.len();
        debug_assert!(u32::try_from(len).is_ok(), "batch exceeds u32 index space");
        let mut idx = std::mem::take(&mut late.part_idx);
        if idx.len() < len {
            idx.resize(len, 0);
        }
        // Two unconditional stores per tuple: in-order positions fill
        // `idx` from the front, late ones from the back (so the late half
        // ends up at `[len - lk, len)` in reverse arrival order), and only
        // the counters depend on the data.
        let (mut ik, mut lk) = (0, 0);
        let (mut prev, mut min_late) = (self.max_ts, TIME_MAX);
        for (j, &ts) in times.iter().enumerate() {
            let is_late = ts < prev;
            prev = prev.max(ts);
            min_late = min_late.min(if is_late { ts } else { TIME_MAX });
            idx[ik] = j as u32;
            idx[len - 1 - lk] = j as u32;
            ik += usize::from(!is_late);
            lk += usize::from(is_late);
        }
        let applies = min_late > self.watermark;
        if applies {
            // In-order half: one gather pass, then bulk run commits.
            let (head_times, head_values) = &mut late.head;
            head_times.extend(idx[..ik].iter().map(|&j| times[cast::idx32(j)]));
            head_values.extend(idx[..ik].iter().map(|&j| values[cast::idx32(j)].clone()));
            let mut a = 0;
            while a < ik {
                let b = match self.next_time_edge {
                    Some(edge) => a + head_times[a..].partition_point(|&t| t < edge),
                    None => ik,
                };
                if b == a {
                    // `head_times[a]` is at or past the cached edge: cut
                    // slices first. Afterwards the next edge lies
                    // strictly beyond it, so the next run is non-empty.
                    self.advance_time_edges(head_times[a]);
                    continue;
                }
                self.count_fold();
                self.store.add_in_order_run_columns(&head_times[a..b], &head_values[a..b]);
                a = b;
            }
            self.max_ts = prev;
            head_times.clear();
            head_values.clear();
            // Late half, in arrival order.
            for &j in idx[len - lk..len].iter().rev() {
                let j = cast::idx32(j);
                self.defer_late(&mut late, times[j], &values[j]);
            }
            self.stats.tuples += len as u64;
            self.stats.ooo_tuples += lk as u64;
        }
        late.part_idx = idx;
        self.late = Some(late);
        applies
    }

    /// Pair-layout entry point: unzips the batch into scratch columns and
    /// hands them to [`WindowOperator::process_batch_columns`].
    pub fn process_batch_tuples(
        &mut self,
        batch: &[(Time, A::Input)],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        let late = self.late.get_or_insert_with(|| Box::new(LateBatch::new()));
        let (mut times, mut values) = std::mem::take(&mut late.unzipped);
        times.extend(batch.iter().map(|&(ts, _)| ts));
        values.extend(batch.iter().map(|(_, value)| value.clone()));
        self.process_batch_columns(&times, &values, out);
        times.clear();
        values.clear();
        self.late.as_mut().expect("set above, put back by every flush").unzipped = (times, values);
    }

    /// Processes a batch given as parallel `times` / `values` columns (the
    /// stream layer's chunk layout), with emission points and results
    /// identical to per-tuple processing. One loop:
    ///
    /// * a monotone stretch that crosses no slice edge, completes no
    ///   window and needs no context notification
    ///   (`run_len`) goes into the open slice straight
    ///   from the columns with a single store touch (one fold through the
    ///   bulk kernel + ⊕, one tuple-storage append, one eager-leaf
    ///   refresh);
    /// * an eligible late tuple (`defer_config_ok`)
    ///   is deferred and written with its slice's other late tuples when
    ///   the call ends (`flush_late`) — stretches
    ///   commit at once, so it never waits on a pending append;
    /// * everything else — tuples at slice edges, window completions,
    ///   below-watermark stragglers, count-measure shifts — takes
    ///   [`process_tuple`](Self::process_tuple);
    /// * once the late share seen in this batch says stretches are short
    ///   (`PARTITION_SHARE`), the rest of the batch is partitioned and
    ///   applied in bulk (`partition_rest`).
    ///
    /// # Panics
    /// When the columns differ in length; nothing has been applied then.
    pub fn process_batch_columns(
        &mut self,
        times: &[Time],
        values: &[A::Input],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        assert_eq!(times.len(), values.len(), "batch columns differ in length");
        let defer_ok = self.defer_config_ok();
        let mut may_partition = true;
        // Deferred tuples are counted in a local and land in `stats` once
        // per batch; nothing observes `stats` mid-batch.
        let mut late = 0u64;
        let mut i = 0;
        while i < times.len() {
            let ts = times[i];
            if ts >= self.max_ts {
                let n = self.run_len(times, i);
                if n == 0 {
                    // A run breaker (slice edge, window completion, count
                    // cap, first tuple). No late flush is needed: on an
                    // out-of-order stream an in-order tuple only cuts or
                    // appends slices and triggers nothing a deferred late
                    // tuple could affect.
                    self.process_tuple(ts, values[i].clone(), out);
                    i += 1;
                    continue;
                }
                self.count_fold();
                self.store.add_in_order_run_columns(&times[i..i + n], &values[i..i + n]);
                self.max_ts = times[i + n - 1];
                self.stats.tuples += n as u64;
                i += n;
            } else if defer_ok && ts > self.watermark && !self.store.is_empty() {
                late += 1;
                let mut pending = self.late.take().unwrap_or_else(|| Box::new(LateBatch::new()));
                self.defer_late(&mut pending, ts, &values[i]);
                self.late = Some(pending);
                i += 1;
                let fewer = late.min(i as u64 - late);
                if may_partition
                    && fewer >= PARTITION_MIN_SEEN
                    && fewer * PARTITION_SHARE > i as u64
                {
                    if self.partition_rest(&times[i..], &values[i..]) {
                        break;
                    }
                    may_partition = false;
                }
            } else {
                // A below-watermark straggler, count-measure query, or
                // context-aware query: write the deferred tuples so that
                // per-tuple processing sees final state.
                self.flush_late();
                self.process_tuple(ts, values[i].clone(), out);
                i += 1;
            }
        }
        self.stats.tuples += late;
        self.stats.ooo_tuples += late;
        self.flush_late();
    }

    /// Processes a stream punctuation (FCF windows, paper Section 4.4).
    pub fn process_punctuation(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        self.max_punct = self.max_punct.max(ts);
        if self.store.is_empty() {
            self.ensure_first_slice(ts);
        }
        self.advance_time_edges(ts);
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        for q in &mut self.queries {
            q.window.on_punctuation(ts, &mut edges);
        }
        self.apply_edges(&edges, out);
        self.edges = edges;
        if self.cfg.order.is_in_order() {
            self.trigger_up_to(ts, self.max_ts.max(ts), out);
            self.watermark = ts;
        }
    }

    /// Processes a watermark: emits completed windows and evicts state.
    pub fn process_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        if wm <= self.watermark {
            return;
        }
        self.trigger_up_to(wm, self.max_ts, out);
        self.watermark = wm;
        self.evict(wm);
    }

    // ------------------------------------------------------------------
    // Intra-query parallel merge stage (beyond the paper)
    // ------------------------------------------------------------------

    /// Combines one worker-local slice partial into the authoritative
    /// store — the merge stage of the intra-query parallel path.
    ///
    /// The caller's eligibility check guarantees: a commutative function,
    /// time-measure context-free windows with static edges (so
    /// `[part.start, part.end)` is the same span every worker derives —
    /// it either matches an existing slice exactly or fills a coverage
    /// gap without straddling a boundary), an out-of-order config, and no
    /// tuple storage. Partials at or below the current watermark are
    /// straggler singletons and revise already-emitted windows, exactly
    /// like the sequential out-of-order path.
    ///
    /// Index repairs are *deferred*; the one caller,
    /// [`merge_parallel_partials`](Self::merge_parallel_partials), flushes
    /// them once per run.
    fn add_parallel_partial(
        &mut self,
        part: SlicePartial<A>,
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        debug_assert!(
            self.f.properties().commutative,
            "parallel merge requires a commutative function"
        );
        debug_assert!(
            !self.chars.requires_tuple_storage() && !self.cfg.force_tuple_storage,
            "parallel merge requires dropped tuples (partials carry none)"
        );
        debug_assert!(!self.count_mode(), "parallel merge requires time-measure windows");
        let SlicePartial { start, end, partial, t_first, t_last, n } = part;
        debug_assert!(start <= t_first && t_first <= t_last && t_last < end);
        let idx = match self.store.covering_index(t_first) {
            Some(i) => i,
            None => {
                let idx = self.store.insert_gap_slice(Range::new(start, end));
                self.stats.slices_created += 1;
                idx
            }
        };
        self.store.add_out_of_order_partial(idx, partial, t_first, t_last, cast::to_usize(n));
        self.stats.tuples += n;
        self.max_ts = self.max_ts.max(t_last);
        // Window Manager: a partial at or below the watermark is a late
        // straggler — revise the windows that already fired. Grouped
        // partials never take this branch: workers group only tuples
        // above their watermark, and the merge protocol applies a group
        // before the global watermark passes it.
        if self.watermark != TIME_MIN && t_first <= self.watermark {
            self.emit_updates(t_first, out);
        }
    }

    /// Merges a run of worker-local slice partials, in the given order,
    /// into the authoritative store — the only way a [`SlicePartial`]
    /// enters the operator. A partial whose span is already a slice
    /// combines into it; one over a coverage gap inserts its span. A
    /// partial at or below the watermark is a straggler and emits its
    /// window updates at once. The eager-store repair runs once per call.
    pub fn merge_parallel_partials(
        &mut self,
        parts: impl IntoIterator<Item = SlicePartial<A>>,
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        for p in parts {
            self.add_parallel_partial(p, out);
        }
        self.store.flush_eager_repairs();
    }
}

impl<A: AggregateFunction> Clone for WindowOperator<A> {
    /// Deep-copies the complete operator state — slices, aggregates,
    /// window context, watermarks, and bookkeeping. A clone is a
    /// **checkpoint**: persist it (or keep it on a standby) and resume
    /// processing from the captured position for Flink-style recovery;
    /// both copies evolve independently afterwards.
    fn clone(&self) -> Self {
        WindowOperator {
            f: self.f.clone(),
            cfg: self.cfg,
            queries: self.queries.clone(),
            next_query_id: self.next_query_id,
            chars: self.chars,
            store: self.store.clone(),
            next_time_edge: self.next_time_edge,
            next_count_edge: self.next_count_edge,
            max_ts: self.max_ts,
            max_punct: self.max_punct,
            watermark: self.watermark,
            last_trigger_time: self.last_trigger_time,
            last_trigger_count: self.last_trigger_count,
            max_time_extent: self.max_time_extent,
            max_count_extent: self.max_count_extent,
            next_trigger_time: self.next_trigger_time,
            next_trigger_count: self.next_trigger_count,
            sweep_always: self.sweep_always,
            swept_once: self.swept_once,
            per_window_only: self.per_window_only,
            stats: self.stats,
            // Scratch is dead between calls; a checkpoint does not need it.
            late: None,
            context_aware: self.context_aware.clone(),
            edges: self.edges.clone(),
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for WindowOperator<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        self.process_tuple(ts, value, out);
    }

    fn process_batch(
        &mut self,
        batch: &[(Time, A::Input)],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        self.process_batch_tuples(batch, out);
    }

    fn process_batch_columns(
        &mut self,
        times: &[Time],
        values: &[A::Input],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        WindowOperator::process_batch_columns(self, times, values, out);
    }

    fn fold_stats(&self) -> (u64, u64) {
        (self.stats.fold_kernel_hits, self.stats.fold_kernel_misses)
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        self.process_watermark(wm, out);
    }

    fn on_punctuation(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        self.process_punctuation(ts, out);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.store.heap_bytes()
    }

    fn name(&self) -> &'static str {
        match self.cfg.policy {
            StorePolicy::Lazy => "Lazy Slicing",
            StorePolicy::Eager => "Eager Slicing",
            StorePolicy::FingerTree => "Finger-Tree Slicing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{SumI64, TumblingStub};

    fn op_in_order() -> WindowOperator<SumI64> {
        let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
        op.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
        op
    }

    fn op_ooo(lateness: Time) -> WindowOperator<SumI64> {
        let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(lateness));
        op.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
        op
    }

    #[test]
    fn in_order_emits_per_window() {
        let mut op = op_in_order();
        let mut out = Vec::new();
        for ts in [1, 5, 12, 25] {
            op.process_tuple(ts, 1, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].range, Range::new(0, 10));
        assert_eq!(out[0].value, 2);
        assert_eq!(out[1].range, Range::new(10, 20));
        assert_eq!(out[1].value, 1);
    }

    #[test]
    fn watermark_regression_is_ignored() {
        let mut op = op_ooo(100);
        let mut out = Vec::new();
        op.process_tuple(5, 5, &mut out);
        op.process_tuple(25, 25, &mut out);
        op.process_watermark(20, &mut out);
        let n = out.len();
        op.process_watermark(10, &mut out); // regressing watermark: no-op
        op.process_watermark(20, &mut out); // repeated: no-op
        assert_eq!(out.len(), n);
        assert_eq!(op.current_watermark(), 20);
    }

    #[test]
    fn flush_watermark_emits_everything_without_looping() {
        let mut op = op_ooo(100);
        let mut out = Vec::new();
        op.process_tuple(5, 5, &mut out);
        op.process_tuple(95, 95, &mut out);
        // A flush watermark at i64::MAX must clamp to the data extent.
        op.process_watermark(i64::MAX - 1, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 5);
        assert_eq!(out[1].value, 95);
    }

    #[test]
    fn watermark_before_any_data_does_not_skip_later_windows() {
        let mut op = op_ooo(100);
        let mut out = Vec::new();
        op.process_watermark(1_000_000, &mut out);
        assert!(out.is_empty());
        op.process_tuple(2_000_000, 7, &mut out);
        op.process_watermark(2_000_011, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 7);
    }

    #[test]
    fn stats_track_processing() {
        let mut op = op_ooo(100);
        let mut out = Vec::new();
        op.process_tuple(5, 1, &mut out);
        op.process_tuple(15, 1, &mut out);
        op.process_tuple(7, 1, &mut out); // out of order
        op.process_watermark(20, &mut out);
        let s = op.stats();
        assert_eq!(s.tuples, 3);
        assert_eq!(s.ooo_tuples, 1);
        assert_eq!(s.dropped_late, 0);
        assert!(s.slices_created >= 2);
        assert_eq!(s.windows_emitted, 2);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut op = op_in_order();
        let mut out = Vec::new();
        op.process_tuple(5, 5, &mut out);
        op.process_tuple(95, 95, &mut out); // 8 empty windows in between
        assert_eq!(out.len(), 1, "only the nonempty window [0,10) fires");
        assert_eq!(out[0].value, 5);
    }

    #[test]
    fn query_removal_stops_emissions() {
        let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
        let q = op.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
        let mut out = Vec::new();
        op.process_tuple(5, 5, &mut out);
        assert!(op.remove_query(q));
        op.process_tuple(25, 25, &mut out);
        op.process_tuple(45, 45, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_timestamps_accumulate_in_order() {
        let mut op = op_in_order();
        let mut out = Vec::new();
        for _ in 0..5 {
            op.process_tuple(3, 1, &mut out);
        }
        op.process_tuple(12, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 5);
    }

    #[test]
    fn force_tuple_storage_ablation_flag() {
        let cfg = OperatorConfig { force_tuple_storage: true, ..Default::default() };
        let mut op = WindowOperator::new(SumI64, cfg);
        op.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
        let mut out = Vec::new();
        op.process_tuple(1, 1, &mut out);
        assert!(op.store().keeps_tuples());
        // The adaptive decision for this workload would be to drop them.
        assert!(!op.characteristics().requires_tuple_storage());
    }

    #[test]
    fn lateness_boundary_is_inclusive_of_allowed_updates() {
        let mut op = op_ooo(10);
        let mut out = Vec::new();
        op.process_tuple(5, 5, &mut out);
        op.process_tuple(40, 40, &mut out);
        op.process_watermark(30, &mut out);
        out.clear();
        // Exactly at watermark - lateness: still allowed.
        op.process_tuple(20, 20, &mut out);
        assert_eq!(op.stats().dropped_late, 0);
        // Below it: dropped.
        op.process_tuple(19, 19, &mut out);
        assert_eq!(op.stats().dropped_late, 1);
    }

    #[test]
    fn operator_reports_memory() {
        let mut op = op_in_order();
        let m0 = op.memory_bytes();
        let mut out = Vec::new();
        for i in 0..1_000 {
            op.process_tuple(i, 1, &mut out);
        }
        assert!(op.memory_bytes() >= m0);
        assert_eq!(op.name(), "Lazy Slicing");
        let eager: WindowOperator<SumI64> =
            WindowOperator::new(SumI64, OperatorConfig::in_order().with_policy(StorePolicy::Eager));
        assert_eq!(eager.name(), "Eager Slicing");
    }

    /// Drives `batches` (a watermark after each) per tuple and batched
    /// on every store and checks the two emit the same results.
    fn check_late_batches<A>(f: A, batches: &[(Vec<(Time, i64)>, Time)]) -> OperatorStats
    where
        A: AggregateFunction<Input = i64> + Clone,
        A::Output: PartialEq + std::fmt::Debug,
    {
        let mut stats = OperatorStats::default();
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
            let cfg = OperatorConfig::out_of_order(10_000).with_policy(policy);
            let mut per_tuple = WindowOperator::new(f.clone(), cfg);
            let mut batched = WindowOperator::new(f.clone(), cfg);
            per_tuple.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
            batched.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            for (batch, wm) in batches {
                for &(ts, v) in batch {
                    per_tuple.process_tuple(ts, v, &mut out_a);
                }
                batched.process_batch_tuples(batch, &mut out_b);
                per_tuple.process_watermark(*wm, &mut out_a);
                batched.process_watermark(*wm, &mut out_b);
            }
            let key = |r: &WindowResult<A::Output>| (r.query, r.range, r.is_update);
            assert_eq!(out_a.len(), out_b.len(), "{policy:?}");
            for (a, b) in out_a.iter().zip(&out_b) {
                assert_eq!((key(a), &a.value), (key(b), &b.value), "{policy:?}");
            }
            assert_eq!(per_tuple.slice_count(), batched.slice_count(), "{policy:?}");
            let (a, b) = (per_tuple.stats(), batched.stats());
            assert_eq!(
                (a.tuples, a.ooo_tuples, a.dropped_late),
                (b.tuples, b.ooo_tuples, b.dropped_late),
                "{policy:?}"
            );
            stats = *b;
        }
        stats
    }

    #[test]
    fn batched_ooo_grouping_matches_per_tuple() {
        // In-order spine with interleaved late tuples, including ties,
        // a coverage gap (nothing in [40,50) until the late 44), and a
        // below-watermark straggler after the first watermark.
        let batches = [
            (vec![(5, 5), (50, 1), (12, 12), (44, 44), (12, 120), (55, 2), (3, 30)], 20),
            (vec![(60, 6), (14, 140), (58, 3)], 100),
        ];
        check_late_batches(SumI64, &batches);
    }

    #[test]
    fn partitioned_rest_of_a_batch_matches_per_tuple() {
        // In-order spine establishing slices up to [100, 110).
        let spine = [5, 7, 12, 18, 23, 31, 44, 57, 68, 101].iter().map(|&t| (t, 1)).collect();
        let numbered = |ts: &[Time]| ts.iter().zip(1..).map(|(&t, v)| (t, v)).collect::<Vec<_>>();
        // Four in-order and four late tuples hand the rest to the
        // partition: it cuts slices in order (112, 131) and defers late
        // tuples over three more covering slices, in neither slice nor
        // time order, two of them tied with an earlier one.
        let wide =
            numbered(&[105, 106, 107, 110, 55, 62, 75, 83, 91, 112, 96, 71, 131, 96, 88, 71, 133]);
        // The rest after 138 holds a tuple below the watermark (50), so
        // it is not partitioned: the loop goes on stretch by stretch and
        // the straggler revises emitted windows once everything before it
        // has been written.
        let straggler =
            numbered(&[140, 141, 142, 143, 135, 136, 137, 138, 150, 139, 50, 151, 141, 160, 142]);
        let batches = [(spine, 50), (wide, 100), (straggler, 300)];
        let stats = check_late_batches(SumI64, &batches);
        assert_eq!(stats.updates_emitted, 1);
        // Tuple-keeping, order-sensitive fold.
        check_late_batches(crate::testsupport::Concat, &batches);
    }

    #[test]
    fn gap_slices_inserted_mid_batch_keep_resolved_buckets_valid() {
        // The stream starts at 100, so the late tuples at 95.. and 50..
        // each need a gap slice *in front of* slices that earlier late
        // tuples of the same batch already resolved to: [95, 100) moves
        // nothing yet, [50, 60) then moves the buckets of 95 and 103 up.
        let batches = [
            (vec![(100, 1)], 0),
            (vec![(105, 2), (95, 3), (103, 4), (50, 5), (97, 6), (52, 7), (101, 8), (120, 9)], 40),
            (vec![(130, 1), (75, 2), (131, 3), (55, 4), (76, 5)], 200),
        ];
        let stats = check_late_batches(SumI64, &batches);
        // Second batch: [50, 60), [95, 100), [100, 110); third: [50, 60)
        // and the new gap slice [75, 80).
        assert_eq!(stats.late_slices, 5);
        // Tuple-keeping, order-sensitive fold: the sorted-run write.
        check_late_batches(crate::testsupport::Concat, &batches);
    }

    #[test]
    fn late_runs_sort_across_a_hull_wider_than_one_pass() {
        // 700 slices; the late tuples touch a hull of 697, so the runs
        // sort in two passes. Slices 2 and 258 agree in the first pass's
        // bits, and slices 2, 258 and 300 each come back after four
        // others pushed them out of the memo (two runs to one slice).
        let spine: Vec<(Time, i64)> = (0..700).map(|i| (i * 10, 1)).collect();
        let late = [25, 6_985, 3_001, 2_585, 4_444, 5_120, 21, 3_007, 29, 6_981, 3_003, 2_581];
        let late: Vec<(Time, i64)> = late.iter().zip(1..).map(|(&t, v)| (t, v)).collect();
        let batches = [(spine, 0), ([vec![(7_000, 1)], late, vec![(7_001, 1)]].concat(), 8_000)];
        let stats = check_late_batches(SumI64, &batches);
        assert_eq!((stats.ooo_tuples, stats.late_slices), (12, 6));
        check_late_batches(crate::testsupport::Concat, &batches);
    }

    #[test]
    #[should_panic(expected = "batch columns differ in length")]
    fn unequal_batch_columns_are_rejected() {
        let mut op = op_ooo(100);
        op.process_batch_columns(&[1, 2], &[1, 2, 3], &mut Vec::new());
    }

    #[test]
    fn collect_helpers_allocate_results() {
        let mut op = op_in_order();
        assert!(op.process_collect(5, 5).is_empty());
        let results = op.process_collect(15, 15);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].value, 5);
        // An explicit watermark also works on in-order streams and flushes
        // the still-open window [10, 20).
        let flushed = op.watermark_collect(100);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].value, 15);
    }
}
