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

use crate::aggregator::WindowAggregator;
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
    /// Ablation switch: disable the out-of-order batch path (slice-grouped
    /// late runs + deferred FlatFAT repair), so every late tuple takes the
    /// per-tuple path as in the original batched fast path. Used to
    /// measure the value of late-run grouping; never needed in production.
    pub disable_ooo_batching: bool,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        OperatorConfig {
            order: StreamOrder::InOrder,
            policy: StorePolicy::Lazy,
            allowed_lateness: 0,
            force_tuple_storage: false,
            force_end_edges: false,
            disable_ooo_batching: false,
        }
    }
}

impl OperatorConfig {
    pub fn in_order() -> Self {
        Self::default()
    }

    pub fn out_of_order(allowed_lateness: Time) -> Self {
        OperatorConfig {
            order: StreamOrder::OutOfOrder,
            policy: StorePolicy::Lazy,
            allowed_lateness,
            ..Default::default()
        }
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
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::MixedMeasuresOutOfOrder => write!(
                f,
                "count-measure and time-measure queries cannot be mixed on an \
                 out-of-order stream"
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
    /// Bulk runs folded through the default lift/combine loop (no kernel,
    /// or the run was too short to amortize a gather).
    pub fold_kernel_misses: u64,
}

/// Index bits per pass of [`LateBatch::sort_runs`]: 256 four-byte
/// counters are 1 KB of L1, and a hull below 256 slices sorts in one pass.
const RUN_SORT_BITS: u32 = 8;
const RUN_SORT_BUCKETS: usize = 1 << RUN_SORT_BITS;

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

/// Read-only view over one ingestion batch, abstracting its memory
/// layout: array-of-structs (`&[(Time, V)]`, the classic `process_batch`
/// input) or struct-of-arrays (parallel `times` / `values` columns from
/// the stream layer's columnar chunks). Batch processing is generic over
/// the view, so both layouts share the run-detection and deferral logic
/// while the SoA layout feeds bulk fold kernels without re-materializing
/// tuple pairs.
trait BatchView<V> {
    fn len(&self) -> usize;
    fn ts(&self, i: usize) -> Time;
    fn value(&self, i: usize) -> &V;
    /// Bulk-appends `[from, to)` onto the run buffer's columns.
    fn extend_columns(&self, from: usize, to: usize, times: &mut Vec<Time>, values: &mut Vec<V>);
}

impl<V: Clone> BatchView<V> for &[(Time, V)] {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn ts(&self, i: usize) -> Time {
        self[i].0
    }
    fn value(&self, i: usize) -> &V {
        &self[i].1
    }
    fn extend_columns(&self, from: usize, to: usize, times: &mut Vec<Time>, values: &mut Vec<V>) {
        times.extend(self[from..to].iter().map(|&(t, _)| t));
        values.extend(self[from..to].iter().map(|(_, v)| v.clone()));
    }
}

/// The struct-of-arrays batch view: parallel timestamp/value columns.
struct ColumnsView<'a, V> {
    times: &'a [Time],
    values: &'a [V],
}

impl<V: Clone> BatchView<V> for ColumnsView<'_, V> {
    fn len(&self) -> usize {
        self.times.len()
    }
    fn ts(&self, i: usize) -> Time {
        self.times[i]
    }
    fn value(&self, i: usize) -> &V {
        &self.values[i]
    }
    fn extend_columns(&self, from: usize, to: usize, times: &mut Vec<Time>, values: &mut Vec<V>) {
        times.extend_from_slice(&self.times[from..to]);
        values.extend_from_slice(&self.values[from..to]);
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
    /// Scratch of the batch calls' late path, allocated by the first batch
    /// that defers a late tuple; empty between calls. Taken out and put
    /// back around each use: held in a local across the generic batch
    /// loop, its drop glue cost a quarter of the in-order throughput.
    late: Option<Box<LateBatch<A::Input>>>,
    /// In-order tuples accumulated within one `process_batch_tuples` call
    /// but not yet applied, stored struct-of-arrays: deferring the store
    /// touch lets a run span deferred late singles (the batch's in-order
    /// partition), so disorder does not shorten runs, and the values
    /// column stays contiguous so the commit feeds the bulk fold kernel
    /// directly. Always empty between calls.
    run_times: Vec<Time>,
    run_values: Vec<A::Input>,
    /// Scratch index columns for the finger-store batch fast path's
    /// branchless partition (`process_batch_fast`): in-order positions
    /// from the front, late positions from the back in reverse arrival
    /// order. Contents are dead between calls; the allocation is reused.
    part_idx: Vec<u32>,
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
            run_times: Vec::new(),
            run_values: Vec::new(),
            part_idx: Vec::new(),
            context_aware: Vec::new(),
            edges: ContextEdges::new(),
        }
    }

    /// Registers a window query. The operator re-derives its workload
    /// characteristics and adapts storage decisions (paper Section 5:
    /// "our aggregator adapts when one adds or removes queries").
    pub fn add_query(&mut self, window: Box<dyn WindowFunction>) -> Result<QueryId, QueryError> {
        if self.cfg.order == StreamOrder::OutOfOrder {
            let new_measure = window.measure();
            if self.queries.iter().any(|q| q.window.measure() != new_measure) {
                return Err(QueryError::MixedMeasuresOutOfOrder);
            }
        }
        let id = self.next_query_id;
        self.next_query_id += 1;
        self.queries.push(Query::new(id, window));
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
        // Update: one incremental ⊕ into the open slice.
        self.store.add_in_order(ts, value);
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
        if self.watermark != TIME_MIN && ts < self.watermark - self.cfg.allowed_lateness {
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
            self.store.add_out_of_order(idx, ts, value);
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
            self.store.add_out_of_order(idx, ts, value);
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

    /// Buffers the longest prefix of `batch[start..]` that can be
    /// ingested as one run into the open slice with exact per-tuple
    /// semantics — consecutive in-order tuples that cross no slice edge,
    /// complete no window, and need no context notification — into
    /// the run-buffer columns and returns its length. Returns 0
    /// (buffering nothing) when the tuple at `start` must take the
    /// per-tuple path.
    fn take_run<B: BatchView<A::Input>>(&mut self, batch: &B, start: usize) -> usize {
        if self.store.is_empty() || self.chars.has_context_aware {
            return 0;
        }
        let in_order_emit = self.cfg.order.is_in_order();
        // The first tuple always sweeps; context-aware and unknown-end
        // windows sweep on every tuple.
        if in_order_emit && (self.sweep_always || !self.swept_once) {
            return 0;
        }
        // Tuples must be in order and inside the open slice (punctuations
        // can cut slices ahead of the data); a late tuple at `start` exits
        // before paying for any cap computation.
        let open_start = self.store.last_slice().map_or(TIME_MAX, |s| s.start());
        let mut prev = self.max_ts.max(open_start);
        if batch.ts(start) < prev {
            return 0;
        }
        // Count caps: stop before the next count edge cuts the open slice
        // and before any count window completes (the per-tuple path checks
        // the trigger both before and after the insert, so the run must
        // keep the post-insert count strictly below the trigger). Pending
        // buffered run tuples count: the store hasn't seen them yet.
        // `total_count` walks every live slice, so only pay for it when a
        // count edge or count trigger actually exists.
        let mut cap = batch.len() - start;
        let needs_count =
            self.next_count_edge.is_some() || (in_order_emit && self.next_trigger_count.is_some());
        if needs_count {
            let total = self.store.total_count() + self.run_times.len() as Count;
            if let Some(edge) = self.next_count_edge {
                if total >= edge {
                    return 0;
                }
                cap = cap.min(cast::to_usize(edge - total));
            }
            if in_order_emit {
                if let Some(c) = self.next_trigger_count {
                    if total + 1 >= c {
                        return 0;
                    }
                    cap = cap.min(cast::to_usize(c - 1 - total));
                }
            }
        }
        // Time bound: strictly below the next slice edge and the next
        // window completion.
        let mut bound = self.next_time_edge.unwrap_or(TIME_MAX);
        if in_order_emit {
            if let Some(t) = self.next_trigger_time {
                bound = bound.min(t);
            }
        }
        // Buffer the run (committed with one store touch by
        // `commit_in_order_run`). Disordered streams produce short runs
        // where a separate scan-then-copy pass costs more than pushing
        // as we scan, while near-in-order streams produce long runs
        // where the bulk `extend_from_slice` beats per-element pushes —
        // so push the first `FUSED` elements inline and switch to
        // scan + bulk copy for the rest of the run.
        const FUSED: usize = 32;
        let mut n = 0;
        let fused_cap = cap.min(FUSED);
        while n < fused_cap {
            let ts = batch.ts(start + n);
            if ts < prev || ts >= bound {
                break;
            }
            prev = ts;
            self.run_times.push(ts);
            self.run_values.push(batch.value(start + n).clone());
            n += 1;
        }
        if n == FUSED && n < cap {
            let tail = start + n;
            let mut m = 0;
            while n + m < cap {
                let ts = batch.ts(tail + m);
                if ts < prev || ts >= bound {
                    break;
                }
                prev = ts;
                m += 1;
            }
            batch.extend_columns(tail, tail + m, &mut self.run_times, &mut self.run_values);
            n += m;
        }
        if n > 0 {
            // `max_ts` advances eagerly so the late/in-order
            // classification of later batch positions matches per-tuple
            // processing.
            self.max_ts = prev;
            self.stats.tuples += n as u64;
        }
        n
    }

    /// Whether late tuples can be deferred into the late batch and
    /// applied slice by slice at the end of the batch call: per-tuple
    /// processing must touch exactly one covering slice and emit nothing.
    /// That takes a declared out-of-order stream (late tuples only emit
    /// on watermarks), time-tiled slices (the count-measure Figure-6
    /// shift cascades across slices), no context-aware windows (their
    /// per-tuple notifications can split/merge) — none of which changes
    /// within a batch, so the loops ask once — and, per tuple, a
    /// non-empty store and a timestamp strictly above the watermark (at
    /// or below it the tuple revises emitted windows *immediately* via
    /// `emit_updates`).
    fn defer_config_ok(&self) -> bool {
        !self.cfg.disable_ooo_batching
            && self.cfg.order == StreamOrder::OutOfOrder
            && !self.count_mode()
            && !self.chars.has_context_aware
    }

    /// Applies the pending in-order run buffer with a single store touch.
    /// Must run before anything reads or restructures the store (late-run
    /// flushes, per-tuple fallbacks): slices keep their tuples sorted by
    /// timestamp, so buffered appends have to land before a late tuple is
    /// merged below them. The buffer's values column is contiguous, so the
    /// commit is a direct bulk-kernel fold — no gather.
    fn commit_in_order_run(&mut self) {
        if self.run_times.is_empty() {
            return;
        }
        crate::audit_assert!(
            self.run_times.windows(2).all(|w| w[0] <= w[1]),
            "in-order run buffer must be monotone"
        );
        crate::audit_assert!(
            self.run_times.len() == self.run_values.len(),
            "run buffer columns diverged: {} times vs {} values",
            self.run_times.len(),
            self.run_values.len()
        );
        self.count_fold(self.run_times.len());
        let mut times = std::mem::take(&mut self.run_times);
        let mut values = std::mem::take(&mut self.run_values);
        self.store.add_in_order_run_columns(&times, &values);
        times.clear();
        values.clear();
        self.run_times = times; // keep the allocations for the next batch
        self.run_values = values;
    }

    /// Attributes one bulk-folded run of `len` values to the kernel or
    /// fallback counter. Contiguous runs always go through
    /// [`AggregateFunction::fold_slice_pairs`] /
    /// [`AggregateFunction::fold_slice`], so the only miss condition is
    /// the function providing neither a values nor a paired-column
    /// kernel; gathered (array-of-structs) runs additionally miss below
    /// the gather threshold, mirroring
    /// [`crate::function::kernel_eligible`] and
    /// [`crate::function::pair_kernel_eligible`].
    fn count_fold(&mut self, len: usize) {
        if (self.f.has_fold_kernel() || self.f.has_pair_kernel()) && len >= 1 {
            self.stats.fold_kernel_hits += 1;
        } else {
            self.stats.fold_kernel_misses += 1;
        }
    }

    /// Whether a late bucket can be folded and written as one partial:
    /// with tuples dropped and a commutative ⊕, nothing observes the
    /// order late tuples were folded in. Otherwise a bucket is sorted by
    /// timestamp and written as a run.
    fn defer_unsorted(&self) -> bool {
        self.f.properties().commutative && !self.store.keeps_tuples()
    }

    /// Defers a late tuple: appends it to the open run of its covering
    /// slice. The memo is probed without branching on which entry
    /// matches — the slice alternates unpredictably from tuple to tuple —
    /// by the one-compare interval test (`ts - start < width` unsigned:
    /// a too-small `ts` wraps to a huge value). Slices are disjoint, so
    /// at most one entry matches; the weighted sum of the match flags of
    /// entries 1–3 is its number, or 0, which the one branch then checks.
    /// The miss stays out of line: with it inlined here, this function
    /// was itself too large to inline and cost both batch loops a call
    /// with six saved registers per late tuple.
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

    /// Applies the pending in-order run, then the deferred late tuples:
    /// one store write per covering slice, in ascending slice order, then
    /// a single repair of the index's dirty frontier.
    ///
    /// The runs are sorted by slice ([`LateBatch::sort_runs`]: a stable
    /// counting sort, runs per slice → starts → scatter of the 16-byte
    /// run records); their tuples stay where deferral put them. A pre-foldable
    /// slice ([`defer_unsorted`]) folds each of its runs through the bulk
    /// kernel — one run, almost always — and becomes one
    /// [`SliceStore::add_out_of_order_partial`]; otherwise its runs are
    /// gathered in the order they were opened, stable-sorted by timestamp
    /// and written as one [`SliceStore::add_out_of_order_run`]. k late
    /// tuples in r runs over m slices cost k appends, an O(r + min(hull,
    /// 256)) sorting pass (two for a hull of thousands of slices), m
    /// slice writes and one bottom-up repair, and ascending
    /// writes are what the finger store's roaming finger is cheapest for.
    ///
    /// Deferral preserves per-tuple semantics: deferred tuples emit
    /// nothing (they sit above the watermark), in-order appends mid-batch
    /// only add slices behind all existing ones, a gap insert shifts the
    /// recorded indices with it, and equal timestamps keep arrival order
    /// — a run is in arrival order, the runs of one slice were open one
    /// after the other, the timestamp sort is stable — so each slice gets
    /// the same tuples in the same tie order as on the per-tuple path.
    ///
    /// [`defer_unsorted`]: WindowOperator::defer_unsorted
    fn flush_late(&mut self) {
        self.commit_in_order_run();
        let Some(mut late) = self.late.take() else { return };
        (0..late.memo_slot.len()).for_each(|k| late.end_run(k));
        if late.runs.is_empty() {
            self.late = Some(late);
            return;
        }
        late.sort_runs();
        let prefold = self.defer_unsorted();
        let pair_kernel = self.f.has_pair_kernel();
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
                    self.count_fold(times.len());
                    let partial = if pair_kernel {
                        self.f.fold_slice_pairs(times, values)
                    } else {
                        self.f.fold_slice(values)
                    };
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

    /// Batched ingestion fast path for the finger-tree store: one
    /// partition pass splits the batch into its monotone in-order
    /// subsequence and the late remainder, then each half is applied in
    /// bulk — the in-order columns as slice-edge-segmented run commits,
    /// the late tuples deferred and flushed once, bucketed by slice
    /// ([`flush_late`](WindowOperator::flush_late)). This replaces the generic loop's per-stretch run
    /// detection ([`take_run`] re-derives its caps on every monotone
    /// stretch), whose bookkeeping dominates under heavy disorder where
    /// stretches shrink to a couple of tuples.
    ///
    /// Equivalence to the generic loop: the preconditions rule out every
    /// mid-batch emission and every mid-batch structural read of partial
    /// aggregates, so the only observable interleaving — late buckets
    /// applied after all in-order commits — is exactly what the generic
    /// deferral does. Late tuples are classified against the same
    /// running maximum per-tuple processing maintains, and slice edges
    /// are advanced at segment heads precisely where the per-tuple
    /// slicer would cut. A late tuple always lands below the open
    /// slice's end (its timestamp is below some already-committed
    /// in-order tuple), so deferring it after the commits sees the same
    /// covering slice the generic interleaving would.
    ///
    /// Preconditions beyond [`defer_config_ok`] (declared out-of-order
    /// stream, time-tiled slices, no context-aware windows):
    /// * finger-tree store — kept by measurement, not by structure (the
    ///   late flush is the same for every store): without it the lazy
    ///   store's 5 %-late cells of `--bin ooo` lose 5–13 %, because the
    ///   partition and gather passes cost every tuple about what the
    ///   generic loop's run detection costs a whole stretch
    ///   (EXPERIMENTS.md, "Late grouping");
    /// * pre-foldable late buckets ([`defer_unsorted`]);
    /// * a non-empty store whose open slice covers the stream head (a
    ///   punctuation can cut slices ahead of the data);
    /// * every late timestamp strictly above the watermark — at or
    ///   below it, per-tuple processing emits revisions immediately.
    ///
    /// Returns `false` — leaving the operator untouched — when a
    /// precondition fails, and the generic loop runs instead.
    ///
    /// [`take_run`]: WindowOperator::take_run
    /// [`defer_config_ok`]: WindowOperator::defer_config_ok
    /// [`defer_unsorted`]: WindowOperator::defer_unsorted
    fn process_batch_fast<B: BatchView<A::Input>>(&mut self, batch: &B) -> bool {
        if self.store.policy() != StorePolicy::FingerTree
            || !self.defer_config_ok()
            || !self.defer_unsorted()
            || self.store.last_slice().is_none_or(|s| s.start() > self.max_ts)
        {
            return false;
        }
        let n = batch.len();
        debug_assert!(u32::try_from(n).is_ok(), "batch exceeds u32 index space");
        debug_assert!(self.run_times.is_empty() && self.run_values.is_empty());
        // Partition. The in-order subsequence is exactly the tuples at or
        // above the running maximum — the same classification per-tuple
        // processing applies via `max_ts`. The monotone prefix (the whole
        // batch under zero disorder) is recognized with one predictable
        // scan and bulk-copied; the disordered remainder goes through a
        // branchless index partition (disorder makes a late/in-order
        // branch unpredictable, and at 50 % disorder the mispredictions
        // alone would dominate this loop).
        let mut prev = self.max_ts;
        let mut i = 0;
        while i < n {
            let ts = batch.ts(i);
            if ts < prev {
                break;
            }
            prev = ts;
            i += 1;
        }
        batch.extend_columns(0, i, &mut self.run_times, &mut self.run_values);
        let mut idx = std::mem::take(&mut self.part_idx);
        let rem = n - i;
        let mut ik = 0;
        let mut lk = 0;
        if i < n {
            if idx.len() < rem {
                idx.resize(rem, 0);
            }
            let mut min_late = TIME_MAX;
            for j in i..n {
                let ts = batch.ts(j);
                let is_late = ts < prev;
                prev = prev.max(ts);
                min_late = min_late.min(if is_late { ts } else { TIME_MAX });
                // Two unconditional stores per tuple: in-order indices
                // fill the array from the front, late ones from the back
                // (so the late half sits at `[rem - lk, rem)` in reverse
                // arrival order). Writing both ends every iteration keeps
                // the loop free of data-dependent branches — at 50 %
                // disorder a conditional store is mispredicted constantly.
                idx[ik] = j as u32;
                idx[rem - 1 - lk] = j as u32;
                ik += usize::from(!is_late);
                lk += usize::from(is_late);
            }
            // At or below the watermark a late tuple revises emitted
            // windows immediately; hand the whole batch to the generic
            // loop. Nothing has been applied yet, so bailing is free.
            if min_late <= self.watermark {
                self.run_times.clear();
                self.run_values.clear();
                self.part_idx = idx;
                return false;
            }
            // One fused gather pass: each batch tuple is touched once
            // (its timestamp and value share a cache line in the
            // row-major view), and the upfront reserves keep the push
            // capacity checks predictable.
            self.run_times.reserve(ik);
            self.run_values.reserve(ik);
            for &j in &idx[..ik] {
                let j = cast::idx32(j);
                self.run_times.push(batch.ts(j));
                self.run_values.push(batch.value(j).clone());
            }
        }
        // In-order half: bulk run commits, cut at slice edges exactly
        // where the per-tuple slicer would.
        let mut times = std::mem::take(&mut self.run_times);
        let mut values = std::mem::take(&mut self.run_values);
        let mut a = 0;
        while a < times.len() {
            let b = match self.next_time_edge {
                Some(edge) => a + times[a..].partition_point(|&t| t < edge),
                None => times.len(),
            };
            if b == a {
                // `times[a]` is at or past the cached edge: cut slices
                // first. Afterwards the next edge lies strictly beyond
                // `times[a]`, so the next segment is non-empty.
                self.advance_time_edges(times[a]);
                continue;
            }
            self.count_fold(b - a);
            self.store.add_in_order_run_columns(&times[a..b], &values[a..b]);
            a = b;
        }
        self.stats.tuples += times.len() as u64;
        self.max_ts = prev;
        times.clear();
        values.clear();
        self.run_times = times; // keep the allocations for the next batch
        self.run_values = values;
        // Late half: defer in arrival order, then write bucket by bucket.
        if lk > 0 {
            let mut pending = self.late.take().unwrap_or_else(|| Box::new(LateBatch::new()));
            for &j in idx[rem - lk..rem].iter().rev() {
                let j = cast::idx32(j);
                self.defer_late(&mut pending, batch.ts(j), batch.value(j));
            }
            self.late = Some(pending);
        }
        self.part_idx = idx; // keep the allocation
        self.stats.tuples += lk as u64;
        self.stats.ooo_tuples += lk as u64;
        self.flush_late();
        true
    }

    /// Processes a batch of tuples, ingesting maximal eligible in-order
    /// runs with a single store touch each (one fold + ⊕ into the open
    /// slice, one tuple-storage append, one eager-leaf refresh) and
    /// deferring eligible late tuples into slice-grouped runs applied once
    /// per batch (see [`flush_late`]). On the finger-tree store the
    /// whole batch is instead partitioned once and applied in bulk
    /// ([`process_batch_fast`](WindowOperator::process_batch_fast)).
    /// Everything else — tuples at
    /// slice edges, window completions, below-watermark stragglers,
    /// count-measure shifts — falls back to
    /// [`process_tuple`](WindowOperator::process_tuple) after the pending
    /// late buffer is flushed, so emission points and results are
    /// identical to per-tuple processing.
    ///
    /// [`flush_late`]: WindowOperator::flush_late
    pub fn process_batch_tuples(
        &mut self,
        batch: &[(Time, A::Input)],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        // Degenerate size-1 batches take the per-tuple entry point: run
        // detection, run-buffer bookkeeping, and the end-of-batch commit
        // are pure overhead on a single record (the old "batch 1 costs
        // 0.6×" cliff in BENCH_batch.json).
        if let [(ts, value)] = batch {
            self.process_tuple(*ts, value.clone(), out);
            return;
        }
        self.process_batch_view(&batch, out);
    }

    /// Columnar twin of [`WindowOperator::process_batch_tuples`]: the batch
    /// arrives struct-of-arrays as parallel `times` / `values` columns
    /// (the stream layer's chunk layout), so in-order runs stay contiguous
    /// from the source straight into the bulk fold kernel without
    /// re-materializing tuple pairs. Semantics are identical to the
    /// tuple-pair entry point — both delegate to the same view-generic
    /// loop.
    pub fn process_batch_columns(
        &mut self,
        times: &[Time],
        values: &[A::Input],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        debug_assert_eq!(times.len(), values.len(), "SoA batch length mismatch");
        crate::audit_assert!(times.len() == values.len(), "SoA batch length mismatch");
        // Same size-1 fallback as the tuple-pair entry point.
        if let ([ts], [value]) = (times, values) {
            self.process_tuple(*ts, value.clone(), out);
            return;
        }
        self.process_batch_view(&ColumnsView { times, values }, out);
    }

    fn process_batch_view<B: BatchView<A::Input>>(
        &mut self,
        batch: &B,
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        if self.process_batch_fast(batch) {
            return;
        }
        let defer_ok = self.defer_config_ok();
        // Deferred-tuple stats accumulate in a local and land once per
        // batch; nothing observes `stats` mid-batch.
        let mut late_n = 0u64;
        let mut i = 0;
        while i < batch.len() {
            let ts = batch.ts(i);
            if ts < self.max_ts {
                // Late tuple: defer it, or flush and fall back. Testing
                // lateness first (one comparison) keeps the data-dependent
                // late singles off the run-detection path entirely.
                if defer_ok && ts > self.watermark && !self.store.is_empty() {
                    late_n += 1;
                    let mut pending =
                        self.late.take().unwrap_or_else(|| Box::new(LateBatch::new()));
                    self.defer_late(&mut pending, ts, batch.value(i));
                    self.late = Some(pending);
                } else {
                    // A below-watermark straggler, count-measure query, or
                    // context-aware query: apply the pending run and the
                    // pending late runs so per-tuple processing sees final
                    // state.
                    self.flush_late();
                    self.process_tuple(ts, batch.value(i).clone(), out);
                }
                i += 1;
                continue;
            }
            // Accumulate rather than apply: the buffered run commutes
            // with deferred late tuples (it only feeds the open slice and
            // emits nothing a late tuple could affect), so one run can
            // span any number of deferred late singles — disorder does
            // not shorten runs.
            let n = self.take_run(batch, i);
            if n >= 1 {
                i += n;
                continue;
            }
            // An in-order run breaker (slice edge, window completion,
            // count cap, first tuple): apply the pending run, then take
            // the per-tuple path. No late flush is needed — on an
            // out-of-order stream an in-order tuple only cuts or appends
            // slices and triggers nothing a deferred late tuple could
            // affect.
            self.commit_in_order_run();
            self.process_tuple(ts, batch.value(i).clone(), out);
            i += 1;
        }
        self.stats.tuples += late_n;
        self.stats.ooo_tuples += late_n;
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
    /// Index repairs are *deferred*: finish a run of calls with
    /// [`merge_parallel_partials`](Self::merge_parallel_partials)
    /// (which flushes once per run) before querying the store directly;
    /// the operator's own query sweeps flush on entry.
    pub fn add_parallel_partial(
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

    /// Bulk-merges a run of worker-local slice partials (one store touch
    /// per `(worker, slice)` run), amortizing the eager-store repair to a
    /// single flush per call.
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

/// Combines two partials of the **same slice span** into one, keeping
/// the span's earliest/latest contributing timestamps and tuple count.
/// Both sides are taken by value so no `Partial` clone is needed.
fn absorb_partial<A: AggregateFunction>(
    f: &A,
    mut into: SlicePartial<A>,
    other: SlicePartial<A>,
) -> SlicePartial<A> {
    crate::audit_assert!(
        into.start == other.start && into.end == other.end,
        "combining partials of different slice spans: [{}, {}) vs [{}, {})",
        into.start,
        into.end,
        other.start,
        other.end
    );
    into.partial = f.combine(into.partial, &other.partial);
    into.t_first = into.t_first.min(other.t_first);
    into.t_last = into.t_last.max(other.t_last);
    into.n += other.n;
    into
}

/// Sorts one worker's staged partials by slice start and combines
/// duplicates (a worker that flushed more than once in an epoch ships the
/// same regrown slice span in several batches). Stable: duplicates
/// combine in list (= arrival) order.
fn normalize_partials<A: AggregateFunction>(
    f: &A,
    mut list: Vec<SlicePartial<A>>,
) -> Vec<SlicePartial<A>> {
    list.sort_by_key(|p| p.start);
    let mut out: Vec<SlicePartial<A>> = Vec::with_capacity(list.len());
    let mut cur: Option<SlicePartial<A>> = None;
    for p in list {
        cur = Some(match cur.take() {
            Some(c) if c.start == p.start => absorb_partial(f, c, p),
            Some(c) => {
                out.push(c);
                p
            }
            None => p,
        });
    }
    if let Some(c) = cur {
        out.push(c);
    }
    out
}

/// Merges two start-sorted partial lists, combining same-span entries —
/// one round of the pairwise merge tree.
fn merge_partial_pair<A: AggregateFunction>(
    f: &A,
    a: Vec<SlicePartial<A>>,
    b: Vec<SlicePartial<A>>,
) -> Vec<SlicePartial<A>> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let mut ia = a.into_iter();
    let mut ib = b.into_iter();
    let mut next_a = ia.next();
    let mut next_b = ib.next();
    loop {
        match (next_a.take(), next_b.take()) {
            (Some(x), Some(y)) => {
                if x.start < y.start {
                    out.push(x);
                    next_a = ia.next();
                    next_b = Some(y);
                } else if y.start < x.start {
                    out.push(y);
                    next_b = ib.next();
                    next_a = Some(x);
                } else {
                    out.push(absorb_partial(f, x, y));
                    next_a = ia.next();
                    next_b = ib.next();
                }
            }
            (Some(x), None) => {
                out.push(x);
                next_a = ia.next();
            }
            (None, Some(y)) => {
                out.push(y);
                next_b = ib.next();
            }
            (None, None) => return out,
        }
    }
}

/// Pairwise combining merge tree over per-worker slice-partial lists:
/// normalizes each list (start-sorted, duplicates combined), then merges
/// lists pairwise in balanced rounds until one combined list remains.
///
/// With `N` workers over `S` live slices this costs `O(S · log N)`
/// combine work and touches the authoritative store once per slice when
/// the result is applied via
/// [`WindowOperator::merge_parallel_partials`] — instead of the `N · S`
/// store touches of applying each worker's list directly. Requires a
/// **commutative** aggregate (worker lists combine in tree order, not
/// stream order) and static-edge slices, the same preconditions as
/// [`WindowOperator::add_parallel_partial`]; combining is
/// order-deterministic given the input list order, so repeated runs over
/// the same staged lists produce identical partials.
pub fn merge_partials_tree<A: AggregateFunction>(
    f: &A,
    lists: Vec<Vec<SlicePartial<A>>>,
) -> Vec<SlicePartial<A>> {
    let mut round: Vec<Vec<SlicePartial<A>>> =
        lists.into_iter().filter(|l| !l.is_empty()).map(|l| normalize_partials(f, l)).collect();
    while round.len() > 1 {
        let mut next = Vec::with_capacity(round.len().div_ceil(2));
        let mut it = round.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_partial_pair(f, a, b)),
                None => next.push(a),
            }
        }
        round = next;
    }
    round.pop().unwrap_or_default()
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
            run_times: self.run_times.clone(),
            run_values: self.run_values.clone(),
            part_idx: Vec::new(),
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
    fn finger_batch_fast_path_edges_match_per_tuple() {
        // In-order spine establishing slices up to [100, 110).
        let spine = [5, 7, 12, 18, 23, 31, 44, 57, 68, 101].iter().map(|&t| (t, 1)).collect();
        // Late tuples over five distinct covering slices, arriving in
        // neither slice nor time order.
        let wide: Vec<(Time, i64)> = [105, 110, 55, 62, 75, 83, 91, 96, 71, 88]
            .iter()
            .zip(1..)
            .map(|(&t, v)| (t, v))
            .collect();
        // A tuple at the watermark: the monotone fast path must bail
        // before mutating anything and defer to the generic batch path.
        let straggler = vec![(120, 1), (50, 1), (125, 1)];
        check_late_batches(SumI64, &[(spine, 50), (wide, 100), (straggler, 300)]);
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
    fn disable_ooo_batching_matches_enabled() {
        let base = OperatorConfig::out_of_order(1_000).with_policy(StorePolicy::Eager);
        let mut enabled = WindowOperator::new(SumI64, base);
        let mut disabled =
            WindowOperator::new(SumI64, OperatorConfig { disable_ooo_batching: true, ..base });
        enabled.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
        disabled.add_query(Box::new(TumblingStub { length: 10 })).unwrap();
        let batch: Vec<(Time, i64)> = (0..200)
            .map(|i| if i % 5 == 0 { (i as Time * 2 - 7, i) } else { (i as Time * 2, i) })
            .collect();
        let mut out_e = Vec::new();
        let mut out_d = Vec::new();
        enabled.process_batch_tuples(&batch, &mut out_e);
        disabled.process_batch_tuples(&batch, &mut out_d);
        enabled.process_watermark(500, &mut out_e);
        disabled.process_watermark(500, &mut out_d);
        let key = |r: &WindowResult<i64>| (r.query, r.range.start, r.range.end, r.value);
        assert_eq!(
            out_e.iter().map(key).collect::<Vec<_>>(),
            out_d.iter().map(key).collect::<Vec<_>>()
        );
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

    fn part(start: Time, v: i64, t_first: Time, t_last: Time, n: u64) -> SlicePartial<SumI64> {
        SlicePartial { start, end: start + 10, partial: v, t_first, t_last, n }
    }

    /// Reference for the merge tree: fold every list linearly into a map
    /// keyed by slice start.
    fn linear_merge(lists: &[Vec<SlicePartial<SumI64>>]) -> Vec<(Time, i64, Time, Time, u64)> {
        let mut map: std::collections::BTreeMap<Time, (i64, Time, Time, u64)> =
            std::collections::BTreeMap::new();
        for l in lists {
            for p in l {
                let e = map.entry(p.start).or_insert((0, Time::MAX, Time::MIN, 0));
                e.0 += p.partial;
                e.1 = e.1.min(p.t_first);
                e.2 = e.2.max(p.t_last);
                e.3 += p.n;
            }
        }
        map.into_iter().map(|(s, (v, tf, tl, n))| (s, v, tf, tl, n)).collect()
    }

    #[test]
    fn merge_tree_matches_linear_fold() {
        // Worker lists with overlapping spans, unsorted entries, and
        // same-span duplicates within one list (multi-flush epochs).
        let lists = vec![
            vec![part(20, 3, 21, 25, 2), part(0, 1, 4, 4, 1), part(20, 7, 29, 29, 1)],
            vec![part(10, 5, 12, 18, 3)],
            Vec::new(),
            vec![part(0, 2, 1, 9, 2), part(30, 4, 33, 33, 1)],
            vec![part(10, 6, 11, 19, 2), part(40, 9, 44, 44, 1)],
        ];
        let got: Vec<(Time, i64, Time, Time, u64)> = merge_partials_tree(&SumI64, lists.clone())
            .into_iter()
            .map(|p| (p.start, p.partial, p.t_first, p.t_last, p.n))
            .collect();
        assert_eq!(got, linear_merge(&lists));
        // Output is start-sorted with one entry per span.
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn merge_tree_handles_degenerate_shapes() {
        assert!(merge_partials_tree::<SumI64>(&SumI64, Vec::new()).is_empty());
        assert!(merge_partials_tree(&SumI64, vec![Vec::<SlicePartial<SumI64>>::new()]).is_empty());
        let one = merge_partials_tree(&SumI64, vec![vec![part(0, 5, 1, 2, 2)]]);
        assert_eq!(one.len(), 1);
        assert_eq!((one[0].start, one[0].partial, one[0].n), (0, 5, 2));
        // Odd list counts: the unpaired list survives rounds untouched.
        let odd = merge_partials_tree(
            &SumI64,
            vec![vec![part(0, 1, 0, 0, 1)], vec![part(0, 2, 1, 1, 1)], vec![part(0, 4, 2, 2, 1)]],
        );
        assert_eq!(odd.len(), 1);
        assert_eq!((odd[0].partial, odd[0].t_first, odd[0].t_last, odd[0].n), (7, 0, 2, 3));
    }
}
