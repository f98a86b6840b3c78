//! Intra-query parallel slicing: worker-local slice pre-aggregation with
//! a combining merge stage.
//!
//! The paper parallelizes by key (Section 5.3); this module parallelizes
//! *within* one logical stream. N workers consume disjoint chunks of the
//! same stream, fold tuples into worker-local per-slice partials, and a
//! merge stage combines the partials into one authoritative
//! [`WindowOperator`] that triggers and emits exactly as the sequential
//! operator would. The split is sound because for **time-measure,
//! context-free windows with static edges** slice boundaries are a pure
//! function of the query set ([`Timeline`]): every worker derives the
//! same `[start, end)` spans without coordination, and a **commutative**
//! aggregate lets partials combine in any arrival order.
//!
//! ## Two-stage protocol
//!
//! * The dealer — this driver's route on the [skeleton](crate::driver) —
//!   deals record chunks round-robin to workers and broadcasts every
//!   watermark to all of them, in stream order.
//! * A worker folds each on-time tuple into the partial of the slice
//!   covering its timestamp — a start-sorted list of
//!   [`SlicePartial`]s, one per slice span it hit — and flushes the list
//!   to the merge stage when it sees a watermark (then **acks** the
//!   watermark) or when the list and its stragglers reach a cap. Tuples
//!   at or below the worker's watermark are buffered as individual
//!   straggler partials (one update emission each at the merge stage)
//!   and ride the head of the next flush batch in arrival order —
//!   coalescing is at the message level only, so every straggler still
//!   revises its windows exactly once. Tuples below
//!   `watermark - allowed_lateness` are dropped, mirroring the
//!   sequential operator.
//! * The merge stage runs behind the epoch barrier, which
//!   [`barrier`](crate::barrier) defines. Its own part: a straggler
//!   partial (at or below the authoritative watermark) applies on
//!   arrival via [`WindowOperator::merge_parallel_partials`], so its
//!   update emissions land in the epoch it arrived in; on-time partials
//!   are *staged* per worker. When the barrier closes an epoch the
//!   staged lists land in worker order, in one
//!   [`WindowOperator::merge_parallel_partials`] call — the store
//!   combines a partial into the slice of its span, or inserts the span
//!   over a coverage gap — and the operator advances to the acked
//!   watermark, triggering and emitting. Staging is invisible to
//!   emissions: an on-time partial's slice lies strictly above the
//!   watermark, so no already-fired window (`end <= wm`) can query it
//!   before the close applies it.
//!
//! ## In-order streams
//!
//! In-order configs emit per tuple, not per watermark, so the dealer
//! *synthesizes* the missing watermarks: after dealing a full
//! round-robin round of chunks it broadcasts `max_ts - 1` (every future
//! record of a non-decreasing stream has `ts >= max_ts`, so nothing is
//! ever a straggler against a synthesized watermark), and after the last
//! chunk it broadcasts `max_ts`, which fires exactly the windows
//! (`end <= max_ts`) the sequential per-tuple sweep would have fired.
//! Workers hold records with `ts < wm` (strict — a record at exactly the
//! watermark is on time for every unfired window) and never drop them:
//! the in-order eviction horizon is the watermark itself. Explicit
//! watermarks and punctuation (which the in-order operator treats as a
//! trigger sweep) broadcast as watermark rounds too.
//!
//! Final window aggregates are exactly those of a sequential run. Late
//! *update* emissions (`is_update == true`) carry the same multiplicity;
//! their intermediate values can differ from the sequential run only when
//! two stragglers land in the same window within one watermark epoch from
//! different workers (each run reflects a different apply order of the
//! same commutative updates, so the last update of a window per epoch —
//! and every final — agrees).
//!
//! Ineligible workloads — count measures, context-aware windows
//! (sessions, punctuation), non-commutative functions, or forced tuple
//! storage — fall back to one sequential operator, hosted by a single
//! worker; [`PipelineReport::parallel_workers`] reports which path ran.

use crossbeam::runtime;
use crossbeam::sched::ProbeEvent;
use gss_core::{
    shares_static_timeline, AggregateFunction, OperatorConfig, Query, QueryId, SlicePartial,
    StreamElement, StreamOrder, Time, Timeline, WindowFunction, WindowOperator, WindowResult,
    TIME_MIN,
};

use crate::barrier::Stage;
use crate::batching::{gather_whole, Gathered, RecordChunk};
use crate::driver::{
    self, by_destination, deliver, Emitted, Merge, PipelineError, Senders, Uplink, Worker,
};
use crate::host::{Hosted, ResultSink};
use crate::pipeline::{PipelineConfig, PipelineReport};

/// Worker-side flush threshold, in slice partials plus buffered
/// straggler partials. Bounds worker memory between watermarks; each
/// flush ships the accumulated partials and the list regrows on demand.
const FLUSH_SLICE_CAP: usize = 4096;

/// Whether a workload can take the two-stage parallel path: the workload
/// shares a static slice timeline ([`shares_static_timeline`]: every
/// worker derives the same spans without coordination, and partials
/// combine in worker-arrival order) and does not force tuple storage
/// (partials carry no tuples to re-slice). Both stream orders qualify:
/// out-of-order configs ship their explicit watermarks through the epoch
/// barrier, and in-order configs (which emit per tuple) get watermarks
/// synthesized by the dealer (see the module docs).
fn parallel_eligible<A: AggregateFunction>(
    f: &A,
    windows: &[Box<dyn WindowFunction>],
    op_cfg: &OperatorConfig,
) -> bool {
    shares_static_timeline(f, windows) && !op_cfg.force_tuple_storage
}

/// A worker's edge to the merge stage: batches of pre-aggregated slice
/// partials, disjoint per batch, and watermark acks.
type Up<'a, A> = Uplink<'a, Vec<SlicePartial<A>>>;

/// Worker-local slicer: the partials of the slices its records hit since
/// the last flush, sorted by span start.
struct WorkerSlicer<A: AggregateFunction> {
    f: A,
    queries: Vec<Query>,
    lateness: Time,
    /// Declared order of the source stream: decides the straggler rule
    /// (strict `<` for in-order, `<=` for out-of-order) and whether
    /// too-late records drop (never on in-order streams, whose only
    /// sub-watermark records sit at synthesized `max_ts - 1` rounds).
    order: StreamOrder,
    /// Last broadcast watermark this worker acked.
    wm: Time,
    /// One partial per hit slice span, start-sorted; shipped as is.
    parts: Vec<SlicePartial<A>>,
    /// Index in `parts` of the last slice hit — the hot-path cache.
    last: usize,
    /// Stragglers (at or below the acked watermark, within lateness)
    /// buffered in arrival order; they ride the next flush as the head of
    /// its batch instead of each paying for a message.
    stragglers: Vec<SlicePartial<A>>,
    dropped_late: u64,
    /// Same-slice spans folded through a hand-written `fold_slice` kernel
    /// vs the default lift/combine loop.
    fold_hits: u64,
    fold_misses: u64,
}

impl<A: AggregateFunction> WorkerSlicer<A> {
    fn new(f: A, windows: &[Box<dyn WindowFunction>], lateness: Time, order: StreamOrder) -> Self {
        let queries = windows
            .iter()
            .enumerate()
            .map(|(id, w)| Query::new(id as QueryId, w.clone_box()))
            .collect();
        WorkerSlicer {
            f,
            queries,
            lateness,
            order,
            wm: TIME_MIN,
            parts: Vec::new(),
            last: 0,
            stragglers: Vec::new(),
            dropped_late: 0,
            fold_hits: 0,
            fold_misses: 0,
        }
    }

    /// Whether `ts` sits below this worker's acked watermark and must
    /// leave the fold fast path (straggler or drop). Strict for in-order
    /// streams: a record at exactly the watermark is on time for every
    /// window that has not fired (all have `end > wm`), and the
    /// sequential in-order operator adds it without an update emission.
    fn below_watermark(&self, ts: Time) -> bool {
        self.wm != TIME_MIN && if self.order.is_in_order() { ts < self.wm } else { ts <= self.wm }
    }

    /// A record [`below_watermark`](Self::below_watermark): dropped by the
    /// sequential operator's rule, else buffered as its own partial (one
    /// update emission per straggler at the merge stage) to ride the next
    /// flush instead of paying for a singleton message. Sound because the
    /// relative order of straggler and on-time partials within an epoch is
    /// immaterial: on-time tuples only touch windows that have not fired,
    /// the aggregate is commutative, and the batch is applied before the
    /// next epoch barrier either way.
    fn straggler(&mut self, ts: Time, value: &A::Input) {
        // In-order streams never drop: their eviction horizon is the
        // watermark itself, and synthesized watermarks trail every unseen
        // record.
        if !self.order.is_in_order() && ts < self.wm.saturating_sub(self.lateness) {
            self.dropped_late += 1;
            return;
        }
        self.stragglers.push(SlicePartial {
            start: Timeline::union_prev_edge(&self.queries, ts),
            end: Timeline::union_next_edge(&self.queries, ts),
            partial: self.f.lift(value),
            t_first: ts,
            t_last: ts,
            n: 1,
        });
    }

    /// The span `[start, end)` of the slice covering `ts`: the last slice
    /// hit's, else the union edges around `ts`.
    fn span(&self, ts: Time) -> (Time, Time) {
        match self.parts.get(self.last) {
            Some(p) if p.start <= ts && ts < p.end => (p.start, p.end),
            _ => (
                Timeline::union_prev_edge(&self.queries, ts),
                Timeline::union_next_edge(&self.queries, ts),
            ),
        }
    }

    /// Combines `part` into the partial of its span — the last slice hit,
    /// or one found by binary search — or inserts it where its start
    /// keeps the list sorted.
    fn add(&mut self, part: SlicePartial<A>) {
        if self.parts.get(self.last).map(|p| p.start) != Some(part.start) {
            match self.parts.binary_search_by_key(&part.start, |p| p.start) {
                Ok(i) => self.last = i,
                Err(i) => {
                    self.last = i;
                    self.parts.insert(i, part);
                    return;
                }
            }
        }
        let p = &mut self.parts[self.last];
        let acc = std::mem::replace(&mut p.partial, part.partial);
        p.partial = self.f.combine(acc, &p.partial);
        p.t_first = p.t_first.min(part.t_first);
        p.t_last = p.t_last.max(part.t_last);
        p.n += part.n;
    }

    /// Ingests a whole SoA chunk, folding each maximal same-slice span of
    /// on-time records through [`AggregateFunction::fold_slice`] on the
    /// contiguous values column — one combine per span instead of one
    /// per record. Stragglers and too-late records take the per-record
    /// [`straggler`](WorkerSlicer::straggler) step. Sound because parallel
    /// eligibility requires a commutative aggregate: slice membership,
    /// not intra-slice order, determines the result.
    fn ingest_chunk(&mut self, chunk: &RecordChunk<A::Input>) {
        chunk.check();
        let times = chunk.times();
        let values = chunk.values();
        let mut i = 0;
        while i < times.len() {
            let ts = times[i];
            if self.below_watermark(ts) {
                self.straggler(ts, &values[i]);
                i += 1;
                continue;
            }
            let (start, end) = self.span(ts);
            let (mut t_first, mut t_last) = (ts, ts);
            let mut j = i + 1;
            while j < times.len() {
                let t = times[j];
                // A slice can straddle the watermark, so staying inside
                // `[start, end)` does not imply on-time: stragglers break
                // the span too.
                if t < start || t >= end || self.below_watermark(t) {
                    break;
                }
                t_first = t_first.min(t);
                t_last = t_last.max(t);
                j += 1;
            }
            if self.f.has_fold_kernel() {
                self.fold_hits += 1;
            } else {
                self.fold_misses += 1;
            }
            // An empty fold adds nothing.
            if let Some(partial) = self.f.fold_slice(&values[i..j]) {
                let n = (j - i) as u64;
                self.add(SlicePartial { start, end, partial, t_first, t_last, n });
            }
            i = j;
        }
    }

    /// Ships buffered stragglers (arrival order, at the head of the
    /// batch) and every accumulated partial in **one** batch message.
    fn flush(&mut self, up: &mut Up<'_, A>) {
        let mut parts = std::mem::take(&mut self.parts);
        parts.splice(0..0, self.stragglers.drain(..));
        if !parts.is_empty() {
            let shipped = parts.len() as u64;
            up.ship(parts, shipped);
        }
    }
}

/// One worker: fold records into per-slice partials, flush + ack on every
/// watermark.
impl<A> Worker<A::Input, Vec<SlicePartial<A>>, A::Output> for WorkerSlicer<A>
where
    A: AggregateFunction,
{
    fn records(&mut self, chunk: &mut RecordChunk<A::Input>, up: &mut Up<'_, A>) {
        self.ingest_chunk(chunk);
        if self.parts.len() + self.stragglers.len() >= FLUSH_SLICE_CAP {
            self.flush(up);
        }
    }

    /// Flush, then ack: after the ack every pre-watermark tuple this
    /// worker received is with the merge stage. Every watermark is acked
    /// — even a regressive one, which the operator ignores — so ack
    /// sequences align across workers and the merge barrier stays in
    /// lockstep.
    fn watermark(&mut self, wm: Time, up: &mut Up<'_, A>) {
        self.flush(up);
        up.ack(wm);
        self.wm = self.wm.max(wm);
    }

    /// The dealer turns punctuations into watermark rounds.
    fn punctuation(&mut self, _: Time, _: &mut Up<'_, A>) {}

    fn end(mut self, up: &mut Up<'_, A>) -> ((u64, u64), Emitted<A::Output>) {
        self.flush(up);
        ((self.fold_hits, self.fold_misses), Emitted::default())
    }
}

/// The merge stage behind the epoch barrier: the authoritative operator,
/// the on-time partials staged per worker, and where emissions go.
struct ParMerge<A: AggregateFunction> {
    op: WindowOperator<A>,
    staged: Vec<Vec<SlicePartial<A>>>,
    sink: ResultSink<WindowResult<A::Output>>,
}

impl<A: AggregateFunction> ParMerge<A> {
    /// Lands every worker's staged list, in worker order, in one
    /// [`WindowOperator::merge_parallel_partials`] call; the store
    /// combines partials of one span as they arrive.
    fn land_staged(&mut self) {
        let staged = self.staged.iter_mut().flat_map(|list| list.drain(..));
        self.op.merge_parallel_partials(staged, &mut self.sink.scratch);
    }
}

impl<A: AggregateFunction> Stage<Vec<SlicePartial<A>>> for ParMerge<A> {
    /// Stragglers (at or below the authoritative watermark) apply at once,
    /// on-time partials are staged (module docs).
    fn apply(&mut self, src: usize, parts: Vec<SlicePartial<A>>) {
        #[cfg(feature = "sched-mutants")]
        let parts = crate::mutants::double_if(crate::mutants::Mutant::ParDoubleApply, parts);
        runtime::probe(ProbeEvent::Applied { src, items: parts.len() as u64 });
        let wm = self.op.current_watermark();
        for p in parts {
            if wm != TIME_MIN && p.t_first <= wm {
                self.op.merge_parallel_partials([p], &mut self.sink.scratch);
            } else {
                self.staged[src].push(p);
            }
        }
        self.sink.settle();
    }

    /// Every partial preceding the watermark in any worker's stream has
    /// been staged or applied, so triggering is safe once the staged
    /// lists land.
    fn close(&mut self, wm: Time) {
        self.land_staged();
        self.op.process_watermark(wm, &mut self.sink.scratch);
        self.sink.settle();
    }
}

impl<A> Merge<Vec<SlicePartial<A>>, A::Output> for ParMerge<A>
where
    A: AggregateFunction,
    A::Output: Send,
{
    /// Partials flushed after the last watermark are still staged: fold
    /// them in for state completeness (above the final watermark, they
    /// emit nothing).
    fn finish(mut self: Box<Self>, clean: bool) -> Emitted<A::Output> {
        if clean {
            self.land_staged();
            self.sink.settle();
        }
        self.sink.emitted(|r| (0, r))
    }
}

/// Runs one logical window aggregation with intra-query parallelism:
/// worker-local slice pre-aggregation on `cfg.parallelism` threads and a
/// combining merge stage driving one authoritative [`WindowOperator`].
///
/// Eligible workloads (see `parallel_eligible`) produce exactly the
/// final window results of a sequential operator with the same config;
/// ineligible ones fall back to that sequential operator
/// (`report.parallel_workers == 0`).
///
/// ```
/// use gss_core::{OperatorConfig, StreamElement};
/// use gss_core::testsupport::SumI64;
/// use gss_stream::{run_parallel, PipelineConfig};
/// use gss_windows::TumblingWindow;
///
/// let elements = (0..100i64)
///     .map(|i| StreamElement::Record { ts: i, value: 1i64 })
///     .chain([StreamElement::Watermark(100)]);
/// let report = run_parallel(
///     elements,
///     PipelineConfig::with_parallelism(2),
///     SumI64,
///     vec![Box::new(TumblingWindow::new(10))],
///     OperatorConfig::out_of_order(0),
/// );
/// assert_eq!(report.parallel_workers, 2);
/// assert_eq!(report.result_count, 10);
/// assert!(report.results.iter().all(|(_, r)| r.value == 10));
/// ```
pub fn run_parallel<A>(
    elements: impl IntoIterator<Item = StreamElement<A::Input>>,
    cfg: PipelineConfig,
    f: A,
    windows: Vec<Box<dyn WindowFunction>>,
    op_cfg: OperatorConfig,
) -> PipelineReport<A::Output>
where
    A: AggregateFunction,
    A::Output: Send,
{
    let eligible = parallel_eligible(&f, &windows, &op_cfg);
    // The merge operator is the single authority on triggering and
    // eviction. It never sees raw tuples — slices enter pre-aligned to
    // full static-edge intervals via `merge_parallel_partials` — so the
    // ablation switches of `op_cfg` (which shape the tuple path) don't
    // apply; order/policy/lateness carry over. The fallback's operator
    // takes the user's exact config (in-order emission, context-aware
    // windows).
    let merge_cfg = OperatorConfig {
        order: StreamOrder::OutOfOrder,
        policy: op_cfg.policy,
        allowed_lateness: op_cfg.allowed_lateness,
        ..OperatorConfig::default()
    };
    let mut op = WindowOperator::new(f.clone(), if eligible { merge_cfg } else { op_cfg });
    for w in &windows {
        if let Err(err) = op.add_query(w.clone_box()) {
            PipelineError::Query(err).raise();
        }
    }
    let gather = gather_whole(elements, cfg.batching);
    if !eligible {
        // One worker hosting the sequential operator, chunked like the
        // parallel path so throughput numbers compare setup-for-setup.
        let host = [Hosted::new(Box::new(op), &cfg)].into_iter();
        return driver::run(cfg, gather, by_destination, host, None)
            .unwrap_or_else(|err| err.raise());
    }
    let workers = cfg.parallelism.max(1);
    let slicers = (0..workers)
        .map(|_| WorkerSlicer::new(f.clone(), &windows, op_cfg.allowed_lateness, op_cfg.order));
    let stage = ParMerge {
        op,
        staged: (0..workers).map(|_| Vec::new()).collect(),
        sink: ResultSink::new(cfg.collect_results),
    };

    // The dealer: record chunks go round-robin to the workers, watermarks
    // to all of them in stream order; O(1) work per chunk keeps the pump
    // off the critical path. For an in-order stream it synthesizes the
    // rounds of the module docs; the `max_ts - 1` one is skipped while the
    // source is flushing, when a broadcast or the final round follows.
    let in_order = op_cfg.order.is_in_order();
    let (mut max_ts, mut last_wm, mut next) = (TIME_MIN, TIME_MIN, 0usize);
    let deal = |event: Option<_>, flushing: bool, to: &Senders<A::Input>| {
        let broadcast = |wm| deliver(Gathered::Watermark(wm), to);
        match event {
            Some(Gathered::Records(dst, chunk)) => {
                // In-order ⇒ the chunk's last time is its max.
                if let (true, Some(&t)) = (in_order, chunk.times().last()) {
                    max_ts = max_ts.max(t);
                }
                to[next].send(Gathered::Records(dst, chunk))?;
                next = (next + 1) % workers;
                let synthesize = in_order && next == 0 && !flushing;
                if synthesize && max_ts > TIME_MIN && max_ts - 1 > last_wm {
                    last_wm = max_ts - 1;
                    broadcast(last_wm)?;
                }
            }
            Some(Gathered::Watermark(wm)) => {
                last_wm = last_wm.max(wm);
                broadcast(wm)?;
            }
            // No eligible window takes punctuation as context, but the
            // in-order operator also treats it as a trigger sweep up to
            // `ts`: reproduce that as a watermark round.
            Some(Gathered::Punctuation(ts)) if in_order && ts > last_wm => {
                last_wm = ts;
                broadcast(ts)?;
            }
            Some(Gathered::Punctuation(_)) => {}
            // End of stream: the final synthesized round.
            None if in_order && max_ts > last_wm => broadcast(max_ts)?,
            None => {}
        }
        Ok(())
    };
    match driver::run(cfg, gather, deal, slicers, Some(Box::new(stage))) {
        Ok(report) => PipelineReport { parallel_workers: workers, ..report },
        Err(err) => err.raise(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::{Concat, SumI64};
    use gss_core::{Range, StorePolicy};
    use gss_windows::{CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow};

    fn tumbling(len: i64) -> Vec<Box<dyn WindowFunction>> {
        vec![Box::new(TumblingWindow::new(len))]
    }

    /// Reference: drive one sequential operator per element.
    fn sequential_finals(
        elements: &[StreamElement<i64>],
        windows: &[Box<dyn WindowFunction>],
        op_cfg: OperatorConfig,
    ) -> Vec<(QueryId, Range, i64)> {
        let mut op = WindowOperator::new(SumI64, op_cfg);
        for w in windows {
            op.add_query(w.clone_box()).unwrap();
        }
        let mut out = Vec::new();
        for e in elements {
            match e {
                StreamElement::Record { ts, value } => op.process_tuple(*ts, *value, &mut out),
                StreamElement::Watermark(wm) => op.process_watermark(*wm, &mut out),
                StreamElement::Punctuation(ts) => op.process_punctuation(*ts, &mut out),
            }
        }
        finals(out.iter())
    }

    /// Last emission per window — the value a downstream consumer keeps.
    fn finals<'a>(
        results: impl Iterator<Item = &'a WindowResult<i64>>,
    ) -> Vec<(QueryId, Range, i64)> {
        let mut map = std::collections::BTreeMap::new();
        for r in results {
            map.insert((r.query, r.range.start, r.range.end), r.value);
        }
        map.into_iter().map(|((q, s, e), v)| (q, Range::new(s, e), v)).collect()
    }

    /// Mostly ascending stream with periodic watermarks, occasional
    /// stragglers (below the watermark but within lateness), and a few
    /// too-late tuples that must be dropped.
    fn stream_with_watermarks(n: i64, every: i64) -> Vec<StreamElement<i64>> {
        let mut v = Vec::new();
        for i in 0..n {
            let ts = match i % 11 {
                7 => (i * 3 - 25).max(0),  // straggler once watermarks start
                9 => (i * 3 - 200).max(0), // far below wm - lateness: dropped
                _ => i * 3,
            };
            v.push(StreamElement::Record { ts, value: i });
            if i % every == every - 1 {
                v.push(StreamElement::Watermark(i * 3 - 20));
            }
        }
        v.push(StreamElement::Watermark(i64::MAX - 1));
        v
    }

    #[test]
    fn eligibility_rules() {
        let ooo = OperatorConfig::out_of_order(10);
        assert!(parallel_eligible(&SumI64, &tumbling(10), &ooo));
        // Sessions are context aware.
        let session: Vec<Box<dyn WindowFunction>> = vec![Box::new(SessionWindow::new(5))];
        assert!(!parallel_eligible(&SumI64, &session, &ooo));
        // Count measure shifts tuples across slices.
        let count: Vec<Box<dyn WindowFunction>> = vec![Box::new(CountTumblingWindow::new(10))];
        assert!(!parallel_eligible(&SumI64, &count, &ooo));
        // Non-commutative functions need stream order.
        assert!(!parallel_eligible(&Concat, &tumbling(10), &ooo));
        // One bad query poisons the mix.
        let mixed: Vec<Box<dyn WindowFunction>> =
            vec![Box::new(TumblingWindow::new(10)), Box::new(SessionWindow::new(5))];
        assert!(!parallel_eligible(&SumI64, &mixed, &ooo));
        // In-order configs are eligible too: the driver synthesizes the
        // watermark rounds their per-tuple emission otherwise provides.
        assert!(parallel_eligible(&SumI64, &tumbling(10), &OperatorConfig::in_order()));
        // Forced tuple storage keeps raw tuples, which partials drop.
        let forced = OperatorConfig { force_tuple_storage: true, ..ooo };
        assert!(!parallel_eligible(&SumI64, &tumbling(10), &forced));
        let none: Vec<Box<dyn WindowFunction>> = Vec::new();
        assert!(!parallel_eligible(&SumI64, &none, &ooo));
    }

    #[test]
    fn matches_sequential_across_workers_and_batches() {
        let elements = stream_with_watermarks(500, 64);
        let windows: Vec<Box<dyn WindowFunction>> =
            vec![Box::new(TumblingWindow::new(50)), Box::new(SlidingWindow::new(100, 30))];
        let cfg = OperatorConfig::out_of_order(30);
        let expect = sequential_finals(&elements, &windows, cfg);
        assert!(!expect.is_empty());
        for workers in [1, 2, 4] {
            for batch in [1, 7, 512] {
                let report = run_parallel(
                    elements.iter().cloned(),
                    PipelineConfig::with_parallelism(workers).with_batch_size(batch),
                    SumI64,
                    windows.iter().map(|w| w.clone_box()).collect(),
                    cfg,
                );
                assert_eq!(report.parallel_workers, workers);
                assert_eq!(report.records, 500);
                let got = finals(report.results.iter().map(|(_, r)| r));
                assert_eq!(got, expect, "workers={workers} batch={batch}");
            }
        }
    }

    #[test]
    fn eager_store_matches_sequential() {
        let elements = stream_with_watermarks(300, 32);
        let cfg = OperatorConfig::out_of_order(20).with_policy(StorePolicy::Eager);
        let expect = sequential_finals(&elements, &tumbling(25), cfg);
        let report = run_parallel(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(3).with_batch_size(16),
            SumI64,
            tumbling(25),
            cfg,
        );
        assert_eq!(finals(report.results.iter().map(|(_, r)| r)), expect);
    }

    #[test]
    fn straggler_updates_have_exact_multiplicity() {
        // One straggler within lateness must produce exactly one update
        // emission for each affected window, as in the sequential run.
        let elements = vec![
            StreamElement::Record { ts: 5, value: 1 },
            StreamElement::Record { ts: 15, value: 2 },
            StreamElement::Watermark(20),
            StreamElement::Record { ts: 7, value: 10 }, // straggler
            StreamElement::Watermark(40),
        ];
        let cfg = OperatorConfig::out_of_order(100);
        for workers in [1, 2, 4] {
            let report = run_parallel(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(workers).with_batch_size(1),
                SumI64,
                tumbling(10),
                cfg,
            );
            let updates: Vec<_> =
                report.results.iter().filter(|(_, r)| r.is_update).map(|(_, r)| r).collect();
            assert_eq!(updates.len(), 1, "workers={workers}");
            assert_eq!(updates[0].range, Range::new(0, 10));
            assert_eq!(updates[0].value, 11);
            let got = finals(report.results.iter().map(|(_, r)| r));
            assert_eq!(got, sequential_finals(&elements, &tumbling(10), cfg));
        }
    }

    #[test]
    fn a_regressive_watermark_is_acked_and_ignored_by_the_operator() {
        // The round closes at the barrier (every worker acks it) and the
        // merge operator ignores it, like the sequential one.
        let mut elements = stream_with_watermarks(300, 32);
        let at = elements.iter().position(|e| matches!(e, StreamElement::Watermark(265))).unwrap();
        elements.insert(at + 1, StreamElement::Watermark(100));
        let cfg = OperatorConfig::out_of_order(30);
        let expect = sequential_finals(&elements, &tumbling(25), cfg);
        for workers in [1, 3] {
            let report = run_parallel(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(workers).with_batch_size(8),
                SumI64,
                tumbling(25),
                cfg,
            );
            assert_eq!(finals(report.results.iter().map(|(_, r)| r)), expect, "workers={workers}");
        }
    }

    #[test]
    fn ineligible_workload_falls_back() {
        let elements = [
            StreamElement::Record { ts: 1, value: 4 },
            StreamElement::Record { ts: 3, value: 5 },
            StreamElement::Record { ts: 30, value: 1 },
            StreamElement::Watermark(50),
        ];
        let session: Vec<Box<dyn WindowFunction>> = vec![Box::new(SessionWindow::new(10))];
        let report = run_parallel(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(4),
            SumI64,
            session,
            OperatorConfig::out_of_order(0),
        );
        assert_eq!(report.parallel_workers, 0, "session windows must fall back");
        assert_eq!(report.records, 3);
        let vals: Vec<i64> = report.results.iter().map(|(_, r)| r.value).collect();
        assert_eq!(vals, vec![9, 1]);
    }

    #[test]
    fn a_conflicting_query_set_fails_with_the_operators_own_error() {
        // Count and time measures on an out-of-order stream: ineligible
        // (count), and refused by the fallback's operator. The caller gets
        // `QueryError`'s message, from the one place a driver raises.
        let mixed: Vec<Box<dyn WindowFunction>> =
            vec![Box::new(TumblingWindow::new(10)), Box::new(CountTumblingWindow::new(10))];
        let run = || {
            let elements = [StreamElement::Record { ts: 1, value: 1 }];
            run_parallel(
                elements,
                PipelineConfig::with_parallelism(2),
                SumI64,
                mixed,
                OperatorConfig::out_of_order(10),
            )
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
        let message = payload.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(*message, gss_core::QueryError::MixedMeasuresOutOfOrder.to_string());
    }

    #[test]
    fn in_order_runs_parallel_with_synthesized_watermarks() {
        let elements: Vec<StreamElement<i64>> =
            (0..40).map(|i| StreamElement::Record { ts: i, value: 1 }).collect();
        for batch in [1, 7, 64] {
            let report = run_parallel(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(2).with_batch_size(batch),
                SumI64,
                tumbling(10),
                OperatorConfig::in_order(),
            );
            assert_eq!(report.parallel_workers, 2, "batch={batch}");
            // The sequential in-order operator fires exactly the windows
            // with `end <= max_ts = 39`: three tumbling windows, each
            // summing ten ones — and so must the synthesized rounds.
            assert_eq!(report.result_count, 3, "batch={batch}");
            let mut got: Vec<_> = report
                .results
                .iter()
                .map(|(_, r)| (r.range.start, r.range.end, r.value, r.is_update))
                .collect();
            got.sort();
            assert_eq!(
                got,
                vec![(0, 10, 10, false), (10, 20, 10, false), (20, 30, 10, false)],
                "batch={batch}"
            );
        }
    }

    #[test]
    fn in_order_matches_sequential_with_explicit_watermarks_and_punctuation() {
        // Sorted stream with explicit watermarks (at or below the record
        // horizon, as an in-order stream guarantees) and punctuation,
        // which the in-order operator treats as a trigger sweep.
        let mut elements = Vec::new();
        for i in 0..300i64 {
            elements.push(StreamElement::Record { ts: i * 2, value: i });
            if i % 37 == 36 {
                elements.push(StreamElement::Watermark(i * 2));
            }
            if i % 61 == 60 {
                elements.push(StreamElement::Punctuation(i * 2 + 1));
            }
        }
        let windows: Vec<Box<dyn WindowFunction>> =
            vec![Box::new(TumblingWindow::new(50)), Box::new(SlidingWindow::new(100, 30))];
        let cfg = OperatorConfig::in_order();
        let expect = sequential_finals(&elements, &windows, cfg);
        assert!(!expect.is_empty());
        for workers in [1, 2, 4] {
            for batch in [1, 16, 512] {
                let report = run_parallel(
                    elements.iter().cloned(),
                    PipelineConfig::with_parallelism(workers).with_batch_size(batch),
                    SumI64,
                    windows.iter().map(|w| w.clone_box()).collect(),
                    cfg,
                );
                assert_eq!(report.parallel_workers, workers);
                assert!(
                    report.results.iter().all(|(_, r)| !r.is_update),
                    "in-order runs never emit updates (workers={workers} batch={batch})"
                );
                let got = finals(report.results.iter().map(|(_, r)| r));
                assert_eq!(got, expect, "workers={workers} batch={batch}");
            }
        }
    }

    #[test]
    fn fallback_preserves_in_order_emission() {
        // Forced tuple storage is ineligible regardless of order; the
        // fallback must keep the per-tuple in-order emission semantics.
        let elements: Vec<StreamElement<i64>> =
            (0..40).map(|i| StreamElement::Record { ts: i, value: 1 }).collect();
        let report = run_parallel(
            elements,
            PipelineConfig::with_parallelism(2),
            SumI64,
            tumbling(10),
            OperatorConfig { force_tuple_storage: true, ..OperatorConfig::in_order() },
        );
        assert_eq!(report.parallel_workers, 0);
        // In-order streams emit as tuples cross window ends — no
        // watermarks needed.
        assert_eq!(report.result_count, 3);
    }

    #[test]
    fn parallel_report_carries_fold_and_batch_metrics() {
        let elements = stream_with_watermarks(500, 64);
        let report = run_parallel(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(2).with_batch_size(64),
            SumI64,
            tumbling(10),
            OperatorConfig::out_of_order(30),
        );
        assert_eq!(report.parallel_workers, 2);
        // SumI64 (testsupport) has no fold kernel, so every span is a
        // miss — but spans were folded, and every chunk was recorded.
        assert_eq!(report.fold_hits, 0);
        assert!(report.fold_misses > 0, "spans must be counted");
        assert!(!report.batch_sizes.is_empty());
        assert_eq!(report.batch_sizes.records(), 500);
        assert!(report.batch_sizes.max() <= 64);
    }

    #[test]
    fn throughput_only_counts_without_collecting() {
        let elements = stream_with_watermarks(200, 50);
        let report = run_parallel(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(2).throughput_only(),
            SumI64,
            tumbling(10),
            OperatorConfig::out_of_order(10),
        );
        assert!(report.results.is_empty());
        assert!(report.result_count > 0);
    }
}
