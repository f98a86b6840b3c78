//! The system under test, behind one trait: everything that differs
//! between the plain `WindowOperator` workloads and the keyed ones — how
//! the operator is built from the translated queries, how a chunk is
//! handed to it, which single-partition driver is "the pipeline", and
//! which three-thread driver exists for it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gss_aggregates::{Max, Sum};
use gss_core::{
    AggregateFunction, KeyedConfig, KeyedWindowOperator, OperatorConfig, PerKey, StorePolicy,
    StreamOrder, Time, WindowAggregator, WindowFunction, WindowOperator, WindowResult,
};
use gss_query::{translate, AggKind, QueryDsl, WindowDsl};
use gss_stream::{
    run_keyed, run_parallel, run_per_key, run_sharded_keyed, PipelineConfig, PipelineReport,
};

use crate::reference::{Fold, Row, Semantics, Win};
use crate::source::Source;
use crate::workload::{Period, Shape, Spec};

/// A workload's queries after the `gss-query` front end.
pub struct Setup {
    pub spec: Spec,
    pub queries: Vec<QueryDsl>,
    pub agg: AggKind,
    /// The same query set, as the brute-force reference reads it.
    pub semantics: Semantics,
}

impl Setup {
    /// Parses the DSL strings and runs the translator over the set, the way
    /// a user of the query layer would; the benchmark then instantiates the
    /// statically typed operator for the aggregation the queries name.
    pub fn new(spec: Spec) -> Result<Setup, String> {
        let queries =
            spec.queries.iter().map(|q| QueryDsl::parse(q)).collect::<Result<Vec<_>, _>>()?;
        let agg = queries.first().ok_or("workload without queries")?.agg;
        if queries.iter().any(|q| q.agg != agg) {
            return Err("a workload aggregates with one function".into());
        }
        let (order, lateness, policy) = match spec.shape {
            Shape::Plain { order, policy, lateness } => (order, lateness, policy),
            Shape::Keyed { .. } => (StreamOrder::OutOfOrder, 0, StorePolicy::Lazy),
        };
        let translated = translate(&queries, order, lateness, policy).map_err(|e| e.to_string())?;
        if translated.operator_count() != 1 {
            return Err("queries of one workload must share one operator".into());
        }
        let fold = match agg {
            AggKind::Sum => Fold::Sum,
            AggKind::Max => Fold::Max,
            other => return Err(format!("no typed operator for {}", other.name())),
        };
        let windows = queries
            .iter()
            .map(|q| match q.window {
                WindowDsl::Tumble { length } => Ok(Win { length, slide: length }),
                WindowDsl::Slide { length, slide } => Ok(Win { length, slide }),
                other => Err(format!("the reference has no model of {other}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let semantics = Semantics { windows, fold, in_order: order.is_in_order(), lateness };
        Ok(Setup { spec, queries, agg, semantics })
    }

    pub fn windows(&self) -> Vec<Box<dyn WindowFunction>> {
        self.queries.iter().map(|q| q.window.build()).collect()
    }

    pub fn operator_config(&self) -> OperatorConfig {
        match self.spec.shape {
            Shape::Plain { order, policy, lateness } => OperatorConfig {
                order,
                policy,
                allowed_lateness: lateness,
                ..OperatorConfig::default()
            },
            Shape::Keyed { .. } => OperatorConfig::default(),
        }
    }

    pub fn keyed_config(&self) -> KeyedConfig {
        match self.spec.shape {
            Shape::Keyed { idle_ttl: Some(ttl) } => KeyedConfig::default().with_idle_ttl(ttl),
            _ => KeyedConfig::default(),
        }
    }
}

/// Counters the operators keep, in one shape for both kinds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub tuples: u64,
    pub late_tuples: u64,
    pub dropped_late: u64,
    pub results: u64,
    pub fold_hits: u64,
    pub fold_misses: u64,
    pub live_slices: u64,
    pub live_keys: u64,
    pub keys_created: u64,
    pub keys_evicted: u64,
    pub heap_wakeups: u64,
}

/// What a stream driver reported, reduced to what the benchmark reads.
#[derive(Debug, Default)]
pub struct DriverOutcome {
    /// Collected results (empty on throughput-only runs).
    pub rows: Vec<Row>,
    pub result_count: u64,
    pub records: u64,
    pub cpu_time: Duration,
    pub batch_size_p50: u64,
    pub send_wait_p99: Duration,
    /// Threads the driver really used beyond the source (0 = it fell back
    /// to a sequential operator).
    pub fanout: usize,
}

fn outcome<O>(report: PipelineReport<O>, row: impl Fn(&WindowResult<O>) -> Row) -> DriverOutcome {
    DriverOutcome {
        rows: report.results.iter().map(|(_, r)| row(r)).collect(),
        result_count: report.result_count,
        records: report.records,
        cpu_time: report.cpu_time,
        batch_size_p50: report.batch_sizes.quantile(0.5),
        send_wait_p99: report.send_wait.quantile(0.99),
        fanout: report.parallel_workers.max(report.shards),
    }
}

/// The pipeline configuration a user gets: adaptive batching, default
/// channel capacity; results are only counted unless they are checked.
fn pipeline_config(collect: bool) -> PipelineConfig {
    let cfg = PipelineConfig::default();
    if collect {
        cfg
    } else {
        cfg.throughput_only()
    }
}

/// Wall-clock stamps taken on the operator's side of the channel, one per
/// pass; the source stamps its own side. Whichever stage is not the
/// bottleneck is woken in bursts and its pass boundaries measure that
/// wake-up pattern, not the pipeline (on `query_heavy` the source's fastest
/// passes took a fifth of the time the operator needs for one), so a
/// pipeline run needs both (`DriverRun::bottleneck`).
#[derive(Clone)]
pub struct SinkClock {
    marks_per_pass: usize,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl SinkClock {
    pub fn new(period: &Period) -> Self {
        SinkClock { marks_per_pass: period.marks_per_pass, stamps: Arc::default() }
    }

    /// When each pass had been processed in full.
    pub fn stamps(&self) -> Vec<Instant> {
        self.stamps.lock().expect("the operator thread has ended").clone()
    }
}

/// The operator a pipeline worker hosts, wrapped by the benchmark: every
/// call is forwarded, and the watermark that ends a pass is stamped.
struct Stamped<A: AggregateFunction> {
    inner: Box<dyn WindowAggregator<A>>,
    clock: SinkClock,
    marks_seen: usize,
}

impl<A: AggregateFunction> WindowAggregator<A> for Stamped<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        self.inner.process(ts, value, out);
    }

    fn process_batch(
        &mut self,
        batch: &[(Time, A::Input)],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        self.inner.process_batch(batch, out);
    }

    fn process_batch_columns(
        &mut self,
        times: &[Time],
        values: &[A::Input],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        self.inner.process_batch_columns(times, values, out);
    }

    fn fold_stats(&self) -> (u64, u64) {
        self.inner.fold_stats()
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>) {
        self.inner.on_watermark(wm, out);
        self.marks_seen += 1;
        if self.marks_seen.is_multiple_of(self.clock.marks_per_pass) {
            self.clock.stamps.lock().expect("only this thread writes").push(Instant::now());
        }
    }

    fn on_punctuation(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        self.inner.on_punctuation(ts, out);
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

pub trait Target: Sized {
    type Out;
    /// Ladder name of this operator layer, and the span names of its calls.
    const LAYER: &'static str;
    const INGEST_SPAN: &'static str;
    const MARK_SPAN: &'static str;
    /// The three-thread driver reported for this kind of workload.
    const FAN_DRIVER: &'static str;

    fn build(setup: &Setup) -> Self;
    /// Re-stamps the period's tuples `lo..hi` for the current repetition
    /// (outside every timed span).
    fn prepare(&mut self, p: &Period, lo: usize, hi: usize, base: Time, key_base: u64);
    /// The timed call: hands the prepared chunk to the operator.
    fn ingest(&mut self, p: &Period, lo: usize, hi: usize, out: &mut Vec<WindowResult<Self::Out>>);
    fn watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<Self::Out>>);
    fn memory_bytes(&self) -> usize;
    fn counters(&self) -> Counters;
    fn row(r: &WindowResult<Self::Out>) -> Row;
    /// The single-partition driver: source thread plus one operator thread.
    fn pipe(setup: &Setup, source: Source<'_>, collect: bool, clock: &SinkClock) -> DriverOutcome;
    /// The three-thread driver with one worker or shard.
    fn fan(setup: &Setup, source: Source<'_>, collect: bool) -> DriverOutcome;
}

/// A `WindowOperator` over the whole stream.
pub struct Plain<A: AggregateFunction> {
    op: WindowOperator<A>,
    times: Vec<Time>,
}

fn plain_operator<A: AggregateFunction + Default>(setup: &Setup) -> WindowOperator<A> {
    let mut op = WindowOperator::new(A::default(), setup.operator_config());
    for w in setup.windows() {
        op.add_query(w).expect("time-measure queries share an operator");
    }
    op
}

fn plain_row(r: &WindowResult<i64>) -> Row {
    Row {
        query: r.query,
        key: 0,
        start: r.range.start,
        end: r.range.end,
        update: r.is_update,
        value: r.value,
    }
}

impl<A> Target for Plain<A>
where
    A: AggregateFunction<Input = i64, Output = i64> + Default,
{
    type Out = i64;
    const LAYER: &'static str = "operator";
    const INGEST_SPAN: &'static str = "operator.ingest";
    const MARK_SPAN: &'static str = "operator.watermark";
    const FAN_DRIVER: &'static str = "run_parallel";

    fn build(setup: &Setup) -> Self {
        Plain { op: plain_operator(setup), times: Vec::new() }
    }

    fn prepare(&mut self, p: &Period, lo: usize, hi: usize, base: Time, _key_base: u64) {
        self.times.clear();
        self.times.extend(p.times[lo..hi].iter().map(|t| t + base));
    }

    fn ingest(&mut self, p: &Period, lo: usize, hi: usize, out: &mut Vec<WindowResult<i64>>) {
        WindowAggregator::process_batch_columns(&mut self.op, &self.times, &p.values[lo..hi], out);
    }

    fn watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<i64>>) {
        self.op.on_watermark(wm, out);
    }

    fn memory_bytes(&self) -> usize {
        self.op.memory_bytes()
    }

    fn counters(&self) -> Counters {
        let s = self.op.stats();
        Counters {
            tuples: s.tuples,
            late_tuples: s.ooo_tuples,
            dropped_late: s.dropped_late,
            results: s.windows_emitted + s.updates_emitted,
            fold_hits: s.fold_kernel_hits,
            fold_misses: s.fold_kernel_misses,
            live_slices: self.op.slice_count() as u64,
            ..Counters::default()
        }
    }

    fn row(r: &WindowResult<i64>) -> Row {
        plain_row(r)
    }

    fn pipe(setup: &Setup, source: Source<'_>, collect: bool, clock: &SinkClock) -> DriverOutcome {
        let report = run_keyed::<A, _>(source, pipeline_config(collect), |_| {
            Box::new(Stamped {
                inner: Box::new(plain_operator::<A>(setup)),
                clock: clock.clone(),
                marks_seen: 0,
            })
        });
        outcome(report, plain_row)
    }

    fn fan(setup: &Setup, source: Source<'_>, collect: bool) -> DriverOutcome {
        let elements = source.map(|e| e.map(|(_, v)| v));
        let report = run_parallel(
            elements,
            pipeline_config(collect),
            A::default(),
            setup.windows(),
            setup.operator_config(),
        );
        outcome(report, plain_row)
    }
}

pub type PlainSum = Plain<Sum>;
pub type PlainMax = Plain<Max>;

/// One `KeyedWindowOperator` hosting every key.
pub struct Keyed {
    op: KeyedWindowOperator<Sum>,
    batch: Vec<(Time, (u64, i64))>,
}

fn keyed_operator(setup: &Setup) -> KeyedWindowOperator<Sum> {
    KeyedWindowOperator::new(Sum, setup.windows(), setup.keyed_config())
}

fn keyed_row(r: &WindowResult<(u64, i64)>) -> Row {
    Row {
        query: r.query,
        key: r.value.0,
        start: r.range.start,
        end: r.range.end,
        update: r.is_update,
        value: r.value.1,
    }
}

fn keyed_factory(setup: &Setup) -> impl Fn(usize) -> Box<dyn WindowAggregator<PerKey<Sum>>> + '_ {
    move |_| Box::new(keyed_operator(setup))
}

impl Target for Keyed {
    type Out = (u64, i64);
    const LAYER: &'static str = "keyed";
    const INGEST_SPAN: &'static str = "keyed.ingest";
    const MARK_SPAN: &'static str = "keyed.watermark";
    const FAN_DRIVER: &'static str = "run_sharded_keyed";

    fn build(setup: &Setup) -> Self {
        let op = keyed_operator(setup);
        assert!(op.is_shared(), "keyed workloads run on the shared slice timeline");
        Keyed { op, batch: Vec::new() }
    }

    fn prepare(&mut self, p: &Period, lo: usize, hi: usize, base: Time, key_base: u64) {
        self.batch.clear();
        self.batch
            .extend((lo..hi).map(|i| (p.times[i] + base, (p.keys[i] + key_base, p.values[i]))));
    }

    fn ingest(
        &mut self,
        _p: &Period,
        _lo: usize,
        _hi: usize,
        out: &mut Vec<WindowResult<(u64, i64)>>,
    ) {
        self.op.process_batch(&self.batch, out);
    }

    fn watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<(u64, i64)>>) {
        self.op.on_watermark(wm, out);
    }

    fn memory_bytes(&self) -> usize {
        self.op.memory_bytes()
    }

    fn counters(&self) -> Counters {
        let s = self.op.stats();
        Counters {
            tuples: s.tuples,
            late_tuples: s.ooo_tuples,
            dropped_late: s.dropped_late,
            results: s.windows_emitted + s.updates_emitted,
            fold_hits: s.fold_kernel_hits,
            fold_misses: s.fold_kernel_misses,
            live_slices: self.op.live_slices() as u64,
            live_keys: self.op.live_keys() as u64,
            keys_created: s.keys_created,
            keys_evicted: s.keys_evicted,
            heap_wakeups: s.heap_wakeups,
        }
    }

    fn row(r: &WindowResult<(u64, i64)>) -> Row {
        keyed_row(r)
    }

    fn pipe(setup: &Setup, source: Source<'_>, collect: bool, clock: &SinkClock) -> DriverOutcome {
        let factory = keyed_factory(setup);
        let report = run_per_key::<Sum, _>(source, pipeline_config(collect), |i| {
            Box::new(Stamped { inner: factory(i), clock: clock.clone(), marks_seen: 0 })
        });
        outcome(report, keyed_row)
    }

    fn fan(setup: &Setup, source: Source<'_>, collect: bool) -> DriverOutcome {
        outcome(
            run_sharded_keyed::<Sum, _>(source, pipeline_config(collect), keyed_factory(setup)),
            keyed_row,
        )
    }
}
