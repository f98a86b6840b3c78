//! The traced run: times the calls into each layer's public functions and
//! reports the per-layer metrics and the ladder
//! `fold -> store -> operator/keyed -> pipeline` in ns per tuple.
//!
//! * the **operator / keyed** rung is the op run again, with a span around
//!   every call;
//! * the **store** and **fold** rungs replay the workload's own schedule —
//!   which slices are cut where, which runs are appended, which late
//!   groups are written, which windows are queried and what is evicted —
//!   directly against `SliceStore` and `AggregateFunction::fold_slice`.
//!   The schedule is worked out per chunk, outside the timed spans, by a
//!   small slicer that follows the operator's documented rules;
//! * the **stream** rungs time `ChunkBuilder::push` alone, the pipeline,
//!   and the three-thread driver with one worker or shard.
//!
//! Timings are floor-based like the end-to-end ones.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use gss_core::{
    AggregateFunction, FxHashMap, HeapSize, Range, SliceStore, StorePolicy, StreamOrder, Time,
    WindowFunction, TIME_MAX, TIME_MIN,
};
use gss_stream::{Batching, ChunkBuilder, PipelineConfig};

use crate::contract::PER_LAYER;
use crate::measure::{
    bottleneck, fan_run, gaps, op_run, pipe_run, set_up, warmup_passes, Check, Stage,
};
use crate::run::{
    check_result_count, op_plan, print_checks, print_floor, print_metrics, Args, Outcome,
};
use crate::source::{Budget, PassLog, Source};
use crate::stats::{floor_time, median, Floor, MIN_BEYOND};
use crate::target::{Keyed, Plain, Setup, Target};
use crate::trace::Tracer;
use crate::workload::{Call, Period, Shape, CHUNK};

/// Shares of `--seconds` a traced run gives each of its phases.
const UNTRACED_OP_SHARE: f64 = 0.12;
const TRACED_OP_SHARE: f64 = 0.14;
const REPLAY_SHARE: f64 = 0.22;
const CHUNK_SHARE: f64 = 0.04;
const GEN_SHARE: f64 = 0.04;
const PIPE_SHARE: f64 = 0.14;
const FAN_SHARE: f64 = 0.12;

/// Per-layer values by name. Everything starts at 0, which means "does not
/// apply to this workload"; a value that applies but lacks the samples its
/// estimator needs is listed in `unsupported` and counts as a failed
/// operation.
pub struct Layers {
    values: Vec<(&'static str, &'static str, f64)>,
    unsupported: Vec<String>,
}

impl Layers {
    fn new() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|&(name, unit, _)| (name, unit, 0.0)).collect(),
            unsupported: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.unsupported.push(format!("{name}: not a number"));
        }
        match self.values.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.2 = if value.is_finite() { value } else { 0.0 },
            None => unreachable!("{name} is not a per-layer metric"),
        }
    }

    /// Sets `name` to a per-pass ratio in thousandths (see [`floor_ratio`]);
    /// a ratio no pass has a denominator for does not apply and stays 0.
    pub fn set_ratio(&mut self, name: &str, ratio: Option<Floor>) {
        if let Some(floor) = ratio {
            self.set_floor(name, floor, 1000.0);
        }
    }

    /// Sets `name` to `floor / per`.
    pub fn set_floor(&mut self, name: &str, floor: Floor, per: f64) {
        if !floor.supported {
            self.unsupported
                .push(format!("{name}: {} passes are too few for a floor", floor.passes));
        }
        self.set(name, floor.ns / per);
    }
}

/// Floor of the per-pass ratio `num / den` over the passes that have a
/// denominator; `None` when none has ("does not apply").
fn floor_ratio(num: &[u64], den: &[u64]) -> Option<Floor> {
    let milli: Vec<u64> =
        num.iter().zip(den).filter(|(_, &d)| d > 0).map(|(&n, &d)| n * 1000 / d).collect();
    (!milli.is_empty()).then(|| floor_time(&milli))
}

/// Whether a timed loop may stop: its wall budget is spent and it holds
/// the passes a floor needs.
fn spent(started: Instant, seconds: f64, passes: usize) -> bool {
    passes > MIN_BEYOND && started.elapsed().as_secs_f64() >= seconds
}

/// What the kind-specific replays add to the ladder.
pub struct Rungs {
    pub fold_ns_per_tuple: f64,
    /// `None` where no slice store is involved (keyed workloads).
    pub store_ns_per_tuple: Option<f64>,
}

/// The layers below the operator, replayed for one kind of target.
pub trait Replay: Target {
    fn replay(
        setup: &Setup,
        period: &Period,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Rungs;
}

// ---------------------------------------------------------------------------
// The schedule a plain operator follows, per chunk
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Append,
    Late,
    Query,
    Evict,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Cut a new slice.
    Append(Range),
    /// Append `run_times[lo..hi]` to the open slice.
    Run { lo: usize, hi: usize },
    /// Query `ranges[lo..hi]`: the windows that fire here.
    Fire { lo: usize, hi: usize },
    /// Evict every slice ending at or before this time.
    Evict(Time),
}

impl Step {
    fn kind(&self) -> Kind {
        match self {
            Step::Append(_) | Step::Run { .. } => Kind::Append,
            Step::Fire { .. } => Kind::Query,
            Step::Evict(_) => Kind::Evict,
        }
    }
}

#[derive(Default)]
struct LateGroup {
    probe: Time,
    t_first: Time,
    t_last: Time,
    values: Vec<i64>,
}

/// One chunk's (or watermark's) worth of store operations.
#[derive(Default)]
struct Plan {
    steps: Vec<Step>,
    run_times: Vec<Time>,
    run_values: Vec<i64>,
    ranges: Vec<Range>,
    /// Late tuples grouped by covering slice; `late[..late_live]` are in use.
    late: Vec<LateGroup>,
    late_live: usize,
    group_of: FxHashMap<Time, usize>,
    late_tuples: u64,
}

impl Plan {
    fn clear(&mut self) {
        self.steps.clear();
        self.run_times.clear();
        self.run_values.clear();
        self.ranges.clear();
        self.late_live = 0;
        self.group_of.clear();
        self.late_tuples = 0;
    }
}

/// Follows the slicing, triggering and eviction rules of `WindowOperator`
/// for time-measure context-free windows, to tell which store operations a
/// chunk or a watermark causes.
struct Slicer {
    windows: Vec<Box<dyn WindowFunction>>,
    in_order: bool,
    lateness: Time,
    extent: Time,
    max_ts: Time,
    /// End of the open slice (`TIME_MIN` before the first tuple).
    open_end: Time,
    first_start: Time,
    /// Windows ending at or before this have fired.
    fired: Time,
    /// Earliest end of a window that has not fired (in-order streams fire
    /// from the tuple that reaches it).
    next_end: Time,
    /// The current chunk's re-stamped event times.
    times: Vec<Time>,
}

impl Slicer {
    fn new(setup: &Setup) -> Self {
        let windows = setup.windows();
        let extent = windows.iter().map(|w| w.max_extent()).max().unwrap_or(0);
        let (in_order, lateness) = match setup.spec.shape {
            Shape::Plain { order, lateness, .. } => (order == StreamOrder::InOrder, lateness),
            Shape::Keyed { .. } => (false, 0),
        };
        Slicer {
            windows,
            in_order,
            lateness,
            extent,
            max_ts: TIME_MIN,
            open_end: TIME_MIN,
            first_start: TIME_MIN,
            fired: TIME_MIN,
            next_end: TIME_MAX,
            times: Vec::new(),
        }
    }

    /// In-order streams slice at window starts only; out-of-order streams
    /// at every window edge.
    fn next_edge(&self, ts: Time) -> Time {
        let edge = |w: &dyn WindowFunction| {
            if self.in_order {
                w.next_start_edge(ts)
            } else {
                w.next_edge(ts)
            }
        };
        self.windows.iter().filter_map(|w| edge(w.as_ref())).min().unwrap_or(TIME_MAX)
    }

    fn slice_start(&self, ts: Time) -> Time {
        self.windows.iter().filter_map(|w| w.prev_edge(ts)).max().unwrap_or(TIME_MIN)
    }

    fn next_window_end(&self) -> Time {
        let probe = if self.fired == TIME_MIN { self.first_start } else { self.fired };
        self.windows.iter().filter_map(|w| w.next_window_end(probe)).min().unwrap_or(TIME_MAX)
    }

    /// Adds the windows ending in `(fired, upto]` as one `Fire` step.
    fn fire(&mut self, upto: Time, plan: &mut Plan) {
        let after = if self.fired == TIME_MIN { self.first_start.min(upto) } else { self.fired };
        let lo = plan.ranges.len();
        if upto > after {
            for w in &mut self.windows {
                w.trigger_windows(after, upto, &mut |r| plan.ranges.push(r));
            }
            self.fired = upto;
        }
        if plan.ranges.len() > lo {
            plan.steps.push(Step::Fire { lo, hi: plan.ranges.len() });
        }
        self.next_end = self.next_window_end();
    }

    /// The store operations that `call` of the repetition at `base` causes.
    fn plan_call(&mut self, period: &Period, base: Time, call: Call, plan: &mut Plan) {
        match call {
            Call::Chunk { lo, hi } => {
                let mut times = std::mem::take(&mut self.times);
                times.clear();
                times.extend(period.times[lo..hi].iter().map(|t| t + base));
                self.plan_chunk(&times, &period.values[lo..hi], plan);
                self.times = times;
            }
            Call::Mark(wm) => self.plan_mark(wm, plan),
        }
    }

    fn plan_chunk(&mut self, times: &[Time], values: &[i64], plan: &mut Plan) {
        plan.clear();
        let mut run_lo = 0;
        for (&ts, &v) in times.iter().zip(values) {
            if ts < self.max_ts {
                let start = self.slice_start(ts);
                let g = *plan.group_of.entry(start).or_insert_with(|| {
                    if plan.late_live == plan.late.len() {
                        plan.late.push(LateGroup::default());
                    }
                    let g = &mut plan.late[plan.late_live];
                    (g.probe, g.t_first, g.t_last) = (ts, ts, ts);
                    g.values.clear();
                    plan.late_live += 1;
                    plan.late_live - 1
                });
                let group = &mut plan.late[g];
                group.values.push(v);
                group.t_first = group.t_first.min(ts);
                group.t_last = group.t_last.max(ts);
                plan.late_tuples += 1;
                continue;
            }
            let cut = ts >= self.open_end || self.open_end == TIME_MIN;
            let fires = self.in_order && ts >= self.next_end;
            if cut || fires {
                if plan.run_times.len() > run_lo {
                    plan.steps.push(Step::Run { lo: run_lo, hi: plan.run_times.len() });
                    run_lo = plan.run_times.len();
                }
                if self.open_end == TIME_MIN {
                    self.first_start = ts;
                    self.open_end = self.next_edge(ts);
                    self.next_end = self.next_window_end();
                    plan.steps.push(Step::Append(Range::new(ts, self.open_end)));
                }
                while ts >= self.open_end {
                    let next = self.next_edge(self.open_end);
                    plan.steps.push(Step::Append(Range::new(self.open_end, next)));
                    self.open_end = next;
                }
                if fires {
                    self.fire(ts, plan);
                }
                if self.in_order && cut {
                    plan.steps.push(Step::Evict(ts - self.extent));
                }
            }
            plan.run_times.push(ts);
            plan.run_values.push(v);
            self.max_ts = ts;
        }
        if plan.run_times.len() > run_lo {
            plan.steps.push(Step::Run { lo: run_lo, hi: plan.run_times.len() });
        }
    }

    fn plan_mark(&mut self, wm: Time, plan: &mut Plan) {
        plan.clear();
        if self.max_ts == TIME_MIN {
            return;
        }
        self.fire(wm.min(self.max_ts.saturating_add(self.extent).saturating_add(1)), plan);
        let lateness = if self.in_order { 0 } else { self.lateness };
        plan.steps.push(Step::Evict(wm - lateness - self.extent));
    }
}

/// Per-pass sums of what a replay did; `ns` is indexed by [`Kind`].
#[derive(Default)]
struct PassSums {
    ns: [u64; 4],
    appended: u64,
    late: u64,
    results: u64,
    evicted: u64,
}

/// Books elapsed time to the kind of store operation in progress; one
/// clock read per change of kind, not two per call.
struct KindClock {
    since: Instant,
    kind: Kind,
}

impl KindClock {
    fn switch(&mut self, to: Kind, sums: &mut PassSums) {
        if to != self.kind {
            self.stop(sums);
            self.kind = to;
        }
    }

    fn stop(&mut self, sums: &mut PassSums) {
        let now = Instant::now();
        sums.ns[self.kind as usize] += (now - self.since).as_nanos() as u64;
        self.since = now;
    }
}

/// Executes a plan against a store.
fn execute<A: AggregateFunction<Input = i64>>(
    plan: &Plan,
    store: &mut SliceStore<A>,
    f: &A,
    sums: &mut PassSums,
) {
    let mut clock = KindClock { since: Instant::now(), kind: Kind::Append };
    for step in &plan.steps {
        clock.switch(step.kind(), sums);
        match *step {
            Step::Append(range) => store.append_slice(range),
            Step::Run { lo, hi } => {
                store.add_in_order_run_columns(&plan.run_times[lo..hi], &plan.run_values[lo..hi]);
                sums.appended += (hi - lo) as u64;
            }
            Step::Fire { lo, hi } => {
                store.flush_eager_repairs();
                for &range in &plan.ranges[lo..hi] {
                    sums.results += u64::from(black_box(store.query_time(range)).is_some());
                }
            }
            Step::Evict(before) => sums.evicted += store.evict_before(before) as u64,
        }
    }
    if plan.late_live > 0 {
        clock.switch(Kind::Late, sums);
        for g in &plan.late[..plan.late_live] {
            // A late tuple older than every slice (the first moments of a
            // stream) would need a gap slice; the replay leaves it out.
            let Some(idx) = store.covering_index(g.probe) else { continue };
            if let Some(p) = f.fold_slice(&g.values) {
                store.add_out_of_order_partial(idx, p, g.t_first, g.t_last, g.values.len());
            }
            sums.late += g.values.len() as u64;
        }
        store.flush_eager_repairs();
    }
    clock.stop(sums);
}

/// What one store replay measured, per measured pass.
#[derive(Default)]
struct StoreReplay {
    total_ns: Vec<u64>,
    ns: [Vec<u64>; 4],
    appended: Vec<u64>,
    late: Vec<u64>,
    results: Vec<u64>,
    evicted: Vec<u64>,
    live_slices_peak: usize,
    bytes_peak: usize,
}

fn policy_name(policy: StorePolicy) -> &'static str {
    match policy {
        StorePolicy::Lazy => "lazy",
        StorePolicy::Eager => "eager",
        StorePolicy::FingerTree => "finger",
    }
}

fn store_span(policy: StorePolicy, kind: Kind) -> &'static str {
    match (policy, kind) {
        (StorePolicy::Lazy, Kind::Append) => "store.append.lazy",
        (StorePolicy::Lazy, Kind::Late) => "store.late.lazy",
        (StorePolicy::Lazy, Kind::Query) => "store.query.lazy",
        (StorePolicy::Lazy, Kind::Evict) => "store.evict.lazy",
        (StorePolicy::Eager, Kind::Append) => "store.append.eager",
        (StorePolicy::Eager, Kind::Late) => "store.late.eager",
        (StorePolicy::Eager, Kind::Query) => "store.query.eager",
        (StorePolicy::Eager, Kind::Evict) => "store.evict.eager",
        (StorePolicy::FingerTree, Kind::Append) => "store.append.finger",
        (StorePolicy::FingerTree, Kind::Late) => "store.late.finger",
        (StorePolicy::FingerTree, Kind::Query) => "store.query.finger",
        (StorePolicy::FingerTree, Kind::Evict) => "store.evict.finger",
    }
}

/// Replays the stream's schedule against a `SliceStore` of `policy`, for
/// `seconds` or `max_passes` measured passes, whichever ends first.
fn replay_store<A>(
    setup: &Setup,
    period: &Period,
    policy: StorePolicy,
    (seconds, max_passes): (f64, usize),
    tracer: &mut Tracer,
) -> StoreReplay
where
    A: AggregateFunction<Input = i64> + Default,
{
    let f = A::default();
    let mut store = SliceStore::new(A::default(), policy, false);
    let mut slicer = Slicer::new(setup);
    let mut plan = Plan::default();
    let mut out = StoreReplay::default();
    let warmup = warmup_passes(setup.spec.name);
    let started = Instant::now();
    for g in 0.. {
        let measured = g >= warmup;
        let done = out.total_ns.len();
        if measured && (done >= max_passes || spent(started, seconds, done)) {
            break;
        }
        let base = period.base(g);
        let mut sums = PassSums::default();
        let pass_start = Instant::now();
        for call in period.calls(g) {
            slicer.plan_call(period, base, call, &mut plan);
            execute(&plan, &mut store, &f, &mut sums);
            let sampled = out.total_ns.len() < crate::measure::MEMORY_PASSES as usize;
            if matches!(call, Call::Mark(_)) && measured && sampled {
                out.live_slices_peak = out.live_slices_peak.max(store.len());
                out.bytes_peak = out.bytes_peak.max(store.heap_bytes());
            }
        }
        if !measured {
            continue;
        }
        // Spans of the replay are per pass and kind: the calls themselves
        // are too short to stamp one by one without distorting them.
        let pass_span = tracer.open("store.pass", 0, g, pass_start);
        let mut at = pass_start;
        for kind in [Kind::Append, Kind::Late, Kind::Query, Kind::Evict] {
            let ns = sums.ns[kind as usize];
            if ns > 0 {
                let end = at + Duration::from_nanos(ns);
                tracer.record(
                    store_span(policy, kind),
                    (pass_span, g),
                    (at, end),
                    period.tuples_per_pass,
                    sums.results as usize,
                );
                at = end;
            }
        }
        tracer.close(pass_span, at, period.tuples_per_pass, sums.results as usize);
        out.total_ns.push(sums.ns.iter().sum());
        for k in 0..4 {
            out.ns[k].push(sums.ns[k]);
        }
        out.appended.push(sums.appended);
        out.late.push(sums.late);
        out.results.push(sums.results);
        out.evicted.push(sums.evicted);
    }
    out
}

/// Replays the same runs and late groups through `fold_slice` alone.
fn replay_fold_plain<A>(
    setup: &Setup,
    period: &Period,
    seconds: f64,
    tracer: &mut Tracer,
) -> Vec<u64>
where
    A: AggregateFunction<Input = i64> + Default,
{
    let f = A::default();
    let mut slicer = Slicer::new(setup);
    let mut plan = Plan::default();
    let mut pass_ns = Vec::new();
    let started = Instant::now();
    for g in 0.. {
        if spent(started, seconds, pass_ns.len()) {
            break;
        }
        let base = period.base(g);
        let pass_start = Instant::now();
        let mut ns = 0;
        for call in period.calls(g) {
            slicer.plan_call(period, base, call, &mut plan);
            let t0 = Instant::now();
            for step in &plan.steps {
                if let Step::Run { lo, hi } = *step {
                    black_box(f.fold_slice(black_box(&plan.run_values[lo..hi])));
                }
            }
            for g in &plan.late[..plan.late_live] {
                black_box(f.fold_slice(black_box(&g.values)));
            }
            ns += t0.elapsed().as_nanos() as u64;
        }
        tracer.record(
            "aggregates.fold",
            (0, g),
            (pass_start, pass_start + Duration::from_nanos(ns)),
            period.tuples_per_pass,
            0,
        );
        pass_ns.push(ns);
    }
    pass_ns
}

impl<A> Replay for Plain<A>
where
    A: AggregateFunction<Input = i64, Output = i64> + Default,
{
    fn replay(
        setup: &Setup,
        period: &Period,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Rungs {
        let tuples = period.tuples_per_pass as f64;
        let own = match setup.spec.shape {
            Shape::Plain { policy, .. } => policy,
            Shape::Keyed { .. } => StorePolicy::Lazy,
        };
        let fold = floor_time(&replay_fold_plain::<A>(setup, period, seconds * 0.16, tracer));
        let fold_rung = fold.ns / tuples;
        layers.set_floor("aggregates.fold_ns_per_tuple", fold, tuples);

        let mut store_rung = 0.0;
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
            let r = replay_store::<A>(setup, period, policy, (seconds * 0.28, usize::MAX), tracer);
            let [append, late, query, evict] = &r.ns;
            let name = policy_name(policy);
            let per =
                |ns: &[u64], count: &[u64]| floor_ratio(ns, count).map_or(0.0, |f| f.ns / 1e3);
            layers
                .set_ratio(&format!("store.late_ns_per_tuple.{name}"), floor_ratio(late, &r.late));
            layers.set_ratio(
                &format!("store.query_ns_per_result.{name}"),
                floor_ratio(query, &r.results),
            );
            let rung = floor_time(&r.total_ns).ns / tuples;
            println!(
                "   store replay ({name:<6}) {} passes: {:.3} ns/tuple | append {:.3} ns per in-order tuple, late {:.3} ns per late tuple, query {:.3} ns per result, evict {:.3} ns per slice | {} slices, {} bytes at peak",
                r.total_ns.len(),
                rung,
                per(append, &r.appended),
                per(late, &r.late),
                per(query, &r.results),
                per(evict, &r.evicted),
                r.live_slices_peak,
                r.bytes_peak
            );
            if policy == own {
                store_rung = rung;
                layers.set_ratio("store.append_ns_per_tuple", floor_ratio(append, &r.appended));
                layers.set_ratio("store.evict_ns_per_slice", floor_ratio(evict, &r.evicted));
                layers.set("store.live_slices_peak", r.live_slices_peak as f64);
                layers.set("store.bytes_peak", r.bytes_peak as f64);
            }
        }
        Rungs { fold_ns_per_tuple: fold_rung, store_ns_per_tuple: Some(store_rung) }
    }
}

impl Replay for Keyed {
    /// The keyed operator folds one run per key and chunk (its per-key
    /// rings are private, so there is no store rung): group each chunk by
    /// key outside the timed span, then fold every group.
    fn replay(
        _setup: &Setup,
        period: &Period,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Rungs {
        let f = gss_aggregates::Sum;
        let mut group_of: FxHashMap<u64, usize> = FxHashMap::default();
        let mut groups: Vec<Vec<i64>> = Vec::new();
        let (mut pass_ns, mut runs, mut tuples) = (Vec::new(), 0u64, 0u64);
        let started = Instant::now();
        for g in 0.. {
            if spent(started, seconds * 0.4, pass_ns.len()) {
                break;
            }
            let pass_start = Instant::now();
            let mut ns = 0;
            for call in period.calls(g) {
                let Call::Chunk { lo, hi } = call else { continue };
                group_of.clear();
                let mut live = 0;
                for i in lo..hi {
                    let gi = *group_of.entry(period.keys[i]).or_insert_with(|| {
                        if live == groups.len() {
                            groups.push(Vec::new());
                        }
                        groups[live].clear();
                        live += 1;
                        live - 1
                    });
                    groups[gi].push(period.values[i]);
                }
                let t0 = Instant::now();
                for values in &groups[..live] {
                    black_box(f.fold_slice(black_box(values)));
                }
                ns += t0.elapsed().as_nanos() as u64;
                runs += live as u64;
                tuples += (hi - lo) as u64;
            }
            tracer.record(
                "aggregates.fold",
                (0, g),
                (pass_start, pass_start + Duration::from_nanos(ns)),
                period.tuples_per_pass,
                0,
            );
            pass_ns.push(ns);
        }
        let fold = floor_time(&pass_ns);
        let fold_rung = fold.ns / period.tuples_per_pass as f64;
        layers.set_floor("aggregates.fold_ns_per_tuple", fold, period.tuples_per_pass as f64);
        layers.set("keyed.run_len_mean", tuples as f64 / runs.max(1) as f64);
        Rungs { fold_ns_per_tuple: fold_rung, store_ns_per_tuple: None }
    }
}

// ---------------------------------------------------------------------------
// Stream rungs that need no operator
// ---------------------------------------------------------------------------

/// `ChunkBuilder::push` alone, under the default batching: every tuple of a
/// pass pushed, the pending chunk taken at each watermark.
fn chunk_rung<V>(
    period: &Period,
    seconds: f64,
    tracer: &mut Tracer,
    record: impl Fn(u64, i64) -> V,
) -> Vec<u64> {
    let mut builder: ChunkBuilder<V> = ChunkBuilder::new(Batching::default());
    let mut pass_ns = Vec::new();
    let started = Instant::now();
    for g in 0.. {
        if spent(started, seconds, pass_ns.len()) {
            break;
        }
        let (base, key_base) = (period.base(g), period.key_base(g));
        let t0 = Instant::now();
        for seg in period.segments(g) {
            for i in seg.lo..seg.hi {
                let key = period.keys.get(i).map_or(0, |k| k + key_base);
                black_box(builder.push(period.times[i] + base, record(key, period.values[i])));
            }
            black_box(builder.take());
        }
        let t1 = Instant::now();
        tracer.record("stream.chunk", (0, g), (t0, t1), period.tuples_per_pass, 0);
        pass_ns.push((t1 - t0).as_nanos() as u64);
    }
    pass_ns
}

/// The source iterator drained alone: what the harness itself costs on the
/// source thread of every driver run.
fn gen_rung(period: &Period, seconds: f64) -> Vec<u64> {
    let mut log = PassLog::default();
    let budget = Budget {
        max_passes: u64::MAX,
        wall: Some(Duration::from_secs_f64(seconds)),
        min_passes: MIN_BEYOND as u64 + 2,
    };
    for e in Source::new(period, budget, &mut log) {
        black_box(e);
    }
    gaps(&log.stamps, 0)
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

pub fn traced<T: Replay>(
    name: &str,
    args: Args,
    setup: &Setup,
    period: &Period,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let s = args.seconds;
    let tuples = period.tuples_per_pass as f64;
    let mut layers = Layers::new();
    let mut tracer = Tracer::new();

    // Operator rung: untraced, then traced; the difference is the tracing
    // overhead.
    let plain = op_run::<T>(setup, period, op_plan(name, s * UNTRACED_OP_SHARE), None, None);
    let op =
        op_run::<T>(setup, period, op_plan(name, s * TRACED_OP_SHARE), None, Some(&mut tracer));
    let (plain_floor, op_floor) = (plain.floor(), op.floor());
    print_floor("op run (untraced)", &plain_floor, plain.warmup, &plain.pass_ns, tuples);
    print_floor("op run (traced)  ", &op_floor, op.warmup, &op.pass_ns, tuples);
    let op_rung = op_floor.ns / tuples;
    let ingest = floor_time(&op.ingest_ns);
    let marks = floor_time(&op.mark_ns).ns;
    let c = op.counters;
    let layer = T::LAYER;
    layers.set_floor(&format!("{layer}.ingest_ns_per_tuple"), ingest, tuples);
    layers.set_ratio(
        &format!("{layer}.emit_ns_per_result"),
        floor_ratio(&op.mark_ns, &op.mark_results),
    );
    layers.set(
        "aggregates.fold_kernel_hit_share",
        c.fold_hits as f64 / (c.fold_hits + c.fold_misses).max(1) as f64,
    );
    layers.set("harness.contention", median(&plain.pass_ns) / plain_floor.ns);
    layers.set("harness.passes", plain.pass_ns.len() as f64);
    layers.set("harness.trace_overhead_share", 1.0 - plain_floor.ns / op_floor.ns);

    let rungs = T::replay(setup, period, s * REPLAY_SHARE, &mut tracer, &mut layers);
    if setup.spec.shape.is_keyed() {
        let fed_marks = (op.results_after.len() * period.marks_per_pass) as f64;
        layers.set("keyed.live_keys_peak", op.live_keys_peak as f64);
        layers.set(
            "keyed.bytes_per_key",
            op.state_bytes_peak as f64 / op.live_keys_peak.max(1) as f64,
        );
        layers.set("keyed.keys_created", c.keys_created as f64);
        layers.set("keyed.keys_evicted", c.keys_evicted as f64);
        layers.set("keyed.heap_wakeups_per_watermark", c.heap_wakeups as f64 / fed_marks);
    } else {
        layers.set("operator.emit_time_share", marks / (ingest.ns + marks));
        layers.set(
            "operator.over_store_ns_per_tuple",
            op_rung - rungs.store_ns_per_tuple.unwrap_or(0.0),
        );
        layers.set("operator.results_per_tuple", c.results as f64 / c.tuples.max(1) as f64);
        layers.set("operator.late_tuple_share", c.late_tuples as f64 / c.tuples.max(1) as f64);
        layers.set("operator.dropped_late", c.dropped_late as f64);
    }

    // Stream rungs.
    // The drivers chunk what the operator ingests: bare values, or
    // key-value pairs for the keyed operator.
    let chunk = if setup.spec.shape.is_keyed() {
        chunk_rung(period, s * CHUNK_SHARE, &mut tracer, |k, v| (k, v))
    } else {
        chunk_rung(period, s * CHUNK_SHARE, &mut tracer, |_, v| v)
    };
    layers.set_floor("stream.chunk_ns_per_tuple", floor_time(&chunk), tuples);
    let gen = gen_rung(period, s * GEN_SHARE);
    layers.set_floor("harness.gen_ns_per_tuple", floor_time(&gen), tuples);

    // Warm-up of a driver run also covers filling the bounded channel
    // once: until then the source runs ahead of the workers unthrottled.
    let fill = ((PipelineConfig::default().channel_capacity + 2) * CHUNK)
        .div_ceil(period.tuples_per_pass) as u64;
    let op_passes = op.results_after.len() as u64;
    let budget = |share: f64, warmup: u64| Budget {
        max_passes: op_passes,
        wall: Some(Duration::from_secs_f64(s * share)),
        min_passes: warmup + MIN_BEYOND as u64 + 1,
    };
    let warmup = warmup_passes(name);
    let pipe = pipe_run::<T>(setup, period, budget(PIPE_SHARE, warmup), warmup);
    let stage = bottleneck(&pipe.source_ns, &pipe.sink_ns);
    let (pipe_ns, pipe_at) = match stage {
        Stage::Source => (&pipe.source_ns, &pipe.source_at),
        Stage::Operator => (&pipe.sink_ns, &pipe.sink_at),
    };
    let pipe_floor = floor_time(pipe_ns);
    print_floor("pipe run         ", &pipe_floor, pipe.warmup, pipe_ns, tuples);
    println!("            limited by the {} thread", stage.name());
    let pipe_rung = pipe_floor.ns / tuples;
    layers.set_floor("stream.pipeline_ns_per_tuple", pipe_floor, tuples);
    layers.set("stream.pipeline_over_op_ns_per_tuple", pipe_rung - plain_floor.ns / tuples);
    layers.set(
        "stream.pipeline_cpu_ns_per_tuple",
        pipe.outcome.cpu_time.as_nanos() as f64 / pipe.outcome.records.max(1) as f64,
    );
    layers.set("stream.batch_size_p50", pipe.outcome.batch_size_p50 as f64);
    // The pipeline's spans are the passes as the limiting stage stamped
    // them, on the clock every other span of the file uses.
    for (i, ends) in pipe_at.windows(2).enumerate().skip(pipe.warmup.max(1) as usize - 1) {
        tracer.record(
            "stream.pipeline",
            (0, i as u64 + 1),
            (ends[0], ends[1]),
            period.tuples_per_pass,
            0,
        );
    }

    // Three threads on two cores: reported and checked, never gated. Timed
    // at the source, whose wake-ups come in bursts once the channel is
    // full, so the figure is the mean over the measured passes, not a floor.
    let fan_warmup = warmup.max(fill + 1);
    let fan = fan_run::<T>(setup, period, budget(FAN_SHARE, fan_warmup), fan_warmup);
    let fan_ns_per_tuple =
        fan.source_ns.iter().sum::<u64>() as f64 / (fan.source_ns.len().max(1) as f64 * tuples);
    println!(
        "   {} (1 worker) {} passes after {} warm-up: mean {:.4} ns/tuple, send wait p99 {:?}",
        T::FAN_DRIVER,
        fan.source_ns.len(),
        fan.warmup,
        fan_ns_per_tuple,
        fan.outcome.send_wait_p99
    );
    if setup.spec.shape.is_keyed() {
        layers.set("stream.sharded_ns_per_tuple", fan_ns_per_tuple);
    } else {
        layers.set("stream.parallel_ns_per_tuple", fan_ns_per_tuple);
        layers.set(
            "stream.parallel_send_wait_p99_us",
            fan.outcome.send_wait_p99.as_nanos() as f64 / 1e3,
        );
    }
    let counts = [
        check_result_count("pipe run", &op, std::slice::from_ref(&pipe), period),
        check_result_count(T::FAN_DRIVER, &op, std::slice::from_ref(&fan), period),
    ];
    print_checks(&counts, op_passes);
    outcome.absorb(&counts);

    let translate_us = (0..5)
        .map(|_| set_up::<T>(name, args.seed).map(|s| s.steps.translate.as_secs_f64() * 1e6))
        .collect::<Result<Vec<f64>, String>>()?;
    layers.set("query.translate_us", translate_us.iter().copied().fold(f64::INFINITY, f64::min));

    print_ladder(T::LAYER, &rungs, op_rung, pipe_rung);
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("target/bench/trace-{name}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(n) => {
            println!("   trace: {n} of {} spans written to {}", tracer.spans.len(), path.display())
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    }
    // A difference of two rungs measured seconds apart can come out below
    // zero; it then says that the host moved, not the program.
    for name in ["stream.pipeline_over_op_ns_per_tuple", "harness.trace_overhead_share"] {
        let value = layers.values.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);
        if value < 0.0 {
            println!("   {name} is NEGATIVE ({value:.4}): its two rungs were measured at different moments and the host was busier during the lower one; re-run before reading it");
        }
    }
    let estimators = Check {
        what: "estimators".into(),
        attempted: layers.values.len() as u64,
        failed: layers.unsupported.len() as u64,
        examples: std::mem::take(&mut layers.unsupported),
    };
    print_checks(std::slice::from_ref(&estimators), op_passes);
    outcome.absorb(&[estimators]);
    for &(name, unit, value) in &layers.values {
        outcome.metric(name, unit, value);
    }
    print_metrics(outcome);
    Ok(())
}

fn print_ladder(layer: &str, rungs: &Rungs, op_rung: f64, pipe_rung: f64) {
    let mut ladder = vec![("fold", rungs.fold_ns_per_tuple)];
    if let Some(store) = rungs.store_ns_per_tuple {
        ladder.push(("store", store));
    }
    ladder.push((layer, op_rung));
    ladder.push(("pipeline", pipe_rung));
    let text: Vec<String> = ladder.iter().map(|(name, ns)| format!("{name} {ns:.3}")).collect();
    println!("   ladder (ns/tuple): {}", text.join(" -> "));
    for pair in ladder.windows(2) {
        let ((below, b), (above, a)) = (pair[0], pair[1]);
        if a < b {
            println!("   ladder: the {above} rung ({a:.3}) is CHEAPER than the {below} rung below it ({b:.3}); see README");
        } else {
            println!("   ladder: {above} adds {:.3} ns/tuple over {below}", a - b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{op_run, OpPlan};
    use crate::rng::SplitMix64;
    use crate::target::{PlainMax, PlainSum};
    use crate::workload::spec;
    use gss_aggregates::{Max, Sum};

    /// The replayed schedule is the operator's: over the same measured
    /// passes the store replay writes every tuple and gets as many window
    /// results as the operator emits. (Only in the first moments of a
    /// stream, which warm-up covers, does it leave out late tuples older
    /// than the first slice.)
    fn replay_matches_operator<T: Target, A: AggregateFunction<Input = i64> + Default>(
        name: &str,
        measured: usize,
    ) {
        let setup = Setup::new(spec(name).unwrap()).unwrap();
        let period = (setup.spec.generate)(&mut SplitMix64::new(4));
        let warmup = warmup_passes(name);
        let plan = OpPlan { warmup, wall: Duration::MAX, max_passes: measured as u64 };
        let op = op_run::<T>(&setup, &period, plan, None, None);
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
            let r = replay_store::<A>(
                &setup,
                &period,
                policy,
                (f64::MAX, measured),
                &mut Tracer::new(),
            );
            assert_eq!(r.total_ns.len(), measured);
            let emitted = op.results_after[op.results_after.len() - 1]
                - op.results_after[warmup as usize - 1];
            assert_eq!(r.results.iter().sum::<u64>(), emitted, "{name} {policy:?}: results");
            let written: u64 = r.appended.iter().chain(&r.late).sum();
            assert_eq!(
                written,
                (measured * period.tuples_per_pass) as u64,
                "{name} {policy:?}: tuples"
            );
        }
    }

    #[test]
    fn store_replay_follows_the_operator_on_every_plain_workload() {
        replay_matches_operator::<PlainSum, Sum>("steady", 6);
        replay_matches_operator::<PlainSum, Sum>("backfill", 6);
        replay_matches_operator::<PlainMax, Max>("query_heavy", 6);
    }

    #[test]
    fn floor_ratio_skips_passes_without_a_denominator() {
        assert_eq!(floor_ratio(&[100, 200, 300], &[0, 0, 0]), None);
        // Too short for a floor: the median of the ratios, and it says so.
        let ratio = floor_ratio(&[100, 999, 300], &[10, 0, 10]).unwrap();
        assert_eq!((ratio.ns / 1e3, ratio.supported), (20.0, false));
        let mut layers = Layers::new();
        layers.set_ratio("store.evict_ns_per_slice", None);
        assert!(layers.unsupported.is_empty());
        layers.set_ratio("store.evict_ns_per_slice", Some(ratio));
        assert_eq!(layers.unsupported.len(), 1);
    }
}
