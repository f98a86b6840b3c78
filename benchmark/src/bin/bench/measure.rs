//! How a run is measured: the single-threaded op run, the pipeline run,
//! the timed set-up, and the check against the reference.
//!
//! Closed loop, one client: the drivers pull a finite iterator through
//! bounded channels, so the source is throttled by back-pressure. The
//! harness never keeps more than two threads busy on this 2-core host
//! (op run: one; pipeline run: source + operator); the three-thread
//! drivers are run only for the per-layer table.

use std::time::{Duration, Instant};

use gss_core::WindowResult;

use crate::reference::{mismatches, reference, Elem, Expected, Row};
use crate::rng::SplitMix64;
use crate::source::{Budget, PassLog, Source};
use crate::stats::{floor_time, percentile_sorted, quiet_passes, Floor, Pct, P95_MIN_SAMPLES};
use crate::target::{Counters, DriverOutcome, Setup, SinkClock, Target};
use crate::trace::Tracer;
use crate::workload::{spec, Call, Period};

/// Passes over which operator memory is sampled after every watermark: a
/// whole number of periods of every workload, and fewer than
/// [`MIN_OP_PASSES`], so every run covers them and `state_bytes_peak` does
/// not depend on how many passes a run happened to fit.
pub const MEMORY_PASSES: u64 = 64;

/// Passes fed before measuring, so that windows are firing, the store has
/// its steady-state slice population and idle keys are being evicted.
pub fn warmup_passes(name: &str) -> u64 {
    match name {
        // Twice the longest window (20 s, 60 s), the watermark lag (30 s),
        // or a key's life plus its idle time-to-live (10 s).
        "steady" => 5,
        "query_heavy" => 60,
        "backfill" => 12,
        "keyed_churn" => 20,
        _ => 8,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct OpPlan {
    pub warmup: u64,
    /// Wall time for warm-up and measurement together.
    pub wall: Duration,
    /// Measured passes at most (the check runs use this alone).
    pub max_passes: u64,
}

/// Measured passes an op run never stops short of, whatever its wall
/// budget: with one emitting call per pass (`keyed_wide`, `keyed_churn`)
/// the 95th percentile needs this many for ten samples beyond it, and a
/// floor needs a twentieth of it. A `--quick` smoke therefore measures
/// something on every workload.
pub const MIN_OP_PASSES: u64 = P95_MIN_SAMPLES as u64;

/// What an op run recorded. Per-pass vectors cover measured passes only.
#[derive(Debug, Default)]
pub struct OpRun {
    /// Sum of the durations of the operator calls of each pass.
    pub pass_ns: Vec<u64>,
    /// Of which: chunk calls, and watermark calls.
    pub ingest_ns: Vec<u64>,
    pub mark_ns: Vec<u64>,
    /// Results appended by the watermark calls of each pass.
    pub mark_results: Vec<u64>,
    /// Durations of emitting calls, pass by pass: pass `i` owns
    /// `emit_ns[emit_from[i]..emit_from[i + 1]]`.
    pub emit_ns: Vec<u64>,
    pub emit_from: Vec<usize>,
    /// Results emitted up to and including each pass, warm-up included.
    pub results_after: Vec<u64>,
    pub state_bytes_peak: usize,
    pub memory_samples: u64,
    pub live_slices_peak: u64,
    pub live_keys_peak: u64,
    pub warmup: u64,
    /// The operator's counters when the run ended.
    pub counters: Counters,
}

impl OpRun {
    pub fn floor(&self) -> Floor {
        floor_time(&self.pass_ns)
    }

    /// Median and 95th percentile of the emitting-call durations of the
    /// quiet passes, and how many passes those were.
    pub fn emit_percentiles(&self) -> (usize, Pct, Pct) {
        let calls = |i: usize| self.emit_from[i + 1] - self.emit_from[i];
        let quiet = quiet_passes(&self.pass_ns, calls, P95_MIN_SAMPLES);
        let mut ns: Vec<u64> = quiet
            .iter()
            .flat_map(|&i| &self.emit_ns[self.emit_from[i]..self.emit_from[i + 1]])
            .copied()
            .collect();
        ns.sort_unstable();
        (quiet.len(), percentile_sorted(&ns, 0.50), percentile_sorted(&ns, 0.95))
    }
}

/// The op run: one operator fed pass after pass on the calling thread, in
/// [`CHUNK`]-tuple calls cut at watermarks, every call timed. Operator
/// state persists from pass to pass for the whole run. Re-stamping a chunk
/// for the current repetition happens before its timed call; results are
/// drained (into `sink` when checking) after the pass.
///
/// [`OpRunner::feed`] may be called several times, with other measurements
/// in between; the stream and the operator simply continue.
pub struct OpRunner<'a, T: Target> {
    period: &'a Period,
    target: T,
    out: Vec<WindowResult<T::Out>>,
    run: OpRun,
}

impl<'a, T: Target> OpRunner<'a, T> {
    pub fn new(setup: &Setup, period: &'a Period, warmup: u64) -> Self {
        let run = OpRun { warmup, emit_from: vec![0], ..OpRun::default() };
        OpRunner { period, target: T::build(setup), out: Vec::new(), run }
    }

    /// Passes fed so far, warm-up included.
    pub fn passes(&self) -> u64 {
        self.run.results_after.len() as u64
    }

    /// Feeds the next passes of the stream: the rest of the warm-up, then
    /// measured passes until `wall` has elapsed and the run holds
    /// [`MIN_OP_PASSES`], or until it holds `max_measured`.
    pub fn feed(
        &mut self,
        wall: Duration,
        max_measured: u64,
        mut sink: Option<&mut Vec<Row>>,
        mut tracer: Option<&mut Tracer>,
    ) {
        let OpRunner { period, target, out, run } = self;
        let started = Instant::now();
        loop {
            let g = run.results_after.len() as u64;
            let measured = g >= run.warmup;
            let done = run.pass_ns.len() as u64;
            if measured
                && (done >= max_measured || (done >= MIN_OP_PASSES && started.elapsed() >= wall))
            {
                break;
            }
            let (base, key_base) = (period.base(g), period.key_base(g));
            let pass_start = Instant::now();
            let pass_span = tracer.as_deref_mut().map_or(0, |t| t.open("pass", 0, g, pass_start));
            let (mut ingest_ns, mut mark_ns, mut mark_results) = (0u64, 0u64, 0u64);
            let mut end = pass_start;
            for call in period.calls(g) {
                if let Call::Chunk { lo, hi } = call {
                    target.prepare(period, lo, hi, base, key_base);
                }
                let before = out.len();
                let t0 = Instant::now();
                match call {
                    Call::Chunk { lo, hi } => target.ingest(period, lo, hi, out),
                    Call::Mark(wm) => target.watermark(wm, out),
                }
                end = Instant::now();
                let ns = (end - t0).as_nanos() as u64;
                let emitted = out.len() - before;
                if emitted > 0 && measured {
                    run.emit_ns.push(ns);
                }
                let (span, tuples) = match call {
                    Call::Chunk { lo, hi } => (T::INGEST_SPAN, hi - lo),
                    Call::Mark(_) => (T::MARK_SPAN, 0),
                };
                if let Some(t) = tracer.as_deref_mut() {
                    t.record(span, (pass_span, g), (t0, end), tuples, emitted);
                }
                if let Call::Chunk { .. } = call {
                    ingest_ns += ns;
                    continue;
                }
                mark_ns += ns;
                mark_results += emitted as u64;
                if measured && done < MEMORY_PASSES {
                    run.state_bytes_peak = run.state_bytes_peak.max(target.memory_bytes());
                    run.memory_samples += 1;
                    let c = target.counters();
                    run.live_slices_peak = run.live_slices_peak.max(c.live_slices);
                    run.live_keys_peak = run.live_keys_peak.max(c.live_keys);
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.close(pass_span, end, period.tuples_per_pass, out.len());
            }
            run.results_after
                .push(run.results_after.last().copied().unwrap_or(0) + out.len() as u64);
            match sink.as_deref_mut() {
                Some(rows) => rows.extend(out.drain(..).map(|r| T::row(&r))),
                None => out.clear(),
            }
            if measured {
                run.pass_ns.push(ingest_ns + mark_ns);
                run.ingest_ns.push(ingest_ns);
                run.mark_ns.push(mark_ns);
                run.mark_results.push(mark_results);
                run.emit_from.push(run.emit_ns.len());
            }
        }
    }

    pub fn finish(mut self) -> OpRun {
        self.run.counters = self.target.counters();
        self.run
    }
}

/// An op run in one piece.
pub fn op_run<T: Target>(
    setup: &Setup,
    period: &Period,
    plan: OpPlan,
    sink: Option<&mut Vec<Row>>,
    tracer: Option<&mut Tracer>,
) -> OpRun {
    let mut runner = OpRunner::<T>::new(setup, period, plan.warmup);
    runner.feed(plan.wall, plan.max_passes, sink, tracer);
    runner.finish()
}

/// A run of one of the stream drivers, timed from both ends of the
/// channel: by the benchmark's source as it hands over the last element of
/// each pass, and (pipeline runs only) by the [`SinkClock`] around the
/// operator as it finishes each pass.
#[derive(Debug, Default)]
pub struct DriverRun {
    /// When each pass ended, warm-up included, as the source saw it…
    pub source_at: Vec<Instant>,
    /// …and as the operator's thread saw it.
    pub sink_at: Vec<Instant>,
    /// Pass durations after warm-up at the source, and at the operator.
    pub source_ns: Vec<u64>,
    pub sink_ns: Vec<u64>,
    /// Passes the source emitted in all, and how many count as warm-up.
    pub passes: u64,
    pub warmup: u64,
    pub outcome: DriverOutcome,
}

/// The stage of a pipeline run that limits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Source,
    Operator,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Source => "source",
            Stage::Operator => "operator",
        }
    }
}

/// Which stage limits a pipeline whose stages recorded these pass times.
/// Whichever thread is *not* the bottleneck spends its time blocked on the
/// channel and is woken in bursts, so its fastest passes are far shorter
/// than the pipeline can sustain; the bottleneck thread never blocks, and
/// its pass times are its own work. The pipeline's floor is therefore the
/// larger of the two floors.
pub fn bottleneck(source_ns: &[u64], sink_ns: &[u64]) -> Stage {
    if floor_time(source_ns).ns > floor_time(sink_ns).ns {
        Stage::Source
    } else {
        Stage::Operator
    }
}

/// Durations of the passes after the first `warmup` (and the first, which
/// has no predecessor), from the stamps of their ends.
pub fn gaps(stamps: &[Instant], warmup: u64) -> Vec<u64> {
    let from = (warmup as usize).max(1);
    (from..stamps.len()).map(|i| (stamps[i] - stamps[i - 1]).as_nanos() as u64).collect()
}

fn driver_run(
    period: &Period,
    budget: Budget,
    warmup: u64,
    clock: Option<&SinkClock>,
    drive: impl FnOnce(Source<'_>) -> DriverOutcome,
) -> DriverRun {
    let mut log = PassLog::default();
    let outcome = drive(Source::new(period, budget, &mut log));
    let sink_at = clock.map_or(Vec::new(), SinkClock::stamps);
    DriverRun {
        source_ns: gaps(&log.stamps, warmup),
        sink_ns: gaps(&sink_at, warmup),
        passes: log.stamps.len() as u64,
        source_at: log.stamps,
        sink_at,
        warmup,
        outcome,
    }
}

/// A pipeline run: one call of the single-partition driver a user gets
/// (default configuration, results only counted).
pub fn pipe_run<T: Target>(
    setup: &Setup,
    period: &Period,
    budget: Budget,
    warmup: u64,
) -> DriverRun {
    let clock = SinkClock::new(period);
    driver_run(period, budget, warmup, Some(&clock), |source| T::pipe(setup, source, false, &clock))
}

/// A run of the three-thread driver ([`Target::fan`]) with one worker or
/// shard. Its operator is built inside the driver, so passes can only be
/// stamped at the source.
pub fn fan_run<T: Target>(
    setup: &Setup,
    period: &Period,
    budget: Budget,
    warmup: u64,
) -> DriverRun {
    driver_run(period, budget, warmup, None, |source| T::fan(setup, source, false))
}

/// One complete set-up, as a user starting this workload pays it, timed
/// step by step: generate one period of input from the seed; parse and
/// translate the window queries; construct the operator; then feed whole
/// passes until the first result is out.
pub struct SetUp {
    pub steps: SetUpSteps,
    /// Passes fed to the first result.
    pub passes: u64,
    pub setup: Setup,
    pub period: Period,
}

/// How long the steps of one set-up took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetUpSteps {
    pub generate: Duration,
    pub translate: Duration,
    pub construct: Duration,
    pub first_result: Duration,
}

impl SetUpSteps {
    pub fn total(&self) -> Duration {
        self.generate + self.translate + self.construct + self.first_result
    }
}

pub fn set_up<T: Target>(name: &str, seed: u64) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let workload = spec(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let period = (workload.generate)(&mut SplitMix64::new(seed));
    let t1 = Instant::now();
    let setup = Setup::new(workload)?;
    let t2 = Instant::now();
    let mut target = T::build(&setup);
    let t3 = Instant::now();
    let mut out = Vec::new();
    let mut passes = 0;
    while out.is_empty() && passes < 64 {
        let (base, key_base) = (period.base(passes), period.key_base(passes));
        for call in period.calls(passes) {
            match call {
                Call::Chunk { lo, hi } => {
                    target.prepare(&period, lo, hi, base, key_base);
                    target.ingest(&period, lo, hi, &mut out);
                }
                Call::Mark(wm) => target.watermark(wm, &mut out),
            }
        }
        passes += 1;
    }
    let t4 = Instant::now();
    let steps = SetUpSteps {
        generate: t1 - t0,
        translate: t2 - t1,
        construct: t3 - t2,
        first_result: t4 - t3,
    };
    Ok(SetUp { steps, passes, setup, period })
}

/// The first `passes` passes of the stream, flattened for the reference.
pub fn flatten(period: &Period, passes: u64) -> Vec<Elem> {
    let mut elems = Vec::new();
    for g in 0..passes {
        let (base, key_base) = (period.base(g), period.key_base(g));
        for seg in period.segments(g) {
            elems.extend((seg.lo..seg.hi).map(|i| Elem::Tuple {
                ts: period.times[i] + base,
                key: period.keys.get(i).map_or(0, |k| k + key_base),
                value: period.values[i],
            }));
            elems.push(Elem::Mark(seg.wm));
        }
    }
    elems
}

/// One row of the correctness table.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub attempted: u64,
    pub failed: u64,
    /// The first few differences, for the report.
    pub examples: Vec<String>,
}

fn check_rows(what: &str, expected: &Expected, got: &mut [Row], dropped_late: u64) -> Check {
    let diff = mismatches(&expected.rows, got);
    let mut examples: Vec<String> =
        diff.iter().take(3).map(|(kind, row)| format!("{kind} {row:?}")).collect();
    if dropped_late > 0 {
        examples.push(format!("{dropped_late} tuples dropped as too late"));
    }
    Check {
        what: what.to_string(),
        attempted: expected.rows.len().max(got.len()) as u64,
        failed: diff.len() as u64 + dropped_late,
        examples,
    }
}

/// Checks the op run, the pipeline and (on traced runs) the three-thread
/// driver against the brute-force reference over the verification passes.
/// Every differing, missing or extra result is a failed operation.
pub fn verify<T: Target>(setup: &Setup, period: &Period, with_fan: bool) -> Vec<Check> {
    let passes = setup.spec.verify_passes;
    let expected = reference(&flatten(period, passes), &setup.semantics);
    let budget = Budget::passes(passes);
    let mut checks = Vec::new();

    let mut rows = Vec::new();
    let plan = OpPlan { warmup: 0, wall: Duration::MAX, max_passes: passes };
    let run = op_run::<T>(setup, period, plan, Some(&mut rows), None);
    checks.push(check_rows(
        "op run",
        &expected,
        &mut rows,
        run.counters.dropped_late + expected.dropped_late,
    ));

    let mut log = PassLog::default();
    let mut piped =
        T::pipe(setup, Source::new(period, budget, &mut log), true, &SinkClock::new(period));
    checks.push(check_rows("pipe run", &expected, &mut piped.rows, 0));

    if with_fan {
        let mut fanned = T::fan(setup, Source::new(period, budget, &mut log), true);
        let mut check = check_rows(T::FAN_DRIVER, &expected, &mut fanned.rows, 0);
        if fanned.fanout != 1 {
            check.failed += 1;
            check.examples.push(format!("driver used {} workers, expected 1", fanned.fanout));
        }
        checks.push(check);
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{Keyed, PlainSum};

    fn prepared(name: &str) -> (Setup, Period) {
        let setup = Setup::new(spec(name).unwrap()).unwrap();
        let period = (setup.spec.generate)(&mut SplitMix64::new(2));
        (setup, period)
    }

    #[test]
    fn every_driver_matches_the_reference() {
        let (setup, period) = prepared("keyed_hot");
        let checks = verify::<Keyed>(&setup, &period, true);
        assert_eq!(
            checks.iter().map(|c| c.what.as_str()).collect::<Vec<_>>(),
            ["op run", "pipe run", "run_sharded_keyed"]
        );
        assert!(checks.iter().all(|c| c.failed == 0 && c.attempted > 1_000), "{checks:?}");
        let (setup, period) = prepared("backfill");
        let checks = verify::<PlainSum>(&setup, &period, true);
        assert!(checks.iter().all(|c| c.failed == 0 && c.attempted > 1_000), "{checks:?}");
    }

    #[test]
    fn a_wrong_result_is_a_failed_operation_not_a_panic() {
        let (setup, period) = prepared("keyed_hot");
        let expected = reference(&flatten(&period, 2), &setup.semantics);
        let mut got = expected.rows.clone();
        got[3].value += 1;
        got.pop();
        let check = check_rows("op run", &expected, &mut got, 0);
        // One value differs (missing + extra) and one row is missing.
        assert_eq!((check.failed, check.attempted), (3, expected.rows.len() as u64));
        assert_eq!(check.examples.len(), 3);
    }

    #[test]
    fn a_set_up_ends_with_the_first_result() {
        let made = set_up::<Keyed>("keyed_hot", 3).unwrap();
        // Tumbling 1 s windows and one event-second per pass: the first
        // window closes with the second pass's watermark.
        assert_eq!(made.passes, 2);
        assert!(made.steps.first_result > Duration::ZERO);
        assert!(made.steps.total() >= made.steps.generate + made.steps.first_result);
    }

    #[test]
    fn an_op_run_continues_across_feeds_and_pipe_counts_agree() {
        let (setup, period) = prepared("keyed_hot");
        let plan = OpPlan { warmup: 2, wall: Duration::MAX, max_passes: 10 };
        let whole = op_run::<Keyed>(&setup, &period, plan, None, None);
        let mut fed = OpRunner::<Keyed>::new(&setup, &period, 2);
        fed.feed(Duration::MAX, 4, None, None);
        assert_eq!(fed.passes(), 6);
        fed.feed(Duration::MAX, 10, None, None);
        let fed = fed.finish();
        // Fed in two goes, it is the same run.
        assert_eq!(whole.results_after, fed.results_after);
        assert_eq!((fed.pass_ns.len(), fed.emit_from.len()), (10, 11));
        assert_eq!(fed.counters.tuples, 12 * period.tuples_per_pass as u64);
        assert_eq!(fed.memory_samples, 10 * period.marks_per_pass as u64);
        assert_eq!(fed.state_bytes_peak, whole.state_bytes_peak);

        // A spent wall budget does not end a run before it can support its
        // estimators.
        let plan = OpPlan { warmup: 2, wall: Duration::ZERO, max_passes: u64::MAX };
        let short = op_run::<Keyed>(&setup, &period, plan, None, None);
        assert_eq!(short.pass_ns.len() as u64, MIN_OP_PASSES);
        assert!(short.floor().supported && short.emit_percentiles().2.supported());
        assert_eq!(short.memory_samples, MEMORY_PASSES * period.marks_per_pass as u64);

        let pipe = pipe_run::<Keyed>(&setup, &period, Budget::passes(9), 2);
        assert_eq!((pipe.passes, pipe.source_ns.len(), pipe.sink_ns.len()), (9, 7, 7));
        assert_eq!((pipe.source_at.len(), pipe.sink_at.len()), (9, 9));
        assert_eq!(Some(&pipe.outcome.result_count), whole.results_after.get(8));
    }
}
