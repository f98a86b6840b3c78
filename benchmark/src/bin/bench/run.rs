//! One end-to-end run of one workload: the check against the reference,
//! then op run, pipeline run and timed set-ups taking turns, and the six
//! end-to-end metrics computed from them.

use std::path::{Path, PathBuf};
use std::time::Duration;

use gss_query::AggKind;

use crate::layers::{self, Replay};
use crate::measure::{
    bottleneck, pipe_run, set_up, verify, warmup_passes, Check, DriverRun, OpPlan, OpRun, OpRunner,
    SetUpSteps, Stage,
};
use crate::source::Budget;
use crate::stats::{floor_time, median, Floor, MIN_BEYOND};
use crate::target::{Keyed, PlainMax, PlainSum, Setup, Target};
use crate::workload::{spec, Period};

/// Slices the op run and the pipeline run are each measured in.
const SLICES: usize = 6;

/// Complete set-ups timed by one set-up process; a run starts one per slice.
pub const SET_UPS_PER_PROCESS: usize = 10;

/// Measured passes a pipeline call never stops short of.
const MIN_PIPE_PASSES: u64 = MIN_BEYOND as u64 + 1;

/// Start of the report line that says how busy the host was; `aa` reads the
/// op run's figure back from the reports of the runs it starts.
pub const CONTENTION_LINE: &str = "harness.contention (median / floor pass time): op ";

/// Share of `--seconds` spent in the op run, and in the pipeline run; the
/// rest covers set-ups, the reference check and warm-up slack.
const OP_SHARE: f64 = 0.45;
const PIPE_SHARE: f64 = 0.45;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one invocation reports on its last line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Median / floor pass time of the op run: how busy the host was. Not
    /// part of the result line; `aa` prints it for each set.
    pub contention: Option<f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.to_string(), unit, value });
    }

    pub fn absorb(&mut self, checks: &[Check]) {
        for c in checks {
            self.attempted += c.attempted;
            self.failed += c.failed;
        }
    }

    /// The contract's result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads back a result line this program printed (`aa` runs each
    /// workload in a child process). Units come from the contract tables.
    pub fn from_json(line: &str) -> Option<Outcome> {
        let number_after = |text: &str, key: &str| -> Option<f64> {
            let rest = &text[text.find(key)? + key.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        };
        let (head, metrics) = line.split_once("\"metrics\": {")?;
        let mut outcome = Outcome {
            attempted: number_after(head, "\"attempted\":")? as u64,
            failed: number_after(head, "\"failed\":")? as u64,
            ..Outcome::default()
        };
        for entry in metrics.split("\"}").filter(|e| e.contains("\"value\":")) {
            let name = entry.split('"').nth(1)?;
            outcome.metric(
                name,
                crate::contract::unit_of(name)?,
                number_after(entry, "\"value\":")?,
            );
        }
        Some(outcome)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// What to do with a workload once its operator type is known.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// One run: the check, then the end-to-end or the traced measurement.
    Run,
    /// [`SET_UPS_PER_PROCESS`] timed set-ups, a line each (see
    /// [`set_ups_in_child`]).
    SetUps,
}

/// Does `job` on `name` with the operator type its queries call for.
pub fn run_workload(name: &str, args: Args, job: Job) -> Result<Outcome, String> {
    let workload = spec(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let setup = Setup::new(workload)?;
    match (setup.spec.shape.is_keyed(), setup.agg) {
        (true, AggKind::Sum) => dispatch::<Keyed>(name, args, job),
        (false, AggKind::Sum) => dispatch::<PlainSum>(name, args, job),
        (false, AggKind::Max) => dispatch::<PlainMax>(name, args, job),
        (_, other) => Err(format!("no typed operator for {}", other.name())),
    }
}

fn dispatch<T: Replay>(name: &str, args: Args, job: Job) -> Result<Outcome, String> {
    match job {
        Job::Run => run::<T>(name, args),
        Job::SetUps => {
            for _ in 0..SET_UPS_PER_PROCESS {
                let s = set_up::<T>(name, args.seed)?.steps;
                let ns =
                    [s.generate, s.translate, s.construct, s.first_result].map(|d| d.as_nanos());
                println!("{} {} {} {}", ns[0], ns[1], ns[2], ns[3]);
            }
            Ok(Outcome::default())
        }
    }
}

/// Times set-ups in a process of its own and reads the timings back.
///
/// What a set-up costs depends on where its memory comes from: the large
/// workloads allocate 4 MB, which the allocator hands out from pages it
/// kept (8 ms on `keyed_wide`) or fetches from the kernel and faults in
/// again (12 ms), and which of the two it does depends on everything the
/// process allocated and freed before. After an op run whose vectors grew
/// with the number of passes it fitted, whole batches of set-ups ran in
/// one mode or the other (README, "Noise on this host"). A fresh process
/// has the same allocation history every time.
fn set_ups_in_child(name: &str, seed: u64) -> Result<Vec<SetUpSteps>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["set-ups", "--workload", name, "--seed", &seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let steps: Vec<SetUpSteps> = text
        .lines()
        .filter_map(|line| {
            let ns: Vec<u64> = line.split(' ').filter_map(|w| w.parse().ok()).collect();
            let &[generate, translate, construct, first_result] = ns.as_slice() else {
                return None;
            };
            let d = Duration::from_nanos;
            Some(SetUpSteps {
                generate: d(generate),
                translate: d(translate),
                construct: d(construct),
                first_result: d(first_result),
            })
        })
        .collect();
    if !output.status.success() || steps.len() != SET_UPS_PER_PROCESS {
        return Err(format!("{name}: the set-up process gave {} timings", steps.len()));
    }
    Ok(steps)
}

fn run<T: Replay>(name: &str, args: Args) -> Result<Outcome, String> {
    println!(
        "== {name}: seed {} | {} s | {}",
        args.seed,
        args.seconds,
        if args.trace { "traced (per-layer)" } else { "untraced (end-to-end)" }
    );
    let first = set_up::<T>(name, args.seed)?;
    first.period.check_shape()?;
    let (setup, period) = (&first.setup, &first.period);
    println!("   {}", setup.spec.shape_line);
    println!(
        "   input digest {:016x} | period {} passes x {} tuples, {} watermark(s) per pass, first result after {} pass(es) | closed loop, one client: the source is throttled by back-pressure",
        period.digest(),
        period.passes,
        period.tuples_per_pass,
        period.marks_per_pass,
        first.passes
    );
    let mut outcome = Outcome::default();
    let checks = verify::<T>(setup, period, args.trace);
    print_checks(&checks, setup.spec.verify_passes);
    outcome.absorb(&checks);
    if args.trace {
        layers::traced::<T>(name, args, setup, period, &mut outcome)?;
    } else {
        end_to_end::<T>(name, args, setup, period, &mut outcome)?;
    }
    Ok(outcome)
}

pub fn print_checks(checks: &[Check], passes: u64) {
    for c in checks {
        println!(
            "   check {:<22} {} failed of {} over {passes} passes",
            c.what, c.failed, c.attempted
        );
        for e in &c.examples {
            println!("      {e}");
        }
    }
}

pub fn op_plan(name: &str, seconds: f64) -> OpPlan {
    OpPlan {
        warmup: warmup_passes(name),
        wall: Duration::from_secs_f64(seconds),
        max_passes: u64::MAX,
    }
}

/// The op run's result count after as many passes as a driver run fed must
/// equal what the driver counted, and the driver must have seen every
/// record the source emitted.
pub fn check_result_count(what: &str, op: &OpRun, runs: &[DriverRun], period: &Period) -> Check {
    let mut examples = Vec::new();
    for run in runs {
        let expected = op.results_after.get(run.passes as usize - 1).copied();
        let records = run.passes * period.tuples_per_pass as u64;
        if expected != Some(run.outcome.result_count) {
            examples.push(format!(
                "{} results after {} passes, op run had {expected:?}",
                run.outcome.result_count, run.passes
            ));
        }
        if run.outcome.records != records {
            examples.push(format!("{} records, source emitted {records}", run.outcome.records));
        }
    }
    Check {
        what: format!("{what} result count"),
        attempted: 2 * runs.len() as u64,
        failed: examples.len() as u64,
        examples,
    }
}

fn end_to_end<T: Target>(
    name: &str,
    args: Args,
    setup: &Setup,
    period: &Period,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let warmup = warmup_passes(name);
    // The op run and the pipeline run take turns, a slice each, with a
    // process of set-ups after every pair. The host slows down for seconds
    // to minutes at a time (README, "Noise on this host"); of the runs such
    // a phase hit, about half lost only their first or only their second
    // seven seconds, and a measurement spread over the whole run still
    // finds its quiet passes then.
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share / SLICES as f64);
    let mut op = OpRunner::<T>::new(setup, period, warmup);
    let mut pipes: Vec<DriverRun> = Vec::new();
    let mut set_ups = Vec::new();
    for _ in 0..SLICES {
        op.feed(slice(OP_SHARE), u64::MAX, None, None);
        let budget = Budget {
            max_passes: op.passes(),
            wall: Some(slice(PIPE_SHARE)),
            min_passes: warmup + MIN_PIPE_PASSES,
        };
        pipes.push(pipe_run::<T>(setup, period, budget, warmup));
        set_ups.extend(set_ups_in_child(name, args.seed)?);
    }
    let op = op.finish();
    let count = check_result_count("pipe run", &op, &pipes, period);
    let (mut source_ns, mut sink_ns) = (Vec::new(), Vec::new());
    for p in &pipes {
        source_ns.extend_from_slice(&p.source_ns);
        sink_ns.extend_from_slice(&p.sink_ns);
    }
    let (source_ns, sink_ns) = (&source_ns, &sink_ns);
    let dropped = Check {
        what: "dropped_late".into(),
        attempted: 1,
        failed: op.counters.dropped_late,
        examples: Vec::new(),
    };

    let tuples = period.tuples_per_pass as f64;
    let stage = bottleneck(source_ns, sink_ns);
    let pipe_ns = if stage == Stage::Source { source_ns } else { sink_ns };
    let (op_floor, pipe_floor) = (op.floor(), floor_time(pipe_ns));
    let (quiet, p50, p95) = op.emit_percentiles();
    let set_up_ns: Vec<u64> = set_ups.iter().map(|s| s.total().as_nanos() as u64).collect();
    let fastest = set_ups.iter().min_by_key(|s| s.total()).ok_or("no set-up was timed")?;

    // An estimator without the samples it needs is a failed operation, not
    // a number.
    let mut unsupported = Vec::new();
    for (what, ok) in [
        ("op run floor", op_floor.supported),
        ("pipe run floor", pipe_floor.supported),
        ("emit p95", p95.supported()),
        ("state_bytes_peak", op.memory_samples > 0),
    ] {
        if !ok {
            unsupported.push(format!("{what}: too few samples"));
        }
    }
    let estimators = Check {
        what: "estimators".into(),
        attempted: 4,
        failed: unsupported.len() as u64,
        examples: unsupported,
    };
    let checks = [count, dropped, estimators];
    print_checks(&checks, op.results_after.len() as u64);
    outcome.absorb(&checks);

    println!(
        "   set-up   {} set-ups in {} processes: fastest {:.6} s = generate {:.6} s + translate {:.6} s + construct {:.6} s + the passes to the first result {:.6} s | median {:.6} s",
        set_ups.len(),
        set_ups.len() / SET_UPS_PER_PROCESS,
        fastest.total().as_secs_f64(),
        fastest.generate.as_secs_f64(),
        fastest.translate.as_secs_f64(),
        fastest.construct.as_secs_f64(),
        fastest.first_result.as_secs_f64(),
        median(&set_up_ns) / 1e9,
    );
    print_floor("op run  ", &op_floor, op.warmup, &op.pass_ns, tuples);
    print_floor("pipe run", &pipe_floor, warmup, pipe_ns, tuples);
    println!(
        "            {} driver calls, limited by the {} thread (floors: source {:.4} ms, operator {:.4} ms)",
        pipes.len(),
        stage.name(),
        floor_time(source_ns).ns / 1e6,
        floor_time(sink_ns).ns / 1e6
    );
    println!(
        "   emit     {} emitting calls in {quiet} quiet passes (fastest {:.1}%): p50 {:.3} us, p95 {:.3} us with {} samples beyond it | all passes: median {:.3} us",
        p50.samples,
        100.0 * quiet as f64 / op.pass_ns.len() as f64,
        p50.value / 1e3,
        p95.value / 1e3,
        p95.beyond,
        median(&op.emit_ns) / 1e3
    );
    println!(
        "   state    peak {} bytes over {} samples (after every watermark of the first {} measured passes); {} live slices, {} live keys at peak",
        op.state_bytes_peak,
        op.memory_samples,
        crate::measure::MEMORY_PASSES.min(op.pass_ns.len() as u64),
        op.live_slices_peak,
        op.live_keys_peak
    );
    println!(
        "   {CONTENTION_LINE}{:.3}, pipe {:.3}",
        median(&op.pass_ns) / op_floor.ns,
        median(pipe_ns) / pipe_floor.ns
    );

    outcome.contention = Some(median(&op.pass_ns) / op_floor.ns);
    outcome.metric("setup_s", "s", fastest.total().as_secs_f64());
    outcome.metric("op_tuples_per_s", "tuples/s", tuples / op_floor.ns * 1e9);
    outcome.metric("pipe_tuples_per_s", "tuples/s", tuples / pipe_floor.ns * 1e9);
    outcome.metric("emit_p50_us", "us", p50.value / 1e3);
    outcome.metric("emit_p95_us", "us", p95.value / 1e3);
    outcome.metric("state_bytes_peak", "bytes", op.state_bytes_peak as f64);
    print_metrics(outcome);
    Ok(())
}

pub fn print_floor(what: &str, floor: &Floor, warmup: u64, pass_ns: &[u64], tuples: f64) {
    let med = median(pass_ns);
    println!(
        "   {what} {} passes after {warmup} warm-up: floor {:.4} ms ({} faster passes{}) = {:.4} Mtuples/s | median {:.4} ms = {:.4} Mtuples/s",
        floor.passes,
        floor.ns / 1e6,
        floor.faster,
        if floor.supported { "" } else { "; TOO FEW PASSES, this is the median" },
        tuples / floor.ns * 1e3,
        med / 1e6,
        tuples / med * 1e3
    );
}

pub fn print_metrics(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("   {:<44} {:>20.6} {}", m.name, m.value, m.unit);
    }
    println!("   failed {} of {} operations attempted", outcome.failed, outcome.attempted.max(1));
}

/// Root of the checkout (the directory holding `BENCHMARK.json`).
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// The commit of the checkout, read from `.git` without spawning anything;
/// a checkout that is not a git repository says so.
pub fn commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "not a git checkout".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unborn {reference}"))
}

pub fn print_provenance(args: Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "bench: {} | commit {} | nproc {nproc} | seed {} | {} s per workload",
        env!("BENCH_RUSTC_VERSION"),
        commit(),
        args.seed,
        args.seconds
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back() {
        let mut o = Outcome { attempted: 455, failed: 2, ..Outcome::default() };
        o.metric("setup_s", "s", 0.000151449);
        o.metric("op_tuples_per_s", "tuples/s", 786954537.8131078);
        o.metric("emit_p95_us", "us", f64::NAN);
        let line = o.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 455, \"failed\": 2, \"metrics\": {\"setup_s\": {\"value\": 0.000151449, \"unit\": \"s\"}, "));
        let back = Outcome::from_json(&line).unwrap();
        assert_eq!((back.attempted, back.failed, back.metrics.len()), (455, 2, 3));
        assert_eq!(back.metrics[1].name, "op_tuples_per_s");
        assert_eq!(back.metrics[1].value, 786954537.8131078);
        // A value that is not a number prints as 0 and keeps the line valid JSON.
        assert_eq!(back.metrics[2].value, 0.0);
        assert!(Outcome::from_json("no result").is_none());
    }
}
