//! `bench`: the repo's one repeatable benchmark. See `../README.md` and
//! `../../BENCHMARK.json`.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload; last line is the result JSON
//! bench [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]      every workload in turn
//! bench set-ups --workload <name> --seed <n>                        timed set-ups, a line each (a run starts these itself)
//! bench aa --sets <n> [--runs <r>] [--seed <n>] [--seconds <s>] [--quick] [--workload <name>]
//!                                                                   n sets of r runs per workload of the same build, compared
//! ```

mod contract;
mod layers;
mod measure;
mod reference;
mod rng;
mod run;
mod source;
mod stats;
mod target;
mod trace;
mod workload;

use std::process::ExitCode;

use run::{print_provenance, run_workload, Args, Job, Outcome};
use stats::quartiles;

/// `run_seconds` of BENCHMARK.json, the default of `--seconds`.
const RUN_SECONDS: f64 = 15.0;
/// Seconds per workload of a `--quick` smoke (six workloads in under 10 s).
const QUICK_SECONDS: f64 = 0.3;

/// Runs per workload in a set of an A/A: the ten a change is judged on.
const AA_RUNS: usize = 10;

struct Cli {
    aa: bool,
    set_ups: bool,
    workload: Option<String>,
    sets: usize,
    runs: usize,
    args: Args,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        aa: false,
        set_ups: false,
        workload: None,
        sets: 2,
        runs: AA_RUNS,
        args: Args { seed: 1, seconds: RUN_SECONDS, trace: false },
    };
    let mut seconds_given = false;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "aa" => cli.aa = true,
            "set-ups" => cli.set_ups = true,
            "contract" => {
                print!("{}", contract::benchmark_json(RUN_SECONDS as u32));
                std::process::exit(0);
            }
            "--quick" => quick = true,
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                cli.args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--sets" => {
                cli.sets = value("a number")?.parse().map_err(|e| format!("--sets: {e}"))?
            }
            "--runs" => {
                cli.runs = value("a number")?.parse().map_err(|e| format!("--runs: {e}"))?
            }
            "--trace" => cli.args.trace = value("0 or 1")? == "1",
            "--seconds" => {
                cli.args.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if quick && !seconds_given {
        cli.args.seconds = QUICK_SECONDS;
    }
    if !(cli.args.seconds > 0.0 && cli.args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if cli.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    if let Some(w) = &cli.workload {
        if !workload::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}'; the workloads are {}",
                workload::NAMES.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// Runs one workload in a process of its own, the way the benchmark is
/// run for the record: one invocation per workload. (In one long-lived
/// process a later workload inherits the allocator state of the earlier
/// ones; `steady`'s pipeline, which allocates two 32 KiB columns per chunk
/// on one thread and frees them on another, ran 15 % slower as the seventh
/// run of a process than as its first.) The child's report is passed
/// through; its result line and contention line are read back.
fn run_in_child(name: &str, args: Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with("bench: ")).collect();
    let (result, report) =
        lines.split_last().ok_or_else(|| format!("{name}: the run printed nothing"))?;
    println!("{}", report.join("\n"));
    let mut outcome = Outcome::from_json(result)
        .ok_or_else(|| format!("{name}: no result line, got '{result}'"))?;
    let contention = report
        .iter()
        .find_map(|l| l.trim_start().strip_prefix(run::CONTENTION_LINE))
        .and_then(|rest| rest.split(',').next()?.parse().ok());
    outcome.contention = contention;
    Ok(outcome)
}

/// The given workload, or all six in turn. The summary line of a run with
/// several workloads prefixes each metric with its workload.
fn run_all(cli: &Cli) -> Result<Outcome, String> {
    if let Some(name) = &cli.workload {
        return run_workload(name, cli.args, Job::Run);
    }
    let mut all = Outcome::default();
    for name in workload::NAMES {
        let one = run_in_child(name, cli.args)?;
        println!("{}", one.json());
        all.attempted += one.attempted;
        all.failed += one.failed;
        all.metrics.extend(one.metrics.into_iter().map(|mut m| {
            m.name = format!("{name}/{}", m.name);
            m
        }));
    }
    Ok(all)
}

/// One workload x end-to-end metric of an A/A set: a value per run.
struct Cell {
    workload: &'static str,
    metric: &'static str,
    values: Vec<f64>,
}

/// One set of an A/A: every workload (or the one given) run `runs` times,
/// each time with another seed, one process per run.
struct Set {
    cells: Vec<Cell>,
    /// Per workload, the lowest and highest `harness.contention` of its runs.
    contention: Vec<(&'static str, f64, f64)>,
    attempted: u64,
    failed: u64,
}

fn run_set(cli: &Cli) -> Result<Set, String> {
    let mut set = Set { cells: Vec::new(), contention: Vec::new(), attempted: 0, failed: 0 };
    for workload in workload::NAMES {
        if cli.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let first = set.cells.len();
        set.cells.extend(contract::END_TO_END.iter().map(|m| Cell {
            workload,
            metric: m.name,
            values: Vec::new(),
        }));
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for run in 0..cli.runs {
            let args = Args { seed: cli.args.seed + run as u64, ..cli.args };
            let one = run_in_child(workload, args)?;
            println!("{}", one.json());
            set.attempted += one.attempted;
            set.failed += one.failed;
            for cell in &mut set.cells[first..] {
                let m = one.metrics.iter().find(|m| m.name == cell.metric);
                cell.values.push(m.ok_or_else(|| format!("{workload}: no {}", cell.metric))?.value);
            }
            if let Some(c) = one.contention {
                (lo, hi) = (lo.min(c), hi.max(c));
            }
        }
        set.contention.push((workload, lo, hi));
    }
    Ok(set)
}

/// A/A: runs `sets` sets of the same build and judges them the way a
/// change to the program is judged. Per workload and end-to-end metric a
/// set's value is the median of its runs; the gap is the largest relative
/// difference between two sets' values, and the spread of a set is the
/// distance between the quartiles of its runs over their median. A gap
/// beyond the metric's bound, a spread beyond it (`setup_s` excepted, and
/// only with the ten runs the rule is stated for) or a failed operation
/// makes the exit code non-zero.
fn aa(cli: &Cli) -> Result<(bool, String), String> {
    if cli.args.trace {
        return Err("aa compares end-to-end metrics; run it without --trace 1".into());
    }
    let mut sets = Vec::new();
    for i in 0..cli.sets.max(2) {
        println!("-- set {} of {}: {} run(s) per workload", i + 1, cli.sets.max(2), cli.runs);
        sets.push(run_set(cli)?);
    }
    let mut summary = Outcome::default();
    let mut ok = true;
    println!(
        "-- A/A over {} sets of {} run(s) per workload (seeds {}..={}): median per set | largest gap | bound | spread per set",
        sets.len(),
        cli.runs,
        cli.args.seed,
        cli.args.seed + cli.runs as u64 - 1
    );
    for (i, s) in sets.iter().enumerate() {
        let text: Vec<String> =
            s.contention.iter().map(|(name, lo, hi)| format!("{name} {lo:.3}-{hi:.3}")).collect();
        println!(
            "   set {} harness.contention (median / floor op pass time, lowest-highest of the runs, ungated): {}",
            i + 1,
            text.join(", ")
        );
    }
    let median = |v: &[f64]| match quartiles(v) {
        Some((_, q2, _)) => q2,
        None => v[0],
    };
    for (i, cell) in sets[0].cells.iter().enumerate() {
        let medians: Vec<f64> = sets.iter().map(|s| median(&s.cells[i].values)).collect();
        let spreads: Vec<Option<f64>> = sets
            .iter()
            .map(|s| quartiles(&s.cells[i].values).map(|(q1, q2, q3)| (q3 - q1) / q2))
            .collect();
        let (lo, hi) = medians
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        let gap = (hi - lo) / lo;
        let bound = contract::bound_of(cell.metric)
            .ok_or_else(|| format!("{} has no bound", cell.metric))?;
        let spread_gated = cli.runs >= 10 && cell.metric != "setup_s";
        let within =
            gap <= bound && !(spread_gated && spreads.iter().flatten().any(|&s| s > bound));
        ok &= within;
        let name = format!("{}/{}", cell.workload, cell.metric);
        println!(
            "   {:<34} {} | gap {:.4} | bound {:.2} | spread {}{}",
            name,
            medians.iter().map(|v| format!("{v:.6}")).collect::<Vec<_>>().join(" "),
            gap,
            bound,
            spreads
                .iter()
                .map(|s| s.map_or("-".to_string(), |s| format!("{s:.4}")))
                .collect::<Vec<_>>()
                .join(" "),
            if within { "" } else { "  <-- BEYOND ITS BOUND" }
        );
        summary.metric(&format!("{name}.gap"), "share", gap);
    }
    for s in &sets {
        summary.attempted += s.attempted;
        summary.failed += s.failed;
    }
    Ok((ok && summary.correct(), summary.json()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let (true, Some(name)) = (cli.set_ups, &cli.workload) {
        return match run_workload(name, cli.args, Job::SetUps) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    print_provenance(cli.args);
    let result = if cli.aa { aa(&cli) } else { run_all(&cli).map(|o| (o.correct(), o.json())) };
    match result {
        Ok((ok, json)) => {
            println!("{json}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
