//! Fold kernels: hand-written [`AggregateFunction::fold_slice`] bulk
//! kernels vs the default lift/combine loop they replace, plus the
//! pipeline-level effect of latency-bounded adaptive batching.
//!
//! Why this binary exists beside `benchmark/`: the benchmark folds only
//! `Sum` and `Max`, and times their kernels with no default fold beside
//! them, at one batching mode. It cannot answer the two questions asked
//! here: what each of eleven functions' kernels buys against a
//! dispatch-opaque default, and how the batching modes compare on one
//! pipeline.
//!
//! Part 1 (kernel microbench): for each aggregate with a kernel —
//! count/sum/avg/min/max/mincount/maxcount, stddev's moments fold,
//! argmin/argmax on `(value, arg)` pairs and m4 on `(ts, value)` pairs —
//! time `fold_slice` on a contiguous run at lengths {64, 512, 4096,
//! 16384} against two baselines:
//!
//! * `default` — the per-element lift/combine loop executed through
//!   function pointers the optimizer cannot see through. This is the
//!   default fold as a dispatch-opaque runtime runs it (debug builds,
//!   dynamically loaded UDFs, megamorphic JIT call sites — the setting
//!   the paper's own JVM implementation pays on every element), and the
//!   headline `speedup` column is measured against it.
//! * `inline_default` — [`AggregateFunction::lift_all`] monomorphized and
//!   fully inlined, exactly as this engine's own fallback path compiles. For
//!   sum-like `i64` folds LLVM auto-vectorizes that loop too, so
//!   `speedup_vs_inline` hovers near 1.0x there; for the min/max family
//!   the contiguous `fold(min)` reduction idiom is one LLVM fails to
//!   match, and for the float moments fold IEEE semantics forbid
//!   reassociation outright, so the explicit lane accumulators
//!   (`gss_aggregates::lanes`) beat even the inline default. The
//!   kernels *guarantee* the vectorized floor instead of hoping for it
//!   (see EXPERIMENTS.md).
//!
//! Filters for iteration and CI smokes, mirroring the ooo bin's
//! `--store`/`--ooo`: `--function <name>` benches one function,
//! `--run-len <n>` one run length. Any filter skips the pipeline sweep
//! and leaves `BENCH_fold.json` untouched.
//!
//! Part 2 (pipeline sweep): `run_keyed` over a 64-key sliding-window sum
//! under full-throttle load, comparing three modes against the
//! `fixed_4096` base of the ratio column: fixed batch sizes 4096 and 1,
//! and the default adaptive batching (target 4096, 1 ms deadline).
//! `fixed_1` is the configuration cliff adaptive retires: one channel
//! send and one per-record `process` call per record. Adaptive reaches
//! the same chunk sizes under load with no batch knob to misconfigure;
//! the gap to fixed-4096 (0.63-0.87x on a 2-vCPU host) is its amortized
//! deadline polling.
//!
//! Writes `target/experiments/fold.csv` and a machine-readable summary
//! to `BENCH_fold.json` at the repo root.
//!
//! Run: `cargo run --release -p gss-bench --bin fold`

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use gss_aggregates::{
    ArgMax, ArgMin, Avg, CountAgg, Max, MaxCount, Min, MinCount, SampleStdDev, Sum, M4,
};
use gss_bench::{fmt_tput, BenchJson, Output};
use gss_core::{
    AggregateFunction, OperatorConfig, StreamElement, Time, WindowAggregator, WindowOperator,
};
use gss_stream::{run_keyed, PipelineConfig, PipelineReport};
use gss_windows::SlidingWindow;

fn scale() -> f64 {
    std::env::var("GSS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

const RUN_LENS: [usize; 4] = [64, 512, 4096, 16384];

/// Every function the microbench covers, in report order.
const FUNCTIONS: [&str; 11] = [
    "count", "sum", "avg", "min", "max", "stddev", "mincount", "maxcount", "argmin", "argmax", "m4",
];

/// Parses `--function <name>` from the CLI, defaulting to all of them.
fn function_filter() -> Option<&'static str> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--function" {
            let want = args.next().unwrap_or_default();
            let picked = FUNCTIONS.iter().copied().find(|&name| name == want);
            assert!(picked.is_some(), "unknown function {want:?}; expected one of {FUNCTIONS:?}");
            return picked;
        }
    }
    None
}

/// Parses `--run-len <n>` from the CLI, defaulting to the full
/// {64, 512, 4096, 16384} sweep.
fn run_len_filter() -> Vec<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--run-len" {
            let want: usize = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--run-len takes one of 64, 512, 4096, 16384");
            assert!(RUN_LENS.contains(&want), "--run-len must be one of 64, 512, 4096, 16384");
            return vec![want];
        }
    }
    RUN_LENS.to_vec()
}

/// A pipeline-sweep mode: display name + config constructor.
type Mode = (&'static str, fn() -> PipelineConfig);

struct KernelRow {
    function: &'static str,
    run_len: usize,
    kernel_ns_per_elem: f64,
    default_ns_per_elem: f64,
    inline_default_ns_per_elem: f64,
    speedup: f64,
    speedup_vs_inline: f64,
    has_kernel: bool,
}

#[derive(Clone, Copy)]
enum FoldPath {
    Kernel,
    InlineDefault,
    OpaqueDefault,
}

/// The default lift/combine loop with per-element calls routed through
/// `black_box`ed function pointers, so the optimizer can neither inline
/// nor vectorize across elements — the shape every dispatch-opaque
/// runtime executes.
fn opaque_fold<A: AggregateFunction>(f: &A, values: &[A::Input]) -> Option<A::Partial> {
    let lift: fn(&A, &A::Input) -> A::Partial = black_box(A::lift);
    let combine: fn(&A, A::Partial, &A::Partial) -> A::Partial = black_box(A::combine);
    let mut acc: Option<A::Partial> = None;
    for v in values {
        let lifted = lift(f, v);
        acc = Some(match acc {
            None => lifted,
            Some(a) => combine(f, a, &lifted),
        });
    }
    acc
}

/// Nanoseconds per element for one fold variant, best of `reps` passes.
fn time_fold<A: AggregateFunction>(
    f: &A,
    values: &[A::Input],
    iters: usize,
    reps: usize,
    path: FoldPath,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            let partial = match path {
                FoldPath::Kernel => f.fold_slice(black_box(values)),
                FoldPath::InlineDefault => f.lift_all(black_box(values)),
                FoldPath::OpaqueDefault => opaque_fold(f, black_box(values)),
            };
            black_box(partial);
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (iters * values.len()) as f64;
        best = best.min(ns);
    }
    best
}

fn bench_kernel<A: AggregateFunction>(
    f: &A,
    name: &'static str,
    values: &[A::Input],
    run_lens: &[usize],
    budget: usize,
    rows: &mut Vec<KernelRow>,
    out: &mut Output,
) {
    for &len in run_lens {
        let run = &values[..len];
        // Folds must agree (the equivalence proptests pin this for every
        // function — bit-exactly for integer kernels, deterministic and
        // ulp-bounded for the float moments; this is a cheap smoke).
        assert!(f.fold_slice(run).is_some(), "{name}: fold of a non-empty run produced nothing");
        let iters = (budget / len).max(8);
        let kernel_ns = time_fold(f, run, iters, 3, FoldPath::Kernel);
        let inline_ns = time_fold(f, run, iters, 3, FoldPath::InlineDefault);
        let default_ns = time_fold(f, run, iters, 3, FoldPath::OpaqueDefault);
        let speedup = default_ns / kernel_ns.max(1e-12);
        let speedup_vs_inline = inline_ns / kernel_ns.max(1e-12);
        out.row(&[
            name.to_string(),
            len.to_string(),
            format!("{kernel_ns:.3}"),
            format!("{default_ns:.3}"),
            format!("{inline_ns:.3}"),
            format!("{speedup:.2}"),
            format!("{speedup_vs_inline:.2}"),
        ]);
        eprintln!(
            "  {name} @ {len}: kernel {kernel_ns:.2} ns/elem, default {default_ns:.2} \
             ({speedup:.2}x), inline default {inline_ns:.2} ({speedup_vs_inline:.2}x)"
        );
        rows.push(KernelRow {
            function: name,
            run_len: len,
            kernel_ns_per_elem: kernel_ns,
            default_ns_per_elem: default_ns,
            inline_default_ns_per_elem: inline_ns,
            speedup,
            speedup_vs_inline,
            has_kernel: f.has_fold_kernel(),
        });
    }
}

struct PipeRow {
    mode: &'static str,
    tuples_per_sec: f64,
    speedup_vs_fixed_4096: f64,
    fold_hits: u64,
    fold_misses: u64,
    batch_p50: u64,
}

fn make_keyed_elements(n: i64, keys: u64) -> Vec<StreamElement<(u64, i64)>> {
    let mut v = Vec::with_capacity(n as usize + n as usize / 1000 + 1);
    for i in 0..n {
        v.push(StreamElement::Record { ts: i, value: (i as u64 % keys, (i % 101) - 50) });
        if i % 1000 == 999 {
            v.push(StreamElement::Watermark(i - 100));
        }
    }
    v.push(StreamElement::Watermark(i64::MAX - 1));
    v
}

fn keyed_factory(_partition: usize) -> Box<dyn WindowAggregator<Sum>> {
    let mut op = WindowOperator::new(Sum, OperatorConfig::out_of_order(1_000));
    op.add_query(Box::new(SlidingWindow::new(10_000, 1_000))).unwrap();
    Box::new(op)
}

/// Best-of-`reps` per mode, with repetitions *interleaved* across modes
/// (round-robin) so slow machine-level drift — CPU frequency, a noisy
/// neighbor on a shared host — hits every mode equally instead of
/// biasing whichever mode happened to run in the fast window. The
/// mode-to-mode *ratios* are the figure; absolute numbers still drift.
fn run_pipe_sweep(
    elements: &[StreamElement<(u64, i64)>],
    modes: &[Mode],
    reps: usize,
) -> Vec<PipelineReport<i64>> {
    let mut best: Vec<Option<PipelineReport<i64>>> = modes.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (slot, (_, cfg)) in best.iter_mut().zip(modes) {
            let r = run_keyed(elements.iter().cloned(), cfg(), keyed_factory);
            if slot.as_ref().is_none_or(|b| r.elapsed < b.elapsed) {
                *slot = Some(r);
            }
        }
    }
    best.into_iter()
        .map(|r| match r {
            Some(r) => r,
            None => unreachable!("at least one repetition"),
        })
        .collect()
}

fn main() {
    let s = scale();
    let budget = (40_000_000.0 * s).max(100_000.0) as usize;
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    // Deterministic value pattern; modest magnitudes so avg/stddev stay
    // well-conditioned at 16k elements. The value range (1001 distinct
    // values over 16k elements) also guarantees extremum ties, so the
    // mincount/argmin-family kernels exercise their tie paths.
    let max_len = *RUN_LENS.last().unwrap_or(&4096);
    let values: Vec<i64> = (0..max_len as i64).map(|i| (i * 37 + 11) % 1_001 - 500).collect();
    // Pair inputs: (value, arg) for argmin/argmax, (ts, value) for m4.
    let arg_pairs: Vec<(i64, i64)> =
        values.iter().enumerate().map(|(i, &v)| (v, i as i64)).collect();
    let ts_pairs: Vec<(Time, i64)> =
        values.iter().enumerate().map(|(i, &v)| (i as Time, v)).collect();

    let fun = function_filter();
    let run_lens = run_len_filter();
    let pick = |name: &str| fun.is_none_or(|want| want == name);

    let mut out = Output::new(
        "fold",
        &[
            "function",
            "run_len",
            "kernel_ns_per_elem",
            "default_ns_per_elem",
            "inline_default_ns_per_elem",
            "speedup",
            "speedup_vs_inline",
        ],
    );
    out.print_header();
    let mut kernel_rows: Vec<KernelRow> = Vec::new();

    macro_rules! cell {
        ($f:expr, $name:literal, $vals:expr) => {
            if pick($name) {
                bench_kernel($f, $name, $vals, &run_lens, budget, &mut kernel_rows, &mut out);
            }
        };
    }
    cell!(&CountAgg, "count", &values);
    cell!(&Sum, "sum", &values);
    cell!(&Avg, "avg", &values);
    cell!(&Min, "min", &values);
    cell!(&Max, "max", &values);
    cell!(&SampleStdDev, "stddev", &values);
    cell!(&MinCount, "mincount", &values);
    cell!(&MaxCount, "maxcount", &values);
    cell!(&ArgMin, "argmin", &arg_pairs);
    cell!(&ArgMax, "argmax", &arg_pairs);
    cell!(&M4, "m4", &ts_pairs);
    out.finish();

    // A filtered run (`--function` / `--run-len`) is for iteration and CI
    // smokes: skip the pipeline sweep and leave BENCH_fold.json untouched.
    if fun.is_some() || run_lens.len() != RUN_LENS.len() {
        eprintln!("  (filtered sweep: pipeline sweep skipped, BENCH_fold.json left untouched)");
        return;
    }

    // Pipeline sweep: adaptive batching vs fixed sizes under full-throttle
    // load (records fed as fast as the source loop runs, so the 1 ms
    // deadline almost never fires and adaptive chunks reach the target
    // size).
    let n = (2_000_000.0 * s).max(50_000.0) as i64;
    let reps = if s < 0.1 { 2 } else { 5 };
    let elements = make_keyed_elements(n, 64);
    eprintln!("\npipeline sweep: {n} records, 64 keys, {cores} cores, reps {reps}");

    // The first mode is the base of the ratio column.
    let modes: [Mode; 3] = [
        ("fixed_4096", || {
            PipelineConfig::with_parallelism(1).throughput_only().with_batch_size(4096)
        }),
        ("fixed_1", || PipelineConfig::with_parallelism(1).throughput_only().with_batch_size(1)),
        ("adaptive", || PipelineConfig::with_parallelism(1).throughput_only()),
    ];

    let reports = run_pipe_sweep(&elements, &modes, reps);
    let base_tput = reports[0].throughput();
    let base_count = reports[0].result_count;
    let mut pipe_rows: Vec<PipeRow> = Vec::new();
    for ((mode, _), report) in modes.iter().zip(&reports) {
        assert_eq!(
            report.result_count, base_count,
            "{mode}: window count diverged from the fixed_4096 base"
        );
        let speedup = report.throughput() / base_tput.max(1e-9);
        eprintln!(
            "  {mode}: {} tuples/s ({speedup:.2}x fixed_4096), fold {}h/{}m, batches {}",
            fmt_tput(report.throughput()),
            report.fold_hits,
            report.fold_misses,
            report.batch_sizes.summary()
        );
        pipe_rows.push(PipeRow {
            mode,
            tuples_per_sec: report.throughput(),
            speedup_vs_fixed_4096: speedup,
            fold_hits: report.fold_hits,
            fold_misses: report.fold_misses,
            batch_p50: report.batch_sizes.quantile(0.5),
        });
    }

    write_json(&kernel_rows, &pipe_rows);
}

/// Writes `BENCH_fold.json` at the repo root via the shared
/// [`BenchJson`] preamble (`workload` + `cores`).
fn write_json(kernels: &[KernelRow], pipe: &[PipeRow]) {
    let mut j = BenchJson::create(
        "fold",
        "fold_slice lane kernels vs default lift/combine fold on contiguous runs; plus \
         run_keyed sliding(10s,1s) sum over 64 keys comparing fixed and adaptive batching",
    );
    let f = j.file();
    writeln!(
        f,
        "  \"note\": \"default = per-element lift/combine through non-inlinable calls (the \
         dispatch-opaque shape; speedup is measured against it); inline_default = the same \
         loop monomorphized+inlined. LLVM auto-vectorizes the inline loop for sum-like i64 \
         folds (speedup_vs_inline ~= 1.0 there by construction), but not for the min/max \
         reduction idiom or the IEEE-ordered float moments, where the explicit lane \
         accumulators win outright; argmin/argmax/m4 fold (value, arg) / (ts, value) pairs \
         through the same fold_slice hook\","
    )
    .unwrap();
    writeln!(f, "  \"run_lens\": [64, 512, 4096, 16384],").unwrap();
    writeln!(f, "  \"kernels\": [").unwrap();
    for (i, r) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"function\": \"{}\", \"run_len\": {}, \"kernel_ns_per_elem\": {:.3}, \
             \"default_ns_per_elem\": {:.3}, \"inline_default_ns_per_elem\": {:.3}, \
             \"speedup\": {:.3}, \"speedup_vs_inline\": {:.3}, \"has_kernel\": {}}}{}",
            r.function,
            r.run_len,
            r.kernel_ns_per_elem,
            r.default_ns_per_elem,
            r.inline_default_ns_per_elem,
            r.speedup,
            r.speedup_vs_inline,
            r.has_kernel,
            comma
        )
        .unwrap();
    }
    writeln!(f, "  ],").unwrap();
    writeln!(f, "  \"pipeline\": [").unwrap();
    for (i, r) in pipe.iter().enumerate() {
        let comma = if i + 1 == pipe.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"mode\": \"{}\", \"tuples_per_sec\": {:.0}, \"speedup_vs_fixed_4096\": \
             {:.3}, \"fold_hits\": {}, \"fold_misses\": {}, \"batch_p50\": {}}}{}",
            r.mode,
            r.tuples_per_sec,
            r.speedup_vs_fixed_4096,
            r.fold_hits,
            r.fold_misses,
            r.batch_p50,
            comma
        )
        .unwrap();
    }
    writeln!(f, "  ]").unwrap();
    j.finish();
}
