//! # gss-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section 6). Each `bin/` target reproduces one plot: it
//! prints the same series the paper shows and writes a CSV to
//! `target/experiments/`.
//!
//! Absolute numbers differ from the paper (different hardware, Rust vs.
//! JVM); the *shapes* — which technique wins, by roughly what factor,
//! where crossovers happen — are the reproduction target (EXPERIMENTS.md).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gss_baselines::{AggregateTree, BucketMode, Buckets, Cutty, Pairs, TupleBuffer};
use gss_core::operator::{OperatorConfig, WindowOperator};
use gss_core::{
    AggregateFunction, StorePolicy, StreamElement, StreamOrder, Time, WindowAggregator,
    WindowFunction,
};
use gss_windows::{CountSlidingWindow, CountTumblingWindow, SessionWindow, TumblingWindow};

/// The aggregation techniques compared throughout Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    LazySlicing,
    EagerSlicing,
    Pairs,
    Cutty,
    /// Aggregate buckets (Table 1 row 3) — Flink's default operator.
    Buckets,
    /// Tuple buckets (Table 1 row 4).
    TupleBuckets,
    TupleBuffer,
    AggregateTree,
}

impl Technique {
    pub fn name(self) -> &'static str {
        match self {
            Technique::LazySlicing => "Lazy Slicing",
            Technique::EagerSlicing => "Eager Slicing",
            Technique::Pairs => "Pairs",
            Technique::Cutty => "Cutty",
            Technique::Buckets => "Buckets",
            Technique::TupleBuckets => "Tuple Buckets",
            Technique::TupleBuffer => "Tuple Buffer",
            Technique::AggregateTree => "Aggregate Tree",
        }
    }
}

/// A window query used by the benchmark workloads.
#[derive(Debug, Clone, Copy)]
pub enum QuerySpec {
    Tumbling(i64),
    Sliding(i64, i64),
    Session(i64),
    CountTumbling(u64),
    CountSliding(u64, u64),
}

impl QuerySpec {
    pub fn build(self) -> Box<dyn WindowFunction> {
        match self {
            QuerySpec::Tumbling(l) => Box::new(TumblingWindow::new(l)),
            QuerySpec::Sliding(l, s) => Box::new(gss_windows::SlidingWindow::new(l, s)),
            QuerySpec::Session(g) => Box::new(SessionWindow::new(g).with_retention(g * 64)),
            QuerySpec::CountTumbling(l) => Box::new(CountTumblingWindow::new(l)),
            QuerySpec::CountSliding(l, s) => Box::new(CountSlidingWindow::new(l, s)),
        }
    }
}

/// The paper's standard multi-query workload: `n` concurrent tumbling
/// windows with lengths equally distributed from 1 to 20 seconds
/// (Section 6.2.1) — n queries cycling through the 20 lengths.
pub fn concurrent_tumbling_queries(n: usize) -> Vec<QuerySpec> {
    (0..n).map(|i| QuerySpec::Tumbling(((i % 20) as i64 + 1) * 1_000)).collect()
}

/// Builds an aggregator of the given technique over the given queries.
/// Panics if the technique cannot express the workload (callers pick
/// applicable techniques per experiment, like the paper does).
pub fn build<A: AggregateFunction>(
    tech: Technique,
    f: A,
    queries: &[QuerySpec],
    order: StreamOrder,
    lateness: Time,
) -> Box<dyn WindowAggregator<A>> {
    match tech {
        Technique::LazySlicing | Technique::EagerSlicing => {
            let policy =
                if tech == Technique::LazySlicing { StorePolicy::Lazy } else { StorePolicy::Eager };
            build_slicing(f, policy, queries, order, lateness)
        }
        Technique::Pairs => {
            let mut p = Pairs::new(f);
            for q in queries {
                match q {
                    QuerySpec::Tumbling(l) => {
                        p.add_query(*l, *l);
                    }
                    QuerySpec::Sliding(l, s) => {
                        p.add_query(*l, *s);
                    }
                    other => panic!("Pairs cannot express {other:?}"),
                }
            }
            Box::new(p)
        }
        Technique::Cutty => {
            let mut c = Cutty::new(f);
            for q in queries {
                c.add_query(q.build());
            }
            Box::new(c)
        }
        Technique::Buckets | Technique::TupleBuckets => {
            let mode =
                if tech == Technique::Buckets { BucketMode::Aggregate } else { BucketMode::Tuple };
            let mut b = Buckets::new(f, mode, order, lateness);
            for q in queries {
                b.add_query(q.build());
            }
            Box::new(b)
        }
        Technique::TupleBuffer => {
            let mut t = TupleBuffer::new(f, order, lateness);
            for q in queries {
                t.add_query(q.build());
            }
            Box::new(t)
        }
        Technique::AggregateTree => {
            let mut t = AggregateTree::new(f, order, lateness);
            for q in queries {
                t.add_query(q.build());
            }
            Box::new(t)
        }
    }
}

/// Builds the general slicing operator over the given store policy.
pub fn build_slicing<A: AggregateFunction>(
    f: A,
    policy: StorePolicy,
    queries: &[QuerySpec],
    order: StreamOrder,
    lateness: Time,
) -> Box<dyn WindowAggregator<A>> {
    let cfg = OperatorConfig { order, policy, allowed_lateness: lateness, ..Default::default() };
    let mut op = WindowOperator::new(f, cfg);
    for q in queries {
        op.add_query(q.build()).expect("query mix supported");
    }
    Box::new(op)
}

/// Result of driving one aggregator over a prepared element stream.
pub struct RunReport {
    pub tuples: u64,
    pub results: u64,
    pub seconds: f64,
    pub memory_bytes: usize,
}

impl RunReport {
    pub fn throughput(&self) -> f64 {
        self.tuples as f64 / self.seconds.max(1e-9)
    }
}

/// Best-of-`reps` for a *family* of configurations, with the repetitions
/// interleaved round-robin across configurations: rep 0 of every config
/// runs before rep 1 of any. On a shared host, slow drift (CPU
/// frequency, noisy neighbors) then hits every configuration equally
/// instead of biasing whichever one ran in the fast window — the
/// config-to-config speedup ratios are the figure, so they get the
/// protection. Returns one best report per config, in `configs` order.
pub fn run_best_interleaved<C>(
    reps: usize,
    configs: &[C],
    mut drive: impl FnMut(&C) -> RunReport,
) -> Vec<RunReport> {
    let mut best: Vec<Option<RunReport>> = configs.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (slot, c) in best.iter_mut().zip(configs) {
            let r = drive(c);
            if let Some(b) = slot.as_ref() {
                assert_eq!(r.results, b.results, "result count diverged across repetitions");
            }
            if slot.as_ref().is_none_or(|b| r.seconds < b.seconds) {
                *slot = Some(r);
            }
        }
    }
    best.into_iter().map(|r| r.expect("at least one repetition")).collect()
}

/// Drives the aggregator through the whole element stream, measuring wall
/// time and counting emitted windows.
pub fn run<A: AggregateFunction>(
    agg: &mut dyn WindowAggregator<A>,
    elements: &[StreamElement<A::Input>],
) -> RunReport {
    let mut out = Vec::new();
    let mut tuples = 0u64;
    let mut results = 0u64;
    let start = Instant::now();
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => {
                tuples += 1;
                agg.process(*ts, value.clone(), &mut out);
            }
            StreamElement::Watermark(wm) => agg.on_watermark(*wm, &mut out),
            StreamElement::Punctuation(_) => {}
        }
        results += out.len() as u64;
        out.clear();
    }
    let seconds = start.elapsed().as_secs_f64();
    RunReport { tuples, results, seconds, memory_bytes: agg.memory_bytes() }
}

/// Drives the aggregator through the element stream in struct-of-arrays
/// chunks of `batch_size` records via
/// [`WindowAggregator::process_batch_columns`] — the entry point every
/// pipeline driver calls. Watermarks flush the pending chunk first, so
/// results are identical to [`run`]; only the per-record overhead
/// changes. `batch_size <= 1` takes the per-tuple path outright.
pub fn run_columnar<A: AggregateFunction>(
    agg: &mut dyn WindowAggregator<A>,
    elements: &[StreamElement<A::Input>],
    batch_size: usize,
) -> RunReport {
    if batch_size <= 1 {
        return run(agg, elements);
    }
    let mut out = Vec::new();
    let mut times: Vec<Time> = Vec::with_capacity(batch_size);
    let mut values: Vec<A::Input> = Vec::with_capacity(batch_size);
    let mut tuples = 0u64;
    let mut results = 0u64;
    let start = Instant::now();
    let flush = |times: &mut Vec<Time>,
                 values: &mut Vec<A::Input>,
                 agg: &mut dyn WindowAggregator<A>,
                 out: &mut Vec<_>,
                 tuples: &mut u64| {
        if !times.is_empty() {
            *tuples += times.len() as u64;
            agg.process_batch_columns(times, values, out);
            times.clear();
            values.clear();
        }
    };
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => {
                times.push(*ts);
                values.push(value.clone());
                if times.len() >= batch_size {
                    flush(&mut times, &mut values, agg, &mut out, &mut tuples);
                }
            }
            StreamElement::Watermark(wm) => {
                flush(&mut times, &mut values, agg, &mut out, &mut tuples);
                agg.on_watermark(*wm, &mut out);
            }
            StreamElement::Punctuation(_) => {}
        }
        results += out.len() as u64;
        out.clear();
    }
    flush(&mut times, &mut values, agg, &mut out, &mut tuples);
    results += out.len() as u64;
    let seconds = start.elapsed().as_secs_f64();
    RunReport { tuples, results, seconds, memory_bytes: agg.memory_bytes() }
}

/// Caps a run so slow baselines finish: keeps at most `max_tuples` records
/// (plus interleaved watermarks) from the element stream.
pub fn truncate_elements<V: Clone>(
    elements: &[StreamElement<V>],
    max_tuples: usize,
) -> Vec<StreamElement<V>> {
    let mut out = Vec::new();
    let mut n = 0;
    for e in elements {
        if e.is_record() {
            n += 1;
            if n > max_tuples {
                break;
            }
        }
        out.push(e.clone());
    }
    out
}

/// Converts `(ts, value)` records into stream elements with no watermarks
/// (in-order runs).
pub fn as_elements(tuples: &[(Time, i64)]) -> Vec<StreamElement<i64>> {
    tuples.iter().map(|&(ts, value)| StreamElement::Record { ts, value }).collect()
}

/// A simple experiment CSV + console writer.
pub struct Output {
    rows: Vec<Vec<String>>,
    header: Vec<String>,
    path: std::path::PathBuf,
}

impl Output {
    /// Creates an output named e.g. `fig8`; the CSV lands in
    /// `target/experiments/fig8.csv`.
    pub fn new(name: &str, header: &[&str]) -> Self {
        let dir = std::path::Path::new("target/experiments");
        std::fs::create_dir_all(dir).expect("create experiment dir");
        Output {
            rows: Vec::new(),
            header: header.iter().map(|s| s.to_string()).collect(),
            path: dir.join(format!("{name}.csv")),
        }
    }

    pub fn print_header(&self) {
        println!("{}", self.header.join("\t"));
    }

    pub fn row(&mut self, cells: &[String]) {
        println!("{}", cells.join("\t"));
        self.rows.push(cells.to_vec());
    }

    pub fn finish(self) {
        let mut f = std::fs::File::create(&self.path).expect("create csv");
        writeln!(f, "{}", self.header.join(",")).unwrap();
        for r in &self.rows {
            writeln!(f, "{}", r.join(",")).unwrap();
        }
        eprintln!(
            "wrote {} ({} | commit {})",
            self.path.display(),
            rustc_version(),
            git_commit(Path::new("."))
        );
    }
}

/// The workload scale every figure binary reads from `GSS_SCALE`: a
/// factor on its tuple counts (and, for some, its repetitions); 1.0, the
/// full scale, when unset or unparseable.
pub fn scale() -> f64 {
    std::env::var("GSS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// A result the paper claims for a figure, stated as a predicate over the
/// figure's own output: a measured number must reach a bound. `margin` is
/// their ratio, at least 1 where the claim holds.
pub struct Claim {
    pub name: String,
    /// Where the paper makes the claim.
    pub paper: &'static str,
    pub holds: bool,
    pub margin: f64,
}

impl Claim {
    /// The claim that `measured ≥ bound`.
    pub fn at_least(
        name: impl Into<String>,
        paper: &'static str,
        measured: f64,
        bound: f64,
    ) -> Self {
        let margin = measured / bound;
        Claim { name: name.into(), paper, holds: margin >= 1.0, margin }
    }

    /// The claim that `measured ≤ bound`.
    pub fn at_most(
        name: impl Into<String>,
        paper: &'static str,
        measured: f64,
        bound: f64,
    ) -> Self {
        Self::at_least(name, paper, bound, measured)
    }
}

/// Prints every claim to stderr and exits with status 1 if one fails.
pub fn check_claims(claims: &[Claim]) {
    for c in claims {
        let verdict = if c.holds { "holds" } else { "FAILS" };
        eprintln!("claim {verdict}: {} ({}), margin {:.2}", c.name, c.paper, c.margin);
    }
    if claims.iter().any(|c| !c.holds) {
        std::process::exit(1);
    }
}

/// Logical cores visible to this process. Every `BENCH_*.json` records
/// it so scaling claims can be read in context: on a 1-core container a
/// flat-to-declining parallel curve is the expected shape, not a bug.
fn machine_cores() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// First line of `rustc -V` (e.g. `rustc 1.95.0 (…)`), or `"unknown"`
/// when the compiler is not on PATH at run time.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Short git commit hash of the tree at `dir`, suffixed with `-dirty`
/// when its working tree has uncommitted changes, or `"unknown"` outside
/// a git checkout.
fn git_commit(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(hash) = git(&["rev-parse", "--short", "HEAD"]).map(|s| s.trim().to_string()) else {
        return "unknown".to_string();
    };
    if hash.is_empty() {
        return "unknown".to_string();
    }
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    if dirty {
        format!("{hash}-dirty")
    } else {
        hash
    }
}

/// Incremental writer for the `BENCH_<name>.json` summaries at the repo
/// root (no serde in the tree; the schemas are flat, so hand-rolled JSON
/// is fine). Opens the object and writes the shared preamble —
/// `workload`, `cores`, and the provenance pair `rustc` + `commit` — so
/// no bin can forget to record the machine width and toolchain its
/// numbers came from; the bin streams its own sections through
/// [`BenchJson::file`] and closes the object with [`BenchJson::finish`].
pub struct BenchJson {
    f: std::fs::File,
    path: PathBuf,
}

impl BenchJson {
    /// Creates `BENCH_<name>.json` and writes `workload` + `cores` plus
    /// the `rustc` / `commit` provenance of the run.
    /// `workload` must not contain characters needing JSON escapes.
    pub fn create(name: &str, workload: &str) -> Self {
        Self::create_in(Path::new("."), name, workload)
    }

    /// [`create`](Self::create) in directory `dir`. The commit is read
    /// before the file is created: truncating a tracked summary first
    /// would show `git status` a changed file and stamp every clean
    /// regeneration `-dirty`.
    fn create_in(dir: &Path, name: &str, workload: &str) -> Self {
        let commit = git_commit(dir);
        let path = dir.join(format!("BENCH_{name}.json"));
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        writeln!(f, "{{").expect("write json");
        writeln!(f, "  \"workload\": \"{workload}\",").expect("write json");
        writeln!(f, "  \"cores\": {},", machine_cores()).expect("write json");
        writeln!(f, "  \"rustc\": \"{}\",", rustc_version()).expect("write json");
        writeln!(f, "  \"commit\": \"{commit}\",").expect("write json");
        BenchJson { f, path }
    }

    /// Records which store policies the run swept as a `"stores"` array,
    /// so a summary regenerated under a `--store` filter is
    /// distinguishable from the full three-store sweep.
    pub fn stores(&mut self, names: &[&str]) {
        let list = names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ");
        writeln!(self.f, "  \"stores\": [{list}],").expect("write json");
    }

    /// The underlying file, for the bin-specific sections. Lines written
    /// here continue the top-level object, so the last section must not
    /// end with a comma.
    pub fn file(&mut self) -> &mut std::fs::File {
        &mut self.f
    }

    /// Closes the JSON object and reports the path.
    pub fn finish(mut self) {
        writeln!(self.f, "}}").expect("write json");
        eprintln!("wrote {}", self.path.display());
    }
}

/// Human-readable throughput.
pub fn fmt_tput(tps: f64) -> String {
    if tps >= 1e6 {
        format!("{:.2}M", tps / 1e6)
    } else if tps >= 1e3 {
        format!("{:.1}k", tps / 1e3)
    } else {
        format!("{tps:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_aggregates::Sum;

    #[test]
    fn a_summary_regenerated_at_a_clean_commit_is_stamped_clean() {
        let dir = std::env::temp_dir().join(format!("gss-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the repository");
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=bench", "-c", "user.email=bench@localhost"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .expect("run git");
            assert!(out.status.success(), "git {args:?}: {}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8(out.stdout).expect("utf-8").trim().to_string()
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("BENCH_t.json"), "{}\n").expect("write the summary");
        git(&["add", "BENCH_t.json"]);
        git(&["commit", "-q", "-m", "summary"]);
        let head = git(&["rev-parse", "--short", "HEAD"]);

        BenchJson::create_in(&dir, "t", "w").finish();
        let written = std::fs::read_to_string(dir.join("BENCH_t.json")).expect("read it back");
        assert!(!git(&["status", "--porcelain"]).is_empty(), "the summary was rewritten");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(written.contains(&format!("\"commit\": \"{head}\",")), "{written}");
    }

    #[test]
    fn build_and_run_every_technique_in_order() {
        let tuples: Vec<(Time, i64)> = (0..5_000).map(|i| (i, 1)).collect();
        let elements = as_elements(&tuples);
        let queries = concurrent_tumbling_queries(5);
        for tech in [
            Technique::LazySlicing,
            Technique::EagerSlicing,
            Technique::Pairs,
            Technique::Cutty,
            Technique::Buckets,
            Technique::TupleBuckets,
            Technique::TupleBuffer,
            Technique::AggregateTree,
        ] {
            let mut agg = build(tech, Sum, &queries, StreamOrder::InOrder, 0);
            let report = run(agg.as_mut(), &elements);
            assert_eq!(report.tuples, 5_000, "{}", tech.name());
            assert!(report.results > 0, "{} produced no windows", tech.name());
        }
    }

    #[test]
    fn run_columnar_matches_run_for_every_technique() {
        let tuples: Vec<(Time, i64)> = (0..5_000).map(|i| (i, i % 7)).collect();
        let elements = as_elements(&tuples);
        let queries = concurrent_tumbling_queries(5);
        for tech in [
            Technique::LazySlicing,
            Technique::EagerSlicing,
            Technique::Pairs,
            Technique::Cutty,
            Technique::Buckets,
            Technique::TupleBuckets,
            Technique::TupleBuffer,
            Technique::AggregateTree,
        ] {
            let mut base = build(tech, Sum, &queries, StreamOrder::InOrder, 0);
            let baseline = run(base.as_mut(), &elements);
            for batch_size in [1usize, 64, 512] {
                let mut agg = build(tech, Sum, &queries, StreamOrder::InOrder, 0);
                let report = run_columnar(agg.as_mut(), &elements, batch_size);
                assert_eq!(report.tuples, baseline.tuples, "{} tuples", tech.name());
                assert_eq!(
                    report.results,
                    baseline.results,
                    "{} results @ batch {batch_size}",
                    tech.name()
                );
            }
        }
    }

    #[test]
    fn query_workload_shape() {
        let qs = concurrent_tumbling_queries(45);
        assert_eq!(qs.len(), 45);
        assert!(matches!(qs[0], QuerySpec::Tumbling(1000)));
        assert!(matches!(qs[19], QuerySpec::Tumbling(20_000)));
        assert!(matches!(qs[20], QuerySpec::Tumbling(1000)));
    }

    #[test]
    fn truncation_caps_records() {
        let tuples: Vec<(Time, i64)> = (0..100).map(|i| (i, 1)).collect();
        let elements = as_elements(&tuples);
        let t = truncate_elements(&elements, 10);
        assert_eq!(t.iter().filter(|e| e.is_record()).count(), 10);
    }
}
