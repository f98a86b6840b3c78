//! Keyed window aggregation: shared-timeline keyed operator vs the naive
//! map-of-operators baseline (beyond the paper — per-key state with
//! shared slice metadata, key-grouped batches, and bucket-gated
//! watermarks).
//!
//! Why this binary stays beside the repo benchmark: `benchmark/` times
//! the shared timeline alone, at 100 to 20 000 keys. The question it
//! cannot answer is how the shared timeline compares with the
//! map-of-operators baseline (`NaiveKeyedOperator`, one operator per key)
//! from 10 k to 1 M keys — the cardinality at which a keyed layout pays
//! off or does not. Only this binary runs both on one stream.
//!
//! Two phases:
//!
//! * **Throughput** — sliding-window sum (1 s length, 250 ms slide) over
//!   an in-order stream round-robining across K ∈ {1, 100, 10k, 100k,
//!   1M} keys, periodic watermarks, batched ingestion. Both operators
//!   must produce identical result sets; the shared operator should pull
//!   ahead as K grows (one boundary decision per run instead of per
//!   key, no per-key operator state).
//! * **Watermark latency** — K drained idle keys plus a small active
//!   set; measures the cost of one `on_watermark` call as K grows. The
//!   naive baseline sweeps every key per watermark (O(K)); the shared
//!   operator's due buckets wake only keys with due windows, so its
//!   cost should stay flat (sublinear in idle keys).
//!
//! Writes `target/experiments/keyed.csv` and a machine-readable summary
//! to `BENCH_keyed.json` at the repo root. The shared operator's
//! throughput cells of the file being replaced are carried over as
//! `"previous"`, with the commit they were measured at, so a
//! regeneration after a keyed-layout change records before and after
//! side by side (run the parent commit's bin first for a same-host
//! "before").
//!
//! Run: `cargo run --release -p gss-bench --bin keyed`

use std::io::Write as _;
use std::time::Instant;

use gss_aggregates::Sum;
use gss_bench::{fmt_tput, BenchJson, Output};
use gss_core::{
    KeyedConfig, KeyedWindowOperator, NaiveKeyedOperator, PerKey, StreamElement, Time,
    WindowAggregator, WindowResult,
};
use gss_windows::SlidingWindow;

fn scale() -> f64 {
    std::env::var("GSS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

const WINDOW_LEN: i64 = 1_000;
const WINDOW_SLIDE: i64 = 250;
const LATENESS: i64 = 500;
const BATCH: usize = 512;

fn keyed_config() -> KeyedConfig {
    KeyedConfig::default().with_allowed_lateness(LATENESS)
}

fn windows() -> Vec<Box<dyn gss_core::WindowFunction>> {
    vec![Box::new(SlidingWindow::new(WINDOW_LEN, WINDOW_SLIDE))]
}

fn shared_op() -> KeyedWindowOperator<Sum> {
    let op = KeyedWindowOperator::new(Sum, windows(), keyed_config());
    assert!(op.is_shared(), "sliding sum must take the shared path");
    op
}

fn naive_op() -> NaiveKeyedOperator<Sum> {
    NaiveKeyedOperator::new(Sum, windows(), keyed_config())
}

/// In-order keyed stream: one record per millisecond round-robining over
/// `keys`, watermarks every second lagging [`LATENESS`], final flush.
fn make_elements(n: usize, keys: u64) -> Vec<StreamElement<(u64, i64)>> {
    let mut v: Vec<StreamElement<(u64, i64)>> = Vec::with_capacity(n + n / 1_000 + 2);
    for i in 0..n {
        let ts = i as Time;
        v.push(StreamElement::Record { ts, value: (i as u64 % keys, 1) });
        if i % 1_000 == 999 {
            v.push(StreamElement::Watermark(ts - LATENESS));
        }
    }
    v.push(StreamElement::Watermark(i64::MAX - 1));
    v
}

struct DriveReport {
    tuples: u64,
    seconds: f64,
    memory_bytes: usize,
    /// Sorted `(key, start, end, value, is_update)` result fingerprint.
    results: Vec<(u64, Time, Time, i64, bool)>,
}

impl DriveReport {
    fn throughput(&self) -> f64 {
        self.tuples as f64 / self.seconds.max(1e-9)
    }
}

/// Drives a keyed aggregator through the element stream with batched
/// ingestion, collecting a sorted result fingerprint for equality checks.
fn drive(
    agg: &mut dyn WindowAggregator<PerKey<Sum>>,
    elements: &[StreamElement<(u64, i64)>],
) -> DriveReport {
    let mut out: Vec<WindowResult<(u64, i64)>> = Vec::new();
    let mut buf: Vec<(Time, (u64, i64))> = Vec::with_capacity(BATCH);
    let mut results: Vec<(u64, Time, Time, i64, bool)> = Vec::new();
    let mut tuples = 0u64;
    let start = Instant::now();
    for e in elements {
        match e {
            StreamElement::Record { ts, value: (k, v) } => {
                buf.push((*ts, (*k, *v)));
                if buf.len() >= BATCH {
                    tuples += buf.len() as u64;
                    agg.process_batch(&buf, &mut out);
                    buf.clear();
                }
            }
            StreamElement::Watermark(wm) => {
                if !buf.is_empty() {
                    tuples += buf.len() as u64;
                    agg.process_batch(&buf, &mut out);
                    buf.clear();
                }
                agg.on_watermark(*wm, &mut out);
            }
            StreamElement::Punctuation(_) => {}
        }
        results.extend(
            out.drain(..).map(|r| (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update)),
        );
    }
    if !buf.is_empty() {
        tuples += buf.len() as u64;
        agg.process_batch(&buf, &mut out);
        results.extend(
            out.drain(..).map(|r| (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update)),
        );
    }
    let seconds = start.elapsed().as_secs_f64();
    results.sort_unstable();
    DriveReport { tuples, seconds, memory_bytes: agg.memory_bytes(), results }
}

/// Best-of-`reps` drive (first run warms caches); results must agree
/// across repetitions.
fn drive_best(
    reps: usize,
    build: impl Fn() -> Box<dyn WindowAggregator<PerKey<Sum>>>,
    elements: &[StreamElement<(u64, i64)>],
) -> DriveReport {
    let mut best: Option<DriveReport> = None;
    for _ in 0..reps {
        let mut agg = build();
        let r = drive(agg.as_mut(), elements);
        if let Some(b) = &best {
            assert_eq!(r.results, b.results, "results diverged across repetitions");
        }
        if best.as_ref().is_none_or(|b| r.seconds < b.seconds) {
            best = Some(r);
        }
    }
    best.expect("at least one repetition")
}

struct TputRow {
    keys: u64,
    mode: &'static str,
    tuples: u64,
    tuples_per_sec: f64,
    speedup_vs_naive: f64,
    memory_bytes: usize,
}

struct WmRow {
    idle_keys: u64,
    mode: &'static str,
    us_per_watermark: f64,
}

fn main() {
    let s = scale();
    let n = (2_000_000.0 * s).max(10_000.0) as usize;
    let key_counts = [1u64, 100, 10_000, 100_000, 1_000_000];
    let reps = if s < 0.1 { 2 } else { 3 };

    let mut out = Output::new(
        "keyed",
        &["phase", "keys", "mode", "tuples_per_sec_or_us", "speedup_vs_naive", "memory_bytes"],
    );
    out.print_header();

    // Phase 1: ingestion + emission throughput vs key count.
    let mut tput_rows: Vec<TputRow> = Vec::new();
    for &keys in &key_counts {
        let elements = make_elements(n, keys);
        let naive = drive_best(reps, || Box::new(naive_op()), &elements);
        let shared = drive_best(reps, || Box::new(shared_op()), &elements);
        assert_eq!(
            shared.results, naive.results,
            "shared and naive keyed operators disagree at {keys} keys"
        );
        assert!(!shared.results.is_empty(), "no windows emitted at {keys} keys");
        let speedup = shared.throughput() / naive.throughput().max(1e-9);
        for (mode, r, sp) in [("naive", &naive, 1.0), ("shared", &shared, speedup)] {
            out.row(&[
                "throughput".to_string(),
                keys.to_string(),
                mode.to_string(),
                format!("{:.0}", r.throughput()),
                format!("{sp:.2}"),
                r.memory_bytes.to_string(),
            ]);
            eprintln!(
                "  throughput {keys} keys {mode}: {} tuples/s ({sp:.2}x naive)",
                fmt_tput(r.throughput())
            );
            tput_rows.push(TputRow {
                keys,
                mode,
                tuples: r.tuples,
                tuples_per_sec: r.throughput(),
                speedup_vs_naive: sp,
                memory_bytes: r.memory_bytes,
            });
        }
    }

    // Phase 2: per-watermark cost with K drained idle keys + 64 active.
    let mut wm_rows: Vec<WmRow> = Vec::new();
    let idle_counts: Vec<u64> = [10_000u64, 100_000, 1_000_000]
        .iter()
        .map(|&k| ((k as f64 * s) as u64).max(1_000))
        .collect();
    const ACTIVE: u64 = 64;
    const ROUNDS: usize = 200;
    for &idle in &idle_counts {
        for mode in ["naive", "shared"] {
            let mut agg: Box<dyn WindowAggregator<PerKey<Sum>>> = match mode {
                "naive" => Box::new(naive_op()),
                _ => Box::new(shared_op()),
            };
            let mut sink = Vec::new();
            // Seed K idle keys inside one slice, then drain their windows
            // so nothing about them is pending.
            let seed: Vec<(Time, (u64, i64))> =
                (0..idle).map(|k| ((k % 200) as Time, (k + ACTIVE, 1))).collect();
            for chunk in seed.chunks(BATCH) {
                agg.process_batch(chunk, &mut sink);
            }
            agg.on_watermark(200 + WINDOW_LEN + LATENESS, &mut sink);
            sink.clear();
            // Active keys keep producing; time only the watermark calls.
            let mut wm_time = 0.0f64;
            let base = 200 + WINDOW_LEN + LATENESS + 1;
            for r in 0..ROUNDS {
                let ts = base + (r as Time) * WINDOW_SLIDE;
                let batch: Vec<(Time, (u64, i64))> = (0..ACTIVE).map(|k| (ts, (k, 1))).collect();
                agg.process_batch(&batch, &mut sink);
                let t0 = Instant::now();
                agg.on_watermark(ts - 1, &mut sink);
                wm_time += t0.elapsed().as_secs_f64();
                sink.clear();
            }
            let us = wm_time / ROUNDS as f64 * 1e6;
            out.row(&[
                "watermark".to_string(),
                idle.to_string(),
                mode.to_string(),
                format!("{us:.2}"),
                String::new(),
                String::new(),
            ]);
            eprintln!("  watermark {idle} idle keys {mode}: {us:.2} us/watermark");
            wm_rows.push(WmRow { idle_keys: idle, mode, us_per_watermark: us });
        }
    }
    // The point of the heap: shared watermark cost must not scale with
    // idle keys the way the naive sweep does.
    let cost = |mode: &str, idle: u64| {
        wm_rows
            .iter()
            .find(|r| r.mode == mode && r.idle_keys == idle)
            .map(|r| r.us_per_watermark)
            .unwrap_or(0.0)
    };
    let max_idle = *idle_counts.last().expect("non-empty");
    assert!(
        cost("shared", max_idle) < cost("naive", max_idle),
        "shared watermark sweep should beat the O(keys) naive sweep at {max_idle} idle keys"
    );

    out.finish();
    let previous = previous_shared_cells();
    write_json(&tput_rows, &wm_rows, previous.as_ref());
}

/// The string after `"<field>": ` on `line`, up to the next `,` or `}`,
/// without quotes — enough to read back the rows this bin writes.
fn json_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{field}\": "))? + field.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// `(commit, [(keys, shared tuples/s)])` of the `BENCH_keyed.json` about
/// to be overwritten, if there is one.
fn previous_shared_cells() -> Option<(String, Vec<(u64, f64)>)> {
    let old = std::fs::read_to_string("BENCH_keyed.json").ok()?;
    let commit = old
        .lines()
        .find(|l| l.trim_start().starts_with("\"commit\""))
        .and_then(|l| json_field(l, "commit"))
        .unwrap_or("unrecorded")
        .to_string();
    let cells: Vec<(u64, f64)> = old
        .lines()
        .filter(|l| json_field(l, "mode") == Some("shared"))
        .filter_map(|l| {
            Some((
                json_field(l, "keys")?.parse().ok()?,
                json_field(l, "tuples_per_sec")?.parse().ok()?,
            ))
        })
        .collect();
    (!cells.is_empty()).then_some((commit, cells))
}

/// Writes `BENCH_keyed.json` at the repo root via the shared
/// [`BenchJson`] preamble (`workload` + `cores`).
fn write_json(tput: &[TputRow], wm: &[WmRow], previous: Option<&(String, Vec<(u64, f64)>)>) {
    let mut j = BenchJson::create(
        "keyed",
        "sliding(1s, 250ms) sum, in-order keyed stream, watermarks every \
         1s lagging 500ms, batch 512; shared keyed operator vs naive map of per-key operators",
    );
    let f = j.file();
    if let Some((commit, cells)) = previous {
        writeln!(f, "  \"previous\": {{\"commit\": \"{commit}\", \"shared\": [").unwrap();
        for (i, (keys, tps)) in cells.iter().enumerate() {
            let comma = if i + 1 == cells.len() { "" } else { "," };
            let now = tput.iter().find(|r| r.mode == "shared" && r.keys == *keys);
            let ratio = now.map_or(0.0, |r| r.tuples_per_sec / tps.max(1e-9));
            writeln!(
                f,
                "    {{\"keys\": {keys}, \"tuples_per_sec\": {tps:.0}, \"now_over_previous\": {ratio:.3}}}{comma}"
            )
            .unwrap();
        }
        writeln!(f, "  ]}},").unwrap();
    }
    writeln!(f, "  \"throughput\": [").unwrap();
    for (i, r) in tput.iter().enumerate() {
        let comma = if i + 1 == tput.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"keys\": {}, \"mode\": \"{}\", \"tuples\": {}, \"tuples_per_sec\": {:.0}, \
             \"speedup_vs_naive\": {:.3}, \"memory_bytes\": {}}}{}",
            r.keys, r.mode, r.tuples, r.tuples_per_sec, r.speedup_vs_naive, r.memory_bytes, comma
        )
        .unwrap();
    }
    writeln!(f, "  ],").unwrap();
    writeln!(f, "  \"watermark_latency\": [").unwrap();
    for (i, r) in wm.iter().enumerate() {
        let comma = if i + 1 == wm.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"idle_keys\": {}, \"mode\": \"{}\", \"us_per_watermark\": {:.2}}}{}",
            r.idle_keys, r.mode, r.us_per_watermark, comma
        )
        .unwrap();
    }
    writeln!(f, "  ]").unwrap();
    j.finish();
}
