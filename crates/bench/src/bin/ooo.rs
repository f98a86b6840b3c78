//! Out-of-order ingestion: throughput of the batch loop (late tuples
//! deferred per covering slice and written one run at a time, when their
//! lookup-memo entry is refilled or the batch ends) against one `process`
//! call per record, a Figure 11-style sweep over disorder.
//!
//! Kept beside `benchmark/` because it is the only harness that covers
//! 5–20 % lateness over a handful of live slices — where the batch loop
//! chooses between committing stretches and partitioning the rest of a
//! batch (EXPERIMENTS.md "One batch loop") — until `benchmark/`, whose
//! `backfill` is the `outage` cell below, gains a short-lateness workload
//! (20–50 % late over a few slices).
//!
//! Sweep: OOO fraction {0, 5, 20, 50} % (delays 0–2 s) × batch size
//! {64, 512} × {lazy, eager, finger} stores, 20 concurrent tumbling
//! windows over the football stream with periodic watermarks. Two modes
//! per cell:
//!
//! * `per_tuple` — one `process` call per record (no batching at all);
//! * `batch_b` — `process_batch_columns`, the entry point every pipeline
//!   driver calls, in chunks of `b` records.
//!
//! Expected shape: batching leads at every disorder and its lead widens
//! with the batch size, as the slice lookup, the combine and the index
//! repair are paid per run of late tuples and per batch instead of per
//! tuple.
//!
//! A last cell, `outage`, is the long-lateness case the sweep above
//! never reaches (its 2 s lateness keeps a few dozen slices live): one
//! tumbling 10 ms query under a watermark trailing by 30 s — 3 000 live
//! slices, and one-slice windows that never ask the finger store to
//! build its index — fed an in-order head with
//! one tuple in seven up to 2 s late plus, every 5 s, the sorted replay
//! of a 10-s-old outage (30 % of the tuples), in batches of 512 and
//! 4 096.
//!
//! Writes `target/experiments/ooo.csv` and a machine-readable summary to
//! `BENCH_ooo.json` at the repo root.
//!
//! Run: `cargo run --release -p gss-bench --bin ooo` (optionally
//! `-- --store lazy|eager|finger` to sweep a single store, and/or
//! `-- --ooo 0|5|20|50|outage` for a single cell).

use std::io::Write as _;

use gss_aggregates::Sum;
use gss_bench::{
    build_slicing, concurrent_tumbling_queries, fmt_tput, run, run_best_interleaved, run_columnar,
    BenchJson, Output, QuerySpec, RunReport,
};
use gss_core::{StorePolicy, StreamElement, StreamOrder, Time};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};

fn scale() -> f64 {
    std::env::var("GSS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// All store policies the sweep covers, in report order.
const STORES: [(StorePolicy, &str); 3] = [
    (StorePolicy::Lazy, "lazy"),
    (StorePolicy::Eager, "eager"),
    (StorePolicy::FingerTree, "finger"),
];

/// Parses `--store <name>` from the CLI, defaulting to every store.
fn store_filter() -> Vec<(StorePolicy, &'static str)> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--store" {
            let want = args.next().unwrap_or_default();
            let picked: Vec<_> = STORES.iter().copied().filter(|&(_, name)| name == want).collect();
            assert!(
                !picked.is_empty(),
                "unknown store {want:?}; expected one of lazy, eager, finger"
            );
            return picked;
        }
    }
    STORES.to_vec()
}

/// The cells of the sweep: the four disorder fractions, then `outage`.
const CELLS: [&str; 5] = ["0", "5", "20", "50", "outage"];

/// Parses `--ooo <cell>` from the CLI, defaulting to every cell.
fn cell_filter() -> Vec<&'static str> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--ooo" {
            let want = args.next().unwrap_or_default();
            let picked: Vec<_> = CELLS.iter().copied().filter(|&c| c == want).collect();
            assert!(!picked.is_empty(), "--ooo must be one of {CELLS:?}, got {want:?}");
            return picked;
        }
    }
    CELLS.to_vec()
}

/// One cell's input and operator set-up.
struct Cell {
    /// `disorder` or `outage`.
    name: &'static str,
    /// Share of late tuples, in percent.
    ooo_percent: u8,
    elements: Vec<StreamElement<i64>>,
    queries: Vec<QuerySpec>,
    lateness: Time,
    batch_sizes: [usize; 2],
}

fn disorder_cell(tuples: &[(Time, i64)], fraction: u8) -> Cell {
    let cfg = OooConfig { fraction_percent: fraction, max_delay: 2_000, ..Default::default() };
    let arrivals = make_out_of_order(tuples, cfg);
    Cell {
        name: "disorder",
        ooo_percent: fraction,
        elements: with_watermarks(&arrivals, 500, 2_000),
        queries: concurrent_tumbling_queries(20),
        lateness: 2_000,
        batch_sizes: [64, 512],
    }
}

/// The reconnect-after-an-outage stream (see the module docs), `n`
/// tuples long. 40 % of its tuples are late, all above the watermark.
fn outage_cell(n: usize) -> Cell {
    const PERIOD_MS: Time = 5_000;
    const PERIOD_TUPLES: usize = 32_768;
    const BURST: usize = PERIOD_TUPLES * 3 / 10;
    const HEAD: usize = PERIOD_TUPLES - BURST;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |below: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % below
    };
    let mut elements = Vec::with_capacity(n + n / 4_096);
    let mut origin: Time = 100_000;
    'stream: loop {
        let mut next_wm = 1_250;
        for j in 0..HEAD {
            let head = j as Time * PERIOD_MS / HEAD as Time;
            if head >= next_wm {
                elements.push(StreamElement::Watermark(origin + next_wm - 30_000));
                next_wm += 1_250;
            }
            if j == HEAD / 2 {
                // The reconnect: 2.5 s of a 10-s-old backlog, sorted.
                let from = origin + head - 10_000;
                for k in 0..BURST {
                    let ts = from + k as Time * 2_500 / BURST as Time;
                    elements.push(StreamElement::Record { ts, value: draw(1_000) as i64 });
                }
            }
            let late = if draw(7) == 0 { 1 + draw(2_000) as Time } else { 0 };
            let ts = origin + head - late;
            elements.push(StreamElement::Record { ts, value: draw(1_000) as i64 });
            if elements.len() >= n {
                break 'stream;
            }
        }
        origin += PERIOD_MS;
    }
    elements.push(StreamElement::Watermark(Time::MAX - 1));
    Cell {
        name: "outage",
        ooo_percent: 40,
        elements,
        queries: vec![QuerySpec::Tumbling(10)],
        lateness: 0,
        batch_sizes: [512, 4_096],
    }
}

struct Row {
    cell: &'static str,
    policy: &'static str,
    ooo_percent: u8,
    mode: String,
    batch_size: usize,
    tuples: u64,
    tuples_per_sec: f64,
    speedup_vs_per_tuple: f64,
}

fn main() {
    let base = (1_000_000.0 * scale()) as usize;
    let tuples = FootballGenerator::new(FootballConfig::default()).take(base);
    let cells = cell_filter();

    let mut out = Output::new(
        "ooo",
        &["cell", "store", "ooo_percent", "mode", "tuples_per_sec", "speedup_vs_per_tuple"],
    );
    out.print_header();
    let mut rows: Vec<Row> = Vec::new();
    // Store comparisons are the headline of this sweep, so the
    // repetitions of one (cell, mode) pair are interleaved round-robin
    // across the stores: every store's rep k runs back-to-back with the
    // others', and slow machine drift (load, thermal) lands *across*
    // cells instead of skewing one store.
    let stores = store_filter();
    for &name in &cells {
        let cell = match name.parse() {
            Ok(fraction) => disorder_cell(&tuples, fraction),
            Err(_) => outage_cell(base),
        };
        let Cell { ooo_percent: fraction, ref elements, batch_sizes, .. } = cell;
        let build = |policy: StorePolicy| {
            build_slicing(Sum, policy, &cell.queries, StreamOrder::OutOfOrder, cell.lateness)
        };

        let per_tuple =
            run_best_interleaved(5, &stores, |&(policy, _)| run(build(policy).as_mut(), elements));
        // One row per batch size, one report per store in each.
        let mut batches: Vec<Vec<RunReport>> = Vec::new();
        for &b in &batch_sizes {
            let batched = run_best_interleaved(5, &stores, |&(policy, _)| {
                run_columnar(build(policy).as_mut(), elements, b)
            });
            for (i, &(_, name)) in stores.iter().enumerate() {
                assert_eq!(
                    batched[i].results, per_tuple[i].results,
                    "{name} {fraction}% batch {b}: result count diverged"
                );
            }
            batches.push(batched);
        }

        // Report grouped per store for a tidy csv.
        for (i, &(_, policy_name)) in stores.iter().enumerate() {
            let per_tuple_tput = per_tuple[i].throughput().max(1e-9);
            let mut record = |mode: String, batch_size: usize, report: &RunReport| {
                let tput = report.throughput();
                let speedup = tput / per_tuple_tput;
                out.row(&[
                    cell.name.to_string(),
                    policy_name.to_string(),
                    fraction.to_string(),
                    mode.clone(),
                    format!("{tput:.0}"),
                    format!("{speedup:.2}"),
                ]);
                eprintln!(
                    "  {} {policy_name} {fraction}% {mode}: {} tuples/s ({speedup:.2}x per-tuple)",
                    cell.name,
                    fmt_tput(tput)
                );
                rows.push(Row {
                    cell: cell.name,
                    policy: policy_name,
                    ooo_percent: fraction,
                    mode,
                    batch_size,
                    tuples: report.tuples,
                    tuples_per_sec: tput,
                    speedup_vs_per_tuple: speedup,
                });
            };
            for (&b, batched) in batch_sizes.iter().zip(&batches) {
                record(format!("batch_{b}"), b, &batched[i]);
            }
            record("per_tuple".to_string(), 0, &per_tuple[i]);
        }
    }
    out.finish();
    // A filtered run (`--store` / `--ooo`) is for iteration; only a
    // full sweep may overwrite the checked-in benchmark summary.
    if store_filter().len() == STORES.len() && cells.len() == CELLS.len() {
        let stores: Vec<&str> = STORES.iter().map(|&(_, name)| name).collect();
        write_json(&stores, &rows);
    } else {
        eprintln!("  (filtered sweep: BENCH_ooo.json left untouched)");
    }
}

/// Writes `BENCH_ooo.json` at the repo root via the shared
/// [`BenchJson`] preamble (`workload` + `cores`).
fn write_json(stores: &[&str], rows: &[Row]) {
    let mut j = BenchJson::create(
        "ooo",
        "disorder: fig11-style 20 tumbling windows over football stream, \
         disorder sweep (delays 0-2s, watermarks every 500ms lagging 2s); \
         outage: tumbling 10ms, watermark trails by 30s (3000 live slices), \
         1 in 7 tuples <= 2s late plus sorted replays of a 10s-old outage (30%)",
    );
    j.stores(stores);
    let f = j.file();
    writeln!(f, "  \"cells\": [\"0\", \"5\", \"20\", \"50\", \"outage\"],").unwrap();
    writeln!(f, "  \"results\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"cell\": \"{}\", \"store\": \"{}\", \"ooo_percent\": {}, \"mode\": \"{}\", \
             \"batch_size\": {}, \"tuples\": {}, \"tuples_per_sec\": {:.0}, \
             \"speedup_vs_per_tuple\": {:.3}}}{}",
            r.cell,
            r.policy,
            r.ooo_percent,
            r.mode,
            r.batch_size,
            r.tuples,
            r.tuples_per_sec,
            r.speedup_vs_per_tuple,
            comma
        )
        .unwrap();
    }
    writeln!(f, "  ]").unwrap();
    j.finish();
}
