//! Figure 17: parallelizing the live-visualization dashboard workload.
//!
//! Setup (paper Section 6.4): the M4 aggregation over the football stream,
//! 80 concurrent windows per operator instance, key-partitioned
//! parallelism; lazy slicing vs. buckets. Expected shape: throughput
//! scales ~linearly while cores are free, then flattens as CPU saturates;
//! slicing holds an order of magnitude over buckets at every degree of
//! parallelism; CPU load approaches full utilization.
//!
//! Run: `cargo run --release -p gss-bench --bin fig17`

use gss_aggregates::M4;
use gss_baselines::{BucketMode, Buckets};
use gss_bench::{fmt_tput, scale};
use gss_core::operator::{OperatorConfig, WindowOperator};
use gss_core::{StreamElement, StreamOrder, Time, WindowAggregator};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};
use gss_stream::{run_keyed, PipelineConfig};
use gss_windows::TumblingWindow;

/// 80 concurrent windows per instance: 4 rounds of the 1–20 s lengths.
fn dashboard_lengths() -> impl Iterator<Item = i64> {
    (0..80).map(|i| (i % 20 + 1) * 1_000)
}

fn make_factory(technique: &'static str) -> impl Fn(usize) -> Box<dyn WindowAggregator<M4>> {
    move |_partition| {
        if technique == "Lazy Slicing" {
            let mut op = WindowOperator::new(
                M4,
                OperatorConfig {
                    order: StreamOrder::OutOfOrder,
                    allowed_lateness: 2_000,
                    ..Default::default()
                },
            );
            for l in dashboard_lengths() {
                op.add_query(Box::new(TumblingWindow::new(l))).unwrap();
            }
            Box::new(op)
        } else {
            let mut b = Buckets::new(M4, BucketMode::Aggregate, StreamOrder::OutOfOrder, 2_000);
            for l in dashboard_lengths() {
                b.add_query(Box::new(TumblingWindow::new(l)));
            }
            Box::new(b)
        }
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
    eprintln!("machine reports {cores} logical cores");

    let mut out = gss_bench::Output::new(
        "fig17",
        &["technique", "parallelism", "tuples_per_sec", "cpu_percent"],
    );
    out.print_header();

    for technique in ["Lazy Slicing", "Buckets"] {
        let n_tuples = if technique == "Lazy Slicing" {
            (2_000_000.0 * scale()) as usize
        } else {
            (200_000.0 * scale()) as usize
        };
        let tuples = FootballGenerator::new(FootballConfig::default()).take(n_tuples);
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() },
        );
        // Key by a synthetic 64-way key; M4 inputs carry their timestamp.
        type KeyedRecord = (Time, (u64, (Time, i64)));
        let keyed: Vec<KeyedRecord> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &(ts, v))| (ts, ((i % 64) as u64, (ts, v))))
            .collect();
        let elements: Vec<StreamElement<(u64, (Time, i64))>> = with_watermarks(&keyed, 500, 2_000);
        let factory = make_factory(technique);

        for p in [1usize, 2, 4, 8, 16] {
            if p > cores * 2 {
                continue;
            }
            let report = run_keyed(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(p).throughput_only(),
                &factory,
            );
            // None when CPU time is unavailable (non-Linux) — report "n/a"
            // rather than a misleading 0 %.
            let cpu = report
                .cpu_utilization()
                .map_or_else(|| "n/a".to_string(), |u| format!("{:.0}", u * 100.0));
            out.row(&[
                technique.to_string(),
                p.to_string(),
                format!("{:.0}", report.throughput()),
                cpu.clone(),
            ]);
            eprintln!("  {technique} x{p}: {} tuples/s, {cpu}% CPU", fmt_tput(report.throughput()));
        }
    }
    out.finish();
}
