//! Figure 16: impact of the window measure — time-based vs. count-based
//! windows as the number of concurrent windows grows.
//!
//! Setup (paper Section 6.3.4): 20 % out-of-order tuples with 0–2 s
//! delays, sum aggregation. Expected shape: time-window throughput is
//! independent of the window count; count-window throughput holds up to a
//! few dozen windows (out-of-order tuples still land in the open slice)
//! and then decays as slices shrink and the shift cascades lengthen —
//! while remaining an order of magnitude above the tuple buffer, the
//! fastest alternative for count windows.
//!
//! Claim checked (the binary exits 1 when it fails): at 1 000 windows,
//! count-based slicing runs at least 8× the tuple buffer.
//!
//! Run: `cargo run --release -p gss-bench --bin fig16`

use gss_aggregates::Sum;
use gss_bench::{
    build, check_claims, fmt_tput, run, truncate_elements, Claim, Output, QuerySpec, Technique,
};
use gss_core::{StreamElement, StreamOrder};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};

fn scale() -> f64 {
    std::env::var("GSS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

fn main() {
    let base = (300_000.0 * scale()) as usize;
    let tuples = FootballGenerator::new(FootballConfig::default()).take(base);
    let arrivals = make_out_of_order(
        &tuples,
        OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() },
    );
    let elements: Vec<StreamElement<i64>> = with_watermarks(&arrivals, 500, 2_000);
    let window_counts = [1usize, 5, 10, 20, 40, 100, 500, 1000];

    let mut out = Output::new("fig16", &["series", "concurrent_windows", "tuples_per_sec"]);
    out.print_header();
    // Count slicing and the tuple buffer at the most windows.
    let (mut slicing, mut buffer) = (0.0, 0.0);

    for &n in &window_counts {
        // Time measure: n tumbling queries, lengths 1-20 s.
        let time_queries: Vec<QuerySpec> =
            (0..n).map(|i| QuerySpec::Tumbling(((i % 20) as i64 + 1) * 1_000)).collect();
        let mut agg =
            build(Technique::LazySlicing, Sum, &time_queries, StreamOrder::OutOfOrder, 2_000);
        let report = run(agg.as_mut(), &elements);
        out.row(&[
            "slicing time-based".into(),
            n.to_string(),
            format!("{:.0}", report.throughput()),
        ]);
        eprintln!("  time {n}: {}", fmt_tput(report.throughput()));

        // Count measure: n count-tumbling queries, 2k-40k tuples (the 1-20 s
        // equivalents at 2000 Hz).
        let count_queries: Vec<QuerySpec> =
            (0..n).map(|i| QuerySpec::CountTumbling(((i % 20) as u64 + 1) * 2_000)).collect();
        let cap = if n > 100 { base.min(60_000) } else { base };
        let elems = truncate_elements(&elements, cap);
        let mut agg =
            build(Technique::LazySlicing, Sum, &count_queries, StreamOrder::OutOfOrder, 2_000);
        let report = run(agg.as_mut(), &elems);
        slicing = report.throughput();
        out.row(&[
            "slicing count-based".into(),
            n.to_string(),
            format!("{:.0}", report.throughput()),
        ]);
        eprintln!("  count {n}: {}", fmt_tput(report.throughput()));

        // Tuple buffer on count windows — the fastest alternative.
        let cap = base.min(2_000_000 / n).max(5_000);
        let elems = truncate_elements(&elements, cap);
        let mut agg =
            build(Technique::TupleBuffer, Sum, &count_queries, StreamOrder::OutOfOrder, 2_000);
        let report = run(agg.as_mut(), &elems);
        buffer = report.throughput();
        out.row(&[
            "tuple buffer count-based".into(),
            n.to_string(),
            format!("{:.0}", report.throughput()),
        ]);
        eprintln!("  buffer count {n}: {}", fmt_tput(report.throughput()));
    }
    out.finish();
    let most = window_counts[window_counts.len() - 1];
    check_claims(&[Claim::at_least(
        format!("count slicing >= 8x the tuple buffer at {most} windows"),
        "Section 6.3.4, Figure 16",
        slicing,
        8.0 * buffer,
    )]);
}
