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
//! count-based slicing runs at least 4.5× the tuple buffer. The paper's
//! order of magnitude is not reached on a quiet host: on one stream on
//! which every count window completes, the lead read 5.7–9.4× in 20 runs
//! at `GSS_SCALE=0.01` on a shared 2-vCPU host (12–14× in five at 0.5,
//! when neighbours slowed the buffer's long scans); 4.5× is below them.
//!
//! Run: `cargo run --release -p gss-bench --bin fig16`

use gss_aggregates::Sum;
use gss_bench::{
    build, check_claims, fmt_tput, run, scale, truncate_elements, Claim, Output, QuerySpec,
    Technique,
};
use gss_core::{StreamElement, StreamOrder};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};

/// Rounds over the count series; each of its cells is its best.
const ROUNDS: usize = 3;
/// Count slicing's claimed lead over the tuple buffer at the most windows.
const LEAD: f64 = 4.5;

fn main() {
    let base = (300_000.0 * scale()) as usize;
    // The count series run both techniques over one stream, long enough
    // that every count window (at most 40 000 tuples) completes twice.
    let count_len = base.max(80_000);
    let tuples = FootballGenerator::new(FootballConfig::default()).take(count_len);
    let arrivals = make_out_of_order(
        &tuples,
        OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() },
    );
    let count_elements: Vec<StreamElement<i64>> = with_watermarks(&arrivals, 500, 2_000);
    let elements = truncate_elements(&count_elements, base);
    let window_counts = [1usize, 5, 10, 20, 40, 100, 500, 1000];

    let mut out = Output::new("fig16", &["series", "concurrent_windows", "tuples_per_sec"]);
    out.print_header();
    // Time measure: n tumbling queries, lengths 1-20 s.
    let time: Vec<f64> = window_counts
        .iter()
        .map(|&n| {
            let queries: Vec<QuerySpec> =
                (0..n).map(|i| QuerySpec::Tumbling(((i % 20) as i64 + 1) * 1_000)).collect();
            let mut agg =
                build(Technique::LazySlicing, Sum, &queries, StreamOrder::OutOfOrder, 2_000);
            let tput = run(agg.as_mut(), &elements).throughput();
            eprintln!("  time {n}: {}", fmt_tput(tput));
            tput
        })
        .collect();
    // Count measure: n count-tumbling queries, 2k-40k tuples (the 1-20 s
    // equivalents at 2000 Hz), by count slicing and by the tuple buffer,
    // the fastest alternative. A cell runs for milliseconds, where one
    // descheduling on a shared host halves it: each is the best of
    // `ROUNDS` rounds over the whole series.
    let mut count = vec![[0.0f64; 2]; window_counts.len()];
    for _ in 0..ROUNDS {
        for (cell, &n) in count.iter_mut().zip(&window_counts) {
            let queries: Vec<QuerySpec> =
                (0..n).map(|i| QuerySpec::CountTumbling(((i % 20) as u64 + 1) * 2_000)).collect();
            for (best, technique) in
                cell.iter_mut().zip([Technique::LazySlicing, Technique::TupleBuffer])
            {
                let mut agg = build(technique, Sum, &queries, StreamOrder::OutOfOrder, 2_000);
                *best = best.max(run(agg.as_mut(), &count_elements).throughput());
            }
        }
    }
    for ((&n, time), [slicing, buffer]) in window_counts.iter().zip(time).zip(&count) {
        eprintln!("  count {n}: {}, buffer {}", fmt_tput(*slicing), fmt_tput(*buffer));
        for (series, tput) in [
            ("slicing time-based", time),
            ("slicing count-based", *slicing),
            ("tuple buffer count-based", *buffer),
        ] {
            out.row(&[series.into(), n.to_string(), format!("{tput:.0}")]);
        }
    }
    out.finish();
    let (most, [slicing, buffer]) =
        (window_counts[window_counts.len() - 1], count[count.len() - 1]);
    check_claims(&[Claim::at_least(
        format!("count slicing >= {LEAD}x the tuple buffer at {most} windows"),
        "Section 6.3.4, Figure 16",
        slicing,
        LEAD * buffer,
    )]);
}
