//! Figure 14: holistic (median) aggregation throughput across techniques
//! and datasets.
//!
//! Setup (paper Section 6.3.2): 20 concurrent windows, 20 % out-of-order
//! tuples. Expected shape: slicing beats buckets and tuple buffer by
//! avoiding per-window recomputation (sorted, run-length-encoded slice
//! partials); the machine dataset (37 distinct values) runs faster than
//! football (84 232 distinct values) because RLE compresses better.
//!
//! Run: `cargo run --release -p gss-bench --bin fig14`

use gss_aggregates::Median;
use gss_bench::{
    build, concurrent_tumbling_queries, fmt_tput, run, scale, truncate_elements, Output, Technique,
};
use gss_core::{StreamElement, StreamOrder, Time};
use gss_data::{
    make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, MachineConfig,
    MachineGenerator, OooConfig,
};

fn main() {
    let base = (150_000.0 * scale()) as usize;
    let mut out = Output::new("fig14", &["dataset", "technique", "tuples_per_sec"]);
    out.print_header();

    for ds in ["football", "machine"] {
        let tuples: Vec<(Time, i64)> = match ds {
            "football" => FootballGenerator::new(FootballConfig::default()).take(base),
            _ => MachineGenerator::new(MachineConfig { rate_hz: 2000, ..Default::default() })
                .take(base),
        };
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() },
        );
        let elements: Vec<StreamElement<i64>> = with_watermarks(&arrivals, 500, 2_000);
        let queries = concurrent_tumbling_queries(20);

        for tech in [Technique::LazySlicing, Technique::TupleBuckets, Technique::TupleBuffer] {
            let cap = match tech {
                Technique::LazySlicing => base,
                _ => base.min(30_000),
            };
            let elems = truncate_elements(&elements, cap);
            let mut agg = build(tech, Median, &queries, StreamOrder::OutOfOrder, 2_000);
            let report = run(agg.as_mut(), &elems);
            out.row(&[
                ds.to_string(),
                tech.name().to_string(),
                format!("{:.0}", report.throughput()),
            ]);
            eprintln!("  [{ds}] {}: {}", tech.name(), fmt_tput(report.throughput()));
        }
    }
    out.finish();
}
