//! Figure 9: throughput with 20 % out-of-order tuples and an added
//! session window, as concurrent windows grow — on both datasets.
//!
//! Workload (paper Section 6.2.2): the Figure-8 tumbling queries plus a
//! time-based session window (gap 1 s), 20 % out-of-order tuples with
//! random delays of 0–2 s. Expected shape: general slicing holds an order
//! of magnitude over buckets/tuple buffer; aggregate trees collapse (leaf
//! inserts); football and machine data behave almost identically.
//!
//! Run: `cargo run --release -p gss-bench --bin fig9`

use gss_aggregates::Sum;
use gss_bench::{
    build, concurrent_tumbling_queries, fmt_tput, run, scale, Output, QuerySpec, Technique,
};
use gss_core::{StreamElement, StreamOrder, Time};
use gss_data::{
    make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, MachineConfig,
    MachineGenerator, OooConfig,
};

fn dataset(name: &str, n: usize) -> Vec<(Time, i64)> {
    match name {
        "football" => FootballGenerator::new(FootballConfig::default()).take(n),
        "machine" => {
            // Raise the machine rate so both datasets cover similar spans.
            MachineGenerator::new(MachineConfig { rate_hz: 2000, ..Default::default() }).take(n)
        }
        _ => unreachable!(),
    }
}

fn main() {
    let base = (500_000.0 * scale()) as usize;
    let ooo = OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() };
    let techniques = [
        Technique::LazySlicing,
        Technique::EagerSlicing,
        Technique::Buckets,
        Technique::TupleBuffer,
        Technique::AggregateTree,
    ];
    let window_counts = [1usize, 5, 10, 50, 100, 500, 1000];

    let mut out =
        Output::new("fig9", &["dataset", "technique", "concurrent_windows", "tuples_per_sec"]);
    out.print_header();
    for ds in ["football", "machine"] {
        let tuples = dataset(ds, base);
        let arrivals = make_out_of_order(&tuples, ooo);
        let elements: Vec<StreamElement<i64>> = with_watermarks(&arrivals, 500, 2_000);
        for tech in techniques {
            for &n in &window_counts {
                let cap = match tech {
                    Technique::Buckets => base.min(4_000_000 / n).max(10_000),
                    Technique::TupleBuffer => base.min(1_000_000 / n).max(5_000),
                    Technique::AggregateTree => 20_000,
                    _ => base,
                };
                let elems = gss_bench::truncate_elements(&elements, cap);
                let mut queries = concurrent_tumbling_queries(n);
                queries.push(QuerySpec::Session(1_000));
                let mut agg = build(tech, Sum, &queries, StreamOrder::OutOfOrder, 2_000);
                let report = run(agg.as_mut(), &elems);
                out.row(&[
                    ds.to_string(),
                    tech.name().to_string(),
                    n.to_string(),
                    format!("{:.0}", report.throughput()),
                ]);
                eprintln!(
                    "  [{ds}] {} @ {n}: {} tuples/s",
                    tech.name(),
                    fmt_tput(report.throughput())
                );
            }
        }
    }
    out.finish();
}
