//! Table 1: memory usage of the eight aggregation techniques, measured
//! against the paper's cost formulas.
//!
//! Scenario: 50 000 tuples, 500 slices/windows in the allowed lateness,
//! sum aggregation (8-byte partials, 16-byte stored tuples). For every
//! row the measured deep size of the operator state is printed next to
//! the Table-1 formula estimate; the match validates the memory model
//! (capacity slack of growable containers makes measured ≥ formula).
//! The claim: every measured/formula ratio lies in [1, 3]. Memory is
//! deterministic and the scenario does not read `GSS_SCALE`.
//!
//! Run: `cargo run --release -p gss-bench --bin table1`

use gss_aggregates::Sum;
use gss_baselines::DabaLiteSliding;
use gss_bench::{as_elements, build, check_claims, run, Claim, Output, QuerySpec, Technique};
use gss_core::{StreamOrder, Time};

const TUPLES: usize = 50_000;
const SLICES: usize = 500;
const SIZE_TUPLE: usize = 16; // (Time, i64)
const SIZE_AGG: usize = 8; // i64 partial
const SIZE_SLICE_META: usize = 48; // range + first/last + len
const SIZE_BUCKET: usize = 40; // end + partial + map node overhead

fn measure(tech: Technique, count_based: bool) -> usize {
    let span: Time = 1_000_000;
    let step = span / TUPLES as Time;
    let tuples: Vec<(Time, i64)> = (0..TUPLES as i64).map(|i| (i * step, i % 97)).collect();
    let query = if count_based {
        QuerySpec::CountTumbling((TUPLES / SLICES) as u64)
    } else {
        QuerySpec::Tumbling(span / SLICES as Time)
    };
    let mut agg = build(tech, Sum, &[query], StreamOrder::OutOfOrder, span * 2);
    run(agg.as_mut(), &as_elements(&tuples)).memory_bytes
}

/// Memory of the related-work single-query FIFO aggregator (DABA Lite)
/// on the same stream with one tumbling window per slice span: one
/// `(ts, partial)` slot per in-window tuple, no sharing across queries.
fn measure_daba() -> usize {
    let span: Time = 1_000_000;
    let step = span / TUPLES as Time;
    let tuples: Vec<(Time, i64)> = (0..TUPLES as i64).map(|i| (i * step, i % 97)).collect();
    let len = span / SLICES as Time;
    let mut agg = DabaLiteSliding::new(Sum, len, len);
    run(&mut agg, &as_elements(&tuples)).memory_bytes
}

fn main() {
    let t = TUPLES;
    let s = SLICES;
    let rows: Vec<(&str, Technique, bool, usize)> = vec![
        ("1. Tuple Buffer", Technique::TupleBuffer, false, t * SIZE_TUPLE),
        ("2. Aggregate Tree", Technique::AggregateTree, false, t * SIZE_TUPLE + (t - 1) * SIZE_AGG),
        ("3. Agg. Buckets", Technique::Buckets, false, s * SIZE_AGG + s * SIZE_BUCKET),
        (
            "4. Tuple Buckets",
            Technique::TupleBuckets,
            false,
            s * ((t / s) * SIZE_TUPLE + SIZE_BUCKET),
        ),
        ("5. Lazy Slicing", Technique::LazySlicing, false, s * (SIZE_AGG + SIZE_SLICE_META)),
        (
            "6. Eager Slicing",
            Technique::EagerSlicing,
            false,
            s * (SIZE_AGG + SIZE_SLICE_META) + (s - 1) * SIZE_AGG,
        ),
        (
            "7. Lazy Slicing on tuples",
            Technique::LazySlicing,
            true,
            t * SIZE_TUPLE + s * (SIZE_AGG + SIZE_SLICE_META),
        ),
        (
            "8. Eager Slicing on tuples",
            Technique::EagerSlicing,
            true,
            t * SIZE_TUPLE + s * (SIZE_AGG + SIZE_SLICE_META) + (s - 1) * SIZE_AGG,
        ),
    ];

    let mut out =
        Output::new("table1", &["row", "measured_bytes", "formula_bytes", "measured_over_formula"]);
    out.print_header();
    let mut claims = Vec::new();
    let mut row = |name: &str, measured: usize, formula: usize| {
        let ratio = measured as f64 / formula as f64;
        out.row(&[
            name.to_string(),
            measured.to_string(),
            formula.to_string(),
            format!("{ratio:.2}"),
        ]);
        claims.push(Claim::at_least(format!("{name}: measured ≥ formula"), "Table 1", ratio, 1.0));
        claims.push(Claim::at_most(
            format!("{name}: measured ≤ 3× formula"),
            "Table 1",
            ratio,
            3.0,
        ));
    };
    for (name, tech, count_based, formula) in rows {
        row(name, measure(tech, count_based), formula);
    }
    // Supplemental related-work row: per-query FIFO aggregation keeps one
    // slot per in-window tuple, so a single window costs (t/s) tuples —
    // but unlike rows 5-8 that state multiplies with every extra query.
    row("9. DABA Lite (single query)", measure_daba(), (t / s) * SIZE_TUPLE);
    out.finish();
    println!(
        "\nratios near 1-3x validate the Table-1 model (growable containers\n\
         hold capacity slack; buckets carry map-node overhead)"
    );
    check_claims(&claims);
}
