//! Figure 13: impact of the aggregation function on general slicing's
//! throughput, for time-based vs. count-based windows.
//!
//! Setup (paper Section 6.3.2): 20 concurrent windows, 20 % out-of-order
//! tuples with 0–2 s delays; the Tangwongsan et al. function set plus
//! median and 90-percentile, plus a sum without ⊖.
//! Expected shape: all algebraic/distributive functions run at similar
//! high throughput on time windows; on count windows "sum w/o invert"
//! collapses (every shift recomputes) while min/max families barely
//! degrade (their partial ⊖ answers every removal that misses the
//! extremum);
//! holistic functions sit far below everything else.
//!
//! Claims checked on the count column (the binary exits 1 when one
//! fails): `sum` runs at least 1.4× `sum w/o invert`, and `min`, `max`,
//! `min-count` and `max-count` each at least as fast as it.
//!
//! Run: `cargo run --release -p gss-bench --bin fig13`

use std::time::Instant;

use gss_aggregates::{
    ArgMax, ArgMin, Avg, CountAgg, GeometricMean, Max, MaxCount, Median, Min, MinCount, Percentile,
    PopulationStdDev, SampleStdDev, Sum, SumNoInvert, M4,
};
use gss_bench::{check_claims, scale, Claim, Output};
use gss_core::operator::{OperatorConfig, WindowOperator};
use gss_core::{AggregateFunction, StreamElement, StreamOrder, Time};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};
use gss_windows::{CountTumblingWindow, TumblingWindow};

/// Rounds over the algebraic functions; each of their cells is its best.
const ROUNDS: usize = 7;

/// Drives general slicing with function `f` over the prepared arrival
/// stream, mapping each base tuple into the function's input type.
fn run_function<A: AggregateFunction>(
    f: A,
    elements: &[StreamElement<i64>],
    count_based: bool,
    map: impl Fn(Time, i64) -> A::Input,
) -> f64 {
    let mut op = WindowOperator::new(
        f,
        OperatorConfig {
            order: StreamOrder::OutOfOrder,
            allowed_lateness: 2_000,
            ..Default::default()
        },
    );
    for i in 0..20 {
        if count_based {
            op.add_query(Box::new(CountTumblingWindow::new((i + 1) * 2_000))).unwrap();
        } else {
            op.add_query(Box::new(TumblingWindow::new((i as i64 + 1) * 1_000))).unwrap();
        }
    }
    let mut out = Vec::new();
    let mut tuples = 0u64;
    let start = Instant::now();
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => {
                tuples += 1;
                op.process_tuple(*ts, map(*ts, *value), &mut out);
            }
            StreamElement::Watermark(wm) => op.process_watermark(*wm, &mut out),
            StreamElement::Punctuation(_) => {}
        }
        out.clear();
    }
    tuples as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let base = (300_000.0 * scale()) as usize;
    let tuples = FootballGenerator::new(FootballConfig::default()).take(base);
    let arrivals = make_out_of_order(
        &tuples,
        OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() },
    );
    let elements: Vec<StreamElement<i64>> = with_watermarks(&arrivals, 500, 2_000);
    // Holistic functions over count windows recompute large slices; cap.
    let holistic_elements = gss_bench::truncate_elements(&elements, base.min(60_000));

    let mut out = Output::new("fig13", &["function", "measure", "tuples_per_sec"]);
    out.print_header();
    let mut count_rows: Vec<(String, f64)> = Vec::new();

    for count_based in [false, true] {
        let measure = if count_based { "count" } else { "time" };
        let mut rows: Vec<(String, f64)> = Vec::new();
        macro_rules! bench {
            ($name:expr, $f:expr, $elems:expr, $map:expr) => {{
                let tps = run_function($f, $elems, count_based, $map);
                match rows.iter_mut().find(|r| r.0 == $name) {
                    Some(r) => r.1 = r.1.max(tps),
                    None => rows.push(($name.to_string(), tps)),
                }
            }};
        }

        // A cell of the algebraic functions runs for milliseconds, where
        // one descheduling on a shared host halves it: each is the best
        // of `ROUNDS` rounds over every function, so a slow stretch of
        // the host hits every function alike. The holistic cells run for
        // seconds, once.
        for round in 0..ROUNDS {
            bench!("count", CountAgg, &elements, |_, v| v);
            bench!("sum", Sum, &elements, |_, v| v);
            bench!("sum w/o invert", SumNoInvert, &elements, |_, v| v);
            bench!("avg", Avg, &elements, |_, v| v);
            bench!("min", Min, &elements, |_, v| v);
            bench!("max", Max, &elements, |_, v| v);
            bench!("min-count", MinCount, &elements, |_, v| v);
            bench!("max-count", MaxCount, &elements, |_, v| v);
            bench!("arg-min", ArgMin, &elements, |ts, v| (v, ts));
            bench!("arg-max", ArgMax, &elements, |ts, v| (v, ts));
            bench!("geo-mean", GeometricMean, &elements, |_, v| v);
            bench!("sample-stddev", SampleStdDev, &elements, |_, v| v);
            bench!("pop-stddev", PopulationStdDev, &elements, |_, v| v);
            bench!("m4", M4, &elements, |ts, v| (ts, v));
            if round == 0 {
                bench!("median", Median, &holistic_elements, |_, v| v);
                bench!("p90", Percentile::p90(), &holistic_elements, |_, v| v);
            }
        }

        for (name, tps) in &rows {
            eprintln!("  {name} ({measure}): {tps:.0} tuples/s");
            out.row(&[name.clone(), measure.to_string(), format!("{tps:.0}")]);
        }
        if count_based {
            count_rows = rows;
        }
    }
    out.finish();
    let tps = |name: &str| count_rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let paper = "Section 6.3.2, Figure 13";
    let no_invert = tps("sum w/o invert");
    let mut claims = vec![Claim::at_least(
        "count sum >= 1.4x sum w/o invert",
        paper,
        tps("sum"),
        1.4 * no_invert,
    )];
    for f in ["min", "max", "min-count", "max-count"] {
        claims.push(Claim::at_least(
            format!("count {f} >= sum w/o invert"),
            paper,
            tps(f),
            no_invert,
        ));
    }
    check_claims(&claims);
}
