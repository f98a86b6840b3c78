//! Figure 12: impact of stream order on throughput.
//!
//! (a) varying the fraction of out-of-order tuples (0–100 %, delays
//!     0–2 s) and
//! (b) varying the delay of out-of-order tuples (ranges 0–0.5 s … 0–8 s at
//!     20 % disorder),
//! both with 20 concurrent windows (paper Section 6.3.1). Expected shape:
//! slicing and buckets stay flat; tuple buffer and aggregate tree decay
//! with the fraction, and the tuple buffer additionally decays with the
//! delay (sorted-insert costs grow with displacement). The claims, from
//! 0 % to 100 % disorder in (a): lazy slicing slows by at most 2.5× and
//! Buckets by at most 1.5×, and the tuple buffer slows by at least 2×. The
//! six cells the claims read are each the best of `ROUNDS` interleaved
//! rounds.
//!
//! Run: `cargo run --release -p gss-bench --bin fig12`

use gss_aggregates::Sum;
use gss_bench::{
    build, check_claims, concurrent_tumbling_queries, fmt_tput, run, run_best_interleaved, scale,
    truncate_elements, Claim, Output, QuerySpec, Technique,
};
use gss_core::{StreamElement, StreamOrder};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};

/// Rounds over the cells the claims read; each cell is its best.
const ROUNDS: usize = 9;

fn main() {
    let base = (400_000.0 * scale()) as usize;
    let tuples = FootballGenerator::new(FootballConfig::default()).take(base);
    let techniques = [
        Technique::LazySlicing,
        Technique::EagerSlicing,
        Technique::Buckets,
        Technique::TupleBuffer,
        Technique::AggregateTree,
    ];

    let mut queries = concurrent_tumbling_queries(20);
    queries.push(QuerySpec::Session(1_000));

    let mut out = Output::new("fig12", &["plot", "technique", "x", "tuples_per_sec"]);
    out.print_header();

    // (a) fraction sweep, delay fixed at 0-2 s.
    let fractions = [0u8, 10, 20, 40, 60, 80, 100];
    let streams: Vec<Vec<StreamElement<i64>>> = fractions
        .iter()
        .map(|&fraction| {
            let cfg =
                OooConfig { fraction_percent: fraction, max_delay: 2_000, ..Default::default() };
            with_watermarks(&make_out_of_order(&tuples, cfg), 500, 2_000)
        })
        .collect();
    let cell = |tech: Technique, i: usize| {
        let cap = match tech {
            Technique::AggregateTree if fractions[i] == 0 => 100_000,
            Technique::AggregateTree => 15_000,
            Technique::TupleBuffer => 60_000,
            _ => base,
        };
        let elems = truncate_elements(&streams[i], cap);
        let mut agg = build(tech, Sum, &queries, StreamOrder::OutOfOrder, 2_000);
        run(agg.as_mut(), &elems)
    };
    // The claims divide cells of milliseconds: each cell a claim reads is
    // its best of `ROUNDS` interleaved rounds.
    let last = fractions.len() - 1;
    let claimed: Vec<(Technique, usize)> =
        [Technique::LazySlicing, Technique::Buckets, Technique::TupleBuffer]
            .into_iter()
            .flat_map(|tech| [(tech, 0), (tech, last)])
            .collect();
    let best = run_best_interleaved(ROUNDS, &claimed, |&(tech, i)| cell(tech, i));
    let mut best: Vec<_> = claimed.into_iter().zip(best).collect();
    let mut tput = std::collections::HashMap::new();
    for (i, fraction) in fractions.iter().enumerate() {
        for tech in techniques {
            let report = match best.iter().position(|(c, _)| *c == (tech, i)) {
                Some(k) => best.swap_remove(k).1,
                None => cell(tech, i),
            };
            out.row(&[
                "12a".into(),
                tech.name().into(),
                fraction.to_string(),
                format!("{:.0}", report.throughput()),
            ]);
            eprintln!("  12a {}% {}: {}", fraction, tech.name(), fmt_tput(report.throughput()));
            tput.insert((tech.name(), i), report.throughput());
        }
    }

    // (b) delay sweep at 20 % disorder.
    for max_delay in [500i64, 1_000, 2_000, 4_000, 8_000] {
        let cfg = OooConfig { fraction_percent: 20, max_delay, ..Default::default() };
        let arrivals = make_out_of_order(&tuples, cfg);
        let elements: Vec<StreamElement<i64>> = with_watermarks(&arrivals, 500, max_delay);
        for tech in techniques {
            let cap = match tech {
                Technique::AggregateTree => 15_000,
                Technique::TupleBuffer => 60_000,
                _ => base,
            };
            let elems = truncate_elements(&elements, cap);
            let mut agg = build(tech, Sum, &queries, StreamOrder::OutOfOrder, max_delay);
            let report = run(agg.as_mut(), &elems);
            out.row(&[
                "12b".into(),
                tech.name().into(),
                max_delay.to_string(),
                format!("{:.0}", report.throughput()),
            ]);
            eprintln!(
                "  12b 0-{}s {}: {}",
                max_delay as f64 / 1000.0,
                tech.name(),
                fmt_tput(report.throughput())
            );
        }
    }
    out.finish();

    let slows = |tech: Technique| tput[&(tech.name(), 0)] / tput[&(tech.name(), last)];
    let paper = "Fig. 12a";
    let claims = vec![
        Claim::at_most(
            "lazy slicing slows ≤ 2.5× from 0 to 100 % disorder",
            paper,
            slows(Technique::LazySlicing),
            2.5,
        ),
        Claim::at_most(
            "Buckets slows ≤ 1.5× from 0 to 100 % disorder",
            paper,
            slows(Technique::Buckets),
            1.5,
        ),
        Claim::at_least(
            "Tuple Buffer slows ≥ 2× from 0 to 100 % disorder",
            paper,
            slows(Technique::TupleBuffer),
            2.0,
        ),
    ];
    check_claims(&claims);
}
