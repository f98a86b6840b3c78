//! Figure 8: throughput of in-order processing with context-free windows,
//! as the number of concurrent windows grows from 1 to 1000.
//!
//! Workload (paper Section 6.2.1): concurrent tumbling window queries with
//! lengths equally distributed from 1 to 20 seconds over the football
//! stream; sum aggregation. Expected shape: all three slicing techniques
//! (general slicing, Pairs, Cutty) process millions of tuples/s with
//! near-constant throughput, while Buckets and Tuple Buffer degrade
//! linearly with the window count and Aggregate Trees sit orders of
//! magnitude below. The claims: lazy slicing slows by at most 4× from 1
//! to 1 000 windows, Buckets and the Tuple Buffer each slow by at least
//! 50×, and at 1 000 windows lazy slicing runs at least 100× faster than
//! Buckets. The six cells the claims read are each the best of `ROUNDS`
//! interleaved rounds.
//!
//! Run: `cargo run --release -p gss-bench --bin fig8`

use gss_aggregates::Sum;
use gss_bench::{
    as_elements, build, check_claims, concurrent_tumbling_queries, fmt_tput, run,
    run_best_interleaved, scale, Claim, Output, Technique,
};
use gss_core::StreamOrder;
use gss_data::{FootballConfig, FootballGenerator};

/// Rounds over the cells the claims read; each cell is its best.
const ROUNDS: usize = 5;

fn main() {
    let base = (1_000_000.0 * scale()) as usize;
    let mut gen = FootballGenerator::new(FootballConfig::default());
    let tuples = gen.take(base);
    let elements = as_elements(&tuples);

    let techniques = [
        Technique::LazySlicing,
        Technique::EagerSlicing,
        Technique::Pairs,
        Technique::Cutty,
        Technique::Buckets,
        Technique::TupleBuffer,
        Technique::AggregateTree,
    ];
    let window_counts = [1usize, 5, 10, 50, 100, 500, 1000];

    let cell = |tech: Technique, n: usize| {
        // Cap tuple counts so O(windows)-per-tuple baselines finish.
        let cap = match tech {
            Technique::Buckets => (base / 5).min(8_000_000 / n).max(20_000),
            Technique::TupleBuffer => (base / 5).min(4_000_000 / n).max(10_000),
            Technique::AggregateTree => 200_000,
            _ => base,
        };
        let elems = gss_bench::truncate_elements(&elements, cap);
        let queries = concurrent_tumbling_queries(n);
        let mut agg = build(tech, Sum, &queries, StreamOrder::InOrder, 0);
        run(agg.as_mut(), &elems)
    };
    // The claims divide cells of milliseconds, where one descheduling on
    // a shared host moves a ratio 2×: each cell a claim reads is its best
    // of `ROUNDS` interleaved rounds.
    let claimed: Vec<(Technique, usize)> =
        [Technique::LazySlicing, Technique::Buckets, Technique::TupleBuffer]
            .into_iter()
            .flat_map(|tech| [(tech, 1), (tech, 1000)])
            .collect();
    let best = run_best_interleaved(ROUNDS, &claimed, |&(tech, n)| cell(tech, n));
    let mut best: Vec<_> = claimed.into_iter().zip(best).collect();

    let mut out = Output::new("fig8", &["technique", "concurrent_windows", "tuples_per_sec"]);
    out.print_header();
    let mut tput = std::collections::HashMap::new();
    for tech in techniques {
        for &n in &window_counts {
            let report = match best.iter().position(|(c, _)| *c == (tech, n)) {
                Some(i) => best.swap_remove(i).1,
                None => cell(tech, n),
            };
            out.row(&[
                tech.name().to_string(),
                n.to_string(),
                format!("{:.0}", report.throughput()),
            ]);
            eprintln!(
                "  {} @ {} windows: {} tuples/s ({} results)",
                tech.name(),
                n,
                fmt_tput(report.throughput()),
                report.results
            );
            tput.insert((tech.name(), n), report.throughput());
        }
    }
    out.finish();
    let at = |tech: Technique, n: usize| tput[&(tech.name(), n)];
    let decay = |tech: Technique| at(tech, 1) / at(tech, 1000);
    let paper = "Fig. 8";
    let mut claims = vec![Claim::at_most(
        "lazy slicing slows ≤ 4× from 1 to 1000 windows",
        paper,
        decay(Technique::LazySlicing),
        4.0,
    )];
    for tech in [Technique::Buckets, Technique::TupleBuffer] {
        let name = format!("{} slows ≥ 50× from 1 to 1000 windows", tech.name());
        claims.push(Claim::at_least(name, paper, decay(tech), 50.0));
    }
    let lead = at(Technique::LazySlicing, 1000) / at(Technique::Buckets, 1000);
    claims.push(Claim::at_least("lazy slicing ≥ 100× Buckets at 1000 windows", paper, lead, 100.0));
    check_claims(&claims);
}
