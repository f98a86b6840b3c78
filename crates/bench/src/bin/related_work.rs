//! Related-work comparison (beyond the paper's figures): single-query
//! sliding-window aggregation on an in-order stream — the setting the
//! specialized algorithms of the paper's Section 7 were built for.
//!
//! Competitors: general stream slicing (lazy/eager), Pairs, Panes, Cutty,
//! Two-Stacks FIFO aggregation \[42\], its worst-case-O(1) de-amortization
//! DABA Lite \[43\], and the SlickDeque monotonic deque \[40\] (max only). Expected outcome: the specialized single-query
//! structures win by small constant factors on the workloads they support;
//! general slicing stays within the same order of magnitude while also
//! covering multi-query, out-of-order, session, and count workloads — the
//! paper's generality-vs-performance argument in one table.
//!
//! Run: `cargo run --release -p gss-bench --bin related_work`

use gss_aggregates::{Max, Sum};
use gss_baselines::{DabaLiteSliding, Panes, SlickDequeSliding, TwoStacksSliding};
use gss_bench::{as_elements, build, fmt_tput, run, scale, Output, QuerySpec, Technique};
use gss_core::StreamOrder;
use gss_data::{FootballConfig, FootballGenerator};

fn main() {
    let base = (1_000_000.0 * scale()) as usize;
    let tuples = FootballGenerator::new(FootballConfig::default()).take(base);
    let elements = as_elements(&tuples);
    let (length, slide) = (10_000i64, 1_000i64);
    let query = [QuerySpec::Sliding(length, slide)];

    let mut out = Output::new("related_work", &["aggregation", "technique", "tuples_per_sec"]);
    out.print_header();

    // SUM over one sliding window.
    for tech in
        [Technique::LazySlicing, Technique::EagerSlicing, Technique::Pairs, Technique::Cutty]
    {
        let mut agg = build(tech, Sum, &query, StreamOrder::InOrder, 0);
        let r = run(agg.as_mut(), &elements);
        out.row(&["sum".into(), tech.name().into(), format!("{:.0}", r.throughput())]);
        eprintln!("  sum/{}: {}", tech.name(), fmt_tput(r.throughput()));
    }
    {
        let mut p = Panes::new(Sum);
        p.add_query(length, slide);
        let r = run(&mut p, &elements);
        out.row(&["sum".into(), "Panes".into(), format!("{:.0}", r.throughput())]);
        eprintln!("  sum/Panes: {}", fmt_tput(r.throughput()));
    }
    {
        let mut ts2 = TwoStacksSliding::new(Sum, length, slide);
        let r = run(&mut ts2, &elements);
        out.row(&["sum".into(), "Two-Stacks".into(), format!("{:.0}", r.throughput())]);
        eprintln!("  sum/Two-Stacks: {}", fmt_tput(r.throughput()));
    }
    {
        let mut daba = DabaLiteSliding::new(Sum, length, slide);
        let r = run(&mut daba, &elements);
        out.row(&["sum".into(), "DABA Lite".into(), format!("{:.0}", r.throughput())]);
        eprintln!("  sum/DABA Lite: {}", fmt_tput(r.throughput()));
    }

    // MAX over one sliding window (adds the deque specialist).
    for tech in [Technique::LazySlicing, Technique::EagerSlicing] {
        let mut agg = build(tech, Max, &query, StreamOrder::InOrder, 0);
        let r = run(agg.as_mut(), &elements);
        out.row(&["max".into(), tech.name().into(), format!("{:.0}", r.throughput())]);
        eprintln!("  max/{}: {}", tech.name(), fmt_tput(r.throughput()));
    }
    {
        let mut ts2 = TwoStacksSliding::new(Max, length, slide);
        let r = run(&mut ts2, &elements);
        out.row(&["max".into(), "Two-Stacks".into(), format!("{:.0}", r.throughput())]);
        eprintln!("  max/Two-Stacks: {}", fmt_tput(r.throughput()));
    }
    {
        let mut daba = DabaLiteSliding::new(Max, length, slide);
        let r = run(&mut daba, &elements);
        out.row(&["max".into(), "DABA Lite".into(), format!("{:.0}", r.throughput())]);
        eprintln!("  max/DABA Lite: {}", fmt_tput(r.throughput()));
    }
    {
        let mut sd = SlickDequeSliding::new_max(length, slide);
        let r = run(&mut sd, &elements);
        out.row(&["max".into(), "SlickDeque".into(), format!("{:.0}", r.throughput())]);
        eprintln!("  max/SlickDeque: {}", fmt_tput(r.throughput()));
    }
    out.finish();
}
