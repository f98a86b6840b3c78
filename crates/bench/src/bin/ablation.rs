//! Ablation study: what each adaptive decision of general stream slicing
//! is worth (DESIGN.md, "The plan (Figs. 4–6)"). Not a paper figure — it
//! quantifies the design choices the paper motivates qualitatively:
//!
//! 1. **Tuple storage** (Figure 4): adaptive drop-when-possible vs. always
//!    keeping tuples (what a naive "general" operator would do).
//! 2. **Start-only slicing** (Section 5.3 Step 1): in-order streams slice
//!    only at window starts vs. the out-of-order edge set (starts + ends).
//! 3. **Lazy vs. eager stores**: throughput cost of maintaining the
//!    FlatFAT index that buys Figure 11's microsecond latencies.
//! 4. **Invertibility** (Figure 6): ⊖-based removal vs. recomputation on
//!    count windows with out-of-order tuples.
//!
//! Run: `cargo run --release -p gss-bench --bin ablation`

use gss_aggregates::{Median, MedianNoRle, Sum, SumNoInvert};
use gss_bench::{as_elements, fmt_tput, run, scale, truncate_elements, Output};
use gss_core::operator::{OperatorConfig, WindowOperator};
use gss_core::{AggregateFunction, StorePolicy, StreamElement, StreamOrder};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};
use gss_data::{MachineConfig, MachineGenerator};
use gss_windows::{CountTumblingWindow, SlidingWindow, TumblingWindow};

fn operator<A: AggregateFunction>(
    f: A,
    cfg: OperatorConfig,
    n_windows: usize,
) -> WindowOperator<A> {
    let mut op = WindowOperator::new(f, cfg);
    for i in 0..n_windows {
        op.add_query(Box::new(TumblingWindow::new(((i % 20) as i64 + 1) * 1_000))).unwrap();
    }
    op
}

fn main() {
    let base = (500_000.0 * scale()) as usize;
    let tuples = FootballGenerator::new(FootballConfig::default()).take(base);
    let in_order = as_elements(&tuples);
    let arrivals = make_out_of_order(
        &tuples,
        OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() },
    );
    let ooo: Vec<StreamElement<i64>> = with_watermarks(&arrivals, 500, 2_000);

    let mut out =
        Output::new("ablation", &["ablation", "variant", "tuples_per_sec", "memory_bytes"]);
    out.print_header();
    let mut emit = |ablation: &str, variant: &str, r: gss_bench::RunReport| {
        out.row(&[
            ablation.into(),
            variant.into(),
            format!("{:.0}", r.throughput()),
            r.memory_bytes.to_string(),
        ]);
        eprintln!(
            "  {ablation} / {variant}: {} t/s, {} bytes",
            fmt_tput(r.throughput()),
            r.memory_bytes
        );
    };

    // 1. Adaptive tuple storage vs. always-store (in-order CF workload
    //    where the decision logic drops tuples entirely). Memory is
    //    sampled mid-stream via a long window to keep state resident.
    {
        let mk = |force: bool| {
            let cfg = OperatorConfig { force_tuple_storage: force, ..Default::default() };
            let mut op = WindowOperator::new(Sum, cfg);
            op.add_query(Box::new(SlidingWindow::new(20_000, 1_000))).unwrap();
            op
        };
        let mut adaptive = mk(false);
        emit("tuple-storage", "adaptive (drop)", run(&mut adaptive, &in_order));
        let mut forced = mk(true);
        emit("tuple-storage", "forced keep", run(&mut forced, &in_order));
    }

    // 2. Start-only vs. starts+ends slicing on an in-order stream whose
    //    sliding windows have unaligned ends (l = 3.5 s, slide = 1 s:
    //    twice the edges when ends are cut too).
    {
        let mk = |force_ends: bool| {
            let cfg = OperatorConfig { force_end_edges: force_ends, ..Default::default() };
            let mut op = WindowOperator::new(Sum, cfg);
            for i in 0..20i64 {
                op.add_query(Box::new(SlidingWindow::new(i * 500 + 3_500, 1_000))).unwrap();
            }
            op
        };
        let mut starts = mk(false);
        emit("edge-set", "starts only", run(&mut starts, &in_order));
        let mut both = mk(true);
        emit("edge-set", "starts + ends", run(&mut both, &in_order));
    }

    // 3. Lazy vs. eager store on the out-of-order session-free workload.
    for (name, policy) in [("lazy", StorePolicy::Lazy), ("eager", StorePolicy::Eager)] {
        let cfg = OperatorConfig {
            order: StreamOrder::OutOfOrder,
            policy,
            allowed_lateness: 2_000,
            ..Default::default()
        };
        let mut op = operator(Sum, cfg, 20);
        emit("store-policy", name, run(&mut op, &ooo));
    }

    // 4. Invertible vs. non-invertible removal on count windows with
    //    out-of-order tuples (the Figure-6 shift cost).
    {
        let elems = truncate_elements(&ooo, base.min(150_000));
        let cfg = OperatorConfig {
            order: StreamOrder::OutOfOrder,
            allowed_lateness: 2_000,
            ..Default::default()
        };
        let mut with_invert = WindowOperator::new(Sum, cfg);
        with_invert.add_query(Box::new(CountTumblingWindow::new(2_000))).unwrap();
        emit("invertibility", "sum (⊖ removal)", run(&mut with_invert, &elems));
        let mut without = WindowOperator::new(SumNoInvert, cfg);
        without.add_query(Box::new(CountTumblingWindow::new(2_000))).unwrap();
        emit("invertibility", "sum w/o invert (recompute)", run(&mut without, &elems));
    }

    // 5. Sorted-RLE vs. plain sorted slices for holistic aggregation
    //    (paper Section 5.4.1's design choice), on the low-cardinality
    //    machine data where RLE shines.
    {
        let m_tuples = MachineGenerator::new(MachineConfig { rate_hz: 2000, ..Default::default() })
            .take(base.min(100_000));
        let m_elems = as_elements(&m_tuples);
        let cfg = OperatorConfig::default();
        let mut rle = WindowOperator::new(Median, cfg);
        for i in 0..20i64 {
            rle.add_query(Box::new(TumblingWindow::new((i % 20 + 1) * 1_000))).unwrap();
        }
        emit("holistic-encoding", "sorted + RLE", run(&mut rle, &m_elems));
        let mut plain = WindowOperator::new(MedianNoRle, cfg);
        for i in 0..20i64 {
            plain.add_query(Box::new(TumblingWindow::new((i % 20 + 1) * 1_000))).unwrap();
        }
        emit("holistic-encoding", "sorted, no RLE", run(&mut plain, &m_elems));
    }

    out.finish();
}
