//! Cross-technique equivalence: every aggregation technique of the paper
//! must produce identical final window results on the same workload — the
//! generality requirement ("without changing their input or output
//! semantics").

use general_stream_slicing::prelude::*;
use gss_core::operator::WindowOperator as SlicingOp;
use std::collections::BTreeMap;

type Finals = BTreeMap<(QueryId, Time, Time), i64>;

fn finals(results: &[WindowResult<i64>]) -> Finals {
    results.iter().map(|r| ((r.query, r.range.start, r.range.end), r.value)).collect()
}

fn drive<T: WindowAggregator<Sum>>(
    agg: &mut T,
    arrivals: &[(Time, i64)],
    watermarks: bool,
) -> Finals {
    let mut out = Vec::new();
    let mut max_ts = Time::MIN;
    let mut count = 0u64;
    for &(ts, v) in arrivals {
        agg.process(ts, v, &mut out);
        max_ts = max_ts.max(ts);
        count += 1;
        if watermarks && count.is_multiple_of(50) {
            agg.on_watermark(max_ts - 2_000, &mut out);
        }
    }
    if watermarks {
        agg.on_watermark(i64::MAX - 1, &mut out);
    }
    finals(&out)
}

fn in_order_workload() -> Vec<(Time, i64)> {
    (0..3_000)
        .map(|i| (i * 7 % 9 + i * 3, (i * 13) % 101 - 50))
        .collect::<Vec<_>>()
        .windows(1)
        .map(|w| w[0])
        .collect()
}

fn sorted_workload() -> Vec<(Time, i64)> {
    let mut w = in_order_workload();
    w.sort();
    w
}

fn ooo_workload() -> Vec<(Time, i64)> {
    let w = sorted_workload();
    gss_data::make_out_of_order(
        &w,
        gss_data::OooConfig { fraction_percent: 20, max_delay: 1_500, ..Default::default() },
    )
}

#[test]
fn all_techniques_agree_in_order_tumbling_and_sliding() {
    let tuples = sorted_workload();
    let queries: Vec<(i64, i64)> = vec![(500, 500), (1000, 250), (2000, 700)];

    let mut reference: Option<Finals> = None;
    let mut check = |name: &str, f: Finals| {
        match &reference {
            None => reference = Some(f),
            Some(r) => assert_eq!(r, &f, "{name} differs from reference"),
        };
    };

    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        let mut op = SlicingOp::new(Sum, OperatorConfig::in_order().with_policy(policy));
        for &(l, s) in &queries {
            op.add_query(Box::new(SlidingWindow::new(l, s))).unwrap();
        }
        check("general slicing", drive(&mut op, &tuples, false));
    }
    let mut tb = TupleBuffer::new(Sum, StreamOrder::InOrder, 0);
    for &(l, s) in &queries {
        tb.add_query(Box::new(SlidingWindow::new(l, s)));
    }
    check("tuple buffer", drive(&mut tb, &tuples, false));

    let mut at = AggregateTree::new(Sum, StreamOrder::InOrder, 0);
    for &(l, s) in &queries {
        at.add_query(Box::new(SlidingWindow::new(l, s)));
    }
    check("aggregate tree", drive(&mut at, &tuples, false));

    for mode in [BucketMode::Aggregate, BucketMode::Tuple] {
        let mut bk = Buckets::new(Sum, mode, StreamOrder::InOrder, 0);
        for &(l, s) in &queries {
            bk.add_query(Box::new(SlidingWindow::new(l, s)));
        }
        check("buckets", drive(&mut bk, &tuples, false));
    }

    let mut pairs = Pairs::new(Sum);
    for &(l, s) in &queries {
        pairs.add_query(l, s);
    }
    check("pairs", drive(&mut pairs, &tuples, false));

    let mut cutty = Cutty::new(Sum);
    for &(l, s) in &queries {
        cutty.add_query(Box::new(SlidingWindow::new(l, s)));
    }
    check("cutty", drive(&mut cutty, &tuples, false));
}

#[test]
fn ooo_capable_techniques_agree_with_sessions() {
    let arrivals = ooo_workload();
    let lateness = 100_000;

    let build_queries = || -> Vec<Box<dyn WindowFunction>> {
        vec![
            Box::new(SlidingWindow::new(1000, 250)),
            Box::new(SessionWindow::new(40).with_retention(1_000_000)),
        ]
    };

    let mut op = SlicingOp::new(Sum, OperatorConfig::out_of_order(lateness));
    for q in build_queries() {
        op.add_query(q).unwrap();
    }
    let slicing = drive(&mut op, &arrivals, true);

    let mut op =
        SlicingOp::new(Sum, OperatorConfig::out_of_order(lateness).with_policy(StorePolicy::Eager));
    for q in build_queries() {
        op.add_query(q).unwrap();
    }
    let eager = drive(&mut op, &arrivals, true);

    let mut tb = TupleBuffer::new(Sum, StreamOrder::OutOfOrder, lateness);
    for q in build_queries() {
        tb.add_query(q);
    }
    let buffer = drive(&mut tb, &arrivals, true);

    let mut at = AggregateTree::new(Sum, StreamOrder::OutOfOrder, lateness);
    for q in build_queries() {
        at.add_query(q);
    }
    let tree = drive(&mut at, &arrivals, true);

    let mut bk = Buckets::new(Sum, BucketMode::Aggregate, StreamOrder::OutOfOrder, lateness);
    for q in build_queries() {
        bk.add_query(q);
    }
    let buckets = drive(&mut bk, &arrivals, true);

    assert_eq!(slicing, eager, "lazy vs eager slicing");
    assert_eq!(slicing, buffer, "slicing vs tuple buffer");
    assert_eq!(slicing, tree, "slicing vs aggregate tree");
    assert_eq!(slicing, buckets, "slicing vs buckets");
    assert!(!slicing.is_empty());
}

/// The late-drop horizon is `watermark - allowed_lateness`, saturating: a
/// negative watermark under an unbounded lateness must not wrap (release)
/// or panic (debug) into dropping a tuple no horizon excludes.
#[test]
fn unbounded_lateness_keeps_late_tuples_below_a_negative_watermark() {
    let lateness = Time::MAX;
    let window = || Box::new(TumblingWindow::new(10)) as Box<dyn WindowFunction>;
    let drive = |agg: &mut dyn WindowAggregator<Sum>| {
        let mut out = Vec::new();
        agg.process(-100, 1, &mut out);
        agg.process(-50, 2, &mut out);
        agg.on_watermark(-60, &mut out);
        agg.process(-95, 40, &mut out); // late, and kept
        out
    };
    let kept = |name: &str, out: &[WindowResult<i64>]| {
        let updates: Vec<_> = out.iter().filter(|r| r.is_update).collect();
        assert_eq!(updates.len(), 1, "{name}: {out:?}");
        assert_eq!((updates[0].range, updates[0].value), (Range::new(-100, -90), 41), "{name}");
    };

    let mut op = SlicingOp::new(Sum, OperatorConfig::out_of_order(lateness));
    op.add_query(window()).unwrap();
    kept("general slicing", &drive(&mut op));
    assert_eq!(op.stats().dropped_late, 0);

    let mut tb = TupleBuffer::new(Sum, StreamOrder::OutOfOrder, lateness);
    tb.add_query(window());
    kept("tuple buffer", &drive(&mut tb));
    let mut at = AggregateTree::new(Sum, StreamOrder::OutOfOrder, lateness);
    at.add_query(window());
    kept("aggregate tree", &drive(&mut at));
    let mut bk = Buckets::new(Sum, BucketMode::Aggregate, StreamOrder::OutOfOrder, lateness);
    bk.add_query(window());
    kept("buckets", &drive(&mut bk));

    let elements = [
        StreamElement::Record { ts: -100, value: 1 },
        StreamElement::Record { ts: -50, value: 2 },
        StreamElement::Watermark(-60),
        StreamElement::Record { ts: -95, value: 40 },
        StreamElement::Watermark(-55),
    ];
    let report = run_parallel(
        elements,
        PipelineConfig::with_parallelism(2).with_batch_size(1),
        Sum,
        vec![window()],
        OperatorConfig::out_of_order(lateness),
    );
    assert_eq!(report.parallel_workers, 2);
    let out: Vec<_> = report.results.into_iter().map(|(_, r)| r).collect();
    kept("run_parallel", &out);
}

#[test]
fn count_windows_agree_between_slicing_and_tuple_buffer() {
    let tuples = sorted_workload();
    let mut op = SlicingOp::new(Sum, OperatorConfig::in_order());
    op.add_query(Box::new(CountTumblingWindow::new(64))).unwrap();
    op.add_query(Box::new(CountSlidingWindow::new(128, 32))).unwrap();
    let a = drive(&mut op, &tuples, false);

    let mut tb = TupleBuffer::new(Sum, StreamOrder::InOrder, 0);
    tb.add_query(Box::new(CountTumblingWindow::new(64)));
    tb.add_query(Box::new(CountSlidingWindow::new(128, 32)));
    let b = drive(&mut tb, &tuples, false);

    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn holistic_median_agrees_across_techniques() {
    let tuples: Vec<(Time, i64)> = (0..2_000).map(|i| (i, (i * 37) % 97)).collect();
    let drive_median = |out: &mut Vec<WindowResult<i64>>,
                        agg: &mut dyn WindowAggregator<Median>| {
        for &(ts, v) in &tuples {
            agg.process(ts, v, out);
        }
    };

    let mut op = SlicingOp::new(Median, OperatorConfig::in_order());
    op.add_query(Box::new(SlidingWindow::new(500, 100))).unwrap();
    let mut o1 = Vec::new();
    drive_median(&mut o1, &mut op);

    let mut tb = TupleBuffer::new(Median, StreamOrder::InOrder, 0);
    tb.add_query(Box::new(SlidingWindow::new(500, 100)));
    let mut o2 = Vec::new();
    drive_median(&mut o2, &mut tb);

    let mut bk = Buckets::new(Median, BucketMode::Tuple, StreamOrder::InOrder, 0);
    bk.add_query(Box::new(SlidingWindow::new(500, 100)));
    let mut o3 = Vec::new();
    drive_median(&mut o3, &mut bk);

    assert_eq!(finals(&o1), finals(&o2), "slicing vs tuple buffer");
    assert_eq!(finals(&o1), finals(&o3), "slicing vs buckets");
    assert!(!o1.is_empty());
}

#[test]
fn memory_ordering_matches_table1() {
    // Qualitative Table 1 check on a CF in-order workload where slicing
    // can drop tuples: slicing memory << tuple-based techniques, and
    // tuple buckets replicate tuples (largest).
    let tuples: Vec<(Time, i64)> = (0..20_000).map(|i| (i, 1)).collect();
    let queries = |add: &mut dyn FnMut(Box<dyn WindowFunction>)| {
        add(Box::new(SlidingWindow::new(4_000, 200)));
    };

    let mut op = SlicingOp::new(Sum, OperatorConfig::in_order());
    queries(&mut |w| {
        op.add_query(w).unwrap();
    });
    let mut tb = TupleBuffer::new(Sum, StreamOrder::InOrder, 0);
    queries(&mut |w| {
        tb.add_query(w);
    });
    let mut at = AggregateTree::new(Sum, StreamOrder::InOrder, 0);
    queries(&mut |w| {
        at.add_query(w);
    });
    let mut bt = Buckets::new(Sum, BucketMode::Tuple, StreamOrder::InOrder, 0);
    queries(&mut |w| {
        bt.add_query(w);
    });

    let mut out = Vec::new();
    for &(ts, v) in &tuples {
        op.process(ts, v, &mut out);
        tb.process(ts, v, &mut out);
        at.process(ts, v, &mut out);
        bt.process(ts, v, &mut out);
    }

    let slicing = op.memory_bytes();
    let buffer = tb.memory_bytes();
    let tree = at.memory_bytes();
    let tuple_buckets = bt.memory_bytes();
    assert!(
        slicing * 10 < buffer,
        "slicing ({slicing}) should be far below tuple buffer ({buffer})"
    );
    assert!(buffer < tree, "tree ({tree}) adds inner nodes over buffer ({buffer})");
    assert!(
        buffer * 2 < tuple_buckets,
        "tuple buckets ({tuple_buckets}) replicate tuples vs buffer ({buffer})"
    );
}
