//! Cross-technique equivalence: every aggregation technique of the paper
//! must produce identical final window results on the same workload — the
//! generality requirement ("without changing their input or output
//! semantics").

use general_stream_slicing::baselines::DabaLiteSliding;
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
    assert_eq!(report.parallel_workers, 1);
    let out: Vec<_> = report.results.into_iter().map(|(_, r)| r).collect();
    kept("run_parallel", &out);
}

/// The emissions of the late-tuple probe: out of order, tumbling 10,
/// lateness 100; tuples 0–9 of value 1, watermark 20, tuple 15 of value
/// 100, watermarks 30 and 40.
fn late_probe<A: AggregateFunction>(
    agg: &mut dyn WindowAggregator<A>,
    input: impl Fn(i64) -> A::Input,
    value: impl Fn(&A::Output) -> i64,
) -> Vec<(Range, i64, bool)> {
    let mut out = Vec::new();
    (0..10).for_each(|ts| agg.process(ts, input(1), &mut out));
    agg.on_watermark(20, &mut out);
    agg.process(15, input(100), &mut out);
    agg.on_watermark(30, &mut out);
    agg.on_watermark(40, &mut out);
    out.iter().map(|r| (r.range, value(&r.value), r.is_update)).collect()
}

/// Watermark 20 runs past the data (0–9) and fires [10, 20) empty; tuple
/// 15 is the latest yet but behind that sweep, so it is late and within
/// the lateness: every technique emits [0, 10) and then the update
/// [10, 20) = 100.
#[test]
fn a_tuple_ahead_of_the_data_but_behind_the_sweep_revises_in_every_technique() {
    let want = vec![(Range::new(0, 10), 10, false), (Range::new(10, 20), 100, true)];
    let window = || Box::new(TumblingWindow::new(10)) as Box<dyn WindowFunction>;
    let plain = |v: i64| v;
    let value = |v: &i64| *v;

    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        let mut op = SlicingOp::new(Sum, OperatorConfig::out_of_order(100).with_policy(policy));
        op.add_query(window()).unwrap();
        assert_eq!(late_probe(&mut op, plain, value), want, "general slicing, {policy:?}");
    }
    let cfg = KeyedConfig::default().with_allowed_lateness(100);
    let mut shared = KeyedWindowOperator::new(Sum, vec![window()], cfg);
    assert!(shared.is_shared());
    assert_eq!(late_probe(&mut shared, |v| (7, v), |&(_, v)| v), want, "shared keyed");
    let mut naive = NaiveKeyedOperator::new(Sum, vec![window()], cfg);
    assert_eq!(late_probe(&mut naive, |v| (7, v), |&(_, v)| v), want, "naive keyed");

    let mut tb = TupleBuffer::new(Sum, StreamOrder::OutOfOrder, 100);
    tb.add_query(window());
    assert_eq!(late_probe(&mut tb, plain, value), want, "tuple buffer");
    let mut at = AggregateTree::new(Sum, StreamOrder::OutOfOrder, 100);
    at.add_query(window());
    assert_eq!(late_probe(&mut at, plain, value), want, "aggregate tree");
    for mode in [BucketMode::Aggregate, BucketMode::Tuple] {
        let mut bk = Buckets::new(Sum, mode, StreamOrder::OutOfOrder, 100);
        bk.add_query(window());
        assert_eq!(late_probe(&mut bk, plain, value), want, "buckets, {mode:?}");
    }
}

/// In order, tumbling 10: tuples 0–4, punctuation 23, then tuple 19. The
/// punctuation fired and cut up to 23, so 19 breaks the in-order contract:
/// it is dropped and counted, on every store, per tuple and batched, and
/// [20, 30) stays empty. `run_parallel` gives the same emissions.
#[test]
fn an_in_order_tuple_behind_a_punctuation_is_dropped_and_counted() {
    let want = [(Range::new(0, 10), 10, false), (Range::new(30, 40), 30, false)];
    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        for batched in [false, true] {
            let mut op = SlicingOp::new(Sum, OperatorConfig::in_order().with_policy(policy));
            op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
            let mut out = Vec::new();
            (0..5).for_each(|ts| op.process_tuple(ts, ts, &mut out));
            op.process_punctuation(23, &mut out);
            let rest = [19, 30, 40];
            if batched {
                op.process_batch_columns(&rest, &rest, &mut out);
            } else {
                rest.iter().for_each(|&ts| op.process_tuple(ts, ts, &mut out));
            }
            let got: Vec<_> = out.iter().map(|r| (r.range, r.value, r.is_update)).collect();
            assert_eq!(got, want, "{policy:?}, batched: {batched}");
            assert_eq!(op.stats().dropped_late, 1, "{policy:?}, batched: {batched}");
        }
    }
    let elements = (0..5)
        .map(|ts| StreamElement::Record { ts, value: ts })
        .chain([StreamElement::Punctuation(23)])
        .chain([19, 30, 40].map(|ts| StreamElement::Record { ts, value: ts }));
    let report = run_parallel(
        elements,
        PipelineConfig::with_parallelism(2).with_batch_size(1),
        Sum,
        vec![Box::new(TumblingWindow::new(10))],
        OperatorConfig::in_order(),
    );
    let got: Vec<_> = report.results.iter().map(|(_, r)| (r.range, r.value, r.is_update)).collect();
    assert_eq!(got, want, "run_parallel");
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

/// A late tuple shifts the count position of every later tuple, so it
/// changes every fired count window from its own position on, not only
/// the one that holds it: each technique's last emission per window must
/// match the event-time-sorted stream cut into chunks of 64.
#[test]
fn late_tuples_update_every_later_count_window() {
    let arrivals = ooo_workload();
    let mut sorted = arrivals.clone();
    sorted.sort_by_key(|&(ts, _)| ts);
    let reference: Finals = (0..)
        .zip(sorted.chunks_exact(64))
        .map(|(k, chunk)| ((0, 64 * k, 64 * (k + 1)), chunk.iter().map(|&(_, v)| v).sum()))
        .collect();
    let lateness = 5_000;
    let window = || Box::new(CountTumblingWindow::new(64)) as Box<dyn WindowFunction>;
    let run = |agg: &mut dyn WindowAggregator<Sum>| {
        let mut out = Vec::new();
        let mut max_ts = Time::MIN;
        for (i, &(ts, v)) in arrivals.iter().enumerate() {
            agg.process(ts, v, &mut out);
            max_ts = max_ts.max(ts);
            if (i + 1) % 50 == 0 {
                agg.on_watermark(max_ts - 300, &mut out);
            }
        }
        agg.on_watermark(i64::MAX - 1, &mut out);
        finals(&out)
    };

    let mut op = SlicingOp::new(Sum, OperatorConfig::out_of_order(lateness));
    op.add_query(window()).unwrap();
    assert_eq!(run(&mut op), reference, "general slicing");
    let mut tb = TupleBuffer::new(Sum, StreamOrder::OutOfOrder, lateness);
    tb.add_query(window());
    assert_eq!(run(&mut tb), reference, "tuple buffer");
    let mut at = AggregateTree::new(Sum, StreamOrder::OutOfOrder, lateness);
    at.add_query(window());
    assert_eq!(run(&mut at), reference, "aggregate tree");
    assert_eq!(reference.len(), 46);
}

/// Eviction stops at the earliest start a window still has pending: a
/// session that outlasts its retention keeps every slice a shorter query
/// cut under it, in each technique that evicts by the query set's horizon.
#[test]
fn an_open_session_pins_its_slices_past_the_longest_extent() {
    let windows = || -> [Box<dyn WindowFunction>; 2] {
        [Box::new(TumblingWindow::new(10)), Box::new(SessionWindow::new(10).with_retention(20))]
    };
    let sessions = |agg: &mut dyn WindowAggregator<Sum>| {
        let mut out = Vec::new();
        for ts in (0..=100).step_by(5).chain([200]) {
            agg.process(ts, 1, &mut out);
        }
        out.into_iter().filter(|r| r.query == 1).map(|r| (r.range, r.value)).collect::<Vec<_>>()
    };
    let want = vec![(Range::new(0, 110), 21)];
    let mut op = SlicingOp::new(Sum, OperatorConfig::in_order());
    for w in windows() {
        op.add_query(w).unwrap();
    }
    assert_eq!(sessions(&mut op), want, "general slicing");
    let mut tb = TupleBuffer::new(Sum, StreamOrder::InOrder, 0);
    for w in windows() {
        tb.add_query(w);
    }
    assert_eq!(sessions(&mut tb), want, "tuple buffer");
    let mut at = AggregateTree::new(Sum, StreamOrder::InOrder, 0);
    for w in windows() {
        at.add_query(w);
    }
    assert_eq!(sessions(&mut at), want, "aggregate tree");
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

/// In order, a count edge at a tied timestamp cuts a zero-width slice
/// `[t, t)` at a time window's start: it holds the tuples before the cut,
/// and every window starting at `t` covers it. Tumbling 2 and count
/// tumbling 2 over ts 0, 0, 0, 2 give [0, 2) = 1 + 2 + 4; with a session
/// of gap 2 over ts 1, 1, 1, 3, the session [1, 3) = 7. Lazy and eager
/// stores, per tuple and batched.
#[test]
fn a_zero_width_slice_at_a_window_start_is_in_the_window() {
    let windows = |session: bool| {
        let mut w: Vec<Box<dyn WindowFunction>> =
            vec![Box::new(TumblingWindow::new(2)), Box::new(CountTumblingWindow::new(2))];
        if session {
            w.push(Box::new(SessionWindow::new(2)));
        }
        w
    };
    let cells = [(false, 0, Range::new(0, 2), 0), (true, 1, Range::new(1, 3), 2)];
    for (session, t0, want_range, query) in cells {
        let times = [t0, t0, t0, t0 + 2];
        let values = [1, 2, 4, 8];
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            for batched in [false, true] {
                let mut op = SlicingOp::new(Sum, OperatorConfig::in_order().with_policy(policy));
                for w in windows(session) {
                    op.add_query(w).unwrap();
                }
                let mut out = Vec::new();
                if batched {
                    op.process_batch_columns(&times, &values, &mut out);
                } else {
                    times.iter().zip(values).for_each(|(&ts, v)| op.process_tuple(ts, v, &mut out));
                }
                op.process_punctuation(t0 + 10, &mut out);
                let got: Vec<_> = out
                    .iter()
                    .filter(|r| r.query == query && r.range == want_range)
                    .map(|r| r.value)
                    .collect();
                assert_eq!(got, [7], "session: {session}, {policy:?}, batched: {batched}: {out:?}");
            }
        }
    }
}

/// Count sliding (3, 1) over one tuple at ts 0, then a watermark at 1:
/// no count window starts before count 0, so no technique emits one, in
/// order or out of order. Both Buckets modes once emitted `[-2, 1) = 1`.
#[test]
fn no_count_window_starts_before_count_zero() {
    let run = |agg: &mut dyn WindowAggregator<Sum>| {
        let mut out = Vec::new();
        agg.process(0, 1, &mut out);
        agg.on_watermark(1, &mut out);
        out.iter().map(|r| (r.range, r.value)).collect::<Vec<_>>()
    };
    for (order, config) in [
        (StreamOrder::InOrder, OperatorConfig::in_order()),
        (StreamOrder::OutOfOrder, OperatorConfig::out_of_order(10)),
    ] {
        let mut op = SlicingOp::new(Sum, config);
        op.add_query(Box::new(CountSlidingWindow::new(3, 1))).unwrap();
        assert_eq!(run(&mut op), [], "slicing, {order:?}");
        for mode in [BucketMode::Aggregate, BucketMode::Tuple] {
            let mut bk = Buckets::new(Sum, mode, order, 10);
            bk.add_query(Box::new(CountSlidingWindow::new(3, 1)));
            assert_eq!(run(&mut bk), [], "buckets {mode:?}, {order:?}");
        }
    }
}

/// In order, sliding (3, 1): R(0), R(1), then a watermark at 3 and one
/// at the end of time. Each watermark passes window ends no tuple has
/// passed: [−1, 2) and [0, 3), then [1, 4). Every technique emits them;
/// Pairs and Cutty once ignored watermarks and emitted only [−2, 1),
/// which R(1) triggers, and so did Panes, Two-Stacks, DABA Lite and
/// SlickDeque until they shared the slicers' window managers.
#[test]
fn a_watermark_emits_the_windows_whose_end_only_it_passes() {
    fn run<A: AggregateFunction<Input = i64, Output = i64>>(
        agg: &mut dyn WindowAggregator<A>,
    ) -> Vec<(Time, Time, i64)> {
        let mut out = Vec::new();
        agg.process(0, 1, &mut out);
        agg.process(1, 1, &mut out);
        agg.on_watermark(3, &mut out);
        agg.on_watermark(Time::MAX - 1, &mut out);
        out.iter().map(|r| (r.range.start, r.range.end, r.value)).collect()
    }
    let want = [(-2, 1, 1), (-1, 2, 2), (0, 3, 2), (1, 4, 1)];
    let window = || Box::new(SlidingWindow::new(3, 1)) as Box<dyn WindowFunction>;
    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        let mut op = SlicingOp::new(Sum, OperatorConfig::in_order().with_policy(policy));
        op.add_query(window()).unwrap();
        assert_eq!(run(&mut op), want, "slicing {policy:?}");
    }
    let mut tb = TupleBuffer::new(Sum, StreamOrder::InOrder, 0);
    tb.add_query(window());
    assert_eq!(run(&mut tb), want, "tuple buffer");
    let mut at = AggregateTree::new(Sum, StreamOrder::InOrder, 0);
    at.add_query(window());
    assert_eq!(run(&mut at), want, "aggregate tree");
    for mode in [BucketMode::Aggregate, BucketMode::Tuple] {
        let mut bk = Buckets::new(Sum, mode, StreamOrder::InOrder, 0);
        bk.add_query(window());
        assert_eq!(run(&mut bk), want, "buckets {mode:?}");
    }
    let mut pairs = Pairs::new(Sum);
    pairs.add_query(3, 1);
    assert_eq!(run(&mut pairs), want, "pairs");
    let mut panes = Panes::new(Sum);
    panes.add_query(3, 1);
    assert_eq!(run(&mut panes), want, "panes");
    let mut cutty = Cutty::new(Sum);
    cutty.add_query(window());
    assert_eq!(run(&mut cutty), want, "cutty");
    assert_eq!(run(&mut TwoStacksSliding::new(Sum, 3, 1)), want, "two-stacks");
    assert_eq!(run(&mut DabaLiteSliding::new(Sum, 3, 1)), want, "daba lite");
    let max = [(-2, 1, 1), (-1, 2, 1), (0, 3, 1), (1, 4, 1)];
    assert_eq!(run(&mut SlickDequeSliding::new_max(3, 1)), max, "slickdeque");
}

/// In order, tumbling 2 and sliding (3, 1): W(1), R(0) = 2, W(1),
/// R(1) = 10, W(5). On an in-order stream a watermark bounds arrivals as
/// a tuple's time does, so R(0) is behind it: dropped (and counted by
/// slicing) in every technique, per tuple and batched, and only R(1)'s
/// windows are emitted. The tuple buffer, the aggregate tree, Buckets,
/// Pairs and Cutty once took R(0) and emitted [−2, 1) = 2 at the second
/// W(1), lowering their watermark to 0; slicing took it too and emitted
/// its windows at W(5).
#[test]
fn an_in_order_tuple_behind_a_watermark_is_dropped() {
    type Emitted = Vec<(QueryId, Time, Time, i64)>;
    fn run<A: AggregateFunction<Input = i64, Output = i64>>(
        agg: &mut dyn WindowAggregator<A>,
        batched: bool,
    ) -> Emitted {
        let mut out = Vec::new();
        agg.on_watermark(1, &mut out);
        for (ts, value) in [(0, 2), (1, 10)] {
            if batched {
                agg.process_batch_columns(&[ts], &[value], &mut out);
            } else {
                agg.process(ts, value, &mut out);
            }
            agg.on_watermark(1, &mut out);
        }
        agg.on_watermark(5, &mut out);
        let mut got: Emitted =
            out.iter().map(|r| (r.query, r.range.start, r.range.end, r.value)).collect();
        got.sort_unstable();
        got
    }
    let want = [(0, 0, 2, 10), (1, -1, 2, 10), (1, 0, 3, 10), (1, 1, 4, 10)];
    let windows = || -> [Box<dyn WindowFunction>; 2] {
        [Box::new(TumblingWindow::new(2)), Box::new(SlidingWindow::new(3, 1))]
    };
    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        for batched in [false, true] {
            let mut op = SlicingOp::new(Sum, OperatorConfig::in_order().with_policy(policy));
            for w in windows() {
                op.add_query(w).unwrap();
            }
            assert_eq!(run(&mut op, batched), want, "slicing {policy:?}, batched: {batched}");
            assert_eq!(op.stats().dropped_late, 1, "slicing {policy:?}, batched: {batched}");
        }
    }
    let mut tb = TupleBuffer::new(Sum, StreamOrder::InOrder, 0);
    for w in windows() {
        tb.add_query(w);
    }
    assert_eq!(run(&mut tb, false), want, "tuple buffer");
    let mut at = AggregateTree::new(Sum, StreamOrder::InOrder, 0);
    for w in windows() {
        at.add_query(w);
    }
    assert_eq!(run(&mut at, false), want, "aggregate tree");
    for mode in [BucketMode::Aggregate, BucketMode::Tuple] {
        let mut bk = Buckets::new(Sum, mode, StreamOrder::InOrder, 0);
        for w in windows() {
            bk.add_query(w);
        }
        assert_eq!(run(&mut bk, false), want, "buckets {mode:?}");
    }
    let mut pairs = Pairs::new(Sum);
    let mut panes = Panes::new(Sum);
    for (length, slide) in [(2, 2), (3, 1)] {
        pairs.add_query(length, slide);
        panes.add_query(length, slide);
    }
    assert_eq!(run(&mut pairs, false), want, "pairs");
    assert_eq!(run(&mut panes, false), want, "panes");
    let mut cutty = Cutty::new(Sum);
    for w in windows() {
        cutty.add_query(w);
    }
    assert_eq!(run(&mut cutty, false), want, "cutty");
    // One sliding (3, 1) query each: its three windows, as query 0.
    let sliding: Emitted = want[1..].iter().map(|&(_, s, e, v)| (0, s, e, v)).collect();
    assert_eq!(run(&mut TwoStacksSliding::new(Sum, 3, 1), false), sliding, "two-stacks");
    assert_eq!(run(&mut DabaLiteSliding::new(Sum, 3, 1), false), sliding, "daba lite");
    assert_eq!(run(&mut SlickDequeSliding::new_max(3, 1), false), sliding, "slickdeque");
}

/// In order, a count window of three: R(0), W(end of time), R(5), R(5).
/// With no time window the sweeps fire only up to the data clamp (1), so
/// R(5) is ahead of the data and of where they fired, yet behind the
/// watermark: dropped per tuple, and dropped by the batch loop's run
/// entry too, which would otherwise take the first R(5) as a run.
#[test]
fn a_batched_tuple_behind_an_in_order_watermark_is_dropped_as_per_tuple() {
    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        for batched in [false, true] {
            let mut op = SlicingOp::new(Sum, OperatorConfig::in_order().with_policy(policy));
            op.add_query(Box::new(CountTumblingWindow::new(3))).unwrap();
            let mut out = Vec::new();
            op.process_tuple(0, 1, &mut out);
            op.process_watermark(Time::MAX - 1, &mut out);
            if batched {
                op.process_batch_columns(&[5, 5], &[10, 10], &mut out);
            } else {
                op.process_tuple(5, 10, &mut out);
                op.process_tuple(5, 10, &mut out);
            }
            assert_eq!(op.stats().dropped_late, 2, "{policy:?}, batched: {batched}");
            assert!(out.is_empty(), "{policy:?}, batched: {batched}");
        }
    }
}
