//! Property tests across techniques: every aggregation technique must
//! produce the same final windows as a brute-force oracle on randomized
//! in-order workloads, and the out-of-order-capable ones on randomized
//! disordered workloads.

use general_stream_slicing::baselines::DabaLiteSliding;
use general_stream_slicing::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn sorted(tuples: &[(Time, i64)]) -> Vec<(Time, i64)> {
    let mut s: Vec<(usize, (Time, i64))> = tuples.iter().copied().enumerate().collect();
    s.sort_by_key(|(i, (t, _))| (*t, *i));
    s.into_iter().map(|(_, t)| t).collect()
}

fn oracle(tuples: &[(Time, i64)], start: Time, end: Time) -> Option<i64> {
    let vs: Vec<i64> =
        tuples.iter().filter(|(t, _)| *t >= start && *t < end).map(|(_, v)| *v).collect();
    if vs.is_empty() {
        None
    } else {
        Some(vs.iter().sum())
    }
}

fn drive_in_order(
    agg: &mut dyn WindowAggregator<Sum>,
    tuples: &[(Time, i64)],
) -> BTreeMap<(QueryId, Time, Time), i64> {
    let mut out = Vec::new();
    let mut finals = BTreeMap::new();
    for &(ts, v) in tuples {
        agg.process(ts, v, &mut out);
    }
    // A watermark at the end of time closes the windows no tuple passed.
    agg.on_watermark(Time::MAX - 1, &mut out);
    for r in out {
        finals.insert((r.query, r.range.start, r.range.end), r.value);
    }
    finals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-order: every technique agrees with the oracle (and hence with
    /// each other) for a random sliding-window workload, up to a watermark
    /// at the end of time.
    #[test]
    fn every_technique_matches_oracle_in_order(
        raw in prop::collection::vec((0i64..1_500, -50i64..50), 1..150),
        length in 1i64..50,
        slide in 1i64..50,
    ) {
        let tuples = sorted(&raw);

        let make: Vec<(&str, Box<dyn WindowAggregator<Sum>>)> = vec![
            ("lazy", {
                let mut op = WindowOperator::new(Sum, OperatorConfig::in_order());
                op.add_query(Box::new(SlidingWindow::new(length, slide))).unwrap();
                Box::new(op)
            }),
            ("eager", {
                let mut op = WindowOperator::new(
                    Sum,
                    OperatorConfig::in_order().with_policy(StorePolicy::Eager),
                );
                op.add_query(Box::new(SlidingWindow::new(length, slide))).unwrap();
                Box::new(op)
            }),
            ("pairs", {
                let mut p = Pairs::new(Sum);
                p.add_query(length, slide);
                Box::new(p)
            }),
            ("panes", {
                let mut p = Panes::new(Sum);
                p.add_query(length, slide);
                Box::new(p)
            }),
            ("cutty", {
                let mut c = Cutty::new(Sum);
                c.add_query(Box::new(SlidingWindow::new(length, slide)));
                Box::new(c)
            }),
            ("two-stacks", Box::new(TwoStacksSliding::new(Sum, length, slide))),
            ("daba-lite", Box::new(DabaLiteSliding::new(Sum, length, slide))),
            ("buckets", {
                let mut b = Buckets::new(Sum, BucketMode::Aggregate, StreamOrder::InOrder, 0);
                b.add_query(Box::new(SlidingWindow::new(length, slide)));
                Box::new(b)
            }),
            ("tuple-buffer", {
                let mut t = TupleBuffer::new(Sum, StreamOrder::InOrder, 0);
                t.add_query(Box::new(SlidingWindow::new(length, slide)));
                Box::new(t)
            }),
            ("aggregate-tree", {
                let mut t = AggregateTree::new(Sum, StreamOrder::InOrder, 0);
                t.add_query(Box::new(SlidingWindow::new(length, slide)));
                Box::new(t)
            }),
        ];

        let mut first = None;
        for (name, mut agg) in make {
            let finals = drive_in_order(agg.as_mut(), &tuples);
            for ((_, start, end), v) in &finals {
                prop_assert_eq!(
                    Some(*v),
                    oracle(&tuples, *start, *end),
                    "{} window [{}, {})", name, start, end
                );
            }
            // And each emits every window the first (lazy slicing) does.
            let first = first.get_or_insert_with(|| finals.clone());
            prop_assert_eq!(&finals, first, "{} emits other windows than lazy slicing", name);
        }
    }

    /// SlickDeque max agrees with the general-slicing max on random
    /// workloads.
    #[test]
    fn slick_deque_matches_slicing_max(
        raw in prop::collection::vec((0i64..1_000, -50i64..50), 1..150),
        length in 1i64..40,
        slide in 1i64..40,
    ) {
        let tuples = sorted(&raw);
        let mut sd = SlickDequeSliding::new_max(length, slide);
        let mut op = WindowOperator::new(Max, OperatorConfig::in_order());
        op.add_query(Box::new(SlidingWindow::new(length, slide))).unwrap();
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for &(ts, v) in &tuples {
            sd.process(ts, v, &mut o1);
            op.process_tuple(ts, v, &mut o2);
        }
        sd.on_watermark(Time::MAX - 1, &mut o1);
        op.process_watermark(Time::MAX - 1, &mut o2);
        let a: BTreeMap<(Time, Time), i64> =
            o1.iter().map(|r| ((r.range.start, r.range.end), r.value)).collect();
        let b: BTreeMap<(Time, Time), i64> =
            o2.iter().map(|r| ((r.range.start, r.range.end), r.value)).collect();
        prop_assert_eq!(a, b);
    }

    /// Out-of-order: slicing, buckets, buffer, and tree converge to the
    /// same final windows under random bounded disorder with watermarks,
    /// over data with a hole and one watermark that runs past the data, so
    /// that later tuples land above every time seen but behind what it
    /// fired.
    #[test]
    fn ooo_techniques_converge(
        raw in prop::collection::vec((0i64..1_500, -50i64..50), 1..120),
        length in 2i64..40,
        fraction in 0u8..60,
        hole in (0i64..1_500, 0i64..400),
        past in (0usize..120, 1i64..300),
    ) {
        let kept: Vec<_> =
            raw.into_iter().filter(|&(ts, _)| ts < hole.0 || ts >= hole.0 + hole.1).collect();
        let tuples = sorted(&kept);
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: fraction, max_delay: 100, ..Default::default() },
        );
        let mut elements = with_watermarks(&arrivals, 50, 100);
        // After record `past.0`, a watermark `past.1` beyond every time
        // seen so far.
        let (mut records, mut max_ts) = (0, Time::MIN);
        for i in 0..elements.len() {
            if let StreamElement::Record { ts, .. } = elements[i] {
                (records, max_ts) = (records + 1, max_ts.max(ts));
                if records > past.0 {
                    elements.insert(i + 1, StreamElement::Watermark(max_ts + past.1));
                    break;
                }
            }
        }

        let drive = |agg: &mut dyn WindowAggregator<Sum>| {
            let mut out = Vec::new();
            let mut finals: BTreeMap<(Time, Time), i64> = BTreeMap::new();
            for e in &elements {
                match e {
                    StreamElement::Record { ts, value } => agg.process(*ts, *value, &mut out),
                    StreamElement::Watermark(wm) => agg.on_watermark(*wm, &mut out),
                    _ => {}
                }
                for r in out.drain(..) {
                    finals.insert((r.range.start, r.range.end), r.value);
                }
            }
            finals
        };

        let lateness = 10_000;
        let mut op = WindowOperator::new(Sum, OperatorConfig::out_of_order(lateness));
        op.add_query(Box::new(TumblingWindow::new(length))).unwrap();
        let slicing = drive(&mut op);
        for ((s, e), v) in &slicing {
            prop_assert_eq!(Some(*v), oracle(&tuples, *s, *e), "slicing [{}, {})", s, e);
        }

        let mut bk = Buckets::new(Sum, BucketMode::Aggregate, StreamOrder::OutOfOrder, lateness);
        bk.add_query(Box::new(TumblingWindow::new(length)));
        prop_assert_eq!(&drive(&mut bk), &slicing);

        let mut tb = TupleBuffer::new(Sum, StreamOrder::OutOfOrder, lateness);
        tb.add_query(Box::new(TumblingWindow::new(length)));
        prop_assert_eq!(&drive(&mut tb), &slicing);

        let mut at = AggregateTree::new(Sum, StreamOrder::OutOfOrder, lateness);
        at.add_query(Box::new(TumblingWindow::new(length)));
        prop_assert_eq!(&drive(&mut at), &slicing);
    }
}
