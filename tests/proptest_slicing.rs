//! Property-based tests: general stream slicing against brute-force
//! oracles, under randomized streams, window parameters, and disorder.

use general_stream_slicing::prelude::*;
use gss_core::testsupport::{Concat, SumI64};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Sorts tuples by event time (stable) — the canonical stream content.
fn sorted(tuples: &[(Time, i64)]) -> Vec<(Time, i64)> {
    let mut s: Vec<(usize, (Time, i64))> = tuples.iter().copied().enumerate().collect();
    s.sort_by_key(|(i, (t, _))| (*t, *i));
    s.into_iter().map(|(_, t)| t).collect()
}

fn oracle_sum(tuples: &[(Time, i64)], range: Range) -> Option<i64> {
    let vs: Vec<i64> = tuples.iter().filter(|(t, _)| range.contains(*t)).map(|(_, v)| *v).collect();
    if vs.is_empty() {
        None
    } else {
        Some(vs.iter().sum())
    }
}

/// Final value per (query, window) after applying updates in order.
fn finals(results: &[WindowResult<i64>]) -> BTreeMap<(QueryId, Time, Time), i64> {
    let mut m = BTreeMap::new();
    for r in results {
        m.insert((r.query, r.range.start, r.range.end), r.value);
    }
    m
}

/// Bounded-disorder arrival order: every 3rd index is swapped forward by a
/// data-dependent displacement.
fn disorder(tuples: &[(Time, i64)], strength: usize) -> Vec<(Time, i64)> {
    let mut arrivals = tuples.to_vec();
    if strength == 0 || arrivals.len() < 2 {
        return arrivals;
    }
    for i in (0..arrivals.len()).step_by(3) {
        let j = (i + 1 + (i * 7) % strength).min(arrivals.len() - 1);
        arrivals.swap(i, j);
    }
    arrivals
}

/// Runs `f` over `arrivals` with one count window of `length` tuples
/// sliding by `slide` (tumbling when equal), each tuple's input built from
/// its time, value and arrival index, and holds every window's last
/// emission against `lower(lift_all(canon[c1..c2]))`; every window inside
/// the stream must fire. With `every`, a watermark follows every `every`
/// arrivals at one below the earliest time still to come: no tuple is
/// dropped, and count eviction drains the store mid-stream.
fn check_count_windows<A>(
    f: A,
    input: impl Fn(Time, i64, usize) -> A::Input,
    arrivals: &[(Time, i64)],
    (length, slide): (u64, u64),
    every: Option<usize>,
) -> Result<(), TestCaseError>
where
    A: AggregateFunction,
    A::Output: PartialEq + std::fmt::Debug,
{
    // The earliest time at or after each arrival.
    let mut suffix_min: Vec<Time> = arrivals.iter().map(|&(t, _)| t).collect();
    for i in (1..suffix_min.len()).rev() {
        suffix_min[i - 1] = suffix_min[i - 1].min(suffix_min[i]);
    }
    let arrivals: Vec<(Time, A::Input)> =
        arrivals.iter().enumerate().map(|(i, &(t, v))| (t, input(t, v, i))).collect();
    // Count positions tie-break by arrival order, like the operator:
    // the sort is stable.
    let mut canon = arrivals.clone();
    canon.sort_by_key(|(t, _)| *t);
    let lateness = if every.is_some() { 0 } else { 1_000_000 };
    let mut op = WindowOperator::new(f.clone(), OperatorConfig::out_of_order(lateness));
    let window: Box<dyn WindowFunction> = if slide == length {
        Box::new(CountTumblingWindow::new(length))
    } else {
        Box::new(CountSlidingWindow::new(length, slide))
    };
    op.add_query(window).unwrap();
    let mut out = Vec::new();
    for (i, (ts, v)) in arrivals.into_iter().enumerate() {
        op.process_tuple(ts, v, &mut out);
        if let Some(&next) = suffix_min.get(i + 1).filter(|_| every.is_some_and(|k| i % k == 0)) {
            op.process_watermark(next - 1, &mut out);
        }
    }
    prop_assert_eq!(op.stats().dropped_late, 0);
    op.process_watermark(i64::MAX - 1, &mut out);
    let mut finals = BTreeMap::new();
    for r in &out {
        finals.insert((r.range.start, r.range.end), r.value.clone());
    }
    for ((c1, c2), got) in &finals {
        let chunk = canon[*c1 as usize..*c2 as usize].iter().map(|(_, v)| v);
        let expect = f.lift_all(chunk).map(|p| f.lower(&p));
        prop_assert_eq!(Some(got), expect.as_ref(), "[{}, {})", c1, c2);
    }
    let n = canon.len() as u64;
    let full: Vec<Time> =
        (0..).map(|k| (k * slide) as Time).take_while(|&s| s as u64 + length <= n).collect();
    prop_assert_eq!(finals.keys().map(|w| w.0).collect::<Vec<_>>(), full);
    Ok(())
}

/// Runs `f` over `arrivals` with all of `windows` in one operator and
/// with each alone, and holds every query's emission sequence, updates
/// included, against the one its window gets alone. Out of order, a
/// watermark `lag` behind the latest time follows every 10 arrivals;
/// both orders end with a flush watermark.
fn check_each_query_as_alone<A>(
    f: A,
    windows: &[Box<dyn WindowFunction>],
    cfg: OperatorConfig,
    arrivals: &[(Time, i64)],
    lag: Time,
) -> Result<(), TestCaseError>
where
    A: AggregateFunction<Input = i64>,
    A::Output: PartialEq + std::fmt::Debug,
{
    let run = |windows: &[Box<dyn WindowFunction>]| {
        let mut op = WindowOperator::new(f.clone(), cfg);
        for w in windows {
            op.add_query(w.clone()).unwrap();
        }
        let mut out = Vec::new();
        let mut max_ts = Time::MIN;
        for (i, &(ts, v)) in arrivals.iter().enumerate() {
            op.process_tuple(ts, v, &mut out);
            max_ts = max_ts.max(ts);
            if !cfg.order.is_in_order() && (i + 1) % 10 == 0 {
                op.process_watermark(max_ts - lag, &mut out);
            }
        }
        op.process_watermark(i64::MAX - 1, &mut out);
        out
    };
    let all = run(windows);
    for (id, w) in (0..).zip(windows) {
        let mine: Vec<_> = all.iter().filter(|r| r.query == id).collect();
        let alone = run(std::slice::from_ref(w));
        prop_assert_eq!(mine.len(), alone.len(), "query {} ({} queries)", id, windows.len());
        for (a, b) in mine.iter().zip(&alone) {
            prop_assert_eq!(
                (a.measure, a.range, &a.value, a.is_update),
                (b.measure, b.range, &b.value, b.is_update),
                "query {}",
                id
            );
        }
    }
    Ok(())
}

/// Time windows for the query-set cell: lengths from a nested pool
/// (6, 12, 24, 48), so sets repeat and nest queries, each tumbling or
/// sliding by a half or a third, plus one session window at `at`.
fn time_windows(specs: &[(usize, i64)], gap: i64, at: usize) -> Vec<Box<dyn WindowFunction>> {
    let mut windows: Vec<Box<dyn WindowFunction>> = specs
        .iter()
        .map(|&(i, k)| {
            let length = 6 << i;
            Box::new(SlidingWindow::new(length, length / k)) as Box<dyn WindowFunction>
        })
        .collect();
    windows.insert(at % (windows.len() + 1), Box::new(SessionWindow::new(gap)));
    windows
}

/// Count windows from the same kind of pool (4, 8, 16, 32 tuples).
fn count_windows(specs: &[(usize, u64)]) -> Vec<Box<dyn WindowFunction>> {
    specs
        .iter()
        .map(|&(i, k)| {
            let length = 4u64 << i;
            Box::new(CountSlidingWindow::new(length, length / k)) as Box<dyn WindowFunction>
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The query-set cell: an operator holding 2–12 queries, duplicates
    /// and nested lengths among them, answers each query exactly as an
    /// operator holding only that query, update emissions included — on
    /// time (tumbling, sliding and a session window) and on counts, in
    /// order and out of order with lateness, for a commutative and a
    /// non-commutative function.
    #[test]
    fn each_query_of_a_set_is_answered_as_alone(
        raw in prop::collection::vec((0i64..600, -100i64..100), 1..120),
        time_specs in prop::collection::vec((0usize..4, 1i64..4), 1..12),
        count_specs in prop::collection::vec((0usize..4, 1u64..4), 2..13),
        gap in 2i64..20,
        at in 0usize..12,
        strength in 1usize..30,
        lateness in 0i64..200,
        lag in 0i64..60,
    ) {
        let tuples = sorted(&raw);
        let arrivals = disorder(&tuples, strength);
        let sets = [time_windows(&time_specs, gap, at), count_windows(&count_specs)];
        for windows in &sets {
            let in_order = OperatorConfig::in_order();
            let ooo = OperatorConfig::out_of_order(lateness);
            check_each_query_as_alone(SumI64, windows, in_order, &tuples, lag)?;
            check_each_query_as_alone(SumI64, windows, ooo, &arrivals, lag)?;
            check_each_query_as_alone(Concat, windows, in_order, &tuples, lag)?;
            check_each_query_as_alone(Concat, windows, ooo, &arrivals, lag)?;
        }
    }

    /// In-order sliding windows match the oracle for every emitted window,
    /// and every nonempty complete window is emitted.
    #[test]
    fn in_order_sliding_matches_oracle(
        raw in prop::collection::vec((0i64..2_000, -100i64..100), 1..200),
        length in 1i64..60,
        slide in 1i64..60,
    ) {
        let tuples = sorted(&raw);
        let mut op = WindowOperator::new(Sum, OperatorConfig::in_order());
        op.add_query(Box::new(SlidingWindow::new(length, slide))).unwrap();
        let mut out = Vec::new();
        for &(ts, v) in &tuples {
            op.process_tuple(ts, v, &mut out);
        }
        let max_ts = tuples.last().unwrap().0;
        for r in &out {
            prop_assert_eq!(Some(r.value), oracle_sum(&tuples, r.range),
                "window {} vs oracle", r.range);
        }
        // Completeness: every nonempty window fully before max_ts fires.
        let mut k = (tuples[0].0 - length).div_euclid(slide);
        loop {
            let w = Range::new(k * slide, k * slide + length);
            if w.end > max_ts { break; }
            if let Some(expected) = oracle_sum(&tuples, w) {
                let got = out.iter().find(|r| r.range == w);
                prop_assert!(got.is_some(), "window {} never emitted", w);
                prop_assert_eq!(got.unwrap().value, expected);
            }
            k += 1;
        }
    }

    /// Out-of-order streams converge to the oracle after the flush
    /// watermark, for any bounded disorder.
    #[test]
    fn ooo_sliding_converges_to_oracle(
        raw in prop::collection::vec((0i64..2_000, -100i64..100), 1..200),
        length in 1i64..60,
        slide in 1i64..60,
        strength in 0usize..40,
    ) {
        let tuples = sorted(&raw);
        let arrivals = disorder(&tuples, strength);
        let mut op = WindowOperator::new(Sum, OperatorConfig::out_of_order(1_000_000));
        op.add_query(Box::new(SlidingWindow::new(length, slide))).unwrap();
        let mut out = Vec::new();
        for &(ts, v) in &arrivals {
            op.process_tuple(ts, v, &mut out);
        }
        op.process_watermark(i64::MAX - 1, &mut out);
        for ((_, s, e), v) in finals(&out) {
            prop_assert_eq!(Some(v), oracle_sum(&tuples, Range::new(s, e)),
                "window [{}, {})", s, e);
        }
    }

    /// Eager and lazy stores agree on every workload.
    #[test]
    fn eager_equals_lazy(
        raw in prop::collection::vec((0i64..1_000, -50i64..50), 1..150),
        length in 1i64..40,
        slide in 1i64..40,
        strength in 0usize..20,
    ) {
        let arrivals = disorder(&sorted(&raw), strength);
        let mut all = Vec::new();
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            let mut op = WindowOperator::new(
                Sum, OperatorConfig::out_of_order(1_000_000).with_policy(policy));
            op.add_query(Box::new(SlidingWindow::new(length, slide))).unwrap();
            let mut out = Vec::new();
            for &(ts, v) in &arrivals {
                op.process_tuple(ts, v, &mut out);
            }
            op.process_watermark(i64::MAX - 1, &mut out);
            all.push(finals(&out));
        }
        prop_assert_eq!(&all[0], &all[1]);
    }

    /// Non-commutative aggregation over an out-of-order stream produces
    /// values in exact event-time order (the tuple-storage path).
    #[test]
    fn non_commutative_preserves_event_time_order(
        raw in prop::collection::vec((0i64..500, 0i64..1000), 1..100),
        length in 5i64..100,
        strength in 0usize..30,
    ) {
        let tuples = sorted(&raw);
        let arrivals = disorder(&tuples, strength);
        // Equal timestamps aggregate in *arrival* order; the oracle must
        // use the same tie-break.
        let canon = sorted(&arrivals);
        let mut op = WindowOperator::new(Concat, OperatorConfig::out_of_order(1_000_000));
        op.add_query(Box::new(TumblingWindow::new(length))).unwrap();
        let mut out = Vec::new();
        for &(ts, v) in &arrivals {
            op.process_tuple(ts, v, &mut out);
        }
        op.process_watermark(i64::MAX - 1, &mut out);
        let mut last_per_window: BTreeMap<Time, Vec<i64>> = BTreeMap::new();
        for r in out {
            last_per_window.insert(r.range.start, r.value);
        }
        for (start, got) in last_per_window {
            let range = Range::new(start, start + length);
            let expect: Vec<i64> = canon
                .iter()
                .filter(|(t, _)| range.contains(*t))
                .map(|(_, v)| *v)
                .collect();
            prop_assert_eq!(got, expect, "window {}", range);
        }
    }

    /// Count tumbling and sliding windows cut the event-time-sorted stream
    /// into chunks of counts, regardless of arrival order (the Figure-6
    /// shift), for every function class: ⊖ exact (`Sum`), absent
    /// (`SumNoInvert`, `M4`, `Concat`) or partial (`Min`, `MaxCount`,
    /// `ArgMin`) — with the store evicted mid-stream by watermarks, or
    /// not.
    #[test]
    fn count_windows_chunk_sorted_stream(
        raw in prop::collection::vec((0i64..2_000, -100i64..100), 1..200),
        length in 1u64..30,
        slide in prop_oneof![Just(None), (0u64..30).prop_map(Some)],
        strength in 0usize..30,
        function in 0usize..7,
        every in prop_oneof![Just(None), (1usize..8).prop_map(Some)],
    ) {
        let arrivals = disorder(&sorted(&raw), strength);
        // Tumbling, or sliding by 1..=length tuples.
        let slide = slide.map_or(length, |s| 1 + s % length);
        let w = (length, slide);
        let a = &arrivals;
        match function {
            0 => check_count_windows(Sum, |_, v, _| v, a, w, every)?,
            1 => check_count_windows(SumNoInvert, |_, v, _| v, a, w, every)?,
            2 => check_count_windows(Min, |_, v, _| v, a, w, every)?,
            3 => check_count_windows(MaxCount, |_, v, _| v, a, w, every)?,
            4 => check_count_windows(ArgMin, |_, v, i| (v, i as i64), a, w, every)?,
            5 => check_count_windows(M4, |t, v, _| (t, v), a, w, every)?,
            _ => check_count_windows(Concat, |_, v, _| v, a, w, every)?,
        }
    }

    /// Sessions computed by slicing equal sessions computed by a direct
    /// scan over the sorted stream.
    #[test]
    fn sessions_match_oracle(
        raw in prop::collection::vec((0i64..3_000, 1i64..100), 1..150),
        gap in 1i64..100,
        strength in 0usize..25,
    ) {
        let tuples = sorted(&raw);
        let arrivals = disorder(&tuples, strength);
        let mut op = WindowOperator::new(Sum, OperatorConfig::out_of_order(1_000_000));
        op.add_query(Box::new(SessionWindow::new(gap).with_retention(1_000_000))).unwrap();
        let mut out = Vec::new();
        for &(ts, v) in &arrivals {
            op.process_tuple(ts, v, &mut out);
        }
        op.process_watermark(i64::MAX - 1, &mut out);
        // Oracle sessions over the sorted tuples.
        let mut oracle: Vec<(Time, Time, i64)> = Vec::new(); // (start, end, sum)
        for &(ts, v) in &tuples {
            match oracle.last_mut() {
                Some((_, end, sum)) if ts < *end => {
                    *end = (*end).max(ts + gap);
                    *sum += v;
                }
                _ => oracle.push((ts, ts + gap, v)),
            }
        }
        let got = finals(&out);
        prop_assert_eq!(got.len(), oracle.len(), "session count");
        for (start, end, sum) in oracle {
            prop_assert_eq!(got.get(&(0, start, end)), Some(&sum),
                "session [{}, {})", start, end);
        }
        // Sessions never require tuple storage on their own.
        prop_assert!(!op.store().keeps_tuples());
    }

    /// The slicing invariant: slice edges are distinct, ordered, and the
    /// number of live slices stays bounded by the query horizon.
    #[test]
    fn slices_are_ordered_and_minimal(
        raw in prop::collection::vec((0i64..5_000, -10i64..10), 10..300),
        length in 1i64..50,
        slide in 1i64..50,
    ) {
        let tuples = sorted(&raw);
        let mut op = WindowOperator::new(Sum, OperatorConfig::in_order());
        op.add_query(Box::new(SlidingWindow::new(length, slide))).unwrap();
        let mut out = Vec::new();
        for &(ts, v) in &tuples {
            op.process_tuple(ts, v, &mut out);
        }
        let slices: Vec<Range> = op.store().slices().map(|s| s.range()).collect();
        for w in slices.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "slices out of order: {} then {}", w[0], w[1]);
        }
        // Live slices bounded: window extent / slide + a small constant.
        let bound = (length / slide + 4) as usize * 2 + 4;
        prop_assert!(slices.len() <= bound, "{} slices > bound {}", slices.len(), bound);
    }
}
