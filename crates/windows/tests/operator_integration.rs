//! End-to-end tests: the general slicing operator driving real window
//! types, cross-checked against a brute-force oracle.

use gss_core::operator::{OperatorConfig, QueryError, WindowOperator};
use gss_core::testsupport::{Concat, SumI64, SumNoInvert};
use gss_core::{Measure, Range, StorePolicy, WindowResult};
use gss_windows::{
    CountSlidingWindow, CountTumblingWindow, MultiMeasureWindow, PunctuationWindow, SessionWindow,
    SlidingWindow, TumblingWindow,
};

type Res = WindowResult<i64>;

/// Brute-force sum of tuples with `start <= ts < end`.
fn oracle_sum(tuples: &[(i64, i64)], range: Range) -> Option<i64> {
    let vs: Vec<i64> = tuples.iter().filter(|(t, _)| range.contains(*t)).map(|(_, v)| *v).collect();
    if vs.is_empty() {
        None
    } else {
        Some(vs.iter().sum())
    }
}

fn run_in_order(op: &mut WindowOperator<SumI64>, tuples: &[(i64, i64)]) -> Vec<Res> {
    let mut out = Vec::new();
    for &(ts, v) in tuples {
        op.process_tuple(ts, v, &mut out);
    }
    out
}

#[test]
fn tumbling_in_order_matches_oracle() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..100).map(|i| (i * 3, i)).collect();
    let results = run_in_order(&mut op, &tuples);
    assert!(!results.is_empty());
    for r in &results {
        assert_eq!(Some(r.value), oracle_sum(&tuples, r.range), "window {}", r.range);
        assert_eq!(r.range.len(), 10);
        assert_eq!(r.range.start.rem_euclid(10), 0);
    }
    // Every full window in the data range must have been emitted.
    let emitted: Vec<Range> = results.iter().map(|r| r.range).collect();
    for k in 1..29 {
        let w = Range::new(k * 10, (k + 1) * 10);
        if w.end <= 297 {
            assert!(emitted.contains(&w), "missing window {w}");
        }
    }
}

#[test]
fn sliding_with_unaligned_ends_matches_oracle() {
    // length 10, slide 4: ends do not coincide with starts — exercises the
    // trigger-before-insert rule.
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(SlidingWindow::new(10, 4))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..200).map(|i| (i, i * i % 97)).collect();
    let results = run_in_order(&mut op, &tuples);
    assert!(results.len() > 40);
    for r in &results {
        assert_eq!(Some(r.value), oracle_sum(&tuples, r.range), "window {}", r.range);
    }
}

#[test]
fn multiple_queries_share_slices() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    let q1 = op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let q2 = op.add_query(Box::new(TumblingWindow::new(15))).unwrap();
    let q3 = op.add_query(Box::new(SlidingWindow::new(20, 5))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..300).map(|i| (i, 1)).collect();
    let results = run_in_order(&mut op, &tuples);
    for r in &results {
        assert_eq!(Some(r.value), oracle_sum(&tuples, r.range), "query {} {}", r.query, r.range);
    }
    for q in [q1, q2, q3] {
        assert!(results.iter().any(|r| r.query == q), "query {q} never fired");
    }
    // Slice sharing: edges are the union of all query edges; far fewer
    // slices than 3x the single-query count. With eviction the live slice
    // count stays bounded by the longest window.
    assert!(op.slice_count() < 40, "slices not shared/evicted: {}", op.slice_count());
}

#[test]
fn sessions_in_order_emit_on_gap() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(SessionWindow::new(10))).unwrap();
    // Sessions: [0..4], [30..32], single tuple at 60.
    let tuples = [(0, 1), (2, 2), (4, 4), (30, 10), (32, 20), (60, 100)];
    let results = run_in_order(&mut op, &tuples);
    // First session [0, 14) triggered by tuple at 30; second [30, 42) by 60.
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].range, Range::new(0, 14));
    assert_eq!(results[0].value, 7);
    assert_eq!(results[1].range, Range::new(30, 42));
    assert_eq!(results[1].value, 30);
}

#[test]
fn session_plus_sliding_share_one_operator() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    let qs = op.add_query(Box::new(SessionWindow::new(5))).unwrap();
    let qw = op.add_query(Box::new(SlidingWindow::new(10, 2))).unwrap();
    let tuples: Vec<(i64, i64)> = vec![(0, 1), (1, 2), (3, 3), (20, 4), (21, 5), (40, 6)];
    let results = run_in_order(&mut op, &tuples);
    for r in results.iter().filter(|r| r.query == qw) {
        assert_eq!(Some(r.value), oracle_sum(&tuples, r.range), "sliding {}", r.range);
    }
    let sessions: Vec<&Res> = results.iter().filter(|r| r.query == qs).collect();
    assert_eq!(sessions.len(), 2);
    assert_eq!(sessions[0].range, Range::new(0, 8));
    assert_eq!(sessions[0].value, 6);
    assert_eq!(sessions[1].range, Range::new(20, 26));
    assert_eq!(sessions[1].value, 9);
}

#[test]
fn out_of_order_stream_waits_for_watermark() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(100));
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let mut out = Vec::new();
    op.process_tuple(5, 5, &mut out);
    op.process_tuple(12, 12, &mut out);
    op.process_tuple(3, 3, &mut out); // out-of-order, before watermark
    assert!(out.is_empty(), "no output before watermark");
    op.process_watermark(10, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].range, Range::new(0, 10));
    assert_eq!(out[0].value, 8);
    assert!(!out[0].is_update);
}

#[test]
fn late_tuple_within_lateness_emits_update() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(100));
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let mut out = Vec::new();
    op.process_tuple(5, 5, &mut out);
    op.process_tuple(15, 15, &mut out);
    op.process_watermark(10, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].value, 5);
    out.clear();
    // Late tuple into the already-emitted window [0, 10).
    op.process_tuple(7, 7, &mut out);
    assert_eq!(out.len(), 1);
    assert!(out[0].is_update);
    assert_eq!(out[0].range, Range::new(0, 10));
    assert_eq!(out[0].value, 12);
    assert_eq!(op.stats().updates_emitted, 1);
}

#[test]
fn too_late_tuple_is_dropped() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(5));
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let mut out = Vec::new();
    op.process_tuple(5, 5, &mut out);
    op.process_tuple(50, 50, &mut out);
    op.process_watermark(40, &mut out);
    out.clear();
    op.process_tuple(3, 3, &mut out); // watermark 40, lateness 5 -> dropped
    assert!(out.is_empty());
    assert_eq!(op.stats().dropped_late, 1);
}

#[test]
fn ooo_sliding_matches_oracle_after_watermarks() {
    // Deterministic pseudo-random shuffle of arrival order.
    let mut tuples: Vec<(i64, i64)> = (0..300).map(|i| (i, (i * 7) % 13)).collect();
    // Delay every 5th tuple by up to 40 time units in arrival order.
    let mut arrivals = tuples.clone();
    let n = arrivals.len();
    for i in (0..n).step_by(5) {
        let j = (i + (i * 13) % 37 + 1).min(n - 1);
        arrivals.swap(i, j);
    }
    tuples.sort();

    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1000));
    op.add_query(Box::new(SlidingWindow::new(20, 5))).unwrap();
    let mut out = Vec::new();
    for &(ts, v) in &arrivals {
        op.process_tuple(ts, v, &mut out);
    }
    op.process_watermark(300, &mut out);
    // Keep only the latest emission per window (updates supersede).
    let mut finals: std::collections::HashMap<Range, i64> = std::collections::HashMap::new();
    for r in &out {
        finals.insert(r.range, r.value);
    }
    assert!(finals.len() > 50);
    for (range, value) in finals {
        assert_eq!(Some(value), oracle_sum(&tuples, range), "window {range}");
    }
}

#[test]
fn ooo_sessions_merge_and_update() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1000));
    op.add_query(Box::new(SessionWindow::new(10).with_retention(10_000))).unwrap();
    let mut out = Vec::new();
    op.process_tuple(0, 1, &mut out);
    op.process_tuple(30, 2, &mut out);
    op.process_tuple(100, 4, &mut out);
    // Bridge the two sessions: 15 is within gap of 0..? no (0+10=10 <= 15)
    // but 15+10=25 < 30, so it is its own session... use 22: 22 < 30 + ...
    // 22 + 10 > 30 bridges backwards into session at 30; 22 >= 10 so it
    // does not extend session 1.
    op.process_tuple(22, 8, &mut out);
    op.process_watermark(200, &mut out);
    let sessions: Vec<&Res> = out.iter().collect();
    // Expected final sessions: [0,10)=1, [22,40)=10, [100,110)=4.
    let finals: Vec<(Range, i64)> = sessions.iter().map(|r| (r.range, r.value)).collect();
    assert!(finals.contains(&(Range::new(0, 10), 1)));
    assert!(finals.contains(&(Range::new(22, 40), 10)));
    assert!(finals.contains(&(Range::new(100, 110), 4)));
    assert!(op.stats().merges >= 1, "bridging should merge slices");
}

#[test]
fn count_tumbling_in_order() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(CountTumblingWindow::new(5))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..23).map(|i| (i * 2, 1)).collect();
    let results = run_in_order(&mut op, &tuples);
    // Windows of exactly 5 tuples each: counts [0,5), [5,10), ...
    assert_eq!(results.len(), 4);
    for r in &results {
        assert_eq!(r.measure, Measure::Count);
        assert_eq!(r.value, 5);
        assert_eq!(r.range.len(), 5);
    }
    assert_eq!(results[0].range, Range::new(0, 5));
    assert_eq!(results[3].range, Range::new(15, 20));
}

#[test]
fn count_sliding_in_order_matches_counts() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(CountSlidingWindow::new(4, 2))).unwrap();
    // Values equal their index so window sums identify the contents.
    let tuples: Vec<(i64, i64)> = (0..10).map(|i| (i * 10, i)).collect();
    let results = run_in_order(&mut op, &tuples);
    for r in &results {
        let c1 = r.range.start;
        let c2 = r.range.end;
        let expect: i64 = (c1..c2).sum();
        assert_eq!(r.value, expect, "count window {}", r.range);
        assert_eq!(c2 - c1, 4);
    }
    assert!(results.len() >= 3);
}

#[test]
fn count_tumbling_ooo_shifts_tuples() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1000));
    op.add_query(Box::new(CountTumblingWindow::new(3))).unwrap();
    let mut out = Vec::new();
    // Arrivals: 0, 10, 20, 30, 40 then an out-of-order 15.
    for ts in [0, 10, 20, 30, 40] {
        op.process_tuple(ts, ts, &mut out);
    }
    op.process_tuple(15, 15, &mut out);
    // Event-time order: 0, 10, 15, 20, 30, 40 -> windows of 3 tuples:
    // [0,3) = 0+10+15 = 25; [3,6) = 20+30+40 = 90.
    op.process_watermark(100, &mut out);
    let mut finals: std::collections::HashMap<Range, i64> = std::collections::HashMap::new();
    for r in &out {
        finals.insert(r.range, r.value);
    }
    assert_eq!(finals.get(&Range::new(0, 3)), Some(&25));
    assert_eq!(finals.get(&Range::new(3, 6)), Some(&90));
    assert!(op.stats().shifts >= 1);
}

#[test]
fn count_ooo_non_invertible_recomputes() {
    let mut op = WindowOperator::new(SumNoInvert, OperatorConfig::out_of_order(1000));
    op.add_query(Box::new(CountTumblingWindow::new(3))).unwrap();
    let mut out = Vec::new();
    for ts in [0, 10, 20, 30, 40] {
        op.process_tuple(ts, ts, &mut out);
    }
    op.process_tuple(15, 15, &mut out);
    op.process_watermark(100, &mut out);
    let mut finals: std::collections::HashMap<Range, i64> = std::collections::HashMap::new();
    for r in &out {
        finals.insert(r.range, r.value);
    }
    assert_eq!(finals.get(&Range::new(0, 3)), Some(&25));
    assert_eq!(finals.get(&Range::new(3, 6)), Some(&90));
}

#[test]
fn mixed_measures_rejected_on_ooo_streams() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(100));
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let err = op.add_query(Box::new(CountTumblingWindow::new(5))).unwrap_err();
    assert_eq!(err, QueryError::MixedMeasuresOutOfOrder);
    // In-order streams may mix measures freely.
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    op.add_query(Box::new(CountTumblingWindow::new(5))).unwrap();
}

#[test]
fn mixed_measures_in_order_both_correct() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    let qt = op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let qc = op.add_query(Box::new(CountTumblingWindow::new(4))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..40).map(|i| (i * 3, 1)).collect();
    let results = run_in_order(&mut op, &tuples);
    for r in results.iter().filter(|r| r.query == qt) {
        assert_eq!(Some(r.value), oracle_sum(&tuples, r.range), "time window {}", r.range);
    }
    for r in results.iter().filter(|r| r.query == qc) {
        assert_eq!(r.value, 4, "count window {}", r.range);
    }
}

#[test]
fn non_commutative_ooo_preserves_event_time_order() {
    let mut op: WindowOperator<Concat> =
        WindowOperator::new(Concat, OperatorConfig::out_of_order(1000));
    op.add_query(Box::new(TumblingWindow::new(100))).unwrap();
    assert!(op.characteristics().requires_tuple_storage());
    let mut out = Vec::new();
    op.process_tuple(10, 1, &mut out);
    op.process_tuple(50, 5, &mut out);
    op.process_tuple(30, 3, &mut out); // out of order
    op.process_tuple(70, 7, &mut out);
    op.process_watermark(100, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].value, vec![1, 3, 5, 7]);
}

#[test]
fn multimeasure_last_n_every_s() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(MultiMeasureWindow::new(3, 10))).unwrap();
    assert!(op.characteristics().requires_tuple_storage(), "FCA keeps tuples in order too");
    let tuples = [(1, 1), (3, 3), (5, 5), (8, 8), (12, 12), (15, 15), (22, 22)];
    let results = run_in_order(&mut op, &tuples);
    // End 10 (resolved at tuple 12): last 3 tuples before 10 = 3,5,8 -> [3,10) = 16.
    // End 20 (resolved at tuple 22): last 3 before 20 = 8,12,15 -> [8,20) = 35.
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].range, Range::new(3, 10));
    assert_eq!(results[0].value, 16);
    assert_eq!(results[1].range, Range::new(8, 20));
    assert_eq!(results[1].value, 35);
    assert!(op.stats().splits >= 1, "FCA windows split slices");
}

#[test]
fn punctuation_windows_in_order() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(PunctuationWindow::new())).unwrap();
    let mut out = Vec::new();
    op.process_punctuation(0, &mut out);
    op.process_tuple(1, 1, &mut out);
    op.process_tuple(5, 5, &mut out);
    op.process_punctuation(10, &mut out);
    op.process_tuple(12, 12, &mut out);
    op.process_punctuation(20, &mut out);
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].range, Range::new(0, 10));
    assert_eq!(out[0].value, 6);
    assert_eq!(out[1].range, Range::new(10, 20));
    assert_eq!(out[1].value, 12);
}

#[test]
fn eager_and_lazy_agree() {
    let tuples: Vec<(i64, i64)> = (0..500).map(|i| (i, (i * 31) % 101)).collect();
    let mut arrivals = tuples.clone();
    for i in (0..arrivals.len()).step_by(7) {
        let j = (i + 3).min(arrivals.len() - 1);
        arrivals.swap(i, j);
    }
    let mut results = Vec::new();
    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        let mut op =
            WindowOperator::new(SumI64, OperatorConfig::out_of_order(10_000).with_policy(policy));
        op.add_query(Box::new(SlidingWindow::new(20, 5))).unwrap();
        op.add_query(Box::new(SessionWindow::new(3))).unwrap();
        let mut out = Vec::new();
        for &(ts, v) in &arrivals {
            op.process_tuple(ts, v, &mut out);
        }
        op.process_watermark(600, &mut out);
        let mut finals: std::collections::BTreeMap<(u32, i64, i64), i64> =
            std::collections::BTreeMap::new();
        for r in &out {
            finals.insert((r.query, r.range.start, r.range.end), r.value);
        }
        results.push(finals);
    }
    assert_eq!(results[0], results[1], "lazy and eager stores must agree");
}

#[test]
fn characteristics_adapt_on_query_changes() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(100));
    let q = op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    assert!(!op.characteristics().requires_tuple_storage());
    let q2 = op.add_query(Box::new(PunctuationWindow::new())).unwrap();
    // FCF on out-of-order streams: non-session context aware -> tuples.
    assert!(op.characteristics().requires_tuple_storage());
    op.remove_query(q2);
    assert!(!op.characteristics().requires_tuple_storage());
    assert!(op.remove_query(q));
    assert!(!op.remove_query(q));
}

#[test]
fn storage_never_turns_on_over_tuples_it_did_not_keep() {
    // Figure 4 keeps tuples once a punctuation window joins an
    // out-of-order stream, but the tuples already sliced were not kept,
    // so a split through them could not be recomputed: the query is
    // refused and the operator keeps running with its first query.
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1_000));
    let q = op.add_query(Box::new(TumblingWindow::new(100))).unwrap();
    let mut out = Vec::new();
    for ts in [10, 20, 30] {
        op.process_tuple(ts, 1, &mut out);
    }
    let err = op.add_query(Box::new(PunctuationWindow::new())).unwrap_err();
    assert_eq!(err, QueryError::TuplesNotKept);
    assert!(!op.characteristics().requires_tuple_storage());
    op.process_punctuation(15, &mut out);
    op.process_tuple(40, 1, &mut out);
    op.process_tuple(5, 1, &mut out);
    op.process_watermark(200, &mut out);
    let finals: Vec<(u32, Range, i64)> = out.iter().map(|r| (r.query, r.range, r.value)).collect();
    assert_eq!(finals, vec![(q, Range::new(0, 100), 5)]);
    // Before any tuple, the same query turns storage on.
    let mut fresh = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1_000));
    fresh.add_query(Box::new(TumblingWindow::new(100))).unwrap();
    fresh.add_query(Box::new(PunctuationWindow::new())).unwrap();
    assert!(fresh.store().keeps_tuples());
}

#[test]
fn in_order_stream_never_stores_tuples_for_cf_windows() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(SlidingWindow::new(60, 1))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..1000).map(|i| (i, 1)).collect();
    run_in_order(&mut op, &tuples);
    assert!(!op.store().keeps_tuples());
    for s in op.store().slices() {
        assert!(s.tuples().is_none());
    }
}

#[test]
fn eviction_bounds_slice_count() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..100_000).map(|i| (i, 1)).collect();
    run_in_order(&mut op, &tuples);
    assert!(op.slice_count() < 10, "slices must be evicted: {}", op.slice_count());
}

#[test]
fn ooo_eviction_respects_allowed_lateness() {
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(50));
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let mut out = Vec::new();
    for i in 0..1000 {
        op.process_tuple(i, 1, &mut out);
        if i % 100 == 99 {
            op.process_watermark(i - 20, &mut out);
        }
    }
    // Slices older than watermark - lateness - window length are gone.
    assert!(op.slice_count() < 20, "slice count: {}", op.slice_count());
    // A late-but-allowed tuple still lands correctly.
    out.clear();
    op.process_tuple(940, 5, &mut out);
    assert!(out.iter().any(|r| r.is_update && r.range.contains(940)));
}

#[test]
fn checkpoint_clone_resumes_identically() {
    // Flink-style recovery: a cloned operator is a checkpoint; replaying
    // the same input suffix on the original and the checkpoint yields
    // identical outputs.
    let tuples: Vec<(i64, i64)> = (0..400).map(|i| (i, (i * 13) % 29)).collect();
    let mut arrivals = tuples.clone();
    for i in (0..arrivals.len()).step_by(4) {
        let j = (i + 2).min(arrivals.len() - 1);
        arrivals.swap(i, j);
    }
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1_000));
    op.add_query(Box::new(SlidingWindow::new(50, 10))).unwrap();
    op.add_query(Box::new(SessionWindow::new(5))).unwrap();
    let mut sink = Vec::new();
    let (first, rest) = arrivals.split_at(arrivals.len() / 2);
    for &(ts, v) in first {
        op.process_tuple(ts, v, &mut sink);
    }
    op.process_watermark(150, &mut sink);

    let mut checkpoint = op.clone();
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    for &(ts, v) in rest {
        op.process_tuple(ts, v, &mut out_a);
        checkpoint.process_tuple(ts, v, &mut out_b);
    }
    op.process_watermark(i64::MAX - 1, &mut out_a);
    checkpoint.process_watermark(i64::MAX - 1, &mut out_b);
    assert_eq!(out_a, out_b);
    assert!(!out_a.is_empty());
    assert_eq!(op.stats().tuples, checkpoint.stats().tuples);
}

#[test]
fn punctuation_windows_out_of_order() {
    // FCF on an out-of-order stream: punctuations and tuples arrive late;
    // the decision logic must keep tuples (splits at late punctuations
    // recompute from them).
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1_000));
    op.add_query(Box::new(PunctuationWindow::new())).unwrap();
    assert!(op.characteristics().requires_tuple_storage());
    let mut out = Vec::new();
    op.process_punctuation(0, &mut out);
    op.process_tuple(5, 5, &mut out);
    op.process_tuple(25, 25, &mut out);
    op.process_punctuation(30, &mut out);
    // The punctuation at 10 arrives late: it splits the region [0, 30)
    // into [0, 10) and [10, 30), recomputing from stored tuples.
    op.process_punctuation(10, &mut out);
    op.process_watermark(40, &mut out);
    let finals: std::collections::BTreeMap<(i64, i64), i64> =
        out.iter().map(|r| ((r.range.start, r.range.end), r.value)).collect();
    assert_eq!(finals.get(&(0, 10)), Some(&5));
    assert_eq!(finals.get(&(10, 30)), Some(&25));
    assert!(op.stats().splits >= 1, "late punctuation must split a slice");
}

#[test]
fn multimeasure_out_of_order_reresolves_starts() {
    // FCA + out-of-order: a late tuple shifts which N tuples are "last"
    // before a resolved end; the window start moves and an update is
    // emitted for the already-reported window.
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(1_000));
    op.add_query(Box::new(MultiMeasureWindow::new(2, 10).with_retention(1_000))).unwrap();
    let mut out = Vec::new();
    op.process_tuple(1, 1, &mut out);
    op.process_tuple(5, 5, &mut out);
    op.process_tuple(12, 12, &mut out);
    op.process_watermark(11, &mut out);
    // Window ending 10 covers the last 2 tuples before 10: {1, 5}.
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].range, Range::new(1, 10));
    assert_eq!(out[0].value, 6);
    out.clear();
    // Late tuple at 7: last-2-before-10 becomes {5, 7}, start moves to 5.
    op.process_tuple(7, 7, &mut out);
    assert!(
        out.iter().any(|r| r.is_update && r.range == Range::new(5, 10) && r.value == 12),
        "expected update [5, 10) = 12, got {out:?}"
    );
}

#[test]
fn sliding_and_multimeasure_share_one_store() {
    // CF + FCA in one operator, in order: the FCA splits cut through
    // slices the sliding query also reads; both stay correct.
    let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
    let q_slide = op.add_query(Box::new(SlidingWindow::new(20, 5))).unwrap();
    let q_mm = op.add_query(Box::new(MultiMeasureWindow::new(3, 10))).unwrap();
    let tuples: Vec<(i64, i64)> = (0..60).map(|i| (i, 1)).collect();
    let results = run_in_order(&mut op, &tuples);
    for r in results.iter().filter(|r| r.query == q_slide) {
        assert_eq!(Some(r.value), oracle_sum(&tuples, r.range), "sliding {}", r.range);
    }
    let mm: Vec<&Res> = results.iter().filter(|r| r.query == q_mm).collect();
    assert!(!mm.is_empty());
    for r in &mm {
        // "Last 3 tuples every 10": every window sums exactly 3 tuples
        // (one per time unit).
        assert_eq!(r.value, 3, "multi-measure {}", r.range);
    }
}

#[test]
fn count_sliding_ooo_converges() {
    let tuples: Vec<(i64, i64)> = (0..200).map(|i| (i, i)).collect();
    let mut arrivals = tuples.clone();
    for i in (0..arrivals.len()).step_by(6) {
        let j = (i + 3).min(arrivals.len() - 1);
        arrivals.swap(i, j);
    }
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(10_000));
    op.add_query(Box::new(CountSlidingWindow::new(20, 5))).unwrap();
    let mut out = Vec::new();
    for &(ts, v) in &arrivals {
        op.process_tuple(ts, v, &mut out);
    }
    op.process_watermark(i64::MAX - 1, &mut out);
    let mut finals: std::collections::BTreeMap<(i64, i64), i64> = Default::default();
    for r in &out {
        finals.insert((r.range.start, r.range.end), r.value);
    }
    assert!(finals.len() > 30);
    for ((c1, c2), v) in finals {
        let expect: i64 = (c1..c2).sum(); // value == event-time index
        assert_eq!(v, expect, "count window [{c1}, {c2})");
    }
}

/// Results as comparable rows, update flag included.
fn rows(results: &[Res]) -> Vec<(u32, Measure, Range, i64, bool)> {
    results.iter().map(|r| (r.query, r.measure, r.range, r.value, r.is_update)).collect()
}

#[test]
fn sweep_stats_attribute_windows_to_the_path_that_answered_them() {
    // 50 sliding queries a slide of one slice apart, a watermark every
    // ten slides: every sweep is 500 heavily overlapping windows, all
    // non-empty — the store's shared scan answers all of them.
    let sliding = |policy, per_window: bool| {
        let mut op =
            WindowOperator::new(SumI64, OperatorConfig::out_of_order(0).with_policy(policy));
        for q in 1..=50 {
            op.add_query(Box::new(SlidingWindow::new(q * 120, 10))).unwrap();
        }
        if per_window {
            gss_core::testsupport::force_per_window_queries(&mut op);
        }
        let mut out = Vec::new();
        for ts in 0..4_000 {
            op.process_tuple(ts, ts % 89, &mut out);
            if ts % 100 == 99 {
                op.process_watermark(ts, &mut out);
            }
        }
        (op, out)
    };
    for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
        let (op, out) = sliding(policy, false);
        let s = *op.stats();
        assert_eq!(s.sweeps, 40, "{policy:?}");
        assert!(s.windows_emitted > 10_000, "{policy:?}");
        assert_eq!(s.sweep_windows, s.windows_emitted, "{policy:?}");
        assert_eq!(s.shared_scan_windows, s.windows_emitted, "{policy:?}");
        // Same results, in the same order, with the scan switched off.
        let (reference, want) = sliding(policy, true);
        assert_eq!(rows(&out), rows(&want), "{policy:?}");
        assert_eq!(reference.stats().shared_scan_windows, 0);
        assert_eq!(reference.stats().sweep_windows, s.sweep_windows);
    }

    // One tumbling query fires one window at a time: never a scan.
    let mut op = WindowOperator::new(SumI64, OperatorConfig::out_of_order(0));
    op.add_query(Box::new(TumblingWindow::new(10))).unwrap();
    let mut out = Vec::new();
    for ts in 0..1_000 {
        op.process_tuple(ts, 1, &mut out);
        if ts % 10 == 9 {
            op.process_watermark(ts, &mut out);
        }
    }
    let s = op.stats();
    assert_eq!(s.windows_emitted, 99);
    assert_eq!((s.sweeps, s.sweep_windows, s.shared_scan_windows), (99, 99, 0));
}

#[test]
fn late_update_sweeps_share_one_scan() {
    // A late tuple under 20 sliding queries revises every emitted window
    // that contains it: all of them share the tuple's slice.
    let build = |per_window: bool| {
        let mut op = WindowOperator::new(
            SumI64,
            OperatorConfig::out_of_order(10_000).with_policy(StorePolicy::Eager),
        );
        for q in 1..=20 {
            op.add_query(Box::new(SlidingWindow::new(q * 50, 10))).unwrap();
        }
        if per_window {
            gss_core::testsupport::force_per_window_queries(&mut op);
        }
        let mut out = Vec::new();
        for ts in 0..3_000 {
            op.process_tuple(ts, 1, &mut out);
        }
        op.process_watermark(2_500, &mut out);
        out.clear();
        op.process_tuple(1_234, 1_000, &mut out);
        (op, out)
    };
    let (op, updates) = build(false);
    let (_, want) = build(true);
    assert!(updates.len() > 100 && updates.iter().all(|r| r.is_update));
    assert_eq!(rows(&updates), rows(&want));
    let s = op.stats();
    assert_eq!(s.updates_emitted, updates.len() as u64);
    assert!(s.shared_scan_windows >= s.updates_emitted);
}
