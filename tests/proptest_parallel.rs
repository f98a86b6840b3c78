//! Property tests for intra-query parallel slicing: `run_parallel` must
//! agree with a sequential [`WindowOperator`] across window types, stream
//! order, worker counts, batch sizes, store policies, and lateness.
//!
//! What "agree" means (see `crates/stream/src/parallel.rs`):
//!
//! * **Final emissions** (`is_update == false`, produced at watermark
//!   triggers) match exactly, values included — the epoch barrier
//!   guarantees the merge operator holds exactly the stream prefix when
//!   a watermark fires.
//! * **Update emissions** (straggler revisions of already-emitted
//!   windows) match in multiplicity and affected window, and the *last*
//!   value per window matches; intermediate update values may reflect a
//!   different apply order when several stragglers hit the same window
//!   inside one watermark epoch from different workers.
//! * With **one worker** the merge stage sees the exact stream order, so
//!   the full emission sequence matches, values included.
//! * Ineligible workloads (session windows here) take the sequential
//!   fallback and must match exactly.

use std::collections::BTreeMap;

use general_stream_slicing::prelude::*;
use proptest::prelude::*;

const TIME_MIN: Time = i64::MIN;

type Row = (QueryId, Time, Time, i64, bool);

/// Reference: one sequential operator, tuple at a time, under `cfg`.
fn sequential_rows_cfg(
    elements: &[StreamElement<i64>],
    windows: &[Box<dyn WindowFunction>],
    cfg: OperatorConfig,
) -> Vec<Row> {
    let mut op = WindowOperator::new(Sum, cfg);
    for w in windows {
        op.add_query(w.clone_box()).unwrap();
    }
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => op.process_tuple(*ts, *value, &mut out),
            StreamElement::Watermark(wm) => op.process_watermark(*wm, &mut out),
            StreamElement::Punctuation(ts) => op.process_punctuation(*ts, &mut out),
        }
        rows.extend(out.drain(..).map(row));
    }
    rows
}

/// Reference: one sequential out-of-order operator, tuple at a time.
fn sequential_rows(
    elements: &[StreamElement<i64>],
    windows: &[Box<dyn WindowFunction>],
    lateness: Time,
    policy: StorePolicy,
) -> Vec<Row> {
    sequential_rows_cfg(
        elements,
        windows,
        OperatorConfig::out_of_order(lateness).with_policy(policy),
    )
}

fn row(r: WindowResult<i64>) -> Row {
    (r.query, r.range.start, r.range.end, r.value, r.is_update)
}

fn parallel_rows(
    elements: &[StreamElement<i64>],
    windows: &[Box<dyn WindowFunction>],
    lateness: Time,
    policy: StorePolicy,
    workers: usize,
    batch: usize,
) -> (usize, Vec<Row>) {
    let report = run_parallel(
        elements.iter().cloned(),
        PipelineConfig::with_parallelism(workers).with_batch_size(batch),
        Sum,
        windows.iter().map(|w| w.clone_box()).collect(),
        OperatorConfig::out_of_order(lateness).with_policy(policy),
    );
    (report.parallel_workers, report.results.into_iter().map(|(_, r)| row(r)).collect())
}

/// Last emission per window — what a downstream consumer ends up with.
fn finals(rows: &[Row]) -> BTreeMap<(QueryId, Time, Time), i64> {
    let mut map = BTreeMap::new();
    for &(q, s, e, v, _) in rows {
        map.insert((q, s, e), v);
    }
    map
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v
}

/// Compares a parallel run against the sequential reference under the
/// documented equivalence contract.
fn assert_equivalent(
    want: &[Row],
    got: &[Row],
    workers: usize,
    batch: usize,
) -> Result<(), TestCaseError> {
    let ctx = format!("workers={workers} batch={batch}");
    prop_assert_eq!(finals(got), finals(want), "finals diverged ({})", ctx);
    let want_final: Vec<Row> = want.iter().filter(|r| !r.4).cloned().collect();
    let got_final: Vec<Row> = got.iter().filter(|r| !r.4).cloned().collect();
    prop_assert_eq!(
        sorted(got_final),
        sorted(want_final),
        "watermark-trigger emissions diverged ({})",
        ctx
    );
    let keys = |rows: &[Row], upd: bool| -> Vec<(QueryId, Time, Time)> {
        sorted(rows.iter().filter(|r| r.4 == upd).map(|r| (r.0, r.1, r.2)).collect())
    };
    prop_assert_eq!(keys(got, true), keys(want, true), "update multiplicity diverged ({})", ctx);
    Ok(())
}

/// Interleaves watermarks: one every `every` records at `max_ts - lag`
/// (monotone), with occasional stale duplicates, plus a final flush.
fn with_stream_watermarks(
    tuples: &[(Time, i64)],
    every: usize,
    lag: Time,
) -> Vec<StreamElement<i64>> {
    let every = every.max(1);
    let mut elements = Vec::with_capacity(tuples.len() + tuples.len() / every + 2);
    let mut max_ts = TIME_MIN;
    for (i, &(ts, v)) in tuples.iter().enumerate() {
        elements.push(StreamElement::Record { ts, value: v });
        max_ts = max_ts.max(ts);
        if i % every == every - 1 {
            elements.push(StreamElement::Watermark(max_ts - lag));
            if i % (3 * every) == every - 1 {
                elements.push(StreamElement::Watermark(max_ts - lag - 1));
            }
        }
    }
    elements.push(StreamElement::Watermark(i64::MAX - 1));
    elements
}

fn time_windows(length: i64, slide: i64) -> Vec<Box<dyn WindowFunction>> {
    vec![
        Box::new(TumblingWindow::new(length)),
        Box::new(SlidingWindow::new(length.max(slide), slide)),
    ]
}

fn check_parallel(
    elements: &[StreamElement<i64>],
    windows: &[Box<dyn WindowFunction>],
    lateness: Time,
    policy: StorePolicy,
    batch: usize,
) -> Result<(), TestCaseError> {
    let want = sequential_rows(elements, windows, lateness, policy);
    for workers in [1usize, 2, 4, 8] {
        let (used, got) = parallel_rows(elements, windows, lateness, policy, workers, batch);
        prop_assert_eq!(used, workers, "eligible workload must take the parallel path");
        if workers == 1 {
            // One worker preserves exact stream order through the merge
            // stage: the full emission sequence must match.
            prop_assert_eq!(&got, &want, "single-worker run must match exactly");
        } else {
            assert_equivalent(&want, &got, workers, batch)?;
        }
    }
    Ok(())
}

/// A worker that reaches the flush cap (4096 partials) between two
/// watermarks ships the same slice span twice in one epoch, and the
/// merge stage's store must combine the two. Two ascending passes over
/// 16 640 ten-unit slices, in 64-record chunks, put 260 chunks in each
/// pass, so every worker (1, 2 or 4) sees the same slices in both passes
/// and holds at least 4160 of them; stragglers below the mid watermark
/// then revise fired windows.
#[test]
fn a_worker_flushing_twice_in_one_epoch_matches_sequential() {
    const SLOTS: i64 = 16_640;
    let pass = |offset: i64| {
        (0..SLOTS).map(move |s| StreamElement::Record { ts: s * 10 + offset, value: s % 97 - 40 })
    };
    let mut elements: Vec<StreamElement<i64>> = pass(0).chain(pass(7)).collect();
    elements.push(StreamElement::Watermark(SLOTS * 5));
    for ts in [3, 12_345, SLOTS * 5 - 1, SLOTS * 5] {
        elements.push(StreamElement::Record { ts, value: 1_000 });
    }
    elements.push(StreamElement::Watermark(i64::MAX - 1));
    let windows: Vec<Box<dyn WindowFunction>> = vec![Box::new(TumblingWindow::new(10))];
    let lateness = SLOTS * 10;
    let want = sequential_rows(&elements, &windows, lateness, StorePolicy::Lazy);
    assert!(want.iter().filter(|r| r.4).count() >= 3, "stragglers must revise fired windows");
    for workers in [1usize, 2, 4] {
        let (used, got) =
            parallel_rows(&elements, &windows, lateness, StorePolicy::Lazy, workers, 64);
        assert_eq!(used, workers);
        assert_equivalent(&want, &got, workers, 64).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// In-order streams: tumbling + sliding queries, every worker count,
    /// varying batch sizes and watermark cadence.
    #[test]
    fn parallel_matches_sequential_in_order(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..200),
        length in 1i64..50,
        slide in 1i64..50,
        lateness_i in 0usize..3,
        batch in 1usize..70,
        wm_every in 1usize..40,
    ) {
        let lateness = [0i64, 50, 500][lateness_i];
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _)| ts);
        let elements = with_stream_watermarks(&tuples, wm_every, 50);
        check_parallel(&elements, &time_windows(length, slide), lateness, StorePolicy::Lazy, batch)?;
    }

    /// Out-of-order streams: random arrival order means stragglers and
    /// allowed-lateness drops on every worker.
    #[test]
    fn parallel_matches_sequential_out_of_order(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..150),
        length in 2i64..50,
        slide in 1i64..30,
        lateness_i in 0usize..3,
        batch in 1usize..70,
        wm_every in 1usize..30,
    ) {
        let lateness = [0i64, 50, 500][lateness_i];
        let elements = with_stream_watermarks(&raw, wm_every, 20);
        check_parallel(&elements, &time_windows(length, slide), lateness, StorePolicy::Lazy, batch)?;
    }

    /// Eager (FlatFAT-indexed) stores write every merged partial through
    /// to their index; results must not change.
    #[test]
    fn parallel_matches_sequential_eager_store(
        raw in prop::collection::vec((0i64..1_000, -50i64..50), 1..120),
        length in 2i64..40,
        slide in 1i64..20,
        batch in 1usize..50,
        wm_every in 1usize..25,
    ) {
        let elements = with_stream_watermarks(&raw, wm_every, 20);
        check_parallel(&elements, &time_windows(length, slide), 100, StorePolicy::Eager, batch)?;
    }

    /// Session windows are context-aware → ineligible → the sequential
    /// fallback must run and match the reference exactly (full sequence).
    #[test]
    fn ineligible_sessions_fall_back_and_match(
        raw in prop::collection::vec((0i64..1_000, -50i64..50), 1..100),
        gap in 1i64..40,
        batch in 1usize..50,
        wm_every in 1usize..25,
    ) {
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _)| ts);
        let elements = with_stream_watermarks(&tuples, wm_every, 20);
        let windows: Vec<Box<dyn WindowFunction>> = vec![Box::new(SessionWindow::new(gap))];
        let want = sequential_rows(&elements, &windows, 20, StorePolicy::Lazy);
        for workers in [1usize, 4] {
            let (used, got) =
                parallel_rows(&elements, &windows, 20, StorePolicy::Lazy, workers, batch);
            prop_assert_eq!(used, 0, "sessions must take the fallback");
            prop_assert_eq!(&got, &want, "fallback diverged (workers={}, batch={})", workers, batch);
        }
    }

    /// Multi-query mixes where one query is ineligible must fall back as
    /// a whole — and still match.
    #[test]
    fn mixed_eligibility_falls_back(
        raw in prop::collection::vec((0i64..500, -20i64..20), 1..60),
        length in 2i64..30,
        gap in 1i64..20,
    ) {
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _)| ts);
        let elements = with_stream_watermarks(&tuples, 10, 10);
        let windows: Vec<Box<dyn WindowFunction>> = vec![
            Box::new(TumblingWindow::new(length)),
            Box::new(SessionWindow::new(gap)),
        ];
        let want = sequential_rows(&elements, &windows, 10, StorePolicy::Lazy);
        let (used, got) = parallel_rows(&elements, &windows, 10, StorePolicy::Lazy, 4, 8);
        prop_assert_eq!(used, 0);
        prop_assert_eq!(&got, &want);
    }

    /// Genuinely in-order configs (`OperatorConfig::in_order()`) are now
    /// parallel-eligible: the driver synthesizes watermark rounds at
    /// batch boundaries, so finals must match the sequential in-order
    /// operator and no run may ever emit an update.
    #[test]
    fn in_order_config_matches_sequential(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..200),
        length in 1i64..50,
        slide in 1i64..50,
        batch in 1usize..70,
        wm_every in 1usize..40,
        with_explicit_wms_i in 0usize..2,
    ) {
        let with_explicit_wms = with_explicit_wms_i == 1;
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _)| ts);
        // Explicit watermarks on a sorted stream with lag >= 1 are
        // order-consistent (every later record is above them).
        let elements = if with_explicit_wms {
            with_stream_watermarks(&tuples, wm_every, 50)
        } else {
            tuples.iter().map(|&(ts, value)| StreamElement::Record { ts, value }).collect()
        };
        let windows = time_windows(length, slide);
        let want = sequential_rows_cfg(&elements, &windows, OperatorConfig::in_order());
        prop_assert!(want.iter().all(|r| !r.4), "in-order reference must never emit updates");
        for workers in [1usize, 2, 4, 8] {
            let report = run_parallel(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(workers).with_batch_size(batch),
                Sum,
                windows.iter().map(|w| w.clone_box()).collect(),
                OperatorConfig::in_order(),
            );
            prop_assert_eq!(
                report.parallel_workers, workers,
                "in-order static-edge workload must take the parallel path"
            );
            let got: Vec<Row> = report.results.into_iter().map(|(_, r)| row(r)).collect();
            prop_assert!(got.iter().all(|r| !r.4), "parallel in-order run emitted an update");
            prop_assert_eq!(
                sorted(got),
                sorted(want.clone()),
                "in-order emissions diverged (workers={}, batch={})",
                workers,
                batch
            );
        }
    }

    /// The merge stage's landing of staged lists: every worker's list —
    /// 0–8 workers, empty lists, repeated spans within one list (a
    /// worker that flushed twice in an epoch) — applied in worker order
    /// through `merge_parallel_partials` on a merge-config operator
    /// must leave one store slice per span, holding the same combined
    /// partial, extreme timestamps and tuple count as a flat by-span
    /// fold of all partials.
    #[test]
    fn merge_tree_matches_linear_merge(
        per_worker in prop::collection::vec(
            prop::collection::vec((0i64..20, -50i64..50, 1u64..5), 0..30),
            0..9,
        ),
        span in 1i64..40,
    ) {
        use general_stream_slicing::core::SlicePartial;
        let mk = |lists: &Vec<Vec<(i64, i64, u64)>>| -> Vec<Vec<SlicePartial<Sum>>> {
            lists
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|&(slot, v, n)| SlicePartial {
                            start: slot * span,
                            end: (slot + 1) * span,
                            partial: v,
                            t_first: slot * span,
                            t_last: slot * span + (v.rem_euclid(span)),
                            n,
                        })
                        .collect()
                })
                .collect()
        };
        // Reference: combine everything by span in one flat pass.
        let mut by_span: BTreeMap<(Time, Time), (i64, Time, Time, u64)> = BTreeMap::new();
        for p in mk(&per_worker).into_iter().flatten() {
            let e = by_span
                .entry((p.start, p.end))
                .or_insert((0, Time::MAX, Time::MIN, 0));
            e.0 += p.partial;
            e.1 = e.1.min(p.t_first);
            e.2 = e.2.max(p.t_last);
            e.3 += p.n;
        }
        let mut op = WindowOperator::new(Sum, OperatorConfig::out_of_order(0));
        op.add_query(Box::new(TumblingWindow::new(span))).unwrap();
        let mut out = Vec::new();
        for list in mk(&per_worker) {
            op.merge_parallel_partials(list, &mut out);
        }
        prop_assert!(out.is_empty(), "no watermark, so nothing may emit");
        let got: Vec<_> = op
            .store()
            .slices()
            .map(|s| {
                let r = s.range();
                ((r.start, r.end), (s.aggregate().copied(), s.t_first(), s.t_last(), s.len() as u64))
            })
            .collect();
        let want: Vec<_> =
            by_span.into_iter().map(|(k, (v, tf, tl, n))| (k, (Some(v), tf, tl, n))).collect();
        prop_assert_eq!(got, want, "store slices diverged from the by-span fold");
    }
}
