//! Property tests for keyed window aggregation: the shared-timeline
//! [`KeyedWindowOperator`] (and the [`NaiveKeyedOperator`] baseline)
//! must emit exactly the same result multiset as a reference map of
//! independent per-key [`WindowOperator`]s, across window types
//! (tumbling/sliding on the shared path, session on the fallback),
//! stream order, batch size, watermark placement (including stale,
//! repeated, and flush watermarks), and idle-key TTL eviction — including
//! rolling key cohorts that recycle key state under disorder — and the
//! three ingestion entries must agree on every key's output sequence —
//! and, over batches in which no key repeats, on the whole emission
//! sequence and every counter.
//! Eviction *timing*, which no result shows, is pinned by comparing
//! `live_keys()` after every watermark with a model of the TTL rule.
//!
//! The reference replays the current watermark into each freshly created
//! per-key operator — watermarks are broadcast, so a key first seen late
//! in the stream is still subject to the global lateness rule.

use std::collections::BTreeMap;

use general_stream_slicing::prelude::*;
use proptest::prelude::*;

/// `(watermark segment, key, query, start, end, value, is_update)` — the
/// segment index pins emissions to the watermark interval they occurred
/// in, so sorting compares segment-by-segment multisets (emission order
/// across keys within a segment is not specified).
type Emitted = Vec<(usize, u64, QueryId, Time, Time, i64, bool)>;

type KeyedElements = Vec<StreamElement<(u64, i64)>>;

/// Reference: one full `WindowOperator` per key, driven tuple-at-a-time.
struct RefKeyed {
    ops: BTreeMap<u64, WindowOperator<Sum>>,
    windows: Vec<Box<dyn WindowFunction>>,
    lateness: Time,
    wm: Time,
}

const TIME_MIN: Time = i64::MIN;

impl RefKeyed {
    fn new(windows: Vec<Box<dyn WindowFunction>>, lateness: Time) -> Self {
        RefKeyed { ops: BTreeMap::new(), windows, lateness, wm: TIME_MIN }
    }

    fn run(mut self, elements: &KeyedElements) -> Emitted {
        let mut emitted = Emitted::new();
        let mut scratch = Vec::new();
        let mut segment = 0usize;
        for e in elements {
            match e {
                StreamElement::Record { ts, value: (key, v) } => {
                    if !self.ops.contains_key(key) {
                        let mut op =
                            WindowOperator::new(Sum, OperatorConfig::out_of_order(self.lateness));
                        for w in &self.windows {
                            op.add_query(w.clone_box()).unwrap();
                        }
                        if self.wm != TIME_MIN {
                            op.process_watermark(self.wm, &mut scratch);
                            assert!(scratch.is_empty());
                        }
                        self.ops.insert(*key, op);
                    }
                    let op = self.ops.get_mut(key).unwrap();
                    op.process(*ts, *v, &mut scratch);
                    emitted.extend(scratch.drain(..).map(|r| {
                        (segment, *key, r.query, r.range.start, r.range.end, r.value, r.is_update)
                    }));
                }
                StreamElement::Watermark(wm) => {
                    if *wm > self.wm {
                        self.wm = *wm;
                        for (key, op) in self.ops.iter_mut() {
                            op.process_watermark(*wm, &mut scratch);
                            emitted.extend(scratch.drain(..).map(|r| {
                                (
                                    segment,
                                    *key,
                                    r.query,
                                    r.range.start,
                                    r.range.end,
                                    r.value,
                                    r.is_update,
                                )
                            }));
                        }
                    }
                    segment += 1;
                }
                StreamElement::Punctuation(_) => {}
            }
        }
        emitted
    }
}

/// Moves `out` into `emitted`, tagged with the watermark segment.
fn record(emitted: &mut Emitted, out: &mut Vec<WindowResult<(u64, i64)>>, segment: usize) {
    emitted.extend(out.drain(..).map(|r| {
        (segment, r.value.0, r.query, r.range.start, r.range.end, r.value.1, r.is_update)
    }));
}

/// Drives a keyed aggregator in chunks of `batch_size`, flushing the
/// pending chunk before every watermark so watermark segments line up
/// with the per-tuple reference.
fn drive_keyed(
    agg: &mut dyn WindowAggregator<PerKey<Sum>>,
    elements: &KeyedElements,
    batch_size: usize,
) -> Emitted {
    let batch_size = batch_size.max(1);
    let mut emitted = Emitted::new();
    let mut out = Vec::new();
    let mut buf: Vec<(Time, (u64, i64))> = Vec::new();
    let mut segment = 0usize;
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => {
                buf.push((*ts, *value));
                if buf.len() >= batch_size {
                    agg.process_batch(&buf, &mut out);
                    buf.clear();
                }
            }
            StreamElement::Watermark(wm) => {
                if !buf.is_empty() {
                    agg.process_batch(&buf, &mut out);
                    buf.clear();
                }
                agg.on_watermark(*wm, &mut out);
            }
            StreamElement::Punctuation(_) => {}
        }
        record(&mut emitted, &mut out, segment);
        if matches!(e, StreamElement::Watermark(_)) {
            segment += 1;
        }
    }
    if !buf.is_empty() {
        agg.process_batch(&buf, &mut out);
        record(&mut emitted, &mut out, segment);
    }
    emitted
}

fn sorted(mut e: Emitted) -> Emitted {
    e.sort_unstable();
    e
}

/// Interleaves watermarks into a keyed tuple stream: one every
/// `every` records at `max_ts - lag` (watermarks are monotone because
/// `max_ts` is), with an occasional stale duplicate to exercise the
/// non-increasing-watermark ignore path, plus a final flush.
fn with_keyed_watermarks(tuples: &[(Time, u64, i64)], every: usize, lag: Time) -> KeyedElements {
    let every = every.max(1);
    let mut elements = KeyedElements::with_capacity(tuples.len() + tuples.len() / every + 2);
    let mut max_ts = TIME_MIN;
    for (i, &(ts, key, v)) in tuples.iter().enumerate() {
        elements.push(StreamElement::Record { ts, value: (key, v) });
        max_ts = max_ts.max(ts);
        if i % every == every - 1 {
            elements.push(StreamElement::Watermark(max_ts - lag));
            if i % (3 * every) == every - 1 {
                // Stale: strictly behind the one just emitted.
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

fn check_all(
    windows: impl Fn() -> Vec<Box<dyn WindowFunction>>,
    cfg: KeyedConfig,
    lateness: Time,
    elements: &KeyedElements,
    batch_size: usize,
    expect_shared: bool,
) -> Result<(), TestCaseError> {
    let reference = RefKeyed::new(windows(), lateness).run(elements);
    let want = sorted(reference);

    let mut shared = KeyedWindowOperator::new(Sum, windows(), cfg);
    prop_assert_eq!(shared.is_shared(), expect_shared);
    let got = sorted(drive_keyed(&mut shared, elements, batch_size));
    prop_assert_eq!(&got, &want, "KeyedWindowOperator diverged (batch {})", batch_size);

    let mut naive = NaiveKeyedOperator::new(Sum, windows(), cfg);
    let got = sorted(drive_keyed(&mut naive, elements, batch_size));
    prop_assert_eq!(&got, &want, "NaiveKeyedOperator diverged (batch {})", batch_size);

    // Per-tuple processing through the same operators must agree too.
    let mut shared = KeyedWindowOperator::new(Sum, windows(), cfg);
    let got = sorted(drive_keyed(&mut shared, elements, 1));
    prop_assert_eq!(&got, &want, "per-tuple KeyedWindowOperator diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// In-order keyed streams on the shared path: tumbling + sliding
    /// queries over interleaved keys, every batch size, watermarks with
    /// stale duplicates.
    #[test]
    fn keyed_matches_reference_in_order(
        raw in prop::collection::vec((0i64..2_000, 0u64..10, -50i64..50), 1..200),
        length in 1i64..50,
        slide in 1i64..50,
        lateness_i in 0usize..3,
        batch_size in 1usize..70,
        wm_every in 1usize..40,
    ) {
        let lateness = [0i64, 50, 500][lateness_i];
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _, _)| ts);
        let elements = with_keyed_watermarks(&tuples, wm_every, 50);
        check_all(
            || time_windows(length, slide),
            KeyedConfig::default().with_allowed_lateness(lateness),
            lateness,
            &elements,
            batch_size,
            true,
        )?;
    }

    /// Out-of-order keyed streams: random arrival order means heavy
    /// key-late traffic — allowed-lateness drops and window updates must
    /// match the reference exactly, including keys first seen behind the
    /// watermark (timeline prepends, watermark replay in the reference).
    #[test]
    fn keyed_matches_reference_out_of_order(
        raw in prop::collection::vec((0i64..2_000, 0u64..8, -50i64..50), 1..150),
        length in 2i64..50,
        slide in 1i64..30,
        lateness_i in 0usize..3,
        batch_size in 1usize..70,
        wm_every in 1usize..30,
    ) {
        let lateness = [0i64, 50, 500][lateness_i];
        // Raw vec order is random in ts: maximal disorder.
        let elements = with_keyed_watermarks(&raw, wm_every, 20);
        check_all(
            || time_windows(length, slide),
            KeyedConfig::default().with_allowed_lateness(lateness),
            lateness,
            &elements,
            batch_size,
            true,
        )?;
    }

    /// Session windows are context-aware, so the operator must fall back
    /// to the naive per-key path — and still match the reference map.
    #[test]
    fn keyed_session_fallback_matches_reference(
        raw in prop::collection::vec((0i64..2_000, 0u64..6, -50i64..50), 1..120),
        gap in 1i64..60,
        batch_size in 1usize..50,
        wm_every in 1usize..30,
    ) {
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _, _)| ts);
        let elements = with_keyed_watermarks(&tuples, wm_every, 50);
        let windows = || -> Vec<Box<dyn WindowFunction>> { vec![Box::new(SessionWindow::new(gap))] };
        check_all(
            windows,
            KeyedConfig::default().with_allowed_lateness(0),
            0,
            &elements,
            batch_size,
            false,
        )?;
    }

    /// Idle-key TTL eviction on globally in-order streams is invisible in
    /// the output: an evicted key's windows were fully emitted before
    /// eviction, and a reappearing key starts fresh exactly like the
    /// reference (which never evicts) would continue in order. Exercises
    /// the due-bucket and idle-cohort interplay: keys going idle, being
    /// evicted, and re-registering.
    #[test]
    fn keyed_ttl_eviction_is_invisible_in_order(
        raw in prop::collection::vec((0i64..4_000, 0u64..6, -50i64..50), 1..200),
        length in 1i64..40,
        slide in 1i64..40,
        ttl in 1i64..400,
        batch_size in 1usize..50,
        wm_every in 1usize..20,
    ) {
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _, _)| ts);
        let elements = with_keyed_watermarks(&tuples, wm_every, 30);
        let windows = || time_windows(length, slide);
        let want = sorted(RefKeyed::new(windows(), 0).run(&elements));

        let cfg = KeyedConfig::default().with_idle_ttl(ttl);
        let mut shared = KeyedWindowOperator::new(Sum, windows(), cfg);
        prop_assert!(shared.is_shared());
        let got = sorted(drive_keyed(&mut shared, &elements, batch_size));
        prop_assert_eq!(&got, &want, "shared + ttl {} diverged", ttl);
        // Everything is drained by the flush watermark: with a TTL set,
        // every key must eventually be evicted.
        prop_assert_eq!(shared.live_keys(), 0, "flush watermark must evict all idle keys");

        let mut naive = NaiveKeyedOperator::new(Sum, windows(), cfg);
        let got = sorted(drive_keyed(&mut naive, &elements, batch_size));
        prop_assert_eq!(&got, &want, "naive + ttl {} diverged", ttl);
        prop_assert_eq!(naive.live_keys(), 0);
    }
}

/// Windows one per-key operator cannot host together — count and time
/// measures on the out-of-order keyed stream — are refused when the
/// operator is built, not at its first tuple. A session fallback built
/// through `try_new` still matches the reference.
#[test]
fn keyed_try_new_refuses_mixed_measures_at_construction() {
    use general_stream_slicing::core::QueryError;
    let mixed = || -> Vec<Box<dyn WindowFunction>> {
        vec![Box::new(TumblingWindow::new(10)), Box::new(CountTumblingWindow::new(3))]
    };
    let refused = KeyedWindowOperator::try_new(Sum, mixed(), KeyedConfig::default()).err();
    assert_eq!(refused, Some(QueryError::MixedMeasuresOutOfOrder));
    let built =
        std::panic::catch_unwind(|| KeyedWindowOperator::new(Sum, mixed(), KeyedConfig::default()));
    assert!(built.is_err(), "`new` accepted windows its first tuple would refuse");

    let tuples: Vec<(Time, u64, i64)> =
        (0..300).map(|i| ((i * 37 % 1_000) as Time, (i % 5) as u64, i as i64 - 150)).collect();
    let mut tuples = tuples;
    tuples.sort_by_key(|&(ts, _, _)| ts);
    let elements = with_keyed_watermarks(&tuples, 11, 40);
    let sessions = || -> Vec<Box<dyn WindowFunction>> { vec![Box::new(SessionWindow::new(25))] };
    let mut op = KeyedWindowOperator::try_new(Sum, sessions(), KeyedConfig::default())
        .expect("one session window fits one operator");
    assert!(!op.is_shared());
    let want = sorted(RefKeyed::new(sessions(), 0).run(&elements));
    assert_eq!(sorted(drive_keyed(&mut op, &elements, 16)), want);
}

/// Drives a keyed aggregator like [`drive_keyed`], but through
/// `process_batch_columns`.
fn drive_keyed_columns(
    agg: &mut dyn WindowAggregator<PerKey<Sum>>,
    elements: &KeyedElements,
    batch_size: usize,
) -> Emitted {
    let mut emitted = Emitted::new();
    let mut out = Vec::new();
    let (mut times, mut values): (Vec<Time>, Vec<(u64, i64)>) = (Vec::new(), Vec::new());
    let mut segment = 0usize;
    for e in elements {
        let flush = match e {
            StreamElement::Record { ts, value } => {
                times.push(*ts);
                values.push(*value);
                times.len() >= batch_size
            }
            _ => true,
        };
        if flush && !times.is_empty() {
            agg.process_batch_columns(&times, &values, &mut out);
            times.clear();
            values.clear();
        }
        if let StreamElement::Watermark(wm) = e {
            agg.on_watermark(*wm, &mut out);
        }
        record(&mut emitted, &mut out, segment);
        if matches!(e, StreamElement::Watermark(_)) {
            segment += 1;
        }
    }
    emitted
}

/// Drives a keyed aggregator one `process` call per tuple.
fn drive_keyed_per_tuple(
    agg: &mut dyn WindowAggregator<PerKey<Sum>>,
    elements: &KeyedElements,
) -> Emitted {
    let mut emitted = Emitted::new();
    let mut out = Vec::new();
    let mut segment = 0usize;
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => agg.process(*ts, *value, &mut out),
            StreamElement::Watermark(wm) => agg.on_watermark(*wm, &mut out),
            StreamElement::Punctuation(_) => {}
        }
        record(&mut emitted, &mut out, segment);
        if matches!(e, StreamElement::Watermark(_)) {
            segment += 1;
        }
    }
    emitted
}

/// Every key's emissions in the order they were made. Batched ingestion
/// groups a chunk by key, so the order *across* keys depends on the
/// chunking; the order within a key must not.
fn per_key(emitted: Emitted) -> BTreeMap<u64, Emitted> {
    let mut by_key: BTreeMap<u64, Emitted> = BTreeMap::new();
    for e in emitted {
        by_key.entry(e.1).or_default().push(e);
    }
    by_key
}

/// A stream of rolling key cohorts: each cohort owns `cohort_keys` fresh
/// key ids (ids never recur) and reports for `cohort_len` time units,
/// tuples arrive up to `jitter` late, and watermarks trail the head by
/// `lag`. Returns the elements and the idle TTL from which on eviction
/// is invisible: no tuple of a key arrives after the key was evicted,
/// because a key's last arrival is at head `<= cohort end + jitter`, its
/// `t_last >= cohort start - jitter`, and eviction waits for
/// `wm >= t_last + ttl`.
fn rolling_cohorts(
    raw: &[(u64, i64, i64)],
    cohort_keys: u64,
    cohort_len: i64,
    jitter: i64,
    wm_every: usize,
    lag: Time,
) -> (KeyedElements, Time) {
    let tuples: Vec<(Time, u64, i64)> = raw
        .iter()
        .enumerate()
        .map(|(i, &(pick, late, v))| {
            let head = i as Time;
            let cohort = (head / cohort_len) as u64;
            (head - late % (jitter + 1), cohort * cohort_keys + pick % cohort_keys, v)
        })
        .collect();
    (with_keyed_watermarks(&tuples, wm_every, lag), cohort_len + 2 * jitter + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Recycling × disorder × spill: rolling cohorts of 50–500 keys whose
    /// ids never recur, a TTL just long enough for eviction to be
    /// invisible (so slots are handed from cohort to cohort all through
    /// the run), out-of-order arrival inside the allowed lateness, and
    /// sliding windows with slide < length, whose rings outgrow the
    /// inline capacity and spill to the heap.
    #[test]
    fn keyed_rolling_cohorts_recycle_state_under_disorder(
        raw in prop::collection::vec((0u64..10_000, 0i64..1_000, -50i64..50), 600..2_400),
        cohort_keys in 50u64..500,
        cohort_len in 100i64..400,
        slide in 2i64..20,
        panes in 2i64..6,
        jitter in 0i64..60,
        batch_size in 1usize..50,
        wm_every in 5usize..60,
    ) {
        // Lateness covers the jitter plus the watermark's own lead over
        // the slowest tuple, so nothing is dropped and rings stay wide.
        let (lag, lateness) = (10, jitter + 10);
        let (elements, ttl) =
            rolling_cohorts(&raw, cohort_keys, cohort_len, jitter, wm_every, lag);
        let windows = || -> Vec<Box<dyn WindowFunction>> {
            vec![
                Box::new(SlidingWindow::new(slide * panes, slide)),
                Box::new(TumblingWindow::new(slide * 3)),
            ]
        };
        let want = sorted(RefKeyed::new(windows(), lateness).run(&elements));

        let cfg = KeyedConfig::default().with_allowed_lateness(lateness).with_idle_ttl(ttl);
        let mut shared = KeyedWindowOperator::new(Sum, windows(), cfg);
        prop_assert!(shared.is_shared());
        let got = sorted(drive_keyed(&mut shared, &elements, batch_size));
        prop_assert_eq!(&got, &want, "shared diverged (batch {}, ttl {})", batch_size, ttl);
        let stats = shared.stats();
        prop_assert_eq!(stats.dropped_late, 0);
        prop_assert_eq!(shared.live_keys(), 0, "flush watermark must evict all idle keys");
        prop_assert_eq!(stats.keys_evicted, stats.keys_created);

        let mut naive = NaiveKeyedOperator::new(Sum, windows(), cfg);
        let got = sorted(drive_keyed(&mut naive, &elements, batch_size));
        prop_assert_eq!(&got, &want, "naive diverged (batch {}, ttl {})", batch_size, ttl);
    }

    /// Eviction timing, which the result multiset cannot see: after every
    /// watermark the shared operator holds exactly the keys of a model
    /// computed from the input alone. A key lives from its first tuple to
    /// the first watermark `wm >= t_last + ttl` that leaves it nothing
    /// pending (no window end in `(wm, t_last + max extent]`), and a later
    /// tuple starts it afresh. TTLs down to a quarter of the invisible one
    /// make keys drain, return and leave while their cohort is reporting.
    #[test]
    fn keyed_live_keys_follow_the_eviction_model(
        raw in prop::collection::vec((0u64..10_000, 0i64..1_000, -50i64..50), 600..2_400),
        cohort_keys in 50u64..500,
        cohort_len in 100i64..400,
        slide in 2i64..20,
        panes in 2i64..6,
        jitter in 0i64..60,
        ttl_div in 1i64..5,
        batch_size in 1usize..50,
        wm_every in 5usize..60,
    ) {
        let (elements, ttl) = rolling_cohorts(&raw, cohort_keys, cohort_len, jitter, wm_every, 10);
        let ttl = ttl / ttl_div;
        let windows: Vec<Box<dyn WindowFunction>> = vec![
            Box::new(SlidingWindow::new(slide * panes, slide)),
            Box::new(TumblingWindow::new(slide * 3)),
        ];
        let extent = windows.iter().map(|w| w.max_extent()).max().unwrap();
        let pending = |wm: Time, last: Time| {
            wm < last + extent
                && windows.iter().filter_map(|w| w.next_window_end(wm)).any(|e| e <= last + extent)
        };
        let cfg = KeyedConfig::default().with_allowed_lateness(jitter + 10).with_idle_ttl(ttl);
        let mut shared =
            KeyedWindowOperator::new(Sum, windows.iter().map(|w| w.clone_box()).collect(), cfg);
        prop_assert!(shared.is_shared());

        let mut t_last: BTreeMap<u64, Time> = BTreeMap::new();
        let (mut buf, mut out, mut wm_seen) = (Vec::new(), Vec::new(), TIME_MIN);
        for e in &elements {
            match e {
                StreamElement::Record { ts, value } => {
                    buf.push((*ts, *value));
                    let last = t_last.entry(value.0).or_insert(*ts);
                    *last = (*last).max(*ts);
                    if buf.len() < batch_size {
                        continue;
                    }
                }
                StreamElement::Watermark(wm) if *wm > wm_seen => {
                    wm_seen = *wm;
                    t_last.retain(|_, last| pending(*wm, *last) || last.saturating_add(ttl) > *wm);
                }
                _ => {}
            }
            shared.process_batch(&buf, &mut out);
            buf.clear();
            if let StreamElement::Watermark(wm) = e {
                shared.on_watermark(*wm, &mut out);
                prop_assert_eq!(shared.live_keys(), t_last.len(), "after watermark {}", wm);
            }
        }
        prop_assert_eq!(shared.live_keys(), 0, "the flush watermark evicts every key");
    }

    /// `process`, `process_batch` and `process_batch_columns` are three
    /// doors into one ingest loop: every key's output sequence — order,
    /// values and update flags — is the same through each, on the shared
    /// path and on the fallback.
    #[test]
    fn keyed_entries_agree_on_per_key_sequences(
        raw in prop::collection::vec((0i64..2_000, 0u64..12, -50i64..50), 1..300),
        length in 2i64..50,
        slide in 1i64..30,
        lateness_i in 0usize..3,
        ttl_i in 0usize..3,
        batch_size in 2usize..70,
        wm_every in 1usize..30,
        session in 0usize..4,
    ) {
        let lateness = [0i64, 50, 500][lateness_i];
        let elements = with_keyed_watermarks(&raw, wm_every, 20);
        let windows = || -> Vec<Box<dyn WindowFunction>> {
            if session == 0 {
                vec![Box::new(SessionWindow::new(length))]
            } else {
                time_windows(length, slide)
            }
        };
        let mut cfg = KeyedConfig::default().with_allowed_lateness(lateness);
        if let Some(ttl) = [None, Some(40), Some(600)][ttl_i] {
            cfg = cfg.with_idle_ttl(ttl);
        }
        let make = || KeyedWindowOperator::new(Sum, windows(), cfg);
        let per_tuple = per_key(drive_keyed_per_tuple(&mut make(), &elements));
        let pairs = per_key(drive_keyed(&mut make(), &elements, batch_size));
        let columns = per_key(drive_keyed_columns(&mut make(), &elements, batch_size));
        prop_assert_eq!(&pairs, &per_tuple, "process_batch diverged (batch {})", batch_size);
        prop_assert_eq!(&columns, &per_tuple, "process_batch_columns diverged (batch {})", batch_size);
    }
}

/// `batches[b][k]` tuples of key `k` (2–20) go into batch `b`, all inside
/// the batch's one tumbling window and interleaved across keys, so that
/// every key's tuples form one run of one slice. Through
/// `process_batch_columns` each run is one `fold_slice` call and one
/// kernel hit; the emissions equal `NaiveKeyedOperator`'s fed tuple by
/// tuple, watermark by watermark.
fn check_keyed_runs<A>(
    f: A,
    input: impl Fn(Time, i64) -> A::Input,
    batches: &[Vec<usize>],
) -> Result<(), TestCaseError>
where
    A: AggregateFunction,
    A::Output: std::fmt::Debug,
{
    const WIDTH: Time = 32;
    let windows = || -> Vec<Box<dyn WindowFunction>> { vec![Box::new(TumblingWindow::new(WIDTH))] };
    let mut shared = KeyedWindowOperator::new(f.clone(), windows(), KeyedConfig::default());
    prop_assert!(shared.is_shared());
    let mut naive = NaiveKeyedOperator::new(f, windows(), KeyedConfig::default());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let rows = |out: &mut Vec<WindowResult<(u64, A::Output)>>| {
        let mut rows: Vec<_> = out
            .drain(..)
            .map(|r| (r.value.0, r.range.start, format!("{:?}", r.value.1), r.is_update))
            .collect();
        rows.sort_unstable();
        rows
    };
    let last = batches.len() as Time * WIDTH;
    for (b, runs) in batches.iter().enumerate() {
        let base = b as Time * WIDTH;
        let (mut times, mut values) = (Vec::new(), Vec::new());
        for j in 0..20 {
            for (k, _) in runs.iter().enumerate().filter(|&(_, &len)| j < len) {
                let ts = base + j as Time;
                times.push(ts);
                values.push(((b + k) as u64 % 9, input(ts, (b * 7 + k * 3 + j) as i64 % 11 - 5)));
            }
        }
        shared.process_batch_columns(&times, &values, &mut got);
        for (&ts, v) in times.iter().zip(values) {
            naive.process(ts, v, &mut want);
        }
        // Fires the previous batch's window; the flush fires the last.
        let wm = if b + 1 == batches.len() { last } else { base + WIDTH - 1 };
        shared.on_watermark(wm, &mut got);
        naive.on_watermark(wm, &mut want);
        prop_assert_eq!(rows(&mut got), rows(&mut want), "batch {}", b);
    }
    let runs: usize = batches.iter().map(Vec::len).sum();
    let stats = shared.stats();
    prop_assert_eq!((stats.fold_kernel_hits, stats.fold_kernel_misses), (runs as u64, 0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-key runs of 2–20 tuples, below and above every lane width and
    /// M4's block threshold, for a column kernel (Sum) and two pair-input
    /// kernels (ArgMin, M4).
    #[test]
    fn keyed_runs_of_every_length_fold_through_the_kernel(
        batches in prop::collection::vec(prop::collection::vec(2usize..21, 1..8), 1..12),
    ) {
        check_keyed_runs(Sum, |_, v| v, &batches)?;
        check_keyed_runs(ArgMin, |ts, v| (v, ts), &batches)?;
        check_keyed_runs(M4, |ts, v| (ts, v), &batches)?;
    }
}

/// One call of a keyed stream cut into explicit batches.
enum Call {
    Batch(Vec<(Time, (u64, i64))>),
    Watermark(Time),
}

/// How [`drive_calls`] hands a batch over.
#[derive(Clone, Copy)]
enum Door {
    PerTuple,
    Pairs,
    Columns,
}

/// Drives `calls` through one entry point and returns everything emitted,
/// in emission order, tagged with the watermark segment.
fn drive_calls(agg: &mut KeyedWindowOperator<Sum>, calls: &[Call], door: Door) -> Emitted {
    let mut emitted = Emitted::new();
    let mut out = Vec::new();
    let mut segment = 0usize;
    for call in calls {
        match (call, door) {
            (Call::Batch(b), Door::PerTuple) => {
                b.iter().for_each(|(ts, value)| agg.process(*ts, *value, &mut out))
            }
            (Call::Batch(b), Door::Pairs) => agg.process_batch(b, &mut out),
            (Call::Batch(b), Door::Columns) => {
                let (times, values): (Vec<Time>, Vec<(u64, i64)>) = b.iter().copied().unzip();
                agg.process_batch_columns(&times, &values, &mut out);
            }
            (Call::Watermark(wm), _) => agg.on_watermark(*wm, &mut out),
        }
        record(&mut emitted, &mut out, segment);
        if matches!(call, Call::Watermark(_)) {
            segment += 1;
        }
    }
    emitted
}

/// The counters that do not depend on how a batch was grouped: what was
/// accepted, dropped, emitted, created and evicted.
fn grouping_free(s: KeyedStats) -> [u64; 7] {
    [
        s.tuples,
        s.ooo_tuples,
        s.dropped_late,
        s.windows_emitted,
        s.updates_emitted,
        s.keys_created,
        s.keys_evicted,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The run-length-1 shape. A stream is cut into explicit batches in
    /// which every key appears once (the ingest loop takes them in place);
    /// with `mixed`, every third batch draws its keys at random and so
    /// repeats some (grouped by the counting sort). Keys come in three
    /// cohorts that take turns, so under a TTL a cohort is evicted while
    /// silent and re-created when its turn comes again. Over {tumbling,
    /// sliding with ring spill} x {in-order, key-late inside the lateness,
    /// key-late beyond it} x {no TTL, TTL} x batch {2, 7, 4096}:
    ///
    /// * `process_batch` and `process_batch_columns` emit the same *whole*
    ///   sequence, not only the same sequence per key, with equal
    ///   [`KeyedStats`];
    /// * so does `process`, tuple by tuple, as long as no batch repeats a
    ///   key. (A batch that does is ingested key by key: updates of
    ///   different keys leave in group order, a key whose late second
    ///   tuple lowers its first due time is filed once instead of twice,
    ///   and a run counts as one fold. Then `process` agrees per key and
    ///   on every counter that grouping cannot move.)
    /// * all three match `RefKeyed`.
    #[test]
    fn keyed_singleton_batches_agree_on_whole_sequences(
        raw in prop::collection::vec((0u64..10_000, 0i64..1_000, -50i64..50), 200..900),
        slide in 2i64..20,
        panes in 3i64..6,
        sliding in 0usize..2,
        order in 0usize..3,
        with_ttl in 0usize..2,
        batch_i in 0usize..3,
        mixed in 0usize..2,
        wm_every in 5usize..60,
    ) {
        const KEYS: u64 = 64;
        const COHORT_LEN: Time = 150;
        let batch = [2usize, 7, 4096][batch_i];
        let (jitter, lag) = (if order == 0 { 0 } else { 40 }, 10);
        let lateness = if order == 2 { 5 } else { jitter + lag };
        let windows = || -> Vec<Box<dyn WindowFunction>> {
            if sliding == 1 {
                vec![Box::new(SlidingWindow::new(slide * panes, slide))]
            } else {
                vec![Box::new(TumblingWindow::new(slide * 3))]
            }
        };

        // Cut the stream: a watermark every `wm_every` tuples closes the
        // batch in progress, as a pipeline's chunk builder would.
        let (mut calls, mut elements) = (Vec::new(), KeyedElements::new());
        let (mut max_ts, mut repeats) = (TIME_MIN, false);
        let mut distinct = std::collections::BTreeSet::new();
        for (w, span) in raw.chunks(wm_every).enumerate() {
            for (b, chunk) in span.chunks(batch).enumerate() {
                let at = w * wm_every + b * batch;
                let random = mixed == 1 && (w + b) % 3 == 2;
                let tuples: Vec<(Time, (u64, i64))> = chunk
                    .iter()
                    .enumerate()
                    .map(|(j, &(pick, late, v))| {
                        let head = (at + j) as Time;
                        let cohort = (head / COHORT_LEN) as u64 % 3;
                        let member = (if random { pick } else { chunk[0].0 + j as u64 }) % KEYS;
                        (head - late % (jitter + 1), (cohort * KEYS + member, v))
                    })
                    .collect();
                let mut keys: Vec<u64> = tuples.iter().map(|t| t.1 .0).collect();
                keys.sort_unstable();
                keys.dedup();
                repeats |= keys.len() < tuples.len();
                distinct.extend(keys);
                for &(ts, value) in &tuples {
                    max_ts = max_ts.max(ts);
                    elements.push(StreamElement::Record { ts, value });
                }
                calls.push(Call::Batch(tuples));
            }
            calls.push(Call::Watermark(max_ts - lag));
            elements.push(StreamElement::Watermark(max_ts - lag));
        }
        calls.push(Call::Watermark(i64::MAX - 1));
        elements.push(StreamElement::Watermark(i64::MAX - 1));
        prop_assert!(mixed == 1 || !repeats, "a batch of distinct members repeated a key");

        let mut cfg = KeyedConfig::default().with_allowed_lateness(lateness);
        if with_ttl == 1 {
            // Longer than lateness + extent, so that eviction is exact;
            // shorter than a cohort's silence of two turns, so that its
            // keys are re-created when it returns.
            cfg = cfg.with_idle_ttl(COHORT_LEN + jitter + lag);
        }
        let run = |door: Door| {
            let mut op = KeyedWindowOperator::new(Sum, windows(), cfg);
            assert!(op.is_shared());
            let emitted = drive_calls(&mut op, &calls, door);
            (emitted, op.stats())
        };
        let (per_tuple, per_tuple_stats) = run(Door::PerTuple);
        let (pairs, pairs_stats) = run(Door::Pairs);
        let (columns, columns_stats) = run(Door::Columns);

        prop_assert_eq!(&columns, &pairs, "the batch entries emitted different sequences");
        prop_assert_eq!(columns_stats, pairs_stats);
        if repeats {
            prop_assert_eq!(per_key(per_tuple.clone()), per_key(pairs.clone()));
            prop_assert_eq!(grouping_free(per_tuple_stats), grouping_free(pairs_stats));
        } else {
            prop_assert_eq!(&per_tuple, &pairs, "process and process_batch emitted different sequences");
            prop_assert_eq!(per_tuple_stats, pairs_stats);
        }
        if with_ttl == 1 {
            prop_assert_eq!(pairs_stats.keys_evicted, pairs_stats.keys_created);
            let recreated = pairs_stats.keys_created as usize > distinct.len();
            prop_assert!(recreated || raw.len() < 4 * COHORT_LEN as usize, "no key was re-created");
        }
        let want = sorted(RefKeyed::new(windows(), lateness).run(&elements));
        prop_assert_eq!(&sorted(pairs), &want, "process_batch diverged from the reference");
        prop_assert_eq!(&sorted(per_tuple), &want, "process diverged from the reference");
    }
}
