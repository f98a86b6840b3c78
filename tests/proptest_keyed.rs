//! Property tests for keyed window aggregation: the shared-timeline
//! [`KeyedWindowOperator`] (and the [`NaiveKeyedOperator`] baseline)
//! must emit exactly the same result multiset as a reference map of
//! independent per-key [`WindowOperator`]s, across window types
//! (tumbling/sliding on the shared path, session on the fallback),
//! stream order, batch size, watermark placement (including stale,
//! repeated, and flush watermarks), and idle-key TTL eviction — including
//! rolling key cohorts that recycle key state under disorder — and the
//! three ingestion entries must agree on every key's output sequence.
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
