//! Property tests for key-sharded multi-core execution:
//! `run_sharded_keyed` must agree with one single-threaded keyed
//! operator across window types, stream order, shard counts, batching
//! modes, and key skew.
//!
//! What "agree" means (see `crates/stream/src/sharded.rs`): the sharded
//! driver releases emissions in watermark epochs, each epoch
//! stable-sorted by key. Keys never interact inside keyed operators and
//! each key lives wholly in one shard, so applying the same per-epoch
//! canonicalization (stable key sort) to the single-threaded reference
//! must reproduce the sharded output *exactly* — order, values, and
//! update flags included, on every shard count and batching mode.

use general_stream_slicing::prelude::*;
use proptest::prelude::*;

type Row = (u64, Time, Time, i64, bool);

fn row(r: &WindowResult<(u64, i64)>) -> Row {
    (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update)
}

fn keyed_windows(kind: usize, a: i64, b: i64) -> Vec<Box<dyn WindowFunction>> {
    let a = a.max(1);
    let b = b.max(1);
    match kind {
        0 => vec![Box::new(TumblingWindow::new(a))],
        1 => vec![Box::new(SlidingWindow::new(a.max(b), b))],
        _ => vec![Box::new(TumblingWindow::new(a)), Box::new(SlidingWindow::new(a.max(b), b))],
    }
}

/// Keyed stream with monotone watermarks every `wm_every` records at
/// `max_ts - lag`, plus a final flush. `hot` concentrates half of all
/// records on key 0 (zipf-ish skew); otherwise keys spread uniformly.
fn make_elements(
    raw: &[(i64, i64)],
    keys: u64,
    hot: bool,
    wm_every: usize,
    lag: Time,
) -> Vec<StreamElement<(u64, i64)>> {
    let wm_every = wm_every.max(1);
    let mut elements = Vec::with_capacity(raw.len() + raw.len() / wm_every + 2);
    let mut max_ts = Time::MIN;
    for (i, &(ts, v)) in raw.iter().enumerate() {
        let key = if hot && i % 2 == 0 { 0 } else { (i as u64).wrapping_mul(31) % keys };
        elements.push(StreamElement::Record { ts, value: (key, v) });
        max_ts = max_ts.max(ts);
        if i % wm_every == wm_every - 1 {
            elements.push(StreamElement::Watermark(max_ts - lag));
        }
    }
    elements.push(StreamElement::Watermark(i64::MAX - 1));
    elements
}

/// Single-threaded reference: one keyed operator driven element by
/// element, emissions canonicalized per watermark epoch by a stable key
/// sort — exactly the order the sharded merge stage releases.
fn reference(
    elements: &[StreamElement<(u64, i64)>],
    mut op: Box<dyn WindowAggregator<PerKey<Sum>>>,
) -> Vec<Row> {
    let mut out: Vec<WindowResult<(u64, i64)>> = Vec::new();
    let mut epoch: Vec<Row> = Vec::new();
    let mut canon: Vec<Row> = Vec::new();
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => op.process(*ts, *value, &mut out),
            StreamElement::Watermark(wm) => op.on_watermark(*wm, &mut out),
            StreamElement::Punctuation(ts) => op.on_punctuation(*ts, &mut out),
        }
        epoch.extend(out.drain(..).map(|r| row(&r)));
        if matches!(e, StreamElement::Watermark(_)) {
            epoch.sort_by_key(|r| r.0);
            canon.append(&mut epoch);
        }
    }
    epoch.sort_by_key(|r| r.0);
    canon.append(&mut epoch);
    canon
}

fn sharded(
    elements: &[StreamElement<(u64, i64)>],
    cfg: PipelineConfig,
    make_op: impl Fn(usize) -> Box<dyn WindowAggregator<PerKey<Sum>>>,
) -> (usize, Vec<Row>) {
    let report = run_sharded_keyed(elements.iter().cloned(), cfg, make_op);
    (report.shards, report.results.iter().map(|(_, r)| row(r)).collect())
}

/// Runs the full grid — shards {1, 2, 4, 8} × batching {fixed_1,
/// fixed, adaptive} — against one reference sequence.
fn check_grid(
    elements: &[StreamElement<(u64, i64)>],
    batch: usize,
    make_op: &dyn Fn() -> Box<dyn WindowAggregator<PerKey<Sum>>>,
) -> Result<(), TestCaseError> {
    let want = reference(elements, make_op());
    for shards in [1usize, 2, 4, 8] {
        let cfgs = [
            ("fixed_1", PipelineConfig::with_parallelism(shards).with_batch_size(1)),
            ("fixed", PipelineConfig::with_parallelism(shards).with_batch_size(batch)),
            (
                "adaptive",
                PipelineConfig::with_parallelism(shards)
                    .adaptive(batch, std::time::Duration::from_millis(1)),
            ),
        ];
        for (mode, cfg) in cfgs {
            let (used, got) = sharded(elements, cfg, |_| make_op());
            prop_assert_eq!(used, shards, "report must record the shard count");
            prop_assert_eq!(
                &got,
                &want,
                "sharded emissions diverged (shards={}, mode={}, batch={})",
                shards,
                mode,
                batch
            );
        }
    }
    Ok(())
}

fn shared_factory(
    kind: usize,
    length: i64,
    slide: i64,
    lateness: Time,
) -> impl Fn() -> Box<dyn WindowAggregator<PerKey<Sum>>> {
    move || {
        Box::new(KeyedWindowOperator::new(
            Sum,
            keyed_windows(kind, length, slide),
            KeyedConfig::default().with_allowed_lateness(lateness),
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// In-order keyed streams over the shared keyed operator: tumbling,
    /// sliding, and multi-query windows; uniform and hot-key skew.
    #[test]
    fn sharded_matches_single_threaded_in_order(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..200),
        kind in 0usize..3,
        length in 1i64..60,
        slide in 1i64..40,
        keys in 1u64..40,
        hot_i in 0usize..2,
        batch in 1usize..80,
        wm_every in 1usize..40,
    ) {
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _)| ts);
        let elements = make_elements(&tuples, keys, hot_i == 1, wm_every, 50);
        let factory = shared_factory(kind, length, slide, 50);
        check_grid(&elements, batch, &factory)?;
    }

    /// Out-of-order keyed streams: random arrival order means stragglers
    /// (update emissions) and allowed-lateness drops inside every shard.
    #[test]
    fn sharded_matches_single_threaded_out_of_order(
        raw in prop::collection::vec((0i64..1_500, -50i64..50), 1..150),
        kind in 0usize..3,
        length in 2i64..50,
        slide in 1i64..30,
        keys in 1u64..30,
        hot_i in 0usize..2,
        lateness_i in 0usize..3,
        batch in 1usize..60,
        wm_every in 1usize..30,
    ) {
        let lateness = [0i64, 50, 400][lateness_i];
        let elements = make_elements(&raw, keys, hot_i == 1, wm_every, 20);
        let factory = shared_factory(kind, length, slide, lateness);
        check_grid(&elements, batch, &factory)?;
    }

    /// Session windows force the naive per-key fallback operator inside
    /// every shard; hash routing and the epoch barrier must not care
    /// which keyed implementation runs behind them.
    #[test]
    fn sharded_sessions_via_naive_fallback(
        raw in prop::collection::vec((0i64..1_000, -30i64..30), 1..100),
        gap in 1i64..40,
        keys in 1u64..20,
        hot_i in 0usize..2,
        batch in 1usize..50,
        wm_every in 1usize..25,
    ) {
        let mut tuples = raw;
        tuples.sort_by_key(|&(ts, _)| ts);
        let elements = make_elements(&tuples, keys, hot_i == 1, wm_every, 20);
        let factory = move || -> Box<dyn WindowAggregator<PerKey<Sum>>> {
            let windows: Vec<Box<dyn WindowFunction>> =
                vec![Box::new(SessionWindow::new(gap))];
            Box::new(NaiveKeyedOperator::new(
                Sum,
                windows,
                KeyedConfig::default().with_allowed_lateness(20),
            ))
        };
        check_grid(&elements, batch, &factory)?;
    }

    /// Every record of a key lands in the shard `shard_of` names, for
    /// any shard count — the routing invariant the equivalence rests on.
    #[test]
    fn shard_of_is_stable_and_total(key in 0u64..u64::MAX, shards in 1usize..64) {
        let s = shard_of(key, shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_of(key, shards), "routing must be deterministic");
    }
}
