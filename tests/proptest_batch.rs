//! Property tests for the batched ingestion fast path: for every
//! technique, [`WindowAggregator::process_batch`] must produce the
//! *identical* result stream to per-tuple [`WindowAggregator::process`]
//! — same windows, same values, same order — across random batch sizes,
//! in-order and out-of-order inputs, lazy and eager stores, and
//! context-free, context-aware, and count-based queries.
//!
//! The second block pins the bulk-fold kernels against the lane-kernel
//! reassociation policy (`gss_aggregates::lanes`): integer and pair-input
//! `fold_slice` kernels must be *bit-identical* to `lift_all`, the
//! default lift/combine fold — empty runs, ties, and lengths around the
//! lane widths included — while the f64 moments kernel must
//! be deterministic across calls and ulp-bounded against the sequential
//! fold. The keyed pipeline must agree across per-tuple, fixed, and
//! adaptive batching modes. Under `--features audit` these drives also
//! exercise the struct-of-arrays chunk invariants (column length
//! agreement, run monotonicity) asserted inside the library.

use std::collections::BTreeMap;
use std::time::Duration;

use general_stream_slicing::prelude::*;
use proptest::prelude::*;

type Emitted = Vec<(QueryId, Time, Time, i64)>;
/// `(name, per-tuple instance, batched instance)` for one technique.
type TechniquePair = (&'static str, Box<dyn WindowAggregator<Sum>>, Box<dyn WindowAggregator<Sum>>);

fn sorted(tuples: &[(Time, i64)]) -> Vec<(Time, i64)> {
    let mut s: Vec<(usize, (Time, i64))> = tuples.iter().copied().enumerate().collect();
    s.sort_by_key(|(i, (t, _))| (*t, *i));
    s.into_iter().map(|(_, t)| t).collect()
}

fn drive_per_tuple(
    agg: &mut dyn WindowAggregator<Sum>,
    elements: &[StreamElement<i64>],
) -> Emitted {
    let mut out = Vec::new();
    let mut emitted = Emitted::new();
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => agg.process(*ts, *value, &mut out),
            StreamElement::Watermark(wm) => agg.on_watermark(*wm, &mut out),
            _ => {}
        }
        emitted.extend(out.drain(..).map(|r| (r.query, r.range.start, r.range.end, r.value)));
    }
    emitted
}

/// Feeds records in chunks of `batch_size` through `process_batch`,
/// flushing the pending chunk before each watermark (like the pipeline
/// source does) so watermark placement relative to records is preserved.
fn drive_batched(
    agg: &mut dyn WindowAggregator<Sum>,
    elements: &[StreamElement<i64>],
    batch_size: usize,
) -> Emitted {
    let batch_size = batch_size.max(1);
    let mut out = Vec::new();
    let mut emitted = Emitted::new();
    let mut buf: Vec<(Time, i64)> = Vec::new();
    let flush = |buf: &mut Vec<(Time, i64)>,
                 agg: &mut dyn WindowAggregator<Sum>,
                 out: &mut Vec<WindowResult<i64>>| {
        if !buf.is_empty() {
            agg.process_batch(buf, out);
            buf.clear();
        }
    };
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => {
                buf.push((*ts, *value));
                if buf.len() >= batch_size {
                    flush(&mut buf, agg, &mut out);
                }
            }
            StreamElement::Watermark(wm) => {
                flush(&mut buf, agg, &mut out);
                agg.on_watermark(*wm, &mut out);
            }
            _ => {}
        }
        emitted.extend(out.drain(..).map(|r| (r.query, r.range.start, r.range.end, r.value)));
    }
    flush(&mut buf, agg, &mut out);
    emitted.extend(out.drain(..).map(|r| (r.query, r.range.start, r.range.end, r.value)));
    emitted
}

/// One factory per technique, so per-tuple and batched drivers each get a
/// fresh, identically configured aggregator.
fn techniques(
    queries: &[Box<dyn Fn() -> Box<dyn WindowFunction>>],
    order: StreamOrder,
    lateness: Time,
) -> Vec<TechniquePair> {
    let slicing = |policy: StorePolicy| {
        let mut op = WindowOperator::new(
            Sum,
            OperatorConfig {
                order,
                policy,
                allowed_lateness: lateness,
                ..OperatorConfig::default()
            },
        );
        for q in queries {
            op.add_query(q()).unwrap();
        }
        Box::new(op) as Box<dyn WindowAggregator<Sum>>
    };
    let buckets = |mode: BucketMode| {
        let mut b = Buckets::new(Sum, mode, order, lateness);
        for q in queries {
            b.add_query(q());
        }
        Box::new(b) as Box<dyn WindowAggregator<Sum>>
    };
    let tuple_buffer = || {
        let mut t = TupleBuffer::new(Sum, order, lateness);
        for q in queries {
            t.add_query(q());
        }
        Box::new(t) as Box<dyn WindowAggregator<Sum>>
    };
    let tree = || {
        let mut t = AggregateTree::new(Sum, order, lateness);
        for q in queries {
            t.add_query(q());
        }
        Box::new(t) as Box<dyn WindowAggregator<Sum>>
    };
    vec![
        ("lazy", slicing(StorePolicy::Lazy), slicing(StorePolicy::Lazy)),
        ("eager", slicing(StorePolicy::Eager), slicing(StorePolicy::Eager)),
        ("buckets", buckets(BucketMode::Aggregate), buckets(BucketMode::Aggregate)),
        ("tuple-buckets", buckets(BucketMode::Tuple), buckets(BucketMode::Tuple)),
        ("tuple-buffer", tuple_buffer(), tuple_buffer()),
        ("aggregate-tree", tree(), tree()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// In-order, context-free time windows (the fast path's home turf):
    /// the batched result stream is byte-identical to per-tuple.
    #[test]
    fn batch_matches_per_tuple_in_order(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..200),
        length in 1i64..50,
        slide in 1i64..50,
        batch_size in 1usize..70,
    ) {
        let tuples = sorted(&raw);
        let elements: Vec<StreamElement<i64>> =
            tuples.iter().map(|&(ts, value)| StreamElement::Record { ts, value }).collect();
        let queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = vec![
            Box::new(move || Box::new(TumblingWindow::new(length))),
            Box::new(move || Box::new(SlidingWindow::new(length.max(slide), slide))),
        ];
        for (name, mut per_tuple, mut batched) in
            techniques(&queries, StreamOrder::InOrder, 0)
        {
            let a = drive_per_tuple(per_tuple.as_mut(), &elements);
            let b = drive_batched(batched.as_mut(), &elements, batch_size);
            prop_assert_eq!(a, b, "{} diverged at batch size {}", name, batch_size);
        }
    }

    /// Context-aware (session) and count-based queries in the mix: the
    /// fast paths must detect ineligibility and fall back without
    /// changing a single emission.
    #[test]
    fn batch_matches_per_tuple_with_session_and_count(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..150),
        gap in 1i64..60,
        count_len in 1u64..20,
        batch_size in 1usize..70,
    ) {
        let tuples = sorted(&raw);
        let elements: Vec<StreamElement<i64>> =
            tuples.iter().map(|&(ts, value)| StreamElement::Record { ts, value }).collect();
        let queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = vec![
            Box::new(move || Box::new(SessionWindow::new(gap))),
            Box::new(move || Box::new(CountTumblingWindow::new(count_len))),
        ];
        for (name, mut per_tuple, mut batched) in
            techniques(&queries, StreamOrder::InOrder, 0)
        {
            let a = drive_per_tuple(per_tuple.as_mut(), &elements);
            let b = drive_batched(batched.as_mut(), &elements, batch_size);
            prop_assert_eq!(a, b, "{} diverged at batch size {}", name, batch_size);
        }
    }

    /// Out-of-order arrivals with watermarks: batches contain unsorted
    /// records, so runs break at every inversion; results must still be
    /// identical, including late-tuple window updates.
    #[test]
    fn batch_matches_per_tuple_out_of_order(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..150),
        length in 2i64..50,
        fraction in 0u8..60,
        batch_size in 1usize..70,
    ) {
        let tuples = sorted(&raw);
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: fraction, max_delay: 100, ..Default::default() },
        );
        let elements = with_watermarks(&arrivals, 50, 100);
        let queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = vec![
            Box::new(move || Box::new(TumblingWindow::new(length))),
        ];
        for (name, mut per_tuple, mut batched) in
            techniques(&queries, StreamOrder::OutOfOrder, 10_000)
        {
            let a = drive_per_tuple(per_tuple.as_mut(), &elements);
            let b = drive_batched(batched.as_mut(), &elements, batch_size);
            prop_assert_eq!(a, b, "{} diverged at batch size {}", name, batch_size);
        }
    }

    /// The PR 2 out-of-order grid (paper Figure 11 setup): allowed
    /// lateness {0, 50, 500} × disorder {0%, 5%, 10%, 15%, 20%, 50%} ×
    /// batch sizes {1, 64, 512, 4096}, lazy and eager stores. The batch
    /// loop — stretches committed from the columns,
    /// late tuples deferred and written slice by slice, the rest of a
    /// batch partitioned once more than an eighth of it was late (10 %
    /// and 15 % lie on either side) — must emit a bit-identical result
    /// stream to the per-tuple path, including allowed-lateness drops.
    #[test]
    fn ooo_grid_batched_matches_per_tuple(
        raw in prop::collection::vec((0i64..3_000, -50i64..50), 1..250),
        lateness_i in 0usize..3,
        disorder_i in 0usize..6,
        batch_i in 0usize..4,
        length in 2i64..60,
        slide in 1i64..30,
        seed in 0u64..1_000,
    ) {
        let lateness = [0i64, 50, 500][lateness_i];
        let fraction = [0u8, 5, 10, 15, 20, 50][disorder_i];
        let batch_size = [1usize, 64, 512, 4096][batch_i];
        let tuples = sorted(&raw);
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: fraction, max_delay: 200, seed, ..Default::default() },
        );
        let elements = with_watermarks(&arrivals, 40, 80);
        let queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = vec![
            Box::new(move || Box::new(TumblingWindow::new(length))),
            Box::new(move || Box::new(SlidingWindow::new(length.max(slide), slide))),
        ];
        for (name, mut per_tuple, mut batched) in
            techniques(&queries, StreamOrder::OutOfOrder, lateness)
        {
            let a = drive_per_tuple(per_tuple.as_mut(), &elements);
            let b = drive_batched(batched.as_mut(), &elements, batch_size);
            prop_assert_eq!(
                a, b,
                "{} diverged: lateness {} disorder {}% batch {}",
                name, lateness, fraction, batch_size
            );
        }
    }

    /// Out-of-order sessions: late tuples split gap slices, so batched
    /// late runs straddle slice splits and the grouping path must fall
    /// back per-tuple for context-aware workloads without changing any
    /// emission or merge/split decision.
    #[test]
    fn ooo_sessions_batched_matches_per_tuple(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..150),
        gap in 5i64..80,
        lateness_i in 0usize..3,
        batch_i in 0usize..3,
        fraction in 5u8..50,
        seed in 0u64..1_000,
    ) {
        let lateness = [0i64, 50, 500][lateness_i];
        let batch_size = [1usize, 64, 512][batch_i];
        let tuples = sorted(&raw);
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: fraction, max_delay: 150, seed, ..Default::default() },
        );
        let elements = with_watermarks(&arrivals, 40, 80);
        let queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = vec![
            Box::new(move || Box::new(SessionWindow::new(gap))),
        ];
        for (name, mut per_tuple, mut batched) in
            techniques(&queries, StreamOrder::OutOfOrder, lateness)
        {
            let a = drive_per_tuple(per_tuple.as_mut(), &elements);
            let b = drive_batched(batched.as_mut(), &elements, batch_size);
            prop_assert_eq!(
                a, b,
                "{} diverged: gap {} lateness {} batch {}",
                name, gap, lateness, batch_size
            );
        }
    }

    /// Long-lateness regime: allowed lateness (100_000 ticks) is four to
    /// five orders of magnitude above the slice width (slide 1..4 over a
    /// ~6_000 tick span anchored at both ends), so *nothing* is ever
    /// evicted and the whole timeline stays live — thousands of slices.
    /// Windows span up to 79 slices, past the store's `INDEX_SCAN_CUTOFF`
    /// (32): a long window the eager store answers on its own (a late
    /// update, or a sweep too small to scan) reads its FlatFAT, into
    /// which deep out-of-order arrivals (delays up to 3_000 ticks) are
    /// written through. The eager store must emit the lazy store's
    /// result stream bit for bit, on both the per-tuple and the batched
    /// drivers.
    #[test]
    fn long_lateness_stores_bit_identical(
        raw in prop::collection::vec((0i64..6_000, -50i64..50), 40..160),
        slide in 1i64..4,
        win_mult in 2i64..80,
        batch_i in 0usize..3,
        fraction in 10u8..60,
        seed in 0u64..1_000,
    ) {
        const LATENESS: Time = 100_000;
        let batch_size = [1usize, 64, 512][batch_i];
        let mut raw = raw;
        // Anchor the span so the live-slice count is span/slide >= 1_500
        // regardless of what the generator drew.
        raw.push((0, 1));
        raw.push((5_999, 1));
        let tuples = sorted(&raw);
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: fraction, max_delay: 3_000, seed, ..Default::default() },
        );
        let elements = with_watermarks(&arrivals, 40, 80);
        let length = slide * win_mult;
        let queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = vec![
            Box::new(move || Box::new(SlidingWindow::new(length, slide))),
        ];
        let stores = [StorePolicy::Lazy, StorePolicy::Eager];
        let drive = |policy: StorePolicy, batched: bool| {
            let mut op = WindowOperator::new(
                Sum,
                OperatorConfig {
                    order: StreamOrder::OutOfOrder,
                    policy,
                    allowed_lateness: LATENESS,
                    ..OperatorConfig::default()
                },
            );
            for q in &queries {
                op.add_query(q()).unwrap();
            }
            if batched {
                drive_batched(&mut op, &elements, batch_size)
            } else {
                drive_per_tuple(&mut op, &elements)
            }
        };
        let reference = drive(StorePolicy::Lazy, false);
        for policy in stores {
            for batched in [false, true] {
                prop_assert_eq!(
                    &drive(policy, batched), &reference,
                    "{:?} (batched={}) diverged: slide {} length {} batch {}",
                    policy, batched, slide, length, batch_size
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Late batches bucketed by slice against per-tuple processing.

/// SplitMix64: the stream below wants a few cheap draws per tuple.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Tuples between two watermarks of [`check_late_batches`].
const SEGMENT: usize = 700;

/// An arrival sequence shaped like a reconnect after an outage: an
/// in-order head starting at `START`, one head tuple in `late_every` a
/// straggler up to `max_delay` late — early ones land *before* the first
/// slice, so gap slices are inserted in front of buckets the same batch
/// already resolved — and, once two watermarks trailing the head by `lag`
/// have passed, a sorted burst of `burst` tuples replaying an older
/// stretch. The burst starts 20 below the watermark, so its first tuples
/// revise emitted windows, its timestamps tie in pairs and each of its
/// tuples carries a value of its own. Right behind its first tuple above
/// the watermark come one at the watermark and one below it: they end
/// that tuple's late stretch inside its slice.
fn outage_stream(
    seed: u64,
    late_every: u64,
    max_delay: u64,
    burst: usize,
    lag: Time,
) -> Vec<(Time, i64)> {
    const START: Time = 10_000;
    const HEAD: usize = 2 * SEGMENT + 300;
    let mut r = Mix(seed);
    let mut out: Vec<(Time, i64)> = Vec::with_capacity(HEAD + burst + 2);
    for j in 0..HEAD {
        let head = START + 2 * j as Time;
        if j == 2 * SEGMENT + 100 {
            let passed = out.len() / SEGMENT * SEGMENT;
            let wm = out[..passed].iter().map(|t| t.0).max().unwrap_or(START) - lag;
            let from = wm - 20;
            let step = |k: usize| (k / 2) as Time * 1_400 / burst.max(1) as Time;
            let mut replay: Vec<(Time, i64)> =
                (0..burst).map(|k| (from + step(k), 1_000 + k as i64)).collect();
            if let Some(at) = replay.iter().position(|t| t.0 > wm) {
                replay.splice(at + 1..at + 1, [(wm, 999), (wm - 1, 998)]);
            }
            out.extend(replay);
        }
        let late = if r.below(late_every) == 0 { 1 + r.below(max_delay) as Time } else { 0 };
        out.push((head - late, r.below(100) as i64 - 50));
    }
    out
}

/// A stream whose late share changes inside a batch: of every 700 tuples
/// (the stretch between two watermarks of [`check_late_batches`]) one
/// half is sorted and in the other every second tuple is up to
/// `max_delay` late; `late_first` says which half comes first.
fn half_late_stream(seed: u64, max_delay: u64, late_first: bool) -> Vec<(Time, i64)> {
    const START: Time = 10_000;
    let mut r = Mix(seed);
    (0..1_800)
        .map(|j| {
            let in_late_half = (j % 700 < 350) == late_first;
            let late =
                if in_late_half && r.below(2) == 0 { 1 + r.below(max_delay) as Time } else { 0 };
            (START + 2 * j as Time - late, r.below(100) as i64 - 50)
        })
        .collect()
}

/// Batched = per-tuple for one function over both stores: the same
/// emission sequence, the same slices left behind, and every window's
/// last emission equal to a fold of its tuples in event-time order (ties
/// in arrival order) — what the paper's semantics say it is. Watermarks
/// trail by `lag`, which is also the allowed lateness: a tuple at or
/// below the watermark revises the windows it is in, and none is
/// dropped. A `batch_size` of 4096 makes each 700-tuple stretch between
/// two watermarks one batch. `force_tuple_storage` keeps the tuples of a
/// commutative function, whose late writes then merge into stored tuples.
fn check_late_batches<A>(
    f: A,
    input: impl Fn(i64, usize) -> A::Input,
    stream: &[(Time, i64)],
    lengths: &[Time],
    batch_size: usize,
    lag: Time,
    force_tuple_storage: bool,
) -> Result<(), TestCaseError>
where
    A: AggregateFunction + Clone,
    A::Output: PartialEq + std::fmt::Debug + Clone,
    A::Partial: PartialEq + std::fmt::Debug,
{
    type Row<O> = (QueryId, Time, Time, O, bool);
    let tuples: Vec<(Time, A::Input)> =
        stream.iter().enumerate().map(|(i, &(t, v))| (t, input(v, i))).collect();
    let drive = |policy: StorePolicy, batch_size: usize| {
        let cfg = OperatorConfig {
            order: StreamOrder::OutOfOrder,
            policy,
            allowed_lateness: lag,
            force_tuple_storage,
            ..OperatorConfig::default()
        };
        let mut op = WindowOperator::new(f.clone(), cfg);
        for &l in lengths {
            op.add_query(Box::new(TumblingWindow::new(l))).unwrap();
        }
        let mut out = Vec::new();
        let mut head = Time::MIN;
        // A watermark every 700 tuples whatever the batch size (it cuts
        // the batch, as in the pipeline), so every drive sweeps the same
        // windows at the same points.
        for segment in tuples.chunks(SEGMENT) {
            for chunk in segment.chunks(batch_size) {
                if batch_size == 1 {
                    op.process_tuple(chunk[0].0, chunk[0].1.clone(), &mut out);
                } else {
                    op.process_batch_tuples(chunk, &mut out);
                }
            }
            head = head.max(segment.iter().map(|t| t.0).max().unwrap_or(head));
            op.process_watermark(head - lag, &mut out);
        }
        let slices: Vec<_> = op
            .store()
            .slices()
            .map(|s| (s.range(), s.len(), s.aggregate().cloned(), s.tuples().map(<[_]>::len)))
            .collect();
        op.process_watermark(Time::MAX - 1, &mut out);
        let rows: Vec<Row<A::Output>> = out
            .iter()
            .map(|r| (r.query, r.range.start, r.range.end, r.value.clone(), r.is_update))
            .collect();
        (rows, slices, *op.stats())
    };
    let (want, want_slices, want_stats) = drive(StorePolicy::Lazy, 1);
    prop_assert_eq!(want_stats.dropped_late, 0);
    let mut sorted: Vec<&(Time, A::Input)> = tuples.iter().collect();
    sorted.sort_by_key(|t| t.0);
    let last: BTreeMap<(QueryId, Time, Time), &A::Output> =
        want.iter().map(|(q, start, end, value, _)| ((*q, *start, *end), value)).collect();
    for (&(_, start, end), &value) in &last {
        let fold = sorted
            .iter()
            .filter(|t| (start..end).contains(&t.0))
            .fold(None, |acc, t| f.combine_opt(acc, Some(&f.lift(&t.1))));
        let folded = fold.map(|p| f.lower(&p));
        prop_assert_eq!(folded.as_ref(), Some(value), "[{}, {})", start, end);
    }
    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        for size in [1, batch_size] {
            let (rows, slices, stats) = drive(policy, size);
            prop_assert_eq!(&rows, &want, "{:?} batch {}: results", policy, size);
            prop_assert_eq!(&slices, &want_slices, "{:?} batch {}: slices", policy, size);
            prop_assert_eq!(stats.ooo_tuples, want_stats.ooo_tuples);
            prop_assert_eq!(stats.slices_created, want_stats.slices_created);
            prop_assert_eq!(stats.late_slices > 0, size > 1 && stats.ooo_tuples > 0);
        }
    }
    Ok(())
}

/// The watermark's lag behind the head of [`check_late_batches`]'s
/// streams, and their allowed lateness: behind the deepest straggler, so
/// only the outage burst reaches below the watermark.
const LAG: Time = 1_500 + 1_200 + 16;

/// A cold start: a few in-order tuples, then a sorted burst before the
/// first slice with stragglers before it and among it — each of them a
/// gap slice in front of every slice the batch's slice map was taken
/// over, the map's worst case — then an in-order head with one tuple in
/// seven a straggler up to `max_delay` late.
fn cold_start_stream(seed: u64, max_delay: u64) -> Vec<(Time, i64)> {
    const START: Time = 100_000;
    let mut r = Mix(seed);
    let value = |r: &mut Mix| r.below(100) as i64 - 50;
    let mut out: Vec<(Time, i64)> = (0..8).map(|j| (START + 2 * j, value(&mut r))).collect();
    for k in 0..400 {
        out.push((START - 800 + 2 * k, value(&mut r)));
        if r.below(4) == 0 {
            out.push((START - 1 - r.below(1_200) as Time, value(&mut r)));
        }
    }
    for j in 8..10_000 {
        let late = if r.below(7) == 0 { 1 + r.below(max_delay) as Time } else { 0 };
        out.push((START + 2 * j - late, value(&mut r)));
    }
    out
}

/// [`cold_start_stream`] in batches of 4 096, a watermark trailing the
/// head by `lag` after each, against per-tuple processing, on both
/// stores and through both entries (pairs and columns): the same results
/// and slices, the same slices created; and the two entries write the
/// same late runs through the same kernels on either store (per-tuple
/// processing writes no late runs, so its `late_slices` reads 0). The
/// lag keeps more than 1 000 slices live and every straggler above the
/// watermark.
fn check_cold_start<A>(f: A, stream: &[(Time, i64)], lengths: &[Time], lag: Time)
where
    A: AggregateFunction<Input = i64> + Clone,
    A::Output: PartialEq + std::fmt::Debug + Clone,
    A::Partial: PartialEq + std::fmt::Debug,
{
    const BATCH: usize = 4_096;
    let drive = |policy: StorePolicy, batch: Option<bool>| {
        let cfg = OperatorConfig::out_of_order(lag).with_policy(policy);
        let mut op = WindowOperator::new(f.clone(), cfg);
        for &l in lengths {
            op.add_query(Box::new(TumblingWindow::new(l))).unwrap();
        }
        let mut out = Vec::new();
        let mut head = Time::MIN;
        let mut live_peak = 0;
        for chunk in stream.chunks(BATCH) {
            match batch {
                None => chunk.iter().for_each(|&(ts, v)| op.process_tuple(ts, v, &mut out)),
                Some(false) => op.process_batch_tuples(chunk, &mut out),
                Some(true) => {
                    let (times, values): (Vec<Time>, Vec<i64>) = chunk.iter().copied().unzip();
                    op.process_batch_columns(&times, &values, &mut out);
                }
            }
            live_peak = live_peak.max(op.slice_count());
            head = head.max(chunk.iter().map(|t| t.0).max().unwrap_or(head));
            op.process_watermark(head - lag, &mut out);
        }
        let slices: Vec<_> =
            op.store().slices().map(|s| (s.range(), s.len(), s.aggregate().cloned())).collect();
        op.process_watermark(Time::MAX - 1, &mut out);
        let rows: Vec<_> = out
            .iter()
            .map(|r| (r.query, r.range.start, r.range.end, r.value.clone(), r.is_update))
            .collect();
        (rows, slices, *op.stats(), live_peak)
    };
    let (want, want_slices, want_stats, live_peak) = drive(StorePolicy::Lazy, None);
    assert!(live_peak > 1_000, "{live_peak} live slices at most");
    assert_eq!(want_stats.dropped_late, 0);
    let mut batch_stats = None;
    for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
        let runs = [drive(policy, None), drive(policy, Some(false)), drive(policy, Some(true))];
        for (entry, (rows, slices, stats, _)) in ["per tuple", "pairs", "columns"].iter().zip(&runs)
        {
            assert_eq!(rows, &want, "{policy:?} {entry}: results");
            assert_eq!(slices, &want_slices, "{policy:?} {entry}: slices");
            assert_eq!(
                (stats.tuples, stats.ooo_tuples, stats.slices_created),
                (want_stats.tuples, want_stats.ooo_tuples, want_stats.slices_created),
                "{policy:?} {entry}"
            );
        }
        let ((_, _, pairs, _), (_, _, columns, _)) = (&runs[1], &runs[2]);
        assert_eq!(pairs, columns, "{policy:?}: pair and column stats");
        assert!(columns.late_slices > 0, "{policy:?}: nothing deferred");
        assert_eq!(batch_stats.get_or_insert(*columns), columns, "{policy:?}: stats across stores");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// [`check_cold_start`] under a kernel fold with tuples dropped
    /// (`Sum`) and the sorted-run write of a tuple-keeping
    /// non-commutative fold (`Concat`): one tumbling query of width 1 or
    /// 2, or two, whose slices are unevenly long.
    #[test]
    fn a_cold_start_with_gap_slices_and_scattered_stragglers_matches_per_tuple(
        seed in 0u64..100_000,
        length in 1i64..3,
        second in 0i64..6,
        max_delay in 50u64..2_500,
    ) {
        use general_stream_slicing::core::testsupport::Concat;
        let stream = cold_start_stream(seed, max_delay);
        let lengths: Vec<Time> = if second > length { vec![length, second] } else { vec![length] };
        check_cold_start(Sum, &stream, &lengths, 3_000);
        check_cold_start(Concat, &stream, &lengths, 3_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The slice-bucketed late batch: batches of 7, 64, 512 and 4096
    /// tuples whose late tuples touch a handful to several hundred slices
    /// (one or two tumbling queries of width 1–6, so hulls reach 350+
    /// slices and, with two queries, slices are unevenly long), a sorted
    /// burst that starts below the watermark amid scattered stragglers —
    /// one tuple in 2 to one in 32, on
    /// both sides of the share at which the batch loop partitions — or a
    /// late share that changes inside a batch (`shape` 1 and 2), gap
    /// slices created mid-batch, under a kernel fold (Sum, with its
    /// tuples dropped and, forced, kept), the pair-input kernels (ArgMin,
    /// M4) and a tuple-keeping non-commutative fold (Concat).
    #[test]
    fn late_batches_bucketed_by_slice_match_per_tuple(
        seed in 0u64..100_000,
        length in 1i64..7,
        second in 0i64..8,
        batch_i in 0usize..4,
        late_every in 2u64..33,
        max_delay in 20u64..1_500,
        burst in 0usize..500,
        shape in 0usize..4,
    ) {
        use general_stream_slicing::core::testsupport::Concat;
        let batch_size = [7usize, 64, 512, 4096][batch_i];
        let stream = match shape {
            1 => half_late_stream(seed, max_delay, false),
            2 => half_late_stream(seed, max_delay, true),
            _ => outage_stream(seed, late_every, max_delay, burst, LAG),
        };
        let lengths: Vec<Time> = if second > length { vec![length, second] } else { vec![length] };
        let (s, l, b, lag) = (&stream, &lengths, batch_size, LAG);
        check_late_batches(Sum, |v, _| v, s, l, b, lag, false)?;
        check_late_batches(Sum, |v, _| v, s, l, b, lag, true)?;
        check_late_batches(ArgMin, |v, i| (v, i as i64 % 13), s, l, b, lag, false)?;
        // Embedded timestamps are distinct, so M4's first/last cannot tie
        // and any fold order gives the same partial.
        check_late_batches(M4, |v, i| (i as Time, v), s, l, b, lag, false)?;
        check_late_batches(Concat, |v, _| v, s, l, b, lag, false)?;
    }

    /// The pair entry point is an adapter over the column one: on every
    /// store the two give the same emission sequence, leave the same
    /// slices behind and count the same — `fold_kernel_hits` / `misses`
    /// included, so the same runs went through the same kernels. Lateness
    /// 50 under watermarks trailing by 80 and delays up to 200 makes some
    /// late tuples revise emitted windows and drops others.
    #[test]
    fn pair_adapter_matches_column_entry_point(
        raw in prop::collection::vec((0i64..3_000, -50i64..50), 1..400),
        disorder_i in 0usize..6,
        batch_i in 0usize..4,
        length in 2i64..60,
        slide in 1i64..30,
        seed in 0u64..1_000,
    ) {
        let fraction = [0u8, 5, 10, 15, 20, 50][disorder_i];
        let batch_size = [2usize, 64, 512, 4096][batch_i];
        let arrivals = make_out_of_order(
            &sorted(&raw),
            OooConfig { fraction_percent: fraction, max_delay: 200, seed, ..Default::default() },
        );
        let elements = with_watermarks(&arrivals, 40, 80);
        let drive = |policy: StorePolicy, columns: bool| {
            let cfg = OperatorConfig::out_of_order(50).with_policy(policy);
            let mut op = WindowOperator::new(Sum, cfg);
            op.add_query(Box::new(TumblingWindow::new(length))).unwrap();
            op.add_query(Box::new(SlidingWindow::new(length.max(slide), slide))).unwrap();
            let mut out = Vec::new();
            let mut batch: Vec<(Time, i64)> = Vec::new();
            // Watermarks cut the batch, as in the pipeline.
            for (i, e) in elements.iter().enumerate() {
                if let StreamElement::Record { ts, value } = e {
                    batch.push((*ts, *value));
                }
                let cut = !e.is_record() || i + 1 == elements.len();
                if batch.len() == batch_size || (cut && !batch.is_empty()) {
                    if columns {
                        let (times, values): (Vec<Time>, Vec<i64>) = batch.iter().copied().unzip();
                        op.process_batch_columns(&times, &values, &mut out);
                    } else {
                        op.process_batch_tuples(&batch, &mut out);
                    }
                    batch.clear();
                }
                if let StreamElement::Watermark(wm) = e {
                    // The closing flush watermark would empty the store.
                    if *wm < Time::MAX - 1 {
                        op.process_watermark(*wm, &mut out);
                    }
                }
            }
            let slices: Vec<_> = op
                .store()
                .slices()
                .map(|s| (s.range(), s.len(), s.aggregate().copied()))
                .collect();
            (out.iter().map(sweep_row).collect::<Vec<_>>(), slices, *op.stats())
        };
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
            let (pairs, columns) = (drive(policy, false), drive(policy, true));
            prop_assert_eq!(&pairs.0, &columns.0, "{:?}: emission sequence", policy);
            prop_assert_eq!(&pairs.1, &columns.1, "{:?}: slices", policy);
            prop_assert_eq!(pairs.2, columns.2, "{:?}: stats", policy);
            prop_assert_eq!(pairs.2.tuples, arrivals.len() as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Shared-scan emission against per-window emission.

/// One emitted result, everything observable about it.
type SweepRow = (QueryId, Measure, Time, Time, i64, bool);

fn sweep_row(r: &WindowResult<i64>) -> SweepRow {
    (r.query, r.measure, r.range.start, r.range.end, r.value, r.is_update)
}

/// Under `--features audit`: holds the final time-measure results one
/// watermark produced against `store`, the operator's store as it stood
/// (repaired) before that watermark. Every third window is resolved to
/// slice indices from the slice list alone and must equal
/// `query_slice_range(l, r)`, as must the shared scan's answer for the
/// sampled set as a whole.
#[cfg(feature = "audit")]
fn audit_sweep_against_slice_ranges(
    store: &general_stream_slicing::core::SliceStore<Sum>,
    results: &[WindowResult<i64>],
) {
    let sampled: Vec<(i64, Range)> = results
        .iter()
        .filter(|r| r.measure == Measure::Time && !r.is_update)
        .step_by(3)
        .map(|r| (r.value, r.range))
        .collect();
    let by_index = |range: Range| {
        let l = store.slices().take_while(|s| s.end() <= range.start).count();
        let r = store.slices().take_while(|s| s.start() < range.end).count();
        store.query_slice_range(l, r)
    };
    for &(value, range) in &sampled {
        assert_eq!(by_index(range), Some(value), "emitted {range} is not its slice range");
    }
    let mut scanned = 0;
    let runs: Vec<(i64, WindowRun)> =
        sampled.iter().map(|&(v, r)| (v, WindowRun::one(r))).collect();
    store.shared_scan(&runs, |&value, range, p| {
        assert_eq!((Some(p), p), (by_index(range), value), "scan answer for {range}");
        scanned += 1;
    });
    assert_eq!(scanned, sampled.len());
}

/// Feeds `elements` in chunks of `batch_size`, flushing before each
/// watermark, and returns the full emission sequence.
fn drive_sweeps(
    op: &mut WindowOperator<Sum>,
    elements: &[StreamElement<i64>],
    batch_size: usize,
) -> Vec<SweepRow> {
    let mut out = Vec::new();
    let mut buf: Vec<(Time, i64)> = Vec::new();
    for e in elements {
        match e {
            StreamElement::Record { ts, value } => {
                buf.push((*ts, *value));
                if buf.len() >= batch_size {
                    op.process_batch_tuples(&buf, &mut out);
                    buf.clear();
                }
            }
            StreamElement::Watermark(wm) => {
                op.process_batch_tuples(&buf, &mut out);
                buf.clear();
                #[cfg(feature = "audit")]
                let (before, emitted) = {
                    let mut store = op.store().clone();
                    store.flush_eager_repairs();
                    (store, out.len())
                };
                op.process_watermark(*wm, &mut out);
                #[cfg(feature = "audit")]
                audit_sweep_against_slice_ranges(&before, &out[emitted..]);
            }
            _ => {}
        }
    }
    op.process_batch_tuples(&buf, &mut out);
    out.iter().map(sweep_row).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Window mixes × store policy × in-order / out-of-order with late
    /// updates × watermark stride: the operator's emission *sequence* —
    /// values, ranges, query ids, final/update flags, order — is the one
    /// an operator with the shared scan switched off produces, and its
    /// final windows are the tuple buffer's (the brute-force technique
    /// `cross_technique.rs` holds everything against).
    #[test]
    fn shared_scan_emission_sequence_matches_per_window(
        raw in prop::collection::vec((0i64..3_000, -50i64..50), 20..200),
        mix in 0usize..4,
        policy_i in 0usize..2,
        in_order_i in 0usize..2,
        slide in 1i64..12,
        sliding_queries in 2i64..9,
        stride_i in 0usize..3,
        fraction in 5u8..50,
        batch_i in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let policy = [StorePolicy::Lazy, StorePolicy::Eager][policy_i];
        let batch_size = [1usize, 16, 512][batch_i];
        let in_order = in_order_i == 0;
        // Nothing is dropped (delays stay far below the lateness), and a
        // watermark lag below the delays lets late tuples land under the
        // watermark: they revise emitted windows.
        let lateness: Time = 10_000;
        let (order, elements) = if in_order {
            let mut tuples = sorted(&raw);
            if mix == 3 {
                // A count edge reached on a timestamp tie cuts the slice
                // between the tied tuples; session windows then disagree
                // with the tuple buffer (with or without the scan).
                tuples.dedup_by_key(|&mut (ts, _)| ts);
            }
            let elements: Vec<StreamElement<i64>> = tuples
                .iter()
                .map(|&(ts, value)| StreamElement::Record { ts, value })
                .collect();
            (StreamOrder::InOrder, elements)
        } else {
            let arrivals = make_out_of_order(
                &sorted(&raw),
                OooConfig { fraction_percent: fraction, max_delay: 200, seed, ..Default::default() },
            );
            let stride = [10, 60, 400][stride_i];
            (StreamOrder::OutOfOrder, with_watermarks(&arrivals, stride, 40))
        };
        // Sliding queries a slide apart in length put many overlapping
        // windows into every sweep; the other mixes put tumbling,
        // session and (in-order only: the operator refuses the mix
        // otherwise) count-measure queries between them.
        let mut queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = Vec::new();
        for q in 1..=sliding_queries {
            queries.push(Box::new(move || Box::new(SlidingWindow::new(slide * q * 3, slide))));
            if q == 2 && mix >= 1 {
                queries.push(Box::new(move || Box::new(TumblingWindow::new(slide * 5))));
            }
            if q == 3 && mix >= 2 {
                // Sessions must be remembered for as long as tuples may be late.
                queries.push(Box::new(move || {
                    Box::new(SessionWindow::new(slide * 2).with_retention(1_000_000))
                }));
            }
            if q == 4 && mix == 3 && in_order {
                queries.push(Box::new(|| Box::new(CountTumblingWindow::new(7))));
            }
        }
        let cfg = OperatorConfig { order, policy, allowed_lateness: lateness, ..Default::default() };
        let build = |per_window: bool| {
            let mut op = WindowOperator::new(Sum, cfg);
            for q in &queries {
                op.add_query(q()).unwrap();
            }
            if per_window {
                general_stream_slicing::core::testsupport::force_per_window_queries(&mut op);
            }
            op
        };
        let mut shared = build(false);
        let mut reference = build(true);
        let got = drive_sweeps(&mut shared, &elements, batch_size);
        let want = drive_sweeps(&mut reference, &elements, batch_size);
        prop_assert_eq!(&got, &want, "{:?} mix {} in_order {}", policy, mix, in_order);
        prop_assert_eq!(reference.stats().shared_scan_windows, 0);
        prop_assert_eq!(shared.stats().sweep_windows, reference.stats().sweep_windows);
        prop_assert_eq!(shared.stats().dropped_late, 0);

        let mut oracle = TupleBuffer::new(Sum, order, lateness);
        for q in &queries {
            oracle.add_query(q());
        }
        let finals = |rows: &[SweepRow]| -> BTreeMap<(QueryId, Time, Time), i64> {
            rows.iter().map(|&(q, _, start, end, v, _)| ((q, start, end), v)).collect()
        };
        let oracle_rows: Vec<SweepRow> = {
            let mut out = Vec::new();
            for e in &elements {
                match e {
                    StreamElement::Record { ts, value } => oracle.process(*ts, *value, &mut out),
                    StreamElement::Watermark(wm) => oracle.on_watermark(*wm, &mut out),
                    _ => {}
                }
            }
            out.iter().map(sweep_row).collect()
        };
        let (ours, theirs) = (finals(&got), finals(&oracle_rows));
        let diff: Vec<_> = ours
            .iter()
            .filter(|(k, v)| theirs.get(*k) != Some(*v))
            .map(|(k, v)| (*k, Some(*v), theirs.get(k).copied()))
            .chain(theirs.iter().filter(|(k, _)| !ours.contains_key(*k)).map(|(k, v)| (*k, None, Some(*v))))
            .collect();
        prop_assert!(
            diff.is_empty(),
            "{:?} mix {} in_order {} vs tuple buffer: (window, slicing, buffer) {:?}",
            policy, mix, in_order, diff
        );
    }
}

// ---------------------------------------------------------------------
// Bulk-fold kernels and chunked pipeline equivalence.

/// Sorted, Debug-normalized keyed pipeline output: one entry per emitted
/// window result, tagged with its partition. Debug formatting gives a
/// total, exact comparison across output types (f64 included: the kernels
/// are bit-identical by contract, so even float results must match).
type KeyedOut = Vec<(usize, QueryId, Time, Time, String)>;

fn keyed_cfg(mode: usize, batch: usize) -> PipelineConfig {
    let base = PipelineConfig::with_parallelism(3);
    match mode {
        // Size-1 chunks: every record goes through the operator's `process`.
        0 => base.with_batch_size(1),
        1 => base.with_batch_size(batch),
        // A far-future deadline keeps the adaptive run deterministic: it
        // chunks exactly like `Fixed(batch)` while still exercising the
        // adaptive bookkeeping.
        _ => base.adaptive(batch, Duration::from_secs(3600)),
    }
}

fn run_keyed_mode<A>(
    f: &A,
    elements: &[StreamElement<(u64, A::Input)>],
    length: i64,
    slide: i64,
    lateness: Time,
    cfg: PipelineConfig,
) -> KeyedOut
where
    A: AggregateFunction<Input = i64> + 'static,
    A::Output: Send + std::fmt::Debug,
{
    let report = run_keyed(elements.iter().cloned(), cfg, |_partition| {
        let mut op = WindowOperator::new(
            f.clone(),
            OperatorConfig {
                order: StreamOrder::OutOfOrder,
                allowed_lateness: lateness,
                ..OperatorConfig::default()
            },
        );
        op.add_query(Box::new(TumblingWindow::new(length))).unwrap();
        op.add_query(Box::new(SlidingWindow::new(length.max(slide), slide))).unwrap();
        Box::new(op)
    });
    let mut out: KeyedOut = report
        .results
        .iter()
        .map(|(p, r)| (*p, r.query, r.range.start, r.range.end, format!("{:?}", r.value)))
        .collect();
    out.sort();
    out
}

/// Batched (fixed and adaptive) keyed runs must match; when `exact` (an
/// integer-partial aggregate, where every fold tree yields the same
/// bits), the per-tuple operator path must match them too.
#[allow(clippy::too_many_arguments)]
fn check_keyed_modes<A>(
    f: &A,
    name: &str,
    elements: &[StreamElement<(u64, i64)>],
    length: i64,
    slide: i64,
    lateness: Time,
    batch: usize,
    exact: bool,
) where
    A: AggregateFunction<Input = i64> + 'static,
    A::Output: Send + std::fmt::Debug,
{
    let fixed = run_keyed_mode(f, elements, length, slide, lateness, keyed_cfg(1, batch));
    let adaptive = run_keyed_mode(f, elements, length, slide, lateness, keyed_cfg(2, batch));
    assert_eq!(fixed, adaptive, "{name}: adaptive batching diverged from fixed at batch {batch}");
    if exact {
        let per_tuple = run_keyed_mode(f, elements, length, slide, lateness, keyed_cfg(0, batch));
        assert_eq!(fixed, per_tuple, "{name}: batched diverged from per-tuple at batch {batch}");
    }
}

/// Asserts that `$f.fold_slice($run)` is bit-identical to `$f.lift_all($run)`
/// (compared through `Debug`, which renders every distinct float
/// differently), failing the enclosing proptest case otherwise.
macro_rules! check_fold {
    ($f:expr, $name:expr, $run:expr) => {{
        let f = $f;
        let kernel = f.fold_slice($run).map(|p| format!("{:?}", p));
        let reference = f.lift_all($run).map(|p| format!("{:?}", p));
        prop_assert_eq!(
            kernel,
            reference,
            "{} diverged from the default fold at len {}",
            $name,
            $run.len()
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every integer-partial aggregate's `fold_slice` — lane kernel or
    /// default — must be bit-identical to `lift_all`, the reference
    /// lift/combine fold, on the empty run, lengths either side of the
    /// 4- and 8-lane widths, and the whole run. The narrow value range
    /// forces extremum ties across lane boundaries for the
    /// mincount/maxcount tie passes.
    #[test]
    fn integer_fold_kernels_bit_identical_to_default(
        values in prop::collection::vec(-40i64..40, 0..300),
    ) {
        let mut lens: Vec<usize> = vec![0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, values.len()];
        lens.retain(|&l| l <= values.len());
        for &len in &lens {
            let run = &values[..len];
            check_fold!(CountAgg, "count", run);
            check_fold!(Sum, "sum", run);
            check_fold!(SumNoInvert, "sum-no-invert", run);
            check_fold!(Avg, "avg", run);
            check_fold!(Min, "min", run);
            check_fold!(Max, "max", run);
            check_fold!(MinCount, "mincount", run);
            check_fold!(MaxCount, "maxcount", run);
            check_fold!(GeometricMean, "geometric-mean", run);
        }
        prop_assert!(
            Sum.has_fold_kernel() && Min.has_fold_kernel() && Max.has_fold_kernel()
                && MinCount.has_fold_kernel() && MaxCount.has_fold_kernel(),
            "sum/min/max/mincount/maxcount must carry hand-written kernels"
        );
        prop_assert!(
            !GeometricMean.has_fold_kernel(),
            "geometric mean stays on the default fold by design"
        );
    }

    /// The pair-input kernels (argmin/argmax lexicographic lanes, m4
    /// order-preserving block split) must be bit-identical to `lift_all`
    /// — including first-tie/smallest-arg tie-breaks, non-monotone
    /// duplicate timestamps, and lengths either side of the 8-lane width
    /// and M4's 16-tuple block threshold.
    #[test]
    fn paired_fold_kernels_bit_identical_to_default(
        pairs in prop::collection::vec((-10i64..10, -1_000i64..1_000), 0..300),
    ) {
        prop_assert!(ArgMin.has_fold_kernel() && ArgMax.has_fold_kernel());
        prop_assert!(M4.has_fold_kernel());
        // M4 input reinterprets the pair as (ts, value): a narrow
        // timestamp range with plenty of duplicates, arriving unsorted.
        let stamped: Vec<(Time, i64)> = pairs.iter().map(|&(a, b)| (a + 10, b)).collect();
        // Both halves drawn from the narrow range: value ties with
        // differing args exercise the smallest-arg tie-break.
        let narrow: Vec<(i64, i64)> = pairs.iter().map(|&(a, b)| (a, b % 10)).collect();
        let mut lens: Vec<usize> = vec![0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, pairs.len()];
        lens.retain(|&l| l <= pairs.len());
        for &len in &lens {
            check_fold!(ArgMin, "argmin", &pairs[..len]);
            check_fold!(ArgMax, "argmax", &pairs[..len]);
            check_fold!(ArgMin, "argmin-narrow", &narrow[..len]);
            check_fold!(ArgMax, "argmax-narrow", &narrow[..len]);
            check_fold!(M4, "m4", &stamped[..len]);
        }
    }

    /// The f64 moments kernel is *reassociated* (strided lanes, pairwise
    /// lane reduction), so it is not bit-identical to the sequential
    /// fold. The policy it must uphold instead: deterministic across
    /// calls (fixed lane shape — same input, same bits) and ulp-bounded
    /// against the sequential reference, with the count exact. Values
    /// are wide enough that squares exceed 2^53 and genuinely round.
    #[test]
    fn float_moments_kernel_deterministic_and_ulp_bounded(
        values in prop::collection::vec(-100_000_000i64..100_000_000, 1..300),
    ) {
        use general_stream_slicing::aggregates::MomentsPartial;
        let kernel: MomentsPartial = match SampleStdDev.fold_slice(&values) {
            Some(p) => p,
            None => return Err(TestCaseError::fail("non-empty run folded to nothing")),
        };
        // Determinism: a second call over a fresh copy of the input
        // reproduces the exact same bits.
        let again = SampleStdDev.fold_slice(&values.clone()).map(|p| {
            (p.count, p.sum.to_bits(), p.sum_sq.to_bits())
        });
        prop_assert_eq!(
            again,
            Some((kernel.count, kernel.sum.to_bits(), kernel.sum_sq.to_bits())),
            "moments kernel is not deterministic"
        );
        // Both stddev flavors share the one moments kernel.
        prop_assert_eq!(PopulationStdDev.fold_slice(&values), Some(kernel));
        // Ulp bound vs the sequential lift/combine reference:
        // |err| <= n * eps * sum(|x_i|) for the sum (and the squared
        // magnitudes for sum_sq), the standard bound for any
        // reassociation of an n-term float sum.
        let seq = match SampleStdDev.lift_all(&values) {
            Some(p) => p,
            None => return Err(TestCaseError::fail("reference fold of a non-empty run")),
        };
        prop_assert_eq!(kernel.count, seq.count, "count must stay exact");
        let n = values.len() as f64;
        let abs_sum: f64 = values.iter().map(|&v| (v as f64).abs()).sum();
        let abs_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let tol_sum = (n * f64::EPSILON * abs_sum).max(f64::EPSILON);
        let tol_sq = (n * f64::EPSILON * abs_sq).max(f64::EPSILON);
        prop_assert!(
            (kernel.sum - seq.sum).abs() <= tol_sum,
            "sum drifted past the ulp bound: kernel {} vs seq {} (tol {})",
            kernel.sum, seq.sum, tol_sum
        );
        prop_assert!(
            (kernel.sum_sq - seq.sum_sq).abs() <= tol_sq,
            "sum_sq drifted past the ulp bound: kernel {} vs seq {} (tol {})",
            kernel.sum_sq, seq.sum_sq, tol_sq
        );
    }

    /// Keyed pipeline grid: functions × batch sizes × disorder. Fixed and
    /// adaptive batching must agree bit-for-bit for every function; the
    /// per-tuple operator path must agree for integer-partial functions
    /// (float fold trees legitimately differ across ingestion paths, but
    /// not across chunkings).
    #[test]
    fn keyed_pipeline_batching_modes_agree(
        raw in prop::collection::vec((0i64..2_000, -50i64..50), 1..150),
        fraction in 0u8..50,
        batch_i in 0usize..3,
        func_i in 0usize..5,
        length in 2i64..50,
        slide in 1i64..25,
        seed in 0u64..500,
    ) {
        let batch = [1usize, 64, 512][batch_i];
        let lateness = 200;
        let tuples = sorted(&raw);
        let arrivals = make_out_of_order(
            &tuples,
            OooConfig { fraction_percent: fraction, max_delay: 100, seed, ..Default::default() },
        );
        let mut keyed: Vec<StreamElement<(u64, i64)>> =
            with_watermarks(&arrivals, 50, 100)
                .iter()
                .map(|e| match e {
                    StreamElement::Record { ts, value } => {
                        StreamElement::Record { ts: *ts, value: (ts.unsigned_abs() % 8, *value) }
                    }
                    StreamElement::Watermark(wm) => StreamElement::Watermark(*wm),
                    StreamElement::Punctuation(p) => StreamElement::Punctuation(*p),
                })
                .collect();
        keyed.push(StreamElement::Watermark(i64::MAX - 1));
        match func_i {
            0 => check_keyed_modes(&Sum, "sum", &keyed, length, slide, lateness, batch, true),
            1 => check_keyed_modes(&Min, "min", &keyed, length, slide, lateness, batch, true),
            2 => check_keyed_modes(&Avg, "avg", &keyed, length, slide, lateness, batch, true),
            3 => check_keyed_modes(&CountAgg, "count", &keyed, length, slide, lateness, batch, true),
            _ => check_keyed_modes(
                &SampleStdDev, "stddev", &keyed, length, slide, lateness, batch, false,
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Runs of windows against windows answered one at a time.

/// One emitted result of any output type.
type RunRow<O> = (QueryId, Measure, Time, Time, O, bool);

/// Feeds `elements` in chunks of `batch_size` (watermarks and
/// punctuations flush the chunk first) and returns the emission sequence.
fn drive_runs<A: AggregateFunction<Input = i64>>(
    op: &mut WindowOperator<A>,
    elements: &[StreamElement<i64>],
    batch_size: usize,
) -> Vec<RunRow<A::Output>> {
    let mut out = Vec::new();
    let mut buf: Vec<(Time, i64)> = Vec::new();
    for e in elements {
        if let StreamElement::Record { ts, value } = e {
            buf.push((*ts, *value));
            if buf.len() < batch_size {
                continue;
            }
        }
        op.process_batch_tuples(&buf, &mut out);
        buf.clear();
        match e {
            StreamElement::Watermark(wm) => op.process_watermark(*wm, &mut out),
            StreamElement::Punctuation(ts) => op.process_punctuation(*ts, &mut out),
            StreamElement::Record { .. } => {}
        }
    }
    op.process_batch_tuples(&buf, &mut out);
    out.into_iter()
        .map(|r| (r.query, r.measure, r.range.start, r.range.end, r.value, r.is_update))
        .collect()
}

/// The operator with its store's run-based sweep against one whose
/// sweeps query every window alone (`SliceStore::query_time_each`): the
/// same emission sequence, and the same windows swept.
fn check_runs<A>(
    f: A,
    queries: &[Box<dyn Fn() -> Box<dyn WindowFunction>>],
    cfg: OperatorConfig,
    elements: &[StreamElement<i64>],
    batch_size: usize,
) -> Result<(), TestCaseError>
where
    A: AggregateFunction<Input = i64> + Clone,
    A::Output: PartialEq + std::fmt::Debug,
{
    let build = |per_window: bool| {
        let mut op = WindowOperator::new(f.clone(), cfg);
        for q in queries {
            op.add_query(q()).unwrap();
        }
        if per_window {
            general_stream_slicing::core::testsupport::force_per_window_queries(&mut op);
        }
        op
    };
    let (mut runs, mut each) = (build(false), build(true));
    let got = drive_runs(&mut runs, elements, batch_size);
    let want = drive_runs(&mut each, elements, batch_size);
    prop_assert_eq!(&got, &want, "{:?}", cfg);
    prop_assert_eq!(runs.stats().sweep_windows, each.stats().sweep_windows);
    prop_assert_eq!(each.stats().shared_scan_windows, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Periodic queries with shared and distinct slides and phases, and
    /// now and then a session, punctuation or count window among them,
    /// over streams with data holes, late tuples that open gap slices
    /// and punctuations that cut slices ahead of the data: where a slice
    /// is not one slide on from the last, a run's stepped bounds fail
    /// their check and must gallop. Every sweep's answers and emission
    /// order equal the windows answered one at a time, on every store,
    /// for `Sum` and `Min` (shared scan), `Concat` (non-commutative) and
    /// a holistic median.
    #[test]
    fn window_runs_answer_as_each_window_alone(
        raw in prop::collection::vec((0i64..4_000, -50i64..50), 20..300),
        holes in prop::collection::vec((0i64..4_000, 50i64..700), 0..4),
        periodic in prop::collection::vec((1i64..4, 1i64..7, 0i64..40), 1..6),
        base in 3i64..12,
        extra in 0usize..4,
        punctuate_every in 0usize..40,
        policy_i in 0usize..2,
        in_order_i in 0usize..3,
        fraction in 5u8..50,
        stride_i in 0usize..3,
        batch_i in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let policy = [StorePolicy::Lazy, StorePolicy::Eager][policy_i];
        let batch_size = [1usize, 16, 512][batch_i];
        let in_order = in_order_i == 0;
        let kept: Vec<(Time, i64)> = raw
            .into_iter()
            .filter(|&(ts, _)| !holes.iter().any(|&(at, len)| at <= ts && ts < at + len))
            .collect();
        let (order, mut elements) = if in_order {
            let tuples = sorted(&kept);
            let records = tuples.iter().map(|&(ts, value)| StreamElement::Record { ts, value });
            (StreamOrder::InOrder, records.collect::<Vec<_>>())
        } else {
            let arrivals = make_out_of_order(
                &sorted(&kept),
                OooConfig { fraction_percent: fraction, max_delay: 300, seed, ..Default::default() },
            );
            let stride = [10, 60, 400][stride_i];
            (StreamOrder::OutOfOrder, with_watermarks(&arrivals, stride, 40))
        };
        // Punctuations after a tuple, at its time or a little ahead of
        // the data.
        if punctuate_every > 0 && extra == 2 {
            let mut at = Vec::new();
            for (i, e) in elements.iter().enumerate() {
                if let StreamElement::Record { ts, .. } = e {
                    if i % punctuate_every == 0 {
                        at.push((i + 1, ts + 7 * (i as Time % 5)));
                    }
                }
            }
            for (i, ts) in at.into_iter().rev() {
                elements.insert(i, StreamElement::Punctuation(ts));
            }
        }
        // Slides are multiples of `base`: equal multiples share a slide,
        // and phases put their edges apart.
        let mut queries: Vec<Box<dyn Fn() -> Box<dyn WindowFunction>>> = Vec::new();
        for &(m, panes, phase) in &periodic {
            let slide = base * m;
            queries.push(Box::new(move || {
                Box::new(SlidingWindow::with_offset(slide * panes, slide, phase))
            }));
        }
        match extra {
            1 => queries.push(Box::new(move || {
                Box::new(SessionWindow::new(base * 4).with_retention(1_000_000))
            })),
            2 => queries.push(Box::new(|| Box::new(PunctuationWindow::new()))),
            3 if in_order => queries.push(Box::new(|| Box::new(CountTumblingWindow::new(5)))),
            _ => {}
        }
        let cfg = OperatorConfig { order, policy, allowed_lateness: 100_000, ..Default::default() };
        let (q, e, b) = (&queries, &elements, batch_size);
        check_runs(Sum, q, cfg, e, b)?;
        check_runs(Min, q, cfg, e, b)?;
        check_runs(general_stream_slicing::core::testsupport::Concat, q, cfg, e, b)?;
        check_runs(Median, q, cfg, e, b)?;
    }
}
