//! Key-sharded multi-core execution: hash-partitioned keyed operators
//! behind the epoch barrier.
//!
//! This is the paper's Section 5.3 parallelization applied to the keyed
//! operator of PR 3: the key space is hash-partitioned across N shards,
//! each shard owns its own [`KeyedWindowOperator`](gss_core::KeyedWindowOperator)
//! — a private shared slice timeline, per-key partial rings, and due-window
//! heap — and processes its keys' records in arrival order on its own OS
//! thread. Unlike [`run_per_key`](crate::pipeline::run_per_key), whose
//! partitions emit independently in scheduler order, the shards here feed
//! a **merge stage** that reassembles one globally watermark-ordered,
//! deterministic output.
//!
//! ## Protocol
//!
//! * The router — the gather stage of the [skeleton](crate::driver) —
//!   assigns each record to [`shard_of`]`(key) = fx_hash_u64(key) %
//!   shards`, so all records of one key meet in one operator, and ships
//!   per-shard chunks, preserving the columnar/batching path per shard.
//!   Watermarks and punctuations are broadcast to every shard in stream
//!   order.
//! * A shard (the skeleton's hosted-operator worker body) buffers its
//!   key-tagged emissions and ships them to the merge stage in bulk: when
//!   the buffer reaches a cap, and always before **acking** a broadcast
//!   watermark. Acks are 1:1 with broadcasts (even regressive ones, which
//!   the operator ignores), so ack sequences align across shards.
//! * The merge stage runs behind the epoch barrier, which
//!   [`barrier`](crate::barrier) defines, and stages what the shards emit
//!   until an epoch closes. Then the epoch's staged emissions are
//!   released in one deterministic order: a stable sort by key. Keys are
//!   disjoint across shards, so the stable sort preserves each key's
//!   emission order while making the interleaving independent of thread
//!   scheduling: the released sequence is a pure function of the input
//!   stream.
//!
//! Per key, the released emissions are exactly those of a
//! single-threaded [`KeyedWindowOperator`](gss_core::KeyedWindowOperator)
//! over the full stream — same windows, same values, same update
//! multiplicity, same per-key order — because each shard's operator sees
//! its keys' records and every watermark/punctuation in the original
//! stream order, and keys do not interact inside the keyed operator.
//! Emissions after the last watermark (tail records, punctuation-driven
//! closes) are released, key-sorted, at end of stream.

use crossbeam::runtime;
use crossbeam::sched::ProbeEvent;
use gss_core::{
    fx_hash_u64, AggregateFunction, PerKey, StreamElement, Time, WindowAggregator, WindowResult,
};

use crate::barrier::Stage;
use crate::batching::Gather;
use crate::driver::{self, by_destination, Emitted, Merge};
use crate::host::{Hosted, ResultSink};
use crate::pipeline::{PipelineConfig, PipelineReport};

/// Deterministic key-to-shard assignment over the mixed key hash.
///
/// [`fx_hash_u64`] scrambles low-entropy key spaces (sequential ids,
/// stride patterns) before the modulo, so real-world key sets spread
/// evenly; the same key always lands on the same shard.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard_of requires at least one shard");
    (fx_hash_u64(key) % shards.max(1) as u64) as usize
}

/// What a shard ships the merge stage: key-tagged window results in
/// shard emission order.
type Emissions<O> = Vec<WindowResult<(u64, O)>>;

/// The merge stage behind the epoch barrier: emissions staged per shard,
/// and the released output, each result tagged with its shard.
struct ShardMerge<O> {
    staged: Vec<Emissions<O>>,
    sink: ResultSink<(usize, WindowResult<(u64, O)>)>,
}

impl<O> ShardMerge<O> {
    /// Releases everything staged in deterministic order — a stable sort
    /// by key, which preserves per-key (= per-shard) emission order
    /// because keys are disjoint across shards.
    fn release(&mut self) {
        let epoch = &mut self.sink.scratch;
        for (shard, list) in self.staged.iter_mut().enumerate() {
            if shard == 0 && crate::mutants::is(crate::mutants::Mutant::ShardDropStaged) {
                list.clear();
                continue;
            }
            epoch.extend(list.drain(..).map(|r| (shard, r)));
        }
        runtime::probe(ProbeEvent::Released { items: epoch.len() as u64 });
        if self.sink.collect {
            epoch.sort_by_key(|(_, r)| r.value.0);
        }
        self.sink.settle();
    }
}

impl<O> Stage<Emissions<O>> for ShardMerge<O> {
    fn apply(&mut self, src: usize, batch: Emissions<O>) {
        runtime::probe(ProbeEvent::Applied { src, items: batch.len() as u64 });
        self.staged[src].extend(batch);
    }

    /// Every shard has shipped everything it emitted up to this
    /// watermark: the epoch is complete.
    fn close(&mut self, _wm: Time) {
        self.release();
    }
}

impl<O: Send> Merge<Emissions<O>, (u64, O)> for ShardMerge<O> {
    /// Whatever is still staged was emitted after the final watermark:
    /// release it as the closing epoch, in the same deterministic key
    /// order.
    fn finish(mut self: Box<Self>, clean: bool) -> Emitted<(u64, O)> {
        if clean {
            self.release();
        }
        self.sink.emitted(|tagged| tagged)
    }
}

/// Runs a keyed window aggregation sharded by key hash across
/// `cfg.parallelism` operator instances, with a merge stage that
/// reassembles one globally watermark-ordered, deterministic output
/// (see the module docs for the protocol).
///
/// * `elements` — records carry `(key, value)` pairs; watermarks and
///   punctuations are broadcast to every shard.
/// * `make_operator` — factory building one keyed aggregation operator
///   per shard (called with the shard index); typically
///   [`gss_core::KeyedWindowOperator::new`].
///
/// Per key, the output is exactly that of a single-threaded run of the
/// factory's operator over the whole stream; across keys, each watermark
/// epoch's emissions are released together, stable-sorted by key.
/// `report.shards` records the shard count; results are tagged with the
/// producing shard.
///
/// ```
/// use gss_core::testsupport::SumI64;
/// use gss_core::{KeyedConfig, KeyedWindowOperator, PerKey, StreamElement, WindowAggregator};
/// use gss_stream::{run_sharded_keyed, PipelineConfig};
/// use gss_windows::TumblingWindow;
///
/// let elements = (0..200i64)
///     .map(|i| StreamElement::Record { ts: i, value: (i as u64 % 4, 1i64) })
///     .chain([StreamElement::Watermark(200)]);
/// let report = run_sharded_keyed(
///     elements,
///     PipelineConfig::with_parallelism(2),
///     |_| {
///         Box::new(KeyedWindowOperator::new(
///             SumI64,
///             vec![Box::new(TumblingWindow::new(100))],
///             KeyedConfig::default(),
///         )) as Box<dyn WindowAggregator<PerKey<SumI64>>>
///     },
/// );
/// assert_eq!(report.shards, 2);
/// // 4 keys × 2 complete windows, each summing 25 ones.
/// assert_eq!(report.result_count, 8);
/// assert!(report.results.iter().all(|(_, r)| r.value.1 == 25));
/// ```
pub fn run_sharded_keyed<A, F>(
    elements: impl IntoIterator<Item = StreamElement<(u64, A::Input)>>,
    cfg: PipelineConfig,
    make_operator: F,
) -> PipelineReport<(u64, A::Output)>
where
    A: AggregateFunction,
    A::Output: Send,
    F: Fn(usize) -> Box<dyn WindowAggregator<PerKey<A>>>,
{
    let shards = cfg.parallelism.max(1);
    // Router: the gather stage keeps one chunk builder per shard, so the
    // columnar path survives the split; the key both routes and stays
    // attached for the keyed operator.
    let gather = Gather::new(elements, cfg.batching, shards, |(key, v)| (key, (key, v)), shard_of);
    let bodies = (0..shards).map(|i| Hosted::new(make_operator(i), &cfg));
    let stage = ShardMerge {
        staged: (0..shards).map(|_| Vec::new()).collect(),
        sink: ResultSink::new(cfg.collect_results),
    };
    match driver::run(cfg, gather, by_destination, bodies, Some(Box::new(stage))) {
        Ok(report) => PipelineReport { shards, ..report },
        Err(err) => err.raise(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::testsupport::SumI64;
    use gss_core::{KeyedConfig, KeyedWindowOperator, NaiveKeyedOperator, WindowFunction};
    use gss_windows::{SessionWindow, TumblingWindow};

    type Keyed = Box<dyn WindowAggregator<PerKey<SumI64>>>;

    fn shared_factory(lateness: i64) -> impl Fn(usize) -> Keyed {
        move |_| {
            let op = KeyedWindowOperator::new(
                SumI64,
                vec![Box::new(TumblingWindow::new(100))],
                KeyedConfig::default().with_allowed_lateness(lateness),
            );
            assert!(op.is_shared());
            Box::new(op) as Keyed
        }
    }

    fn make_elements(n: i64, keys: u64) -> Vec<StreamElement<(u64, i64)>> {
        let mut v: Vec<StreamElement<(u64, i64)>> = Vec::new();
        for i in 0..n {
            v.push(StreamElement::Record { ts: i, value: (i as u64 % keys, 1) });
            if i % 50 == 49 {
                v.push(StreamElement::Watermark(i - 10));
            }
        }
        v.push(StreamElement::Watermark(i64::MAX - 1));
        v
    }

    /// Reference: one single-threaded operator over the whole stream,
    /// with emissions canonicalized per watermark epoch (stable-sorted
    /// by key), exactly as the merge stage releases them.
    fn reference(
        elements: &[StreamElement<(u64, i64)>],
        factory: &dyn Fn(usize) -> Keyed,
    ) -> Vec<(u64, i64, i64, i64, bool)> {
        let mut op = factory(0);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut epoch: Vec<(u64, i64, i64, i64, bool)> = Vec::new();
        for e in elements {
            match e {
                StreamElement::Record { ts, value } => op.process(*ts, *value, &mut scratch),
                StreamElement::Watermark(wm) => {
                    op.on_watermark(*wm, &mut scratch);
                    epoch.extend(
                        scratch.drain(..).map(|r| {
                            (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update)
                        }),
                    );
                    epoch.sort_by_key(|e| e.0);
                    out.append(&mut epoch);
                    continue;
                }
                StreamElement::Punctuation(ts) => op.on_punctuation(*ts, &mut scratch),
            }
            epoch.extend(
                scratch
                    .drain(..)
                    .map(|r| (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update)),
            );
        }
        epoch.sort_by_key(|e| e.0);
        out.append(&mut epoch);
        out
    }

    fn flat(report: &PipelineReport<(u64, i64)>) -> Vec<(u64, i64, i64, i64, bool)> {
        report
            .results
            .iter()
            .map(|(_, r)| (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update))
            .collect()
    }

    #[test]
    fn sharded_output_matches_single_threaded_sequence() {
        let elements = make_elements(2000, 16);
        let factory = shared_factory(100);
        let expect = reference(&elements, &factory);
        assert!(!expect.is_empty());
        for shards in [1, 2, 4, 8] {
            let report = run_sharded_keyed(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(shards),
                &factory,
            );
            assert_eq!(report.shards, shards);
            assert_eq!(report.records, 2000);
            assert_eq!(flat(&report), expect, "shards={shards}");
        }
    }

    #[test]
    fn sharded_output_is_deterministic_across_runs() {
        let elements = make_elements(1000, 8);
        let factory = shared_factory(100);
        let one = flat(&run_sharded_keyed(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(4),
            &factory,
        ));
        for _ in 0..3 {
            let again = flat(&run_sharded_keyed(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(4),
                &factory,
            ));
            assert_eq!(one, again, "released order must not depend on scheduling");
        }
    }

    #[test]
    fn a_regressive_watermark_is_a_round_like_any_other() {
        // Every shard acks the regressive broadcast and the barrier closes
        // it: the straggler updates emitted since the round before are
        // released there, as the reference's per-watermark epochs have it.
        let mut elements = make_elements(300, 8);
        let late = (0..8).map(|k| StreamElement::Record { ts: 20 + k, value: (k as u64, 100) });
        let at = elements.iter().position(|e| matches!(e, StreamElement::Watermark(139))).unwrap();
        elements.splice(at + 1..at + 1, late.chain([StreamElement::Watermark(50)]));
        let factory = shared_factory(1_000);
        let expect = reference(&elements, &factory);
        assert!(expect.iter().any(|e| e.4), "the stragglers must produce updates");
        for shards in [1, 3] {
            let report = run_sharded_keyed(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(shards).with_batch_size(4),
                &factory,
            );
            assert_eq!(flat(&report), expect, "shards={shards}");
        }
    }

    #[test]
    fn all_records_of_a_key_meet_in_one_shard() {
        for shards in [1, 2, 4, 8] {
            for key in 0..200u64 {
                let a = shard_of(key, shards);
                assert_eq!(a, shard_of(key, shards));
                assert!(a < shards);
            }
        }
        // The mixed hash must actually spread a sequential key space.
        let mut counts = [0usize; 4];
        for key in 0..1000u64 {
            counts[shard_of(key, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "skewed spread: {counts:?}");
    }

    #[test]
    fn key_assignments_are_the_parent_commits() {
        // Results carry their partition or shard, and the sched oracle
        // places keys with `shard_of`: with more than one destination both
        // assignments must stay bit for bit what e462ea7 computed. Each is
        // restated here and pinned by the FNV-1a digest of its table as
        // taken at that commit.
        let parent_partition = |key: u64, p: usize| {
            ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % p as u64) as usize
        };
        let parent_shard = |key: u64, shards: usize| (fx_hash_u64(key) % shards as u64) as usize;
        let digest = |assign: &dyn Fn(u64, usize) -> usize,
                      parent: &dyn Fn(u64, usize) -> usize| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for n in [1usize, 2, 3, 4, 8] {
                for key in 0..10_000u64 {
                    assert_eq!(assign(key, n), parent(key, n), "key {key}, {n} destinations");
                    h = (h ^ assign(key, n) as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            h
        };
        assert_eq!(
            digest(&crate::pipeline::partition_of, &parent_partition),
            0xc0cd_4261_c6cc_6454
        );
        assert_eq!(digest(&shard_of, &parent_shard), 0x5264_05cc_3e5c_55e2);
    }

    #[test]
    fn naive_fallback_operators_shard_too() {
        // Session windows force the keyed operator's naive fallback; the
        // sharded protocol is agnostic to which inner operator runs.
        let factory = |_: usize| {
            let windows: Vec<Box<dyn WindowFunction>> = vec![Box::new(SessionWindow::new(10))];
            Box::new(NaiveKeyedOperator::new(SumI64, windows, KeyedConfig::default())) as Keyed
        };
        let mut elements: Vec<StreamElement<(u64, i64)>> = Vec::new();
        for i in 0..300i64 {
            elements.push(StreamElement::Record { ts: i * 4, value: (i as u64 % 5, 1) });
            if i % 40 == 39 {
                elements.push(StreamElement::Watermark(i * 4 - 30));
            }
        }
        elements.push(StreamElement::Watermark(i64::MAX - 1));
        let expect = reference(&elements, &factory);
        assert!(!expect.is_empty());
        for shards in [2, 4] {
            let report = run_sharded_keyed(
                elements.iter().cloned(),
                PipelineConfig::with_parallelism(shards),
                factory,
            );
            assert_eq!(flat(&report), expect, "shards={shards}");
        }
    }

    #[test]
    fn punctuation_broadcasts_to_every_shard() {
        let factory = |_: usize| {
            let windows: Vec<Box<dyn WindowFunction>> =
                vec![Box::new(gss_windows::PunctuationWindow::new())];
            Box::new(NaiveKeyedOperator::new(SumI64, windows, KeyedConfig::default())) as Keyed
        };
        let mut elements: Vec<StreamElement<(u64, i64)>> = Vec::new();
        for i in 0..200i64 {
            if i % 50 == 0 {
                elements.push(StreamElement::Punctuation(i));
            }
            elements.push(StreamElement::Record { ts: i, value: (i as u64 % 3, 1) });
            if i % 70 == 69 {
                // The keyed operator's inner ops run out-of-order:
                // punctuation cuts the window edges, watermarks emit.
                elements.push(StreamElement::Watermark(i - 20));
            }
        }
        elements.push(StreamElement::Punctuation(200));
        elements.push(StreamElement::Watermark(i64::MAX - 1));
        let expect = reference(&elements, &factory);
        assert!(!expect.is_empty());
        let report = run_sharded_keyed(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(3),
            factory,
        );
        assert_eq!(report.records, 200);
        assert_eq!(flat(&report), expect);
    }

    #[test]
    fn batching_modes_agree() {
        let elements = make_elements(1500, 8);
        let factory = shared_factory(100);
        let expect = reference(&elements, &factory);
        for cfg in [
            PipelineConfig::with_parallelism(4).per_tuple(),
            PipelineConfig::with_parallelism(4).with_batch_size(1),
            PipelineConfig::with_parallelism(4).with_batch_size(128),
        ] {
            let report = run_sharded_keyed(elements.iter().cloned(), cfg, &factory);
            assert_eq!(flat(&report), expect);
        }
    }

    #[test]
    fn throughput_only_counts_without_collecting() {
        let elements = make_elements(1000, 8);
        let factory = shared_factory(100);
        let full = run_sharded_keyed(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(4),
            &factory,
        );
        let counted = run_sharded_keyed(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(4).throughput_only(),
            &factory,
        );
        assert!(counted.results.is_empty());
        assert_eq!(counted.result_count, full.result_count);
        assert_eq!(counted.records, 1000);
    }

    #[test]
    fn report_carries_shard_count_and_metrics() {
        let elements = make_elements(1000, 8);
        let report = run_sharded_keyed(
            elements.iter().cloned(),
            PipelineConfig::with_parallelism(2).with_batch_size(64),
            shared_factory(100),
        );
        assert_eq!(report.shards, 2);
        assert_eq!(report.parallel_workers, 0);
        assert!(!report.batch_sizes.is_empty());
        assert_eq!(report.batch_sizes.records(), 1000);
        // SumI64 (testsupport) has no fold kernel: batched runs count as
        // misses.
        assert_eq!(report.fold_hits, 0);
        assert!(report.fold_misses > 0);
    }
}
