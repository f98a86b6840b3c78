//! A minimal tuple-at-a-time dataflow runtime with key partitioning.
//!
//! The paper parallelizes window aggregation the way Flink, Spark, and
//! Storm do (Section 5.3, "Parallelization"): the stream is partitioned by
//! key, one window-operator instance runs per partition, and watermarks
//! are broadcast to all partitions. Because the window operator is a
//! drop-in replacement, the runtime is agnostic to the aggregation
//! technique — any [`WindowAggregator`] plugs in, which is how the
//! Figure 17 experiment compares slicing against buckets under varying
//! degrees of parallelism.

use std::time::Duration;

use gss_core::{AggregateFunction, PerKey, StreamElement, WindowAggregator, WindowResult};

use crate::batching::{Batching, Gather};
use crate::driver::{self, by_destination, Emitted};
use crate::host::Hosted;
use crate::metrics::{BatchSizeHistogram, LatencyHistogram};

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of parallel operator instances (degree of parallelism).
    pub parallelism: usize,
    /// Bounded channel capacity per partition (backpressure), in chunks.
    pub channel_capacity: usize,
    /// How sources pack records into channel chunks (see [`Batching`]).
    /// The default is latency-bounded adaptive batching; watermarks and
    /// punctuations always flush pending chunks first, so every mode
    /// produces identical results.
    pub batching: Batching,
    /// Collect emitted window results (disable for pure throughput runs —
    /// results are counted either way).
    pub collect_results: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            parallelism: 1,
            channel_capacity: 256,
            batching: Batching::default(),
            collect_results: true,
        }
    }
}

impl PipelineConfig {
    pub fn with_parallelism(parallelism: usize) -> Self {
        PipelineConfig { parallelism: parallelism.max(1), ..Default::default() }
    }

    /// Fixed-size chunks of `batch_size` records; at 1 every record goes
    /// through the operator's per-record `process`.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batching = Batching::Fixed(batch_size.max(1));
        self
    }

    /// Latency-bounded adaptive batching: chunks flush at `target`
    /// records or after `max_delay`, whichever comes first.
    pub fn adaptive(mut self, target: usize, max_delay: Duration) -> Self {
        self.batching = Batching::Adaptive { target: target.max(1), max_delay };
        self
    }

    pub fn throughput_only(mut self) -> Self {
        self.collect_results = false;
        self
    }
}

/// Outcome of a pipeline run.
#[derive(Debug)]
pub struct PipelineReport<O> {
    /// Collected window results (empty if `collect_results` was off),
    /// tagged with the partition that produced them.
    pub results: Vec<(usize, WindowResult<O>)>,
    /// Number of window results produced (counted even when not collected).
    pub result_count: u64,
    /// Records processed across all partitions.
    pub records: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// CPU time consumed by the whole process during the run.
    pub cpu_time: Duration,
    /// Queue-wait latency of producer sends into the merge stage, folded
    /// across workers ([`LatencyHistogram::merge`]). Non-empty only for
    /// the drivers that have one: the two-stage path of
    /// [`run_parallel`](crate::parallel::run_parallel) and
    /// [`run_sharded_keyed`](crate::sharded::run_sharded_keyed). A fat
    /// tail here means the merge stage is the bottleneck (backpressure),
    /// not the workers.
    pub send_wait: LatencyHistogram,
    /// Pre-aggregation workers used by the two-stage parallel path; 0 when
    /// the run went through a sequential operator (including the
    /// ineligible-workload fallback of `run_parallel`).
    pub parallel_workers: usize,
    /// Key-hash shards used by
    /// [`run_sharded_keyed`](crate::sharded::run_sharded_keyed); 0 for
    /// every other driver.
    pub shards: usize,
    /// Folded runs that went through a hand-written
    /// [`AggregateFunction::fold_slice`] kernel, summed across
    /// partitions/workers.
    pub fold_hits: u64,
    /// Folded runs that fell back to the default lift/combine loop
    /// (no kernel for the aggregate, or a gathered run below the kernel
    /// threshold).
    pub fold_misses: u64,
    /// Achieved batch-size distribution: the records each chunk actually
    /// carried when the source flushed it. Under adaptive batching this
    /// shows which regime the run was in (target-filled vs
    /// deadline-flushed).
    pub batch_sizes: BatchSizeHistogram,
}

impl<O> PipelineReport<O> {
    /// Records per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        self.records as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Average CPU utilization in busy cores (e.g. 4.0 ≙ 400 %), or
    /// `None` when process CPU time is unavailable or below the clock-tick
    /// resolution: `process_cpu_time` reads `/proc` and returns zero on
    /// non-Linux platforms (and for runs shorter than one `USER_HZ` tick),
    /// so a raw ratio would silently report 0 there.
    pub fn cpu_utilization(&self) -> Option<f64> {
        if self.cpu_time == Duration::ZERO {
            return None;
        }
        let elapsed = self.elapsed.as_secs_f64();
        if !elapsed.is_finite() || elapsed <= 0.0 {
            return None;
        }
        Some(self.cpu_time.as_secs_f64() / elapsed)
    }

    /// Adds what one task emitted.
    pub(crate) fn absorb(&mut self, (count, results): Emitted<O>) {
        self.result_count += count;
        if self.results.is_empty() {
            self.results = results;
        } else {
            self.results.extend(results);
        }
    }

    pub(crate) fn empty() -> Self {
        PipelineReport {
            results: Vec::new(),
            result_count: 0,
            records: 0,
            elapsed: Duration::ZERO,
            cpu_time: Duration::ZERO,
            send_wait: LatencyHistogram::new(),
            parallel_workers: 0,
            shards: 0,
            fold_hits: 0,
            fold_misses: 0,
            batch_sizes: BatchSizeHistogram::new(),
        }
    }
}

/// Deterministic key-to-partition assignment (Fibonacci hashing).
#[inline]
pub fn partition_of(key: u64, parallelism: usize) -> usize {
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % parallelism as u64) as usize
}

/// Total process CPU time (user + system). Linux-specific; returns zero on
/// other platforms.
pub(crate) fn process_cpu_time() -> Duration {
    #[cfg(target_os = "linux")]
    {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return Duration::ZERO;
        };
        // The comm field may contain spaces; skip past its closing paren.
        let Some(close) = stat.rfind(')') else {
            return Duration::ZERO;
        };
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        // utime and stime are fields 14 and 15 of the stat line overall,
        // i.e. indices 11 and 12 after state.
        if fields.len() > 12 {
            let utime: u64 = fields[11].parse().unwrap_or(0);
            let stime: u64 = fields[12].parse().unwrap_or(0);
            return Duration::from_millis((utime + stime) * 1000 / clock_ticks_per_sec());
        }
        Duration::ZERO
    }
    #[cfg(not(target_os = "linux"))]
    {
        Duration::ZERO
    }
}

/// Kernel clock ticks per second (`USER_HZ`), the unit of `/proc` CPU-time
/// fields. Queried once via `sysconf(_SC_CLK_TCK)` — 100 on most Linux
/// builds but a kernel configuration choice, not a constant.
#[cfg(target_os = "linux")]
fn clock_ticks_per_sec() -> u64 {
    use std::sync::OnceLock;
    static TICKS: OnceLock<u64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        const SC_CLK_TCK: std::ffi::c_int = 2;
        extern "C" {
            fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
        }
        // SAFETY: sysconf is async-signal-safe, takes no pointers, and
        // _SC_CLK_TCK is a valid name on every Linux libc.
        let hz = unsafe { sysconf(SC_CLK_TCK) };
        if hz > 0 {
            hz as u64
        } else {
            100
        }
    })
}

/// Runs a keyed, parallel window aggregation over a finite stream.
///
/// * `elements` — records carry `(key, value)` pairs; watermarks and
///   punctuations are broadcast to every partition.
/// * `make_operator` — factory building one aggregation operator per
///   partition (called with the partition index).
///
/// Records are routed by [`partition_of`]; each partition processes its
/// share in arrival order on its own OS thread, exactly like a keyed
/// window operator in Flink.
pub fn run_keyed<A, F>(
    elements: impl IntoIterator<Item = StreamElement<(u64, A::Input)>>,
    cfg: PipelineConfig,
    make_operator: F,
) -> PipelineReport<A::Output>
where
    A: AggregateFunction,
    A::Output: Send,
    F: Fn(usize) -> Box<dyn WindowAggregator<A>>,
{
    let p = cfg.parallelism.max(1);
    // The key only routes, the operator receives the bare value.
    let gather = Gather::new(elements, cfg.batching, p, |kv| kv, partition_of);
    let hosts = (0..p).map(|i| Hosted::new(make_operator(i), &cfg));
    driver::run(cfg, gather, by_destination, hosts, None).unwrap_or_else(|err| err.raise())
}

/// Runs a keyed aggregation where the operators themselves are
/// key-aware — each partition hosts one multi-key operator (e.g.
/// [`gss_core::KeyedWindowOperator`]) instead of stripping keys off.
///
/// Results come back key-tagged: every [`WindowResult`] carries
/// `(key, aggregate)` so downstream consumers can tell the per-key
/// windows apart, unlike [`run_keyed`] where the key is implicit in the
/// partition. Records are still routed with [`partition_of`], so all
/// tuples of one key meet in the same operator instance.
pub fn run_per_key<A, F>(
    elements: impl IntoIterator<Item = StreamElement<(u64, A::Input)>>,
    cfg: PipelineConfig,
    make_operator: F,
) -> PipelineReport<(u64, A::Output)>
where
    A: AggregateFunction,
    A::Output: Send,
    F: Fn(usize) -> Box<dyn WindowAggregator<PerKey<A>>>,
{
    // The outer key routes the partition; the inner copy stays attached
    // for the keyed operator.
    let keyed = elements.into_iter().map(|e| e.map(|(key, v)| (key, (key, v))));
    run_keyed::<PerKey<A>, F>(keyed, cfg, make_operator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::operator::{OperatorConfig, WindowOperator};
    use gss_core::testsupport::SumI64;
    use gss_core::StreamOrder;
    use gss_windows::TumblingWindow;

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

    fn slicing_factory(_: usize) -> Box<dyn WindowAggregator<SumI64>> {
        let mut op = WindowOperator::new(
            SumI64,
            OperatorConfig {
                order: StreamOrder::OutOfOrder,
                allowed_lateness: 100,
                ..Default::default()
            },
        );
        op.add_query(Box::new(TumblingWindow::new(100))).unwrap();
        Box::new(op)
    }

    #[test]
    fn single_partition_processes_everything() {
        let report = run_keyed(make_elements(1000, 4), PipelineConfig::default(), slicing_factory);
        assert_eq!(report.records, 1000);
        assert!(report.result_count > 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn partition_results_sum_to_global_counts() {
        // Values are all 1, so summing all window results of all partitions
        // for a window range equals the tuples in that range.
        let report =
            run_keyed(make_elements(1000, 8), PipelineConfig::with_parallelism(4), slicing_factory);
        assert_eq!(report.records, 1000);
        let mut per_window: std::collections::BTreeMap<i64, i64> =
            std::collections::BTreeMap::new();
        for (_, r) in &report.results {
            *per_window.entry(r.range.start).or_default() += r.value;
        }
        for (start, total) in per_window {
            assert_eq!(total, 100, "window starting {start}");
        }
    }

    #[test]
    fn same_key_stays_on_one_partition() {
        for key in 0..100u64 {
            let a = partition_of(key, 8);
            let b = partition_of(key, 8);
            assert_eq!(a, b);
            assert!(a < 8);
        }
    }

    #[test]
    fn parallel_run_matches_sequential_results() {
        let seq = run_keyed(make_elements(2000, 16), PipelineConfig::default(), slicing_factory);
        let par = run_keyed(
            make_elements(2000, 16),
            PipelineConfig::with_parallelism(4),
            slicing_factory,
        );
        let norm = |r: &PipelineReport<i64>| {
            let mut m: std::collections::BTreeMap<(i64, i64), i64> =
                std::collections::BTreeMap::new();
            for (_, w) in &r.results {
                *m.entry((w.range.start, w.range.end)).or_default() += w.value;
            }
            m
        };
        assert_eq!(norm(&seq), norm(&par));
    }

    #[test]
    fn batched_mode_matches_per_tuple_results() {
        let batched = run_keyed(
            make_elements(2000, 8),
            PipelineConfig::default().with_batch_size(128),
            slicing_factory,
        );
        // Size-1 chunks: the worker routes every record through `process`.
        let per_tuple = run_keyed(
            make_elements(2000, 8),
            PipelineConfig::default().with_batch_size(1),
            slicing_factory,
        );
        assert_eq!(per_tuple.batch_sizes.max(), 1);
        assert_eq!(batched.records, per_tuple.records);
        assert_eq!(batched.result_count, per_tuple.result_count);
        let norm = |r: &PipelineReport<i64>| {
            let mut m: Vec<(usize, i64, i64, i64)> =
                r.results.iter().map(|(p, w)| (*p, w.range.start, w.range.end, w.value)).collect();
            m.sort_unstable();
            m
        };
        assert_eq!(norm(&batched), norm(&per_tuple));
    }

    #[test]
    fn punctuation_windows_flow_through_pipeline() {
        // FCF punctuation workload end-to-end: punctuations are broadcast
        // to every partition and forwarded to the operator's punctuation
        // entry point, mirroring the direct-API test in gss-windows.
        let factory = |_: usize| {
            let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
            op.add_query(Box::new(gss_windows::PunctuationWindow::new())).unwrap();
            Box::new(op) as Box<dyn WindowAggregator<SumI64>>
        };
        let elements: Vec<StreamElement<(u64, i64)>> = vec![
            StreamElement::Punctuation(0),
            StreamElement::Record { ts: 1, value: (0, 1) },
            StreamElement::Record { ts: 5, value: (0, 5) },
            StreamElement::Punctuation(10),
            StreamElement::Record { ts: 12, value: (0, 12) },
            StreamElement::Punctuation(20),
        ];
        let report = run_keyed(elements, PipelineConfig::default(), factory);
        assert_eq!(report.records, 3);
        let mut results: Vec<(i64, i64, i64)> =
            report.results.iter().map(|(_, r)| (r.range.start, r.range.end, r.value)).collect();
        results.sort_unstable();
        assert_eq!(results, vec![(0, 10, 6), (10, 20, 12)]);
    }

    #[test]
    fn punctuations_broadcast_to_all_partitions() {
        // Two keys on two partitions, values all 1: each partition sees
        // the same punctuation boundaries, so summing a window's results
        // across partitions counts the tuples in its range.
        let factory = |_: usize| {
            let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
            op.add_query(Box::new(gss_windows::PunctuationWindow::new())).unwrap();
            Box::new(op) as Box<dyn WindowAggregator<SumI64>>
        };
        let mut elements: Vec<StreamElement<(u64, i64)>> = Vec::new();
        for i in 0..200i64 {
            if i % 50 == 0 {
                elements.push(StreamElement::Punctuation(i));
            }
            elements.push(StreamElement::Record { ts: i, value: (i as u64 % 2, 1) });
        }
        elements.push(StreamElement::Punctuation(200));
        let report = run_keyed(elements, PipelineConfig::with_parallelism(2), factory);
        assert_eq!(report.records, 200);
        let mut per_window: std::collections::BTreeMap<(i64, i64), i64> =
            std::collections::BTreeMap::new();
        for (_, r) in &report.results {
            *per_window.entry((r.range.start, r.range.end)).or_default() += r.value;
        }
        let windows: Vec<((i64, i64), i64)> = per_window.into_iter().collect();
        assert_eq!(
            windows,
            vec![((0, 50), 50), ((50, 100), 50), ((100, 150), 50), ((150, 200), 50)]
        );
    }

    #[test]
    fn run_per_key_tags_results_with_keys() {
        use gss_core::{KeyedConfig, KeyedWindowOperator};
        let factory = |_: usize| {
            let op = KeyedWindowOperator::new(
                SumI64,
                vec![Box::new(TumblingWindow::new(100))],
                KeyedConfig::default().with_allowed_lateness(100),
            );
            assert!(op.is_shared());
            Box::new(op) as Box<dyn WindowAggregator<gss_core::PerKey<SumI64>>>
        };
        let report = run_per_key(make_elements(1000, 4), PipelineConfig::default(), factory);
        assert_eq!(report.records, 1000);
        // Values are all 1 and keys round-robin, so each complete window
        // contributes 25 per key.
        let mut per_key_window: std::collections::BTreeMap<(u64, i64), i64> =
            std::collections::BTreeMap::new();
        for (_, r) in &report.results {
            assert!(!r.is_update);
            *per_key_window.entry((r.value.0, r.range.start)).or_default() += r.value.1;
        }
        assert_eq!(per_key_window.len(), 4 * 10);
        assert!(per_key_window.values().all(|&v| v == 25));
    }

    #[test]
    fn run_per_key_matches_naive_keyed_across_parallelism() {
        use gss_core::{KeyedConfig, KeyedWindowOperator, NaiveKeyedOperator, PerKey};
        let shared = |_: usize| {
            Box::new(KeyedWindowOperator::new(
                SumI64,
                vec![Box::new(TumblingWindow::new(100))],
                KeyedConfig::default().with_allowed_lateness(100),
            )) as Box<dyn WindowAggregator<PerKey<SumI64>>>
        };
        let naive = |_: usize| {
            Box::new(NaiveKeyedOperator::new(
                SumI64,
                vec![Box::new(TumblingWindow::new(100))],
                KeyedConfig::default().with_allowed_lateness(100),
            )) as Box<dyn WindowAggregator<PerKey<SumI64>>>
        };
        let norm = |r: &PipelineReport<(u64, i64)>| {
            let mut m: Vec<(u64, i64, i64, i64, bool)> = r
                .results
                .iter()
                .map(|(_, w)| (w.value.0, w.range.start, w.range.end, w.value.1, w.is_update))
                .collect();
            m.sort_unstable();
            m
        };
        let a = run_per_key(make_elements(2000, 16), PipelineConfig::default(), shared);
        let b = run_per_key(make_elements(2000, 16), PipelineConfig::with_parallelism(4), shared);
        let c = run_per_key(make_elements(2000, 16), PipelineConfig::default(), naive);
        assert!(!norm(&a).is_empty());
        assert_eq!(norm(&a), norm(&b), "shared keyed must be parallelism-invariant");
        assert_eq!(norm(&a), norm(&c), "shared keyed must match the naive baseline");
    }

    #[test]
    fn report_carries_fold_stats_and_batch_sizes() {
        let report = run_keyed(
            make_elements(2000, 4),
            PipelineConfig::default().with_batch_size(128),
            slicing_factory,
        );
        // SumI64 (testsupport) has no fold kernel, so every folded run is
        // a miss — but runs *were* folded, and every chunk was recorded.
        assert_eq!(report.fold_hits, 0);
        assert!(report.fold_misses > 0, "batched runs must be counted");
        assert!(!report.batch_sizes.is_empty());
        assert_eq!(report.batch_sizes.records(), 2000);
        assert!(report.batch_sizes.max() <= 128);
    }

    #[test]
    fn adaptive_batching_matches_fixed_results() {
        let adaptive = run_keyed(
            make_elements(2000, 8),
            PipelineConfig::default().adaptive(256, Duration::from_millis(1)),
            slicing_factory,
        );
        let fixed = run_keyed(
            make_elements(2000, 8),
            PipelineConfig::default().with_batch_size(256),
            slicing_factory,
        );
        let norm = |r: &PipelineReport<i64>| {
            let mut m: Vec<(usize, i64, i64, i64)> =
                r.results.iter().map(|(p, w)| (*p, w.range.start, w.range.end, w.value)).collect();
            m.sort_unstable();
            m
        };
        assert_eq!(adaptive.records, fixed.records);
        assert_eq!(norm(&adaptive), norm(&fixed));
        assert_eq!(adaptive.batch_sizes.records(), 2000);
    }

    #[test]
    fn size_one_chunks_flow_through_per_record_path() {
        // with_batch_size(1) ships singleton chunks; the worker must
        // route them through `process` and still match batched results.
        let one = run_keyed(
            make_elements(500, 4),
            PipelineConfig::default().with_batch_size(1),
            slicing_factory,
        );
        let big = run_keyed(
            make_elements(500, 4),
            PipelineConfig::default().with_batch_size(512),
            slicing_factory,
        );
        assert_eq!(one.records, big.records);
        assert_eq!(one.result_count, big.result_count);
        assert_eq!(one.batch_sizes.max(), 1);
    }

    #[test]
    fn throughput_only_mode_counts_without_collecting() {
        let report = run_keyed(
            make_elements(500, 4),
            PipelineConfig::default().throughput_only(),
            slicing_factory,
        );
        assert!(report.results.is_empty());
        assert!(report.result_count > 0);
    }
}
