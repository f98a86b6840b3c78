//! Runtime metrics: a log-bucketed latency histogram and a throughput
//! meter, the instrumentation a window operator deployment reports.
//!
//! The histogram uses logarithmic buckets (HdrHistogram-style, base-2 with
//! linear sub-buckets), giving ~6 % relative error over nine orders of
//! magnitude at a fixed 2 KiB footprint — enough to report the paper's
//! latency classes (nanoseconds for buckets, microseconds for eager
//! stores, milliseconds for lazy ones) from one structure.

use std::time::Duration;

const SUB_BUCKET_BITS: u32 = 4; // 16 linear sub-buckets per octave
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const OCTAVES: usize = 40; // covers 1ns .. ~1100s

/// Log bucket index of a value.
fn bucket_of(n: u64) -> usize {
    if n < SUB_BUCKETS as u64 {
        return n as usize;
    }
    let octave = 63 - n.leading_zeros() as usize; // floor(log2 n)
    let shift = octave - SUB_BUCKET_BITS as usize;
    let sub = ((n >> shift) as usize) & (SUB_BUCKETS - 1);
    let idx = (octave - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS + sub;
    idx.min(OCTAVES * SUB_BUCKETS - 1)
}

/// Representative (lower-bound) value of a bucket.
fn bucket_floor(idx: usize) -> u64 {
    let octave = idx / SUB_BUCKETS;
    let sub = (idx % SUB_BUCKETS) as u64;
    if octave == 0 {
        return sub;
    }
    let shift = octave - 1;
    ((SUB_BUCKETS as u64) + sub) << shift
}

/// The one log-bucket histogram behind both typed fronts: bucket counts
/// plus exact count, sum, min and max of the raw `u64` samples.
#[derive(Clone)]
struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; OCTAVES * SUB_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }
}

impl LogHistogram {
    fn record(&mut self, n: u64) {
        self.counts[bucket_of(n)] += 1;
        self.total += 1;
        self.sum += n as u128;
        self.max = self.max.max(n);
        self.min = self.min.min(n);
    }

    /// Smallest sample; 0 when empty (`min` then still sits above `max`).
    fn min(&self) -> u64 {
        self.min.min(self.max)
    }

    /// Value at quantile `q` in `[0, 1]` (bucket lower bound — a slight
    /// underestimate, bounded by the bucket's ~6 % width); 0 when empty.
    fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// Fixed-size log-bucketed histogram of nanosecond values.
#[derive(Clone, Default)]
pub struct LatencyHistogram(LogHistogram);

/// Summarized rather than bucket-dumped: the histogram embeds in larger
/// `#[derive(Debug)]` structs (e.g. `PipelineReport`) without printing 640
/// bucket counters.
impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHistogram({})", self.summary())
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.0.record(ns);
    }

    pub fn count(&self) -> u64 {
        self.0.total
    }

    pub fn is_empty(&self) -> bool {
        self.0.total == 0
    }

    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.0.max)
    }

    pub fn min(&self) -> Duration {
        Duration::from_nanos(self.0.min())
    }

    pub fn mean(&self) -> Duration {
        Duration::from_nanos((self.0.sum / self.0.total.max(1) as u128) as u64)
    }

    /// Value at quantile `q` in `[0, 1]` (bucket lower bound — a slight
    /// underestimate, bounded by the bucket's ~6 % width).
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.0.quantile(q))
    }

    /// Merges another histogram into this one (for per-partition metrics).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.0.merge(&other.0);
    }

    /// One-line summary: `n=.. mean=.. p50=.. p99=.. max=..`.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:?} p50={:?} p99={:?} max={:?}",
            self.count(),
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// Log-bucketed histogram of achieved batch sizes: how many records each
/// chunk actually carried when the source flushed it. Under adaptive
/// batching the distribution is the diagnostic — a mode at the target
/// size means the stream is fast enough to fill chunks, a spread of small
/// sizes means the latency deadline (or a watermark) is doing the
/// flushing. Same bucket layout as [`LatencyHistogram`], so the relative
/// error is ~6 % and the footprint fixed.
#[derive(Clone, Default)]
pub struct BatchSizeHistogram(LogHistogram);

impl std::fmt::Debug for BatchSizeHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BatchSizeHistogram({})", self.summary())
    }
}

impl BatchSizeHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one flushed chunk of `size` records.
    pub fn record(&mut self, size: usize) {
        self.0.record(gss_core::cast::to_u64(size));
    }

    /// Number of chunks recorded.
    pub fn count(&self) -> u64 {
        self.0.total
    }

    /// Total records across all recorded chunks.
    pub fn records(&self) -> u64 {
        self.0.sum.min(u64::MAX as u128) as u64
    }

    pub fn is_empty(&self) -> bool {
        self.0.total == 0
    }

    pub fn max(&self) -> u64 {
        self.0.max
    }

    pub fn min(&self) -> u64 {
        self.0.min()
    }

    /// Mean chunk size.
    pub fn mean(&self) -> f64 {
        self.0.sum as f64 / self.0.total.max(1) as f64
    }

    /// Chunk size at quantile `q` in `[0, 1]` (bucket lower bound).
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.quantile(q)
    }

    /// Merges another histogram into this one (for per-partition metrics).
    pub fn merge(&mut self, other: &BatchSizeHistogram) {
        self.0.merge(&other.0);
    }

    /// One-line summary: `chunks=.. mean=.. p50=.. p99=.. max=..`.
    pub fn summary(&self) -> String {
        format!(
            "chunks={} mean={:.1} p50={} p99={} max={}",
            self.count(),
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 3, 3, 10, 15] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Duration::from_nanos(1));
        assert_eq!(h.max(), Duration::from_nanos(15));
        assert_eq!(h.quantile(0.5), Duration::from_nanos(3));
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        // One sample: every quantile must be within ~6.25% of the value.
        for value in [100u64, 10_000, 1_000_000, 123_456_789] {
            let mut h1 = LatencyHistogram::new();
            h1.record_ns(value);
            let got = h1.quantile(0.5).as_nanos() as f64;
            let rel = (value as f64 - got).abs() / value as f64;
            assert!(rel <= 0.0626, "value {value}: got {got}, rel err {rel}");
            h.record_ns(value);
        }
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record_ns((x % 1_000_000) + i % 97);
        }
        let mut prev = Duration::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile {q} regressed: {v:?} < {prev:?}");
            prev = v;
        }
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..1_000u64 {
            let ns = i * 37 % 10_000;
            if i % 2 == 0 {
                a.record_ns(ns);
            } else {
                b.record_ns(ns);
            }
            c.record_ns(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.mean(), c.mean());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn summary_is_readable() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(5));
        let s = h.summary();
        assert!(s.contains("n=1"));
        assert!(s.contains("mean="));
    }

    #[test]
    fn batch_size_histogram_tracks_chunks() {
        let mut h = BatchSizeHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        for size in [1usize, 1, 4096, 4096, 4096, 4096] {
            h.record(size);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.records(), 2 + 4 * 4096);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 4096);
        assert!((h.mean() - (2.0 + 4.0 * 4096.0) / 6.0).abs() < 1e-9);
        // Small sizes land in exact buckets; 4096 within ~6 %.
        assert_eq!(h.quantile(0.0), 1);
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 4096.0).abs() / 4096.0 <= 0.0626, "p99={p99}");
    }

    #[test]
    fn batch_size_merge_equals_combined() {
        let mut a = BatchSizeHistogram::new();
        let mut b = BatchSizeHistogram::new();
        let mut c = BatchSizeHistogram::new();
        for i in 1..500usize {
            if i % 2 == 0 {
                a.record(i);
            } else {
                b.record(i);
            }
            c.record(i);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.records(), c.records());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }
}
