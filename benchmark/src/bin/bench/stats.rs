//! The estimators, chosen for the host this benchmark actually runs on: a
//! shared 2-core VM where a neighbour moves the *median* pass time by
//! tens of percent between runs while the fast tail of many short,
//! equal-work passes repeats within a few percent (evidence in README.md).
//!
//! * throughput comes from the **floor** pass time — the 0.2nd
//!   percentile, never with fewer than ten faster samples;
//! * latency percentiles come from the **quiet** passes, the fastest
//!   hundredth.
//!
//! In a busy hour the host leaves only a few percent of the passes alone
//! (fewer of a pipeline's, which needs both cores quiet at once): the 2nd
//! percentile and the fastest tenth then sat on the edge between quiet and
//! disturbed passes and flipped from run to run, where these do not.

/// Share of passes below the floor time.
pub const FLOOR_SHARE: f64 = 0.002;
/// Samples that must lie beyond a reported percentile (and below a floor).
pub const MIN_BEYOND: usize = 10;
/// Share of passes that count as quiet.
pub const QUIET_SHARE: f64 = 0.01;

/// The floor of a series of pass times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    pub ns: f64,
    /// Passes strictly faster-ranked than the floor pass.
    pub faster: usize,
    pub passes: usize,
    /// False when the series is too short for ten faster samples (smoke
    /// runs); the value is then the median and is not a floor.
    pub supported: bool,
}

/// Floor time of a run: the pass at rank `max(10, 0.2 % of n)`, so at
/// least ten passes were faster. A series too short for that falls back to its
/// median, flagged unsupported.
pub fn floor_time(pass_ns: &[u64]) -> Floor {
    let mut sorted = pass_ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n == 0 {
        return Floor { ns: f64::NAN, faster: 0, passes: 0, supported: false };
    }
    let rank = ((n as f64 * FLOOR_SHARE) as usize).max(MIN_BEYOND);
    if rank >= n {
        return Floor { ns: median_sorted(&sorted), faster: n / 2, passes: n, supported: false };
    }
    Floor { ns: sorted[rank] as f64, faster: rank, passes: n, supported: true }
}

/// Indices of the quiet passes: the fastest hundredth (at least one),
/// fastest first. Where that holds few samples — a workload whose windows
/// all close at one watermark has a single emitting call per pass, and the
/// long-pass workloads have few passes — it is extended, next-fastest pass
/// first, until it holds `min_samples`, so that a 95th percentile over them
/// keeps ten samples beyond it.
pub fn quiet_passes(
    pass_ns: &[u64],
    samples_in: impl Fn(usize) -> usize,
    min_samples: usize,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pass_ns.len()).collect();
    idx.sort_by_key(|&i| (pass_ns[i], i));
    let share = ((pass_ns.len() as f64 * QUIET_SHARE) as usize).max(1).min(pass_ns.len());
    let mut samples: usize = idx[..share].iter().map(|&i| samples_in(i)).sum();
    let mut keep = share;
    while samples < min_samples && keep < idx.len() {
        samples += samples_in(idx[keep]);
        keep += 1;
    }
    idx.truncate(keep);
    idx
}

/// Samples a 95th percentile needs for [`MIN_BEYOND`] samples beyond it.
pub const P95_MIN_SAMPLES: usize = MIN_BEYOND * 20;

/// A percentile with the sample count that backs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Pct {
    /// The sample-count rule: a tail percentile is only as good as the
    /// samples beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile of an ascending series.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Pct {
    let n = sorted.len();
    if n == 0 {
        return Pct { value: f64::NAN, samples: 0, beyond: 0 };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct { value: sorted[rank - 1] as f64, samples: n, beyond: n - rank }
}

pub fn median_sorted(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

pub fn median(xs: &[u64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    median_sorted(&sorted)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), which is what the acceptance check uses.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// `n` passes of `base` ns with 0–2 % timer jitter, of which a share
    /// `hit` is slowed by a neighbour by a factor in `1..1+slow`.
    fn series(seed: u64, n: usize, base: u64, hit: f64, slow: f64) -> Vec<u64> {
        let mut r = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let jitter = 1.0 + r.below(2_000) as f64 / 100_000.0;
                let contended = (r.below(1_000_000) as f64) < hit * 1e6;
                let factor =
                    if contended { 1.0 + slow * r.below(1_000) as f64 / 1_000.0 } else { 1.0 };
                (base as f64 * jitter * factor) as u64
            })
            .collect()
    }

    #[test]
    fn floor_is_stable_where_the_median_moves() {
        // Same work, three contention levels: 10 %, 50 % and 80 % of the
        // passes disturbed by up to 2x.
        let runs = [
            series(1, 5_000, 700_000, 0.1, 1.0),
            series(2, 5_000, 700_000, 0.5, 1.0),
            series(3, 5_000, 700_000, 0.8, 1.0),
        ];
        let floors: Vec<f64> = runs.iter().map(|r| floor_time(r).ns).collect();
        let medians: Vec<f64> = runs.iter().map(|r| median(r)).collect();
        let spread = |v: &[f64]| {
            let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            (hi - lo) / lo
        };
        assert!(spread(&floors) < 0.01, "floors moved {:?}", floors);
        assert!(spread(&medians) > 0.15, "medians should move under contention: {:?}", medians);
    }

    #[test]
    fn floor_has_ten_faster_samples_or_says_so() {
        let f = floor_time(&series(4, 50_000, 1_000, 0.3, 1.0));
        assert!(f.supported);
        assert_eq!((f.faster, f.passes), (100, 50_000));
        // 3000 passes: 0.2 % would be 6 samples, so the rank rises to 10.
        let f = floor_time(&series(5, 3_000, 1_000, 0.3, 1.0));
        assert!(f.supported);
        assert_eq!(f.faster, 10);
        // Too short for any floor: falls back to the median and says so.
        let f = floor_time(&[5, 1, 9]);
        assert!(!f.supported);
        assert_eq!(f.ns, 5.0);
        assert!(!floor_time(&[]).supported);
    }

    #[test]
    fn quiet_passes_are_the_fastest_hundredth() {
        // Nineteen passes in twenty are disturbed.
        let s = series(6, 10_000, 700_000, 0.95, 1.0);
        let q = quiet_passes(&s, |_| 16, P95_MIN_SAMPLES);
        assert_eq!(q.len(), 100);
        let slowest_quiet = q.iter().map(|&i| s[i]).max().unwrap();
        let faster = s.iter().filter(|&&x| x < slowest_quiet).count();
        assert!(faster < 100, "{faster} passes beat the slowest quiet pass");
        // Contended passes never qualify while a hundredth ran undisturbed.
        assert!(slowest_quiet as f64 <= 700_000.0 * 1.02);
        assert_eq!(quiet_passes(&[3, 1, 2], |_| 1, 1), vec![1]);
    }

    #[test]
    fn quiet_passes_extend_until_the_p95_has_ten_samples_beyond_it() {
        let s = series(7, 1_000, 700_000, 0.5, 1.0);
        // One emitting call per pass: the hundredth holds 10 samples, 200
        // are needed, so the next-fastest passes join.
        let q = quiet_passes(&s, |_| 1, P95_MIN_SAMPLES);
        assert_eq!(q.len(), 200);
        assert!(q.windows(2).all(|w| s[w[0]] <= s[w[1]]), "fastest first");
        let sorted: Vec<u64> = (0..200).collect();
        assert!(percentile_sorted(&sorted, 0.95).supported());
        // Too short a run to ever get there: every pass is used.
        assert_eq!(quiet_passes(&s[..50], |_| 1, P95_MIN_SAMPLES).len(), 50);
    }

    #[test]
    fn percentile_reports_the_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=200).collect();
        let p95 = percentile_sorted(&sorted, 0.95);
        assert_eq!((p95.value, p95.samples, p95.beyond), (190.0, 200, 10));
        assert!(p95.supported());
        let p95 = percentile_sorted(&sorted[..199], 0.95);
        assert_eq!(p95.beyond, 9);
        assert!(!p95.supported());
        let p50 = percentile_sorted(&sorted, 0.5);
        assert_eq!(p50.value, 100.0);
        assert_eq!(percentile_sorted(&[], 0.5).samples, 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
