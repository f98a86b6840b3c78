//! The common facade implemented by every window-aggregation technique.
//!
//! The paper compares general stream slicing against tuple buffers,
//! aggregate trees, buckets, Pairs, and Cutty (Section 3 / Section 6). All
//! of them — and the general slicing operator itself — implement
//! [`WindowAggregator`], so the benchmark harness and the dataflow substrate
//! can swap techniques freely.

use crate::function::AggregateFunction;
use crate::result::WindowResult;
use crate::tier::{Tier, WIDE_MIN_RUN};
use crate::time::{Time, TIME_MIN};

/// A drop-in window aggregation operator: feed it tuples and watermarks, it
/// emits window aggregates. Output semantics are identical across
/// techniques (the paper's generality requirement: "general stream slicing
/// replaces alternative operators for window aggregation without changing
/// their input or output semantics").
pub trait WindowAggregator<A: AggregateFunction>: Send {
    /// Processes one stream tuple. Results (if any windows completed on an
    /// in-order stream) are appended to `out`.
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>);

    /// Processes a batch of stream tuples. Semantically identical to
    /// calling [`process`](WindowAggregator::process) once per tuple in
    /// order — same results, same emission points — but implementations
    /// may amortize per-tuple overhead over runs of consecutive tuples
    /// (the batched ingestion fast path). The default simply loops.
    fn process_batch(
        &mut self,
        batch: &[(Time, A::Input)],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        for (ts, value) in batch {
            self.process(*ts, value.clone(), out);
        }
    }

    /// Processes a batch delivered struct-of-arrays: parallel `times` /
    /// `values` columns of equal length. Semantically identical to
    /// [`process_batch`](WindowAggregator::process_batch) over the zipped
    /// pairs; implementations that fold runs in bulk override it to keep
    /// the contiguous values column flowing straight into their fold
    /// kernel. The default re-materializes pairs and delegates, so an
    /// implementation that overrides only `process_batch` is still
    /// reached; the paper baselines override neither and take the loop.
    fn process_batch_columns(
        &mut self,
        times: &[Time],
        values: &[A::Input],
        out: &mut Vec<WindowResult<A::Output>>,
    ) {
        assert_eq!(times.len(), values.len(), "batch columns differ in length");
        let batch: Vec<(Time, A::Input)> =
            times.iter().copied().zip(values.iter().cloned()).collect();
        self.process_batch(&batch, out);
    }

    /// Bulk-fold attribution counters as `(kernel_runs, fallback_runs)`:
    /// how many folded runs went through a hand-written
    /// [`AggregateFunction::fold_slice`] kernel versus the default
    /// lift/combine loop. Techniques without bulk folding report zeros.
    fn fold_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Processes a watermark: emits every window that ended at or before
    /// `wm` and evicts expired state.
    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<A::Output>>);

    /// Processes a stream punctuation marking a window boundary at `ts`
    /// (forward-context-free windows, paper Section 4.4). Only techniques
    /// that support punctuation windows react; the default ignores it, so
    /// punctuations are harmless to every other technique.
    fn on_punctuation(&mut self, ts: Time, out: &mut Vec<WindowResult<A::Output>>) {
        let _ = (ts, out);
    }

    /// Total bytes of operator state (deterministic deep size, the
    /// substitution for the paper's `ObjectSizeCalculator` measurements).
    fn memory_bytes(&self) -> usize;

    /// Technique name for reports ("Lazy Slicing", "Buckets", ...).
    fn name(&self) -> &'static str;

    /// Convenience wrapper allocating a fresh result vector.
    fn process_collect(&mut self, ts: Time, value: A::Input) -> Vec<WindowResult<A::Output>> {
        let mut out = Vec::new();
        self.process(ts, value, &mut out);
        out
    }

    /// Convenience wrapper allocating a fresh result vector.
    fn watermark_collect(&mut self, wm: Time) -> Vec<WindowResult<A::Output>> {
        let mut out = Vec::new();
        self.on_watermark(wm, &mut out);
        out
    }
}

/// Tuples the run scan tests per branch.
const RUN_BLOCK: usize = 8;

/// Length of the longest prefix of the time column `times` that is
/// non-decreasing and stays below `bound`, the caller having checked
/// `times[0]` against its floor. Callers derive `bound` from the nearest
/// state change (slice edge, window completion), so the whole run can be
/// folded with one state touch and exact per-tuple semantics.
///
/// The first [`WIDE_MIN_RUN`] times are scanned by the portable copy of
/// [`run_scan`]; a run that reaches them continues in the copy
/// [`Tier::for_run`] picks, from its last tuple on: that tuple is below
/// `bound`, so the continuation counts it again and nothing else.
#[inline]
pub(crate) fn column_run_len(times: &[Time], bound: Time) -> usize {
    let n = run_scan(&times[..times.len().min(WIDE_MIN_RUN)], bound);
    if n < WIDE_MIN_RUN {
        return n;
    }
    n - 1 + run_scan::at(Tier::for_run(n), &times[n - 1..], bound)
}

/// The run scan of [`column_run_len`], over all of `times`.
///
/// It tests a block of [`RUN_BLOCK`] times per branch: the block
/// joins the run when its first time is at least the previous block's
/// last (the seam), each time is at least its predecessor, and its last
/// time is below `bound` — a non-decreasing block whose last time is below
/// the bound lies wholly below it. The first block that fails, and a tail
/// shorter than a block, go through the one-tuple loop, which finds the
/// exact stop inside them.
#[inline(always)]
fn run_scan(times: &[Time], bound: Time) -> usize {
    let mut prev = TIME_MIN;
    let mut n = 0;
    for c in times.chunks_exact(RUN_BLOCK) {
        let mut ok = c[0] >= prev && c[RUN_BLOCK - 1] < bound;
        for k in 1..RUN_BLOCK {
            ok &= c[k] >= c[k - 1];
        }
        if !ok {
            break;
        }
        prev = c[RUN_BLOCK - 1];
        n += RUN_BLOCK;
    }
    for &ts in &times[n..] {
        if ts < prev || ts >= bound {
            break;
        }
        prev = ts;
        n += 1;
    }
    n
}
crate::tiered!(fn run_scan(times: &[Time], bound: Time) -> usize);

/// Length of the longest prefix of the time column `times` that lies in
/// `[lo, lo + span)`, in any order — the late stretch the batch loop
/// hands to one covering slice. A time is tested by one unsigned compare
/// (`t - lo < span`: a time below `lo` wraps to a huge value).
///
/// Like [`run_scan`] it tests a block of [`RUN_BLOCK`] times per branch
/// and finds the exact stop inside the first failing block, or a tail
/// shorter than a block, one time at a time.
#[inline]
pub(crate) fn column_span_len(times: &[Time], lo: Time, span: u64) -> usize {
    let inside = |t: Time| (t.wrapping_sub(lo) as u64) < span;
    let mut n = 0;
    for c in times.chunks_exact(RUN_BLOCK) {
        let mut ok = true;
        for &t in c {
            ok &= inside(t);
        }
        if !ok {
            break;
        }
        n += RUN_BLOCK;
    }
    for &t in &times[n..] {
        if !inside(t) {
            break;
        }
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TIME_MAX;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one-tuple loop the block scan must agree with.
    fn one_at_a_time(times: &[Time], bound: Time) -> usize {
        let mut prev = TIME_MIN;
        let mut n = 0;
        for &ts in times {
            if ts < prev || ts >= bound {
                break;
            }
            prev = ts;
            n += 1;
        }
        n
    }

    /// Compares the two scans with `bound` at both extremes and just
    /// below, at and just above every element of `times`.
    fn check(times: &[Time]) {
        let mut bounds = vec![TIME_MIN, TIME_MAX];
        for &t in times {
            bounds.extend([t.saturating_sub(1), t, t.saturating_add(1)]);
        }
        for bound in bounds {
            assert_eq!(
                column_run_len(times, bound),
                one_at_a_time(times, bound),
                "{times:?} below {bound}"
            );
        }
    }

    /// The two copies of the run scan return the same length, and the
    /// tiered `column_run_len` the one-tuple scan's, on seeded random
    /// columns of every length up to twice the threshold and 17 more:
    /// ascending with ties, with the domain's extremes, with a descent at
    /// every position and with the bound at every element.
    #[test]
    fn tier_copies_of_the_run_scan_agree() {
        let wide = Tier::widest();
        if !wide.is_wide() {
            println!("no AVX-512F on this CPU: skipped the wide copy of the run scan");
        }
        let check_tiers = |times: &[Time], bound: Time| {
            let want = one_at_a_time(times, bound);
            assert_eq!(run_scan::at(Tier::PORTABLE, times, bound), want, "{times:?} below {bound}");
            assert_eq!(run_scan::at(wide, times, bound), want, "{times:?} below {bound}");
            assert_eq!(column_run_len(times, bound), want, "{times:?} below {bound}");
        };
        let mut rng = StdRng::seed_from_u64(52);
        for len in 0..=2 * WIDE_MIN_RUN + 17 {
            let mut ascending = Vec::with_capacity(len);
            let mut t: Time = rng.gen_range(-1_000..1_000);
            for _ in 0..len {
                ascending.push(t);
                t += rng.gen_range(0..3);
            }
            if len > 2 {
                ascending[0] = TIME_MIN;
                ascending[len - 1] = TIME_MAX;
            }
            let mut bounds = vec![TIME_MIN, TIME_MAX];
            bounds.extend(ascending.iter().map(|&t| t.saturating_add(1)));
            bounds.extend(ascending.iter().copied());
            for &bound in &bounds {
                check_tiers(&ascending, bound);
            }
            for at in 1..len {
                let mut times = ascending.clone();
                times[at] = times[at - 1].saturating_sub(1);
                check_tiers(&times, TIME_MAX);
                check_tiers(&times, times[len - 1]);
            }
        }
    }

    #[test]
    fn block_scan_matches_the_one_tuple_scan() {
        let mut rng = StdRng::seed_from_u64(36);
        // Every remainder mod 8 and mod 16, with a descent and a tie at
        // every position of a strictly ascending column.
        for len in 0..=40usize {
            let mut ascending = Vec::with_capacity(len);
            let mut t: Time = rng.gen_range(-1_000..1_000);
            for _ in 0..len {
                ascending.push(t);
                t += rng.gen_range(2..5);
            }
            check(&ascending);
            for at in 1..len {
                for step in [1, 0] {
                    let mut times = ascending.clone();
                    times[at] = times[at - 1] - step;
                    check(&times);
                }
            }
        }
        // The extremes of the time domain, in runs, at the seam of two
        // blocks and in a descent from the top to the bottom.
        for len in [1, 7, 8, 9, 16, 17, 24] {
            check(&vec![TIME_MIN; len]);
            check(&vec![TIME_MAX; len]);
            for at in 0..len {
                let mut up = vec![TIME_MIN; len];
                up[at..].fill(TIME_MAX);
                check(&up);
                let mut down = vec![TIME_MAX; len];
                down[at..].fill(TIME_MIN);
                check(&down);
            }
        }
    }

    /// The block span scan agrees with a one-time scan on every length up
    /// to 40 with the first outsider at every position, on both sides of
    /// the interval, and at the domain's extremes.
    #[test]
    fn span_scan_matches_the_one_tuple_scan() {
        let one_at_a_time = |times: &[Time], lo: Time, span: u64| {
            times.iter().take_while(|&&t| t >= lo && ((t - lo) as u64) < span).count()
        };
        let mut rng = StdRng::seed_from_u64(53);
        let (lo, span) = (100, 40);
        for len in 0..=40usize {
            let inside: Vec<Time> = (0..len).map(|_| rng.gen_range(lo..lo + 40)).collect();
            assert_eq!(column_span_len(&inside, lo, span), len);
            for at in 0..len {
                for outsider in [lo - 1, lo + 40, TIME_MIN, TIME_MAX] {
                    let mut times = inside.clone();
                    times[at] = outsider;
                    let want = one_at_a_time(&times, lo, span);
                    assert_eq!(want, at);
                    assert_eq!(column_span_len(&times, lo, span), want, "{times:?}");
                }
            }
        }
        let extremes = [TIME_MIN, TIME_MIN + 1, TIME_MAX - 1, TIME_MAX];
        assert_eq!(column_span_len(&extremes, TIME_MIN, 2), 2);
        assert_eq!(column_span_len(&extremes[2..], TIME_MAX - 1, 1), 1);
        assert_eq!(column_span_len(&extremes, TIME_MIN, u64::MAX), 3);
    }
}
