//! Hand-unrolled lane accumulators for the bulk fold kernels.
//!
//! Each helper here is the body of one function's
//! [`gss_core::AggregateFunction::fold_slice`] override — the only kernel
//! entry of the trait, which every fold site calls on a contiguous run
//! whatever its length, `(value, arg)` pairs included.
//!
//! LLVM auto-vectorizes the monomorphized default fold for some functions
//! (integer sum) but the idiom is fragile: a contiguous
//! `fold(i64::MAX, min)` reduction is *not* recognized, and f64 reductions
//! cannot be reassociated at all under the default float semantics. The
//! helpers here make the vector shape explicit on stable Rust (no
//! `std::simd`): a run is split across 4–8 independent accumulator lanes
//! updated in a fixed pattern the backend can keep in vector registers,
//! the lanes are reduced in a fixed order, and a scalar tail handles the
//! remainder. Wider pipelines get the same win from the independent
//! dependency chains even when the backend does not emit packed ops.
//!
//! # Reassociation and determinism policy
//!
//! Every kernel here reorders the abstract fold, so each documents why the
//! result is still exact — or, for floats, exactly how it may differ:
//!
//! * **Exact, order-insensitive folds** (integer min/max, min/max-with-
//!   count, arg-min/arg-max under the lexicographic `(value, arg)`
//!   tie-break): the fold computes the minimum of a total order, which is
//!   associative, commutative, and idempotent, so *any* lane split —
//!   including the SIMD-friendly strided split used here — returns the
//!   exact same bits as the sequential left fold. These kernels are pinned
//!   bit-identical to [`gss_core::AggregateFunction::lift_all`] by the
//!   proptest grid.
//! * **Exact, order-sensitive folds** (M4's first/last timestamp
//!   tie-breaks): the combine is associative but *not* commutative on
//!   ties, so those kernels (in [`crate::m4`]) use an order-preserving
//!   block split — each lane owns one contiguous block, lanes are reduced
//!   in stream order — which is pure re-parenthesization and therefore
//!   also bit-identical.
//! * **Float folds** (the `Σv`/`Σv²` moments in [`crate::stats`]): f64
//!   addition is not associative, so the strided lane split changes
//!   low-order bits relative to the sequential fold. The policy is
//!   *fixed-shape determinism*: the lane count, the strided element→lane
//!   assignment, the pairwise lane-reduction order, and the in-order
//!   scalar tail are all compile-time constants, so a given input slice
//!   produces the same bits on every call, every run, and every machine
//!   with IEEE-754 f64. Against the sequential fold the result is
//!   ulp-bounded by standard summation error analysis (|err| ≤ n·ε·Σ|xᵢ|),
//!   which the proptest grid checks with that exact bound.

/// Lane width for 8-byte integer reductions: eight lanes fill one AVX-512
/// register or two AVX2 registers, and still buy seven extra independent
/// dependency chains on narrower hardware.
const INT_LANES: usize = 8;

/// Lane width for paired `(i64, i64)` and f64 reductions: the state is
/// twice as wide per element, so four lanes keep the working set in
/// registers.
const PAIR_LANES: usize = 4;

/// Strided 8-lane minimum. Exact: `min` over `i64` is associative,
/// commutative, and idempotent (seeding every lane with the first element
/// double-counts it harmlessly), so the result is bit-identical to the
/// sequential fold while the inner loop is a branch-free packed-min
/// candidate instead of a serial dependency chain.
pub(crate) fn min_i64(values: &[i64]) -> Option<i64> {
    let (&first, _) = values.split_first()?;
    let mut lanes = [first; INT_LANES];
    let mut chunks = values.chunks_exact(INT_LANES);
    for c in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(c) {
            *lane = (*lane).min(v);
        }
    }
    let mut acc = first;
    for &lane in &lanes {
        acc = acc.min(lane);
    }
    for &v in chunks.remainder() {
        acc = acc.min(v);
    }
    Some(acc)
}

/// Strided 8-lane maximum; mirror of [`min_i64`].
pub(crate) fn max_i64(values: &[i64]) -> Option<i64> {
    let (&first, _) = values.split_first()?;
    let mut lanes = [first; INT_LANES];
    let mut chunks = values.chunks_exact(INT_LANES);
    for c in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(c) {
            *lane = (*lane).max(v);
        }
    }
    let mut acc = first;
    for &lane in &lanes {
        acc = acc.max(lane);
    }
    for &v in chunks.remainder() {
        acc = acc.max(v);
    }
    Some(acc)
}

/// Minimum plus the number of elements attaining it, as two vectorizable
/// passes: the lane minimum above, then a branch-free equality count.
/// Exact and order-insensitive — both the extremum and its multiplicity
/// are independent of fold order — hence bit-identical to the sequential
/// lift/combine fold of `MinCount`.
pub(crate) fn min_count_i64(values: &[i64]) -> Option<(i64, u64)> {
    let m = min_i64(values)?;
    let mut count = 0u64;
    for &v in values {
        count += u64::from(v == m);
    }
    Some((m, count))
}

/// Maximum plus attaining count; mirror of [`min_count_i64`].
pub(crate) fn max_count_i64(values: &[i64]) -> Option<(i64, u64)> {
    let m = max_i64(values)?;
    let mut count = 0u64;
    for &v in values {
        count += u64::from(v == m);
    }
    Some((m, count))
}

/// Strided 4-lane arg-minimum over `(value, arg)` pairs with the
/// lexicographic tie-break (smallest `arg` wins among equal values).
/// Exact: the fold is the minimum of the total order `(value, arg)`, so
/// lane order cannot change which element wins — bit-identical to the
/// sequential fold. The lane update is a pair of conditional moves, never
/// a data-dependent branch, replacing the three-way compare chain of the
/// per-element combine.
pub(crate) fn arg_min_pairs(values: &[(i64, i64)]) -> Option<(i64, i64)> {
    let (&(fv, fa), _) = values.split_first()?;
    let mut lv = [fv; PAIR_LANES];
    let mut la = [fa; PAIR_LANES];
    let mut chunks = values.chunks_exact(PAIR_LANES);
    for c in &mut chunks {
        for ((bv, ba), &(v, a)) in lv.iter_mut().zip(la.iter_mut()).zip(c) {
            let take = v < *bv || (v == *bv && a < *ba);
            *bv = if take { v } else { *bv };
            *ba = if take { a } else { *ba };
        }
    }
    let (mut bv, mut ba) = (fv, fa);
    for (&v, &a) in lv.iter().zip(&la) {
        let take = v < bv || (v == bv && a < ba);
        bv = if take { v } else { bv };
        ba = if take { a } else { ba };
    }
    for &(v, a) in chunks.remainder() {
        let take = v < bv || (v == bv && a < ba);
        bv = if take { v } else { bv };
        ba = if take { a } else { ba };
    }
    Some((bv, ba))
}

/// Strided 4-lane arg-maximum; mirror of [`arg_min_pairs`] under the total
/// order (−value, arg).
pub(crate) fn arg_max_pairs(values: &[(i64, i64)]) -> Option<(i64, i64)> {
    let (&(fv, fa), _) = values.split_first()?;
    let mut lv = [fv; PAIR_LANES];
    let mut la = [fa; PAIR_LANES];
    let mut chunks = values.chunks_exact(PAIR_LANES);
    for c in &mut chunks {
        for ((bv, ba), &(v, a)) in lv.iter_mut().zip(la.iter_mut()).zip(c) {
            let take = v > *bv || (v == *bv && a < *ba);
            *bv = if take { v } else { *bv };
            *ba = if take { a } else { *ba };
        }
    }
    let (mut bv, mut ba) = (fv, fa);
    for (&v, &a) in lv.iter().zip(&la) {
        let take = v > bv || (v == bv && a < ba);
        bv = if take { v } else { bv };
        ba = if take { a } else { ba };
    }
    for &(v, a) in chunks.remainder() {
        let take = v > bv || (v == bv && a < ba);
        bv = if take { v } else { bv };
        ba = if take { a } else { ba };
    }
    Some((bv, ba))
}

/// Strided 4-lane `(Σv, Σv²)` over `i64` values widened to f64 — the
/// reassociated float kernel of the module policy above. Element `i` goes
/// to lane `i % PAIR_LANES`; lanes reduce pairwise in the fixed order
/// `(l0+l1) + (l2+l3)`; the `len % PAIR_LANES` tail adds in stream order.
/// All shape constants are compile time, so the result is deterministic
/// across calls, runs, and IEEE-754 machines, and differs from the
/// sequential fold only by bounded rounding (|err| ≤ n·ε·Σ|xᵢ| per sum).
pub(crate) fn moments_sums(values: &[i64]) -> (f64, f64) {
    let mut sum = [0.0f64; PAIR_LANES];
    let mut sq = [0.0f64; PAIR_LANES];
    let mut chunks = values.chunks_exact(PAIR_LANES);
    for c in &mut chunks {
        for ((s, q), &v) in sum.iter_mut().zip(sq.iter_mut()).zip(c) {
            let x = v as f64;
            *s += x;
            *q += x * x;
        }
    }
    let mut s = (sum[0] + sum[1]) + (sum[2] + sum[3]);
    let mut q = (sq[0] + sq[1]) + (sq[2] + sq[3]);
    for &v in chunks.remainder() {
        let x = v as f64;
        s += x;
        q += x * x;
    }
    (s, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 73 - 9000) % 513).collect()
    }

    #[test]
    fn min_max_lanes_match_iterator_folds() {
        for n in [0, 1, 2, 7, 8, 9, 16, 63, 64, 65, 257] {
            let v = data(n);
            assert_eq!(min_i64(&v), v.iter().copied().min(), "min len {n}");
            assert_eq!(max_i64(&v), v.iter().copied().max(), "max len {n}");
        }
    }

    #[test]
    fn extremum_counts_count_all_ties() {
        assert_eq!(min_count_i64(&[]), None);
        assert_eq!(min_count_i64(&[5]), Some((5, 1)));
        assert_eq!(min_count_i64(&[3, 1, 1, 2, 1]), Some((1, 3)));
        assert_eq!(max_count_i64(&[3, 3, 1, 2]), Some((3, 2)));
        // Ties split across lane boundaries are still all counted.
        let mut v = vec![9i64; 40];
        v[0] = -4;
        v[13] = -4;
        v[39] = -4;
        assert_eq!(min_count_i64(&v), Some((-4, 3)));
    }

    #[test]
    fn arg_extrema_respect_lexicographic_tie_break() {
        assert_eq!(arg_min_pairs(&[]), None);
        assert_eq!(arg_min_pairs(&[(7, 42)]), Some((7, 42)));
        // Equal minima: the smallest arg wins regardless of lane placement.
        let mut v: Vec<(i64, i64)> = (0..37).map(|i| (100 + i, i)).collect();
        v[5] = (1, 900);
        v[22] = (1, 3);
        v[30] = (1, 450);
        assert_eq!(arg_min_pairs(&v), Some((1, 3)));
        let mut w: Vec<(i64, i64)> = (0..37).map(|i| (100 - i, i)).collect();
        w[4] = (999, 70);
        w[23] = (999, 7);
        assert_eq!(arg_max_pairs(&w), Some((999, 7)));
    }

    #[test]
    fn moments_sums_are_deterministic_and_close_to_sequential() {
        for n in [0, 1, 3, 4, 5, 64, 301] {
            let v = data(n);
            let (s1, q1) = moments_sums(&v);
            let (s2, q2) = moments_sums(&v.clone());
            // Bitwise repeatability, not approximate equality.
            assert_eq!(s1.to_bits(), s2.to_bits(), "len {n}");
            assert_eq!(q1.to_bits(), q2.to_bits(), "len {n}");
            let (mut ss, mut qq) = (0.0f64, 0.0f64);
            let mut abs_s = 0.0f64;
            for &x in &v {
                let x = x as f64;
                ss += x;
                qq += x * x;
                abs_s += x.abs();
            }
            let tol_s = (n as f64) * f64::EPSILON * abs_s;
            let tol_q = (n as f64) * f64::EPSILON * qq.abs();
            assert!((s1 - ss).abs() <= tol_s, "sum len {n}: {s1} vs {ss}");
            assert!((q1 - qq).abs() <= tol_q, "sum_sq len {n}: {q1} vs {qq}");
        }
    }
}
