//! Distributive and algebraic basics: count, sum, average.
//!
//! Each function overrides [`AggregateFunction::fold_slice`] with a bulk
//! kernel: a tight loop over the contiguous `&[i64]` input with no
//! per-element branches and no `Option` accumulator, which the compiler
//! auto-vectorizes. The kernels are bit-for-bit equivalent to the default
//! lift/combine fold (integer `+` is associative and commutative), which
//! the `fold_kernels_match_default` test and the proptest equivalence grid
//! both pin.

use gss_core::tier::Tier;
use gss_core::{cast, AggregateFunction, FunctionKind, FunctionProperties};

/// Integer-sum kernel shared by [`Sum`], [`SumNoInvert`] and [`Avg`]: a
/// plain reduction loop with a bare accumulator, vectorizable because
/// there is no per-element `Option` check or branch. A run of
/// `WIDE_MIN_RUN` tuples or more takes the loop's AVX-512F copy where the
/// CPU has it.
#[inline]
fn sum_kernel(values: &[i64]) -> Option<i64> {
    sum_loop::at(Tier::for_run(values.len()), values)
}

/// The body of [`sum_kernel`].
#[inline(always)]
pub(crate) fn sum_loop(values: &[i64]) -> Option<i64> {
    if values.is_empty() {
        return None;
    }
    let mut acc = 0i64;
    for &v in values {
        acc += v;
    }
    Some(acc)
}
gss_core::tiered!(pub(crate) fn sum_loop(values: &[i64]) -> Option<i64>);

/// Tuple count. Distributive, commutative, invertible.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountAgg;

impl AggregateFunction for CountAgg {
    type Input = i64;
    type Partial = u64;
    type Output = u64;

    fn lift(&self, _v: &i64) -> u64 {
        1
    }
    fn combine(&self, a: u64, b: &u64) -> u64 {
        a + b
    }
    fn lower(&self, p: &u64) -> u64 {
        *p
    }
    fn invert(&self, a: u64, b: &u64) -> Option<u64> {
        Some(a - b)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Distributive }
    }
    /// A count over a run is its length — the degenerate kernel.
    fn fold_slice(&self, values: &[i64]) -> Option<u64> {
        (!values.is_empty()).then(|| cast::to_u64(values.len()))
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Integer sum. Distributive, commutative, invertible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum;

impl AggregateFunction for Sum {
    type Input = i64;
    type Partial = i64;
    type Output = i64;

    fn lift(&self, v: &i64) -> i64 {
        *v
    }
    fn combine(&self, a: i64, b: &i64) -> i64 {
        a + b
    }
    fn lower(&self, p: &i64) -> i64 {
        *p
    }
    fn invert(&self, a: i64, b: &i64) -> Option<i64> {
        Some(a - b)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Distributive }
    }
    fn fold_slice(&self, values: &[i64]) -> Option<i64> {
        sum_kernel(values)
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Integer sum without ⊖ (`invert` stays `None`) — the "sum w/o invert"
/// baseline of paper Figure 13, standing in for arbitrary non-invertible
/// aggregations whose removals always force recomputation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumNoInvert;

impl AggregateFunction for SumNoInvert {
    type Input = i64;
    type Partial = i64;
    type Output = i64;

    fn lift(&self, v: &i64) -> i64 {
        *v
    }
    fn combine(&self, a: i64, b: &i64) -> i64 {
        a + b
    }
    fn lower(&self, p: &i64) -> i64 {
        *p
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Distributive }
    }
    fn fold_slice(&self, values: &[i64]) -> Option<i64> {
        sum_kernel(values)
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Partial aggregate of an average: `⟨sum, count⟩` (the paper's Section
/// 5.4.1 example).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvgPartial {
    pub sum: i64,
    pub count: u64,
}

impl gss_core::HeapSize for AvgPartial {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Arithmetic mean. Algebraic (fixed-size partial), commutative,
/// invertible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Avg;

impl AggregateFunction for Avg {
    type Input = i64;
    type Partial = AvgPartial;
    type Output = f64;

    fn lift(&self, v: &i64) -> AvgPartial {
        AvgPartial { sum: *v, count: 1 }
    }
    fn combine(&self, a: AvgPartial, b: &AvgPartial) -> AvgPartial {
        AvgPartial { sum: a.sum + b.sum, count: a.count + b.count }
    }
    fn lower(&self, p: &AvgPartial) -> f64 {
        if p.count == 0 {
            f64::NAN
        } else {
            p.sum as f64 / p.count as f64
        }
    }
    fn invert(&self, a: AvgPartial, b: &AvgPartial) -> Option<AvgPartial> {
        Some(AvgPartial { sum: a.sum - b.sum, count: a.count - b.count })
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }
    /// One vectorized sum pass; the count is the run length.
    fn fold_slice(&self, values: &[i64]) -> Option<AvgPartial> {
        let sum = sum_kernel(values)?;
        Some(AvgPartial { sum, count: cast::to_u64(values.len()) })
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_counts() {
        let c = CountAgg;
        let p = c.lift_all([&5, &6, &7]).unwrap();
        assert_eq!(c.lower(&p), 3);
        assert_eq!(c.invert(p, &1), Some(2));
    }

    #[test]
    fn sum_laws() {
        let s = Sum;
        // Associativity on a few values.
        for (a, b, c) in [(1, 2, 3), (-5, 9, 0), (100, -100, 7)] {
            let left = s.combine(s.combine(a, &b), &c);
            let right = s.combine(a, &s.combine(b, &c));
            assert_eq!(left, right);
            assert_eq!(s.combine(a, &b), s.combine(b, &a));
            assert_eq!(s.invert(s.combine(a, &b), &b), Some(a));
        }
    }

    #[test]
    fn avg_lowers_to_mean() {
        let f = Avg;
        let p = f.lift_all([&2, &4, &9]).unwrap();
        assert_eq!(p, AvgPartial { sum: 15, count: 3 });
        assert!((f.lower(&p) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn avg_of_empty_is_nan() {
        let f = Avg;
        assert!(f.lower(&AvgPartial::default()).is_nan());
    }

    #[test]
    fn avg_invert_removes_partial() {
        let f = Avg;
        let ab = f.combine(f.lift(&10), &f.lift(&20));
        let a = f.invert(ab, &f.lift(&20)).unwrap();
        assert_eq!(a, f.lift(&10));
    }

    #[test]
    fn fold_kernels_match_default() {
        let values: Vec<i64> = (0..257).map(|i| (i * 37 - 500) % 91).collect();
        assert!(CountAgg.has_fold_kernel() && Sum.has_fold_kernel() && Avg.has_fold_kernel());
        for len in [0, 1, 2, 15, 16, 17, 256, 257] {
            let v = &values[..len];
            assert_eq!(Sum.fold_slice(v), Sum.lift_all(v));
            assert_eq!(SumNoInvert.fold_slice(v), SumNoInvert.lift_all(v));
            assert_eq!(CountAgg.fold_slice(v), CountAgg.lift_all(v));
            assert_eq!(Avg.fold_slice(v), Avg.lift_all(v));
        }
    }
}
