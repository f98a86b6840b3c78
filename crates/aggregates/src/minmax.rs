//! Min/max-family aggregations: min, max, min-count, max-count, arg-min,
//! arg-max.
//!
//! All are distributive (or algebraic with small fixed partials),
//! commutative, and **not invertible** in general — yet the paper observes
//! (Figure 13) that their count-window throughput barely degrades because
//! most removals do not touch the extremum and thus skip recomputation.
//! Each `invert` here is that partial ⊖: it returns `Some` when it can
//! state the aggregate of what remains exactly, and `None` when it cannot
//! (the removed value may have been the extremum). The slicing core tries
//! it on every count shift and recomputes the slice from its tuples on
//! `None`.

use gss_core::{AggregateFunction, FunctionKind, FunctionProperties, HeapSize};

/// Minimum. Distributive, commutative, not invertible — but removals of
/// values above the minimum are free.
#[derive(Debug, Clone, Copy, Default)]
pub struct Min;

impl AggregateFunction for Min {
    type Input = i64;
    type Partial = i64;
    type Output = i64;

    fn lift(&self, v: &i64) -> i64 {
        *v
    }
    fn combine(&self, a: i64, b: &i64) -> i64 {
        a.min(*b)
    }
    fn lower(&self, p: &i64) -> i64 {
        *p
    }
    fn invert(&self, a: i64, b: &i64) -> Option<i64> {
        // Removing a value strictly above the minimum leaves it unchanged.
        // Removing the minimum itself requires recomputation.
        (*b > a).then_some(a)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Distributive }
    }
    /// Explicit 8-lane reduction (`lanes::min_i64`): the naive
    /// contiguous `fold(min)` is exactly the reduction idiom LLVM fails to
    /// recognize, so the lane split makes the vector shape explicit rather
    /// than hoping. Exact — see the `lanes` policy.
    fn fold_slice(&self, values: &[i64]) -> Option<i64> {
        crate::lanes::min_i64(values)
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Maximum. Mirror image of [`Min`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Max;

impl AggregateFunction for Max {
    type Input = i64;
    type Partial = i64;
    type Output = i64;

    fn lift(&self, v: &i64) -> i64 {
        *v
    }
    fn combine(&self, a: i64, b: &i64) -> i64 {
        a.max(*b)
    }
    fn lower(&self, p: &i64) -> i64 {
        *p
    }
    fn invert(&self, a: i64, b: &i64) -> Option<i64> {
        (*b < a).then_some(a)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Distributive }
    }
    /// Mirror of [`Min::fold_slice`] via `lanes::max_i64`.
    fn fold_slice(&self, values: &[i64]) -> Option<i64> {
        crate::lanes::max_i64(values)
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Partial for [`MinCount`]/[`MaxCount`]: the extremum and how many tuples
/// attain it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtremumCount {
    pub value: i64,
    pub count: u64,
}

impl HeapSize for ExtremumCount {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Minimum plus the number of tuples attaining it. Algebraic.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinCount;

impl AggregateFunction for MinCount {
    type Input = i64;
    type Partial = ExtremumCount;
    type Output = (i64, u64);

    fn lift(&self, v: &i64) -> ExtremumCount {
        ExtremumCount { value: *v, count: 1 }
    }
    fn combine(&self, a: ExtremumCount, b: &ExtremumCount) -> ExtremumCount {
        match a.value.cmp(&b.value) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => *b,
            std::cmp::Ordering::Equal => ExtremumCount { value: a.value, count: a.count + b.count },
        }
    }
    fn lower(&self, p: &ExtremumCount) -> (i64, u64) {
        (p.value, p.count)
    }
    fn invert(&self, a: ExtremumCount, b: &ExtremumCount) -> Option<ExtremumCount> {
        if b.value > a.value {
            Some(a)
        } else if b.value == a.value && b.count < a.count {
            Some(ExtremumCount { value: a.value, count: a.count - b.count })
        } else {
            None
        }
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }
    /// Two vectorizable passes (`lanes::min_count_i64`): lane
    /// minimum, then a branch-free tie count — replacing the per-element
    /// three-way compare. Exact and order-insensitive.
    fn fold_slice(&self, values: &[i64]) -> Option<ExtremumCount> {
        crate::lanes::min_count_i64(values).map(|(value, count)| ExtremumCount { value, count })
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Maximum plus the number of tuples attaining it. Algebraic.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxCount;

impl AggregateFunction for MaxCount {
    type Input = i64;
    type Partial = ExtremumCount;
    type Output = (i64, u64);

    fn lift(&self, v: &i64) -> ExtremumCount {
        ExtremumCount { value: *v, count: 1 }
    }
    fn combine(&self, a: ExtremumCount, b: &ExtremumCount) -> ExtremumCount {
        match a.value.cmp(&b.value) {
            std::cmp::Ordering::Greater => a,
            std::cmp::Ordering::Less => *b,
            std::cmp::Ordering::Equal => ExtremumCount { value: a.value, count: a.count + b.count },
        }
    }
    fn lower(&self, p: &ExtremumCount) -> (i64, u64) {
        (p.value, p.count)
    }
    fn invert(&self, a: ExtremumCount, b: &ExtremumCount) -> Option<ExtremumCount> {
        if b.value < a.value {
            Some(a)
        } else if b.value == a.value && b.count < a.count {
            Some(ExtremumCount { value: a.value, count: a.count - b.count })
        } else {
            None
        }
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }
    /// Mirror of [`MinCount::fold_slice`] via
    /// `lanes::max_count_i64`.
    fn fold_slice(&self, values: &[i64]) -> Option<ExtremumCount> {
        crate::lanes::max_count_i64(values).map(|(value, count)| ExtremumCount { value, count })
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Partial for [`ArgMin`]/[`ArgMax`]: the extremum value and the argument
/// (e.g. sensor id, position) attaining it; ties keep the smallest
/// argument, making combination commutative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgExtremum {
    pub value: i64,
    pub arg: i64,
}

impl HeapSize for ArgExtremum {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Argument of the minimum: input tuples are `(value, arg)` pairs; ties
/// keep the smallest argument (a deterministic, commutative tie-break, so
/// out-of-order tuples never force recomputation). Algebraic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArgMin;

impl AggregateFunction for ArgMin {
    type Input = (i64, i64);
    type Partial = ArgExtremum;
    type Output = i64;

    fn lift(&self, (v, arg): &(i64, i64)) -> ArgExtremum {
        ArgExtremum { value: *v, arg: *arg }
    }
    fn combine(&self, a: ArgExtremum, b: &ArgExtremum) -> ArgExtremum {
        match b.value.cmp(&a.value) {
            std::cmp::Ordering::Less => *b,
            std::cmp::Ordering::Greater => a,
            std::cmp::Ordering::Equal => {
                if b.arg < a.arg {
                    *b
                } else {
                    a
                }
            }
        }
    }
    fn lower(&self, p: &ArgExtremum) -> i64 {
        p.arg
    }
    fn invert(&self, a: ArgExtremum, b: &ArgExtremum) -> Option<ArgExtremum> {
        (b.value > a.value || (b.value == a.value && b.arg > a.arg)).then_some(a)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }
    /// Lane kernel over the `(value, arg)` pairs (`lanes::arg_min_pairs`).
    /// The lexicographic tie-break (smallest `arg` among equal values) is
    /// a total order, so the lane split is exact — bit-identical to the
    /// per-element fold including ties.
    fn fold_slice(&self, values: &[(i64, i64)]) -> Option<ArgExtremum> {
        crate::lanes::arg_min_pairs(values).map(|(value, arg)| ArgExtremum { value, arg })
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Argument of the maximum; ties keep the smallest argument. Algebraic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArgMax;

impl AggregateFunction for ArgMax {
    type Input = (i64, i64);
    type Partial = ArgExtremum;
    type Output = i64;

    fn lift(&self, (v, arg): &(i64, i64)) -> ArgExtremum {
        ArgExtremum { value: *v, arg: *arg }
    }
    fn combine(&self, a: ArgExtremum, b: &ArgExtremum) -> ArgExtremum {
        match b.value.cmp(&a.value) {
            std::cmp::Ordering::Greater => *b,
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Equal => {
                if b.arg < a.arg {
                    *b
                } else {
                    a
                }
            }
        }
    }
    fn lower(&self, p: &ArgExtremum) -> i64 {
        p.arg
    }
    fn invert(&self, a: ArgExtremum, b: &ArgExtremum) -> Option<ArgExtremum> {
        (b.value < a.value || (b.value == a.value && b.arg > a.arg)).then_some(a)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }
    /// Mirror of [`ArgMin::fold_slice`] via `lanes::arg_max_pairs`.
    fn fold_slice(&self, values: &[(i64, i64)]) -> Option<ArgExtremum> {
        crate::lanes::arg_max_pairs(values).map(|(value, arg)| ArgExtremum { value, arg })
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_fold() {
        assert_eq!(Min.lift_all([&3, &1, &2].into_iter()), Some(1));
        assert_eq!(Max.lift_all([&3, &1, &2].into_iter()), Some(3));
    }

    #[test]
    fn min_invert_fast_path() {
        // Removing a non-minimum is free; removing the minimum forces a
        // recompute (None).
        assert_eq!(Min.invert(1, &5), Some(1));
        assert_eq!(Min.invert(1, &1), None);
        assert_eq!(Max.invert(9, &3), Some(9));
        assert_eq!(Max.invert(9, &9), None);
    }

    #[test]
    fn mincount_counts_ties() {
        let f = MinCount;
        let p = f.lift_all([&4, &2, &2, &7]).unwrap();
        assert_eq!(f.lower(&p), (2, 2));
    }

    #[test]
    fn mincount_invert_cases() {
        let f = MinCount;
        let p = ExtremumCount { value: 2, count: 2 };
        // Removing a larger value: free.
        assert_eq!(f.invert(p, &ExtremumCount { value: 9, count: 1 }), Some(p));
        // Removing one of two minima: decrement.
        assert_eq!(
            f.invert(p, &ExtremumCount { value: 2, count: 1 }),
            Some(ExtremumCount { value: 2, count: 1 })
        );
        // Removing all minima: recompute.
        assert_eq!(f.invert(p, &ExtremumCount { value: 2, count: 2 }), None);
    }

    #[test]
    fn maxcount_mirror() {
        let f = MaxCount;
        let p = f.lift_all([&4, &7, &7, &1]).unwrap();
        assert_eq!(f.lower(&p), (7, 2));
    }

    #[test]
    fn argmin_argmax_pick_argument() {
        let f = ArgMin;
        let p = f.lift_all([&(5, 100), &(2, 200), &(9, 300)]).unwrap();
        assert_eq!(f.lower(&p), 200);
        let g = ArgMax;
        let p = g.lift_all([&(5, 100), &(2, 200), &(9, 300)]).unwrap();
        assert_eq!(g.lower(&p), 300);
    }

    #[test]
    fn arg_ties_keep_smallest_argument() {
        let f = ArgMax;
        let p = f.lift_all([&(7, 2), &(7, 1)]).unwrap();
        assert_eq!(f.lower(&p), 1);
        // The deterministic tie-break keeps combination commutative, so
        // out-of-order processing needs no tuple storage for these.
        assert!(f.properties().commutative);
        let a = f.lift(&(7, 2));
        let b = f.lift(&(7, 1));
        assert_eq!(f.combine(a, &b), f.combine(b, &a));
    }

    #[test]
    fn minmax_fold_kernels_match_default() {
        let values: Vec<i64> = (0..257).map(|i| (i * 73 - 9000) % 513).collect();
        assert!(Min.has_fold_kernel() && Max.has_fold_kernel());
        assert!(MinCount.has_fold_kernel() && MaxCount.has_fold_kernel());
        for len in [0, 1, 2, 16, 255, 257] {
            let v = &values[..len];
            assert_eq!(Min.fold_slice(v), Min.lift_all(v));
            assert_eq!(Max.fold_slice(v), Max.lift_all(v));
            assert_eq!(MinCount.fold_slice(v), MinCount.lift_all(v));
            assert_eq!(MaxCount.fold_slice(v), MaxCount.lift_all(v));
        }
    }

    #[test]
    fn arg_pair_kernels_match_default_including_ties() {
        assert!(ArgMin.has_fold_kernel() && ArgMax.has_fold_kernel());
        // Small value range forces plenty of ties across lane boundaries.
        let pairs: Vec<(i64, i64)> = (0..133).map(|i| ((i * 37) % 5, 200 - i)).collect();
        for len in [0, 1, 2, 3, 4, 7, 8, 9, 64, 133] {
            let v = &pairs[..len];
            assert_eq!(ArgMin.fold_slice(v), ArgMin.lift_all(v), "argmin len {len}");
            assert_eq!(ArgMax.fold_slice(v), ArgMax.lift_all(v), "argmax len {len}");
        }
    }
}
