//! The incremental aggregation framework (paper Section 5.4.1).
//!
//! Following Tangwongsan et al. \[42\], an aggregation is decomposed into
//! `lift`, `combine` (⊕), `lower`, and an optional `invert` (⊖). General
//! stream slicing *requires* associativity of ⊕ (all aggregate-sharing
//! techniques do) and *exploits* commutativity and invertibility when the
//! function declares them (workload characteristic 2, Section 4.2).

use crate::mem::HeapSize;
use crate::time::Time;

/// Classification of aggregations by the size of their partial aggregates
/// (Gray et al. \[16\], adopted in paper Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// Partials equal finals and have constant size (sum, min, max).
    Distributive,
    /// Partials are a fixed-size intermediate (avg, stddev, M4).
    Algebraic,
    /// Partials have unbounded size (median, percentiles).
    Holistic,
}

/// Algebraic properties of an aggregation, used by the decision logic
/// (Figures 4 and 6 of the paper) to pick processing strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionProperties {
    /// `x ⊕ y = y ⊕ x`. Non-commutative functions force slice recomputation
    /// for out-of-order tuples.
    pub commutative: bool,
    /// `(x ⊕ y) ⊖ y = x`. Invertible functions allow incremental removal of
    /// tuples (count-based windows with out-of-order tuples, Figure 6).
    pub invertible: bool,
    /// Size class of partial aggregates.
    pub kind: FunctionKind,
}

/// An incremental aggregate function.
///
/// # Contract
///
/// * `combine` must be **associative**:
///   `combine(combine(a, b), c) == combine(a, combine(b, c))`.
/// * If [`FunctionProperties::commutative`] is set, `combine(a, b) ==
///   combine(b, a)`.
/// * If [`FunctionProperties::invertible`] is set, [`Self::invert`] must
///   satisfy `invert(combine(a, b), b) == a` and must not return `None`.
/// * `combine` arguments are ordered: `a` aggregates tuples that occur
///   *before* the tuples aggregated in `b` (stream slicing preserves slice
///   order so non-commutative functions stay correct).
///
/// Implementations live in the `gss-aggregates` crate; the trait is defined
/// here so the slicing core, the baselines, and user code share it.
pub trait AggregateFunction: Clone + Send + 'static {
    /// Input tuple value (the `v` in `⟨t, v⟩`).
    type Input: Clone + Send + HeapSize + 'static;
    /// Partial aggregate produced by `lift` and merged by `combine`.
    type Partial: Clone + Send + HeapSize + 'static;
    /// Final aggregate produced by `lower`.
    type Output: Clone + Send + 'static;

    /// Transforms one tuple into a partial aggregate, e.g. `v ↦ (sum=v,
    /// count=1)` for an average.
    fn lift(&self, input: &Self::Input) -> Self::Partial;

    /// The ⊕ operation: combines two partials, `a` before `b`.
    fn combine(&self, a: Self::Partial, b: &Self::Partial) -> Self::Partial;

    /// Transforms a partial into the final aggregate, e.g. `(sum, count) ↦
    /// sum / count`.
    fn lower(&self, partial: &Self::Partial) -> Self::Output;

    /// The optional ⊖ operation: removes partial `b` from `a`. Must be
    /// implemented iff `properties().invertible`; the slicing core uses it
    /// to shift tuples between slices without recomputation.
    fn invert(&self, _a: Self::Partial, _b: &Self::Partial) -> Option<Self::Partial> {
        None
    }

    /// Declared algebraic properties. The slicing core trusts these; a
    /// wrongly-declared property yields wrong results, exactly like in the
    /// reference implementation.
    fn properties(&self) -> FunctionProperties;

    /// Folds a lifted partial for every tuple of `inputs` in the given
    /// order. Used when slices must be recomputed from their source tuples
    /// (split operations, non-commutative out-of-order inserts).
    fn lift_all<'a, I>(&self, inputs: I) -> Option<Self::Partial>
    where
        I: IntoIterator<Item = &'a Self::Input>,
        Self::Input: 'a,
    {
        let mut acc: Option<Self::Partial> = None;
        for v in inputs {
            let lifted = self.lift(v);
            acc = Some(match acc {
                None => lifted,
                Some(a) => self.combine(a, &lifted),
            });
        }
        acc
    }

    /// Combines two optional partials, treating `None` as the neutral
    /// element. Slices can be empty, so the core works with `Option`
    /// accumulators instead of requiring an identity element.
    fn combine_opt(
        &self,
        a: Option<Self::Partial>,
        b: Option<&Self::Partial>,
    ) -> Option<Self::Partial> {
        match (a, b) {
            (None, None) => None,
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b.clone()),
            (Some(a), Some(b)) => Some(self.combine(a, b)),
        }
    }

    /// Folds an entire contiguous run of input values into one partial —
    /// the bulk-fold kernel hook. Semantically identical to lifting and
    /// combining each value left to right (the default does exactly that),
    /// but implementations over primitive inputs override it with a tight
    /// branch-free loop the compiler can auto-vectorize, collapsing the
    /// per-element `lift` + `combine` overhead that dominates once the
    /// slicing store is touched only once per run.
    ///
    /// The contract mirrors `combine`: values are folded in slice order, so
    /// non-commutative functions stay correct as long as callers pass runs
    /// in stream order.
    fn fold_slice(&self, values: &[Self::Input]) -> Option<Self::Partial> {
        default_fold_slice(self, values)
    }

    /// Whether [`Self::fold_slice`] is a hand-written kernel rather than the
    /// default lift/combine loop. Callers holding tuples in
    /// array-of-structs form use this to decide whether gathering values
    /// into a contiguous scratch buffer pays for itself; observability
    /// layers use it to attribute runs to the kernel or fallback path.
    fn has_fold_kernel(&self) -> bool {
        false
    }

    /// Paired-column twin of [`Self::fold_slice`]: folds a contiguous run
    /// whose record timestamps arrive as a parallel `times` column
    /// (`times.len() == values.len()`, `times[i]` stamps `values[i]`).
    /// The result contract is identical to `fold_slice` — bit-for-bit
    /// equal to [`default_fold_slice`] over `values` in the given order —
    /// so the default simply delegates there. Functions whose inputs are
    /// `(Time, V)`-shaped pairs (ArgMin/ArgMax, M4, first/last) override
    /// this with a lane kernel: the columnar ingestion paths carry both
    /// columns end-to-end, so the kernel gets two contiguous slices for
    /// free where the element-shaped `fold_slice` hook could not help.
    ///
    /// `times` is auxiliary: kernels over self-contained pair inputs may
    /// ignore it, and kernels that do read it must not change the result
    /// relative to the `values`-only fold.
    fn fold_slice_pairs(&self, times: &[Time], values: &[Self::Input]) -> Option<Self::Partial> {
        debug_assert_eq!(times.len(), values.len(), "paired fold columns diverged");
        let _ = times;
        self.fold_slice(values)
    }

    /// Whether [`Self::fold_slice_pairs`] is a hand-written kernel rather
    /// than the `fold_slice` delegation. Mirrors [`Self::has_fold_kernel`]
    /// for the paired-column hook: array-of-structs callers use it to
    /// decide whether gathering *both* columns pays for itself, and the
    /// hit/miss accounting uses it to attribute paired runs.
    fn has_pair_kernel(&self) -> bool {
        false
    }

    /// Minimum run length at which gathering array-of-structs tuples into
    /// contiguous column(s) and calling a bulk kernel beats the plain
    /// per-element fold for *this* function. Defaults to the global
    /// [`FOLD_KERNEL_MIN_RUN`]; functions whose kernels break even earlier
    /// or later (e.g. paired kernels replacing a branchy compare chain, or
    /// kernels with wide partial copies) override it.
    fn kernel_min_run(&self) -> usize {
        FOLD_KERNEL_MIN_RUN
    }
}

/// The reference lift/combine fold over a contiguous run — the default body
/// of [`AggregateFunction::fold_slice`], exposed as a free function so
/// equivalence tests and the `fold` benchmark can compare a kernel against
/// the exact loop it replaces.
pub fn default_fold_slice<A: AggregateFunction>(f: &A, values: &[A::Input]) -> Option<A::Partial> {
    let mut acc: Option<A::Partial> = None;
    for v in values {
        let lifted = f.lift(v);
        acc = Some(match acc {
            None => lifted,
            Some(a) => f.combine(a, &lifted),
        });
    }
    acc
}

/// Default minimum run length at which gathering array-of-structs tuples
/// into a contiguous values buffer and calling a bulk kernel beats the
/// plain per-element fold. Below this the gather's copy dominates the
/// kernel's savings; above it the copy is one linear pass amortized over a
/// vectorized fold. Per-function break-evens override it via
/// [`AggregateFunction::kernel_min_run`].
pub const FOLD_KERNEL_MIN_RUN: usize = 16;

/// Whether a run of `len` tuples should be routed through the bulk
/// [`AggregateFunction::fold_slice`] kernel (gathering values first when
/// the caller's storage is array-of-structs). Centralizing the decision
/// keeps the hit/miss accounting consistent across every fold site.
pub fn kernel_eligible<A: AggregateFunction>(f: &A, len: usize) -> bool {
    len >= f.kernel_min_run() && f.has_fold_kernel()
}

/// Whether a run of `len` tuples should be routed through the paired-column
/// [`AggregateFunction::fold_slice_pairs`] kernel (gathering both the times
/// and values columns first when the caller's storage is
/// array-of-structs). The paired twin of [`kernel_eligible`], sharing the
/// same per-function break-even.
pub fn pair_kernel_eligible<A: AggregateFunction>(f: &A, len: usize) -> bool {
    len >= f.kernel_min_run() && f.has_pair_kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal sum used to exercise the defaults; the real functions live in
    /// `gss-aggregates`.
    #[derive(Clone)]
    struct TestSum;

    impl AggregateFunction for TestSum {
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
            FunctionProperties {
                commutative: true,
                invertible: false,
                kind: FunctionKind::Distributive,
            }
        }
    }

    #[test]
    fn lift_all_folds_in_order() {
        let s = TestSum;
        assert_eq!(s.lift_all([&1, &2, &3]), Some(6));
        assert_eq!(s.lift_all(std::iter::empty::<&i64>()), None);
    }

    #[test]
    fn combine_opt_treats_none_as_neutral() {
        let s = TestSum;
        assert_eq!(s.combine_opt(None, None), None);
        assert_eq!(s.combine_opt(Some(4), None), Some(4));
        assert_eq!(s.combine_opt(None, Some(&5)), Some(5));
        assert_eq!(s.combine_opt(Some(4), Some(&5)), Some(9));
    }

    #[test]
    fn default_invert_is_none() {
        assert_eq!(TestSum.invert(1, &2), None);
    }

    #[test]
    fn default_fold_slice_matches_lift_all() {
        let s = TestSum;
        assert_eq!(s.fold_slice(&[1, 2, 3, 4]), Some(10));
        assert_eq!(s.fold_slice(&[]), None);
        assert_eq!(s.fold_slice(&[7]), s.lift_all([&7]));
        assert!(!s.has_fold_kernel());
    }

    #[test]
    fn kernel_eligibility_requires_kernel_and_length() {
        // TestSum has no kernel: never eligible.
        assert!(!kernel_eligible(&TestSum, 10_000));

        #[derive(Clone)]
        struct KernelSum;
        impl AggregateFunction for KernelSum {
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
                FunctionProperties {
                    commutative: true,
                    invertible: false,
                    kind: FunctionKind::Distributive,
                }
            }
            fn fold_slice(&self, values: &[i64]) -> Option<i64> {
                (!values.is_empty()).then(|| values.iter().sum())
            }
            fn has_fold_kernel(&self) -> bool {
                true
            }
        }
        assert!(!kernel_eligible(&KernelSum, FOLD_KERNEL_MIN_RUN - 1));
        assert!(kernel_eligible(&KernelSum, FOLD_KERNEL_MIN_RUN));
        assert_eq!(KernelSum.fold_slice(&[1, 2, 3]), default_fold_slice(&KernelSum, &[1, 2, 3]));
        // No pair kernel declared: the paired gate never opens, even though
        // the values-only gate does.
        assert!(!pair_kernel_eligible(&KernelSum, 10_000));
    }

    #[test]
    fn default_fold_slice_pairs_delegates_to_fold_slice() {
        let s = TestSum;
        assert!(!s.has_pair_kernel());
        assert_eq!(s.fold_slice_pairs(&[10, 20, 30], &[1, 2, 3]), s.fold_slice(&[1, 2, 3]));
        assert_eq!(s.fold_slice_pairs(&[], &[]), None);
    }

    #[test]
    fn kernel_min_run_override_moves_both_gates() {
        #[derive(Clone)]
        struct EarlySum;
        impl AggregateFunction for EarlySum {
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
                FunctionProperties {
                    commutative: true,
                    invertible: false,
                    kind: FunctionKind::Distributive,
                }
            }
            fn has_fold_kernel(&self) -> bool {
                true
            }
            fn has_pair_kernel(&self) -> bool {
                true
            }
            fn kernel_min_run(&self) -> usize {
                4
            }
        }
        assert_eq!(TestSum.kernel_min_run(), FOLD_KERNEL_MIN_RUN);
        assert!(!kernel_eligible(&EarlySum, 3));
        assert!(kernel_eligible(&EarlySum, 4));
        assert!(!pair_kernel_eligible(&EarlySum, 3));
        assert!(pair_kernel_eligible(&EarlySum, 4));
    }
}
