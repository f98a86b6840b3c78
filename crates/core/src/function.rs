//! The incremental aggregation framework (paper Section 5.4.1).
//!
//! Following Tangwongsan et al. \[42\], an aggregation is decomposed into
//! `lift`, `combine` (⊕), `lower`, and an optional `invert` (⊖). General
//! stream slicing *requires* associativity of ⊕ (all aggregate-sharing
//! techniques do), *exploits* commutativity when the function declares it
//! (workload characteristic 2, Section 4.2), and uses ⊖ wherever the
//! function answers it exactly.

use crate::mem::HeapSize;

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
/// (Figure 4 of the paper and the late insert of Section 5.2) to pick
/// processing strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionProperties {
    /// `x ⊕ y = y ⊕ x`. Non-commutative functions force slice recomputation
    /// for out-of-order tuples.
    pub commutative: bool,
    /// Size class of partial aggregates.
    pub kind: FunctionKind,
}

/// Whether `f`'s partials have unbounded size: the store never copies
/// those into a shared scan.
pub(crate) fn is_holistic<A: AggregateFunction>(f: &A) -> bool {
    f.properties().kind == FunctionKind::Holistic
}

/// An incremental aggregate function.
///
/// # Contract
///
/// * `combine` must be **associative**:
///   `combine(combine(a, b), c) == combine(a, combine(b, c))`.
/// * If [`FunctionProperties::commutative`] is set, `combine(a, b) ==
///   combine(b, a)`.
/// * [`Self::invert`] returns `Some` only when it is exact:
///   `invert(combine(a, b), b)` is `None` or `Some(a)`.
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

    /// The optional ⊖ operation: removes partial `b`, the last one
    /// combined, from `a`. Returns `Some` only when the result is exact and
    /// `None` where it cannot tell (removing a minimum's own value) or has
    /// no ⊖ at all (the default). The slicing core tries it on every count
    /// shift (Figure 6) and recomputes the slice from its tuples on `None`.
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
    /// the bulk-fold kernel hook, and the one way every fold site folds a
    /// run. Semantically identical to lifting and combining each value
    /// left to right (the default is [`Self::lift_all`]), but
    /// implementations override it with a lane kernel that breaks the
    /// per-element `lift` + `combine` dependency chain.
    ///
    /// The contract mirrors `combine`: values are folded in slice order, so
    /// non-commutative functions stay correct as long as callers pass runs
    /// in stream order. An override must return what `lift_all` returns —
    /// bit for bit, except that a float fold may reassociate within the
    /// bounds `gss-aggregates` documents for its lanes.
    fn fold_slice(&self, values: &[Self::Input]) -> Option<Self::Partial> {
        self.lift_all(values)
    }

    /// Whether [`Self::fold_slice`] is a hand-written kernel rather than the
    /// default lift/combine loop. A run folded through `fold_slice` counts
    /// as a kernel hit exactly when this is true.
    fn has_fold_kernel(&self) -> bool {
        false
    }
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
            FunctionProperties { commutative: true, kind: FunctionKind::Distributive }
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
    fn fold_slice_defaults_to_lift_all() {
        let s = TestSum;
        assert_eq!(s.fold_slice(&[1, 2, 3, 4]), Some(10));
        assert_eq!(s.fold_slice(&[]), None);
        assert_eq!(s.fold_slice(&[7]), s.lift_all([&7]));
        assert!(!s.has_fold_kernel());
    }
}
