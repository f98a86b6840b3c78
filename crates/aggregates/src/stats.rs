//! Statistical algebraic aggregations: geometric mean, sample and
//! population standard deviation (the Tangwongsan et al. \[42\] set the paper
//! benchmarks in Figure 13).

use gss_core::{AggregateFunction, FunctionKind, FunctionProperties, HeapSize};

/// Partial for the geometric mean: `⟨Σ ln(v), count⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoMeanPartial {
    pub ln_sum: f64,
    pub count: u64,
}

impl HeapSize for GeoMeanPartial {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Geometric mean over positive values. Algebraic, commutative, invertible.
/// Non-positive inputs contribute `ln` of a tiny epsilon to stay total.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeometricMean;

impl AggregateFunction for GeometricMean {
    type Input = i64;
    type Partial = GeoMeanPartial;
    type Output = f64;

    fn lift(&self, v: &i64) -> GeoMeanPartial {
        let x = (*v as f64).max(f64::MIN_POSITIVE);
        GeoMeanPartial { ln_sum: x.ln(), count: 1 }
    }
    fn combine(&self, a: GeoMeanPartial, b: &GeoMeanPartial) -> GeoMeanPartial {
        GeoMeanPartial { ln_sum: a.ln_sum + b.ln_sum, count: a.count + b.count }
    }
    fn lower(&self, p: &GeoMeanPartial) -> f64 {
        if p.count == 0 {
            f64::NAN
        } else {
            (p.ln_sum / p.count as f64).exp()
        }
    }
    fn invert(&self, a: GeoMeanPartial, b: &GeoMeanPartial) -> Option<GeoMeanPartial> {
        Some(GeoMeanPartial { ln_sum: a.ln_sum - b.ln_sum, count: a.count - b.count })
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, invertible: true, kind: FunctionKind::Algebraic }
    }
}

/// Partial for standard deviations: `⟨count, Σv, Σv²⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MomentsPartial {
    pub count: u64,
    pub sum: f64,
    pub sum_sq: f64,
}

impl HeapSize for MomentsPartial {
    fn heap_bytes(&self) -> usize {
        0
    }
}

fn lift_moments(v: i64) -> MomentsPartial {
    let x = v as f64;
    MomentsPartial { count: 1, sum: x, sum_sq: x * x }
}

fn combine_moments(a: MomentsPartial, b: &MomentsPartial) -> MomentsPartial {
    MomentsPartial { count: a.count + b.count, sum: a.sum + b.sum, sum_sq: a.sum_sq + b.sum_sq }
}

fn invert_moments(a: MomentsPartial, b: &MomentsPartial) -> MomentsPartial {
    MomentsPartial { count: a.count - b.count, sum: a.sum - b.sum, sum_sq: a.sum_sq - b.sum_sq }
}

/// Bulk kernel for the moments partial: the strided 4-lane `(Σv, Σv²)`
/// reduction of [`crate::lanes::moments_sums`]. A serial f64 accumulator
/// is a loop-carried dependency LLVM may not reassociate, so without the
/// explicit lane split this fold runs at one add per float latency; the
/// lanes trade bit-identity with the sequential fold for a 4-wide
/// pipeline. Per the [`crate::lanes`] reassociation policy the result is
/// still **deterministic** — fixed lane count, fixed strided assignment,
/// fixed pairwise reduction order, in-order tail — and ulp-bounded
/// against the sequential fold (|err| ≤ n·ε·Σ|xᵢ| per sum); `count` stays
/// exact. The proptest grid pins both properties.
fn fold_moments(values: &[i64]) -> Option<MomentsPartial> {
    if values.is_empty() {
        return None;
    }
    let (sum, sum_sq) = crate::lanes::moments_sums(values);
    Some(MomentsPartial { count: gss_core::cast::to_u64(values.len()), sum, sum_sq })
}

/// Sample standard deviation (n − 1 denominator). Algebraic, commutative,
/// invertible.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleStdDev;

impl AggregateFunction for SampleStdDev {
    type Input = i64;
    type Partial = MomentsPartial;
    type Output = f64;

    fn lift(&self, v: &i64) -> MomentsPartial {
        lift_moments(*v)
    }
    fn combine(&self, a: MomentsPartial, b: &MomentsPartial) -> MomentsPartial {
        combine_moments(a, b)
    }
    fn lower(&self, p: &MomentsPartial) -> f64 {
        if p.count < 2 {
            return f64::NAN;
        }
        let n = p.count as f64;
        (((p.sum_sq - p.sum * p.sum / n) / (n - 1.0)).max(0.0)).sqrt()
    }
    fn invert(&self, a: MomentsPartial, b: &MomentsPartial) -> Option<MomentsPartial> {
        Some(invert_moments(a, b))
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, invertible: true, kind: FunctionKind::Algebraic }
    }
    fn fold_slice(&self, values: &[i64]) -> Option<MomentsPartial> {
        fold_moments(values)
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Population standard deviation (n denominator). Algebraic, commutative,
/// invertible.
#[derive(Debug, Clone, Copy, Default)]
pub struct PopulationStdDev;

impl AggregateFunction for PopulationStdDev {
    type Input = i64;
    type Partial = MomentsPartial;
    type Output = f64;

    fn lift(&self, v: &i64) -> MomentsPartial {
        lift_moments(*v)
    }
    fn combine(&self, a: MomentsPartial, b: &MomentsPartial) -> MomentsPartial {
        combine_moments(a, b)
    }
    fn lower(&self, p: &MomentsPartial) -> f64 {
        if p.count == 0 {
            return f64::NAN;
        }
        let n = p.count as f64;
        (((p.sum_sq - p.sum * p.sum / n) / n).max(0.0)).sqrt()
    }
    fn invert(&self, a: MomentsPartial, b: &MomentsPartial) -> Option<MomentsPartial> {
        Some(invert_moments(a, b))
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, invertible: true, kind: FunctionKind::Algebraic }
    }
    fn fold_slice(&self, values: &[i64]) -> Option<MomentsPartial> {
        fold_moments(values)
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sample_stddev(vs: &[i64]) -> f64 {
        let n = vs.len() as f64;
        let mean = vs.iter().sum::<i64>() as f64 / n;
        (vs.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    }

    #[test]
    fn geometric_mean_matches_definition() {
        let f = GeometricMean;
        let p = f.lift_all([&2, &8]).unwrap();
        assert!((f.lower(&p) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_invert() {
        let f = GeometricMean;
        let ab = f.combine(f.lift(&2), &f.lift(&8));
        let a = f.invert(ab, &f.lift(&8)).unwrap();
        assert!((f.lower(&a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sample_stddev_matches_naive() {
        let vs = [3, 7, 7, 19, 24, 1, 1, 1];
        let f = SampleStdDev;
        let p = f.lift_all(vs.iter()).unwrap();
        assert!((f.lower(&p) - naive_sample_stddev(&vs)).abs() < 1e-9);
    }

    #[test]
    fn population_stddev_of_constant_is_zero() {
        let f = PopulationStdDev;
        let p = f.lift_all([&5, &5, &5]).unwrap();
        assert!(f.lower(&p).abs() < 1e-12);
    }

    #[test]
    fn stddev_undefined_cases_are_nan() {
        assert!(SampleStdDev.lower(&MomentsPartial::default()).is_nan());
        assert!(SampleStdDev.lower(&lift_moments(5)).is_nan());
        assert!(PopulationStdDev.lower(&MomentsPartial::default()).is_nan());
    }

    #[test]
    fn moments_fold_kernel_is_deterministic_and_ulp_bounded() {
        // The lane-split kernel reassociates f64 adds, so bit-identity
        // with the sequential fold is deliberately NOT required; the
        // policy (see `crate::lanes`) is bitwise repeatability plus the
        // standard summation error bound against the sequential fold.
        let values: Vec<i64> = (0..300).map(|i| (i * 31 - 4000) % 977).collect();
        for len in [0, 1, 2, 3, 4, 5, 16, 128, 300] {
            let v = &values[..len];
            let Some(k) = SampleStdDev.fold_slice(v) else {
                assert_eq!(len, 0);
                continue;
            };
            // Determinism: same bits on every call (and on a fresh copy).
            let copy = v.to_vec();
            let again = SampleStdDev.fold_slice(&copy).unwrap();
            assert_eq!(k.sum.to_bits(), again.sum.to_bits());
            assert_eq!(k.sum_sq.to_bits(), again.sum_sq.to_bits());
            assert_eq!(PopulationStdDev.fold_slice(v), Some(k), "shared moments kernel");
            // Ulp bound vs the sequential reference fold.
            let seq = gss_core::default_fold_slice(&SampleStdDev, v).unwrap();
            assert_eq!(k.count, seq.count, "count must stay exact");
            let abs_sum: f64 = v.iter().map(|&x| (x as f64).abs()).sum();
            let tol_sum = (len as f64) * f64::EPSILON * abs_sum;
            let tol_sq = (len as f64) * f64::EPSILON * seq.sum_sq;
            assert!((k.sum - seq.sum).abs() <= tol_sum, "len {len}: {} vs {}", k.sum, seq.sum);
            assert!(
                (k.sum_sq - seq.sum_sq).abs() <= tol_sq,
                "len {len}: {} vs {}",
                k.sum_sq,
                seq.sum_sq
            );
        }
        assert!(SampleStdDev.has_fold_kernel() && PopulationStdDev.has_fold_kernel());
    }

    #[test]
    fn moments_invert_roundtrip() {
        let f = SampleStdDev;
        let a = f.lift_all([&1, &2, &3]).unwrap();
        let b = f.lift(&4);
        let ab = f.combine(a, &b);
        let back = f.invert(ab, &b).unwrap();
        assert_eq!(back, a);
    }
}
