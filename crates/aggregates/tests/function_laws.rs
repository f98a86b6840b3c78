//! Property tests for the algebraic laws every aggregate function
//! declares (paper Section 4.2): associativity for all, commutativity where
//! claimed, and an exact ⊖ wherever `invert` answers `Some`. The slicing
//! core *trusts* these, so they are load-bearing.

use gss_aggregates::*;
use gss_core::AggregateFunction;
use proptest::prelude::*;

/// Asserts `combine` associativity on three partials built from value
/// slices (exact equality for integer partials).
fn assoc_exact<A>(f: A, xs: &[A::Input], ys: &[A::Input], zs: &[A::Input])
where
    A: AggregateFunction,
    A::Partial: PartialEq + std::fmt::Debug,
{
    let (Some(a), Some(b), Some(c)) =
        (f.lift_all(xs.iter()), f.lift_all(ys.iter()), f.lift_all(zs.iter()))
    else {
        return;
    };
    let left = f.combine(f.combine(a.clone(), &b), &c);
    let right = f.combine(a, &f.combine(b.clone(), &c));
    assert_eq!(left, right);
}

/// Commutativity check.
fn commut_exact<A>(f: A, xs: &[A::Input], ys: &[A::Input])
where
    A: AggregateFunction,
    A::Partial: PartialEq + std::fmt::Debug,
{
    let (Some(a), Some(b)) = (f.lift_all(xs.iter()), f.lift_all(ys.iter())) else {
        return;
    };
    assert_eq!(f.combine(a.clone(), &b), f.combine(b, &a));
}

/// Invert law: `invert(combine(a, b), b) == a`.
fn invert_exact<A>(f: A, xs: &[A::Input], ys: &[A::Input])
where
    A: AggregateFunction,
    A::Partial: PartialEq + std::fmt::Debug,
{
    let (Some(a), Some(b)) = (f.lift_all(xs.iter()), f.lift_all(ys.iter())) else {
        return;
    };
    let ab = f.combine(a.clone(), &b);
    assert_eq!(f.invert(ab, &b), Some(a));
}

/// Partial-⊖ law: `invert(combine(a, b), b)` is `None` or `Some(a)`. The
/// count shift trusts every `Some`.
fn invert_exact_or_none<A>(f: A, xs: &[A::Input], ys: &[A::Input]) -> Result<(), TestCaseError>
where
    A: AggregateFunction,
    A::Partial: PartialEq + std::fmt::Debug,
{
    let (Some(a), Some(b)) = (f.lift_all(xs.iter()), f.lift_all(ys.iter())) else {
        return Ok(());
    };
    let ab = f.combine(a.clone(), &b);
    if let Some(res) = f.invert(ab, &b) {
        prop_assert_eq!(res, a);
    }
    Ok(())
}

fn vals() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-1_000i64..1_000, 1..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sum_laws(x in vals(), y in vals(), z in vals()) {
        assoc_exact(Sum, &x, &y, &z);
        commut_exact(Sum, &x, &y);
        invert_exact(Sum, &x, &y);
    }

    #[test]
    fn count_laws(x in vals(), y in vals(), z in vals()) {
        assoc_exact(CountAgg, &x, &y, &z);
        commut_exact(CountAgg, &x, &y);
        invert_exact(CountAgg, &x, &y);
    }

    #[test]
    fn avg_laws(x in vals(), y in vals(), z in vals()) {
        assoc_exact(Avg, &x, &y, &z);
        commut_exact(Avg, &x, &y);
        invert_exact(Avg, &x, &y);
    }

    #[test]
    fn min_max_laws(x in vals(), y in vals(), z in vals()) {
        assoc_exact(Min, &x, &y, &z);
        assoc_exact(Max, &x, &y, &z);
        commut_exact(Min, &x, &y);
        commut_exact(Max, &x, &y);
    }

    #[test]
    fn min_max_family_invert_is_exact_or_none(
        // Few distinct values and arguments, so extrema and their ties
        // are removed often.
        x in prop::collection::vec((-4i64..4, 0i64..4), 1..8),
        y in prop::collection::vec((-4i64..4, 0i64..4), 1..8),
    ) {
        let (xv, yv): (Vec<i64>, Vec<i64>) = (x.iter().map(|p| p.0).collect(), y.iter().map(|p| p.0).collect());
        invert_exact_or_none(Min, &xv, &yv)?;
        invert_exact_or_none(Max, &xv, &yv)?;
        invert_exact_or_none(MinCount, &xv, &yv)?;
        invert_exact_or_none(MaxCount, &xv, &yv)?;
        invert_exact_or_none(ArgMin, &x, &y)?;
        invert_exact_or_none(ArgMax, &x, &y)?;
    }

    #[test]
    fn extremum_count_laws(x in vals(), y in vals(), z in vals()) {
        assoc_exact(MinCount, &x, &y, &z);
        assoc_exact(MaxCount, &x, &y, &z);
        commut_exact(MinCount, &x, &y);
        commut_exact(MaxCount, &x, &y);
    }

    #[test]
    fn mincount_matches_naive(x in vals()) {
        let f = MinCount;
        let p = f.lift_all(x.iter()).unwrap();
        let min = *x.iter().min().unwrap();
        let count = x.iter().filter(|&&v| v == min).count() as u64;
        prop_assert_eq!(f.lower(&p), (min, count));
    }

    #[test]
    fn argmin_matches_naive(pairs in prop::collection::vec((-100i64..100, 0i64..1000), 1..30)) {
        let f = ArgMin;
        let p = f.lift_all(pairs.iter()).unwrap();
        let best = pairs.iter().map(|(v, arg)| (*v, *arg)).min().unwrap().1;
        prop_assert_eq!(f.lower(&p), best);
        assoc_exact(ArgMin, &pairs, &pairs, &pairs);
        commut_exact(ArgMin, &pairs, &pairs);
        commut_exact(ArgMax, &pairs, &pairs);
    }

    #[test]
    fn stddev_laws_and_accuracy(x in vals(), y in vals(), z in vals()) {
        // Moments are f64 sums of integers well within exact range:
        // equality is exact.
        assoc_exact(SampleStdDev, &x, &y, &z);
        commut_exact(SampleStdDev, &x, &y);
        invert_exact(SampleStdDev, &x, &y);
        assoc_exact(PopulationStdDev, &x, &y, &z);
        if x.len() >= 2 {
            let f = SampleStdDev;
            let p = f.lift_all(x.iter()).unwrap();
            let n = x.len() as f64;
            let mean = x.iter().sum::<i64>() as f64 / n;
            let naive =
                (x.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
            prop_assert!((f.lower(&p) - naive).abs() < 1e-6);
        }
    }

    #[test]
    fn m4_laws_and_accuracy(pairs in prop::collection::vec((0i64..10_000, -100i64..100), 1..30)) {
        assoc_exact(M4, &pairs, &pairs, &pairs);
        commut_exact(M4, &pairs, &pairs);
        let f = M4;
        let p = f.lift_all(pairs.iter()).unwrap();
        prop_assert_eq!(p.min, pairs.iter().map(|(_, v)| *v).min().unwrap());
        prop_assert_eq!(p.max, pairs.iter().map(|(_, v)| *v).max().unwrap());
        let first = pairs.iter().enumerate().min_by_key(|(i, (t, _))| (*t, *i)).unwrap();
        prop_assert_eq!(p.first, first.1 .1);
    }

    #[test]
    fn median_laws_and_accuracy(x in vals(), y in vals(), z in vals()) {
        assoc_exact(Median, &x, &y, &z);
        commut_exact(Median, &x, &y);
        let f = Median;
        let p = f.lift_all(x.iter()).unwrap();
        let mut sorted = x.clone();
        sorted.sort();
        prop_assert_eq!(f.lower(&p), sorted[(sorted.len() - 1) / 2]);
    }

    #[test]
    fn percentile_matches_nearest_rank(x in vals(), pct in 1u32..=100) {
        let p = pct as f64 / 100.0;
        let f = Percentile::new(p);
        let partial = f.lift_all(x.iter()).unwrap();
        let mut sorted = x.clone();
        sorted.sort();
        let k = ((p * sorted.len() as f64).ceil() as usize).max(1);
        prop_assert_eq!(f.lower(&partial), sorted[k - 1]);
    }

    #[test]
    fn rle_roundtrip_preserves_multiset(x in vals()) {
        let f = Median;
        let p = f.lift_all(x.iter()).unwrap();
        prop_assert_eq!(p.len(), x.len() as u64);
        let distinct: std::collections::HashSet<i64> = x.iter().copied().collect();
        prop_assert_eq!(p.distinct(), distinct.len());
    }

    #[test]
    fn geo_mean_accuracy(x in prop::collection::vec(1i64..1_000, 1..20)) {
        let f = GeometricMean;
        let p = f.lift_all(x.iter()).unwrap();
        let naive = (x.iter().map(|&v| (v as f64).ln()).sum::<f64>() / x.len() as f64).exp();
        prop_assert!((f.lower(&p) - naive).abs() / naive < 1e-9);
    }

    #[test]
    fn first_last_follow_embedded_timestamps(
        pairs in prop::collection::vec((0i64..10_000, -100i64..100), 1..30),
    ) {
        let first = First.lift_all(pairs.iter()).unwrap();
        let last = Last.lift_all(pairs.iter()).unwrap();
        let by_ts_first = pairs.iter().enumerate().min_by_key(|(i, (t, _))| (*t, *i)).unwrap();
        prop_assert_eq!(First.lower(&first), by_ts_first.1 .1);
        let max_ts = pairs.iter().map(|(t, _)| *t).max().unwrap();
        // Ties at the max timestamp keep the first-seen value (combine
        // keeps `a` on equal timestamps).
        let by_ts_last = pairs.iter().find(|(t, _)| *t == max_ts).unwrap();
        prop_assert_eq!(Last.lower(&last), by_ts_last.1);
    }
}
