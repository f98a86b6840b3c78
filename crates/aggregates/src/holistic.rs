//! Holistic aggregations: median and percentiles.
//!
//! Holistic functions have unbounded partial aggregates (paper Section
//! 4.2). Following the paper's implementation notes (Section 5.4.1), slice
//! partials keep their values **sorted** to speed up merge operations and
//! apply **run-length encoding** to save memory — which is why the machine
//! dataset (37 distinct values) aggregates faster than the football dataset
//! (84 232 distinct values) in Figure 14.

use gss_core::{AggregateFunction, FunctionKind, FunctionProperties, HeapSize};

/// A sorted, run-length-encoded multiset of values: `(value, count)` pairs
/// in strictly increasing value order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortedRle {
    runs: Vec<(i64, u32)>,
    len: u64,
}

impl SortedRle {
    /// The multiset holding a single value.
    fn singleton(v: i64) -> Self {
        SortedRle { runs: vec![(v, 1)], len: 1 }
    }

    /// Total number of values (with multiplicity).
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs (distinct values).
    pub fn distinct(&self) -> usize {
        self.runs.len()
    }

    /// Merges two sorted RLE multisets (linear in the number of runs —
    /// the fast merge the paper's sorted slices enable).
    pub fn merge(mut self, other: &SortedRle) -> SortedRle {
        if other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other.clone();
        }
        let mut merged = Vec::with_capacity(self.runs.len() + other.runs.len());
        let mut i = 0;
        let mut j = 0;
        while i < self.runs.len() && j < other.runs.len() {
            let (va, ca) = self.runs[i];
            let (vb, cb) = other.runs[j];
            match va.cmp(&vb) {
                std::cmp::Ordering::Less => {
                    merged.push((va, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((vb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((va, ca + cb));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.runs[i..]);
        merged.extend_from_slice(&other.runs[j..]);
        self.runs = merged;
        self.len += other.len;
        self
    }

    /// The `k`-th smallest value, 1-indexed (nearest-rank selection).
    fn select(&self, k: u64) -> Option<i64> {
        if k == 0 || k > self.len {
            return None;
        }
        let mut remaining = k;
        for &(v, c) in &self.runs {
            if remaining <= c as u64 {
                return Some(v);
            }
            remaining -= c as u64;
        }
        None
    }
}

impl HeapSize for SortedRle {
    fn heap_bytes(&self) -> usize {
        self.runs.heap_bytes()
    }
}

/// Nearest-rank percentile (`0 < p <= 1`). Holistic, commutative (sorted
/// merge), not invertible.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    p: f64,
}

impl Percentile {
    /// Creates a percentile aggregation; `p` is clamped to `(0, 1]`.
    pub fn new(p: f64) -> Self {
        Percentile { p: p.clamp(f64::MIN_POSITIVE, 1.0) }
    }

    /// The 90th percentile used in paper Figure 13.
    pub fn p90() -> Self {
        Percentile::new(0.9)
    }
}

impl AggregateFunction for Percentile {
    type Input = i64;
    type Partial = SortedRle;
    type Output = i64;

    fn lift(&self, v: &i64) -> SortedRle {
        SortedRle::singleton(*v)
    }
    fn combine(&self, a: SortedRle, b: &SortedRle) -> SortedRle {
        a.merge(b)
    }
    fn lower(&self, p: &SortedRle) -> i64 {
        let k = ((self.p * p.len() as f64).ceil() as u64).max(1);
        p.select(k).unwrap_or(0)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, invertible: false, kind: FunctionKind::Holistic }
    }
}

/// Median: nearest-rank 50th percentile. Holistic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Median;

impl AggregateFunction for Median {
    type Input = i64;
    type Partial = SortedRle;
    type Output = i64;

    fn lift(&self, v: &i64) -> SortedRle {
        SortedRle::singleton(*v)
    }
    fn combine(&self, a: SortedRle, b: &SortedRle) -> SortedRle {
        a.merge(b)
    }
    fn lower(&self, p: &SortedRle) -> i64 {
        let k = p.len().div_ceil(2);
        p.select(k.max(1)).unwrap_or(0)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, invertible: false, kind: FunctionKind::Holistic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_merges_and_compresses() {
        let a = SortedRle::singleton(5).merge(&SortedRle::singleton(5));
        assert_eq!(a.len(), 2);
        assert_eq!(a.distinct(), 1);
        let b = a.merge(&SortedRle::singleton(3));
        assert_eq!(b.len(), 3);
        assert_eq!(b.distinct(), 2);
        assert_eq!(b.select(1), Some(3));
        assert_eq!(b.select(2), Some(5));
        assert_eq!(b.select(3), Some(5));
        assert_eq!(b.select(4), None);
        assert_eq!(b.select(0), None);
    }

    #[test]
    fn median_matches_sorting() {
        let f = Median;
        let values = [9, 1, 8, 2, 7, 3, 6, 4, 5];
        let p = f.lift_all(values.iter()).unwrap();
        assert_eq!(f.lower(&p), 5);
    }

    #[test]
    fn median_even_count_takes_lower_middle() {
        let f = Median;
        let p = f.lift_all([&1, &2, &3, &4]).unwrap();
        assert_eq!(f.lower(&p), 2);
    }

    #[test]
    fn percentile_nearest_rank() {
        let f = Percentile::new(0.9);
        let values: Vec<i64> = (1..=100).collect();
        let p = f.lift_all(values.iter()).unwrap();
        assert_eq!(f.lower(&p), 90);
        let f50 = Percentile::new(0.5);
        assert_eq!(f50.lower(&p), 50);
        let f100 = Percentile::new(1.0);
        assert_eq!(f100.lower(&p), 100);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let f = Median;
        let a = f.lift_all([&3, &1]).unwrap();
        let b = f.lift_all([&2, &2]).unwrap();
        let c = f.lift_all([&9]).unwrap();
        assert_eq!(f.combine(a.clone(), &b), f.combine(b.clone(), &a));
        assert_eq!(
            f.combine(f.combine(a.clone(), &b), &c),
            f.combine(a, &f.combine(b.clone(), &c))
        );
    }

    #[test]
    fn rle_compression_bounds_memory_by_distinct_values() {
        // The machine dataset effect: many duplicates, few runs.
        let f = Median;
        let mut p = SortedRle::default();
        for i in 0..1000i64 {
            p = f.combine(p, &SortedRle::singleton(i % 37));
        }
        assert_eq!(p.len(), 1000);
        assert_eq!(p.distinct(), 37);
    }
}

/// A plain sorted multiset without run-length encoding — the ablation
/// counterpart of [`SortedRle`] (the paper's Section 5.4.1 notes sorting +
/// RLE as deliberate design choices; `MedianNoRle` isolates their effect).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortedVec {
    values: Vec<i64>,
}

impl SortedVec {
    fn singleton(v: i64) -> Self {
        SortedVec { values: vec![v] }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Linear merge of two sorted vectors (no compression).
    pub fn merge(mut self, other: &SortedVec) -> SortedVec {
        let mut merged = Vec::with_capacity(self.values.len() + other.values.len());
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < other.values.len() {
            if self.values[i] <= other.values[j] {
                merged.push(self.values[i]);
                i += 1;
            } else {
                merged.push(other.values[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.values[i..]);
        merged.extend_from_slice(&other.values[j..]);
        self.values = merged;
        self
    }

    fn select(&self, k: usize) -> Option<i64> {
        (k >= 1 && k <= self.values.len()).then(|| self.values[k - 1])
    }
}

impl HeapSize for SortedVec {
    fn heap_bytes(&self) -> usize {
        self.values.heap_bytes()
    }
}

/// Median over plain sorted vectors — identical results to [`Median`],
/// without the run-length encoding. Exists for the RLE ablation
/// (`gss-bench --bin ablation`); prefer [`Median`] in applications.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianNoRle;

impl AggregateFunction for MedianNoRle {
    type Input = i64;
    type Partial = SortedVec;
    type Output = i64;

    fn lift(&self, v: &i64) -> SortedVec {
        SortedVec::singleton(*v)
    }
    fn combine(&self, a: SortedVec, b: &SortedVec) -> SortedVec {
        a.merge(b)
    }
    fn lower(&self, p: &SortedVec) -> i64 {
        let k = p.len().div_ceil(2);
        p.select(k.max(1)).unwrap_or(0)
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, invertible: false, kind: FunctionKind::Holistic }
    }
}

#[cfg(test)]
mod norle_tests {
    use super::*;

    #[test]
    fn matches_rle_median_on_any_input() {
        let values: Vec<i64> = (0..500).map(|i| (i * 31) % 37).collect();
        let rle = Median.lift_all(values.iter()).unwrap();
        let plain = MedianNoRle.lift_all(values.iter()).unwrap();
        assert_eq!(Median.lower(&rle), MedianNoRle.lower(&plain));
        assert_eq!(rle.len() as usize, plain.len());
    }

    #[test]
    fn rle_uses_less_memory_on_low_cardinality_data() {
        // The machine-dataset effect: 37 distinct values out of 10 000.
        let values: Vec<i64> = (0..10_000).map(|i| i % 37).collect();
        let rle = Median.lift_all(values.iter()).unwrap();
        let plain = MedianNoRle.lift_all(values.iter()).unwrap();
        assert!(
            rle.heap_bytes() * 10 < plain.heap_bytes(),
            "rle {} vs plain {}",
            rle.heap_bytes(),
            plain.heap_bytes()
        );
    }

    #[test]
    fn merge_keeps_sorted_order() {
        let a = MedianNoRle.lift_all([&5, &1, &9]).unwrap();
        let b = MedianNoRle.lift_all([&3, &7]).unwrap();
        let m = MedianNoRle.combine(a, &b);
        assert_eq!(m.select(1), Some(1));
        assert_eq!(m.select(3), Some(5));
        assert_eq!(m.select(5), Some(9));
        assert_eq!(m.select(6), None);
        assert_eq!(m.select(0), None);
    }
}
