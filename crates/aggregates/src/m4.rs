//! M4 and first/last aggregations.
//!
//! M4 (Jugel et al. \[26\]) computes four algebraic aggregates per window —
//! minimum, maximum, first and last value — and is the visualization
//! workload of the paper's dashboard application (Section 6.4). Because
//! "first" and "last" depend on positions, input tuples carry their
//! timestamp: `Input = (Time, value)`; with the timestamp inside the
//! partial, combining stays commutative.

use gss_core::{AggregateFunction, FunctionKind, FunctionProperties, HeapSize, Time};

/// The four M4 aggregates of one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct M4Partial {
    pub min: i64,
    pub max: i64,
    pub first_ts: Time,
    pub first: i64,
    pub last_ts: Time,
    pub last: i64,
}

impl HeapSize for M4Partial {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// M4: min, max, first, last per window. Algebraic, commutative (thanks to
/// embedded timestamps), not invertible.
#[derive(Debug, Clone, Copy, Default)]
pub struct M4;

impl AggregateFunction for M4 {
    type Input = (Time, i64);
    type Partial = M4Partial;
    type Output = M4Partial;

    fn lift(&self, (ts, v): &(Time, i64)) -> M4Partial {
        M4Partial { min: *v, max: *v, first_ts: *ts, first: *v, last_ts: *ts, last: *v }
    }

    fn combine(&self, a: M4Partial, b: &M4Partial) -> M4Partial {
        let (first_ts, first) =
            if a.first_ts <= b.first_ts { (a.first_ts, a.first) } else { (b.first_ts, b.first) };
        let (last_ts, last) =
            if a.last_ts >= b.last_ts { (a.last_ts, a.last) } else { (b.last_ts, b.last) };
        M4Partial { min: a.min.min(b.min), max: a.max.max(b.max), first_ts, first, last_ts, last }
    }

    fn lower(&self, p: &M4Partial) -> M4Partial {
        *p
    }

    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }

    /// Block lane kernel. Unlike the strided arg-min/arg-max split, M4's
    /// first/last tie-breaks are **order-sensitive** (`<=` / `>=` keep the
    /// earlier-folded side), so the kernel uses the order-preserving block
    /// split of the `lanes` policy: each lane owns one contiguous block of
    /// the run, lanes reduce in stream order, and the tail folds in order —
    /// pure re-parenthesization of the associative ⊕, hence bit-identical
    /// to the per-element fold including timestamp ties.
    fn fold_slice(&self, values: &[(Time, i64)]) -> Option<M4Partial> {
        let n = values.len();
        // Two blocks, not four: the 48-byte partial times four lanes
        // spills out of registers and measured *slower* than the
        // sequential fold; two accumulators stay resident and still
        // break the per-element dependency chain.
        let b = n / 2;
        if b < 8 {
            // Too short for the block overhead; the sequential fold is
            // exact by definition.
            return self.lift_all(values);
        }
        // Two contiguous blocks walked by zipped iterators (no index
        // arithmetic, no bounds checks in the hot loop) plus the tail.
        let (c0, rest) = values.split_at(b);
        let (c1, tail) = rest.split_at(b);
        // Within a lane this is exactly `combine(a, lift(x))`: strict
        // `<` / `>` on the timestamps keeps the earlier-folded side on
        // ties, and min/max are plain cmovs.
        let upd = |a: &mut M4Partial, &(ts, v): &(Time, i64)| {
            if ts < a.first_ts {
                a.first_ts = ts;
                a.first = v;
            }
            if ts > a.last_ts {
                a.last_ts = ts;
                a.last = v;
            }
            a.min = a.min.min(v);
            a.max = a.max.max(v);
        };
        let mut acc = [self.lift(&c0[0]), self.lift(&c1[0])];
        for (x0, x1) in c0[1..].iter().zip(&c1[1..]) {
            upd(&mut acc[0], x0);
            upd(&mut acc[1], x1);
        }
        let [a0, a1] = acc;
        let mut p = self.combine(a0, &a1);
        for x in tail {
            p = self.combine(p, &self.lift(x));
        }
        Some(p)
    }
    fn has_fold_kernel(&self) -> bool {
        true
    }
}

/// Partial for [`First`]/[`Last`]: a timestamped value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    pub ts: Time,
    pub value: i64,
}

impl HeapSize for Stamped {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Earliest value of the window (by embedded timestamp). Algebraic.
#[derive(Debug, Clone, Copy, Default)]
pub struct First;

impl AggregateFunction for First {
    type Input = (Time, i64);
    type Partial = Stamped;
    type Output = i64;

    fn lift(&self, (ts, v): &(Time, i64)) -> Stamped {
        Stamped { ts: *ts, value: *v }
    }
    fn combine(&self, a: Stamped, b: &Stamped) -> Stamped {
        if a.ts <= b.ts {
            a
        } else {
            *b
        }
    }
    fn lower(&self, p: &Stamped) -> i64 {
        p.value
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }
}

/// Latest value of the window (by embedded timestamp). Algebraic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Last;

impl AggregateFunction for Last {
    type Input = (Time, i64);
    type Partial = Stamped;
    type Output = i64;

    fn lift(&self, (ts, v): &(Time, i64)) -> Stamped {
        Stamped { ts: *ts, value: *v }
    }
    fn combine(&self, a: Stamped, b: &Stamped) -> Stamped {
        if a.ts >= b.ts {
            a
        } else {
            *b
        }
    }
    fn lower(&self, p: &Stamped) -> i64 {
        p.value
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: true, kind: FunctionKind::Algebraic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m4_collects_all_four() {
        let f = M4;
        let p = f.lift_all([&(10, 5), &(20, 1), &(30, 9), &(40, 3)]).unwrap();
        assert_eq!(p.min, 1);
        assert_eq!(p.max, 9);
        assert_eq!(p.first, 5);
        assert_eq!(p.last, 3);
    }

    #[test]
    fn m4_is_commutative_with_timestamps() {
        let f = M4;
        let a = f.lift(&(10, 5));
        let b = f.lift(&(20, 7));
        assert_eq!(f.combine(a, &b), f.combine(b, &a));
    }

    #[test]
    fn m4_associativity_spot_check() {
        let f = M4;
        let (a, b, c) = (f.lift(&(1, 4)), f.lift(&(2, -3)), f.lift(&(3, 10)));
        assert_eq!(f.combine(f.combine(a, &b), &c), f.combine(a, &f.combine(b, &c)));
    }

    #[test]
    fn m4_pair_kernel_matches_default_including_timestamp_ties() {
        assert!(M4.has_fold_kernel());
        // Repeated timestamps with distinct values: the order-sensitive
        // first/last tie-breaks must pick the same element as the
        // sequential fold. Non-monotone ts exercises the late-group shape.
        let pairs: Vec<(Time, i64)> = (0..141).map(|i| ((i * 7) % 13, 1000 + i)).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 127, 141] {
            let v = &pairs[..len];
            assert_eq!(M4.fold_slice(v), M4.lift_all(v), "m4 len {len}");
        }
    }

    #[test]
    fn first_last_follow_timestamps_not_arrival() {
        let f = First;
        let l = Last;
        // Arrival order differs from timestamp order.
        let inputs = [(30, 3), (10, 1), (20, 2)];
        let fp = f.lift_all(inputs.iter()).unwrap();
        let lp = l.lift_all(inputs.iter()).unwrap();
        assert_eq!(f.lower(&fp), 1);
        assert_eq!(l.lower(&lp), 3);
    }
}
