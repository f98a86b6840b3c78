//! Tiny aggregate functions used by the core's own tests and doctests.
//!
//! Real, user-facing aggregations live in `gss-aggregates` (which depends on
//! this crate); the core needs a couple of minimal functions with known
//! algebraic properties to test the slicing machinery in isolation.

use crate::function::{AggregateFunction, FunctionKind, FunctionProperties};

/// Commutative, invertible integer sum. Partial = running sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumI64;

impl AggregateFunction for SumI64 {
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
        FunctionProperties { commutative: true, invertible: true, kind: FunctionKind::Distributive }
    }
}

/// Integer sum with invertibility deliberately *not* declared — the "sum
/// w/o invert" baseline of paper Figure 13.
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
        FunctionProperties {
            commutative: true,
            invertible: false,
            kind: FunctionKind::Distributive,
        }
    }
}

/// Order-preserving concatenation: associative but **non-commutative** and
/// non-invertible. The partial is the ordered list of inputs, so tests can
/// assert that slicing preserved aggregation order exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Concat;

impl AggregateFunction for Concat {
    type Input = i64;
    type Partial = Vec<i64>;
    type Output = Vec<i64>;

    fn lift(&self, v: &i64) -> Vec<i64> {
        vec![*v]
    }
    fn combine(&self, mut a: Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
        a.extend_from_slice(b);
        a
    }
    fn lower(&self, p: &Vec<i64>) -> Vec<i64> {
        p.clone()
    }
    fn properties(&self) -> FunctionProperties {
        FunctionProperties { commutative: false, invertible: false, kind: FunctionKind::Holistic }
    }
}

/// Integer sum that fails on request: `lift` panics on
/// [`PoisonSum::LIFT`] and `combine` on a partial of
/// [`PoisonSum::COMBINE`], each with the payload [`PoisonSum::MESSAGE`] —
/// the user function that fails at a chosen tuple in the stream drivers'
/// failure tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoisonSum;

impl PoisonSum {
    pub const LIFT: i64 = i64::MIN + 1;
    pub const COMBINE: i64 = i64::MIN + 2;
    pub const MESSAGE: &'static str = "poisoned aggregate";
}

impl AggregateFunction for PoisonSum {
    type Input = i64;
    type Partial = i64;
    type Output = i64;

    fn lift(&self, v: &i64) -> i64 {
        if *v == Self::LIFT {
            std::panic::panic_any(Self::MESSAGE);
        }
        *v
    }
    fn combine(&self, a: i64, b: &i64) -> i64 {
        if a == Self::COMBINE || *b == Self::COMBINE {
            std::panic::panic_any(Self::MESSAGE);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_inverts() {
        let s = SumI64;
        let ab = s.combine(s.lift(&3), &s.lift(&4));
        assert_eq!(s.invert(ab, &4), Some(3));
    }

    #[test]
    fn concat_preserves_order() {
        let c = Concat;
        let ab = c.combine(c.lift(&1), &c.lift(&2));
        let ba = c.combine(c.lift(&2), &c.lift(&1));
        assert_ne!(ab, ba);
        assert_eq!(ab, vec![1, 2]);
    }

    #[test]
    fn sum_no_invert_declares_correctly() {
        assert!(!SumNoInvert.properties().invertible);
        assert_eq!(SumNoInvert.invert(5, &2), None);
    }
}

/// Makes every sweep of `op` query the store once per window, as if the
/// store's shared scan did not exist — the reference the equivalence
/// tests hold the shared scan against. A test switch, deliberately not
/// part of [`OperatorConfig`](crate::operator::OperatorConfig): which
/// path a sweep takes is the store's decision, from the sweep's own
/// counts.
pub fn force_per_window_queries<A: AggregateFunction>(op: &mut crate::operator::WindowOperator<A>) {
    op.per_window_only = true;
}

/// A minimal tumbling window for core-internal tests (real window types
/// live in `gss-windows`, which depends on this crate).
#[derive(Debug, Clone, Copy)]
pub struct TumblingStub {
    pub length: crate::time::Time,
}

impl crate::window::WindowFunction for TumblingStub {
    fn measure(&self) -> crate::time::Measure {
        crate::time::Measure::Time
    }
    fn context(&self) -> crate::window::ContextClass {
        crate::window::ContextClass::ContextFree
    }
    fn next_edge(&self, ts: crate::time::Time) -> Option<crate::time::Time> {
        Some((ts.div_euclid(self.length) + 1) * self.length)
    }
    fn next_window_end(&self, ts: crate::time::Time) -> Option<crate::time::Time> {
        self.next_edge(ts)
    }
    fn prev_edge(&self, ts: crate::time::Time) -> Option<crate::time::Time> {
        Some(ts.div_euclid(self.length) * self.length)
    }
    fn has_static_edges(&self) -> bool {
        true
    }
    fn requires_edge_at(&self, e: crate::time::Time) -> bool {
        e.rem_euclid(self.length) == 0
    }
    fn trigger_windows(
        &mut self,
        prev: crate::time::Time,
        cur: crate::time::Time,
        out: &mut dyn FnMut(crate::time::Range),
    ) {
        let mut e = (prev.div_euclid(self.length) + 1) * self.length;
        while e <= cur {
            out(crate::time::Range::new(e - self.length, e));
            e += self.length;
        }
    }
    fn windows_containing(&self, ts: crate::time::Time, out: &mut dyn FnMut(crate::time::Range)) {
        let s = ts.div_euclid(self.length) * self.length;
        out(crate::time::Range::new(s, s + self.length));
    }
    fn max_extent(&self) -> i64 {
        self.length
    }
    fn clone_box(&self) -> Box<dyn crate::window::WindowFunction> {
        Box::new(*self)
    }
}

/// A minimal sliding window for core-internal tests: a window of `length`
/// starts at every multiple of `slide`.
#[derive(Debug, Clone, Copy)]
pub struct SlidingStub {
    pub length: crate::time::Time,
    pub slide: crate::time::Time,
}

impl SlidingStub {
    /// Start of the last window that begins at or before `ts`.
    fn start_at(&self, ts: crate::time::Time) -> crate::time::Time {
        ts.div_euclid(self.slide) * self.slide
    }
}

impl crate::window::WindowFunction for SlidingStub {
    fn measure(&self) -> crate::time::Measure {
        crate::time::Measure::Time
    }
    fn context(&self) -> crate::window::ContextClass {
        crate::window::ContextClass::ContextFree
    }
    fn next_edge(&self, ts: crate::time::Time) -> Option<crate::time::Time> {
        self.next_window_end(ts).map(|end| end.min(self.start_at(ts) + self.slide))
    }
    fn next_window_end(&self, ts: crate::time::Time) -> Option<crate::time::Time> {
        Some(self.start_at(ts - self.length) + self.slide + self.length)
    }
    fn prev_edge(&self, ts: crate::time::Time) -> Option<crate::time::Time> {
        Some(self.start_at(ts).max(self.start_at(ts - self.length) + self.length))
    }
    fn has_static_edges(&self) -> bool {
        true
    }
    fn trigger_windows(
        &mut self,
        prev: crate::time::Time,
        cur: crate::time::Time,
        out: &mut dyn FnMut(crate::time::Range),
    ) {
        let mut e = self.start_at(prev - self.length) + self.slide + self.length;
        while e <= cur {
            out(crate::time::Range::new(e - self.length, e));
            e += self.slide;
        }
    }
    fn windows_containing(&self, ts: crate::time::Time, out: &mut dyn FnMut(crate::time::Range)) {
        let mut s = self.start_at(ts - self.length) + self.slide;
        while s <= ts {
            out(crate::time::Range::new(s, s + self.length));
            s += self.slide;
        }
    }
    fn max_extent(&self) -> i64 {
        self.length
    }
    fn clone_box(&self) -> Box<dyn crate::window::WindowFunction> {
        Box::new(*self)
    }
}
