//! DABA Lite: worst-case O(1) FIFO aggregation (Tangwongsan, Hirzel,
//! Schneider — "In-order sliding-window aggregation in worst-case
//! constant time", the de-amortized successor of [`Two-Stacks`]).
//!
//! Two-Stacks ([`FifoAggregator`](crate::FifoAggregator)) pays for evictions in bursts: when its
//! front stack runs dry the whole back stack is flipped at once, an O(n)
//! hiccup. DABA Lite spreads that flip across the operations that follow
//! it, so every insert and evict performs **at most three combines** —
//! worst case, not amortized — while still needing no inverse and only
//! one aggregate slot per stored element (the "Lite" layout; original
//! DABA kept two).
//!
//! # Structure
//!
//! One deque of `(timestamp, partial)` slots split into five contiguous
//! regions by positions `l ≤ r ≤ a ≤ b` (measured from the queue front,
//! position 0; `e` is the queue length):
//!
//! ```text
//!     F = [0, l)   L = [l, r)   R = [r, a)   A = [a, b)   B = [b, e)
//! ```
//!
//! with two scalar aggregates `midSum = Σ v[r..b)` and `backSum =
//! Σ v[b..e)`, and the per-region slot invariants
//!
//! * `F`: `slot[i] = Σ v[i..b)` — finished suffixes (ready to evict);
//! * `L`: `slot[i] = Σ v[i..r)` — suffixes of the *previous* front,
//!   finished by appending the constant `midSum`;
//! * `R`: `slot[i] = v[i]` — raw lifted values awaiting conversion;
//! * `A`: `slot[i] = Σ v[i..b)` — suffixes built right-to-left out of `R`;
//! * `B`: `slot[i] = v[i]` — raw arrivals, summarized by `backSum`.
//!
//! The queue aggregate is `alpha ⊕ backSum`, where `alpha` covers
//! `[0, b)` in O(1): the head slot is finished (`F`/`A`) or one `midSum`
//! away from finished (`L`).
//!
//! After every operation a `fixup` performs one unit of repair work on
//! each side — one `R → A` conversion and one `L → F` promotion (or a
//! region slide once both are exhausted). When the repair pointers meet
//! the back boundary (`l == b`), the *flip* is a pure relabeling: the old
//! front becomes `L`, the old back becomes `R`, `midSum := backSum` — no
//! combines at all. Since a flip starts with `|L| = |R|` (both sides grew
//! in lockstep during the previous phase), promotions and conversions
//! finish together and evictions never catch a raw `R` slot at the head.
//!
//! [`Two-Stacks`]: crate::FifoAggregator

use std::collections::VecDeque;

use gss_core::{
    AggregateFunction, HeapSize, Measure, Range, Time, WindowAggregator, WindowResult, TIME_MAX,
    TIME_MIN,
};
use gss_windows::PeriodicEdges;

/// FIFO aggregation queue with worst-case O(1) operations (≤ 3 combines
/// per insert/evict, ≤ 2 per query), no inverse required.
pub struct DabaLite<A: AggregateFunction> {
    f: A,
    /// Slots: `(timestamp, partial)`; the partial's meaning depends on the
    /// region the slot currently sits in (see module docs).
    q: VecDeque<(Time, A::Partial)>,
    /// Region boundaries, measured from the queue front (position 0).
    l: usize,
    r: usize,
    a: usize,
    b: usize,
    /// `Σ v[r..b)`, fixed at the flip that created the current `L`. Live
    /// (read by promotions and head queries) only while `L` is nonempty;
    /// cleared once the slide phase begins.
    mid_sum: Option<A::Partial>,
    /// `Σ v[b..e)` — grows with each insert; `None` when `B` is empty.
    back_sum: Option<A::Partial>,
}

impl<A: AggregateFunction> DabaLite<A> {
    pub fn new(f: A) -> Self {
        DabaLite { f, q: VecDeque::new(), l: 0, r: 0, a: 0, b: 0, mid_sum: None, back_sum: None }
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Timestamp of the oldest element, if any.
    pub fn front_ts(&self) -> Option<Time> {
        self.q.front().map(|(t, _)| *t)
    }

    /// Appends a new element (FIFO order: timestamps must not decrease).
    pub fn push(&mut self, ts: Time, value: &A::Input) {
        let lifted = self.f.lift(value);
        self.back_sum = self.f.combine_opt(self.back_sum.take(), Some(&lifted));
        self.q.push_back((ts, lifted));
        self.fixup();
    }

    /// Removes the oldest element. Worst-case O(1): the repair work that
    /// keeps the head slot finished was already spread over earlier ops.
    pub fn pop(&mut self) -> Option<Time> {
        let (ts, _) = self.q.pop_front()?;
        // Every region shifts one slot toward the front; a boundary
        // already at 0 means its region just lost its head element.
        self.l = self.l.saturating_sub(1);
        self.r = self.r.saturating_sub(1);
        self.a = self.a.saturating_sub(1);
        self.b = self.b.saturating_sub(1);
        self.fixup();
        Some(ts)
    }

    /// The aggregate of the whole queue in FIFO order: ≤ 2 combines.
    pub fn query(&self) -> Option<A::Partial> {
        let alpha = self.alpha();
        self.f.combine_opt(alpha, self.back_sum.as_ref())
    }

    /// `Σ v[0..b)`, read off the head slot: finished if it sits in `F` or
    /// `A`, one `midSum` short if it sits in `L`. The fixup discipline
    /// guarantees the head is never a raw `R` slot.
    fn alpha(&self) -> Option<A::Partial> {
        if self.b == 0 {
            return None;
        }
        debug_assert!(
            self.l > 0 || self.r == self.a,
            "head slot may not be raw (l={} r={} a={} b={})",
            self.l,
            self.r,
            self.a,
            self.b
        );
        let head = self.q.front().map(|(_, p)| p.clone());
        if self.l == 0 && self.r > 0 {
            // Head is in L: Σ v[0..r) ⊕ Σ v[r..b).
            self.f.combine_opt(head, self.mid_sum.as_ref())
        } else {
            head
        }
    }

    /// One unit of repair per side, plus the (combine-free) flip. This is
    /// the whole de-amortization: called after every push and pop.
    fn fixup(&mut self) {
        if self.l == self.b {
            // Front repair finished and fully consumed: relabel. The old
            // front [0, b) becomes L (its suffixes end at b == new r), the
            // old back [b, e) becomes R with midSum taking over backSum.
            debug_assert!(self.l == self.r && self.r == self.a);
            self.r = self.b;
            self.l = 0;
            self.a = self.q.len();
            self.b = self.q.len();
            self.mid_sum = self.back_sum.take();
        }
        // Conversion: R's rightmost raw slot becomes A's leftmost suffix,
        // `v[a] ⊕ Σ v[a+1..b)`. When A is still empty the raw value
        // already equals Σ v[a..b).
        if self.a > self.r {
            self.a -= 1;
            if self.a + 1 < self.b {
                let suffix = self.q[self.a + 1].1.clone();
                let v = self.q[self.a].1.clone();
                self.q[self.a].1 = self.f.combine(v, &suffix);
            }
        }
        if self.l < self.r {
            // Promotion: L's head suffix Σ v[l..r) is finished by the
            // constant midSum = Σ v[r..b).
            if let Some(m) = self.mid_sum.as_ref() {
                let p = self.q[self.l].1.clone();
                self.q[self.l].1 = self.f.combine(p, m);
            }
            self.l += 1;
        } else if self.r == self.a && self.l < self.b {
            // Both repair streams exhausted: slide the (empty) L and R
            // over the finished A slots; they are already F-shaped. With
            // L gone midSum is dead until the next flip rewrites it.
            self.mid_sum = None;
            self.l += 1;
            self.r += 1;
            self.a += 1;
        }
    }
}

impl<A: AggregateFunction> HeapSize for DabaLite<A> {
    fn heap_bytes(&self) -> usize {
        self.q.heap_bytes()
            + self.mid_sum.as_ref().map_or(0, |p| p.heap_bytes())
            + self.back_sum.as_ref().map_or(0, |p| p.heap_bytes())
    }
}

/// A single sliding time window served by a [`DabaLite`] queue — the
/// worst-case-constant-time entry in the related-work table, same facade
/// and trigger discipline as [`TwoStacksSliding`].
///
/// [`TwoStacksSliding`]: crate::TwoStacksSliding
pub struct DabaLiteSliding<A: AggregateFunction> {
    fifo: DabaLite<A>,
    f: A,
    edges: PeriodicEdges,
    last_trigger: Time,
    next_end: Time,
    started: bool,
}

impl<A: AggregateFunction> DabaLiteSliding<A> {
    pub fn new(f: A, length: i64, slide: i64) -> Self {
        DabaLiteSliding {
            fifo: DabaLite::new(f.clone()),
            f,
            edges: PeriodicEdges::new(length, slide),
            last_trigger: TIME_MIN,
            next_end: TIME_MAX,
            started: false,
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<A> for DabaLiteSliding<A> {
    fn process(&mut self, ts: Time, value: A::Input, out: &mut Vec<WindowResult<A::Output>>) {
        debug_assert!(
            self.fifo.front_ts().is_none_or(|t| ts >= t),
            "DABA Lite requires in-order streams"
        );
        if !self.started {
            self.started = true;
            self.last_trigger = ts;
            self.next_end = self.edges.next_end(ts);
        }
        if ts >= self.next_end {
            let mut ends: Vec<Range> = Vec::new();
            self.edges.ends_in(self.last_trigger, ts, &mut |r| ends.push(r));
            for r in ends {
                while self.fifo.front_ts().is_some_and(|t| t < r.start) {
                    self.fifo.pop();
                }
                if let Some(p) = self.fifo.query() {
                    out.push(WindowResult::new(0, Measure::Time, r, self.f.lower(&p)));
                }
            }
            self.last_trigger = ts;
            self.next_end = self.edges.next_end(ts);
        }
        self.fifo.push(ts, &value);
    }

    fn on_watermark(&mut self, _wm: Time, _out: &mut Vec<WindowResult<A::Output>>) {}

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.fifo.heap_bytes()
    }

    fn name(&self) -> &'static str {
        "DABA Lite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_stacks::{FifoAggregator, TwoStacksSliding};
    use gss_core::testsupport::{Concat, SumI64, SumNoInvert};

    /// Recomputes every slot, boundary sum, and pointer relation from a
    /// mirror of the raw input values. With `Concat` the partials are the
    /// literal value sequences, so this pins the exact region invariants,
    /// not just the query result.
    fn check_invariants(q: &DabaLite<Concat>, vals: &[i64]) {
        let (l, r, a, b, e) = (q.l, q.r, q.a, q.b, q.q.len());
        assert!(l <= r && r <= a && a <= b && b <= e, "order l={l} r={r} a={a} b={b} e={e}");
        assert!(l > 0 || r == a, "head slot raw: l={l} r={r} a={a} b={b}");
        assert_eq!(vals.len(), e);
        let span = |from: usize, to: usize| vals[from..to].to_vec();
        for i in 0..e {
            let expect = if i < l || (i >= a && i < b) {
                span(i, b) // F and A: finished suffixes
            } else if i < r {
                span(i, r) // L: suffixes of the previous front
            } else {
                span(i, i + 1) // R and B: raw lifted values
            };
            assert_eq!(q.q[i].1, expect, "slot {i} (l={l} r={r} a={a} b={b})");
        }
        if l < r {
            // midSum is only live (and only read) while L is nonempty.
            assert_eq!(q.mid_sum.clone().unwrap_or_default(), span(r, b), "midSum");
        }
        assert_eq!(q.back_sum.clone().unwrap_or_default(), span(b, e), "backSum");
    }

    #[test]
    fn query_matches_running_content() {
        let mut q = DabaLite::new(SumI64);
        assert_eq!(q.query(), None);
        q.push(1, &10);
        q.push(2, &20);
        q.push(3, &30);
        assert_eq!(q.query(), Some(60));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.query(), Some(50));
        q.push(4, &40);
        assert_eq!(q.query(), Some(90));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.query(), Some(40));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.query(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn invariants_hold_under_randomized_ops() {
        // Deterministic xorshift mix of pushes and pops, heavy on both
        // sides at different phases so flips happen at many queue sizes.
        let mut q = DabaLite::new(Concat);
        let mut vals: Vec<i64> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut ts = 0i64;
        for step in 0..6_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Phase-dependent push bias: grow, churn, then drain.
            let bias = match step / 2_000 {
                0 => 200,
                1 => 128,
                _ => 56,
            };
            if (state & 0xff) < bias || vals.is_empty() {
                ts += 1;
                q.push(ts, &ts);
                vals.push(ts);
            } else {
                assert_eq!(q.pop(), Some(vals[0]));
                vals.remove(0);
            }
            check_invariants(&q, &vals);
            assert_eq!(q.query().unwrap_or_default(), vals, "step {step}");
        }
        while !vals.is_empty() {
            q.pop();
            vals.remove(0);
            check_invariants(&q, &vals);
            assert_eq!(q.query().unwrap_or_default(), vals);
        }
    }

    #[test]
    fn matches_two_stacks_reference() {
        // Same operation sequence through DABA Lite and the reference
        // two-stacks queue; Concat pins content and order exactly.
        let mut daba = DabaLite::new(Concat);
        let mut two_stacks = FifoAggregator::new(Concat);
        let mut state = 42u64;
        let mut ts = 0i64;
        let mut len = 0usize;
        for step in 0..4_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if !(state >> 33).is_multiple_of(3) || len == 0 {
                ts += 1;
                daba.push(ts, &ts);
                two_stacks.push(ts, &ts);
                len += 1;
            } else {
                assert_eq!(daba.pop(), two_stacks.pop(), "step {step}");
                len -= 1;
            }
            assert_eq!(daba.query(), two_stacks.query(), "step {step}");
            assert_eq!(daba.front_ts(), two_stacks.front_ts(), "step {step}");
            assert_eq!(daba.len(), two_stacks.len());
        }
    }

    #[test]
    fn worst_case_three_combines_per_operation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Clone)]
        struct CountingSum(Arc<AtomicUsize>);
        impl AggregateFunction for CountingSum {
            type Input = i64;
            type Partial = i64;
            type Output = i64;
            fn lift(&self, v: &i64) -> i64 {
                *v
            }
            fn combine(&self, a: i64, b: &i64) -> i64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                a + b
            }
            fn lower(&self, p: &i64) -> i64 {
                *p
            }
            fn properties(&self) -> gss_core::FunctionProperties {
                gss_core::FunctionProperties {
                    commutative: true,
                    invertible: false,
                    kind: gss_core::FunctionKind::Distributive,
                }
            }
        }

        let combines = Arc::new(AtomicUsize::new(0));
        let mut q = DabaLite::new(CountingSum(Arc::clone(&combines)));
        let mut state = 7u64;
        let mut len = 0usize;
        for _ in 0..4_000 {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let before = combines.load(Ordering::Relaxed);
            if (state >> 60).is_multiple_of(2) || len == 0 {
                q.push(len as i64, &1);
                len += 1;
            } else {
                q.pop();
                len -= 1;
            }
            let op = combines.load(Ordering::Relaxed) - before;
            assert!(op <= 3, "{op} combines in one operation (worst case is 3)");
            let before = combines.load(Ordering::Relaxed);
            q.query();
            let qc = combines.load(Ordering::Relaxed) - before;
            assert!(qc <= 2, "{qc} combines in one query (worst case is 2)");
        }
    }

    #[test]
    fn sliding_window_matches_two_stacks_sliding() {
        let mut daba = DabaLiteSliding::new(SumNoInvert, 10, 4);
        let mut two_stacks = TwoStacksSliding::new(SumNoInvert, 10, 4);
        let mut out_d = Vec::new();
        let mut out_t = Vec::new();
        for i in 0..300 {
            let v = (i * 31) % 17;
            daba.process(i, v, &mut out_d);
            two_stacks.process(i, v, &mut out_t);
        }
        assert!(out_d.len() > 50);
        assert_eq!(out_d.len(), out_t.len());
        for (d, t) in out_d.iter().zip(&out_t) {
            assert_eq!(d.range, t.range);
            assert_eq!(d.value, t.value, "window {}", d.range);
        }
    }
}
