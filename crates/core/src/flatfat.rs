//! FlatFAT: a flat fixed-size aggregate tree (Tangwongsan et al. \[42\]).
//!
//! A complete binary tree stored in one array whose leaves are partial
//! aggregates and whose inner nodes combine their children **in leaf
//! order**, so non-commutative functions remain correct. The slicing core
//! uses it over *slices* (eager slicing, Table 1 rows 6/8); the baseline
//! aggregate tree uses it over *tuples* (Table 1 row 2).
//!
//! Complexity: `update`/`push` are `O(log n)`; `query` is `O(log n)`
//! combine steps; `insert`/`remove` in the middle shift leaves and rebuild
//! affected ancestors, costing `O(n)` — which is exactly why out-of-order
//! tuples hurt aggregate trees on tuples (paper Section 6.2.2) but rarely
//! hurt eager slicing (inserts land in an existing slice, not a new leaf).
//! Every write repairs its ancestors before it returns, so the tree can be
//! queried at any time.

use crate::function::AggregateFunction;
use crate::mem::HeapSize;

/// Order-preserving aggregate tree over `A::Partial` leaves.
#[derive(Clone)]
pub struct FlatFat<A: AggregateFunction> {
    f: A,
    /// Number of live leaves.
    len: usize,
    /// Leaf capacity; always a power of two and >= 1.
    cap: usize,
    /// `2 * cap` nodes; node 1 is the root, leaves start at `cap`.
    /// Index 0 is unused.
    nodes: Vec<Option<A::Partial>>,
}

impl<A: AggregateFunction> FlatFat<A> {
    /// Creates an empty tree.
    pub fn new(f: A) -> Self {
        Self::with_capacity(f, 1)
    }

    /// Creates an empty tree with room for `capacity` leaves.
    pub fn with_capacity(f: A, capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        FlatFat { f, len: 0, cap, nodes: vec![None; 2 * cap] }
    }

    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The aggregate of all leaves (the root), `None` when empty.
    pub fn total(&self) -> Option<&A::Partial> {
        self.nodes[1].as_ref()
    }

    /// The leaf at `i`.
    #[cfg(test)]
    fn leaf(&self, i: usize) -> Option<&A::Partial> {
        assert!(i < self.len, "leaf index {i} out of bounds (len {})", self.len);
        self.nodes[self.cap + i].as_ref()
    }

    /// Appends a leaf at the end, growing capacity if needed.
    pub fn push(&mut self, p: Option<A::Partial>) {
        if self.len == self.cap {
            self.grow(self.cap * 2);
        }
        let i = self.len;
        self.len += 1;
        self.nodes[self.cap + i] = p;
        self.fix_ancestors(i);
    }

    /// Replaces the leaf at `i` and repairs its ancestors: `O(log n)`.
    pub fn update(&mut self, i: usize, p: Option<A::Partial>) {
        assert!(i < self.len, "leaf index {i} out of bounds (len {})", self.len);
        self.nodes[self.cap + i] = p;
        self.fix_ancestors(i);
    }

    /// Dense structural checks for the audit build: the node array is
    /// shaped like a complete tree, spare leaves are vacant, and
    /// internal-node presence is consistent with the
    /// children (partials carry no equality, so presence is the
    /// strongest checkable property).
    #[cfg(feature = "audit")]
    pub(crate) fn assert_invariants(&self) {
        assert!(self.cap.is_power_of_two(), "capacity {} not a power of two", self.cap);
        assert_eq!(self.nodes.len(), 2 * self.cap, "node array out of shape");
        assert!(self.len <= self.cap, "len {} exceeds capacity {}", self.len, self.cap);
        for i in self.len..self.cap {
            assert!(self.nodes[self.cap + i].is_none(), "spare leaf {i} is occupied");
        }
        for i in 1..self.cap {
            let children = self.nodes[2 * i].is_some() || self.nodes[2 * i + 1].is_some();
            assert_eq!(
                self.nodes[i].is_some(),
                children,
                "internal node {i} presence inconsistent with its children"
            );
        }
    }

    /// Inserts a leaf at `i`, shifting later leaves right: `O(n)`, and a
    /// [`push`](FlatFat::push) at the end.
    pub fn insert(&mut self, i: usize, p: Option<A::Partial>) {
        assert!(i <= self.len, "insert index {i} out of bounds (len {})", self.len);
        if i == self.len {
            return self.push(p);
        }
        if self.len == self.cap {
            self.grow(self.cap * 2);
        }
        // Shift leaves [i, len) one position right, then rebuild the
        // ancestors of the touched suffix.
        let base = self.cap;
        for j in (i..self.len).rev() {
            self.nodes[base + j + 1] = self.nodes[base + j].take();
        }
        self.nodes[base + i] = p;
        self.len += 1;
        self.rebuild_internal();
    }

    /// Removes the leaf at `i`, shifting later leaves left: `O(n)`.
    pub fn remove(&mut self, i: usize) -> Option<A::Partial> {
        assert!(i < self.len, "leaf index {i} out of bounds (len {})", self.len);
        let base = self.cap;
        let removed = self.nodes[base + i].take();
        for j in i..self.len - 1 {
            self.nodes[base + j] = self.nodes[base + j + 1].take();
        }
        self.nodes[base + self.len - 1] = None;
        self.len -= 1;
        self.rebuild_internal();
        removed
    }

    /// Removes the first `k` leaves (eviction of expired slices): `O(n)`.
    pub fn remove_prefix(&mut self, k: usize) {
        assert!(k <= self.len, "prefix {k} exceeds len {}", self.len);
        let base = self.cap;
        for j in 0..self.len - k {
            self.nodes[base + j] = self.nodes[base + j + k].take();
        }
        for j in self.len - k..self.len {
            self.nodes[base + j] = None;
        }
        self.len -= k;
        self.rebuild_internal();
    }

    /// Order-preserving range query over leaves `[l, r)`: combines the
    /// covered leaves left-to-right in `O(log n)` combine steps.
    pub fn query(&self, l: usize, r: usize) -> Option<A::Partial> {
        assert!(l <= r && r <= self.len, "invalid query range [{l}, {r}) of len {}", self.len);
        let mut left_acc: Option<A::Partial> = None;
        let mut right_acc: Option<A::Partial> = None;
        let mut lo = self.cap + l;
        let mut hi = self.cap + r;
        while lo < hi {
            if lo & 1 == 1 {
                left_acc = self.f.combine_opt(left_acc, self.nodes[lo].as_ref());
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                right_acc = self.f.combine_opt(self.nodes[hi].clone(), right_acc.as_ref());
            }
            lo >>= 1;
            hi >>= 1;
        }
        self.f.combine_opt(left_acc, right_acc.as_ref())
    }

    fn grow(&mut self, new_cap: usize) {
        let leaves: Vec<Option<A::Partial>> = self.nodes[self.cap..self.cap + self.len].to_vec();
        let len = self.len;
        self.cap = new_cap.next_power_of_two();
        self.nodes = vec![None; 2 * self.cap];
        self.len = len;
        self.nodes[self.cap..self.cap + len]
            .iter_mut()
            .zip(leaves)
            .for_each(|(slot, leaf)| *slot = leaf);
        for i in (1..self.cap).rev() {
            self.nodes[i] = self.combine_children(i);
        }
    }

    #[inline]
    fn combine_children(&self, i: usize) -> Option<A::Partial> {
        self.f.combine_opt(self.nodes[2 * i].clone(), self.nodes[2 * i + 1].as_ref())
    }

    fn fix_ancestors(&mut self, leaf: usize) {
        let mut i = (self.cap + leaf) / 2;
        while i >= 1 {
            self.nodes[i] = self.combine_children(i);
            i /= 2;
        }
    }

    /// Recomputes every internal node bottom-up. Used after leaf shifts;
    /// those operations are `O(n)` regardless, so a full internal rebuild
    /// keeps them simple without changing their complexity class.
    fn rebuild_internal(&mut self) {
        for i in (1..self.cap).rev() {
            self.nodes[i] = self.combine_children(i);
        }
    }
}

impl<A: AggregateFunction> HeapSize for FlatFat<A> {
    fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{Concat, SumI64};

    fn tree_with(values: &[i64]) -> FlatFat<SumI64> {
        let mut t = FlatFat::new(SumI64);
        for v in values {
            t.push(Some(*v));
        }
        t
    }

    #[test]
    fn empty_tree_totals_none() {
        let t = FlatFat::new(SumI64);
        assert!(t.is_empty());
        assert_eq!(t.total(), None);
        assert_eq!(t.query(0, 0), None);
    }

    #[test]
    fn push_maintains_root() {
        let t = tree_with(&[1, 2, 3, 4, 5]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.total(), Some(&15));
    }

    #[test]
    fn query_matches_linear_scan_on_all_ranges() {
        let values: Vec<i64> = (0..37).map(|i| i * i - 3).collect();
        let t = tree_with(&values);
        for l in 0..=values.len() {
            for r in l..=values.len() {
                let expect: i64 = values[l..r].iter().sum();
                let got = t.query(l, r).unwrap_or(0);
                assert_eq!(got, expect, "range [{l}, {r})");
            }
        }
    }

    #[test]
    fn query_preserves_order_for_non_commutative() {
        let mut t = FlatFat::new(Concat);
        for v in 0..13 {
            t.push(Some(vec![v]));
        }
        for l in 0..=13usize {
            for r in l..=13usize {
                let expect: Vec<i64> = (l as i64..r as i64).collect();
                let got = t.query(l, r).unwrap_or_default();
                assert_eq!(got, expect, "range [{l}, {r})");
            }
        }
    }

    #[test]
    fn update_changes_results() {
        let mut t = tree_with(&[1, 2, 3, 4]);
        t.update(2, Some(30));
        assert_eq!(t.total(), Some(&37));
        assert_eq!(t.query(2, 3), Some(30));
        t.update(0, None);
        assert_eq!(t.total(), Some(&36));
    }

    #[test]
    fn insert_shifts_leaves() {
        let mut t = tree_with(&[1, 2, 4]);
        t.insert(2, Some(3));
        assert_eq!(t.len(), 4);
        assert_eq!(t.leaf(2), Some(&3));
        assert_eq!(t.leaf(3), Some(&4));
        assert_eq!(t.total(), Some(&10));
        t.insert(0, Some(100));
        assert_eq!(t.leaf(0), Some(&100));
        assert_eq!(t.total(), Some(&110));
    }

    #[test]
    fn remove_shifts_leaves() {
        let mut t = tree_with(&[1, 2, 3, 4, 5]);
        assert_eq!(t.remove(1), Some(2));
        assert_eq!(t.len(), 4);
        assert_eq!(t.total(), Some(&13));
        assert_eq!(t.query(0, 2), Some(4)); // 1 + 3
    }

    #[test]
    fn remove_prefix_evicts() {
        let mut t = tree_with(&[1, 2, 3, 4, 5]);
        t.remove_prefix(3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total(), Some(&9));
        assert_eq!(t.leaf(0), Some(&4));
        t.remove_prefix(2);
        assert!(t.is_empty());
        assert_eq!(t.total(), None);
    }

    #[test]
    fn growth_preserves_content() {
        let mut t = FlatFat::with_capacity(SumI64, 2);
        for v in 0..100i64 {
            t.push(Some(v));
        }
        assert_eq!(t.total(), Some(&4950));
        assert_eq!(t.query(10, 20), Some((10..20).sum::<i64>()));
    }

    #[test]
    fn none_leaves_are_neutral() {
        let mut t = FlatFat::new(SumI64);
        t.push(Some(5));
        t.push(None);
        t.push(Some(7));
        assert_eq!(t.total(), Some(&12));
        assert_eq!(t.query(1, 2), None);
        assert_eq!(t.query(0, 2), Some(5));
    }

    #[test]
    fn randomized_against_linear_scan() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Deterministic pseudo-random ops without external crates.
        let mut rng_state = 0xDEADBEEFu64;
        let mut next = move |bound: usize| {
            let mut h = DefaultHasher::new();
            rng_state.hash(&mut h);
            rng_state = h.finish();
            (rng_state % bound.max(1) as u64) as usize
        };
        let mut t = FlatFat::new(SumI64);
        let mut model: Vec<Option<i64>> = Vec::new();
        for step in 0..500 {
            match next(4) {
                0 => {
                    let v = step as i64;
                    t.push(Some(v));
                    model.push(Some(v));
                }
                1 if !model.is_empty() => {
                    let i = next(model.len());
                    let v = (step * 7) as i64;
                    t.update(i, Some(v));
                    model[i] = Some(v);
                }
                2 if !model.is_empty() => {
                    let i = next(model.len());
                    t.remove(i);
                    model.remove(i);
                }
                _ => {
                    let i = next(model.len() + 1);
                    let v = -(step as i64);
                    t.insert(i, Some(v));
                    model.insert(i, Some(v));
                }
            }
            let l = next(model.len() + 1);
            let r = l + next(model.len() - l + 1);
            let expect = model[l..r].iter().flatten().copied().reduce(|a, b| a + b);
            assert_eq!(t.query(l, r), expect, "step {step} range [{l},{r})");
            let total = model.iter().flatten().copied().reduce(|a, b| a + b);
            assert_eq!(t.total().copied(), total, "step {step} total");
        }
    }
}
