//! Finger B-tree aggregate index (FiBA-style, after Tangwongsan, Hirzel
//! and Schneider: *Out-of-Order Sliding-Window Aggregation with Efficient
//! Bulk Evictions and Insertions*, arXiv 2307.11210).
//!
//! A drop-in alternative to [`crate::flatfat::FlatFat`] for the eager
//! side of the slice store, tuned for disorder and eviction instead of a
//! fixed dense leaf array:
//!
//! * **Position-indexed B-tree.** Leaves hold per-slice partial
//!   aggregates in slice order; every node caches its subtree count and
//!   subtree aggregate, so a range query combines O(log n) cached
//!   partials (left to right, preserving slice order for
//!   non-commutative ⊕).
//! * **Fingers.** Direct handles to the first and the last leaf make the
//!   two hot access patterns cheap: an in-order run commit touches the
//!   last leaf in O(1) + one path mark, and an out-of-order write a
//!   distance `d` behind the stream head climbs the spine from the
//!   nearer finger in O(log d) instead of O(log n).
//! * **Structural inserts/removals are local.** `FlatFat` rebuilds its
//!   whole dense array on `insert`/`remove`/`remove_prefix` (O(n) per
//!   gap slice or eviction); here an insert splits at most one path and
//!   a watermark eviction of `k` leading slices releases whole subtrees
//!   along the left spine — O(k + log n) total, amortized O(1) per
//!   evicted slice.
//! * **Deferred repair, and only that.** Every write — push, update,
//!   insert, remove, `remove_prefix` — keeps subtree counts exact and
//!   marks its leaf-to-root path dirty; `repair_dirty` is the one place
//!   that recomputes aggregates, descending into dirty subtrees only, so
//!   k writes near the stream head repair their shared path once
//!   instead of k times.
//!
//! The dirty discipline keeps one invariant at all times: **a dirty
//! node's ancestors are dirty** (so `repair_dirty` finds every stale
//! aggregate by descending from the root into dirty children only).
//! Subtree counts are never deferred, so position lookups never require
//! a repair.

use crate::cast::idx32;
use crate::function::AggregateFunction;
use crate::mem::HeapSize;

/// Maximum leaf items / internal children per node. Nodes split at
/// `MAX_FANOUT + 1`. Small arity keeps split/recompute paths short and
/// one node within a cache line or two; the FiBA paper reports arity
/// 2–8 as the sweet spot for its min-arity variants.
const MAX_FANOUT: usize = 8;

/// Sentinel node id ("no node" / "no parent").
const NIL: u32 = u32::MAX;

/// Node payload: per-slice partials at the leaves, child ids above.
#[derive(Clone, Debug)]
enum Entries<P> {
    Leaf(Vec<Option<P>>),
    Internal(Vec<u32>),
}

#[derive(Clone, Debug)]
struct Node<P> {
    parent: u32,
    /// Leaf positions covered by this subtree. Maintained eagerly even
    /// for deferred writes (lookups go by position).
    count: usize,
    /// Cached aggregate is stale; ancestors are dirty too.
    dirty: bool,
    /// Cached subtree aggregate; `None` is the neutral element (all
    /// covered slices empty). Trustworthy iff `!dirty`.
    agg: Option<P>,
    entries: Entries<P>,
}

/// Finger B-tree over per-slice partial aggregates.
#[derive(Clone)]
pub struct FingerTree<A: AggregateFunction> {
    f: A,
    /// Arena; node ids index into it, freed slots are recycled.
    nodes: Vec<Node<A::Partial>>,
    free: Vec<u32>,
    root: u32,
    /// Left finger: the leftmost leaf (eviction / oldest slices).
    first_leaf: u32,
    /// Right finger: the rightmost leaf (the open slice).
    last_leaf: u32,
    /// Total leaf positions.
    len: usize,
    /// Number of dirty nodes (leaves and internals).
    dirty_count: usize,
}

impl<A: AggregateFunction> FingerTree<A> {
    pub fn new(f: A) -> Self {
        FingerTree {
            f,
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            first_leaf: NIL,
            last_leaf: NIL,
            len: 0,
            dirty_count: 0,
        }
    }

    /// Number of leaf positions (slices indexed).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether deferred writes are pending repair.
    #[cfg(test)]
    pub(crate) fn has_dirty(&self) -> bool {
        self.dirty_count > 0
    }

    /// Aggregate over all leaves. The tree must be clean.
    pub fn total(&self) -> Option<&A::Partial> {
        debug_assert!(self.dirty_count == 0, "total() on a dirty tree; call repair_dirty() first");
        if self.root == NIL {
            None
        } else {
            self.nodes[idx32(self.root)].agg.as_ref()
        }
    }

    /// The leaf partial at position `i`.
    #[cfg(test)]
    fn leaf(&self, i: usize) -> Option<&A::Partial> {
        assert!(i < self.len, "leaf index {i} out of bounds (len {})", self.len);
        let (leaf, off) = self.locate(i);
        match &self.nodes[idx32(leaf)].entries {
            Entries::Leaf(items) => items[off].as_ref(),
            Entries::Internal(_) => {
                debug_assert!(false, "locate() returned an internal node");
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Appends a leaf; the path is marked dirty (counts are kept exact)
    /// for `repair_dirty`.
    pub fn push(&mut self, p: Option<A::Partial>) {
        let leaf = self.push_raw(p);
        self.recount_up(leaf);
    }

    /// Replaces the partial at `i`, leaving ancestor recomputation to
    /// `repair_dirty` — k writes near the stream head share one path
    /// repair instead of paying k (the mark stops at the first
    /// already-dirty ancestor). O(1) at the fingers, O(log d) otherwise.
    pub fn update(&mut self, i: usize, p: Option<A::Partial>) {
        assert!(i < self.len, "leaf index {i} out of bounds (len {})", self.len);
        let (leaf, off) = self.locate(i);
        if let Entries::Leaf(items) = &mut self.nodes[idx32(leaf)].entries {
            items[off] = p;
        }
        self.mark_dirty_up(leaf);
    }

    /// Recomputes every stale aggregate, descending from the root into
    /// dirty subtrees only. Cost is proportional to the dirty region,
    /// not the tree.
    pub fn repair_dirty(&mut self) {
        if self.root != NIL && self.nodes[idx32(self.root)].dirty {
            self.repair_node(self.root);
        }
        debug_assert!(self.dirty_count == 0, "repair_dirty left dirty nodes behind");
    }

    /// Inserts a new leaf at position `i` (existing leaves at and after
    /// `i` shift right). O(log n): one leaf touched plus at most one
    /// split path — no dense rebuild.
    pub fn insert(&mut self, i: usize, p: Option<A::Partial>) {
        assert!(i <= self.len, "insert index {i} out of bounds (len {})", self.len);
        if self.root == NIL || i == self.len {
            self.push(p);
            return;
        }
        let (leaf, off) = self.locate(i);
        let li = idx32(leaf);
        let (new_len, overflow) = match &mut self.nodes[li].entries {
            Entries::Leaf(items) => {
                items.insert(off, p);
                (items.len(), items.len() > MAX_FANOUT)
            }
            Entries::Internal(_) => {
                debug_assert!(false, "locate() returned an internal node");
                (0, false)
            }
        };
        self.nodes[li].count = new_len;
        self.len += 1;
        if overflow {
            self.split_leaf(leaf);
        }
        self.recount_up(leaf);
        self.refresh_fingers();
    }

    /// Removes the leaf at position `i`, returning its partial. Empty
    /// nodes are unlinked without rebalancing (relaxed deletion: leaf
    /// depths stay uniform, node occupancy may drop — eviction pressure
    /// deletes from the left spine, where whole-subtree release keeps
    /// the structure compact).
    pub fn remove(&mut self, i: usize) -> Option<A::Partial> {
        assert!(i < self.len, "leaf index {i} out of bounds (len {})", self.len);
        let (leaf, off) = self.locate(i);
        let li = idx32(leaf);
        let (removed, now_empty) = match &mut self.nodes[li].entries {
            Entries::Leaf(items) => {
                let r = items.remove(off);
                (r, items.is_empty())
            }
            Entries::Internal(_) => {
                debug_assert!(false, "locate() returned an internal node");
                (None, false)
            }
        };
        self.len -= 1;
        if now_empty {
            self.unlink(leaf);
        } else {
            self.recount_up(leaf);
        }
        self.collapse_root();
        self.refresh_fingers();
        removed
    }

    /// Removes the first `k` leaf positions — the bulk-eviction path.
    /// Whole expired subtrees along the left spine are released without
    /// visiting their leaves: O(k) node frees + one O(log n) spine
    /// mark, amortized O(1) per evicted slice.
    pub fn remove_prefix(&mut self, k: usize) {
        assert!(k <= self.len, "prefix {k} out of bounds (len {})", self.len);
        if k == 0 {
            return;
        }
        if k == self.len {
            self.clear();
            return;
        }
        let mut rem = k;
        let mut n = self.root;
        while matches!(self.nodes[idx32(n)].entries, Entries::Internal(_)) {
            while let Entries::Internal(children) = &self.nodes[idx32(n)].entries {
                let c0 = children[0];
                let cnt = self.nodes[idx32(c0)].count;
                if rem < cnt {
                    break;
                }
                if let Entries::Internal(children) = &mut self.nodes[idx32(n)].entries {
                    children.remove(0);
                }
                self.release_subtree(c0);
                rem -= cnt;
            }
            if rem == 0 {
                break;
            }
            n = match &self.nodes[idx32(n)].entries {
                Entries::Internal(children) => children[0],
                Entries::Leaf(_) => n,
            };
        }
        if rem > 0 {
            // `n` is the boundary leaf: k < len guarantees it survives
            // with at least one item.
            if let Entries::Leaf(items) = &mut self.nodes[idx32(n)].entries {
                debug_assert!(rem < items.len(), "boundary leaf would be emptied");
                items.drain(..rem);
            }
        }
        self.len -= k;
        self.recount_up(n);
        self.collapse_root();
        self.refresh_fingers();
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Aggregate over leaf positions `[l, r)`, combined left to right
    /// (slice order). The tree must be clean. O(log n) cached-partial
    /// combines.
    pub fn query(&self, l: usize, r: usize) -> Option<A::Partial> {
        assert!(l <= r && r <= self.len, "invalid query range [{l}, {r}) of len {}", self.len);
        debug_assert!(self.dirty_count == 0, "query() on a dirty tree; call repair_dirty() first");
        if l == r || self.root == NIL {
            return None;
        }
        self.query_node(self.root, l, r, None)
    }

    /// Combines `[l, r)` of the subtree at `n` onto `acc`. Caller
    /// guarantees the range is non-empty and within the subtree.
    fn query_node(
        &self,
        n: u32,
        l: usize,
        r: usize,
        acc: Option<A::Partial>,
    ) -> Option<A::Partial> {
        let node = &self.nodes[idx32(n)];
        if l == 0 && r >= node.count {
            return self.f.combine_opt(acc, node.agg.as_ref());
        }
        match &node.entries {
            Entries::Leaf(items) => {
                let mut acc = acc;
                for it in &items[l..r.min(items.len())] {
                    acc = self.f.combine_opt(acc, it.as_ref());
                }
                acc
            }
            Entries::Internal(children) => {
                let mut acc = acc;
                let mut start = 0usize;
                for &c in children {
                    let cnt = self.nodes[idx32(c)].count;
                    let end = start + cnt;
                    if end > l && start < r {
                        let cl = l.saturating_sub(start);
                        let cr = (r - start).min(cnt);
                        acc = self.query_node(c, cl, cr, acc);
                    }
                    if end >= r {
                        break;
                    }
                    start = end;
                }
                acc
            }
        }
    }

    // ------------------------------------------------------------------
    // Internal structure maintenance
    // ------------------------------------------------------------------

    /// Leaf id and in-leaf offset of position `i`. O(1) on an end
    /// finger's leaf; otherwise climbs the nearer end's spine until the
    /// subtree covers `i`, then descends: O(log d) for distance `d` from
    /// that end.
    fn locate(&self, i: usize) -> (u32, usize) {
        debug_assert!(i < self.len, "locate({i}) out of bounds (len {})", self.len);
        let last = self.last_leaf;
        let last_count = self.nodes[idx32(last)].count;
        if i >= self.len - last_count {
            return (last, i - (self.len - last_count));
        }
        let first = self.first_leaf;
        let first_count = self.nodes[idx32(first)].count;
        if i < first_count {
            return (first, i);
        }
        let from_end = self.len - 1 - i;
        if i <= from_end {
            // Left-spine ancestors of the first leaf cover prefixes
            // [0, count): climb until the prefix contains i.
            let mut n = first;
            while self.nodes[idx32(n)].count <= i {
                n = self.nodes[idx32(n)].parent;
                debug_assert!(n != NIL, "climb past root (counts corrupt)");
            }
            self.descend(n, i)
        } else {
            // Right-spine ancestors of the last leaf cover suffixes.
            let mut n = last;
            while self.nodes[idx32(n)].count <= from_end {
                n = self.nodes[idx32(n)].parent;
                debug_assert!(n != NIL, "climb past root (counts corrupt)");
            }
            let start = self.len - self.nodes[idx32(n)].count;
            self.descend(n, i - start)
        }
    }

    /// Descends from `n` to the leaf containing subtree-relative
    /// position `i`.
    fn descend(&self, mut n: u32, mut i: usize) -> (u32, usize) {
        debug_assert!(i < self.nodes[idx32(n)].count);
        loop {
            match &self.nodes[idx32(n)].entries {
                Entries::Leaf(_) => return (n, i),
                Entries::Internal(children) => {
                    let mut next = children[children.len() - 1];
                    for &c in children {
                        let cnt = self.nodes[idx32(c)].count;
                        if i < cnt {
                            next = c;
                            break;
                        }
                        i -= cnt;
                    }
                    n = next;
                }
            }
        }
    }

    fn alloc(&mut self, node: Node<A::Partial>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.nodes[idx32(id)] = node;
                id
            }
            None => {
                let id = u32::try_from(self.nodes.len()).unwrap_or(NIL);
                debug_assert!(id != NIL, "node arena overflow");
                self.nodes.push(node);
                id
            }
        }
    }

    /// Returns a node to the free list, dropping its payload and
    /// resolving its dirty flag so the global counter stays exact.
    fn free_node(&mut self, id: u32) {
        let ni = idx32(id);
        if self.nodes[ni].dirty {
            self.nodes[ni].dirty = false;
            self.dirty_count -= 1;
        }
        self.nodes[ni].agg = None;
        self.nodes[ni].parent = NIL;
        self.nodes[ni].count = 0;
        match &mut self.nodes[ni].entries {
            Entries::Leaf(items) => items.clear(),
            Entries::Internal(children) => children.clear(),
        }
        self.free.push(id);
    }

    /// Frees a whole subtree without visiting leaf positions one by one.
    fn release_subtree(&mut self, n: u32) {
        if let Entries::Internal(children) = &self.nodes[idx32(n)].entries {
            let mut kids = [NIL; MAX_FANOUT];
            let k = children.len().min(MAX_FANOUT);
            kids[..k].copy_from_slice(&children[..k]);
            for &c in &kids[..k] {
                self.release_subtree(c);
            }
        }
        self.free_node(n);
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.first_leaf = NIL;
        self.last_leaf = NIL;
        self.len = 0;
        self.dirty_count = 0;
    }

    /// Recomputes one node's aggregate from its direct children, which
    /// must be clean, and clears its dirty flag. Only `repair_node`
    /// calls it: this is where aggregates are computed.
    fn refresh_node(&mut self, n: u32) {
        let ni = idx32(n);
        let mut agg: Option<A::Partial> = None;
        match &self.nodes[ni].entries {
            Entries::Leaf(items) => {
                for it in items {
                    agg = self.f.combine_opt(agg, it.as_ref());
                }
            }
            Entries::Internal(children) => {
                for &c in children {
                    debug_assert!(!self.nodes[idx32(c)].dirty, "refresh above a dirty child");
                    agg = self.f.combine_opt(agg, self.nodes[idx32(c)].agg.as_ref());
                }
            }
        }
        let node = &mut self.nodes[ni];
        node.agg = agg;
        if node.dirty {
            node.dirty = false;
            self.dirty_count -= 1;
        }
    }

    /// Marks `n` and its ancestors dirty without touching counts or
    /// aggregates. Stops at the first already-dirty node — the
    /// dirty-parent invariant guarantees everything above is marked.
    fn mark_dirty_up(&mut self, mut n: u32) {
        while n != NIL {
            let node = &mut self.nodes[idx32(n)];
            if node.dirty {
                break;
            }
            node.dirty = true;
            self.dirty_count += 1;
            n = node.parent;
        }
    }

    /// Recomputes `n`'s count from its direct children and marks it
    /// dirty: its aggregate waits for `repair_dirty`.
    fn recount(&mut self, n: u32) {
        let ni = idx32(n);
        let count = match &self.nodes[ni].entries {
            Entries::Leaf(items) => items.len(),
            Entries::Internal(children) => {
                children.iter().map(|&c| self.nodes[idx32(c)].count).sum()
            }
        };
        let node = &mut self.nodes[ni];
        node.count = count;
        if !node.dirty {
            node.dirty = true;
            self.dirty_count += 1;
        }
    }

    /// The upward pass of a structural write: every count from `n` to
    /// the root is recomputed (position lookups must stay exact) and the
    /// whole path is marked dirty.
    fn recount_up(&mut self, mut n: u32) {
        while n != NIL {
            self.recount(n);
            n = self.nodes[idx32(n)].parent;
        }
    }

    /// Recomputes a dirty subtree bottom-up, descending into dirty
    /// children only.
    fn repair_node(&mut self, n: u32) {
        let mut kids = [NIL; MAX_FANOUT];
        let mut k = 0usize;
        if let Entries::Internal(children) = &self.nodes[idx32(n)].entries {
            k = children.len().min(MAX_FANOUT);
            kids[..k].copy_from_slice(&children[..k]);
        }
        for &c in &kids[..k] {
            if self.nodes[idx32(c)].dirty {
                self.repair_node(c);
            }
        }
        self.refresh_node(n);
        debug_assert!(!self.nodes[idx32(n)].dirty, "repair left a node dirty");
    }

    /// Appends `p` to the last leaf (splitting on overflow, growing the
    /// root as needed) and returns the leaf holding the new item.
    /// Ancestor counts are NOT updated — callers follow with
    /// `recount_up`.
    fn push_raw(&mut self, p: Option<A::Partial>) -> u32 {
        self.len += 1;
        if self.root == NIL {
            let leaf = self.alloc(Node {
                parent: NIL,
                count: 1,
                dirty: false,
                agg: None,
                entries: Entries::Leaf(vec![p]),
            });
            self.root = leaf;
            self.first_leaf = leaf;
            self.last_leaf = leaf;
            return leaf;
        }
        let leaf = self.last_leaf;
        let li = idx32(leaf);
        let (new_len, overflow) = match &mut self.nodes[li].entries {
            Entries::Leaf(items) => {
                items.push(p);
                (items.len(), items.len() > MAX_FANOUT)
            }
            Entries::Internal(_) => {
                debug_assert!(false, "last-leaf finger points at an internal node");
                (0, false)
            }
        };
        self.nodes[li].count = new_len;
        if overflow {
            self.split_leaf(leaf);
            self.refresh_fingers();
            return self.last_leaf;
        }
        leaf
    }

    /// Splits an overflowing leaf in half; the right half becomes a new
    /// sibling attached to the same parent (cascading splits upward).
    fn split_leaf(&mut self, leaf: u32) {
        let li = idx32(leaf);
        let right_items = match &mut self.nodes[li].entries {
            Entries::Leaf(items) => items.split_off(items.len() / 2),
            Entries::Internal(_) => {
                debug_assert!(false, "split_leaf on an internal node");
                return;
            }
        };
        let right = self.alloc(Node {
            parent: NIL,
            count: right_items.len(),
            dirty: false,
            agg: None,
            entries: Entries::Leaf(right_items),
        });
        self.recount(leaf);
        self.recount(right);
        self.insert_after(leaf, right);
    }

    /// Splits an overflowing internal node in half (children move to a
    /// new right sibling).
    fn split_internal(&mut self, node: u32) {
        let ni = idx32(node);
        let right_children = match &mut self.nodes[ni].entries {
            Entries::Internal(children) => children.split_off(children.len() / 2),
            Entries::Leaf(_) => {
                debug_assert!(false, "split_internal on a leaf");
                return;
            }
        };
        let mut moved = [NIL; MAX_FANOUT];
        let k = right_children.len().min(MAX_FANOUT);
        moved[..k].copy_from_slice(&right_children[..k]);
        let right = self.alloc(Node {
            parent: NIL,
            count: 0,
            dirty: false,
            agg: None,
            entries: Entries::Internal(right_children),
        });
        for &c in &moved[..k] {
            self.nodes[idx32(c)].parent = right;
        }
        self.recount(node);
        self.recount(right);
        self.insert_after(node, right);
    }

    /// Links `right` as the sibling immediately after `left`, growing a
    /// new root when `left` was the root.
    fn insert_after(&mut self, left: u32, right: u32) {
        let parent = self.nodes[idx32(left)].parent;
        if parent == NIL {
            let new_root = self.alloc(Node {
                parent: NIL,
                count: 0,
                dirty: false,
                agg: None,
                entries: Entries::Internal(vec![left, right]),
            });
            self.nodes[idx32(left)].parent = new_root;
            self.nodes[idx32(right)].parent = new_root;
            self.root = new_root;
            self.recount(new_root);
            return;
        }
        self.nodes[idx32(right)].parent = parent;
        let pi = idx32(parent);
        let overflow = match &mut self.nodes[pi].entries {
            Entries::Internal(children) => {
                let pos = children.iter().position(|&c| c == left).unwrap_or(children.len() - 1);
                children.insert(pos + 1, right);
                children.len() > MAX_FANOUT
            }
            Entries::Leaf(_) => {
                debug_assert!(false, "leaf as a parent node");
                false
            }
        };
        if overflow {
            self.split_internal(parent);
        }
    }

    /// Unlinks an empty node from its parent chain (relaxed deletion —
    /// no rebalancing; leaf depths stay uniform).
    fn unlink(&mut self, n: u32) {
        let parent = self.nodes[idx32(n)].parent;
        self.free_node(n);
        if parent == NIL {
            self.root = NIL;
            self.first_leaf = NIL;
            self.last_leaf = NIL;
            return;
        }
        let pi = idx32(parent);
        let now_empty = match &mut self.nodes[pi].entries {
            Entries::Internal(children) => {
                if let Some(pos) = children.iter().position(|&c| c == n) {
                    children.remove(pos);
                }
                children.is_empty()
            }
            Entries::Leaf(_) => {
                debug_assert!(false, "leaf as a parent node");
                false
            }
        };
        if now_empty {
            self.unlink(parent);
        } else {
            self.recount_up(parent);
        }
    }

    /// Shrinks the root while it is an internal node with one child.
    fn collapse_root(&mut self) {
        while self.root != NIL {
            let only = match &self.nodes[idx32(self.root)].entries {
                Entries::Internal(children) if children.len() == 1 => children[0],
                _ => break,
            };
            let old = self.root;
            self.nodes[idx32(only)].parent = NIL;
            self.root = only;
            self.free_node(old);
        }
    }

    /// Re-derives both end fingers by walking the outer spines.
    /// O(height); called after every structural change.
    fn refresh_fingers(&mut self) {
        if self.root == NIL {
            self.first_leaf = NIL;
            self.last_leaf = NIL;
            return;
        }
        let mut n = self.root;
        loop {
            match &self.nodes[idx32(n)].entries {
                Entries::Leaf(_) => break,
                Entries::Internal(children) => n = children[0],
            }
        }
        self.first_leaf = n;
        let mut n = self.root;
        loop {
            match &self.nodes[idx32(n)].entries {
                Entries::Leaf(_) => break,
                Entries::Internal(children) => n = children[children.len() - 1],
            }
        }
        self.last_leaf = n;
    }

    // ------------------------------------------------------------------
    // Audit
    // ------------------------------------------------------------------

    /// Full structural check: parent links, exact subtree counts,
    /// uniform leaf depth (the finger-height invariant), fanout bounds,
    /// the dirty-parent invariant, the dirty counter, aggregate
    /// presence-consistency on clean nodes, and finger correctness.
    /// Always compiled (integration tests outside this crate drive it);
    /// the audit build additionally runs it in the store's sweep.
    pub fn assert_invariants(&self) {
        if self.root == NIL {
            assert_eq!(self.len, 0, "empty tree with non-zero len");
            assert_eq!(self.dirty_count, 0, "empty tree with dirty nodes");
            assert!(self.first_leaf == NIL && self.last_leaf == NIL, "fingers on empty tree");
            return;
        }
        assert_eq!(self.nodes[idx32(self.root)].parent, NIL, "root has a parent");
        if let Entries::Internal(children) = &self.nodes[idx32(self.root)].entries {
            assert!(children.len() >= 2, "internal root with fewer than two children");
        }
        let mut dirty_seen = 0usize;
        let mut leaf_depth: Option<usize> = None;
        let mut leaves: Vec<u32> = Vec::new();
        let count = self.check_node(self.root, 0, &mut dirty_seen, &mut leaf_depth, &mut leaves);
        assert_eq!(count, self.len, "root subtree count != len");
        assert_eq!(dirty_seen, self.dirty_count, "dirty counter out of sync");
        assert_eq!(leaves.first().copied(), Some(self.first_leaf), "left finger stale");
        assert_eq!(leaves.last().copied(), Some(self.last_leaf), "right finger stale");
    }

    fn check_node(
        &self,
        n: u32,
        depth: usize,
        dirty_seen: &mut usize,
        leaf_depth: &mut Option<usize>,
        leaves: &mut Vec<u32>,
    ) -> usize {
        let node = &self.nodes[idx32(n)];
        if node.dirty {
            *dirty_seen += 1;
        }
        match &node.entries {
            Entries::Leaf(items) => {
                assert!(!items.is_empty(), "empty leaf left linked");
                assert!(items.len() <= MAX_FANOUT, "leaf over fanout");
                match leaf_depth {
                    Some(d) => assert_eq!(*d, depth, "leaf depth skew (finger heights broken)"),
                    None => *leaf_depth = Some(depth),
                }
                assert_eq!(node.count, items.len(), "leaf count mismatch");
                if !node.dirty {
                    let present = items.iter().any(|i| i.is_some());
                    assert_eq!(node.agg.is_some(), present, "leaf aggregate presence mismatch");
                }
                leaves.push(n);
                items.len()
            }
            Entries::Internal(children) => {
                assert!(!children.is_empty(), "empty internal node left linked");
                assert!(children.len() <= MAX_FANOUT, "internal node over fanout");
                let mut sum = 0usize;
                let mut child_dirty = false;
                let mut any_present = false;
                for &c in children {
                    assert_eq!(self.nodes[idx32(c)].parent, n, "child parent link broken");
                    child_dirty |= self.nodes[idx32(c)].dirty;
                    any_present |= self.nodes[idx32(c)].agg.is_some();
                    sum += self.check_node(c, depth + 1, dirty_seen, leaf_depth, leaves);
                }
                if child_dirty {
                    assert!(node.dirty, "dirty child under a clean parent");
                }
                if !node.dirty {
                    assert_eq!(
                        node.agg.is_some(),
                        any_present,
                        "internal aggregate presence mismatch"
                    );
                }
                assert_eq!(node.count, sum, "subtree count mismatch");
                sum
            }
        }
    }
}

impl<A: AggregateFunction> HeapSize for FingerTree<A> {
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.nodes.capacity() * std::mem::size_of::<Node<A::Partial>>()
            + self.free.capacity() * std::mem::size_of::<u32>();
        for node in &self.nodes {
            bytes += node.agg.heap_bytes();
            bytes += match &node.entries {
                Entries::Leaf(items) => {
                    items.capacity() * std::mem::size_of::<Option<A::Partial>>()
                        + items.iter().map(HeapSize::heap_bytes).sum::<usize>()
                }
                Entries::Internal(children) => children.capacity() * std::mem::size_of::<u32>(),
            };
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{Concat, SumI64};

    /// Leaves `1..=n`, repaired.
    fn filled(n: usize) -> FingerTree<SumI64> {
        let mut t = FingerTree::new(SumI64);
        for i in 0..n {
            t.push(Some(i as i64 + 1));
        }
        t.assert_invariants();
        t.repair_dirty();
        t
    }

    /// Repairs `t` and checks it, as a reader must before a query.
    fn repaired<A: AggregateFunction>(t: &mut FingerTree<A>) {
        t.assert_invariants();
        t.repair_dirty();
        assert!(!t.has_dirty());
        t.assert_invariants();
    }

    #[test]
    fn push_and_total() {
        let t = filled(100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.total().copied(), Some((1..=100).sum()));
        for i in 0..100 {
            assert_eq!(t.leaf(i).copied(), Some(i as i64 + 1));
        }
    }

    #[test]
    fn empty_tree() {
        let t: FingerTree<SumI64> = FingerTree::new(SumI64);
        assert!(t.is_empty());
        assert_eq!(t.total(), None);
        assert_eq!(t.query(0, 0), None);
        t.assert_invariants();
    }

    #[test]
    fn query_ranges_match_scan() {
        let t = filled(73);
        for l in 0..=73 {
            for r in l..=73 {
                let expect: i64 = (l..r).map(|i| i as i64 + 1).sum();
                let got = t.query(l, r).unwrap_or(0);
                assert_eq!(got, expect, "range [{l}, {r})");
            }
        }
    }

    #[test]
    fn every_write_defers_until_repair() {
        let mut t = filled(50);
        t.update(10, Some(1000));
        assert!(t.has_dirty());
        assert_eq!(t.leaf(10).copied(), Some(1000));
        repaired(&mut t);
        let expect: i64 = (1..=50).sum::<i64>() - 11 + 1000;
        assert_eq!(t.total().copied(), Some(expect));
        // Structural writes leave dirt too, and one repair settles a mix.
        t.update(3, Some(2000));
        t.insert(40, Some(7));
        t.remove(0);
        t.push(Some(9));
        t.remove_prefix(2);
        assert!(t.has_dirty());
        repaired(&mut t);
        assert_eq!(t.total().copied(), Some(expect - 4 + 2000 + 7 - 1 + 9 - 2 - 3));
    }

    #[test]
    fn insert_shifts_positions() {
        let mut t = filled(20);
        t.insert(5, Some(-7));
        repaired(&mut t);
        assert_eq!(t.len(), 21);
        assert_eq!(t.leaf(5).copied(), Some(-7));
        assert_eq!(t.leaf(6).copied(), Some(6));
        assert_eq!(t.total().copied(), Some((1..=20).sum::<i64>() - 7));
        t.insert(0, None);
        t.insert(22, Some(9));
        repaired(&mut t);
        assert_eq!(t.leaf(0), None);
        assert_eq!(t.leaf(22).copied(), Some(9));
    }

    #[test]
    fn remove_shifts_positions() {
        let mut t = filled(30);
        assert_eq!(t.remove(4), Some(5));
        repaired(&mut t);
        assert_eq!(t.len(), 29);
        assert_eq!(t.leaf(4).copied(), Some(6));
        assert_eq!(t.total().copied(), Some((1..=30).sum::<i64>() - 5));
        // drain everything front-first
        for _ in 0..29 {
            t.remove(0);
            repaired(&mut t);
        }
        assert!(t.is_empty());
        assert_eq!(t.total(), None);
    }

    #[test]
    fn remove_prefix_bulk_evicts() {
        for n in [1usize, 7, 8, 9, 64, 100, 257] {
            for k in [0usize, 1, 3, 8, 17, 63] {
                if k > n {
                    continue;
                }
                let mut t = filled(n);
                t.remove_prefix(k);
                repaired(&mut t);
                assert_eq!(t.len(), n - k);
                let expect: i64 = (k..n).map(|i| i as i64 + 1).sum();
                assert_eq!(t.query(0, n - k).unwrap_or(0), expect, "n={n} k={k}");
            }
        }
        let mut t = filled(40);
        t.remove_prefix(40);
        assert!(t.is_empty());
        t.assert_invariants();
    }

    #[test]
    fn remove_prefix_with_pending_dirt_behind_keeps_repairs() {
        let mut t = filled(100);
        t.update(90, Some(0));
        t.remove_prefix(50);
        assert!(t.has_dirty());
        repaired(&mut t);
        let expect: i64 = (50..100).map(|i| i as i64 + 1).sum::<i64>() - 91;
        assert_eq!(t.total().copied(), Some(expect));
    }

    #[test]
    fn non_commutative_order_is_preserved() {
        let mut t = FingerTree::new(Concat);
        for i in 0..40i64 {
            t.push(Some(vec![i]));
        }
        repaired(&mut t);
        let q = t.query(3, 27);
        let expect: Vec<i64> = (3..27).collect();
        assert_eq!(q, Some(expect));
        t.insert(10, Some(vec![200]));
        repaired(&mut t);
        let q = t.query(8, 13);
        assert_eq!(q, Some(vec![8, 9, 200, 10, 11]));
    }

    #[test]
    fn deferred_push_keeps_counts_exact() {
        let mut t = filled(9);
        for i in 0..30 {
            t.push(Some(100 + i));
            // position lookups must work while dirty
            assert_eq!(t.leaf(9 + i as usize).copied(), Some(100 + i));
        }
        assert!(t.has_dirty());
        repaired(&mut t);
        let expect: i64 = (1..=9).sum::<i64>() + (100..130).sum::<i64>();
        assert_eq!(t.total().copied(), Some(expect));
    }

    #[test]
    fn heap_bytes_tracks_arena() {
        let t = filled(1000);
        let bytes = t.heap_bytes();
        assert!(bytes >= 1000 * std::mem::size_of::<Option<i64>>());
        let empty: FingerTree<SumI64> = FingerTree::new(SumI64);
        assert_eq!(empty.heap_bytes(), 0);
    }
}
