//! Property tests for the core data structures: FlatFAT against a linear
//! model, the slice store against a reference implementation, and slice
//! operations against recomputation from scratch.

use gss_core::testsupport::{Concat, SumI64};
use gss_core::{AggregateFunction, FingerTree, FlatFat, Range, SliceStore, StorePolicy};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum TreeOp {
    Push(i64),
    Update(usize, i64),
    Insert(usize, i64),
    Remove(usize),
    Query(usize, usize),
}

fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            (-100i64..100).prop_map(TreeOp::Push),
            (0usize..64, -100i64..100).prop_map(|(i, v)| TreeOp::Update(i, v)),
            (0usize..64, -100i64..100).prop_map(|(i, v)| TreeOp::Insert(i, v)),
            (0usize..64).prop_map(TreeOp::Remove),
            (0usize..64, 0usize..64).prop_map(|(l, r)| TreeOp::Query(l, r)),
        ],
        1..200,
    )
}

#[derive(Debug, Clone)]
enum FingerOp {
    Push(i64),
    Update(usize, i64),
    Insert(usize, i64),
    Remove(usize),
    RemovePrefix(usize),
    Query(usize, usize),
}

fn finger_ops() -> impl Strategy<Value = Vec<FingerOp>> {
    prop::collection::vec(
        prop_oneof![
            (-100i64..100).prop_map(FingerOp::Push),
            (0usize..64, -100i64..100).prop_map(|(i, v)| FingerOp::Update(i, v)),
            (0usize..64, -100i64..100).prop_map(|(i, v)| FingerOp::Insert(i, v)),
            (0usize..64).prop_map(FingerOp::Remove),
            (0usize..64).prop_map(FingerOp::RemovePrefix),
            (0usize..64, 0usize..64).prop_map(|(l, r)| FingerOp::Query(l, r)),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// FlatFAT agrees with a plain vector model under arbitrary operation
    /// sequences (indices are clamped into range).
    #[test]
    fn flatfat_matches_linear_model(ops in tree_ops()) {
        let mut tree = FlatFat::new(SumI64);
        let mut model: Vec<i64> = Vec::new();
        for op in ops {
            match op {
                TreeOp::Push(v) => {
                    tree.push(Some(v));
                    model.push(v);
                }
                TreeOp::Update(i, v) if !model.is_empty() => {
                    let i = i % model.len();
                    tree.update(i, Some(v));
                    model[i] = v;
                }
                TreeOp::Insert(i, v) => {
                    let i = i % (model.len() + 1);
                    tree.insert(i, Some(v));
                    model.insert(i, v);
                }
                TreeOp::Remove(i) if !model.is_empty() => {
                    let i = i % model.len();
                    tree.remove(i);
                    model.remove(i);
                }
                TreeOp::Query(l, r) if !model.is_empty() => {
                    let l = l % (model.len() + 1);
                    let r = l + (r % (model.len() - l + 1));
                    let expect: Option<i64> =
                        if l == r { None } else { Some(model[l..r].iter().sum()) };
                    prop_assert_eq!(tree.query(l, r), expect);
                }
                _ => {}
            }
            prop_assert_eq!(tree.len(), model.len());
            let total: Option<i64> =
                if model.is_empty() { None } else { Some(model.iter().sum()) };
            prop_assert_eq!(tree.total().copied(), total);
        }
    }

    /// The finger B-tree agrees with a plain vector model under
    /// arbitrary operation sequences — the same harness FlatFAT is
    /// pinned by, plus bulk `remove_prefix` evictions. Every write
    /// defers its spine repair, so writes pile up dirt between reads,
    /// each read (a range query and the total) repairs first, and
    /// structural invariants are checked after every step.
    #[test]
    fn finger_tree_matches_linear_model(ops in finger_ops()) {
        let mut tree = FingerTree::new(SumI64);
        let mut model: Vec<i64> = Vec::new();
        for op in ops {
            match op {
                FingerOp::Push(v) => {
                    tree.push(Some(v));
                    model.push(v);
                }
                FingerOp::Update(i, v) if !model.is_empty() => {
                    let i = i % model.len();
                    tree.update(i, Some(v));
                    model[i] = v;
                }
                FingerOp::Insert(i, v) => {
                    let i = i % (model.len() + 1);
                    tree.insert(i, Some(v));
                    model.insert(i, v);
                }
                FingerOp::Remove(i) if !model.is_empty() => {
                    let i = i % model.len();
                    tree.remove(i);
                    model.remove(i);
                }
                FingerOp::RemovePrefix(k) => {
                    let k = k % (model.len() + 1);
                    tree.remove_prefix(k);
                    model.drain(..k);
                }
                FingerOp::Query(l, r) if !model.is_empty() => {
                    tree.repair_dirty();
                    tree.assert_invariants();
                    let l = l % (model.len() + 1);
                    let r = l + (r % (model.len() - l + 1));
                    let expect: Option<i64> =
                        if l == r { None } else { Some(model[l..r].iter().sum()) };
                    prop_assert_eq!(tree.query(l, r), expect);
                    prop_assert_eq!(tree.total().copied(), Some(model.iter().sum()));
                }
                _ => {}
            }
            tree.assert_invariants();
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.repair_dirty();
        let total: Option<i64> = if model.is_empty() { None } else { Some(model.iter().sum()) };
        prop_assert_eq!(tree.total().copied(), total);
    }

    /// The finger B-tree preserves leaf order for non-commutative
    /// combines (same pin as FlatFAT's).
    #[test]
    fn finger_tree_order_preserving(values in prop::collection::vec(0i64..100, 1..64)) {
        let mut tree = FingerTree::new(Concat);
        for v in &values {
            tree.push(Some(vec![*v]));
        }
        tree.repair_dirty();
        prop_assert_eq!(tree.query(0, values.len()), Some(values.clone()));
        let mid = values.len() / 2;
        prop_assert_eq!(tree.query(0, mid).unwrap_or_default(), values[..mid].to_vec());
        prop_assert_eq!(tree.query(mid, values.len()).unwrap_or_default(), values[mid..].to_vec());
    }

    /// FlatFAT preserves leaf order for non-commutative combines.
    #[test]
    fn flatfat_order_preserving(values in prop::collection::vec(0i64..100, 1..64)) {
        let mut tree = FlatFat::new(Concat);
        for v in &values {
            tree.push(Some(vec![*v]));
        }
        prop_assert_eq!(tree.query(0, values.len()), Some(values.clone()));
        // Range queries return contiguous sub-sequences in order.
        let mid = values.len() / 2;
        prop_assert_eq!(tree.query(0, mid).unwrap_or_default(), values[..mid].to_vec());
        prop_assert_eq!(tree.query(mid, values.len()).unwrap_or_default(), values[mid..].to_vec());
    }

    /// Splitting a slice at any point conserves tuples and aggregates.
    #[test]
    fn slice_split_conserves_content(
        tuples in prop::collection::vec((0i64..1_000, -50i64..50), 1..100),
        split_at in 1i64..999,
    ) {
        let mut sorted = tuples.clone();
        sorted.sort();
        let f = SumI64;
        let mut store = SliceStore::new(f, StorePolicy::Lazy, true);
        store.append_slice(Range::new(0, 1_000));
        for (ts, v) in &sorted {
            store.add_in_order_run_columns(&[*ts], &[*v]);
        }
        let total = store.slice(0).aggregate().copied().unwrap();
        let n = store.slice(0).len();
        prop_assert!(store.split_at(split_at));
        let (left, right) = (store.slice(0), store.slice(1));
        prop_assert_eq!((left.range(), right.range()), (Range::new(0, split_at), Range::new(split_at, 1_000)));
        prop_assert_eq!(left.len() + right.len(), n);
        let combined = f.combine_opt(left.aggregate().copied(), right.aggregate());
        prop_assert_eq!(combined, Some(total));
        // Partition respects the split point.
        if let Some(ts) = left.tuples().and_then(|t| t.last().map(|(ts, _)| *ts)) {
            prop_assert!(ts < split_at);
        }
        if let Some(ts) = right.tuples().and_then(|t| t.first().map(|(ts, _)| *ts)) {
            prop_assert!(ts >= split_at);
        }
    }

    /// Store query over any aligned range equals a scan over all stored
    /// tuples, lazy and eager alike. Each store is asked twice with a
    /// flush between: a long range first reaches a finger store before
    /// its tree is built (the slice scan answers), then after the build
    /// (the tree answers).
    #[test]
    fn store_range_queries_match_scan(
        tuples in prop::collection::vec((0i64..100, -50i64..50), 1..200),
        slice_len in 1i64..20,
        l in 0i64..100,
        len in 0i64..100,
    ) {
        let mut sorted = tuples.clone();
        sorted.sort();
        for policy in [StorePolicy::Lazy, StorePolicy::Eager, StorePolicy::FingerTree] {
            let mut store = SliceStore::new(SumI64, policy, false);
            let mut next_edge = slice_len;
            store.append_slice(Range::new(0, slice_len));
            for (ts, v) in &sorted {
                while *ts >= next_edge {
                    store.append_slice(Range::new(next_edge, next_edge + slice_len));
                    next_edge += slice_len;
                }
                store.add_in_order_run_columns(&[*ts], &[*v]);
            }
            store.flush_eager_repairs();
            // Align the query to slice edges.
            let start = (l / slice_len) * slice_len;
            let end = start + (len / slice_len + 1) * slice_len;
            let expect: i64 = sorted
                .iter()
                .filter(|(ts, _)| *ts >= start && *ts < end)
                .map(|(_, v)| v)
                .sum();
            for ask in ["before flush", "after flush"] {
                let got = store.query_time(Range::new(start, end)).unwrap_or(0);
                prop_assert_eq!(got, expect, "{:?} [{}, {}) {}", policy, start, end, ask);
                store.flush_eager_repairs();
            }
        }
    }

    /// Count bookkeeping: absolute counts survive eviction.
    #[test]
    fn store_counts_survive_eviction(
        n_slices in 2usize..20,
        per_slice in 1usize..10,
        evict_at in 0usize..10,
    ) {
        let mut store = SliceStore::new(SumI64, StorePolicy::Lazy, true);
        let mut ts = 0i64;
        for s in 0..n_slices {
            store.append_slice(Range::new((s as i64) * 100, (s as i64 + 1) * 100));
            for _ in 0..per_slice {
                store.add_in_order_run_columns(&[ts], &[1]);
                ts += 100 / per_slice as i64;
                ts = ts.min((s as i64 + 1) * 100 - 1);
            }
            ts = (s as i64 + 1) * 100;
        }
        let total_before = store.total_count();
        prop_assert_eq!(total_before, (n_slices * per_slice) as u64);
        let evict_slices = evict_at.min(n_slices - 1);
        store.evict_before(evict_slices as i64 * 100);
        prop_assert_eq!(store.total_count(), total_before);
        // Counts of retained slices remain queryable at absolute offsets.
        let c1 = (evict_slices * per_slice) as u64;
        let c2 = c1 + per_slice as u64;
        prop_assert_eq!(store.query_count(c1, c2), Some(per_slice as i64));
    }
}
