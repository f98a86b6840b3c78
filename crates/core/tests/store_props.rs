//! Property tests for the core data structures: FlatFAT against a linear
//! model, the slice store against a reference implementation, and slice
//! operations against recomputation from scratch.

use gss_core::testsupport::{Concat, SumI64};
use gss_core::{AggregateFunction, FlatFat, Range, SliceStore, StorePolicy, Time};
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
    /// tuples, lazy and eager alike.
    #[test]
    fn store_range_queries_match_scan(
        tuples in prop::collection::vec((0i64..100, -50i64..50), 1..200),
        slice_len in 1i64..20,
        l in 0i64..100,
        len in 0i64..100,
    ) {
        let mut sorted = tuples.clone();
        sorted.sort();
        for policy in [StorePolicy::Lazy, StorePolicy::Eager] {
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
            let got = store.query_time(Range::new(start, end)).unwrap_or(0);
            prop_assert_eq!(got, expect, "{:?} [{}, {})", policy, start, end);
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

/// One slice of the kept-tuple store model: its range and its tuples,
/// sorted by time with ties in arrival order.
#[derive(Debug, Clone)]
struct ModelSlice {
    start: Time,
    end: Time,
    tuples: Vec<(Time, i64)>,
}

/// A kept-tuple store as plain vectors: a `Vec` of tuples per slice, and
/// the number of tuples evicted.
#[derive(Default)]
struct StoreModel {
    slices: Vec<ModelSlice>,
    evicted: u64,
}

impl StoreModel {
    fn tuples(&self) -> impl Iterator<Item = &(Time, i64)> {
        self.slices.iter().flat_map(|s| &s.tuples)
    }

    /// The slice a late tuple at `ts` joins in count order: the first
    /// whose last tuple lies after `ts`, else the latest.
    fn count_index(&self, ts: Time) -> Option<usize> {
        let after = |s: &ModelSlice| s.tuples.last().is_some_and(|&(t, _)| t > ts);
        self.slices.iter().position(after).or(self.slices.len().checked_sub(1))
    }

    fn count_at_or_before(&self, ts: Time) -> u64 {
        self.evicted + self.tuples().filter(|&&(t, _)| t <= ts).count() as u64
    }
}

/// Inserts `t` into sorted `tuples` after every tuple with its timestamp.
fn insert_after_ties(tuples: &mut Vec<(Time, i64)>, t: (Time, i64)) {
    tuples.insert(tuples.partition_point(|s| s.0 <= t.0), t);
}

/// Applies operation `(code, a, b, v)` to the store and the model alike;
/// `a` and `b` pick positions and times, `v` the values. Returns the
/// operation's name, or `None` where it does not apply to the state.
fn step<A: AggregateFunction<Input = i64>>(
    store: &mut SliceStore<A>,
    model: &mut StoreModel,
    (code, a, b, v): (u8, u64, u64, i64),
) -> Result<Option<&'static str>, TestCaseError> {
    let n = model.slices.len();
    let m = &mut model.slices;
    let name = match code {
        _ if n == 0 || code == 0 => {
            // Append after the last slice, now and then past a gap.
            let from = m.last().map_or(0, |s| s.end) + (a % 3) as Time * 7;
            let range = Range::new(from, from + 1 + (b % 40) as Time);
            store.append_slice(range);
            m.push(ModelSlice { start: range.start, end: range.end, tuples: vec![] });
            "append"
        }
        1 => {
            // An in-order run into the open slice.
            let last_t = model.tuples().last().map(|t| t.0);
            let open = &mut model.slices[n - 1];
            let from = last_t.map_or(open.start, |t| t.max(open.start));
            if from >= open.end {
                return Ok(None);
            }
            let span = (open.end - from) as u64;
            let mut times: Vec<Time> =
                (0..1 + a % 4).map(|j| from + ((b >> (8 * j)) % span) as Time).collect();
            times.sort_unstable();
            let values: Vec<i64> = (0..times.len() as i64).map(|j| v + j).collect();
            store.add_in_order_run_columns(&times, &values);
            open.tuples.extend(times.into_iter().zip(values));
            "in-order run"
        }
        2 => {
            // A sorted late run into a non-empty slice, between the
            // tuples before it and its own last tuple.
            let i = (a % n as u64) as usize;
            let Some(&(hi, _)) = m[i].tuples.last() else {
                return Ok(None);
            };
            let before = m[..i].iter().flat_map(|s| &s.tuples).last();
            let lo = before.map_or(m[i].tuples[0].0 - 5, |t| t.0);
            let span = (hi - lo + 1) as u64;
            let mut run: Vec<(Time, i64)> = (0..1 + b % 3)
                .map(|j| (lo + ((b >> (8 * j + 2)) % span) as Time, v + j as i64))
                .collect();
            run.sort_by_key(|t| t.0);
            store.add_out_of_order_run(i, &run);
            for t in run {
                insert_after_ties(&mut m[i].tuples, t);
            }
            "late run"
        }
        3 => {
            // A gap slice before slice `i`.
            let i = (a % n as u64) as usize;
            let lo = if i == 0 { m[0].start - 20 } else { m[i - 1].end };
            if lo >= m[i].start {
                return Ok(None);
            }
            let x = lo + (b % (m[i].start - lo) as u64) as Time;
            let range = Range::new(x, x + 1 + ((b >> 16) % (m[i].start - x) as u64) as Time);
            prop_assert_eq!(store.insert_gap_slice(range), i, "gap {}", range);
            m.insert(i, ModelSlice { start: range.start, end: range.end, tuples: vec![] });
            "gap"
        }
        4 => {
            // Split a slice at a point strictly inside it.
            let i = (a % n as u64) as usize;
            let s = &mut m[i];
            if s.end - s.start < 2 {
                return Ok(None);
            }
            let ts = s.start + 1 + (b % (s.end - s.start - 1) as u64) as Time;
            prop_assert!(store.split_at(ts), "split at {}", ts);
            let right = ModelSlice {
                start: ts,
                end: std::mem::replace(&mut s.end, ts),
                tuples: s.tuples.split_off(s.tuples.partition_point(|t| t.0 < ts)),
            };
            m.insert(i + 1, right);
            "split"
        }
        5 => {
            // Merge at a slice's end: at a shared edge it merges, off one
            // it does nothing.
            let ts = m[(a % n as u64) as usize].end;
            let i = m.iter().take_while(|s| s.end < ts).count();
            let edge = i + 1 < n && m[i].end == ts && m[i + 1].start == ts;
            prop_assert_eq!(store.merge_at(ts), edge, "merge at {}", ts);
            if edge {
                let right = m.remove(i + 1);
                m[i].end = right.end;
                m[i].tuples.extend(right.tuples);
            }
            "merge"
        }
        6 | 7 => {
            // The count cascade: a late tuple at its count position, then
            // each later slice passes its last tuple on.
            let (lo, hi) = match (model.tuples().next(), model.tuples().last()) {
                (Some(first), Some(last)) => (first.0 - 3, last.0 + 3),
                _ => (model.slices[0].start, model.slices[n - 1].end),
            };
            let ts = lo + (a % (hi - lo + 1) as u64) as Time;
            let Some(idx) = model.count_index(ts) else {
                return Ok(None);
            };
            let m = &mut model.slices;
            insert_after_ties(&mut m[idx].tuples, (ts, v));
            for i in idx..n - 1 {
                if let Some(t) = m[i].tuples.pop() {
                    m[i + 1].tuples.insert(0, t);
                }
            }
            prop_assert_eq!(store.add_out_of_order_counted(ts, v), n - 1 - idx, "shifts");
            "count cascade"
        }
        8 => {
            // Evict by time.
            let (lo, hi) = (m[0].start, m[n - 1].end);
            let ts = lo + (a % (hi - lo + 1) as u64) as Time;
            let k = m.iter().take_while(|s| s.end <= ts).count();
            prop_assert_eq!(store.evict_before(ts), k, "evict before {}", ts);
            model.evicted += m.drain(..k).map(|s| s.tuples.len() as u64).sum::<u64>();
            "evict by time"
        }
        _ => {
            // Evict by count, the open slice excepted.
            let total = model.evicted + m.iter().map(|s| s.tuples.len() as u64).sum::<u64>();
            let keep_from = model.evicted + a % (total - model.evicted + 2);
            let mut pos = model.evicted;
            let mut k = 0;
            while k + 1 < n && pos + m[k].tuples.len() as u64 <= keep_from {
                pos += m[k].tuples.len() as u64;
                k += 1;
            }
            prop_assert_eq!(store.evict_keeping_counts(keep_from), k, "keep from {}", keep_from);
            m.drain(..k);
            model.evicted = pos;
            "evict by count"
        }
    };
    Ok(Some(name))
}

/// Every slice's tuples, extent and partial against the model, and the
/// count lookups at and around every stored time.
fn check_store<A>(
    store: &mut SliceStore<A>,
    model: &StoreModel,
    at: &str,
) -> Result<(), TestCaseError>
where
    A: AggregateFunction<Input = i64>,
    A::Partial: PartialEq + std::fmt::Debug,
{
    let f = store.function().clone();
    prop_assert_eq!(store.len(), model.slices.len(), "{}: slices", at);
    for (i, (got, want)) in store.slices().zip(&model.slices).enumerate() {
        prop_assert_eq!(got.range(), Range::new(want.start, want.end), "{}: slice {} range", at, i);
        prop_assert_eq!(got.tuples(), Some(&want.tuples[..]), "{}: slice {} tuples", at, i);
        prop_assert_eq!(got.len(), want.tuples.len(), "{}: slice {} count", at, i);
        let first = want.tuples.first().map_or(Time::MAX, |t| t.0);
        let last = want.tuples.last().map_or(Time::MIN, |t| t.0);
        prop_assert_eq!((got.t_first(), got.t_last()), (first, last), "{}: slice {} extent", at, i);
        let partial = f.lift_all(want.tuples.iter().map(|(_, v)| v));
        prop_assert_eq!(got.aggregate(), partial.as_ref(), "{}: slice {} partial", at, i);
    }
    let total = model.evicted + model.tuples().count() as u64;
    prop_assert_eq!(store.total_count(), total, "{}: total count", at);
    let mut probes: Vec<Time> = model.tuples().flat_map(|t| [t.0 - 1, t.0, t.0 + 1]).collect();
    probes.extend(model.slices.iter().map(|s| s.start));
    for ts in probes {
        let want = model.count_at_or_before(ts);
        prop_assert_eq!(store.count_at_or_before(ts), want, "{}: count at or before {}", at, ts);
        let want = model.count_index(ts);
        prop_assert_eq!(store.covering_index_by_count(ts), want, "{}: count slot of {}", at, ts);
    }
    store.flush_eager_repairs();
    let all = f.lift_all(model.tuples().map(|(_, v)| v));
    prop_assert_eq!(store.query_slice_range(0, store.len()), all, "{}: the whole store", at);
    Ok(())
}

fn store_matches_model<A>(
    f: A,
    policy: StorePolicy,
    ops: &[(u8, u64, u64, i64)],
) -> Result<(), TestCaseError>
where
    A: AggregateFunction<Input = i64>,
    A::Partial: PartialEq + std::fmt::Debug,
{
    let mut store = SliceStore::new(f, policy, true);
    let mut model = StoreModel::default();
    for (k, &op) in ops.iter().enumerate() {
        if let Some(name) = step(&mut store, &mut model, op)? {
            check_store(&mut store, &model, &format!("step {k}: {name}"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A kept-tuple store against a `Vec` of tuples per slice, through
    /// appends, in-order runs, sorted late runs, gap inserts, splits,
    /// merges, the count cascade and eviction by time and by count. After
    /// every step each slice's tuples, extent and partial match, and so do
    /// the count lookups. `Concat` shows any tuple out of order in its
    /// partials; `SumI64` takes the cascade's ⊖ path.
    #[test]
    fn kept_tuple_store_matches_a_vec_per_slice_model(
        ops in prop::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..u64::MAX, -50i64..50), 1..120),
        policy in 0usize..2,
    ) {
        let policy = [StorePolicy::Lazy, StorePolicy::Eager][policy];
        store_matches_model(Concat, policy, &ops)?;
        store_matches_model(SumI64, policy, &ops)?;
    }
}
