//! The reference checker: a brute-force recomputation of every window
//! result a stream must produce, sharing no code with the slicing
//! operators. It keeps every tuple, and folds each window from scratch
//! over the tuples that had arrived when the window was (re-)emitted.
//!
//! Semantics (paper Sections 2 and 5.3, as the operators document them):
//!
//! * a window fires once, as a *final* result, at the first watermark at
//!   or past its end — on a declared in-order stream every tuple also acts
//!   as a watermark carrying its own timestamp, fired before the tuple is
//!   added — and only if it holds at least one tuple;
//! * a watermark never fires past `last tuple time + longest window + 1`
//!   (windows beyond that are empty by construction);
//! * a late tuple (older than the newest tuple of its stream or key)
//!   below `watermark - allowed lateness` is dropped; one at or below the
//!   watermark re-emits, flagged *update*, every window containing it
//!   that ends at or before the watermark;
//! * keyed streams are independent per key under one global watermark.

use std::collections::HashMap;

use gss_core::{Time, TIME_MIN};

/// One element of a flattened verification stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elem {
    Tuple { ts: Time, key: u64, value: i64 },
    Mark(Time),
}

/// A window result in comparable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Row {
    pub query: u32,
    pub key: u64,
    pub start: Time,
    pub end: Time,
    pub update: bool,
    pub value: i64,
}

/// A periodic time window `[k*slide, k*slide + length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Win {
    pub length: Time,
    pub slide: Time,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    Sum,
    Max,
}

/// What the reference needs to know about the query set.
#[derive(Debug, Clone)]
pub struct Semantics {
    pub windows: Vec<Win>,
    pub fold: Fold,
    /// Declared in-order stream: tuples fire windows themselves.
    pub in_order: bool,
    pub lateness: Time,
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    t_first: Time,
    t_last: Time,
    /// Windows ending at or before this have had their final firing.
    fired: Time,
}

struct Checker<'a> {
    sem: &'a Semantics,
    /// Every tuple as `(key, ts, arrival, value)`, sorted.
    sorted: Vec<(u64, Time, usize, i64)>,
    accepted: Vec<bool>,
    rows: Vec<Row>,
}

impl Checker<'_> {
    /// Folds from scratch the accepted tuples of `key` in `[start, end)`
    /// that arrived at or before `upto`.
    fn fold(&self, key: u64, start: Time, end: Time, upto: usize) -> Option<i64> {
        let lo = self.sorted.partition_point(|&(k, t, _, _)| (k, t) < (key, start));
        let hi = self.sorted.partition_point(|&(k, t, _, _)| (k, t) < (key, end));
        let mut acc: Option<i64> = None;
        for &(_, _, arrival, v) in &self.sorted[lo..hi] {
            if arrival <= upto && self.accepted[arrival] {
                acc = Some(match (acc, self.sem.fold) {
                    (None, _) => v,
                    (Some(a), Fold::Sum) => a + v,
                    (Some(a), Fold::Max) => a.max(v),
                });
            }
        }
        acc
    }

    /// Final firing of every window of `key` ending in `(s.fired, upto]`.
    fn fire(&mut self, key: u64, s: &mut Stream, upto: Time, arrivals: usize) {
        let after = if s.fired == TIME_MIN { s.t_first.min(upto) } else { s.fired };
        if upto <= after {
            return;
        }
        for (q, w) in self.sem.windows.iter().enumerate() {
            let mut k = (after - w.length).div_euclid(w.slide) + 1;
            while k * w.slide + w.length <= upto {
                let (start, end) = (k * w.slide, k * w.slide + w.length);
                if let Some(value) = self.fold(key, start, end, arrivals) {
                    self.rows.push(Row { query: q as u32, key, start, end, update: false, value });
                }
                k += 1;
            }
        }
        s.fired = s.fired.max(upto);
    }
}

/// Outcome of the reference computation.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// Every result, sorted.
    pub rows: Vec<Row>,
    pub dropped_late: u64,
}

pub fn reference(elems: &[Elem], sem: &Semantics) -> Expected {
    let mut sorted: Vec<(u64, Time, usize, i64)> = elems
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match *e {
            Elem::Tuple { ts, key, value } => Some((key, ts, i, value)),
            Elem::Mark(_) => None,
        })
        .collect();
    sorted.sort_unstable();
    let extent = sem.windows.iter().map(|w| w.length).max().unwrap_or(0);
    let mut c = Checker { sem, sorted, accepted: vec![true; elems.len()], rows: Vec::new() };
    let mut streams: HashMap<u64, Stream> = HashMap::new();
    let mut wm = TIME_MIN;
    let mut dropped_late = 0;
    for (i, e) in elems.iter().enumerate() {
        match *e {
            Elem::Tuple { ts, key, .. } => {
                let mut s = streams.get(&key).copied().unwrap_or(Stream {
                    t_first: ts,
                    t_last: TIME_MIN,
                    fired: TIME_MIN,
                });
                if ts >= s.t_last {
                    if sem.in_order && i > 0 {
                        c.fire(key, &mut s, ts, i - 1);
                    }
                    s.t_last = ts;
                } else if wm != TIME_MIN && ts < wm - sem.lateness {
                    c.accepted[i] = false;
                    dropped_late += 1;
                } else if wm != TIME_MIN && ts <= wm {
                    for (q, w) in sem.windows.iter().enumerate() {
                        for k in (ts - w.length).div_euclid(w.slide) + 1..=ts.div_euclid(w.slide) {
                            let (start, end) = (k * w.slide, k * w.slide + w.length);
                            if end <= wm {
                                if let Some(value) = c.fold(key, start, end, i) {
                                    c.rows.push(Row {
                                        query: q as u32,
                                        key,
                                        start,
                                        end,
                                        update: true,
                                        value,
                                    });
                                }
                            }
                        }
                    }
                }
                s.t_first = s.t_first.min(ts);
                streams.insert(key, s);
            }
            Elem::Mark(new_wm) => {
                if new_wm <= wm {
                    continue;
                }
                for (&key, s) in &mut streams {
                    let upto = new_wm.min(s.t_last.saturating_add(extent).saturating_add(1));
                    c.fire(key, s, upto, i);
                }
                wm = new_wm;
            }
        }
    }
    c.rows.sort_unstable();
    Expected { rows: c.rows, dropped_late }
}

/// Rows of `got` (any order) that are missing from or extra to the sorted
/// `expected` rows, compared as multisets: every one is a failed operation.
pub fn mismatches(expected: &[Row], got: &mut [Row]) -> Vec<(&'static str, Row)> {
    got.sort_unstable();
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < expected.len() || j < got.len() {
        match (expected.get(i), got.get(j)) {
            (Some(e), Some(g)) if e == g => {
                i += 1;
                j += 1;
            }
            (Some(e), Some(g)) if e < g => {
                out.push(("missing", *e));
                i += 1;
            }
            (Some(e), None) => {
                out.push(("missing", *e));
                i += 1;
            }
            (_, Some(g)) => {
                out.push(("extra", *g));
                j += 1;
            }
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use gss_aggregates::{Max, Sum};
    use gss_core::{
        KeyedConfig, KeyedWindowOperator, OperatorConfig, StorePolicy, WindowAggregator,
        WindowOperator, WindowResult,
    };
    use gss_windows::{SlidingWindow, TumblingWindow};

    fn row(r: &WindowResult<i64>) -> Row {
        Row {
            query: r.query,
            key: 0,
            start: r.range.start,
            end: r.range.end,
            update: r.is_update,
            value: r.value,
        }
    }

    /// A disordered stream with stragglers below the watermark (updates)
    /// and a few tuples beyond the allowed lateness (drops).
    fn hostile(seed: u64, keys: u64) -> Vec<Elem> {
        let mut r = SplitMix64::new(seed);
        let mut out = Vec::new();
        for i in 0..3_000i64 {
            let late = match r.below(10) {
                0 => r.below(400) as Time,
                1 => r.below(60) as Time,
                _ => 0,
            };
            out.push(Elem::Tuple {
                ts: 1_000 + i - late,
                key: r.below(keys),
                value: r.below(100) as i64,
            });
            if i % 50 == 49 {
                out.push(Elem::Mark(1_000 + i - 30));
            }
        }
        out
    }

    fn drive_plain<A>(f: A, cfg: OperatorConfig, elems: &[Elem]) -> (Vec<Row>, u64)
    where
        A: gss_core::AggregateFunction<Input = i64, Output = i64>,
    {
        let mut op = WindowOperator::new(f, cfg);
        op.add_query(Box::new(TumblingWindow::new(100))).unwrap();
        op.add_query(Box::new(SlidingWindow::new(250, 50))).unwrap();
        let mut out = Vec::new();
        for e in elems {
            match *e {
                Elem::Tuple { ts, value, .. } => op.process_tuple(ts, value, &mut out),
                Elem::Mark(wm) => op.process_watermark(wm, &mut out),
            }
        }
        (out.iter().map(row).collect(), op.stats().dropped_late)
    }

    fn sem(fold: Fold, in_order: bool, lateness: Time) -> Semantics {
        Semantics {
            windows: vec![Win { length: 100, slide: 100 }, Win { length: 250, slide: 50 }],
            fold,
            in_order,
            lateness,
        }
    }

    #[test]
    fn matches_the_operator_on_late_tuples_updates_and_drops() {
        for seed in 0..4 {
            let elems = hostile(seed, 1);
            let cfg = OperatorConfig::out_of_order(200).with_policy(StorePolicy::FingerTree);
            let (mut got, dropped) = drive_plain(Sum, cfg, &elems);
            let want = reference(&elems, &sem(Fold::Sum, false, 200));
            assert!(want.rows.iter().any(|r| r.update), "stream must exercise updates");
            assert!(want.dropped_late > 0, "stream must exercise drops");
            assert_eq!(want.dropped_late, dropped);
            assert_eq!(mismatches(&want.rows, &mut got), vec![], "seed {seed}");
        }
    }

    #[test]
    fn matches_the_operator_on_in_order_streams_and_max() {
        let elems: Vec<Elem> = hostile(9, 1)
            .into_iter()
            .enumerate()
            .map(|(i, e)| match e {
                Elem::Tuple { key, value, .. } => {
                    Elem::Tuple { ts: 1_000 + i as Time / 2, key, value }
                }
                Elem::Mark(_) => Elem::Mark(1_000 + i as Time / 2),
            })
            .collect();
        let (mut got, _) = drive_plain(Max, OperatorConfig::in_order(), &elems);
        let want = reference(&elems, &sem(Fold::Max, true, 0));
        assert!(want.rows.len() > 20);
        assert_eq!(mismatches(&want.rows, &mut got), vec![]);
    }

    #[test]
    fn matches_the_keyed_operator() {
        let elems = hostile(5, 7);
        let mut op = KeyedWindowOperator::new(
            Sum,
            vec![Box::new(TumblingWindow::new(100)), Box::new(SlidingWindow::new(250, 50))],
            KeyedConfig::default().with_allowed_lateness(200),
        );
        assert!(op.is_shared());
        let mut out = Vec::new();
        for e in &elems {
            match *e {
                Elem::Tuple { ts, key, value } => op.process(ts, (key, value), &mut out),
                Elem::Mark(wm) => op.on_watermark(wm, &mut out),
            }
        }
        let mut got: Vec<Row> = out
            .iter()
            .map(|r| Row {
                query: r.query,
                key: r.value.0,
                start: r.range.start,
                end: r.range.end,
                update: r.is_update,
                value: r.value.1,
            })
            .collect();
        let want = reference(&elems, &sem(Fold::Sum, false, 200));
        assert!(want.rows.iter().any(|r| r.update));
        assert_eq!(want.dropped_late, op.stats().dropped_late);
        assert_eq!(mismatches(&want.rows, &mut got), vec![]);
    }

    #[test]
    fn mismatches_count_missing_extra_and_changed_rows() {
        let r =
            |start, value, update| Row { query: 0, key: 0, start, end: start + 10, update, value };
        let expected = vec![r(0, 1, false), r(10, 2, false), r(20, 3, false)];
        let mut got = vec![r(20, 3, true), r(0, 1, false), r(30, 4, false)];
        let m = mismatches(&expected, &mut got);
        let kinds: Vec<&str> = m.iter().map(|(k, _)| *k).collect();
        // (10,2) missing; (20,3) final missing + its update extra; (30,4) extra.
        assert_eq!(kinds.iter().filter(|k| **k == "missing").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "extra").count(), 2);
    }
}
