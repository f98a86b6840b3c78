//! The six workloads: what each one is, why it is here, and the generator
//! that makes one *period* of its endless periodic stream from the seed.
//!
//! A period is a fixed number of *passes*. Every pass of a workload carries
//! the same tuple count and the same number of watermarks and ends on a
//! watermark, so that passes are interchangeable units of work — the
//! property the floor-time estimator rests on. The endless stream is the
//! period repeated with event times (and, for `keyed_churn`, key ids)
//! shifted by one period span per repetition.

use gss_core::{StorePolicy, StreamOrder, Time};

use crate::rng::{Digest, SplitMix64};

/// Event time of the first period's origin. Far enough from zero that a
/// watermark trailing by 30 s is still a positive timestamp.
pub const EPOCH: Time = 100_000_000;

/// Records per operator call in the op run (the pipeline's default
/// adaptive-batching target).
pub const CHUNK: usize = 4096;

/// Which operator a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `WindowOperator` over the whole stream.
    Plain { order: StreamOrder, policy: StorePolicy, lateness: Time },
    /// One `KeyedWindowOperator` hosting every key.
    Keyed { idle_ttl: Option<Time> },
}

impl Shape {
    pub fn is_keyed(&self) -> bool {
        matches!(self, Shape::Keyed { .. })
    }
}

/// A watermark inside a period: it follows the first `at` tuples of the
/// period and carries `wm` (an offset from the period's origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    pub at: usize,
    pub wm: Time,
}

/// One period of a workload's input, struct-of-arrays.
#[derive(Debug, Clone)]
pub struct Period {
    /// Event-time offsets from the period's origin (may be negative for
    /// late tuples at the very start).
    pub times: Vec<Time>,
    pub values: Vec<i64>,
    /// Key per tuple; empty for unkeyed workloads.
    pub keys: Vec<u64>,
    pub marks: Vec<Mark>,
    pub passes: usize,
    pub tuples_per_pass: usize,
    pub marks_per_pass: usize,
    /// Event time covered by one period.
    pub span: Time,
    /// Added to every key per repetition of the period (0 = keys recur).
    pub key_span: u64,
}

/// One segment of a pass: a run of tuples followed by a watermark.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub lo: usize,
    pub hi: usize,
    /// Absolute watermark.
    pub wm: Time,
}

/// One operator call of a pass, as the op run and the replays make them.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    /// Tuples `lo..hi` of the period: at most [`CHUNK`], never across a
    /// watermark (a watermark flushes the pipeline's chunk builder too).
    Chunk { lo: usize, hi: usize },
    /// The (absolute) watermark that follows them.
    Mark(Time),
}

impl Period {
    /// Event-time origin of the repetition that pass `g` belongs to.
    pub fn base(&self, g: u64) -> Time {
        EPOCH + (g / self.passes as u64) as Time * self.span
    }

    pub fn key_base(&self, g: u64) -> u64 {
        (g / self.passes as u64) * self.key_span
    }

    /// The segments of global pass `g`.
    pub fn segments(&self, g: u64) -> impl Iterator<Item = Segment> + '_ {
        let p = (g % self.passes as u64) as usize;
        let base = self.base(g);
        let marks = &self.marks[p * self.marks_per_pass..(p + 1) * self.marks_per_pass];
        let mut lo = p * self.tuples_per_pass;
        marks.iter().map(move |m| {
            let seg = Segment { lo, hi: m.at, wm: base + m.wm };
            lo = m.at;
            seg
        })
    }

    /// The calls of global pass `g`, in order.
    pub fn calls(&self, g: u64) -> impl Iterator<Item = Call> + '_ {
        self.segments(g).flat_map(|seg| {
            let chunks = (seg.lo..seg.hi)
                .step_by(CHUNK)
                .map(move |lo| Call::Chunk { lo, hi: (lo + CHUNK).min(seg.hi) });
            chunks.chain([Call::Mark(seg.wm)])
        })
    }

    /// FNV-1a over every word of the period, printed with each run.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for (i, (&t, &v)) in self.times.iter().zip(&self.values).enumerate() {
            d.word(t as u64);
            d.word(v as u64);
            if let Some(&k) = self.keys.get(i) {
                d.word(k);
            }
        }
        for m in &self.marks {
            d.word(m.at as u64);
            d.word(m.wm as u64);
        }
        d.word(self.span as u64);
        d.word(self.key_span);
        d.finish()
    }

    /// The pass contract: equal tuple and watermark counts, every pass
    /// ending on a watermark, watermarks never regressing.
    pub fn check_shape(&self) -> Result<(), String> {
        let n = self.passes * self.tuples_per_pass;
        if self.times.len() != n || self.values.len() != n {
            return Err(format!(
                "{} times / {} values, expected {n}",
                self.times.len(),
                self.values.len()
            ));
        }
        if !self.keys.is_empty() && self.keys.len() != n {
            return Err(format!("{} keys, expected {n}", self.keys.len()));
        }
        if self.marks.len() != self.passes * self.marks_per_pass || self.marks_per_pass == 0 {
            return Err(format!("{} marks for {} passes", self.marks.len(), self.passes));
        }
        for p in 0..self.passes {
            let marks = &self.marks[p * self.marks_per_pass..(p + 1) * self.marks_per_pass];
            let (lo, hi) = (p * self.tuples_per_pass, (p + 1) * self.tuples_per_pass);
            if marks.iter().any(|m| m.at <= lo || m.at > hi) {
                return Err(format!("pass {p}: a watermark lies outside the pass"));
            }
            if marks.last().map(|m| m.at) != Some(hi) {
                return Err(format!("pass {p} does not end on a watermark"));
            }
        }
        if self.marks.windows(2).any(|w| w[0].at > w[1].at || w[0].wm > w[1].wm) {
            return Err("watermarks regress".into());
        }
        let last = self.marks.last().map_or(0, |m| m.wm);
        let first = self.marks.first().map_or(0, |m| m.wm);
        if last - first >= self.span {
            return Err("watermarks of one period span more than the period".into());
        }
        Ok(())
    }
}

/// A workload: its name, queries, operator shape and generator.
pub struct Spec {
    pub name: &'static str,
    /// One line on what the input looks like (printed with the run).
    pub shape_line: &'static str,
    /// Why the workload is in the set (mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// The window queries in the `gss-query` DSL.
    pub queries: Vec<String>,
    pub shape: Shape,
    /// Passes checked against the brute-force reference.
    pub verify_passes: u64,
    pub generate: fn(&mut SplitMix64) -> Period,
}

pub const NAMES: [&str; 6] =
    ["steady", "backfill", "query_heavy", "keyed_hot", "keyed_wide", "keyed_churn"];

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "steady" => Spec {
            name: "steady",
            shape_line: "in-order, 8192 tuples per event-second, 20 concurrent tumbling windows 1-20 s, Sum, default operator config",
            why: "In-order ingest-bound control: fold kernel, slice commit, chunking and the channel hop do all the work; late-write, range-query and keyed optimisations must leave it flat.",
            queries: (1..=20).map(|s| format!("SUM OVER TUMBLE {s}s")).collect(),
            shape: Shape::Plain { order: StreamOrder::InOrder, policy: StorePolicy::Lazy, lateness: 0 },
            verify_passes: 16,
            generate: steady,
        },
        "backfill" => Spec {
            name: "backfill",
            shape_line: "out-of-order, tumbling 10 ms windows, Sum, watermark trails by 30 s (3000+ live slices), 10% scattered <= 2 s late, 30% sorted bursts (four staggered sources, each replaying the backlog of a 10 s-old outage every 20 s), finger-tree store",
            why: "Out-of-order with 3000+ live slices and 40% late tuples incl. sorted outage bursts: the store's late-write path and index repair dominate; where bulk insertion must show.",
            queries: vec!["SUM OVER TUMBLE 10ms".into()],
            shape: Shape::Plain {
                order: StreamOrder::OutOfOrder,
                policy: StorePolicy::FingerTree,
                lateness: 0,
            },
            verify_passes: 8,
            generate: backfill,
        },
        "query_heavy" => Spec {
            name: "query_heavy",
            shape_line: "explicit watermarks, no late tuples, 50 sliding windows (1.2-60 s, slide 100 ms) over ~600 live slices, Max, 500 range queries per watermark, finger-tree store",
            why: "50 sliding Max windows over ~600 slices, 500 range queries per watermark: emission dominates ingest, so a late-write gain that costs query time shows here against backfill.",
            queries: (1..=50).map(|q| format!("MAX OVER SLIDE {}ms 100ms", q * 1200)).collect(),
            shape: Shape::Plain {
                order: StreamOrder::OutOfOrder,
                policy: StorePolicy::FingerTree,
                lateness: 0,
            },
            verify_passes: 12,
            generate: query_heavy,
        },
        "keyed_hot" => Spec {
            name: "keyed_hot",
            shape_line: "keyed operator, 100 keys, ~40 tuples per key per chunk, tumbling 1 s, Sum",
            why: "Keyed control, 100 keys with ~40-tuple runs per chunk: grouping, chunk and channel overhead are what is visible; a layout tuned for many keys must not slow this.",
            queries: vec!["SUM OVER TUMBLE 1s".into()],
            shape: Shape::Keyed { idle_ttl: None },
            verify_passes: 16,
            generate: keyed_hot,
        },
        "keyed_wide" => Spec {
            name: "keyed_wide",
            shape_line: "keyed operator, 20000 permanent keys each reporting once per event-second in permuted order (run length 1), tumbling 1 s, results ~ tuples",
            why: "20000 permanent keys, run length 1, results ~ tuples: the steady-state cardinality cliff; hash probes, per-key rings and trigger-heap traffic do all the work, transport almost none.",
            queries: vec!["SUM OVER TUMBLE 1s".into()],
            shape: Shape::Keyed { idle_ttl: None },
            verify_passes: 4,
            generate: keyed_wide,
        },
        "keyed_churn" => Spec {
            name: "keyed_churn",
            shape_line: "keyed operator, 10000 live keys replaced every 4 event-seconds (a quarter each second), idle TTL 6 s, tumbling 1 s",
            why: "Rolling cohorts of 10000 keys replaced every 4 s with a 6 s idle TTL: key birth and eviction instead of steady state; separates allocation gains from probe/layout gains.",
            queries: vec!["SUM OVER TUMBLE 1s".into()],
            shape: Shape::Keyed { idle_ttl: Some(6_000) },
            verify_passes: 12,
            generate: keyed_churn,
        },
        _ => return None,
    })
}

/// An in-order stream at `tps` tuples per event-second: `passes` passes of
/// `pass_s` event-seconds, a watermark (the last tuple's time) every
/// `wm_s` event-seconds.
fn in_order(
    tps: usize,
    pass_s: usize,
    passes: usize,
    wm_s: usize,
    mut value: impl FnMut(usize) -> i64,
) -> Period {
    let n = tps * pass_s * passes;
    let times: Vec<Time> = (0..n).map(|i| (i * 1000 / tps) as Time).collect();
    let values = (0..n).map(&mut value).collect();
    let marks = (1..=pass_s * passes / wm_s)
        .map(|k| Mark { at: k * wm_s * tps, wm: times[k * wm_s * tps - 1] })
        .collect();
    Period {
        times,
        values,
        keys: Vec::new(),
        marks,
        passes,
        tuples_per_pass: tps * pass_s,
        marks_per_pass: pass_s / wm_s,
        span: (pass_s * passes * 1000) as Time,
        key_span: 0,
    }
}

fn steady(r: &mut SplitMix64) -> Period {
    in_order(8192, 4, 1, 4, |_| r.below(1000) as i64)
}

fn query_heavy(r: &mut SplitMix64) -> Period {
    in_order(4096, 2, 2, 1, |_| r.below(1_000_000) as i64)
}

fn keyed_hot(r: &mut SplitMix64) -> Period {
    let mut p = in_order(8192, 1, 1, 1, |i| (i % 1000) as i64);
    p.keys = (0..p.times.len()).map(|_| r.below(100)).collect();
    p
}

/// Four sources share the stream. Every twenty event-seconds each of them
/// replays, sorted, the 2.5 s of backlog of an outage that began ten
/// event-seconds earlier; the four are staggered, so a burst arrives every
/// five event-seconds — one per pass, which keeps passes equal and short
/// while a burst still brings a slice as many tuples as the head does.
fn backfill(r: &mut SplitMix64) -> Period {
    const PASSES: usize = 1;
    const PASS_MS: Time = 5_000;
    const PASS_TUPLES: usize = 32_768;
    const BURST: usize = 9_830; // 30 % of the pass
    const HEAD: usize = PASS_TUPLES - BURST; // in-order and scattered tuples
    const BURST_AT_MS: Time = 2_650;
    const BURST_AGE_MS: Time = 10_000;
    const BURST_SPAN_MS: Time = 2_500;
    const WM_EVERY_MS: Time = 1_250;
    const WM_LAG_MS: Time = 30_000;
    let mut times = Vec::with_capacity(PASSES * PASS_TUPLES);
    let mut marks = Vec::new();
    for p in 0..PASSES as Time {
        let origin = p * PASS_MS;
        let mut next_wm = WM_EVERY_MS;
        let mut burst_done = false;
        for j in 0..HEAD {
            let head = j as Time * PASS_MS / HEAD as Time;
            if head >= next_wm {
                marks.push(Mark { at: times.len(), wm: origin + next_wm - WM_LAG_MS });
                next_wm += WM_EVERY_MS;
            }
            if !burst_done && head >= BURST_AT_MS {
                // The reconnect: the backlog of the outage, sorted.
                let from = origin + BURST_AT_MS - BURST_AGE_MS;
                times.extend((0..BURST).map(|k| from + k as Time * BURST_SPAN_MS / BURST as Time));
                burst_done = true;
            }
            // One head tuple in seven is a straggler, up to 2 s late.
            let late = if r.below(7) == 0 { 1 + r.below(2_000) as Time } else { 0 };
            times.push(origin + head - late);
        }
        marks.push(Mark { at: times.len(), wm: origin + PASS_MS - WM_LAG_MS });
    }
    let values = (0..times.len()).map(|_| r.below(1000) as i64).collect();
    Period {
        times,
        values,
        keys: Vec::new(),
        marks,
        passes: PASSES,
        tuples_per_pass: PASS_TUPLES,
        marks_per_pass: (PASS_MS / WM_EVERY_MS) as usize,
        span: PASSES as Time * PASS_MS,
        key_span: 0,
    }
}

/// One pass per event-second; in second `s` every key of `keys_at(s)`
/// reports once, in an order shuffled from the seed.
fn once_per_second(
    r: &mut SplitMix64,
    passes: usize,
    key_span: u64,
    keys_at: impl Fn(usize) -> Vec<u64>,
) -> Period {
    let mut times = Vec::new();
    let mut keys = Vec::new();
    let mut marks = Vec::new();
    let mut per_pass = 0;
    for s in 0..passes {
        let mut ks = keys_at(s);
        r.shuffle(&mut ks);
        per_pass = ks.len();
        times.extend((0..per_pass).map(|j| (s * 1000 + j * 1000 / per_pass) as Time));
        keys.extend(ks);
        marks.push(Mark { at: times.len(), wm: (s * 1000 + 999) as Time });
    }
    let values = (0..times.len()).map(|_| r.below(1000) as i64).collect();
    Period {
        times,
        values,
        keys,
        marks,
        passes,
        tuples_per_pass: per_pass,
        marks_per_pass: 1,
        span: (passes * 1000) as Time,
        key_span,
    }
}

fn keyed_wide(r: &mut SplitMix64) -> Period {
    once_per_second(r, 8, 0, |_| (0..20_000).collect())
}

fn keyed_churn(r: &mut SplitMix64) -> Period {
    const PASSES: usize = 8;
    const LIFE_S: usize = 4;
    const COHORT: u64 = 2_500; // born each second; 4 x 2500 = 10000 live
                               // The cohort born in second `b` (counted across repetitions) owns keys
                               // `(b + LIFE_S) * COHORT ..`, so ids line up across period boundaries
                               // when each repetition adds `PASSES * COHORT`.
    once_per_second(r, PASSES, PASSES as u64 * COHORT, |s| {
        (0..LIFE_S)
            .flat_map(|age| {
                let born = (s + LIFE_S - age) as u64;
                born * COHORT..(born + 1) * COHORT
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn period(name: &str, seed: u64) -> Period {
        (spec(name).unwrap().generate)(&mut SplitMix64::new(seed))
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for name in NAMES {
            let (a, b, c) = (period(name, 11), period(name, 11), period(name, 12));
            assert_eq!(a.digest(), b.digest(), "{name}");
            assert_ne!(a.digest(), c.digest(), "{name}");
        }
    }

    #[test]
    fn every_pass_carries_equal_tuple_and_watermark_counts() {
        for name in NAMES {
            let p = period(name, 3);
            p.check_shape().unwrap_or_else(|e| panic!("{name}: {e}"));
            for g in 0..3 * p.passes as u64 {
                let segs: Vec<Segment> = p.segments(g).collect();
                assert_eq!(segs.len(), p.marks_per_pass, "{name} pass {g}");
                assert_eq!(
                    segs.iter().map(|s| s.hi - s.lo).sum::<usize>(),
                    p.tuples_per_pass,
                    "{name} pass {g}"
                );
                let (mut chunked, mut marks) = (0, 0);
                for call in p.calls(g) {
                    match call {
                        Call::Chunk { lo, hi } => {
                            assert!(hi > lo && hi - lo <= CHUNK);
                            chunked += hi - lo;
                        }
                        Call::Mark(_) => marks += 1,
                    }
                }
                assert_eq!(
                    (chunked, marks),
                    (p.tuples_per_pass, p.marks_per_pass),
                    "{name} pass {g}"
                );
            }
        }
    }

    #[test]
    fn repetitions_continue_the_stream() {
        for name in NAMES {
            let p = period(name, 3);
            // Watermarks keep rising across the period boundary and no
            // tuple is at or below the watermark that preceded it.
            let mut wm = Time::MIN;
            for g in 0..2 * p.passes as u64 {
                for seg in p.segments(g) {
                    let min_ts = p.times[seg.lo..seg.hi].iter().min().map(|t| t + p.base(g));
                    assert!(
                        min_ts.is_none_or(|t| t > wm),
                        "{name} pass {g}: tuple at or below watermark {wm}"
                    );
                    assert!(seg.wm >= wm, "{name} pass {g}: watermark regressed");
                    wm = seg.wm;
                }
            }
        }
    }

    #[test]
    fn workload_shapes_are_what_the_tables_say() {
        let p = period("backfill", 5);
        let late = |lo: usize, hi: usize| {
            let mut max = Time::MIN;
            p.times[lo..hi]
                .iter()
                .filter(|&&t| {
                    let l = t < max;
                    max = max.max(t);
                    l
                })
                .count()
        };
        let share = late(0, p.tuples_per_pass) as f64 / p.tuples_per_pass as f64;
        assert!((0.38..0.42).contains(&share), "late share {share}");

        let p = period("keyed_wide", 5);
        let mut second: Vec<u64> = p.keys[..20_000].to_vec();
        second.sort_unstable();
        assert_eq!(second, (0..20_000).collect::<Vec<u64>>());

        let p = period("keyed_churn", 5);
        let live = |g: u64| -> std::collections::BTreeSet<u64> {
            let base = p.key_base(g);
            p.segments(g).flat_map(|s| &p.keys[s.lo..s.hi]).map(|k| k + base).collect()
        };
        // 10000 live keys; a quarter is replaced each second, all of them
        // after four — also across the period boundary.
        for g in [0u64, 6, 7, 8, 13] {
            assert_eq!(live(g).len(), 10_000);
            assert_eq!(live(g).intersection(&live(g + 1)).count(), 7_500, "pass {g}");
            assert_eq!(live(g).intersection(&live(g + 4)).count(), 0, "pass {g}");
        }
    }

    #[test]
    fn whys_fit_the_benchmark_contract() {
        for name in NAMES {
            let s = spec(name).unwrap();
            assert!(
                s.why.len() <= 200 && !s.why.contains('\n'),
                "{name}: why is {} chars",
                s.why.len()
            );
        }
    }
}
