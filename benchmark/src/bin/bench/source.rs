//! The benchmark's source: the endless periodic stream as a finite
//! iterator of `StreamElement`s, pulled by the stream drivers through
//! their bounded channels. It stamps the wall clock at every pass
//! boundary — the only place a pipeline run can be timed from outside
//! the program — and ends at a pass boundary once its budget is spent.

use std::time::{Duration, Instant};

use gss_core::{StreamElement, Time};

use crate::workload::{Period, Segment};

/// When the source stops (always at a pass boundary).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop after this many passes (at least one is always emitted)…
    pub max_passes: u64,
    /// …or at the first pass boundary after this much wall time, but not
    /// before `min_passes` are out.
    pub wall: Option<Duration>,
    pub min_passes: u64,
}

impl Budget {
    /// Exactly `passes` passes.
    pub fn passes(passes: u64) -> Budget {
        Budget { max_passes: passes, wall: None, min_passes: 0 }
    }
}

/// Wall-clock stamps of a source: `stamps[i]` is the time at which pass `i`
/// had been handed over in full.
#[derive(Debug, Default)]
pub struct PassLog {
    pub stamps: Vec<Instant>,
}

pub struct Source<'a> {
    period: &'a Period,
    budget: Budget,
    log: &'a mut PassLog,
    started: Instant,
    /// Global index of the pass being emitted.
    pass: u64,
    segments: Vec<Segment>,
    /// Next segment of `segments` to open.
    next_segment: usize,
    /// Next tuple of the period arrays, and the end of the open segment.
    idx: usize,
    hi: usize,
    /// Watermark closing the open segment.
    wm: Time,
    base: Time,
    key_base: u64,
    done: bool,
}

impl<'a> Source<'a> {
    pub fn new(period: &'a Period, budget: Budget, log: &'a mut PassLog) -> Self {
        log.stamps.clear();
        let mut s = Source {
            period,
            budget,
            log,
            started: Instant::now(),
            pass: 0,
            segments: Vec::new(),
            next_segment: 0,
            idx: 0,
            hi: 0,
            wm: 0,
            base: 0,
            key_base: 0,
            done: false,
        };
        s.open_pass();
        s
    }

    fn open_pass(&mut self) {
        self.segments.clear();
        self.segments.extend(self.period.segments(self.pass));
        self.base = self.period.base(self.pass);
        self.key_base = self.period.key_base(self.pass);
        self.next_segment = 0;
        self.open_segment();
    }

    fn open_segment(&mut self) {
        let seg = self.segments[self.next_segment];
        self.next_segment += 1;
        (self.idx, self.hi, self.wm) = (seg.lo, seg.hi, seg.wm);
    }

    /// Called after the watermark that closes a segment went out.
    fn close_segment(&mut self) {
        if self.next_segment < self.segments.len() {
            self.open_segment();
            return;
        }
        let now = Instant::now();
        self.log.stamps.push(now);
        self.pass += 1;
        let spent = self.budget.wall.is_some_and(|w| now - self.started >= w);
        if self.pass >= self.budget.max_passes || (spent && self.pass >= self.budget.min_passes) {
            self.done = true;
        } else {
            self.open_pass();
        }
    }
}

impl Iterator for Source<'_> {
    type Item = StreamElement<(u64, i64)>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.idx < self.hi {
            let i = self.idx;
            self.idx += 1;
            let key = self.period.keys.get(i).map_or(0, |k| k + self.key_base);
            return Some(StreamElement::Record {
                ts: self.base + self.period.times[i],
                value: (key, self.period.values[i]),
            });
        }
        if self.done {
            return None;
        }
        let wm = self.wm;
        self.close_segment();
        Some(StreamElement::Watermark(wm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::workload::spec;

    #[test]
    fn source_replays_passes_and_stamps_each_boundary() {
        let period = (spec("backfill").unwrap().generate)(&mut SplitMix64::new(1));
        let mut log = PassLog::default();
        let src = Source::new(&period, Budget::passes(6), &mut log);
        let (mut records, mut marks, mut last_wm) = (0, 0, Time::MIN);
        for e in src {
            match e {
                StreamElement::Record { ts, .. } => {
                    records += 1;
                    assert!(ts > last_wm);
                }
                StreamElement::Watermark(wm) => {
                    marks += 1;
                    assert!(wm >= last_wm);
                    last_wm = wm;
                }
                StreamElement::Punctuation(_) => unreachable!(),
            }
        }
        assert_eq!(records, 6 * period.tuples_per_pass);
        assert_eq!(marks, 6 * period.marks_per_pass);
        assert_eq!(log.stamps.len(), 6);
        // Repetitions of the period are shifted by one span each.
        let last_mark = period.marks[(5 % period.passes + 1) * period.marks_per_pass - 1];
        assert_eq!(last_wm, period.base(5) + last_mark.wm);
        assert!(period.base(5) > period.base(0));
    }

    #[test]
    fn a_spent_wall_budget_stops_at_the_next_pass_boundary() {
        let period = (spec("keyed_hot").unwrap().generate)(&mut SplitMix64::new(1));
        let mut log = PassLog::default();
        let budget = Budget { max_passes: 1_000, wall: Some(Duration::ZERO), min_passes: 0 };
        let src = Source::new(&period, budget, &mut log);
        assert_eq!(src.filter(StreamElement::is_record).count(), period.tuples_per_pass);
        assert_eq!(log.stamps.len(), 1);
        // ...but not before the fewest passes asked for are out.
        let src = Source::new(&period, Budget { min_passes: 3, ..budget }, &mut log);
        assert_eq!(src.filter(StreamElement::is_record).count(), 3 * period.tuples_per_pass);
        assert_eq!(log.stamps.len(), 3);
    }
}
