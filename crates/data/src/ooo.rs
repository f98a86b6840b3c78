//! Out-of-order transformation and watermark generation.
//!
//! The paper's evaluation adds a configurable fraction of out-of-order
//! tuples with equally-distributed random delays (Sections 6.2.2, 6.3.1).
//! [`make_out_of_order`] reproduces that: each tuple is delayed with
//! probability `fraction`, its *arrival* position moves by a uniform delay
//! in `[0, max_delay]`, and the stream is re-emitted in arrival order.
//! [`with_watermarks`] interleaves periodic bounded-out-of-orderness
//! watermarks, the standard strategy of Flink-style systems.

use gss_core::{StreamElement, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the disorder transformation.
#[derive(Debug, Clone, Copy)]
pub struct OooConfig {
    /// Fraction of tuples arriving out of order, in percent (paper: 20).
    pub fraction_percent: u8,
    /// Maximum delay added to a tuple (paper: 0–2 s, delay-robustness
    /// experiment sweeps up to 8 s).
    pub max_delay: Time,
    /// Minimum delay (the delay-robustness ranges are `[lo, hi]`).
    pub min_delay: Time,
    pub seed: u64,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig { fraction_percent: 20, max_delay: 2000, min_delay: 0, seed: 0x0D15 }
    }
}

/// Reorders an in-order stream into an arrival sequence with the requested
/// disorder. Returns tuples in *arrival order*, still carrying their
/// original event timestamps.
pub fn make_out_of_order<V: Clone>(tuples: &[(Time, V)], cfg: OooConfig) -> Vec<(Time, V)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut keyed: Vec<(Time, usize)> = tuples
        .iter()
        .enumerate()
        .map(|(i, (ts, _))| {
            let arrival = if rng.gen_range(0..100) < cfg.fraction_percent as u32 {
                ts + rng.gen_range(cfg.min_delay..=cfg.max_delay.max(cfg.min_delay))
            } else {
                *ts
            };
            (arrival, i)
        })
        .collect();
    // Stable by construction: ties keep original order via the index key.
    keyed.sort_by_key(|&(arrival, i)| (arrival, i));
    keyed.into_iter().map(|(_, i)| tuples[i].clone()).collect()
}

/// Interleaves periodic watermarks into an arrival-ordered stream:
/// every `period` of arrival progress, a watermark `max_event_ts - bound`
/// is emitted. A final `Watermark(i64::MAX - 1)` flushes all windows.
/// Both sums saturate, so timestamps at either end of `Time` neither
/// overflow nor wrap a watermark past the records.
pub fn with_watermarks<V: Clone>(
    arrivals: &[(Time, V)],
    period: Time,
    bound: Time,
) -> Vec<StreamElement<V>> {
    let mut out = Vec::with_capacity(arrivals.len() + arrivals.len() / 16 + 1);
    let mut max_ts = Time::MIN;
    // `None` until the first record arms the first period.
    let mut next_wm_at: Option<Time> = None;
    for (ts, v) in arrivals {
        let due = *next_wm_at.get_or_insert(ts.saturating_add(period));
        max_ts = max_ts.max(*ts);
        out.push(StreamElement::Record { ts: *ts, value: v.clone() });
        if max_ts >= due {
            out.push(StreamElement::Watermark(max_ts.saturating_sub(bound)));
            next_wm_at = Some(max_ts.saturating_add(period));
        }
    }
    out.push(StreamElement::Watermark(i64::MAX - 1));
    out
}

/// Fraction (percent) of tuples in `arrivals` that are out-of-order with
/// respect to the tuples before them: how the tests validate generated
/// disorder.
#[cfg(test)]
fn measured_disorder<V>(arrivals: &[(Time, V)]) -> f64 {
    if arrivals.is_empty() {
        return 0.0;
    }
    let mut max_ts = Time::MIN;
    let mut ooo = 0usize;
    for (ts, _) in arrivals {
        if *ts < max_ts {
            ooo += 1;
        }
        max_ts = max_ts.max(*ts);
    }
    100.0 * ooo as f64 / arrivals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<(Time, i64)> {
        (0..10_000).map(|i| (i, i)).collect()
    }

    #[test]
    fn zero_fraction_keeps_order() {
        let arrivals =
            make_out_of_order(&base(), OooConfig { fraction_percent: 0, ..Default::default() });
        assert_eq!(arrivals, base());
        assert_eq!(measured_disorder(&arrivals), 0.0);
    }

    #[test]
    fn disorder_close_to_requested_fraction() {
        let arrivals = make_out_of_order(
            &base(),
            OooConfig { fraction_percent: 20, max_delay: 200, ..Default::default() },
        );
        let d = measured_disorder(&arrivals);
        assert!((10.0..=30.0).contains(&d), "measured disorder {d}%");
        // Same multiset of tuples.
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(sorted, base());
    }

    #[test]
    fn delays_bounded() {
        let cfg = OooConfig { fraction_percent: 50, max_delay: 100, ..Default::default() };
        let arrivals = make_out_of_order(&base(), cfg);
        // A tuple can arrive at most max_delay after its event time: no
        // tuple appears after one whose event time exceeds ts + max_delay.
        let mut max_seen = arrivals[0].0;
        for (ts, _) in &arrivals {
            assert!(max_seen - ts <= cfg.max_delay, "delay exceeded at ts {ts}");
            max_seen = max_seen.max(*ts);
        }
    }

    #[test]
    fn watermarks_trail_by_bound() {
        let arrivals = make_out_of_order(&base(), OooConfig::default());
        let elements = with_watermarks(&arrivals, 500, 2000);
        let mut max_ts = Time::MIN;
        let mut wm_count = 0;
        for e in &elements {
            match e {
                StreamElement::Record { ts, .. } => max_ts = max_ts.max(*ts),
                StreamElement::Watermark(wm) if *wm < i64::MAX - 1 => {
                    wm_count += 1;
                    assert_eq!(*wm, max_ts - 2000);
                }
                _ => {}
            }
        }
        assert!(wm_count > 10, "watermarks: {wm_count}");
        assert!(matches!(elements.last(), Some(StreamElement::Watermark(_))));
    }

    #[test]
    fn watermarks_at_extreme_timestamps_stay_behind_the_records() {
        let arrivals = [(Time::MIN, 0), (Time::MIN + 1, 1), (Time::MAX - 1, 2)];
        for (period, bound) in [(0, 0), (0, 100), (1, 100), (10, 5), (Time::MAX, Time::MAX)] {
            let elements = with_watermarks(&arrivals, period, bound);
            let (flush, rest) = elements.split_last().unwrap();
            assert!(matches!(flush, StreamElement::Watermark(w) if *w == i64::MAX - 1));
            let mut max_ts = Time::MIN;
            for e in rest {
                match e {
                    StreamElement::Record { ts, .. } => max_ts = max_ts.max(*ts),
                    StreamElement::Watermark(wm) => assert!(
                        *wm <= max_ts,
                        "period {period}, bound {bound}: watermark {wm} ahead of {max_ts}"
                    ),
                    StreamElement::Punctuation(_) => {}
                }
            }
        }
        // A first record at `Time::MIN` arms the first period; the next
        // record does not re-arm it.
        let elements = with_watermarks(&arrivals[..2], 1, 0);
        assert!(matches!(elements[2], StreamElement::Watermark(w) if w == Time::MIN + 1));
    }

    #[test]
    fn watermarks_never_violate_later_records() {
        // Bounded disorder + bound-sized watermark lag => no record ever
        // arrives with ts < the last emitted watermark.
        let cfg = OooConfig { fraction_percent: 40, max_delay: 1000, ..Default::default() };
        let arrivals = make_out_of_order(&base(), cfg);
        let elements = with_watermarks(&arrivals, 300, 1000);
        let mut wm = Time::MIN;
        for e in &elements {
            match e {
                StreamElement::Record { ts, .. } => assert!(*ts >= wm, "late beyond watermark"),
                StreamElement::Watermark(w) if *w < i64::MAX - 1 => wm = *w,
                _ => {}
            }
        }
    }
}
