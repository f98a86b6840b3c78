//! Property tests for the window-type implementations themselves:
//! edge/trigger/containment consistency for periodic windows (with and
//! without offsets) and session-state invariants under random tuples.

use gss_core::{ContextEdges, Range, WindowFunction};
use gss_windows::{PeriodicEdges, SessionWindow, SlidingWindow, TumblingWindow};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `next_edge` returns the smallest edge strictly after `ts`, where an
    /// edge is any window start or end.
    #[test]
    fn periodic_next_edge_is_minimal(
        length in 1i64..100,
        slide in 1i64..100,
        offset in -200i64..200,
        ts in -1_000i64..1_000,
    ) {
        let e = PeriodicEdges::with_offset(length, slide, offset);
        let next = e.next_edge(ts);
        prop_assert!(next > ts);
        prop_assert!(e.edge_at(next), "next_edge {next} is not an edge");
        // Nothing strictly between ts and next is an edge.
        for candidate in (ts + 1)..next.min(ts + 200) {
            prop_assert!(!e.edge_at(candidate), "missed edge {candidate}");
        }
    }

    /// Windows reported by `containing` contain the point; windows
    /// reported by `ends_in` end inside the interval; both agree with the
    /// closed-form definition.
    #[test]
    fn periodic_trigger_and_containment_consistent(
        length in 1i64..60,
        slide in 1i64..60,
        offset in -100i64..100,
        ts in -500i64..500,
    ) {
        let e = PeriodicEdges::with_offset(length, slide, offset);
        let mut containing = Vec::new();
        e.containing(ts, |r| containing.push(r));
        // Count matches the overlap factor ceil(length/slide) within 1.
        let expect = length / slide;
        prop_assert!(
            (containing.len() as i64 - expect).abs() <= 1,
            "{} windows for l={length} s={slide}",
            containing.len()
        );
        for r in &containing {
            prop_assert!(r.contains(ts), "window {r} misses ts {ts}");
            prop_assert_eq!(r.len(), length);
        }
        // Every window ending in (ts, ts + 3*slide] is reported once.
        let mut ends = Vec::new();
        e.ends_in(ts, ts + 3 * slide, |r| ends.push(r));
        for w in ends.windows(2) {
            prop_assert!(w[0].end < w[1].end, "ends not strictly increasing");
        }
        for r in &ends {
            prop_assert!(r.end > ts && r.end <= ts + 3 * slide);
        }
    }

    /// The sliding WindowFunction wrapper is consistent with its edge
    /// helper (start edges ⊂ all edges, window ends are edges).
    #[test]
    fn sliding_window_function_consistency(
        length in 1i64..60,
        slide in 1i64..60,
        ts in 0i64..500,
    ) {
        let w = SlidingWindow::new(length, slide);
        let start = w.next_start_edge(ts).unwrap();
        let any = w.next_edge(ts).unwrap();
        prop_assert!(any <= start);
        prop_assert!(w.requires_edge_at(start));
        prop_assert!(w.requires_edge_at(any));
        let end = w.next_window_end(ts).unwrap();
        prop_assert!(w.requires_edge_at(end));
        prop_assert!(end > ts);
    }

    /// Session state invariants under arbitrary tuple sequences: sessions
    /// stay sorted, non-overlapping, separated by at least the gap, and
    /// every notified timestamp is covered by some session.
    #[test]
    fn session_state_invariants(
        gap in 1i64..50,
        tss in prop::collection::vec(0i64..2_000, 1..150),
    ) {
        let mut w = SessionWindow::new(gap).with_retention(1_000_000);
        let mut edges = ContextEdges::new();
        for &ts in &tss {
            edges.clear();
            w.notify_context(ts, &mut edges);
            // The notified tuple is inside a session.
            let mut hit = Vec::new();
            w.windows_containing(ts, &mut |r| hit.push(r));
            prop_assert_eq!(hit.len(), 1, "ts {} not covered", ts);
            prop_assert!(hit[0].contains(ts));
        }
        // Reconstruct all sessions via containment probes and check
        // separation.
        let mut sessions: Vec<Range> = Vec::new();
        for &ts in &tss {
            let mut hit = Vec::new();
            w.windows_containing(ts, &mut |r| hit.push(r));
            let r = hit[0];
            if !sessions.contains(&r) {
                sessions.push(r);
            }
        }
        sessions.sort_by_key(|r| r.start);
        for pair in sessions.windows(2) {
            prop_assert!(
                pair[0].end <= pair[1].start,
                "sessions overlap: {} and {}",
                pair[0],
                pair[1]
            );
        }
        // Oracle session count from the sorted timestamps.
        let mut sorted = tss.clone();
        sorted.sort();
        sorted.dedup();
        let mut oracle = 1;
        for w2 in sorted.windows(2) {
            if w2[1] - w2[0] >= gap {
                oracle += 1;
            }
        }
        prop_assert_eq!(sessions.len(), oracle, "session count");
    }

    /// Tumbling with offset: every emitted window has the right phase.
    #[test]
    fn tumbling_offset_phase(
        length in 1i64..100,
        offset in -300i64..300,
        prev in 0i64..500,
        span in 1i64..500,
    ) {
        let mut w = TumblingWindow::with_offset(length, offset);
        let mut got = Vec::new();
        w.trigger_windows(prev, prev + span, &mut |r| got.push(r));
        for r in &got {
            prop_assert_eq!(r.len(), length);
            prop_assert_eq!(
                (r.start - offset).rem_euclid(length),
                0,
                "window {} has wrong phase",
                r
            );
            prop_assert!(r.end > prev && r.end <= prev + span);
        }
        // Adjacent windows tile.
        for pair in got.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
    }
}
