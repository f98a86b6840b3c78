//! Time and measure primitives.
//!
//! The paper (Section 4.3) defines windows over different *measures*: event
//! time, processing time, arbitrary advancing measures, and tuple counts. A
//! "timestamp" is any monotonically increasing measure; we represent all of
//! them as [`Time`] (`i64`). Count-based measures use [`Count`] (`u64`)
//! positions in event-time order.

/// A point on an advancing measure (event time, processing time, transaction
/// counter, ...). Milliseconds in all examples, but the framework never
/// assumes a unit.
pub type Time = i64;

/// A position on the count measure: the number of tuples with a strictly
/// smaller event time (ties broken by arrival order).
pub type Count = u64;

/// Sentinel for "no timestamp yet" / minus infinity.
pub const TIME_MIN: Time = i64::MIN;
/// Sentinel for plus infinity.
pub const TIME_MAX: Time = i64::MAX;

/// The windowing measure a query is defined on (paper Section 4.3).
///
/// Arbitrary advancing measures are processed identically to event time
/// (Section 6.3.4: "the throughput for arbitrary advancing measures is the
/// same as for time-based measures because they are processed identically"),
/// so they share the `Time` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Event-time / processing-time / arbitrary advancing measure.
    Time,
    /// Tuple-count measure. Out-of-order tuples shift the counts of all
    /// succeeding tuples (Section 4.3).
    Count,
}

/// A half-open interval `[start, end)` on some measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    pub start: Time,
    pub end: Time,
}

impl Range {
    /// Creates `[start, end)`. Panics in debug builds if `end < start`.
    #[inline]
    pub fn new(start: Time, end: Time) -> Self {
        debug_assert!(end >= start, "invalid range [{start}, {end})");
        Range { start, end }
    }

    /// Number of measure units covered.
    #[inline]
    pub fn len(&self) -> i64 {
        self.end - self.start
    }

    /// True iff the interval covers no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True iff `ts` lies in `[start, end)`.
    #[inline]
    pub fn contains(&self, ts: Time) -> bool {
        ts >= self.start && ts < self.end
    }
}

impl crate::mem::HeapSize for Range {
    #[inline]
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A low-watermark: a promise that no tuple with `ts < watermark` will
/// arrive, except for *allowed-lateness* stragglers which trigger output
/// updates (paper Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Watermark(pub Time);

/// Stream order declaration for an input stream (workload characteristic 1,
/// paper Section 4.1). This is a property of the *stream contract*, not of
/// individual tuples: an out-of-order stream may still deliver mostly
/// in-order tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamOrder {
    /// Every tuple satisfies `t_e(s_x) >= t_e(s_y)` for all `y < x`.
    /// Windows are emitted directly; no watermarks are needed. A tuple
    /// behind what has fired or been cut breaks the contract: it is
    /// dropped and counted, whatever the allowed lateness
    /// ([`admit`](crate::window::admit)).
    InOrder,
    /// Tuples may arrive late; output waits for watermarks and late tuples
    /// within the allowed lateness produce output updates.
    OutOfOrder,
}

impl StreamOrder {
    #[inline]
    pub fn is_in_order(self) -> bool {
        matches!(self, StreamOrder::InOrder)
    }

    /// The lateness in effect for an `allowed` lateness: none on an
    /// in-order stream, which admits no late tuple.
    #[inline]
    pub fn lateness(self, allowed: Time) -> Time {
        match self {
            StreamOrder::InOrder => 0,
            StreamOrder::OutOfOrder => allowed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_contains_is_half_open() {
        let r = Range::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(9));
    }

    #[test]
    fn range_len_and_empty() {
        assert_eq!(Range::new(5, 9).len(), 4);
        assert!(Range::new(5, 5).is_empty());
        assert!(!Range::new(5, 6).is_empty());
    }

    #[test]
    fn watermarks_order_by_time() {
        assert!(Watermark(5) < Watermark(6));
        assert_eq!(Watermark(5), Watermark(5));
    }

    #[test]
    fn stream_order_predicate() {
        assert!(StreamOrder::InOrder.is_in_order());
        assert!(!StreamOrder::OutOfOrder.is_in_order());
    }
}
