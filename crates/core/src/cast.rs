//! Checked numeric conversions for slice-index and timestamp arithmetic.
//!
//! The `core-cast` lint (see `crates/analysis`) bans bare `as usize` /
//! `as i64` casts in this crate: a silently wrapping cast between a
//! global slice index (`i64`) and a dense buffer offset (`usize`), or
//! between a tuple count (`u64`) and a capacity, corrupts aggregates
//! without a trace. Every lossy direction funnels through this module
//! instead, where the debug build asserts the precondition and the
//! release build saturates rather than wraps. This file is the single
//! audited `core-cast` exception in `analysis/lint.allow`.

/// Widens a buffer length or position into global-index (`i64`)
/// arithmetic. Lossless for any in-memory length.
#[inline]
pub(crate) fn to_i64(n: usize) -> i64 {
    debug_assert!(i64::try_from(n).is_ok(), "length {n} overflows i64");
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// Narrows a tuple count (`u64`) into a capacity / element count.
#[inline]
pub(crate) fn to_usize(n: u64) -> usize {
    debug_assert!(usize::try_from(n).is_ok(), "count {n} overflows usize");
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Widens a buffer length into a tuple count (`u64`). Lossless on every
/// supported target (`usize` is at most 64 bits).
#[inline]
pub fn to_u64(n: usize) -> u64 {
    debug_assert!(u64::try_from(n).is_ok(), "length {n} overflows u64");
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Offset of global slice index `g` from `base` as a dense index.
/// Callers guarantee `g >= base`; the debug build asserts it.
#[inline]
pub(crate) fn gidx(g: i64, base: i64) -> usize {
    debug_assert!(g >= base, "global index {g} below base {base}");
    usize::try_from(g.wrapping_sub(base)).unwrap_or(0)
}

/// Widens a dense `u32` id (group slots, small handles) to an index.
/// Infallible on every supported target (`usize` is at least 32 bits).
#[inline]
pub(crate) fn idx32(n: u32) -> usize {
    n as usize
}

/// Truncates a float position estimate (an interpolated slice guess) to
/// an index. Float-to-integer `as` saturates (below 0 and NaN read 0),
/// so a wild estimate becomes a far start, never a wrapped one.
#[inline]
pub(crate) fn f64_idx(x: f64) -> usize {
    x as usize
}

/// Narrows a dense index (slab slot, batch position, group id) to the
/// `u32` handle it is stored as. Callers stay far below 2^32 entries;
/// the debug build asserts it.
#[inline]
pub(crate) fn slot32(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "index {n} overflows u32");
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        assert_eq!(to_i64(0), 0);
        assert_eq!(to_i64(4096), 4096);
        assert_eq!(to_usize(0), 0);
        assert_eq!(to_usize(1 << 40), 1usize << 40);
        assert_eq!(to_u64(0), 0);
        assert_eq!(to_u64(4096), 4096);
        assert_eq!(gidx(17, 10), 7);
        assert_eq!(gidx(-3, -8), 5);
        assert_eq!(idx32(u32::MAX), u32::MAX as usize);
        assert_eq!(slot32(0), 0);
        assert_eq!(slot32(70_000), 70_000);
        assert_eq!(f64_idx(2.9), 2);
        assert_eq!((f64_idx(-3.0), f64_idx(f64::NAN)), (0, 0));
        assert_eq!(f64_idx(1e30), usize::MAX);
    }
}
