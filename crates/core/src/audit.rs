//! The invariant-audit build (`--features audit`).
//!
//! The audit feature compiles dense structural checks into the hot
//! paths — checks too expensive for `debug_assert!` because they walk
//! whole structures (the timeline, the FlatFAT node array, the keyed
//! slab and due buckets) rather than test one condition. The normal build pays
//! nothing; `cargo test --workspace --features audit` runs the whole
//! suite, including the property tests, with every invariant armed.
//!
//! Audited invariants:
//!
//! * `Timeline` — slices are non-empty, and contiguous (each slice
//!   starts where its predecessor ends), after every extension and
//!   eviction; the global-index base shifts in lockstep.
//! * `FlatFat` — with the store's checks: spare
//!   leaves beyond `len` are vacant, and every internal node is present
//!   exactly when one of its children is.
//! * `SliceStore` — slices stay in ascending, non-overlapping order and
//!   the eager FlatFAT index (when present) mirrors the slice count.
//! * Keyed operator — after a watermark: no live key holds a due time
//!   at or below the new watermark, and every live due time has a
//!   matching due-bucket entry (entries are lazy, so the converse does
//!   not hold); the key map and the slab records agree on who lives in
//!   which slot, every slot handed out is either live or on the free
//!   list, and a free record holds no state.
//! * Parallel merge — barrier acks agree on the watermark value
//!   (FIFO-broadcast integrity; asserted in `gss-stream`).
//!
//! [`audit_assert!`](crate::audit_assert!) is the entry point for one-line checks; whole-
//! structure walks live in `#[cfg(feature = "audit")] assert_invariants`
//! methods next to the structures they check.

/// Asserts `$cond` (with optional `assert!`-style message arguments)
/// only when the `audit` feature of the *expanding* crate is enabled.
/// The condition always compiles, so audit checks cannot rot.
#[macro_export]
macro_rules! audit_assert {
    ($($arg:tt)*) => {
        if cfg!(feature = "audit") {
            assert!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn audit_assert_compiles_in_both_modes() {
        // With the feature off this is dead code; with it on it must
        // hold. Either way it compiles and passes.
        audit_assert!(1 + 1 == 2, "arithmetic holds");
    }
}
