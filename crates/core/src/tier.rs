//! Two compiled copies of a per-tuple pass, chosen at run time.
//!
//! The passes that touch every tuple — the run scan over the time column
//! (`aggregator::column_run_len`) and the `fold_slice` kernels of
//! `gss-aggregates` — are compiled for baseline x86-64, which has no
//! vector compare or max for `i64` and adds two lanes at a time.
//! [`tiered!`](crate::tiered!) compiles such a pass a second time inside a
//! `#[target_feature(enable = "avx512f")]` wrapper around its unchanged
//! `#[inline(always)]` body, and a [`Tier`] picks the copy per call: the
//! wide one when the CPU has AVX-512F and the run reaches
//! [`WIDE_MIN_RUN`] tuples, the portable one otherwise.
//!
//! The two copies are one source, and rustc never reassociates float
//! arithmetic, so they fold in the same order and return the same bits.
//! There is no AVX2 copy: AVX2 has no packed `i64` max or min, and AVX2
//! copies of the scan and the integer kernels read 0.97× the portable
//! code on `steady`'s operator throughput.

/// Run length from which a pass takes its AVX-512F copy: short runs keep
/// the inlined portable copy, and a run this long pays for the call. At
/// 64, `steady` and `query_heavy` fold all but a fraction of a percent of
/// their tuples in runs this long, `backfill` and `keyed_hot` none.
pub const WIDE_MIN_RUN: usize = 64;

/// Which copy of a tiered pass runs: portable, or AVX-512F. A wide tier
/// is only made on a CPU that has AVX-512F, which is what makes calling
/// the wide copy through it sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier {
    wide: bool,
}

impl Tier {
    /// The baseline copy every x86-64 CPU runs.
    pub const PORTABLE: Tier = Tier { wide: false };

    /// The widest copy this CPU runs.
    #[inline]
    pub fn widest() -> Tier {
        Tier { wide: has_avx512f() }
    }

    /// The copy a run of `len` tuples takes: the widest from
    /// [`WIDE_MIN_RUN`] on, the portable one below it.
    #[inline]
    pub fn for_run(len: usize) -> Tier {
        Tier { wide: len >= WIDE_MIN_RUN && has_avx512f() }
    }

    /// Whether this is the AVX-512F copy.
    #[inline]
    pub fn is_wide(self) -> bool {
        self.wide
    }

    /// `avx512f` or `portable`, for reports.
    pub fn name(self) -> &'static str {
        if self.wide {
            "avx512f"
        } else {
            "portable"
        }
    }
}

/// Whether this CPU has AVX-512F; std caches the probe after the first
/// call, so a call is one load.
#[inline]
fn has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compiles the `#[inline(always)]` function `$body` a second time for
/// AVX-512F, and defines a module of the same name whose
/// `at(tier, args…)` runs the copy `tier` names. Repeat the function's
/// signature:
///
/// ```ignore
/// #[inline(always)]
/// fn sum_kernel(values: &[i64]) -> Option<i64> { /* … */ }
/// gss_core::tiered!(fn sum_kernel(values: &[i64]) -> Option<i64>);
///
/// sum_kernel::at(Tier::for_run(values.len()), values)
/// ```
///
/// The wide copy is a safe `#[target_feature]` function whose body is the
/// one call to `$body`, inlined into it and so compiled with the feature.
/// Its one `unsafe` call is here.
#[macro_export]
macro_rules! tiered {
    ($vis:vis fn $body:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty) => {
        /// The portable and the AVX-512F copy of the function of this
        /// name (`gss_core::tiered!`).
        $vis mod $body {
            #[allow(unused_imports)]
            use super::*;

            /// Runs the copy `tier` names.
            #[inline]
            pub(crate) fn at(tier: $crate::tier::Tier, $($arg: $ty),*) -> $ret {
                #[cfg(target_arch = "x86_64")]
                if tier.is_wide() {
                    return call_wide($($arg),*);
                }
                let _ = tier;
                super::$body($($arg),*)
            }

            /// Cold to the caller: it runs once a run of at least
            /// `WIDE_MIN_RUN` tuples, and out of the caller's register
            /// allocation it leaves the short runs' inlined portable
            /// copy as it was.
            #[cfg(target_arch = "x86_64")]
            #[cold]
            #[inline(never)]
            fn call_wide($($arg: $ty),*) -> $ret {
                // SAFETY: `wide`'s one precondition is that the CPU has
                // AVX-512F, and a wide `Tier` is only made after
                // `is_x86_feature_detected!("avx512f")` held.
                unsafe { wide($($arg),*) }
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn wide($($arg: $ty),*) -> $ret {
                super::$body($($arg),*)
            }
        }
    };
}
