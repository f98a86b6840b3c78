//! # gss-aggregates
//!
//! Incremental aggregate functions for general stream slicing, following
//! the lift/combine/lower/invert decomposition of Tangwongsan et al. \[42\]
//! (paper Section 5.4.1). The set mirrors the functions benchmarked in the
//! paper's Figure 13 plus the M4 visualization aggregation of Section 6.4
//! and the holistic median / 90-percentile.
//!
//! | Function | Kind | Commutative | Invertible |
//! |---|---|---|---|
//! | [`CountAgg`], [`Sum`], [`Avg`] | distributive/algebraic | yes | yes |
//! | [`SumNoInvert`] | distributive | yes | no (declared) |
//! | [`Min`], [`Max`], [`MinCount`], [`MaxCount`] | distributive/algebraic | yes | no¹ |
//! | [`ArgMin`], [`ArgMax`] | algebraic | no (first-tie) | no¹ |
//! | [`GeometricMean`], [`SampleStdDev`], [`PopulationStdDev`] | algebraic | yes | yes |
//! | [`M4`], [`First`], [`Last`] | algebraic | yes | no |
//! | [`Median`], [`Percentile`] | holistic | yes | no |
//!
//! ¹ Their `invert` still succeeds when the removed value provably does not
//! affect the extremum — the effect behind the small count-window slowdown
//! of min/max-family functions in Figure 13.

pub mod basic;
pub mod holistic;
pub mod lanes;
pub mod m4;
pub mod minmax;
pub mod stats;

pub use basic::{Avg, AvgPartial, CountAgg, Sum, SumNoInvert};
pub use holistic::{Median, MedianNoRle, Percentile, SortedRle, SortedVec};
pub use m4::{First, Last, M4Partial, Stamped, M4};
pub use minmax::{ArgExtremum, ArgMax, ArgMin, ExtremumCount, Max, MaxCount, Min, MinCount};
pub use stats::{GeoMeanPartial, GeometricMean, MomentsPartial, PopulationStdDev, SampleStdDev};
