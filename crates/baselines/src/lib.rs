//! # gss-baselines
//!
//! The alternative window-aggregation techniques the paper compares
//! against (Section 3, Table 1, Section 6), implemented from scratch
//! behind the same [`gss_core::WindowAggregator`] facade as the general
//! slicing operator:
//!
//! * [`TupleBuffer`] — sorted ring buffer, no aggregate sharing (row 1);
//! * [`AggregateTree`] — FlatFAT over tuples (row 2, FlatFAT \[42\]);
//! * [`Buckets`] — bucket per window, WID-style (rows 3–4, Flink's
//!   operator), with [`BucketMode::Aggregate`] and [`BucketMode::Tuple`];
//! * [`Pairs`] — specialized slicing for periodic in-order windows \[28\];
//! * [`Panes`] — uniform gcd-sized panes, the earliest slicing \[30\];
//! * [`Cutty`] — slicing for user-defined context-free windows, eager
//!   aggregation, in-order only \[10\];
//! * [`TwoStacksSliding`], [`DabaLiteSliding`] and [`SlickDequeSliding`]
//!   — the related-work single-query sliding aggregators (amortized-O(1)
//!   FIFO aggregation \[42\], its worst-case-O(1) de-amortization DABA
//!   Lite \[43\], and monotonic-deque extremum tracking \[40\]).
//!
//! All techniques reuse the same `WindowFunction` query definitions, so a
//! benchmark swaps the technique without touching window semantics. The
//! tuple buffer, the aggregate tree, Buckets and Cutty keep them in a
//! [`gss_core::QuerySet`], the one the slicing operator uses: its trigger
//! sweep, late-update rule and eviction horizon are theirs too. Pairs and
//! Panes keep periodic edge lists of their own.

pub mod aggregate_tree;
pub mod buckets;
pub mod cutty;
pub mod daba;
pub mod pairs;
pub mod panes;
pub mod slick_deque;
pub mod tuple_buffer;
pub mod two_stacks;

pub use aggregate_tree::AggregateTree;
pub use buckets::{BucketMode, Buckets};
pub use cutty::Cutty;
pub use daba::{DabaLite, DabaLiteSliding};
pub use pairs::Pairs;
pub use panes::Panes;
pub use slick_deque::{MonotonicDeque, SlickDequeSliding};
pub use tuple_buffer::TupleBuffer;
pub use two_stacks::{FifoAggregator, TwoStacksSliding};
