//! # General Stream Slicing — core
//!
//! A from-scratch Rust implementation of *general stream slicing* for
//! efficient streaming window aggregation (Traub et al., EDBT 2019). The
//! core crate provides:
//!
//! * slices kept as columns, one at a time viewed as a [`Slice`], and
//!   their operations **merge**, **split**, and **update** (Section 5.2),
//! * the [`SliceStore`] aggregate store with two index policies
//!   ([`StorePolicy`]): lazy (none) and eager (FlatFAT),
//! * the [`WindowOperator`] combining the Stream
//!   Slicer, Slice Manager, and Window Manager of paper Figure 7,
//! * the workload-characteristics decision logic of Figures 4–6
//!   ([`characteristics`]),
//! * the extension traits for user-defined aggregate functions
//!   ([`function::AggregateFunction`]) and window types
//!   ([`window::WindowFunction`]).
//!
//! Aggregate-function implementations live in `gss-aggregates`, window
//! types in `gss-windows`, the baseline techniques the paper compares
//! against in `gss-baselines`, and a tuple-at-a-time dataflow runtime in
//! `gss-stream`.
//!
//! ## Quick example
//!
//! ```
//! use gss_core::operator::{OperatorConfig, WindowOperator};
//! use gss_core::testsupport::SumI64;
//! use gss_core::time::{Measure, Range, Time};
//! use gss_core::window::{ContextClass, PeriodicEdges, WindowFunction};
//!
//! // A minimal tumbling window of length 10 (real window types live in
//! // `gss-windows`). Reporting its `PeriodicEdges` lets the operator's
//! // query set answer it by arithmetic; the other methods answer whoever
//! // asks the window itself.
//! #[derive(Clone)]
//! struct Tumbling(PeriodicEdges);
//! impl WindowFunction for Tumbling {
//!     fn measure(&self) -> Measure { Measure::Time }
//!     fn context(&self) -> ContextClass { ContextClass::ContextFree }
//!     fn periodic(&self) -> Option<PeriodicEdges> { Some(self.0) }
//!     fn next_edge(&self, ts: Time) -> Option<Time> { Some(self.0.next_edge(ts)) }
//!     fn next_window_end(&self, ts: Time) -> Option<Time> { Some(self.0.next_end(ts)) }
//!     fn trigger_windows(&mut self, p: Time, c: Time, out: &mut dyn FnMut(Range)) {
//!         self.0.ends_in(p, c, out)
//!     }
//!     fn windows_containing(&self, ts: Time, out: &mut dyn FnMut(Range)) {
//!         self.0.containing(ts, out)
//!     }
//!     fn max_extent(&self) -> i64 { self.0.length }
//!     fn clone_box(&self) -> Box<dyn WindowFunction> { Box::new(self.clone()) }
//! }
//!
//! let mut op = WindowOperator::new(SumI64, OperatorConfig::in_order());
//! op.add_query(Box::new(Tumbling(PeriodicEdges::new(10, 10)))).unwrap();
//! let mut out = Vec::new();
//! for ts in [1, 4, 9, 11, 15, 21] {
//!     op.process_tuple(ts, ts, &mut out);
//! }
//! // Window [0, 10) summed 1 + 4 + 9, window [10, 20) summed 11 + 15.
//! assert_eq!(out.len(), 2);
//! assert_eq!(out[0].value, 14);
//! assert_eq!(out[1].value, 26);
//! ```

pub mod aggregator;
#[macro_use]
pub mod audit;
pub mod cast;
pub mod characteristics;
pub mod element;
pub mod flatfat;
pub mod function;
mod geometry;
pub mod hash;
pub mod keyed;
pub mod mem;
pub mod operator;
pub mod result;
pub mod slice;
pub mod store;
pub mod testsupport;
pub mod time;
pub mod timeline;
pub mod window;

pub use aggregator::WindowAggregator;
pub use characteristics::WorkloadCharacteristics;
pub use element::StreamElement;
pub use flatfat::FlatFat;
pub use function::{AggregateFunction, FunctionKind, FunctionProperties};
pub use hash::{fx_hash_u64, FxBuildHasher, FxHashMap, FxHasher};
pub use keyed::{KeyedConfig, KeyedStats, KeyedWindowOperator, NaiveKeyedOperator, PerKey};
pub use mem::HeapSize;
pub use operator::{OperatorConfig, OperatorStats, QueryError, WindowOperator};
pub use result::WindowResult;
pub use slice::Slice;
pub use store::{SliceStore, StorePolicy};
pub use time::{Count, Measure, Range, StreamOrder, Time, Watermark, TIME_MAX, TIME_MIN};
pub use timeline::{SliceMeta, Timeline};
pub use window::{
    ContextClass, ContextEdges, PeriodicEdges, Query, QueryId, QuerySet, WindowFunction, WindowRun,
};
