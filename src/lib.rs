//! # General Stream Slicing
//!
//! A from-scratch Rust implementation of **general stream slicing** for
//! efficient streaming window aggregation, reproducing Traub et al.,
//! *Efficient Window Aggregation with General Stream Slicing* (EDBT 2019)
//! — the technique behind the Scotty window processor.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — slices, the merge/split/update operations, the slice
//!   store with its lazy and eager policies, and the
//!   [`core::WindowOperator`] combining stream
//!   slicer, slice manager, and window manager;
//! * [`aggregates`] — lift/combine/lower/invert aggregate functions (sum,
//!   avg, min/max families, stddevs, M4, median, percentiles, ...);
//! * [`windows`] — tumbling, sliding, session, count-based, punctuation,
//!   and multi-measure window types;
//! * [`baselines`] — the techniques the paper compares against (tuple
//!   buffer, FlatFAT aggregate tree, buckets, Pairs, Cutty);
//! * [`stream`] — a tuple-at-a-time dataflow runtime with key-partitioned
//!   parallelism;
//! * [`data`] — deterministic workload generators modeled after the DEBS
//!   2012/2013 datasets.
//!
//! ## Quickstart
//!
//! ```
//! use general_stream_slicing::prelude::*;
//!
//! // One operator, three concurrent queries sharing slices.
//! let mut op = WindowOperator::new(Sum, OperatorConfig::in_order());
//! op.add_query(Box::new(TumblingWindow::new(1_000))).unwrap();
//! op.add_query(Box::new(SlidingWindow::new(5_000, 1_000))).unwrap();
//! op.add_query(Box::new(SessionWindow::new(400))).unwrap();
//!
//! let mut out = Vec::new();
//! for ts in (0..10_000).step_by(10) {
//!     op.process_tuple(ts, 1, &mut out);
//! }
//! assert!(out.iter().any(|w| w.range.len() == 1_000 && w.value == 100));
//! assert!(out.iter().any(|w| w.range.len() == 5_000 && w.value == 500));
//! ```

pub use gss_aggregates as aggregates;
pub use gss_baselines as baselines;
pub use gss_core as core;
pub use gss_data as data;
pub use gss_query as query;
pub use gss_stream as stream;
pub use gss_windows as windows;

/// Everything a typical application needs, in one import.
pub mod prelude {
    pub use gss_aggregates::{
        ArgMax, ArgMin, Avg, CountAgg, First, GeometricMean, Last, Max, MaxCount, Median,
        MedianNoRle, Min, MinCount, Percentile, PopulationStdDev, SampleStdDev, Sum, SumNoInvert,
        M4,
    };
    pub use gss_baselines::{
        AggregateTree, BucketMode, Buckets, Cutty, FifoAggregator, MonotonicDeque, Pairs, Panes,
        SlickDequeSliding, TupleBuffer, TwoStacksSliding,
    };
    pub use gss_core::{
        AggregateFunction, ContextClass, ContextEdges, FunctionKind, FunctionProperties, HeapSize,
        KeyedConfig, KeyedStats, KeyedWindowOperator, Measure, NaiveKeyedOperator, OperatorConfig,
        PerKey, Query, QueryId, Range, StorePolicy, StreamElement, StreamOrder, Time,
        WindowAggregator, WindowFunction, WindowOperator, WindowResult, WindowRun,
    };
    pub use gss_data::{
        make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, MachineConfig,
        MachineGenerator, OooConfig,
    };
    pub use gss_query::{translate, AggKind, QueryDsl, Value, WindowDsl};
    pub use gss_stream::{
        run_keyed, run_parallel, run_per_key, run_sharded_keyed, shard_of, BatchSizeHistogram,
        Batching, ChunkBuilder, LatencyHistogram, PipelineConfig, PipelineReport, RecordChunk,
    };
    pub use gss_windows::{
        CountSlidingWindow, CountTumblingWindow, MultiMeasureWindow, PunctuationWindow,
        SessionWindow, SlidingWindow, TumblingWindow,
    };
}
