//! # gss-stream
//!
//! A minimal tuple-at-a-time dataflow substrate: bounded channels, key
//! partitioning, watermark broadcast, and one window-operator instance per
//! partition — the parallelization model of Flink/Storm-style systems that
//! the paper assumes (Section 5.3) and measures in Section 6.4.

pub mod barrier;
pub mod batching;
pub mod builder;
pub mod driver;
mod host;
pub mod metrics;
pub mod mutants;
pub mod parallel;
pub mod pipeline;
pub mod sharded;
pub mod source;
pub mod watermark;

pub use batching::{Batching, ChunkBuilder, RecordChunk};
pub use builder::{KeyedPipeline, Pipeline};
pub use driver::PipelineError;
pub use metrics::{BatchSizeHistogram, LatencyHistogram};
pub use parallel::{parallel_eligible, run_parallel};
pub use pipeline::{
    partition_of, process_cpu_time, run_keyed, run_per_key, PipelineConfig, PipelineReport,
};
pub use sharded::{run_sharded_keyed, shard_of};
pub use source::{
    filter_records, key_by, map_records, punctuate_every, IteratorSource, PunctuateEvery,
};
pub use watermark::{AscendingTimestamps, BoundedOutOfOrderness, NoWatermarks, WatermarkStrategy};
