//! # gss-stream
//!
//! A minimal dataflow substrate: bounded channels, key partitioning,
//! watermark broadcast, and one window-operator instance per partition —
//! the parallelization model of Flink/Storm-style systems that the paper
//! assumes (Section 5.3) and measures in Section 6.4.
//!
//! Every driver ([`run_keyed`], [`run_per_key`], [`run_parallel`],
//! [`run_sharded_keyed`]) takes a plain iterator of
//! [`StreamElement`](gss_core::StreamElement)s: records, watermarks and
//! punctuations in arrival order. Watermarks come with the input
//! (`gss_data::with_watermarks` adds bounded-out-of-orderness ones), keys
//! and payloads are shaped with
//! [`StreamElement::map`](gss_core::StreamElement::map) and
//! [`Iterator::filter`].

pub mod barrier;
pub mod batching;
pub mod driver;
mod host;
pub mod metrics;
pub mod mutants;
pub mod pipeline;
pub mod sharded;

pub use batching::{Batching, ChunkBuilder, RecordChunk};
pub use driver::PipelineError;
pub use metrics::{BatchSizeHistogram, LatencyHistogram};
pub use pipeline::{
    partition_of, run_keyed, run_parallel, run_per_key, PipelineConfig, PipelineReport,
};
pub use sharded::{run_sharded_keyed, shard_of};
