//! The worker body that hosts a whole operator — what `run_keyed`,
//! `run_parallel` and `run_sharded_keyed` run on their workers — and the
//! sink a stage's emissions settle in.

use gss_core::{AggregateFunction, Time, WindowAggregator, WindowResult};

use crate::batching::RecordChunk;
use crate::driver::{Emitted, Uplink, Worker};
use crate::pipeline::PipelineConfig;

/// Where a driver stage's emissions go: operators append to `scratch`,
/// [`settle`](ResultSink::settle) counts what is there and keeps it only
/// when the run collects results.
pub(crate) struct ResultSink<R> {
    pub(crate) scratch: Vec<R>,
    pub(crate) collect: bool,
    results: Vec<R>,
    count: u64,
}

impl<R> ResultSink<R> {
    pub(crate) fn new(collect: bool) -> Self {
        ResultSink { scratch: Vec::new(), collect, results: Vec::new(), count: 0 }
    }

    pub(crate) fn settle(&mut self) {
        self.count += self.scratch.len() as u64;
        if self.collect {
            self.results.append(&mut self.scratch);
        } else {
            self.scratch.clear();
        }
    }

    /// Everything settled, each result `tag`ged with its partition.
    pub(crate) fn emitted<O>(self, tag: impl FnMut(R) -> (usize, WindowResult<O>)) -> Emitted<O> {
        (self.count, self.results.into_iter().map(tag).collect())
    }
}

/// Emissions a hosted operator may buffer before they go to the merge
/// stage. Bounds worker memory between watermarks; the merge stage stages
/// whatever arrives early and still releases it only at the barrier.
const EMIT_SHIP_CAP: usize = 4096;

/// The body of a worker that hosts a whole operator over its share of the
/// records plus every broadcast watermark/punctuation: a `run_keyed`
/// partition, `run_parallel`'s one operator, a `run_sharded_keyed`
/// shard. With a merge stage, emissions ship to it in bulk and every
/// watermark is acked after shipping; without one, the worker keeps them.
pub(crate) struct Hosted<A: AggregateFunction> {
    op: Box<dyn WindowAggregator<A>>,
    sink: ResultSink<WindowResult<A::Output>>,
}

impl<A: AggregateFunction> Hosted<A> {
    pub(crate) fn new(op: Box<dyn WindowAggregator<A>>, cfg: &PipelineConfig) -> Self {
        Hosted { op, sink: ResultSink::new(cfg.collect_results) }
    }

    /// Settles what the operator emitted, or ships it once it numbers
    /// `at_least`.
    fn pass_on(&mut self, up: &mut Up<'_, A>, at_least: usize) {
        if !up.merges() {
            self.sink.settle();
        } else if self.sink.scratch.len() >= at_least {
            let shipped = self.sink.scratch.len() as u64;
            up.ship(std::mem::take(&mut self.sink.scratch), shipped);
        }
    }
}

/// A hosted operator's edge to the merge stage: window results in
/// emission order.
type Up<'a, A> = Uplink<'a, Vec<WindowResult<<A as AggregateFunction>::Output>>>;

impl<A> Worker<A::Input, Vec<WindowResult<A::Output>>, A::Output> for Hosted<A>
where
    A: AggregateFunction,
    A::Output: Send,
{
    /// The whole chunk goes through `process_batch_columns`: contiguous
    /// values column, zero repacking. Size-1 chunks take the per-record
    /// entry point: run detection is pure overhead on one record (the old
    /// "batch 1 costs 0.6×" cliff).
    fn records(&mut self, chunk: &mut RecordChunk<A::Input>, up: &mut Up<'_, A>) {
        chunk.check();
        let out = &mut self.sink.scratch;
        if chunk.len() == 1 {
            chunk.drain().for_each(|(ts, value)| self.op.process(ts, value, out));
        } else {
            self.op.process_batch_columns(chunk.times(), chunk.values(), out);
        }
        self.pass_on(up, EMIT_SHIP_CAP);
    }

    /// Ship, then ack: after the ack every emission this worker produced
    /// up to the watermark is with the merge stage, so the barrier can
    /// close the epoch. Acks are 1:1 with broadcasts.
    fn watermark(&mut self, wm: Time, up: &mut Up<'_, A>) {
        self.op.on_watermark(wm, &mut self.sink.scratch);
        self.pass_on(up, 1);
        up.ack(wm);
    }

    fn punctuation(&mut self, ts: Time, up: &mut Up<'_, A>) {
        self.op.on_punctuation(ts, &mut self.sink.scratch);
        self.pass_on(up, EMIT_SHIP_CAP);
    }

    /// The tail: emissions after the last watermark.
    fn end(mut self, up: &mut Up<'_, A>) -> ((u64, u64), Emitted<A::Output>) {
        self.pass_on(up, 1);
        (self.op.fold_stats(), self.sink.emitted(|r| (up.me, r)))
    }
}
