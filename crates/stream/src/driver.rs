//! The one driver skeleton: gather → N workers behind N bounded channels
//! → optional merge stage.
//!
//! `run` owns what every driver shares: the scope, the forward, merge
//! and return channels, the spawn order (merge stage first, then workers
//! in index order, each body built on the calling thread right before its
//! spawn), the pump, the joins, the elapsed/CPU bracket and the fold into
//! a [`PipelineReport`]. The worker side is here once as well: the receive
//! loop, the buffer return, the record count and the timed merge edge
//! (`Uplink`). A driver supplies what differs — the gather stage that
//! picks each chunk's destination, a `Worker` body per destination, a
//! `Merge` stage or none.
//!
//! Every task runs under `catch_unwind`, and a send that finds its peer
//! gone does not panic: it stops the pump or the worker, whose dropped
//! channels stop the others in turn, so every task drains and is joined.
//! The first failed task and its payload are the run's [`PipelineError`];
//! such a run yields no report, closes no further epoch (the failed worker
//! never acks again) and runs no end-of-stream tail. The public `run_*`
//! functions still return bare reports — `benchmark/` compiles against
//! them — and surface the error at one site, `PipelineError::raise`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crossbeam::runtime::{self, bounded, Receiver, SendError, Sender, TrySendError};
use crossbeam::sched::ProbeEvent;
use gss_core::{QueryError, StreamElement, Time, WindowResult};

use crate::barrier::{merge_stage, Msg, Stage};
use crate::batching::{give_back, Gather, Gathered, RecordChunk};
use crate::metrics::LatencyHistogram;
use crate::pipeline::{process_cpu_time, PipelineConfig, PipelineReport};

/// Which task of a run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// The calling thread: operator factories, the source iterator, routing.
    Driver,
    /// The worker (partition, shard) of this index.
    Worker(usize),
    /// The merge stage.
    Merge,
}

/// Why a run has no report.
#[derive(Debug)]
pub enum PipelineError {
    /// The operator refused the query set; nothing ran.
    Query(QueryError),
    /// A task panicked with `payload` — user code: the drivers' own failure
    /// sites stop their task instead.
    Task { task: Task, payload: Box<dyn Any + Send> },
}

impl PipelineError {
    /// Fails the calling thread with the original payload (no second trip
    /// through the panic hook), or with the query error's own message.
    /// The public drivers end here until their signatures may change.
    pub(crate) fn raise(self) -> ! {
        match self {
            PipelineError::Task { payload, .. } => resume_unwind(payload),
            PipelineError::Query(err) => panic!("{err}"),
        }
    }
}

/// Runs `f` as `task`; a panic becomes the task's error and marks the run.
fn guarded<T>(failed: &AtomicBool, task: Task, f: impl FnOnce() -> T) -> Result<T, PipelineError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        failed.store(true, Ordering::Release);
        PipelineError::Task { task, payload }
    })
}

/// Sends one gathered event on: records to the destination the gather
/// stage chose, a watermark or punctuation to every worker (their pending
/// chunks are out already, so each sees its records and the broadcast in
/// stream order). `Err` when a worker is gone.
fn deliver<V>(
    event: Gathered<V>,
    to: &[Sender<Gathered<V>>],
) -> Result<(), SendError<Gathered<V>>> {
    let all = |msg: fn(Time) -> Gathered<V>, at| to.iter().try_for_each(|tx| tx.send(msg(at)));
    match event {
        Gathered::Records(dst, _) => to[dst].send(event),
        Gathered::Watermark(wm) => all(Gathered::Watermark, wm),
        Gathered::Punctuation(ts) => all(Gathered::Punctuation, ts),
    }
}

/// A worker's edge to the merge stage, with backpressure accounting: the
/// fast path is a non-blocking `try_send`; when the merge stage's queue is
/// full the blocking fallback is timed, so the recorded latency *is* the
/// queue wait.
pub(crate) struct Uplink<'a, B> {
    /// `None`: the driver has no merge stage.
    tx: Option<&'a Sender<(usize, Msg<B>)>>,
    pub(crate) me: usize,
    wait: LatencyHistogram,
    /// The merge stage hung up: it failed, and this worker stops.
    gone: bool,
}

impl<B> Uplink<'_, B> {
    /// Whether there is a merge stage to send to.
    pub(crate) fn merges(&self) -> bool {
        self.tx.is_some()
    }

    /// Sends `batch`, of `items` items, behind everything sent before.
    pub(crate) fn ship(&mut self, batch: B, items: u64) {
        self.send(Msg::Batch(batch));
        runtime::probe(ProbeEvent::Shipped { src: self.me, items });
    }

    /// Acks a broadcast watermark: everything produced up to it is sent.
    pub(crate) fn ack(&mut self, wm: Time) {
        self.send(Msg::Ack(wm));
    }

    fn send(&mut self, msg: Msg<B>) {
        let Some(tx) = self.tx.filter(|_| !self.gone) else { return };
        match tx.try_send((self.me, msg)) {
            Ok(()) => self.wait.record_ns(0),
            Err(TrySendError::Full(msg)) => {
                let t0 = Instant::now();
                self.gone = tx.send(msg).is_err();
                self.wait.record(t0.elapsed());
            }
            Err(TrySendError::Disconnected(_)) => self.gone = true,
        }
    }
}

/// What one task hands the report: how many results it produced and, when
/// the run collects them, the results tagged with their partition.
pub(crate) type Emitted<O> = (u64, Vec<(usize, WindowResult<O>)>);

/// What a worker does with its share of the stream.
pub(crate) trait Worker<V, B, O>: Send {
    /// A chunk of records; the skeleton counts it and returns its buffer.
    fn records(&mut self, chunk: &mut RecordChunk<V>, up: &mut Uplink<'_, B>);
    fn watermark(&mut self, wm: Time, up: &mut Uplink<'_, B>);
    fn punctuation(&mut self, ts: Time, up: &mut Uplink<'_, B>);
    /// The end of the stream: whatever is pending goes out. Returns the
    /// fold kernel hits and misses of this worker and, in a driver without
    /// a merge stage, what it emitted.
    fn end(self, up: &mut Uplink<'_, B>) -> ((u64, u64), Emitted<O>);
}

/// The merge stage of a driver: a [`Stage`] behind the epoch barrier, plus
/// the end the barrier leaves to it.
pub(crate) trait Merge<B, O>: Stage<B> + Send {
    /// Every worker has hung up. `clean`: the stream ended, so what was
    /// staged behind the last ack is the closing epoch.
    fn finish(self: Box<Self>, clean: bool) -> Emitted<O>;
}

/// What a task hands the report: records, merge-edge waits, fold kernel
/// hits and misses, results.
type Tally<O> = (u64, LatencyHistogram, (u64, u64), Emitted<O>);

/// One worker task: feed `body` what `rx` delivers until the stream ends
/// or the merge stage is gone.
fn work<V, B, O>(
    rx: &Receiver<Gathered<V>>,
    tx: Option<&Sender<(usize, Msg<B>)>>,
    spares: &Sender<RecordChunk<V>>,
    me: usize,
    mut body: impl Worker<V, B, O>,
) -> Tally<O> {
    let mut up = Uplink { tx, me, wait: LatencyHistogram::new(), gone: false };
    let mut records = 0u64;
    for msg in rx.iter() {
        match msg {
            Gathered::Records(_, mut chunk) => {
                records += chunk.len() as u64;
                body.records(&mut chunk, &mut up);
                give_back(spares, chunk, me);
            }
            Gathered::Watermark(wm) => body.watermark(wm, &mut up),
            Gathered::Punctuation(ts) => body.punctuation(ts, &mut up),
        }
        if up.gone {
            break;
        }
    }
    // A worker that stops short belongs to a failed run: no tally.
    let (fold_stats, emitted) = if up.gone { Default::default() } else { body.end(&mut up) };
    (records, up.wait, fold_stats, emitted)
}

/// Runs one pipeline: `gather`'s events go to one worker per body, whose
/// batches and acks go to `stage` if there is one. The report lacks only
/// the driver's own `parallel_workers` / `shards`.
pub(crate) fn run<I, T, V, S, R, B, O, W>(
    cfg: PipelineConfig,
    mut gather: Gather<I, V, S, R>,
    bodies: impl ExactSizeIterator<Item = W>,
    stage: Option<Box<dyn Merge<B, O> + '_>>,
) -> Result<PipelineReport<O>, PipelineError>
where
    I: Iterator<Item = StreamElement<T>>,
    S: FnMut(T) -> (u64, V),
    R: Fn(u64, usize) -> usize,
    V: Send,
    B: Send,
    O: Send,
    W: Worker<V, B, O>,
{
    let workers = bodies.len();
    let cpu_before = process_cpu_time();
    let start = Instant::now();
    let mut report = PipelineReport::empty();
    // Stored (`Release`) by a failing task before it drops its channel ends,
    // loaded (`Acquire`) by the merge stage once its channel has closed: it
    // then knows whether the stream ended or broke.
    let failed = &AtomicBool::new(false);
    runtime::scope(|scope| {
        let (mtx, merge) = stage.map_or((None, None), |mut stage| {
            let (mtx, mrx) = bounded(cfg.channel_capacity.max(workers));
            let task = move || {
                let drained = merge_stage(mrx, workers, &mut *stage);
                let clean = !failed.load(Ordering::Acquire);
                debug_assert!(drained || !clean, "merge queues must drain at end of stream");
                (0, LatencyHistogram::new(), (0, 0), stage.finish(drained && clean))
            };
            (Some(mtx), Some(scope.spawn(move || guarded(failed, Task::Merge, task))))
        });
        let spares = gather.open_returns(cfg.channel_capacity);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers + 1);
        let pumped = guarded(failed, Task::Driver, || {
            for (i, body) in bodies.enumerate() {
                let (tx, rx) = bounded(cfg.channel_capacity);
                senders.push(tx);
                let (mtx, spares) = (mtx.clone(), spares.clone());
                // The task owns its channel ends and lends them to the
                // guarded body: they drop after a failure is marked.
                handles.push(scope.spawn(move || {
                    guarded(failed, Task::Worker(i), || work(&rx, mtx.as_ref(), &spares, i, body))
                }));
            }
            // Workers hold the only remaining clones; the merge loop ends
            // when the last worker exits.
            drop((mtx, spares));
            std::iter::from_fn(|| gather.next()).try_for_each(|event| deliver(event, &senders))
        });
        drop(senders);
        report.batch_sizes = gather.into_sizes();

        // `Ok(Err(_))`: the pump stopped at a worker that was gone, whose
        // failure (or the merge stage's behind it) is among the joins.
        let stopped = matches!(pumped, Ok(Err(_)));
        let mut failure = pumped.err();
        handles.extend(merge);
        for (handle, task) in
            handles.into_iter().zip((0..workers).map(Task::Worker).chain([Task::Merge]))
        {
            let joined =
                handle.join().unwrap_or_else(|payload| Err(PipelineError::Task { task, payload }));
            match joined {
                Ok((records, send_wait, (hits, misses), emitted)) => {
                    report.records += records;
                    report.send_wait.merge(&send_wait);
                    report.fold_hits += hits;
                    report.fold_misses += misses;
                    report.absorb(emitted);
                }
                Err(err) => _ = failure.get_or_insert(err),
            }
        }
        debug_assert!(!stopped || failure.is_some(), "a peer hung up but no task failed");
        failure.map_or(Ok(()), Err)
    })?;
    report.elapsed = start.elapsed();
    report.cpu_time = process_cpu_time().saturating_sub(cpu_before);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::Batching;
    use std::sync::atomic::AtomicU64;

    const BOOM: &str = "user code failed";

    /// Ships each chunk's record count, acks each watermark; panics on a
    /// record of its `trip` value.
    struct Count {
        trip: i64,
    }

    impl Worker<i64, u64, i64> for Count {
        fn records(&mut self, chunk: &mut RecordChunk<i64>, up: &mut Uplink<'_, u64>) {
            if chunk.values().contains(&self.trip) {
                std::panic::panic_any(BOOM);
            }
            up.ship(chunk.len() as u64, 1);
        }
        fn watermark(&mut self, wm: Time, up: &mut Uplink<'_, u64>) {
            up.ack(wm);
        }
        fn punctuation(&mut self, _: Time, _: &mut Uplink<'_, u64>) {}
        fn end(self, up: &mut Uplink<'_, u64>) -> ((u64, u64), Emitted<i64>) {
            up.ship(1_000, 1);
            ((up.me as u64, 1), Emitted::default())
        }
    }

    /// Sums what the workers ship; panics when the epoch of `trip` closes.
    /// `released` is what a caller could have observed of it.
    struct Sum<'a> {
        staged: u64,
        trip: Time,
        released: &'a AtomicU64,
    }

    impl Stage<u64> for Sum<'_> {
        fn apply(&mut self, _: usize, batch: u64) {
            self.staged += batch;
        }
        fn close(&mut self, wm: Time) {
            if wm == self.trip {
                std::panic::panic_any(BOOM);
            }
            self.released.fetch_add(std::mem::take(&mut self.staged), Ordering::SeqCst);
        }
    }

    impl Merge<u64, i64> for Sum<'_> {
        fn finish(mut self: Box<Self>, clean: bool) -> Emitted<i64> {
            if clean {
                self.close(Time::MAX);
            }
            (self.released.load(Ordering::SeqCst), Vec::new())
        }
    }

    /// 40 records with a watermark behind every tenth, then 4 more, in
    /// chunks of up to 4 routed to two workers, four values to each in
    /// turn.
    fn drive(
        elements: impl Iterator<Item = StreamElement<i64>>,
        worker_trip: i64,
        merge_trip: Time,
        released: &AtomicU64,
    ) -> Result<PipelineReport<i64>, PipelineError> {
        let mut cfg = PipelineConfig::with_parallelism(2);
        cfg.channel_capacity = 2;
        let gather = Gather::new(
            elements,
            Batching::Fixed(4),
            2,
            |v| (v as u64, v),
            |v, _| (v / 4 % 2) as usize,
        );
        let bodies = (0..2).map(|_| Count { trip: worker_trip });
        let stage = Sum { staged: 0, trip: merge_trip, released };
        run(cfg, gather, bodies, Some(Box::new(stage)))
    }

    fn elements() -> impl Iterator<Item = StreamElement<i64>> {
        (0..44).flat_map(|i| {
            let mark = (i < 40 && i % 10 == 9).then_some(StreamElement::Watermark(i));
            [StreamElement::Record { ts: i, value: i }].into_iter().chain(mark)
        })
    }

    fn failure(outcome: Result<PipelineReport<i64>, PipelineError>) -> (Task, &'static str) {
        match outcome {
            Err(PipelineError::Task { task, payload }) => {
                (task, *payload.downcast_ref::<&str>().expect("the user's payload"))
            }
            other => panic!("expected a failed task, got {other:?}"),
        }
    }

    #[test]
    fn a_clean_run_folds_every_tally_and_runs_the_tail() {
        let released = AtomicU64::new(0);
        let report = drive(elements(), -1, -1, &released).unwrap();
        assert_eq!(report.records, 44);
        assert_eq!((report.fold_hits, report.fold_misses), (1, 2), "both workers' stats");
        assert_eq!(report.batch_sizes.records(), 44);
        assert_eq!(report.send_wait.count(), 13 + 2 + 8, "chunks, tails and acks, all timed");
        // 44 records and each worker's closing 1 000, the tail included.
        assert_eq!(report.result_count, 2_044);
        assert_eq!((report.parallel_workers, report.shards), (0, 0), "the constructor's to set");
    }

    #[test]
    fn a_failed_worker_is_named_and_the_run_yields_no_report() {
        for (trip, worker) in [(2, 0), (14, 1), (41, 0)] {
            let released = AtomicU64::new(0);
            let outcome = drive(elements(), trip, -1, &released);
            assert_eq!(failure(outcome), (Task::Worker(worker), BOOM), "record {trip}");
            // Epochs that closed before the failure were released; the one
            // it struck and the tail were not.
            let closed = (trip as u64 / 10) * 10;
            assert_eq!(released.load(Ordering::SeqCst), closed, "record {trip}");
        }
    }

    #[test]
    fn a_failed_merge_stage_is_named_and_stops_the_workers() {
        let released = AtomicU64::new(0);
        let outcome = drive(elements(), -1, 19, &released);
        assert_eq!(failure(outcome), (Task::Merge, BOOM));
        assert_eq!(released.load(Ordering::SeqCst), 10, "the first epoch only");
    }

    #[test]
    fn a_failing_source_is_the_drivers_failure_and_nothing_is_released_after_it() {
        let released = AtomicU64::new(0);
        let source = elements().map(|e| match e {
            StreamElement::Record { ts: 25, .. } => std::panic::panic_any(BOOM),
            e => e,
        });
        let outcome = drive(source, -1, -1, &released);
        assert_eq!(failure(outcome), (Task::Driver, BOOM));
        // The workers saw a stream that simply ended, and shipped their
        // tails; the merge stage knew better than to release them.
        assert_eq!(released.load(Ordering::SeqCst), 20);
    }
}
