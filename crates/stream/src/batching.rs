//! Latency-bounded adaptive batching, the struct-of-arrays record chunk,
//! and the gather stage every driver's source loop runs.
//!
//! Sources pack records into [`RecordChunk`]s — separate `times` /
//! `values` columns — so a worker can hand the operator's bulk-fold
//! kernel a contiguous primitive value slice without re-materializing
//! `(time, value)` pairs. [`ChunkBuilder`] decides where chunk boundaries
//! fall: accumulate until either a target size or a deadline relative to
//! the chunk's first record, whichever comes first. `Gather` pulls an
//! element iterator into the builders and recycles the workers' buffers.
//!
//! ## Why a wall-clock deadline is event-time-safe
//!
//! Chunking is pure transport: results are driven by event-time
//! watermarks and punctuations, and every source flushes its pending
//! chunk *before* broadcasting either, so window contents, emission
//! points, and emission order are identical for every possible chunking.
//! The deadline therefore only bounds how long a record can sit in a
//! half-full buffer (ingestion latency); it can never change an answer.
//! That is also why the wall clock lives here in `gss-stream` and not in
//! `gss-core` — the operator itself stays event-time-only (enforced by
//! the `no-wallclock` lint), and the clock is injectable so tests drive
//! the deadline deterministically.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crossbeam::runtime::{self, bounded, Receiver, Sender};
use crossbeam::sched::ProbeEvent;
use gss_core::{StreamElement, Time};

use crate::metrics::BatchSizeHistogram;
use crate::mutants::{self, Mutant};

/// How sources pack records into chunks. A worker hands a chunk of one
/// record to the operator's `process`, every other chunk to its batched
/// ingestion path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batching {
    /// Fixed-size chunks of this many records.
    Fixed(usize),
    /// Accumulate until `target` records or until `max_delay` has passed
    /// since the chunk's first record, whichever comes first. High-rate
    /// streams get full `target`-sized chunks (batched-throughput
    /// regime); low-rate streams get small chunks within `max_delay`
    /// (latency regime) — no tuning knob to misconfigure.
    Adaptive { target: usize, max_delay: Duration },
}

impl Batching {
    /// Default adaptive target: the plateau of the operator's batch-size
    /// sweep (throughput is flat past ~4096; EXPERIMENTS.md, "Batched
    /// ingestion").
    const DEFAULT_TARGET: usize = 4096;
    /// Default adaptive deadline.
    const DEFAULT_MAX_DELAY: Duration = Duration::from_millis(1);

    /// The transport chunk-size ceiling of this mode (capacity hint).
    fn chunk_target(&self) -> usize {
        match *self {
            Batching::Fixed(n) => n,
            Batching::Adaptive { target, .. } => target,
        }
    }
}

impl Default for Batching {
    fn default() -> Self {
        Batching::Adaptive { target: Self::DEFAULT_TARGET, max_delay: Self::DEFAULT_MAX_DELAY }
    }
}

/// A chunk of records in struct-of-arrays layout: parallel `times` /
/// `values` columns of equal length. The values column is contiguous, so
/// in-order runs flow straight into
/// [`AggregateFunction::fold_slice`](gss_core::AggregateFunction::fold_slice)
/// kernels with zero gather.
#[derive(Debug, Clone)]
pub struct RecordChunk<V> {
    times: Vec<Time>,
    values: Vec<V>,
}

impl<V> RecordChunk<V> {
    pub fn with_capacity(n: usize) -> Self {
        RecordChunk { times: Vec::with_capacity(n), values: Vec::with_capacity(n) }
    }

    #[inline]
    pub fn push(&mut self, ts: Time, value: V) {
        self.times.push(ts);
        self.values.push(value);
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    #[inline]
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Appends up to `room` records pulled from `next`, stopping at its
    /// first `Err`, which is handed back. Writes go into spare capacity
    /// and the lengths are set once: `Vec::push` stores each length and
    /// re-tests the capacity per record, which cost a third of the speed.
    #[inline]
    fn fill<E>(
        &mut self,
        room: usize,
        mut next: impl FnMut() -> Result<(Time, V), E>,
    ) -> Result<(), E> {
        self.times.reserve(room);
        self.values.reserve(room);
        let times = &mut self.times.spare_capacity_mut()[..room];
        let values = &mut self.values.spare_capacity_mut()[..room];
        let mut n = 0;
        let stop = loop {
            if n == room {
                break Ok(());
            }
            match next() {
                Ok((ts, value)) => {
                    times[n].write(ts);
                    values[n].write(value);
                    n += 1;
                }
                Err(stop) => break Err(stop),
            }
        };
        // SAFETY: the first `n` spare slots of each column were written
        // just above, and `n <= room` slots past its length were reserved
        // in each, so both new lengths are within capacity and cover
        // initialised elements only.
        unsafe {
            self.times.set_len(self.times.len() + n);
            self.values.set_len(self.values.len() + n);
        }
        stop
    }

    /// Empties both columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.times.clear();
        self.values.clear();
    }

    /// Yields the zipped pairs by value and leaves the chunk empty with
    /// its capacity intact — the per-tuple path of a recycled buffer.
    pub fn drain(&mut self) -> impl Iterator<Item = (Time, V)> + '_ {
        self.times.drain(..).zip(self.values.drain(..))
    }

    /// Audit-build invariant: the columns must stay aligned. Called at
    /// every hand-off point (chunk receipt in workers).
    pub fn check(&self) {
        gss_core::audit_assert!(
            self.times.len() == self.values.len(),
            "SoA chunk columns diverged: {} times vs {} values",
            self.times.len(),
            self.values.len()
        );
    }
}

/// Consuming iteration yields the zipped pairs (and frees the buffer;
/// [`drain`](RecordChunk::drain) keeps it).
impl<V> IntoIterator for RecordChunk<V> {
    type Item = (Time, V);
    type IntoIter = std::iter::Zip<std::vec::IntoIter<Time>, std::vec::IntoIter<V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.times.into_iter().zip(self.values)
    }
}

/// Clock injection point for the adaptive deadline. Production uses
/// `Instant::now`; tests substitute a deterministic clock.
pub type ClockFn = fn() -> Instant;

/// Accumulates records into [`RecordChunk`]s under a [`Batching`] policy.
///
/// [`push`](ChunkBuilder::push) returns a ready chunk when the target
/// size is reached or (adaptive mode) the deadline since the chunk's
/// first record has passed; [`take`](ChunkBuilder::take) flushes whatever
/// is pending — before a watermark or punctuation goes out and at end of
/// stream, which keeps chunk boundaries invisible (see the module docs).
pub struct ChunkBuilder<V> {
    target: usize,
    /// `Some` in adaptive mode only.
    max_delay: Option<Duration>,
    clock: ClockFn,
    chunk: RecordChunk<V>,
    /// Armed by the first poll of a chunk, cleared when it ships.
    deadline: Option<Instant>,
    /// Chunk length at which the deadline is next polled (adaptive mode).
    next_check: usize,
}

impl<V> ChunkBuilder<V> {
    pub fn new(mode: Batching) -> Self {
        Self::with_clock(mode, Instant::now)
    }

    fn with_clock(mode: Batching, clock: ClockFn) -> Self {
        let target = mode.chunk_target().max(1);
        let max_delay = match mode {
            Batching::Adaptive { max_delay, .. } => Some(max_delay),
            Batching::Fixed(_) => None,
        };
        let chunk = RecordChunk::with_capacity(target);
        ChunkBuilder { target, max_delay, clock, chunk, deadline: None, next_check: 0 }
    }

    /// While the chunk holds fewer than this many records the deadline is
    /// polled on every push — the low-rate regime, where the latency
    /// bound is the whole point and a clock read per record is noise.
    const CLOCK_CHECK_SMALL: usize = 8;
    /// Upper bound on how many pushes a single deadline poll may skip. A
    /// clock read costs tens of nanoseconds — on par with the whole
    /// per-record fold — so polling every push in adaptive mode would
    /// forfeit most of the batching win.
    const CLOCK_CHECK_STRIDE: usize = 64;

    /// Adds one record; returns a chunk ready to ship when full or
    /// past-deadline (see `due`). The one-record form of the
    /// `Gather` stage's strip: same append, same test.
    #[inline]
    pub fn push(&mut self, ts: Time, value: V) -> Option<RecordChunk<V>> {
        self.chunk.push(ts, value);
        self.due().then(|| self.take()).flatten()
    }

    /// How many records the open chunk may take before [`due`](Self::due)
    /// has to be asked again — a *strip*: up to the target, and in
    /// adaptive mode no further than the next scheduled deadline poll.
    /// At least 1 (the chunk is below its target between calls).
    #[inline]
    fn room(&self) -> usize {
        let len = self.chunk.len();
        let until = match self.max_delay {
            None => self.target,
            Some(_) if len < Self::CLOCK_CHECK_SMALL => len + 1,
            Some(_) => self.next_check.max(len + 1),
        };
        until.min(self.target) - len
    }

    /// Whether the chunk must ship now that records were appended: it is
    /// full, or a deadline poll finds `max_delay` passed. The poll is
    /// rate-amortized: the clock is read when a chunk starts (arming the
    /// deadline), after every record while the chunk is small, and then
    /// each read schedules the next by how many records fit into the time
    /// left, at most a stride ahead. A slow stream flushes at the first
    /// record past the deadline, a full-throttle one pays ~1 clock read
    /// per 64 records; if the rate collapses mid-chunk the overshoot is
    /// bounded by the skipped records' inter-arrival gaps (a pull-driven
    /// source has no timer thread to do better).
    #[inline]
    fn due(&mut self) -> bool {
        let len = self.chunk.len();
        if len >= self.target {
            return true;
        }
        let Some(max_delay) = self.max_delay else {
            return false;
        };
        if self.deadline.is_some() && len >= Self::CLOCK_CHECK_SMALL && len < self.next_check {
            return false;
        }
        let now = (self.clock)();
        let deadline = *self.deadline.get_or_insert(now + max_delay);
        if now >= deadline {
            return true;
        }
        self.next_check = len + Self::poll_skip(max_delay, deadline - now, len);
        false
    }

    /// How many records the next deadline poll may skip: those that fit
    /// into `remaining` at the rate so far (`len` records over the rest of
    /// `max_delay`), within [1, `CLOCK_CHECK_STRIDE`]. The cap is tested
    /// by cross-multiplying: a full-rate stream never pays the division.
    #[inline]
    fn poll_skip(max_delay: Duration, remaining: Duration, len: usize) -> usize {
        let remaining_ns = remaining.as_nanos();
        let elapsed_ns = max_delay.as_nanos().saturating_sub(remaining_ns);
        let budget = (len as u128).saturating_mul(remaining_ns);
        if budget >= (Self::CLOCK_CHECK_STRIDE as u128).saturating_mul(elapsed_ns) {
            return Self::CLOCK_CHECK_STRIDE;
        }
        ((budget / elapsed_ns) as usize).max(1)
    }

    /// Flushes the pending chunk, if any.
    pub fn take(&mut self) -> Option<RecordChunk<V>> {
        self.swap(RecordChunk::with_capacity)
    }

    /// [`take`](Self::take) with the replacement buffer supplied by
    /// `fresh` (given the target capacity; called only if a chunk ships).
    fn swap(&mut self, fresh: impl FnOnce(usize) -> RecordChunk<V>) -> Option<RecordChunk<V>> {
        self.deadline = None;
        if self.chunk.is_empty() {
            return None;
        }
        Some(std::mem::replace(&mut self.chunk, fresh(self.target)))
    }

    /// Records currently buffered.
    pub fn pending(&self) -> usize {
        self.chunk.len()
    }
}

/// What the [`Gather`] stage hands its driver, in stream order — and the
/// message a driver forwards to its workers.
pub(crate) enum Gathered<V> {
    /// A chunk ready to ship to destination `.0`.
    Records(usize, RecordChunk<V>),
    /// To broadcast; every pending chunk has been handed out already.
    Watermark(Time),
    /// To broadcast, flushed for like a watermark.
    Punctuation(Time),
}

/// What stopped the gathering: a broadcast to flush for, or the end.
type Stop<V> = Option<Gathered<V>>;

/// The source loop of every driver: pulls an element iterator into one
/// [`ChunkBuilder`] per destination and yields [`Gathered`] events. A
/// watermark, a punctuation or the end of the stream first hands out
/// every pending chunk, in destination order.
///
/// Shipped buffers come back: the workers [`give_back`] theirs over the
/// return channel the driver [`open`](Gather::open_returns)ed, and the
/// stage refills a builder from it, allocating only when none is waiting.
/// Both ends of that channel are non-blocking: it cannot deadlock, and a
/// buffer that finds it full is freed. (DESIGN.md, "The gather stage" /
/// "The return channel".)
pub(crate) struct Gather<I, V, S, R> {
    elements: I,
    /// Splits a record's value into its routing key and the payload the
    /// destination receives.
    split: S,
    /// Maps `(key, destinations)` to a destination; never called with one.
    assign: R,
    builders: Vec<ChunkBuilder<V>>,
    /// The return channel, once [`open`](Gather::open_returns)ed.
    returns: Option<Receiver<RecordChunk<V>>>,
    /// Events of the flush in progress: the flushed chunks, then the
    /// broadcast they had to precede.
    ready: VecDeque<Gathered<V>>,
    ended: bool,
    sizes: BatchSizeHistogram,
}

/// The stage for one destination that receives the records' values whole:
/// nothing to split off and nothing to route by.
#[allow(clippy::type_complexity)] // two closure types, which have no other name
pub(crate) fn gather_whole<I, V>(
    elements: impl IntoIterator<IntoIter = I>,
    mode: Batching,
) -> Gather<I, V, impl FnMut(V) -> (u64, V), impl Fn(u64, usize) -> usize>
where
    I: Iterator<Item = StreamElement<V>>,
{
    Gather::new(elements, mode, 1, |value| (0, value), |_, _| 0)
}

impl<I, T, V, S, R> Gather<I, V, S, R>
where
    I: Iterator<Item = StreamElement<T>>,
    S: FnMut(T) -> (u64, V),
    R: Fn(u64, usize) -> usize,
{
    /// Builds the stage over `destinations` builders (at least one).
    pub(crate) fn new(
        elements: impl IntoIterator<IntoIter = I>,
        mode: Batching,
        destinations: usize,
        split: S,
        assign: R,
    ) -> Self {
        Gather {
            elements: elements.into_iter(),
            split,
            assign,
            builders: (0..destinations.max(1)).map(|_| ChunkBuilder::new(mode)).collect(),
            returns: None,
            ready: VecDeque::new(),
            ended: false,
            sizes: BatchSizeHistogram::new(),
        }
    }

    /// Opens the return channel and hands out the end consumers
    /// [`give_back`] buffers on; `capacity` bounds how many may wait there.
    pub(crate) fn open_returns(&mut self, capacity: usize) -> Sender<RecordChunk<V>> {
        let (tx, rx) = bounded(capacity.max(1));
        self.returns = Some(rx);
        tx
    }

    /// The next event, or `None` once the stream has ended and every
    /// pending chunk is out.
    pub(crate) fn next(&mut self) -> Option<Gathered<V>> {
        while self.ready.is_empty() && !self.ended {
            let due = if self.builders.len() == 1 { self.fill() } else { self.route() };
            match due {
                Ok(dst) => self.ship(dst),
                Err(stop) => {
                    self.ended = stop.is_none();
                    (0..self.builders.len()).for_each(|dst| self.ship(dst));
                    self.ready.extend(stop);
                }
            }
        }
        self.ready.pop_front()
    }

    /// Achieved chunk sizes, one sample per chunk handed out.
    pub(crate) fn into_sizes(self) -> BatchSizeHistogram {
        self.sizes
    }

    /// One destination: append a strip at a time ([`ChunkBuilder::room`])
    /// — a loop that touches neither the clock nor `assign` — until the
    /// chunk is due. The deadline is thus polled at exactly the lengths
    /// one-record pushes would poll it.
    fn fill(&mut self) -> Result<usize, Stop<V>> {
        let Gather { elements, split, builders, .. } = self;
        let builder = &mut builders[0];
        loop {
            let room = builder.room();
            builder.chunk.fill(room, || pull(elements).map(|(ts, value)| (ts, split(value).1)))?;
            if builder.due() {
                return Ok(0);
            }
        }
    }

    /// Several destinations: route and push record by record until one
    /// destination's chunk is due.
    fn route(&mut self) -> Result<usize, Stop<V>> {
        loop {
            let (ts, value) = pull(&mut self.elements)?;
            let (key, payload) = (self.split)(value);
            let dst = (self.assign)(key, self.builders.len());
            let builder = &mut self.builders[dst];
            builder.chunk.push(ts, payload);
            if builder.due() {
                return Ok(dst);
            }
        }
    }

    /// Queues destination `dst`'s pending chunk, if any, and refills the
    /// builder with a buffer that came back (with nothing once the stream
    /// has ended).
    fn ship(&mut self, dst: usize) {
        let Gather { returns, ended, .. } = self;
        let chunk = self.builders[dst].swap(|target| {
            if *ended {
                return RecordChunk::with_capacity(0);
            }
            let Some(back) = returns.as_ref().and_then(|rx| rx.try_recv().ok()) else {
                return RecordChunk::with_capacity(target);
            };
            gss_core::audit_assert!(back.is_empty(), "a returned chunk buffer was not empty");
            back
        });
        if let Some(chunk) = chunk {
            self.sizes.record(chunk.len());
            self.ready.push_back(Gathered::Records(dst, chunk));
        }
    }
}

/// Pulls the next record, or says what stops the gathering instead.
#[inline]
fn pull<T, V>(elements: &mut impl Iterator<Item = StreamElement<T>>) -> Result<(Time, T), Stop<V>> {
    match elements.next() {
        Some(StreamElement::Record { ts, value }) => Ok((ts, value)),
        Some(StreamElement::Watermark(wm)) => Err(Some(Gathered::Watermark(wm))),
        Some(StreamElement::Punctuation(ts)) => Err(Some(Gathered::Punctuation(ts))),
        None => Err(None),
    }
}

/// Consumer side of the return channel: empties a consumed chunk and
/// offers its buffer back to the [`Gather`] stage (`src` names the
/// consumer for the sched oracle). Never blocks; when the channel is full
/// or the stage is gone the buffer is simply freed.
pub(crate) fn give_back<V>(spares: &Sender<RecordChunk<V>>, mut chunk: RecordChunk<V>, src: usize) {
    if !mutants::is(Mutant::DirtyReturn) {
        chunk.clear();
    }
    runtime::probe(ProbeEvent::Recycled { src, items: chunk.len() as u64 });
    let _ = spares.try_send(chunk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    // A deterministic clock: a process-wide base Instant plus an atomic
    // nanosecond offset the test advances by hand. `ClockFn` is a plain
    // fn pointer, so state has to live in statics — tests that *advance*
    // the shared clock serialize on `CLOCK_MUTEX` to keep each other's
    // deadlines stable.
    static BASE: OnceLock<Instant> = OnceLock::new();
    static OFFSET_NS: AtomicU64 = AtomicU64::new(0);
    static CLOCK_MUTEX: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fake_now() -> Instant {
        *BASE.get_or_init(Instant::now) + Duration::from_nanos(OFFSET_NS.load(Ordering::SeqCst))
    }

    fn advance(d: Duration) {
        OFFSET_NS.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }

    #[test]
    fn fixed_mode_flushes_at_target() {
        let mut b = ChunkBuilder::with_clock(Batching::Fixed(4), fake_now);
        assert!(b.push(1, 10).is_none());
        assert!(b.push(2, 20).is_none());
        assert!(b.push(3, 30).is_none());
        let chunk = b.push(4, 40).expect("fourth push fills the chunk");
        assert_eq!(chunk.times(), &[1, 2, 3, 4]);
        assert_eq!(chunk.values(), &[10, 20, 30, 40]);
        assert_eq!(b.pending(), 0);
        assert!(b.take().is_none());
    }

    #[test]
    fn adaptive_flushes_on_target_without_clock_pressure() {
        let mode = Batching::Adaptive { target: 3, max_delay: Duration::from_secs(3600) };
        let mut b = ChunkBuilder::with_clock(mode, fake_now);
        assert!(b.push(1, 1).is_none());
        assert!(b.push(2, 2).is_none());
        assert_eq!(b.push(3, 3).expect("target reached").len(), 3);
    }

    #[test]
    fn adaptive_flushes_on_deadline() {
        let _clock = CLOCK_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let mode = Batching::Adaptive { target: 1_000_000, max_delay: Duration::from_millis(5) };
        let mut b = ChunkBuilder::with_clock(mode, fake_now);
        assert!(b.push(1, 1).is_none());
        advance(Duration::from_millis(2));
        assert!(b.push(2, 2).is_none(), "deadline not yet reached");
        advance(Duration::from_millis(4));
        let chunk = b.push(3, 3).expect("deadline passed");
        assert_eq!(chunk.len(), 3, "the tripping record rides the flushed chunk");
        // The next chunk re-arms its deadline from its own first record.
        assert!(b.push(4, 4).is_none());
        advance(Duration::from_millis(6));
        assert_eq!(b.push(5, 5).expect("second deadline").len(), 2);
    }

    #[test]
    fn adaptive_deadline_is_amortized_past_the_small_regime() {
        let _clock = CLOCK_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        const STRIDE: usize = ChunkBuilder::<i64>::CLOCK_CHECK_STRIDE;
        let mode = Batching::Adaptive { target: 1_000_000, max_delay: Duration::from_millis(5) };
        let mut b = ChunkBuilder::with_clock(mode, fake_now);
        // Fill past the small regime, off stride alignment.
        for i in 0..(STRIDE as i64 + 36) {
            assert!(b.push(i, i).is_none());
        }
        advance(Duration::from_millis(6));
        // Deadline has passed, but the clock is only polled at the next
        // scheduled check: pushes up to there ride along, and the flush
        // comes within one stride of pushes.
        let mut flushed = None;
        let mut extra = 0;
        while flushed.is_none() {
            extra += 1;
            flushed = b.push(1_000 + extra, 0);
            assert!(extra <= STRIDE as i64, "flush must come within one stride");
        }
        let chunk = flushed.expect("deadline flush");
        assert!(chunk.len() > STRIDE + 36, "the skipped pushes ride the flushed chunk");
    }

    #[test]
    fn take_flushes_partial_chunks() {
        let mut b = ChunkBuilder::with_clock(Batching::Fixed(100), fake_now);
        b.push(7, 70);
        let chunk = b.take().expect("partial flush");
        assert_eq!(chunk.len(), 1);
        chunk.check();
    }

    #[test]
    fn default_is_adaptive() {
        assert_eq!(
            Batching::default(),
            Batching::Adaptive {
                target: Batching::DEFAULT_TARGET,
                max_delay: Batching::DEFAULT_MAX_DELAY
            }
        );
        assert_eq!(Batching::default().chunk_target(), 4096);
    }

    #[test]
    fn chunk_iterates_as_pairs() {
        let mut c = RecordChunk::with_capacity(2);
        c.push(1, "a");
        c.push(2, "b");
        let pairs: Vec<(Time, &str)> = c.clone().into_iter().collect();
        assert_eq!(pairs, vec![(1, "a"), (2, "b")]);
        // Draining yields the same pairs and keeps the buffer.
        let buffer = c.times().as_ptr();
        assert_eq!(c.drain().collect::<Vec<_>>(), pairs);
        assert!(c.is_empty());
        c.push(3, "c");
        assert_eq!(c.times().as_ptr(), buffer);
    }

    // ---- the gather stage -------------------------------------------------

    use crate::pipeline::partition_of;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// A clock that never moves: adaptive deadlines are polled but never
    /// pass, so chunk boundaries are a pure function of the input.
    fn frozen() -> Instant {
        *BASE.get_or_init(Instant::now)
    }

    thread_local! {
        static TICKS: Cell<u64> = const { Cell::new(0) };
    }

    /// A clock that advances 300 µs per read, per thread: a 1 ms deadline
    /// passes every few polls, deterministically for one caller.
    fn ticking() -> Instant {
        let n = TICKS.with(|t| t.replace(t.get() + 1));
        frozen() + Duration::from_micros(300 * n)
    }

    type Keyed = StreamElement<(u64, i64)>;

    fn rec(ts: Time, key: u64, v: i64) -> Keyed {
        StreamElement::Record { ts, value: (key, v) }
    }

    /// One gathered event, or one step of the per-record loop it replaced.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Ev {
        Chunk(usize, Vec<Time>, Vec<i64>),
        Wm(Time),
        Punct(Time),
    }

    fn chunk_ev(dst: usize, c: &RecordChunk<i64>) -> Ev {
        Ev::Chunk(dst, c.times().to_vec(), c.values().to_vec())
    }

    fn ev(event: Gathered<i64>) -> Ev {
        match event {
            Gathered::Records(dst, c) => chunk_ev(dst, &c),
            Gathered::Watermark(wm) => Ev::Wm(wm),
            Gathered::Punctuation(ts) => Ev::Punct(ts),
        }
    }

    /// Runs the gather stage over `elements`, never handing a buffer back.
    fn gathered(elements: &[Keyed], mode: Batching, fanout: usize, clock: ClockFn) -> Vec<Ev> {
        let mut gather = Gather::new(elements.iter().copied(), mode, fanout, |kv| kv, partition_of);
        gather.builders.iter_mut().for_each(|b| b.clock = clock);
        let mut out = Vec::new();
        while let Some(event) = gather.next() {
            out.push(ev(event));
        }
        assert_eq!(
            gather.into_sizes().records() as usize,
            elements.iter().filter(|e| e.is_record()).count()
        );
        out
    }

    /// The source loop every driver carried before the gather stage (the
    /// parent commit's `run_keyed`): route, `push`, ship what `push`
    /// returns; `take` every builder in order before a broadcast and at
    /// the end.
    fn per_record_loop(
        elements: &[Keyed],
        mode: Batching,
        fanout: usize,
        clock: ClockFn,
    ) -> Vec<Ev> {
        let mut builders: Vec<ChunkBuilder<i64>> =
            (0..fanout).map(|_| ChunkBuilder::with_clock(mode, clock)).collect();
        let mut out = Vec::new();
        let flush_all = |builders: &mut Vec<ChunkBuilder<i64>>, out: &mut Vec<Ev>| {
            for (dst, b) in builders.iter_mut().enumerate() {
                out.extend(b.take().map(|c| chunk_ev(dst, &c)));
            }
        };
        for e in elements {
            match *e {
                StreamElement::Record { ts, value: (key, v) } => {
                    let dst = partition_of(key, fanout);
                    out.extend(builders[dst].push(ts, v).map(|c| chunk_ev(dst, &c)));
                }
                StreamElement::Watermark(wm) => {
                    flush_all(&mut builders, &mut out);
                    out.push(Ev::Wm(wm));
                }
                StreamElement::Punctuation(ts) => {
                    flush_all(&mut builders, &mut out);
                    out.push(Ev::Punct(ts));
                }
            }
        }
        flush_all(&mut builders, &mut out);
        out
    }

    /// What each destination sees, chunk boundaries erased: its records in
    /// order, with every broadcast at its place between them.
    fn per_destination(events: &[Ev], fanout: usize) -> Vec<Vec<(u8, Time, i64)>> {
        let mut seen = vec![Vec::new(); fanout];
        for e in events {
            match e {
                Ev::Chunk(dst, times, values) => {
                    seen[*dst].extend(times.iter().zip(values).map(|(&t, &v)| (0, t, v)));
                }
                Ev::Wm(wm) => seen.iter_mut().for_each(|s| s.push((1, *wm, 0))),
                Ev::Punct(ts) => seen.iter_mut().for_each(|s| s.push((2, *ts, 0))),
            }
        }
        seen
    }

    fn sizes(events: &[Ev]) -> Vec<usize> {
        events
            .iter()
            .filter_map(|e| match e {
                Ev::Chunk(_, times, _) => Some(times.len()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn gather_flushes_at_target_and_ships_the_partial_tail() {
        let elements: Vec<Keyed> = (0..10).map(|i| rec(i, 0, i)).collect();
        let events = gathered(&elements, Batching::Fixed(4), 1, frozen);
        assert_eq!(sizes(&events), vec![4, 4, 2]);
        assert_eq!(events[2], Ev::Chunk(0, vec![8, 9], vec![8, 9]));
        // Nothing at all comes out of an empty stream.
        assert!(gathered(&[], Batching::Fixed(4), 1, frozen).is_empty());
    }

    #[test]
    fn gather_deadline_flush_comes_within_one_stride() {
        let _clock = CLOCK_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        const STRIDE: usize = ChunkBuilder::<i64>::CLOCK_CHECK_STRIDE;
        let late = STRIDE as i64 + 36;
        let mode = Batching::Adaptive { target: 1_000_000, max_delay: Duration::from_millis(5) };
        // The stream stalls past the deadline right before record `late`.
        let elements = (0..1_000i64).map(|i| {
            if i == late {
                advance(Duration::from_millis(6));
            }
            rec(i, 0, i)
        });
        let mut gather = Gather::new(elements, mode, 1, |kv| kv, partition_of);
        gather.builders[0].clock = fake_now;
        let Some(Gathered::Records(0, first)) = gather.next() else {
            panic!("the deadline must flush a chunk before the stream ends");
        };
        assert!(first.len() > late as usize, "records up to the next poll ride along");
        assert!(first.len() <= late as usize + STRIDE, "flushed {} records late", first.len());
    }

    #[test]
    fn gather_flushes_before_every_broadcast_and_ships_no_empty_chunk() {
        use StreamElement::{Punctuation as P, Watermark as W};
        let elements = [
            rec(1, 0, 1),
            rec(2, 0, 2),
            W(2),
            rec(3, 0, 3),
            P(4),
            P(5),
            W(5),
            rec(6, 0, 6),
            rec(7, 0, 7),
            W(7),
            W(8),
        ];
        for mode in [Batching::Fixed(100), Batching::default()] {
            let events = gathered(&elements, mode, 1, frozen);
            let expect = vec![
                Ev::Chunk(0, vec![1, 2], vec![1, 2]),
                Ev::Wm(2),
                Ev::Chunk(0, vec![3], vec![3]),
                Ev::Punct(4),
                Ev::Punct(5),
                Ev::Wm(5),
                Ev::Chunk(0, vec![6, 7], vec![6, 7]),
                Ev::Wm(7),
                Ev::Wm(8),
            ];
            assert_eq!(events, expect, "{mode:?}");
        }
    }

    #[test]
    fn gather_routes_per_record_and_flushes_in_destination_order() {
        let by_key = |key: u64, n: usize| key as usize % n;
        let elements = [rec(1, 2, 10), rec(2, 0, 20), rec(3, 1, 30), rec(4, 0, 40), rec(5, 2, 50)];
        let stream = elements.into_iter().chain([StreamElement::Watermark(9)]);
        let mut gather = Gather::new(stream, Batching::Fixed(2), 3, |kv| kv, by_key);
        let mut events = Vec::new();
        while let Some(event) = gather.next() {
            events.push(ev(event));
        }
        // Key 0 fills its chunk first and ships on the spot, then key 2;
        // the watermark flushes what is left, destination 1 only.
        let expect = vec![
            Ev::Chunk(0, vec![2, 4], vec![20, 40]),
            Ev::Chunk(2, vec![1, 5], vec![10, 50]),
            Ev::Chunk(1, vec![3], vec![30]),
            Ev::Wm(9),
        ];
        assert_eq!(events, expect);
    }

    #[test]
    fn one_destination_never_calls_the_routing_function() {
        let elements: Vec<Keyed> = (0..100).map(|i| rec(i, i as u64, i)).collect();
        let unreachable = |_: u64, _: usize| -> usize { panic!("routed with one destination") };
        let mut gather = Gather::new(elements, Batching::Fixed(7), 1, |kv| kv, unreachable);
        let mut records = 0;
        while let Some(Gathered::Records(0, chunk)) = gather.next() {
            records += chunk.len();
        }
        assert_eq!(records, 100);
    }

    #[test]
    fn gather_reuses_the_buffers_handed_back() {
        let elements: Vec<Keyed> = (0..8).map(|i| rec(i, 0, i)).collect();
        let mut gather = Gather::new(elements, Batching::Fixed(2), 1, |kv| kv, partition_of);
        let spares = gather.open_returns(4);
        let mut take = || match gather.next() {
            Some(Gathered::Records(0, chunk)) => chunk,
            _ => panic!("expected a chunk"),
        };
        // Chunk A ships (the builder refills with a fresh B); A comes back
        // emptied; B ships and the builder refills with A; A ships again.
        let a = take();
        let a_buffer = a.times().as_ptr();
        give_back(&spares, a, 0);
        let b = take();
        assert_ne!(b.times().as_ptr(), a_buffer);
        let a_again = take();
        assert_eq!(a_again.times().as_ptr(), a_buffer, "the returned buffer carries chunk 3");
        assert_eq!(a_again.times(), &[4, 5], "and only chunk 3's records");
        // Nothing waiting: the next refill allocates, and a full return
        // channel just frees what it is offered.
        for _ in 0..6 {
            give_back(&spares, RecordChunk::with_capacity(2), 0);
        }
        assert_eq!(take().times(), &[6, 7]);
    }

    fn elements_strategy() -> impl Strategy<Value = Vec<Keyed>> {
        // Mostly records over a handful of keys, with watermarks and
        // punctuations (also back to back) in between.
        let element = prop_oneof![
            (0i64..1_000, 0u64..7, -50i64..50).prop_map(|(ts, key, v)| rec(ts, key, v)),
            (0i64..1_000, 0u64..7, -50i64..50).prop_map(|(ts, key, v)| rec(ts, key, v)),
            (0i64..1_000, 0u64..7, -50i64..50).prop_map(|(ts, key, v)| rec(ts, key, v)),
            (0i64..1_000).prop_map(StreamElement::Watermark),
            (0i64..1_000).prop_map(StreamElement::Punctuation),
        ];
        prop::collection::vec(element, 0..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever the gather stage hands out concatenates, per
        /// destination, to exactly what the per-record loop produced; when
        /// the clock cannot interfere the two event sequences are equal
        /// chunk for chunk.
        #[test]
        fn gather_matches_the_per_record_loop(
            elements in elements_strategy(),
            mode in prop_oneof![
                Just(Batching::Fixed(1)),
                Just(Batching::Fixed(7)),
                Just(Batching::Fixed(4096)),
                Just(Batching::Adaptive { target: 16, max_delay: Duration::from_millis(1) }),
                Just(Batching::default()),
            ],
            fanout in prop_oneof![Just(1usize), Just(3usize)],
        ) {
            let old = per_record_loop(&elements, mode, fanout, frozen);
            let new = gathered(&elements, mode, fanout, frozen);
            prop_assert_eq!(&new, &old, "frozen clock: same chunks, same order");
            prop_assert!(sizes(&new).iter().all(|&n| n > 0 && n <= mode.chunk_target()));

            // A clock that runs down deadlines mid-chunk moves the chunk
            // boundaries (the two loops read it at different moments) but
            // not what any destination receives.
            TICKS.with(|t| t.set(0));
            let old = per_record_loop(&elements, mode, fanout, ticking);
            TICKS.with(|t| t.set(0));
            let new = gathered(&elements, mode, fanout, ticking);
            prop_assert_eq!(per_destination(&new, fanout), per_destination(&old, fanout));
            prop_assert!(sizes(&new).iter().all(|&n| n > 0 && n <= mode.chunk_target()));
        }
    }
}
