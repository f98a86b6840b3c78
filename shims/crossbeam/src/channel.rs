//! Bounded multi-producer single-consumer channels in two flavors.
//!
//! [`Sender`]/[`Receiver`] are thin enums over a native
//! `std::sync::mpsc::sync_channel` pair (the default — one predictable
//! branch and one counter update per operation, no lock taken unless a
//! sender is asleep) and a scheduler-controlled queue (built only by
//! [`crate::runtime::bounded`] inside [`crate::sched::run_controlled`],
//! where every operation is a deterministic yield point). The two flavors
//! have identical capacity and disconnect semantics; they differ in when
//! a blocked sender resumes (next paragraph), which the sched flavor
//! covers as one of its schedules.
//!
//! ## A blocked sender resumes at half-empty
//!
//! `mpsc` wakes a sender parked on a full channel at every receive. A
//! producer that outruns its consumer then pushes one message and parks
//! again, and the *consumer* — the slower thread, the one that bounds
//! throughput — pays a futex wake-up per message (3–5 µs on a virtual
//! machine). A native [`Sender::send`] that finds the channel full
//! therefore sleeps on the channel's `Gate` until the receiver has
//! drained it to half its capacity: one wake-up per half channel, and the
//! sender finds room for that many messages when it comes back. The
//! consumer still has half a channel queued at that point, so it never
//! runs dry waiting for the sender to wake. Capacities 1 and 2 behave as
//! before (half a channel is "the next free slot").

use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use crate::sched;

/// Error returned when the receiving side has hung up.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned when the sending side has hung up.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now; senders are still alive.
    Empty,
    /// Nothing queued and every sender has hung up.
    Disconnected,
}

/// Error returned by [`Sender::try_send`]: the value comes back so the
/// caller can retry (e.g. with a blocking [`Sender::send`]).
#[derive(PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// The receiving side has hung up.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Recovers the value that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }

    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }

    pub fn is_disconnected(&self) -> bool {
        matches!(self, TrySendError::Disconnected(_))
    }
}

impl<T> std::fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "Full(..)"),
            TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
        }
    }
}

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "sending on a full channel"),
            TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
        }
    }
}

/// Where the senders of a native channel that found it full sleep until
/// the receiver has drained it to half (module docs).
pub(crate) struct Gate {
    half: isize,
    /// Messages queued. Each side counts after its channel operation, so
    /// the count may trail the queue by the operations in flight (and dip
    /// below zero); it only decides when sleepers are woken, never
    /// whether a message is delivered.
    queued: AtomicIsize,
    sleepers: AtomicUsize,
    /// Counts the wake-ups given; a sleeper waits for the next one.
    wakes: AtomicUsize,
    receiver_gone: AtomicBool,
    /// Guards no data, only the condition variable's hand-over: a
    /// poisoned lock is taken as it is.
    lock: Mutex<()>,
    drained: Condvar,
}

impl Gate {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(Gate {
            half: (cap / 2) as isize,
            queued: AtomicIsize::new(0),
            sleepers: AtomicUsize::new(0),
            wakes: AtomicUsize::new(0),
            receiver_gone: AtomicBool::new(false),
            lock: Mutex::new(()),
            drained: Condvar::new(),
        })
    }

    fn try_send<T>(&self, tx: &mpsc::SyncSender<T>, value: T) -> Result<(), mpsc::TrySendError<T>> {
        tx.try_send(value)?;
        self.queued.fetch_add(1, SeqCst);
        Ok(())
    }

    /// Sender side, after a `try_send` that found the channel full:
    /// sleeps through to the next wake-up unless the channel is at half
    /// already. The sleeper registers before it looks at the count and
    /// the receiver counts before it looks for sleepers (both `SeqCst`),
    /// so one of the two always sees the other: no wake-up is lost. Every
    /// sleeper a wake-up finds goes on to the blocking `mpsc` send, which
    /// sorts out who gets the room.
    fn sleep_until_half_empty(&self) {
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_add(1, SeqCst);
        let seen = self.wakes.load(SeqCst);
        while self.queued.load(SeqCst) > self.half
            && self.wakes.load(SeqCst) == seen
            && !self.receiver_gone.load(SeqCst)
        {
            guard = self.drained.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(SeqCst)
    }

    /// Receiver side, after every message taken.
    fn took_one(&self) {
        if self.queued.fetch_sub(1, SeqCst) - 1 <= self.half && self.sleepers.load(SeqCst) > 0 {
            self.wake();
        }
    }

    fn wake(&self) {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.wakes.fetch_add(1, SeqCst);
        self.drained.notify_all();
    }
}

pub(crate) enum SenderRepr<T> {
    Native(mpsc::SyncSender<T>, Arc<Gate>),
    Sched(sched::SchedSender<T>),
}

/// Sending half of a bounded channel; cloneable for fan-in.
pub struct Sender<T>(pub(crate) SenderRepr<T>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match &self.0 {
            SenderRepr::Native(tx, gate) => Sender(SenderRepr::Native(tx.clone(), gate.clone())),
            SenderRepr::Sched(tx) => Sender(SenderRepr::Sched(tx.clone())),
        }
    }
}

impl<T> Sender<T> {
    /// Blocks while the channel is at capacity (backpressure); a native
    /// sender that had to block resumes once the channel is half empty.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.0 {
            SenderRepr::Native(tx, gate) => {
                let value = match gate.try_send(tx, value) {
                    Ok(()) => return Ok(()),
                    Err(mpsc::TrySendError::Disconnected(v)) => return Err(SendError(v)),
                    Err(mpsc::TrySendError::Full(v)) => v,
                };
                gate.sleep_until_half_empty();
                tx.send(value).map_err(|mpsc::SendError(v)| SendError(v))?;
                gate.queued.fetch_add(1, SeqCst);
                Ok(())
            }
            SenderRepr::Sched(tx) => tx.send(value).map_err(SendError),
        }
    }

    /// Non-blocking send: fails immediately with [`TrySendError::Full`]
    /// when the channel is at capacity instead of waiting for space.
    /// Lets producers detect backpressure (and measure the queue wait
    /// of the blocking fallback).
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        match &self.0 {
            SenderRepr::Native(tx, gate) => gate.try_send(tx, value).map_err(|e| match e {
                mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
            }),
            SenderRepr::Sched(tx) => tx.try_send(value),
        }
    }
}

pub(crate) enum ReceiverRepr<T> {
    Native(mpsc::Receiver<T>, Arc<Gate>),
    Sched(sched::SchedReceiver<T>),
}

/// Receiving half of a bounded channel.
pub struct Receiver<T>(pub(crate) ReceiverRepr<T>);

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.0 {
            ReceiverRepr::Native(rx, gate) => {
                let value = rx.recv().map_err(|_| RecvError)?;
                gate.took_one();
                Ok(value)
            }
            ReceiverRepr::Sched(rx) => rx.recv().map_err(|()| RecvError),
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.0 {
            ReceiverRepr::Native(rx, gate) => match rx.try_recv() {
                Ok(value) => {
                    gate.took_one();
                    Ok(value)
                }
                Err(mpsc::TryRecvError::Empty) => Err(TryRecvError::Empty),
                Err(mpsc::TryRecvError::Disconnected) => Err(TryRecvError::Disconnected),
            },
            ReceiverRepr::Sched(rx) => rx.try_recv(),
        }
    }

    /// Blocking iterator that ends when all senders are dropped.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self)
    }

    /// Non-blocking iterator: yields every message already queued and
    /// stops at the first would-block, without waiting. Consumers use
    /// it to drain a burst after one blocking `recv` instead of
    /// busy-polling `try_recv`. Under the sched runtime the drain is a
    /// single yield point (the whole burst is one atomic step), matching
    /// the native behavior of observing one queue snapshot.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        match &self.0 {
            ReceiverRepr::Native(..) => TryIter(TryIterRepr::Native(self)),
            ReceiverRepr::Sched(rx) => TryIter(TryIterRepr::Sched(rx.drain().into_iter())),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if let ReceiverRepr::Native(_, gate) = &self.0 {
            gate.receiver_gone.store(true, SeqCst);
            gate.wake();
        }
    }
}

/// Blocking iterator over received messages (see [`Receiver::iter`]).
pub struct Iter<'a, T>(&'a Receiver<T>);

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

enum TryIterRepr<'a, T> {
    Native(&'a Receiver<T>),
    Sched(std::collections::vec_deque::IntoIter<T>),
}

/// Non-blocking iterator over queued messages (see
/// [`Receiver::try_iter`]).
pub struct TryIter<'a, T>(TryIterRepr<'a, T>);

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            TryIterRepr::Native(rx) => rx.try_recv().ok(),
            TryIterRepr::Sched(it) => it.next(),
        }
    }
}

/// Owning blocking iterator; ends when all senders are dropped.
pub struct IntoIter<T>(Receiver<T>);

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        IntoIter(self)
    }
}

/// Creates a native bounded channel with the given capacity. A capacity
/// of 0 makes every send rendezvous with a receive.
///
/// Production code should construct channels through
/// [`crate::runtime::bounded`] instead, which picks the flavor from the
/// ambient runtime (the `raw-channel` lint enforces this).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(cap);
    let gate = Gate::new(cap);
    (Sender(SenderRepr::Native(tx, gate.clone())), Receiver(ReceiverRepr::Native(rx, gate)))
}
