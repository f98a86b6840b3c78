//! Bounded multi-producer single-consumer channels in two flavors.
//!
//! [`Sender`]/[`Receiver`] are thin enums over a native
//! `std::sync::mpsc::sync_channel` pair (the default — one predictable
//! branch per operation, no locks beyond mpsc's own) and a
//! scheduler-controlled queue (built only by [`crate::runtime::bounded`]
//! inside [`crate::sched::run_controlled`], where every operation is a
//! deterministic yield point). The two flavors have identical blocking,
//! capacity, and disconnect semantics.

use std::sync::mpsc;

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

pub(crate) enum SenderRepr<T> {
    Native(mpsc::SyncSender<T>),
    Sched(sched::SchedSender<T>),
}

/// Sending half of a bounded channel; cloneable for fan-in.
pub struct Sender<T>(pub(crate) SenderRepr<T>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match &self.0 {
            SenderRepr::Native(tx) => Sender(SenderRepr::Native(tx.clone())),
            SenderRepr::Sched(tx) => Sender(SenderRepr::Sched(tx.clone())),
        }
    }
}

impl<T> Sender<T> {
    /// Blocks while the channel is at capacity (backpressure).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.0 {
            SenderRepr::Native(tx) => tx.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
            SenderRepr::Sched(tx) => tx.send(value).map_err(SendError),
        }
    }

    /// Non-blocking send: fails immediately with [`TrySendError::Full`]
    /// when the channel is at capacity instead of waiting for space.
    /// Lets producers detect backpressure (and measure the queue wait
    /// of the blocking fallback).
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        match &self.0 {
            SenderRepr::Native(tx) => tx.try_send(value).map_err(|e| match e {
                mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
            }),
            SenderRepr::Sched(tx) => tx.try_send(value),
        }
    }
}

pub(crate) enum ReceiverRepr<T> {
    Native(mpsc::Receiver<T>),
    Sched(sched::SchedReceiver<T>),
}

/// Receiving half of a bounded channel.
pub struct Receiver<T>(pub(crate) ReceiverRepr<T>);

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.0 {
            ReceiverRepr::Native(rx) => rx.recv().map_err(|_| RecvError),
            ReceiverRepr::Sched(rx) => rx.recv().map_err(|()| RecvError),
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.0 {
            ReceiverRepr::Native(rx) => rx.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            }),
            ReceiverRepr::Sched(rx) => rx.try_recv(),
        }
    }

    /// Blocking iterator that ends when all senders are dropped.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self)
    }

    /// Blocking iterator that receives in bursts: when it has nothing
    /// left it blocks for one message and takes along whatever else is
    /// already queued, up to `max` messages in all; it ends when all
    /// senders are dropped. A consumer that is slower than its producer
    /// finds the channel full and the producer parked on it, and every
    /// single `recv` then pays the wake-up of that producer (a futex
    /// syscall) only for it to park again one message later; a burst pays
    /// it once. At most `max` messages sit outside the channel's bound.
    /// Under the sched runtime a burst is one yield point, like
    /// [`try_iter`](Receiver::try_iter).
    pub fn bursts(&self, max: usize) -> Bursts<'_, T> {
        Bursts { rx: self, max: max.max(1), taken: std::collections::VecDeque::new() }
    }

    /// Non-blocking iterator: yields every message already queued and
    /// stops at the first would-block, without waiting. Consumers use
    /// it to drain a burst after one blocking `recv` instead of
    /// busy-polling `try_recv`. Under the sched runtime the drain is a
    /// single yield point (the whole burst is one atomic step), matching
    /// the native behavior of observing one queue snapshot.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        match &self.0 {
            ReceiverRepr::Native(rx) => TryIter(TryIterRepr::Native(rx.try_iter())),
            ReceiverRepr::Sched(rx) => TryIter(TryIterRepr::Sched(rx.drain().into_iter())),
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

/// Blocking burst iterator over received messages (see
/// [`Receiver::bursts`]).
pub struct Bursts<'a, T> {
    rx: &'a Receiver<T>,
    max: usize,
    /// The rest of the burst last received.
    taken: std::collections::VecDeque<T>,
}

impl<T> Iterator for Bursts<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.taken.is_empty() {
            match &self.rx.0 {
                ReceiverRepr::Native(rx) => {
                    self.taken.push_back(rx.recv().ok()?);
                    self.taken.extend(rx.try_iter().take(self.max - 1));
                }
                ReceiverRepr::Sched(rx) => self.taken = rx.recv_burst(self.max).ok()?,
            }
        }
        self.taken.pop_front()
    }
}

enum TryIterRepr<'a, T> {
    Native(mpsc::TryIter<'a, T>),
    Sched(std::collections::vec_deque::IntoIter<T>),
}

/// Non-blocking iterator over queued messages (see
/// [`Receiver::try_iter`]).
pub struct TryIter<'a, T>(TryIterRepr<'a, T>);

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            TryIterRepr::Native(it) => it.next(),
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
    (Sender(SenderRepr::Native(tx)), Receiver(ReceiverRepr::Native(rx)))
}
