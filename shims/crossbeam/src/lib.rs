//! Offline stand-in for the `crossbeam` crate, plus the schedulable
//! concurrency runtime used by `cargo sched`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset it uses: `channel::bounded` with cloneable senders
//! and an iterating receiver, natively backed by
//! `std::sync::mpsc::sync_channel` (same bounded-capacity backpressure
//! semantics, except that a sender blocked on a full channel resumes
//! when the channel is half empty instead of at every receive — see
//! [`channel`]).
//!
//! On top of that, [`runtime`] is the single construction surface for
//! all concurrency in the workspace: `runtime::bounded` +
//! `runtime::scope` behave exactly like the native channel/thread pair
//! in normal builds, but inside [`sched::run_controlled`] they produce
//! cooperatively scheduled tasks whose every channel operation is a
//! yield point for a deterministic [`sched::Strategy`]. That is what
//! lets `gss-analysis` explore real interleavings of the stream
//! protocols instead of trusting a hand-written model.

pub mod channel;
pub mod runtime;
pub mod sched;

#[cfg(test)]
mod tests {
    use super::channel::bounded;

    #[test]
    fn send_recv_iter() {
        let (tx, rx) = bounded(4);
        let t = std::thread::spawn(move || {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = rx.iter().collect();
        t.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded::<i32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        use super::channel::TrySendError;
        let (tx, rx) = bounded::<i32>(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        // At capacity: the value comes back without blocking.
        match tx.try_send(3) {
            Err(e) if e.is_full() => assert_eq!(e.into_inner(), 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(tx.try_send(3).is_ok(), "space freed by recv");
        drop(rx);
        match tx.try_send(4) {
            Err(TrySendError::Disconnected(v)) => assert_eq!(v, 4),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn try_iter_drains_without_blocking() {
        let (tx, rx) = bounded(8);
        assert_eq!(rx.try_iter().count(), 0, "empty channel yields nothing");
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        // Drains exactly what is queued, then returns instead of blocking
        // even though a sender is still alive.
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.try_iter().count(), 0);
        tx.send(9).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn clone_senders_fan_in() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop((tx, tx2));
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    /// Spawns a sender that blocks on the full channel `tx` belongs to
    /// and counts the messages it got through.
    fn blocked_sender(
        tx: &super::channel::Sender<i32>,
        messages: std::ops::Range<i32>,
    ) -> (std::thread::JoinHandle<bool>, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
        let sent = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (tx, count) = (tx.clone(), sent.clone());
        let handle = std::thread::spawn(move || {
            messages.into_iter().all(|m| {
                let ok = tx.send(m).is_ok();
                count.fetch_add(usize::from(ok), std::sync::atomic::Ordering::SeqCst);
                ok
            })
        });
        (handle, sent)
    }

    /// Waits until `n` senders of `tx`'s channel are asleep on its gate.
    fn asleep(tx: &super::channel::Sender<i32>, n: usize) {
        let super::channel::SenderRepr::Native(_, gate) = &tx.0 else {
            unreachable!("native channel");
        };
        while gate.sleepers() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_blocked_sender_resumes_when_the_channel_is_half_empty() {
        let (tx, rx) = bounded(8);
        (0..8).for_each(|i| tx.send(i).unwrap());
        let (sender, sent) = blocked_sender(&tx, 8..12);
        let sent = || sent.load(std::sync::atomic::Ordering::SeqCst);
        asleep(&tx, 1);
        // Three receives leave five queued, more than half of eight: the
        // sender stays asleep however long it is given.
        assert_eq!((rx.recv(), rx.recv(), rx.recv()), (Ok(0), Ok(1), Ok(2)));
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(sent(), 0, "woken above half");
        // The fourth takes the channel to half: the sender wakes and finds
        // room for all four of its messages without blocking again.
        assert_eq!(rx.recv(), Ok(3));
        assert!(sender.join().unwrap());
        assert_eq!(sent(), 4);
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), (4..12).collect::<Vec<_>>());
    }

    #[test]
    fn small_channels_resume_at_the_next_free_slot() {
        for cap in [1, 2] {
            let (tx, rx) = bounded(cap);
            (0..cap as i32).for_each(|i| tx.send(i).unwrap());
            let (sender, _) = blocked_sender(&tx, 7..8);
            asleep(&tx, 1);
            assert_eq!(rx.recv(), Ok(0));
            assert!(sender.join().unwrap(), "capacity {cap}: one free slot must do");
        }
    }

    #[test]
    fn every_sleeping_sender_wakes_and_a_dropped_receiver_wakes_them_too() {
        let (tx, rx) = bounded(4);
        (0..4).for_each(|i| tx.send(i).unwrap());
        let (a, _) = blocked_sender(&tx, 10..11);
        let (b, _) = blocked_sender(&tx, 20..21);
        asleep(&tx, 2);
        assert_eq!((rx.recv(), rx.recv()), (Ok(0), Ok(1)));
        assert!(a.join().unwrap() && b.join().unwrap());
        // Full again (2, 3 and the two new messages); this sender sleeps
        // until the receiver goes away, and then fails.
        let (c, _) = blocked_sender(&tx, 30..31);
        asleep(&tx, 1);
        drop(rx);
        assert!(!c.join().unwrap());
    }
}
