//! Offline stand-in for the `crossbeam` crate, plus the schedulable
//! concurrency runtime used by `cargo sched`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset it uses: `channel::bounded` with cloneable senders
//! and an iterating receiver, natively backed by
//! `std::sync::mpsc::sync_channel` (same bounded-capacity backpressure
//! semantics) — plus one addition of its own, `Receiver::bursts`, a
//! blocking iterator that takes what is queued in one go.
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
    fn bursts_take_what_is_queued_up_to_the_cap_and_keep_the_order() {
        let (tx, rx) = bounded(8);
        for i in 0..7 {
            tx.send(i).unwrap();
        }
        let mut bursts = rx.bursts(3);
        // The first `next` takes 0, 1, 2 off the channel in one go: only
        // four messages are left behind for anyone looking at the channel.
        assert_eq!(bursts.next(), Some(0));
        assert_eq!(rx.try_iter().count(), 4, "3..=6 were still queued, and are now consumed");
        assert_eq!(bursts.next(), Some(1));
        assert_eq!(bursts.next(), Some(2));
        // A burst blocks for its first message only and ends with the
        // senders.
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(bursts.next(), Some(9));
        assert_eq!(bursts.next(), None);
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
}
