//! The workspace's single concurrency surface: bounded channels plus
//! scoped threads, in two flavors.
//!
//! Production code constructs **all** of its concurrency here (the
//! `raw-channel` lint forbids raw `mpsc`/`thread::spawn`/
//! `thread::scope` elsewhere):
//!
//! * **Native** (default): [`bounded`] is `mpsc::sync_channel`,
//!   [`scope`] is `std::thread::scope`, [`probe`] is a no-op. The only
//!   cost over calling std directly is one enum-variant branch per
//!   channel operation and one thread-local read at
//!   channel/scope/probe construction.
//! * **Scheduled**: inside [`crate::sched::run_controlled`] the same
//!   calls produce cooperatively scheduled tasks and channels whose
//!   every operation yields to a deterministic
//!   [`Strategy`](crate::sched::Strategy), and [`probe`] records
//!   oracle events. The protocol code cannot tell the difference —
//!   which is the point: `cargo sched` explores the *real*
//!   implementation.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::channel;
use crate::sched::{self, ProbeEvent, Sched, TaskId};

pub use crate::channel::{Receiver, RecvError, SendError, Sender, TryRecvError, TrySendError};

/// Creates a bounded channel of the ambient flavor: native `mpsc` on a
/// plain thread, a scheduler-controlled queue inside a controlled run.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    match sched::current() {
        None => channel::bounded(cap),
        Some((sc, _)) => {
            let (tx, rx) = sched::sched_bounded(&sc, cap);
            (Sender(channel::SenderRepr::Sched(tx)), Receiver(channel::ReceiverRepr::Sched(rx)))
        }
    }
}

/// Records an instrumentation event for the sched oracle. A no-op (one
/// thread-local read) outside a controlled run; protocol hot paths call
/// it at most once per message, never per tuple.
pub fn probe(event: ProbeEvent) {
    if let Some((sc, me)) = sched::current() {
        sc.record_probe(me, event);
    }
}

/// A scoped-spawn environment wrapping [`std::thread::scope`]. Spawned
/// closures may borrow from the enclosing scope exactly as with std.
pub struct Scope<'scope, 'env: 'scope> {
    std: &'scope std::thread::Scope<'scope, 'env>,
    sc: Option<Arc<Sched>>,
    spawned: RefCell<Vec<TaskId>>,
}

/// Handle to a scoped thread/task; [`join`](JoinHandle::join) returns
/// the closure's result or its panic payload, as with std.
pub struct JoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
    task: Option<(Arc<Sched>, TaskId)>,
}

impl<T> JoinHandle<'_, T> {
    pub fn join(self) -> std::thread::Result<T> {
        if let Some((sc, target)) = &self.task {
            if let Some((_, me)) = sched::current() {
                sc.join_task(me, *target);
            }
        }
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a thread (native) or a scheduled task (controlled run).
    /// Task ids follow spawn order, so a deterministic driver yields a
    /// deterministic task numbering.
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match &self.sc {
            None => JoinHandle { inner: self.std.spawn(f), task: None },
            Some(sc) => {
                let id = sc.register_task();
                self.spawned.borrow_mut().push(id);
                let sc2 = sc.clone();
                let inner = self.std.spawn(move || {
                    sc2.enter_task(id);
                    match catch_unwind(AssertUnwindSafe(f)) {
                        Ok(v) => {
                            sc2.finish_task(id, None);
                            v
                        }
                        Err(p) => {
                            sc2.finish_task(id, Some(sched::panic_message(&*p)));
                            resume_unwind(p)
                        }
                    }
                });
                JoinHandle { inner, task: Some((sc.clone(), id)) }
            }
        }
    }
}

/// Creates a scope for spawning scoped threads/tasks; all of them are
/// joined (at both the scheduler and OS level) before `scope` returns,
/// exactly like [`std::thread::scope`].
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let ctx = sched::current();
    std::thread::scope(move |s| {
        let wrapper = Scope {
            std: s,
            sc: ctx.as_ref().map(|(sc, _)| sc.clone()),
            spawned: RefCell::new(Vec::new()),
        };
        match ctx {
            None => f(&wrapper),
            Some((sc, me)) => {
                // Catch a panicking scope body *before* std's implicit
                // OS-level joins: recording the failure releases every
                // task still parked on the virtual scheduler so those
                // joins terminate.
                let out = catch_unwind(AssertUnwindSafe(|| f(&wrapper)));
                match out {
                    Ok(v) => {
                        // Scheduler-level counterpart of std's implicit
                        // join: tasks not explicitly joined must finish
                        // before the OS join would block the token.
                        let ids = wrapper.spawned.borrow().clone();
                        for id in ids {
                            sc.join_task(me, id);
                        }
                        v
                    }
                    Err(p) => {
                        sc.fail_run(sched::panic_message(&*p));
                        resume_unwind(p)
                    }
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_controlled, Strategy};

    /// Always continues the current task; first runnable otherwise.
    struct Baseline;
    impl Strategy for Baseline {
        fn pick(&mut self, runnable: &[TaskId], current: Option<TaskId>) -> TaskId {
            current.unwrap_or(runnable[0])
        }
    }

    /// Always picks the highest task id (maximally adversarial to
    /// spawn order).
    struct PreferLast;
    impl Strategy for PreferLast {
        fn pick(&mut self, runnable: &[TaskId], _current: Option<TaskId>) -> TaskId {
            *runnable.last().unwrap()
        }
    }

    fn pingpong(n: i32) -> i32 {
        scope(|s| {
            let (tx, rx) = bounded::<i32>(2);
            let h = s.spawn(move || rx.iter().sum::<i32>());
            for i in 0..n {
                tx.send(i).unwrap();
            }
            drop(tx);
            h.join().unwrap()
        })
    }

    #[test]
    fn controlled_run_matches_native() {
        let native = pingpong(5);
        let run = run_controlled(Box::new(Baseline), || pingpong(5));
        assert_eq!(run.result.as_ref().copied().unwrap(), native);
        assert!(run.yields > 0, "channel ops must hit yield points");
        let run2 = run_controlled(Box::new(PreferLast), || pingpong(5));
        assert_eq!(run2.result.unwrap(), native, "result is schedule-independent");
    }

    #[test]
    fn identical_strategies_replay_identical_branches() {
        let a = run_controlled(Box::new(PreferLast), || pingpong(4));
        let b = run_controlled(Box::new(PreferLast), || pingpong(4));
        assert_eq!(a.branches, b.branches, "same strategy, same schedule");
        assert_eq!(a.yields, b.yields);
    }

    #[test]
    fn task_panic_is_reported_not_hung() {
        let run = run_controlled(Box::new(Baseline), || {
            scope(|s| {
                let (tx, rx) = bounded::<i32>(1);
                let h = s.spawn(move || {
                    let _ = rx.recv();
                    panic!("worker exploded");
                });
                tx.send(1).unwrap();
                // The panic tears the run down; join surfaces it.
                let _ = h.join();
            })
        });
        let err = run.result.expect_err("panic must fail the run");
        assert!(err.contains("worker exploded"), "got: {err}");
    }

    #[test]
    fn deadlock_is_detected() {
        let run = run_controlled(Box::new(Baseline), || {
            scope(|s| {
                // Two tasks each waiting on a channel nobody sends to,
                // while the root joins them: everyone blocks.
                let (_tx1, rx1) = bounded::<i32>(1);
                let (_tx2, rx2) = bounded::<i32>(1);
                let a = s.spawn(move || rx1.recv());
                let b = s.spawn(move || rx2.recv());
                let _ = a.join();
                let _ = b.join();
            })
        });
        let err = run.result.expect_err("deadlock must fail the run");
        assert!(err.contains("deadlock"), "got: {err}");
    }

    #[test]
    fn probes_record_in_execution_order() {
        let run = run_controlled(Box::new(Baseline), || {
            probe(ProbeEvent::Shipped { src: 3, items: 7 });
            probe(ProbeEvent::Barrier { wm: 10, acks: 2 });
        });
        assert!(run.result.is_ok());
        let events: Vec<_> = run.probes.iter().map(|p| p.event).collect();
        assert_eq!(
            events,
            vec![ProbeEvent::Shipped { src: 3, items: 7 }, ProbeEvent::Barrier { wm: 10, acks: 2 }]
        );
    }

    #[test]
    fn probe_is_noop_outside_controlled_runs() {
        probe(ProbeEvent::Released { items: 1 });
    }

    #[test]
    fn backpressure_blocks_and_resumes_under_sched() {
        // Capacity 1 forces the sender to park; the receiver must wake
        // it and the run must still drain everything.
        let run = run_controlled(Box::new(PreferLast), || {
            scope(|s| {
                let (tx, rx) = bounded::<usize>(1);
                let h = s.spawn(move || rx.iter().collect::<Vec<_>>());
                for i in 0..6 {
                    tx.send(i).unwrap();
                }
                drop(tx);
                h.join().unwrap()
            })
        });
        assert_eq!(run.result.unwrap(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn try_send_and_try_iter_under_sched() {
        let run = run_controlled(Box::new(Baseline), || {
            scope(|s| {
                let (tx, rx) = bounded::<i32>(2);
                assert!(tx.try_send(1).is_ok());
                assert!(tx.try_send(2).is_ok());
                assert!(tx.try_send(3).unwrap_err().is_full());
                let h = s.spawn(move || {
                    let first = rx.recv().unwrap();
                    let rest: Vec<i32> = rx.try_iter().collect();
                    (first, rest)
                });
                let (first, rest) = h.join().unwrap();
                assert_eq!(first, 1);
                assert_eq!(rest, vec![2]);
                drop(tx);
            })
        });
        assert!(run.result.is_ok());
    }
}
