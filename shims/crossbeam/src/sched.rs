//! A deterministic, token-passing cooperative scheduler for exploring
//! interleavings of the real protocol code.
//!
//! Inside [`run_controlled`] every task created by
//! [`crate::runtime::scope`] runs on its own OS thread, but exactly one
//! task — the token holder — makes progress at a time. Every channel
//! operation ([`crate::runtime::bounded`] endpoints) is a *yield point*:
//! the running task offers the token back, and a [`Strategy`] picks
//! which runnable task continues. Between two yield points a task
//! executes deterministic, single-threaded Rust, so the entire
//! execution is a pure function of the strategy's choice sequence —
//! replaying the same choices replays the same run, which is what lets
//! `gss-analysis` enumerate schedules (DFS) or sample them (PCT) and
//! check invariants on each one.
//!
//! ## Blocking, teardown, and failure
//!
//! A task that would block (send on a full channel, recv on an empty
//! one, join on a live task) parks itself on the relevant wait list and
//! hands the token to another runnable task; the waker marks it
//! runnable again. If no task is runnable and at least one is blocked,
//! the run **deadlocked** — that is recorded as a failure. On any
//! failure (deadlock or a task panic) the token discipline switches
//! off: every parked task wakes, every subsequent channel operation
//! reports disconnection, and the protocol code's own "peer hung up"
//! panics tear the remaining tasks down so the OS threads join
//! promptly. The *first* recorded failure is the verdict for the run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::channel::{TryRecvError, TrySendError};

/// Dense task identifier; task 0 is the root (the closure passed to
/// [`run_controlled`]), later ids follow spawn order, which is
/// deterministic for a deterministic root.
pub type TaskId = usize;

/// Instrumentation event recorded by protocol code through
/// [`crate::runtime::probe`]. Free (a no-op) outside the scheduler;
/// inside, events accumulate in execution order for the oracle.
///
/// `src` is a protocol-level producer index (worker or shard number),
/// not a [`TaskId`], so ship and apply sites can be matched without
/// knowing spawn order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A producer shipped a batch (partials or emissions) downstream.
    Shipped { src: usize, items: u64 },
    /// The merge stage consumed a batch originating at `src`.
    Applied { src: usize, items: u64 },
    /// The merge stage consumed a watermark ack from `src`.
    AckSeen { src: usize, wm: i64 },
    /// The merge stage closed an epoch at `wm` having seen `acks` acks.
    Barrier { wm: i64, acks: u64 },
    /// The merge stage released `items` staged emissions downstream.
    Released { items: u64 },
    /// Consumer `src` handed a chunk buffer back to the source still
    /// holding `items` records (0 in a correct run).
    Recycled { src: usize, items: u64 },
}

/// A probe event plus the task that recorded it.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub task: TaskId,
    pub event: ProbeEvent,
}

/// One recorded scheduling decision with more than one possible
/// outcome. Single-choice points are not recorded (and not offered to
/// the strategy): the choice sequence over these branches identifies
/// the schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Branch {
    /// Runnable tasks at the decision point, sorted ascending; always
    /// at least two.
    pub runnable: Vec<TaskId>,
    /// The task that held the token, if it is itself still runnable
    /// (picking anything else is a preemption).
    pub current: Option<TaskId>,
    /// The strategy's choice.
    pub picked: TaskId,
}

/// Schedule policy: picks the next task at every multi-choice yield
/// point. Implementations live in `gss-analysis` (replaying DFS, PCT);
/// the scheduler core only guarantees it calls `pick` deterministically
/// given a deterministic workload.
pub trait Strategy: Send {
    /// `runnable` is sorted ascending and has at least two entries;
    /// `current` is the token holder if still runnable. Must return a
    /// member of `runnable`.
    fn pick(&mut self, runnable: &[TaskId], current: Option<TaskId>) -> TaskId;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskState {
    Runnable,
    Blocked,
    Finished,
}

/// Control state of one channel. The typed payload queue lives with the
/// endpoints ([`SchedSender`]/[`SchedReceiver`]); `len` mirrors its
/// length and both are only touched under the core lock, in that order.
struct ChanCtl {
    len: usize,
    cap: usize,
    senders: usize,
    rx_alive: bool,
    wait_send: Vec<TaskId>,
    wait_recv: Vec<TaskId>,
}

struct Core {
    strategy: Box<dyn Strategy>,
    tasks: Vec<TaskState>,
    current: TaskId,
    chans: Vec<ChanCtl>,
    /// Per task: tasks blocked joining it.
    join_wait: Vec<Vec<TaskId>>,
    probes: Vec<Probe>,
    branches: Vec<Branch>,
    yields: u64,
    failed: bool,
    failure: Option<String>,
}

impl Core {
    fn fail(&mut self, msg: String) {
        if !self.failed {
            self.failed = true;
            self.failure = Some(msg);
        }
    }

    fn wake_all(&mut self, waiters: Vec<TaskId>) {
        for t in waiters {
            if self.tasks[t] == TaskState::Blocked {
                self.tasks[t] = TaskState::Runnable;
            }
        }
    }

    /// Hands the token to the next runnable task (recording the branch
    /// when there is a real choice). With nothing runnable the run is
    /// either complete or deadlocked.
    fn reschedule(&mut self) {
        let runnable: Vec<TaskId> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TaskState::Runnable)
            .map(|(i, _)| i)
            .collect();
        match runnable.len() {
            0 => {
                if self.tasks.contains(&TaskState::Blocked) {
                    self.fail("deadlock: every live task is blocked".to_string());
                }
            }
            1 => self.current = runnable[0],
            _ => {
                let current =
                    (self.tasks[self.current] == TaskState::Runnable).then_some(self.current);
                let picked = self.strategy.pick(&runnable, current);
                if !runnable.contains(&picked) {
                    self.fail(format!("strategy picked non-runnable task {picked}"));
                    return;
                }
                self.branches.push(Branch { runnable, current, picked });
                self.current = picked;
            }
        }
    }
}

/// The scheduler shared by every task of one controlled run.
pub struct Sched {
    core: Mutex<Core>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Sched>, TaskId)>> = const { RefCell::new(None) };
}

/// The ambient scheduler context of the calling thread, if the thread
/// is a task of a controlled run.
pub(crate) fn current() -> Option<(Arc<Sched>, TaskId)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(v: Option<(Arc<Sched>, TaskId)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

fn task_id() -> TaskId {
    CTX.with(|c| c.borrow().as_ref().map(|(_, id)| *id))
        .expect("sched channel endpoint used outside its controlled run")
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

impl Sched {
    fn new(strategy: Box<dyn Strategy>) -> Self {
        Sched {
            core: Mutex::new(Core {
                strategy,
                tasks: vec![TaskState::Runnable],
                current: 0,
                chans: Vec::new(),
                join_wait: vec![Vec::new()],
                probes: Vec::new(),
                branches: Vec::new(),
                yields: 0,
                failed: false,
                failure: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        // A poisoned lock means a task panicked mid-update; teardown
        // still needs the state, so keep going with the inner value.
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until the token returns to `me` (or the run fails).
    fn wait_token(&self, mut core: MutexGuard<'_, Core>, me: TaskId) {
        self.cv.notify_all();
        while core.current != me && !core.failed {
            core = self.cv.wait(core).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A yield point: offer the token back to the strategy. No-op after
    /// failure (token discipline is off during teardown).
    fn yield_now(&self, me: TaskId) {
        let mut core = self.lock();
        if core.failed {
            return;
        }
        core.yields += 1;
        core.reschedule();
        self.wait_token(core, me);
    }

    /// Parks the calling task — which must already sit on a wait list —
    /// hands the token on, and returns once re-runnable and picked (or
    /// the run failed).
    fn block_self(&self, mut core: MutexGuard<'_, Core>, me: TaskId) {
        core.tasks[me] = TaskState::Blocked;
        core.reschedule();
        self.wait_token(core, me);
    }

    pub(crate) fn register_task(&self) -> TaskId {
        let mut core = self.lock();
        core.tasks.push(TaskState::Runnable);
        core.join_wait.push(Vec::new());
        core.tasks.len() - 1
    }

    /// First thing a spawned task thread does: publish its context and
    /// wait to be scheduled for the first time.
    pub(crate) fn enter_task(self: &Arc<Self>, me: TaskId) {
        set_ctx(Some((self.clone(), me)));
        let core = self.lock();
        self.wait_token(core, me);
    }

    pub(crate) fn finish_task(&self, me: TaskId, panicked: Option<String>) {
        set_ctx(None);
        let mut core = self.lock();
        core.tasks[me] = TaskState::Finished;
        let waiters = std::mem::take(&mut core.join_wait[me]);
        core.wake_all(waiters);
        match panicked {
            Some(msg) => core.fail(format!("task {me} panicked: {msg}")),
            None => {
                if !core.failed {
                    core.reschedule();
                }
            }
        }
        drop(core);
        self.cv.notify_all();
    }

    /// Blocks the calling task until `target` finishes (scheduler-level
    /// join; the caller still performs the OS-level join afterwards).
    pub(crate) fn join_task(&self, me: TaskId, target: TaskId) {
        loop {
            let mut core = self.lock();
            if core.failed || core.tasks[target] == TaskState::Finished {
                return;
            }
            core.join_wait[target].push(me);
            self.block_self(core, me);
        }
    }

    /// Records a failure from outside task teardown (e.g. the root's
    /// scope closure panicking) and releases every parked task.
    pub(crate) fn fail_run(&self, msg: String) {
        let mut core = self.lock();
        core.fail(msg);
        drop(core);
        self.cv.notify_all();
    }

    pub(crate) fn record_probe(&self, task: TaskId, event: ProbeEvent) {
        let mut core = self.lock();
        core.probes.push(Probe { task, event });
    }

    fn register_chan(&self, cap: usize) -> usize {
        let mut core = self.lock();
        core.chans.push(ChanCtl {
            len: 0,
            cap,
            senders: 1,
            rx_alive: true,
            wait_send: Vec::new(),
            wait_recv: Vec::new(),
        });
        core.chans.len() - 1
    }
}

/// Creates a scheduler-flavored bounded channel pair. Capacity 0
/// (rendezvous) is not modeled; the workspace's protocols never use it.
pub(crate) fn sched_bounded<T>(sc: &Arc<Sched>, cap: usize) -> (SchedSender<T>, SchedReceiver<T>) {
    assert!(cap > 0, "rendezvous (capacity-0) channels are not supported under cargo sched");
    let id = sc.register_chan(cap);
    let q = Arc::new(Mutex::new(VecDeque::new()));
    (SchedSender { sc: sc.clone(), id, q: q.clone() }, SchedReceiver { sc: sc.clone(), id, q })
}

fn lock_q<T>(q: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    q.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scheduler-flavored sending endpoint (wrapped by
/// [`crate::channel::Sender`]).
pub struct SchedSender<T> {
    sc: Arc<Sched>,
    id: usize,
    q: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Clone for SchedSender<T> {
    fn clone(&self) -> Self {
        let mut core = self.sc.lock();
        core.chans[self.id].senders += 1;
        drop(core);
        SchedSender { sc: self.sc.clone(), id: self.id, q: self.q.clone() }
    }
}

impl<T> Drop for SchedSender<T> {
    fn drop(&mut self) {
        let mut core = self.sc.lock();
        core.chans[self.id].senders -= 1;
        if core.chans[self.id].senders == 0 {
            let waiters = std::mem::take(&mut core.chans[self.id].wait_recv);
            core.wake_all(waiters);
        }
    }
}

impl<T> SchedSender<T> {
    /// Blocking send; `Err` returns the value on disconnect.
    pub(crate) fn send(&self, value: T) -> Result<(), T> {
        let me = task_id();
        self.sc.yield_now(me);
        loop {
            let mut core = self.sc.lock();
            if core.failed || !core.chans[self.id].rx_alive {
                return Err(value);
            }
            let ch = &mut core.chans[self.id];
            if ch.len < ch.cap {
                ch.len += 1;
                let waiters = std::mem::take(&mut ch.wait_recv);
                core.wake_all(waiters);
                lock_q(&self.q).push_back(value);
                return Ok(());
            }
            ch.wait_send.push(me);
            self.sc.block_self(core, me);
        }
    }

    pub(crate) fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let me = task_id();
        self.sc.yield_now(me);
        let mut core = self.sc.lock();
        if core.failed || !core.chans[self.id].rx_alive {
            return Err(TrySendError::Disconnected(value));
        }
        let ch = &mut core.chans[self.id];
        if ch.len >= ch.cap {
            return Err(TrySendError::Full(value));
        }
        ch.len += 1;
        let waiters = std::mem::take(&mut ch.wait_recv);
        core.wake_all(waiters);
        lock_q(&self.q).push_back(value);
        Ok(())
    }
}

/// Scheduler-flavored receiving endpoint (wrapped by
/// [`crate::channel::Receiver`]).
pub struct SchedReceiver<T> {
    sc: Arc<Sched>,
    id: usize,
    q: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Drop for SchedReceiver<T> {
    fn drop(&mut self) {
        let mut core = self.sc.lock();
        core.chans[self.id].rx_alive = false;
        let waiters = std::mem::take(&mut core.chans[self.id].wait_send);
        core.wake_all(waiters);
    }
}

impl<T> SchedReceiver<T> {
    pub(crate) fn recv(&self) -> Result<T, ()> {
        let me = task_id();
        self.sc.yield_now(me);
        loop {
            let mut core = self.sc.lock();
            if core.failed {
                return Err(());
            }
            let ch = &mut core.chans[self.id];
            if ch.len > 0 {
                ch.len -= 1;
                let waiters = std::mem::take(&mut ch.wait_send);
                core.wake_all(waiters);
                let v = lock_q(&self.q).pop_front();
                return v.ok_or(());
            }
            if ch.senders == 0 {
                return Err(());
            }
            ch.wait_recv.push(me);
            self.sc.block_self(core, me);
        }
    }

    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let me = task_id();
        self.sc.yield_now(me);
        let mut core = self.sc.lock();
        let ch = &mut core.chans[self.id];
        if ch.len > 0 {
            ch.len -= 1;
            let waiters = std::mem::take(&mut ch.wait_send);
            core.wake_all(waiters);
            return lock_q(&self.q).pop_front().ok_or(TryRecvError::Disconnected);
        }
        if core.failed || core.chans[self.id].senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Atomically drains everything queued (the sched flavor of
    /// `try_iter`): one yield point, one observed snapshot.
    pub(crate) fn drain(&self) -> VecDeque<T> {
        let me = task_id();
        self.sc.yield_now(me);
        let mut core = self.sc.lock();
        let ch = &mut core.chans[self.id];
        ch.len = 0;
        let waiters = std::mem::take(&mut ch.wait_send);
        core.wake_all(waiters);
        std::mem::take(&mut *lock_q(&self.q))
    }
}

/// Everything observed during one controlled run.
pub struct ControlledRun<R> {
    /// The root closure's return value, or the run's first recorded
    /// failure (panic message, deadlock, oracle-visible scheduler
    /// error).
    pub result: Result<R, String>,
    /// Probe events in execution order.
    pub probes: Vec<Probe>,
    /// Multi-choice scheduling decisions in execution order — the
    /// schedule's identity, and the input to DFS enumeration.
    pub branches: Vec<Branch>,
    /// Total yield points hit (including single-choice ones).
    pub yields: u64,
}

/// Runs `f` as the root task of a controlled, deterministically
/// scheduled execution. Every `runtime::scope`/`runtime::bounded` use
/// inside `f` (on this thread and its spawned tasks) is virtualized;
/// the strategy decides every interleaving. Panics inside `f` or any
/// task are caught and reported as the run's failure.
pub fn run_controlled<R>(strategy: Box<dyn Strategy>, f: impl FnOnce() -> R) -> ControlledRun<R> {
    assert!(current().is_none(), "run_controlled cannot nest");
    let sc = Arc::new(Sched::new(strategy));
    set_ctx(Some((sc.clone(), 0)));
    let out = catch_unwind(AssertUnwindSafe(f));
    set_ctx(None);
    let mut core = sc.lock();
    core.tasks[0] = TaskState::Finished;
    let probes = std::mem::take(&mut core.probes);
    let branches = std::mem::take(&mut core.branches);
    let yields = core.yields;
    let failure = core.failure.take();
    let failed = core.failed;
    drop(core);
    let result = match out {
        Ok(v) if !failed => Ok(v),
        Ok(_) => Err(failure.unwrap_or_else(|| "run failed without a message".to_string())),
        Err(p) => Err(failure.unwrap_or_else(|| panic_message(&*p))),
    };
    ControlledRun { result, probes, branches, yields }
}
