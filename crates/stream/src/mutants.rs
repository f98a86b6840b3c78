//! Seeded protocol faults for `cargo sched`'s anti-vacuity check.
//!
//! A schedule-exploration harness that never fails proves nothing, so
//! each mutant here re-introduces one concurrency bug class at a real
//! protocol decision point — firing an epoch barrier early, dropping
//! staged emissions, recycling a chunk buffer that still holds records —
//! and the harness must catch every one on some explored schedule.
//!
//! Without the `sched-mutants` feature, `is` is a constant `false`
//! and every guarded branch compiles away: release binaries carry no
//! fault-injection code at all. With the feature, the `sched` binary
//! selects one mutant at a time through `set_mutant` (runs are
//! single-flight, so a process-global is sufficient and keeps the
//! protocol signatures untouched).

/// Which protocol fault to inject. `Healthy` (the default) injects
/// nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Mutant {
    /// No fault: the shipped protocol.
    Healthy = 0,
    /// The epoch barrier: close the epoch as soon as *any* queue front
    /// is an ack instead of waiting for all of them.
    EagerBarrier = 1,
    /// `run_sharded_keyed` merge: drop shard 0's staged emissions at
    /// the barrier.
    ShardDropStaged = 2,
    /// Every driver's return edge: a worker hands a consumed chunk back
    /// to the source without emptying it.
    DirtyReturn = 3,
}

/// Every injectable fault, for harness iteration.
pub const ALL_MUTANTS: &[Mutant] =
    &[Mutant::EagerBarrier, Mutant::ShardDropStaged, Mutant::DirtyReturn];

#[cfg(feature = "sched-mutants")]
mod imp {
    use std::sync::atomic::{AtomicU8, Ordering};

    static ACTIVE: AtomicU8 = AtomicU8::new(0);

    pub(super) fn set(m: super::Mutant) {
        ACTIVE.store(m as u8, Ordering::SeqCst);
    }

    pub(super) fn get() -> u8 {
        ACTIVE.load(Ordering::SeqCst)
    }
}

/// Activates one mutant for subsequent runs (deactivate with
/// [`Mutant::Healthy`]). Only exists under the `sched-mutants` feature.
#[cfg(feature = "sched-mutants")]
pub fn set_mutant(m: Mutant) {
    imp::set(m);
}

/// Whether `m` is the currently injected fault. Constant `false`
/// without the `sched-mutants` feature.
#[inline(always)]
pub(crate) fn is(m: Mutant) -> bool {
    #[cfg(feature = "sched-mutants")]
    {
        m != Mutant::Healthy && imp::get() == m as u8
    }
    #[cfg(not(feature = "sched-mutants"))]
    {
        let _ = m;
        false
    }
}
