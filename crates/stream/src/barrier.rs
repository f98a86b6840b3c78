//! The epoch barrier: the merge side of [`run_parallel`] and
//! [`run_sharded_keyed`], written once.
//!
//! The paper parallelizes by broadcasting every watermark to all
//! partitions and combining what comes back (Section 5.3). Each of N
//! sources sends the merge stage a FIFO sequence of [`Msg::Batch`]es
//! (slice partials, key-tagged emissions) and one [`Msg::Ack`] per
//! broadcast watermark, after everything it produced up to that
//! watermark; every broadcast is acked, a regressive one too, so each
//! source's acks are the broadcast sequence. The merge stage keeps one
//! queue per source, hands a batch at a queue front to the stage's
//! [`apply`](Stage::apply) at once, and **closes an epoch only when every
//! queue front is an ack**: the acks are popped together, they agree, and
//! the stage's [`close`](Stage::close) runs with that watermark.
//!
//! So, in whatever order messages arrive and however far the merge stage
//! lags: `apply` sees each source's batches once and in order; the k-th
//! `close` carries the k-th broadcast watermark; and between two closes
//! the stage is handed exactly what the sources sent between those two
//! acks. A regressive round closes like any other — the barrier does not
//! judge watermarks, the stage's operator ignores one that does not
//! advance it. Batches behind the last ack are applied and never closed;
//! the end of the stream is the stage's business.
//!
//! [`EpochBarrier`] has no thread or channel in it: the tests here and
//! `cargo mc` (every delivery order × every merge lag) drive the shipped
//! code directly. [`merge_stage`] puts it behind a channel, which
//! `cargo sched` explores under the deterministic runtime.
//!
//! [`run_parallel`]: crate::parallel::run_parallel
//! [`run_sharded_keyed`]: crate::sharded::run_sharded_keyed

use std::collections::VecDeque;

use crossbeam::runtime::{self, Receiver};
use crossbeam::sched::ProbeEvent;
use gss_core::{Time, TIME_MAX};

use crate::mutants::{self, Mutant};

/// What a source sends the merge stage.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Msg<B> {
    /// Work produced since the source's last ack.
    Batch(B),
    /// Ack of a broadcast watermark: everything the source produced
    /// before it has already been sent.
    Ack(Time),
}

/// The part of a merge stage that differs between drivers.
pub trait Stage<B> {
    /// Takes the next batch of source `src`.
    fn apply(&mut self, src: usize, batch: B);
    /// Every source has acked `wm` and every batch sent before those acks
    /// has been applied.
    fn close(&mut self, wm: Time);
}

/// Per-source FIFO queues and the fixpoint over their fronts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EpochBarrier<B> {
    queues: Vec<VecDeque<Msg<B>>>,
}

impl<B> EpochBarrier<B> {
    pub fn new(sources: usize) -> Self {
        assert!(sources > 0, "an epoch barrier needs at least one source");
        EpochBarrier { queues: (0..sources).map(|_| VecDeque::new()).collect() }
    }

    /// Queues `msg` behind everything `src` sent before.
    pub fn push(&mut self, src: usize, msg: Msg<B>) {
        self.queues[src].push_back(msg);
    }

    /// Whether every queued message has been handed to a stage.
    pub fn is_drained(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Hands `stage` everything the queues allow: front batches, then —
    /// while every front is an ack — one closed epoch and the batches
    /// behind it, until some source has nothing queued.
    pub fn advance(&mut self, stage: &mut (impl Stage<B> + ?Sized)) {
        loop {
            for (src, q) in self.queues.iter_mut().enumerate() {
                while let Some(Msg::Batch(_)) = q.front() {
                    if let Some(Msg::Batch(batch)) = q.pop_front() {
                        stage.apply(src, batch);
                    }
                }
            }
            let acked =
                self.queues.iter().filter(|q| matches!(q.front(), Some(Msg::Ack(_)))).count();
            let needed = if mutants::is(Mutant::EagerBarrier) { 1 } else { self.queues.len() };
            if acked < needed {
                return;
            }
            // Acks ride FIFO channels off a stream-ordered broadcast, so
            // the fronts agree; min is defensive.
            let mut wm = TIME_MAX;
            for (src, q) in self.queues.iter_mut().enumerate() {
                // Every front is an ack here; only the eager mutant gets
                // this far with a source that has not acked.
                let Some(&Msg::Ack(w)) = q.front() else { continue };
                q.pop_front();
                runtime::probe(ProbeEvent::AckSeen { src, wm: w });
                gss_core::audit_assert!(
                    wm == TIME_MAX || w == wm,
                    "barrier acks disagree: {w} vs {wm} (FIFO broadcast broken)"
                );
                wm = wm.min(w);
            }
            runtime::probe(ProbeEvent::Barrier { wm, acks: acked as u64 });
            stage.close(wm);
        }
    }
}

/// Runs `stage` behind `rx` until every source has hung up: each wake-up
/// takes the burst already queued, then advances the barrier once.
/// Returns whether the queues drained. They do when the stream ended —
/// sources ack 1:1 with broadcasts and ship their tail before hanging up
/// — and need not when a source failed, short of an ack the others sent.
pub(crate) fn merge_stage<B>(
    rx: Receiver<(usize, Msg<B>)>,
    sources: usize,
    stage: &mut (impl Stage<B> + ?Sized),
) -> bool {
    let mut barrier = EpochBarrier::new(sources);
    while let Ok((src, msg)) = rx.recv() {
        barrier.push(src, msg);
        for (src, msg) in rx.try_iter() {
            barrier.push(src, msg);
        }
        barrier.advance(stage);
    }
    barrier.is_drained()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What a stage was handed, in order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Seen {
        Apply(usize, u32),
        Close(Time),
    }

    #[derive(Default)]
    struct Log(Vec<Seen>);

    impl Stage<u32> for Log {
        fn apply(&mut self, src: usize, batch: u32) {
            self.0.push(Seen::Apply(src, batch));
        }
        fn close(&mut self, wm: Time) {
            self.0.push(Seen::Close(wm));
        }
    }

    use Msg::{Ack, Batch};
    use Seen::{Apply, Close};

    #[test]
    fn batches_apply_at_once_and_in_source_order() {
        let mut b = EpochBarrier::new(2);
        let mut log = Log::default();
        b.push(1, Batch(10));
        b.push(1, Batch(11));
        b.push(0, Batch(1));
        b.advance(&mut log);
        assert_eq!(log.0, [Apply(0, 1), Apply(1, 10), Apply(1, 11)]);
        assert!(b.is_drained());
    }

    #[test]
    fn no_close_until_every_source_acked_and_its_earlier_batches_applied() {
        let mut b = EpochBarrier::new(3);
        let mut log = Log::default();
        b.push(0, Ack(10));
        b.push(0, Batch(2)); // behind the ack: next epoch's
        b.push(1, Batch(3));
        b.push(1, Ack(10));
        b.advance(&mut log);
        assert_eq!(log.0, [Apply(1, 3)], "source 2 has not acked");
        b.push(2, Batch(4));
        b.advance(&mut log);
        assert_eq!(log.0, [Apply(1, 3), Apply(2, 4)]);
        b.push(2, Ack(10));
        b.advance(&mut log);
        assert_eq!(log.0, [Apply(1, 3), Apply(2, 4), Close(10), Apply(0, 2)]);
        assert!(b.is_drained());
    }

    #[test]
    fn one_advance_closes_every_complete_epoch() {
        let mut b = EpochBarrier::new(2);
        let mut log = Log::default();
        for src in 0..2 {
            b.push(src, Batch(src as u32));
            b.push(src, Ack(10));
            b.push(src, Ack(20)); // an epoch with no batches
            b.push(src, Batch(10 + src as u32)); // the tail
        }
        b.advance(&mut log);
        assert_eq!(
            log.0,
            [Apply(0, 0), Apply(1, 1), Close(10), Close(20), Apply(0, 10), Apply(1, 11)]
        );
        assert!(b.is_drained());
    }

    #[test]
    fn a_regressive_round_is_acked_and_closed_like_any_other() {
        let mut b = EpochBarrier::new(2);
        let mut log = Log::default();
        for wm in [10, 3, 20] {
            b.push(0, Ack(wm));
        }
        b.advance(&mut log);
        assert!(log.0.is_empty());
        for wm in [10, 3, 20] {
            b.push(1, Ack(wm));
            b.advance(&mut log);
        }
        assert_eq!(log.0, [Close(10), Close(3), Close(20)]);
    }

    #[test]
    fn idle_sources_that_only_ack_do_not_hold_the_barrier() {
        let mut b = EpochBarrier::new(3);
        let mut log = Log::default();
        b.push(0, Batch(7));
        for src in 0..3 {
            b.push(src, Ack(5));
        }
        b.advance(&mut log);
        assert_eq!(log.0, [Apply(0, 7), Close(5)]);
        assert!(b.is_drained());
    }

    #[test]
    fn a_source_short_of_an_ack_leaves_the_others_queued() {
        let mut b = EpochBarrier::new(2);
        let mut log = Log::default();
        b.push(0, Batch(1));
        b.push(0, Ack(5));
        b.push(0, Batch(2));
        b.advance(&mut log);
        assert_eq!(log.0, [Apply(0, 1)]);
        assert!(!b.is_drained(), "the ack and the batch behind it wait for source 1");
    }

    #[test]
    fn merge_stage_reports_whether_the_stream_drained() {
        // Source 1 hangs up short of the ack source 0 sent: a failed run.
        // What it did send is applied, the epoch stays open, and the stage
        // is told so instead of the thread asserting.
        for (last, drained) in [(Batch(3), false), (Ack(10), true)] {
            let (tx, rx) = runtime::bounded(8);
            for msg in [(0, Batch(1)), (0, Ack(10)), (0, Batch(2)), (1, last)] {
                tx.send(msg).unwrap();
            }
            drop(tx);
            let mut log = Log::default();
            assert_eq!(merge_stage(rx, 2, &mut log), drained);
            let closed = log.0.contains(&Close(10));
            assert_eq!(closed, drained, "{:?}", log.0);
        }
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "barrier acks disagree")]
    fn disagreeing_acks_fail_the_audit() {
        let mut b = EpochBarrier::new(2);
        b.push(0, Ack(10));
        b.push(1, Ack(11));
        b.advance(&mut Log::default());
    }

    /// One source's script: `batches[k]` batches before its k-th ack, the
    /// last entry being the tail behind the final ack.
    fn script(src: usize, batches: &[usize], rounds: &[Time]) -> Vec<Msg<u32>> {
        let mut out = Vec::new();
        let mut id = 1_000 * src as u32;
        for (k, &n) in batches.iter().enumerate() {
            for _ in 0..n {
                out.push(Batch(id));
                id += 1;
            }
            if let Some(&wm) = rounds.get(k) {
                out.push(Ack(wm));
            }
        }
        out
    }

    /// The log cut at its closes, each epoch's applies sorted: what must
    /// not depend on delivery order.
    fn epochs(log: &[Seen]) -> Vec<Vec<Seen>> {
        let mut out = vec![Vec::new()];
        for &s in log {
            let last = out.len() - 1;
            out[last].push(s);
            if matches!(s, Close(_)) {
                out.push(Vec::new());
            }
        }
        for e in &mut out {
            e.sort_by_key(|s| match *s {
                Apply(src, id) => (0, src, id),
                Close(_) => (1, 0, 0),
            });
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random scripts (idle sources, empty epochs, regressive and
        /// repeated watermarks, tails), delivered in a random interleaving
        /// with the merge stage advancing at random moments, hand a stage
        /// the same batches in the same epochs, closed at the same
        /// watermarks, as source-by-source delivery with one advance.
        #[test]
        fn delivery_order_and_lag_do_not_change_the_epochs(
            rounds in prop::collection::vec(0i64..6, 0..5),
            shape in prop::collection::vec(prop::collection::vec(0usize..3, 6), 1..5),
            picks in prop::collection::vec((0usize..64, 0u8..3), 0..80),
        ) {
            let sources = shape.len();
            let scripts: Vec<Vec<Msg<u32>>> = shape
                .iter()
                .enumerate()
                .map(|(src, b)| script(src, &b[..=rounds.len()], &rounds))
                .collect();

            let mut in_order = Log::default();
            let mut b = EpochBarrier::new(sources);
            for (src, s) in scripts.iter().enumerate() {
                for m in s {
                    b.push(src, m.clone());
                }
            }
            b.advance(&mut in_order);
            prop_assert!(b.is_drained());
            let closes: Vec<Seen> = rounds.iter().map(|&wm| Close(wm)).collect();
            let got: Vec<Seen> =
                in_order.0.iter().copied().filter(|s| matches!(s, Close(_))).collect();
            prop_assert_eq!(got, closes, "one close per broadcast, in broadcast order");

            let mut shuffled = Log::default();
            let mut b = EpochBarrier::new(sources);
            let mut next = vec![0usize; sources];
            let mut picks = picks.into_iter();
            while next.iter().zip(&scripts).any(|(&n, s)| n < s.len()) {
                let (pick, lag) = picks.next().unwrap_or((0, 0));
                let live: Vec<usize> =
                    (0..sources).filter(|&s| next[s] < scripts[s].len()).collect();
                let src = live[pick % live.len()];
                b.push(src, scripts[src][next[src]].clone());
                next[src] += 1;
                if lag == 0 {
                    b.advance(&mut shuffled);
                }
            }
            b.advance(&mut shuffled);
            prop_assert!(b.is_drained());
            prop_assert_eq!(epochs(&shuffled.0), epochs(&in_order.0));
            // Per source, batches were applied in the order sent.
            for src in 0..sources {
                let ids: Vec<u32> = shuffled.0.iter().filter_map(|s| match *s {
                    Apply(s, id) if s == src => Some(id),
                    _ => None,
                }).collect();
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "source {} out of order", src);
            }
        }
    }
}
