//! `cargo mc`: exhaustive delivery-order exploration of the shipped
//! epoch barrier.
//!
//! The development container has few cores: the races of the merge side
//! of `run_sharded_keyed` rarely surface at runtime, so
//! its guarantees are checked by exploring every behaviour of the code
//! that implements them — [`gss_stream::barrier::EpochBarrier`] itself,
//! not a model of it. The barrier has no thread or channel in it, so the
//! checker can clone it, push a message and advance it at will:
//!
//! * **Sources** each hold a fixed FIFO script (built by [`McConfig`]):
//!   per epoch zero to two batches and an ack, optionally a straggler
//!   riding the epoch's first batch, a regressive broadcast after the
//!   first epoch, and a tail batch behind the last ack — what workers and
//!   shards send.
//! * The explored nondeterminism is (a) which source's next message
//!   arrives and (b) whether the merge stage advances the barrier now or
//!   lags and takes more messages first (the `try_iter` burst of
//!   `merge_stage`). Both are explored exhaustively, memoized on the
//!   whole state: deliveries, the barrier's queues, the stage.
//! * The **stage** handed to the barrier is a [`Recorder`]: it keeps what
//!   it was given in canonical form (counts per item, staged items per
//!   source) and checks the contract of `barrier.rs` as it goes. Like the
//!   two real stages it lets stragglers take effect on arrival and stages
//!   everything else until `close`; the tail is released at end of stream.
//!
//! ## Checked invariants
//!
//! 1. **ack agreement** — the k-th `close` carries the k-th broadcast
//!    watermark, a regressive one included, and every round is closed.
//! 2. **no close before all acks** — at the k-th `close` every source has
//!    been applied every batch it sent before its k-th ack.
//! 3. **exactly-once application** — no item is applied twice; at end of
//!    stream every item was applied and the queues are empty.
//! 4. **epoch-ordered release** — an item takes effect in exactly its own
//!    round and not before it is complete: a straggler on arrival,
//!    anything else at its round's close, the tail at end of stream.
//! 5. **exactly-once release** — at end of stream every item has taken
//!    effect once.
//!
//! A checker that cannot fail proves nothing. [`Fault`] makes the
//! recorder a faulty stage (apply twice, release on arrival, drop what is
//! staged), each of which must trip the invariant it breaks; the barrier's
//! own fault, closing on *any* ack, is `gss_stream`'s `EagerBarrier`
//! mutant and is run through this explorer by `cargo sched-mutants`.

use std::collections::HashSet;

use gss_stream::barrier::{EpochBarrier, Msg, Stage};

/// Model time; watermarks are small integers.
type Wm = i64;

/// One unit of a batch: an emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Item {
    id: u8,
    /// The broadcast round this item belongs to: it must take effect
    /// after `round` closes and no later than the next one. The tail's
    /// round is the number of broadcasts.
    round: u8,
    /// Takes effect on arrival instead of at its round's close.
    straggler: bool,
}

type Script = Vec<Msg<Vec<Item>>>;

/// A stage fault for checker validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The shipped stage behaviour.
    None,
    /// Apply every batch twice. Breaks exactly-once application.
    DoubleApply,
    /// Release every item on arrival. Breaks epoch-ordered release.
    EagerRelease,
    /// Forget what is staged at a close. Breaks exactly-once release.
    DropStaged,
}

/// The workload shape and the stage fault.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    pub sources: usize,
    pub epochs: usize,
    /// Batches each source sends per epoch (0: an idle source that only
    /// acks).
    pub batches: usize,
    /// From the second epoch on, one straggler rides each source's first
    /// batch of the epoch (its own batch when the source is idle).
    pub stragglers: bool,
    /// One batch behind the final ack, released at end of stream.
    pub tail: bool,
    /// A regressive broadcast after the first epoch, acked by everyone.
    pub regressive: bool,
    pub fault: Fault,
}

impl McConfig {
    pub fn new(sources: usize, epochs: usize) -> Self {
        McConfig {
            sources,
            epochs,
            batches: 1,
            stragglers: false,
            tail: false,
            regressive: false,
            fault: Fault::None,
        }
    }

    /// The broadcast sequence and each source's script.
    fn scripts(&self) -> (Vec<Wm>, Vec<Script>) {
        let mut rounds = Vec::new();
        for e in 0..self.epochs {
            rounds.push(10 * (e as Wm + 1));
            if self.regressive && e == 0 {
                rounds.push(3);
            }
        }
        let mut next_id = 0u8;
        let mut item = |round: usize, straggler: bool| {
            next_id += 1;
            Item { id: next_id - 1, round: round as u8, straggler }
        };
        let scripts = (0..self.sources)
            .map(|_| {
                let mut script = Script::new();
                let mut round = 0;
                for e in 0..self.epochs {
                    let mut batches: Vec<Vec<Item>> =
                        (0..self.batches).map(|_| vec![item(round, false)]).collect();
                    if self.stragglers && e > 0 {
                        match batches.first_mut() {
                            Some(first) => first.insert(0, item(round, true)),
                            None => batches.push(vec![item(round, true)]),
                        }
                    }
                    script.extend(batches.into_iter().map(Msg::Batch));
                    // Every broadcast is acked, the regressive one too; a
                    // source sends nothing between the two.
                    let acks = if self.regressive && e == 0 { 2 } else { 1 };
                    script.extend(rounds[round..round + acks].iter().map(|&wm| Msg::Ack(wm)));
                    round += acks;
                }
                if self.tail {
                    script.push(Msg::Batch(vec![item(round, false)]));
                }
                script
            })
            .collect();
        (rounds, scripts)
    }
}

/// Exploration statistics of a passing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct McReport {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions taken (including ones into memoized states).
    pub transitions: u64,
    /// Items the scripts carry.
    pub items: u64,
    /// Broadcast rounds, each closed once along every path.
    pub rounds: u64,
}

/// An invariant violation with the interleaving that produced it.
#[derive(Debug, Clone)]
pub struct McViolation {
    pub invariant: &'static str,
    pub detail: String,
    /// Scheduler choices from the initial state to the violation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for McViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "invariant violated: {} — {}", self.invariant, self.detail)?;
        writeln!(f, "interleaving:")?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

/// The recording stage: what the barrier handed over, in a form that does
/// not depend on the order sources were served in, and the first broken
/// invariant.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Recorder<'a> {
    fault: Fault,
    rounds: &'a [Wm],
    /// `due[src][k]`: batches `src` sends before its k-th ack.
    due: &'a [Vec<u8>],
    /// Batches applied per source.
    batches: Vec<u8>,
    /// Times applied / times taken effect, per item id.
    applied: Vec<u8>,
    released: Vec<u8>,
    staged: Vec<Vec<Item>>,
    closes: usize,
    broken: Option<(&'static str, String)>,
}

impl<'a> Recorder<'a> {
    fn new(fault: Fault, rounds: &'a [Wm], due: &'a [Vec<u8>], items: usize) -> Self {
        Recorder {
            fault,
            rounds,
            due,
            batches: vec![0; due.len()],
            applied: vec![0; items],
            released: vec![0; items],
            staged: vec![Vec::new(); due.len()],
            closes: 0,
            broken: None,
        }
    }

    fn fail(&mut self, invariant: &'static str, detail: String) {
        self.broken.get_or_insert((invariant, detail));
    }

    /// `item` takes effect: on arrival (a straggler's moment) or, when
    /// `closing`, at a close or the end of the stream (everything else's).
    fn release(&mut self, item: Item, closing: bool) {
        self.released[item.id as usize] += 1;
        if item.round as usize != self.closes || !(item.straggler || closing) {
            let (id, round, now) = (item.id, item.round, self.closes);
            let when = if closing { "at the close of" } else { "on arrival in" };
            self.fail(
                "epoch-ordered release",
                format!("item {id} of round {round} took effect {when} round {now}"),
            );
        }
    }

    fn take_staged(&mut self) -> Vec<Item> {
        self.staged.iter_mut().flat_map(std::mem::take).collect()
    }

    /// End of stream: what is still staged is the tail.
    fn finish(&mut self) {
        for item in self.take_staged() {
            self.release(item, true);
        }
        if self.closes != self.rounds.len() {
            let (closed, all) = (self.closes, self.rounds.len());
            self.fail("ack agreement", format!("{closed} of {all} rounds closed by end of stream"));
        }
        if let Some(id) = self.applied.iter().position(|&n| n != 1) {
            let n = self.applied[id];
            self.fail("exactly-once application", format!("item {id} applied {n} times"));
        }
        if let Some(id) = self.released.iter().position(|&n| n != 1) {
            let n = self.released[id];
            self.fail("exactly-once release", format!("item {id} took effect {n} times"));
        }
    }
}

impl Stage<Vec<Item>> for Recorder<'_> {
    fn apply(&mut self, src: usize, batch: Vec<Item>) {
        self.batches[src] += 1;
        let times = if self.fault == Fault::DoubleApply { 2 } else { 1 };
        for item in batch.repeat(times) {
            self.applied[item.id as usize] += 1;
            if self.applied[item.id as usize] > 1 {
                self.fail("exactly-once application", format!("item {} applied twice", item.id));
            }
            if item.straggler || self.fault == Fault::EagerRelease {
                self.release(item, false);
            } else {
                self.staged[src].push(item);
            }
        }
    }

    fn close(&mut self, wm: Wm) {
        let k = self.closes;
        if self.rounds.get(k) != Some(&wm) {
            let want = self.rounds.get(k);
            self.fail("ack agreement", format!("close #{k} at {wm}, broadcast #{k} was {want:?}"));
        }
        for src in 0..self.batches.len() {
            let (have, due) = (self.batches[src], self.due[src].get(k).copied().unwrap_or(0));
            if have < due {
                self.fail(
                    "no close before all acks",
                    format!("round {k} ({wm}) closed with {have} of source {src}'s {due} batches"),
                );
            }
        }
        for item in self.take_staged() {
            if self.fault != Fault::DropStaged {
                self.release(item, true);
            }
        }
        self.closes += 1;
    }
}

/// The explored state: how far each script has been delivered, the real
/// barrier holding what was delivered and not yet handed over, and the
/// stage.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State<'a> {
    delivered: Vec<u8>,
    barrier: EpochBarrier<Vec<Item>>,
    stage: Recorder<'a>,
}

struct Explorer<'a> {
    scripts: &'a [Script],
    seen: HashSet<State<'a>>,
    trace: Vec<String>,
    report: McReport,
}

impl<'a> Explorer<'a> {
    /// One merge-stage wake-up on the real barrier.
    fn advance(&self, st: &mut State<'a>) -> Result<(), McViolation> {
        st.barrier.advance(&mut st.stage);
        self.verdict(st)
    }

    fn verdict(&self, st: &State<'a>) -> Result<(), McViolation> {
        match &st.stage.broken {
            None => Ok(()),
            Some((invariant, detail)) => {
                Err(McViolation { invariant, detail: detail.clone(), trace: self.trace.clone() })
            }
        }
    }

    /// DFS over scheduler choices from `st`.
    fn explore(&mut self, st: State<'a>) -> Result<(), McViolation> {
        if !self.seen.insert(st.clone()) {
            return Ok(());
        }
        self.report.states += 1;
        let mut terminal = true;
        for (src, script) in self.scripts.iter().enumerate() {
            let Some(msg) = script.get(st.delivered[src] as usize) else { continue };
            terminal = false;
            self.report.transitions += 1;
            let mut lagging = st.clone();
            lagging.delivered[src] += 1;
            lagging.barrier.push(src, msg.clone());
            let depth = self.trace.len();
            self.trace.push(format!("deliver source {src} #{}: {msg:?}", lagging.delivered[src]));
            // The merge stage may lag arbitrarily behind arrivals: explore
            // both waking up now and taking more messages first.
            let mut woken = lagging.clone();
            self.trace.push("merge advances".to_string());
            self.advance(&mut woken)?;
            self.explore(woken)?;
            self.trace.truncate(depth + 1);
            self.trace.push("merge lags".to_string());
            self.explore(lagging)?;
            self.trace.truncate(depth);
        }
        if terminal {
            // `merge_stage` advances after the last message it receives.
            let mut end = st;
            self.trace.push("end of stream".to_string());
            self.advance(&mut end)?;
            end.stage.finish();
            if !end.barrier.is_drained() {
                end.stage.fail("exactly-once application", "queues did not drain".to_string());
            }
            self.verdict(&end)?;
            self.trace.pop();
        }
        Ok(())
    }
}

/// Exhaustively explores every delivery order and merge lag of `cfg`;
/// returns statistics or the first invariant violation found.
pub fn check(cfg: &McConfig) -> Result<McReport, McViolation> {
    let (rounds, scripts) = cfg.scripts();
    let acks_before = |script: &Script| {
        let mut batches = 0u8;
        let mut due = Vec::new();
        for msg in script {
            match msg {
                Msg::Batch(_) => batches += 1,
                Msg::Ack(_) => due.push(batches),
            }
        }
        due
    };
    let due: Vec<Vec<u8>> = scripts.iter().map(acks_before).collect();
    let items = scripts
        .iter()
        .flatten()
        .map(|m| if let Msg::Batch(b) = m { b.len() } else { 0 })
        .sum::<usize>();
    let init = State {
        delivered: vec![0; cfg.sources],
        barrier: EpochBarrier::new(cfg.sources),
        stage: Recorder::new(cfg.fault, &rounds, &due, items),
    };
    let mut ex = Explorer {
        scripts: &scripts,
        seen: HashSet::new(),
        trace: Vec::new(),
        report: McReport {
            items: items as u64,
            rounds: rounds.len() as u64,
            ..McReport::default()
        },
    };
    ex.explore(init)?;
    Ok(ex.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(cfg: &McConfig) -> McReport {
        check(cfg).unwrap_or_else(|v| panic!("{v}"))
    }

    #[test]
    fn epoch_barrier_passes_small_configs() {
        for sources in 1..=3 {
            for epochs in 1..=3 {
                let rep = pass(&McConfig::new(sources, epochs));
                assert!(rep.states > 0);
                assert_eq!(rep.rounds, epochs as u64);
            }
        }
    }

    #[test]
    fn stragglers_multiple_batches_tail_and_regressive_round_pass() {
        let cfg = McConfig {
            batches: 2,
            stragglers: true,
            tail: true,
            regressive: true,
            ..McConfig::new(3, 2)
        };
        let rep = pass(&cfg);
        // 3 sources × (2 epochs × 2 batches + 1 straggler + 1 tail) items.
        assert_eq!(rep.items, 3 * (2 * 2 + 1 + 1));
        // The regressive broadcast is a round of its own, closed like any.
        assert_eq!(rep.rounds, 3);
    }

    #[test]
    fn idle_sources_only_ack_and_idle_stragglers_get_a_batch() {
        let idle = McConfig { batches: 0, ..McConfig::new(2, 2) };
        assert_eq!(pass(&idle).items, 0);
        let rep = pass(&McConfig { stragglers: true, ..idle });
        assert_eq!(rep.items, 2);
    }

    #[test]
    fn single_source_has_one_interleaving_per_lag_choice() {
        assert!(pass(&McConfig::new(1, 2)).states >= 4);
    }

    #[test]
    fn stage_faults_trip_the_invariant_they_break() {
        for (fault, invariant) in [
            (Fault::DoubleApply, "exactly-once application"),
            (Fault::EagerRelease, "epoch-ordered release"),
            (Fault::DropStaged, "exactly-once release"),
        ] {
            let v = check(&McConfig { fault, ..McConfig::new(2, 2) })
                .expect_err("a faulty stage must not pass");
            assert_eq!(v.invariant, invariant, "{fault:?}");
            assert!(!v.trace.is_empty(), "violation must carry its interleaving");
        }
    }

    /// The recorder judges what it is handed, whoever hands it over: a
    /// close with a source's batch still outstanding, and a close at a
    /// watermark nobody broadcast.
    #[test]
    fn recorder_rejects_an_early_and_a_wrong_close() {
        let cfg = McConfig::new(2, 1);
        let (rounds, scripts) = cfg.scripts();
        let due = vec![vec![1u8], vec![1]];
        let fresh = || Recorder::new(Fault::None, &rounds, &due, 2);
        let Msg::Batch(first) = scripts[0][0].clone() else { panic!("scripts open with a batch") };
        let mut early = fresh();
        early.apply(0, first);
        early.close(10);
        assert_eq!(early.broken.map(|b| b.0), Some("no close before all acks"));
        let mut wrong = fresh();
        wrong.close(11);
        assert_eq!(wrong.broken.map(|b| b.0), Some("ack agreement"));
    }
}
