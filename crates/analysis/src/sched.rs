//! Deterministic schedule exploration over the *real* concurrency
//! protocols (`cargo sched`).
//!
//! [`crate::mc`] explores every delivery order of the epoch barrier, the
//! one part of the merge side with no thread or channel in it; this
//! module covers what is around it by running the actual
//! [`gss_stream::run_sharded_keyed`] and [`gss_stream::run_keyed`] code
//! under `crossbeam::sched::run_controlled`, where every channel operation —
//! the forward edges, the merge edges and the chunk-buffer return edge —
//! is a yield point and a [`Strategy`] decides every interleaving.
//!
//! Two exploration modes:
//!
//! * **Bounded-preemption DFS** ([`Explore::Dfs`]): stateless replay of
//!   choice prefixes, CHESS-style. Every multi-choice scheduling
//!   decision is a branch; alternatives that would exceed the
//!   preemption bound (forcing a switch while the token holder is
//!   still runnable) are pruned. `preemption_bound: None` enumerates
//!   every schedule of the yield-point granularity.
//! * **PCT random schedules** ([`Explore::Pct`]): seed-pinned
//!   priority-based probabilistic concurrency testing for configs too
//!   large to enumerate — random initial priorities, `depth - 1`
//!   priority change points, highest-priority runnable task wins.
//!
//! Every explored schedule is checked by an oracle with two halves:
//!
//! * **Conformance**: the run's emissions must be bit-identical to a
//!   sequential reference operator over the same elements (finals,
//!   update emissions, and — for the sharded protocol — the exact
//!   released sequence).
//! * **Protocol invariants**, observed through [`ProbeEvent`]s the
//!   protocols record at ship/apply/ack/barrier/release sites:
//!   exactly-once batch application per producer, epoch barriers
//!   closing only on a full ack set, ack agreement within a round, (for
//!   the sharded merge) every applied emission eventually released, and
//!   (every driver) every chunk buffer handed back to the source empty.
//!
//! Anti-vacuity: with the `sched-mutants` feature, [`mutant_matrix`]
//! re-runs small cells against each seeded protocol fault in
//! `gss_stream::mutants` and requires the oracle to catch every one.

use std::collections::BTreeMap;

use crossbeam::sched::{run_controlled, ControlledRun, Probe, ProbeEvent, Strategy, TaskId};
use gss_core::testsupport::SumI64;
use gss_core::{
    KeyedConfig, KeyedWindowOperator, OperatorConfig, PerKey, QueryId, StreamElement,
    WindowAggregator, WindowFunction, WindowOperator,
};
use gss_stream::{partition_of, run_keyed, run_sharded_keyed, shard_of, PipelineConfig};
use gss_windows::TumblingWindow;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Replays a forced prefix of picks at multi-choice points, then falls
/// back to a deterministic rule: keep the token holder when runnable,
/// else the lowest runnable id. The DFS driver verifies the replayed
/// branches actually match the prefix (divergence means the workload is
/// not deterministic, which voids exploration).
pub struct ReplayStrategy {
    prefix: Vec<TaskId>,
    at: usize,
}

impl ReplayStrategy {
    pub fn new(prefix: Vec<TaskId>) -> Self {
        ReplayStrategy { prefix, at: 0 }
    }
}

impl Strategy for ReplayStrategy {
    fn pick(&mut self, runnable: &[TaskId], current: Option<TaskId>) -> TaskId {
        if self.at < self.prefix.len() {
            let forced = self.prefix[self.at];
            self.at += 1;
            if runnable.contains(&forced) {
                return forced;
            }
            // Forced task not runnable: deterministic replay has already
            // diverged. Fall through; the driver's branch check reports it.
        }
        match current {
            Some(c) if runnable.contains(&c) => c,
            _ => runnable[0],
        }
    }
}

/// SplitMix64: tiny, seed-stable PRNG (public-domain constants). The
/// whole exploration is pinned by the cell seed — no global RNG state.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Probabilistic concurrency testing (Burckhardt et al.): every task
/// gets a random high priority on first sight; the highest-priority
/// runnable task always runs; at `depth - 1` pre-sampled decision steps
/// the winner's priority drops below all initial ones. Finds any bug of
/// preemption depth `d` with probability ≥ 1/(n·k^(d-1)) per run.
pub struct PctStrategy {
    rng: SplitMix64,
    priorities: BTreeMap<TaskId, u64>,
    change_steps: Vec<u64>,
    step: u64,
    next_low: u64,
}

/// Initial PCT priorities sit at or above this; change points assign
/// strictly lower ones, counting down.
const PCT_HIGH: u64 = 1 << 32;

impl PctStrategy {
    /// `est_steps` is an upper estimate of multi-choice decisions per
    /// run; change points are sampled uniformly below it.
    pub fn new(seed: u64, depth: usize, est_steps: u64) -> Self {
        let mut rng = SplitMix64(seed);
        let k = est_steps.max(1);
        let change_steps = (0..depth.saturating_sub(1)).map(|_| rng.next_u64() % k).collect();
        PctStrategy {
            rng,
            priorities: BTreeMap::new(),
            change_steps,
            step: 0,
            next_low: PCT_HIGH - 1,
        }
    }
}

impl Strategy for PctStrategy {
    fn pick(&mut self, runnable: &[TaskId], _current: Option<TaskId>) -> TaskId {
        for &t in runnable {
            if !self.priorities.contains_key(&t) {
                let p = PCT_HIGH + (self.rng.next_u64() >> 16);
                self.priorities.insert(t, p);
            }
        }
        let mut winner = runnable[0];
        let mut best = 0u64;
        for &t in runnable {
            let p = self.priorities.get(&t).copied().unwrap_or(0);
            if p >= best {
                best = p;
                winner = t;
            }
        }
        if self.change_steps.contains(&self.step) {
            self.priorities.insert(winner, self.next_low);
            self.next_low = self.next_low.saturating_sub(1);
        }
        self.step += 1;
        winner
    }
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

/// How a cell explores the schedule space.
#[derive(Clone, Debug)]
pub enum Explore {
    /// Stateless-replay DFS over choice prefixes. `preemption_bound:
    /// None` is fully exhaustive at yield-point granularity;
    /// `Some(b)` prunes alternatives requiring more than `b`
    /// preemptions. `max_schedules` is a hard safety cap (hitting it
    /// marks the cell truncated).
    Dfs { preemption_bound: Option<usize>, max_schedules: u64 },
    /// `runs` independent PCT schedules derived from `seed`.
    Pct { seed: u64, depth: usize, runs: u64 },
}

/// Outcome of exploring one (protocol, config, workload) cell.
#[derive(Debug)]
pub struct Cell {
    pub name: String,
    /// Distinct complete schedules executed.
    pub schedules: u64,
    /// DFS hit its `max_schedules` cap before exhausting the space.
    pub truncated: bool,
    /// Largest yield-point count seen in a single run.
    pub max_yields: u64,
    /// First oracle violation, with the offending schedule prefix.
    pub violation: Option<String>,
}

impl Cell {
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// A preemption: the token holder was runnable but something else ran.
fn is_preemption(current: Option<TaskId>, picked: TaskId) -> bool {
    matches!(current, Some(c) if c != picked)
}

/// Explores one cell: repeatedly runs `run` under strategy control and
/// applies `oracle` to every completed run. Stops at the first
/// violation (reporting the schedule that produced it).
pub(crate) fn explore<R>(
    name: &str,
    mode: &Explore,
    run: &dyn Fn(Box<dyn Strategy>) -> ControlledRun<R>,
    oracle: &dyn Fn(&ControlledRun<R>) -> Result<(), String>,
) -> Cell {
    let mut cell = Cell {
        name: name.to_string(),
        schedules: 0,
        truncated: false,
        max_yields: 0,
        violation: None,
    };
    match *mode {
        Explore::Dfs { preemption_bound, max_schedules } => {
            let mut stack: Vec<Vec<TaskId>> = vec![Vec::new()];
            while let Some(prefix) = stack.pop() {
                if cell.schedules >= max_schedules {
                    cell.truncated = true;
                    break;
                }
                cell.schedules += 1;
                let out = run(Box::new(ReplayStrategy::new(prefix.clone())));
                cell.max_yields = cell.max_yields.max(out.yields);
                for (i, &want) in prefix.iter().enumerate() {
                    let got = out.branches.get(i).map(|b| b.picked);
                    if got != Some(want) {
                        cell.violation = Some(format!(
                            "replay diverged at decision {i}: forced task {want}, run picked \
                             {got:?} — workload is not schedule-deterministic"
                        ));
                        return cell;
                    }
                }
                if let Err(msg) = check_run(&out, oracle) {
                    cell.violation = Some(format!("schedule {prefix:?}: {msg}"));
                    return cell;
                }
                // Cumulative preemptions along this run's actual path.
                let mut preempt = Vec::with_capacity(out.branches.len() + 1);
                preempt.push(0usize);
                for b in &out.branches {
                    let last = preempt[preempt.len() - 1];
                    preempt.push(last + usize::from(is_preemption(b.current, b.picked)));
                }
                // Branch on every decision the fallback rule made: each
                // untried alternative becomes a new prefix. The run just
                // executed covers the default continuation, so every
                // complete schedule is executed exactly once.
                for (i, b) in out.branches.iter().enumerate().skip(prefix.len()) {
                    for &alt in &b.runnable {
                        if alt == b.picked {
                            continue;
                        }
                        if let Some(bound) = preemption_bound {
                            if preempt[i] + usize::from(is_preemption(b.current, alt)) > bound {
                                continue;
                            }
                        }
                        let mut np: Vec<TaskId> =
                            out.branches[..i].iter().map(|x| x.picked).collect();
                        np.push(alt);
                        stack.push(np);
                    }
                }
            }
        }
        Explore::Pct { seed, depth, runs } => {
            // The step estimate adapts to observed run lengths; the
            // chain stays deterministic because run r's estimate only
            // depends on runs 0..r under the same pinned seed.
            let mut est_steps = 64u64;
            for r in 0..runs {
                let s = seed.wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let out = run(Box::new(PctStrategy::new(s, depth, est_steps)));
                cell.schedules += 1;
                cell.max_yields = cell.max_yields.max(out.yields);
                est_steps = est_steps.max(out.branches.len() as u64);
                if let Err(msg) = check_run(&out, oracle) {
                    cell.violation = Some(format!("pct seed {s:#x}: {msg}"));
                    return cell;
                }
            }
        }
    }
    cell
}

/// Run-level check shared by both modes: a failed run (panic, deadlock)
/// is itself a violation; otherwise the oracle judges it.
fn check_run<R>(
    out: &ControlledRun<R>,
    oracle: &dyn Fn(&ControlledRun<R>) -> Result<(), String>,
) -> Result<(), String> {
    if let Err(e) = &out.result {
        return Err(format!("run failed: {e}"));
    }
    oracle(out)
}

// ---------------------------------------------------------------------------
// Probe-level protocol invariants
// ---------------------------------------------------------------------------

/// Checks the protocol invariants observable from probe events:
///
/// * exactly-once: per producer, shipped batch count and item total
///   equal the applied ones;
/// * epoch barrier: every barrier carries a full ack set (`n_src`
///   acks), and exactly the acks seen since the previous barrier;
/// * ack agreement: all acks of a round carry the barrier watermark. The
///   watermarks themselves are the broadcast's, whatever they are: a
///   regressive round is acked and closed like any other (`barrier.rs`),
///   and it is the stage's operator that ignores a watermark which does
///   not advance it — conformance with the reference checks that;
/// * drain (`releases_match_applies`, sharded merge): items released
///   over the whole run equal items applied — nothing staged is lost;
/// * recycling: every chunk buffer a consumer hands back is empty.
fn check_probes(
    probes: &[Probe],
    n_src: usize,
    releases_match_applies: bool,
) -> Result<(), String> {
    let mut shipped = vec![(0u64, 0u64); n_src]; // (batches, items)
    let mut applied = vec![(0u64, 0u64); n_src];
    let mut released = 0u64;
    let mut pending_acks: Vec<(usize, i64)> = Vec::new();
    for p in probes {
        match p.event {
            ProbeEvent::Shipped { src, items } => {
                if src >= n_src {
                    return Err(format!("Shipped from unknown producer {src}"));
                }
                shipped[src].0 += 1;
                shipped[src].1 += items;
            }
            ProbeEvent::Applied { src, items } => {
                if src >= n_src {
                    return Err(format!("Applied from unknown producer {src}"));
                }
                applied[src].0 += 1;
                applied[src].1 += items;
            }
            ProbeEvent::AckSeen { src, wm } => pending_acks.push((src, wm)),
            ProbeEvent::Barrier { wm, acks } => {
                if acks != n_src as u64 {
                    return Err(format!(
                        "barrier at wm {wm} fired with {acks}/{n_src} acks (premature epoch \
                         release)"
                    ));
                }
                if pending_acks.len() != n_src {
                    return Err(format!(
                        "barrier at wm {wm} consumed {} acks, expected {n_src}",
                        pending_acks.len()
                    ));
                }
                let mut seen = vec![false; n_src];
                for &(src, awm) in &pending_acks {
                    if awm != wm {
                        return Err(format!(
                            "ack disagreement in epoch {wm}: producer {src} acked {awm}"
                        ));
                    }
                    if src >= n_src || seen[src] {
                        return Err(format!("duplicate or unknown ack from producer {src}"));
                    }
                    seen[src] = true;
                }
                pending_acks.clear();
            }
            ProbeEvent::Released { items } => released += items,
            ProbeEvent::Recycled { src, items } => {
                if items != 0 {
                    return Err(format!(
                        "consumer {src} handed back a chunk buffer still holding {items} records"
                    ));
                }
            }
        }
    }
    if !pending_acks.is_empty() {
        return Err(format!("{} acks consumed outside any barrier", pending_acks.len()));
    }
    for src in 0..n_src {
        if shipped[src] != applied[src] {
            return Err(format!(
                "exactly-once violated for producer {src}: shipped {:?} batches/items, applied \
                 {:?}",
                shipped[src], applied[src]
            ));
        }
    }
    if releases_match_applies {
        let total_applied: u64 = applied.iter().map(|a| a.1).sum();
        if released != total_applied {
            return Err(format!(
                "drain violated: {total_applied} emissions applied but {released} released"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Workload cells
// ---------------------------------------------------------------------------

/// One canonical emission for bitwise comparison.
type Emit = (QueryId, i64, i64, i64, bool);

/// Workload size per cell. `Tiny` is one epoch plus a staged tail;
/// `Full` adds a second epoch (bounded DFS and PCT cells). `OneChunk`
/// is `Tiny`'s stream in the transport that keeps a one-producer tree
/// enumerable (see [`pipe_cfg`]): every chunk adds a hand-back and a
/// pick-up on the return edge to the schedule, and the one-producer tree
/// over `Tiny`'s two chunks has 1 400 336 schedules (102 840 before that
/// edge existed; `cargo sched -- --deep` still walks all of them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OneChunk,
    Tiny,
    Full,
}

/// The query set of every cell: one tumbling(10) window.
fn plain_windows() -> Vec<Box<dyn WindowFunction>> {
    vec![Box::new(TumblingWindow::new(10))]
}

fn plain_op_cfg() -> OperatorConfig {
    OperatorConfig::out_of_order(20)
}

/// Transport config pinned for determinism: fixed batch size 1 (the
/// default adaptive batching reads the wall clock, which would make the
/// chunking — and thus the schedule tree — nondeterministic) and a
/// small but non-rendezvous channel capacity so backpressure paths get
/// explored, on the forward edges and on the chunk-buffer return edge
/// (which takes the same capacity): an epoch of `Tiny` is two size-1
/// chunks and a watermark, one message more than a channel holds.
/// `OneChunk` ships the epoch's two records as one chunk and narrows the
/// channels to one message, so the watermark behind the chunk still
/// finds the channel full unless the consumer has taken the chunk.
fn pipe_cfg(parallelism: usize, workload: Workload) -> PipelineConfig {
    let (batch, capacity) = if workload == Workload::OneChunk { (2, 1) } else { (1, 2) };
    let mut cfg = PipelineConfig::with_parallelism(parallelism).with_batch_size(batch);
    cfg.channel_capacity = capacity;
    cfg
}

/// Sorted emission multiset of a partition's operator.
fn canon<'a>(results: impl Iterator<Item = &'a gss_core::WindowResult<i64>>) -> Vec<Emit> {
    let mut v: Vec<Emit> =
        results.map(|r| (r.query, r.range.start, r.range.end, r.value, r.is_update)).collect();
    v.sort_unstable();
    v
}

/// One canonical keyed emission: `(key, start, end, value, is_update)`.
type KeyedEmit = (u64, i64, i64, i64, bool);

/// Two keys `assign` guarantees to land on different destinations (any
/// two keys when there is only one).
fn spread_keys(assign: fn(u64, usize) -> usize, n: usize) -> (u64, u64) {
    let find = |target: usize| {
        let mut k = 0u64;
        while assign(k, n) != target {
            k += 1;
            assert!(k < 4096, "no key found for destination {target}");
        }
        k
    };
    if n < 2 {
        (0, 1)
    } else {
        (find(0), find(1))
    }
}

/// Fixed keyed workload: both destinations hold state in every epoch, so
/// dropped or early-released staging is always observable.
fn keyed_elements((ka, kb): (u64, u64), w: Workload) -> Vec<StreamElement<(u64, i64)>> {
    match w {
        Workload::OneChunk | Workload::Tiny => vec![
            StreamElement::Record { ts: 1, value: (ka, 1) },
            StreamElement::Record { ts: 2, value: (kb, 2) },
            StreamElement::Watermark(12),
        ],
        Workload::Full => vec![
            StreamElement::Record { ts: 1, value: (ka, 1) },
            StreamElement::Record { ts: 2, value: (kb, 2) },
            StreamElement::Record { ts: 11, value: (ka, 3) },
            StreamElement::Watermark(12),
            StreamElement::Record { ts: 15, value: (kb, 4) },
            StreamElement::Watermark(22),
        ],
    }
}

fn keyed_factory() -> impl Fn(usize) -> Box<dyn WindowAggregator<PerKey<SumI64>>> + Clone {
    |_| {
        Box::new(KeyedWindowOperator::new(
            SumI64,
            vec![Box::new(TumblingWindow::new(10))],
            KeyedConfig::default(),
        )) as Box<dyn WindowAggregator<PerKey<SumI64>>>
    }
}

/// Sequential reference for the sharded cell: one keyed operator over
/// the whole stream, emissions canonicalized per epoch (stable-sorted
/// by key) exactly as the merge stage releases them.
fn shard_reference(shards: usize, workload: Workload) -> Vec<KeyedEmit> {
    let factory = keyed_factory();
    let mut op = factory(0);
    let mut out: Vec<KeyedEmit> = Vec::new();
    let mut scratch = Vec::new();
    let mut epoch: Vec<KeyedEmit> = Vec::new();
    let flush = |scratch: &mut Vec<gss_core::WindowResult<(u64, i64)>>,
                 epoch: &mut Vec<KeyedEmit>| {
        epoch.extend(
            scratch
                .drain(..)
                .map(|r| (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update)),
        );
    };
    for e in keyed_elements(spread_keys(shard_of, shards), workload) {
        match e {
            StreamElement::Record { ts, value } => op.process(ts, value, &mut scratch),
            StreamElement::Watermark(wm) => {
                op.on_watermark(wm, &mut scratch);
                flush(&mut scratch, &mut epoch);
                epoch.sort_by_key(|e| e.0);
                out.append(&mut epoch);
                continue;
            }
            StreamElement::Punctuation(ts) => op.on_punctuation(ts, &mut scratch),
        }
        flush(&mut scratch, &mut epoch);
    }
    epoch.sort_by_key(|e| e.0);
    out.append(&mut epoch);
    out
}

/// Explores the sharded keyed protocol with `shards` shards. The
/// released sequence must match the reference *in order* — the
/// protocol's determinism guarantee, not just the multiset.
pub fn shard_cell(shards: usize, workload: Workload, mode: &Explore) -> Cell {
    let expect = shard_reference(shards, workload);
    let elements = keyed_elements(spread_keys(shard_of, shards), workload);
    let run = move |strategy: Box<dyn Strategy>| {
        let elements = elements.clone();
        run_controlled(strategy, move || {
            let report = run_sharded_keyed(elements, pipe_cfg(shards, workload), keyed_factory());
            let seq: Vec<KeyedEmit> = report
                .results
                .iter()
                .map(|(_, r)| (r.value.0, r.range.start, r.range.end, r.value.1, r.is_update))
                .collect();
            (seq, report.result_count)
        })
    };
    let oracle = move |out: &ControlledRun<(Vec<KeyedEmit>, u64)>| -> Result<(), String> {
        let (got, count) = match &out.result {
            Ok(v) => v,
            Err(e) => return Err(e.clone()),
        };
        if *count != got.len() as u64 {
            return Err(format!("result_count {count} != collected {}", got.len()));
        }
        if *got != expect {
            return Err(format!(
                "released sequence diverges from sequential reference:\n  got    \
                 {got:?}\n  expect {expect:?}"
            ));
        }
        check_probes(&out.probes, shards, true)
    };
    explore(&format!("shard/shards={shards}/{workload:?}"), mode, &run, &oracle)
}

/// One canonical `run_keyed` emission: the partition that produced it
/// and the emission.
type PartEmit = (usize, Emit);

/// The sequential operator of the `run_keyed` reference and of every
/// `run_keyed` partition, or why it refused a query.
fn plain_operator() -> Result<WindowOperator<SumI64>, String> {
    let mut op = WindowOperator::new(SumI64, plain_op_cfg());
    for w in plain_windows() {
        op.add_query(w).map_err(|e| format!("plain operator refused a query: {e}"))?;
    }
    Ok(op)
}

/// A cell that could not be set up, reported as its violation.
fn refused(name: String, why: String) -> Cell {
    Cell { name, schedules: 0, truncated: false, max_yields: 0, violation: Some(why) }
}

/// Sequential reference for the `run_keyed` cell: one operator per
/// partition over that partition's records and every watermark.
fn keyed_reference(
    plain: &WindowOperator<SumI64>,
    elements: &[StreamElement<(u64, i64)>],
    partitions: usize,
) -> Vec<PartEmit> {
    let mut expect = Vec::new();
    for part in 0..partitions {
        let mut op = plain.clone();
        let mut out = Vec::new();
        for e in elements {
            match *e {
                StreamElement::Record { ts, value: (key, v) } => {
                    if partition_of(key, partitions) == part {
                        op.process_tuple(ts, v, &mut out);
                    }
                }
                StreamElement::Watermark(wm) => op.process_watermark(wm, &mut out),
                StreamElement::Punctuation(ts) => op.process_punctuation(ts, &mut out),
            }
        }
        expect.extend(canon(out.iter()).into_iter().map(|e| (part, e)));
    }
    expect.sort_unstable();
    expect
}

/// Explores the single-stage keyed pipeline with `partitions` workers:
/// the forward edge per partition and the chunk-buffer return edge they
/// share. Chunks hold two records, so some go through the columnar path
/// — the one that leaves its records in the buffer for `give_back` to
/// clear. Per partition the emissions must be the sequential operator's,
/// and every buffer handed back must be empty (`check_probes`).
pub fn keyed_cell(partitions: usize, workload: Workload, mode: &Explore) -> Cell {
    let name = format!("keyed/partitions={partitions}/{workload:?}");
    let plain = match plain_operator() {
        Ok(op) => op,
        Err(why) => return refused(name, why),
    };
    let elements = keyed_elements(spread_keys(partition_of, partitions), workload);
    let expect = keyed_reference(&plain, &elements, partitions);
    let run = move |strategy: Box<dyn Strategy>| {
        let (elements, plain) = (elements.clone(), plain.clone());
        run_controlled(strategy, move || {
            let cfg = pipe_cfg(partitions, workload).with_batch_size(2);
            let report = run_keyed::<SumI64, _>(elements, cfg, |_| {
                Box::new(plain.clone()) as Box<dyn WindowAggregator<SumI64>>
            });
            let mut got: Vec<PartEmit> = report
                .results
                .iter()
                .map(|(p, r)| (*p, (r.query, r.range.start, r.range.end, r.value, r.is_update)))
                .collect();
            got.sort_unstable();
            (got, report.result_count)
        })
    };
    let oracle = move |out: &ControlledRun<(Vec<PartEmit>, u64)>| -> Result<(), String> {
        let (got, count) = match &out.result {
            Ok(v) => v,
            Err(e) => return Err(e.clone()),
        };
        if *count != got.len() as u64 {
            return Err(format!("result_count {count} != collected {}", got.len()));
        }
        if *got != expect {
            return Err(format!(
                "emissions diverge from the per-partition sequential reference:\n  got    \
                 {got:?}\n  expect {expect:?}"
            ));
        }
        check_probes(&out.probes, partitions, false)
    };
    explore(&name, mode, &run, &oracle)
}

// ---------------------------------------------------------------------------
// Anti-vacuity: the mutant matrix
// ---------------------------------------------------------------------------

/// Runs a small bounded-DFS cell against every seeded protocol fault
/// and reports, per mutant, whether the oracle caught it. A harness
/// that lets any mutant survive is vacuous; `cargo sched --mutants`
/// fails on survivors. The barrier's fault must fall to a shard cell and
/// to [`crate::mc`]'s explorer over the barrier alone, with the invariant
/// it breaks.
#[cfg(feature = "sched-mutants")]
pub fn mutant_matrix() -> Vec<(&'static str, Cell)> {
    use gss_stream::mutants::{set_mutant, Mutant, ALL_MUTANTS};
    let mode = Explore::Dfs { preemption_bound: Some(2), max_schedules: 5_000 };
    let mut out = Vec::new();
    for &m in ALL_MUTANTS {
        set_mutant(m);
        let (name, cell) = match m {
            Mutant::Healthy => continue,
            Mutant::EagerBarrier => {
                out.push(("EagerBarrier", mc_cell("no close before all acks")));
                ("EagerBarrier", shard_cell(2, Workload::Full, &mode))
            }
            Mutant::ShardDropStaged => ("ShardDropStaged", shard_cell(2, Workload::Full, &mode)),
            Mutant::DirtyReturn => ("DirtyReturn", keyed_cell(2, Workload::Full, &mode)),
        };
        out.push((name, cell));
    }
    set_mutant(Mutant::Healthy);
    out
}

/// The delivery-order explorer as a matrix cell: caught only if the
/// violation it finds is of `invariant`.
#[cfg(feature = "sched-mutants")]
fn mc_cell(invariant: &str) -> Cell {
    let found = crate::mc::check(&crate::mc::McConfig::new(2, 2)).err();
    Cell {
        name: "mc/sources=2/epochs=2".to_string(),
        schedules: 1,
        truncated: false,
        max_yields: 0,
        violation: found
            .filter(|v| v.invariant == invariant)
            .map(|v| format!("{}: {}", v.invariant, v.detail)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A couple of quick cells so `cargo test` exercises the harness
    /// end to end without the full `cargo sched` budget.
    #[test]
    fn single_shard_dfs_cell_passes() {
        let cell = shard_cell(
            1,
            Workload::Tiny,
            &Explore::Dfs { preemption_bound: Some(1), max_schedules: 400 },
        );
        assert!(cell.passed(), "{:?}", cell.violation);
        assert!(cell.schedules > 1);
    }

    #[test]
    fn single_partition_keyed_cell_passes() {
        let cell = keyed_cell(
            1,
            Workload::Full,
            &Explore::Dfs { preemption_bound: Some(1), max_schedules: 400 },
        );
        assert!(cell.passed(), "{:?}", cell.violation);
        assert!(cell.schedules > 1);
    }

    #[test]
    fn pct_cell_passes_and_is_seed_stable() {
        let mode = Explore::Pct { seed: 0x5EED, depth: 3, runs: 10 };
        let a = shard_cell(2, Workload::Full, &mode);
        assert!(a.passed(), "{:?}", a.violation);
        let b = shard_cell(2, Workload::Full, &mode);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.max_yields, b.max_yields, "same seeds must replay the same schedules");
    }

    #[test]
    fn probe_checker_rejects_bad_traces() {
        use crossbeam::sched::Probe;
        let p = |event| Probe { task: 0, event };
        // Premature barrier.
        let t = vec![
            p(ProbeEvent::AckSeen { src: 0, wm: 5 }),
            p(ProbeEvent::Barrier { wm: 5, acks: 1 }),
        ];
        assert!(check_probes(&t, 2, false).is_err());
        // Double apply.
        let t = vec![
            p(ProbeEvent::Shipped { src: 0, items: 3 }),
            p(ProbeEvent::Applied { src: 0, items: 3 }),
            p(ProbeEvent::Applied { src: 0, items: 3 }),
        ];
        assert!(check_probes(&t, 1, false).is_err());
        // Lost release.
        let t = vec![
            p(ProbeEvent::Shipped { src: 0, items: 2 }),
            p(ProbeEvent::Applied { src: 0, items: 2 }),
            p(ProbeEvent::Released { items: 1 }),
        ];
        assert!(check_probes(&t, 1, true).is_err());
        // A buffer handed back with records still in it.
        let t = vec![p(ProbeEvent::Recycled { src: 0, items: 0 })];
        assert!(check_probes(&t, 1, false).is_ok());
        let t = vec![p(ProbeEvent::Recycled { src: 0, items: 2 })];
        assert!(check_probes(&t, 1, false).is_err());
        // Healthy trace; the regressive round behind it is acked and
        // closed like any other.
        let t = vec![
            p(ProbeEvent::Shipped { src: 0, items: 2 }),
            p(ProbeEvent::Applied { src: 0, items: 2 }),
            p(ProbeEvent::AckSeen { src: 0, wm: 10 }),
            p(ProbeEvent::Barrier { wm: 10, acks: 1 }),
            p(ProbeEvent::Released { items: 2 }),
            p(ProbeEvent::AckSeen { src: 0, wm: 3 }),
            p(ProbeEvent::Barrier { wm: 3, acks: 1 }),
        ];
        assert!(check_probes(&t, 1, true).is_ok());
        // Acks of one round that disagree.
        let t = vec![
            p(ProbeEvent::AckSeen { src: 0, wm: 10 }),
            p(ProbeEvent::AckSeen { src: 1, wm: 3 }),
            p(ProbeEvent::Barrier { wm: 3, acks: 2 }),
        ];
        assert!(check_probes(&t, 2, false).is_err());
    }
}
