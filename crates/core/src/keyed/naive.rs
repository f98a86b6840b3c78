//! The map-of-operators lifting of the paper's operator to keyed streams:
//! the baseline the keyed benchmark compares against, and the fallback of
//! [`KeyedWindowOperator`](super::KeyedWindowOperator) for windows the
//! shared timeline cannot host.

use super::{KeyedConfig, KeyedStats, PerKey};
use crate::aggregator::WindowAggregator;
use crate::cast;
use crate::function::AggregateFunction;
use crate::hash::{map_heap_bytes, FxHashMap};
use crate::operator::{OperatorConfig, QueryError, WindowOperator};
use crate::result::WindowResult;
use crate::time::{Measure, Time, TIME_MIN};
use crate::window::WindowFunction;

/// Per-key tuple groups built by the naive operator's batch grouping;
/// storage recycled across batches.
type KeyGroups<A> = Vec<(u64, Vec<(Time, <A as AggregateFunction>::Input)>)>;

/// Adds one per-key operator's counters to a keyed total. `tuples`
/// counts accepted tuples, as on the shared path; the reference operator
/// counts dropped ones too.
fn add_operator_stats<A: AggregateFunction>(total: &mut KeyedStats, op: &WindowOperator<A>) {
    let s = op.stats();
    total.tuples += s.tuples.saturating_sub(s.dropped_late);
    total.ooo_tuples += s.ooo_tuples;
    total.dropped_late += s.dropped_late;
    total.windows_emitted += s.windows_emitted;
    total.updates_emitted += s.updates_emitted;
    total.sweeps += s.sweeps;
    total.sweep_windows += s.sweep_windows;
    total.shared_scan_windows += s.shared_scan_windows;
    total.late_slices += s.late_slices;
}

/// One full [`WindowOperator`] per key — the straightforward lifting of
/// the paper's operator to keyed streams. Used as the benchmark baseline
/// and as the fallback for window types the shared timeline can't host
/// (sessions, punctuation windows, count measures, non-commutative
/// functions). Correct for everything, but every watermark costs
/// O(total keys) and slice metadata is duplicated per key.
pub struct NaiveKeyedOperator<A: AggregateFunction> {
    cfg: KeyedConfig,
    /// The operator every new key starts as a clone of: the queries
    /// registered once, nothing seen, so per-key context state (e.g.
    /// session edges) starts fresh.
    prototype: WindowOperator<A>,
    keys: FxHashMap<u64, (Time, WindowOperator<A>)>,
    watermark: Time,
    /// `keys_evicted`, plus the counters the evicted keys' operators had
    /// reached (see [`NaiveKeyedOperator::stats`]).
    retired: KeyedStats,
    // Reusable scratch: batch grouping and per-key result staging.
    group_of: FxHashMap<u64, u32>,
    groups: KeyGroups<A>,
    scratch: Vec<WindowResult<A::Output>>,
}

impl<A: AggregateFunction> NaiveKeyedOperator<A> {
    /// Builds the map over `windows`. Panics where
    /// [`KeyedWindowOperator::try_new`](super::KeyedWindowOperator::try_new)
    /// returns an error: at construction, never mid-stream.
    pub fn new(f: A, windows: Vec<Box<dyn WindowFunction>>, cfg: KeyedConfig) -> Self {
        Self::try_new(f, windows, cfg).expect("keyed windows fit one out-of-order operator")
    }

    /// [`new`](Self::new), or the error of the first window the per-key
    /// operator (always out-of-order) refuses.
    pub(crate) fn try_new(
        f: A,
        windows: Vec<Box<dyn WindowFunction>>,
        cfg: KeyedConfig,
    ) -> Result<Self, QueryError> {
        let mut prototype =
            WindowOperator::new(f, OperatorConfig::out_of_order(cfg.allowed_lateness));
        for w in windows {
            prototype.add_query(w)?;
        }
        Ok(NaiveKeyedOperator {
            cfg,
            prototype,
            keys: FxHashMap::default(),
            watermark: TIME_MIN,
            retired: KeyedStats::default(),
            group_of: FxHashMap::default(),
            groups: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Number of keys currently holding state.
    pub fn live_keys(&self) -> usize {
        self.keys.len()
    }

    /// Tuple and emission counters summed over every per-key operator,
    /// those of evicted keys included, plus `keys_evicted`. The counters
    /// that describe the shared timeline stay zero.
    pub fn stats(&self) -> KeyedStats {
        let mut s = self.retired;
        for (_, op) in self.keys.values() {
            add_operator_stats(&mut s, op);
        }
        s
    }

    fn operator_for(&mut self, key: u64) -> &mut (Time, WindowOperator<A>) {
        let (prototype, watermark) = (&self.prototype, self.watermark);
        self.keys.entry(key).or_insert_with(|| {
            let mut op = prototype.clone();
            // Watermarks are broadcast: a key that first appears after the
            // stream has progressed must still apply the global late-drop
            // rule, exactly as the shared timeline does. Replaying into an
            // empty operator emits nothing.
            if watermark != TIME_MIN {
                let mut sink = Vec::new();
                op.process_watermark(watermark, &mut sink);
                debug_assert!(sink.is_empty(), "fresh operator emitted on watermark replay");
            }
            (TIME_MIN, op)
        })
    }

    fn group_batch(&mut self, batch: &[(Time, (u64, A::Input))]) {
        self.group_of.clear();
        let mut live = 0usize;
        for (ts, (key, v)) in batch {
            let gi = match self.group_of.get(key) {
                Some(&gi) => cast::idx32(gi),
                None => {
                    let gi = live;
                    if gi == self.groups.len() {
                        self.groups.push((*key, Vec::new()));
                    } else {
                        self.groups[gi].0 = *key;
                        self.groups[gi].1.clear();
                    }
                    live += 1;
                    self.group_of.insert(*key, gi as u32);
                    gi
                }
            };
            self.groups[gi].1.push((*ts, v.clone()));
        }
        for g in &mut self.groups[live..] {
            g.1.clear();
        }
        self.groups.truncate(live);
    }

    fn tag_and_drain(
        key: u64,
        scratch: &mut Vec<WindowResult<A::Output>>,
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        for r in scratch.drain(..) {
            out.push(WindowResult {
                query: r.query,
                measure: r.measure,
                range: r.range,
                value: (key, r.value),
                is_update: r.is_update,
            });
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<PerKey<A>> for NaiveKeyedOperator<A> {
    fn process(
        &mut self,
        ts: Time,
        value: (u64, A::Input),
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        let (key, v) = value;
        let mut scratch = std::mem::take(&mut self.scratch);
        let (t_last, op) = self.operator_for(key);
        *t_last = ts.max(*t_last);
        op.process(ts, v, &mut scratch);
        Self::tag_and_drain(key, &mut scratch, out);
        self.scratch = scratch;
    }

    fn process_batch(
        &mut self,
        batch: &[(Time, (u64, A::Input))],
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        self.group_batch(batch);
        let mut groups = std::mem::take(&mut self.groups);
        let mut scratch = std::mem::take(&mut self.scratch);
        for (key, tuples) in &groups {
            if tuples.is_empty() {
                continue;
            }
            let (t_last, op) = self.operator_for(*key);
            for (ts, _) in tuples {
                *t_last = (*ts).max(*t_last);
            }
            op.process_batch(tuples, &mut scratch);
            Self::tag_and_drain(*key, &mut scratch, out);
        }
        for g in &mut groups {
            g.1.clear();
        }
        self.groups = groups;
        self.scratch = scratch;
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<(u64, A::Output)>>) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        let mut scratch = std::mem::take(&mut self.scratch);
        // The O(total keys) sweep the shared operator exists to avoid.
        for (key, (_, op)) in self.keys.iter_mut() {
            op.process_watermark(wm, &mut scratch);
            Self::tag_and_drain(*key, &mut scratch, out);
        }
        if let Some(ttl) = self.cfg.idle_ttl {
            let queries = &self.prototype.queries;
            let max_extent =
                queries.max_extent(Measure::Time).max(queries.max_extent(Measure::Count));
            let retired = &mut self.retired;
            self.keys.retain(|_, (t_last, op)| {
                let idle = t_last.saturating_add(ttl) <= wm;
                let drained = t_last.saturating_add(max_extent).saturating_add(1) <= wm;
                if idle && drained {
                    retired.keys_evicted += 1;
                    add_operator_stats(retired, op);
                }
                !(idle && drained)
            });
        }
        self.scratch = scratch;
    }

    fn on_punctuation(&mut self, ts: Time, out: &mut Vec<WindowResult<(u64, A::Output)>>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for (key, (_, op)) in self.keys.iter_mut() {
            op.on_punctuation(ts, &mut scratch);
            Self::tag_and_drain(*key, &mut scratch, out);
        }
        self.scratch = scratch;
    }

    fn memory_bytes(&self) -> usize {
        // The table holds the operators inline; what they own is on top.
        let inline = std::mem::size_of::<WindowOperator<A>>();
        std::mem::size_of::<Self>()
            + map_heap_bytes(&self.keys)
            + self.keys.values().map(|(_, op)| op.memory_bytes() - inline).sum::<usize>()
    }

    fn fold_stats(&self) -> (u64, u64) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (_, (_, op)) in self.keys.iter() {
            let (h, m) = WindowAggregator::fold_stats(op);
            hits += h;
            misses += m;
        }
        (hits, misses)
    }

    fn name(&self) -> &'static str {
        "Naive keyed (map of operators)"
    }
}
