//! Keyed window aggregation: many keys, one operator (beyond the paper).
//!
//! The paper's operator ([`crate::operator::WindowOperator`]) handles one
//! logical stream. Real deployments window *keyed* streams — millions of
//! user/device/session keys, each with the same window definitions. The
//! naive lifting (one full `WindowOperator` per key in a map) duplicates
//! per-key everything: slice metadata, stream-slicer edge caches, trigger
//! bookkeeping, and — worst — makes every watermark an O(total keys) sweep.
//!
//! [`KeyedWindowOperator`] exploits the observation that for *time-measure,
//! context-free* windows (tumbling, sliding) the slice edges are a pure
//! function of the window parameters — identical for every key. One
//! [`Timeline`] holds the boundaries; everything per key is sized so that
//! a tuple costs one hash probe and one record, and a due key costs an
//! array index:
//!
//! * **Key → slot, once.** An `FxHashMap` maps a key to the slot of its
//!   `KeyState` record in a page-allocated slab. That probe is the only
//!   one on ingest and there is none on the watermark path: due buckets
//!   and idle cohorts hold slots. Evicted slots go on a free list and are
//!   handed to the next new key.
//! * **Partials in the record.** A key's ring of per-slice partials
//!   aligned to the timeline lives inline in its record while its live
//!   span fits `INLINE_SLICES`, and spills to a heap ring beyond that.
//!   Memory stays O(touched span) per key; a dense keys × live-slices
//!   matrix would explode under sliding queries with long lateness over
//!   sparse keys.
//! * **Grouping by index.** A batch is grouped by a counting sort on
//!   first-appearance group ids (a batch-epoch stamp in the map entry
//!   the probe just touched tells whether a key was already seen in this
//!   batch, so no group map is built and no record touched); times and
//!   values are scattered once into two flat columns, so each key's run
//!   is a contiguous column slice for the bulk fold kernels. Until a key
//!   repeats, tuple `i` is group `i`: the probe pass only stamps entries
//!   and records slots, and writes group ids and counts (for that prefix
//!   too) from the first repeat on. A batch in which no key repeats is
//!   its own grouping and is ingested in place, no group id written.
//!   The pair and the column batch entries share that loop, and however a
//!   key's tuples arrive they go through one step (`ingest_run`): sync,
//!   fold, and refile only if the key's floor moved.
//! * **Triggers bucketed by window end.** Every key's due time is a
//!   window end on the shared timeline, so pending keys sit in an ordered
//!   map `window end → slots`. `on_watermark` scales with the keys that
//!   actually have a due window, not with the key population. Entries are
//!   lazy: one is live iff the record's `due` still equals its bucket's
//!   end, which also makes slot reuse harmless (an entry only ever says
//!   "look at this slot at this end").
//! * **Idle keys wait in expiry cohorts.** Only a key with nothing
//!   pending costs TTL bookkeeping: the keys drained between two
//!   watermarks form a cohort of `(expiry, slot)` hints filed under its
//!   smallest expiry, and a watermark passes once over the cohorts that
//!   have come due, reading only records whose expiry has passed.
//! * **Window math once per distinct argument.** Thousands of consecutive
//!   keys ask the timeline the same question, so the covering slice on
//!   ingest, the next window end after a floor, and the windows (with
//!   their slice ranges) completed between two watermarks are each kept
//!   in a one-entry memo that answers a range, not a point: a timestamp
//!   anywhere in the slice, a floor anywhere short of the next window end
//!   (so keys born in one slice share it), an effective watermark anywhere
//!   between two window ends. A sweep enumerates windows from the slice of
//!   the key's oldest partial rather than from its emission floor, so a
//!   key returning after a long silence does not walk the gap.
//! * **The window rules are the query set's.** The queries live in one
//!   [`QuerySet`]: a key's sweep clamps and enumerates as its trigger
//!   sweep does (from the key's own floor), a key-late tuple re-fires
//!   what its late-update rule names, and the timeline evicts behind its
//!   horizon — the same windows the reference operator answers.
//!
//! Windows whose edges depend on the data (sessions, punctuation windows,
//! count measures) fall back to [`NaiveKeyedOperator`] — the map-of-
//! operators baseline, which is also what the keyed benchmark compares
//! against.

mod naive;

use std::collections::{btree_map, BTreeMap, VecDeque};

pub use naive::NaiveKeyedOperator;

use crate::aggregator::{column_run_len, WindowAggregator};
use crate::cast;
use crate::function::{AggregateFunction, FunctionProperties};
use crate::hash::{map_heap_bytes, FxHashMap};
use crate::mem::HeapSize;
use crate::operator::QueryError;
use crate::result::WindowResult;
use crate::time::{Measure, Range, StreamOrder, Time, TIME_MAX, TIME_MIN};
use crate::timeline::{shares_static_timeline, Timeline};
use crate::window::{admit, QueryId, QuerySet, WindowFunction};

/// Lifts an [`AggregateFunction`] over `V` to one over `(key, V)` pairs.
///
/// The key rides along in the partial so that one `WindowAggregator`
/// object type covers both the keyed operator and the existing pipeline
/// plumbing; `combine` asserts (in debug builds) that partials from
/// different keys are never mixed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerKey<A>(pub A);

impl<A: AggregateFunction> AggregateFunction for PerKey<A> {
    type Input = (u64, A::Input);
    type Partial = (u64, A::Partial);
    type Output = (u64, A::Output);

    fn lift(&self, v: &(u64, A::Input)) -> (u64, A::Partial) {
        (v.0, self.0.lift(&v.1))
    }

    fn combine(&self, a: (u64, A::Partial), b: &(u64, A::Partial)) -> (u64, A::Partial) {
        debug_assert_eq!(a.0, b.0, "combined partials from different keys");
        (a.0, self.0.combine(a.1, &b.1))
    }

    fn lower(&self, p: &(u64, A::Partial)) -> (u64, A::Output) {
        (p.0, self.0.lower(&p.1))
    }

    fn invert(&self, a: (u64, A::Partial), b: &(u64, A::Partial)) -> Option<(u64, A::Partial)> {
        debug_assert_eq!(a.0, b.0, "inverted partials from different keys");
        let key = a.0;
        self.0.invert(a.1, &b.1).map(|p| (key, p))
    }

    fn properties(&self) -> FunctionProperties {
        self.0.properties()
    }
}

/// Configuration of a keyed window operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyedConfig {
    /// How far behind the watermark a tuple may arrive before being
    /// dropped (same meaning as [`OperatorConfig::allowed_lateness`](crate::OperatorConfig::allowed_lateness)).
    pub allowed_lateness: Time,
    /// Evict a key's state once no tuple has arrived for it for this long
    /// (in event time, judged against the watermark) *and* it has no
    /// pending window. `None` keeps idle keys forever.
    ///
    /// Eviction is approximate in the spirit of Flink's state TTL: a
    /// tuple for an evicted key re-creates the key from scratch, so
    /// results are exactly those of an infinite-retention run only when
    /// `idle_ttl >= allowed_lateness + max window extent`.
    pub idle_ttl: Option<Time>,
}

impl KeyedConfig {
    pub fn with_allowed_lateness(mut self, lateness: Time) -> Self {
        self.allowed_lateness = lateness;
        self
    }

    pub fn with_idle_ttl(mut self, ttl: Time) -> Self {
        self.idle_ttl = Some(ttl);
        self
    }
}

/// Counters exposed by [`KeyedWindowOperator::stats`] for tests and
/// benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyedStats {
    /// Tuples accepted (in-order or late-but-allowed).
    pub tuples: u64,
    /// Tuples that arrived behind their key's max timestamp.
    pub ooo_tuples: u64,
    /// Tuples dropped for exceeding allowed lateness.
    pub dropped_late: u64,
    /// Final window results emitted.
    pub windows_emitted: u64,
    /// Update (early re-fire) results emitted for late tuples.
    pub updates_emitted: u64,
    /// Distinct keys ever created.
    pub keys_created: u64,
    /// Keys evicted by the idle TTL.
    pub keys_evicted: u64,
    /// Shared slices created on the timeline.
    pub slices_created: u64,
    /// Keys actually swept by `on_watermark` (live due-bucket entries;
    /// the name predates the buckets).
    pub heap_wakeups: u64,
    /// Due-bucket entries discarded as stale (due time superseded, or
    /// the slot handed to another key since the entry was pushed), and
    /// idle entries whose key was pending again when they came due.
    pub stale_wakeups: u64,
    /// Per-key runs folded through a bulk `fold_slice` kernel.
    pub fold_kernel_hits: u64,
    /// Per-key runs folded through the default lift/combine loop.
    pub fold_kernel_misses: u64,
    /// Per-key operator sweeps, their windows, the windows the store's
    /// shared scan answered, and the slice writes of late-batch flushes
    /// (see [`OperatorStats`]). Fallback mode only: the shared timeline
    /// has its own sweep and writes late tuples one by one.
    ///
    /// [`OperatorStats`]: crate::operator::OperatorStats
    pub sweeps: u64,
    pub sweep_windows: u64,
    pub shared_scan_windows: u64,
    pub late_slices: u64,
}

// ---------------------------------------------------------------------------
// Per-key state
// ---------------------------------------------------------------------------

/// Live slices a key's ring holds inside its slab record before it
/// spills to the heap. Two covers every tumbling query at zero lateness:
/// the open slice, plus the one whose window the next watermark fires.
const INLINE_SLICES: usize = 2;

/// A dense ring of per-slice partials (`None` = no tuples in that
/// slice), inline while short. Invariant of the inline form: slots at or
/// past `len` are `None`. The inline length is a word, not the byte it
/// needs: a load wider than the store it reads cannot be forwarded from
/// the store buffer, and every `len()` after a `drop_front` would wait
/// for the byte to reach the cache. With word-aligned partials the ring
/// is the same size either way: the alignment padded the byte to a word.
enum Ring<P> {
    Inline { len: usize, slots: [Option<P>; INLINE_SLICES] },
    Spilled(VecDeque<Option<P>>),
}

impl<P> Ring<P> {
    fn new() -> Self {
        Ring::Inline { len: 0, slots: std::array::from_fn(|_| None) }
    }

    fn len(&self) -> usize {
        match self {
            Ring::Inline { len, .. } => *len,
            Ring::Spilled(d) => d.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, i: usize) -> Option<&P> {
        match self {
            Ring::Inline { slots, .. } => slots[i].as_ref(),
            Ring::Spilled(d) => d[i].as_ref(),
        }
    }

    fn slot_mut(&mut self, i: usize) -> &mut Option<P> {
        match self {
            Ring::Inline { slots, .. } => &mut slots[i],
            Ring::Spilled(d) => &mut d[i],
        }
    }

    /// Drops the first `k <= len` slots. A spilled ring that drains
    /// returns its allocation and goes back inline; a shorter one stays
    /// spilled, so a key whose span hovers around the inline capacity
    /// does not allocate on every other touch.
    fn drop_front(&mut self, k: usize) {
        debug_assert!(k <= self.len(), "dropping {k} of {} ring slots", self.len());
        match self {
            Ring::Inline { len, slots } => {
                let n = *len;
                for i in 0..n {
                    slots[i] = if i + k < n { slots[i + k].take() } else { None };
                }
                *len = n - k;
            }
            Ring::Spilled(d) if k == d.len() => *self = Ring::new(),
            Ring::Spilled(d) => {
                d.drain(..k);
            }
        }
    }

    /// Applies `edit` to the heap form of this ring, spilling the
    /// inline slots first.
    fn edit_spilled(&mut self, edit: impl FnOnce(&mut VecDeque<Option<P>>)) {
        match self {
            Ring::Spilled(d) => edit(d),
            Ring::Inline { len, slots } => {
                let mut d = slots[..*len].iter_mut().map(Option::take).collect();
                edit(&mut d);
                *self = Ring::Spilled(d);
            }
        }
    }

    /// Prepends `k` empty slots.
    fn grow_front(&mut self, k: usize) {
        if let Ring::Inline { len, slots } = self {
            let n = *len + k;
            if n <= INLINE_SLICES {
                for i in (k..n).rev() {
                    slots[i] = slots[i - k].take();
                }
                *len = n;
                return;
            }
        }
        self.edit_spilled(|d| {
            for _ in 0..k {
                d.push_front(None);
            }
        });
    }

    /// Appends empty slots up to a total of `n >= len`.
    fn grow_back(&mut self, n: usize) {
        if let Ring::Inline { len, .. } = self {
            if n <= INLINE_SLICES {
                *len = n;
                return;
            }
        }
        self.edit_spilled(|d| d.resize_with(n, || None));
    }
}

impl<P: HeapSize> Ring<P> {
    /// Bytes owned outside the record: the spilled allocation, plus
    /// whatever the partials themselves own.
    fn heap_bytes(&self) -> usize {
        match self {
            Ring::Inline { slots, .. } => slots.iter().flatten().map(HeapSize::heap_bytes).sum(),
            Ring::Spilled(d) => d.heap_bytes(),
        }
    }
}

/// `KeyState::due` with no reachable pending window; no window ends there.
const NOT_DUE: Time = TIME_MIN;

/// One key's windowing state — the slab record: a dense ring of per-slice
/// partials aligned to the shared [`Timeline`], plus the scalar trigger
/// bookkeeping the reference operator keeps per stream.
struct KeyState<A: AggregateFunction> {
    key: u64,
    /// Timeline generation the ring's global indices were issued under
    /// (the low 32 bits of [`Timeline::generation`]; `on_watermark` keeps
    /// their wrap harmless): a mismatch means the timeline was rebuilt
    /// from empty since this key's last touch and every slot must be
    /// dropped, because the surviving indices would be misread under the
    /// new anchor.
    generation: u32,
    /// Whether `floor` is an emission floor yet (see there).
    swept: bool,
    /// Whether an idle cohort holds an entry for this slot: at most one,
    /// however often the key drains and returns before it comes due.
    idle_filed: bool,
    /// Global slice index of ring slot 0; slot `i` aggregates this key's
    /// tuples in global slice `first + i`.
    first: i64,
    ring: Ring<A::Partial>,
    /// Until `swept`: the timestamp of this key's earliest tuple, where
    /// the first sweep starts (`TIME_MAX` on a record that holds no key).
    /// From then on: the watermark position up to which windows were
    /// already emitted, mirroring the reference operator's `last_trigger`.
    floor: Time,
    /// Timestamp of this key's latest tuple (the key's `max_ts`);
    /// `TIME_MIN` on a record that holds no key.
    t_last: Time,
    /// Global watermark as of this key's last touch (ingest or sweep).
    /// The reference operator advances `last_trigger` to the clamped
    /// watermark on *every* watermark, fired or not; bucket-gated keys
    /// catch up lazily via [`catch_up_floor`] — sound because `t_last`
    /// cannot change between touches.
    wm_seen: Time,
    /// Earliest pending window end, or [`NOT_DUE`] if none is reachable
    /// (as on a record that holds no key). The entry for this slot in
    /// that end's due bucket is the live one; entries in other buckets
    /// are stale.
    due: Time,
}

impl<A: AggregateFunction> KeyState<A> {
    /// A record holding no key: what a free slot contains, and what a
    /// new key starts from.
    fn vacant() -> Self {
        KeyState {
            key: 0,
            generation: 0,
            swept: false,
            idle_filed: false,
            first: 0,
            ring: Ring::new(),
            floor: TIME_MAX,
            t_last: TIME_MIN,
            wm_seen: TIME_MIN,
            due: NOT_DUE,
        }
    }

    /// Moves the emission floor up to `to`; the first call ends the need
    /// for the key's earliest timestamp.
    fn raise_floor(&mut self, to: Time) {
        self.floor = if self.swept { self.floor.max(to) } else { to };
        self.swept = true;
    }

    /// Files this drained key as idle until `t_last + ttl`, unless a
    /// cohort already holds an entry for its slot.
    fn file_idle(&mut self, slot: u32, ttl: Option<Time>, open: &mut Vec<(Time, u32)>) {
        if let (Some(ttl), false) = (ttl, self.idle_filed) {
            self.idle_filed = true;
            open.push((self.t_last.saturating_add(ttl), slot));
        }
    }

    /// Drops ring slots whose backing slices were evicted: all of them if
    /// the timeline regrew from empty since this key's last touch (the
    /// index↔time anchor moved, so surviving slots would be misread —
    /// possibly *inside* live windows, since the new base can sit below
    /// the stale indices), otherwise just the slots whose global index
    /// fell below the timeline base. Either drop is lossless: eviction
    /// only covers slices no still-fireable window or update can reach.
    /// A drained ring re-anchors at the base. Whether it drained is known
    /// from the count dropped; asking the ring would reload the length
    /// `drop_front` has just stored.
    fn trim_to(&mut self, timeline: &Timeline) {
        let generation = timeline.generation() as u32;
        if self.generation != generation {
            self.generation = generation;
            self.ring = Ring::new();
            self.first = timeline.base();
            return;
        }
        let base = timeline.base();
        if self.first < base {
            let len = self.ring.len();
            let k = cast::gidx(base, self.first).min(len);
            self.ring.drop_front(k);
            self.first = if k == len { base } else { self.first + cast::to_i64(k) };
        }
    }

    /// Combines `p` into the slot for global slice `g`, growing the ring
    /// in either direction as needed. Existing-before-new preserves
    /// arrival order within a slice (only observable for non-commutative
    /// functions, which the shared path doesn't host — but cheap to keep
    /// right).
    fn add_at(&mut self, g: i64, p: A::Partial, f: &A) {
        if self.ring.is_empty() {
            self.first = g;
        }
        if g < self.first {
            self.ring.grow_front(cast::gidx(self.first, g));
            self.first = g;
        }
        let idx = cast::gidx(g, self.first);
        if idx >= self.ring.len() {
            self.ring.grow_back(idx + 1);
        }
        let slot = self.ring.slot_mut(idx);
        *slot = Some(match slot.take() {
            Some(existing) => f.combine(existing, &p),
            None => p,
        });
    }

    /// Aggregate of this key's partials across global slices `[gl, gr)`,
    /// or `None` if the key has no tuples there.
    fn query(&self, gl: i64, gr: i64, f: &A) -> Option<A::Partial> {
        let lo = gl.max(self.first);
        let hi = gr.min(self.first + cast::to_i64(self.ring.len()));
        let mut acc: Option<A::Partial> = None;
        for i in lo..hi {
            if let Some(p) = self.ring.slot(cast::gidx(i, self.first)) {
                acc = Some(match acc {
                    Some(a) => f.combine(a, p),
                    None => p.clone(),
                });
            }
        }
        acc
    }
}

/// Records per slab page. Pages are allocated whole, so the slab's
/// allocation slack is at most one page (a growing `Vec` of records
/// would carry up to 2×); small enough that a hundred-key operator pays
/// for little it does not use.
const PAGE_SHIFT: u32 = 4;
const PAGE: usize = 1 << PAGE_SHIFT;

/// Page-allocated record storage addressed by a dense `u32` slot, with
/// a free list of released slots. A page is allocated whole, its records
/// vacant until handed out; a released record stays in place (the caller
/// resets it) until its slot is handed out again.
struct Slab<T> {
    pages: Vec<Box<[T; PAGE]>>,
    /// Slots handed out so far, released ones included.
    used: usize,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab { pages: Vec::new(), used: 0, free: Vec::new() }
    }

    #[cfg(any(test, feature = "audit"))]
    fn get(&self, slot: u32) -> &T {
        let i = cast::idx32(slot);
        &self.pages[i >> PAGE_SHIFT][i & (PAGE - 1)]
    }

    fn get_mut(&mut self, slot: u32) -> &mut T {
        let i = cast::idx32(slot);
        &mut self.pages[i >> PAGE_SHIFT][i & (PAGE - 1)]
    }

    /// A released slot if there is one, otherwise the next unused one,
    /// adding a page of `vacant()` records when the last is full.
    fn alloc(&mut self, vacant: impl Fn() -> T) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        if self.used == self.pages.len() * PAGE {
            self.pages.push(Box::new(std::array::from_fn(|_| vacant())));
        }
        self.used += 1;
        cast::slot32(self.used - 1)
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Every record of every page: live, released and not yet handed
    /// out.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.iter())
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.pages.iter_mut().flat_map(|p| p.iter_mut())
    }

    /// Bytes of the pages, the page table and the free list.
    fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Box<[T; PAGE]>>()
            + self.pages.len() * std::mem::size_of::<[T; PAGE]>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------------
// Shared-timeline keyed operator
// ---------------------------------------------------------------------------

/// A range memo with no answer: the empty range, which covers no probe.
const NO_RANGE: (Time, Time) = (0, 0);

/// Earliest window end strictly after `probe` across all queries, or
/// `TIME_MAX` if none is known. `memo` holds the last `(probe, answer)`.
/// No window ends inside `(probe, answer)`, so it answers every probe in
/// `[probe, answer)`: the keys born in one slice, each asking from its
/// own first timestamp, share it with the keys one watermark sweeps.
fn union_next_end(queries: &QuerySet, probe: Time, memo: &mut (Time, Time)) -> Time {
    if !(memo.0 <= probe && probe < memo.1) {
        *memo = (probe, queries.next_window_end(probe));
    }
    memo.1
}

/// Advances a key's emission floor over watermarks that passed while the
/// key was bucket-gated (not due, so nothing could have fired). The
/// reference operator advances `last_trigger` to the clamped watermark on
/// *every* watermark delivery; without this catch-up, a late tuple
/// landing below the reference's floor would be re-fired as a regular
/// window at the key's next sweep instead of staying update-only.
/// Sound to do lazily because a key's `t_last` cannot change between
/// touches: any tuple arrival is itself a touch.
fn catch_up_floor<A: AggregateFunction>(st: &mut KeyState<A>, wm: Time, queries: &QuerySet) {
    if wm > st.wm_seen {
        if st.t_last != TIME_MIN && wm != TIME_MIN {
            st.raise_floor(queries.clamp(wm, st.t_last));
        }
        st.wm_seen = wm;
    }
}

/// Recomputes a key's earliest *reachable* pending window end. A window
/// end past `t_last + max_extent` can never contain any of this key's
/// tuples, so the key is drained ([`NOT_DUE`]) and needs no bucket entry.
fn due_of<A: AggregateFunction>(
    st: &KeyState<A>,
    queries: &QuerySet,
    memo: &mut (Time, Time),
) -> Time {
    if st.t_last == TIME_MIN {
        return NOT_DUE;
    }
    let cand = union_next_end(queries, st.floor, memo);
    if cand <= st.t_last.saturating_add(queries.max_extent(Measure::Time)) {
        cand
    } else {
        NOT_DUE
    }
}

/// Files `entries` (emptying it) under `at` — a window end for slots due
/// then, the smallest expiry for an idle cohort — after the entries
/// already there.
fn file_bucket<T>(buckets: &mut BTreeMap<Time, Vec<T>>, at: Time, entries: &mut Vec<T>) {
    if entries.is_empty() {
        return;
    }
    match buckets.entry(at) {
        btree_map::Entry::Vacant(e) => {
            e.insert(std::mem::take(entries));
        }
        btree_map::Entry::Occupied(mut e) => e.get_mut().append(entries),
    }
}

/// Files `slot` as due at `due` through `open`, the filings of one call:
/// consecutive ones mostly share the due time, so they reach `buckets` as
/// one map operation, in filing order.
#[inline]
fn file_due(
    buckets: &mut BTreeMap<Time, Vec<u32>>,
    open: &mut (Time, Vec<u32>),
    due: Time,
    slot: u32,
) {
    if due != open.0 {
        file_bucket(buckets, open.0, &mut open.1);
        open.0 = due;
    }
    open.1.push(slot);
}

/// Bytes of a map of buckets: a node entry and the bucket's allocation
/// each.
fn buckets_bytes<T>(buckets: &BTreeMap<Time, Vec<T>>) -> usize {
    let entry = std::mem::size_of::<(Time, Vec<T>)>();
    buckets.values().map(|b| entry + b.capacity() * std::mem::size_of::<T>()).sum()
}

/// The windows whose end lies in `(from, wm_eff]`, each with the global
/// slice range it covers — the answer every key swept over that span
/// shares. `span` is `(from, lo, hi)`: the last window end enumerated (or
/// `from`) and the next one after `wm_eff`, so the list answers every
/// effective watermark in `lo..hi` — keys clamped by their own `t_last`
/// differ in `wm_eff` but mostly not in the windows it completes. `asked`
/// is the `(first, floor)` of the last key the list answered up to the
/// watermark itself: a key that asks the same question reads the list
/// without deriving `from`. Valid for one `on_watermark` call only (the
/// timeline must not change under it).
#[derive(Default)]
struct SweepMemo {
    span: (Time, Time, Time),
    asked: Option<(i64, Time)>,
    windows: Vec<(QueryId, Range, i64, i64)>,
}

/// Emits this key's aggregate of each of `windows` it has tuples in.
fn emit_windows<A: AggregateFunction>(
    st: &KeyState<A>,
    f: &A,
    windows: &[(QueryId, Range, i64, i64)],
    stats: &mut KeyedStats,
    out: &mut Vec<WindowResult<(u64, A::Output)>>,
) {
    for &(id, range, gl, gr) in windows {
        if let Some(p) = st.query(gl, gr, f) {
            stats.windows_emitted += 1;
            out.push(WindowResult::new(id, Measure::Time, range, (st.key, f.lower(&p))));
        }
    }
}

/// Sweeps one key's completed windows up to watermark `wm`, as the query
/// set's trigger sweep does for the reference operator (the data clamp at
/// the key's `t_last`, the first-sweep floor, the windows in query order)
/// but from the key's own floor.
#[allow(clippy::too_many_arguments)]
fn sweep_key<A: AggregateFunction>(
    st: &mut KeyState<A>,
    f: &A,
    queries: &mut QuerySet,
    timeline: &Timeline,
    wm: Time,
    memo: &mut SweepMemo,
    stats: &mut KeyedStats,
    out: &mut Vec<WindowResult<(u64, A::Output)>>,
) {
    if st.t_last == TIME_MIN {
        return;
    }
    // Don't emit windows that could still receive in-order tuples for
    // this key — same clamp as the reference operator.
    let wm_eff = queries.clamp(wm, st.t_last);
    let prev = if st.swept { st.floor } else { st.floor.min(wm_eff) };
    if wm_eff > prev {
        if !st.ring.is_empty() {
            // Enumerate from the slice of the key's oldest partial, not
            // from the floor: a window ending at or before that slice's
            // start holds none of this key's tuples, and no window ends
            // inside a slice, so the results are the same — but a key
            // returning after a long silence does not walk every window
            // of the gap, and keys whose floors differ share the memo.
            let oldest = timeline.get(cast::gidx(st.first, timeline.base()));
            let from = if prev < oldest.end { oldest.start } else { prev };
            let (asked_from, lo, hi) = memo.span;
            let hit = asked_from == from && lo <= wm_eff && wm_eff < hi;
            if !hit {
                memo.windows.clear();
                let mut lo = from;
                queries.fire((from, wm_eff), (0, 0), |id, _, run| {
                    for range in run.windows() {
                        lo = lo.max(range.end);
                        if let Some((gl, gr)) = timeline.global_range(range) {
                            memo.windows.push((id, range, gl, gr));
                        }
                    }
                });
                memo.span = (from, lo, union_next_end(queries, wm_eff, &mut { NO_RANGE }));
                memo.asked = None;
            }
            if wm_eff == wm {
                memo.asked = Some((st.first, prev));
            }
            emit_windows(st, f, &memo.windows, stats, out);
        }
        st.raise_floor(wm_eff);
    }
}

/// Re-emits the fired windows a late tuple at `ts` changes under
/// watermark `wm` (the query set's late-update rule) as updates.
/// Out of line: rare, and its closures crowd the per-key step's registers.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn emit_updates_key<A: AggregateFunction>(
    st: &KeyState<A>,
    f: &A,
    queries: &mut QuerySet,
    timeline: &Timeline,
    ts: Time,
    wm: Time,
    stats: &mut KeyedStats,
    out: &mut Vec<WindowResult<(u64, A::Output)>>,
) {
    queries.updates(ts, wm, None, |id, _, run| {
        for range in run.windows() {
            let Some((gl, gr)) = timeline.global_range(range) else { continue };
            if let Some(p) = st.query(gl, gr, f) {
                stats.updates_emitted += 1;
                out.push(WindowResult::update(id, Measure::Time, range, (st.key, f.lower(&p))));
            }
        }
    });
}

/// Reusable batch-grouping scratch (not operator state: excluded from
/// `memory_bytes`).
struct BatchScratch<V> {
    /// Group id of each tuple, in arrival order.
    gids: Vec<u32>,
    /// Slot of each group, in first-appearance order.
    group_slots: Vec<u32>,
    /// Per group: its tuple count, then (after the prefix sum and the
    /// scatter) the end of its run in the columns.
    ends: Vec<u32>,
    times: Vec<Time>,
    values: Vec<V>,
}

impl<V> BatchScratch<V> {
    fn new() -> Self {
        BatchScratch {
            gids: Vec::new(),
            group_slots: Vec::new(),
            ends: Vec::new(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// What the key map holds for a live key: where its record is, and —
/// so that grouping a batch costs no probe beyond this one and never
/// touches the record — its place in the batch being grouped.
#[derive(Clone, Copy)]
struct KeyEntry {
    slot: u32,
    /// Batch epoch this key was last grouped under, and its
    /// first-appearance group id in that batch.
    stamp: u32,
    group: u32,
}

/// The shared-timeline engine behind [`KeyedWindowOperator`]. Hosts only
/// time-measure, context-free windows with static edges and commutative
/// aggregate functions (checked by [`KeyedWindowOperator::new`]).
struct SharedKeyed<A: AggregateFunction> {
    f: A,
    cfg: KeyedConfig,
    queries: QuerySet,
    timeline: Timeline,
    /// Key → slot of its record in `slab` (plus its place in the batch
    /// being grouped); holds exactly the live keys.
    slot_of: FxHashMap<u64, KeyEntry>,
    slab: Slab<KeyState<A>>,
    /// Pending keys by due window end. Entries are lazy: a slot's live
    /// entry is the one in the bucket matching `KeyState::due`; all
    /// others are discarded as stale when their bucket comes due.
    due_buckets: BTreeMap<Time, Vec<u32>>,
    /// The call's filings ([`file_due`]); empty between calls, so not state.
    due_open: (Time, Vec<u32>),
    /// Idle cohorts of `(filed expiry, slot)` by their smallest expiry
    /// (only under an idle TTL). An entry is a hint to look at its slot
    /// once its expiry has passed: eviction is decided from the record.
    idle: BTreeMap<Time, Vec<(Time, u32)>>,
    /// The open cohort: the keys drained since the last watermark.
    idle_open: Vec<(Time, u32)>,
    /// Records read by the idle pass of `on_watermark`.
    #[cfg(test)]
    idle_reads: u64,
    watermark: Time,
    stats: KeyedStats,
    next_end_memo: (Time, Time),
    /// The slice that covered the last ingested timestamp, as `(start,
    /// end, global index)`. Global indices survive growth in either
    /// direction but not eviction, so `on_watermark` clears it.
    cover_memo: (Time, Time, i64),
    sweep_memo: SweepMemo,
    /// Stamp of the batch being grouped; never 0, which is what a new
    /// key's entry carries.
    batch_epoch: u32,
    scratch: BatchScratch<A::Input>,
}

/// What `memory_bytes` is the sum of.
struct MemoryBreakdown {
    fixed: usize,
    timeline: usize,
    slab: usize,
    map: usize,
    buckets: usize,
    ttl: usize,
    rings: usize,
}

impl MemoryBreakdown {
    fn total(&self) -> usize {
        self.fixed + self.timeline + self.slab + self.map + self.buckets + self.ttl + self.rings
    }
}

impl<A: AggregateFunction> SharedKeyed<A> {
    fn new(f: A, windows: Vec<Box<dyn WindowFunction>>, cfg: KeyedConfig) -> Self {
        let mut queries = QuerySet::default();
        for w in windows {
            queries.add(w);
        }
        SharedKeyed {
            f,
            cfg,
            queries,
            timeline: Timeline::default(),
            slot_of: FxHashMap::default(),
            slab: Slab::new(),
            due_buckets: BTreeMap::new(),
            due_open: (NOT_DUE, Vec::new()),
            idle: BTreeMap::new(),
            idle_open: Vec::new(),
            #[cfg(test)]
            idle_reads: 0,
            watermark: TIME_MIN,
            stats: KeyedStats::default(),
            next_end_memo: NO_RANGE,
            cover_memo: (0, 0, 0),
            sweep_memo: SweepMemo::default(),
            batch_epoch: 0,
            scratch: BatchScratch::new(),
        }
    }

    /// Creates `key`, which the map just missed, with its map entry
    /// complete — so that a birth costs that miss and one insert, not a
    /// third probe for an entry to write the batch stamp through.
    fn birth(&mut self, key: u64, stamp: u32, group: u32) -> u32 {
        let slot = self.slab.alloc(KeyState::vacant);
        self.slab.get_mut(slot).key = key;
        self.stats.keys_created += 1;
        self.slot_of.insert(key, KeyEntry { slot, stamp, group });
        slot
    }

    /// One probe of the batch stamped `epoch`: at `key`'s first tuple in
    /// it, gives the key the next group (its slot pushed to
    /// `group_slots`) and returns `None`; at any later one, returns the
    /// group it was given. (`get_mut`, not `entry`: for a key that exists
    /// it is measurably cheaper.)
    #[inline(always)]
    fn group_of(&mut self, key: u64, epoch: u32, group_slots: &mut Vec<u32>) -> Option<u32> {
        let group = cast::slot32(group_slots.len());
        let slot = match self.slot_of.get_mut(&key) {
            Some(e) if e.stamp == epoch => return Some(e.group),
            Some(e) => {
                (e.stamp, e.group) = (epoch, group);
                e.slot
            }
            None => self.birth(key, epoch, group),
        };
        group_slots.push(slot);
        None
    }

    /// The per-key step of ingest: one key's tuples, a column slice in
    /// arrival order and mostly of one. *Sync* the record with what the
    /// watermarks since its last touch did to the timeline and its floor;
    /// *fold* each tuple into the slice covering it, key-in-order tuples
    /// as the longest run inside one slice; *refile* the key if its due
    /// time can have moved. [`due_of`] is a function of `floor`, and of
    /// `t_last` only as a bound that a growing `t_last` cannot newly fail,
    /// so a pending key whose floor was left alone keeps its bucket entry.
    fn ingest_run(
        &mut self,
        slot: u32,
        times: &[Time],
        values: &[A::Input],
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        let st = self.slab.get_mut(slot);
        let filed_floor = st.floor;
        st.trim_to(&self.timeline);
        catch_up_floor(st, self.watermark, &self.queries);

        let wm = self.watermark;
        // Windows up to the key's floor have fired (it stays put here):
        // below it a tuple is late even at or above `t_last`, since the
        // data clamp may have fired its window empty.
        let fired = if st.swept { st.floor } else { TIME_MIN };
        let mut i = 0;
        while i < times.len() {
            let ts = times[i];
            // The admission rule, ahead of the key's `t_last` and floor. A
            // run is monotone, so its head decides for all of it.
            let late = ts < st.t_last;
            self.stats.ooo_tuples += u64::from(late);
            let ahead = st.t_last.max(fired);
            let admitted = admit(StreamOrder::OutOfOrder, ts, ahead, wm, self.cfg.allowed_lateness);
            let Some(revises) = admitted.revises() else {
                self.stats.dropped_late += 1;
                i += 1;
                continue;
            };
            let (g, end) = match self.cover_memo {
                (start, end, g) if start <= ts && ts < end => (g, end),
                _ => {
                    let pos = self.timeline.ensure_covering(
                        ts,
                        &self.queries,
                        &mut self.stats.slices_created,
                    );
                    let slice = self.timeline.get(pos);
                    let g = self.timeline.base() + cast::to_i64(pos);
                    self.cover_memo = (slice.start, slice.end, g);
                    // An empty timeline was rebirthed, under a new
                    // generation this key must sync to.
                    st.trim_to(&self.timeline);
                    (g, slice.end)
                }
            };
            // A run goes to `fold_slice` straight from the column; a run
            // of one is a lift, counted as a miss (a key-late tuple is
            // not counted as a run).
            let n = if late || revises || i + 1 == times.len() {
                1
            } else {
                column_run_len(&times[i..], end)
            };
            debug_assert!(n >= 1);
            let p = if n == 1 {
                self.stats.fold_kernel_misses += u64::from(!late);
                Some(self.f.lift(&values[i]))
            } else {
                if self.f.has_fold_kernel() {
                    self.stats.fold_kernel_hits += 1;
                } else {
                    self.stats.fold_kernel_misses += 1;
                }
                self.f.fold_slice(&values[i..i + n])
            };
            // An empty fold adds nothing.
            if let Some(p) = p {
                st.add_at(g, p, &self.f);
            }
            if !st.swept {
                st.floor = st.floor.min(ts);
            }
            self.stats.tuples += cast::to_u64(n);
            if !late {
                st.t_last = times[i + n - 1];
            }
            if revises {
                emit_updates_key(
                    st,
                    &self.f,
                    &mut self.queries,
                    &self.timeline,
                    ts,
                    wm,
                    &mut self.stats,
                    out,
                );
            }
            i += n;
        }

        let old_due = st.due;
        if old_due != NOT_DUE && st.floor == filed_floor {
            return;
        }
        st.due = due_of(st, &self.queries, &mut self.next_end_memo);
        if st.due == NOT_DUE {
            st.file_idle(slot, self.cfg.idle_ttl, &mut self.idle_open);
        } else if st.due != old_due {
            file_due(&mut self.due_buckets, &mut self.due_open, st.due, slot);
        }
    }

    /// Hands the call's last filings to their bucket.
    fn flush_due(&mut self) {
        file_bucket(&mut self.due_buckets, self.due_open.0, &mut self.due_open.1);
    }

    /// The per-tuple step: one probe, one record.
    fn ingest_one(
        &mut self,
        ts: Time,
        key: u64,
        value: &A::Input,
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        let slot = match self.slot_of.get(&key) {
            Some(e) => e.slot,
            None => self.birth(key, 0, 0),
        };
        self.ingest_run(slot, &[ts], std::slice::from_ref(value), out);
        self.flush_due();
    }

    /// Ingests a batch of `(time, key, value)` tuples: groups it by key,
    /// preserving arrival order within each key, and ingests one run per
    /// key in first-appearance order. Both batch entries hand their
    /// layout (pairs, or parallel columns) over as this one iterator, so
    /// neither materialises the other's representation. A batch in which
    /// no key repeats is its own grouping and is ingested in place.
    fn ingest_batch<'a, I>(&mut self, tuples: I, out: &mut Vec<WindowResult<(u64, A::Output)>>)
    where
        I: ExactSizeIterator<Item = (Time, u64, &'a A::Input)> + Clone,
    {
        let n = tuples.len();
        let Some((ts, key, first)) = tuples.clone().next() else { return };
        if n == 1 {
            return self.ingest_one(ts, key, first, out);
        }
        self.batch_epoch = self.batch_epoch.wrapping_add(1);
        if self.batch_epoch == 0 {
            // The stamp wrapped: forget every old stamp, or a key last
            // grouped 2^32 batches ago would look grouped in this one.
            for e in self.slot_of.values_mut() {
                e.stamp = 0;
            }
            self.batch_epoch = 1;
        }
        let epoch = self.batch_epoch;
        let mut s = std::mem::replace(&mut self.scratch, BatchScratch::new());

        // Probe: one map lookup per tuple; the entry says whether its
        // key already has a group in this batch. Until a key repeats,
        // tuple `i` is group `i`, so the prefix only stamps and records
        // slots; group ids and counts are written from the first repeat
        // on, for the prefix too.
        s.group_slots.clear();
        let mut rest = tuples.clone();
        let repeat = loop {
            let Some((_, key, _)) = rest.next() else { break None };
            if let Some(group) = self.group_of(key, epoch, &mut s.group_slots) {
                break Some((key, group));
            }
        };

        if let Some(mut last) = repeat {
            s.gids.clear();
            s.gids.extend(0..cast::slot32(s.group_slots.len()));
            s.ends.clear();
            s.ends.resize(s.group_slots.len(), 1);
            s.gids.push(last.1);
            s.ends[cast::idx32(last.1)] += 1;
            for (_, key, _) in rest {
                // A tuple of the same key as its predecessor needs no probe.
                if key != last.0 {
                    let group = match self.group_of(key, epoch, &mut s.group_slots) {
                        Some(group) => group,
                        None => {
                            s.ends.push(0);
                            cast::slot32(s.ends.len() - 1)
                        }
                    };
                    last = (key, group);
                }
                s.gids.push(last.1);
                s.ends[cast::idx32(last.1)] += 1;
            }

            // Counting sort on group id: counts → run starts → (after the
            // scatter) run ends. Both columns are scattered in one pass,
            // so each key's run ends up contiguous.
            let mut start = 0u32;
            for e in &mut s.ends {
                let count = *e;
                *e = start;
                start += count;
            }
            s.times.clear();
            s.times.resize(n, 0);
            // Clones of the first value, only so there are initialised
            // slots to scatter into.
            s.values.resize(n, first.clone());
            let (ends, times, values) = (&mut s.ends[..], &mut s.times[..], &mut s.values[..]);
            for (&g, (ts, _, v)) in s.gids.iter().zip(tuples) {
                let end = &mut ends[cast::idx32(g)];
                let pos = cast::idx32(*end);
                times[pos] = ts;
                values[pos] = v.clone();
                *end += 1;
            }

            let mut lo = 0;
            for (&slot, &end) in s.group_slots.iter().zip(&s.ends) {
                let hi = cast::idx32(end);
                self.ingest_run(slot, &s.times[lo..hi], &s.values[lo..hi], out);
                lo = hi;
            }
            s.values.clear();
        } else {
            for (&slot, (ts, _, v)) in s.group_slots.iter().zip(tuples) {
                self.ingest_run(slot, &[ts], std::slice::from_ref(v), out);
            }
        }
        self.scratch = s;
        self.flush_due();
        #[cfg(feature = "audit")]
        self.assert_invariants(false);
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<(u64, A::Output)>>) {
        if wm <= self.watermark {
            return;
        }
        // Sweep only keys whose earliest pending window end is due; the
        // ones still pending afterwards are filed through `due_open`.
        self.sweep_memo.span = (0, 0, 0);
        self.sweep_memo.asked = None;
        let generation = self.timeline.generation() as u32;
        while let Some(first) = self.due_buckets.first_entry() {
            if *first.key() > wm {
                break;
            }
            let (end, bucket) = first.remove_entry();
            for &slot in &bucket {
                let st = self.slab.get_mut(slot);
                if st.due != end {
                    self.stats.stale_wakeups += 1;
                    continue;
                }
                self.stats.heap_wakeups += 1;
                // The regular key: in step with the timeline and the
                // previous watermark (`self.watermark`, still), asking what
                // the memo last answered up to `wm`, and reaching the end
                // after the memo's span, so that `wm` is not clamped. Its
                // sync is a no-op, its windows are the memo's, that end is
                // its due time. Any other key is swept in full, which is
                // what refreshes the memo.
                let next_end = self.sweep_memo.span.2;
                if st.swept
                    && st.wm_seen == self.watermark
                    && st.generation == generation
                    && self.sweep_memo.asked == Some((st.first, st.floor))
                    && next_end <= st.t_last.saturating_add(self.queries.max_extent(Measure::Time))
                {
                    emit_windows(st, &self.f, &self.sweep_memo.windows, &mut self.stats, out);
                    st.floor = wm;
                    st.due = next_end;
                } else {
                    st.trim_to(&self.timeline);
                    // Catch the floor up over watermarks skipped while gated.
                    catch_up_floor(st, self.watermark, &self.queries);
                    sweep_key(
                        st,
                        &self.f,
                        &mut self.queries,
                        &self.timeline,
                        wm,
                        &mut self.sweep_memo,
                        &mut self.stats,
                        out,
                    );
                    st.due = due_of(st, &self.queries, &mut self.next_end_memo);
                }
                st.wm_seen = wm;
                if st.due == NOT_DUE {
                    st.file_idle(slot, self.cfg.idle_ttl, &mut self.idle_open);
                } else {
                    file_due(&mut self.due_buckets, &mut self.due_open, st.due, slot);
                }
            }
        }
        self.flush_due();
        // Kept, a sweep's capacity would pass to the next batch's bucket.
        self.due_open.1 = Vec::new();
        self.watermark = wm;

        // Evict shared slices no late tuple can reach any more: the
        // earliest slice still needed starts past the set's horizon.
        let boundary = self.queries.horizon(wm, self.cfg.allowed_lateness);
        self.timeline.evict_to(boundary.saturating_add(1));
        self.cover_memo = (0, 0, 0);

        // An empty timeline starts a new generation at its next tuple.
        // Before the 32 bits the records keep of it wrap, drop every ring
        // (all dead: no slice is left), or a key asleep for 2^32
        // generations would find its stamp current and its slots misread.
        if self.timeline.is_empty() && self.timeline.generation() as u32 == u32::MAX {
            self.slab.iter_mut().for_each(|st| st.ring = Ring::new());
        }

        if let Some(ttl) = self.cfg.idle_ttl {
            self.evict_idle(wm, ttl);
        }
        #[cfg(feature = "audit")]
        self.assert_invariants(true);
    }

    /// The TTL pass of a watermark: the open cohort, then every cohort
    /// with an expiry at or below `wm`. An entry whose own expiry has not
    /// passed stays, its record unread. Of the others, a key idle past the
    /// deadline with nothing pending is evicted, an entry whose key is
    /// pending again is dropped (the key files anew when it drains), and a
    /// key that returned and drained since waits on under its new expiry.
    /// Survivors are filed cohort by cohort, so cohorts only ever shrink.
    fn evict_idle(&mut self, wm: Time, ttl: Time) {
        let mut cohort = std::mem::take(&mut self.idle_open);
        loop {
            let mut earliest = TIME_MAX;
            cohort.retain_mut(|(expiry, slot)| {
                if *expiry <= wm {
                    #[cfg(test)]
                    (self.idle_reads += 1);
                    let st = self.slab.get_mut(*slot);
                    if !st.idle_filed || st.due != NOT_DUE {
                        st.idle_filed = false;
                        self.stats.stale_wakeups += 1;
                        return false;
                    }
                    *expiry = st.t_last.saturating_add(ttl);
                    if *expiry <= wm {
                        self.slot_of.remove(&st.key);
                        *st = KeyState::vacant();
                        self.slab.release(*slot);
                        self.stats.keys_evicted += 1;
                        return false;
                    }
                }
                earliest = earliest.min(*expiry);
                true
            });
            file_bucket(&mut self.idle, earliest, &mut cohort);
            match self.idle.first_entry() {
                Some(due) if *due.key() <= wm => cohort = due.remove(),
                _ => break,
            }
        }
    }

    /// Dense checks for the audit build, run after every watermark and
    /// every batch. Filing: the call's filings reached their buckets, every
    /// live key's stored due time is what [`due_of`] makes of its record
    /// now (what a skipped refile rests on), and every live due time has a
    /// due-bucket entry (entries are lazy, so buckets may hold stale ones
    /// too). Trigger gating: after a watermark no live key still owes an
    /// emission (a due time at or below it), and no key's watermark floor
    /// ever runs ahead of the operator's. Slot recycling: the map and the
    /// records agree on who lives where, every slot is either live or free,
    /// and a free record is inert (no due time for a stale entry to match,
    /// not filed). Idle cohorts, under a TTL: a watermark judged the open
    /// one, a slot has at most one entry and its record knows of it, and
    /// every live key is pending or filed in a cohort that comes due no
    /// later than it expires — after a watermark, not yet expired.
    #[cfg(feature = "audit")]
    fn assert_invariants(&self, after_watermark: bool) {
        assert!(self.due_open.1.is_empty(), "filings outlived their call");
        assert!(
            !after_watermark || self.idle_open.is_empty(),
            "the open cohort outlived a watermark"
        );
        let mut filed = FxHashMap::default();
        let cohorts = self.idle.iter().flat_map(|(&at, c)| c.iter().map(move |e| (at, e.1)));
        for (at, slot) in cohorts.chain(self.idle_open.iter().copied()) {
            assert!(self.slab.get(slot).idle_filed, "slot {slot} does not know its idle entry");
            assert!(filed.insert(slot, at).is_none(), "two idle entries for slot {slot}");
        }
        let mut next_end_memo = NO_RANGE;
        for (key, &KeyEntry { slot, .. }) in &self.slot_of {
            let st = self.slab.get(slot);
            assert_eq!(st.key, *key, "slot {slot} of key {key} holds key {}", st.key);
            assert!(
                st.wm_seen <= self.watermark,
                "key {key} watermark floor {} ahead of operator watermark {}",
                st.wm_seen,
                self.watermark
            );
            let d = st.due;
            assert_eq!(
                d,
                due_of(st, &self.queries, &mut next_end_memo),
                "key {key} is filed under a due time its record no longer gives"
            );
            if d == NOT_DUE {
                if let Some(ttl) = self.cfg.idle_ttl {
                    let expiry = st.t_last.saturating_add(ttl);
                    assert!(
                        !after_watermark || expiry > self.watermark,
                        "key {key} is drained, expired and live"
                    );
                    assert!(
                        st.idle_filed && filed.get(&slot).is_some_and(|&at| at <= expiry),
                        "drained key {key} has no idle entry due by its expiry {expiry}"
                    );
                }
                continue;
            }
            assert!(
                !after_watermark || d > self.watermark,
                "key {key} left due {d} at or below watermark {}",
                self.watermark
            );
            assert!(
                self.due_buckets.get(&d).is_some_and(|b| b.contains(&slot)),
                "key {key} due {d} has no due-bucket entry"
            );
        }
        let live: std::collections::BTreeSet<u32> = self.slot_of.values().map(|e| e.slot).collect();
        assert_eq!(live.len(), self.slot_of.len(), "two keys share a slot");
        assert_eq!(
            live.len() + self.slab.free.len(),
            self.slab.used,
            "a slot is neither live nor free"
        );
        for &slot in &self.slab.free {
            assert!(!live.contains(&slot), "free slot {slot} is still mapped");
            let st = self.slab.get(slot);
            assert!(
                st.due == NOT_DUE && !st.idle_filed && st.t_last == TIME_MIN && st.ring.is_empty(),
                "free slot {slot} holds state"
            );
        }
    }

    fn memory_breakdown(&self) -> MemoryBreakdown {
        MemoryBreakdown {
            fixed: std::mem::size_of::<Self>(),
            timeline: self.timeline.heap_bytes(),
            slab: self.slab.heap_bytes(),
            map: map_heap_bytes(&self.slot_of),
            buckets: buckets_bytes(&self.due_buckets),
            ttl: buckets_bytes(&self.idle)
                + self.idle_open.capacity() * std::mem::size_of::<(Time, u32)>(),
            rings: self.slab.iter().map(|st| st.ring.heap_bytes()).sum(),
        }
    }
}

// ---------------------------------------------------------------------------
// Public operator: shared timeline with automatic fallback
// ---------------------------------------------------------------------------

// One operator per pipeline stage or shard: the size gap between the
// variants costs nothing that boxing the larger would buy back.
#[allow(clippy::large_enum_variant)]
enum KeyedInner<A: AggregateFunction> {
    Shared(SharedKeyed<A>),
    Fallback(NaiveKeyedOperator<A>),
}

/// A window aggregator over `(key, value)` tuples hosting many keys in
/// one operator (see the module docs for the design).
///
/// For tumbling/sliding (time-measure, context-free, static-edge) windows
/// over commutative aggregate functions, all keys share one slice
/// timeline and watermark work is gated by due buckets; anything else transparently
/// falls back to the per-key-operator baseline.
pub struct KeyedWindowOperator<A: AggregateFunction> {
    inner: KeyedInner<A>,
}

impl<A: AggregateFunction> KeyedWindowOperator<A> {
    /// Builds a keyed operator over `windows`, choosing the shared
    /// timeline when every window has static edges and `f` commutes.
    /// Panics where [`try_new`](Self::try_new) returns an error.
    pub fn new(f: A, windows: Vec<Box<dyn WindowFunction>>, cfg: KeyedConfig) -> Self {
        let inner = if shares_static_timeline(&f, &windows) {
            KeyedInner::Shared(SharedKeyed::new(f, windows, cfg))
        } else {
            KeyedInner::Fallback(NaiveKeyedOperator::new(f, windows, cfg))
        };
        KeyedWindowOperator { inner }
    }

    /// [`new`](Self::new), or the [`QueryError`] of windows that one
    /// per-key operator cannot host together: a keyed stream is out of
    /// order, so count and time measures do not mix.
    pub fn try_new(
        f: A,
        windows: Vec<Box<dyn WindowFunction>>,
        cfg: KeyedConfig,
    ) -> Result<Self, QueryError> {
        if shares_static_timeline(&f, &windows) {
            return Ok(Self::new(f, windows, cfg));
        }
        let inner = KeyedInner::Fallback(NaiveKeyedOperator::try_new(f, windows, cfg)?);
        Ok(KeyedWindowOperator { inner })
    }

    /// True iff this operator runs on the shared slice timeline.
    pub fn is_shared(&self) -> bool {
        matches!(self.inner, KeyedInner::Shared(_))
    }

    /// Number of keys currently holding state.
    pub fn live_keys(&self) -> usize {
        match &self.inner {
            KeyedInner::Shared(s) => s.slot_of.len(),
            KeyedInner::Fallback(n) => n.live_keys(),
        }
    }

    /// Number of shared slices currently on the timeline (0 in fallback
    /// mode, where slices are per key).
    pub fn live_slices(&self) -> usize {
        match &self.inner {
            KeyedInner::Shared(s) => s.timeline.len(),
            KeyedInner::Fallback(_) => 0,
        }
    }

    /// Operator counters. In fallback mode they are summed over the
    /// per-key operators (those of evicted keys included); the counters
    /// that only the shared timeline has stay zero.
    pub fn stats(&self) -> KeyedStats {
        match &self.inner {
            KeyedInner::Shared(s) => s.stats,
            KeyedInner::Fallback(n) => n.stats(),
        }
    }
}

impl<A: AggregateFunction> WindowAggregator<PerKey<A>> for KeyedWindowOperator<A> {
    fn process(
        &mut self,
        ts: Time,
        value: (u64, A::Input),
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        match &mut self.inner {
            KeyedInner::Shared(s) => s.ingest_one(ts, value.0, &value.1, out),
            KeyedInner::Fallback(n) => n.process(ts, value, out),
        }
    }

    fn process_batch(
        &mut self,
        batch: &[(Time, (u64, A::Input))],
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        match &mut self.inner {
            KeyedInner::Shared(s) => {
                s.ingest_batch(batch.iter().map(|(ts, (key, v))| (*ts, *key, v)), out)
            }
            KeyedInner::Fallback(n) => n.process_batch(batch, out),
        }
    }

    fn process_batch_columns(
        &mut self,
        times: &[Time],
        values: &[(u64, A::Input)],
        out: &mut Vec<WindowResult<(u64, A::Output)>>,
    ) {
        assert_eq!(times.len(), values.len(), "batch columns differ in length");
        match &mut self.inner {
            KeyedInner::Shared(s) => {
                s.ingest_batch(times.iter().zip(values).map(|(ts, (key, v))| (*ts, *key, v)), out)
            }
            KeyedInner::Fallback(n) => n.process_batch_columns(times, values, out),
        }
    }

    fn on_watermark(&mut self, wm: Time, out: &mut Vec<WindowResult<(u64, A::Output)>>) {
        match &mut self.inner {
            KeyedInner::Shared(s) => s.on_watermark(wm, out),
            KeyedInner::Fallback(n) => n.on_watermark(wm, out),
        }
    }

    fn on_punctuation(&mut self, ts: Time, out: &mut Vec<WindowResult<(u64, A::Output)>>) {
        match &mut self.inner {
            // Static-edge windows ignore punctuation (it only closes
            // data-dependent windows), so the shared path is a no-op.
            KeyedInner::Shared(_) => {}
            KeyedInner::Fallback(n) => n.on_punctuation(ts, out),
        }
    }

    fn memory_bytes(&self) -> usize {
        match &self.inner {
            KeyedInner::Shared(s) => s.memory_breakdown().total(),
            KeyedInner::Fallback(n) => n.memory_bytes(),
        }
    }

    fn fold_stats(&self) -> (u64, u64) {
        match &self.inner {
            KeyedInner::Shared(s) => (s.stats.fold_kernel_hits, s.stats.fold_kernel_misses),
            KeyedInner::Fallback(n) => WindowAggregator::fold_stats(n),
        }
    }

    fn name(&self) -> &'static str {
        match &self.inner {
            KeyedInner::Shared(_) => "Keyed shared slicing",
            KeyedInner::Fallback(_) => "Keyed fallback (map of operators)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OperatorConfig, WindowOperator};
    use crate::testsupport::{Concat, SlidingStub, SumI64, TumblingStub};

    fn tumbling(len: Time) -> Box<dyn WindowFunction> {
        Box::new(TumblingStub { length: len })
    }

    fn shared_op(len: Time, cfg: KeyedConfig) -> KeyedWindowOperator<SumI64> {
        let op = KeyedWindowOperator::new(SumI64, vec![tumbling(len)], cfg);
        assert!(op.is_shared());
        op
    }

    /// Sorted copy of `out` for order-insensitive comparison across keys.
    fn sorted(mut out: Vec<WindowResult<(u64, i64)>>) -> Vec<(u32, Time, Time, u64, i64, bool)> {
        let mut v: Vec<_> = out
            .drain(..)
            .map(|r| (r.query, r.range.start, r.range.end, r.value.0, r.value.1, r.is_update))
            .collect();
        v.sort();
        v
    }

    #[test]
    #[should_panic(expected = "batch columns differ in length")]
    fn unequal_batch_columns_are_rejected() {
        let mut op = shared_op(10, KeyedConfig::default());
        op.process_batch_columns(&[1, 2], &[(7, 1), (7, 2), (7, 3)], &mut Vec::new());
    }

    #[test]
    fn single_key_matches_reference_operator() {
        let mut keyed = shared_op(10, KeyedConfig::default());
        let mut reference = WindowOperator::new(SumI64, OperatorConfig::out_of_order(0));
        reference.add_query(tumbling(10)).unwrap();

        let tuples = [(1, 5), (3, 2), (12, 7), (25, 1)];
        let mut got = Vec::new();
        let mut want = Vec::new();
        for (ts, v) in tuples {
            keyed.process(ts, (7, v), &mut got);
            reference.process(ts, v, &mut want);
        }
        keyed.on_watermark(30, &mut got);
        reference.process_watermark(30, &mut want);

        let want_tagged: Vec<_> = want
            .into_iter()
            .map(|r| (r.query, r.range.start, r.range.end, 7u64, r.value, r.is_update))
            .collect();
        assert_eq!(sorted(got), want_tagged);
    }

    #[test]
    fn keys_are_independent() {
        let mut op = shared_op(10, KeyedConfig::default());
        let mut out = Vec::new();
        op.process_batch(&[(1, (1, 10)), (2, (2, 20)), (5, (1, 1)), (7, (2, 2))], &mut out);
        op.on_watermark(10, &mut out);
        assert_eq!(sorted(out), vec![(0, 0, 10, 1, 11, false), (0, 0, 10, 2, 22, false)]);
    }

    #[test]
    fn late_tuple_emits_update() {
        let mut op = shared_op(10, KeyedConfig::default().with_allowed_lateness(100));
        let mut out = Vec::new();
        op.process_batch(&[(5, (1, 1)), (15, (1, 2))], &mut out);
        op.on_watermark(20, &mut out);
        assert_eq!(
            sorted(std::mem::take(&mut out)),
            vec![(0, 0, 10, 1, 1, false), (0, 10, 20, 1, 2, false)]
        );

        // A late tuple inside an already-fired window re-fires it as an
        // update with the revised aggregate.
        op.process(6, (1, 100), &mut out);
        assert_eq!(sorted(out), vec![(0, 0, 10, 1, 101, true)]);
        let s = op.stats();
        assert_eq!(s.ooo_tuples, 1);
        assert_eq!(s.updates_emitted, 1);
        assert_eq!(s.dropped_late, 0);
    }

    #[test]
    fn a_tuple_at_the_key_head_below_its_floor_revises_like_the_reference() {
        // Tumbling 10, lateness 100: tuples 0–9, watermark 20 fires
        // [10, 20) empty; tuple 15 lies above the key's data but below
        // its floor, so it revises [10, 20) as the reference does.
        let cfg = KeyedConfig::default().with_allowed_lateness(100);
        let mut reference = WindowOperator::new(SumI64, OperatorConfig::out_of_order(100));
        reference.add_query(tumbling(10)).unwrap();
        let mut want = Vec::new();
        for batched in [false, true] {
            let mut op = shared_op(10, cfg);
            let mut got = Vec::new();
            let feed = |op: &mut KeyedWindowOperator<SumI64>, ts: &[Time], out: &mut Vec<_>| {
                let tuples: Vec<(Time, (u64, i64))> = ts.iter().map(|&t| (t, (1, t))).collect();
                if batched {
                    op.process_batch(&tuples, out);
                } else {
                    tuples.iter().for_each(|&(t, v)| op.process(t, v, out));
                }
            };
            feed(&mut op, &(0..10).collect::<Vec<_>>(), &mut got);
            op.on_watermark(20, &mut got);
            feed(&mut op, &[15, 16], &mut got);
            op.on_watermark(30, &mut got);
            op.on_watermark(40, &mut got);
            let got: Vec<_> = got.iter().map(|r| (r.range, r.value.1, r.is_update)).collect();
            assert_eq!(
                got,
                [
                    (Range::new(0, 10), 45, false),
                    (Range::new(10, 20), 15, true),
                    (Range::new(10, 20), 31, true)
                ],
                "batched: {batched}"
            );
            if want.is_empty() {
                (0..10).for_each(|t| reference.process_tuple(t, t, &mut want));
                reference.process_watermark(20, &mut want);
                [15, 16].iter().for_each(|&t| reference.process_tuple(t, t, &mut want));
                reference.process_watermark(30, &mut want);
                reference.process_watermark(40, &mut want);
            }
            let want: Vec<_> = want.iter().map(|r| (r.range, r.value, r.is_update)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn too_late_tuple_dropped() {
        let mut op = shared_op(10, KeyedConfig::default().with_allowed_lateness(5));
        let mut out = Vec::new();
        op.process(50, (1, 1), &mut out);
        op.on_watermark(40, &mut out);
        op.process(10, (1, 100), &mut out); // 10 < 40 - 5
        assert_eq!(op.stats().dropped_late, 1);
        op.on_watermark(100, &mut out);
        assert_eq!(sorted(out), vec![(0, 50, 60, 1, 1, false)]);
    }

    #[test]
    fn watermark_sweeps_only_due_keys() {
        let mut op = shared_op(10, KeyedConfig::default());
        let mut out = Vec::new();
        // 100 keys with data due at wm=10; one key far in the future.
        let batch: Vec<_> = (0..100u64).map(|k| (5, (k, 1))).collect();
        op.process_batch(&batch, &mut out);
        op.process(1000, (500, 1), &mut out);
        op.on_watermark(10, &mut out);
        assert_eq!(out.len(), 100);
        let s = op.stats();
        // The future key must not have been swept.
        assert_eq!(s.heap_wakeups, 100);
        // Repeat watermarks with nothing due sweep nothing.
        op.on_watermark(11, &mut out);
        op.on_watermark(12, &mut out);
        assert_eq!(op.stats().heap_wakeups, 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn idle_keys_evicted_after_ttl() {
        let mut op = shared_op(10, KeyedConfig::default().with_idle_ttl(50));
        let mut out = Vec::new();
        op.process(5, (1, 1), &mut out);
        op.process(5, (2, 1), &mut out);
        op.on_watermark(20, &mut out);
        assert_eq!(op.live_keys(), 2);
        // Key 2 stays active; key 1 goes idle past the TTL.
        op.process(60, (2, 1), &mut out);
        op.on_watermark(70, &mut out);
        assert_eq!(op.live_keys(), 1);
        assert_eq!(op.stats().keys_evicted, 1);
        // The surviving key keeps aggregating correctly.
        op.process(75, (2, 1), &mut out);
        op.on_watermark(100, &mut out);
        let last = sorted(out.split_off(out.len() - 2));
        assert_eq!(last, vec![(0, 60, 70, 2, 1, false), (0, 70, 80, 2, 1, false)]);
    }

    #[test]
    fn ttl_never_evicts_key_with_pending_window() {
        let mut op = shared_op(100, KeyedConfig::default().with_idle_ttl(10));
        let mut out = Vec::new();
        op.process(5, (1, 7), &mut out);
        // Idle for far longer than the TTL, but its window [0,100) is
        // still open — the key must survive to emit it.
        op.on_watermark(90, &mut out);
        assert_eq!(op.live_keys(), 1);
        op.on_watermark(150, &mut out);
        assert_eq!(sorted(out), vec![(0, 0, 100, 1, 7, false)]);
    }

    #[test]
    fn shared_slices_evicted_behind_watermark() {
        let mut op = shared_op(10, KeyedConfig::default());
        let mut out = Vec::new();
        for t in 0..100 {
            op.process(t, (t as u64 % 4, 1), &mut out);
        }
        op.on_watermark(100, &mut out);
        // boundary = 100 - 0 lateness - 10 extent = 90: one live slice.
        assert!(op.live_slices() <= 2, "live slices: {}", op.live_slices());
    }

    #[test]
    fn non_commutative_function_falls_back() {
        let op = KeyedWindowOperator::new(Concat, vec![tumbling(10)], KeyedConfig::default());
        assert!(!op.is_shared());
    }

    #[test]
    fn fallback_matches_reference_semantics() {
        let mut op = KeyedWindowOperator::new(Concat, vec![tumbling(10)], KeyedConfig::default());
        let mut out = Vec::new();
        op.process_batch(&[(1, (1, 10)), (2, (2, 20)), (3, (1, 30))], &mut out);
        op.on_watermark(10, &mut out);
        let mut vals: Vec<_> = out.iter().map(|r| (r.value.0, r.value.1.clone())).collect();
        vals.sort();
        assert_eq!(vals, vec![(1, vec![10, 30]), (2, vec![20])]);
    }

    #[test]
    fn per_key_function_lifts_and_lowers() {
        let f = PerKey(SumI64);
        let p = f.combine(f.lift(&(3, 10)), &f.lift(&(3, 5)));
        assert_eq!(f.lower(&p), (3, 15));
        assert_eq!(f.invert(p, &(3, 5)), Some((3, 10)));
        assert!(f.properties().commutative);
    }

    #[test]
    fn empty_query_set_falls_back() {
        let op = KeyedWindowOperator::new(SumI64, vec![], KeyedConfig::default());
        assert!(!op.is_shared());
    }

    #[test]
    fn timeline_prepends_for_late_keys() {
        let mut op = shared_op(10, KeyedConfig::default().with_allowed_lateness(1000));
        let mut out = Vec::new();
        // Key 1 establishes the timeline far ahead; key 2's first tuple
        // is much earlier, forcing a backwards extension.
        op.process(95, (1, 1), &mut out);
        op.process(12, (2, 5), &mut out);
        op.on_watermark(200, &mut out);
        assert_eq!(sorted(out), vec![(0, 10, 20, 2, 5, false), (0, 90, 100, 1, 1, false)]);
    }

    /// A bucket-gated key skips watermarks, but its emission floor must
    /// still advance as if it had been swept (the reference operator
    /// advances `last_trigger` on every watermark). A late tuple landing
    /// below that floor fires an update only — never a regular result at
    /// the key's next sweep.
    #[test]
    fn late_tuple_below_skipped_floor_stays_update_only() {
        let mut op = shared_op(10, KeyedConfig::default().with_allowed_lateness(500));
        let mut out = Vec::new();
        // Key due at 110 — watermark 90 leaves it gated while the floor
        // conceptually advances to min(90, 100 + 11) = 90.
        op.process(100, (1, 1), &mut out);
        op.on_watermark(90, &mut out);
        assert!(out.is_empty());
        // Late tuple at 55: window [50, 60) ended before the floor, so
        // this is an update; the next sweep must not re-fire it.
        op.process(55, (1, 2), &mut out);
        assert_eq!(sorted(std::mem::take(&mut out)), vec![(0, 50, 60, 1, 2, true)]);
        op.on_watermark(200, &mut out);
        assert_eq!(sorted(out), vec![(0, 100, 110, 1, 1, false)]);
    }

    /// A key first seen *after* the watermark advanced: both operators
    /// route the key's first tuple through the in-order path (no drop, no
    /// update — same as a fresh reference operator), but a key-late tuple
    /// arriving before the next watermark must already be held to the
    /// global lateness rule. The naive baseline gets this right only
    /// because it replays the current watermark into freshly created
    /// per-key operators.
    #[test]
    fn new_key_after_watermark_matches_naive() {
        let windows = || vec![tumbling(10)];
        let cfg = KeyedConfig::default().with_allowed_lateness(0);
        let mut shared = KeyedWindowOperator::new(SumI64, windows(), cfg);
        assert!(shared.is_shared());
        let mut naive = NaiveKeyedOperator::new(SumI64, windows(), cfg);

        for op in [&mut shared as &mut dyn WindowAggregator<PerKey<SumI64>>, &mut naive] {
            let mut out = Vec::new();
            op.process(500, (1, 1), &mut out);
            op.on_watermark(200, &mut out);
            out.clear();
            // New key 2 behind the watermark: first tuple accepted
            // (in-order path), the key-late one at ts=50 dropped
            // (50 < 200 - 0), despite key 2 never having seen a watermark.
            op.process_batch(&[(100, (2, 7)), (50, (2, 1000))], &mut out);
            assert!(out.is_empty(), "no updates for windows not yet emitted");
            op.on_watermark(600, &mut out);
            assert_eq!(sorted(out), vec![(0, 100, 110, 2, 7, false), (0, 500, 510, 1, 1, false)]);
        }
        assert_eq!(shared.stats().dropped_late, 1);
    }

    /// Regression: eviction can empty the shared timeline, and the next
    /// tuple then re-anchors the global index↔time map at its own
    /// timestamp ([`Timeline::generation`]). A key holding ring slots
    /// from the old anchor must drop them — before the generation check,
    /// a backward extension below the stale indices (key 3's ts=500
    /// here) let them survive `trim_to` and re-emerge as phantom
    /// partials at unrelated times inside live windows.
    #[test]
    fn timeline_rebirth_invalidates_stale_key_rings() {
        let windows = || vec![tumbling(10)];
        let cfg = KeyedConfig::default().with_allowed_lateness(0);
        let mut shared = KeyedWindowOperator::new(SumI64, windows(), cfg);
        assert!(shared.is_shared());
        let mut naive = NaiveKeyedOperator::new(SumI64, windows(), cfg);

        let mut results = Vec::new();
        for op in [&mut shared as &mut dyn WindowAggregator<PerKey<SumI64>>, &mut naive] {
            let mut out = Vec::new();
            // Key 1 fires [100, 110); the watermark then evicts the whole
            // timeline (boundary 200 - 0 - 10 = 190).
            op.process(100, (1, 5), &mut out);
            op.on_watermark(200, &mut out);
            // Key 2 rebirths the timeline anchored at 1000; key 3 (new,
            // so not key-late) extends it backward past key 1's stale
            // global indices; key 1 returns in order.
            op.process(1_000, (2, 3), &mut out);
            op.process(500, (3, 2), &mut out);
            op.process(1_005, (1, 7), &mut out);
            op.on_watermark(2_000, &mut out);
            results.push(sorted(out));
        }
        assert_eq!(results[0], results[1], "shared path diverged from naive after rebirth");
        assert_eq!(
            results[0],
            vec![
                (0, 100, 110, 1, 5, false),
                (0, 500, 510, 3, 2, false),
                (0, 1_000, 1_010, 1, 7, false),
                (0, 1_000, 1_010, 2, 3, false),
            ]
        );
    }
    fn shared_inner(op: &mut KeyedWindowOperator<SumI64>) -> &mut SharedKeyed<SumI64> {
        match &mut op.inner {
            KeyedInner::Shared(s) => s,
            KeyedInner::Fallback(_) => panic!("operator runs on the fallback"),
        }
    }

    /// Slot recycling: entries left behind by an evicted key must not act
    /// on the key that inherits its slot. (Eviction waits for a key to
    /// have nothing pending and consumes its idle entry, so the operator
    /// itself never strands an entry this way — the test plants them to
    /// pin the defence: an entry is a hint, the record decides.)
    #[test]
    fn stale_entries_of_an_evicted_key_do_not_touch_its_slots_next_key() {
        let mut op = shared_op(10, KeyedConfig::default().with_idle_ttl(50));
        let mut out = Vec::new();
        // Key A lives, fires and is evicted by the TTL.
        op.process(5, (1, 1), &mut out);
        let a_slot = shared_inner(&mut op).slot_of[&1].slot;
        op.on_watermark(100, &mut out);
        assert_eq!(op.live_keys(), 0);
        assert_eq!(op.stats().keys_evicted, 1);
        out.clear();
        // Key B is born into A's slot; its window [200, 210) is pending.
        op.process(205, (2, 7), &mut out);
        let s = shared_inner(&mut op);
        assert_eq!(s.slot_of[&2].slot, a_slot, "the freed slot is handed to the next key");
        // A's leftovers: a due entry at 120 and an idle entry expiring at 130.
        s.due_buckets.entry(120).or_default().push(a_slot);
        s.idle.entry(130).or_default().push((130, a_slot));
        let stale_before = s.stats.stale_wakeups;
        op.on_watermark(150, &mut out);
        assert!(out.is_empty(), "a stale due entry swept key B: {out:?}");
        assert_eq!(op.live_keys(), 1, "a stale idle entry evicted key B");
        let st = op.stats();
        assert_eq!(st.stale_wakeups, stale_before + 2);
        assert_eq!(st.heap_wakeups, 1, "only key A's own sweep counts");
        // B is intact: it fires its window and is evicted on its own terms.
        op.on_watermark(300, &mut out);
        assert_eq!(sorted(out), vec![(0, 200, 210, 2, 7, false)]);
        assert_eq!(op.live_keys(), 0);
    }

    /// What the one-entry-per-key heap hid: a key that drains, returns and
    /// drains again before its cohort comes due is still filed once, and
    /// the entry follows the key's new expiry when it does come due.
    #[test]
    fn a_key_draining_twice_before_its_cohort_matures_holds_one_idle_entry() {
        let mut op = shared_op(10, KeyedConfig::default().with_idle_ttl(100));
        let mut out = Vec::new();
        let idle = |op: &mut KeyedWindowOperator<SumI64>| {
            let s = shared_inner(op);
            s.idle.iter().map(|(&at, c)| (at, c.iter().map(|e| e.0).collect())).collect()
        };
        op.process(5, (1, 1), &mut out);
        op.on_watermark(20, &mut out);
        assert_eq!(idle(&mut op), [(105, vec![105])], "drained at 20, idle from 5");
        op.process(25, (1, 1), &mut out);
        op.on_watermark(40, &mut out);
        assert_eq!(out.len(), 2, "both windows fired");
        assert_eq!(idle(&mut op), [(105, vec![105])], "drained again: no second entry");
        op.on_watermark(110, &mut out);
        assert_eq!(idle(&mut op), [(125, vec![125])], "idle from 25 now");
        assert_eq!((op.live_keys(), op.stats().stale_wakeups), (1, 0));
        op.on_watermark(125, &mut out);
        assert_eq!((op.live_keys(), idle(&mut op)), (0, vec![]));
    }

    /// Worst case for cohorts: watermarks a hundred times finer than the
    /// slide, so each cohort (the keys one window end drains) straddles a
    /// hundred of them, and 1 000 keys dying a millisecond apart, every
    /// fifth returning once. A watermark reads exactly the records whose
    /// filed expiry has passed, and a key leaves at the first watermark
    /// `>= t_last + ttl` that finds nothing pending.
    #[test]
    fn staggered_deaths_read_only_expired_entries_and_leave_on_time() {
        const KEYS: Time = 1_000;
        const SLIDE: Time = 100;
        const TTL: Time = 250;
        let mut op = shared_op(SLIDE, KeyedConfig::default().with_idle_ttl(TTL));
        let mut out = Vec::new();
        let mut t_last = std::collections::BTreeMap::new();
        for now in 0..KEYS + 3 * TTL {
            // Key `k` reports at `k`, and again at `k + 180` if `5 | k`.
            for k in [now, now - 180] {
                if (0..KEYS).contains(&k) && (k == now || k % 5 == 0) {
                    op.process(now, (k as u64, 1), &mut out);
                    t_last.insert(k as u64, now);
                }
            }
            let s = shared_inner(&mut op);
            let expired =
                s.idle.values().flatten().chain(&s.idle_open).filter(|e| e.0 <= now).count();
            let reads_before = s.idle_reads;
            op.on_watermark(now, &mut out);
            assert_eq!(shared_inner(&mut op).idle_reads - reads_before, expired as u64, "at {now}");
            // Pending: a window end above the watermark can hold `last`.
            t_last
                .retain(|_, last| (now / SLIDE + 1) * SLIDE <= *last + SLIDE || *last + TTL > now);
            assert_eq!(op.live_keys(), t_last.len(), "at {now}");
        }
        let st = op.stats();
        assert_eq!((st.keys_created, st.keys_evicted), (1_000, 1_000));
        assert!(st.stale_wakeups > 0, "no entry came due while its key was pending again");
        assert_eq!(shared_inner(&mut op).memory_breakdown().ttl, 0, "every cohort was consumed");
    }

    /// A key's ring spills to the heap when its live span outgrows the
    /// inline capacity and comes back inline once it drains, with the
    /// same results either way.
    #[test]
    fn ring_spills_past_inline_capacity_and_returns() {
        let cfg = KeyedConfig::default().with_allowed_lateness(1_000);
        let mut op = shared_op(10, cfg);
        let mut naive = NaiveKeyedOperator::new(SumI64, vec![tumbling(10)], cfg);
        let feed: Vec<(Time, (u64, i64))> = (0..6).map(|i| (i * 10 + 3, (1, i + 1))).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        op.process_batch(&feed, &mut got);
        naive.process_batch(&feed, &mut want);
        let s = shared_inner(&mut op);
        let slot = s.slot_of[&1].slot;
        assert!(matches!(s.slab.get(slot).ring, Ring::Spilled(_)), "six live slices must spill");
        assert!(s.memory_breakdown().rings > 0);
        // A late tuple lands in the spilled ring and re-fires its window.
        for agg in [&mut op as &mut dyn WindowAggregator<PerKey<SumI64>>, &mut naive] {
            let out = if agg.name().contains("shared") { &mut got } else { &mut want };
            agg.on_watermark(45, out);
            agg.process(12, (1, 100), out);
            agg.on_watermark(5_000, out);
            agg.process(5_001, (1, 9), out);
        }
        assert_eq!(sorted(got), sorted(want));
        let s = shared_inner(&mut op);
        assert!(matches!(s.slab.get(slot).ring, Ring::Inline { len: 1, .. }));
        assert_eq!(s.memory_breakdown().rings, 0);
    }

    #[test]
    fn ring_grows_and_drops_at_both_ends() {
        let mut r: Ring<i64> = Ring::new();
        r.grow_back(1);
        *r.slot_mut(0) = Some(1);
        r.grow_front(1);
        assert_eq!((r.len(), r.slot(0), r.slot(1)), (2, None, Some(&1)));
        assert!(matches!(r, Ring::Inline { .. }));
        r.grow_back(4);
        *r.slot_mut(3) = Some(4);
        r.grow_front(2);
        assert!(matches!(r, Ring::Spilled(_)));
        let slots: Vec<_> = (0..r.len()).map(|i| r.slot(i).copied()).collect();
        assert_eq!(slots, [None, None, None, Some(1), None, Some(4)]);
        r.drop_front(4);
        assert_eq!((r.len(), r.slot(0), r.slot(1)), (2, None, Some(&4)));
        assert!(matches!(r, Ring::Spilled(_)), "a shorter spilled ring stays spilled");
        r.drop_front(2);
        assert!(matches!(r, Ring::Inline { len: 0, .. }), "a drained ring goes back inline");
        r.grow_back(2);
        *r.slot_mut(0) = Some(7);
        *r.slot_mut(1) = Some(8);
        r.drop_front(1);
        assert_eq!((r.len(), r.slot(0)), (1, Some(&8)));
        r.grow_back(2);
        assert_eq!(r.slot(1), None, "inline slots past the length are empty");
    }

    /// `trim_to` drops what eviction took: a ring that loses every slot
    /// re-anchors at the base (however far below it the ring started),
    /// one that loses fewer moves its anchor by the count, inline or
    /// spilled, and a new generation drops the ring whatever its indices
    /// say.
    #[test]
    fn trim_to_reanchors_a_drained_ring_and_advances_a_trimmed_one() {
        let mut queries = QuerySet::default();
        queries.add(tumbling(10));
        let mut timeline = Timeline::default();
        let mut created = 0;
        for ts in [5, 45] {
            timeline.ensure_covering(ts, &queries, &mut created);
        }
        // Globals 0..5 are [0, 10) .. [40, 50); the key holds `g + 100`
        // in each slice `g` of `filled`.
        let key = |timeline: &Timeline, filled: &[i64]| {
            let mut st = KeyState::<SumI64>::vacant();
            st.generation = timeline.generation() as u32;
            for &g in filled {
                st.add_at(g, g + 100, &SumI64);
            }
            st
        };
        timeline.evict_to(20);
        assert_eq!(timeline.base(), 2);
        let slots = |st: &KeyState<SumI64>| -> Vec<Option<i64>> {
            (0..st.ring.len()).map(|i| st.ring.slot(i).copied()).collect()
        };

        let mut drained = key(&timeline, &[0]);
        drained.trim_to(&timeline);
        assert_eq!((drained.first, drained.ring.len()), (2, 0), "two below the base, one slot");

        let mut inline = key(&timeline, &[1, 2]);
        assert!(matches!(inline.ring, Ring::Inline { len: 2, .. }));
        inline.trim_to(&timeline);
        assert_eq!((inline.first, slots(&inline)), (2, vec![Some(102)]));

        let mut spilled = key(&timeline, &[0, 3, 4]);
        assert!(matches!(spilled.ring, Ring::Spilled(_)));
        spilled.trim_to(&timeline);
        assert_eq!((spilled.first, slots(&spilled)), (2, vec![None, Some(103), Some(104)]));

        // The timeline empties and is reborn further on: the same global
        // indices now mean other slices.
        let mut stale = key(&timeline, &[2, 3]);
        timeline.evict_to(1_000);
        timeline.ensure_covering(1_005, &queries, &mut created);
        assert_eq!(timeline.base(), 5);
        stale.trim_to(&timeline);
        assert_eq!(stale.generation, timeline.generation() as u32);
        assert_eq!((stale.first, stale.ring.len()), (5, 0));
    }

    /// The probe pass ingests a batch in place until a key repeats, and
    /// hands the batch to the grouping loop at the first repeat: on the
    /// tuple after its key's (the same-key shortcut), mid-batch, at the
    /// last tuple, on a key born earlier in the batch. Each batch emits,
    /// per key, what tuple-by-tuple `process` emits, and what the naive
    /// operator emits; the stats are those of `process` but for the fold
    /// counters, which count a grouped run once.
    #[test]
    fn the_probe_pass_hands_over_at_the_first_repeat() {
        let cfg = KeyedConfig::default().with_allowed_lateness(100);
        let batches: [&[(Time, (u64, i64))]; 5] = [
            // Repeat at tuple 1, same key as its predecessor.
            &[(1, (1, 1)), (2, (1, 2)), (3, (2, 3)), (4, (3, 4))],
            // Mid-batch, on a key older than the batch.
            &[(11, (2, 5)), (12, (3, 6)), (13, (4, 7)), (14, (2, 8)), (15, (5, 9)), (16, (3, 1))],
            // At the last tuple.
            &[(21, (5, 2)), (22, (1, 3)), (23, (6, 4)), (24, (5, 5))],
            // On a key born in this batch, then a key-late update.
            &[(31, (7, 6)), (32, (8, 7)), (33, (7, 8)), (34, (8, 9)), (35, (1, 1)), (22, (5, 2))],
            // No repeat at all.
            &[(41, (1, 3)), (42, (2, 4)), (43, (3, 5)), (44, (9, 6))],
        ];
        let mut batched = shared_op(10, cfg);
        let mut by_tuple = shared_op(10, cfg);
        let mut naive = NaiveKeyedOperator::new(SumI64, vec![tumbling(10)], cfg);
        let (mut got, mut each, mut want) = (Vec::new(), Vec::new(), Vec::new());
        for (i, batch) in batches.iter().enumerate() {
            batched.process_batch(batch, &mut got);
            naive.process_batch(batch, &mut want);
            for &(ts, kv) in *batch {
                by_tuple.process(ts, kv, &mut each);
            }
            let wm = 10 * (i as Time + 1);
            batched.on_watermark(wm, &mut got);
            naive.on_watermark(wm, &mut want);
            by_tuple.on_watermark(wm, &mut each);
        }
        let per_key = |out: &[WindowResult<(u64, i64)>]| {
            let mut keys: BTreeMap<u64, Vec<_>> = BTreeMap::new();
            for r in out {
                let row = (r.range.start, r.range.end, r.value.1, r.is_update);
                keys.entry(r.value.0).or_default().push(row);
            }
            keys
        };
        assert_eq!(per_key(&got), per_key(&each));
        assert_eq!(sorted(got.clone()), sorted(want));
        assert_eq!(got.iter().filter(|r| r.is_update).count(), 1, "the key-late tuple updated");
        let unfolded =
            |s: KeyedStats| KeyedStats { fold_kernel_hits: 0, fold_kernel_misses: 0, ..s };
        let (a, b) = (batched.stats(), by_tuple.stats());
        assert_eq!(unfolded(a), unfolded(b));
        // Six runs of two and eleven singletons; `SumI64` has no kernel,
        // so a run is a miss too.
        assert_eq!((a.fold_kernel_hits, a.fold_kernel_misses), (0, 17));
        assert_eq!(b.fold_kernel_misses, 23, "tuple by tuple, every accepted tuple is a run");
    }

    /// The memory gate. `memory_bytes()` is the sum of what the layout
    /// owns, each part computed here from first principles, and a key
    /// under `TUMBLE 1s` costs no more than that sum plus 5 % (it was 184
    /// bytes with a map of heap rings, when the map's empty buckets were
    /// not counted) — the benchmark bounds `state_bytes_peak` at 1 %.
    #[test]
    fn memory_is_the_sum_of_the_layout_and_within_the_old_cost_per_key() {
        const KEYS: u64 = 10_000;
        let mut op = shared_op(1_000, KeyedConfig::default().with_idle_ttl(6_000));
        let mut out = Vec::new();
        let mut peak = 0;
        for second in 0..5i64 {
            // Every key reports once a second, in a scrambled order.
            let batch: Vec<(Time, (u64, i64))> = (0..KEYS)
                .map(|i| (second * 1_000 + (i as i64) / 10, ((i * 7_919) % KEYS, 1)))
                .collect();
            for chunk in batch.chunks(4_096) {
                op.process_batch(chunk, &mut out);
            }
            op.on_watermark(second * 1_000 + 999, &mut out);
            out.clear();
            peak = peak.max(op.memory_bytes());
        }
        assert_eq!(op.live_keys(), KEYS as usize);
        let per_key = peak as f64 / KEYS as f64;
        assert!(per_key <= 151.0, "{per_key} bytes per key");

        let s = shared_inner(&mut op);
        let m = s.memory_breakdown();
        assert_eq!(m.total(), peak, "the last sample is the steady state");
        let record = std::mem::size_of::<KeyState<SumI64>>();
        assert!(record <= 96, "{record}-byte records");
        let ring = std::mem::size_of::<Ring<i64>>();
        assert_eq!(ring, 40, "{ring}-byte rings: the word-wide inline length cost bytes");
        let pages = (KEYS as usize).div_ceil(PAGE);
        assert_eq!(
            m.slab,
            pages * PAGE * record
                + s.slab.pages.capacity() * std::mem::size_of::<usize>()
                + s.slab.free.capacity() * 4
        );
        assert_eq!(m.map, 16_384 * (24 + 1) + 16, "the buckets 10 000 keys need, filled or not");
        assert_eq!(m.ttl, 0, "a key that reports every second never waits on the TTL");
        assert_eq!(m.rings, 0, "two live slices per key stay inline");
        assert_eq!(s.due_buckets.len(), 1, "every key waits for the same window end");
        let bucket = s.due_buckets.values().next().unwrap();
        assert_eq!(bucket.len(), KEYS as usize);
        assert_eq!(m.buckets, std::mem::size_of::<(Time, Vec<u32>)>() + bucket.capacity() * 4);
        assert_eq!(m.fixed, std::mem::size_of::<SharedKeyed<SumI64>>());
        assert_eq!(m.timeline, s.timeline.heap_bytes());
    }

    /// The fallback reports the counters of its per-key operators, those
    /// of evicted keys included — `dropped_late` used to be invisible for
    /// session / count / non-commutative queries.
    #[test]
    fn fallback_stats_sum_the_per_key_operators() {
        let cfg = KeyedConfig::default().with_allowed_lateness(10).with_idle_ttl(100);
        let mut op = KeyedWindowOperator::new(Concat, vec![tumbling(10)], cfg);
        assert!(!op.is_shared());
        let mut out = Vec::new();
        op.process_batch(&[(50, (1, 1)), (52, (2, 2)), (55, (1, 3))], &mut out);
        op.on_watermark(60, &mut out);
        // Late above the watermark: one batched write into each of
        // [60, 70) and [70, 80).
        op.process_batch(&[(70, (1, 6)), (72, (1, 7)), (65, (1, 8)), (71, (1, 9))], &mut out);
        op.process(53, (1, 4), &mut out); // late but allowed: an update
        op.process(10, (2, 5), &mut out); // 10 < 60 - 10: dropped
        op.on_watermark(90, &mut out);
        let st = op.stats();
        assert_eq!((st.tuples, st.ooo_tuples, st.dropped_late), (8, 4, 1));
        assert_eq!((st.windows_emitted, st.updates_emitted, st.keys_evicted), (4, 1, 0));
        assert_eq!(st.late_slices, 2);
        // Eviction keeps what the evicted keys' operators had counted.
        op.on_watermark(1_000, &mut out);
        assert_eq!(op.live_keys(), 0);
        assert_eq!(op.stats(), KeyedStats { keys_evicted: 2, ..st });
    }
    /// A key returning after a long silence fires what the naive
    /// operator fires, without walking every window of the gap: the
    /// sweep starts at the slice of its oldest partial, not at its floor.
    #[test]
    fn returning_key_does_not_enumerate_the_gap() {
        let cfg = KeyedConfig::default().with_allowed_lateness(20);
        let mut op = shared_op(10, cfg);
        let mut naive = NaiveKeyedOperator::new(SumI64, vec![tumbling(10)], cfg);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for agg in [&mut op as &mut dyn WindowAggregator<PerKey<SumI64>>, &mut naive] {
            let out = if agg.name().contains("shared") { &mut got } else { &mut want };
            agg.process(5, (1, 1), out);
            agg.on_watermark(50, out);
            // 100 000 windows later the key is back, with a late tuple too.
            agg.process_batch(
                &[(1_000_005, (1, 2)), (1_000_017, (1, 3)), (1_000_001, (1, 4))],
                out,
            );
            agg.on_watermark(1_000_030, out);
        }
        assert_eq!(sorted(got), sorted(want));
        let (from, lo, hi) = shared_inner(&mut op).sweep_memo.span;
        assert!(lo < hi, "key 1 was swept");
        assert_eq!(from, 1_000_000, "the sweep walked the gap from the key's old floor");
    }

    /// The next-end memo answers every probe short of its answer, not
    /// only the probe that filled it: for each query set, asked in three
    /// orders over a span that crosses several window ends, it gives what
    /// a cold computation gives, and a probe inside the range it holds
    /// leaves it as it was.
    #[test]
    fn next_end_memo_answers_every_probe_short_of_its_answer() {
        let sets: [Vec<Box<dyn WindowFunction>>; 3] = [
            vec![tumbling(10)],
            vec![Box::new(SlidingStub { length: 25, slide: 10 })],
            vec![tumbling(7), Box::new(SlidingStub { length: 30, slide: 4 }), tumbling(10)],
        ];
        for windows in sets {
            let mut queries = QuerySet::default();
            for w in windows {
                queries.add(w);
            }
            let span = -40..140;
            let orders: [Vec<Time>; 3] = [
                span.clone().collect(),
                span.clone().rev().collect(),
                span.clone().map(|t| (t + 40) * 37 % 180 - 40).collect(),
            ];
            for order in orders {
                let mut memo = NO_RANGE;
                for probe in order {
                    let cold = union_next_end(&queries, probe, &mut { NO_RANGE });
                    assert!(cold > probe);
                    assert_eq!(union_next_end(&queries, probe, &mut memo), cold, "probe {probe}");
                    let held = memo;
                    for inside in held.0..held.1 {
                        assert_eq!(union_next_end(&queries, inside, &mut memo), held.1);
                        assert_eq!(memo, held, "probe {inside} replaced a memo that covers it");
                    }
                }
            }
        }
    }

    /// Every bucket entry of `slot`, as `(bucket, position)`.
    fn due_entries(s: &SharedKeyed<SumI64>, slot: u32) -> Vec<Time> {
        let entries = s.due_buckets.iter();
        entries
            .flat_map(|(&at, b)| b.iter().filter(move |&&e| e == slot).map(move |_| at))
            .collect()
    }

    /// A pending key keeps its one bucket entry however often it is
    /// touched: tuples between three watermarks move its floor (catch-up,
    /// and a key-late tuple before its first sweep) but not its due time,
    /// so nothing is filed again and no wake-up goes stale.
    #[test]
    fn a_key_pending_across_watermarks_keeps_one_live_bucket_entry() {
        let mut op = shared_op(100, KeyedConfig::default().with_allowed_lateness(1_000));
        let mut out = Vec::new();
        op.process(5, (1, 1), &mut out);
        let slot = shared_inner(&mut op).slot_of[&1].slot;
        for (wm, batch) in [
            (20, vec![(25, (1, 1)), (3, (1, 1)), (26, (1, 1))]),
            (40, vec![(45, (1, 1)), (9, (2, 1))]),
            (60, vec![(65, (1, 1)), (66, (1, 1))]),
        ] {
            op.on_watermark(wm, &mut out);
            op.process_batch(&batch, &mut out);
            op.process(wm + 7, (1, 1), &mut out);
            let s = shared_inner(&mut op);
            assert_eq!(due_entries(s, slot), [100], "after watermark {wm}");
            assert_eq!(s.slab.get(slot).floor, wm, "the floor did catch up");
        }
        op.on_watermark(100, &mut out);
        assert_eq!(sorted(out), vec![(0, 0, 100, 1, 10, false), (0, 0, 100, 2, 1, false)]);
        let st = op.stats();
        assert_eq!((st.heap_wakeups, st.stale_wakeups), (2, 0));
    }

    /// A bucket that mixes regular keys with every kind the regular sweep
    /// must leave to the full one — a key clamped by its own `t_last`, one
    /// a watermark behind, one never swept, and one whose ring `trim_to`
    /// empties (planted: a live due entry implies a live slice, so the
    /// operator never gets there by itself) — emits, and leaves in each
    /// record, what sweeping every key in full does.
    #[test]
    fn a_mixed_bucket_sweeps_like_per_key_calls() {
        let build = || {
            let mut op = shared_op(10, KeyedConfig::default().with_allowed_lateness(100));
            let mut out = Vec::new();
            // Keys 1-4 regular, 5 planted, 6 clamped, 7 a watermark behind.
            let early: Vec<_> = (1..=7u64).map(|k| (k as Time, (k, 1))).collect();
            let next: Vec<_> = (1..=7u64).map(|k| (10 + k as Time, (k, 10))).collect();
            op.process_batch(&early, &mut out);
            op.process_batch(&next, &mut out);
            op.on_watermark(18, &mut out);
            assert_eq!(out.len(), 7);
            op.on_watermark(19, &mut out);
            // In step again: 1-5 by a tuple in the open slice, 6 by a late
            // one that leaves its `t_last` at 16; 8 is born, 7 untouched.
            let open: Vec<_> = (1..=5u64).map(|k| (20 + k as Time, (k, 100))).collect();
            op.process_batch(&open, &mut out);
            op.process_batch(&[(12, (6, 1_000)), (17, (8, 5))], &mut out);
            let s = shared_inner(&mut op);
            let planted = s.slot_of[&5].slot;
            s.slab.get_mut(planted).generation ^= 1;
            op
        };
        let (mut swept, mut by_key) = (build(), build());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        swept.on_watermark(28, &mut got);

        let s = shared_inner(&mut by_key);
        let bucket = s.due_buckets.remove(&20).expect("all eight keys wait for 20");
        assert_eq!(bucket.len(), 8);
        for &slot in &bucket {
            let st = s.slab.get_mut(slot);
            st.trim_to(&s.timeline);
            catch_up_floor(st, s.watermark, &s.queries);
            let (f, queries, stats) = (&s.f, &mut s.queries, &mut s.stats);
            sweep_key(st, f, queries, &s.timeline, 28, &mut s.sweep_memo, stats, &mut want);
            st.wm_seen = 28;
            st.due = due_of(st, &s.queries, &mut s.next_end_memo);
        }
        assert_eq!(got.len(), 7, "every key but 5, whose ring was emptied, fires [10, 20)");
        let rows = |out: &[WindowResult<(u64, i64)>]| -> Vec<_> {
            out.iter().map(|r| (r.range.start, r.range.end, r.value, r.is_update)).collect()
        };
        assert_eq!(rows(&got), rows(&want));
        let swept = shared_inner(&mut swept);
        assert!(swept.sweep_memo.asked.is_some(), "no key was swept up to the watermark itself");
        for &slot in &bucket {
            let (a, b) = (swept.slab.get(slot), s.slab.get(slot));
            let record = |st: &KeyState<SumI64>| {
                (st.key, st.floor, st.swept, st.wm_seen, st.due, st.first, st.ring.len())
            };
            assert_eq!(record(a), record(b));
        }
        let dues: Vec<Time> = bucket.iter().map(|&slot| s.slab.get(slot).due).collect();
        assert_eq!(dues, [30, 30, 30, 30, 30, NOT_DUE, NOT_DUE, NOT_DUE]);
    }

    /// The records keep 32 bits of the timeline's generation. A key
    /// stamped 1 sleeps while the generation goes once round: without the
    /// drop of every ring at `u32::MAX`, it would wake to find its stamp
    /// current and, the timeline having grown backwards past its stale
    /// index, read that index as a live slice.
    #[test]
    fn a_sleeping_key_is_carried_across_the_generation_wrap() {
        let cfg = KeyedConfig::default().with_allowed_lateness(0);
        let mut op = shared_op(10, cfg);
        let mut out = Vec::new();
        op.process(5, (1, 7), &mut out);
        op.on_watermark(100, &mut out);
        let s = shared_inner(&mut op);
        assert_eq!(s.timeline.generation(), 1);
        let sleeper = s.slot_of[&1].slot;
        assert_eq!(
            s.slab.get(sleeper).ring.len(),
            1,
            "trimmed lazily: the dead slot is still there"
        );
        // 2^32 - 3 rebirths later (the timeline is empty, so nothing but
        // its generation tells): one more reaches u32::MAX ...
        s.timeline = Timeline::at_generation(u64::from(u32::MAX) - 1);
        op.process(1_000, (2, 1), &mut out);
        op.on_watermark(2_000, &mut out);
        let s = shared_inner(&mut op);
        assert_eq!(s.timeline.generation() as u32, u32::MAX);
        assert!(s.slab.get(sleeper).ring.is_empty(), "the wrap drops every ring");
        // ... the next two wrap to 0 and to the sleeper's own stamp, 1.
        op.process(3_000, (3, 1), &mut out);
        op.on_watermark(4_000, &mut out);
        op.process(5_000, (4, 1), &mut out);
        let s = shared_inner(&mut op);
        assert_eq!(s.timeline.generation(), (1 << 32) + 1);
        assert_eq!(s.slab.get(sleeper).generation, 1);
        // A new key far behind grows the timeline backwards, past the
        // sleeper's stale index; then the sleeper returns.
        op.process(4_000, (5, 1), &mut out);
        let s = shared_inner(&mut op);
        assert!(s.timeline.base() < s.slab.get(sleeper).first);
        out.clear();
        op.process(5_005, (1, 9), &mut out);
        op.on_watermark(6_000, &mut out);
        assert_eq!(
            sorted(out),
            vec![
                (0, 4_000, 4_010, 5, 1, false),
                (0, 5_000, 5_010, 1, 9, false),
                (0, 5_000, 5_010, 4, 1, false),
            ]
        );
    }
}
