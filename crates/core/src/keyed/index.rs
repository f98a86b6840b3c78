//! The key index of the shared-timeline keyed operator: key → slab slot,
//! with each key stored once, in its slab record.
//!
//! A power-of-two table of 1-byte hash tags and 4-byte slots, probed
//! from [`fx_hash_u64`] of the key. Eight entries form a probe group:
//! their tags one `u64`, matched a word at a time (the portable group of
//! hashbrown's SwissTable), beside their slots, so that a probe reads one
//! 40-byte group. Groups are visited in triangular order, which covers a
//! power-of-two table. The caller confirms a tag match against the key in
//! the record the slot names — the record the tuple is about to update
//! anyway — so a hit costs the index the tag word and the slot, and no
//! key is kept here. As in hashbrown, the group comes from the hash's low
//! bits and the tag from its top seven: FxHash's low bits are a
//! permutation of a run of consecutive keys' (each lands in a group of
//! its own while there is one), where its top bits bunch such a run into
//! a few hundred values.
//!
//! The index cannot move an entry without the keys, which it does not
//! hold: growth and tombstone clean-up are a [`KeyIndex::rebuild`] from
//! the caller's live `(key, slot)` pairs, which the operator reads in
//! one pass over its slab in slot order.

use crate::cast;
use crate::hash::fx_hash_u64;

/// Entries per probe group: the tag bytes of one `u64`.
const GROUP: usize = 8;
/// Tag of an entry that never held a slot since the last rebuild. A
/// probe stops at the first group that has one.
const EMPTY: u8 = 0xFF;
/// Tag of a removed entry (a tombstone): a probe passes it, an insert
/// may take it. A full entry's tag is seven hash bits, top bit clear.
const DELETED: u8 = 0x80;
const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// The lanes of `word` that may hold `tag`, one high bit each: every lane
/// that does, and now and then the one above it (the borrow of the
/// subtraction), which the caller's key check rejects.
#[inline]
fn match_tag(word: u64, tag: u8) -> u64 {
    let x = word ^ (LO * u64::from(tag));
    x.wrapping_sub(LO) & !x & HI
}

/// The [`EMPTY`] lanes of `word`.
#[inline]
fn match_empty(word: u64) -> u64 {
    word & (word << 1) & HI
}

/// The lane of the lowest bit of a non-empty lane mask.
#[inline]
fn lowest(mask: u64) -> usize {
    cast::idx32(mask.trailing_zeros()) / 8 % GROUP
}

/// Entries a table of `groups` groups takes before it must grow: seven
/// in eight.
fn full_capacity(groups: usize) -> usize {
    groups * GROUP / 8 * 7
}

/// [`GROUP`] entries: their tags, lane `i` in byte `i`, and their slots,
/// meaningless where the tag is not full.
#[derive(Clone, Copy)]
struct Group {
    tags: u64,
    slots: [u32; GROUP],
}

const NO_GROUP: Group = Group { tags: LO * EMPTY as u64, slots: [0; GROUP] };

/// Key → slot for the live keys (see the module docs). Empty until the
/// first insert, which fails and asks for a [`KeyIndex::rebuild`].
#[derive(Default)]
pub(super) struct KeyIndex {
    groups: Vec<Group>,
    /// Live entries.
    items: usize,
    /// Entries that may still turn an [`EMPTY`] lane full before the
    /// table must grow; a tombstone uses up its lane's share.
    growth_left: usize,
    /// `groups - 1`.
    mask: usize,
}

impl KeyIndex {
    /// Live entries.
    pub(super) fn len(&self) -> usize {
        self.items
    }

    /// The table's allocation: a tag and a slot per entry.
    pub(super) fn heap_bytes(&self) -> usize {
        self.groups.capacity() * std::mem::size_of::<Group>()
    }

    /// The group a probe for `hash` starts at, and the tag it looks for.
    #[inline]
    fn home(&self, hash: u64) -> (usize, u8) {
        (cast::to_usize(hash) & self.mask, (hash >> 57) as u8)
    }

    #[inline]
    fn tag_at(&self, pos: usize) -> u8 {
        (self.groups[pos / GROUP].tags >> (pos % GROUP * 8)) as u8
    }

    /// Gives entry `pos` its tag, and its slot if it has one.
    #[inline]
    fn set(&mut self, pos: usize, tag: u8, slot: u32) {
        let (lane, group) = (pos % GROUP, &mut self.groups[pos / GROUP]);
        let shift = lane * 8;
        group.tags = group.tags & !(0xFF << shift) | u64::from(tag) << shift;
        group.slots[lane] = slot;
    }

    /// The slot indexed under `key`, confirming each tag match with
    /// `key_at(slot) == key`.
    #[inline(always)]
    pub(super) fn find(&self, key: u64, key_at: impl Fn(u32) -> u64) -> Option<u32> {
        let (mut group, tag) = self.home(fx_hash_u64(key));
        let mut stride = 0;
        loop {
            // `get`, not an index: an empty table has no group to miss.
            let Group { tags, slots } = self.groups.get(group)?;
            let mut hits = match_tag(*tags, tag);
            while hits != 0 {
                let slot = slots[lowest(hits)];
                if key_at(slot) == key {
                    return Some(slot);
                }
                hits &= hits - 1;
            }
            // A group with an empty lane ends every probe path through it.
            if match_empty(*tags) != 0 {
                return None;
            }
            stride += 1;
            group = (group + stride) & self.mask;
        }
    }

    /// Indexes `slot` under `key`, which the index does not hold, in the
    /// first lane on its probe path that is empty or a tombstone — unless
    /// that would fill the table past seven in eight: then returns
    /// `false`, and the caller rebuilds.
    pub(super) fn insert(&mut self, key: u64, slot: u32) -> bool {
        let (mut group, tag) = self.home(fx_hash_u64(key));
        if self.groups.is_empty() {
            return false;
        }
        let mut stride = 0;
        let pos = loop {
            let open = self.groups[group].tags & HI;
            if open != 0 {
                break group * GROUP + lowest(open);
            }
            stride += 1;
            group = (group + stride) & self.mask;
        };
        if self.tag_at(pos) == EMPTY {
            if self.growth_left == 0 {
                return false;
            }
            self.growth_left -= 1;
        }
        self.set(pos, tag, slot);
        self.items += 1;
        true
    }

    /// Removes the entry of `key`, which names `slot`: found by the slot
    /// on `key`'s probe path, no record read. A lane in a group that has
    /// an empty one goes back to empty (no probe path runs through that
    /// group); any other becomes a tombstone. Returns whether it was
    /// there.
    pub(super) fn remove(&mut self, key: u64, slot: u32) -> bool {
        let (mut group, tag) = self.home(fx_hash_u64(key));
        if self.groups.is_empty() {
            return false;
        }
        let mut stride = 0;
        loop {
            let Group { tags: word, slots } = self.groups[group];
            let mut hits = match_tag(word, tag);
            while hits != 0 {
                let lane = lowest(hits);
                if slots[lane] == slot {
                    let vacated = if match_empty(word) != 0 {
                        self.growth_left += 1;
                        EMPTY
                    } else {
                        DELETED
                    };
                    self.set(group * GROUP + lane, vacated, slot);
                    self.items -= 1;
                    return true;
                }
                hits &= hits - 1;
            }
            if match_empty(word) != 0 {
                return false;
            }
            stride += 1;
            group = (group + stride) & self.mask;
        }
    }

    /// The entries a rebuild must make room for when an insert finds no
    /// room: the live ones and the one being inserted. That is the present
    /// size while they fill at most seven eighths of what it takes (an
    /// eighth or more is tombstones, which the rebuild drops), else the
    /// next. A population that churns at a constant size thus keeps its
    /// table, and rebuilds after at least an eighth of it was replaced.
    pub(super) fn room_to_insert(&self) -> usize {
        let full = full_capacity(self.groups.len());
        let need = self.items + 1;
        if need <= full / 8 * 7 {
            full
        } else {
            need.max(full + 1)
        }
    }

    /// Empties the table, sizes it for `need` entries at seven in eight,
    /// and indexes `live`, at most `need` distinct `(key, slot)` pairs.
    pub(super) fn rebuild(&mut self, need: usize, live: impl Iterator<Item = (u64, u32)>) {
        let entries = (need * 8).div_ceil(7).max(GROUP).next_power_of_two();
        let groups = entries / GROUP;
        self.groups = vec![NO_GROUP; groups];
        self.items = 0;
        self.growth_left = full_capacity(groups);
        self.mask = groups - 1;
        for (key, slot) in live {
            let inserted = self.insert(key, slot);
            debug_assert!(inserted, "a rebuild for {need} entries ran out of room");
        }
    }

    /// Every live entry's slot, for the audit.
    #[cfg(any(test, feature = "audit"))]
    pub(super) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        let entries = self.groups.iter().flat_map(|g| (0..GROUP).map(move |lane| (g, lane)));
        entries.filter(|(g, lane)| g.tags >> (lane * 8) & 0x80 == 0).map(|(g, lane)| g.slots[lane])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;
    use proptest::prelude::*;

    /// The index over a model slab: `keys[slot]` is the key a record
    /// holds, `live[slot]` whether it holds one.
    struct Harness {
        index: KeyIndex,
        keys: Vec<u64>,
        live: Vec<bool>,
        free: Vec<u32>,
        model: FxHashMap<u64, u32>,
        rebuilds: usize,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                index: KeyIndex::default(),
                keys: Vec::new(),
                live: Vec::new(),
                free: Vec::new(),
                model: FxHashMap::default(),
                rebuilds: 0,
            }
        }

        fn find(&self, key: u64) -> Option<u32> {
            self.index.find(key, |slot| self.keys[cast::idx32(slot)])
        }

        fn insert(&mut self, key: u64) {
            if let Some(slot) = self.find(key) {
                assert_eq!(self.model.get(&key), Some(&slot));
                return;
            }
            assert!(!self.model.contains_key(&key), "key {key} indexed but not found");
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.keys.push(0);
                    self.live.push(false);
                    cast::slot32(self.keys.len() - 1)
                }
            };
            let i = cast::idx32(slot);
            (self.keys[i], self.live[i]) = (key, true);
            if !self.index.insert(key, slot) {
                let need = self.index.room_to_insert();
                let (keys, live) = (&self.keys, &self.live);
                let pairs =
                    (0..keys.len()).filter(|&i| live[i]).map(|i| (keys[i], cast::slot32(i)));
                self.index.rebuild(need, pairs);
                self.rebuilds += 1;
            }
            self.model.insert(key, slot);
        }

        fn remove(&mut self, key: u64) {
            let Some(slot) = self.model.remove(&key) else {
                assert!(self.find(key).is_none());
                return;
            };
            assert!(self.index.remove(key, slot), "key {key} was not indexed");
            let i = cast::idx32(slot);
            (self.keys[i], self.live[i]) = (0, false);
            self.free.push(slot);
        }

        /// The index holds exactly the model, and no free slot.
        fn check(&self) {
            assert_eq!(self.index.len(), self.model.len());
            for (&key, &slot) in &self.model {
                assert_eq!(self.find(key), Some(slot), "key {key}");
            }
            let mut indexed: Vec<u32> = self.index.slots().collect();
            let mut live: Vec<u32> = self.model.values().copied().collect();
            indexed.sort_unstable();
            live.sort_unstable();
            assert_eq!(indexed, live);
            let full = full_capacity(self.index.groups.len());
            assert_eq!(full - self.index.growth_left, self.index.len() + self.tombstones());
        }

        fn tombstones(&self) -> usize {
            let entries = 0..self.index.groups.len() * GROUP;
            entries.filter(|&pos| self.index.tag_at(pos) == DELETED).count()
        }
    }

    /// `FxHash(key) = key · SEED`, an odd multiplier: keys `k · 2^s` agree
    /// in the hash's low `s` bits, and `inverse · v` hashes to `v`.
    fn colliding_keys() -> Vec<u64> {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut inverse: u64 = 1;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(SEED.wrapping_mul(inverse)));
        }
        assert_eq!(SEED.wrapping_mul(inverse), 1);
        let low = (1..40u64).map(|k| k << 40);
        let top = (1..40u64).map(|v| inverse.wrapping_mul(v));
        let mut keys = vec![0, u64::MAX, u64::MAX - 1];
        keys.extend(low.chain(top));
        keys
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64),
        Lookup(u64),
        Remove(u64),
    }

    /// An operation on a key below `keys` or, one time in four, on one
    /// of [`colliding_keys`]; `inserts` in `inserts + 2` are inserts.
    fn op(keys: u64, inserts: u8) -> impl Strategy<Value = Op> {
        let specials = colliding_keys();
        let n = specials.len();
        (0..inserts + 2, 0..4u8, 0..keys, 0..n).prop_map(move |(kind, pick, k, s)| {
            let k = if pick == 0 { specials[s] } else { k };
            match kind {
                _ if kind < inserts => Op::Insert(k),
                _ if kind == inserts => Op::Lookup(k),
                _ => Op::Remove(k),
            }
        })
    }

    proptest! {
        /// Random interleavings against a map: a growth phase over ever
        /// more keys (past four rebuilds), then a churn phase whose
        /// removals leave tombstones behind, then a check of every entry.
        #[test]
        fn the_index_agrees_with_a_map(
            grow in proptest::collection::vec(op(400, 3), 200..600),
            churn in proptest::collection::vec(op(600, 1), 200..800),
        ) {
            let mut h = Harness::new();
            let mut tombstones = 0;
            for (i, op) in grow.iter().chain(&churn).enumerate() {
                if i == grow.len() {
                    // Growth: four rebuilds at least before the churn.
                    for k in 1_000..1_100 {
                        h.insert(k);
                    }
                    prop_assert!(h.rebuilds >= 4, "{} rebuilds", h.rebuilds);
                    h.check();
                }
                match *op {
                    Op::Insert(k) => h.insert(k),
                    Op::Remove(k) => {
                        h.remove(k);
                        tombstones = tombstones.max(h.tombstones());
                    }
                    Op::Lookup(k) => {
                        prop_assert_eq!(h.find(k), h.model.get(&k).copied());
                    }
                }
            }
            h.check();
            prop_assert!(tombstones > 0, "no removal left a tombstone");
        }
    }

    /// Keys whose hashes agree in their low bits, or in their top bits
    /// (where the group and the tag come from: one group, or one tag, for
    /// all of them), probe past one another; removing them in either order
    /// leaves the rest findable.
    #[test]
    fn colliding_hashes_probe_past_one_another() {
        let mut h = Harness::new();
        let keys = colliding_keys();
        for &k in &keys {
            h.insert(k);
        }
        h.check();
        for &k in keys.iter().step_by(2) {
            h.remove(k);
        }
        h.check();
        for &k in keys.iter().rev() {
            h.insert(k);
        }
        h.check();
        for &k in keys.iter().rev().step_by(3) {
            h.remove(k);
        }
        h.check();
    }

    /// Removals from a group with no empty lane leave tombstones; an
    /// insert that then finds no room rebuilds at the same size while the
    /// live keys fill at most seven eighths of what it takes.
    #[test]
    fn tombstones_are_cleaned_up_in_place() {
        let mut h = Harness::new();
        // Hashes that agree in their low 40 bits share one probe path: 56
        // keys fill seven of the eight groups of a 64-entry table.
        let chain: Vec<u64> = (1..=56).map(|i| i << 40).collect();
        chain.iter().for_each(|&k| h.insert(k));
        assert_eq!(h.index.heap_bytes(), 64 * 5);
        chain[..50].iter().for_each(|&k| h.remove(k));
        h.check();
        assert_eq!(h.tombstones(), 50);
        // Other keys take the tombstones on their paths, until one finds an
        // empty lane and no room: the table is rebuilt, at its size.
        let rebuilds = h.rebuilds;
        for k in 0.. {
            h.insert(k);
            if h.rebuilds > rebuilds {
                break;
            }
            assert!(k < 64, "no rebuild");
        }
        h.check();
        assert_eq!((h.index.heap_bytes(), h.tombstones()), (64 * 5, 0));
    }

    /// A population that churns at a constant size keeps its table.
    #[test]
    fn churn_at_a_constant_population_keeps_the_table() {
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        let mut h = Harness::new();
        for i in 0..97 {
            h.insert(key(i));
        }
        assert_eq!(h.index.heap_bytes(), 128 * 5, "97 keys take 128 entries");
        for i in 97..10_000 {
            h.remove(key(i - 97));
            h.insert(key(i));
        }
        h.check();
        assert_eq!(h.index.heap_bytes(), 128 * 5);
    }
}
