//! A fast non-cryptographic hasher for key-grouped batching.
//!
//! Keyed window state lives in hash maps indexed by `u64` keys, touched
//! once per tuple run on the hot path. `std`'s default SipHash is
//! DoS-resistant but costs tens of cycles per key; for internal,
//! non-adversarial key routing the FxHash construction (a single
//! multiply-xor per word, as used by rustc's interners) is the standard
//! choice. The tree is offline (no crates.io), so the ~30 lines live here
//! instead of pulling in the `fxhash`/`rustc-hash` crate.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash construction: the golden-ratio constant
/// also used by Fibonacci hashing ([`crate::time`] is unrelated — this is
/// purely bit mixing).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher: one wrapping multiply and xor-rotate
/// per 8-byte word. Not DoS-resistant — use only for internal keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // chunks_exact(8) guarantees the width.
            let word: [u8; 8] = chunk.try_into().unwrap_or_default();
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (deterministic: no per-map random seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — the map type for per-key window
/// state and batch grouping.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Heap bytes of a map's table (not what its keys and values own),
/// estimated from its capacity as std's SwissTable lays it out: a power
/// of two of buckets kept at most 7/8 full (below eight buckets, one
/// free), each a `(K, V)` and a control byte, and one trailing group of
/// 16 control bytes. Counting `len` entries instead would miss the empty
/// buckets — up to half the table right after it grew.
pub(crate) fn map_heap_bytes<K, V>(map: &FxHashMap<K, V>) -> usize {
    let buckets = match map.capacity() {
        0 => return 0,
        c @ 1..=7 => c + 1,
        c => c / 7 * 8,
    };
    (buckets * std::mem::size_of::<(K, V)>()).next_multiple_of(16) + buckets + 16
}

/// Hashes one `u64` key (convenience for tests and probing).
#[inline]
pub fn fx_hash_u64(key: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(key);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(fx_hash_u64(42), fx_hash_u64(42));
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Sequential keys must spread: count distinct top bytes over a
        // small range (a weak but deterministic avalanche check).
        let mut top_bytes = std::collections::HashSet::new();
        for k in 0u64..256 {
            top_bytes.insert((fx_hash_u64(k) >> 56) as u8);
        }
        assert!(top_bytes.len() > 100, "only {} distinct top bytes", top_bytes.len());
    }

    #[test]
    fn map_works_with_u64_keys() {
        let mut m: FxHashMap<u64, i64> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, k as i64 * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
    }

    #[test]
    fn table_bytes_follow_the_bucket_count_not_the_length() {
        let mut m: FxHashMap<u64, [u32; 3]> = FxHashMap::default();
        assert_eq!(map_heap_bytes(&m), 0);
        m.insert(1, [0; 3]);
        assert_eq!(map_heap_bytes(&m), 4 * 24 + 4 + 16, "std starts at four buckets");
        m.extend((0..20_000u64).map(|k| (k, [0; 3])));
        assert_eq!(m.capacity(), 28_672);
        assert_eq!(map_heap_bytes(&m), 32_768 * 25 + 16);
    }

    #[test]
    fn partial_words_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"abc");
        let mut b = FxHasher::default();
        b.write(b"abc");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"abd");
        assert_ne!(a.finish(), c.finish());
    }
}
