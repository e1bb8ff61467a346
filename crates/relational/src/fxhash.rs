//! A fast, non-cryptographic hasher for join and index keys.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! key; the chase hashes millions of small keys (interned [`crate::Value`]s,
//! short tuples) where that overhead dominates.  This module hand-rolls the
//! well-known *FxHash* multiply-rotate scheme (the hasher rustc itself uses
//! for its interned ids) so the workspace stays free of external crates.
//!
//! The hasher is **not** HashDoS-resistant: use it for keys derived from
//! interned ids and internal row numbers, not for raw attacker-controlled
//! strings (the interner's own string → id map keeps `std`'s default
//! hasher for exactly that reason).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant of FxHash (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
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
        let mut rest = bytes;
        while let Some((chunk, tail)) = rest.split_first_chunk::<8>() {
            self.add_to_hash(u64::from_le_bytes(*chunk));
            rest = tail;
        }
        if let Some((chunk, tail)) = rest.split_first_chunk::<4>() {
            self.add_to_hash(u64::from(u32::from_le_bytes(*chunk)));
            rest = tail;
        }
        for &byte in rest {
            self.add_to_hash(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_inputs_hash_equal() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
        assert_eq!(hash_of(&(1u64, "x")), hash_of(&(1u64, "x")));
    }

    #[test]
    fn different_inputs_usually_hash_differently() {
        let hashes: std::collections::HashSet<u64> = (0u32..1_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1_000);
    }

    #[test]
    fn byte_slices_of_every_tail_length_work() {
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(h.finish(), h2.finish());
        }
    }

    #[test]
    fn maps_and_sets_behave() {
        let mut map: FxHashMap<&str, usize> = FxHashMap::default();
        map.insert("a", 1);
        map.insert("b", 2);
        assert_eq!(map.get("a"), Some(&1));
        let mut set: FxHashSet<u32> = FxHashSet::default();
        set.insert(7);
        assert!(set.contains(&7));
        assert!(!set.contains(&8));
    }
}
