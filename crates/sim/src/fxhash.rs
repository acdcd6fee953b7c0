//! Multiply-rotate hashing (the rustc `FxHash` construction) for hot
//! simulator maps.
//!
//! The memory controller's write-queue occupancy index sits on the
//! hottest simulated-read path and is keyed by plain block addresses
//! with no adversarial collision pressure. The standard library's
//! SipHash costs about as much per lookup as the work that map exists
//! to avoid, so it uses this fast non-cryptographic hasher instead.

use std::collections::HashMap;
use std::hash::Hasher;

/// The rustc `FxHash` word-mixing hasher.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // Length tag in the top byte keeps short tails of different
            // lengths from colliding after zero-padding.
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
#[derive(Default, Clone, Debug)]
pub struct BuildFxHasher;

impl std::hash::BuildHasher for BuildFxHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildFxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildFxHasher.hash_one(v)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        // Same bytes, different split points: the streaming interface
        // must produce one canonical answer per logical value.
        let a: &[u8] = &[1, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(hash_of(&a), hash_of(&a.to_vec().as_slice()));
    }

    #[test]
    fn short_tails_of_different_lengths_differ() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(&[0]), h(&[0, 0]));
        assert_ne!(h(&[7, 0]), h(&[7]));
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(9, "nine");
        assert_eq!(m.get(&9), Some(&"nine"));
    }
}
