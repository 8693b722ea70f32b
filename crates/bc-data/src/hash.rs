//! The workspace's one fast hasher, for maps keyed by [`VarId`](crate::VarId)
//! and by what a search derives from its own condition.
//!
//! [`FxHasher`] is a multiply-rotate word hasher in the style of rustc's:
//! a few cycles per word and no per-process seed, so a hash (and a map's
//! iteration order) is the same in every run. It has no protection against
//! keys crafted to collide, which is why an [`FxMap`] never iterates where
//! output order matters: its users sort first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map hashed with [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A multiply-rotate word hasher in the style of rustc's `FxHasher`.
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
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;
    use std::hash::Hash;

    fn hash_of(x: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashes_are_fixed_across_runs() {
        // No per-process seed: the same key hashes the same everywhere.
        assert_eq!(hash_of(VarId::new(3, 1)), hash_of(VarId::new(3, 1)));
        assert_ne!(hash_of(VarId::new(3, 1)), hash_of(VarId::new(1, 3)));
        assert_eq!(hash_of(7u32), 7u64.wrapping_mul(FxHasher::SEED));
    }

    #[test]
    fn byte_writes_pad_the_last_word() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0, 0, 0, 0]);
        assert_eq!(a.finish(), b.finish());
    }
}
