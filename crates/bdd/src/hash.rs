//! A fast, non-cryptographic hasher for the unique and computed tables.
//!
//! The default `SipHash` is needlessly slow for the hot hash-consing path of
//! a BDD package; this is the classic Fx multiply-rotate hash used by the
//! Rust compiler, reimplemented here to keep the crate dependency-free.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (the `rustc` "Fx" hash).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently_in_practice() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for a in 0u32..100 {
            for b in 0u32..100 {
                seen.insert(build.hash_one((a, b)));
            }
        }
        // Not a strict requirement, but collisions should be rare.
        assert!(seen.len() > 9_900);
    }

    #[test]
    fn deterministic() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let once = build.hash_one((1u32, 2u32, 3u32));
        let twice = build.hash_one((1u32, 2u32, 3u32));
        assert_eq!(once, twice);
    }
}
