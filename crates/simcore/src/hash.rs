//! A small, seedless hasher for integer-keyed lookup tables.
//!
//! The simulator keeps several tables keyed by request ids (in-flight
//! latency attribution, the fleet's open-request table). They are hit
//! a few times per request, so std's default SipHash — built to resist
//! adversarial keys, which a simulation never sees — is pure overhead
//! there. [`IdHasher`] is a multiplicative (Fx-style) hash: one
//! rotate, xor and multiply per word.
//!
//! The hasher carries no per-process seed, so table layout is the
//! same on every run. Results must still never depend on it: tables
//! built on [`IdHashMap`] are only ever accessed by key, never
//! iterated.
//!
//! # Examples
//!
//! ```
//! use simcore::IdHashMap;
//!
//! let mut open: IdHashMap<u64, &str> = IdHashMap::default();
//! open.insert(7, "in flight");
//! assert_eq!(open.remove(&7), Some("in flight"));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (2^64 / φ, made odd), so
/// consecutive ids land in distinct buckets and the high bits the
/// table uses for its control bytes vary.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seedless multiplicative hasher for integer keys. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// A `HashMap` hashed by [`IdHasher`]. Access by key only; never let
/// its iteration order reach a result.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = IdHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashing_is_seedless_and_stable() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of(0u64), 0, "zero hashes to zero: no hidden seed");
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn sequential_and_strided_ids_spread_over_the_high_bits() {
        // hashbrown takes its 7-bit control tag from the top of the
        // hash; ids that differ only in low or only in high bits must
        // still disagree there most of the time.
        for stride in [1u64, 1 << 10, 1 << 32] {
            let tags: std::collections::BTreeSet<u64> =
                (0..256u64).map(|i| hash_of(i * stride) >> 57).collect();
            assert!(tags.len() > 64, "stride {stride}: {} tags", tags.len());
        }
    }

    #[test]
    fn map_agrees_with_an_ordered_model_under_churn() {
        let mut m: IdHashMap<u64, u64> = IdHashMap::default();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..10_000u64 {
            m.insert(i << 20, i);
            model.insert(i << 20, i);
            if i % 3 == 0 {
                let k = (i / 2) << 20;
                assert_eq!(m.remove(&k), model.remove(&k));
            }
        }
        assert_eq!(m.len(), model.len());
        assert!(model.iter().all(|(k, v)| m.get(k) == Some(v)));
    }
}
