//! A small non-cryptographic hasher for the executor's key sets, and
//! [`fnv1a`], a stable byte hash.
//!
//! Group and join keys that are not dense integer codes (see
//! [`crate::exec`]) hash `f64` bit patterns of generated values. SipHash
//! (the standard library default) spent most of the executor's time on
//! them. [`FastHasher`] folds each 64-bit word in with one xor and
//! one multiply, then mixes the state with the splitmix64 finalizer in
//! [`Hasher::finish`]. Histograms use no set: they count distincts per
//! value, with a bitmap, or in a small table of their own per bucket (see
//! [`crate::histogram`]).
//!
//! The finalizer is not optional. Integer-valued `f64` bit patterns have
//! their low mantissa bits all zero, and a product keeps the low zero bits
//! of its factors, so without the final avalanche every such key would
//! land in the same bucket of a power-of-two table.
//!
//! This hasher offers no HashDoS resistance. Its keys come from the data
//! generator, never from untrusted input; do not use it for keys from
//! outside the program.
//!
//! [`fnv1a`] is 64-bit FNV-1a, the same function of its bytes on every
//! platform and release. `sapred-query`'s `HashResolver` literal codes and
//! `sapred-selectivity`'s random-walk seeds hash through it, so both
//! reproduce anywhere.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier (2^64 / φ) spreading each word over the high bits.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Xor-multiply word hasher with a splitmix64 finalizer; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64's output mix.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` keyed through [`FastHasher`].
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(x: T) -> u64 {
        let mut h = FastHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integer_valued_floats_spread_over_low_bits() {
        // Integer-valued f64 bit patterns end in ≥36 zero bits. Without the
        // finalizer every one of them hashes to low bits 0; a random
        // function fills ≈63% of the 2^16 low-bit values.
        let n = 1usize << 16;
        let mut hit = vec![false; n];
        for i in 0..n {
            hit[(hash_of((i as f64).to_bits()) as usize) & (n - 1)] = true;
        }
        let filled = hit.iter().filter(|&&b| b).count();
        assert!(filled * 10 >= n * 6, "only {filled} of {n} low-bit values used");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // FNV-1a 64 published test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn byte_slices_hash_every_byte() {
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 8].as_slice()));
        assert_ne!(hash_of(vec![1u64, 2]), hash_of(vec![2u64, 1]));
        assert_ne!(hash_of(1u128), hash_of(1u128 << 64));
    }
}
