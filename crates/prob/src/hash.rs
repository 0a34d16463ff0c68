//! A stable, explicitly-specified `Hasher`.
//!
//! `std::collections::hash_map::DefaultHasher` makes no cross-release
//! stability promise, and the solver derives every state's Monte-Carlo
//! seed from a state hash — so a toolchain upgrade could silently change
//! each search verdict. [`StableHasher`] fixes the algorithm forever:
//! FNV-1a over a byte stream with all integer writes little-endian, and a
//! SplitMix64 finalizer for avalanche. Deterministic across platforms,
//! endiannesses and Rust releases.

use crate::rng::splitmix64;
use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a with little-endian integer writes and a SplitMix64 finish.
///
/// The default `Hasher` integer methods forward to `write` with *native*
/// endianness, which would make hashes differ across platforms; every
/// integer method is therefore overridden to canonicalize to
/// little-endian bytes first.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// A hasher whose stream is domain-separated by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        let mut h = StableHasher::new();
        h.write_u64(seed);
        h
    }

    /// Feed an `f64` canonically: `-0.0` collapses onto `+0.0` and every
    /// NaN payload onto one canonical NaN ([`canonical_f64_bits`]), so
    /// semantically equal inputs hash equally.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(canonical_f64_bits(v));
    }
}

/// An `f64`'s bits with `-0.0` collapsed onto `+0.0` and every NaN
/// payload onto one canonical NaN: the form every content hash feeds.
pub fn canonical_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        // usize width varies by platform; canonicalize to 64 bits.
        self.write_u64(i as u64);
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// Hash a value with the stable algorithm (convenience wrapper).
pub fn stable_hash_of<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_never_change() {
        // Golden values: if these move, every recorded search verdict and
        // benchmark baseline in the repository silently shifts. Do not
        // update them to make a refactor pass.
        assert_eq!(stable_hash_of(&0u64), 0x5ba3_14b8_cfda_3b6b);
        assert_eq!(stable_hash_of(&vec![1usize, 2, 3]), 0x1106_7c64_fda1_2a9e);
        assert_eq!(stable_hash_of(&"deco"), 0xbc12_0399_73a6_3fdb);
    }

    #[test]
    fn distinguishes_states_and_orders() {
        assert_ne!(
            stable_hash_of(&vec![1u32, 2]),
            stable_hash_of(&vec![2u32, 1])
        );
        assert_ne!(stable_hash_of(&(1u8, 2u8)), stable_hash_of(&(2u8, 1u8)));
        assert_eq!(stable_hash_of(&vec![7i64]), stable_hash_of(&vec![7i64]));
    }

    #[test]
    fn f64_writes_are_canonical() {
        let h = |v: f64| {
            let mut h = StableHasher::new();
            h.write_f64(v);
            h.finish()
        };
        assert_eq!(h(0.0), h(-0.0));
        assert_eq!(h(f64::NAN), h(-f64::NAN));
        assert_ne!(h(1.0), h(2.0));
        assert_eq!(h(3.5), h(3.5));
    }

    #[test]
    fn seeded_hashers_are_domain_separated() {
        let mut a = StableHasher::with_seed(1);
        let mut b = StableHasher::with_seed(2);
        Hasher::write_u64(&mut a, 99);
        Hasher::write_u64(&mut b, 99);
        assert_ne!(a.finish(), b.finish());
    }
}
