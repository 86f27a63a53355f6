//! Decision keys: what a route decision is cached by.

use std::hash::{BuildHasherDefault, Hasher};

/// Size-class boundaries, matching `obs::health::size_class`: transfers
/// under 16 MB are "small", under 256 MB "medium", the rest "large".
pub const SIZE_CLASS_SMALL: u8 = 0;
/// Medium size class (16–256 MB).
pub const SIZE_CLASS_MEDIUM: u8 = 1;
/// Large size class (≥ 256 MB).
pub const SIZE_CLASS_LARGE: u8 = 2;
/// Number of size classes.
pub const SIZE_CLASSES: u8 = 3;

/// The cache key for one scored decision: which vantage is asking, which
/// provider it targets, and the transfer's size class. `Copy` and packable
/// into a `u64`, so the hot path never hashes strings or clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    /// Vantage (client aggregation point) index, `0..vantages`.
    pub vantage: u32,
    /// Provider index, `0..providers`.
    pub provider: u16,
    /// Size class, `0..SIZE_CLASSES`.
    pub size_class: u8,
}

impl DecisionKey {
    /// Pack into a single `u64` (vantage high, then provider, then class).
    pub fn pack(self) -> u64 {
        ((self.vantage as u64) << 24) | ((self.provider as u64) << 8) | self.size_class as u64
    }

    /// Inverse of [`DecisionKey::pack`].
    pub fn unpack(packed: u64) -> Self {
        DecisionKey {
            vantage: (packed >> 24) as u32,
            provider: (packed >> 8) as u16,
            size_class: packed as u8,
        }
    }
}

/// A tiny multiply-xor hasher for packed keys: one multiplication per
/// `u64`, no per-call allocation, no random state. The default SipHash
/// would dominate a warm lookup's cost; packed decision keys don't need
/// DoS resistance.
#[derive(Debug, Default, Clone, Copy)]
pub struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci-style mix: multiply by the 64-bit golden ratio and
        // fold the high bits back so nearby keys land in distinct shards.
        let x = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

/// `BuildHasher` for [`PackedKeyHasher`].
pub type PackedKeyBuild = BuildHasherDefault<PackedKeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips() {
        for key in [
            DecisionKey {
                vantage: 0,
                provider: 0,
                size_class: 0,
            },
            DecisionKey {
                vantage: 1_048_575,
                provider: 999,
                size_class: 2,
            },
            DecisionKey {
                vantage: u32::MAX >> 24,
                provider: u16::MAX,
                size_class: SIZE_CLASSES - 1,
            },
        ] {
            assert_eq!(DecisionKey::unpack(key.pack()), key);
        }
    }

    #[test]
    fn hasher_spreads_adjacent_keys() {
        use std::hash::BuildHasher;
        let build = PackedKeyBuild::default();
        let mut shards = std::collections::HashSet::new();
        for v in 0..64u32 {
            let key = DecisionKey {
                vantage: v,
                provider: 1,
                size_class: 0,
            };
            shards.insert((build.hash_one(key.pack()) as usize) & 15);
        }
        assert!(shards.len() >= 12, "adjacent keys clumped: {shards:?}");
    }
}
