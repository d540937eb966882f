//! The workspace's stable hashes: SplitMix64 for seed derivation and bit
//! mixing, FNV-1a for digests of byte strings.
//!
//! Both are pure functions of their input — identical across runs,
//! platforms and thread counts — which is what every seed lane, sketch
//! row and digest in the pipeline relies on. Neither is cryptographic.

/// The SplitMix64 increment (2^64 / φ, odd): the golden-ratio stride
/// between consecutive states.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer (Stafford's "Mix13") on its own: a
/// bijective avalanche of the 64 input bits, without the increment.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `z`: the finalizer over
/// `z + GOLDEN_GAMMA`. A generator whose state advances by
/// [`GOLDEN_GAMMA`] per draw yields `splitmix64(state)` before each
/// advance.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// 64-bit FNV-1a over `bytes`: anonymized client ids, train/test splits,
/// and the manifest's digests of fault plans and configurations.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a(b"10.0.0.1"), fnv1a(b"10.0.0.2"));
    }

    #[test]
    fn splitmix64_matches_the_reference_generator() {
        // The first outputs of Vigna's splitmix64.c seeded with 0.
        let mut state = 0u64;
        let mut next = || {
            let out = splitmix64(state);
            state = state.wrapping_add(GOLDEN_GAMMA);
            out
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(next(), 0x06C4_5D18_8009_454F);
    }
}
