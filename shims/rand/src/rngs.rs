//! Named generators. `StdRng` here is xoshiro256++ — deterministic,
//! fast, and statistically strong; it is *not* bit-compatible with
//! upstream `rand`'s ChaCha12 `StdRng` (nothing in this workspace needs
//! that, only self-consistency).

use crate::{RngCore, SeedableRng};

/// The workspace's standard deterministic generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks(8).enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            s[i] = u64::from_le_bytes(bytes);
        }
        // xoshiro forbids the all-zero state; SplitMix64-expanded seeds
        // never produce it, but guard the from_seed path too.
        if s == [0; 4] {
            s = [0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB, 1];
        }
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // xoshiro256++ with state {1, 2, 3, 4}: first outputs from the
        // reference implementation (prng.di.unimi.it).
        let mut rng = StdRng { s: [1, 2, 3, 4] };
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(first, vec![41943041, 58720359, 3588806011781223]);
    }
}
