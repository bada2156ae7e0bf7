//! Primality testing and random prime generation (for RSA keygen).

use crate::bigint::BigUint;
use rand::Rng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// With 32 rounds the error probability is below 4^-32 — far beyond what a
/// simulation needs.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    // Trial division handles small n exactly and cheaply filters large n.
    for &p in &SMALL_PRIMES {
        let p_big = BigUint::from_u64(p);
        match n.cmp_big(&p_big) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Greater => {
                if n.rem(&p_big).is_zero() {
                    return false;
                }
            }
        }
    }

    // Write n - 1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }

    let two = BigUint::from_u64(2);
    let n_minus_2 = n.sub(&two);
    'witness: for _ in 0..rounds {
        // a in [2, n-2]
        let a = BigUint::random_below(rng, &n_minus_2.sub(&BigUint::one())).add(&two);
        let mut x = a.mod_pow(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generate a random prime with exactly `bits` bits.
pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 8, "prime must have at least 8 bits");
    loop {
        let mut candidate = BigUint::random_exact_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        if candidate.bit_len() != bits {
            continue;
        }
        if is_probable_prime(&candidate, 24, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_primes_are_prime() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 97, 199, 211, 65_537, 1_000_003] {
            assert!(is_probable_prime(&BigUint::from_u64(p), 16, &mut rng), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_are_composite() {
        let mut rng = StdRng::seed_from_u64(1);
        for c in [0u64, 1, 4, 6, 9, 15, 100, 65_536, 1_000_001, 561, 41041] {
            // 561 and 41041 are Carmichael numbers — the classic Fermat-test traps.
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), 16, &mut rng), "{c}");
        }
    }

    #[test]
    fn random_prime_has_requested_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [8usize, 16, 32, 64, 128] {
            let p = random_prime(&mut rng, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even() || p == BigUint::from_u64(2));
        }
    }

    #[test]
    fn random_prime_256_bits() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = random_prime(&mut rng, 256);
        assert_eq!(p.bit_len(), 256);
        assert!(is_probable_prime(&p, 16, &mut rng));
    }

    #[test]
    fn product_of_primes_is_composite() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = random_prime(&mut rng, 32);
        let q = random_prime(&mut rng, 32);
        assert!(!is_probable_prime(&p.mul(&q), 16, &mut rng));
    }
}
