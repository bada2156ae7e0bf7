//! Textbook RSA keypairs over [`BigUint`], used as the base signature
//! scheme for Chaum blind signatures (§4.2's rate-limit tokens).
//!
//! Signatures are over 32-byte digests interpreted as integers; there is no
//! padding scheme (simulation-grade — see the crate docs).

use crate::bigint::{BigUint, Montgomery};
use crate::prime::random_prime;
use orsp_types::OrspError;
use rand::Rng;
use std::fmt;

/// Modulus size for callers that do not choose one (the simulation
/// harnesses pick their own; the served pipeline, `PipelineConfig`,
/// defaults to 256). Large enough that the adversary simulations cannot
/// factor it by accident.
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

impl RsaPublicKey {
    /// Verify a raw signature over a digest: `sig < n` and
    /// `sig^e mod n == digest mod n`. Only the canonical `sig < n` is
    /// accepted, so `sig + n`, `sig + 2n`, … cannot stand in for it.
    pub fn verify_digest(&self, digest: &[u8], signature: &BigUint) -> bool {
        if signature >= &self.n {
            return false;
        }
        let m = BigUint::from_bytes_be(digest).rem(&self.n);
        self.apply(signature) == m
    }

    /// Apply the public operation `m^e mod n` (used when blinding).
    pub fn apply(&self, m: &BigUint) -> BigUint {
        m.mod_pow(&self.e, &self.n)
    }
}

/// An RSA keypair. The private half is held in CRT form: each prime in
/// its Montgomery context, `dp = d mod (p−1)`, `dq = d mod (q−1)` and
/// `q⁻¹ mod p`. `Debug` shows only the public half.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// The public half.
    pub public: RsaPublicKey,
    /// Montgomery context for `n`, for the self-check on every signature.
    mont_n: Montgomery,
    mont_p: Montgomery,
    mont_q: Montgomery,
    dp: BigUint,
    dq: BigUint,
    q_inv: BigUint,
}

impl RsaKeyPair {
    /// Generate a keypair with a modulus of `bits` bits (use
    /// [`DEFAULT_MODULUS_BITS`] unless testing).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 32, "modulus too small to be meaningful");
        let e = BigUint::from_u64(65_537);
        loop {
            let p = random_prime(rng, bits / 2);
            let q = random_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let p1 = p.sub(&BigUint::one());
            let q1 = q.sub(&BigUint::one());
            let phi = p1.mul(&q1);
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let d = e.mod_inverse(&phi).expect("e coprime to phi");
            let n = p.mul(&q);
            return RsaKeyPair {
                mont_n: Montgomery::new(&n),
                public: RsaPublicKey { n, e },
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                q_inv: q.mod_inverse(&p).expect("distinct primes are coprime"),
                mont_p: Montgomery::new(&p),
                mont_q: Montgomery::new(&q),
            };
        }
    }

    /// Sign a 32-byte digest: `digest^d mod n`. Panics if the CRT
    /// self-check fails (see [`Self::try_apply_private`]).
    pub fn sign_digest(&self, digest: &[u8]) -> BigUint {
        self.apply_private(&BigUint::from_bytes_be(digest))
    }

    /// Apply the private operation to an arbitrary value (the mint signing
    /// a *blinded* message it cannot read). Panics if the CRT self-check
    /// fails; a mint that must keep serving calls
    /// [`Self::try_apply_private`].
    pub fn apply_private(&self, m: &BigUint) -> BigUint {
        self.try_apply_private(m)
            .expect("CRT signature failed its self-check: the private key is corrupt")
    }

    /// `m^d mod n` by the Chinese remainder theorem — two half-size
    /// exponentiations recombined by Garner's formula — checked against
    /// `s^e ≡ m (mod n)` before it is returned.
    ///
    /// A fault in one half gives an `s` that is right modulo one prime and
    /// wrong modulo the other, and `gcd(s^e − m, n)` then factors `n` (the
    /// Bellcore attack). A signature that fails the check is withheld and
    /// an [`OrspError::Crypto`] returned instead.
    pub fn try_apply_private(&self, m: &BigUint) -> orsp_types::Result<BigUint> {
        let (p, q) = (self.mont_p.modulus(), self.mont_q.modulus());
        let m_p = self.mont_p.pow(m, &self.dp);
        let m_q = self.mont_q.pow(m, &self.dq);
        // s = m_q + q·((m_p − m_q)·q⁻¹ mod p), which lies in [0, n).
        let m_q_mod_p = m_q.rem(p);
        let diff = match m_p.checked_sub(&m_q_mod_p) {
            Some(d) => d,
            None => m_p.add(p).sub(&m_q_mod_p),
        };
        let s = m_q.add(&diff.mul_mod(&self.q_inv, p).mul(q));
        if self.mont_n.pow(&s, &self.public.e) != m.rem(&self.public.n) {
            return Err(OrspError::Crypto(
                "CRT signature failed its self-check; withheld".into(),
            ));
        }
        Ok(s)
    }

    /// A copy whose `dp` is off by one: for almost every input its
    /// signature is wrong modulo `p`, the fault the self-check must catch.
    #[cfg(test)]
    pub(crate) fn with_corrupted_dp(&self) -> RsaKeyPair {
        RsaKeyPair { dp: self.dp.add(&BigUint::one()), ..self.clone() }
    }
}

impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaKeyPair").field("public", &self.public).finish_non_exhaustive()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sha256::sha256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn from_hex(hex: &str) -> BigUint {
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect();
        BigUint::from_bytes_be(&bytes)
    }

    fn test_keypair(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        // 256-bit keys keep the test suite fast; protocol is identical.
        RsaKeyPair::generate(&mut rng, 256)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = test_keypair(1);
        let digest = sha256(b"hello opinions");
        let sig = kp.sign_digest(&digest);
        assert!(kp.public.verify_digest(&digest, &sig));
    }

    #[test]
    fn wrong_digest_fails() {
        let kp = test_keypair(2);
        let sig = kp.sign_digest(&sha256(b"message A"));
        assert!(!kp.public.verify_digest(&sha256(b"message B"), &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = test_keypair(3);
        let kp2 = test_keypair(4);
        let digest = sha256(b"msg");
        let sig = kp1.sign_digest(&digest);
        assert!(!kp2.public.verify_digest(&digest, &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = test_keypair(5);
        let digest = sha256(b"msg");
        let sig = kp.sign_digest(&digest).add(&BigUint::one());
        assert!(!kp.public.verify_digest(&digest, &sig));
    }

    #[test]
    fn public_private_are_inverses() {
        let kp = test_keypair(6);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..4 {
            let m = BigUint::random_below(&mut rng, &kp.public.n);
            let c = kp.public.apply(&m);
            assert_eq!(kp.apply_private(&c), m);
            let s = kp.apply_private(&m);
            assert_eq!(kp.public.apply(&s), m);
        }
    }

    /// `d` rebuilt from the CRT half: `e⁻¹ mod (p−1)(q−1)`.
    fn private_exponent(kp: &RsaKeyPair) -> BigUint {
        let one = BigUint::one();
        let p1 = kp.mont_p.modulus().sub(&one);
        let q1 = kp.mont_q.modulus().sub(&one);
        kp.public.e.mod_inverse(&p1.mul(&q1)).expect("e coprime to phi")
    }

    #[test]
    fn crt_matches_direct_exponentiation() {
        let mut rng = StdRng::seed_from_u64(8);
        for bits in [256usize, 512, 1024, 2048] {
            let kp = RsaKeyPair::generate(&mut rng, bits);
            let n = &kp.public.n;
            let d = private_exponent(&kp);
            let p = kp.mont_p.modulus();
            let mut inputs = vec![
                BigUint::zero(),
                n.clone(),
                n.add(&BigUint::random_below(&mut rng, n)),
                p.mul(&BigUint::from_u64(12_345)),
            ];
            inputs.extend((0..3).map(|_| BigUint::random_below(&mut rng, n)));
            for m in &inputs {
                assert_eq!(kp.apply_private(m), m.mod_pow(&d, n), "bits={bits} m={m:?}");
            }
        }
    }

    #[test]
    fn corrupted_crt_half_is_refused() {
        let kp = test_keypair(9).with_corrupted_dp();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..8 {
            let m = BigUint::random_below(&mut rng, &kp.public.n);
            assert!(matches!(kp.try_apply_private(&m), Err(OrspError::Crypto(_))));
        }
    }

    #[test]
    fn non_canonical_signature_is_refused() {
        let kp = test_keypair(11);
        let digest = sha256(b"msg");
        let sig = kp.sign_digest(&digest);
        assert!(kp.public.verify_digest(&digest, &sig));
        for k in 1..4u64 {
            let alias = sig.add(&kp.public.n.mul(&BigUint::from_u64(k)));
            assert!(!kp.public.verify_digest(&digest, &alias), "sig + {k}n");
        }
    }

    #[test]
    fn debug_shows_only_the_public_half() {
        let kp = test_keypair(12);
        let shown = format!("{kp:?}");
        let hex = |v: &BigUint| {
            v.to_bytes_be().iter().map(|b| format!("{b:02x}")).collect::<String>()
        };
        for secret in [kp.mont_p.modulus(), kp.mont_q.modulus(), &kp.dp, &kp.dq] {
            let secret = hex(secret);
            assert!(!shown.contains(secret.trim_start_matches('0')), "{shown}");
        }
        assert!(shown.contains(hex(&kp.public.n).trim_start_matches('0')));
    }

    #[test]
    fn keys_and_signatures_match_the_schoolbook_implementation() {
        // Moduli and signatures over sha256(b"x") from seed 13, recorded
        // from the square-and-multiply, non-CRT implementation.
        let golden = [
            (
                256,
                "6b51280cd693a620d8baca7ae28fc5a3bed5da3ba54ce865540438f1fa8691b5",
                "48e151ed85c625b718ffb680124771183a4faf2472fd75c950e2fe551d19a1a4",
            ),
            (
                512,
                "afe0a8ca13b07b4525f07d46ebd2ed81dae916b20dec5423fac2edbdee020dec\
                 b21e73d4a75bfccd159a4b1dde0e153c8c5cffb0d17f9015288cf35714cbe8cf",
                "29d19a34c1953c32f93a6cfc756aca524a64da152c75ac209b6808096b766984\
                 ff207b3bcbf1307eef92ceb46a2502187546fd9c9ffb62b4de3998f90e5f56b6",
            ),
            (
                1024,
                "c155b4fdcb2ee121c71db9d40ef296d3e56cd3e0be622bfe08374a4a5a12aa26\
                 8ca753fb5921a47d39b7d9b636eeed83f9a943d5533b1afdb6cc2937d6726a74\
                 0a28083db46859003de103aa40fe5e88119e032fb850fc57099f09d5d2398d61\
                 60d0d7978fdf78fe8d22b6d2d750ad9bac8901b6290c85a48effc52656b8a9eb",
                "45c9cf6882a12197e6495fa0ac5a6cb5a51d803a1d5bfe4902b2aaf609d2a726\
                 e61d98b5be58b7dcfa31f7dacf2a7982e113148bb4b43be084b1dc7e85f118b8\
                 54c6f64d167894ad6944374db998d82ab8bb18de3202c5e7dda24c8f5c37a0d1\
                 04800abc87cde1d72668fce6c1ca8084667be89c3ea9805be0aa8c813256d430",
            ),
        ];
        for (bits, n, sig) in golden {
            let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(13), bits);
            assert_eq!(kp.public.n, from_hex(n), "bits={bits}");
            assert_eq!(kp.sign_digest(&sha256(b"x")), from_hex(sig), "bits={bits}");
        }
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = test_keypair(42);
        let b = test_keypair(42);
        assert_eq!(a.public, b.public);
    }
}
