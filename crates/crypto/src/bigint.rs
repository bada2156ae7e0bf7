//! Arbitrary-precision unsigned integers.
//!
//! A deliberately small big-integer: little-endian `u64` limbs, schoolbook
//! multiplication and Knuth-D division. Modular exponentiation by an odd
//! modulus (every RSA modulus and prime) runs on fixed-width Montgomery
//! kernels — CIOS multiplication into reused buffers, a 4-bit window for
//! long exponents — and the odd-modulus inverse is a binary extended GCD
//! in place on fixed-width limb buffers; even moduli keep
//! square-and-multiply and extended Euclid. The served mint signs at 256
//! bits and `e6_tokens` prices 256–2048; none of it is constant-time.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` is little-endian with no trailing zero limbs; zero is
/// the empty vector.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// To big-endian bytes, no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zeros.
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().map_or(true, |l| l & 1 == 0)
    }

    /// Lowest 64 bits (truncating).
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Number of significant bits (0 for value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// The `i`-th bit (LSB is bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            None => false,
            Some(&l) => (l >> (i % 64)) & 1 == 1,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// From little-endian limbs, trailing zeros allowed.
    fn from_limbs(limbs: Vec<u64>) -> BigUint {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.len() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = longer[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction; `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_big(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// Subtraction; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).expect("BigUint subtraction underflow")
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return if bits == 0 { self.clone() } else { BigUint::zero() };
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Comparison (named to avoid clashing with `Ord::cmp` call syntax).
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Quotient and remainder. Panics if `divisor` is zero.
    ///
    /// Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on 64-bit limbs, with a
    /// single-limb fast path — O(n·m) limb operations rather than the
    /// O(bits·n) of naive shift-subtract, which matters because `rem`
    /// sits inside every modular multiplication.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        // Single-limb divisor: schoolbook short division.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem: u128 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return (quotient, BigUint::from_u64(rem as u64));
        }

        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u_norm = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let mut u = u_norm.limbs.clone();
        u.push(0); // extra limb for the algorithm's u[j+n]
        let m = u.len() - n - 1;
        let v_top = v.limbs[n - 1] as u128;
        let v_next = v.limbs[n - 2] as u128;

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs of the current window.
            let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = top / v_top;
            let mut rhat = top % v_top;
            while qhat >> 64 != 0
                || qhat * v_next > ((rhat << 64) | u[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = (u[j + n] as i128) - (carry as i128) + borrow;
            u[j + n] = sub as u64;

            if sub < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = u[j + i] as u128 + v.limbs[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = (u[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut remainder = BigUint { limbs: u[..n].to_vec() };
        remainder.normalize();
        (quotient, remainder.shr(shift))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Return a copy with bit `i` set.
    fn set_bit(mut self, i: usize) -> BigUint {
        let limb = i / 64;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
        self
    }

    /// Modular addition.
    pub fn add_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.add(other).rem(modulus)
    }

    /// Modular multiplication.
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation. An odd modulus (every RSA modulus and
    /// prime) runs on the Montgomery kernel; an even one, where Montgomery
    /// reduction is undefined, falls back to square-and-multiply over
    /// [`BigUint::rem`].
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if !modulus.is_even() {
            return Montgomery::new(modulus).pow(self, exponent);
        }
        self.square_and_multiply(exponent, modulus)
    }

    /// `self^exponent mod modulus` by right-to-left square-and-multiply,
    /// allocating at every step. The even-modulus path of
    /// [`BigUint::mod_pow`], and the oracle its Montgomery path is tested
    /// against.
    fn square_and_multiply(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let mut base = self.rem(modulus);
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            base = base.mul_mod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `m`, or `None` if not coprime.
    ///
    /// Odd moduli (every RSA modulus and prime) take the binary
    /// extended-GCD path — shifts and additions only, no division, which
    /// makes the per-token blinding step cheap. Even moduli fall back to
    /// the classic extended Euclid with signed Bézout tracking.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        if !m.is_even() {
            return self.mod_inverse_odd(m);
        }
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        // t0, t1 are Bézout coefficients as (negative?, magnitude).
        let mut t0: (bool, BigUint) = (false, BigUint::zero());
        let mut t1: (bool, BigUint) = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic)
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(t0.clone(), (t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // Reduce t0 into [0, m).
        let mag = t0.1.rem(m);
        Some(if t0.0 && !mag.is_zero() { m.sub(&mag) } else { mag })
    }

    /// Binary extended GCD inversion for odd `m`, in place on
    /// fixed-width buffers of `len(m) + 1` limbs: the extra limb holds the
    /// `x + m` that halving an odd `x` modulo `m` passes through. Every
    /// `x` stays in `[0, m)`, so nothing allocates inside the loop.
    fn mod_inverse_odd(&self, m: &BigUint) -> Option<BigUint> {
        debug_assert!(!m.is_even() && !m.is_one() && !m.is_zero());
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        let width = m.limbs.len() + 1;
        let m = padded(m, width);
        let mut u = padded(&a, width);
        let mut v = m.clone();
        let mut x1 = padded(&BigUint::one(), width);
        let mut x2 = vec![0u64; width];
        // Halve x modulo the odd m: x/2 if even, (x+m)/2 otherwise.
        let half_mod = |x: &mut [u64]| {
            if x[0] & 1 == 1 {
                add_limbs(x, &m);
            }
            shr1_limbs(x);
        };
        // x = (x - y) mod m, for x, y in [0, m).
        let sub_mod = |x: &mut [u64], y: &[u64]| {
            if cmp_limbs(x, y) == Ordering::Less {
                add_limbs(x, &m);
            }
            sub_limbs(x, y);
        };
        while !is_one_limbs(&u) && !is_one_limbs(&v) {
            if is_zero_limbs(&u) || is_zero_limbs(&v) {
                // gcd(a, m) > 1 — no inverse.
                return None;
            }
            while u[0] & 1 == 0 {
                shr1_limbs(&mut u);
                half_mod(&mut x1);
            }
            while v[0] & 1 == 0 {
                shr1_limbs(&mut v);
                half_mod(&mut x2);
            }
            if cmp_limbs(&u, &v) != Ordering::Less {
                sub_limbs(&mut u, &v);
                sub_mod(&mut x1, &x2);
            } else {
                sub_limbs(&mut v, &u);
                sub_mod(&mut x2, &x1);
            }
        }
        Some(BigUint::from_limbs(if is_one_limbs(&u) { x1 } else { x2 }))
    }

    /// Uniform random value in `[0, bound)`. Panics if `bound` is zero.
    ///
    /// Rejection sampling on `bit_len(bound)`-bit draws: accepts with
    /// probability > 1/2 per round, so the expected number of rounds is
    /// below 2.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below zero bound");
        let bits = bound.bit_len();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random value with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        let limbs_needed = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
        let extra = limbs_needed * 64 - bits;
        if extra > 0 {
            if let Some(top) = limbs.last_mut() {
                *top &= u64::MAX >> extra;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Random value with *exactly* `bits` bits (top bit set). `bits >= 1`.
    pub fn random_exact_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 1);
        let n = Self::random_bits(rng, bits);
        n.set_bit(bits - 1)
    }
}

/// Montgomery arithmetic modulo one fixed odd modulus `n` of `k` limbs.
///
/// Values live in Montgomery form `x·R mod n` with `R = 2^(64k)`, as
/// `k`-limb slices. One multiplication is CIOS (coarsely integrated
/// operand scanning: multiply and reduce interleaved limb by limb) into a
/// reused `k + 2`-limb scratch buffer, so [`Montgomery::pow`] allocates
/// its buffers once and nothing inside its loop. Build the context once
/// per modulus and reuse it: it costs one division (`R² mod n`).
#[derive(Clone)]
pub(crate) struct Montgomery {
    modulus: BigUint,
    /// `−n⁻¹ mod 2⁶⁴`.
    n0: u64,
    /// `R² mod n`, padded to `k` limbs: multiplying by it enters
    /// Montgomery form.
    r2: Vec<u64>,
}

impl Montgomery {
    /// The context for an odd `modulus`. Panics if it is even, where
    /// Montgomery reduction is undefined.
    pub(crate) fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_even(), "Montgomery needs an odd modulus");
        let k = modulus.limbs.len();
        // Newton's iteration doubles the correct low bits of n⁻¹ mod 2⁶⁴
        // at every step; an odd n is its own inverse mod 8, so five steps
        // take 3 bits to 96.
        let low = modulus.limbs[0];
        let mut inv = low;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(low.wrapping_mul(inv)));
        }
        let r2 = BigUint::one().shl(128 * k).rem(modulus);
        Montgomery { modulus: modulus.clone(), n0: inv.wrapping_neg(), r2: padded(&r2, k) }
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `a·b·R⁻¹ mod n` for `k`-limb `a, b < n`, left in `t[..k]`;
    /// `t` has `k + 2` limbs.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.modulus.limbs;
        let k = n.len();
        t.fill(0);
        for &b_i in b {
            // t += a·b_i
            let mut carry = 0u64;
            for (t_j, &a_j) in t.iter_mut().zip(a) {
                let s = *t_j as u128 + a_j as u128 * b_i as u128 + carry as u128;
                *t_j = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
            // t = (t + m·n) / 2⁶⁴, with m chosen so the low limb cancels.
            let m = t[0].wrapping_mul(self.n0);
            let s = t[0] as u128 + m as u128 * n[0] as u128;
            let mut carry = (s >> 64) as u64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * n[j] as u128 + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
        }
        // t < 2n: one conditional subtraction lands it in [0, n). When
        // t[k] is set, the borrow out of t[..k] cancels it.
        if t[k] != 0 || cmp_limbs(&t[..k], n) != Ordering::Less {
            sub_limbs(&mut t[..k], n);
        }
    }

    /// `acc = acc·b·R⁻¹ mod n`, through the scratch buffer `t`.
    fn mul_assign(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.mul(acc, b, t);
        acc.copy_from_slice(&t[..acc.len()]);
    }

    /// `acc = acc²·R⁻¹ mod n`, through the scratch buffer `t`.
    fn square_assign(&self, acc: &mut [u64], t: &mut [u64]) {
        self.mul(acc, acc, t);
        acc.copy_from_slice(&t[..acc.len()]);
    }

    /// `base^exponent mod n`. Exponents up to 64 bits (a public `e`) run
    /// left-to-right binary; longer ones a fixed 4-bit window over a
    /// 16-entry table of `base^i`. Not constant-time.
    pub(crate) fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let k = self.modulus.limbs.len();
        if exponent.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let mut t = vec![0u64; k + 2];
        let mut base_m = padded(&base.rem(&self.modulus), k);
        self.mul_assign(&mut base_m, &self.r2, &mut t);
        let bits = exponent.bit_len();
        let mut acc = base_m.clone();
        if bits <= 64 {
            for i in (0..bits - 1).rev() {
                self.square_assign(&mut acc, &mut t);
                if exponent.bit(i) {
                    self.mul_assign(&mut acc, &base_m, &mut t);
                }
            }
        } else {
            let nibble = |w: usize| (exponent.limbs[w / 16] >> (4 * (w % 16))) as usize & 0xf;
            // table[i] = base^i in Montgomery form; table[0] = R mod n.
            let mut table = vec![0u64; 16 * k];
            let mut one = vec![0u64; k];
            one[0] = 1;
            self.mul(&one, &self.r2, &mut t);
            table[..k].copy_from_slice(&t[..k]);
            for i in 1..16 {
                let (done, rest) = table.split_at_mut(i * k);
                self.mul(&done[(i - 1) * k..], &base_m, &mut t);
                rest[..k].copy_from_slice(&t[..k]);
            }
            let windows = bits.div_ceil(4);
            let top = nibble(windows - 1);
            acc.copy_from_slice(&table[top * k..(top + 1) * k]);
            for w in (0..windows - 1).rev() {
                for _ in 0..4 {
                    self.square_assign(&mut acc, &mut t);
                }
                let i = nibble(w);
                if i != 0 {
                    self.mul_assign(&mut acc, &table[i * k..(i + 1) * k], &mut t);
                }
            }
        }
        // Leave Montgomery form: multiply by a plain 1.
        let mut one = vec![0u64; k];
        one[0] = 1;
        self.mul_assign(&mut acc, &one, &mut t);
        BigUint::from_limbs(acc)
    }
}

/// `x`'s limbs zero-extended to `width` (`x` must fit).
fn padded(x: &BigUint, width: usize) -> Vec<u64> {
    let mut limbs = x.limbs.clone();
    limbs.resize(width, 0);
    limbs
}

/// Compare equal-width limb slices.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

fn is_zero_limbs(x: &[u64]) -> bool {
    x.iter().all(|&l| l == 0)
}

fn is_one_limbs(x: &[u64]) -> bool {
    x[0] == 1 && is_zero_limbs(&x[1..])
}

/// `x += y` over equal widths, dropping the carry out of the top limb.
fn add_limbs(x: &mut [u64], y: &[u64]) {
    let mut carry = false;
    for (a, &b) in x.iter_mut().zip(y) {
        let (s1, c1) = a.overflowing_add(b);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *a = s2;
        carry = c1 | c2;
    }
}

/// `x -= y` over equal widths, dropping the borrow out of the top limb.
fn sub_limbs(x: &mut [u64], y: &[u64]) {
    let mut borrow = false;
    for (a, &b) in x.iter_mut().zip(y) {
        let (d1, b1) = a.overflowing_sub(b);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *a = d2;
        borrow = b1 | b2;
    }
}

/// `x >>= 1`.
fn shr1_limbs(x: &mut [u64]) {
    for i in 0..x.len() {
        let hi = x.get(i + 1).map_or(0, |&l| l << 63);
        x[i] = (x[i] >> 1) | hi;
    }
}

/// Signed subtraction over (negative?, magnitude) pairs: `a - b`.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative
        (false, false) => match a.1.cmp_big(&b.1) {
            Ordering::Less => (true, b.1.sub(&a.1)),
            _ => (false, a.1.sub(&b.1)),
        },
        // (-a) - (-b) = b - a
        (true, true) => match b.1.cmp_big(&a.1) {
            Ordering::Less => (true, a.1.sub(&b.1)),
            _ => (false, b.1.sub(&a.1)),
        },
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // (-a) - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp_big(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal via repeated division by 10^19 (largest power of 10 in u64).
        if self.is_zero() {
            return write!(f, "0");
        }
        let chunk = BigUint::from_u64(10_000_000_000_000_000_000);
        let mut parts = Vec::new();
        let mut n = self.clone();
        while !n.is_zero() {
            let (q, r) = n.div_rem(&chunk);
            parts.push(r.low_u64());
            n = q;
        }
        write!(f, "{}", parts.pop().unwrap())?;
        for p in parts.iter().rev() {
            write!(f, "{p:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn basic_construction() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(big(42).low_u64(), 42);
        assert!(big(0).is_zero());
    }

    #[test]
    fn bytes_round_trip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(n.to_bytes_be(), vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        // Leading zeros in input are dropped on output.
        let m = BigUint::from_bytes_be(&[0x00, 0x00, 0xff]);
        assert_eq!(m.to_bytes_be(), vec![0xff]);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(big(2).add(&big(3)), big(5));
        assert_eq!(big(5).sub(&big(3)), big(2));
        assert_eq!(big(3).checked_sub(&big(5)), None);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let sum = a.add(&BigUint::one());
        assert_eq!(sum.bit_len(), 65);
        assert_eq!(sum.sub(&BigUint::one()), a);
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(big(7).mul(&big(6)), big(42));
        assert_eq!(big(0).mul(&big(6)), BigUint::zero());
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let m = BigUint::from_u64(u64::MAX);
        let sq = m.mul(&m);
        let expected = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expected);
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(64).bit_len(), 65);
        assert_eq!(big(1).shl(64).shr(64), big(1));
        assert_eq!(big(0b1010).shr(1), big(0b101));
        assert_eq!(big(1).shr(1), BigUint::zero());
        assert_eq!(big(5).shl(0), big(5));
    }

    #[test]
    fn bit_access() {
        let n = big(0b1001);
        assert!(n.bit(0));
        assert!(!n.bit(1));
        assert!(n.bit(3));
        assert!(!n.bit(64));
        assert_eq!(n.bit_len(), 4);
        assert_eq!(BigUint::zero().bit_len(), 0);
    }

    #[test]
    fn div_rem_known() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!(q, big(14));
        assert_eq!(r, big(2));
        let (q, r) = big(5).div_rem(&big(7));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, big(5));
        let (q, r) = big(7).div_rem(&big(7));
        assert_eq!(q, BigUint::one());
        assert_eq!(r, BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_known() {
        // 4^13 mod 497 = 445
        assert_eq!(big(4).mod_pow(&big(13), &big(497)), big(445));
        // Fermat: 2^(p-1) = 1 mod p for prime p
        assert_eq!(big(2).mod_pow(&big(1_000_003 - 1), &big(1_000_003)), BigUint::one());
        assert_eq!(big(5).mod_pow(&BigUint::zero(), &big(7)), BigUint::one());
        assert_eq!(big(5).mod_pow(&big(100), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn gcd_known() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(5)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 4 = 12 = 1 mod 11
        assert_eq!(big(3).mod_inverse(&big(11)), Some(big(4)));
        // Not coprime
        assert_eq!(big(6).mod_inverse(&big(9)), None);
        // Inverse of 1 is 1
        assert_eq!(big(1).mod_inverse(&big(7)), Some(big(1)));
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(big(12345).to_string(), "12345");
        // 2^64 = 18446744073709551616
        assert_eq!(big(1).shl(64).to_string(), "18446744073709551616");
        // 2^128
        assert_eq!(
            big(1).shl(128).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let bound = big(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_exact_bits_sets_top_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1usize, 7, 64, 65, 128, 257] {
            let v = BigUint::random_exact_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits, "bits={bits}");
        }
    }

    /// The allocating binary extended GCD `mod_inverse_odd` replaced: the
    /// oracle for the in-place one.
    fn mod_inverse_odd_reference(a: &BigUint, m: &BigUint) -> Option<BigUint> {
        let a = a.rem(m);
        if a.is_zero() {
            return None;
        }
        let half_mod = |x: BigUint| -> BigUint {
            if x.is_even() {
                x.shr(1)
            } else {
                x.add(m).shr(1)
            }
        };
        let mut u = a;
        let mut v = m.clone();
        let mut x1 = BigUint::one();
        let mut x2 = BigUint::zero();
        while !u.is_one() && !v.is_one() {
            if u.is_zero() || v.is_zero() {
                return None;
            }
            while u.is_even() {
                u = u.shr(1);
                x1 = half_mod(x1);
            }
            while v.is_even() {
                v = v.shr(1);
                x2 = half_mod(x2);
            }
            if u.cmp_big(&v) != Ordering::Less {
                u = u.sub(&v);
                x1 = match x1.checked_sub(&x2) {
                    Some(d) => d,
                    None => x1.add(m).sub(&x2),
                };
            } else {
                v = v.sub(&u);
                x2 = match x2.checked_sub(&x1) {
                    Some(d) => d,
                    None => x2.add(m).sub(&x1),
                };
            }
        }
        if u.is_one() {
            Some(x1.rem(m))
        } else {
            Some(x2.rem(m))
        }
    }

    /// Odd moduli of exactly `limbs` limbs: a random one, `2^(64·limbs) − 1`,
    /// and (above one limb) one whose top limb is 1.
    fn odd_moduli(rng: &mut StdRng, limbs: usize) -> Vec<BigUint> {
        let random = BigUint::random_exact_bits(rng, 64 * limbs).set_bit(0);
        let all_ones = BigUint::one().shl(64 * limbs).sub(&BigUint::one());
        let mut moduli = vec![random, all_ones];
        if limbs > 1 {
            let low = BigUint::random_bits(rng, 64 * (limbs - 1)).set_bit(0);
            moduli.push(BigUint::one().shl(64 * (limbs - 1)).add(&low));
        }
        moduli
    }

    #[test]
    fn montgomery_pow_matches_square_and_multiply() {
        let mut rng = StdRng::seed_from_u64(11);
        for limbs in 1..=32 {
            for m in odd_moduli(&mut rng, limbs) {
                let bases = [
                    BigUint::zero(),
                    BigUint::one(),
                    m.sub(&BigUint::one()),
                    m.clone(),
                    m.add(&BigUint::random_below(&mut rng, &m)),
                    BigUint::random_below(&mut rng, &m),
                ];
                let full = BigUint::random_exact_bits(&mut rng, m.bit_len());
                let exponents = [BigUint::zero(), BigUint::one(), big(65_537), full];
                let ctx = Montgomery::new(&m);
                for (i, base) in bases.iter().enumerate() {
                    for (j, exponent) in exponents.iter().enumerate() {
                        // Full-width references at 32 limbs are slow in a
                        // debug build: two bases per modulus carry them.
                        if j == 3 && i < 4 {
                            continue;
                        }
                        let expected = base.square_and_multiply(exponent, &m);
                        let got = ctx.pow(base, exponent);
                        assert_eq!(got, expected, "limbs={limbs} base#{i} exp#{j}");
                        assert_eq!(base.mod_pow(exponent, &m), expected);
                    }
                }
            }
        }
    }

    #[test]
    fn mod_inverse_odd_matches_allocating_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        for limbs in 1..=32 {
            for m in odd_moduli(&mut rng, limbs) {
                let mut values = vec![
                    BigUint::zero(),
                    BigUint::one(),
                    m.sub(&BigUint::one()),
                    m.add(&BigUint::from_u64(2)),
                    // Shares the factor 3 with m whenever 3 divides m.
                    big(3),
                ];
                for _ in 0..4 {
                    values.push(BigUint::random_below(&mut rng, &m));
                }
                for a in values {
                    let inv = a.mod_inverse(&m);
                    assert_eq!(inv, mod_inverse_odd_reference(&a, &m), "limbs={limbs} a={a:?}");
                    if let Some(inv) = inv {
                        assert!(a.mul_mod(&inv, &m).is_one());
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn add_sub_round_trip(a in any::<u64>(), b in any::<u64>()) {
            let sum = big(a).add(&big(b));
            prop_assert_eq!(sum.sub(&big(b)), big(a));
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let prod = big(a).mul(&big(b));
            let expected = a as u128 * b as u128;
            let bytes = prod.to_bytes_be();
            let mut val = 0u128;
            for byte in bytes { val = (val << 8) | byte as u128; }
            prop_assert_eq!(val, expected);
        }

        #[test]
        fn div_rem_reconstructs(a in any::<u64>(), b in 1u64..) {
            let (q, r) = big(a).div_rem(&big(b));
            prop_assert_eq!(q.mul(&big(b)).add(&r), big(a));
            prop_assert!(r < big(b));
        }

        #[test]
        fn bytes_round_trip_prop(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
            let n = BigUint::from_bytes_be(&bytes);
            let round = BigUint::from_bytes_be(&n.to_bytes_be());
            prop_assert_eq!(n, round);
        }

        #[test]
        fn mod_inverse_is_inverse(a in 2u64.., m in 3u64..) {
            let a = big(a);
            let m = big(m);
            if let Some(inv) = a.mod_inverse(&m) {
                prop_assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
                prop_assert!(inv < m);
            } else {
                prop_assert!(!a.gcd(&m).is_one());
            }
        }

        #[test]
        fn shift_round_trip(v in any::<u64>(), s in 0usize..200) {
            prop_assert_eq!(big(v).shl(s).shr(s), big(v));
        }

        #[test]
        fn mod_pow_matches_naive(base in 0u64..1000, exp in 0u64..30, m in 2u64..10_000) {
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp { acc = acc * base as u128 % m as u128; }
                acc as u64
            };
            prop_assert_eq!(big(base).mod_pow(&big(exp), &big(m)), big(expected));
        }
    }
}
