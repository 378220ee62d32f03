//! Minimal unsigned big integers and Chinese-remainder reconstruction.
//!
//! The residue number system keeps every working value as word-sized
//! residues; exact multi-precision arithmetic is only needed to *verify*
//! RNS operations (and to compute base-conversion constants). This module
//! provides a deliberately small `BigUint` — just the operations CRT
//! reconstruction and the test oracles require — so the crate stays free
//! of external big-number dependencies.

use crate::modulus::Modulus;

/// An arbitrary-precision unsigned integer, little-endian `u64` limbs.
///
/// The representation is normalized: no trailing zero limbs (zero is the
/// empty limb vector).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// Constructs from a single word.
    pub fn from_u64(x: u64) -> Self {
        if x == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![x] }
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits.
    #[cfg(test)]
    fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// `self * x` for a word `x`.
    pub fn mul_u64(&self, x: u64) -> Self {
        if x == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let prod = l as u128 * x as u128 + carry;
            out.push(prod as u64);
            carry = prod >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        Self { limbs: out }
    }

    /// Full product `self * other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
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
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Remainder `self mod m` for a word modulus.
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0);
        let mut rem = 0u128;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 64) | l as u128) % m as u128;
        }
        rem as u64
    }

    /// Quotient `self / m` for a word divisor.
    pub fn div_u64(&self, m: u64) -> Self {
        assert!(m != 0);
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            let cur = (rem << 64) | l as u128;
            out[i] = (cur / m as u128) as u64;
            rem = cur % m as u128;
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Approximate conversion to `f64` (for magnitude checks in tests).
    pub fn to_f64(&self) -> f64 {
        self.limbs
            .iter()
            .rev()
            .fold(0.0f64, |acc, &l| acc * 2f64.powi(64) + l as f64)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            std::cmp::Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        std::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                std::cmp::Ordering::Equal
            }
            ord => ord,
        }
    }
}

/// Chinese-remainder reconstruction context for a set of coprime word
/// moduli `q_0, …, q_k`: recovers the unique `x mod Q` (`Q = Πq_i`) from
/// residues, and maps back down.
#[derive(Debug, Clone)]
pub struct CrtContext {
    moduli: Vec<Modulus>,
    /// Q = product of all moduli.
    product: BigUint,
    /// Q̂_i = Q / q_i.
    hats: Vec<BigUint>,
    /// (Q̂_i)^{-1} mod q_i.
    hat_invs: Vec<u64>,
}

impl CrtContext {
    /// Builds a CRT context from distinct primes.
    pub fn new(moduli: &[Modulus]) -> Self {
        assert!(!moduli.is_empty());
        let mut product = BigUint::from_u64(1);
        for m in moduli {
            product = product.mul_u64(m.value());
        }
        let hats: Vec<BigUint> = moduli.iter().map(|m| product.div_u64(m.value())).collect();
        let hat_invs: Vec<u64> = moduli
            .iter()
            .zip(&hats)
            .map(|(m, hat)| m.inv(hat.rem_u64(m.value())))
            .collect();
        Self {
            moduli: moduli.to_vec(),
            product,
            hats,
            hat_invs,
        }
    }

    /// The modulus product `Q`.
    pub fn product(&self) -> &BigUint {
        &self.product
    }

    /// Reconstructs `x mod Q` from one residue per modulus.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the modulus count.
    pub fn reconstruct(&self, residues: &[u64]) -> BigUint {
        assert_eq!(residues.len(), self.moduli.len());
        let mut acc = BigUint::zero();
        for ((m, hat), (&inv, &r)) in self
            .moduli
            .iter()
            .zip(&self.hats)
            .zip(self.hat_invs.iter().zip(residues))
        {
            let coeff = m.mul(r % m.value(), inv);
            acc = acc.add(&hat.mul_u64(coeff));
        }
        // acc < Q * k; reduce by repeated subtraction of Q (k small).
        while acc >= self.product {
            acc = acc.sub(&self.product);
        }
        acc
    }

    /// Reconstructs as a signed value in `(-Q/2, Q/2]`, returned as
    /// `(sign_negative, magnitude)`.
    pub fn reconstruct_signed(&self, residues: &[u64]) -> (bool, BigUint) {
        let v = self.reconstruct(residues);
        let half = self.product.div_u64(2);
        if v > half {
            (true, self.product.sub(&v))
        } else {
            (false, v)
        }
    }

    /// Reduces a big integer to its residue vector.
    pub fn decompose(&self, x: &BigUint) -> Vec<u64> {
        self.moduli.iter().map(|m| x.rem_u64(m.value())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;

    #[test]
    fn biguint_add_sub_roundtrip() {
        let a = BigUint::from_u64(u64::MAX).mul_u64(u64::MAX);
        let b = BigUint::from_u64(12345);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn biguint_mul_matches_u128() {
        let a = 0xdead_beef_1234_5678u64;
        let b = 0xfeed_face_8765_4321u64;
        let exact = a as u128 * b as u128;
        let big = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        assert_eq!(big.rem_u64(1 << 63), (exact % (1u128 << 63)) as u64);
        assert_eq!(
            big,
            BigUint {
                limbs: vec![exact as u64, (exact >> 64) as u64]
            }
        );
    }

    #[test]
    fn div_rem_invariant() {
        let a = BigUint::from_u64(u64::MAX)
            .mul_u64(u64::MAX)
            .add(&BigUint::from_u64(987654321));
        let m = 1_000_003u64;
        let q = a.div_u64(m);
        let r = a.rem_u64(m);
        assert_eq!(q.mul_u64(m).add(&BigUint::from_u64(r)), a);
        assert!(r < m);
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::from_u64(1).bits(), 1);
        assert_eq!(BigUint::from_u64(u64::MAX).bits(), 64);
        assert_eq!(
            BigUint::from_u64(1)
                .mul_u64(2)
                .mul(&BigUint::from_u64(1u64 << 63))
                .bits(),
            65
        );
    }

    #[test]
    fn crt_roundtrip() {
        let primes = generate_ntt_primes(1 << 8, 45, 4);
        let moduli: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let crt = CrtContext::new(&moduli);
        // x = some large value < Q
        let x = BigUint::from_u64(0xdead_beef)
            .mul(&BigUint::from_u64(0xcafe_babe_dead_f00d))
            .add(&BigUint::from_u64(17));
        let residues = crt.decompose(&x);
        assert_eq!(crt.reconstruct(&residues), x);
    }

    #[test]
    fn crt_signed_reconstruction() {
        let primes = generate_ntt_primes(1 << 8, 30, 3);
        let moduli: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let crt = CrtContext::new(&moduli);
        // encode -5 as Q - 5
        let residues: Vec<u64> = moduli.iter().map(|m| m.from_i64(-5)).collect();
        let (neg, mag) = crt.reconstruct_signed(&residues);
        assert!(neg);
        assert_eq!(mag, BigUint::from_u64(5));
    }

    #[test]
    fn crt_linear() {
        let primes = generate_ntt_primes(1 << 8, 30, 3);
        let moduli: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let crt = CrtContext::new(&moduli);
        let a = BigUint::from_u64(123_456_789);
        let b = BigUint::from_u64(987_654_321);
        let ra = crt.decompose(&a);
        let rb = crt.decompose(&b);
        let rsum: Vec<u64> = moduli
            .iter()
            .zip(ra.iter().zip(&rb))
            .map(|(m, (&x, &y))| m.add(x, y))
            .collect();
        assert_eq!(crt.reconstruct(&rsum), a.add(&b));
    }
}
