//! Ciphertext and plaintext containers.

use ark_math::poly::RnsPoly;

/// An unencrypted polynomial with CKKS metadata.
///
/// Kept in the evaluation representation unless an op (BConv,
/// automorphism on coefficients) temporarily needs otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    /// The encoded polynomial.
    pub poly: RnsPoly,
    /// Multiplicative level (limb count − 1 over the chain `C`).
    pub level: usize,
    /// The scale `Δ'` this plaintext was encoded at.
    pub scale: f64,
}

impl Plaintext {
    /// Words of storage (`limbs × N`).
    pub fn words(&self) -> usize {
        self.poly.words()
    }

    /// Bytes of polynomial storage (`words × 8`) — the unit `ark-serve`
    /// uses for per-session memory accounting.
    pub fn byte_len(&self) -> usize {
        self.words() * 8
    }
}

/// A CKKS ciphertext `(B, A)` with `B = A·S + P_m + E` (Eq. 2).
///
/// `a_seed` is a hint, not part of the value: a fresh symmetric
/// encryption records the seed its `A` expanded from
/// ([`ark_math::poly::RnsPoly::from_seed`]), and ops that rewrite `A`
/// may carry it along stale. Equality ignores it, and the wire codec
/// ships `A` as the seed only after regenerating `A` from it and
/// finding it equal (see [`crate::wire::encode_ciphertext`]).
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// The `B` component.
    pub b: RnsPoly,
    /// The `A` component.
    pub a: RnsPoly,
    /// Current multiplicative level `ℓ`.
    pub level: usize,
    /// Current scale.
    pub scale: f64,
    /// The seed `A` may have been expanded from (unverified).
    pub a_seed: Option<u64>,
}

impl PartialEq for Ciphertext {
    fn eq(&self, other: &Self) -> bool {
        self.b == other.b
            && self.a == other.a
            && self.level == other.level
            && self.scale == other.scale
    }
}

impl Ciphertext {
    /// A ciphertext with no seed hint.
    pub fn new(b: RnsPoly, a: RnsPoly, level: usize, scale: f64) -> Self {
        Self {
            b,
            a,
            level,
            scale,
            a_seed: None,
        }
    }

    /// Words of storage (`2 · (ℓ+1) · N`), the unit of the paper's
    /// data-size accounting.
    pub fn words(&self) -> usize {
        self.b.words() + self.a.words()
    }

    /// Bytes of polynomial storage (`words × 8`) — the unit `ark-serve`
    /// uses for per-session memory accounting. (The exact wire size adds
    /// a fixed header plus per-limb indices; see `ark_ckks::wire`.)
    pub fn byte_len(&self) -> usize {
        self.words() * 8
    }

    /// Asserts the internal shape invariants (matching limb sets and
    /// representations on both components).
    ///
    /// # Panics
    ///
    /// Panics if the components disagree.
    pub fn assert_well_formed(&self) {
        assert_eq!(self.b.limb_indices(), self.a.limb_indices());
        assert_eq!(self.b.representation(), self.a.representation());
        assert_eq!(self.b.level_count(), self.level + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_math::poly::{Representation, RnsBasis};
    use ark_math::primes::generate_ntt_primes;

    #[test]
    fn words_accounting() {
        let n = 16;
        let basis = RnsBasis::new(n, &generate_ntt_primes(n, 30, 3));
        let idx = [0usize, 1, 2];
        let ct = Ciphertext::new(
            RnsPoly::zero(&basis, &idx, Representation::Evaluation),
            RnsPoly::zero(&basis, &idx, Representation::Evaluation),
            2,
            2f64.powi(20),
        );
        ct.assert_well_formed();
        assert_eq!(ct.words(), 2 * 3 * 16);
    }

    #[test]
    fn equality_ignores_the_seed_hint() {
        let basis = RnsBasis::new(16, &generate_ntt_primes(16, 30, 2));
        let idx = [0usize, 1];
        let zero = RnsPoly::zero(&basis, &idx, Representation::Evaluation);
        let plain = Ciphertext::new(zero.clone(), zero, 1, 2f64.powi(20));
        let hinted = Ciphertext {
            a_seed: Some(7),
            ..plain.clone()
        };
        assert_eq!(plain, hinted);
    }
}
