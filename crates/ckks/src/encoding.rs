//! Message ↔ plaintext encoding via the canonical embedding (Eq. 1/3).
//!
//! `encode` applies the inverse special FFT to the slot vector, scales by
//! `Δ`, and rounds into RNS limbs; `decode` CRT-reconstructs the signed
//! coefficients, divides by the scale and applies the forward special
//! FFT. Rounding replaces the paper's `≃` in Eq. 1; the error it adds is
//! the standard encoding noise.

use crate::ciphertext::Plaintext;
use crate::params::CkksContext;
use ark_math::cfft::C64;
use ark_math::poly::RnsPoly;

/// Magnitude bound on a scaled coefficient before it is rounded into
/// `i64` (just under `2^63`). `encode`, `add_const` and `mul_const`
/// assert it; the engine's metadata front rejects with a typed error
/// against the same constant, so an admitted program never trips the
/// asserts.
pub const ENCODE_LIMIT: f64 = 9.0e18;

impl CkksContext {
    /// Encodes complex slots into a plaintext at `level` and `scale`.
    ///
    /// `values.len()` must not exceed the slot count; shorter inputs are
    /// zero-padded. The result is in the evaluation representation, ready
    /// for `PMult`/`PAdd`.
    ///
    /// # Panics
    ///
    /// Panics if more values than slots are supplied, or if a scaled
    /// coefficient overflows the `i64` rounding range (scale too large
    /// for the message magnitude).
    pub fn encode(&self, values: &[C64], level: usize, scale: f64) -> Plaintext {
        Plaintext {
            poly: self.encode_on(values, self.chain_indices(level), scale),
            level,
            scale,
        }
    }

    /// The one encode body: the plaintext polynomial of `values` at
    /// `scale`, reduced into an explicit limb set — the chain of a level
    /// for [`Self::encode`], the extended set `C_ℓ ∪ B` where a
    /// plaintext multiplies a key-switch result that is still in `R_PQ`
    /// ([`Self::rotate_sum`]). The integer coefficients do not depend
    /// on the limb set, so the same values encoded on a superset agree
    /// limb for limb on the common ones.
    ///
    /// # Panics
    ///
    /// As for [`Self::encode`].
    pub(crate) fn encode_on(&self, values: &[C64], limbs: &[usize], scale: f64) -> RnsPoly {
        let slots = self.params().slots();
        assert!(values.len() <= slots, "too many values for {slots} slots");
        let mut v = vec![C64::zero(); slots];
        v[..values.len()].copy_from_slice(values);
        self.special_fft().inverse(&mut v);
        let n = self.params().n();
        let mut coeffs = vec![0i64; n];
        for (j, z) in v.iter().enumerate() {
            let re = z.re * scale;
            let im = z.im * scale;
            assert!(
                re.abs() < ENCODE_LIMIT && im.abs() < ENCODE_LIMIT,
                "scaled coefficient overflows i64; lower the scale"
            );
            coeffs[j] = re.round() as i64;
            coeffs[j + slots] = im.round() as i64;
        }
        let mut poly = RnsPoly::from_signed_coeffs(self.basis(), limbs, &coeffs);
        poly.to_eval(self.basis());
        poly
    }

    /// Decodes a plaintext back to complex slots.
    ///
    /// Works at any level; reconstruction uses the CRT over the
    /// plaintext's chain limbs and interprets coefficients centered.
    pub fn decode(&self, pt: &Plaintext) -> Vec<C64> {
        let mut poly = pt.poly.clone();
        poly.to_coeff(self.basis());
        let idx: Vec<usize> = poly.limb_indices().to_vec();
        let crt = self.crt(&idx);
        let n = self.params().n();
        let slots = self.params().slots();
        let mut folded = vec![C64::zero(); slots];
        let mut residues = vec![0u64; idx.len()];
        let mut reals = vec![0f64; n];
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            for (pos, r) in residues.iter_mut().enumerate() {
                *r = poly.limb(pos)[k];
            }
            let (neg, mag) = crt.reconstruct_signed(&residues);
            let val = if neg { -mag.to_f64() } else { mag.to_f64() };
            reals[k] = val / pt.scale;
        }
        for j in 0..slots {
            folded[j] = C64::new(reals[j], reals[j + slots]);
        }
        self.special_fft().forward(&mut folded);
        folded
    }
}

/// Maximum absolute slot error between two complex vectors.
pub fn max_error(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::tiny())
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = ctx();
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let pt = ctx.encode(&msg, 2, ctx.params().scale());
        let out = ctx.decode(&pt);
        assert!(
            max_error(&msg, &out) < 1e-6,
            "err={}",
            max_error(&msg, &out)
        );
    }

    #[test]
    fn encode_pads_short_inputs() {
        let ctx = ctx();
        let msg = [C64::new(1.0, 0.0), C64::new(-2.0, 0.5)];
        let pt = ctx.encode(&msg, 1, ctx.params().scale());
        let out = ctx.decode(&pt);
        assert!((out[0].re - 1.0).abs() < 1e-6);
        assert!((out[1].im - 0.5).abs() < 1e-6);
        for z in &out[2..] {
            assert!(z.abs() < 1e-6);
        }
    }

    #[test]
    fn plaintext_products_decode_to_slot_products() {
        // encode(z1) * encode(z2) decodes to z1 ⊙ z2 at scale Δ².
        let ctx = ctx();
        let slots = ctx.params().slots();
        let z1: Vec<C64> = (0..slots).map(|i| C64::new(0.1 * i as f64, 0.2)).collect();
        let z2: Vec<C64> = (0..slots)
            .map(|i| C64::new(0.5, -0.03 * i as f64))
            .collect();
        let scale = ctx.params().scale();
        let p1 = ctx.encode(&z1, 2, scale);
        let p2 = ctx.encode(&z2, 2, scale);
        let mut prod = p1.poly.clone();
        prod.mul_assign(&p2.poly, ctx.basis());
        let pt = Plaintext {
            poly: prod,
            level: 2,
            scale: scale * scale,
        };
        let out = ctx.decode(&pt);
        let expect: Vec<C64> = z1.iter().zip(&z2).map(|(&a, &b)| a * b).collect();
        assert!(max_error(&expect, &out) < 1e-4);
    }

    #[test]
    fn rotation_of_message_is_automorphism_of_plaintext() {
        // Galois automorphism with g = 5^r on the plaintext must rotate
        // the decoded slots left by r.
        use ark_math::automorphism::GaloisElement;
        let ctx = ctx();
        let slots = ctx.params().slots();
        let n = ctx.params().n();
        let msg: Vec<C64> = (0..slots).map(|i| C64::new(i as f64, 0.0)).collect();
        let pt = ctx.encode(&msg, 1, ctx.params().scale());
        let r = 3usize;
        let g = GaloisElement::from_rotation(r as i64, n);
        let rotated = Plaintext {
            poly: pt.poly.automorphism(g, ctx.basis()),
            level: pt.level,
            scale: pt.scale,
        };
        let out = ctx.decode(&rotated);
        let expect: Vec<C64> = (0..slots).map(|i| msg[(i + r) % slots]).collect();
        assert!(
            max_error(&expect, &out) < 1e-5,
            "err={}",
            max_error(&expect, &out)
        );
    }

    #[test]
    fn conjugation_galois_conjugates_slots() {
        use ark_math::automorphism::GaloisElement;
        let ctx = ctx();
        let slots = ctx.params().slots();
        let n = ctx.params().n();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new(i as f64 * 0.1, 1.0 - 0.05 * i as f64))
            .collect();
        let pt = ctx.encode(&msg, 1, ctx.params().scale());
        let g = GaloisElement::conjugation(n);
        let conj = Plaintext {
            poly: pt.poly.automorphism(g, ctx.basis()),
            level: pt.level,
            scale: pt.scale,
        };
        let out = ctx.decode(&conj);
        let expect: Vec<C64> = msg.iter().map(|z| z.conj()).collect();
        assert!(max_error(&expect, &out) < 1e-5);
    }
}
