//! Message ↔ plaintext encoding via the canonical embedding (Eq. 1/3).
//!
//! `encode` applies the inverse special FFT to the slot vector, scales by
//! `Δ`, and rounds into RNS limbs; `decode` CRT-reconstructs the signed
//! coefficients, divides by the scale and applies the forward special
//! FFT. Rounding replaces the paper's `≃` in Eq. 1; the error it adds is
//! the standard encoding noise. A vector holding one real value in every
//! slot skips both transforms: it encodes to a constant polynomial.

use crate::ciphertext::Plaintext;
use crate::params::CkksContext;
use ark_math::cfft::C64;
use ark_math::poly::{Representation, RnsPoly};

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
    /// A uniform real vector (see [`Self::uniform_coefficient`]) is the
    /// constant polynomial `round(c·scale)`, which is that constant at
    /// every evaluation point: it is written out directly, with no
    /// inverse FFT and no NTT, bit for bit what the general path
    /// computes.
    ///
    /// # Panics
    ///
    /// As for [`Self::encode`].
    pub(crate) fn encode_on(&self, values: &[C64], limbs: &[usize], scale: f64) -> RnsPoly {
        let Some(v) = self.uniform_coefficient(values, scale) else {
            return self.encode_general_on(values, limbs, scale);
        };
        let n = self.params().n();
        let mut data = Vec::with_capacity(limbs.len() * n);
        for &i in limbs {
            data.resize(data.len() + n, self.basis().modulus(i).from_i64(v));
        }
        RnsPoly::from_flat(self.basis(), limbs, Representation::Evaluation, data)
    }

    /// `Some(round(c·scale))` when `values` fills every slot with one
    /// real `c`: the constant coefficient of its plaintext, whose other
    /// coefficients are all zero. The general path agrees exactly: the
    /// inverse special FFT of a constant vector is exact in floating
    /// point (every butterfly doubles equal values or subtracts them to
    /// an exact zero, and the final `1/slots` is a power of two), so it
    /// rounds the very same `c·scale`.
    ///
    /// # Panics
    ///
    /// As for [`Self::encode`], if `c·scale` overflows.
    pub(crate) fn uniform_coefficient(&self, values: &[C64], scale: f64) -> Option<i64> {
        let (&c, rest) = values.split_first()?;
        let uniform =
            values.len() == self.params().slots() && c.im == 0.0 && rest.iter().all(|&z| z == c);
        uniform.then(|| round_scaled(c.re * scale))
    }

    /// The general encode: inverse special FFT, scale and round, reduce
    /// into `limbs`, NTT.
    fn encode_general_on(&self, values: &[C64], limbs: &[usize], scale: f64) -> RnsPoly {
        let slots = self.params().slots();
        assert!(values.len() <= slots, "too many values for {slots} slots");
        let mut v = vec![C64::zero(); slots];
        v[..values.len()].copy_from_slice(values);
        self.special_fft().inverse(&mut v);
        let n = self.params().n();
        let mut coeffs = vec![0i64; n];
        for (j, z) in v.iter().enumerate() {
            coeffs[j] = round_scaled(z.re * scale);
            coeffs[j + slots] = round_scaled(z.im * scale);
        }
        let mut poly = RnsPoly::from_signed_coeffs(self.basis(), limbs, &coeffs);
        poly.to_eval(self.basis());
        poly
    }

    /// Decodes a plaintext back to complex slots.
    ///
    /// Works at any level; reconstruction uses the CRT over the
    /// plaintext's chain limbs and interprets coefficients centered.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext's limbs are not the chain of its level.
    pub fn decode(&self, pt: &Plaintext) -> Vec<C64> {
        assert_eq!(
            pt.poly.limb_indices(),
            self.chain_indices(pt.level),
            "plaintext limbs are not the chain of level {}",
            pt.level
        );
        let mut poly = pt.poly.clone();
        poly.to_coeff(self.basis());
        let crt = self.crt(pt.level);
        let n = self.params().n();
        let slots = self.params().slots();
        let mut folded = vec![C64::zero(); slots];
        let mut residues = vec![0u64; pt.level + 1];
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

/// `x` rounded into an `i64`.
///
/// # Panics
///
/// Panics unless `|x| <` [`ENCODE_LIMIT`] (NaN included).
fn round_scaled(x: f64) -> i64 {
    assert!(
        x.abs() < ENCODE_LIMIT,
        "scaled coefficient overflows i64; lower the scale"
    );
    x.round() as i64
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

    /// Uniform real vectors take the constant path and encode bit for
    /// bit as the general body does: on every functional parameter set,
    /// at every level, on the chain and the extended limb set, at scale
    /// `Δ` and at the level's top prime. The constants rotate through
    /// the four (limb set, scale) pairs of a level; 4 and 7 are coprime,
    /// so over seven levels every constant meets every pair.
    #[test]
    fn uniform_vectors_encode_exactly_as_the_general_body() {
        let constants = [1.0 / 7.0, -0.3, 1.0, 0.0, -0.0, 3.0e-9, -123.25];
        for params in [
            CkksParams::tiny(),
            CkksParams::small(),
            CkksParams::boot_test(),
        ] {
            let ctx = CkksContext::new(params);
            let slots = ctx.params().slots();
            for level in 0..=ctx.params().max_level {
                let q_top = ctx.basis().modulus(level).value() as f64;
                let (chain, ext) = (ctx.chain_indices(level), ctx.extended_indices(level));
                let delta = ctx.params().scale();
                let pairs = [(chain, delta), (chain, q_top), (ext, delta), (ext, q_top)];
                for (k, (limbs, scale)) in pairs.into_iter().enumerate() {
                    let c = constants[(4 * level + k) % constants.len()];
                    let values = vec![C64::new(c, 0.0); slots];
                    assert!(ctx.uniform_coefficient(&values, scale).is_some());
                    assert_eq!(
                        ctx.encode_on(&values, limbs, scale),
                        ctx.encode_general_on(&values, limbs, scale),
                        "{}: c = {c}, level {level}, {} limbs, scale 2^{:.1}",
                        ctx.params().name,
                        limbs.len(),
                        scale.log2()
                    );
                }
            }
        }
    }

    /// Vectors that are not one real value in every slot take the
    /// general body: a complex constant, a short (zero-padded) vector,
    /// and a constant whose last slot is `0.0` or `−0.0`. All-`0.0` and
    /// all-`−0.0` vectors are uniform and encode to the zero polynomial
    /// either way.
    #[test]
    fn the_detector_takes_only_full_real_constants() {
        let ctx = CkksContext::new(CkksParams::small());
        let slots = ctx.params().slots();
        let level = 4;
        let scale = ctx.params().scale();
        let c = C64::new(0.25, 0.0);
        let ending_in = |z: C64| {
            let mut v = vec![c; slots];
            v[slots - 1] = z;
            v
        };
        let not_taken = [
            vec![C64::new(0.25, 0.5); slots],
            vec![c; slots - 1],
            ending_in(C64::new(0.0, 0.0)),
            ending_in(C64::new(-0.0, 0.0)),
        ];
        let zeros = [0.0, -0.0].map(|z| vec![C64::new(z, z); slots]);
        for limbs in [ctx.chain_indices(level), ctx.extended_indices(level)] {
            for values in &not_taken {
                assert_eq!(ctx.uniform_coefficient(values, scale), None);
                assert_eq!(
                    ctx.encode_on(values, limbs, scale),
                    ctx.encode_general_on(values, limbs, scale)
                );
            }
            for values in &zeros {
                assert_eq!(ctx.uniform_coefficient(values, scale), Some(0));
                let general = ctx.encode_general_on(values, limbs, scale);
                assert!(general.flat().iter().all(|&x| x == 0));
                assert_eq!(ctx.encode_on(values, limbs, scale), general);
            }
        }
    }

    /// NaN, ±inf and over-limit constants panic with the general
    /// body's message on both paths.
    #[test]
    fn overflowing_uniform_vectors_panic_as_the_general_body_does() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let message = |f: &dyn Fn() -> RnsPoly| {
            let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("encoding must panic");
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .expect("a string payload")
        };
        let ctx = ctx();
        let slots = ctx.params().slots();
        let limbs = ctx.chain_indices(2);
        let scale = ctx.params().scale();
        for c in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0e9] {
            let values = vec![C64::new(c, 0.0); slots];
            let fast = message(&|| ctx.encode(&values, 2, scale).poly);
            let general = message(&|| ctx.encode_general_on(&values, limbs, scale));
            assert_eq!(fast, "scaled coefficient overflows i64; lower the scale");
            assert_eq!(fast, general, "c = {c}");
        }
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

    /// `Plaintext`'s fields are public, so its limbs can disagree with
    /// its level; decoding such a plaintext against the level's CRT
    /// would read the residues under the wrong moduli.
    #[test]
    #[should_panic(expected = "plaintext limbs are not the chain of level 2")]
    fn decode_rejects_limbs_off_the_chain_of_its_level() {
        let ctx = ctx();
        let values = vec![C64::new(0.5, 0.0); ctx.params().slots()];
        let scale = ctx.params().scale();
        let pt = Plaintext {
            poly: ctx.encode_on(&values, &[0, 1, 3], scale),
            level: 2,
            scale,
        };
        ctx.decode(&pt);
    }
}
