//! On-the-fly limb extension (**OF-Limb**, Section IV-B) — the paper's
//! second algorithmic contribution.
//!
//! A plaintext used by `PMult`/`PAdd` normally stores `ℓ+1` limbs and is
//! streamed from off-chip memory. OF-Limb observes that the whole
//! polynomial is determined by its `q_0` limb (coefficients are bounded
//! by the scale, far below `q_0`), so only that limb needs to exist in
//! memory; the remaining limbs are regenerated at use time by Eq. 12:
//!
//! ```text
//! [P_m']_C = { NTT([P_m']_{q_0} mod q_i) }_{q_i ∈ C}
//! ```
//!
//! cutting plaintext traffic to `1/(ℓ+1)` at the cost of `ℓ` extra NTTs —
//! the trade ARK's compute-rich design wins (Section VII-B). The cycle
//! model counts those words with
//! `ark_workloads::counts::plaintext_words_at_level`.

use crate::ciphertext::Plaintext;
use crate::params::CkksContext;
use ark_math::poly::{Representation, RnsPoly};

/// A plaintext stored as its `q_0` limb only (coefficient order).
#[derive(Debug, Clone)]
pub struct CompressedPlaintext {
    q0_limb: Vec<u64>,
    scale: f64,
}

impl CompressedPlaintext {
    /// Storage in words — `N`, versus `(ℓ+1)·N` uncompressed.
    pub fn words(&self) -> usize {
        self.q0_limb.len()
    }

    /// The scale the plaintext was encoded at.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl CkksContext {
    /// Compresses a plaintext to its `q_0` limb.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext does not contain the `q_0` limb (every
    /// chain-limb plaintext does).
    pub fn compress_plaintext(&self, pt: &Plaintext) -> CompressedPlaintext {
        let mut poly = pt.poly.clone();
        poly.to_coeff(self.basis());
        let pos = poly
            .position_of(0)
            .expect("plaintext must hold the q0 limb");
        CompressedPlaintext {
            q0_limb: poly.limb(pos).to_vec(),
            scale: pt.scale,
        }
    }

    /// Eq. 12: regenerates a full plaintext at `level` from the `q_0`
    /// limb. Coefficients are lifted centered (they encode signed values
    /// bounded far below `q_0/2`), reduced into each `q_i` and
    /// NTT-transformed — the runtime data generation ARK performs
    /// on-chip instead of loading limbs from HBM.
    pub fn expand_plaintext(&self, cpt: &CompressedPlaintext, level: usize) -> Plaintext {
        let q0 = self.basis().modulus(0);
        let idx = self.chain_indices(level);
        let mut data = Vec::with_capacity(idx.len() * cpt.q0_limb.len());
        for &i in idx {
            if i == 0 {
                data.extend_from_slice(&cpt.q0_limb);
            } else {
                let qi = self.basis().modulus(i);
                data.extend(cpt.q0_limb.iter().map(|&x| qi.lift_centered(x, q0.value())));
            }
        }
        let mut poly = RnsPoly::from_flat(self.basis(), idx, Representation::Coefficient, data);
        poly.to_eval(self.basis());
        Plaintext {
            poly,
            level,
            scale: cpt.scale,
        }
    }

    /// Encodes directly into compressed form (what the host does ahead of
    /// time under OF-Limb: precompute only the `q_0` limb).
    pub fn encode_compressed(
        &self,
        values: &[ark_math::cfft::C64],
        scale: f64,
    ) -> CompressedPlaintext {
        // Encode at level 0 — only the q0 limb is materialized.
        let pt = self.encode(values, 0, scale);
        self.compress_plaintext(&pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use crate::params::CkksParams;
    use ark_math::cfft::C64;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::tiny())
    }

    #[test]
    fn expand_reproduces_full_plaintext_bit_exactly() {
        // The core OF-Limb equivalence: regenerated limbs must be
        // *identical* to the precomputed ones, not merely close.
        let ctx = ctx();
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let level = ctx.params().max_level;
        let full = ctx.encode(&msg, level, ctx.params().scale());
        let compressed = ctx.compress_plaintext(&full);
        let expanded = ctx.expand_plaintext(&compressed, level);
        assert_eq!(expanded.poly, full.poly);
    }

    #[test]
    fn expand_at_lower_level_matches_subset() {
        let ctx = ctx();
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new(0.01 * i as f64, -0.5))
            .collect();
        let full = ctx.encode(&msg, 3, ctx.params().scale());
        let compressed = ctx.compress_plaintext(&full);
        let expanded = ctx.expand_plaintext(&compressed, 1);
        assert_eq!(expanded.poly, full.poly.subset(&[0, 1]));
    }

    #[test]
    fn pmult_with_compressed_plaintext_matches_pmult_with_full() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sk = ctx.gen_secret_key(&mut rng);
        let slots = ctx.params().slots();
        let m: Vec<C64> = (0..slots).map(|i| C64::new(0.1 * i as f64, 0.2)).collect();
        let w: Vec<C64> = (0..slots).map(|i| C64::new(0.5, 0.01 * i as f64)).collect();
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        let q_top = ctx.basis().modulus(2).value() as f64;
        let full = ctx.encode(&w, 2, q_top);
        let compressed = ctx.encode_compressed(&w, q_top);
        let via_full = ctx.mul_plain_rescale(&ct, &full);
        let via_comp = ctx.mul_plain_rescale(&ct, &ctx.expand_plaintext(&compressed, 2));
        let a = ctx.decrypt_decode(&via_full.unwrap(), &sk);
        let b = ctx.decrypt_decode(&via_comp.unwrap(), &sk);
        assert!(max_error(&a, &b) < 1e-9, "OF-Limb changed the result");
    }

    #[test]
    fn compressed_words_is_n() {
        let ctx = ctx();
        let msg = vec![C64::new(0.25, 0.0); ctx.params().slots()];
        let c = ctx.encode_compressed(&msg, ctx.params().scale());
        assert_eq!(c.words(), ctx.params().n());
        assert_eq!(c.scale(), ctx.params().scale());
    }
}
