//! Minimum key-switching (**Min-KS**, Section IV-A) — the paper's first
//! algorithmic contribution.
//!
//! H-(I)DFT and similar kernels rotate by amounts in arithmetic
//! progression (Eq. 9: rotate one ciphertext by `i·r`; Eq. 10: rotate and
//! accumulate many ciphertexts by `i·r`). A radix-`2^k` stage's
//! progression is `{u·s : −(2^k−1) ≤ u ≤ 2^k−1}` for the stage's stride
//! `s` — it starts *below* zero, so a BSGS pass first has to reach the
//! window start `k0·s` (the pre-rotation) and then walks `i·s` (babies)
//! and `j·g·s` (giants). The three strategies of Fig. 1 differ in how:
//!
//! - the baseline loads a distinct `evk_rot^{(amount)}` per rotation and
//!   folds the pre-rotation into its baby amounts `(k0+i)·s`;
//! - \[42\] iterates previous results so one `evk^{(r)}` serves a whole
//!   pattern (Eq. 11), needing 3 keys per pass (pre-rotation `k0·s`,
//!   baby `s`, giant `g·s`);
//! - **Min-KS** cancels the pre-rotation between iterations, needing
//!   only 2. In software the cancellation is done clear-side, once, when
//!   the pipeline is built: each stage `M` is re-anchored as
//!   `M = rot_c ∘ M̃` with `M̃`'s window starting at zero, and the
//!   left-over `rot_c` is pushed through every later stage
//!   (`N ∘ rot_c = rot_c ∘ N'`, `N'` being `N` with its diagonal vectors
//!   rotated by `−c`) — see
//!   [`crate::lintrans::LinearTransform::re_anchored`] and
//!   [`crate::bootstrap::Bootstrapper`].
//!
//! This module provides the pattern detector, the per-strategy key-count
//! accounting used by the traffic analysis (Fig. 2), and the iterated
//! rotation primitives the functional evaluator uses; the plan itself
//! (stride, window, split) lives in [`crate::lintrans`].

use crate::ciphertext::Ciphertext;
use crate::keys::RotationKeys;
use crate::params::CkksContext;

/// Which evaluation keys a rotation-heavy kernel loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyStrategy {
    /// One `evk` per distinct rotation amount (Fig. 1(a)).
    Baseline,
    /// The minimal strategy of \[42\]: iterate rotations so each BSGS pass
    /// uses one baby key, one giant key, and one pre-rotation key
    /// (Fig. 1(b)).
    HoistedMinimal,
    /// The paper's Min-KS: pre-rotation cancelled between iterations —
    /// two keys per pass (Fig. 1(c)).
    MinKs,
}

/// A detected arithmetic-progression rotation pattern `{i·step}` for
/// `i = 1..=count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArithmeticPattern {
    /// Common difference `r`.
    pub step: i64,
    /// Number of rotations in the progression.
    pub count: usize,
}

/// Detects whether the (sorted, deduplicated, non-zero) rotation amounts
/// form an arithmetic progression starting at `step` — the Min-KS
/// applicability condition.
pub fn detect_arithmetic_pattern(amounts: &[i64]) -> Option<ArithmeticPattern> {
    let mut v: Vec<i64> = amounts.iter().copied().filter(|&a| a != 0).collect();
    if v.is_empty() {
        return None;
    }
    // sort by magnitude so negative progressions ({-1, -2, …}) work too
    v.sort_by_key(|a| a.abs());
    v.dedup();
    let step = v[0];
    for (i, &a) in v.iter().enumerate() {
        if a != step * (i as i64 + 1) {
            return None;
        }
    }
    Some(ArithmeticPattern {
        step,
        count: v.len(),
    })
}

/// Number of distinct rotation keys a BSGS pass with `baby` baby steps
/// and `giant` giant steps loads under each strategy. These are the
/// counts behind the evk-traffic bars of Fig. 2.
pub fn keys_per_bsgs_pass(strategy: KeyStrategy, baby: usize, giant: usize) -> usize {
    match strategy {
        KeyStrategy::Baseline => {
            // every nonzero baby amount + every nonzero giant amount + pre-rotation
            baby.saturating_sub(1) + giant.saturating_sub(1) + 1
        }
        KeyStrategy::HoistedMinimal => 3,
        KeyStrategy::MinKs => 2,
    }
}

impl CkksContext {
    /// Eq. 11: computes `HRot(ct, i·r)` for `i = 0..count` by iterating a
    /// single rotation amount `r`, returning all intermediates. Only the
    /// key for `r` is needed.
    ///
    /// # Panics
    ///
    /// Panics if the rotation key for `r` is missing.
    pub fn rotate_chain(
        &self,
        ct: &Ciphertext,
        r: i64,
        count: usize,
        keys: &RotationKeys,
    ) -> Vec<Ciphertext> {
        let mut out = Vec::with_capacity(count + 1);
        out.push(ct.clone());
        for i in 0..count {
            let next = self
                .rotate(&out[i], r, keys)
                .expect("caller provides the chain's rotation key");
            out.push(next);
        }
        out
    }

    /// Eq. 10 with Min-KS: `Σ_i HRot(x_i, i·r)` computed as a nested
    /// rotate-and-add chain using only `evk^{(r)}`. A `None` term is an
    /// absent (all-zero) `x_i`: the chain rotates through it without
    /// materializing or adding anything, trailing `None`s cost nothing,
    /// and a lone `x_0` issues no rotation at all.
    ///
    /// # Panics
    ///
    /// Panics if no term is present or the key for `r` is missing.
    pub fn rotate_accumulate(
        &self,
        terms: &[Option<Ciphertext>],
        r: i64,
        keys: &RotationKeys,
    ) -> Ciphertext {
        // Σ_i rot(x_i, i·r) = x_0 + rot(x_1 + rot(x_2 + …, r), r)
        let last = terms
            .iter()
            .rposition(Option::is_some)
            .expect("need at least one term");
        let mut acc = terms[last].clone().expect("position of a present term");
        for x in terms[..last].iter().rev() {
            acc = self
                .rotate(&acc, r, keys)
                .expect("caller provides the chain's rotation key");
            if let Some(x) = x {
                acc = self.add(&acc, x).expect("terms share one scale");
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use crate::params::CkksParams;
    use ark_math::cfft::C64;
    use rand::SeedableRng;

    #[test]
    fn detects_progressions() {
        assert_eq!(
            detect_arithmetic_pattern(&[3, 6, 9]),
            Some(ArithmeticPattern { step: 3, count: 3 })
        );
        assert_eq!(
            detect_arithmetic_pattern(&[9, 3, 6, 0, 6]),
            Some(ArithmeticPattern { step: 3, count: 3 })
        );
        assert_eq!(
            detect_arithmetic_pattern(&[-2, -4]),
            Some(ArithmeticPattern { step: -2, count: 2 })
        );
        assert_eq!(
            detect_arithmetic_pattern(&[-1, -2, -3]),
            Some(ArithmeticPattern { step: -1, count: 3 })
        );
        assert_eq!(detect_arithmetic_pattern(&[1, 2, 4]), None);
        assert_eq!(detect_arithmetic_pattern(&[]), None);
        assert_eq!(detect_arithmetic_pattern(&[0]), None);
    }

    #[test]
    fn key_counts_match_figure_1() {
        // Fig. 1 with m baby and n giant rotations:
        assert_eq!(keys_per_bsgs_pass(KeyStrategy::Baseline, 8, 8), 15);
        assert_eq!(keys_per_bsgs_pass(KeyStrategy::HoistedMinimal, 8, 8), 3);
        assert_eq!(keys_per_bsgs_pass(KeyStrategy::MinKs, 8, 8), 2);
    }

    #[test]
    fn rotate_chain_equals_direct_rotations() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sk = ctx.gen_secret_key(&mut rng);
        let slots = ctx.params().slots();
        // keys: the chain needs only r=2; direct needs 2,4,6
        let keys = ctx.gen_rotation_keys(&[2, 4, 6], false, &sk, &mut rng);
        let m: Vec<C64> = (0..slots).map(|i| C64::new(i as f64, 0.0)).collect();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, ctx.params().scale()), &sk, &mut rng);
        let chain = ctx.rotate_chain(&ct, 2, 3, &keys);
        for (i, c) in chain.iter().enumerate() {
            let direct = ctx.rotate(&ct, 2 * i as i64, &keys);
            let a = ctx.decrypt_decode(c, &sk);
            let b = ctx.decrypt_decode(&direct.unwrap(), &sk);
            assert!(max_error(&a, &b) < 1e-3, "i={i}");
        }
    }

    #[test]
    fn rotate_accumulate_matches_baseline_sum() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let sk = ctx.gen_secret_key(&mut rng);
        let slots = ctx.params().slots();
        let keys = ctx.gen_rotation_keys(&[1, 2, 3], false, &sk, &mut rng);
        let scale = ctx.params().scale();
        let terms: Vec<_> = (0..4)
            .map(|t| {
                let m: Vec<C64> = (0..slots)
                    .map(|i| C64::new((i + t) as f64 * 0.1, 0.0))
                    .collect();
                ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng)
            })
            .collect();
        // baseline: Σ_i rot(x_i, i·1) with distinct keys, over the
        // present terms only
        let check = |present: [bool; 4]| {
            let sparse: Vec<Option<Ciphertext>> = terms
                .iter()
                .zip(present)
                .map(|(x, keep)| keep.then(|| x.clone()))
                .collect();
            let want = sparse
                .iter()
                .enumerate()
                .filter_map(|(i, x)| Some(ctx.rotate(x.as_ref()?, i as i64, &keys).unwrap()))
                .reduce(|acc, x| ctx.add(&acc, &x).unwrap())
                .expect("a term is present");
            let got = ctx.rotate_accumulate(&sparse, 1, &keys);
            let a = ctx.decrypt_decode(&got, &sk);
            let b = ctx.decrypt_decode(&want, &sk);
            assert!(max_error(&a, &b) < 1e-3, "present = {present:?}");
        };
        check([true, true, true, true]);
        // the chain rotates through absent terms and ignores trailing ones
        check([true, false, false, true]);
        check([false, true, false, false]);
        // a lone x_0 needs no rotation, hence no key
        let lone = [Some(terms[0].clone()), None, None];
        let got = ctx.rotate_accumulate(&lone, 1, &RotationKeys::new());
        assert_eq!(got, terms[0]);
    }
}
