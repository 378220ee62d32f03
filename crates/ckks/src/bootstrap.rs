//! CKKS bootstrapping (Section II-D): ModRaise → CoeffToSlot (H-IDFT) →
//! EvalMod → SlotToCoeff (H-DFT).
//!
//! A level-0 ciphertext is first re-interpreted modulo a longer chain
//! (`LevelRecover`/ModRaise), which silently adds `q_0·I` to the
//! plaintext polynomial. CoeffToSlot moves the *coefficients* into the
//! slots (homomorphic inverse DFT), EvalMod removes the `q_0·I` term by
//! a cosine interpolant and three angle doublings that land on
//! `sin(2πu)` ([`crate::evalmod`]), and SlotToCoeff moves the cleaned
//! coefficients back (homomorphic DFT). The two transforms are the
//! memory-bound H-(I)DFT kernels the whole paper is about; here they are
//! built from the radix-`2^k` stage factors of [`crate::dft`], each
//! planned over its rotation progression ([`crate::lintrans`]) and
//! evaluated with a selectable [`KeyStrategy`] so the Min-KS and
//! baseline paths can be checked for message-level equivalence.
//!
//! Under [`KeyStrategy::MinKs`] the stages are *re-anchored* when the
//! pipeline is built: every stage's window offset is moved clear-side to
//! its output ([`LinearTransform::re_anchored`]) and carried forward as
//! a pending rotation through the following stages' diagonals. The
//! steps between the two transforms — conjugation, the real/imaginary
//! split, EvalMod, the recombination — act on each slot alone, so they
//! commute with a slot rotation and the pending amount passes through
//! them unchanged. What is left is at most one closing rotation after
//! the last SlotToCoeff stage, at the pipeline's lowest level.
//!
//! # Sparse slot counts
//!
//! [`BootstrapConfig::slots`] sets the slot count `n` the pipeline
//! refreshes; the default is all `N/2`, and every step is a function of
//! `n`. A message whose slots repeat with period `n` is a polynomial in
//! `X^{N/2n}`, so a bootstrap of `n` slots suffices:
//!
//! - **SubSum**, right after ModRaise and spending no level, runs
//!   `log₂(N/2n)` rounds of `t += rot(t, n·2^i)`: the sum of the `N/2n`
//!   rotations by multiples of `n`, which projects `Δm + e + q_0·I` onto
//!   `ℤ[X^{N/2n}]` times `N/2n`. That factor is folded into
//!   CoeffToSlot's `Δ/(2·q_0)` constant.
//! - The transforms are the `n`-slot ones, tiled to `N/2` slots
//!   (`LinearTransform::tiled`, which keeps each stage's stride, span
//!   and key-switches): `⌈log₂ n / k⌉` levels each instead of
//!   `⌈log₂(N/2) / k⌉`.
//! - As `2n ≤ N/2`, CoeffToSlot's last stage emits `[w, −i·w]`
//!   (`dft::real_imag_pack`), so `u + ū` holds the real and
//!   then the imaginary coefficients, and **one** EvalMod reduces both.
//!   SlotToCoeff's last stage folds them back
//!   (`dft::real_imag_unpack`). Both are diagonal changes, not extra
//!   rotations; the unfolded last stage may plan one more key-switch.
//!
//! The contract: the bootstrap refreshes the `n`-periodic component of
//! its input. A message that does not repeat with period `n` comes back
//! averaged over its period classes — slot `j` holds the mean of slots
//! `j, j + n, j + 2n, …`.
//!
//! `n` changes what a bootstrap costs, never the level it returns. The
//! output sits where the full-slot pipeline's does, `L − L_boot(N/2)`,
//! and ModRaise lands only [`Bootstrapper::levels_consumed`] above it,
//! so every step of a sparse bootstrap runs on shorter limbs.

use crate::ciphertext::Ciphertext;
use crate::dft::{
    coeff_to_slot_stages, group_stages, real_imag_pack, real_imag_unpack, slot_to_coeff_stages,
};
use crate::error::ArkResult;
use crate::evalmod::{EvalMod, EvalModParams};
use crate::keys::{EvalKey, RotationKeys};
use crate::lintrans::{BsgsPlan, LinearTransform};
use crate::minks::KeyStrategy;
use crate::params::CkksContext;
use ark_math::poly::RnsPoly;
use std::time::{Duration, Instant};

/// Configuration of the bootstrapping pipeline.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Stages per homomorphic-DFT level (radix `2^k`); grouping all
    /// stages yields the dense single-level transform.
    pub radix_log2: usize,
    /// Rotation-key usage strategy for the H-(I)DFT passes.
    pub strategy: KeyStrategy,
    /// EvalMod interpolation parameters.
    pub evalmod: EvalModParams,
    /// Slot count `n` the pipeline refreshes, a power of two in
    /// `[2, N/2]`; `None` means all `N/2`. See the module docs for what
    /// a sparse count changes and for its contract.
    pub slots: Option<usize>,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            radix_log2: 3,
            strategy: KeyStrategy::MinKs,
            evalmod: EvalModParams::for_sparse_secret(),
            slots: None,
        }
    }
}

/// One step of the pipeline, as reported to the observer of
/// [`Bootstrapper::bootstrap_observed`] and named by
/// [`Bootstrapper::stage_plans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapStep {
    /// `LevelRecover`: level 0 → the pipeline's top level.
    ModRaise,
    /// The `i`-th SubSum round, `t += rot(t, n·2^i)` (sparse only).
    SubSum(usize),
    /// The `i`-th CoeffToSlot stage, in application order.
    CoeffToSlot(usize),
    /// Conjugation and the real/imaginary split.
    Split,
    /// EvalMod on the `i`-th ciphertext of the split: the real (`0`)
    /// and imaginary (`1`) halves at `n = N/2`, the one ciphertext that
    /// packs both (`0`) at a sparse `n`.
    EvalMod(usize),
    /// `z1 + i·z2` (full-slot only: a sparse pipeline folds the halves
    /// back inside SlotToCoeff's last stage).
    Recombine,
    /// The `i`-th SlotToCoeff stage, in application order.
    SlotToCoeff(usize),
    /// Min-KS's one left-over rotation (absent when it is `≡ 0`).
    ClosingRotation,
}

/// The BSGS plan of one H-(I)DFT stage, with the level it runs at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Which stage ([`BootstrapStep::CoeffToSlot`] or
    /// [`BootstrapStep::SlotToCoeff`]).
    pub step: BootstrapStep,
    /// Level of the stage's input ciphertext.
    pub level: usize,
    /// Stored (nonzero) diagonals.
    pub diagonals: usize,
    /// Key-switches and keys under the pipeline's strategy.
    pub bsgs: BsgsPlan,
}

/// Precomputed bootstrapping state: the grouped transform factors with
/// their scaling constants folded in, and the EvalMod interpolant.
#[derive(Debug)]
pub struct Bootstrapper {
    c2s: Vec<LinearTransform>,
    s2c: Vec<LinearTransform>,
    evalmod: EvalMod,
    strategy: KeyStrategy,
    /// SubSum's rotation amounts `n·2^i`; empty at `n = N/2`, the one
    /// slot count whose real and imaginary halves cannot share a
    /// ciphertext.
    sub_sum: Vec<i64>,
    /// Rotation still owed to the output once every stage has run
    /// (nonzero only under Min-KS re-anchoring).
    closing_rotation: usize,
    /// Level ModRaise lands on.
    top_level: usize,
}

impl Bootstrapper {
    /// Builds transform factors for the configured slot count.
    ///
    /// Scaling constants are folded into the linear maps: CoeffToSlot's
    /// first stage additionally multiplies by `Δ/(2·q_0)` (so slots land
    /// in units of `q_0`, pre-halved for the real/imaginary split) and
    /// by `2n/N` (taking back SubSum's gain), its last stage by EvalMod's
    /// `1/w`, and SlotToCoeff's first stage multiplies by `q_0/(2π·Δ)`
    /// (taking `sin(2πu) ≈ 2πu` back to the message scale).
    /// Under [`KeyStrategy::MinKs`] the stages are re-anchored (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics unless the slot count is a power of two in `[2, N/2]`
    /// (an engine refuses any other with a typed
    /// [`crate::error::ArkError::InvalidParams`] before it gets here).
    pub fn new(ctx: &CkksContext, config: BootstrapConfig) -> Self {
        let full = ctx.params().slots();
        let n = config.slots.unwrap_or(full);
        assert!(
            n.is_power_of_two() && (2..=full).contains(&n),
            "bootstrap slot count {n} is not a power of two in [2, {full}]"
        );
        let packed = n < full;
        let q0 = ctx.basis().modulus(0).value() as f64;
        let delta = ctx.params().scale();
        let k = config.radix_log2.max(1);
        let evalmod = EvalMod::new(&config.evalmod);

        let mut c2s_stages = coeff_to_slot_stages(n);
        // fold Δ/(2 q0) and SubSum's N/2n into the first applied stage
        c2s_stages[0] = c2s_stages[0].scaled(delta / (2.0 * q0 * (full / n) as f64));
        // SlotToCoeff keeps the packed halves apart: its blocks tile 2n
        let mut s2c_stages = slot_to_coeff_stages(n, if packed { 2 * n } else { n });
        s2c_stages[0] = s2c_stages[0].scaled(q0 / (2.0 * std::f64::consts::PI * delta));

        let mut c2s: Vec<LinearTransform> = group_stages(&c2s_stages, k)
            .iter()
            .map(|stage| stage.tiled(full))
            .collect();
        let mut s2c = group_stages(&s2c_stages, k);
        if packed {
            let last = c2s.last_mut().expect("n ≥ 2 has a stage");
            *last = real_imag_pack(n, full).compose(last);
            let last = s2c.last_mut().expect("n ≥ 2 has a stage");
            *last = real_imag_unpack(n).compose(last);
        }
        // EvalMod's 1/w rides in the last stage: in the first, the later
        // stages' noise would sit on a signal w times smaller
        let last = c2s.last_mut().expect("n ≥ 2 has a stage");
        *last = last.scaled(1.0 / evalmod.width());
        let s2c = s2c.iter().map(|stage| stage.tiled(full)).collect();

        // the pending rotation threads through both transforms, in
        // application order
        let mut pending = 0usize;
        let mut lower = |stages: Vec<LinearTransform>| -> Vec<LinearTransform> {
            if config.strategy != KeyStrategy::MinKs {
                return stages;
            }
            stages
                .iter()
                .map(|stage| {
                    let (anchored, c) = stage.re_anchored(pending);
                    pending = c;
                    anchored
                })
                .collect()
        };
        let c2s = lower(c2s);
        let s2c = lower(s2c);

        let mut boot = Self {
            c2s,
            s2c,
            evalmod,
            strategy: config.strategy,
            sub_sum: (0..(full / n).trailing_zeros())
                .map(|i| (n << i) as i64)
                .collect(),
            // the output repeats with period n: only `pending mod n` is owed
            closing_rotation: pending % n,
            top_level: 0,
        };
        // the full-slot pipeline's output level, plus this one's depth
        let max_level = ctx.params().max_level;
        let full_depth = 2 * (full.trailing_zeros() as usize).div_ceil(k) + boot.evalmod.depth();
        boot.top_level =
            (max_level.saturating_sub(full_depth) + boot.levels_consumed()).min(max_level);
        boot
    }

    /// Exactly the rotation amounts whose keys the pipeline asks for
    /// under its strategy — SubSum's and the closing rotation included
    /// (conjugation key required besides — pass `true` to
    /// [`CkksContext::gen_rotation_keys`]).
    pub fn required_rotations(&self) -> Vec<i64> {
        let mut set = std::collections::BTreeSet::new();
        set.extend(&self.sub_sum);
        for lt in self.c2s.iter().chain(&self.s2c) {
            set.extend(lt.required_rotations(self.strategy));
        }
        set.extend(self.closing_rotation());
        set.into_iter().collect()
    }

    /// The rotation Min-KS re-anchoring leaves for the end of the
    /// pipeline, if it is not `≡ 0 mod n`.
    pub fn closing_rotation(&self) -> Option<i64> {
        (self.closing_rotation != 0).then_some(self.closing_rotation as i64)
    }

    /// The plan of every H-(I)DFT stage in application order: level,
    /// progression, key-switches and keys under the pipeline's strategy.
    /// CoeffToSlot's first stage runs at the level ModRaise lands on.
    pub fn stage_plans(&self) -> Vec<StagePlan> {
        let s2c_top = self.top_level - self.c2s.len() - self.evalmod.depth();
        let plans = |stages: &[LinearTransform], top: usize, step: fn(usize) -> BootstrapStep| {
            stages
                .iter()
                .enumerate()
                .map(|(i, lt)| StagePlan {
                    step: step(i),
                    level: top - i,
                    diagonals: lt.diagonal_count(),
                    bsgs: lt.plan(self.strategy),
                })
                .collect::<Vec<_>>()
        };
        let mut out = plans(&self.c2s, self.top_level, BootstrapStep::CoeffToSlot);
        out.extend(plans(&self.s2c, s2c_top, BootstrapStep::SlotToCoeff));
        out
    }

    /// Rotation key-switches of one bootstrap: SubSum's rounds, every
    /// stage's plan and the closing rotation (the conjugation is not a
    /// rotation).
    pub fn rotation_key_switches(&self) -> usize {
        let stages: usize = self
            .stage_plans()
            .iter()
            .map(|stage| stage.bsgs.key_switches())
            .sum();
        self.sub_sum.len() + stages + usize::from(self.closing_rotation != 0)
    }

    /// Multiplicative levels one bootstrap consumes (`L_boot(n)`): both
    /// transforms and EvalMod. ModRaise lands this far above the level
    /// the full-slot pipeline returns.
    pub fn levels_consumed(&self) -> usize {
        self.c2s.len() + self.s2c.len() + self.evalmod.depth()
    }

    /// Runs the full pipeline on a low-level ciphertext.
    ///
    /// # Errors
    ///
    /// [`crate::error::ArkError::MissingConjugationKey`] if `keys` lacks the
    /// conjugation key. Missing rotation keys (anything in
    /// [`Self::required_rotations`]) and a chain too short for the
    /// EvalMod depth are treated as invariant violations and panic.
    pub fn bootstrap(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        evk_mult: &EvalKey,
        keys: &RotationKeys,
    ) -> ArkResult<Ciphertext> {
        self.bootstrap_observed(ctx, ct, evk_mult, keys, |_, _, _| {})
    }

    /// [`Self::bootstrap`], reporting each finished step to `on_step`
    /// with the level of the step's output and its wall time.
    ///
    /// # Errors
    ///
    /// As [`Self::bootstrap`].
    pub fn bootstrap_observed(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        evk_mult: &EvalKey,
        keys: &RotationKeys,
        mut on_step: impl FnMut(BootstrapStep, usize, Duration),
    ) -> ArkResult<Ciphertext> {
        let mut started = Instant::now();
        let mut done = |step: BootstrapStep, out: &Ciphertext| {
            let now = Instant::now();
            on_step(step, out.level, now - started);
            started = now;
        };
        // 1. ModRaise.
        let mut t = ctx.mod_raise(ct, self.top_level);
        done(BootstrapStep::ModRaise, &t);
        // 2. SubSum: project onto the subring of n-periodic messages.
        for (i, &r) in self.sub_sum.iter().enumerate() {
            let rotated = ctx
                .rotate(&t, r, keys)
                .expect("caller provides the SubSum keys");
            t = ctx.add(&t, &rotated).expect("rotation preserves the scale");
            done(BootstrapStep::SubSum(i), &t);
        }
        // 3. CoeffToSlot: slots ← coefficients·Δ/(2q0·w), bit-reversed.
        for (i, lt) in self.c2s.iter().enumerate() {
            t = ctx.eval_linear_transform(&t, lt, self.strategy, keys);
            done(BootstrapStep::CoeffToSlot(i), &t);
        }
        let conj = ctx.conjugate(&t, keys)?;
        let mut t = if self.sub_sum.is_empty() {
            // 4. real/imag split: z1 = t + t̄ (real coeffs / (q0·w)),
            //    z2 = −i·(t − t̄) (imag coeffs / (q0·w)).
            let z1 = ctx.add(&t, &conj).expect("conjugate preserves the scale");
            let z2 = ctx.mul_i(
                &ctx.sub(&t, &conj).expect("conjugate preserves the scale"),
                true,
            );
            done(BootstrapStep::Split, &z2);
            // 5. EvalMod on both halves.
            let z1 = ctx.eval_mod(&z1, &self.evalmod, evk_mult);
            done(BootstrapStep::EvalMod(0), &z1);
            let z2 = ctx.eval_mod(&z2, &self.evalmod, evk_mult);
            done(BootstrapStep::EvalMod(1), &z2);
            // 6. recombine t' = z1 + i·z2.
            let t = ctx
                .add(&z1, &ctx.mul_i(&z2, false))
                .expect("EvalMod halves share one scale");
            done(BootstrapStep::Recombine, &t);
            t
        } else {
            // 4. t = [c, −i·c]: t + t̄ = [real coeffs, imag coeffs] / (q0·w).
            let z = ctx.add(&t, &conj).expect("conjugate preserves the scale");
            done(BootstrapStep::Split, &z);
            // 5. one EvalMod reduces both halves.
            let z = ctx.eval_mod(&z, &self.evalmod, evk_mult);
            done(BootstrapStep::EvalMod(0), &z);
            z
        };
        // 7. SlotToCoeff (consumes the bit-reversed order).
        for (i, lt) in self.s2c.iter().enumerate() {
            t = ctx.eval_linear_transform(&t, lt, self.strategy, keys);
            done(BootstrapStep::SlotToCoeff(i), &t);
        }
        // 8. the rotation the re-anchored stages still owe.
        if let Some(r) = self.closing_rotation() {
            t = ctx
                .rotate(&t, r, keys)
                .expect("caller provides the closing-rotation key");
            done(BootstrapStep::ClosingRotation, &t);
        }
        // every stage lands on its input's scale, EvalMod included, so
        // the output is at `ct.scale` with no bookkeeping left to do
        Ok(t)
    }
}

impl CkksContext {
    /// `LevelRecover`/ModRaise: re-interprets a level-0 ciphertext modulo
    /// the chain up to `level`. Coefficients are lifted centered from
    /// `[0, q_0)`, which adds the `q_0·I` term EvalMod later removes.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not at level 0 or `level` is beyond
    /// the chain.
    pub fn mod_raise(&self, ct: &Ciphertext, level: usize) -> Ciphertext {
        assert_eq!(ct.level, 0, "ModRaise expects a level-0 ciphertext");
        let target = self.chain_indices(level);
        let q0 = self.basis().modulus(0);
        let raise = |poly: &RnsPoly| {
            let mut p = poly.clone();
            p.to_coeff(self.basis());
            let src = p.limb(0);
            let n = src.len();
            // each target limb lifts the centered q0 residues
            // independently — per-limb fan-out on the context pool
            let mut data = vec![0u64; target.len() * n];
            self.basis()
                .pool()
                .for_work(data.len())
                .par_for_each_row(&mut data, n, |k, row| {
                    let i = target[k];
                    if i == 0 {
                        row.copy_from_slice(src);
                    } else {
                        let qi = self.basis().modulus(i);
                        for (c, &x) in row.iter_mut().zip(src) {
                            *c = qi.lift_centered(x, q0.value());
                        }
                    }
                });
            let mut out = RnsPoly::from_flat(
                self.basis(),
                target,
                ark_math::poly::Representation::Coefficient,
                data,
            );
            out.to_eval(self.basis());
            out
        };
        Ciphertext::new(raise(&ct.b), raise(&ct.a), level, ct.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use crate::params::CkksParams;
    use ark_math::cfft::C64;
    use rand::SeedableRng;

    const STRATEGIES: [KeyStrategy; 3] = [
        KeyStrategy::Baseline,
        KeyStrategy::HoistedMinimal,
        KeyStrategy::MinKs,
    ];

    #[test]
    fn mod_raise_preserves_message() {
        // Decrypting immediately after ModRaise must still yield the
        // message: the q0·I term vanishes under decode's mod-Q view only
        // if decryption noise stays small — check via decode error.
        let ctx = CkksContext::new(CkksParams::boot_test());
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let sk = ctx.gen_secret_key(&mut rng);
        let slots = ctx.params().slots();
        let m: Vec<C64> = (0..slots)
            .map(|i| C64::new(0.25 * ((i % 7) as f64 - 3.0), 0.0))
            .collect();
        let ct = ctx.encrypt(&ctx.encode(&m, 0, ctx.params().scale()), &sk, &mut rng);
        let raised = ctx.mod_raise(&ct, ctx.params().max_level);
        assert_eq!(raised.level, ctx.params().max_level);
        // decrypt over the full chain: poly = Δm + q0·I; slots differ from
        // m by (q0/Δ)·(embedded I) — so direct decode is NOT m. Instead
        // check mod-q0 consistency: reduce back to level 0 and decode.
        let dropped = ctx.mod_drop_to(&raised, 0).unwrap();
        let out = ctx.decrypt_decode(&dropped, &sk);
        assert!(max_error(&m, &out) < 1e-4);
    }

    /// The full pipeline: encrypt at level 0, bootstrap, compare.
    /// This is the headline functional test of the reproduction.
    #[test]
    fn bootstrap_recovers_message_minks() {
        run_bootstrap(KeyStrategy::MinKs, 3);
    }

    #[test]
    fn bootstrap_recovers_message_baseline() {
        run_bootstrap(KeyStrategy::Baseline, 3);
    }

    #[test]
    fn bootstrap_recovers_message_hoisted_minimal() {
        run_bootstrap(KeyStrategy::HoistedMinimal, 3);
    }

    #[test]
    fn bootstrap_dense_single_stage() {
        // radix covering all stages == dense one-level transforms
        run_bootstrap(KeyStrategy::MinKs, 16);
    }

    /// Encrypts `m` at level 0, bootstraps it with `boot` and returns the
    /// decrypted result, after checking that every step ran where the
    /// plan says: SubSum and the first stage at ModRaise's level, every
    /// stage at its planned level, the closing rotation iff planned, and
    /// the output at the full-slot pipeline's level and at the input's
    /// scale (no step may leave a drift behind).
    fn refresh(
        ctx: &CkksContext,
        (config, boot): (&BootstrapConfig, &Bootstrapper),
        (sk, evk, keys): (&crate::keys::SecretKey, &EvalKey, &RotationKeys),
        m: &[C64],
        rng: &mut rand::rngs::StdRng,
    ) -> (Vec<C64>, Vec<BootstrapStep>) {
        let ct0 = ctx.encrypt(&ctx.encode(m, 0, ctx.params().scale()), sk, rng);
        let mut observed = Vec::new();
        let refreshed = boot
            .bootstrap_observed(ctx, &ct0, evk, keys, |step, level, _| {
                observed.push((step, level));
            })
            .unwrap();
        let plans = boot.stage_plans();
        let top = plans[0].level;
        assert_eq!(observed[0], (BootstrapStep::ModRaise, top));
        for stage in plans {
            let at = observed
                .iter()
                .position(|&(step, _)| step == stage.step)
                .expect("every planned stage is reported");
            assert_eq!(observed[at - 1].1, stage.level, "{:?}", stage.step);
        }
        let rounds: Vec<usize> = observed
            .iter()
            .filter(|(step, _)| matches!(step, BootstrapStep::SubSum(_)))
            .map(|&(_, level)| level)
            .collect();
        assert_eq!(rounds, vec![top; boot.sub_sum.len()]);
        let closes = observed
            .iter()
            .any(|&(step, _)| step == BootstrapStep::ClosingRotation);
        assert_eq!(closes, boot.closing_rotation().is_some());
        // n changes the cost, never the level a bootstrap returns
        let full = BootstrapConfig {
            slots: None,
            ..config.clone()
        };
        let full = Bootstrapper::new(ctx, full);
        let full_out = full.stage_plans().last().expect("stages").level - 1;
        assert_eq!(refreshed.level, full_out);
        let drift = refreshed.scale / ct0.scale - 1.0;
        assert!(drift.abs() < 1e-12, "output scale drifts by {drift:e}");
        assert!(full_out >= 2, "bootstrapping must leave usable levels");
        if config.radix_log2 == 3 {
            // every caller runs boot-test: 20 − (2·3 transform levels +
            // EvalMod's depth 8)
            assert_eq!(full_out, 6, "boot-test, radix 2^3");
        }
        let steps = observed.into_iter().map(|(step, _)| step).collect();
        (ctx.decrypt_decode(&refreshed, sk), steps)
    }

    fn run_bootstrap(strategy: KeyStrategy, radix_log2: usize) {
        let ctx = CkksContext::new(CkksParams::boot_test());
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        let sk = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let config = BootstrapConfig {
            radix_log2,
            strategy,
            ..BootstrapConfig::default()
        };
        let boot = Bootstrapper::new(&ctx, config.clone());
        // exactly the planned keys (+ conjugation): one too few panics
        // below, one too many fails here
        let rots = boot.required_rotations();
        let keys = ctx.gen_rotation_keys(&rots, true, &sk, &mut rng);
        assert_eq!(keys.len(), rots.len() + 1);

        let slots = ctx.params().slots();
        let m: Vec<C64> = (0..slots)
            .map(|i| {
                C64::new(
                    0.4 * ((i % 16) as f64 / 16.0 - 0.5),
                    0.3 * ((i % 9) as f64 / 9.0 - 0.4),
                )
            })
            .collect();
        let (out, steps) = refresh(&ctx, (&config, &boot), (&sk, &evk, &keys), &m, &mut rng);
        let evalmods = steps
            .iter()
            .filter(|step| matches!(step, BootstrapStep::EvalMod(_)))
            .count();
        assert_eq!(evalmods, 2, "full slot: one EvalMod per half");
        let err = max_error(&m, &out);
        assert!(err < 5e-2, "bootstrap error {err} (strategy {strategy:?})");
    }

    /// A sparse bootstrap refreshes an `n`-periodic message under every
    /// strategy with one EvalMod, and averages a message that is not
    /// periodic over its period classes. One key set per
    /// `(n, strategy)` serves both messages, and one secret key all.
    fn run_sparse(n: usize) {
        let ctx = CkksContext::new(CkksParams::boot_test());
        let slots = ctx.params().slots();
        let mut rng = rand::rngs::StdRng::seed_from_u64(64 + n as u64);
        let sk = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let periodic: Vec<C64> = (0..slots)
            .map(|i| {
                let j = (i % n) as f64 / n as f64;
                C64::new(0.4 * (j - 0.5), 0.3 * (7.0 * j).sin())
            })
            .collect();
        let ragged: Vec<C64> = (0..slots)
            .map(|i| C64::new(0.3 * (i as f64 * 0.7).sin(), 0.2 * (i as f64 * 0.3).cos()))
            .collect();
        let average: Vec<C64> = (0..slots)
            .map(|i| {
                let class = (i % n..slots).step_by(n).map(|k| ragged[k]);
                let sum = class.fold(C64::zero(), |acc, z| acc + z);
                sum.scale(n as f64 / slots as f64)
            })
            .collect();
        for strategy in STRATEGIES {
            let config = BootstrapConfig {
                strategy,
                slots: Some(n),
                ..BootstrapConfig::default()
            };
            let boot = Bootstrapper::new(&ctx, config.clone());
            let rots = boot.required_rotations();
            let keys = ctx.gen_rotation_keys(&rots, true, &sk, &mut rng);
            assert_eq!(keys.len(), rots.len() + 1);
            let (boot, keys) = ((&config, &boot), (&sk, &evk, &keys));
            let (out, steps) = refresh(&ctx, boot, keys, &periodic, &mut rng);
            let evalmods: Vec<_> = steps
                .iter()
                .filter(|step| matches!(step, BootstrapStep::EvalMod(_)))
                .collect();
            assert_eq!(evalmods, [&BootstrapStep::EvalMod(0)], "n = {n}");
            assert!(!steps.contains(&BootstrapStep::Recombine));
            let err = max_error(&periodic, &out);
            assert!(err < 5e-2, "n = {n}, {strategy:?}: error {err}");
            // the average is SubSum's doing, before any strategy acts
            if strategy == KeyStrategy::MinKs {
                let (out, _) = refresh(&ctx, boot, keys, &ragged, &mut rng);
                let err = max_error(&average, &out);
                assert!(err < 5e-2, "n = {n}: period average off by {err}");
            }
        }
    }

    #[test]
    fn sparse_bootstrap_16_slots() {
        run_sparse(16);
    }

    #[test]
    fn sparse_bootstrap_64_slots() {
        run_sparse(64);
    }

    #[test]
    fn sparse_bootstrap_quarter_slots() {
        run_sparse(CkksParams::boot_test().slots() / 4);
    }

    /// Min-KS re-anchoring is a clear-side rewrite: the anchored stages,
    /// followed by the one closing rotation, are the same linear map as
    /// the un-anchored stages (EvalMod and the split act per slot, so
    /// between the two transforms the pending rotation just rides along).
    /// With EvalMod replaced by its linearisation `sin(2π·w·v) ≈ 2π·w·v`
    /// on its input `v = u/w`, the transforms around the split give
    /// back an `n`-periodic message scaled by `2n/N` — SubSum's gain,
    /// which a bootstrap pays before CoeffToSlot.
    #[test]
    fn re_anchored_stages_compose_to_the_unanchored_pipeline() {
        let ctx = CkksContext::new(CkksParams::boot_test());
        let full = ctx.params().slots();
        for n in [16, 64, full / 4, full] {
            let build = |strategy| {
                let config = BootstrapConfig {
                    strategy,
                    slots: Some(n),
                    ..BootstrapConfig::default()
                };
                Bootstrapper::new(&ctx, config)
            };
            let anchored = build(KeyStrategy::MinKs);
            let plain = build(KeyStrategy::HoistedMinimal);
            let z: Vec<C64> = (0..full)
                .map(|i| {
                    let j = (i % n) as f64;
                    C64::new((j * 0.37).sin(), (j * 0.11).cos())
                })
                .collect();
            let run = |boot: &Bootstrapper| {
                let u = boot.c2s.iter().fold(z.clone(), |v, lt| lt.apply_clear(&v));
                // the split and the recombination with EvalMod linearised:
                // z1 + i·z2 = 2u for two halves, u + ū for one, times 2π·w
                let linear = 2.0 * std::f64::consts::PI * boot.evalmod.width();
                let split: Vec<C64> = u
                    .iter()
                    .map(|&x| match boot.sub_sum.is_empty() {
                        true => x.scale(2.0),
                        false => x + x.conj(),
                    })
                    .map(|x| x.scale(linear))
                    .collect();
                boot.s2c.iter().fold(split, |v, lt| lt.apply_clear(&v))
            };
            let want: Vec<C64> = z.iter().map(|x| x.scale(n as f64 / full as f64)).collect();
            let norm = want.iter().map(|w| w.abs()).fold(0.0, f64::max);
            assert_eq!(plain.closing_rotation(), None);
            assert!(max_error(&want, &run(&plain)) < 1e-9 * norm, "n = {n}");
            let c = anchored.closing_rotation().map_or(0, |c| c as usize);
            let held = run(&anchored);
            let got: Vec<C64> = (0..full).map(|k| held[(k + c) % full]).collect();
            assert!(max_error(&want, &got) < 1e-9 * norm, "n = {n}");
            // every anchored stage plans at most two keys and no
            // pre-rotation; the plain stages' pre-rotations become one
            // closing rotation
            for stage in anchored.stage_plans() {
                assert_eq!(stage.bsgs.offset, 0, "n = {n} {:?}", stage.step);
                assert!(stage.bsgs.keys.len() <= 2, "n = {n} {:?}", stage.step);
            }
            let pre: usize = plain
                .stage_plans()
                .iter()
                .map(|stage| stage.bsgs.pre_rotations)
                .sum();
            assert_eq!(
                anchored.rotation_key_switches() + pre,
                plain.rotation_key_switches() + usize::from(c != 0),
                "n = {n}"
            );
            if n == full {
                assert_eq!(pre, 4, "radix 2^3 pre-rotates four of six stages");
                assert!(c != 0, "offsets do not cancel at radix 2^3");
            }
        }
    }

    /// One line per stage plan (step, level, diagonals, stride, offset,
    /// span, pre/baby/giant key-switches, keys), then the pipeline's
    /// rotation keys, closing rotation and rotation key-switches.
    fn render_plans(boot: &Bootstrapper) -> String {
        let mut out = String::new();
        for stage in boot.stage_plans() {
            let p = &stage.bsgs;
            out += &format!(
                "{:?} L{} d{} s{} k{} w{} ks{}/{}/{} {:?}\n",
                stage.step,
                stage.level,
                stage.diagonals,
                p.stride,
                p.offset,
                p.span,
                p.pre_rotations,
                p.babies,
                p.giants,
                p.keys
            );
        }
        out += &format!(
            "rots {:?} close {:?} ks {}\n",
            boot.required_rotations(),
            boot.closing_rotation(),
            boot.rotation_key_switches()
        );
        out
    }

    /// The stage plans of both shipped configurations under every
    /// strategy, at boot-test and radix 2^3, recorded before the H-(I)DFT
    /// factors and their BSGS plans became one type. A planning change
    /// that keeps outputs decryptable (another window, key or level)
    /// moves a line here.
    #[test]
    fn stage_plans_are_pinned() {
        let ctx = CkksContext::new(CkksParams::boot_test());
        for (slots, strategy, want) in PINNED_PLANS {
            let config = BootstrapConfig {
                strategy,
                slots,
                ..BootstrapConfig::default()
            };
            let got = render_plans(&Bootstrapper::new(&ctx, config));
            assert_eq!(got, want, "slots {slots:?}, {strategy:?}:\n{got}");
        }
    }

    const PINNED_PLANS: [(Option<usize>, KeyStrategy, &str); 6] = [
        (
            None,
            KeyStrategy::Baseline,
            "\
                CoeffToSlot(0) L20 d8 s64 k0 w8 ks0/3/1 [64, 128, 192, 256]\n\
                CoeffToSlot(1) L19 d15 s8 k57 w15 ks0/4/3 [32, 64, 96, 456, 464, 472, 480]\n\
                CoeffToSlot(2) L18 d15 s1 k505 w15 ks0/4/3 [4, 8, 12, 505, 506, 507, 508]\n\
                SlotToCoeff(0) L9 d15 s1 k505 w15 ks0/4/3 [4, 8, 12, 505, 506, 507, 508]\n\
                SlotToCoeff(1) L8 d15 s8 k57 w15 ks0/4/3 [32, 64, 96, 456, 464, 472, 480]\n\
                SlotToCoeff(2) L7 d8 s64 k0 w8 ks0/3/1 [64, 128, 192, 256]\n\
                rots [4, 8, 12, 32, 64, 96, 128, 192, 256, 456, 464, 472, 480, 505, 506, 507, 508] close None ks 36\n\
            ",
        ),
        (
            None,
            KeyStrategy::HoistedMinimal,
            "\
                CoeffToSlot(0) L20 d8 s64 k0 w8 ks0/3/1 [64, 256]\n\
                CoeffToSlot(1) L19 d15 s8 k57 w15 ks1/3/3 [8, 32, 456]\n\
                CoeffToSlot(2) L18 d15 s1 k505 w15 ks1/3/3 [1, 4, 505]\n\
                SlotToCoeff(0) L9 d15 s1 k505 w15 ks1/3/3 [1, 4, 505]\n\
                SlotToCoeff(1) L8 d15 s8 k57 w15 ks1/3/3 [8, 32, 456]\n\
                SlotToCoeff(2) L7 d8 s64 k0 w8 ks0/3/1 [64, 256]\n\
                rots [1, 4, 8, 32, 64, 256, 456, 505] close None ks 36\n\
            ",
        ),
        (
            None,
            KeyStrategy::MinKs,
            "\
                CoeffToSlot(0) L20 d8 s64 k0 w8 ks0/3/1 [64, 256]\n\
                CoeffToSlot(1) L19 d15 s8 k0 w15 ks0/3/3 [8, 32]\n\
                CoeffToSlot(2) L18 d15 s1 k0 w15 ks0/3/3 [1, 4]\n\
                SlotToCoeff(0) L9 d15 s1 k0 w15 ks0/3/3 [1, 4]\n\
                SlotToCoeff(1) L8 d15 s8 k0 w15 ks0/3/3 [8, 32]\n\
                SlotToCoeff(2) L7 d8 s64 k0 w8 ks0/3/1 [64, 256]\n\
                rots [1, 4, 8, 32, 64, 256, 386] close Some(386) ks 33\n\
            ",
        ),
        (
            Some(16),
            KeyStrategy::Baseline,
            "\
                CoeffToSlot(0) L18 d8 s2 k0 w8 ks0/3/1 [2, 4, 6, 8]\n\
                CoeffToSlot(1) L17 d3 s1 k511 w3 ks0/1/1 [2, 511]\n\
                SlotToCoeff(0) L8 d15 s1 k505 w15 ks0/4/3 [4, 8, 12, 505, 506, 507, 508]\n\
                SlotToCoeff(1) L7 d4 s8 k0 w4 ks0/1/1 [8, 16]\n\
                rots [2, 4, 6, 8, 12, 16, 32, 64, 128, 256, 505, 506, 507, 508, 511] close None ks 20\n\
            ",
        ),
        (
            Some(16),
            KeyStrategy::HoistedMinimal,
            "\
                CoeffToSlot(0) L18 d8 s2 k0 w8 ks0/3/1 [2, 8]\n\
                CoeffToSlot(1) L17 d3 s1 k511 w3 ks1/1/1 [1, 2, 511]\n\
                SlotToCoeff(0) L8 d15 s1 k505 w15 ks1/3/3 [1, 4, 505]\n\
                SlotToCoeff(1) L7 d4 s8 k0 w4 ks0/1/1 [8, 16]\n\
                rots [1, 2, 4, 8, 16, 32, 64, 128, 256, 505, 511] close None ks 21\n\
            ",
        ),
        (
            Some(16),
            KeyStrategy::MinKs,
            "\
                CoeffToSlot(0) L18 d8 s2 k0 w8 ks0/3/1 [2, 8]\n\
                CoeffToSlot(1) L17 d3 s1 k0 w3 ks0/1/1 [1, 2]\n\
                SlotToCoeff(0) L8 d15 s1 k0 w15 ks0/3/3 [1, 4]\n\
                SlotToCoeff(1) L7 d4 s8 k0 w4 ks0/1/1 [8, 16]\n\
                rots [1, 2, 4, 8, 16, 32, 64, 128, 256] close Some(8) ks 20\n\
            ",
        ),
    ];

    #[test]
    fn bootstrapped_ciphertext_supports_further_ops() {
        let ctx = CkksContext::new(CkksParams::boot_test());
        let mut rng = rand::rngs::StdRng::seed_from_u64(63);
        let sk = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let boot = Bootstrapper::new(&ctx, BootstrapConfig::default());
        let keys = ctx.gen_rotation_keys(&boot.required_rotations(), true, &sk, &mut rng);
        let slots = ctx.params().slots();
        let m: Vec<C64> = (0..slots)
            .map(|i| C64::new(0.2 + 0.001 * i as f64, 0.0))
            .collect();
        let ct0 = ctx.encrypt(&ctx.encode(&m, 0, ctx.params().scale()), &sk, &mut rng);
        let refreshed = boot.bootstrap(&ctx, &ct0, &evk, &keys).unwrap();
        // square the refreshed ciphertext — impossible at level 0
        let sq = ctx.rescale(&ctx.square(&refreshed, &evk)).unwrap();
        let out = ctx.decrypt_decode(&sq, &sk);
        let want: Vec<C64> = m.iter().map(|&z| z * z).collect();
        let err = max_error(&want, &out);
        assert!(err < 5e-2, "post-bootstrap op error {err}");
    }
}
