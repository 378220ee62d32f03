//! CKKS bootstrapping (Section II-D): ModRaise → CoeffToSlot (H-IDFT) →
//! EvalMod → SlotToCoeff (H-DFT).
//!
//! A level-0 ciphertext is first re-interpreted modulo the full chain
//! (`LevelRecover`/ModRaise), which silently adds `q_0·I` to the
//! plaintext polynomial. CoeffToSlot moves the *coefficients* into the
//! slots (homomorphic inverse DFT), EvalMod removes the `q_0·I` term by
//! a scaled-sine approximation, and SlotToCoeff moves the cleaned
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

use crate::ciphertext::Ciphertext;
use crate::dft::{coeff_to_slot_stages, group_stages, slot_to_coeff_stages, SparseDiagonals};
use crate::error::ArkResult;
use crate::evalmod::{ChebyshevPoly, EvalModParams};
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
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            radix_log2: 3,
            strategy: KeyStrategy::MinKs,
            evalmod: EvalModParams::for_sparse_secret(),
        }
    }
}

/// One step of the pipeline, as reported to the observer of
/// [`Bootstrapper::bootstrap_observed`] and named by
/// [`Bootstrapper::stage_plans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapStep {
    /// `LevelRecover`: level 0 → the top of the chain.
    ModRaise,
    /// The `i`-th CoeffToSlot stage, in application order.
    CoeffToSlot(usize),
    /// Conjugation and the real/imaginary split.
    Split,
    /// EvalMod on the real (`0`) or imaginary (`1`) half.
    EvalMod(usize),
    /// `z1 + i·z2`.
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
/// their scaling constants folded in, and the sine interpolant.
#[derive(Debug)]
pub struct Bootstrapper {
    c2s: Vec<LinearTransform>,
    s2c: Vec<LinearTransform>,
    sine: ChebyshevPoly,
    strategy: KeyStrategy,
    /// Rotation still owed to the output once every stage has run
    /// (nonzero only under Min-KS re-anchoring).
    closing_rotation: usize,
    /// Level ModRaise lands on.
    top_level: usize,
}

impl Bootstrapper {
    /// Builds transform factors for the context's slot count.
    ///
    /// Scaling constants are folded into the linear maps: CoeffToSlot
    /// additionally multiplies by `Δ/(2·q_0)` (so slots land on the
    /// EvalMod interval in units of `q_0`, pre-halved for the
    /// real/imaginary split) and SlotToCoeff multiplies by `q_0/Δ`
    /// (restoring message scale). Under [`KeyStrategy::MinKs`] the
    /// stages are re-anchored (see the module docs).
    pub fn new(ctx: &CkksContext, config: BootstrapConfig) -> Self {
        let n = ctx.params().slots();
        let q0 = ctx.basis().modulus(0).value() as f64;
        let delta = ctx.params().scale();
        let k = config.radix_log2.max(1);

        let mut c2s_stages = coeff_to_slot_stages(n);
        // fold Δ/(2 q0) into the first applied stage
        c2s_stages[0] = c2s_stages[0].scaled(delta / (2.0 * q0));
        let mut s2c_stages = slot_to_coeff_stages(n);
        s2c_stages[0] = s2c_stages[0].scaled(q0 / delta);

        // the pending rotation threads through both transforms, in
        // application order
        let mut pending = 0usize;
        let mut lower = |stages: &[SparseDiagonals]| -> Vec<LinearTransform> {
            group_stages(stages, k)
                .iter()
                .map(|stage| {
                    let lt = stage.to_linear_transform();
                    if config.strategy == KeyStrategy::MinKs {
                        let (anchored, c) = lt.re_anchored(pending);
                        pending = c;
                        anchored
                    } else {
                        lt
                    }
                })
                .collect()
        };
        let c2s = lower(&c2s_stages);
        let s2c = lower(&s2c_stages);

        Self {
            c2s,
            s2c,
            sine: config.evalmod.sine_poly(),
            strategy: config.strategy,
            closing_rotation: pending,
            top_level: ctx.params().max_level,
        }
    }

    /// Exactly the rotation amounts whose keys the pipeline asks for
    /// under its strategy, the closing rotation included (conjugation
    /// key required besides — pass `true` to
    /// [`CkksContext::gen_rotation_keys`]).
    pub fn required_rotations(&self) -> Vec<i64> {
        let mut set = std::collections::BTreeSet::new();
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
    pub fn stage_plans(&self) -> Vec<StagePlan> {
        let s2c_top = self.top_level - self.c2s.len() - self.sine.depth();
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

    /// Rotation key-switches of one bootstrap: every stage's plan plus
    /// the closing rotation (the conjugation is not a rotation).
    pub fn rotation_key_switches(&self) -> usize {
        let stages: usize = self
            .stage_plans()
            .iter()
            .map(|stage| stage.bsgs.key_switches())
            .sum();
        stages + usize::from(self.closing_rotation != 0)
    }

    /// Multiplicative levels the pipeline consumes (`L_boot`).
    pub fn levels_consumed(&self, evalmod_depth: usize) -> usize {
        self.c2s.len() + self.s2c.len() + evalmod_depth
    }

    /// Runs the full pipeline on a low-level ciphertext.
    ///
    /// # Errors
    ///
    /// [`crate::error::ArkError::MissingConjugationKey`] if `keys` lacks the
    /// conjugation key. Missing transform rotation keys (anything in
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
        let mut t = ctx.mod_raise(ct);
        done(BootstrapStep::ModRaise, &t);
        // 2. CoeffToSlot: slots ← coefficients·Δ/(2q0), bit-reversed.
        for (i, lt) in self.c2s.iter().enumerate() {
            t = ctx.eval_linear_transform(&t, lt, self.strategy, keys);
            done(BootstrapStep::CoeffToSlot(i), &t);
        }
        // 3. real/imag split: z1 = w + w̄ (real coeffs / q0),
        //    z2 = −i·(w − w̄) (imag coeffs / q0).
        let conj = ctx.conjugate(&t, keys)?;
        let z1 = ctx.add(&t, &conj).expect("conjugate preserves the scale");
        let z2 = ctx.mul_i(
            &ctx.sub(&t, &conj).expect("conjugate preserves the scale"),
            true,
        );
        done(BootstrapStep::Split, &z2);
        // 4. EvalMod on both halves.
        let z1 = ctx.eval_chebyshev(&z1, &self.sine, evk_mult);
        done(BootstrapStep::EvalMod(0), &z1);
        let z2 = ctx.eval_chebyshev(&z2, &self.sine, evk_mult);
        done(BootstrapStep::EvalMod(1), &z2);
        // 5. recombine w' = z1 + i·z2.
        let mut t = ctx
            .add(&z1, &ctx.mul_i(&z2, false))
            .expect("EvalMod halves share one scale");
        done(BootstrapStep::Recombine, &t);
        // 6. SlotToCoeff (consumes the bit-reversed order).
        for (i, lt) in self.s2c.iter().enumerate() {
            t = ctx.eval_linear_transform(&t, lt, self.strategy, keys);
            done(BootstrapStep::SlotToCoeff(i), &t);
        }
        // 7. the rotation the re-anchored stages still owe.
        if let Some(r) = self.closing_rotation() {
            t = ctx
                .rotate(&t, r, keys)
                .expect("caller provides the closing-rotation key");
            done(BootstrapStep::ClosingRotation, &t);
        }
        // scale bookkeeping: the pipeline preserves the message at Δ up
        // to the folded constants; snap the tracked scale to the ideal
        // value (drift is far below noise).
        t.scale = ct.scale;
        Ok(t)
    }
}

impl CkksContext {
    /// `LevelRecover`/ModRaise: re-interprets a level-0 ciphertext modulo
    /// the full chain. Coefficients are lifted centered from `[0, q_0)`,
    /// which adds the `q_0·I` term EvalMod later removes.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not at level 0.
    pub fn mod_raise(&self, ct: &Ciphertext) -> Ciphertext {
        assert_eq!(ct.level, 0, "ModRaise expects a level-0 ciphertext");
        let l = self.params().max_level;
        let target = self.chain_indices(l);
        let q0 = self.basis().modulus(0);
        let half = q0.value() / 2;
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
                            *c = if x > half {
                                qi.neg(qi.reduce(q0.value() - x))
                            } else {
                                qi.reduce(x)
                            };
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
        Ciphertext {
            b: raise(&ct.b),
            a: raise(&ct.a),
            level: l,
            scale: ct.scale,
        }
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
        let raised = ctx.mod_raise(&ct);
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
        let boot = Bootstrapper::new(&ctx, config);
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
        let ct0 = ctx.encrypt(&ctx.encode(&m, 0, ctx.params().scale()), &sk, &mut rng);
        assert_eq!(ct0.level, 0);

        let mut observed = Vec::new();
        let refreshed = boot
            .bootstrap_observed(&ctx, &ct0, &evk, &keys, |step, level, _| {
                observed.push((step, level));
            })
            .unwrap();
        // every stage ran at the level its plan states
        for stage in boot.stage_plans() {
            let at = observed
                .iter()
                .position(|&(step, _)| step == stage.step)
                .expect("every planned stage is reported");
            assert_eq!(observed[at - 1].1, stage.level, "{:?}", stage.step);
        }
        let closes = observed
            .iter()
            .any(|&(step, _)| step == BootstrapStep::ClosingRotation);
        assert_eq!(closes, boot.closing_rotation().is_some());
        assert!(
            refreshed.level >= 2,
            "bootstrapping must leave usable levels, got {}",
            refreshed.level
        );
        let out = ctx.decrypt_decode(&refreshed, &sk);
        let err = max_error(&m, &out);
        assert!(err < 5e-2, "bootstrap error {err} (strategy {strategy:?})");
    }

    /// Min-KS re-anchoring is a clear-side rewrite: the anchored stages,
    /// followed by the one closing rotation, are the same linear map as
    /// the un-anchored stages (EvalMod and the split act per slot, so
    /// between the two transforms the pending rotation just rides along).
    #[test]
    fn re_anchored_stages_compose_to_the_unanchored_pipeline() {
        let ctx = CkksContext::new(CkksParams::boot_test());
        let build = |strategy| {
            let config = BootstrapConfig {
                strategy,
                ..BootstrapConfig::default()
            };
            Bootstrapper::new(&ctx, config)
        };
        let anchored = build(KeyStrategy::MinKs);
        let plain = build(KeyStrategy::HoistedMinimal);
        let n = ctx.params().slots();
        let z: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let run = |boot: &Bootstrapper| {
            boot.c2s
                .iter()
                .chain(&boot.s2c)
                .fold(z.clone(), |v, lt| lt.apply_clear(&v))
        };
        assert_eq!(plain.closing_rotation(), None);
        let want = run(&plain);
        let c = anchored
            .closing_rotation()
            .expect("offsets do not cancel at radix 2^3") as usize;
        let held = run(&anchored);
        let got: Vec<C64> = (0..n).map(|k| held[(k + c) % n]).collect();
        // C2S shrinks by Δ/(2q0)/n and S2C grows it back: compare at the
        // magnitude of the output
        let norm = want.iter().map(|w| w.abs()).fold(0.0, f64::max);
        assert!(max_error(&want, &got) < 1e-9 * norm);
        // every anchored stage plans two keys and no pre-rotation
        for stage in anchored.stage_plans() {
            assert_eq!(stage.bsgs.offset, 0, "{:?}", stage.step);
            assert_eq!(stage.bsgs.keys.len(), 2, "{:?}", stage.step);
        }
        assert_eq!(
            anchored.rotation_key_switches() + 3,
            plain.rotation_key_switches(),
            "four pre-rotations become one closing rotation"
        );
    }

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
