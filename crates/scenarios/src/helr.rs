//! HELR: one encrypted logistic-regression training iteration.
//!
//! The minibatch is packed block-per-sample: slot `16·s + j` holds
//! feature `j` of sample `s` — [`SAMPLES`]`×`[`FEATURES`]` = 512`
//! slots, exactly filling the `boot_test` parameter set. The model `w`
//! (the only ciphertext) is broadcast across blocks the same way, so
//! one `PMult` with the plaintext minibatch produces every per-sample
//! product at once.
//!
//! One iteration is:
//!
//! 1. **Forward inner products**: `z_s = x_s · w` via a hoisted-BSGS
//!    window sum — two cascaded `rotate_sum`s (baby amounts `{1,2,3}`,
//!    giant amounts `{4,8,12}`, uniform weights), one digit
//!    decomposition each.
//! 2. **Head broadcast**: two more `rotate_sum`s with *selector*
//!    weights (negative amounts) move each block's head slot `z_s`
//!    back over its 16 slots, folding the `1/8` sigmoid argument
//!    scaling into the selectors so no separate masking level is
//!    spent.
//! 3. **Degree-7 sigmoid** on `t = z/8` by baby-step/giant-step:
//!    `σ(z) ≈ 0.5 + c₁t + c₃t³ + c₅t⁵ + c₇t⁷` ([`SIGMOID_ODD`], the
//!    HELR degree-7 least-squares fit on `|z| ≤ 8`, max fit error
//!    ≈ 0.032 against the true sigmoid). 4 multiplicative levels.
//! 4. **Backward pass**: `PMult` with the minibatch pre-scaled by
//!    `γ/S`, then two `rotate_sum`s stride-16 sum over samples —
//!    leaving the scaled gradient `γ·∇_j` broadcast in every block.
//! 5. **Update + refresh**: `w' = w − γ·∇` lands at level 0 with the
//!    depth budget exhausted (12 levels), so the iteration ends in a
//!    `bootstrap` — one per iteration, the placement the cycle model
//!    (`ark_workloads::helr`) charges.
//!
//! Outputs: the scaled gradient (tight tolerance — pure arithmetic
//! noise) and the *bootstrapped* updated model (EvalMod-bounded
//! tolerance).

use crate::{scenario_err, Scenario, ScenarioSetup};
use ark_ckks::bootstrap::BootstrapConfig;
use ark_ckks::error::ArkResult;
use ark_ckks::packing::{pack_block_broadcast, pack_rows, pack_tiled, range_selector, uniform};
use ark_ckks::params::CkksParams;
use ark_fhe::engine::{bootstrap_trace_config, ProgramInput, RotateSumTerm};
use ark_fhe::workloads::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
use ark_fhe::workloads::trace::{Trace, TraceSummary};
use ark_math::cfft::C64;
use ark_serve::Program;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Features per sample (the per-block stride).
pub const FEATURES: usize = 16;
/// Samples per minibatch.
pub const SAMPLES: usize = 32;
/// Learning rate γ.
pub const LEARNING_RATE: f64 = 0.5;
/// Level the model ciphertext enters at — the iteration's exact
/// multiplicative depth, so the update lands at level 0 and bootstraps.
pub const INPUT_LEVEL: usize = 12;
/// Sigmoid argument range: the degree-7 polynomial is fit on
/// `|z| ≤ SIGMOID_RANGE` and evaluated in `t = z / SIGMOID_RANGE`.
pub const SIGMOID_RANGE: f64 = 8.0;
/// Odd coefficients `(c₁, c₃, c₅, c₇)` of the degree-7 HELR sigmoid
/// approximation `σ(z) ≈ 0.5 + Σ c_k (z/8)^k`.
pub const SIGMOID_ODD: [f64; 4] = [1.73496, -4.19407, 5.43402, -2.50739];
/// Gradient output tolerance: arithmetic noise only (no bootstrap on
/// this output path).
pub const GRADIENT_TOLERANCE: f64 = 1e-4;
/// Updated-model tolerance: dominated by the EvalMod approximation
/// error of the final bootstrap (same bound the `ckks` bootstrap
/// tests use).
pub const MODEL_TOLERANCE: f64 = 5e-2;

/// The degree-7 sigmoid approximation itself (plaintext form).
pub fn sigmoid_poly(z: f64) -> f64 {
    let t = z / SIGMOID_RANGE;
    let t2 = t * t;
    let [c1, c3, c5, c7] = SIGMOID_ODD;
    0.5 + t * (c1 + t2 * (c3 + t2 * (c5 + t2 * c7)))
}

/// One HELR training iteration on a synthetic minibatch.
#[derive(Debug, Clone)]
pub struct HelrScenario {
    /// Minibatch features, `SAMPLES × FEATURES`, entries in `[-1, 1]`.
    x: Vec<Vec<f64>>,
    /// Labels in `{0, 1}`.
    y: Vec<f64>,
    /// Current model, entries in `[-0.25, 0.25]` (keeps `|z| ≤ 4`,
    /// well inside the sigmoid fit range).
    w: Vec<f64>,
    seed: u64,
}

impl HelrScenario {
    /// Synthetic minibatch + model drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..SAMPLES)
            .map(|_| (0..FEATURES).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = (0..SAMPLES)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 })
            .collect();
        let w: Vec<f64> = (0..FEATURES).map(|_| rng.gen_range(-0.25..0.25)).collect();
        Self { x, y, w, seed }
    }

    fn slots(&self) -> usize {
        CkksParams::boot_test().slots()
    }

    /// Plaintext reference: per-feature scaled gradient `γ·∇_j` and
    /// updated model `w_j − γ·∇_j`.
    fn reference_model(&self) -> (Vec<f64>, Vec<f64>) {
        let mut grad = vec![0.0; FEATURES];
        for s in 0..SAMPLES {
            let z: f64 = (0..FEATURES).map(|j| self.x[s][j] * self.w[j]).sum();
            let d = sigmoid_poly(z) - self.y[s];
            for (j, g) in grad.iter_mut().enumerate() {
                *g += d * self.x[s][j] * LEARNING_RATE / SAMPLES as f64;
            }
        }
        let updated: Vec<f64> = (0..FEATURES).map(|j| self.w[j] - grad[j]).collect();
        (grad, updated)
    }

    /// The analytic bootstrap sub-trace configuration the engine
    /// derives for this scenario's setup (used to isolate the
    /// program's own op histogram in [`Scenario::check_trace`]).
    fn boot_trace_cfg(&self) -> BootstrapTraceConfig {
        let setup = self.setup();
        let boot = setup.bootstrapping.expect("HELR bootstraps");
        bootstrap_trace_config(&setup.params, &boot)
    }
}

impl Default for HelrScenario {
    fn default() -> Self {
        Self::new(42)
    }
}

fn sum_terms(slots: usize, amounts: &[i64]) -> Vec<RotateSumTerm> {
    amounts
        .iter()
        .map(|&a| RotateSumTerm::new(a, uniform(slots, 1.0)))
        .collect()
}

impl Scenario for HelrScenario {
    fn name(&self) -> &'static str {
        "helr-train-iteration"
    }

    fn setup(&self) -> ScenarioSetup {
        ScenarioSetup {
            params: CkksParams::boot_test(),
            rotations: Vec::new(),
            conjugation: false,
            // one bootstrap per iteration, of the FEATURES slots the
            // tiled model holds: SubSum, radix-2^3 transforms of 16
            // slots and one sparse-secret EvalMod (degree-29 cosine,
            // three doublings). ModRaise lands on level 18 instead of
            // 20; the software finishes on the full-slot level 6 and the
            // engine drops the result to the analytic model's level 5
            bootstrapping: Some(BootstrapConfig {
                slots: Some(FEATURES),
                ..BootstrapConfig::default()
            }),
            // the paper's mechanism: every program rotation key is
            // derived on demand from the chain seed
            runtime_keys: true,
            runtime_key_capacity: 32,
            seed: self.seed,
        }
    }

    fn inputs(&self) -> Vec<ProgramInput> {
        // the model, tiled over every sample block
        let slots = self.slots();
        let w_packed = pack_tiled(&self.w, slots);
        vec![ProgramInput::new(w_packed, INPUT_LEVEL)]
    }

    fn program(&self) -> Program {
        let slots = self.slots();
        let gamma = LEARNING_RATE / SAMPLES as f64;
        let [c1, c3, c5, c7] = SIGMOID_ODD;

        let mut p = Program::new(1);
        let w = p.reg(0); // level 12

        // 1. forward products + window sum: z over each 16-slot block
        let zp = p.mul_plain_rescale(w, pack_rows(&self.x, FEATURES, slots)); // 11
        let fw_baby = p.rotate_sum(zp, sum_terms(slots, &[0, 1, 2, 3]));
        let fw_baby = p.rescale(fw_baby); // 10
        let fw_giant = p.rotate_sum(fw_baby, sum_terms(slots, &[0, 4, 8, 12]));
        let z = p.rescale(fw_giant); // 9: head slot of block s holds z_s

        // 2. head broadcast with the 1/8 sigmoid scaling folded into
        // the first selector stage: t[i] = z_{block(i)} / 8 everywhere
        let inv = 1.0 / SIGMOID_RANGE;
        let bc1_terms: Vec<RotateSumTerm> = (0..4)
            .map(|b| RotateSumTerm::new(-(b as i64), range_selector(slots, 4, b, b + 1, inv)))
            .collect();
        let bc1 = p.rotate_sum(z, bc1_terms);
        let bc1 = p.rescale(bc1); // 8
        let bc2_terms: Vec<RotateSumTerm> = (0..4)
            .map(|a| {
                RotateSumTerm::new(
                    -(4 * a as i64),
                    range_selector(slots, FEATURES, 4 * a, 4 * a + 4, 1.0),
                )
            })
            .collect();
        let bc2 = p.rotate_sum(bc1, bc2_terms);
        let t = p.rescale(bc2); // 7

        // 3. degree-7 sigmoid, BSGS over t² and t⁴
        let t2 = p.square(t);
        let t2 = p.rescale(t2); // 6
        let t4 = p.square(t2);
        let t4 = p.rescale(t4); // 5
        let hi = p.mul_const(t2, c7);
        let hi = p.rescale(hi); // 5
        let hi = p.add_const(hi, c5); // c5 + c7·t²
        let hi = p.mul_rescale(hi, t4); // 4: t⁴(c5 + c7·t²)
        let lo = p.mul_const(t2, c3);
        let lo = p.rescale(lo); // 5
        let lo = p.mod_drop_to(lo, 4);
        let odd = p.add(hi, lo);
        let odd = p.add_const(odd, c1); // c1 + c3·t² + t⁴(c5 + c7·t²)
        let t_low = p.mod_drop_to(t, 4);
        let sig = p.mul_rescale(odd, t_low); // 3
        let sig = p.add_const(sig, 0.5); // σ(z) in every slot of block s

        // 4. residual + backward pass: γ/S folded into the plaintext
        let neg_y = pack_block_broadcast(
            &self.y.iter().map(|&v| -v).collect::<Vec<_>>(),
            FEATURES,
            slots,
        );
        let d = p.add_plain(sig, neg_y); // σ − y, still level 3
        let x_scaled: Vec<Vec<f64>> = self
            .x
            .iter()
            .map(|row| row.iter().map(|&v| v * gamma).collect())
            .collect();
        let gp = p.mul_plain_rescale(d, pack_rows(&x_scaled, FEATURES, slots)); // 2
        let bw_baby = p.rotate_sum(gp, sum_terms(slots, &[0, 16, 32, 48]));
        let bw_baby = p.rescale(bw_baby); // 1
        let giant: Vec<i64> = (0..8).map(|k| 64 * k).collect();
        let bw_giant = p.rotate_sum(bw_baby, sum_terms(slots, &giant));
        let grad = p.rescale(bw_giant); // 0: γ·∇_j broadcast in slot 16s+j

        // 5. update at the exhausted depth budget, then refresh
        let w_low = p.mod_drop_to(w, 0);
        let updated = p.sub(w_low, grad);
        let refreshed = p.bootstrap(updated);

        p.output(grad);
        p.output(refreshed);
        p
    }

    fn reference(&self) -> Vec<Vec<C64>> {
        let slots = self.slots();
        let (grad, updated) = self.reference_model();
        let grad_slots: Vec<C64> = (0..slots)
            .map(|i| C64::new(grad[i % FEATURES], 0.0))
            .collect();
        let updated_slots: Vec<C64> = (0..slots)
            .map(|i| C64::new(updated[i % FEATURES], 0.0))
            .collect();
        vec![grad_slots, updated_slots]
    }

    fn tolerances(&self) -> Vec<f64> {
        vec![GRADIENT_TOLERANCE, MODEL_TOLERANCE]
    }

    fn checked_slots(&self) -> usize {
        self.slots() // every slot carries broadcast data
    }

    fn expected_bootstraps(&self) -> usize {
        1 // the cycle model charges one refresh per training iteration
    }

    fn check_trace(&self, trace: &Trace) -> ArkResult<()> {
        let summary = trace.summary();
        let boot = bootstrap_trace(&CkksParams::boot_test(), &self.boot_trace_cfg()).summary();
        if summary.mod_raise != self.expected_bootstraps() {
            return Err(scenario_err(
                self.name(),
                "trace",
                format!(
                    "{} bootstraps recorded, cycle model expects {}",
                    summary.mod_raise,
                    self.expected_bootstraps()
                ),
            ));
        }
        // isolate the program's own ops from the analytic bootstrap
        // sub-trace and pin them to the BSGS shape derived above
        let prog = summary.saturating_sub(&boot.scaled(self.expected_bootstraps()));
        let expected = TraceSummary {
            hmult: 4,         // t², t⁴, hi·t⁴, odd·t
            pmult: 30,        // 28 rotate-sum terms + 2 minibatch PMults
            padd: 1,          // −y residual
            hadd: 24,         // 22 rotate-sum accumulates + odd join + update
            hrot: 0,          // every rotation rides a hoisted group
            hrot_hoisted: 22, // 3+3 forward, 3+3 broadcast, 3+7 backward
            hconj: 0,
            cmult: 2, // c7, c3
            cadd: 3,  // c5, c1, +0.5
            hrescale: 14,
            mod_raise: 0,
        };
        if prog != expected {
            return Err(scenario_err(
                self.name(),
                "trace",
                format!("program op histogram {prog} differs from the expected {expected}"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_poly_tracks_true_sigmoid() {
        // the documented fit budget on |z| ≤ 8 (max error ≈ 0.032)
        let mut worst = 0.0f64;
        for k in -80..=80 {
            let z = k as f64 / 10.0;
            let truth = 1.0 / (1.0 + (-z).exp());
            worst = worst.max((sigmoid_poly(z) - truth).abs());
        }
        assert!(worst < 0.05, "sigmoid fit error {worst}");
    }

    #[test]
    fn reference_gradient_descends() {
        let s = HelrScenario::default();
        let (grad, updated) = s.reference_model();
        assert_eq!(grad.len(), FEATURES);
        for j in 0..FEATURES {
            assert!((updated[j] - (s.w[j] - grad[j])).abs() < 1e-15);
        }
    }

    #[test]
    fn program_encodes_and_decodes() {
        let s = HelrScenario::default();
        let p = s.program();
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        let mut cur = ark_math::wire::Cursor::new(&bytes);
        let back = Program::decode(&mut cur).unwrap();
        assert_eq!(back.outputs().len(), 2);
        assert_eq!(back.len(), p.len());
    }
}
