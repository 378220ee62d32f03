//! Static verification front-end over the `ark-fhe` abstract
//! interpreter.
//!
//! The analyzer itself lives in [`ark_fhe::verify`] — it is the same
//! `(level, scale)` interpreter `Engine::execute` and `ark-serve`
//! admission run, and the software backend checks every op against;
//! this crate is its user-facing shell:
//!
//! - re-exports of the analysis types, so tools depend on one crate;
//! - [`verify_scenario`]: run the analyzer over an `ark-scenarios`
//!   workload — setup → key-free context, inputs → level/scale specs,
//!   program → report — without generating a single key;
//! - the `verify` binary (`cargo run -p ark-verify --bin verify`):
//!   checks every scenario program and prints its level/liveness
//!   schedule; CI fails on any diagnostic;
//! - the error-parity proptest suite (`tests/parity.rs`) pinning the
//!   analyzer's accept/reject agreement with the software evaluator
//!   (whose `ark-ckks` calls must never panic on an admitted op),
//!   and the admission tests (`tests/admission.rs`) showing
//!   statically-invalid programs bounce off `ark-serve` with a typed
//!   error and zero evaluator ops.

pub use ark_fhe::verify::{
    AbstractCt, AbstractEvaluator, AbstractInput, ScheduleRow, VerifyContext, VerifyFinding,
    VerifyReport,
};

use ark_ckks::error::ArkResult;
use ark_scenarios::Scenario;

/// Statically verifies a scenario's program against its own setup:
/// the declared key surface, bootstrap configuration, runtime-key
/// policy, and the levels its inputs are encrypted at. No keys are
/// generated and no ciphertext is touched.
///
/// # Errors
///
/// Propagates [`ark_ckks::error::ArkError::InvalidParams`] if the
/// setup itself is inconsistent (the same validation
/// `Engine::builder().build()` performs). A program that fails
/// verification still returns `Ok` — the rejection is in
/// [`VerifyReport::finding`].
pub fn verify_scenario(s: &dyn Scenario) -> ArkResult<VerifyReport> {
    let ctx = s.setup().verify_context()?;
    let specs: Vec<AbstractInput> = s
        .inputs()
        .iter()
        .map(|i| AbstractInput::at_level(i.level))
        .collect();
    Ok(ctx.verify(&specs, &s.program()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_scenarios::{HelrScenario, ResNetScenario};

    #[test]
    fn both_scenario_programs_verify_cleanly() {
        for s in [
            &HelrScenario::default() as &dyn Scenario,
            &ResNetScenario::default() as &dyn Scenario,
        ] {
            let report = verify_scenario(s).unwrap();
            assert!(
                report.is_ok(),
                "{} failed static verification: {:?}",
                s.name(),
                report.finding
            );
            assert_eq!(report.bootstraps, s.expected_bootstraps(), "{}", s.name());
        }
    }

    #[test]
    fn liveness_peak_beats_worst_case_on_scenario_programs() {
        for (s, peak) in [
            (&HelrScenario::default() as &dyn Scenario, 13),
            (&ResNetScenario::default() as &dyn Scenario, 12),
        ] {
            let report = verify_scenario(s).unwrap();
            let p = s.program();
            let worst = p.worst_case_units(report.digit_units);
            assert!(
                report.peak_live_units <= worst,
                "{}: peak {} exceeds worst-case {}",
                s.name(),
                report.peak_live_units,
                worst
            );
            // the session charge of one scenario job, in ciphertexts
            assert_eq!(report.peak_live_units, peak, "{}", s.name());
        }
    }
}
