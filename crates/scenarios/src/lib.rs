//! End-to-end encrypted application scenarios over the `ark-fhe` stack.
//!
//! The paper's headline claim is *scenario diversity*: bootstrapping-
//! heavy workloads (HELR logistic-regression training, ResNet
//! inference) made practical by runtime key generation and hoisted
//! key-switching. This crate turns the repo's cycle-model workloads
//! into *real* encrypted computations: each [`Scenario`] describes its
//! parameter set, inputs, a single [`Program`] (the `ark-serve` wire
//! program, which doubles as an engine [`HeProgram`]), an f64 plaintext
//! reference, and the op-shape the cycle model expects — and the
//! framework runs that one description three ways:
//!
//! - [`run_local`]: encrypt → evaluate → decrypt on the software
//!   backend, verifying outputs against the plaintext reference.
//! - [`run_trace`]: record on the trace backend and cost the op
//!   sequence on the simulated ARK accelerator, after the same
//!   [`Scenario::check_trace`] shape assertions.
//! - [`run_remote`]: host the scenario's engine in an `ark-serve`
//!   loopback server (seed-compressed key distribution, runtime
//!   rotation keys), encrypt client-side, ship ciphertexts through the
//!   pipelined protocol, and verify the returned ciphertexts are
//!   bit-identical to a local evaluation of the same inputs.
//!
//! The scenario *stages* are the trait methods: `setup` (parameters +
//! key policy) → `inputs` (encode/encrypt) → `program` (build) → run
//! (one of the three runners) → verify (reference comparison +
//! trace-shape check, enforced inside every runner).
//!
//! Before any run, [`verify_scenario`] checks a scenario's program
//! statically with the `ark-fhe::verify` analyzer — no keys, no
//! ciphertexts — and the crate's `verify` binary does so for both
//! scenarios, printing the per-op level/liveness schedule.

#![forbid(unsafe_code)]

pub mod helr;
pub mod resnet;

pub use helr::HelrScenario;
pub use resnet::ResNetScenario;

use ark_ckks::bootstrap::BootstrapConfig;
use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_fhe::arch::ArkConfig;
use ark_fhe::engine::{Backend, Engine, HeProgram, ProgramInput};
use ark_fhe::verify::{AbstractInput, VerifyContext, VerifyReport};
use ark_fhe::workloads::trace::Trace;
use ark_math::cfft::C64;
use ark_serve::{Client, Program, Server, ServerConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};

/// Simulation report type re-exported for [`TraceRun`] consumers.
pub use ark_fhe::arch::sched::SimReport;

/// Stage 1 of a scenario: the parameter set and key policy its engine
/// is built with. All three runners build engines from this one
/// description, so the local, trace and remote paths agree on declared
/// keys, bootstrapping configuration and seeds.
#[derive(Debug, Clone)]
pub struct ScenarioSetup {
    /// CKKS parameter set.
    pub params: CkksParams,
    /// Eagerly declared rotation amounts (usually empty — scenarios
    /// lean on runtime key derivation, the paper's headline mechanism).
    pub rotations: Vec<i64>,
    /// Whether the conjugation key is declared.
    pub conjugation: bool,
    /// Bootstrapping configuration, if the scenario refreshes.
    pub bootstrapping: Option<BootstrapConfig>,
    /// Runtime (on-demand, seed-derived) rotation keys.
    pub runtime_keys: bool,
    /// Runtime rotation-key LRU capacity.
    pub runtime_key_capacity: usize,
    /// Key-generation / encryption seed. The remote runner builds the
    /// hosted engine and the client-side twin from the same seed, so
    /// both hold the same key chain.
    pub seed: u64,
}

impl ScenarioSetup {
    /// Builds an engine on `backend` from this setup.
    pub fn engine(&self, backend: Backend) -> ArkResult<Engine> {
        let mut b = Engine::builder()
            .params(self.params.clone())
            .backend(backend)
            .seed(self.seed)
            .rotations(&self.rotations)
            .conjugation(self.conjugation)
            .runtime_keys(self.runtime_keys)
            .runtime_key_capacity(self.runtime_key_capacity);
        if let Some(cfg) = &self.bootstrapping {
            b = b.bootstrapping(cfg.clone());
        }
        b.build()
    }

    /// A key-free static-verification context over this setup's
    /// declared key surface, bootstrap configuration and runtime-key
    /// policy — what [`verify_scenario`] and the `verify` CLI check
    /// scenario programs against without generating a single key.
    pub fn verify_context(&self) -> ArkResult<VerifyContext> {
        VerifyContext::new(
            self.params.clone(),
            &self.rotations,
            self.conjugation,
            self.bootstrapping.as_ref(),
            self.runtime_keys,
        )
    }
}

/// Statically verifies a scenario's program against its own setup:
/// the declared key surface, bootstrap configuration, runtime-key
/// policy, and the levels its inputs are encrypted at. No keys are
/// generated and no ciphertext is touched.
///
/// # Errors
///
/// Propagates [`ArkError::InvalidParams`] if the setup itself is
/// inconsistent (the same validation `Engine::builder().build()`
/// performs). A program that fails verification still returns `Ok` —
/// the rejection is in [`VerifyReport::finding`].
pub fn verify_scenario(s: &dyn Scenario) -> ArkResult<VerifyReport> {
    let ctx = s.setup().verify_context()?;
    let specs: Vec<AbstractInput> = s
        .inputs()
        .iter()
        .map(|i| AbstractInput::at_level(i.level))
        .collect();
    Ok(ctx.verify(&specs, &s.program()))
}

/// One encrypted application workload, described once and runnable on
/// the software backend, the trace backend, and through `ark-serve`.
pub trait Scenario {
    /// Scenario name (reports, benchmark artifacts).
    fn name(&self) -> &'static str;

    /// Stage 1: parameter set + key policy.
    fn setup(&self) -> ScenarioSetup;

    /// Stage 2: plaintext slot vectors and encryption levels. The
    /// local and remote runners encrypt these; the trace runner uses
    /// their levels symbolically.
    fn inputs(&self) -> Vec<ProgramInput>;

    /// Stage 3: the computation as a wire-shippable [`Program`].
    fn program(&self) -> Program;

    /// The f64 reference outputs, one slot vector per program output.
    fn reference(&self) -> Vec<Vec<C64>>;

    /// Max-abs-error tolerance per output (same length as
    /// [`Self::reference`]).
    fn tolerances(&self) -> Vec<f64>;

    /// Slots carrying meaningful data, from slot 0 (outputs may leave
    /// garbage in unused upper slots).
    fn checked_slots(&self) -> usize;

    /// Bootstraps one run performs (the cycle model's per-iteration
    /// bootstrap count).
    fn expected_bootstraps(&self) -> usize;

    /// Verifies the recorded trace has the op histogram the cycle
    /// model expects (hoisted rotation count, mult/rescale counts,
    /// bootstrap sub-traces).
    fn check_trace(&self, trace: &Trace) -> ArkResult<()>;
}

/// Typed failure helper: a scenario-stage error with context.
pub(crate) fn scenario_err(name: &str, stage: &str, reason: impl std::fmt::Display) -> ArkError {
    ArkError::InvalidParams {
        reason: format!("scenario {name}/{stage}: {reason}"),
    }
}

/// Max absolute slot error between two vectors over the first
/// `checked` slots.
pub fn max_abs_error(got: &[C64], want: &[C64], checked: usize) -> f64 {
    let n = checked.min(got.len()).min(want.len());
    (0..n)
        .map(|i| {
            let d = got[i] - want[i];
            (d.re * d.re + d.im * d.im).sqrt()
        })
        .fold(0.0, f64::max)
}

/// Compares decrypted outputs with the scenario reference, enforcing
/// per-output tolerances; returns per-output max-abs errors.
fn verify(s: &dyn Scenario, outputs: &[Vec<C64>]) -> ArkResult<Vec<f64>> {
    let refs = s.reference();
    let tols = s.tolerances();
    if refs.len() != outputs.len() || tols.len() != refs.len() {
        return Err(scenario_err(
            s.name(),
            "verify",
            format!(
                "{} outputs, {} references, {} tolerances",
                outputs.len(),
                refs.len(),
                tols.len()
            ),
        ));
    }
    let checked = s.checked_slots();
    let mut errors = Vec::with_capacity(refs.len());
    for (k, ((got, want), tol)) in outputs.iter().zip(&refs).zip(&tols).enumerate() {
        let err = max_abs_error(got, want, checked);
        if err > *tol {
            return Err(scenario_err(
                s.name(),
                "verify",
                format!("output {k}: max |err| {err:.3e} exceeds tolerance {tol:.1e}"),
            ));
        }
        errors.push(err);
    }
    Ok(errors)
}

/// Result of a [`run_local`] software-backend run.
#[derive(Debug)]
pub struct LocalRun {
    /// Decrypted output slot vectors.
    pub outputs: Vec<Vec<C64>>,
    /// Per-output max-abs error against the plaintext reference.
    pub errors: Vec<f64>,
    /// The op trace the run recorded (bootstrap sub-traces included).
    pub trace: Trace,
    /// Wall-clock time of encrypt → evaluate → decrypt.
    pub elapsed: Duration,
}

/// Runs the scenario end-to-end on the software backend and verifies
/// outputs against the plaintext reference and the trace against the
/// cycle-model shape.
pub fn run_local(s: &dyn Scenario) -> ArkResult<LocalRun> {
    let mut engine = s.setup().engine(Backend::Software)?;
    let program = s.program();
    let inputs = s.inputs();
    let start = Instant::now();
    let outcome = engine.execute(&inputs, &program)?;
    let elapsed = start.elapsed();
    let outputs = outcome
        .outputs()
        .expect("software outcome carries outputs")
        .to_vec();
    let trace = outcome.trace().clone();
    s.check_trace(&trace)?;
    let errors = verify(s, &outputs)?;
    Ok(LocalRun {
        outputs,
        errors,
        trace,
        elapsed,
    })
}

/// Result of a [`run_trace`] trace-backend run.
#[derive(Debug)]
pub struct TraceRun {
    /// The symbolically recorded op trace.
    pub trace: Trace,
    /// The cycle-model report of that trace on the ARK configuration.
    pub report: SimReport,
}

/// Records the scenario on the trace backend (same shape checks as the
/// local run) and costs it on the simulated ARK accelerator.
pub fn run_trace(s: &dyn Scenario) -> ArkResult<TraceRun> {
    let mut engine = s.setup().engine(Backend::Simulated(ArkConfig::base()))?;
    let program = s.program();
    let symbolic: Vec<ProgramInput> = s
        .inputs()
        .iter()
        .map(|i| ProgramInput::symbolic(i.level))
        .collect();
    let outcome = engine.execute(&symbolic, &program)?;
    let trace = outcome.trace().clone();
    s.check_trace(&trace)?;
    let report = outcome
        .report()
        .expect("simulated outcome carries a report")
        .clone();
    Ok(TraceRun { trace, report })
}

/// Result of a [`run_remote`] loopback `ark-serve` run.
#[derive(Debug)]
pub struct RemoteRun {
    /// Decrypted output slot vectors (from the server's ciphertexts).
    pub outputs: Vec<Vec<C64>>,
    /// Per-output max-abs error against the plaintext reference.
    pub errors: Vec<f64>,
    /// Whether the server's output ciphertexts are bit-identical to a
    /// local evaluation of the same input ciphertexts.
    pub bit_identical: bool,
    /// Server observability counters after the run (`GET_STATS`),
    /// including the per-op execution counters.
    pub stats: Vec<(String, u64)>,
    /// Wall-clock time of the pipelined submit → wait round-trip.
    pub elapsed: Duration,
}

/// Runs the scenario remotely: hosts its engine in a loopback
/// `ark-serve` server, encrypts client-side under the same seed,
/// ships ciphertexts through the pipelined protocol, and verifies
/// the results against both the plaintext reference and a local
/// evaluation (bit-identical).
pub fn run_remote(s: &dyn Scenario) -> ArkResult<RemoteRun> {
    let setup = s.setup();
    let hosted = setup.engine(Backend::Software)?;
    let fingerprint = hosted.fingerprint();
    let handle = Server::with_config(ServerConfig::default())
        .host(hosted)?
        .serve("127.0.0.1:0")
        .map_err(|e| scenario_err(s.name(), "remote", format!("loopback bind: {e}")))?;
    let result = run_remote_inner(s, &setup, fingerprint, handle.addr());
    handle.shutdown();
    result
}

fn run_remote_inner(
    s: &dyn Scenario,
    setup: &ScenarioSetup,
    fingerprint: u64,
    addr: std::net::SocketAddr,
) -> ArkResult<RemoteRun> {
    // client-side twin: same seed → same key chain as the hosted engine
    let mut local = setup.engine(Backend::Software)?;
    let ctx = CkksContext::new(setup.params.clone());
    let mut client = Client::connect(addr)?;

    // key distribution: the public key ships seed-compressed; prove it
    // matches the hosted chain by encrypting a probe under the fetched
    // key and decrypting with the twin's secret key
    let pk = client.public_key(fingerprint, &ctx)?;
    let slots = setup.params.slots();
    let probe: Vec<C64> = (0..slots.min(8))
        .map(|i| C64::new(0.125 * i as f64, 0.0))
        .collect();
    let pt = ctx.encode(&probe, 1, setup.params.scale());
    let mut rng = StdRng::seed_from_u64(setup.seed ^ 0x5eed);
    let probe_ct = ctx.encrypt_public(&pt, &pk, &mut rng);
    let round = local.decrypt(&probe_ct)?;
    if max_abs_error(&round, &probe, probe.len()) > 1e-3 {
        return Err(scenario_err(
            s.name(),
            "remote",
            "fetched public key does not encrypt under the hosted key chain",
        ));
    }

    // encode/encrypt stage, client side
    let inputs = s.inputs();
    let cts: Vec<_> = inputs
        .iter()
        .map(|i| local.encrypt(&i.values, i.level))
        .collect::<ArkResult<Vec<_>>>()?;
    let program = s.program();

    // pipelined round-trip
    let start = Instant::now();
    let ticket = client.submit_evaluate(fingerprint, &program, &cts, &ctx)?;
    let remote_cts = client.wait_evaluate(ticket, &ctx)?;
    let elapsed = start.elapsed();

    // the same inputs evaluated locally must match bit-for-bit
    let mut eval = local.shared_evaluator()?;
    let local_cts = program.run(&mut eval, &cts)?;
    let bit_identical = remote_cts == local_cts;
    if !bit_identical {
        return Err(scenario_err(
            s.name(),
            "remote",
            "server outputs diverge from local evaluation of the same ciphertexts",
        ));
    }

    let stats = client.stats()?;
    let outputs = remote_cts
        .iter()
        .map(|ct| local.decrypt(ct))
        .collect::<ArkResult<Vec<_>>>()?;
    let errors = verify(s, &outputs)?;
    Ok(RemoteRun {
        outputs,
        errors,
        bit_identical,
        stats,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_error_respects_checked_slots() {
        let a = vec![C64::new(1.0, 0.0), C64::new(9.0, 0.0)];
        let b = vec![C64::new(1.5, 0.0), C64::new(0.0, 0.0)];
        assert!((max_abs_error(&a, &b, 1) - 0.5).abs() < 1e-12);
        assert!((max_abs_error(&a, &b, 2) - 9.0).abs() < 1e-12);
    }

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
