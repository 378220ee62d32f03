//! The unified engine: one backend-agnostic session layer over the
//! functional CKKS scheme and the ARK accelerator model.
//!
//! The seed library exposed two disjoint worlds: `CkksContext` methods
//! with secret/evaluation/rotation keys hand-threaded through every
//! call, and free functions `run`/`simulate` over workload traces. This
//! module fuses them behind one session object:
//!
//! - [`Engine`] — built once via [`Engine::builder`], owning the
//!   parameter set, the backend, and (on the software backend) a
//!   [`KeyChain`] generated up front so no call site threads keys;
//! - [`HeEvaluator`] — the backend-agnostic operation trait
//!   (`add`/`sub`/`mul`/`rotate`/`rescale`/`bootstrap`/…). Every
//!   level/scale/slot/key/encoding-range rule and every trace record
//!   of those ops is written once, in the `(level, scale)` front of
//!   [`crate::verify`]; the two implementations differ only in what
//!   they do *after* the front admitted an op.
//!   [`SoftwareEvaluator`] resolves keys and executes real RNS-CKKS
//!   arithmetic via `ark-ckks`; [`crate::verify::AbstractEvaluator`]
//!   keeps just the metadata (plus def-use liveness) and is therefore
//!   the static verifier and the trace-recording backend at once;
//! - [`HeProgram`] — a user program written once against the trait and
//!   executed on either backend through [`Engine::execute`], yielding
//!   decrypted outputs on [`Backend::Software`] and a cycle-level
//!   [`SimReport`] on [`Backend::Simulated`]. `execute` always
//!   interprets the program on the metadata evaluator first (a few
//!   microseconds), so a malformed program returns its typed error
//!   before any ciphertext work, and on the simulated backend that one
//!   pass *is* the run.
//!
//! Both evaluators record the same [`ark_workloads::Trace`] by
//! construction, so a program costed at paper-scale parameters —
//! without ever materializing a 2^16-degree ciphertext — is priced for
//! exactly the ops the software backend executes.
//!
//! The module is split by concern: `keys` (declared surface, key
//! chain, runtime key cache), `builder`, `software` (the arithmetic
//! backend), and this file (the trait, the program/outcome types and
//! [`Engine`] itself).
//!
//! ```no_run
//! use ark_fhe::engine::{Backend, Engine, HeEvaluator, HeProgram, ProgramInput};
//! use ark_fhe::error::ArkResult;
//! use ark_fhe::ckks::params::CkksParams;
//! use ark_fhe::math::cfft::C64;
//!
//! struct SquareAndShift;
//! impl HeProgram for SquareAndShift {
//!     fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
//!         let sq = e.square(&inputs[0])?;
//!         let sq = e.rescale(&sq)?;
//!         Ok(vec![e.rotate(&sq, 1)?])
//!     }
//! }
//!
//! let mut engine = Engine::builder()
//!     .params(CkksParams::small())
//!     .backend(Backend::Software)
//!     .rotations(&[1])
//!     .build()?;
//! let x = vec![C64::new(0.5, 0.0); 8];
//! let outcome = engine.execute(&[ProgramInput::new(x, 4)], &SquareAndShift)?;
//! # Ok::<(), ark_fhe::error::ArkError>(())
//! ```

mod builder;
mod keys;
mod software;

pub use builder::{bootstrap_trace_config, EngineBuilder};
pub use keys::{DeclaredKeys, KeyChain, DEFAULT_RUNTIME_KEY_CAPACITY};
pub use software::SoftwareEvaluator;

use crate::error::{ArkError, ArkResult};
use crate::verify::VerifyContext;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::Ciphertext;
use ark_core::compile::CompileOptions;
use ark_core::config::ArkConfig;
use ark_core::sched::SimReport;
use ark_math::cfft::C64;
use ark_workloads::trace::Trace;
use software::SoftwareState;

/// Which execution substrate a session runs on.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Real RNS-CKKS arithmetic on the host (`ark-ckks`); programs
    /// yield decryptable ciphertexts.
    Software,
    /// The cycle-level ARK model (`ark-core`); programs yield a
    /// [`SimReport`] instead of ciphertexts, so paper-scale parameter
    /// sets are practical.
    Simulated(ArkConfig),
}

impl Backend {
    /// Short backend name, used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Software => "software",
            Backend::Simulated(_) => "simulated",
        }
    }
}

/// One program input: the slot values (used by the software backend)
/// and the level the ciphertext enters at (used by both).
#[derive(Debug, Clone)]
pub struct ProgramInput {
    /// Slot values; ignored by the simulated backend.
    pub values: Vec<C64>,
    /// Level the input ciphertext is encrypted at.
    pub level: usize,
}

impl ProgramInput {
    /// An input with real slot values.
    pub fn new(values: Vec<C64>, level: usize) -> Self {
        Self { values, level }
    }

    /// A shape-only input for the simulated backend.
    pub fn symbolic(level: usize) -> Self {
        Self {
            values: Vec::new(),
            level,
        }
    }
}

/// A user program written once against [`HeEvaluator`] and executable
/// on any backend via [`Engine::execute`].
pub trait HeProgram {
    /// Runs the program over `inputs`, returning the output ciphertexts.
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>>;
}

/// What [`Engine::execute`] returns: decrypted outputs on the software
/// backend, a cycle-level report on the simulated backend — plus the
/// recorded op trace on both.
#[derive(Debug)]
pub enum Outcome {
    /// Software execution: the decrypted output slot vectors.
    Software {
        /// One decoded slot vector per program output.
        outputs: Vec<Vec<C64>>,
        /// The op sequence the program executed.
        trace: Trace,
    },
    /// Simulated execution: the accelerator-model report.
    Simulated {
        /// Cycle/traffic/utilization report from `ark-core`.
        report: SimReport,
        /// The op sequence the program recorded.
        trace: Trace,
    },
}

impl Outcome {
    /// The recorded op trace (available on every backend).
    pub fn trace(&self) -> &Trace {
        match self {
            Outcome::Software { trace, .. } | Outcome::Simulated { trace, .. } => trace,
        }
    }

    /// Decrypted outputs, if this was a software run.
    pub fn outputs(&self) -> Option<&[Vec<C64>]> {
        match self {
            Outcome::Software { outputs, .. } => Some(outputs),
            Outcome::Simulated { .. } => None,
        }
    }

    /// The simulation report, if this was a simulated run.
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            Outcome::Simulated { report, .. } => Some(report),
            Outcome::Software { .. } => None,
        }
    }
}

/// One term of a fused [`HeEvaluator::rotate_sum`]: rotate the input
/// left by `amount` slots, then multiply slot-wise by `weights`
/// (encoded at the top-prime scale, like [`HeEvaluator::mul_plain`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RotateSumTerm {
    /// Circular left slot shift (0 and multiples of the slot count are
    /// keyless identities).
    pub amount: i64,
    /// Per-slot weights; at most the slot count.
    pub weights: Vec<C64>,
}

impl RotateSumTerm {
    /// A weighted-rotation term.
    pub fn new(amount: i64, weights: Vec<C64>) -> Self {
        Self { amount, weights }
    }
}

/// The backend-agnostic HE operation set (Table II of the paper, plus
/// bootstrapping): programs written against this trait run unchanged on
/// the software and metadata evaluators.
///
/// Level discipline is strict: binary ops require equal levels and
/// matching scales, surfacing [`ArkError::LevelMismatch`] /
/// [`ArkError::ScaleMismatch`] instead of silently aligning, so a
/// program costed on the simulated backend performs exactly the ops the
/// software backend executes. Use [`HeEvaluator::mod_drop_to`] to align
/// explicitly.
pub trait HeEvaluator {
    /// Backend ciphertext handle.
    type Ct: Clone;

    /// The parameter set operations run under.
    fn params(&self) -> &CkksParams;

    /// The op sequence recorded so far.
    fn trace(&self) -> &Trace;

    /// Creates a fresh input ciphertext at `level` (encrypting `values`
    /// on the software backend; shape-only elsewhere).
    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct>;

    /// Level of a ciphertext handle.
    fn level(&self, ct: &Self::Ct) -> usize;

    /// Scale of a ciphertext handle.
    fn scale(&self, ct: &Self::Ct) -> f64;

    /// `HAdd`: slot-wise sum (equal levels, matching scales).
    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HSub`: slot-wise difference (equal levels, matching scales).
    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct>;

    /// Slot-wise negation.
    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `CAdd`: adds a real constant to every slot.
    fn add_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct>;

    /// `CMult`: multiplies every slot by a real constant, encoded at the
    /// current top-prime scale so a following [`Self::rescale`] restores
    /// the ciphertext scale.
    fn mul_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct>;

    /// `PAdd`: adds a plaintext vector (encoded at the ciphertext's
    /// scale and level internally).
    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct>;

    /// `PMult`: multiplies by a plaintext vector (encoded at the
    /// top-prime scale internally); rescale afterwards.
    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct>;

    /// `HMult` with relinearization; rescale afterwards.
    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct>;

    /// Squares a ciphertext (cheaper than `mul(x, x)`).
    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HRot`: circular left slot shift by `amount`.
    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct>;

    /// Fused rotate-and-sum (the Eq. 8 BSGS inner loop as one node):
    /// computes `Σ_k weights_k ⊙ rot(ct, amount_k)` with **hoisted**
    /// key-switching — the software backend pays one digit
    /// decomposition for the whole term set instead of one per
    /// rotation, and both backends record the reduced work as
    /// `HRotHoisted` trace ops so `ark-core` simulation reflects the
    /// saved BConv/NTT passes (key loads are per distinct amount,
    /// unchanged). The result's scale is `scale · q_top`, exactly like
    /// [`Self::mul_plain`]; rescale afterwards. Output bits equal the
    /// unfused `rotate`/`mul_plain`/`add` spelling.
    ///
    /// # Errors
    ///
    /// [`ArkError::InvalidParams`] for an empty term list, oversized
    /// weights, or weights that overflow the top-prime encoding;
    /// [`ArkError::MissingRotationKey`] if a term's amount was never
    /// declared (and runtime keys are off) — identical on both
    /// backends.
    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct>;

    /// `HConj`: slot-wise complex conjugation.
    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HRescale`: drops the top limb, dividing the scale by it.
    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// Drops limbs so the ciphertext sits at `level`.
    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct>;

    /// Refreshes a level-0 ciphertext to a usable level. Requires the
    /// engine to have been built with
    /// [`EngineBuilder::bootstrapping`].
    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HMult` + `HRescale` — the common pairing.
    fn mul_rescale(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        let p = self.mul(a, b)?;
        self.rescale(&p)
    }

    /// `PMult` + `HRescale`.
    fn mul_plain_rescale(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        let p = self.mul_plain(ct, values)?;
        self.rescale(&p)
    }
}

#[derive(Debug)]
enum BackendState {
    Software(Box<SoftwareState>),
    Simulated(ArkConfig),
}

/// One HE session: its shape (parameter set, declared keys, runtime-key
/// policy, bootstrap configuration — what the metadata front resolves
/// against) plus the backend state, built once, with every operation
/// resolving its key material internally.
#[derive(Debug)]
pub struct Engine {
    shape: VerifyContext,
    state: BackendState,
    threads: usize,
}

impl Engine {
    /// Starts building a session.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The session's parameter set.
    pub fn params(&self) -> &CkksParams {
        self.shape.params()
    }

    /// Threads the session fans limb-level work out on: the
    /// [`EngineBuilder::threads`] request (the host's available
    /// parallelism if unset), with `0` clamped to `1`. It is an upper
    /// bound per fan-out — a spawn the OS refuses runs its chunk on the
    /// caller for that one batch. Informational on the trace backend.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The wire-format fingerprint of the session's parameter set (see
    /// [`ark_ckks::wire::param_fingerprint`]): the value every frame
    /// this session produces carries, and the address `ark-serve`
    /// clients use to pick a hosted engine.
    pub fn fingerprint(&self) -> u64 {
        ark_ckks::wire::param_fingerprint(self.params())
    }

    /// The software key chain, if this is a software session.
    pub fn keychain(&self) -> Option<&KeyChain> {
        match &self.state {
            BackendState::Software(sw) => Some(&sw.keys),
            BackendState::Simulated(_) => None,
        }
    }

    /// The functional CKKS context, if this is a software session (for
    /// advanced scheme-level access).
    pub fn context(&self) -> Option<&CkksContext> {
        match &self.state {
            BackendState::Software(sw) => Some(&sw.ctx),
            BackendState::Simulated(_) => None,
        }
    }

    /// Encrypts slot values at `level` under the session secret key.
    /// `A` expands from a public 64-bit seed that the session numbers
    /// off its key chain's public master
    /// ([`ark_ckks::keys::ciphertext_seed`]), so no two of its
    /// ciphertexts share `A`; the ciphertext records the seed, and the
    /// wire codec ships `A` as those 8 bytes
    /// ([`ark_ckks::wire::encode_ciphertext`]). The error comes from
    /// the session's generator, none of whose outputs the seed reveals.
    /// A third party holding only the public key encrypts with
    /// [`CkksContext::encrypt_public`] instead.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend;
    /// [`ArkError::LevelOutOfRange`] for a level beyond the chain.
    pub fn encrypt(&mut self, values: &[C64], level: usize) -> ArkResult<Ciphertext> {
        // delegate to the evaluator's input path so the checks (level
        // range, slot count) exist in exactly one place
        self.evaluator()
            .map_err(|_| ArkError::UnsupportedOnBackend {
                op: "encrypt",
                backend: "simulated",
            })?
            .input(values, level)
    }

    /// Decrypts and decodes a ciphertext with the session secret key.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend.
    pub fn decrypt(&self, ct: &Ciphertext) -> ArkResult<Vec<C64>> {
        match &self.state {
            BackendState::Software(sw) => Ok(sw.ctx.decrypt_decode(ct, &sw.keys.sk)),
            BackendState::Simulated(_) => Err(ArkError::UnsupportedOnBackend {
                op: "decrypt",
                backend: "simulated",
            }),
        }
    }

    /// A software evaluator borrowing the session keys, for
    /// ciphertext-level control beyond [`Engine::execute`].
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend.
    pub fn evaluator(&mut self) -> ArkResult<SoftwareEvaluator<'_>> {
        match &mut self.state {
            BackendState::Software(sw) => Ok(sw.evaluator(&self.shape)),
            BackendState::Simulated(_) => Err(ArkError::UnsupportedOnBackend {
                op: "evaluator",
                backend: "simulated",
            }),
        }
    }

    /// An evaluation-only software evaluator borrowing the session
    /// *immutably*: it shares the session [`KeyChain`] but carries no
    /// encryption RNG, so [`HeEvaluator::input`] reports
    /// [`ArkError::KeyChainMissing`] — callers supply ciphertexts that
    /// were encrypted elsewhere (typically client-side, shipped through
    /// the wire format). Because the borrow is shared, any number of
    /// these can evaluate concurrently over the same keys; `ark-serve`
    /// fans whole request batches out this way, one evaluator (hence
    /// one trace) per request, all riding the session thread pool's
    /// limb-parallel hot paths.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend.
    pub fn shared_evaluator(&self) -> ArkResult<SoftwareEvaluator<'_>> {
        match &self.state {
            BackendState::Software(sw) => Ok(sw.shared_evaluator(&self.shape)),
            BackendState::Simulated(_) => Err(ArkError::UnsupportedOnBackend {
                op: "shared_evaluator",
                backend: "simulated",
            }),
        }
    }

    /// The session shape: parameter set, declared key surface,
    /// bootstrap configuration and runtime-key policy — everything the
    /// metadata front ([`crate::verify`]) resolves against, with no
    /// key material attached. `ark-serve` admission interprets every
    /// submitted program against this.
    pub fn verify_context(&self) -> &VerifyContext {
        &self.shape
    }

    /// Compiles (with every paper algorithm on,
    /// [`CompileOptions::all_on`]) and simulates an HE-op trace on the
    /// session's accelerator configuration.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the software backend.
    pub fn simulate_trace(&self, trace: &Trace) -> ArkResult<SimReport> {
        match &self.state {
            BackendState::Simulated(cfg) => Ok(ark_core::sched::run(
                trace,
                self.params(),
                cfg,
                CompileOptions::all_on(),
            )),
            BackendState::Software(_) => Err(ArkError::UnsupportedOnBackend {
                op: "simulate_trace",
                backend: "software",
            }),
        }
    }

    /// Runs a backend-agnostic program: encrypt-execute-decrypt on
    /// [`Backend::Software`], record-compile-simulate on
    /// [`Backend::Simulated`].
    pub fn execute<P: HeProgram>(
        &mut self,
        inputs: &[ProgramInput],
        program: &P,
    ) -> ArkResult<Outcome> {
        // one metadata pass first: a statically-invalid program fails
        // here with the typed error the software run would raise
        // mid-evaluation, and on the simulated backend its trace is
        // the run
        let mut eval = self.shape.evaluator();
        let cts = inputs
            .iter()
            .map(|i| eval.input(&i.values, i.level))
            .collect::<ArkResult<Vec<_>>>()?;
        let (verdict, trace) = eval.run(program, &cts);
        if let Some(finding) = verdict.finding {
            return Err(finding.error);
        }
        if let BackendState::Software(sw) = &mut self.state {
            let mut eval = sw.evaluator(&self.shape);
            let cts = inputs
                .iter()
                .map(|i| eval.input(&i.values, i.level))
                .collect::<ArkResult<Vec<_>>>()?;
            let outs = program.run(&mut eval, &cts)?;
            let trace = eval.into_trace();
            let outputs = outs
                .iter()
                .map(|ct| sw.ctx.decrypt_decode(ct, &sw.keys.sk))
                .collect();
            return Ok(Outcome::Software { outputs, trace });
        }
        let report = self.simulate_trace(&trace)?;
        Ok(Outcome::Simulated { report, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ckks::encoding::max_error;
    use ark_math::automorphism::GaloisElement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Affine;
    impl HeProgram for Affine {
        fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
            // 2x + 0.5 without key material
            let two = e.mul_const(&inputs[0], 2.0)?;
            let two = e.rescale(&two)?;
            Ok(vec![e.add_const(&two, 0.5)?])
        }
    }

    #[test]
    fn software_session_runs_program() {
        let mut engine = Engine::builder()
            .params(CkksParams::tiny())
            .backend(Backend::Software)
            .seed(7)
            .build()
            .unwrap();
        let slots = engine.params().slots();
        let x: Vec<C64> = (0..slots).map(|i| C64::new(0.1 * i as f64, 0.0)).collect();
        let outcome = engine
            .execute(&[ProgramInput::new(x.clone(), 2)], &Affine)
            .unwrap();
        let outputs = outcome.outputs().unwrap();
        let want: Vec<C64> = x
            .iter()
            .map(|&z| z.scale(2.0) + C64::new(0.5, 0.0))
            .collect();
        assert!(max_error(&want, &outputs[0]) < 1e-4);
        assert_eq!(outcome.trace().len(), 3); // CMult, HRescale, CAdd
    }

    #[test]
    fn simulated_session_reports_cycles() {
        let mut engine = Engine::builder()
            .params(CkksParams::ark())
            .backend(Backend::Simulated(ArkConfig::base()))
            .build()
            .unwrap();
        let outcome = engine
            .execute(&[ProgramInput::symbolic(10)], &Affine)
            .unwrap();
        let report = outcome.report().unwrap();
        assert!(report.cycles > 0);
        assert_eq!(outcome.trace().len(), 3);
    }

    #[test]
    fn backends_record_identical_traces() {
        let run = |backend| {
            let mut engine = Engine::builder()
                .params(CkksParams::tiny())
                .backend(backend)
                .build()
                .unwrap();
            let outcome = engine
                .execute(&[ProgramInput::symbolic(2)], &Affine)
                .unwrap();
            outcome.trace().ops().to_vec()
        };
        assert_eq!(
            run(Backend::Software),
            run(Backend::Simulated(ArkConfig::base()))
        );
    }

    /// Without `.seed()` a session seeds itself from the OS: two such
    /// sessions hold different keys (and so different seed streams),
    /// while one explicit seed still reproduces a session exactly.
    #[test]
    fn default_sessions_do_not_share_keys() {
        let public_key_frame = |builder: EngineBuilder| {
            let engine = builder.params(CkksParams::tiny()).build().unwrap();
            let ctx = engine.context().unwrap();
            let mut out = Vec::new();
            ark_ckks::wire::encode_compressed_public_key(
                &mut out,
                ctx,
                engine.keychain().unwrap().public_key(),
            );
            out
        };
        assert_ne!(
            public_key_frame(Engine::builder()),
            public_key_frame(Engine::builder())
        );
        assert_eq!(
            public_key_frame(Engine::builder().seed(0)),
            public_key_frame(Engine::builder().seed(0))
        );
    }

    #[test]
    fn builder_rejects_missing_and_inconsistent_params() {
        assert!(matches!(
            Engine::builder().build().unwrap_err(),
            ArkError::InvalidParams { .. }
        ));
        let bad = CkksParams {
            dnum: 3, // does not divide L+1 = 4
            ..CkksParams::tiny()
        };
        assert!(matches!(
            Engine::builder().params(bad).build().unwrap_err(),
            ArkError::InvalidParams { .. }
        ));
        let wide = CkksParams {
            q0_bits: 62, // beyond the NTT prime scan
            ..CkksParams::tiny()
        };
        assert!(matches!(
            Engine::builder().params(wide).build().unwrap_err(),
            ArkError::InvalidParams { .. }
        ));
    }

    #[test]
    fn simulated_backend_rejects_data_access() {
        let mut engine = Engine::builder()
            .params(CkksParams::ark())
            .backend(Backend::Simulated(ArkConfig::base()))
            .build()
            .unwrap();
        assert!(matches!(
            engine.encrypt(&[], 1).unwrap_err(),
            ArkError::UnsupportedOnBackend { .. }
        ));
        assert!(matches!(
            engine.evaluator().map(|_| ()).unwrap_err(),
            ArkError::UnsupportedOnBackend { .. }
        ));
    }

    #[test]
    fn keychain_generated_once_with_declared_keys() {
        let engine = Engine::builder()
            .params(CkksParams::tiny())
            .rotations(&[1, -2])
            .conjugation(true)
            .build()
            .unwrap();
        let kc = engine.keychain().unwrap();
        assert_eq!(kc.rotation_keys().len(), 3); // two rotations + conj
        assert!(kc.declared().has_rotation(1));
        assert!(kc.declared().has_conjugation());
        assert!(kc.evk_words() > 0);
    }

    #[test]
    fn declared_key_export_excludes_internal_transform_keys() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let declared = DeclaredKeys::declare(&[1], true, ctx.params().slots());
        let mut rng = StdRng::seed_from_u64(3);
        // keygen set exceeds the declared surface — the shape a
        // bootstrapping session has (internal transform keys)
        let kc = KeyChain::generate(&ctx, declared, &[1, 2, 4, 7], None, &mut rng);
        assert_eq!(kc.rotation_keys().len(), 5); // 4 rotations + conj
        let shipped = kc.declared_rotation_keys();
        // declared rotation + conj only, ascending, the resident keys
        let g1 = GaloisElement::from_rotation(1, ctx.params().n());
        let conj = GaloisElement::conjugation(ctx.params().n());
        let resident = |g| kc.rotation_keys().get(g).unwrap();
        assert_eq!(
            shipped,
            vec![(g1.0, resident(g1)), (conj.0, resident(conj))]
        );
    }
}
