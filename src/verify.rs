//! The one `(level, scale)` interpreter: session shape, per-op transfer
//! function, and the static verifier built on it.
//!
//! The accelerator the paper models only pays off because every HE
//! program's depth, bootstrap placement and key surface are known
//! *before* execution. This module is where that knowledge lives, in
//! two layers:
//!
//! - **the front** — [`VerifyContext`] is the *session shape*
//!   (parameter set, declared key surface, runtime-key policy,
//!   bootstrap trace configuration; built once by
//!   [`crate::engine::EngineBuilder::build`] or key-free via
//!   [`VerifyContext::new`]) and carries one `pub(crate)` method per
//!   [`HeEvaluator`] op. Each method checks the operands' `(level,
//!   scale)`, pushes the op's [`HeOp`] records and returns the result's
//!   `(level, scale)`. It is the only place in the crate where a
//!   level/scale/slot/declared-key/encoding-range rule or a trace
//!   record is spelled; fused ops compose the unfused rules.
//! - **the evaluators on top of it** — [`AbstractEvaluator`] implements
//!   [`HeEvaluator`] with a metadata-only handle ([`AbstractCt`]): it
//!   calls the front and adds def-use bookkeeping, so it is at once the
//!   static verifier, the trace-recording backend
//!   ([`crate::engine::Backend::Simulated`]) and `ark-serve`'s
//!   admission pass. [`crate::engine::SoftwareEvaluator`] calls the same
//!   front method on `(ct.level, ct.scale)` before it touches a
//!   polynomial. A program therefore fails with the same typed
//!   [`ArkError`], and records the same [`Trace`], on every evaluator —
//!   by construction, not by a parity suite.
//!
//! One abstract pass yields a [`VerifyReport`] and the trace:
//!
//! - **acceptance or a typed rejection** (level or scale mismatch,
//!   chain exhaustion, missing rotation/conjugation key, bootstrap
//!   misuse, oversized plaintexts, constants that overflow the `i64`
//!   encoding domain at their scale);
//! - **def-use liveness**: per register the defining and last using
//!   event, and from those the peak live-set size in ciphertext-units
//!   ([`VerifyReport::peak_live_units`]) — the memory budget `ark-serve`
//!   charges sessions;
//! - **the key surface**: every normalized rotation amount (including
//!   those inside fused `rotate_sum` terms) and whether conjugation is
//!   used, as Galois elements;
//! - **bootstrap placement** vs. depth exhaustion, and the level/scale
//!   schedule for reporting ([`VerifyReport::schedule`]).
//!
//! Abstract scale is an f64 carrying the scheme scale `Δ =
//! 2^scale_bits`: `Δ` is a power of two, so multiplying and dividing by
//! it is *exact* in f64. The software backend's per-prime scales drift
//! from `Δ` by < 1% per prime (chain primes are chosen within 1% of
//! `Δ`), far inside the `1e-6`-relative `check_scales_match` tolerance
//! after the `mul_const`/`mul_plain` top-prime-encoding + rescale
//! cancellation, so accept/reject agreement holds between the abstract
//! and the software run of one program.

use crate::engine::{bootstrap_trace_config, DeclaredKeys, HeEvaluator, HeProgram, RotateSumTerm};
use crate::error::{ArkError, ArkResult};
use ark_ckks::bootstrap::BootstrapConfig;
use ark_ckks::encoding::ENCODE_LIMIT;
use ark_ckks::ops::{check_scales_match as check_scales, ROTATE_SUM_FIXED_UNITS};
use ark_ckks::params::CkksParams;
use ark_math::automorphism::GaloisElement;
use ark_math::cfft::C64;
use ark_workloads::bootstrap::{bootstrap_trace, post_bootstrap_level, BootstrapTraceConfig};
use ark_workloads::trace::{HeOp, KeyId, Trace};
use std::collections::BTreeSet;

/// A statically-known program input: its encryption level, and
/// optionally its scale (defaults to the scheme scale `Δ`, which is
/// what `input` produces on every evaluator; `ark-serve` admission
/// passes the decoded wire ciphertext's actual scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstractInput {
    /// Multiplicative level the input arrives at.
    pub level: usize,
    /// Scale the input carries; `None` means the scheme scale `Δ`.
    pub scale: Option<f64>,
}

impl AbstractInput {
    /// An input at `level` with the scheme scale.
    pub fn at_level(level: usize) -> Self {
        Self { level, scale: None }
    }

    /// An input at `level` with an explicit scale.
    pub fn with_scale(level: usize, scale: f64) -> Self {
        Self {
            level,
            scale: Some(scale),
        }
    }
}

// ---------------------------------------------------------------------
// the front: session shape + per-op (level, scale) transfer function
// ---------------------------------------------------------------------

/// The abstract state of one ciphertext — all the front reads or
/// produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CtMeta {
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

/// The session shape every evaluator resolves against: parameter set,
/// declared key surface, bootstrap trace configuration, and the
/// runtime-key policy. Build one key-free via [`VerifyContext::new`]
/// (the scenario `verify` CLI path) or borrow a live session's via
/// [`crate::engine::Engine::verify_context`].
#[derive(Debug, Clone)]
pub struct VerifyContext {
    params: CkksParams,
    /// The chain primes `q_0..q_L` as the scales `mul_const` and
    /// `mul_plain` encode their operand at.
    top_primes: Vec<f64>,
    declared: DeclaredKeys,
    trace_cfg: Option<BootstrapTraceConfig>,
    runtime_keys: bool,
}

impl VerifyContext {
    /// A key-free session shape. This is the validation
    /// [`crate::engine::EngineBuilder::build`] runs (dnum must divide
    /// `L+1`; chain primes must be 3 to 61 bits wide; a bootstrap
    /// configuration must fit the chain and refresh a power-of-two slot
    /// count in `[2, N/2]`), so a context that constructs here
    /// describes an engine that would build.
    ///
    /// # Errors
    ///
    /// [`ArkError::InvalidParams`] on an inconsistent parameter set or
    /// an over-deep or ill-sized bootstrap configuration.
    pub fn new(
        params: CkksParams,
        rotations: &[i64],
        conjugation: bool,
        bootstrapping: Option<&BootstrapConfig>,
        runtime_keys: bool,
    ) -> ArkResult<Self> {
        if params.dnum == 0 || !(params.max_level + 1).is_multiple_of(params.dnum) {
            return Err(ArkError::InvalidParams {
                reason: format!(
                    "dnum {} must divide L+1 = {}",
                    params.dnum,
                    params.max_level + 1
                ),
            });
        }
        if let Some(bits) = [params.q0_bits, params.scale_bits]
            .into_iter()
            .find(|bits| !(3..62).contains(bits))
        {
            return Err(ArkError::InvalidParams {
                reason: format!("{bits}-bit chain primes: widths must be 3 to 61 bits"),
            });
        }
        let top_primes = params.chain_primes().iter().map(|&q| q as f64).collect();
        let declared = DeclaredKeys::declare(
            rotations,
            conjugation || bootstrapping.is_some(),
            params.slots(),
        );
        let full_slots = params.slots();
        if let Some(n) = bootstrapping.and_then(|cfg| cfg.slots) {
            if !n.is_power_of_two() || !(2..=full_slots).contains(&n) {
                return Err(ArkError::InvalidParams {
                    reason: format!(
                        "bootstrap slot count {n} must be a power of two in [2, {full_slots}]"
                    ),
                });
            }
        }
        let trace_cfg = bootstrapping.map(|cfg| bootstrap_trace_config(&params, cfg));
        if let Some(cfg) = &trace_cfg {
            // the full-slot pipeline fixes the level every bootstrap
            // returns, so it must fit whatever the slot count
            let full = BootstrapTraceConfig {
                slots_log2: full_slots.trailing_zeros(),
                ..*cfg
            };
            if full.levels_consumed() > params.max_level {
                return Err(ArkError::InvalidParams {
                    reason: format!(
                        "bootstrapping consumes {} levels but the chain has only {}",
                        full.levels_consumed(),
                        params.max_level
                    ),
                });
            }
        }
        Ok(Self {
            params,
            top_primes,
            declared,
            trace_cfg,
            runtime_keys,
        })
    }

    /// The parameter set verification runs under.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The declared, user-visible key surface.
    pub(crate) fn declared(&self) -> &DeclaredKeys {
        &self.declared
    }

    /// A fresh abstract evaluator over this shape, for driving
    /// [`HeProgram::run`] by hand.
    pub fn evaluator(&self) -> AbstractEvaluator<'_> {
        AbstractEvaluator {
            shape: self,
            trace: new_trace(),
            n_inputs: 0,
            cts: Vec::new(),
            events: Vec::new(),
            rotations_used: BTreeSet::new(),
            conjugation_used: false,
            bootstraps: 0,
            min_level: self.params.max_level,
        }
    }

    /// Verifies `program` over inputs at the given levels/scales,
    /// returning the full report. Never touches key material; cost is
    /// proportional to the op count plus the plaintext operands' size.
    pub fn verify<P: HeProgram>(&self, inputs: &[AbstractInput], program: &P) -> VerifyReport {
        let mut eval = self.evaluator();
        let cts: ArkResult<Vec<_>> = inputs
            .iter()
            .map(|spec| eval.input_at(spec.level, spec.scale))
            .collect();
        match cts {
            Ok(cts) => eval.run(program, &cts).0,
            Err(e) => eval.report(Some(e), &[]),
        }
    }
}

/// The trace every evaluator of a session records into.
pub(crate) fn new_trace() -> Trace {
    Trace::new("engine-session")
}

fn check_levels(a: usize, b: usize) -> ArkResult<()> {
    if a == b {
        Ok(())
    } else {
        Err(ArkError::LevelMismatch {
            expected: a,
            found: b,
        })
    }
}

/// The slot-capacity rule of every op that encodes a plaintext vector.
fn check_slots(len: usize, slots: usize) -> ArkResult<()> {
    if len > slots {
        return Err(ArkError::InvalidParams {
            reason: format!("{len} values exceed {slots} slots"),
        });
    }
    Ok(())
}

fn encoding_overflow(what: &str, scale: f64) -> ArkError {
    ArkError::InvalidParams {
        reason: format!(
            "{what} overflows the plaintext domain at scale 2^{:.1}; rescale first or shrink it",
            scale.log2()
        ),
    }
}

/// The encoding-domain rule for a scalar: `c·scale` must round into an
/// `i64`. A NaN product compares false, so it is rejected too.
fn check_const_fits(c: f64, scale: f64) -> ArkResult<()> {
    if c.abs() * scale < ENCODE_LIMIT {
        Ok(())
    } else {
        Err(encoding_overflow("constant", scale))
    }
}

/// The encoding-domain rule for a slot vector. Every encoded
/// coefficient is an average of the slot values times unit-modulus
/// twiddles, so `max|z|·scale` bounds them all — up to the inverse
/// FFT's rounding, which the `1e-9` relative margin absorbs. The
/// padding slots encode zero, which must fit as well — it does not
/// once the scale itself has overflowed to infinity.
fn check_plain_fits(values: &[C64], scale: f64) -> ArkResult<()> {
    let bound = ENCODE_LIMIT * (1.0 - 1e-9) / scale;
    let padding = std::iter::once(0.0);
    let mut norms = padding.chain(values.iter().map(|z| z.re * z.re + z.im * z.im));
    if norms.all(|norm| norm < bound * bound) {
        Ok(())
    } else {
        Err(encoding_overflow("plaintext vector", scale))
    }
}

/// The per-op rules. Each takes the trace to record into and the
/// operands' abstract state, and returns the result's; an `Err` leaves
/// whatever the op recorded before failing in the trace, which is what
/// an aborted run executed.
impl VerifyContext {
    /// A fresh input of `n_values` slot values at `level` (and `scale`,
    /// defaulting to `Δ`).
    pub(crate) fn input(
        &self,
        n_values: usize,
        level: usize,
        scale: Option<f64>,
    ) -> ArkResult<CtMeta> {
        let max = self.params.max_level;
        if level > max {
            return Err(ArkError::LevelOutOfRange { level, max });
        }
        check_slots(n_values, self.params.slots())?;
        Ok(CtMeta {
            level,
            scale: scale.unwrap_or_else(|| self.params.scale()),
        })
    }

    pub(crate) fn add(&self, t: &mut Trace, a: CtMeta, b: CtMeta) -> ArkResult<CtMeta> {
        check_levels(a.level, b.level)?;
        check_scales(a.scale, b.scale)?;
        t.push(HeOp::HAdd { level: a.level });
        Ok(a)
    }

    /// The trace IR costs `HSub` as `HAdd` (identical element-wise work).
    pub(crate) fn sub(&self, t: &mut Trace, a: CtMeta, b: CtMeta) -> ArkResult<CtMeta> {
        self.add(t, a, b)
    }

    pub(crate) fn negate(&self, t: &mut Trace, ct: CtMeta) -> ArkResult<CtMeta> {
        t.push(HeOp::CMult { level: ct.level });
        Ok(ct)
    }

    /// The constant is encoded at the ciphertext's own scale.
    pub(crate) fn add_const(&self, t: &mut Trace, ct: CtMeta, c: f64) -> ArkResult<CtMeta> {
        check_const_fits(c, ct.scale)?;
        t.push(HeOp::CAdd { level: ct.level });
        Ok(ct)
    }

    /// Result scale of a top-prime-encoded multiplicand (`q_top ≈ Δ`).
    fn times_top_prime(&self, ct: CtMeta) -> CtMeta {
        CtMeta {
            level: ct.level,
            scale: ct.scale * self.params.scale(),
        }
    }

    pub(crate) fn mul_const(&self, t: &mut Trace, ct: CtMeta, c: f64) -> ArkResult<CtMeta> {
        check_const_fits(c, self.top_primes[ct.level])?;
        t.push(HeOp::CMult { level: ct.level });
        Ok(self.times_top_prime(ct))
    }

    pub(crate) fn add_plain(&self, t: &mut Trace, ct: CtMeta, v: &[C64]) -> ArkResult<CtMeta> {
        check_slots(v.len(), self.params.slots())?;
        check_plain_fits(v, ct.scale)?;
        t.push(HeOp::PAdd {
            level: ct.level,
            fresh_plaintext: true,
        });
        Ok(ct)
    }

    pub(crate) fn mul_plain(&self, t: &mut Trace, ct: CtMeta, v: &[C64]) -> ArkResult<CtMeta> {
        check_slots(v.len(), self.params.slots())?;
        check_plain_fits(v, self.top_primes[ct.level])?;
        t.push(HeOp::PMult {
            level: ct.level,
            fresh_plaintext: true,
        });
        Ok(self.times_top_prime(ct))
    }

    pub(crate) fn mul(&self, t: &mut Trace, a: CtMeta, b: CtMeta) -> ArkResult<CtMeta> {
        check_levels(a.level, b.level)?;
        t.push(HeOp::HMult { level: a.level });
        Ok(CtMeta {
            level: a.level,
            scale: a.scale * b.scale,
        })
    }

    pub(crate) fn square(&self, t: &mut Trace, ct: CtMeta) -> ArkResult<CtMeta> {
        self.mul(t, ct, ct)
    }

    /// True if a key for this normalized non-identity rotation is
    /// declared or runtime-derivable.
    fn rotation_available(&self, reduced: i64) -> bool {
        self.runtime_keys || self.declared.has_rotation(reduced)
    }

    /// Returns the amount normalized through the single choke point
    /// ([`GaloisElement::normalize_rotation`]), so `r` and `r − n_slots`
    /// are the same rotation everywhere (key lookup, runtime
    /// derivation, trace). `0` is the keyless identity: nothing is
    /// recorded and the result is the operand. Rotations resolve
    /// against the *declared* set, not the key material — bootstrapping
    /// holds internal transform keys a program may not use.
    pub(crate) fn rotate(&self, t: &mut Trace, ct: CtMeta, amount: i64) -> ArkResult<i64> {
        let reduced = GaloisElement::normalize_rotation(amount, self.params.slots());
        if reduced != 0 {
            if !self.rotation_available(reduced) {
                return Err(ArkError::MissingRotationKey { amount });
            }
            t.push(HeOp::HRot {
                level: ct.level,
                amount: reduced,
                key: KeyId::Rot(reduced),
            });
        }
        Ok(reduced)
    }

    /// The hoisted rotation group over the distinct non-identity
    /// normalized amounts, ascending (digits paid by the first member),
    /// then the `mul_plain`/`add` multiply-accumulate chain over the
    /// terms. Besides the result state, returns those distinct amounts
    /// — the rotations the software backend evaluates.
    pub(crate) fn rotate_sum(
        &self,
        t: &mut Trace,
        ct: CtMeta,
        terms: &[RotateSumTerm],
    ) -> ArkResult<(CtMeta, Vec<i64>)> {
        let slots = self.params.slots();
        let mut distinct = BTreeSet::new();
        for term in terms {
            let reduced = GaloisElement::normalize_rotation(term.amount, slots);
            if reduced != 0 {
                if !self.rotation_available(reduced) {
                    return Err(ArkError::MissingRotationKey {
                        amount: term.amount,
                    });
                }
                distinct.insert(reduced);
            }
        }
        let distinct: Vec<i64> = distinct.into_iter().collect();
        for (i, &r) in distinct.iter().enumerate() {
            t.push(HeOp::HRotHoisted {
                level: ct.level,
                amount: r,
                key: KeyId::Rot(r),
                fresh_digits: i == 0,
            });
        }
        let mut acc: Option<CtMeta> = None;
        for term in terms {
            let product = self.mul_plain(t, ct, &term.weights)?;
            acc = Some(match acc {
                None => product,
                Some(sum) => self.add(t, sum, product)?,
            });
        }
        let sum = acc.ok_or_else(|| ArkError::InvalidParams {
            reason: "rotate_sum needs at least one term".into(),
        })?;
        Ok((sum, distinct))
    }

    pub(crate) fn conjugate(&self, t: &mut Trace, ct: CtMeta) -> ArkResult<CtMeta> {
        if !self.runtime_keys && !self.declared.has_conjugation() {
            return Err(ArkError::MissingConjugationKey);
        }
        t.push(HeOp::HConj { level: ct.level });
        Ok(ct)
    }

    pub(crate) fn rescale(&self, t: &mut Trace, ct: CtMeta) -> ArkResult<CtMeta> {
        if ct.level == 0 {
            return Err(ArkError::ModulusChainExhausted);
        }
        t.push(HeOp::HRescale { level: ct.level });
        Ok(CtMeta {
            level: ct.level - 1,
            scale: ct.scale / self.params.scale(),
        })
    }

    /// Limb dropping is pure bookkeeping — no trace op.
    pub(crate) fn mod_drop_to(&self, ct: CtMeta, level: usize) -> ArkResult<CtMeta> {
        if level > ct.level {
            return Err(ArkError::LevelMismatch {
                expected: ct.level,
                found: level,
            });
        }
        Ok(CtMeta {
            level,
            scale: ct.scale,
        })
    }

    /// Records the analytic bootstrap sub-trace and lands on the
    /// analytic post-bootstrap level at scale `Δ`.
    pub(crate) fn bootstrap(&self, t: &mut Trace, ct: CtMeta) -> ArkResult<CtMeta> {
        let cfg = self.trace_cfg.ok_or(ArkError::KeyChainMissing {
            what: "bootstrapping keys (build the engine with EngineBuilder::bootstrapping)",
        })?;
        check_levels(0, ct.level)?;
        t.extend(&bootstrap_trace(&self.params, &cfg));
        Ok(CtMeta {
            level: post_bootstrap_level(&self.params, &cfg),
            scale: self.params.scale(),
        })
    }

    pub(crate) fn mul_rescale(&self, t: &mut Trace, a: CtMeta, b: CtMeta) -> ArkResult<CtMeta> {
        let product = self.mul(t, a, b)?;
        self.rescale(t, product)
    }

    pub(crate) fn mul_plain_rescale(
        &self,
        t: &mut Trace,
        ct: CtMeta,
        v: &[C64],
    ) -> ArkResult<CtMeta> {
        let product = self.mul_plain(t, ct, v)?;
        self.rescale(t, product)
    }
}

// ---------------------------------------------------------------------
// the metadata evaluator: the front + def-use liveness
// ---------------------------------------------------------------------

/// Metadata-only ciphertext handle of the abstract interpreter: a
/// register id plus the `(level, scale)` abstract state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstractCt {
    id: usize,
    meta: CtMeta,
}

impl AbstractCt {
    /// Multiplicative level of the abstract register.
    pub fn level(&self) -> usize {
        self.meta.level
    }

    /// Scale of the abstract register.
    pub fn scale(&self) -> f64 {
        self.meta.scale
    }
}

/// Per-register def-use record backing the liveness computation.
#[derive(Debug, Clone, Copy)]
struct CtRecord {
    /// Defining event; `None` for program inputs (live from event 0).
    def: Option<usize>,
    /// Last event that read the register; `None` if never read.
    last_use: Option<usize>,
}

/// One interpreted op event (one evaluator call).
#[derive(Debug, Clone, Copy)]
struct EventRec {
    op: &'static str,
    level: usize,
    /// Extra ciphertext-units alive only during this event (hoisted
    /// digits, `R_PQ` accumulators, unrescaled products).
    transient: usize,
}

/// Where a program failed static verification: the op index (events
/// successfully interpreted before it) and the typed error every
/// evaluator raises at the same point.
#[derive(Debug, Clone)]
pub struct VerifyFinding {
    /// Index of the failing op in interpretation order (equals the
    /// number of ops that verified before it; `0` also covers
    /// input-stage rejections).
    pub op_index: usize,
    /// The error, one-for-one the runtime [`ArkError`].
    pub error: ArkError,
}

impl std::fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: {}", self.op_index, self.error)
    }
}

/// One row of the level/liveness schedule: the abstract state right at
/// an interpreted op.
#[derive(Debug, Clone)]
pub struct ScheduleRow {
    /// Op index in interpretation order.
    pub index: usize,
    /// Op mnemonic.
    pub op: &'static str,
    /// Level the op executes at.
    pub level: usize,
    /// Ciphertext-units live across this event (inputs + live
    /// registers + transients).
    pub live_units: usize,
}

/// What static verification learned about a program. `finding` is
/// `None` iff every op verified; the remaining fields describe the
/// prefix that verified (the whole program on acceptance).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// `None` = accepted; otherwise where and why the program fails.
    pub finding: Option<VerifyFinding>,
    /// Evaluator calls interpreted (one per program op).
    pub ops: usize,
    /// Abstract registers created (inputs + op results).
    pub registers: usize,
    /// Program inputs.
    pub n_inputs: usize,
    /// Peak concurrently-live ciphertext-units: borrowed inputs + live
    /// registers + per-op transients, maximized over every event. The
    /// liveness-exact session-memory budget (multiply by the largest
    /// input's byte length for bytes).
    pub peak_live_units: usize,
    /// Event index where the peak occurs (`ops` = the output epilogue).
    pub peak_event: usize,
    /// Ciphertext-equivalents of one hoisted digit decomposition under
    /// this parameter set ([`CkksParams::digit_units`]).
    pub digit_units: usize,
    /// Normalized rotation amounts the program uses (including inside
    /// `rotate_sum` terms), ascending.
    pub rotations: Vec<i64>,
    /// Galois elements of the used key surface (rotations, then the
    /// conjugation element if used).
    pub galois_elements: Vec<u64>,
    /// Whether the program conjugates.
    pub conjugation: bool,
    /// Bootstraps the program performs.
    pub bootstraps: usize,
    /// Lowest level any register reaches (depth margin: `0` means the
    /// chain is fully consumed somewhere).
    pub min_level: usize,
    /// Levels of the program outputs, in output order.
    pub output_levels: Vec<usize>,
    /// Scales of the program outputs, in output order.
    pub output_scales: Vec<f64>,
    /// Recorded trace length (bootstraps expand to their analytic
    /// sub-trace).
    pub trace_len: usize,
    /// Per-op level/liveness rows, in interpretation order.
    pub schedule: Vec<ScheduleRow>,
}

impl VerifyReport {
    /// True if the program verified end to end.
    pub fn is_ok(&self) -> bool {
        self.finding.is_none()
    }

    /// The rejection error, if any.
    pub fn error(&self) -> Option<&ArkError> {
        self.finding.as_ref().map(|f| &f.error)
    }
}

/// [`HeEvaluator`] over the abstract `(level, scale)` domain: every
/// check and trace record comes from the front ([`VerifyContext`]'s
/// per-op methods); this type adds a register id per result and the
/// def-use events liveness is computed from. No keys, no polynomial
/// data, no randomness — it is the static verifier and the
/// trace-recording backend in one.
pub struct AbstractEvaluator<'a> {
    shape: &'a VerifyContext,
    trace: Trace,
    n_inputs: usize,
    cts: Vec<CtRecord>,
    events: Vec<EventRec>,
    rotations_used: BTreeSet<i64>,
    conjugation_used: bool,
    bootstraps: usize,
    min_level: usize,
}

impl AbstractEvaluator<'_> {
    /// Creates an abstract input register at `level` (and `scale`,
    /// defaulting to `Δ`) — the admission-side mirror of
    /// [`HeEvaluator::input`], taking the decoded wire ciphertext's
    /// metadata instead of slot values.
    ///
    /// # Errors
    ///
    /// [`ArkError::LevelOutOfRange`] beyond the chain.
    pub fn input_at(&mut self, level: usize, scale: Option<f64>) -> ArkResult<AbstractCt> {
        let meta = self.shape.input(0, level, scale)?;
        Ok(self.define_input(meta))
    }

    fn define_input(&mut self, meta: CtMeta) -> AbstractCt {
        self.n_inputs += 1;
        let id = self.cts.len();
        self.cts.push(CtRecord {
            def: None,
            last_use: None,
        });
        self.min_level = self.min_level.min(meta.level);
        AbstractCt { id, meta }
    }

    /// Closes one op event: marks `operands` read by it, charges its
    /// `transient` units, and defines the result register. The event
    /// executes at the first operand's level.
    fn emit(
        &mut self,
        op: &'static str,
        operands: &[&AbstractCt],
        transient: usize,
        meta: CtMeta,
    ) -> AbstractCt {
        let event = self.events.len();
        for ct in operands {
            self.cts[ct.id].last_use = Some(event);
        }
        let id = self.cts.len();
        self.cts.push(CtRecord {
            def: Some(event),
            last_use: None,
        });
        self.events.push(EventRec {
            op,
            level: operands[0].meta.level,
            transient,
        });
        self.min_level = self.min_level.min(meta.level);
        AbstractCt { id, meta }
    }

    /// Interprets `program` over `inputs` (registers this evaluator
    /// defined) to the end or its first error: the one pass that
    /// yields the verdict, the liveness budget and the recorded trace.
    pub fn run<P: HeProgram>(
        mut self,
        program: &P,
        inputs: &[AbstractCt],
    ) -> (VerifyReport, Trace) {
        let report = match program.run(&mut self, inputs) {
            Ok(outputs) => self.report(None, &outputs),
            Err(e) => self.report(Some(e), &[]),
        };
        (report, self.trace)
    }

    /// Builds the report: acceptance with `outputs` (which stay live
    /// through the output epilogue, where each is additionally cloned
    /// once for the caller), or the rejection `error` raised by the op
    /// after the last interpreted event.
    fn report(&mut self, error: Option<ArkError>, outputs: &[AbstractCt]) -> VerifyReport {
        let end = self.events.len();
        for o in outputs {
            self.cts[o.id].last_use = Some(end);
        }
        // sweep the def-use intervals into per-event live counts
        let mut delta = vec![0i64; end + 2];
        for r in &self.cts {
            let (start, stop) = match (r.def, r.last_use) {
                // an input never read (and not an output) is released
                // before the first op, costing nothing beyond the
                // borrowed-inputs term
                (None, None) => continue,
                (None, Some(lu)) => (0, lu),
                // an op result never read again dies right after its
                // defining event
                (Some(d), lu) => (d, lu.unwrap_or(d)),
            };
            delta[start] += 1;
            delta[stop + 1] -= 1;
        }
        let mut live = 0i64;
        let mut peak = self.n_inputs;
        let mut peak_event = 0;
        let mut schedule = Vec::with_capacity(end);
        for (e, ev) in self.events.iter().enumerate() {
            live += delta[e];
            let units = self.n_inputs + live as usize + ev.transient;
            if units > peak {
                peak = units;
                peak_event = e;
            }
            schedule.push(ScheduleRow {
                index: e,
                op: ev.op,
                level: ev.level,
                live_units: units,
            });
        }
        // output epilogue: surviving registers plus one clone per
        // declared output (outputs may repeat a register)
        live += delta[end];
        let epilogue = self.n_inputs + live as usize + outputs.len();
        if epilogue > peak {
            peak = epilogue;
            peak_event = end;
        }
        let n = self.shape.params.n();
        let mut galois: Vec<u64> = self
            .rotations_used
            .iter()
            .map(|&r| GaloisElement::from_rotation(r, n).0)
            .collect();
        if self.conjugation_used {
            galois.push(GaloisElement::conjugation(n).0);
        }
        VerifyReport {
            finding: error.map(|error| VerifyFinding {
                op_index: end,
                error,
            }),
            ops: end,
            registers: self.cts.len(),
            n_inputs: self.n_inputs,
            peak_live_units: peak,
            peak_event,
            digit_units: self.shape.params.digit_units(),
            rotations: self.rotations_used.iter().copied().collect(),
            galois_elements: galois,
            conjugation: self.conjugation_used,
            bootstraps: self.bootstraps,
            min_level: self.min_level,
            output_levels: outputs.iter().map(|o| o.meta.level).collect(),
            output_scales: outputs.iter().map(|o| o.meta.scale).collect(),
            trace_len: self.trace.len(),
            schedule,
        }
    }
}

impl HeEvaluator for AbstractEvaluator<'_> {
    type Ct = AbstractCt;

    fn params(&self) -> &CkksParams {
        &self.shape.params
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct> {
        let meta = self.shape.input(values.len(), level, None)?;
        Ok(self.define_input(meta))
    }

    fn level(&self, ct: &Self::Ct) -> usize {
        ct.meta.level
    }

    fn scale(&self, ct: &Self::Ct) -> f64 {
        ct.meta.scale
    }

    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.add(&mut self.trace, a.meta, b.meta)?;
        Ok(self.emit("add", &[a, b], 0, meta))
    }

    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.sub(&mut self.trace, a.meta, b.meta)?;
        Ok(self.emit("sub", &[a, b], 0, meta))
    }

    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.negate(&mut self.trace, ct.meta)?;
        Ok(self.emit("negate", &[ct], 0, meta))
    }

    fn add_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        let meta = self.shape.add_const(&mut self.trace, ct.meta, c)?;
        Ok(self.emit("add_const", &[ct], 0, meta))
    }

    fn mul_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        let meta = self.shape.mul_const(&mut self.trace, ct.meta, c)?;
        Ok(self.emit("mul_const", &[ct], 0, meta))
    }

    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        let meta = self.shape.add_plain(&mut self.trace, ct.meta, values)?;
        Ok(self.emit("add_plain", &[ct], 0, meta))
    }

    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        let meta = self.shape.mul_plain(&mut self.trace, ct.meta, values)?;
        Ok(self.emit("mul_plain", &[ct], 0, meta))
    }

    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.mul(&mut self.trace, a.meta, b.meta)?;
        Ok(self.emit("mul", &[a, b], 0, meta))
    }

    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.square(&mut self.trace, ct.meta)?;
        Ok(self.emit("square", &[ct], 0, meta))
    }

    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct> {
        let reduced = self.shape.rotate(&mut self.trace, ct.meta, amount)?;
        if reduced == 0 {
            // keyless identity — but the runtime still materializes a
            // new register (it clones), so it costs a definition
            return Ok(self.emit("rotate(id)", &[ct], 0, ct.meta));
        }
        self.rotations_used.insert(reduced);
        Ok(self.emit("rotate", &[ct], 0, ct.meta))
    }

    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct> {
        let (meta, distinct) = self.shape.rotate_sum(&mut self.trace, ct.meta, terms)?;
        self.rotations_used.extend(distinct);
        // transient working set: the hoisted digit spine plus the fused
        // sum's fixed accumulators — independent of the term count,
        // because rotations are consumed as they are produced
        let transient = self.shape.params.digit_units() + ROTATE_SUM_FIXED_UNITS;
        Ok(self.emit("rotate_sum", &[ct], transient, meta))
    }

    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.conjugate(&mut self.trace, ct.meta)?;
        self.conjugation_used = true;
        Ok(self.emit("conjugate", &[ct], 0, meta))
    }

    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.rescale(&mut self.trace, ct.meta)?;
        Ok(self.emit("rescale", &[ct], 0, meta))
    }

    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct> {
        let meta = self.shape.mod_drop_to(ct.meta, level)?;
        Ok(self.emit("mod_drop", &[ct], 0, meta))
    }

    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.bootstrap(&mut self.trace, ct.meta)?;
        self.bootstraps += 1;
        Ok(self.emit("bootstrap", &[ct], 0, meta))
    }

    // one event per fused op (the unrescaled product is its transient),
    // mirroring `Program::apply`'s one-register cost model
    fn mul_rescale(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        let meta = self.shape.mul_rescale(&mut self.trace, a.meta, b.meta)?;
        Ok(self.emit("mul_rescale", &[a, b], 1, meta))
    }

    fn mul_plain_rescale(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        let meta = self
            .shape
            .mul_plain_rescale(&mut self.trace, ct.meta, values)?;
        Ok(self.emit("mul_plain_rescale", &[ct], 1, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, Engine, ProgramInput};

    struct Chain(usize);
    impl HeProgram for Chain {
        fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
            let mut ct = inputs[0].clone();
            for _ in 0..self.0 {
                ct = e.add_const(&ct, 1.0)?;
            }
            Ok(vec![ct])
        }
    }

    fn tiny_ctx() -> VerifyContext {
        VerifyContext::new(CkksParams::tiny(), &[1], false, None, false).unwrap()
    }

    #[test]
    fn straight_line_peak_is_constant_in_length() {
        let ctx = tiny_ctx();
        let short = ctx.verify(&[AbstractInput::at_level(2)], &Chain(3));
        let long = ctx.verify(&[AbstractInput::at_level(2)], &Chain(500));
        assert!(short.is_ok() && long.is_ok());
        assert_eq!(long.ops, 500);
        // 1 borrowed input + the operand register + the result register
        assert_eq!(short.peak_live_units, 3);
        assert_eq!(long.peak_live_units, short.peak_live_units);
    }

    #[test]
    fn rejections_carry_runtime_error_classes() {
        struct Underflow;
        impl HeProgram for Underflow {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let mut ct = i[0].clone();
                loop {
                    ct = e.rescale(&ct)?; // drives the level below 0
                }
            }
        }
        struct ScaleMix;
        impl HeProgram for ScaleMix {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let big = e.mul_const(&i[0], 2.0)?; // scale Δ²
                Ok(vec![e.add(&big, &i[0])?]) // Δ² vs Δ
            }
        }
        struct BadRot;
        impl HeProgram for BadRot {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                Ok(vec![e.rotate(&i[0], 5)?]) // only rotation 1 declared
            }
        }
        let ctx = tiny_ctx();
        let ins = [AbstractInput::at_level(2)];
        assert!(matches!(
            ctx.verify(&ins, &Underflow).error(),
            Some(ArkError::ModulusChainExhausted)
        ));
        let r = ctx.verify(&ins, &Underflow);
        assert_eq!(r.finding.unwrap().op_index, 2); // two rescales verified
        assert!(matches!(
            ctx.verify(&ins, &ScaleMix).error(),
            Some(ArkError::ScaleMismatch { .. })
        ));
        assert!(matches!(
            ctx.verify(&ins, &BadRot).error(),
            Some(ArkError::MissingRotationKey { amount: 5 })
        ));

        // constants that overflow the i64 encoding domain: one typed
        // error from the verifier, the metadata evaluator and the
        // software evaluator, never the ark-ckks assert
        struct AddConstAtDeltaSquared;
        impl HeProgram for AddConstAtDeltaSquared {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let sq = e.mul(&i[0], &i[0])?; // scale Δ² = 2^72
                Ok(vec![e.add_const(&sq, 1.0)?])
            }
        }
        struct HugeMulConst;
        impl HeProgram for HugeMulConst {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                Ok(vec![e.mul_const(&i[0], 1e9)?])
            }
        }
        fn overflows<P: HeProgram>(ctx: &VerifyContext, p: &P, ops_before: usize) {
            let report = ctx.verify(&[AbstractInput::at_level(2)], p);
            let finding = report.finding.expect("verifier must reject");
            assert_eq!(finding.op_index, ops_before);
            assert!(finding.error.to_string().contains("overflows"));

            let mut eval = ctx.evaluator();
            let x = eval.input_at(2, None).unwrap();
            assert_eq!(p.run(&mut eval, &[x]).unwrap_err(), finding.error);

            let mut engine = Engine::builder()
                .params(CkksParams::tiny())
                .build()
                .unwrap();
            let mut eval = engine.evaluator().unwrap();
            let x = eval.input(&[C64::new(0.5, 0.0)], 2).unwrap();
            assert_eq!(p.run(&mut eval, &[x]).unwrap_err(), finding.error);
        }
        overflows(&ctx, &AddConstAtDeltaSquared, 1);
        overflows(&ctx, &HugeMulConst, 0);

        // the top-prime bound is the library's own, not a coarser one:
        // at every level the largest constant ark-ckks takes is admitted
        // (and really multiplies), the next one up is not
        let mut engine = Engine::builder()
            .params(CkksParams::tiny())
            .build()
            .unwrap();
        let mut eval = engine.evaluator().unwrap();
        for (level, &q) in CkksParams::tiny().chain_primes().iter().enumerate() {
            let edge = ENCODE_LIMIT / q as f64;
            let x = eval.input(&[C64::new(0.5, 0.0)], level).unwrap();
            assert!(eval.mul_const(&x, edge * (1.0 - 1e-12)).is_ok());
            assert!(eval.mul_const(&x, edge * (1.0 + 1e-12)).is_err());
        }
    }

    #[test]
    fn key_surface_and_schedule_are_reported() {
        struct RotAndConj;
        impl HeProgram for RotAndConj {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let r = e.rotate(&i[0], 1)?;
                let c = e.conjugate(&r)?;
                let m = e.mul_rescale(&c, &i[0])?;
                Ok(vec![m])
            }
        }
        let ctx = VerifyContext::new(CkksParams::tiny(), &[1], true, None, false).unwrap();
        let report = ctx.verify(&[AbstractInput::at_level(2)], &RotAndConj);
        assert!(report.is_ok(), "{:?}", report.finding);
        assert_eq!(report.rotations, vec![1]);
        assert!(report.conjugation);
        assert_eq!(report.galois_elements.len(), 2);
        assert_eq!(report.ops, 3);
        assert_eq!(report.schedule.len(), 3);
        assert_eq!(report.output_levels, vec![1]);
        assert_eq!(report.min_level, 1);
    }

    #[test]
    fn abstract_scale_matches_trace_backend_exactly() {
        struct Mix;
        impl HeProgram for Mix {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let p = e.mul_const(&i[0], 3.0)?;
                let p = e.rescale(&p)?;
                let q = e.mul_rescale(&p, &p)?;
                Ok(vec![q])
            }
        }
        let build = |backend| {
            Engine::builder()
                .params(CkksParams::tiny())
                .backend(backend)
                .build()
                .unwrap()
        };
        let mut sim = build(Backend::Simulated(crate::arch::ArkConfig::base()));
        let simulated = sim.execute(&[ProgramInput::symbolic(2)], &Mix).unwrap();
        // the software evaluator driven directly, so the records are
        // its own front calls and not the execute pre-flight's
        let mut sw = build(Backend::Software);
        let mut eval = sw.evaluator().unwrap();
        let x = eval.input(&[C64::new(0.5, 0.0)], 2).unwrap();
        Mix.run(&mut eval, &[x]).unwrap();
        let software = eval.into_trace();

        let mut eval = sim.verify_context().evaluator();
        let x = eval.input_at(2, None).unwrap();
        let (report, metadata) = eval.run(&Mix, &[x]);
        assert!(report.is_ok());
        // one trace, op for op, on every evaluator
        assert_eq!(metadata.ops(), simulated.trace().ops());
        assert_eq!(metadata.ops(), software.ops());
        assert_eq!(report.trace_len, metadata.len());
        let delta = CkksParams::tiny().scale();
        assert_eq!(report.output_scales, vec![delta]);
        assert_eq!(report.output_levels, vec![0]);
    }

    #[test]
    fn engine_preflight_rejects_before_running() {
        struct BadRot;
        impl HeProgram for BadRot {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                Ok(vec![e.rotate(&i[0], 3)?])
            }
        }
        let mut engine = Engine::builder()
            .params(CkksParams::tiny())
            .build()
            .unwrap();
        let slots = engine.params().slots();
        let x = vec![C64::new(1.0, 0.0); slots];
        let err = engine
            .execute(&[ProgramInput::new(x, 2)], &BadRot)
            .unwrap_err();
        assert!(matches!(err, ArkError::MissingRotationKey { amount: 3 }));
    }

    #[test]
    fn unused_inputs_and_dead_results_cost_nothing_beyond_definition() {
        struct DeadCode;
        impl HeProgram for DeadCode {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let _dead = e.add_const(&i[0], 1.0)?; // result never read
                Ok(vec![e.add_const(&i[0], 2.0)?])
            }
        }
        // 3 inputs, two of them never read
        let ctx = tiny_ctx();
        let ins = [AbstractInput::at_level(2); 3];
        let report = ctx.verify(&ins, &DeadCode);
        assert!(report.is_ok());
        // 3 borrowed inputs + input register + result register
        assert_eq!(report.peak_live_units, 5);
    }
}
