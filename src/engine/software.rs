//! The software backend: real RNS-CKKS arithmetic behind the metadata
//! front.

use super::keys::KeyChain;
use super::{HeEvaluator, RotateSumTerm};
use crate::error::{ArkError, ArkResult};
use crate::verify::{new_trace, CtMeta, VerifyContext};
use ark_ckks::bootstrap::Bootstrapper;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::Ciphertext;
use ark_math::automorphism::GaloisElement;
use ark_math::cfft::C64;
use ark_workloads::trace::Trace;
use rand::rngs::StdRng;

#[derive(Debug)]
pub(super) struct SoftwareState {
    pub(super) ctx: CkksContext,
    pub(super) keys: KeyChain,
    pub(super) rng: StdRng,
    /// Present iff the session shape carries a bootstrap configuration.
    pub(super) boot: Option<Bootstrapper>,
}

/// [`HeEvaluator`] over real RNS-CKKS arithmetic. Every op first runs
/// the session shape's rule on the operands' `(level, scale)` — the
/// same call the metadata evaluator makes, so both reject a program
/// with the same typed error and record the same [`Trace`] — and only
/// then resolves keys from the session [`KeyChain`] and computes.
///
/// Two flavors exist: [`super::Engine::evaluator`] borrows the session
/// mutably and carries the session RNG, so [`HeEvaluator::input`] can
/// encrypt; [`super::Engine::shared_evaluator`] borrows it *immutably*
/// (no RNG), so any number can run concurrently over the same keys —
/// the shape `ark-serve` uses to evaluate a batch of client requests in
/// parallel on ciphertexts that were encrypted client-side.
pub struct SoftwareEvaluator<'a> {
    shape: &'a VerifyContext,
    ctx: &'a CkksContext,
    keys: &'a KeyChain,
    /// Encryption randomness; `None` for evaluation-only (shared)
    /// instances, whose `input` reports a typed error instead.
    rng: Option<&'a mut StdRng>,
    boot: Option<&'a Bootstrapper>,
    trace: Trace,
}

fn meta(ct: &Ciphertext) -> CtMeta {
    CtMeta {
        level: ct.level,
        scale: ct.scale,
    }
}

impl SoftwareState {
    /// An evaluator that can encrypt: it borrows the session RNG.
    pub(super) fn evaluator<'a>(&'a mut self, shape: &'a VerifyContext) -> SoftwareEvaluator<'a> {
        SoftwareEvaluator {
            shape,
            ctx: &self.ctx,
            keys: &self.keys,
            rng: Some(&mut self.rng),
            boot: self.boot.as_ref(),
            trace: new_trace(),
        }
    }

    /// An evaluation-only evaluator over a shared borrow.
    pub(super) fn shared_evaluator<'a>(
        &'a self,
        shape: &'a VerifyContext,
    ) -> SoftwareEvaluator<'a> {
        SoftwareEvaluator {
            shape,
            ctx: &self.ctx,
            keys: &self.keys,
            rng: None,
            boot: self.boot.as_ref(),
            trace: new_trace(),
        }
    }
}

impl SoftwareEvaluator<'_> {
    /// Consumes the evaluator, returning the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl HeEvaluator for SoftwareEvaluator<'_> {
    type Ct = Ciphertext;

    fn params(&self) -> &CkksParams {
        self.ctx.params()
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct> {
        let at = self.shape.input(values.len(), level, None)?;
        let pt = self.ctx.encode(values, at.level, at.scale);
        let rng = self.rng.as_deref_mut().ok_or(ArkError::KeyChainMissing {
            what: "encryption randomness (shared evaluators are evaluation-only; \
                   encrypt on the owning session or client-side)",
        })?;
        let a_seed = self.keys.next_ciphertext_seed();
        Ok(self.ctx.encrypt_seeded(&pt, &self.keys.sk, a_seed, rng))
    }

    fn level(&self, ct: &Self::Ct) -> usize {
        ct.level
    }

    fn scale(&self, ct: &Self::Ct) -> f64 {
        ct.scale
    }

    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.shape.add(&mut self.trace, meta(a), meta(b))?;
        self.ctx.add(a, b)
    }

    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.shape.sub(&mut self.trace, meta(a), meta(b))?;
        self.ctx.sub(a, b)
    }

    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.shape.negate(&mut self.trace, meta(ct))?;
        Ok(self.ctx.negate(ct))
    }

    fn add_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.shape.add_const(&mut self.trace, meta(ct), c)?;
        Ok(self.ctx.add_const(ct, c))
    }

    fn mul_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.shape.mul_const(&mut self.trace, meta(ct), c)?;
        Ok(self.ctx.mul_const(ct, c))
    }

    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        self.shape.add_plain(&mut self.trace, meta(ct), values)?;
        let pt = self.ctx.encode(values, ct.level, ct.scale);
        self.ctx.add_plain(ct, &pt)
    }

    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        self.shape.mul_plain(&mut self.trace, meta(ct), values)?;
        let pt = self.ctx.encode_for_mul(values, ct.level);
        Ok(self.ctx.mul_plain(ct, &pt))
    }

    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.shape.mul(&mut self.trace, meta(a), meta(b))?;
        Ok(self.ctx.mul(a, b, self.keys.mult_key()))
    }

    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.shape.square(&mut self.trace, meta(ct))?;
        Ok(self.ctx.square(ct, self.keys.mult_key()))
    }

    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct> {
        let reduced = self.shape.rotate(&mut self.trace, meta(ct), amount)?;
        if reduced == 0 {
            // identity rotation: keyless no-op
            return Ok(ct.clone());
        }
        let g = GaloisElement::from_rotation(reduced, self.ctx.params().n());
        let key = self.keys.galois_key(self.ctx, g);
        Ok(self.ctx.apply_galois(ct, g, &key))
    }

    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct> {
        let ctx = self.ctx;
        self.shape.rotate_sum(&mut self.trace, meta(ct), terms)?;
        // one digit decomposition and two ModDowns serve the whole sum
        let terms: Vec<(i64, &[C64])> = terms
            .iter()
            .map(|t| (t.amount, t.weights.as_slice()))
            .collect();
        ctx.rotate_sum(ct, &terms, |g| Some(self.keys.galois_key(ctx, g)))
    }

    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.shape.conjugate(&mut self.trace, meta(ct))?;
        let g = GaloisElement::conjugation(self.ctx.params().n());
        let key = self.keys.galois_key(self.ctx, g);
        Ok(self.ctx.apply_galois(ct, g, &key))
    }

    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.shape.rescale(&mut self.trace, meta(ct))?;
        self.ctx.rescale(ct)
    }

    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct> {
        self.shape.mod_drop_to(meta(ct), level)?;
        self.ctx.mod_drop_to(ct, level)
    }

    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let analytic = self.shape.bootstrap(&mut self.trace, meta(ct))?.level;
        let boot = self
            .boot
            .expect("a shape with a bootstrap configuration builds a Bootstrapper");
        let out = boot.bootstrap(
            self.ctx,
            ct,
            self.keys.mult_key(),
            self.keys.rotation_keys(),
        )?;
        // snap the result to the analytic post-bootstrap level so every
        // evaluator agrees on each level annotation after a bootstrap;
        // the functional pipeline may finish a level or two higher
        // (its Chebyshev depth can undercut the analytic estimate)
        if out.level < analytic {
            return Err(ArkError::InvalidParams {
                reason: format!(
                    "bootstrap finished at level {} below the analytic model's {}; \
                     lower BootstrapTraceConfig's estimate or the EvalMod depth",
                    out.level, analytic
                ),
            });
        }
        self.ctx.mod_drop_to(&out, analytic)
    }
}
