//! `SpanEvaluator`: a decorator that records one span per evaluator
//! op, so a job's time splits by op class without any timer inside
//! the engine.

use crate::span::Recorder;
use ark_ckks::error::ArkResult;
use ark_ckks::params::CkksParams;
use ark_fhe::engine::{HeEvaluator, RotateSumTerm};
use ark_fhe::workloads::trace::Trace;
use ark_math::cfft::C64;

/// The op classes, as span names. The per-layer metrics
/// `<name>.count` and `<name>.ms` come from these.
pub const OP_CLASSES: [&str; 8] = [
    ELEMENTWISE,
    MUL_PLAIN,
    MUL_RESCALE,
    ROTATE,
    ROTATE_SUM,
    CONJUGATE,
    RESCALE,
    BOOTSTRAP,
];
/// add, sub, negate, add_const, mul_const, add_plain, mod_drop_to.
const ELEMENTWISE: &str = "engine.op.elementwise";
/// mul_plain and mul_plain_rescale.
const MUL_PLAIN: &str = "engine.op.mul_plain";
/// The HMult family: mul, square and the fused mul_rescale.
const MUL_RESCALE: &str = "engine.op.mul_rescale";
const ROTATE: &str = "engine.op.rotate";
const ROTATE_SUM: &str = "engine.op.rotate_sum";
const CONJUGATE: &str = "engine.op.conjugate";
const RESCALE: &str = "engine.op.rescale";
const BOOTSTRAP: &str = "engine.op.bootstrap";

pub struct SpanEvaluator<'r, E: HeEvaluator> {
    inner: E,
    rec: &'r mut Recorder,
}

impl<'r, E: HeEvaluator> SpanEvaluator<'r, E> {
    pub fn new(inner: E, rec: &'r mut Recorder) -> Self {
        Self { inner, rec }
    }

    fn timed<T>(&mut self, class: &'static str, f: impl FnOnce(&mut E) -> T) -> T {
        self.rec.open(class);
        let out = f(&mut self.inner);
        self.rec.close();
        out
    }
}

impl<E: HeEvaluator> HeEvaluator for SpanEvaluator<'_, E> {
    type Ct = E::Ct;

    fn params(&self) -> &CkksParams {
        self.inner.params()
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }

    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct> {
        self.inner.input(values, level)
    }

    fn level(&self, ct: &Self::Ct) -> usize {
        self.inner.level(ct)
    }

    fn scale(&self, ct: &Self::Ct) -> f64 {
        self.inner.scale(ct)
    }

    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(ELEMENTWISE, |e| e.add(a, b))
    }

    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(ELEMENTWISE, |e| e.sub(a, b))
    }

    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(ELEMENTWISE, |e| e.negate(ct))
    }

    fn add_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.timed(ELEMENTWISE, |e| e.add_const(ct, c))
    }

    fn mul_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.timed(ELEMENTWISE, |e| e.mul_const(ct, c))
    }

    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        self.timed(ELEMENTWISE, |e| e.add_plain(ct, values))
    }

    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        self.timed(MUL_PLAIN, |e| e.mul_plain(ct, values))
    }

    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(MUL_RESCALE, |e| e.mul(a, b))
    }

    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(MUL_RESCALE, |e| e.square(ct))
    }

    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct> {
        self.timed(ROTATE, |e| e.rotate(ct, amount))
    }

    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct> {
        self.timed(ROTATE_SUM, |e| e.rotate_sum(ct, terms))
    }

    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(CONJUGATE, |e| e.conjugate(ct))
    }

    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(RESCALE, |e| e.rescale(ct))
    }

    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct> {
        self.timed(ELEMENTWISE, |e| e.mod_drop_to(ct, level))
    }

    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(BOOTSTRAP, |e| e.bootstrap(ct))
    }

    // the fused forms go to the inner evaluator in one call: the
    // trait's defaults would split them into two spans and, on another
    // backend, into a different op sequence
    fn mul_rescale(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.timed(MUL_RESCALE, |e| e.mul_rescale(a, b))
    }

    fn mul_plain_rescale(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        self.timed(MUL_PLAIN, |e| e.mul_plain_rescale(ct, values))
    }
}
