//! Thread-count invariance of the engine: `threads(n)` is a pure
//! throughput knob. Software sessions built with any width must produce
//! bit-identical ciphertexts, identical decrypted outputs, and identical
//! recorded op traces; the trace backend must be byte-for-byte
//! indifferent to the setting.
//!
//! These tests check the plumbing, not the fan-out: `CkksParams::tiny()`
//! operands sit far below the default dispatch floor, so every width
//! runs its limb loops on the caller here. The tests that force
//! dispatch (floor 0) are `crates/math/tests/flat_equivalence.rs`,
//! `crates/math/tests/properties.rs` and, at the scheme layer,
//! `crates/ckks/tests/{par_equivalence,hoisting_equivalence,rotate_sum}.rs`;
//! `ark_math::par`'s unit tests check that a fan-out really uses two
//! threads.

use ark_fhe::arch::ArkConfig;
use ark_fhe::ckks::params::CkksParams;
use ark_fhe::engine::{Backend, Engine, HeEvaluator, HeProgram, ProgramInput};
use ark_fhe::error::ArkResult;
use ark_fhe::math::cfft::C64;

/// An op-mix touching every parallelized path: element-wise arithmetic,
/// HMult + key-switching, rotation (automorphism + key-switching) and
/// rescale.
struct Mix;
impl HeProgram for Mix {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        let sum = e.add(&inputs[0], &inputs[1])?;
        let prod = e.mul_rescale(&sum, &inputs[1])?;
        let rot = e.rotate(&prod, 1)?;
        let scaled = e.mul_const(&rot, 0.5)?;
        let scaled = e.rescale(&scaled)?;
        Ok(vec![e.sub(&scaled, &scaled)?, scaled])
    }
}

fn engine(backend: Backend, threads: usize) -> Engine {
    Engine::builder()
        .params(CkksParams::tiny())
        .backend(backend)
        .threads(threads)
        .rotations(&[1])
        .seed(99)
        .build()
        .expect("engine builds")
}

fn inputs(slots: usize) -> Vec<ProgramInput> {
    let m1: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.05 * i as f64, -0.1))
        .collect();
    let m2: Vec<C64> = (0..slots).map(|i| C64::new(0.3, 0.02 * i as f64)).collect();
    vec![ProgramInput::new(m1, 3), ProgramInput::new(m2, 3)]
}

#[test]
fn software_outputs_bit_identical_across_thread_counts() {
    let slots = CkksParams::tiny().slots();
    let run = |threads: usize| {
        let mut e = engine(Backend::Software, threads);
        // the reported width is the request: threads are spawned per
        // fan-out, and a refused spawn degrades that batch, not the width
        assert_eq!(e.threads(), threads);
        let outcome = e.execute(&inputs(slots), &Mix).expect("program runs");
        let outputs = outcome.outputs().expect("software outputs").to_vec();
        let ops = outcome.trace().ops().to_vec();
        (outputs, ops)
    };
    let (out1, ops1) = run(1);
    for threads in [2usize, 4, 8] {
        let (out_n, ops_n) = run(threads);
        // decryption of bit-identical ciphertexts is exact — compare the
        // decoded floats for equality, not approximately
        assert_eq!(out1.len(), out_n.len());
        for (a, b) in out1.iter().zip(&out_n) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "threads={threads}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "threads={threads}");
            }
        }
        assert_eq!(ops1, ops_n, "trace must not depend on threads={threads}");
    }
}

#[test]
fn software_ciphertexts_bit_identical_across_thread_counts() {
    let slots = CkksParams::tiny().slots();
    let run = |threads: usize| {
        let mut e = engine(Backend::Software, threads);
        let m: Vec<C64> = (0..slots).map(|i| C64::new(0.01 * i as f64, 0.2)).collect();
        let ct = e.encrypt(&m, 2).expect("level in range");
        let mut eval = e.evaluator().expect("software session");
        let sq = eval.square(&ct).expect("square");
        let sq = eval.rescale(&sq).expect("rescale");
        eval.rotate(&sq, 1).expect("rotate")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel);
}

/// Regression for the documented `threads(0)` clamp: a zero request
/// (the "unset" value computed configs produce) must build a session
/// observably identical to `threads(1)` — reported width 1 and
/// bit-identical outputs — rather than panicking or spawning a pool.
#[test]
fn threads_zero_clamps_to_one() {
    let slots = CkksParams::tiny().slots();
    let run = |threads: usize| {
        let mut e = engine(Backend::Software, threads);
        assert_eq!(e.threads(), 1, "threads({threads}) must report width 1");
        let outcome = e.execute(&inputs(slots), &Mix).expect("program runs");
        outcome.outputs().expect("software outputs").to_vec()
    };
    let zero = run(0);
    let one = run(1);
    assert_eq!(zero.len(), one.len());
    for (a, b) in zero.iter().zip(&one) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}

#[test]
fn trace_backend_indifferent_to_thread_count() {
    let run = |threads: usize| {
        let mut e = engine(Backend::Simulated(ArkConfig::base()), threads);
        let outcome = e
            .execute(
                &[ProgramInput::symbolic(3), ProgramInput::symbolic(3)],
                &Mix,
            )
            .expect("program records");
        let report_cycles = outcome.report().expect("simulated").cycles;
        (outcome.trace().ops().to_vec(), report_cycles)
    };
    let (ops1, cycles1) = run(1);
    let (ops8, cycles8) = run(8);
    assert_eq!(ops1, ops8);
    assert_eq!(cycles1, cycles8);
}

#[test]
fn software_and_trace_backends_agree_regardless_of_threads() {
    let slots = CkksParams::tiny().slots();
    let mut sw = engine(Backend::Software, 4);
    let sw_ops = sw
        .execute(&inputs(slots), &Mix)
        .expect("software run")
        .trace()
        .ops()
        .to_vec();
    let mut sim = engine(Backend::Simulated(ArkConfig::base()), 1);
    let sim_ops = sim
        .execute(
            &[ProgramInput::symbolic(3), ProgramInput::symbolic(3)],
            &Mix,
        )
        .expect("trace run")
        .trace()
        .ops()
        .to_vec();
    assert_eq!(sw_ops, sim_ops);
}
