//! Analyzer/runtime error-parity: on randomly generated programs at
//! random start levels, the static verifier, the software evaluator
//! and the simulated backend must agree — analyzer-accepts ⇒ the
//! backend succeeds, and analyzer-rejects ⇒ the backend fails with the
//! *same* [`ArkError`] class. Run at 1 and 4 software threads (the
//! shared evaluator's limb fan-out must not change admission
//! semantics). That checks the plumbing only: `CkksParams::tiny()`
//! operands sit below the default dispatch floor, so both widths run
//! every limb loop on the caller. The tests that force dispatch are
//! the floor-0 equivalence suites (`crates/math/tests/flat_equivalence.rs`,
//! `crates/ckks/tests/par_equivalence.rs`).
//!
//! All three run the same `(level, scale)` front, so the classes agree
//! by construction; what this suite still earns is the other half —
//! the software evaluator is driven *directly* (not through
//! `Engine::execute`, whose pre-flight would answer first), so every
//! op the front admits goes on into `ark-ckks`, which must compute it
//! without tripping one of its own asserts. Nothing is steered around:
//! level underflow, scale mismatch, undeclared rotations, chain
//! exhaustion, constants that overflow the encoding domain at `Δ²`,
//! conjugation, fused rotate-sums, mod-drops and bootstrap misuse all
//! appear with useful frequency.

use ark_ckks::error::ArkError;
use ark_ckks::params::CkksParams;
use ark_fhe::arch::ArkConfig;
use ark_fhe::engine::{Backend, Engine, HeEvaluator, ProgramInput, RotateSumTerm};
use ark_fhe::verify::{AbstractInput, VerifyContext};
use ark_math::cfft::C64;
use ark_serve::Program;
use proptest::prelude::*;

const N_INPUTS: u16 = 2;
const ROTS: [i64; 2] = [1, 2];

/// One random op pick: opcode selector, two operand selectors, and a
/// (rotation amount, mod-drop level) pair (nested — the vendored
/// proptest implements `Strategy` for tuples of at most four).
type Pick = (u32, usize, usize, (i64, usize));

fn pick_strategy() -> impl Strategy<Value = Vec<Pick>> {
    proptest::collection::vec(
        (0u32..13, 0usize..64, 0usize..64, (-4i64..5, 0usize..5)),
        1..12,
    )
}

/// Materializes picks into a `Program`.
fn build_program(picks: &[Pick], slots: usize) -> Program {
    let mut p = Program::new(N_INPUTS);
    let mut regs: Vec<_> = (0..N_INPUTS).map(|i| p.reg(i)).collect();
    for &(op, s1, s2, (amount, drop_level)) in picks {
        let (a, b) = (regs[s1 % regs.len()], regs[s2 % regs.len()]);
        let r = match op {
            0 => p.add(a, b),
            1 => p.sub(a, b),
            2 => p.mul_const(a, 0.5),
            3 => p.add_const(a, 1.0),
            4 => p.mul(a, b),
            5 => p.rescale(a),
            6 => p.mul_rescale(a, b),
            7 => p.rotate(a, amount),
            8 => p.conjugate(a),
            9 => p.mod_drop_to(a, drop_level),
            10 => p.mul_plain(a, vec![C64::new(0.5, 0.25); slots]),
            11 => p.rotate_sum(
                a,
                vec![
                    RotateSumTerm::new(amount, vec![C64::new(1.0, 0.0); slots]),
                    RotateSumTerm::new(1, vec![C64::new(0.5, -0.5); slots]),
                ],
            ),
            _ => p.bootstrap(a),
        };
        regs.push(r);
    }
    p.output(*regs.last().unwrap());
    p
}

fn err_class(e: &ArkError) -> std::mem::Discriminant<ArkError> {
    std::mem::discriminant(e)
}

/// The parity assertion: analyzer verdict vs. software evaluator (at
/// `threads`) vs. simulated backend, same program, same levels.
fn assert_parity(picks: &[Pick], start_level: usize, threads: usize) {
    let params = CkksParams::tiny();
    let slots = params.slots();
    let program = build_program(picks, slots);

    let ctx = VerifyContext::new(params.clone(), &ROTS, true, None, false).unwrap();
    let specs = vec![AbstractInput::at_level(start_level); N_INPUTS as usize];
    let report = ctx.verify(&specs, &program);

    let build = |backend: Backend| {
        Engine::builder()
            .params(params.clone())
            .backend(backend)
            .seed(7)
            .rotations(&ROTS)
            .conjugation(true)
            .threads(threads)
            .build()
            .unwrap()
    };
    let mut sw = build(Backend::Software);
    let inputs: Vec<ProgramInput> = (0..N_INPUTS as usize)
        .map(|i| {
            let v = vec![C64::new(0.1 + 0.05 * i as f64, -0.04); slots];
            ProgramInput::new(v, start_level)
        })
        .collect();
    // the software evaluator itself, not `execute` (whose metadata
    // pre-flight would reject first and hide what ark-ckks does)
    let sw_result = sw.evaluator().and_then(|mut eval| {
        let cts = inputs
            .iter()
            .map(|i| eval.input(&i.values, i.level))
            .collect::<Result<Vec<_>, _>>()?;
        program.apply(&mut eval, &cts)
    });

    let mut sim = build(Backend::Simulated(ArkConfig::base()));
    let sym: Vec<ProgramInput> = (0..N_INPUTS as usize)
        .map(|_| ProgramInput::symbolic(start_level))
        .collect();
    let sim_result = sim.execute(&sym, &program);

    match &report.finding {
        None => {
            assert!(
                sw_result.is_ok(),
                "analyzer accepted but software failed: {:?}\nprogram from {picks:?} at level {start_level}",
                sw_result.err()
            );
            assert!(
                sim_result.is_ok(),
                "analyzer accepted but simulated failed: {:?}\nprogram from {picks:?} at level {start_level}",
                sim_result.err()
            );
        }
        Some(f) => {
            let want = err_class(&f.error);
            let sw_err = sw_result.expect_err("analyzer rejected but software succeeded");
            let sim_err = sim_result.expect_err("analyzer rejected but simulated succeeded");
            assert_eq!(
                err_class(&sw_err),
                want,
                "software error {sw_err:?} != analyzer error {:?}",
                f.error
            );
            assert_eq!(
                err_class(&sim_err),
                want,
                "simulated error {sim_err:?} != analyzer error {:?}",
                f.error
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn parity_holds_single_threaded(
        picks in pick_strategy(),
        start_level in 0usize..=3,
    ) {
        assert_parity(&picks, start_level, 1);
    }

    #[test]
    fn parity_holds_four_threads(
        picks in pick_strategy(),
        start_level in 0usize..=3,
    ) {
        assert_parity(&picks, start_level, 4);
    }
}

/// The three canonical rejection classes, pinned deterministically (the
/// random suite finds them with high probability; these never rotate
/// out).
#[test]
fn canonical_rejections_agree_with_software() {
    type Case = (fn(&mut Program), std::mem::Discriminant<ArkError>);
    let cases: [Case; 3] = [
        (
            |p| {
                // level underflow: rescale past the chain
                let mut r = p.reg(0);
                for _ in 0..5 {
                    r = p.rescale(r);
                }
                p.output(r);
            },
            std::mem::discriminant(&ArkError::ModulusChainExhausted),
        ),
        (
            |p| {
                // scale mismatch: Δ² + Δ
                let x = p.reg(0);
                let big = p.mul_const(x, 2.0);
                let out = p.add(big, x);
                p.output(out);
            },
            std::mem::discriminant(&ArkError::ScaleMismatch { lhs: 0.0, rhs: 0.0 }),
        ),
        (
            |p| {
                // undeclared rotation
                let x = p.reg(0);
                let out = p.rotate(x, 3);
                p.output(out);
            },
            std::mem::discriminant(&ArkError::MissingRotationKey { amount: 3 }),
        ),
    ];
    let params = CkksParams::tiny();
    for (build, want) in cases {
        let mut program = Program::new(2);
        build(&mut program);
        let ctx = VerifyContext::new(params.clone(), &ROTS, true, None, false).unwrap();
        let report = ctx.verify(&[AbstractInput::at_level(3); 2], &program);
        let finding = report.finding.expect("analyzer must reject");
        assert_eq!(std::mem::discriminant(&finding.error), want);

        let mut sw = Engine::builder()
            .params(params.clone())
            .backend(Backend::Software)
            .seed(7)
            .rotations(&ROTS)
            .conjugation(true)
            .build()
            .unwrap();
        let slots = params.slots();
        let inputs = vec![ProgramInput::new(vec![C64::new(0.1, 0.0); slots], 3); 2];
        let err = sw.execute(&inputs, &program).unwrap_err();
        assert_eq!(std::mem::discriminant(&err), want);
    }
}
