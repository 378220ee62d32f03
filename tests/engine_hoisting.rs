//! The fused `rotate_sum` op across backends: the software and
//! trace-recording evaluators must record the *same* op sequence
//! (hoisted rotation group + multiply-accumulate chain), surface the
//! same typed errors, and the software result must equal the unfused
//! `rotate`/`mul_plain`/`add` spelling numerically.

use ark_ckks::encoding::max_error;
use ark_core::config::ArkConfig;
use ark_fhe::engine::{Backend, Engine, HeEvaluator, HeProgram, ProgramInput, RotateSumTerm};
use ark_fhe::error::{ArkError, ArkResult};
use ark_math::cfft::C64;
use ark_workloads::trace::HeOp;

fn weights(n: usize, scale: f64) -> Vec<C64> {
    (0..n)
        .map(|i| C64::new(scale * (0.3 + 0.01 * i as f64), -scale * 0.1))
        .collect()
}

/// One fused BSGS-style inner sum followed by a rescale.
struct FusedInner {
    amounts: Vec<i64>,
}

impl HeProgram for FusedInner {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        let slots = e.params().slots();
        let terms: Vec<RotateSumTerm> = self
            .amounts
            .iter()
            .enumerate()
            .map(|(k, &r)| RotateSumTerm::new(r, weights(slots, 1.0 + k as f64 * 0.25)))
            .collect();
        let sum = e.rotate_sum(&inputs[0], &terms)?;
        Ok(vec![e.rescale(&sum)?])
    }
}

/// The same computation spelled with unfused ops.
struct UnfusedInner {
    amounts: Vec<i64>,
}

impl HeProgram for UnfusedInner {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        let slots = e.params().slots();
        let mut acc: Option<E::Ct> = None;
        for (k, &r) in self.amounts.iter().enumerate() {
            let rot = e.rotate(&inputs[0], r)?;
            let prod = e.mul_plain(&rot, &weights(slots, 1.0 + k as f64 * 0.25))?;
            acc = Some(match acc {
                None => prod,
                Some(a) => e.add(&a, &prod)?,
            });
        }
        Ok(vec![e.rescale(&acc.expect("amounts non-empty"))?])
    }
}

fn build(backend: Backend, rotations: &[i64]) -> Engine {
    Engine::builder()
        .params(ark_ckks::params::CkksParams::tiny())
        .backend(backend)
        .seed(11)
        .rotations(rotations)
        .build()
        .expect("tiny params are valid")
}

#[test]
fn software_and_trace_backends_record_identical_fused_sequences() {
    let amounts = vec![1i64, 3, 0, -2, 3];
    let program = FusedInner {
        amounts: amounts.clone(),
    };
    let run = |backend| {
        let mut engine = build(backend, &[1, 3, -2]);
        let outcome = engine
            .execute(&[ProgramInput::symbolic(2)], &program)
            .expect("fused program runs");
        outcome.trace().ops().to_vec()
    };
    let sw = run(Backend::Software);
    let sim = run(Backend::Simulated(ArkConfig::base()));
    assert_eq!(sw, sim, "fused op-sequences must agree across backends");
    // the sequence is the hoisted group (distinct normalized amounts,
    // digits paid once) followed by the multiply-accumulate chain
    let hoisted: Vec<(i64, bool)> = sw
        .iter()
        .filter_map(|op| match op {
            HeOp::HRotHoisted {
                amount,
                fresh_digits,
                ..
            } => Some((*amount, *fresh_digits)),
            _ => None,
        })
        .collect();
    // -2 normalizes to 14 at 16 slots; duplicate 3 dedupes; 0 is keyless
    assert_eq!(hoisted, vec![(1, true), (3, false), (14, false)]);
    let s = {
        let mut t = ark_workloads::trace::Trace::new("x");
        for op in &sw {
            t.push(*op);
        }
        t
    };
    assert_eq!(s.summary().pmult, 5, "one PMult per term");
    assert_eq!(s.summary().hadd, 4, "k−1 accumulating adds");
    assert_eq!(s.decompose_count(), 1, "one shared ModUp for the group");
}

#[test]
fn fused_rotate_sum_matches_the_unfused_spelling() {
    let amounts = vec![1i64, 3, -2];
    let slots = ark_ckks::params::CkksParams::tiny().slots();
    let x: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.02 * i as f64, 0.3 - 0.01 * i as f64))
        .collect();
    let mut fused_engine = build(Backend::Software, &[1, 3, -2]);
    let fused = fused_engine
        .execute(
            &[ProgramInput::new(x.clone(), 2)],
            &FusedInner {
                amounts: amounts.clone(),
            },
        )
        .unwrap();
    let mut unfused_engine = build(Backend::Software, &[1, 3, -2]);
    let unfused = unfused_engine
        .execute(&[ProgramInput::new(x, 2)], &UnfusedInner { amounts })
        .unwrap();
    let err = max_error(&fused.outputs().unwrap()[0], &unfused.outputs().unwrap()[0]);
    // was 1e-9 while the fused op was the spelling bit for bit; it now
    // defers its ModDown past the sum, so the two differ by the
    // spelling's own per-rotation rounding noise (1.07e-9 here)
    assert!(err < 2e-9, "fused vs unfused err {err}");
    // the fused trace pays a single decomposition, the unfused one per
    // rotation — that is the whole point of the node
    assert_eq!(fused.trace().decompose_count(), 1);
    assert_eq!(unfused.trace().decompose_count(), 3);
    assert_eq!(
        fused.trace().distinct_keys(),
        unfused.trace().distinct_keys(),
        "hoisting shares digits, not keys"
    );
}

#[test]
fn fused_errors_are_identical_across_backends() {
    let undeclared = FusedInner {
        amounts: vec![1, 7],
    };
    let empty = FusedInner { amounts: vec![] };
    for (program, want_amount) in [(&undeclared, Some(7)), (&empty, None)] {
        let errs: Vec<ArkError> = [
            build(Backend::Software, &[1]),
            build(Backend::Simulated(ArkConfig::base()), &[1]),
        ]
        .iter_mut()
        .map(|engine| {
            engine
                .execute(&[ProgramInput::symbolic(2)], program)
                .unwrap_err()
        })
        .collect();
        assert_eq!(errs[0], errs[1], "backends disagree on the typed error");
        match want_amount {
            Some(a) => assert_eq!(errs[0], ArkError::MissingRotationKey { amount: a }),
            None => assert!(matches!(errs[0], ArkError::InvalidParams { .. })),
        }
    }
}

#[test]
fn runtime_keys_lift_undeclared_fused_rotations_on_both_backends() {
    let program = FusedInner {
        amounts: vec![2, 9],
    };
    let run = |backend| {
        let mut engine = Engine::builder()
            .params(ark_ckks::params::CkksParams::tiny())
            .backend(backend)
            .seed(5)
            .runtime_keys(true)
            .build()
            .unwrap();
        let outcome = engine
            .execute(&[ProgramInput::symbolic(2)], &program)
            .expect("runtime keys derive on demand");
        outcome.trace().ops().to_vec()
    };
    assert_eq!(
        run(Backend::Software),
        run(Backend::Simulated(ArkConfig::base()))
    );
}

/// The front rejects a bad term list before the software backend pays
/// anything: no digit decomposition, not even a scratch buffer.
#[test]
fn fused_errors_are_raised_before_any_decomposition() {
    let mut engine = build(Backend::Software, &[1]);
    let slots = engine.params().slots();
    let ct = engine.encrypt(&weights(slots, 1.0), 2).unwrap();
    let ctx = engine.context().expect("software session");
    let before = ctx.arena().stats();
    let mut eval = engine.shared_evaluator().unwrap();
    let term = |r| RotateSumTerm::new(r, weights(slots, 1.0));
    assert_eq!(
        eval.rotate_sum(&ct, &[term(1), term(7)]).unwrap_err(),
        ArkError::MissingRotationKey { amount: 7 }
    );
    assert!(matches!(
        eval.rotate_sum(&ct, &[]).unwrap_err(),
        ArkError::InvalidParams { .. }
    ));
    assert_eq!(ctx.arena().stats(), before, "a rejected sum took scratch");
    // the same evaluator still evaluates an admissible sum
    eval.rotate_sum(&ct, &[term(1), term(0)]).unwrap();
    assert_ne!(ctx.arena().stats(), before);
}

/// `rotate_sum` ciphertexts do not depend on the session's thread
/// width (N = 2^10 so the limb loops really fan out).
#[test]
fn fused_rotate_sum_is_bit_identical_across_thread_counts() {
    let amounts = [1i64, 5, 0, -3, 5];
    let run = |threads: usize| {
        let mut engine = Engine::builder()
            .params(ark_ckks::params::CkksParams::small())
            .threads(threads)
            .seed(21)
            .rotations(&amounts)
            .build()
            .unwrap();
        let slots = engine.params().slots();
        let ct = engine.encrypt(&weights(slots, 0.01), 7).unwrap();
        let terms: Vec<RotateSumTerm> = amounts
            .iter()
            .enumerate()
            .map(|(k, &r)| RotateSumTerm::new(r, weights(slots, 0.002 * (k + 1) as f64)))
            .collect();
        let mut eval = engine.evaluator().unwrap();
        eval.rotate_sum(&ct, &terms).unwrap()
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        assert_eq!(serial, run(threads), "threads={threads}");
    }
}

/// Deferring the ModDown removes rounding noise, it never adds any.
/// Measured against the weighted sum of what the input ciphertext
/// actually holds (so the input's own encryption noise, common to both,
/// is out of the picture), the spelling's per-rotation roundings — each
/// multiplied by a `q_top`-scale plaintext — put it ~40× further off
/// than the fused op at N = 2^10 (1.1e-8 vs 2.8e-10): far outside
/// draw-to-draw noise, so a 2× margin is asserted.
#[test]
fn fused_rotate_sum_is_closer_to_the_clear_sum_than_the_spelling() {
    let amounts = [1i64, 5, 0, -3, 5];
    let mut engine = Engine::builder()
        .params(ark_ckks::params::CkksParams::small())
        .seed(21)
        .rotations(&amounts)
        .build()
        .unwrap();
    let slots = engine.params().slots();
    let x = weights(slots, 0.01);
    let w: Vec<Vec<C64>> = (1..=amounts.len())
        .map(|k| weights(slots, 0.1 * k as f64))
        .collect();
    let ct = engine.encrypt(&x, 7).unwrap();
    let (fused, unfused) = {
        let mut eval = engine.evaluator().unwrap();
        let terms: Vec<RotateSumTerm> = amounts
            .iter()
            .zip(&w)
            .map(|(&r, w)| RotateSumTerm::new(r, w.clone()))
            .collect();
        let fused = eval.rotate_sum(&ct, &terms).unwrap();
        let mut acc: Option<_> = None;
        for (&r, w) in amounts.iter().zip(&w) {
            let rot = eval.rotate(&ct, r).unwrap();
            let prod = eval.mul_plain(&rot, w).unwrap();
            acc = Some(match acc {
                None => prod,
                Some(a) => eval.add(&a, &prod).unwrap(),
            });
        }
        let unfused = acc.expect("amounts non-empty");
        (
            eval.rescale(&fused).unwrap(),
            eval.rescale(&unfused).unwrap(),
        )
    };
    let held = engine.decrypt(&ct).unwrap();
    let mut want = vec![C64::zero(); slots];
    for (&r, w) in amounts.iter().zip(&w) {
        for (i, sum) in want.iter_mut().enumerate() {
            *sum = *sum + w[i] * held[(i as i64 + r).rem_euclid(slots as i64) as usize];
        }
    }
    let fused_err = max_error(&want, &engine.decrypt(&fused).unwrap());
    let unfused_err = max_error(&want, &engine.decrypt(&unfused).unwrap());
    assert!(unfused_err < 1e-6, "the spelling is off: {unfused_err}");
    assert!(
        2.0 * fused_err <= unfused_err,
        "fused {fused_err} vs the held sum, unfused {unfused_err}"
    );
}
