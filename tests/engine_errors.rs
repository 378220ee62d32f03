//! Error-path coverage for the unified engine API: malformed programs
//! must surface typed [`ArkError`]s — never panics — on *both*
//! backends, and well-formed programs must record identical op
//! sequences on both.

use ark_fhe::arch::ArkConfig;
use ark_fhe::ckks::params::{CkksContext, CkksParams};
use ark_fhe::engine::{Backend, Engine, HeEvaluator, HeProgram, ProgramInput, RotateSumTerm};
use ark_fhe::error::{ArkError, ArkResult};
use ark_fhe::math::cfft::C64;
use rand::SeedableRng;

fn both_backends() -> Vec<Backend> {
    vec![Backend::Software, Backend::Simulated(ArkConfig::base())]
}

fn tiny_engine(backend: Backend) -> Engine {
    Engine::builder()
        .params(CkksParams::tiny())
        .backend(backend)
        .rotations(&[1])
        .seed(11)
        .build()
        .expect("tiny engine builds")
}

// -- adding at mismatched levels ------------------------------------

struct AddAtMismatchedLevels;

impl HeProgram for AddAtMismatchedLevels {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        Ok(vec![e.add(&inputs[0], &inputs[1])?])
    }
}

#[test]
fn add_at_mismatched_levels_is_level_mismatch_on_both_backends() {
    for backend in both_backends() {
        let mut engine = tiny_engine(backend.clone());
        let err = engine
            .execute(
                &[ProgramInput::symbolic(3), ProgramInput::symbolic(1)],
                &AddAtMismatchedLevels,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ArkError::LevelMismatch {
                expected: 3,
                found: 1
            },
            "backend {backend:?}"
        );
    }
}

// -- rotating without the needed key --------------------------------

struct RotateBy(i64);

impl HeProgram for RotateBy {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        Ok(vec![e.rotate(&inputs[0], self.0)?])
    }
}

#[test]
fn rotate_without_key_is_missing_rotation_key_on_both_backends() {
    for backend in both_backends() {
        let mut engine = tiny_engine(backend.clone());
        let err = engine
            .execute(&[ProgramInput::symbolic(2)], &RotateBy(5))
            .unwrap_err();
        assert_eq!(
            err,
            ArkError::MissingRotationKey { amount: 5 },
            "backend {backend:?}"
        );
    }
}

struct Conjugate;

impl HeProgram for Conjugate {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        Ok(vec![e.conjugate(&inputs[0])?])
    }
}

#[test]
fn conjugate_without_key_is_typed_error_on_both_backends() {
    for backend in both_backends() {
        let mut engine = tiny_engine(backend);
        let err = engine
            .execute(&[ProgramInput::symbolic(2)], &Conjugate)
            .unwrap_err();
        assert_eq!(err, ArkError::MissingConjugationKey);
    }
}

#[test]
fn undeclared_conjugation_error_is_identical_across_backends() {
    // the software and trace paths must surface the *same* ArkError
    // variant for an undeclared conjugation — collected side by side
    // rather than compared against a constant, so a drift in either
    // backend (e.g. one consulting raw key material instead of the
    // declared set) fails this test even if both stay "typed"
    let errors: Vec<ArkError> = both_backends()
        .into_iter()
        .map(|backend| {
            tiny_engine(backend)
                .execute(&[ProgramInput::symbolic(2)], &Conjugate)
                .unwrap_err()
        })
        .collect();
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[0], ArkError::MissingConjugationKey);
}

#[test]
fn runtime_keys_lift_rotation_and_conjugation_errors_on_both_backends() {
    use ark_fhe::arch::ArkConfig as Cfg;
    for backend in [Backend::Software, Backend::Simulated(Cfg::base())] {
        let mut engine = Engine::builder()
            .params(CkksParams::tiny())
            .backend(backend)
            .runtime_keys(true)
            .seed(11)
            .build()
            .unwrap();
        engine
            .execute(&[ProgramInput::symbolic(2)], &RotateBy(5))
            .expect("runtime keys derive undeclared rotations");
        engine
            .execute(&[ProgramInput::symbolic(2)], &Conjugate)
            .expect("runtime keys derive the conjugation key");
    }
}

// -- rescaling past the modulus chain -------------------------------

struct RescaleForever;

impl HeProgram for RescaleForever {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        let mut ct = inputs[0].clone();
        loop {
            let scaled = e.mul_const(&ct, 1.0)?;
            ct = e.rescale(&scaled)?;
        }
    }
}

#[test]
fn rescaling_past_the_chain_is_modulus_chain_exhausted_on_both_backends() {
    for backend in both_backends() {
        let mut engine = tiny_engine(backend.clone());
        let err = engine
            .execute(&[ProgramInput::symbolic(2)], &RescaleForever)
            .unwrap_err();
        assert_eq!(err, ArkError::ModulusChainExhausted, "backend {backend:?}");
    }
}

// -- scale mismatch --------------------------------------------------

struct AddAtMismatchedScales;

impl HeProgram for AddAtMismatchedScales {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        // mul_const re-encodes at the top-prime scale: adding without
        // the rescale leaves the scales ~Δ apart
        let scaled = e.mul_const(&inputs[0], 0.5)?;
        Ok(vec![e.add(&scaled, &inputs[0])?])
    }
}

#[test]
fn add_at_mismatched_scales_is_scale_mismatch_on_both_backends() {
    for backend in both_backends() {
        let mut engine = tiny_engine(backend.clone());
        let err = engine
            .execute(&[ProgramInput::symbolic(2)], &AddAtMismatchedScales)
            .unwrap_err();
        assert!(
            matches!(err, ArkError::ScaleMismatch { .. }),
            "backend {backend:?}: {err:?}"
        );
    }
}

// -- levels beyond the chain, bad parameter sets ---------------------

#[test]
fn input_beyond_max_level_is_level_out_of_range() {
    for backend in both_backends() {
        let mut engine = tiny_engine(backend);
        let err = engine
            .execute(&[ProgramInput::symbolic(99)], &RotateBy(1))
            .unwrap_err();
        assert!(matches!(err, ArkError::LevelOutOfRange { level: 99, .. }));
    }
}

#[test]
fn builder_without_params_is_invalid_params() {
    assert!(matches!(
        Engine::builder().build().unwrap_err(),
        ArkError::InvalidParams { .. }
    ));
}

#[test]
fn simulated_backend_with_a_nonsense_config_is_invalid_params() {
    // `ArkConfig`'s fields are public: a machine with no memory
    // bandwidth, or no compute, must be refused when the engine is
    // built, not wrapped into a plausible cycle count by the scheduler
    let no_memory = ArkConfig {
        hbm_gbps: 0.0,
        ..ArkConfig::base()
    };
    let no_compute = ArkConfig {
        clusters: 0,
        ..ArkConfig::base()
    };
    let no_clock = ArkConfig {
        clock_ghz: f64::NAN,
        ..ArkConfig::base()
    };
    for (cfg, field) in [
        (no_memory, "hbm_gbps"),
        (no_compute, "clusters"),
        (no_clock, "clock_ghz"),
    ] {
        let err = Engine::builder()
            .params(CkksParams::tiny())
            .backend(Backend::Simulated(cfg))
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, ArkError::InvalidParams { reason } if reason.contains(field)),
            "{field}: {err:?}"
        );
    }
}

#[test]
fn bootstrap_slot_count_off_the_powers_of_two_up_to_half_n_is_invalid_params() {
    use ark_fhe::ckks::bootstrap::BootstrapConfig;
    let params = CkksParams::boot_test();
    let n = params.n();
    for slots in [3, 1, n] {
        for backend in both_backends() {
            let err = Engine::builder()
                .params(params.clone())
                .backend(backend)
                .bootstrapping(BootstrapConfig {
                    slots: Some(slots),
                    ..BootstrapConfig::default()
                })
                .build()
                .unwrap_err();
            assert!(
                matches!(&err, ArkError::InvalidParams { reason } if reason.contains("slot count")),
                "{slots} slots: {err:?}"
            );
        }
    }
}

#[test]
fn bootstrap_without_config_is_key_chain_missing() {
    for backend in both_backends() {
        let mut engine = tiny_engine(backend);
        struct Boot;
        impl HeProgram for Boot {
            fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                Ok(vec![e.bootstrap(&inputs[0])?])
            }
        }
        let err = engine
            .execute(&[ProgramInput::symbolic(0)], &Boot)
            .unwrap_err();
        assert!(matches!(err, ArkError::KeyChainMissing { .. }));
    }
}

// -- uniform weights that overflow the encoding ----------------------

/// One plaintext op with the weight `c` in every slot.
enum UniformWeight {
    MulPlain(f64),
    AddPlain(f64),
    RotateSum(f64),
}

impl HeProgram for UniformWeight {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        let w = |c: f64| vec![C64::new(c, 0.0); e.params().slots()];
        let x = &inputs[0];
        Ok(vec![match *self {
            UniformWeight::MulPlain(c) => e.mul_plain(x, &w(c))?,
            UniformWeight::AddPlain(c) => e.add_plain(x, &w(c))?,
            UniformWeight::RotateSum(c) => {
                let terms = [0, 1].map(|r| RotateSumTerm::new(r, w(c)));
                e.rotate_sum(x, &terms)?
            }
        }])
    }
}

#[test]
fn overflowing_uniform_weights_are_invalid_params_on_both_backends() {
    // NaN, ±inf, and 1e9 at tiny's 2^36 scales (past 2^63)
    for c in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0e9] {
        for program in [
            UniformWeight::MulPlain(c),
            UniformWeight::AddPlain(c),
            UniformWeight::RotateSum(c),
        ] {
            for backend in both_backends() {
                let mut engine = tiny_engine(backend.clone());
                let err = engine
                    .execute(&[ProgramInput::symbolic(2)], &program)
                    .unwrap_err();
                assert!(
                    matches!(&err, ArkError::InvalidParams { reason } if reason.contains("overflows")),
                    "c = {c}, backend {backend:?}: {err:?}"
                );
            }
        }
    }
}

// -- the scheme layer itself returns typed errors --------------------

#[test]
fn ckks_context_entry_points_return_typed_errors() {
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let sk = ctx.gen_secret_key(&mut rng);
    let keys = ctx.gen_rotation_keys(&[1], false, &sk, &mut rng);
    let msg = vec![C64::new(0.25, 0.0); ctx.params().slots()];
    let ct = ctx.encrypt(&ctx.encode(&msg, 0, ctx.params().scale()), &sk, &mut rng);

    assert_eq!(
        ctx.rescale(&ct).unwrap_err(),
        ArkError::ModulusChainExhausted
    );
    assert_eq!(
        ctx.rotate(&ct, 3, &keys).unwrap_err(),
        ArkError::MissingRotationKey { amount: 3 }
    );
    assert_eq!(
        ctx.conjugate(&ct, &keys).unwrap_err(),
        ArkError::MissingConjugationKey
    );
    assert!(matches!(
        ctx.mod_drop_to(&ct, 2).unwrap_err(),
        ArkError::LevelMismatch { .. }
    ));
}

// -- round trip: both backends record the same op sequence -----------

/// The quickstart program: `rot((x + y) · x, 1)`.
struct Quickstart;

impl HeProgram for Quickstart {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        let sum = e.add(&inputs[0], &inputs[1])?;
        let prod = e.mul_rescale(&sum, &inputs[0])?;
        Ok(vec![e.rotate(&prod, 1)?])
    }
}

#[test]
fn software_and_trace_backends_emit_the_same_op_sequence() {
    let params = CkksParams::tiny();
    let level = 2;
    let slots = CkksParams::tiny().slots();
    let x: Vec<C64> = (0..slots).map(|i| C64::new(0.01 * i as f64, 0.0)).collect();

    let mut soft = Engine::builder()
        .params(params.clone())
        .backend(Backend::Software)
        .rotations(&[1])
        .seed(42)
        .build()
        .unwrap();
    let soft_outcome = soft
        .execute(
            &[
                ProgramInput::new(x.clone(), level),
                ProgramInput::new(x, level),
            ],
            &Quickstart,
        )
        .unwrap();

    let mut sim = Engine::builder()
        .params(params)
        .backend(Backend::Simulated(ArkConfig::base()))
        .rotations(&[1])
        .build()
        .unwrap();
    let sim_outcome = sim
        .execute(
            &[ProgramInput::symbolic(level), ProgramInput::symbolic(level)],
            &Quickstart,
        )
        .unwrap();

    assert!(!soft_outcome.trace().is_empty());
    assert_eq!(
        soft_outcome.trace().ops(),
        sim_outcome.trace().ops(),
        "backends must execute the same ops for the same program"
    );
    // and the software side really computed: outputs decode
    assert_eq!(soft_outcome.outputs().unwrap().len(), 1);
    // while the simulated side really costed: non-zero cycle count
    assert!(sim_outcome.report().unwrap().cycles > 0);
}
