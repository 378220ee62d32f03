//! The four encrypted workloads as data: the engine each runs on, the
//! input sets it cycles, and the op shape its trace must have. Every
//! value an engine or a job sees derives from `--seed`.
//!
//! Each input set is one (program, inputs) pair of identical shape. In
//! the two scenario workloads the model's plaintext data (the HELR
//! minibatch, the ResNet kernels) lives inside the program, so a new
//! input set brings its own program.

use crate::workload::Case;
use ark_ckks::params::CkksParams;
use ark_fhe::engine::{Engine, EngineBuilder, ProgramInput, RotateSumTerm};
use ark_fhe::workloads::trace::{Trace, TraceSummary};
use ark_math::cfft::C64;
use ark_math::poly::derive_seed;
use ark_scenarios::{HelrScenario, ResNetScenario, Scenario, ScenarioSetup};
use ark_serve::Program;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// How a workload's jobs reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Program::run` on a shared evaluator, in this process.
    InProcess,
    /// Through a loopback `ark-serve` server, closed loop: `conns`
    /// connections, each keeping `depth` requests in flight.
    Served { conns: usize, depth: usize },
}

pub struct Def {
    pub builder: EngineBuilder,
    pub cases: Vec<Case>,
    /// Whether a recorded job trace has the op histogram expected.
    pub shape_ok: Box<dyn Fn(&Trace) -> bool>,
    pub mode: Mode,
}

/// `HELR_SETS × 0.8 s` of reference evaluation is the whole set-up;
/// eight sets would take longer than the timed loop.
const HELR_SETS: u64 = 3;
const INPUT_SETS: u64 = 8;

/// The rotation amounts of `rotate_large`'s hoisted group: seven keyed
/// rotations off one digit decomposition.
pub const HOISTED_AMOUNTS: [i64; 7] = [1, 2, 3, 4, 5, 6, 7];

/// The builder `ScenarioSetup::engine` would build from, so a workload
/// can add `threads(..)` and build more than one engine of the same
/// key chain.
fn builder_of(setup: &ScenarioSetup) -> EngineBuilder {
    let mut b = Engine::builder()
        .params(setup.params.clone())
        .seed(setup.seed)
        .rotations(&setup.rotations)
        .conjugation(setup.conjugation)
        .runtime_keys(setup.runtime_keys)
        .runtime_key_capacity(setup.runtime_key_capacity);
    if let Some(cfg) = &setup.bootstrapping {
        b = b.bootstrapping(cfg.clone());
    }
    b
}

fn scenario_def<S: Scenario + 'static>(scenarios: Vec<S>, mode: Mode) -> Def {
    let mut builder = builder_of(&scenarios[0].setup());
    if mode == Mode::InProcess {
        builder = builder.threads(1);
    }
    let cases = scenarios.iter().map(|s| Case::from_scenario(s)).collect();
    let first = scenarios.into_iter().next().expect("at least one scenario");
    Def {
        builder,
        cases,
        shape_ok: Box::new(move |t| first.check_trace(t).is_ok()),
        mode,
    }
}

/// The `core_ops` parameter set at `N = 2^15`: few limbs, large `N`,
/// about 100 MiB of resident evaluation keys.
pub fn rotate_large_params() -> CkksParams {
    CkksParams {
        log_n: 15,
        max_level: 5,
        dnum: 3,
        q0_bits: 55,
        scale_bits: 45,
        special_bits: 55,
        secret_hamming_weight: 64,
        boot_levels: 0,
        name: "core-ops-2^15",
    }
}

fn random_slots(rng: &mut StdRng, slots: usize) -> Vec<C64> {
    (0..slots)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), 0.0))
        .collect()
}

/// `rot(v, r)[i] = v[i + r]`: HRot shifts the slots left.
fn rotated(v: &[C64], r: usize) -> Vec<C64> {
    (0..v.len()).map(|i| v[(i + r) % v.len()]).collect()
}

fn rotate_large(seed: u64) -> Def {
    let params = rotate_large_params();
    let slots = params.slots();
    let weight = 1.0 / HOISTED_AMOUNTS.len() as f64;
    let mut program = Program::new(2);
    let (x, y) = (program.reg(0), program.reg(1));
    let product = program.mul_rescale(x, y);
    let shifted = program.rotate(product, 1);
    let terms = HOISTED_AMOUNTS
        .iter()
        .map(|&a| RotateSumTerm::new(a, vec![C64::new(weight, 0.0); slots]))
        .collect();
    let sum = program.rotate_sum(shifted, terms);
    program.output(sum);

    let cases = (0..INPUT_SETS)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, k));
            let (xs, ys) = (random_slots(&mut rng, slots), random_slots(&mut rng, slots));
            let product: Vec<C64> = xs.iter().zip(&ys).map(|(a, b)| *a * *b).collect();
            let shifted = rotated(&product, 1);
            let mut want = vec![C64::zero(); slots];
            for &a in &HOISTED_AMOUNTS {
                for (w, r) in want.iter_mut().zip(rotated(&shifted, a as usize)) {
                    *w = *w + r * C64::new(weight, 0.0);
                }
            }
            Case {
                program: program.clone(),
                inputs: vec![
                    ProgramInput::new(xs, params.max_level),
                    ProgramInput::new(ys, params.max_level),
                ],
                reference: vec![want],
                tolerances: vec![1e-4],
                checked_slots: slots,
            }
        })
        .collect();
    let expected = TraceSummary {
        hmult: 1,
        hrescale: 1,
        hrot: 1,
        hrot_hoisted: HOISTED_AMOUNTS.len(),
        pmult: HOISTED_AMOUNTS.len(),
        hadd: HOISTED_AMOUNTS.len() - 1,
        ..TraceSummary::default()
    };
    Def {
        builder: Engine::builder()
            .params(params)
            .seed(seed)
            .rotations(&HOISTED_AMOUNTS)
            .threads(1),
        cases,
        shape_ok: Box::new(move |t| t.summary() == expected),
        mode: Mode::InProcess,
    }
}

fn wire_served(seed: u64, conns: usize) -> Def {
    let params = CkksParams::small();
    let slots = params.slots();
    let mut program = Program::new(2);
    let (x, y) = (program.reg(0), program.reg(1));
    let sum = program.add(x, y);
    program.output(sum);
    let cases = (0..INPUT_SETS)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, k));
            let (xs, ys) = (random_slots(&mut rng, slots), random_slots(&mut rng, slots));
            let want = xs.iter().zip(&ys).map(|(a, b)| *a + *b).collect();
            Case {
                program: program.clone(),
                inputs: vec![
                    ProgramInput::new(xs, params.max_level),
                    ProgramInput::new(ys, params.max_level),
                ],
                reference: vec![want],
                tolerances: vec![1e-4],
                checked_slots: slots,
            }
        })
        .collect();
    let expected = TraceSummary {
        hadd: 1,
        ..TraceSummary::default()
    };
    Def {
        builder: Engine::builder().params(params).seed(seed),
        cases,
        shape_ok: Box::new(move |t| t.summary() == expected),
        mode: Mode::Served { conns, depth: 4 },
    }
}

/// The definition of an encrypted workload, or `None` for a name that
/// is not one (`paper_model` has no engine).
pub fn def(name: &str, seed: u64, nproc: usize) -> Option<Def> {
    let seeds = |n: u64| (0..n).map(move |k| derive_seed(seed, k));
    Some(match name {
        "helr_local" => scenario_def(
            seeds(HELR_SETS).map(HelrScenario::new).collect(),
            Mode::InProcess,
        ),
        "rotate_large" => rotate_large(seed),
        "resnet_served" => scenario_def(
            seeds(INPUT_SETS).map(ResNetScenario::new).collect(),
            Mode::Served { conns: 1, depth: 1 },
        ),
        "wire_served" => wire_served(seed, nproc),
        _ => return None,
    })
}
