//! Quickstart: write one HE program, run it on both backends.
//!
//! The program is written once against the backend-agnostic
//! [`HeEvaluator`] trait. On [`Backend::Software`] it executes real
//! RNS-CKKS arithmetic at a reduced degree and decrypts; on
//! [`Backend::Simulated`] the same code records its op trace and is
//! costed on the cycle-level ARK model at paper-scale parameters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ark_fhe::arch::ArkConfig;
use ark_fhe::ckks::encoding::max_error;
use ark_fhe::ckks::params::CkksParams;
use ark_fhe::engine::{Backend, Engine, HeEvaluator, HeProgram, ProgramInput};
use ark_fhe::error::{ArkError, ArkResult};
use ark_fhe::math::cfft::C64;

/// `rot((x + y) · x, 1)` — one add, one relinearized multiply with
/// rescale, one rotation.
struct SumProductRotate;

impl HeProgram for SumProductRotate {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        let sum = e.add(&inputs[0], &inputs[1])?;
        let prod = e.mul_rescale(&sum, &inputs[0])?;
        Ok(vec![e.rotate(&prod, 1)?])
    }
}

fn main() -> Result<(), ArkError> {
    // ---- software backend: reduced degree, real ciphertexts --------
    let mut engine = Engine::builder()
        .params(CkksParams::small())
        .backend(Backend::Software)
        .rotations(&[1])
        .seed(2022)
        .build()?;
    let slots = engine.params().slots();
    println!(
        "software backend: N = {}, {} slots, L = {}",
        engine.params().n(),
        slots,
        engine.params().max_level
    );
    // the byte sizes a deployment moves and holds: key material is
    // generated once per session (and, under ark-serve, shared by every
    // client session), ciphertexts travel per request
    // keys hold their uniform `A` halves as one 64-bit seed each (the
    // key-switch regenerates them at use), so these are also the bytes
    // key distribution ships
    let kc = engine.keychain().expect("software session has keys");
    println!(
        "key material (seed + B halves): public {} KiB, mult {} KiB, rotations {} KiB \
         (chain total {:.1} MiB)",
        kc.public_key().byte_len() >> 10,
        kc.mult_key().byte_len() >> 10,
        kc.rotation_keys().byte_len() >> 10,
        kc.byte_len() as f64 / (1 << 20) as f64
    );

    let x: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.5 * (i as f64 / 10.0).sin(), 0.0))
        .collect();
    let y: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.25 + 0.001 * i as f64, 0.0))
        .collect();
    let level = 4;
    let outcome = engine.execute(
        &[
            ProgramInput::new(x.clone(), level),
            ProgramInput::new(y.clone(), level),
        ],
        &SumProductRotate,
    )?;
    let sample_ct = engine.encrypt(&x, level)?;
    println!(
        "a level-{level} ciphertext holds {} KiB ({} words)",
        sample_ct.byte_len() >> 10,
        sample_ct.words()
    );
    let out = &outcome.outputs().expect("software run decrypts")[0];
    let expect: Vec<C64> = (0..slots)
        .map(|i| {
            let j = (i + 1) % slots;
            (x[j] + y[j]) * x[j]
        })
        .collect();
    let err = max_error(&expect, out);
    println!("computed rot((x + y) * x, 1) homomorphically");
    println!("max slot error vs plaintext computation: {err:.2e}");
    assert!(err < 1e-4, "unexpectedly large error: {err:.2e}");

    // ---- simulated backend: same program at paper scale ------------
    let mut sim = Engine::builder()
        .params(CkksParams::ark())
        .backend(Backend::Simulated(ArkConfig::base()))
        .rotations(&[1])
        .build()?;
    let level = sim.params().max_level;
    let sim_outcome = sim.execute(
        &[ProgramInput::symbolic(level), ProgramInput::symbolic(level)],
        &SumProductRotate,
    )?;
    let report = sim_outcome.report().expect("simulated run reports");
    assert!(
        report.cycles > 0,
        "simulation must produce a non-empty report"
    );
    println!(
        "\nsimulated backend (ARK at N = 2^16, L = 23): {} ops recorded [{}]",
        sim_outcome.trace().len(),
        sim_outcome.trace().summary()
    );
    println!("{report}");
    Ok(())
}
