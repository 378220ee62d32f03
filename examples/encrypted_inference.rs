//! Encrypted ResNet layer inference through the scenario framework:
//! one description — packing, program, plaintext reference — runs on
//! the software backend, on the simulated ARK (cycle-costed), and
//! remotely through an `ark-serve` loopback server.
//!
//! ```sh
//! cargo run --release --example encrypted_inference
//! ```

use ark_fhe::error::ArkError;
use ark_scenarios::{run_local, run_remote, run_trace, ResNetScenario, Scenario};

fn main() -> Result<(), ArkError> {
    let scenario = ResNetScenario::default();
    println!("scenario: {}", scenario.name());

    // software backend: encrypt → conv + activation → decrypt → verify
    let local = run_local(&scenario)?;
    println!(
        "local:  max |err| {:.2e} vs plaintext conv reference in {:.2?}",
        local.errors[0], local.elapsed
    );
    println!("        trace: {}", local.trace.summary());

    // trace backend: same program, costed on the simulated ARK
    let traced = run_trace(&scenario)?;
    println!(
        "trace:  {} ops → {} cycles on the simulated ARK",
        traced.trace.len(),
        traced.report.cycles
    );

    // remote: loopback ark-serve server, pipelined protocol
    let remote = run_remote(&scenario)?;
    println!(
        "remote: bit-identical to local evaluation = {}, max |err| {:.2e}, round-trip {:.2?}",
        remote.bit_identical, remote.errors[0], remote.elapsed
    );
    for key in ["ops.hrot_hoisted", "ops.rotate_sum_terms", "ops.hmult"] {
        if let Some((_, v)) = remote.stats.iter().find(|(n, _)| n == key) {
            println!("        {key} = {v}");
        }
    }
    Ok(())
}
