//! The bootstrap the HELR iteration ends in, first on its own and then
//! inside the scenario framework.
//!
//! Part 1 prints the software bootstrapper's H-(I)DFT plan — per stage:
//! level, stride, window span, baby / giant key-switches, keys — next to
//! the measured wall time of every pipeline step, for the default
//! full-slot configuration and for the HELR scenario's sparse one, and
//! **exits non-zero** if either bootstrap spends more rotation
//! key-switches than the cycle model's description of the same
//! bootstrap counts `HRot`s.
//!
//! Part 2 runs one encrypted HELR training iteration: the model
//! ciphertext runs a full forward pass (hoisted-BSGS inner products), a
//! degree-7 polynomial sigmoid, the gradient update — and lands at
//! level 0, where the iteration ends in a real CKKS bootstrap. The same
//! description then replays on the simulated ARK and through an
//! `ark-serve` loopback server.
//!
//! ```sh
//! cargo run --release --example bootstrapping_demo
//! ```

use ark_fhe::ckks::bootstrap::{BootstrapConfig, BootstrapStep, Bootstrapper};
use ark_fhe::ckks::encoding::max_error;
use ark_fhe::ckks::params::{CkksContext, CkksParams};
use ark_fhe::engine::bootstrap_trace_config;
use ark_fhe::error::ArkError;
use ark_fhe::math::cfft::C64;
use ark_fhe::math::par::ThreadPool;
use ark_fhe::workloads::bootstrap::bootstrap_trace;
use ark_scenarios::{run_local, run_remote, run_trace, HelrScenario, Scenario};
use rand::SeedableRng;

/// One bootstrap under `config` at the HELR scenario's parameters
/// (`boot-test`, one thread): the plan beside the measured steps.
fn stage_breakdown(config: BootstrapConfig) -> Result<(), ArkError> {
    let params = CkksParams::boot_test();
    let ctx = CkksContext::with_pool(params.clone(), ThreadPool::serial());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let sk = ctx.gen_secret_key(&mut rng);
    let evk = ctx.gen_mult_key(&sk, &mut rng);
    let boot = Bootstrapper::new(&ctx, config.clone());
    let keys = ctx.gen_rotation_keys(&boot.required_rotations(), true, &sk, &mut rng);
    let message: Vec<C64> = (0..params.slots())
        .map(|i| C64::new(0.3 * ((i % 16) as f64 / 16.0 - 0.5), 0.0))
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&message, 0, params.scale()), &sk, &mut rng);

    // the first pass warms the scratch arenas and the permutation tables
    let mut steps = Vec::new();
    let mut refreshed = ct.clone();
    for _ in 0..2 {
        steps.clear();
        refreshed = boot.bootstrap_observed(&ctx, &ct, &evk, &keys, |step, level, elapsed| {
            steps.push((step, level, elapsed));
        })?;
    }
    let err = max_error(&message, &ctx.decrypt_decode(&refreshed, &sk));
    let slots = config.slots.unwrap_or(params.slots());

    let plans = boot.stage_plans();
    println!(
        "bootstrap plan ({}, {slots} slots, radix 2^{}, {:?}), one thread:",
        params.name, config.radix_log2, config.strategy
    );
    println!(
        "  {:<18} {:>5} {:>6} {:>5} {:>4} {:>6} {:>6} {:>4}  {:<14} {:>4} {:>9}",
        "step", "level", "stride", "span", "pre", "babies", "giants", "ks", "keys", "out", "ms"
    );
    let mut total_ms = 0.0;
    for &(step, out_level, elapsed) in &steps {
        let ms = elapsed.as_secs_f64() * 1e3;
        total_ms += ms;
        let name = format!("{step:?}");
        let plan = match plans.iter().find(|p| p.step == step) {
            Some(p) => format!(
                "{:>5} {:>6} {:>5} {:>4} {:>6} {:>6} {:>4}  {:?}",
                p.level,
                p.bsgs.stride,
                p.bsgs.span,
                p.bsgs.pre_rotations,
                p.bsgs.babies,
                p.bsgs.giants,
                p.bsgs.key_switches(),
                p.bsgs.keys
            ),
            None => {
                let key: Vec<i64> = match step {
                    BootstrapStep::SubSum(i) => vec![(slots << i) as i64],
                    BootstrapStep::ClosingRotation => boot.closing_rotation().into_iter().collect(),
                    _ => Vec::new(),
                };
                match key.is_empty() {
                    true => String::new(),
                    false => format!("{:>37} {:>4}  {key:?}", "", 1),
                }
            }
        };
        println!("  {name:<18} {plan:<58} {out_level:>4} {ms:>9.2}");
    }
    let spent = boot.rotation_key_switches();
    let model = bootstrap_trace(&params, &bootstrap_trace_config(&params, &config))
        .summary()
        .hrot;
    println!(
        "  total {total_ms:.1} ms, max |err| {err:.2e}; {spent} rotation key-switches on {} \
         rotation keys (the cycle model's trace of this bootstrap counts {model} HRots)",
        boot.required_rotations().len()
    );
    if spent > model {
        eprintln!(
            "FAIL: the software bootstrap spends {spent} rotation key-switches, the model {model}"
        );
        std::process::exit(1);
    }
    Ok(())
}

fn main() -> Result<(), ArkError> {
    let scenario = HelrScenario::default();
    let helr = scenario
        .setup()
        .bootstrapping
        .expect("the HELR iteration bootstraps");
    stage_breakdown(BootstrapConfig::default())?;
    stage_breakdown(helr)?;

    println!("scenario: {}", scenario.name());

    // software backend: full iteration + bootstrap, checked against the
    // f64 reference model
    let local = run_local(&scenario)?;
    println!(
        "local:  gradient max |err| {:.2e}, refreshed model max |err| {:.2e} in {:.2?}",
        local.errors[0], local.errors[1], local.elapsed
    );
    println!(
        "        {} ops, {} bootstrap(s): {}",
        local.trace.len(),
        local.trace.summary().mod_raise,
        local.trace.summary()
    );

    // trace backend: the identical op sequence, cycle-costed
    let traced = run_trace(&scenario)?;
    println!(
        "trace:  {} cycles on the simulated ARK ({:.1} MB HBM traffic)",
        traced.report.cycles,
        traced.report.hbm_bytes() as f64 / 1e6
    );

    // remote: the training step served over the pipelined protocol
    let remote = run_remote(&scenario)?;
    println!(
        "remote: bit-identical to local evaluation = {}, round-trip {:.2?}",
        remote.bit_identical, remote.elapsed
    );
    for key in ["ops.bootstraps", "ops.hrot_hoisted", "ops.hrescale"] {
        if let Some((_, v)) = remote.stats.iter().find(|(n, _)| n == key) {
            println!("        {key} = {v}");
        }
    }
    Ok(())
}
