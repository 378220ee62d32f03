//! End-to-end scenario runs: software backend, trace backend, and the
//! loopback `ark-serve` path must agree with each other and with the
//! plaintext references.

use ark_scenarios::{run_local, run_remote, run_trace, HelrScenario, ResNetScenario, Scenario};

/// The software and trace backends must record the *same op sequence*
/// for one program — levels, amounts, hoisting structure, bootstrap
/// sub-traces. This is the parity that lets the cycle model price
/// exactly what the functional backend executes.
fn assert_op_parity(s: &dyn Scenario) {
    let local = run_local(s).expect("software run");
    let traced = run_trace(s).expect("trace run");
    assert_eq!(
        local.trace.ops(),
        traced.trace.ops(),
        "{}: software and trace backends diverge",
        s.name()
    );
    assert!(traced.report.cycles > 0, "simulated run must cost cycles");
}

#[test]
fn resnet_local_matches_reference_and_trace_parity() {
    let s = ResNetScenario::default();
    assert_op_parity(&s);
}

#[test]
fn helr_local_matches_reference_and_trace_parity() {
    let s = HelrScenario::default();
    let local = run_local(&s).expect("software run");
    // one real bootstrap executed
    assert_eq!(
        local
            .trace
            .count(|op| matches!(op, ark_fhe::workloads::trace::HeOp::ModRaise)),
        s.expected_bootstraps()
    );
    let traced = run_trace(&s).expect("trace run");
    assert_eq!(
        local.trace.ops(),
        traced.trace.ops(),
        "helr: software and trace backends diverge"
    );
}

#[test]
fn resnet_remote_is_bit_identical_and_counted() {
    let s = ResNetScenario::default();
    let remote = run_remote(&s).expect("remote run");
    assert!(remote.bit_identical);
    let get = |name: &str| {
        remote
            .stats
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
    };
    // the op counters must reflect the executed program
    assert_eq!(get("ops.hmult"), 1);
    assert_eq!(get("ops.rotate_sum_terms"), 18);
    assert_eq!(get("ops.bootstraps"), 0);
    assert_eq!(get("ops.hrescale"), 3);
}

#[test]
fn helr_remote_is_bit_identical_and_bootstraps() {
    let s = HelrScenario::default();
    let remote = run_remote(&s).expect("remote run");
    assert!(remote.bit_identical);
    let get = |name: &str| {
        remote
            .stats
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
    };
    assert_eq!(get("ops.bootstraps"), s.expected_bootstraps() as u64);
    assert!(get("ops.hrot_hoisted") > 0, "hoisted rotations must run");
}

/// Bits of the refreshed model (`−log₂` of its max |err| against the
/// plaintext reference) over HELR seeds 1–8, min and mean. The bounds
/// are the figures the degree-119 sine EvalMod reached on these seeds;
/// an EvalMod change may raise them, never lower them (the cosine with
/// three doublings reads 17.10 / 18.26). Run nightly: eight
/// bootstrapping sessions, about 1.5 s in release.
#[test]
#[ignore = "slow: eight HELR sessions; run with --ignored"]
fn helr_refreshed_model_precision_over_seeds() {
    const MIN_BITS: f64 = 16.01;
    const MEAN_BITS: f64 = 16.29;
    let bits: Vec<f64> = (1..=8)
        .map(|seed| {
            let local = run_local(&HelrScenario::new(seed)).expect("software run");
            -local.errors[1].log2()
        })
        .collect();
    let min = bits.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = bits.iter().sum::<f64>() / bits.len() as f64;
    println!("refreshed-model bits {bits:.2?}: min {min:.2}, mean {mean:.2}");
    assert!(min >= MIN_BITS, "min {min:.2} bits < {MIN_BITS}");
    assert!(mean >= MEAN_BITS, "mean {mean:.2} bits < {MEAN_BITS}");
}
