//! Serve-side admission control backed by the static verifier: a
//! statically-invalid program bounces off the server with the typed
//! `VERIFY` error code and *zero* evaluator ops executed (checked via
//! `GET_STATS` op counters), the liveness-exact budget admits long
//! straight-line programs the old worst-case charge rejected, and the
//! fused sum's term-independent charge still admits short sums.

use ark_ckks::ops::ROTATE_SUM_FIXED_UNITS;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_fhe::engine::{Backend, Engine, RotateSumTerm};
use ark_fhe::math::cfft::C64;
use ark_fhe::verify::{AbstractInput, VerifyContext};
use ark_serve::{Client, Program, Server, ServerConfig, ServerHandle};

const SEED: u64 = 41;

fn software_engine() -> Engine {
    Engine::builder()
        .params(CkksParams::tiny())
        .backend(Backend::Software)
        .rotations(&[1])
        .runtime_keys(false)
        .seed(SEED)
        .build()
        .unwrap()
}

fn start_server(config: ServerConfig) -> (ServerHandle, u64) {
    let engine = software_engine();
    let fp = engine.fingerprint();
    let handle = Server::with_config(config)
        .host(engine)
        .unwrap()
        .serve("127.0.0.1:0")
        .unwrap();
    (handle, fp)
}

fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == key)
        .unwrap_or_else(|| panic!("missing counter {key}: {stats:?}"))
        .1
}

#[test]
fn statically_invalid_programs_bounce_with_zero_evaluator_ops() {
    let (handle, fp) = start_server(ServerConfig::default());
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let slots = local.params().slots();
    let input = local.encrypt(&vec![C64::new(0.2, 0.0); slots], 2).unwrap();

    // level underflow: rescales past the modulus chain
    let mut underflow = Program::new(1);
    {
        let mut r = underflow.reg(0);
        for _ in 0..4 {
            r = underflow.rescale(r);
        }
        underflow.output(r);
    }
    // scale mismatch: Δ² + Δ
    let mut scale_mix = Program::new(1);
    {
        let x = scale_mix.reg(0);
        let big = scale_mix.mul_const(x, 2.0);
        let out = scale_mix.add(big, x);
        scale_mix.output(out);
    }
    // undeclared rotation (only rotation 1 is declared, runtime keys off)
    let mut bad_rot = Program::new(1);
    {
        let x = bad_rot.reg(0);
        let out = bad_rot.rotate(x, 3);
        bad_rot.output(out);
    }

    // encoding overflow: both programs used to pass admission and then
    // trip an `ark-ckks` assert inside the shard (a contained panic)
    let mut const_at_delta_squared = Program::new(1);
    {
        let x = const_at_delta_squared.reg(0);
        let sq = const_at_delta_squared.mul(x, x);
        let out = const_at_delta_squared.add_const(sq, 1.0);
        const_at_delta_squared.output(out);
    }
    let mut huge_mul_const = Program::new(1);
    {
        let x = huge_mul_const.reg(0);
        let out = huge_mul_const.mul_const(x, 1e9);
        huge_mul_const.output(out);
    }

    let mut client = Client::connect(handle.addr()).unwrap();
    for (name, program) in [
        ("level-underflow", &underflow),
        ("scale-mismatch", &scale_mix),
        ("undeclared-rotation", &bad_rot),
        ("add-const-overflow", &const_at_delta_squared),
        ("mul-const-overflow", &huge_mul_const),
    ] {
        let err = client
            .evaluate(fp, program, std::slice::from_ref(&input), &ctx)
            .unwrap_err();
        let reason = err.to_string();
        assert!(
            reason.contains("(verify)"),
            "{name}: expected the typed verify rejection, got: {reason}"
        );
        assert!(reason.contains("static verification"), "{name}: {reason}");
        assert!(!reason.contains("evaluation aborted"), "{name}: {reason}");
    }

    // not a single evaluator op ran — admission rejected before any
    // shard work
    let stats = client.stats().unwrap();
    for key in [
        "ops.hadd",
        "ops.hmult",
        "ops.hrot",
        "ops.hrescale",
        "ops.bootstraps",
        "ops.rotate_sum_terms",
    ] {
        assert_eq!(stat(&stats, key), 0, "stats: {stats:?}");
    }

    // the same session still evaluates valid work afterwards
    let mut ok = Program::new(1);
    {
        let x = ok.reg(0);
        let y = ok.add(x, x);
        let r = ok.rotate(y, 1);
        ok.output(r);
    }
    client
        .evaluate(fp, &ok, std::slice::from_ref(&input), &ctx)
        .unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "ops.hadd"), 1, "stats: {stats:?}");
    assert_eq!(stat(&stats, "ops.hrot"), 1, "stats: {stats:?}");

    handle.shutdown();
}

#[test]
fn liveness_budget_admits_long_straight_line_programs() {
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let slots = local.params().slots();
    let input = local.encrypt(&vec![C64::new(0.01, 0.0); slots], 2).unwrap();
    let ct_bytes = input.byte_len();

    // 500 chained add_consts over one register: worst-case charging
    // needed ~500 ciphertexts of budget, liveness-exact needs 4
    let mut chain = Program::new(1);
    {
        let mut r = chain.reg(0);
        for _ in 0..500 {
            r = chain.add_const(r, 0.001);
        }
        chain.output(r);
    }
    let worst = chain.worst_case_units(local.params().digit_units()) * ct_bytes;
    // a budget the old charge would blow through, with head-room for
    // the decoded input, the live registers, and the response
    let budget = 32 * ct_bytes;
    assert!(
        worst > budget,
        "test premise: worst-case {worst} must exceed the {budget} budget"
    );

    let (handle, fp) = start_server(ServerConfig {
        max_session_bytes: budget,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let outs = client.evaluate(fp, &chain, &[input], &ctx).unwrap();
    assert_eq!(outs.len(), 1);
    let got = local.decrypt(&outs[0]).unwrap();
    assert!((got[0].re - (0.01 + 0.5)).abs() < 1e-3, "{:?}", got[0]);

    handle.shutdown();
}

/// A fused sum is charged `digit_units + ROTATE_SUM_FIXED_UNITS` (= 7)
/// whatever its term count — its real working set — where the per-term
/// body it replaced was charged `terms + digit_units + 1`. Long sums
/// got cheaper (ResNet's 18 terms: 24 → 12 units); sums of one to five
/// terms are charged up to five units more. The worst case of that
/// increase, a one-term sum, must still be served at the default
/// session budget, and must fit it with room to spare at the largest
/// set this repository serves (N = 2^15, L = 5, dnum = 3).
#[test]
fn short_rotate_sums_fit_the_default_session_budget() {
    let one_term = |slots: usize| {
        let mut p = Program::new(1);
        let x = p.reg(0);
        let w = vec![C64::new(0.5, 0.0); slots];
        let sum = p.rotate_sum(x, vec![RotateSumTerm::new(1, w)]);
        p.output(sum);
        p
    };

    let mut local = software_engine();
    let slots = local.params().slots();
    let input = local.encrypt(&vec![C64::new(0.2, 0.0); slots], 2).unwrap();
    let (handle, fp) = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let ctx = CkksContext::new(CkksParams::tiny());
    let outs = client
        .evaluate(fp, &one_term(slots), &[input], &ctx)
        .unwrap();
    let got = local.decrypt(&outs[0]).unwrap();
    assert!((got[0].re - 0.1).abs() < 1e-3, "{:?}", got[0]);
    handle.shutdown();

    let large = CkksParams {
        log_n: 15,
        max_level: 5,
        dnum: 3,
        q0_bits: 55,
        scale_bits: 45,
        special_bits: 55,
        ..CkksParams::tiny()
    };
    let ct_bytes = 2 * (large.max_level + 1) * large.n() * 8;
    let report = VerifyContext::new(large.clone(), &[1], false, None, false)
        .unwrap()
        .verify(
            &[AbstractInput::at_level(large.max_level)],
            &one_term(large.slots()),
        );
    assert!(report.is_ok(), "{:?}", report.finding);
    // the borrowed input, the operand and result registers, and the
    // sum's working set
    assert_eq!(
        report.peak_live_units,
        1 + 2 + large.digit_units() + ROTATE_SUM_FIXED_UNITS
    );
    // admission charges the decoded input, the peak and the response
    let charged = (report.peak_live_units + 2) * ct_bytes;
    let budget = ServerConfig::default().max_session_bytes;
    assert!(
        4 * charged <= budget,
        "a one-term sum at N = 2^15 is charged {charged} of {budget} bytes"
    );
}
