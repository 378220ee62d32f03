//! Cross-crate integration tests: the functional CKKS library, the
//! workload traces, and the accelerator model must tell one consistent
//! story about the paper's claims.

use ark_fhe::arch::pf::DataKind;
use ark_fhe::arch::{run, ArkConfig, CompileOptions};
use ark_fhe::ckks::bootstrap::{BootstrapConfig, Bootstrapper};
use ark_fhe::ckks::encoding::max_error;
use ark_fhe::ckks::minks::KeyStrategy;
use ark_fhe::ckks::params::{CkksContext, CkksParams};
use ark_fhe::math::cfft::C64;
use ark_fhe::workloads::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
use ark_fhe::workloads::hdft::{hdft_trace, HdftConfig};
use rand::SeedableRng;

/// Claim 1 (correctness ⇄ performance): Min-KS changes *which keys* are
/// used, never the message. Verify functionally at reduced degree and
/// check the simulator sees the traffic difference at paper scale.
#[test]
fn minks_preserves_messages_and_cuts_traffic() {
    // functional side
    let ctx = CkksContext::new(CkksParams::boot_test());
    let mut rng = rand::rngs::StdRng::seed_from_u64(404);
    let sk = ctx.gen_secret_key(&mut rng);
    let evk = ctx.gen_mult_key(&sk, &mut rng);
    let slots = ctx.params().slots();
    let msg: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.2 * ((i % 8) as f64 / 8.0), -0.1 * ((i % 5) as f64 / 5.0)))
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&msg, 0, ctx.params().scale()), &sk, &mut rng);

    let mut outputs = Vec::new();
    for strategy in [KeyStrategy::Baseline, KeyStrategy::MinKs] {
        let boot = Bootstrapper::new(
            &ctx,
            BootstrapConfig {
                radix_log2: 3,
                strategy,
                ..BootstrapConfig::default()
            },
        );
        let keys = ctx.gen_rotation_keys(&boot.required_rotations(), true, &sk, &mut rng);
        let refreshed = boot.bootstrap(&ctx, &ct, &evk, &keys).unwrap();
        outputs.push(ctx.decrypt_decode(&refreshed, &sk));
    }
    let disagreement = max_error(&outputs[0], &outputs[1]);
    assert!(disagreement < 1e-2, "strategies disagree by {disagreement}");

    // performance side, at paper scale
    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    let base = run(
        &bootstrap_trace(
            &params,
            &BootstrapTraceConfig::full(&params, KeyStrategy::Baseline),
        ),
        &params,
        &cfg,
        CompileOptions { of_limb: false },
    );
    let minks = run(
        &bootstrap_trace(
            &params,
            &BootstrapTraceConfig::full(&params, KeyStrategy::MinKs),
        ),
        &params,
        &cfg,
        CompileOptions { of_limb: false },
    );
    assert!(
        base.hbm_evk_words as f64 / minks.hbm_evk_words as f64 > 3.0,
        "Min-KS must slash evk traffic"
    );
    assert!(minks.cycles < base.cycles);
}

/// Claim 1, the other direction: the software bootstrapper and the
/// cycle model describe the *same* H-(I)DFT. At `boot-test`, radix 2^3
/// and the `(k1, k2) = (2, 2)` split the engine's analytic trace uses,
/// no stage's plan spends more key-switches than `hdft_trace`'s stage at
/// its level; at full slots every full stage's plan equals the model's
/// — key-switches per key, keys per pass — and the collapsed edge stage
/// never exceeds it. For the full-slot session and for HELR's 16-slot
/// one, a bootstrap never spends more rotations than the model counts,
/// SubSum's rounds included.
#[test]
fn software_bootstrap_plan_matches_the_hdft_model() {
    use ark_fhe::ckks::minks::keys_per_bsgs_pass;
    use ark_fhe::engine::bootstrap_trace_config;
    use ark_fhe::workloads::trace::HeOp;
    use ark_scenarios::{HelrScenario, Scenario};
    use std::collections::BTreeMap;

    let params = CkksParams::boot_test();
    let ctx = CkksContext::new(params.clone());
    let helr = HelrScenario::default()
        .setup()
        .bootstrapping
        .expect("the HELR iteration bootstraps");
    assert_eq!(helr.radix_log2, 3);
    // (slots, strategy, model HRots per bootstrap, software key-switches)
    for (slots, strategy, model_total, software_total) in [
        (None, KeyStrategy::MinKs, 36, 32 + 1),
        (None, KeyStrategy::HoistedMinimal, 42, 32 + 4),
        (None, KeyStrategy::Baseline, 36, 32 + 4),
        // SubSum's five rounds, then two stages per direction
        (helr.slots, KeyStrategy::MinKs, 5 + 16, 5 + 14 + 1),
        (helr.slots, KeyStrategy::HoistedMinimal, 5 + 20, 5 + 14 + 2),
        (helr.slots, KeyStrategy::Baseline, 5 + 16, 5 + 15),
    ] {
        let config = BootstrapConfig {
            strategy,
            slots,
            ..helr.clone()
        };
        let n = slots.unwrap_or(params.slots());
        let boot = Bootstrapper::new(&ctx, config.clone());
        let stages = boot.stage_plans();
        let per_direction = (n.trailing_zeros() as usize).div_ceil(3);
        assert_eq!(stages.len(), 2 * per_direction);

        let (c2s, s2c) = stages.split_at(per_direction);
        for (direction, inverse) in [(c2s, true), (s2c, false)] {
            let model = hdft_trace(&HdftConfig {
                slots_log2: n.trailing_zeros(),
                radix_log2: 3,
                k1: 2,
                k2: 2,
                strategy,
                start_level: direction[0].level,
                inverse,
                hoisting: false,
            });
            for stage in direction {
                // the model's rotations at this stage's level, per key
                let mut model_per_key: BTreeMap<_, usize> = BTreeMap::new();
                for op in model.ops() {
                    if let HeOp::HRot { level, key, .. } = op {
                        if *level == stage.level {
                            *model_per_key.entry(*key).or_default() += 1;
                        }
                    }
                }
                let model_switches: usize = model_per_key.values().sum();
                let plan = &stage.bsgs;
                // Baseline folds the window offset into one more baby
                // amount: the pre-rotation Fig. 1(a) counts and the
                // trace omits
                let slack = usize::from(strategy == KeyStrategy::Baseline);
                assert!(
                    plan.key_switches() <= model_switches + slack,
                    "{n} slots, {strategy:?} {:?}",
                    stage.step
                );
                if n != params.slots() {
                    continue;
                }
                let full = stage.diagonals == 15;
                assert!(full || stage.diagonals == 8, "{:?}", stage.step);
                if strategy == KeyStrategy::Baseline {
                    // one key per amount on both sides
                    assert_eq!(plan.keys.len(), plan.key_switches());
                    assert_eq!(model_per_key.len(), model_switches);
                    let fig1 = keys_per_bsgs_pass(strategy, 4, 4);
                    assert!(plan.key_switches() <= fig1, "{:?}", stage.step);
                    assert_eq!(fig1, model_switches + 1);
                    assert_eq!(full, plan.key_switches() == fig1, "{:?}", stage.step);
                    continue;
                }
                // iterated strategies: [pre-rotation,] babies, giants —
                // each group on its own key
                let mut model_groups: Vec<usize> = model_per_key.into_values().collect();
                model_groups.sort_unstable();
                let mut groups = vec![plan.babies, plan.giants];
                groups.extend((plan.pre_rotations != 0).then_some(plan.pre_rotations));
                groups.sort_unstable();
                if full {
                    assert_eq!(groups, model_groups, "{strategy:?} {:?}", stage.step);
                    assert_eq!(plan.keys.len(), keys_per_bsgs_pass(strategy, 4, 4));
                } else {
                    // stride 64: ±k·64 mod 512 leaves 8 diagonals, a
                    // window that starts at zero under every strategy
                    assert_eq!((plan.stride, plan.span, plan.pre_rotations), (64, 8, 0));
                    assert!(plan.keys.len() <= keys_per_bsgs_pass(strategy, 4, 4));
                }
                // (2^k1 − 1) + (2^k2 − 1), +1 only where [42] pre-rotates
                let pre = usize::from(strategy == KeyStrategy::HoistedMinimal);
                assert!(plan.key_switches() <= 3 + 3 + pre, "{:?}", stage.step);
            }
        }

        // per bootstrap, against the trace the engine records for it
        let recorded = bootstrap_trace(&params, &bootstrap_trace_config(&params, &config));
        assert_eq!(
            recorded.summary().hrot,
            model_total,
            "{n} slots, {strategy:?}"
        );
        assert_eq!(
            boot.rotation_key_switches(),
            software_total,
            "{n} slots, {strategy:?}"
        );
        assert!(software_total <= model_total);
        match (strategy, slots) {
            (KeyStrategy::MinKs, None) => {
                // two keys per pass, shared by the two directions, plus
                // the one closing key: {1,4}, {8,32}, {64,256} and −126
                assert_eq!(boot.closing_rotation(), Some(512 - 126));
                assert_eq!(boot.required_rotations().len(), 6 + 1);
            }
            (KeyStrategy::MinKs, Some(_)) => {
                // SubSum's {16, …, 256}, the passes' {2,8}, {1,2}, {1,4},
                // {8,16}, and a closing rotation that reuses a giant's key
                assert_eq!(boot.closing_rotation(), Some(8));
                assert_eq!(
                    boot.required_rotations(),
                    [1, 2, 4, 8, 16, 32, 64, 128, 256]
                );
            }
            _ => assert_eq!(boot.closing_rotation(), None),
        }
    }
}

/// Claim 2: OF-Limb is bit-exact functionally and trades HBM words for
/// NTT work in the model.
#[test]
fn of_limb_exactness_and_traffic_trade() {
    let ctx = CkksContext::new(CkksParams::small());
    let slots = ctx.params().slots();
    let w: Vec<C64> = (0..slots).map(|i| C64::new(0.01 * i as f64, 0.5)).collect();
    let level = ctx.params().max_level;
    let full = ctx.encode(&w, level, ctx.params().scale());
    let compressed = ctx.compress_plaintext(&full);
    assert_eq!(
        ctx.expand_plaintext(&compressed, level).poly,
        full.poly,
        "OF-Limb regeneration must be exact"
    );
    assert_eq!(compressed.words() * (level + 1), full.poly.words());

    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    let t = hdft_trace(&HdftConfig::paper_hidft(&params, KeyStrategy::MinKs));
    let off = run(&t, &params, &cfg, CompileOptions { of_limb: false });
    let on = run(&t, &params, &cfg, CompileOptions { of_limb: true });
    assert!(on.hbm_plaintext_words * 20 < off.hbm_plaintext_words);
    assert!(on.mod_mults > off.mod_mults, "OF-Limb pays extra NTTs");
    assert!(on.cycles < off.cycles, "...and still wins at ARK's compute");
}

/// Claim 3 (the paper's headline): the combined algorithms remove ~88%
/// of H-IDFT off-chip access and lift arithmetic intensity several-fold
/// (Fig. 2), turning a memory-bound kernel compute-bound.
#[test]
fn fig2_headline_numbers() {
    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    let base = run(
        &hdft_trace(&HdftConfig::paper_hidft(&params, KeyStrategy::Baseline)),
        &params,
        &cfg,
        CompileOptions { of_limb: false },
    );
    let both = run(
        &hdft_trace(&HdftConfig::paper_hidft(&params, KeyStrategy::MinKs)),
        &params,
        &cfg,
        CompileOptions::all_on(),
    );
    let removed = 1.0 - both.hbm_bytes() as f64 / base.hbm_bytes() as f64;
    assert!(
        (0.80..0.95).contains(&removed),
        "removed {:.0}% (paper: 88%)",
        removed * 100.0
    );
    let intensity_gain = both.arithmetic_intensity() / base.arithmetic_intensity();
    assert!(
        intensity_gain > 5.0,
        "intensity gain {intensity_gain:.1}x (paper: ~10x combined)"
    );
}

/// Claim 4: the evk working set drives the scratchpad story — smaller
/// scratchpads reload keys (Fig. 9(c)(d) saturating curves).
#[test]
fn scratchpad_capacity_monotonicity() {
    let params = CkksParams::ark();
    let t = bootstrap_trace(
        &params,
        &BootstrapTraceConfig::full(&params, KeyStrategy::MinKs),
    );
    let mut last_bytes = u64::MAX;
    for mib in [192usize, 320, 512] {
        let cfg = ArkConfig::with_scratchpad(mib);
        let r = run(&t, &params, &cfg, CompileOptions::all_on());
        assert!(
            r.hbm_bytes() <= last_bytes,
            "traffic must not grow with capacity ({mib} MB)"
        );
        last_bytes = r.hbm_bytes();
    }
}

/// Claim 5: H-DFT is cheaper than H-IDFT because it runs at the bottom
/// of the chain (the Fig. 2(a) vs 2(b) asymmetry).
#[test]
fn hidft_hdft_asymmetry() {
    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    let hidft = run(
        &hdft_trace(&HdftConfig::paper_hidft(&params, KeyStrategy::Baseline)),
        &params,
        &cfg,
        CompileOptions { of_limb: false },
    );
    let hdft = run(
        &hdft_trace(&HdftConfig::paper_hdft(&params, KeyStrategy::Baseline)),
        &params,
        &cfg,
        CompileOptions { of_limb: false },
    );
    assert!(hidft.hbm_words(DataKind::Evk) > 2 * hdft.hbm_words(DataKind::Evk));
    assert!(hidft.cycles > hdft.cycles);
}

/// Small trait plumbing used by the asymmetry test.
trait HbmWordsByKind {
    fn hbm_words(&self, kind: DataKind) -> u64;
}

impl HbmWordsByKind for ark_fhe::arch::SimReport {
    fn hbm_words(&self, kind: DataKind) -> u64 {
        match kind {
            DataKind::Evk => self.hbm_evk_words,
            DataKind::Plaintext => self.hbm_plaintext_words,
            DataKind::Other => self.hbm_other_words,
        }
    }
}
