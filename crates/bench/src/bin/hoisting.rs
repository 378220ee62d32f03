//! Hoisted vs per-rotation key-switching benchmark — the PR-5
//! regression gate.
//!
//! Evaluates one BSGS linear transform (the Eq. 8 shape: a 33-diagonal
//! band matrix, baby count 8) under the Baseline key strategy twice —
//! with the hoisted baby loop (`eval_linear_transform`) and with the
//! per-rotation baby loop (`eval_linear_transform_per_rotation`) — plus
//! the raw `hoisted_rotate_many` primitive against per-amount `rotate`,
//! plus the ModDown-deferred `rotate_sum` (7 weighted rotations, two
//! ModDowns) against its `hoisted_rotate_many` + `mul_plain` + `add`
//! spelling (fourteen). Emits `BENCH_PR5.json` and **fails** (non-zero
//! exit) if
//!
//! - the hoisted and per-rotation outputs are not bit-identical,
//! - the fused `rotate_sum` is off the exact sum by more than 1.25× its
//!   spelling's error (or either is off it by 1e-6), or
//! - `--check-speedup MIN` is given on a multi-core host and the
//!   hoisted transform does not beat the per-rotation one — or the
//!   fused `rotate_sum` its spelling — by `MIN`×.
//!
//! ```text
//! cargo run --release -p ark-bench --bin hoisting            # N = 2^14
//! cargo run --release -p ark-bench --bin hoisting -- --quick # N = 2^12
//! cargo run --release -p ark-bench --bin hoisting -- --check-speedup 1.05
//! ```
//!
//! All randomness descends from one fixed seed, so reruns on the same
//! host and build are directly comparable.

use ark_bench::{json_escape, time_reps};
use ark_ckks::encoding::max_error;
use ark_ckks::lintrans::LinearTransform;
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_math::cfft::C64;
use ark_math::par::{available_parallelism, ThreadPool};
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Every RNG draw in this binary descends from this constant.
const BENCH_SEED: u64 = 0x4152_4b50_5235; // "ARKPR5"

/// Diagonal count of the benchmark transform (33-diagonal band ⇒ baby
/// count 8: 7 hoistable baby rotations + 4 giant steps).
const DIAGONALS: usize = 33;

struct Mode {
    quick: bool,
    out_path: String,
    /// Minimum hoisted-over-per-rotation speedup required for exit 0 on
    /// multi-core hosts (skipped on 1-core hosts, reported either way).
    check_speedup: Option<f64>,
}

fn parse_args() -> Mode {
    let mut quick = false;
    let mut out_path = "BENCH_PR5.json".to_string();
    let mut check_speedup = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--check-speedup" => {
                let v = args.next().and_then(|s| s.parse::<f64>().ok());
                check_speedup = Some(v.unwrap_or_else(|| {
                    eprintln!("--check-speedup requires a number");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: hoisting [--quick] [--out PATH] [--check-speedup MIN]");
                std::process::exit(2);
            }
        }
    }
    Mode {
        quick,
        out_path,
        check_speedup,
    }
}

/// `N = 2^14` at full size (the acceptance-criteria ring degree), `2^12`
/// in quick mode. `dnum = 4` gives four decomposition digits — the
/// shape where hoisting's shared ModUp matters.
fn bench_params(quick: bool) -> CkksParams {
    CkksParams {
        log_n: if quick { 12 } else { 14 },
        max_level: 7,
        dnum: 4,
        q0_bits: 55,
        scale_bits: 45,
        special_bits: 55,
        secret_hamming_weight: 64,
        boot_levels: 0,
        name: if quick {
            "hoisting-quick-2^12"
        } else {
            "hoisting-2^14"
        },
    }
}

/// The benchmark transform: a band matrix in diagonal form — diagonals
/// `0..33`, all nonzero, deterministic values.
fn band_transform(slots: usize) -> LinearTransform {
    let mut diagonals = BTreeMap::new();
    for d in 0..DIAGONALS {
        let v: Vec<C64> = (0..slots)
            .map(|k| {
                let x = ((d * 31 + k * 7) % 97) as f64 / 97.0 - 0.5;
                C64::new(x, -x * 0.5)
            })
            .collect();
        diagonals.insert(d, v);
    }
    LinearTransform::from_diagonals(slots, diagonals)
}

struct Sample {
    op: &'static str,
    reps: usize,
    mean_us: f64,
    min_us: f64,
}

/// Times via the shared [`time_reps`] helper, records a [`Sample`],
/// and returns the last run's output for in-run assertions.
fn time_op<R>(samples: &mut Vec<Sample>, op: &'static str, reps: usize, f: impl FnMut() -> R) -> R {
    let (mean_us, min_us, last) = time_reps(reps, f);
    samples.push(Sample {
        op,
        reps,
        mean_us,
        min_us,
    });
    last
}

fn main() {
    let mode = parse_args();
    let params = bench_params(mode.quick);
    let threads = available_parallelism();
    let reps = if mode.quick { 5 } else { 3 };
    eprintln!(
        "hoisting: params={} threads={threads} (fixed seed {BENCH_SEED:#x})",
        params.name
    );

    let ctx = CkksContext::with_pool(params.clone(), ThreadPool::new(threads));
    let mut rng = rand::rngs::StdRng::seed_from_u64(BENCH_SEED);
    let sk = ctx.gen_secret_key(&mut rng);
    let slots = ctx.params().slots();
    let lt = band_transform(slots);
    let mut rots = lt.required_rotations(KeyStrategy::Baseline);
    rots.extend(lt.required_rotations(KeyStrategy::MinKs));
    let keys = ctx.gen_rotation_keys(&rots, false, &sk, &mut rng);

    let m: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.001 * (i % 89) as f64, -0.002 * (i % 83) as f64))
        .collect();
    let level = ctx.params().max_level;
    let ct = ctx.encrypt(&ctx.encode(&m, level, ctx.params().scale()), &sk, &mut rng);

    // ---- the gated comparison: hoisted vs per-rotation BSGS lintrans
    let mut samples = Vec::new();
    let per_rot_out = time_op(&mut samples, "lintrans_per_rotation", reps, || {
        ctx.eval_linear_transform_per_rotation(&ct, &lt, KeyStrategy::Baseline, &keys)
    });
    let hoisted_out = time_op(&mut samples, "lintrans_hoisted", reps, || {
        ctx.eval_linear_transform(&ct, &lt, KeyStrategy::Baseline, &keys)
    });
    time_op(&mut samples, "lintrans_minks", reps, || {
        ctx.eval_linear_transform(&ct, &lt, KeyStrategy::MinKs, &keys)
    });

    // raw primitive: 7 baby rotations from one vs seven decompositions
    let baby_amounts: Vec<i64> = (1..lt.baby_count() as i64).collect();
    let rotations_direct = time_op(&mut samples, "rotate_many_per_rotation", reps, || {
        baby_amounts
            .iter()
            .map(|&r| ctx.rotate(&ct, r, &keys).expect("key held"))
            .collect::<Vec<_>>()
    });
    let rotations_hoisted = time_op(&mut samples, "rotate_many_hoisted", reps, || {
        ctx.hoisted_rotate_many(&ct, &baby_amounts, &keys)
            .expect("keys held")
    });

    // the deferred rotate-sum over the same 7 amounts: the fused op vs
    // its spelling (one shared decomposition on both sides, so the
    // ratio isolates 2 ModDowns against 14)
    let weights: Vec<Vec<C64>> = (0..baby_amounts.len())
        .map(|t| {
            (0..slots)
                .map(|k| C64::new(((t * 13 + k * 5) % 101) as f64 / 101.0 - 0.5, 0.0))
                .collect()
        })
        .collect();
    let terms: Vec<(i64, &[C64])> = baby_amounts
        .iter()
        .zip(&weights)
        .map(|(&r, w)| (r, w.as_slice()))
        .collect();
    let sum_spelled = time_op(&mut samples, "rotate_sum_7_spelled", reps, || {
        ctx.hoisted_rotate_many(&ct, &baby_amounts, &keys)
            .expect("keys held")
            .iter()
            .zip(&weights)
            .map(|(rot, w)| ctx.mul_plain(rot, &ctx.encode_for_mul(w, level)))
            .reduce(|acc, prod| ctx.add(&acc, &prod).expect("equal scales"))
            .expect("seven terms")
    });
    let sum_fused = time_op(&mut samples, "rotate_sum_7", reps, || {
        ctx.rotate_sum(&ct, &terms, |g| keys.get(g))
            .expect("keys held")
    });
    // the reference is the weighted sum of what `ct` holds, so the
    // input's own encryption noise (common to both) is not in the errors
    let held = ctx.decrypt_decode(&ct, &sk);
    let sum_exact: Vec<C64> = (0..slots)
        .map(|i| {
            terms.iter().fold(C64::zero(), |acc, (r, w)| {
                acc + w[i] * held[(i + *r as usize) % slots]
            })
        })
        .collect();
    let decoded = |out| ctx.decrypt_decode(&ctx.rescale(out).expect("level > 0"), &sk);
    let (got_fused, got_spelled) = (decoded(&sum_fused), decoded(&sum_spelled));
    let fused_err = max_error(&sum_exact, &got_fused);
    let spelled_err = max_error(&sum_exact, &got_spelled);
    // both are the sum to 1e-6, and deferring the ModDown removes
    // rounding noise (fused is 15–20× closer at these N), so a fused
    // error a quarter above the spelling's is a regression, not a draw
    let rotate_sum_agrees = spelled_err < 1e-6 && fused_err <= 1.25 * spelled_err;
    if !rotate_sum_agrees {
        eprintln!("!! fused rotate_sum err {fused_err:e} vs its spelling's {spelled_err:e}");
    }

    // ---- bit-identity, asserted in-run on the timed runs' outputs
    // (deterministic inputs: every rep computes the same bits)
    let bit_identical = hoisted_out == per_rot_out && rotations_hoisted == rotations_direct;
    if !bit_identical {
        eprintln!("!! hoisted outputs diverged bitwise from the per-rotation path");
    }

    // ---- accounting: decompositions and key loads per strategy
    let baby_count = baby_amounts.len();
    let giant_count = lt.giant_count() - 1; // giant j=0 is keyless
    let decompose_per_rotation = baby_count + giant_count;
    let decompose_hoisted = 1 + giant_count;

    let min_of = |op: &str| {
        samples
            .iter()
            .find(|s| s.op == op)
            .map(|s| s.min_us)
            .expect("sample recorded")
    };
    let speedup = min_of("lintrans_per_rotation") / min_of("lintrans_hoisted");
    let rotate_speedup = min_of("rotate_many_per_rotation") / min_of("rotate_many_hoisted");
    let rotate_sum_speedup = min_of("rotate_sum_7_spelled") / min_of("rotate_sum_7");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"ark-bench/hoisting/v1\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if mode.quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    json.push_str(&format!("  \"host_parallelism\": {threads},\n"));
    json.push_str(&format!(
        "  \"params\": {{\"name\": \"{}\", \"log_n\": {}, \"n\": {}, \"max_level\": {}, \"dnum\": {}}},\n",
        json_escape(params.name),
        params.log_n,
        params.n(),
        params.max_level,
        params.dnum
    ));
    json.push_str(&format!(
        "  \"transform\": {{\"diagonals\": {}, \"baby_count\": {}, \"giant_count\": {}}},\n",
        lt.diagonal_count(),
        lt.baby_count(),
        lt.giant_count()
    ));
    json.push_str(&format!("  \"bit_identical\": {bit_identical},\n"));
    json.push_str(&format!(
        "  \"decompose_counts\": {{\"per_rotation\": {decompose_per_rotation}, \"hoisted\": {decompose_hoisted}}},\n"
    ));
    json.push_str(&format!(
        "  \"evk_loads_per_strategy\": {{\"baseline\": {}, \"hoisted_minimal\": {}, \"min_ks\": {}}},\n",
        lt.evk_loads(KeyStrategy::Baseline),
        lt.evk_loads(KeyStrategy::HoistedMinimal),
        lt.evk_loads(KeyStrategy::MinKs)
    ));
    json.push_str(&format!(
        "  \"hoisted_speedup\": {speedup:.3},\n  \"rotate_many_speedup\": {rotate_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"rotate_sum_speedup\": {rotate_sum_speedup:.3},\n  \"rotate_sum_agrees\": {rotate_sum_agrees},\n  \"rotate_sum_max_abs_err\": {{\"fused\": {fused_err:e}, \"spelled\": {spelled_err:e}}},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"reps\": {}, \"mean_us\": {:.2}, \"min_us\": {:.2}}}{comma}\n",
            s.op, s.reps, s.mean_us, s.min_us
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&mode.out_path, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", mode.out_path));
    println!("{json}");
    eprintln!("wrote {} (hoisted speedup {speedup:.2}x)", mode.out_path);

    // the JSON (with bit_identical=false) is on disk for diagnosis
    // before these hard failures
    if !bit_identical {
        eprintln!("FAIL: hoisted evaluation must be bit-identical to the per-rotation path");
        std::process::exit(1);
    }
    if !rotate_sum_agrees {
        eprintln!(
            "FAIL: the fused rotate_sum must be no further from the exact sum than its spelling"
        );
        std::process::exit(1);
    }
    if let Some(min_speedup) = mode.check_speedup {
        if threads < 2 {
            eprintln!("--check-speedup skipped: host has a single hardware thread");
            return;
        }
        if speedup < min_speedup {
            eprintln!(
                "FAIL: hoisted BSGS lintrans is {speedup:.2}x vs per-rotation \
                 (< required {min_speedup:.2}x) — the hoisting path has regressed"
            );
            std::process::exit(1);
        }
        if rotate_sum_speedup < min_speedup {
            eprintln!(
                "FAIL: fused rotate_sum is {rotate_sum_speedup:.2}x vs its spelling \
                 (< required {min_speedup:.2}x) — the deferred ModDown has regressed"
            );
            std::process::exit(1);
        }
        eprintln!(
            "speedup gates passed: lintrans {speedup:.2}x, rotate_sum {rotate_sum_speedup:.2}x \
             >= {min_speedup:.2}x"
        );
    }
}
