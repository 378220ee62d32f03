//! Layer costs the spans cannot see: kernels, scheme ops, codecs and
//! the server's stages. Each public function is replayed in isolation
//! at the workload's exact shapes; what a job's spans leave over after
//! these estimates is reported as its own `*_unattributed_ms` figure.

use crate::defs::HOISTED_AMOUNTS;
use crate::spec::Metrics;
use crate::stats::median;
use crate::workload::JobSet;
use ark_ckks::keys::{EvalKey, PublicKey, RotationKeys, SecretKey};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::wire as ckks_wire;
use ark_ckks::Ciphertext;
use ark_core::pf::Resource;
use ark_core::{ArkConfig, CompileOptions, SimReport};
use ark_fhe::engine::Engine;
use ark_fhe::verify::AbstractInput;
use ark_fhe::workloads::counts::{self, MultBreakdown};
use ark_fhe::workloads::trace::{HeOp, Trace};
use ark_math::automorphism::GaloisElement;
use ark_math::cfft::C64;
use ark_math::par::ThreadPool;
use ark_math::poly::{Representation, RnsPoly};
use ark_math::wire::Cursor;
use ark_net::{FrameBuf, OutBuf};
use ark_serve::Program;
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

/// Median microseconds of `f`: one warm-up, then enough repetitions to
/// fill about 150 ms (3 to 40), or two in a quick run.
pub fn median_us(quick: bool, mut f: impl FnMut()) -> f64 {
    let mut once = || {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e6
    };
    let warm = once();
    let reps = if quick {
        2
    } else {
        ((150_000.0 / warm.max(1.0)) as usize).clamp(3, 40)
    };
    median(&(0..reps).map(|_| once()).collect::<Vec<_>>())
}

/// Times `f` and files the median under `name`.
fn timed(m: &mut Metrics, quick: bool, name: &str, f: impl FnMut()) -> f64 {
    let us = median_us(quick, f);
    m.set(name, us);
    us
}

/// Keys and two top-level ciphertexts at a workload's parameter set,
/// on a pool as wide as the workload's engine.
pub struct Fixture {
    ctx: CkksContext,
    sk: SecretKey,
    pk: PublicKey,
    evk: EvalKey,
    rotations: RotationKeys,
    c1: Ciphertext,
    c2: Ciphertext,
    values: Vec<C64>,
    level: usize,
}

impl Fixture {
    pub fn new(params: &CkksParams, threads: usize, seed: u64) -> Fixture {
        let ctx = if threads <= 1 {
            CkksContext::new(params.clone())
        } else {
            CkksContext::with_pool(params.clone(), ThreadPool::new(threads))
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = ctx.gen_secret_key(&mut rng);
        let pk = ctx.gen_public_key(&sk, &mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let rotations = ctx.gen_rotation_keys(&HOISTED_AMOUNTS, false, &sk, &mut rng);
        let level = params.max_level;
        let values: Vec<C64> = (0..params.slots())
            .map(|i| C64::new(0.001 * (i % 89) as f64, -0.002 * (i % 83) as f64))
            .collect();
        let pt = ctx.encode(&values, level, params.scale());
        let c1 = ctx.encrypt_public(&pt, &pk, &mut rng);
        let c2 = ctx.encrypt_public(&pt, &pk, &mut rng);
        Fixture {
            ctx,
            sk,
            pk,
            evk,
            rotations,
            c1,
            c2,
            values,
            level,
        }
    }

    /// `ckks.*` unit costs at the top level.
    pub fn ckks_costs(&self, quick: bool, m: &mut Metrics) {
        let Fixture {
            ctx,
            evk,
            rotations,
            c1,
            c2,
            level,
            ..
        } = self;
        let level = *level;
        let n = ctx.params().n();
        let g = GaloisElement::from_rotation(1, n);
        let key = rotations.get(g).expect("rotation 1 was generated");
        let digits = ctx.hoisted_decompose(&c1.a, level);
        let mut rng = StdRng::seed_from_u64(11);
        let raised = RnsPoly::random_uniform(
            ctx.basis(),
            ctx.extended_indices(level),
            Representation::Evaluation,
            &mut rng,
        );
        timed(m, quick, "ckks.key_switch.us", || {
            black_box(ctx.key_switch(&c1.a, evk, level));
        });
        timed(m, quick, "ckks.hoisted_decompose.us", || {
            black_box(ctx.hoisted_decompose(&c1.a, level));
        });
        timed(m, quick, "ckks.hoisted_apply.us", || {
            black_box(ctx.hoisted_apply(&digits, g, key));
        });
        timed(m, quick, "ckks.mod_down.us", || {
            black_box(ctx.mod_down(&raised, level));
        });
        timed(m, quick, "ckks.rescale.us", || {
            black_box(ctx.rescale(c1).expect("top level is above 0"));
        });
        timed(m, quick, "ckks.mul_rescale.us", || {
            black_box(ctx.mul_rescale(c1, c2, evk).expect("top level is above 0"));
        });
        let rotate = timed(m, quick, "ckks.rotate.us", || {
            black_box(ctx.rotate(c1, 1, rotations).expect("key present"));
        });
        let hoisted = timed(m, quick, "ckks.hoisted_rotate_many_7.us", || {
            black_box(
                ctx.hoisted_rotate_many(c1, &HOISTED_AMOUNTS, rotations)
                    .expect("keys present"),
            );
        });
        m.set(
            "ckks.hoist_gain_x",
            HOISTED_AMOUNTS.len() as f64 * rotate / hoisted,
        );

        let scale = ctx.params().scale();
        let pt = ctx.encode(&self.values, level, scale);
        timed(m, quick, "ckks.encode.us", || {
            black_box(ctx.encode(&self.values, level, scale));
        });
        timed(m, quick, "ckks.encrypt.us", || {
            black_box(ctx.encrypt_public(&pt, &self.pk, &mut rng));
        });
        timed(m, quick, "ckks.decrypt.us", || {
            black_box(ctx.decrypt_decode(c1, &self.sk));
        });
        let frame = ckks_wire::write_ciphertext(ctx, c1);
        timed(m, quick, "ckks.wire_encode_ct.us", || {
            black_box(ckks_wire::write_ciphertext(ctx, c1));
        });
        timed(m, quick, "ckks.wire_decode_ct.us", || {
            black_box(ckks_wire::read_ciphertext_prefix(ctx, &frame).expect("own frame decodes"));
        });
        m.set("ckks.ct_kib", frame.len() as f64 / 1024.0);
    }

    /// `math.*` unit costs at the workload's `N` and top-level limb
    /// count.
    pub fn math_costs(&self, quick: bool, m: &mut Metrics) -> KernelCosts {
        let ctx = &self.ctx;
        let basis = ctx.basis();
        let chain = ctx.chain_indices(self.level);
        let n = ctx.params().n();
        let coeffs = (chain.len() * n) as f64;
        let mut rng = StdRng::seed_from_u64(13);
        let mut p = RnsPoly::random_uniform(basis, chain, Representation::Evaluation, &mut rng);

        // a poly is in one representation at a time, so the two NTT
        // directions are timed as alternating halves of one round trip
        let (mut inv, mut fwd) = (Vec::new(), Vec::new());
        for _ in 0..if quick { 2 } else { 9 } {
            let t0 = Instant::now();
            p.to_coeff(basis);
            let t1 = Instant::now();
            p.to_eval(basis);
            inv.push((t1 - t0).as_secs_f64() * 1e9);
            fwd.push(t1.elapsed().as_secs_f64() * 1e9);
        }
        let ntt_fwd = median(&fwd) / coeffs;
        let ntt_inv = median(&inv) / coeffs;
        m.set("math.ntt_fwd.ns_per_coeff", ntt_fwd);
        m.set("math.ntt_inv.ns_per_coeff", ntt_inv);

        let group = &ctx.decomposition_groups(self.level)[0];
        let conv = ctx.modup_converter(self.level, 0);
        let piece = RnsPoly::random_uniform(basis, group, Representation::Coefficient, &mut rng);
        let bconv = median_us(quick, || {
            black_box(conv.convert(&piece, basis));
        }) * 1e3
            / conv.mac_count(n) as f64;
        m.set("math.bconv.ns_per_mac", bconv);

        let perm = ctx.eval_perm(GaloisElement::from_rotation(1, n));
        let permute = median_us(quick, || {
            black_box(p.permute_eval(&perm, basis));
        }) * 1e3
            / coeffs;
        m.set("math.permute_eval.ns_per_coeff", permute);

        let a = RnsPoly::random_uniform(basis, chain, Representation::Evaluation, &mut rng);
        let mut acc = a.clone();
        let mul_add = median_us(quick, || acc.mul_add_assign(&a, &p, basis)) * 1e3 / coeffs;
        m.set("math.mul_add.ns_per_coeff", mul_add);

        let from_seed = median_us(quick, || {
            black_box(RnsPoly::from_seed(
                basis,
                chain,
                Representation::Evaluation,
                17,
            ));
        }) * 1e3
            / coeffs;
        m.set("math.from_seed.ns_per_coeff", from_seed);

        KernelCosts {
            ntt_ns_per_coeff: (ntt_fwd + ntt_inv) / 2.0,
            bconv_ns_per_mac: bconv,
            ewise_ns_per_coeff: mul_add,
        }
    }
}

/// Streaming copy bandwidth over a buffer larger than the last-level
/// cache: the rate at which resident evaluation keys can be read.
pub fn memcpy_gbps(quick: bool) -> f64 {
    let src = vec![1u64; 4 << 20];
    let mut dst = vec![0u64; 4 << 20];
    let us = median_us(quick, || dst.copy_from_slice(black_box(&src)));
    (src.len() * 8) as f64 / (us * 1e3)
}

/// Kernel unit costs an estimate multiplies counts with.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    pub ntt_ns_per_coeff: f64,
    pub bconv_ns_per_mac: f64,
    pub ewise_ns_per_coeff: f64,
}

/// The modular-multiplication counts of one trace op, from
/// `ark_workloads::counts`. Ops that multiply nothing (additions,
/// scalar ops) count the words they touch under `other`, because the
/// element-wise estimate prices words.
fn op_counts(op: &HeOp, params: &CkksParams) -> MultBreakdown {
    let words = |polys: usize, level: usize| MultBreakdown {
        other: polys * (level + 1) * params.n(),
        ..MultBreakdown::default()
    };
    match *op {
        HeOp::HMult { level } => counts::hmult_breakdown(params, level),
        HeOp::PMult { level, .. } => counts::pmult_breakdown(params, level, false),
        HeOp::HRot { level, .. } | HeOp::HConj { level } => counts::hrot_breakdown(params, level),
        HeOp::HRotHoisted {
            level,
            fresh_digits,
            ..
        } => counts::hrot_hoisted_breakdown(params, level, fresh_digits),
        HeOp::HRescale { level } => counts::rescale_breakdown(params, level),
        HeOp::HAdd { level } | HeOp::CMult { level } => words(2, level),
        HeOp::PAdd { level, .. } | HeOp::CAdd { level } => words(1, level),
        // both polynomials: one limb to coefficients, all limbs back
        HeOp::ModRaise => MultBreakdown {
            ntt: 2 * (params.max_level + 2) * counts::ntt_mults_per_limb(params.n()),
            ..MultBreakdown::default()
        },
    }
}

/// `math.*.est_ms` and `ckks.evk_read_mib_per_job` of one job's trace:
/// unit cost times analytic count. Estimates, not measurements.
pub fn kernel_estimates(
    trace: &Trace,
    params: &CkksParams,
    costs: KernelCosts,
    execute_ms: f64,
    m: &mut Metrics,
) {
    let total = trace
        .ops()
        .iter()
        .fold(MultBreakdown::default(), |acc, op| {
            acc.add(&op_counts(op, params))
        });
    let n = params.n();
    let limb_ntts = total.ntt as f64 / counts::ntt_mults_per_limb(n) as f64;
    let ntt_ms = limb_ntts * n as f64 * costs.ntt_ns_per_coeff / 1e6;
    let bconv_ms = total.bconv as f64 * costs.bconv_ns_per_mac / 1e6;
    let ewise_ms = (total.evk_mult + total.other) as f64 * costs.ewise_ns_per_coeff / 1e6;
    m.set("math.ntt.est_ms", ntt_ms);
    m.set("math.bconv.est_ms", bconv_ms);
    m.set("math.ewise.est_ms", ewise_ms);
    m.set(
        "math.kernel_unattributed_ms",
        execute_ms - ntt_ms - bconv_ms - ewise_ms,
    );
    let evk_words: usize = trace
        .ops()
        .iter()
        .filter(|op| op.is_key_switch())
        .map(|op| counts::evk_words_at_level(params, op.level()))
        .sum();
    m.set("ckks.evk_read_mib_per_job", (evk_words * 8) as f64 / MIB);
}

/// `core.sim_*` and `core.util.*` summed over simulation reports.
pub fn sim_metrics(reports: &[&SimReport], m: &mut Metrics) {
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    m.set("core.sim_cycles", cycles as f64);
    m.set(
        "core.sim_hbm_mib",
        reports.iter().map(|r| r.hbm_bytes()).sum::<u64>() as f64 / MIB,
    );
    m.set(
        "core.sim_mod_mults",
        reports.iter().map(|r| r.mod_mults).sum::<u64>() as f64,
    );
    for (name, resource) in [
        ("core.util.nttu", Resource::Nttu),
        ("core.util.bconvu", Resource::BconvU),
        ("core.util.autou", Resource::AutoU),
        ("core.util.madu", Resource::Madu),
        ("core.util.hbm", Resource::Hbm),
    ] {
        let busy: u64 = reports
            .iter()
            .map(|r| r.busy.get(&resource).copied().unwrap_or(0))
            .sum();
        m.set(name, busy as f64 / cycles.max(1) as f64);
    }
}

/// Costs a job's recorded trace on the simulated ARK: the software
/// backend's op shares can be set against the model's for one program.
pub fn simulate_job_trace(trace: &Trace, params: &CkksParams, quick: bool, m: &mut Metrics) {
    let cfg = ArkConfig::base();
    let graph = ark_core::compile(trace, params, &cfg, CompileOptions::all_on());
    let report = ark_core::simulate(&graph, &cfg, params.n());
    m.set(
        "core.compile_ms",
        median_us(quick, || {
            black_box(ark_core::compile(
                trace,
                params,
                &cfg,
                CompileOptions::all_on(),
            ));
        }) / 1e3,
    );
    m.set(
        "core.sched_ms",
        median_us(quick, || {
            black_box(ark_core::simulate(&graph, &cfg, params.n()));
        }) / 1e3,
    );
    sim_metrics(&[&report], m);
    m.set("workloads.trace_ops", trace.len() as f64);
}

/// Sizes of one job's request and response bodies as the transport
/// carries them: the v4 envelope around the frame, after the length
/// prefix.
pub struct WireSizes {
    pub request_body: usize,
    pub response_body: usize,
}

impl WireSizes {
    pub fn of(engine: &Engine, set: &JobSet) -> WireSizes {
        let ctx = engine.context().expect("software engine");
        let request =
            ark_client::core::evaluate_frame(engine.fingerprint(), &set.program, &set.inputs, ctx)
                .expect("input count fits the wire");
        let mut payload = Vec::new();
        ark_math::wire::put_u16(&mut payload, set.reference.len() as u16);
        for ct in &set.reference {
            payload.extend_from_slice(&ckks_wire::write_ciphertext(ctx, ct));
        }
        let response = ark_math::wire::write_frame(
            ark_client::protocol::msg::RESULT_CTS,
            engine.fingerprint(),
            &payload,
        );
        WireSizes {
            request_body: ark_client::protocol::ENVELOPE_LEN + request.len(),
            response_body: ark_client::protocol::ENVELOPE_LEN + response.len(),
        }
    }

    /// Bytes on the socket per job: both bodies and their prefixes.
    pub fn total(&self) -> u64 {
        (4 + self.request_body + 4 + self.response_body) as u64
    }
}

/// `verify.*`, `client.program_*` and `net.*buf*`: the admission and
/// codec stages a served job passes, replayed on one input set.
/// Returns the microseconds a server spends outside execution on the
/// replayable stages: program decode, input decode, verify, output
/// encode.
pub fn stage_costs(engine: &Engine, set: &JobSet, quick: bool, m: &mut Metrics) -> f64 {
    let ctx = engine.context().expect("software engine");
    let verifier = engine.verify_context();
    let specs: Vec<AbstractInput> = set
        .inputs
        .iter()
        .map(|ct| AbstractInput::with_scale(ct.level, ct.scale))
        .collect();
    let report = verifier.verify(&specs, &set.program);
    let verify_us = median_us(quick, || {
        black_box(verifier.verify(&specs, &set.program));
    });
    m.set("verify.program_us", verify_us);
    m.set("verify.peak_live_units", report.peak_live_units as f64);
    m.set(
        "verify.worst_case_units",
        set.program.worst_case_units(report.digit_units) as f64,
    );

    let mut encoded = Vec::new();
    set.program.encode(&mut encoded);
    let encode_us = median_us(quick, || {
        let mut out = Vec::with_capacity(encoded.len());
        set.program.encode(&mut out);
        black_box(out);
    });
    let decode_us = median_us(quick, || {
        black_box(Program::decode(&mut Cursor::new(&encoded)).expect("own encoding decodes"));
    });
    m.set("client.program_encode_us", encode_us);
    m.set("client.program_decode_us", decode_us);
    m.set("client.program_kib", encoded.len() as f64 / 1024.0);

    let sizes = WireSizes::of(engine, set);
    let mut message = (sizes.request_body as u32).to_le_bytes().to_vec();
    message.resize(4 + sizes.request_body, 0x5a);
    m.set(
        "net.framebuf_reassemble_us",
        median_us(quick, || {
            // the reactor's read size
            let mut buf = FrameBuf::new(sizes.request_body);
            for chunk in message.chunks(64 << 10) {
                buf.push_bytes(chunk);
            }
            black_box(buf.next_message().expect("length is in range"));
        }),
    );
    let body = vec![0x5au8; sizes.response_body];
    m.set(
        "net.outbuf_flush_us",
        median_us(quick, || {
            let mut out = OutBuf::new();
            out.push_message(body.clone()).expect("body fits a message");
            out.flush(&mut std::io::sink())
                .expect("a sink accepts everything");
        }),
    );

    let frames: Vec<Vec<u8>> = set
        .inputs
        .iter()
        .map(|ct| ckks_wire::write_ciphertext(ctx, ct))
        .collect();
    let inputs_decode_us = median_us(quick, || {
        for frame in &frames {
            black_box(ckks_wire::read_ciphertext_prefix(ctx, frame).expect("own frame decodes"));
        }
    });
    let outputs_encode_us = median_us(quick, || {
        for ct in &set.reference {
            black_box(ckks_wire::write_ciphertext(ctx, ct));
        }
    });
    decode_us + inputs_decode_us + verify_us + outputs_encode_us
}
