//! Regenerates the checked-in fuzz corpora from the real encoders —
//! run from the workspace root after a wire-format change:
//!
//! ```text
//! cargo run -p ark-fuzz --bin gen_corpus
//! ```
//!
//! Regression entries added by hand after a fuzz find (named
//! `regress-*.bin`) are never overwritten.

use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::wire as ckks_wire;
use ark_ckks::Ciphertext;
use ark_client::core::{evaluate_frame, simulate_frame};
use ark_client::program::Program;
use ark_client::protocol::{
    busy_frame, code, envelope, error_frame, server_info_frame, stats_frame, EngineInfo,
    PROTOCOL_VERSION,
};
use ark_fhe::engine::RotateSumTerm;
use ark_math::cfft::C64;
use ark_math::poly::{Representation, RnsPoly};
use ark_math::wire::write_frame;
use std::path::Path;

fn sample_program() -> Program {
    let mut p = Program::new(2);
    let a = p.reg(0);
    let b = p.reg(1);
    let s = p.add(a, b);
    let sq = p.mul_rescale(s, s);
    let r = p.rotate(sq, 1);
    let c = p.conjugate(r);
    let d = p.mul_const(c, 0.5);
    let e = p.add_const(d, 1.25);
    let f = p.mod_drop_to(e, 0);
    p.output(f);
    p
}

fn wide_program() -> Program {
    let mut p = Program::new(1);
    let x = p.reg(0);
    let sq = p.square(x);
    let rs = p.rotate_sum(
        sq,
        vec![
            RotateSumTerm {
                amount: 1,
                weights: vec![Default::default(); 4],
            },
            RotateSumTerm {
                amount: -2,
                weights: vec![C64 { re: 0.5, im: 0.0 }; 4],
            },
        ],
    );
    let b = p.bootstrap(rs);
    // a complex vector: the others ship in the real form
    let pl = p.mul_plain_rescale(b, vec![C64::new(0.25, -0.5); 4]);
    p.output(pl);
    p
}

/// One input through a real-weighted plaintext product and a rotation.
fn one_input_program() -> Program {
    let mut p = Program::new(1);
    let x = p.reg(0);
    let weights = (0..8).map(|i| C64::new(0.125 * i as f64, 0.0)).collect();
    let m = p.mul_plain_rescale(x, weights);
    let r = p.rotate(m, 3);
    p.output(r);
    p
}

/// A well-formed top-level ciphertext of `ctx` with seeded uniform
/// residues, without an RNG dependency: the shape a client uploads,
/// with no seed hint, so its `A` ships in full.
fn full_ciphertext(ctx: &CkksContext) -> Ciphertext {
    let level = ctx.params().max_level;
    let poly = |seed| {
        RnsPoly::from_seed(
            ctx.basis(),
            ctx.chain_indices(level),
            Representation::Evaluation,
            seed,
        )
    };
    Ciphertext::new(poly(0xb), poly(0xa), level, ctx.params().scale())
}

/// [`full_ciphertext`] with the seed its `A` expanded from: what a
/// fresh symmetric encryption uploads, `A` as 8 bytes.
fn seeded_ciphertext(ctx: &CkksContext) -> Ciphertext {
    Ciphertext {
        a_seed: Some(0xa),
        ..full_ciphertext(ctx)
    }
}

fn message(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

fn engines() -> Vec<EngineInfo> {
    vec![
        EngineInfo {
            fingerprint: 0xabcd,
            software: true,
            log_n: 10,
            max_level: 9,
            keychain_bytes: 4096,
        },
        EngineInfo {
            fingerprint: 0xbeef,
            software: false,
            log_n: 16,
            max_level: 23,
            keychain_bytes: 0,
        },
    ]
}

fn write(dir: &Path, name: &str, bytes: &[u8]) {
    std::fs::create_dir_all(dir).expect("corpus dir");
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("corpus entry written");
    println!("wrote {} ({} bytes)", path.display(), bytes.len());
}

fn main() {
    let root = if Path::new("fuzz").is_dir() {
        Path::new("fuzz/corpus").to_path_buf()
    } else {
        Path::new("corpus").to_path_buf()
    };
    let ctx = CkksContext::new(CkksParams::tiny());
    let fp = ckks_wire::param_fingerprint(ctx.params());

    // --- frame: well-formed frames of several kinds ------------------
    let dir = root.join("frame");
    write(&dir, "000-busy.bin", &busy_frame(250));
    write(
        &dir,
        "001-error.bin",
        &error_frame(code::EVALUATION, "level mismatch at op 3"),
    );
    let counters = vec![
        ("sessions_accepted".to_string(), 12u64),
        ("shard0.jobs_executed".to_string(), u64::MAX),
    ];
    write(&dir, "002-stats.bin", &stats_frame(&counters));
    write(&dir, "003-server-info.bin", &server_info_frame(&engines()));
    write(
        &dir,
        "004-evaluate.bin",
        &evaluate_frame(fp, &sample_program(), &[], &ctx).expect("encodes"),
    );
    write(
        &dir,
        "005-simulate.bin",
        &simulate_frame(0xbeef, &wide_program(), &[9, 9]).expect("encodes"),
    );
    write(
        &dir,
        "006-empty-payload.bin",
        &write_frame(ark_math::wire::kind::RNS_POLY, fp, &[]),
    );
    // a bare ciphertext payload, which `fuzz_frame` also decodes as
    // one: its mutations reach the limb-row decoder, not a checksum
    let ct = full_ciphertext(&ctx);
    let mut payload = Vec::new();
    ckks_wire::encode_ciphertext(&mut payload, &ctx, &ct);
    write(&dir, "007-ciphertext-payload.bin", &payload);
    write(
        &dir,
        "008-evaluate-one-input.bin",
        &evaluate_frame(fp, &one_input_program(), &[ct], &ctx).expect("encodes"),
    );
    // the same two with `A` in the seeded slot: the bare payload's
    // mutations reach `decode_ciphertext`'s seeded branch
    let ct = seeded_ciphertext(&ctx);
    let mut payload = Vec::new();
    ckks_wire::encode_ciphertext(&mut payload, &ctx, &ct);
    write(&dir, "009-seeded-ciphertext-payload.bin", &payload);
    write(
        &dir,
        "010-evaluate-seeded-input.bin",
        &evaluate_frame(fp, &one_input_program(), &[ct], &ctx).expect("encodes"),
    );

    // --- program: encoded IR ----------------------------------------
    let dir = root.join("program");
    let mut bytes = Vec::new();
    sample_program().encode(&mut bytes);
    write(&dir, "000-arith.bin", &bytes);
    let mut bytes = Vec::new();
    wide_program().encode(&mut bytes);
    write(&dir, "001-rotsum-boot.bin", &bytes);
    let mut empty = Vec::new();
    Program::new(0).encode(&mut empty);
    write(&dir, "002-empty.bin", &empty);

    // --- ingest: full session byte streams ---------------------------
    let dir = root.join("ingest");
    let hello_reply = message(&server_info_frame(&engines()));
    write(&dir, "000-handshake.bin", &hello_reply);

    let mut session = hello_reply.clone();
    session.extend_from_slice(&message(&envelope(1, &stats_frame(&counters))));
    session.extend_from_slice(&message(&envelope(2, &busy_frame(15))));
    session.extend_from_slice(&message(&envelope(
        3,
        &error_frame(code::SESSION_LIMIT, "budget exceeded"),
    )));
    write(&dir, "001-session.bin", &session);

    // a bare response on a handshaken session: hostile input that must
    // end in a typed error and a poisoned core
    let mut bare = hello_reply;
    bare.extend_from_slice(&message(&stats_frame(&counters)));
    write(&dir, "002-bare-after-handshake.bin", &bare);

    // the server refusing a HELLO of the previous protocol version
    let reject = message(&error_frame(
        code::PROTOCOL,
        &format!(
            "client speaks protocol {}, server speaks protocol {PROTOCOL_VERSION}",
            PROTOCOL_VERSION - 1
        ),
    ));
    write(&dir, "003-version-reject.bin", &reject);
}
