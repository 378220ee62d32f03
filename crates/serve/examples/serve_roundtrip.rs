//! Loopback serving round-trip: encrypt in the client, evaluate in the
//! server, decrypt in the client — on both backends.
//!
//! One process plays both roles over a real TCP socket on localhost:
//!
//! 1. The **server** hosts two engines: a software engine at
//!    functional (reduced-degree) parameters and a simulated engine at
//!    paper-scale ARK parameters. It generates its key chains once and
//!    shares them across every session.
//! 2. The **client** builds the same-seed software engine — the demo's
//!    stand-in for a key-distribution ceremony, giving it the matching
//!    secret key — encrypts its inputs locally, ships the ciphertext
//!    *bytes* through the wire format, and decrypts the returned bytes
//!    locally. Plaintext never crosses the socket.
//! 3. The same serialized program is then costed on the simulated
//!    engine at ARK scale, returning a cycle-level report over the
//!    wire.
//!
//! ```sh
//! cargo run --release -p ark-serve --example serve_roundtrip
//! ```

use ark_ckks::wire as ckks_wire;
use ark_fhe::arch::ArkConfig;
use ark_fhe::ckks::encoding::max_error;
use ark_fhe::ckks::params::CkksParams;
use ark_fhe::engine::{Backend, Engine};
use ark_fhe::error::ArkError;
use ark_fhe::math::cfft::C64;
use ark_serve::{Client, Program, Server, ServerConfig};

fn main() -> Result<(), ArkError> {
    let params = CkksParams::small();
    let seed = 2022;

    // ---- server side: one engine per parameter set, keys generated
    // once and shared across all sessions --------------------------------
    let software = Engine::builder()
        .params(params.clone())
        .backend(Backend::Software)
        .rotations(&[1])
        .seed(seed)
        .build()?;
    let simulated = Engine::builder()
        .params(CkksParams::ark())
        .backend(Backend::Simulated(ArkConfig::base()))
        .rotations(&[1])
        .build()?;
    let sw_fp = software.fingerprint();
    let sim_fp = simulated.fingerprint();
    // loopback demo: the client is allowed to tear the server down
    // (off by default — any peer could otherwise kill every session)
    let handle = Server::with_config(ServerConfig {
        allow_remote_shutdown: true,
        ..ServerConfig::default()
    })
    .host(software)?
    .host(simulated)?
    .serve("127.0.0.1:0")
    .map_err(|e| ArkError::Serve {
        reason: format!("bind: {e}"),
    })?;
    println!("server listening on {}", handle.addr());
    for info in handle.engines() {
        println!(
            "  engine {:#018x}: {} backend, N = 2^{}, L = {}, resident keys = {:.1} MiB",
            info.fingerprint,
            if info.software {
                "software"
            } else {
                "simulated"
            },
            info.log_n,
            info.max_level,
            info.keychain_bytes as f64 / (1 << 20) as f64
        );
    }

    // ---- client side: same-seed engine = same key material -------------
    let mut local = Engine::builder()
        .params(params)
        .backend(Backend::Software)
        .rotations(&[1])
        .seed(seed)
        .build()?;
    let slots = local.params().slots();
    let mut client = Client::connect(handle.addr())?;

    // a standalone codec context (same params ⇒ same deterministic
    // prime chain), so the borrow of `local` stays free for
    // encrypt/decrypt below
    let ctx = ark_fhe::ckks::CkksContext::new(local.params().clone());

    // sanity: the server's public key, fetched over the wire, is the
    // very key the same-seed local session derived
    let remote_pk = client.public_key(sw_fp, &ctx)?;
    assert_eq!(
        &remote_pk,
        local.keychain().unwrap().public_key(),
        "same-seed sessions must derive the same public key"
    );
    println!(
        "\nfetched server public key: {} bytes (seed + B limbs, as held and as shipped), \
         matches the local session",
        remote_pk.byte_len()
    );

    // evaluation keys travel the same way: seed + B halves only, the
    // very keys the server evaluates with (no expansion on arrival)
    let (remote_mult, remote_rot) = client.eval_keys(sw_fp, &ctx)?;
    println!(
        "fetched eval keys: mult {} KiB + {} rotation keys {} KiB (seed + B halves)",
        remote_mult.byte_len() >> 10,
        remote_rot.len(),
        remote_rot.byte_len() >> 10,
    );

    // the program, written once, serialized for the wire:
    // rot((x + y) · x, 1)
    let mut program = Program::new(2);
    let (x, y) = (program.reg(0), program.reg(1));
    let sum = program.add(x, y);
    let prod = program.mul_rescale(sum, x);
    let out = program.rotate(prod, 1);
    program.output(out);

    // encrypt locally, evaluate remotely on the software engine
    let xs: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.5 * (i as f64 / 10.0).sin(), 0.0))
        .collect();
    let ys: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.25 + 0.001 * i as f64, 0.0))
        .collect();
    let level = 4;
    let ct_x = local.encrypt(&xs, level)?;
    let ct_y = local.encrypt(&ys, level)?;
    println!(
        "shipping 2 ciphertexts ({} bytes each on the wire)",
        ckks_wire::ciphertext_frame_len(&ctx, &ct_x)
    );
    let results = client.evaluate(sw_fp, &program, &[ct_x, ct_y], &ctx)?;

    // decrypt locally and check against the plaintext reference
    let decrypted = local.decrypt(&results[0])?;
    let expect: Vec<C64> = (0..slots)
        .map(|i| {
            let j = (i + 1) % slots;
            (xs[j] + ys[j]) * xs[j]
        })
        .collect();
    let err = max_error(&expect, &decrypted);
    println!("remote evaluation of rot((x + y)·x, 1): max slot error {err:.2e}");
    assert!(err < 1e-4, "unexpectedly large error: {err:.2e}");

    // ---- the same program, costed at ARK scale on the simulated
    // engine ---------------------------------------------------------
    let sim_level = 23;
    let report = client.simulate(sim_fp, &program, &[sim_level, sim_level])?;
    println!("\nsimulated at ARK parameters (N = 2^16, L = 23):");
    println!("{report}");
    assert!(report.cycles > 0);

    // graceful shutdown initiated from the client
    client.shutdown_server()?;
    handle.wait();
    println!("server drained and shut down cleanly");
    Ok(())
}
