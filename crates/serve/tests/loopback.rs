//! End-to-end loopback tests of the serving runtime: real TCP on
//! localhost, real ciphertext bytes, hostile inputs.

use ark_ckks::error::ArkError;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_fhe::arch::ArkConfig;
use ark_fhe::ckks::encoding::max_error;
use ark_fhe::engine::{Backend, Engine};
use ark_fhe::math::cfft::C64;
use ark_math::wire::{read_frame, write_frame};
use ark_serve::protocol::{self, msg, Recv, DEFAULT_MAX_FRAME_BYTES};
use ark_serve::server::ServerConfig;
use ark_serve::{Client, Program, Server, ServerHandle};
use std::net::TcpStream;

const SEED: u64 = 97;

fn software_engine() -> Engine {
    Engine::builder()
        .params(CkksParams::tiny())
        .backend(Backend::Software)
        .rotations(&[1])
        .seed(SEED)
        .build()
        .unwrap()
}

fn simulated_engine() -> Engine {
    Engine::builder()
        .params(CkksParams::ark())
        .backend(Backend::Simulated(ArkConfig::base()))
        .rotations(&[1])
        .build()
        .unwrap()
}

fn start_server(config: ServerConfig) -> (ServerHandle, u64, u64) {
    let sw = software_engine();
    let sim = simulated_engine();
    let (sw_fp, sim_fp) = (sw.fingerprint(), sim.fingerprint());
    let handle = Server::with_config(config)
        .host(sw)
        .unwrap()
        .host(sim)
        .unwrap()
        .serve("127.0.0.1:0")
        .unwrap();
    (handle, sw_fp, sim_fp)
}

/// `rot((x + y)·x, 1)` as a shippable program.
fn sample_program() -> Program {
    let mut p = Program::new(2);
    let (x, y) = (p.reg(0), p.reg(1));
    let s = p.add(x, y);
    let m = p.mul_rescale(s, x);
    let r = p.rotate(m, 1);
    p.output(r);
    p
}

#[test]
fn roundtrip_on_both_backends() {
    let (handle, sw_fp, sim_fp) = start_server(ServerConfig::default());
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let slots = local.params().slots();
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(client.engines().len(), 2);
    assert!(client.engine(sw_fp).unwrap().software);
    assert!(!client.engine(sim_fp).unwrap().software);
    assert!(client.engine(sw_fp).unwrap().keychain_bytes > 0);

    // software: encrypt here, evaluate there, decrypt here
    let xs: Vec<C64> = (0..slots).map(|i| C64::new(0.1 * i as f64, 0.0)).collect();
    let ys: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.3 - 0.01 * i as f64, 0.0))
        .collect();
    let ct_x = local.encrypt(&xs, 2).unwrap();
    let ct_y = local.encrypt(&ys, 2).unwrap();
    let outs = client
        .evaluate(sw_fp, &sample_program(), &[ct_x, ct_y], &ctx)
        .unwrap();
    assert_eq!(outs.len(), 1);
    let got = local.decrypt(&outs[0]).unwrap();
    let want: Vec<C64> = (0..slots)
        .map(|i| {
            let j = (i + 1) % slots;
            (xs[j] + ys[j]) * xs[j]
        })
        .collect();
    assert!(max_error(&want, &got) < 1e-3);

    // simulated: same program, costed at ARK scale
    let report = client
        .simulate(sim_fp, &sample_program(), &[23, 23])
        .unwrap();
    assert!(report.cycles > 0);
    assert!(report.seconds > 0.0);

    handle.shutdown();
}

#[test]
fn concurrent_sessions_share_one_keychain() {
    let (handle, sw_fp, _) = start_server(ServerConfig {
        shards: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut local = software_engine();
                let ctx = CkksContext::new(CkksParams::tiny());
                let slots = local.params().slots();
                let mut client = Client::connect(addr).unwrap();
                for round in 0..3 {
                    let xs: Vec<C64> = (0..slots)
                        .map(|i| C64::new(0.05 * (i + w + round) as f64, 0.0))
                        .collect();
                    let ys: Vec<C64> = (0..slots)
                        .map(|i| C64::new(0.2 + 0.01 * i as f64, 0.0))
                        .collect();
                    let ct_x = local.encrypt(&xs, 2).unwrap();
                    let ct_y = local.encrypt(&ys, 2).unwrap();
                    let outs = client
                        .evaluate(sw_fp, &sample_program(), &[ct_x, ct_y], &ctx)
                        .unwrap();
                    let got = local.decrypt(&outs[0]).unwrap();
                    let want: Vec<C64> = (0..slots)
                        .map(|i| {
                            let j = (i + 1) % slots;
                            (xs[j] + ys[j]) * xs[j]
                        })
                        .collect();
                    assert!(max_error(&want, &got) < 1e-3, "worker {w} round {round}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn key_distribution_ships_compressed_and_materializes_bit_identically() {
    let (handle, sw_fp, sim_fp) = start_server(ServerConfig::default());
    let local = software_engine();
    let kc = local.keychain().unwrap();
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut client = Client::connect(handle.addr()).unwrap();

    // the fetched public key materializes to exactly the key the
    // server holds (same fingerprint + same build seed here)
    let pk = client.public_key(sw_fp, &ctx).unwrap();
    assert_eq!(&pk, kc.public_key());

    // eval keys: mult + full rotation set, bit-identical after the
    // compress → wire → materialize trip
    let (mult, rotations) = client.eval_keys(sw_fp, &ctx).unwrap();
    assert_eq!(&mult, kc.mult_key());
    assert_eq!(
        rotations.galois_elements(),
        kc.rotation_keys().galois_elements()
    );
    for g in rotations.galois_elements() {
        assert_eq!(rotations.get_raw(g), kc.rotation_keys().get_raw(g));
    }

    // the compressed frames that traveled are at most 55% of what the
    // materialized codecs would have shipped
    use ark_fhe::ckks::wire as ckks_wire2;
    let compressed = ckks_wire2::write_compressed_eval_key(&ctx, &mult.compress().unwrap());
    let materialized = ckks_wire2::write_eval_key(&ctx, &mult);
    assert!(
        compressed.len() * 100 <= materialized.len() * 55,
        "{} vs {}",
        compressed.len(),
        materialized.len()
    );

    // the simulated backend holds no key material
    assert!(client.public_key(sim_fp, &ctx).is_err());
    assert!(client.eval_keys(sim_fp, &ctx).is_err());
    handle.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_not_panics() {
    let (handle, sw_fp, _) = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    // a length-prefixed message whose body is garbage (bad magic)
    protocol::send_message(&mut stream, &[0xde; 64]).unwrap();
    let Recv::Frame(resp) =
        protocol::recv_message(&mut stream, DEFAULT_MAX_FRAME_BYTES, &|| false).unwrap()
    else {
        panic!("expected an ERROR frame");
    };
    let (frame, _) = read_frame(&resp).unwrap();
    assert_eq!(frame.kind, msg::ERROR);

    // a valid frame with a corrupted (checksum-breaking) payload byte
    let mut evil = write_frame(msg::EVALUATE, sw_fp, &[1, 2, 3, 4]);
    let last = evil.len() - 9; // inside the payload
    evil[last] ^= 0xff;
    protocol::send_message(&mut stream, &evil).unwrap();
    let Recv::Frame(resp) =
        protocol::recv_message(&mut stream, DEFAULT_MAX_FRAME_BYTES, &|| false).unwrap()
    else {
        panic!("expected an ERROR frame");
    };
    let (frame, _) = read_frame(&resp).unwrap();
    assert_eq!(frame.kind, msg::ERROR);

    // the server survives: a real client still works afterwards
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.engines().len(), 2);
    let report = client
        .simulate(
            client.engines()[1].fingerprint,
            &sample_program(),
            &[23, 23],
        )
        .unwrap();
    assert!(report.cycles > 0);
    handle.shutdown();
}

#[test]
fn wrong_backend_and_unknown_engine_are_typed() {
    let (handle, sw_fp, sim_fp) = start_server(ServerConfig::default());
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut client = Client::connect(handle.addr()).unwrap();

    // EVALUATE against the simulated engine
    let ct = local.encrypt(&[C64::new(1.0, 0.0)], 2).unwrap();
    let err = client
        .evaluate(sim_fp, &sample_program(), &[ct.clone(), ct.clone()], &ctx)
        .unwrap_err();
    assert!(matches!(err, ArkError::Serve { ref reason } if reason.contains("unsupported")));

    // SIMULATE against the software engine
    let err = client
        .simulate(sw_fp, &sample_program(), &[2, 2])
        .unwrap_err();
    assert!(matches!(err, ArkError::Serve { ref reason } if reason.contains("unsupported")));

    // a fingerprint nobody hosts
    let err = client
        .evaluate(0x1234, &sample_program(), &[ct.clone(), ct], &ctx)
        .unwrap_err();
    assert!(matches!(err, ArkError::Serve { ref reason } if reason.contains("unknown-engine")));

    // an in-scheme error surfaces with its own message: rotation key
    // that was never declared
    let mut p = Program::new(1);
    let x = p.reg(0);
    let r = p.rotate(x, 7);
    p.output(r);
    let ct = local.encrypt(&[C64::new(1.0, 0.0)], 2).unwrap();
    let err = client.evaluate(sw_fp, &p, &[ct], &ctx).unwrap_err();
    assert!(
        matches!(err, ArkError::Serve { ref reason } if reason.contains("rotation")),
        "got {err}"
    );
    handle.shutdown();
}

#[test]
fn overflowing_constant_bounces_at_admission_and_server_survives() {
    let (handle, sw_fp, _) = start_server(ServerConfig::default());
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let slots = local.params().slots();
    let mut client = Client::connect(handle.addr()).unwrap();

    // a finite-but-huge constant passes decode validation and would
    // trip the scheme's constant-overflow assert; it used to surface as
    // a contained shard panic ("evaluation aborted"), now admission
    // answers with the typed verify error and the server keeps serving
    let mut evil = Program::new(1);
    let x = evil.reg(0);
    let c = evil.add_const(x, 1.0e300);
    evil.output(c);
    let ct = local.encrypt(&[C64::new(1.0, 0.0)], 2).unwrap();
    let err = client.evaluate(sw_fp, &evil, &[ct], &ctx).unwrap_err();
    assert!(
        matches!(err, ArkError::Serve { ref reason }
            if reason.contains("(verify)") && reason.contains("overflows")),
        "got {err}"
    );

    // the dispatcher is still alive: a good request on the same
    // connection succeeds afterwards
    let xs: Vec<C64> = (0..slots).map(|i| C64::new(0.02 * i as f64, 0.0)).collect();
    let ys: Vec<C64> = (0..slots).map(|_| C64::new(0.1, 0.0)).collect();
    let ct_x = local.encrypt(&xs, 2).unwrap();
    let ct_y = local.encrypt(&ys, 2).unwrap();
    let outs = client
        .evaluate(sw_fp, &sample_program(), &[ct_x, ct_y], &ctx)
        .unwrap();
    let got = local.decrypt(&outs[0]).unwrap();
    let want: Vec<C64> = (0..slots)
        .map(|i| {
            let j = (i + 1) % slots;
            (xs[j] + ys[j]) * xs[j]
        })
        .collect();
    assert!(max_error(&want, &got) < 1e-3);
    handle.shutdown();
}

#[test]
fn session_memory_budget_is_enforced() {
    let (handle, sw_fp, _) = start_server(ServerConfig {
        // smaller than one tiny-params ciphertext (2 polys × 3 limbs × 32 × 8B)
        max_session_bytes: 512,
        ..ServerConfig::default()
    });
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut client = Client::connect(handle.addr()).unwrap();
    let ct_x = local.encrypt(&[C64::new(1.0, 0.0)], 2).unwrap();
    let ct_y = local.encrypt(&[C64::new(2.0, 0.0)], 2).unwrap();
    let err = client
        .evaluate(sw_fp, &sample_program(), &[ct_x, ct_y], &ctx)
        .unwrap_err();
    assert!(
        matches!(err, ArkError::Serve { ref reason } if reason.contains("session-limit")),
        "got {err}"
    );
    handle.shutdown();
}

#[test]
fn oversized_program_is_rejected_before_execution() {
    let (handle, sw_fp, _) = start_server(ServerConfig {
        max_program_ops: 16,
        ..ServerConfig::default()
    });
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut client = Client::connect(handle.addr()).unwrap();
    // decode-valid but over the server's op budget: evaluation keeps
    // one live register per op, so the cap bounds the working set
    let mut big = Program::new(1);
    let mut r = big.reg(0);
    for _ in 0..17 {
        r = big.negate(r);
    }
    big.output(r);
    let ct = local.encrypt(&[C64::new(1.0, 0.0)], 2).unwrap();
    let err = client.evaluate(sw_fp, &big, &[ct], &ctx).unwrap_err();
    assert!(
        matches!(err, ArkError::Serve { ref reason } if reason.contains("17 ops")),
        "got {err}"
    );
    handle.shutdown();
}

#[test]
fn v4_client_against_v3_only_server_fails_typed_not_hung() {
    // a server pinned to protocol 3 must reject a default (v4) client
    // during the handshake with a typed version error — the failure
    // mode is a prompt Err from connect, never a hang
    let (handle, sw_fp, _) = start_server(ServerConfig {
        max_protocol_version: 3,
        ..ServerConfig::default()
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let addr = handle.addr();
    std::thread::spawn(move || {
        let _ = tx.send(Client::connect(addr).map(|_| ()));
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("connect returned instead of hanging");
    match result {
        Err(ArkError::VersionMismatch { client, reason }) => {
            assert_eq!(client, protocol::PROTOCOL_VERSION);
            assert!(reason.contains("3..=3"), "reason: {reason}");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // a client that downgrades to v3 still gets full service
    let mut client = Client::builder()
        .protocol_version(3)
        .connect(handle.addr())
        .unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.iter().any(|(k, _)| k == "sessions_accepted"));
    assert!(client.engine(sw_fp).is_some());
    handle.shutdown();
}

#[test]
fn remote_shutdown_is_refused_by_default() {
    let (handle, _, sim_fp) = start_server(ServerConfig::default());
    let client = Client::connect(handle.addr()).unwrap();
    let err = client.shutdown_server().unwrap_err();
    assert!(
        matches!(err, ArkError::Serve { ref reason } if reason.contains("disabled")),
        "got {err}"
    );
    // the server is unharmed
    let mut client = Client::connect(handle.addr()).unwrap();
    let report = client
        .simulate(sim_fp, &sample_program(), &[23, 23])
        .unwrap();
    assert!(report.cycles > 0);
    handle.shutdown();
}

#[test]
fn client_initiated_shutdown_drains_cleanly() {
    let (handle, _, sim_fp) = start_server(ServerConfig {
        allow_remote_shutdown: true,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let report = client
        .simulate(sim_fp, &sample_program(), &[23, 23])
        .unwrap();
    assert!(report.cycles > 0);
    client.shutdown_server().unwrap();
    // wait() returns only once every server thread is joined
    handle.wait();
    // new connections are refused or go unanswered now; either way no
    // handshake completes
    assert!(Client::connect(addr).is_err());
}
