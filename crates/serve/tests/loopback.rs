//! End-to-end loopback tests of the serving runtime: real TCP on
//! localhost, real ciphertext bytes, hostile inputs.

mod common;

use ark_ckks::error::ArkError;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::wire as ckks_wire;
use ark_client::core::{decode_result_cts, evaluate_frame};
use ark_client::protocol::{self, code, msg, ENVELOPE_LEN, PROTOCOL_VERSION};
use ark_fhe::arch::ArkConfig;
use ark_fhe::ckks::encoding::max_error;
use ark_fhe::engine::{Backend, Engine};
use ark_fhe::math::cfft::C64;
use ark_math::wire::{checksum, put_u16, read_frame, write_frame, Cursor, CHECKSUM_LEN};
use ark_serve::server::ServerConfig;
use ark_serve::{Client, Program, Server, ServerHandle};
use common::{recv, send};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

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
fn key_distribution_ships_the_held_keys_bit_identically() {
    let (handle, sw_fp, sim_fp) = start_server(ServerConfig::default());
    let local = software_engine();
    let kc = local.keychain().unwrap();
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut client = Client::connect(handle.addr()).unwrap();

    // the fetched public key is exactly the key the server holds (same
    // fingerprint + same build seed here)
    let pk = client.public_key(sw_fp, &ctx).unwrap();
    assert_eq!(&pk, kc.public_key());

    // eval keys: mult + the declared rotation set, bit-identical after
    // the wire trip
    let (mult, rotations) = client.eval_keys(sw_fp, &ctx).unwrap();
    assert_eq!(&mult, kc.mult_key());
    let fetched: Vec<_> = rotations.iter().collect();
    assert_eq!(fetched, kc.declared_rotation_keys());
    assert!(!fetched.is_empty());

    // the frame that traveled carries the seed and the `B` halves only:
    // at most 55% of a key that stores its `A` halves (Table III)
    let mut payload = Vec::new();
    ckks_wire::encode_compressed_eval_key(&mut payload, &ctx, &mult);
    let frame = write_frame(
        ark_math::wire::kind::COMPRESSED_EVAL_KEY,
        ckks_wire::param_fingerprint(ctx.params()),
        &payload,
    );
    assert!(
        frame.len() * 100 <= ctx.params().evk_bytes() * 55,
        "{} vs {}",
        frame.len(),
        ctx.params().evk_bytes()
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
    send(&mut stream, &[0xde; 64]).unwrap();
    let resp = recv(&mut stream).unwrap();
    let (frame, _) = read_frame(&resp).unwrap();
    assert_eq!(frame.kind, msg::ERROR);

    // a valid frame with a corrupted (checksum-breaking) payload byte
    let mut evil = write_frame(msg::EVALUATE, sw_fp, &[1, 2, 3, 4]);
    let last = evil.len() - 9; // inside the payload
    evil[last] ^= 0xff;
    send(&mut stream, &evil).unwrap();
    let resp = recv(&mut stream).unwrap();
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

// ---------------------------------------------------------------------
// the handshake state table, over a raw socket
// ---------------------------------------------------------------------

/// A raw peer whose reads fail after 10 s: a server that hangs instead
/// of answering fails the test, it does not wedge it.
fn raw_peer(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn hello(version: u16) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u16(&mut payload, version);
    write_frame(msg::HELLO, 0, &payload)
}

/// Sends `HELLO(PROTOCOL_VERSION)` and expects the bare `SERVER_INFO`.
fn handshake(stream: &mut TcpStream) {
    send(stream, &hello(PROTOCOL_VERSION)).unwrap();
    let reply = recv(stream).expect("the handshake is answered");
    assert_eq!(read_frame(&reply).unwrap().0.kind, msg::SERVER_INFO);
}

/// Receives one enveloped response: `(request id, frame)`.
fn recv_enveloped(stream: &mut TcpStream) -> (u64, Vec<u8>) {
    let reply = recv(stream).expect("a response within the deadline");
    let (id, frame) = protocol::split_envelope(&reply).expect("an enveloped response");
    (id, frame.to_vec())
}

/// Decodes a bare `ERROR` frame into `(code, message)`.
fn error_of(frame: &[u8]) -> (u16, String) {
    let (frame, _) = read_frame(frame).expect("a well-formed bare frame");
    assert_eq!(frame.kind, msg::ERROR);
    protocol::decode_error(&mut Cursor::new(frame.payload)).unwrap()
}

#[test]
fn a_v5_peer_is_refused_typed() {
    let (handle, _, _) = start_server(ServerConfig::default());
    let mut peer = raw_peer(handle.addr());

    // HELLO(5) in a current frame: the version it names is refused
    send(&mut peer, &hello(5)).unwrap();
    let (c, reason) = error_of(&recv(&mut peer).expect("a refusal"));
    assert_eq!(c, code::PROTOCOL);
    assert_eq!(
        reason, "client speaks protocol 5, server speaks protocol 6",
        "reason: {reason}"
    );

    // the bytes a v5 client sends: HELLO(5) in a version-2 frame, whose
    // checksum is the same XXH64. The frame version is refused before
    // the checksum is read.
    let mut v5_hello = hello(5);
    v5_hello[4..6].copy_from_slice(&2u16.to_le_bytes());
    let end = v5_hello.len() - CHECKSUM_LEN;
    let sum = checksum(&v5_hello[..end]);
    v5_hello[end..].copy_from_slice(&sum.to_le_bytes());
    send(&mut peer, &v5_hello).unwrap();
    let (c, reason) = error_of(&recv(&mut peer).expect("a refusal"));
    assert_eq!(c, code::WIRE);
    assert!(
        reason.contains("unsupported wire version 2 (reader speaks 3)"),
        "reason: {reason}"
    );

    // neither refusal cost the connection
    handshake(&mut peer);
    handle.shutdown();
}

#[test]
fn other_protocol_versions_are_refused_typed_not_hung() {
    let (handle, sw_fp, _) = start_server(ServerConfig::default());
    for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut peer = raw_peer(handle.addr());
        send(&mut peer, &hello(version)).unwrap();
        let reply = recv(&mut peer).expect("a refusal within the deadline, never a hang");
        let (c, reason) = error_of(&reply);
        assert_eq!(c, code::PROTOCOL);
        assert!(
            reason.contains(&format!("client speaks protocol {version}"))
                && reason.contains(&format!("server speaks protocol {PROTOCOL_VERSION}")),
            "reason: {reason}"
        );
        // the refusal did not cost the connection: the right version
        // still handshakes on it
        handshake(&mut peer);
    }
    // and a fresh client gets full service
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.engine(sw_fp).is_some());
    let stats = client.stats().unwrap();
    assert!(stats.iter().any(|(k, _)| k == "sessions_accepted"));
    handle.shutdown();
}

#[test]
fn handshake_order_violations_are_typed() {
    let (handle, _, _) = start_server(ServerConfig::default());
    let get_stats = write_frame(msg::GET_STATS, 0, &[]);

    // any first message but HELLO is refused, bare
    let mut peer = raw_peer(handle.addr());
    send(&mut peer, &get_stats).unwrap();
    let (c, reason) = error_of(&recv(&mut peer).unwrap());
    assert_eq!(c, code::PROTOCOL);
    assert!(reason.contains("expected HELLO"), "reason: {reason}");

    // a second HELLO after the handshake is refused under its id, and
    // the session goes on
    handshake(&mut peer);
    send(&mut peer, &protocol::envelope(7, &hello(PROTOCOL_VERSION))).unwrap();
    let (id, frame) = recv_enveloped(&mut peer);
    assert_eq!(id, 7);
    let (c, reason) = error_of(&frame);
    assert_eq!(c, code::PROTOCOL);
    assert!(reason.contains("HELLO after the handshake"), "{reason}");
    send(&mut peer, &protocol::envelope(8, &get_stats)).unwrap();
    let (id, frame) = recv_enveloped(&mut peer);
    assert_eq!(id, 8);
    assert_eq!(read_frame(&frame).unwrap().0.kind, msg::STATS);
    handle.shutdown();
}

#[test]
fn unenveloped_messages_after_the_handshake_are_typed() {
    let (handle, _, sim_fp) = start_server(ServerConfig::default());
    let get_stats = write_frame(msg::GET_STATS, 0, &[]);

    // a bare frame — what a peer of the previous protocol version
    // would send — is split at byte 8 like any message: what follows is
    // no frame, so the answer is a typed WIRE error under whatever id
    // the first 8 bytes spell, and the session stays usable
    let mut peer = raw_peer(handle.addr());
    handshake(&mut peer);
    send(&mut peer, &get_stats).unwrap();
    let (id, frame) = recv_enveloped(&mut peer);
    let spelled = u64::from_le_bytes(get_stats[..ENVELOPE_LEN].try_into().unwrap());
    assert_eq!(id, spelled);
    assert_eq!(error_of(&frame).0, code::WIRE);
    send(&mut peer, &protocol::envelope(9, &get_stats)).unwrap();
    let (id, frame) = recv_enveloped(&mut peer);
    assert_eq!(id, 9);
    assert_eq!(read_frame(&frame).unwrap().0.kind, msg::STATS);

    // a message too short to hold an id and a frame has lost framing:
    // one bare PROTOCOL error, then the connection is closed
    send(&mut peer, &[0xab; ENVELOPE_LEN]).unwrap();
    let (c, reason) = error_of(&recv(&mut peer).unwrap());
    assert_eq!(c, code::PROTOCOL);
    assert!(reason.contains("missing request-id envelope"), "{reason}");
    let closed = recv(&mut peer).unwrap_err().kind();
    assert!(
        matches!(
            closed,
            ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
        ),
        "expected a closed connection, got {closed:?}"
    );

    // every other session is untouched
    let mut client = Client::connect(handle.addr()).unwrap();
    let report = client
        .simulate(sim_fp, &sample_program(), &[23, 23])
        .unwrap();
    assert!(report.cycles > 0);
    handle.shutdown();
}

/// The server's read path enforces `max_frame_bytes` on the message
/// length prefix: a frame of exactly the cap (its message one envelope
/// longer) is served, and one byte more closes that connection on the
/// prefix alone, touching no other session.
#[test]
fn frame_cap_bounds_the_servers_read_path() {
    let max_frame_bytes = 4096;
    let (handle, _, sim_fp) = start_server(ServerConfig {
        max_frame_bytes,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let active = |client: &mut Client| {
        let stats = client.stats().unwrap();
        stats
            .iter()
            .find(|(k, _)| k == "sessions_active")
            .unwrap()
            .1
    };
    let before = active(&mut client);

    let mut peer = raw_peer(handle.addr());
    handshake(&mut peer);
    assert_eq!(active(&mut client), before + 1);
    // a GET_STATS frame padded to exactly the cap is answered
    let header_and_checksum = write_frame(msg::GET_STATS, 0, &[]).len();
    let at_cap = write_frame(
        msg::GET_STATS,
        0,
        &vec![0; max_frame_bytes - header_and_checksum],
    );
    assert_eq!(at_cap.len(), max_frame_bytes);
    let response = exchange(&mut peer, 5, &at_cap);
    assert_eq!(read_frame(&response).unwrap().0.kind, msg::STATS);

    // one byte more: the prefix alone, with no body byte behind it,
    // closes the connection unanswered
    let over = (max_frame_bytes + ENVELOPE_LEN + 1) as u32;
    peer.write_all(&over.to_le_bytes()).unwrap();
    let closed = recv(&mut peer).unwrap_err().kind();
    assert!(
        matches!(
            closed,
            ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
        ),
        "expected a closed connection with no reply, got {closed:?}"
    );

    // the other session still completes a job, and the closed one is
    // no longer counted
    let report = client
        .simulate(sim_fp, &sample_program(), &[23, 23])
        .unwrap();
    assert!(report.cycles > 0);
    assert_eq!(active(&mut client), before);
    handle.shutdown();
}

/// Sends `frame` under `id` and returns the one response, which must
/// echo the id.
fn exchange(peer: &mut TcpStream, id: u64, frame: &[u8]) -> Vec<u8> {
    send(peer, &protocol::envelope(id, frame)).unwrap();
    let (echoed, response) = recv_enveloped(peer);
    assert_eq!(echoed, id);
    response
}

#[test]
fn corrupted_evaluate_checksums_answer_wire_and_execute_nothing() {
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let ct_x = local.encrypt(&[C64::new(0.5, 0.0)], 2).unwrap();
    let ct_y = local.encrypt(&[C64::new(0.25, 0.0)], 2).unwrap();
    // room for one request's charges (two inputs, the working set, one
    // output), not for what twenty rejected requests would leak
    let (handle, sw_fp, _) = start_server(ServerConfig {
        shards: 2,
        max_session_bytes: 12 * ct_x.byte_len(),
        ..ServerConfig::default()
    });
    let mut program = Program::new(2);
    let sum = program.add(program.reg(0), program.reg(1));
    program.output(sum);
    let good = evaluate_frame(sw_fp, &program, &[ct_x, ct_y.clone()], &ctx).unwrap();

    // one flipped residue byte in the second input: as it is, the
    // request's checksum fails; resealed, only the nested frame's does
    let second_input = good.len() - CHECKSUM_LEN - ckks_wire::ciphertext_frame_len(&ctx, &ct_y);
    let mut outer_bad = good.clone();
    outer_bad[good.len() - 2 * CHECKSUM_LEN - 5] ^= 0x10;
    let mut inner_bad = outer_bad.clone();
    let end = inner_bad.len() - CHECKSUM_LEN;
    let sum = checksum(&inner_bad[..end]);
    inner_bad[end..].copy_from_slice(&sum.to_le_bytes());
    let outer_error = read_frame(&outer_bad).unwrap_err();
    assert!(read_frame(&inner_bad).is_ok());
    let inner_error = ArkError::Wire(read_frame(&inner_bad[second_input..]).unwrap_err());

    let mut peer = raw_peer(handle.addr());
    handshake(&mut peer);
    for round in 0..20 {
        let id = 100 + 2 * round;
        assert_eq!(
            error_of(&exchange(&mut peer, id, &outer_bad)),
            (code::WIRE, outer_error.to_string())
        );
        // the first input decoded and was charged before the second
        // failed: the guard gives it back
        assert_eq!(
            error_of(&exchange(&mut peer, id + 1, &inner_bad)),
            (code::WIRE, inner_error.to_string())
        );
    }
    let get_stats = write_frame(msg::GET_STATS, 0, &[]);
    let stats = |peer: &mut TcpStream, id: u64| {
        let response = exchange(peer, id, &get_stats);
        let counters =
            protocol::decode_stats(&mut Cursor::new(read_frame(&response).unwrap().0.payload))
                .unwrap();
        let sum = |suffix: &str| -> u64 {
            counters
                .iter()
                .filter(|(name, _)| name.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        (sum(".jobs_executed"), sum("ops.hadd"))
    };
    assert_eq!(stats(&mut peer, 1), (0, 0), "a rejected request ran");

    // the connection is still in step, and the budget is whole: the
    // intact request runs
    let response = exchange(&mut peer, 2, &good);
    let (frame, _) = read_frame(&response).unwrap();
    assert_eq!(frame.kind, msg::RESULT_CTS);
    let outputs = decode_result_cts(&ctx, frame.payload).unwrap();
    let got = local.decrypt(&outputs[0]).unwrap();
    assert!((got[0].re - 0.75).abs() < 1e-4, "got {}", got[0].re);
    assert_eq!(stats(&mut peer, 3), (1, 1));
    handle.shutdown();
}

#[test]
fn half_closed_peer_gets_every_pipelined_response_then_eof() {
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let ct_x = local.encrypt(&[C64::new(0.5, 0.0)], 2).unwrap();
    let ct_y = local.encrypt(&[C64::new(0.25, 0.0)], 2).unwrap();
    let (handle, sw_fp, _) = start_server(ServerConfig::default());
    let request = evaluate_frame(sw_fp, &sample_program(), &[ct_x, ct_y], &ctx).unwrap();

    // pipeline k jobs, then close the write side: the peer sends
    // nothing more but still reads
    let k = 6;
    let mut peer = raw_peer(handle.addr());
    handshake(&mut peer);
    for id in 0..k {
        send(&mut peer, &protocol::envelope(id, &request)).unwrap();
    }
    peer.shutdown(Shutdown::Write).unwrap();
    let mut ids: Vec<u64> = (0..k)
        .map(|_| {
            let (id, frame) = recv_enveloped(&mut peer);
            assert_eq!(read_frame(&frame).unwrap().0.kind, msg::RESULT_CTS);
            id
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..k).collect::<Vec<_>>());
    // every response is out, so the server closes its side
    assert_eq!(
        recv(&mut peer).unwrap_err().kind(),
        ErrorKind::UnexpectedEof
    );

    // and the session is gone: the asking client is the only one left
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    let active = stats.iter().find(|(k, _)| k == "sessions_active").unwrap();
    assert_eq!(active.1, 1, "stats: {stats:?}");
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
