//! Soak and stress tests of the sharded serving fabric: many
//! concurrent pipelined sessions, induced overload, stalled readers,
//! dead servers — plus a property test of the request-id envelope.
//!
//! The quick variants run in the normal suite; the 64-session soak is
//! `#[ignore]`d and runs in the nightly slow-tests lane
//! (`cargo test -p ark-serve -- --ignored`).

mod common;

use ark_ckks::error::ArkError;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_client::protocol::{self, msg, PROTOCOL_VERSION};
use ark_fhe::arch::ArkConfig;
use ark_fhe::engine::{Backend, Engine};
use ark_fhe::math::cfft::C64;
use ark_math::wire::{put_u16, write_frame};
use ark_serve::server::ServerConfig;
use ark_serve::{Client, Program, Server, ServerHandle};
use proptest::prelude::*;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SEED: u64 = 4242;

fn software_engine() -> Engine {
    Engine::builder()
        .params(CkksParams::tiny())
        .backend(Backend::Software)
        .rotations(&[1])
        .runtime_keys(true)
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

/// A second program shape so sessions mix work: `rot(x + y, 1)`.
fn other_program() -> Program {
    let mut p = Program::new(2);
    let (x, y) = (p.reg(0), p.reg(1));
    let s = p.add(x, y);
    let r = p.rotate(s, 1);
    p.output(r);
    p
}

/// Serialized output ciphertexts, for bit-identity comparison across
/// sessions.
fn ct_bytes(ctx: &CkksContext, cts: &[ark_ckks::Ciphertext]) -> Vec<u8> {
    let mut out = Vec::new();
    for ct in cts {
        out.extend_from_slice(&ark_ckks::wire::write_ciphertext(ctx, ct));
    }
    out
}

/// Runs `sessions` concurrent pipelined clients, each interleaving
/// both programs on both backends, asserting every response is
/// bit-identical to the single-connection reference and that no
/// protocol error ever surfaces (`BUSY` is retried, not counted as an
/// error).
fn soak(sessions: usize, rounds: usize, config: ServerConfig) {
    let (handle, sw_fp, sim_fp) = start_server(config);
    let addr = handle.addr();
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let slots = local.params().slots();
    let xs: Vec<C64> = (0..slots).map(|i| C64::new(0.07 * i as f64, 0.0)).collect();
    let ys: Vec<C64> = (0..slots)
        .map(|i| C64::new(0.4 - 0.02 * i as f64, 0.0))
        .collect();
    let ct_x = local.encrypt(&xs, 2).unwrap();
    let ct_y = local.encrypt(&ys, 2).unwrap();

    // single-connection reference: evaluation is deterministic, so
    // every session must reproduce these bytes exactly
    let (ref_sample, ref_other, ref_cycles) = {
        let mut client = Client::connect(addr).unwrap();
        let a = client
            .evaluate(
                sw_fp,
                &sample_program(),
                &[ct_x.clone(), ct_y.clone()],
                &ctx,
            )
            .unwrap();
        let b = client
            .evaluate(sw_fp, &other_program(), &[ct_x.clone(), ct_y.clone()], &ctx)
            .unwrap();
        let r = client
            .simulate(sim_fp, &sample_program(), &[23, 23])
            .unwrap();
        (ct_bytes(&ctx, &a), ct_bytes(&ctx, &b), r.cycles)
    };

    let workers: Vec<_> = (0..sessions)
        .map(|w| {
            let ctx = CkksContext::new(CkksParams::tiny());
            let (ct_x, ct_y) = (ct_x.clone(), ct_y.clone());
            let (ref_sample, ref_other) = (ref_sample.clone(), ref_other.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..rounds {
                    // pipeline a mixed batch, redeem out of order
                    let t1 = client
                        .submit_evaluate(
                            sw_fp,
                            &sample_program(),
                            &[ct_x.clone(), ct_y.clone()],
                            &ctx,
                        )
                        .unwrap();
                    let t2 = client
                        .submit_simulate(sim_fp, &sample_program(), &[23, 23])
                        .unwrap();
                    let t3 = client
                        .submit_evaluate(
                            sw_fp,
                            &other_program(),
                            &[ct_x.clone(), ct_y.clone()],
                            &ctx,
                        )
                        .unwrap();
                    let retry = |e: &ArkError| matches!(e, ArkError::Busy { .. });
                    let redeem_eval = |client: &mut Client, t, want: &[u8], p: &Program| {
                        let mut ticket = t;
                        loop {
                            match client.wait_evaluate(ticket, &ctx) {
                                Ok(outs) => {
                                    assert_eq!(
                                        ct_bytes(&ctx, &outs),
                                        want,
                                        "session {w} round {round}: outputs diverge"
                                    );
                                    return;
                                }
                                Err(e) if retry(&e) => {
                                    std::thread::sleep(Duration::from_millis(5));
                                    ticket = client
                                        .submit_evaluate(
                                            sw_fp,
                                            p,
                                            &[ct_x.clone(), ct_y.clone()],
                                            &ctx,
                                        )
                                        .unwrap();
                                }
                                Err(e) => panic!("session {w} round {round}: {e}"),
                            }
                        }
                    };
                    redeem_eval(&mut client, t3, &ref_other, &other_program());
                    let mut t2 = t2;
                    let cycles = loop {
                        match client.wait_simulate(t2) {
                            Ok(r) => break r.cycles,
                            Err(e) if retry(&e) => {
                                std::thread::sleep(Duration::from_millis(5));
                                t2 = client
                                    .submit_simulate(sim_fp, &sample_program(), &[23, 23])
                                    .unwrap();
                            }
                            Err(e) => panic!("session {w} round {round}: {e}"),
                        }
                    };
                    assert_eq!(cycles, ref_cycles, "session {w} round {round}");
                    redeem_eval(&mut client, t1, &ref_sample, &sample_program());
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
fn soak_quick_16_pipelined_sessions() {
    soak(
        16,
        2,
        ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    );
}

/// The full soak: ≥64 concurrent pipelined sessions of mixed programs,
/// zero protocol errors, responses bit-identical to single-connection
/// evaluation. Nightly lane.
#[test]
#[ignore = "slow soak; run with --ignored in the nightly lane"]
fn soak_64_pipelined_sessions_bit_identical() {
    soak(
        64,
        3,
        ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        },
    );
}

/// Induced overload: one shard with a one-slot queue and a burst of
/// pipelined submissions must shed with typed `BUSY` — and never
/// wedge: retried requests all eventually succeed.
#[test]
fn overload_sheds_with_typed_busy_not_a_hang() {
    let (handle, sw_fp, _) = start_server(ServerConfig {
        shards: 1,
        queue_capacity: 1,
        max_pipeline: 64,
        busy_retry_after_ms: 5,
        ..ServerConfig::default()
    });
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let ct_x = local.encrypt(&[C64::new(0.5, 0.0)], 2).unwrap();
    let ct_y = local.encrypt(&[C64::new(0.25, 0.0)], 2).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let burst = 32;
    let tickets: Vec<_> = (0..burst)
        .map(|_| {
            client
                .submit_evaluate(
                    sw_fp,
                    &sample_program(),
                    &[ct_x.clone(), ct_y.clone()],
                    &ctx,
                )
                .unwrap()
        })
        .collect();
    let mut busy = 0u32;
    let mut ok = 0u32;
    for t in tickets {
        match client.wait_evaluate(t, &ctx) {
            Ok(_) => ok += 1,
            Err(ArkError::Busy { retry_after_ms }) => {
                assert!(retry_after_ms > 0);
                busy += 1;
            }
            Err(e) => panic!("only BUSY is an acceptable rejection, got {e}"),
        }
    }
    assert!(ok > 0, "the burst starved completely");
    assert!(
        busy > 0,
        "a 32-deep burst into a 1-slot queue must shed ({ok} ok)"
    );
    // the connection is not wedged: retries drain cleanly
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.evaluate(
            sw_fp,
            &sample_program(),
            &[ct_x.clone(), ct_y.clone()],
            &ctx,
        ) {
            Ok(_) => break,
            Err(ArkError::Busy { retry_after_ms }) => {
                assert!(Instant::now() < deadline, "retry never admitted");
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
            }
            Err(e) => panic!("got {e}"),
        }
    }
    handle.shutdown();
}

/// The head-of-line bugfix: a peer that stops reading mid-response
/// stream must not stall other sessions — its responses queue in its
/// own outbox, and past the outbox budget the connection is shed.
#[test]
fn stalled_reader_does_not_block_other_sessions() {
    let (handle, sw_fp, _) = start_server(ServerConfig {
        // tiny outbox budget so the stalled reader sheds quickly
        max_conn_outbox_bytes: 64 * 1024,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // the stalled reader: a raw socket that handshakes, then floods
    // key-fetch requests without ever reading a response
    let mut stalled = TcpStream::connect(addr).unwrap();
    let mut hello = Vec::new();
    put_u16(&mut hello, PROTOCOL_VERSION);
    common::send(&mut stalled, &write_frame(msg::HELLO, 0, &hello)).unwrap();
    // each EVAL_KEYS response is ~6 KiB; thousands of unread ones
    // overflow loopback kernel buffering (a few MiB) and then the
    // 64 KiB outbox budget
    let fetch = write_frame(msg::GET_EVAL_KEYS, sw_fp, &[]);
    for id in 0..4096 {
        // write errors just mean the server already shed us — success
        if common::send(&mut stalled, &protocol::envelope(id, &fetch)).is_err() {
            break;
        }
    }

    // meanwhile a well-behaved session keeps getting prompt service
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let ct_x = local.encrypt(&[C64::new(0.5, 0.0)], 2).unwrap();
    let ct_y = local.encrypt(&[C64::new(0.25, 0.0)], 2).unwrap();
    let mut client = Client::builder()
        .read_timeout(Duration::from_secs(10))
        .connect(addr)
        .unwrap();
    for _ in 0..3 {
        client
            .evaluate(
                sw_fp,
                &sample_program(),
                &[ct_x.clone(), ct_y.clone()],
                &ctx,
            )
            .unwrap();
    }

    // and the stalled session is eventually shed (observable in the
    // counters); poll briefly — the shed happens on the next response
    // queued behind that connection's blocked writer
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        let shed = stats
            .iter()
            .find(|(k, _)| k == "sessions_shed")
            .map_or(0, |&(_, v)| v);
        if shed >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled reader was never shed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(stalled);
    handle.shutdown();
}

/// A handshaken peer that floods key fetches and never reads leaves
/// the server with responses it cannot deliver. Shutdown still returns
/// within `drain_grace` plus slack, with that connection closed.
#[test]
fn shutdown_is_bounded_by_drain_grace_under_a_peer_that_never_reads() {
    let drain_grace = Duration::from_millis(300);
    let (handle, sw_fp, _) = start_server(ServerConfig {
        drain_grace,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut stalled = TcpStream::connect(addr).unwrap();
    let mut hello = Vec::new();
    put_u16(&mut hello, PROTOCOL_VERSION);
    common::send(&mut stalled, &write_frame(msg::HELLO, 0, &hello)).unwrap();
    // ~24 MiB of responses: more than loopback buffering absorbs, less
    // than the default outbox budget, so nothing sheds the connection
    let fetch = write_frame(msg::GET_EVAL_KEYS, sw_fp, &[]);
    for id in 0..4096 {
        common::send(&mut stalled, &protocol::envelope(id, &fetch)).unwrap();
    }
    // the server still answers everyone else
    Client::connect(addr).unwrap().stats().unwrap();

    let start = Instant::now();
    handle.shutdown();
    let took = start.elapsed();
    assert!(
        took < drain_grace + Duration::from_secs(2),
        "shutdown took {took:?}"
    );
    // the server closed the connection: what it wrote drains, then EOF
    // (or a reset for the requests it never read)
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    if let Err(e) = stalled.read_to_end(&mut Vec::new()) {
        assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}");
    }
}

/// A dead server must not hang a read forever once a read timeout is
/// configured.
#[test]
fn read_timeout_surfaces_instead_of_hanging() {
    // a listener that accepts and then says nothing
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sink = std::thread::spawn(move || {
        // hold the accepted socket open without responding
        let conn = listener.accept().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(2));
        drop(conn);
    });
    let start = Instant::now();
    let err = match Client::builder()
        .read_timeout(Duration::from_millis(200))
        .write_timeout(Duration::from_millis(200))
        .connect(addr)
    {
        Err(e) => e,
        Ok(_) => panic!("handshake against a mute server must fail"),
    };
    assert!(
        matches!(err, ArkError::Serve { ref reason } if reason.contains("timed out")),
        "got {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "the timeout did not bound the wait"
    );
    sink.join().unwrap();
}

/// Server counters are exposed through `STATS` and move when work
/// happens.
#[test]
fn stats_counters_track_work() {
    let (handle, sw_fp, _) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut local = software_engine();
    let ctx = CkksContext::new(CkksParams::tiny());
    let ct_x = local.encrypt(&[C64::new(0.5, 0.0)], 2).unwrap();
    let ct_y = local.encrypt(&[C64::new(0.25, 0.0)], 2).unwrap();
    // rot(x + y, 2): rotation 2 is undeclared, so each evaluation
    // resolves it through the runtime key cache (one miss, then hits)
    let mut runtime_rot = Program::new(2);
    {
        let (x, y) = (runtime_rot.reg(0), runtime_rot.reg(1));
        let s = runtime_rot.add(x, y);
        let r = runtime_rot.rotate(s, 2);
        runtime_rot.output(r);
    }
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..4 {
        client
            .evaluate(sw_fp, &runtime_rot, &[ct_x.clone(), ct_y.clone()], &ctx)
            .unwrap();
    }
    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .unwrap_or_else(|| panic!("missing counter {k}: {stats:?}"))
            .1
    };
    assert!(get("sessions_accepted") >= 1);
    assert_eq!(get("sessions_active"), 1);
    assert_eq!(get("shards"), 2);
    let executed: u64 = (0..2)
        .map(|i| get(&format!("shard{i}.jobs_executed")))
        .sum();
    assert!(executed >= 4, "stats: {stats:?}");
    // one job queue: one high-water row, and nothing steals
    assert!(get("shards.queue_depth_hwm") >= 1, "stats: {stats:?}");
    assert!(
        !stats.iter().any(|(n, _)| n.ends_with("jobs_stolen")),
        "stats: {stats:?}"
    );
    // the sample program rotates, so the runtime key cache was
    // consulted: hits + misses > 0 for the software engine
    let key_traffic = get("engine0.runtime_key_hits") + get("engine0.runtime_key_misses");
    assert!(key_traffic > 0, "stats: {stats:?}");
    // per-op execution counters: each of the 4 evaluations ran one
    // HAdd and one keyed rotation; nothing bootstrapped or rescaled
    assert_eq!(get("ops.hadd"), 4, "stats: {stats:?}");
    assert_eq!(get("ops.hrot"), 4, "stats: {stats:?}");
    assert_eq!(get("ops.bootstraps"), 0);
    assert_eq!(get("ops.rotate_sum_terms"), 0);
    assert_eq!(get("ops.hrescale"), 0);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// property test: the request-id envelope
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // The request-id envelope round-trips any id over any frame.
    #[test]
    fn envelope_roundtrips(
        id in proptest::prelude::any::<u64>(),
        raw in proptest::collection::vec(0u32..256, 1..200usize),
    ) {
        let body: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let enveloped = protocol::envelope(id, &body);
        let (rid, frame) = protocol::split_envelope(&enveloped).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(frame, &body[..]);
    }
}
