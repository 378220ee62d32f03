//! The std adapter's automatic `BUSY` handling, pinned against a
//! scripted stub server: a shed request is retried under its original
//! id with jittered exponential backoff, up to the configured budget.

mod common;

use ark_ckks::error::ArkError;
use ark_client::protocol::{
    busy_frame, envelope, msg, server_info_frame, split_envelope, stats_frame, EngineInfo,
};
use ark_math::wire::read_frame;
use ark_serve::Client;
use common::{recv, send};
use std::net::TcpListener;
use std::time::Instant;

/// Serves one connection: handshake, then answers each request with
/// `sheds` BUSY frames (one per retry) before the real stats payload.
fn stub_server(listener: TcpListener, sheds: u32, retry_after_ms: u32) {
    let (mut stream, _) = listener.accept().expect("client connects");
    stream.set_nodelay(true).expect("nodelay");
    let hello = recv(&mut stream).expect("client opens with a message");
    let (parsed, _) = read_frame(&hello).expect("well-formed frame");
    assert_eq!(parsed.kind, msg::HELLO);
    send(
        &mut stream,
        &server_info_frame(&[EngineInfo {
            fingerprint: 0xabc,
            software: true,
            log_n: 10,
            max_level: 9,
            keychain_bytes: 0,
        }]),
    )
    .expect("server info sent");

    let mut remaining = sheds;
    loop {
        let Ok(message) = recv(&mut stream) else {
            return; // client gave up or closed — that is a valid script end
        };
        let (id, frame) = split_envelope(&message).expect("the client envelopes requests");
        let (parsed, _) = read_frame(frame).expect("well-formed request");
        assert_eq!(parsed.kind, msg::GET_STATS);
        let reply = if remaining > 0 {
            remaining -= 1;
            busy_frame(retry_after_ms)
        } else {
            stats_frame(&[("jobs_executed".to_string(), 1)])
        };
        send(&mut stream, &envelope(id, &reply)).expect("reply sent");
    }
}

fn start_stub(
    sheds: u32,
    retry_after_ms: u32,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || stub_server(listener, sheds, retry_after_ms));
    (addr, handle)
}

#[test]
fn budgeted_retries_convert_sheds_to_success() {
    let (addr, server) = start_stub(2, 5);
    let mut client = Client::builder()
        .busy_retries(3)
        .connect(addr)
        .expect("handshake");
    let started = Instant::now();
    let stats = client.stats().expect("two sheds are inside the budget");
    assert_eq!(stats, vec![("jobs_executed".to_string(), 1)]);
    // two backoffs with a 5ms hint wait at least 5ms·0.5 + 10ms·0.5
    assert!(
        started.elapsed().as_millis() >= 7,
        "backoff did not wait: {:?}",
        started.elapsed()
    );
    drop(client);
    server.join().unwrap();
}

#[test]
fn sheds_beyond_the_budget_surface_busy() {
    let (addr, server) = start_stub(3, 5);
    let mut client = Client::builder()
        .busy_retries(1)
        .connect(addr)
        .expect("handshake");
    match client.stats() {
        Err(ArkError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 5),
        other => panic!("expected Busy, got {other:?}"),
    }
    drop(client);
    server.join().unwrap();
}

#[test]
fn default_budget_is_zero_and_surfaces_the_first_shed() {
    let (addr, server) = start_stub(1, 400);
    let mut client = Client::connect(addr).expect("handshake");
    let started = Instant::now();
    match client.stats() {
        Err(ArkError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 400),
        other => panic!("expected Busy, got {other:?}"),
    }
    // no budget means no backoff sleep either: even half the hint
    // (the jitter floor) would have been 200ms
    assert!(
        started.elapsed().as_millis() < 150,
        "zero-budget client slept: {:?}",
        started.elapsed()
    );
    drop(client);
    server.join().unwrap();
}
