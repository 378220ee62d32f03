//! Interop: `ClientCore` round-tripped against the server's framing —
//! `protocol::{open_message, close_message}` on the way out,
//! `protocol::MessageAssembler` on the way in, the one framing layer
//! the server runs — byte-for-byte, plus the version-skew regression (a
//! core refused by a server that speaks a different version must fail
//! with a typed version error, never hang), and the assembler under
//! arbitrary chunking of the byte stream.

use ark_ckks::error::ArkError;
use ark_client::core::{ClientCore, Event};
use ark_client::protocol::{
    busy_frame, close_message, code, envelope, error_frame, msg, open_message, server_info_frame,
    stats_frame, EngineInfo, MessageAssembler, DEFAULT_MAX_FRAME_BYTES, ENVELOPE_LEN,
    PROTOCOL_VERSION,
};
use ark_math::wire::write_frame;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engines() -> Vec<EngineInfo> {
    vec![EngineInfo {
        fingerprint: 0xfeed_beef,
        software: true,
        log_n: 10,
        max_level: 9,
        keychain_bytes: 4096,
    }]
}

/// Server-side write of one frame, as the server's outbox does it:
/// written in place behind its length prefix and, past the handshake,
/// its request id. Returns the bytes that reach the wire.
fn server_send(request_id: Option<u64>, frame: &[u8]) -> Vec<u8> {
    let mut outbox = Vec::new();
    let at = open_message(&mut outbox, request_id);
    outbox.extend_from_slice(frame);
    close_message(&mut outbox, at).expect("within the u32 prefix");
    outbox
}

/// Reads every complete message the core queued, through the server's
/// receive path (prefix parse + allocation bound), and checks no torn
/// tail is left.
fn server_recv_all(egress: &[u8]) -> Vec<Vec<u8>> {
    let mut inbox = MessageAssembler::new(DEFAULT_MAX_FRAME_BYTES + ENVELOPE_LEN);
    inbox.push_bytes(egress);
    let mut out = Vec::new();
    while let Some(message) = inbox
        .next_message()
        .expect("core egress parses as server messages")
    {
        out.push(message.to_vec());
    }
    assert_eq!(inbox.buffered(), 0, "core egress ends mid-message");
    out
}

fn handshaken() -> ClientCore {
    let mut core = ClientCore::new();
    // the HELLO the core emits must parse through the server transport
    // as exactly one bare frame
    let hello = server_recv_all(&core.take_egress());
    assert_eq!(hello.len(), 1);
    let (frame, _) = ark_math::wire::read_frame(&hello[0]).expect("well-formed HELLO");
    assert_eq!(frame.kind, msg::HELLO);
    core.ingest(&server_send(None, &server_info_frame(&engines())))
        .expect("valid handshake");
    assert!(matches!(core.next_event(), Some(Event::Handshake { .. })));
    assert!(core.is_ready());
    core
}

/// One scripted server reply for a stats request.
#[derive(Debug, Clone)]
enum Reply {
    Stats(Vec<(String, u64)>),
    Error(u16, String),
    BusyThenStats(u32, Vec<(String, u64)>),
}

// the vendored proptest has no string strategies: counter names and
// error messages are derived from generated integers instead
fn counters_strategy() -> impl Strategy<Value = Vec<(String, u64)>> + 'static {
    proptest::collection::vec(
        (0u32..1000, any::<u64>()).prop_map(|(n, v)| (format!("shard{n}.ctr"), v)),
        0..5usize,
    )
}

fn reply_strategy() -> impl Strategy<Value = Reply> {
    prop_oneof![
        counters_strategy().prop_map(Reply::Stats),
        (1u32..=7, any::<u64>()).prop_map(|(c, s)| Reply::Error(c as u16, format!("err-{s:016x}"))),
        (0u32..100_000, counters_strategy()).prop_map(|(hint, c)| Reply::BusyThenStats(hint, c)),
    ]
}

fn reply_frame(reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::Stats(counters) => stats_frame(counters),
        Reply::Error(c, m) => error_frame(*c, m),
        Reply::BusyThenStats(hint, _) => busy_frame(*hint),
    }
}

/// Feeds `wire` to the core in random-sized chunks.
fn ingest_chunked(core: &mut ClientCore, wire: &[u8], rng: &mut StdRng) {
    let mut off = 0;
    while off < wire.len() {
        let n = 1 + rng.gen_range(0usize..32).min(wire.len() - off - 1);
        core.ingest(&wire[off..off + n])
            .expect("scripted replies are valid");
        off += n;
    }
}

fn expect_stats(core: &mut ClientCore, id: u64, counters: &[(String, u64)]) {
    match core.next_event().expect("reply produced an event") {
        Event::Stats {
            request_id,
            counters: got,
        } => {
            assert_eq!(request_id, id);
            assert_eq!(got, counters);
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Drives one request/reply exchange and checks the typed event
/// matches the scripted reply exactly.
fn exchange(core: &mut ClientCore, reply: &Reply, chunk_rng: &mut StdRng) {
    let ticket = core.submit_get_stats().expect("ready core accepts");

    // byte-for-byte: the request the core queued is exactly the message
    // the server's own decode stack expects — a GET_STATS frame
    // enveloped under the ticket's id
    let sent = server_recv_all(&core.take_egress());
    assert_eq!(sent.len(), 1);
    let expect_msg = envelope(ticket.id(), &write_frame(msg::GET_STATS, 0, &[]));
    assert_eq!(
        sent[0], expect_msg,
        "request bytes diverge from server framing"
    );

    let wire = server_send(Some(ticket.id()), &reply_frame(reply));
    ingest_chunked(core, &wire, chunk_rng);

    match reply {
        Reply::Stats(counters) => expect_stats(core, ticket.id(), counters),
        Reply::Error(c, m) => match core.next_event().expect("reply produced an event") {
            Event::ServerError {
                request_id,
                code: got_code,
                message,
            } => {
                assert_eq!(request_id, ticket.id());
                assert_eq!(got_code, *c);
                assert_eq!(&message, m);
            }
            other => panic!("expected server error, got {other:?}"),
        },
        Reply::BusyThenStats(hint, counters) => {
            match core.next_event().expect("busy produced an event") {
                Event::Busy {
                    request_id,
                    retry_after_ms,
                } => {
                    assert_eq!(request_id, ticket.id());
                    assert_eq!(retry_after_ms, *hint);
                }
                other => panic!("expected busy, got {other:?}"),
            }
            assert_eq!(core.in_flight(), 1, "busy keeps the request parked");
            // re-arm: the retry goes out as the same request id with
            // the identical retained frame
            core.retry(ticket).expect("parked request retries");
            let resent = server_recv_all(&core.take_egress());
            assert_eq!(resent, vec![expect_msg], "retry re-emits the same bytes");
            let wire = server_send(Some(ticket.id()), &stats_frame(counters));
            ingest_chunked(core, &wire, chunk_rng);
            expect_stats(core, ticket.id(), counters);
        }
    }
    assert_eq!(core.in_flight(), 0, "exchange left a dangling request");
    assert!(core.next_event().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // Length-prefixed messages reassemble exactly under arbitrary
    // interleaved partial reads (any chunking of the byte stream).
    #[test]
    fn messages_survive_arbitrary_chunking(
        raw_bodies in proptest::collection::vec(
            proptest::collection::vec(0u32..256, 1..300usize),
            1..8usize,
        ),
        chunk_seed in any::<u64>(),
    ) {
        let bodies: Vec<Vec<u8>> = raw_bodies
            .iter()
            .map(|b| b.iter().map(|&x| x as u8).collect())
            .collect();
        let wire: Vec<u8> = bodies.iter().flat_map(|b| server_send(None, b)).collect();
        let mut rng = StdRng::seed_from_u64(chunk_seed);
        let mut inbox = MessageAssembler::new(1 << 20);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut off = 0;
        while off < wire.len() {
            let n = 1 + rng.gen_range(0usize..64).min(wire.len() - off - 1);
            inbox.push_bytes(&wire[off..off + n]);
            off += n;
            while let Some(m) = inbox.next_message().unwrap() {
                got.push(m.to_vec());
            }
        }
        prop_assert_eq!(got, bodies);
        prop_assert_eq!(inbox.buffered(), 0);
    }

    // scripted request/reply sequences round-trip through the server
    // transport byte-for-byte, under arbitrary chunking, with
    // pipelined ids echoed exactly.
    #[test]
    fn v4_core_roundtrips_server_framing(
        replies in proptest::collection::vec(reply_strategy(), 1..6usize),
        chunk_seed in any::<u64>(),
    ) {
        let mut core = handshaken();
        let mut rng = StdRng::seed_from_u64(chunk_seed);
        for reply in &replies {
            exchange(&mut core, reply, &mut rng);
        }
        prop_assert!(core.is_ready());
    }
}

/// Regression: a core handed the handshake rejection of a server that
/// speaks only a different version surfaces a typed
/// [`ArkError::VersionMismatch`] — the failure mode is an error
/// return, not a hang on a reply that will never come.
#[test]
fn v4_core_rejected_by_other_version_server_is_typed() {
    let mut core = ClientCore::new();
    let _ = core.take_egress();
    let wire = server_send(
        None,
        &error_frame(
            code::PROTOCOL,
            "client speaks protocol 4, server speaks protocol 5",
        ),
    );
    match core.ingest(&wire) {
        Err(ArkError::VersionMismatch { client, reason }) => {
            assert_eq!(client, PROTOCOL_VERSION);
            assert!(reason.contains("server speaks protocol 5"), "{reason}");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    assert!(core.is_closed());
    assert!(core.submit_get_stats().is_err(), "closed core fails fast");
}
