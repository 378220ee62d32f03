//! Fuzz target: `ClientCore::ingest` — the full client-side state
//! machine fed a hostile server's byte stream, in hostile chunk sizes.
//! Every outcome must be a typed error or a typed event; the
//! reassembly buffer must stay under its documented cap (a hostile
//! length prefix must not drive allocation).
//!
//! Each input also goes, in the same chunks, through a bare
//! `MessageAssembler` at the cap the server reads with
//! (`max_frame_bytes + ENVELOPE_LEN`): the server's read path before
//! any dispatch.

use ark_client::core::ClientCore;
use ark_client::protocol::{server_info_frame, EngineInfo, MessageAssembler, ENVELOPE_LEN};

const MAX_FRAME: usize = 1 << 16;
const CHUNK: usize = 4096;

fn handshake_bytes() -> Vec<u8> {
    let info = server_info_frame(&[EngineInfo {
        fingerprint: 0xabcd,
        software: true,
        log_n: 10,
        max_level: 9,
        keychain_bytes: 64,
    }]);
    let mut bytes = (info.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&info);
    bytes
}

/// Feeds `data` to a bare assembler chunk by chunk, draining after
/// each push: every message is within `1..=cap`, the buffer within
/// one chunk of the cap, and the first error ends the stream.
fn assemble(data: &[u8]) {
    let cap = MAX_FRAME + ENVELOPE_LEN;
    let mut assembler = MessageAssembler::new(cap);
    for chunk in data.chunks(CHUNK) {
        assembler.push_bytes(chunk);
        loop {
            match assembler.next_message() {
                Ok(Some(message)) => assert!(
                    (1..=cap).contains(&message.len()),
                    "assembler yielded a {}-byte message",
                    message.len()
                ),
                Ok(None) => break,
                Err(_) => return,
            }
        }
        assert!(
            assembler.buffered() <= 4 + cap + CHUNK,
            "assembler buffered {} bytes",
            assembler.buffered()
        );
    }
}

fn main() {
    let opts = ark_fuzz::parse_args("ingest");
    let handshake = handshake_bytes();
    let mut round = 0u64;
    ark_fuzz::run("ingest", &opts, |data| {
        round += 1;
        assemble(data);
        let mut core = ClientCore::config().max_frame_bytes(MAX_FRAME).build();
        let _ = core.take_egress();
        // half the rounds start from a completed handshake with a few
        // requests in flight, so enveloped-response paths are reachable
        if round.is_multiple_of(2) {
            core.ingest(&handshake).expect("valid handshake");
            while core.next_event().is_some() {}
            for _ in 0..3 {
                if core.submit_get_stats().is_err() {
                    break;
                }
            }
            let _ = core.take_egress();
        }
        for chunk in data.chunks(CHUNK) {
            let before_ok = !core.is_closed();
            let result = core.ingest(chunk);
            // the buffer never exceeds the cap by more than one
            // in-flight chunk, whatever the declared lengths say
            assert!(
                core.buffered_bytes() <= 4 + MAX_FRAME + ENVELOPE_LEN + CHUNK,
                "reassembly buffer exceeded its cap: {}",
                core.buffered_bytes()
            );
            while core.next_event().is_some() {}
            if result.is_err() {
                // errors poison: the next call must fail fast
                assert!(before_ok || core.is_closed());
                assert!(core.is_closed());
                assert!(core.ingest(&[0]).is_err());
                break;
            }
        }
    });
}
