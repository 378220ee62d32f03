//! Pure codecs for the `ark-serve` request/response protocol: message
//! kinds, error codes, the request-id envelope, and the encode/decode
//! pairs for every control payload.
//!
//! Everything here is sans-I/O — functions map byte slices to typed
//! values and back, so the module compiles anywhere (wasm32 included).
//! That includes the one transport framing layer both ends of a
//! connection run: [`MessageAssembler`] takes messages off the byte
//! stream (in [`ClientCore`](crate::core::ClientCore) and in the
//! server's reader threads), and [`open_message`]/[`close_message`]
//! write one in place (into the core's egress and the server's
//! outboxes).
//!
//! # Transport shape
//!
//! Each message is a `u32` little-endian byte count followed by the
//! message body. The prefix lets a receiver take the whole message off
//! the stream before parsing (and bound it against `max_frame_bytes`
//! plus the envelope *before* allocating); the frame's own checksum
//! then covers content integrity.
//!
//! There is one protocol version ([`PROTOCOL_VERSION`]). A session
//! opens with a bare exchange — the body of `HELLO` and of its reply
//! (`SERVER_INFO`, or an `ERROR` refusing the version) is exactly one
//! wire frame. Every later body is `u64` request id ‖ one wire frame.
//! Requests *pipeline*: a client may have many in flight on one
//! connection, and responses carry the id of the request they answer —
//! order is not guaranteed. The id namespace is chosen by the client;
//! the server only echoes.
//!
//! # Message kinds (`0x10..=0x1F`, the serve namespace of the shared
//! kind-tag space)
//!
//! | kind | dir | payload |
//! |------|-----|---------|
//! | `HELLO` | c→s | `u16` protocol version |
//! | `SERVER_INFO` | s→c | `u16 n` × engine descriptor |
//! | `GET_PUBLIC_KEY` | c→s | empty (frame fingerprint picks the engine) |
//! | `PUBLIC_KEY` | s→c | nested *seed-compressed* public-key frame |
//! | `GET_EVAL_KEYS` | c→s | empty (frame fingerprint picks the engine) |
//! | `EVAL_KEYS` | s→c | nested seed-compressed eval-key frame (mult) ‖ nested seed-compressed rotation-key-set frame |
//! | `EVALUATE` | c→s | program ‖ `u16 n` × nested ciphertext frame |
//! | `RESULT_CTS` | s→c | `u16 n` × nested ciphertext frame |
//! | `SIMULATE` | c→s | program ‖ `u16 n` × `u32` input level |
//! | `RESULT_REPORT` | s→c | nested sim-report frame |
//! | `ERROR` | s→c | `u16` code ‖ `u32 len` ‖ UTF-8 message |
//! | `SHUTDOWN` | c→s | empty — acked with `BYE` and honored only when `ServerConfig::allow_remote_shutdown` is set (refused with `ERROR` otherwise) |
//! | `BYE` | s→c | empty |
//! | `GET_STATS` | c→s | empty |
//! | `STATS` | s→c | `u16 n` × (`u16 len` ‖ UTF-8 name ‖ `u64` value) |
//! | `BUSY` | s→c | `u32` retry-after hint in milliseconds |
//!
//! Engine descriptor: `u64` fingerprint ‖ `u8` backend (0 = software,
//! 1 = simulated) ‖ `u8 log N` ‖ `u32 L` ‖ `u64` resident key bytes.

use ark_ckks::error::{ArkError, ArkResult};
use ark_math::wire::{put_u16, put_u32, put_u64, write_frame, Cursor, WireError};

/// The one protocol version. A client sends it in `HELLO`; the server
/// serves exactly this number and refuses any other with a typed
/// `PROTOCOL` error, so a wire-format change is a bump here and a clean
/// handshake failure against an old peer, never a mid-session decode
/// error. Version 7 lets a ciphertext's `A` travel as the 8-byte seed
/// it expands from (representation code 2 in its `A` slot, see
/// `ark_ckks::wire::SEEDED_A`) in the same frame version 3, so a v6
/// peer's `HELLO(6)` is refused as a typed `PROTOCOL` error.
/// Version 6 (`ark_math::wire::VERSION` 3) ships each residue
/// of a ciphertext or key in its prime's byte width and each program
/// plaintext vector in its narrowest exact form (real or complex);
/// version 5 replaced version 4's FNV-1a frame checksum with XXH64. A
/// v5 peer's `HELLO` comes in a version-2 frame, which is refused as a
/// typed `WIRE` error before its checksum is read.
pub const PROTOCOL_VERSION: u16 = 7;

/// Serve-namespace frame kinds.
pub mod msg {
    /// Session open (client → server).
    pub const HELLO: u16 = 0x10;
    /// Hosted-engine inventory (server → client).
    pub const SERVER_INFO: u16 = 0x11;
    /// Public-key fetch (client → server).
    pub const GET_PUBLIC_KEY: u16 = 0x12;
    /// Public-key response (server → client).
    pub const PUBLIC_KEY: u16 = 0x13;
    /// Software evaluation request (client → server).
    pub const EVALUATE: u16 = 0x14;
    /// Ciphertext results (server → client).
    pub const RESULT_CTS: u16 = 0x15;
    /// Simulated-costing request (client → server).
    pub const SIMULATE: u16 = 0x16;
    /// Simulation-report result (server → client).
    pub const RESULT_REPORT: u16 = 0x17;
    /// Typed failure (server → client).
    pub const ERROR: u16 = 0x18;
    /// Graceful-shutdown request (client → server).
    pub const SHUTDOWN: u16 = 0x19;
    /// Shutdown acknowledgement (server → client).
    pub const BYE: u16 = 0x1A;
    /// Evaluation-key fetch (client → server): the mult key plus the
    /// full rotation-key set, seed-compressed.
    pub const GET_EVAL_KEYS: u16 = 0x1B;
    /// Evaluation-key response (server → client).
    pub const EVAL_KEYS: u16 = 0x1C;
    /// Server-counter fetch (client → server).
    pub const GET_STATS: u16 = 0x1D;
    /// Server-counter response (server → client): a wire-encoded
    /// name → value map.
    pub const STATS: u16 = 0x1E;
    /// Typed load-shed response (server → client): the job queue was
    /// full; the payload hints how long to back off before retrying.
    pub const BUSY: u16 = 0x1F;
}

/// Error codes carried by `ERROR` messages.
pub mod code {
    /// The request violated the protocol (bad kind, bad shape).
    pub const PROTOCOL: u16 = 1;
    /// No hosted engine matches the request's fingerprint.
    pub const UNKNOWN_ENGINE: u16 = 2;
    /// The evaluation itself failed (level/scale/key errors).
    pub const EVALUATION: u16 = 3;
    /// The request exceeds the per-session memory budget.
    pub const SESSION_LIMIT: u16 = 4;
    /// The operation is not available on the engine's backend.
    pub const UNSUPPORTED: u16 = 5;
    /// The frame could not be decoded (wire-format failure).
    pub const WIRE: u16 = 6;
    /// Static verification rejected the program at admission (level
    /// underflow, scale mismatch, undeclared rotation/conjugation,
    /// bootstrap misuse) — no evaluator work was performed.
    pub const VERIFY: u16 = 7;
}

/// Default cap on one wire frame's bytes (64 MiB — a full-chain
/// `small`-params rotation-key set fits with room to spare).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------
// transport framing
// ---------------------------------------------------------------------

/// Bytes of the length prefix in front of every message.
const PREFIX_LEN: usize = 4;

/// Reassembles `u32`-length-prefixed messages from bytes read in any
/// split.
///
/// A declared length outside `1..=max_message` is a typed error found
/// on the prefix alone, before any proportional allocation: the length
/// is attacker-controlled. A caller that drains every complete message
/// after each [`push_bytes`](Self::push_bytes) holds at most
/// `4 + max_message` bytes plus the last push
/// ([`buffered`](Self::buffered)), in a backing buffer of at most
/// `2 × (4 + max_message)` plus the last push.
#[derive(Debug)]
pub struct MessageAssembler {
    max_message: usize,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as messages.
    pos: usize,
}

impl MessageAssembler {
    /// An empty assembler accepting messages of up to `max_message`
    /// bytes.
    pub fn new(max_message: usize) -> Self {
        Self {
            max_message,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Bytes buffered and not yet returned as messages.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends bytes read off the stream. The consumed prefix is
    /// reclaimed first once it is at least half the buffer, and the
    /// buffer grows geometrically but never past what a draining
    /// caller can need.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        if self.pos > 0 && 2 * self.pos >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let needed = self.buf.len() + bytes.len();
        if needed > self.buf.capacity() {
            let bound = (PREFIX_LEN.saturating_add(self.max_message))
                .saturating_mul(2)
                .saturating_add(bytes.len());
            let cap = (2 * self.buf.capacity()).min(bound).max(needed);
            self.buf.reserve_exact(cap - self.buf.len());
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete message, or `None` if more bytes are needed.
    /// The message is borrowed from the buffer until the next push.
    ///
    /// # Errors
    ///
    /// [`ArkError::Wire`] when a length prefix is zero or exceeds
    /// `max_message`: the stream has no recoverable message boundary
    /// after that.
    pub fn next_message(&mut self) -> ArkResult<Option<&[u8]>> {
        let rest = &self.buf[self.pos..];
        let Some(prefix) = rest.first_chunk::<PREFIX_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len == 0 || len > self.max_message {
            return Err(ArkError::Wire(WireError::Malformed {
                what: format!("message length {len} outside 1..={}", self.max_message),
            }));
        }
        if rest.len() < PREFIX_LEN + len {
            return Ok(None);
        }
        let start = self.pos + PREFIX_LEN;
        self.pos = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }
}

/// Opens one message at the end of `out`: the length prefix
/// ([`close_message`] fills it in) and, past the handshake, the
/// request id. The frame is then written after it, in place. Returns
/// where the message starts.
pub fn open_message(out: &mut Vec<u8>, request_id: Option<u64>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; PREFIX_LEN]);
    if let Some(id) = request_id {
        put_u64(out, id);
    }
    at
}

/// Fills in the length prefix of the message opened at `at`.
///
/// # Errors
///
/// [`ArkError::Wire`] if the message outgrew the `u32` prefix; it is
/// then removed from `out`.
pub fn close_message(out: &mut Vec<u8>, at: usize) -> ArkResult<()> {
    let body = out.len() - at - PREFIX_LEN;
    let Ok(len) = u32::try_from(body) else {
        out.truncate(at);
        return Err(ArkError::Wire(WireError::Malformed {
            what: format!("a message of {body} bytes exceeds the u32 length prefix"),
        }));
    };
    out[at..at + PREFIX_LEN].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------------
// request-id envelope
// ---------------------------------------------------------------------

/// Bytes of the request-id prefix inside a post-handshake message body.
pub const ENVELOPE_LEN: usize = 8;

/// Wraps a wire frame in the envelope: `u64` request id, then the
/// frame.
pub fn envelope(request_id: u64, frame: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(ENVELOPE_LEN + frame.len());
    put_u64(&mut body, request_id);
    body.extend_from_slice(frame);
    body
}

/// Splits a post-handshake message body into its request id and the
/// wire frame.
///
/// # Errors
///
/// [`ArkError::Wire`] if the body is shorter than the envelope.
pub fn split_envelope(body: &[u8]) -> ArkResult<(u64, &[u8])> {
    if body.len() <= ENVELOPE_LEN {
        return Err(ArkError::Wire(WireError::Truncated {
            needed: ENVELOPE_LEN + 1,
            available: body.len(),
        }));
    }
    let id = u64::from_le_bytes(body[..8].try_into().expect("8 bytes checked"));
    Ok((id, &body[ENVELOPE_LEN..]))
}

// ---------------------------------------------------------------------
// BUSY + STATS codecs
// ---------------------------------------------------------------------

/// Builds a `BUSY` load-shed frame with a retry-after hint.
pub fn busy_frame(retry_after_ms: u32) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4);
    put_u32(&mut payload, retry_after_ms);
    write_frame(msg::BUSY, 0, &payload)
}

/// Parses a `BUSY` payload into the retry-after hint.
pub fn decode_busy(cur: &mut Cursor<'_>) -> ArkResult<u32> {
    let ms = cur.u32()?;
    cur.finish().map_err(ArkError::Wire)?;
    Ok(ms)
}

/// Longest counter name accepted by [`decode_stats`] (hostile lengths
/// must not drive allocations).
pub const MAX_STAT_NAME: usize = 256;

/// Encodes a `STATS` frame from named counters.
pub fn stats_frame(counters: &[(String, u64)]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u16(&mut payload, counters.len() as u16);
    for (name, value) in counters {
        put_u16(&mut payload, name.len() as u16);
        payload.extend_from_slice(name.as_bytes());
        put_u64(&mut payload, *value);
    }
    write_frame(msg::STATS, 0, &payload)
}

/// Decodes a `STATS` payload into named counters.
pub fn decode_stats(cur: &mut Cursor<'_>) -> ArkResult<Vec<(String, u64)>> {
    let count = cur.u16()? as usize;
    let mut out = Vec::with_capacity(count.min(256));
    for _ in 0..count {
        let len = cur.u16()? as usize;
        if len > MAX_STAT_NAME {
            return Err(ArkError::Wire(WireError::Malformed {
                what: format!("counter name of {len} bytes exceeds the {MAX_STAT_NAME} cap"),
            }));
        }
        let bytes = cur.take(len).map_err(ArkError::Wire)?;
        let name = String::from_utf8(bytes.to_vec()).map_err(|_| {
            ArkError::Wire(WireError::Malformed {
                what: "counter name is not UTF-8".into(),
            })
        })?;
        let value = cur.u64()?;
        out.push((name, value));
    }
    cur.finish().map_err(ArkError::Wire)?;
    Ok(out)
}

/// Builds an `ERROR` frame.
pub fn error_frame(code: u16, message: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(6 + message.len());
    put_u16(&mut payload, code);
    put_u32(&mut payload, message.len() as u32);
    payload.extend_from_slice(message.as_bytes());
    write_frame(msg::ERROR, 0, &payload)
}

/// Parses an `ERROR` payload into `(code, message)`.
pub fn decode_error(cur: &mut Cursor<'_>) -> ArkResult<(u16, String)> {
    let code = cur.u16()?;
    let len = cur.u32()? as usize;
    let bytes = cur.take(len).map_err(ArkError::Wire)?;
    let message = String::from_utf8(bytes.to_vec()).map_err(|_| {
        ArkError::Wire(WireError::Malformed {
            what: "error message is not UTF-8".into(),
        })
    })?;
    Ok((code, message))
}

/// Human-readable label for an [`code`] error code.
pub fn code_label(c: u16) -> &'static str {
    match c {
        code::PROTOCOL => "protocol",
        code::UNKNOWN_ENGINE => "unknown-engine",
        code::EVALUATION => "evaluation",
        code::SESSION_LIMIT => "session-limit",
        code::UNSUPPORTED => "unsupported",
        code::WIRE => "wire",
        code::VERIFY => "verify",
        _ => "unknown",
    }
}

/// One hosted engine as advertised in `SERVER_INFO`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineInfo {
    /// Parameter-set fingerprint (the engine's address).
    pub fingerprint: u64,
    /// True if the engine evaluates real ciphertexts (software
    /// backend); false if it costs programs on the simulated backend.
    pub software: bool,
    /// log2 of the ring degree.
    pub log_n: u8,
    /// Maximum multiplicative level.
    pub max_level: u32,
    /// Resident key-chain bytes the server holds for this parameter
    /// set (shared across every session; 0 on the simulated backend).
    pub keychain_bytes: u64,
}

/// Encodes a `SERVER_INFO` frame.
pub fn server_info_frame(engines: &[EngineInfo]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u16(&mut payload, engines.len() as u16);
    for e in engines {
        put_u64(&mut payload, e.fingerprint);
        payload.push(if e.software { 0 } else { 1 });
        payload.push(e.log_n);
        put_u32(&mut payload, e.max_level);
        put_u64(&mut payload, e.keychain_bytes);
    }
    write_frame(msg::SERVER_INFO, 0, &payload)
}

/// Decodes a `SERVER_INFO` payload.
pub fn decode_server_info(cur: &mut Cursor<'_>) -> ArkResult<Vec<EngineInfo>> {
    let count = cur.u16()? as usize;
    let mut engines = Vec::with_capacity(count.min(256));
    for _ in 0..count {
        let fingerprint = cur.u64()?;
        let software = match cur.u8()? {
            0 => true,
            1 => false,
            t => {
                return Err(ArkError::Wire(WireError::Malformed {
                    what: format!("unknown backend tag {t}"),
                }))
            }
        };
        let log_n = cur.u8()?;
        let max_level = cur.u32()?;
        let keychain_bytes = cur.u64()?;
        engines.push(EngineInfo {
            fingerprint,
            software,
            log_n,
            max_level,
            keychain_bytes,
        });
    }
    Ok(engines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_math::wire::read_frame;

    #[test]
    fn assembler_memory_stays_bounded_and_messages_come_back_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const MAX_MESSAGE: usize = 1000;
        const CHUNK: usize = 1500;
        let mut rng = StdRng::seed_from_u64(46);
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        for i in 0..10_000u32 {
            let len = rng.gen_range(1..=MAX_MESSAGE);
            let at = open_message(&mut wire, None);
            let body_at = wire.len();
            wire.extend((0..len).map(|j| (i as usize * 31 + j) as u8));
            sent.push(body_at..wire.len());
            close_message(&mut wire, at).unwrap();
        }
        let mut assembler = MessageAssembler::new(MAX_MESSAGE);
        let (mut off, mut got) = (0, 0);
        while off < wire.len() {
            let n = rng.gen_range(1..=CHUNK).min(wire.len() - off);
            assembler.push_bytes(&wire[off..off + n]);
            off += n;
            assert!(
                assembler.buf.capacity() <= 2 * (4 + MAX_MESSAGE) + CHUNK,
                "backing buffer grew to {} bytes",
                assembler.buf.capacity()
            );
            while let Some(message) = assembler.next_message().unwrap() {
                assert_eq!(message, &wire[sent[got].clone()], "message {got}");
                got += 1;
            }
        }
        assert_eq!(got, sent.len());
        assert_eq!(assembler.buffered(), 0);
    }

    #[test]
    fn assembler_refuses_a_hostile_prefix_before_buffering_its_body() {
        for len in [0, 1025, u32::MAX] {
            let mut assembler = MessageAssembler::new(1024);
            assembler.push_bytes(&len.to_le_bytes());
            assert!(matches!(
                assembler.next_message(),
                Err(ArkError::Wire(WireError::Malformed { .. }))
            ));
            // nothing proportional to the claimed length was allocated
            assert_eq!(assembler.buf.capacity(), 4);
        }
    }

    #[test]
    fn envelope_roundtrips_and_rejects_truncation() {
        let frame = busy_frame(125);
        let body = envelope(0xfeed_beef_dead_cafe, &frame);
        let (id, inner) = split_envelope(&body).unwrap();
        assert_eq!(id, 0xfeed_beef_dead_cafe);
        assert_eq!(inner, &frame[..]);
        // an envelope with no frame after the id is truncated
        for cut in 0..=ENVELOPE_LEN {
            assert!(split_envelope(&body[..cut]).is_err());
        }
    }

    #[test]
    fn busy_and_stats_roundtrip() {
        let bytes = busy_frame(250);
        let (frame, _) = read_frame(&bytes).unwrap();
        assert_eq!(frame.kind, msg::BUSY);
        assert_eq!(decode_busy(&mut Cursor::new(frame.payload)).unwrap(), 250);

        let counters = vec![
            ("sessions_accepted".to_string(), 12u64),
            ("shard0.jobs_executed".to_string(), u64::MAX),
        ];
        let bytes = stats_frame(&counters);
        let (frame, _) = read_frame(&bytes).unwrap();
        assert_eq!(frame.kind, msg::STATS);
        assert_eq!(
            decode_stats(&mut Cursor::new(frame.payload)).unwrap(),
            counters
        );
    }

    #[test]
    fn error_frame_roundtrips() {
        let bytes = error_frame(code::EVALUATION, "level mismatch");
        let (frame, _) = read_frame(&bytes).unwrap();
        assert_eq!(frame.kind, msg::ERROR);
        let (c, m) = decode_error(&mut Cursor::new(frame.payload)).unwrap();
        assert_eq!(c, code::EVALUATION);
        assert_eq!(m, "level mismatch");
    }

    #[test]
    fn hostile_stat_name_length_is_rejected() {
        let mut payload = Vec::new();
        put_u16(&mut payload, 1);
        put_u16(&mut payload, u16::MAX);
        payload.extend_from_slice(b"x");
        assert!(decode_stats(&mut Cursor::new(&payload)).is_err());
    }

    #[test]
    fn server_info_roundtrips() {
        let engines = vec![
            EngineInfo {
                fingerprint: 0xdead,
                software: true,
                log_n: 10,
                max_level: 9,
                keychain_bytes: 123456,
            },
            EngineInfo {
                fingerprint: 0xbeef,
                software: false,
                log_n: 16,
                max_level: 23,
                keychain_bytes: 0,
            },
        ];
        let frame = server_info_frame(&engines);
        let (parsed, _) = read_frame(&frame).unwrap();
        let mut cur = Cursor::new(parsed.payload);
        assert_eq!(decode_server_info(&mut cur).unwrap(), engines);
    }

    #[test]
    fn code_labels_cover_every_code() {
        for c in [
            code::PROTOCOL,
            code::UNKNOWN_ENGINE,
            code::EVALUATION,
            code::SESSION_LIMIT,
            code::UNSUPPORTED,
            code::WIRE,
            code::VERIFY,
        ] {
            assert_ne!(code_label(c), "unknown");
        }
        assert_eq!(code_label(0xffff), "unknown");
    }
}
