//! The sans-I/O client core: a protocol state machine with no socket.
//!
//! [`ClientCore`] never touches `std::net`, `std::thread`, or a clock.
//! A transport — blocking TCP (`ark_serve::Client`), an async
//! runtime, or a browser's WebSocket glue compiled to wasm32 — owns the
//! byte stream and drives the core through three verbs:
//!
//! 1. **submit** — `submit_evaluate`/`submit_simulate`/... encode a
//!    request, queue its bytes, and hand back a [`Ticket`];
//! 2. **egress** — [`ClientCore::take_egress`] drains the bytes the
//!    transport must write to the peer;
//! 3. **ingest** — [`ClientCore::ingest`] consumes whatever bytes the
//!    transport read (any chunking), reassembles length-prefixed
//!    messages under the `max_frame_bytes` allocation cap, and turns
//!    them into typed [`Event`]s pulled via [`ClientCore::next_event`].
//!
//! The core owns everything protocol-shaped: the bare
//! `HELLO`/`SERVER_INFO` handshake, the request-id envelope on every
//! later message, pending-request bookkeeping (responses complete in
//! any order), typed `ERROR` and `BUSY` surfacing, and retry of a
//! parked request after a load shed ([`ClientCore::retry`] re-sends
//! under the *same* request id — the id namespace is client-chosen,
//! the server only echoes).
//!
//! Malformed input never panics: every decode failure surfaces as a
//! typed [`ArkError`] from `ingest`, after which the core is *closed*
//! (every further call fails fast). `max_frame_bytes` bounds one wire
//! *frame*, so a message may be [`ENVELOPE_LEN`] bytes longer — the
//! same definition the server applies. Messages are reassembled by the
//! protocol's one [`MessageAssembler`], the one the server reads with:
//! buffered bytes are bounded by `4 + max_frame_bytes + ENVELOPE_LEN`
//! plus the largest single `ingest` chunk, observable via
//! [`ClientCore::buffered_bytes`], and the backing allocation by about
//! twice that — a hostile length prefix is rejected before any
//! proportional allocation.
//!
//! Responses that carry ciphertexts or keys are returned as validated
//! frame payloads (the event holds raw bytes); decode them against the
//! local parameter set with [`decode_result_cts`], [`decode_public_key`]
//! or [`decode_eval_keys`], which check the parameter fingerprint
//! before interpreting any payload byte. This keeps the core free of
//! any long-lived borrow of a [`CkksContext`] while still validating
//! everything attacker-controlled.

use crate::program::Program;
use crate::protocol::{
    self, close_message, code, msg, open_message, EngineInfo, MessageAssembler,
    DEFAULT_MAX_FRAME_BYTES, ENVELOPE_LEN, PROTOCOL_VERSION,
};
use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::params::CkksContext;
use ark_ckks::wire as ckks_wire;
use ark_ckks::{Ciphertext, EvalKey, PublicKey, RotationKeys};
use ark_core::sched::SimReport;
use ark_core::wire as core_wire;
use ark_math::wire::{put_u16, put_u32, read_frame, write_frame, Cursor, FrameWriter};
use std::collections::{HashMap, VecDeque};

/// A ticket for a request in flight; redeem it against the matching
/// completion [`Event`] (events carry the ticket's request id).
#[must_use = "a ticket identifies an in-flight request; dropping it orphans the response"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) fingerprint: u64,
}

impl Ticket {
    /// The request id carried by the completion event.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine fingerprint the request was addressed to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// A typed protocol event produced by [`ClientCore::ingest`].
#[derive(Debug, Clone)]
pub enum Event {
    /// The `HELLO`/`SERVER_INFO` handshake completed; the core is
    /// ready to submit requests.
    Handshake {
        /// The engines the server advertises.
        engines: Vec<EngineInfo>,
    },
    /// A `RESULT_CTS` response: still-encrypted outputs. Decode with
    /// [`decode_result_cts`] against the local parameter set.
    EvalResult {
        /// Id of the ticket this answers.
        request_id: u64,
        /// The validated `RESULT_CTS` frame payload.
        payload: Vec<u8>,
    },
    /// A `RESULT_REPORT` response for a simulated-costing request.
    SimReport {
        /// Id of the ticket this answers.
        request_id: u64,
        /// The decoded cycle-level report.
        report: SimReport,
    },
    /// A `PUBLIC_KEY` response (seed-compressed). Decode with
    /// [`decode_public_key`].
    PublicKey {
        /// Id of the ticket this answers.
        request_id: u64,
        /// The validated `PUBLIC_KEY` frame payload.
        payload: Vec<u8>,
    },
    /// An `EVAL_KEYS` response (seed-compressed mult + rotation keys).
    /// Decode with [`decode_eval_keys`].
    EvalKeys {
        /// Id of the ticket this answers.
        request_id: u64,
        /// The validated `EVAL_KEYS` frame payload.
        payload: Vec<u8>,
    },
    /// A `STATS` response: the server's observability counters.
    Stats {
        /// Id of the ticket this answers.
        request_id: u64,
        /// Name → value counter pairs.
        counters: Vec<(String, u64)>,
    },
    /// The server load-shed the request. The request stays parked in
    /// the core: re-send it with [`ClientCore::retry`] after the
    /// hinted backoff, or drop it with [`ClientCore::abandon`].
    Busy {
        /// Id of the parked ticket.
        request_id: u64,
        /// Server-suggested backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The server answered the request with a typed `ERROR`.
    ServerError {
        /// Id of the ticket this answers.
        request_id: u64,
        /// One of the [`code`] error codes.
        code: u16,
        /// The server's human-readable message.
        message: String,
    },
    /// The server acknowledged a shutdown request; the session is over
    /// and the core is closed.
    Bye {
        /// Id of the `SHUTDOWN` ticket.
        request_id: u64,
    },
}

impl Event {
    /// The request id this event answers, if it answers one.
    pub fn request_id(&self) -> Option<u64> {
        match self {
            Event::Handshake { .. } => None,
            Event::EvalResult { request_id, .. }
            | Event::SimReport { request_id, .. }
            | Event::PublicKey { request_id, .. }
            | Event::EvalKeys { request_id, .. }
            | Event::Stats { request_id, .. }
            | Event::Busy { request_id, .. }
            | Event::ServerError { request_id, .. }
            | Event::Bye { request_id } => Some(*request_id),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `HELLO` queued; waiting for the bare `SERVER_INFO`.
    AwaitServerInfo,
    /// Handshake done; requests may be submitted.
    Ready,
    /// Terminal: after `BYE`, a protocol violation, or a decode error.
    Closed,
}

/// One in-flight request.
#[derive(Debug)]
struct Pending {
    /// Response frame kind that completes this request.
    expect: u16,
    /// Engine fingerprint the request was addressed to.
    fingerprint: u64,
    /// The encoded request frame, retained so a `BUSY` shed can be
    /// retried under the same id; dropped once parked-and-abandoned or
    /// completed.
    frame: Vec<u8>,
    /// True once the server shed this request with `BUSY`; it must be
    /// explicitly [`ClientCore::retry`]-ed or abandoned.
    parked: bool,
}

/// Configuration for a [`ClientCore`].
#[must_use = "a builder does nothing until `.build()` is called"]
#[derive(Debug, Clone)]
pub struct CoreConfig {
    max_frame_bytes: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

impl CoreConfig {
    /// Largest wire frame this core accepts (allocation bound; a
    /// message may add the [`ENVELOPE_LEN`]-byte request id on top).
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Builds the core. The `HELLO` frame is already queued as egress.
    pub fn build(self) -> ClientCore {
        let mut core = ClientCore {
            max_frame_bytes: self.max_frame_bytes,
            phase: Phase::AwaitServerInfo,
            engines: Vec::new(),
            assembler: MessageAssembler::new(self.max_frame_bytes + ENVELOPE_LEN),
            egress: Vec::new(),
            events: VecDeque::new(),
            next_request_id: 1,
            pending: HashMap::new(),
        };
        // the handshake is bare: the envelope starts with the first
        // message after it
        let at = open_message(&mut core.egress, None);
        let mut hello = FrameWriter::begin(&mut core.egress, msg::HELLO, 0);
        put_u16(hello.payload(), PROTOCOL_VERSION);
        hello.finish();
        close_message(&mut core.egress, at).expect("HELLO fits a message");
        core
    }
}

/// The sans-I/O client protocol state machine. See the module docs for
/// the ingest/egress lifecycle.
#[derive(Debug)]
pub struct ClientCore {
    max_frame_bytes: usize,
    phase: Phase,
    engines: Vec<EngineInfo>,
    assembler: MessageAssembler,
    egress: Vec<u8>,
    events: VecDeque<Event>,
    next_request_id: u64,
    pending: HashMap<u64, Pending>,
}

impl ClientCore {
    /// A core with the default frame cap, `HELLO` already queued.
    pub fn new() -> Self {
        CoreConfig::default().build()
    }

    /// A configuration builder (the frame cap).
    pub fn config() -> CoreConfig {
        CoreConfig::default()
    }

    // -- observers ----------------------------------------------------

    /// Largest wire frame this core accepts
    /// ([`CoreConfig::max_frame_bytes`]).
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// True once `SERVER_INFO` arrived and requests may be submitted.
    pub fn is_ready(&self) -> bool {
        self.phase == Phase::Ready
    }

    /// True once the core reached its terminal state (after `BYE`, a
    /// protocol violation, or a decode failure).
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// The engines the server advertised in the handshake.
    pub fn engines(&self) -> &[EngineInfo] {
        &self.engines
    }

    /// The advertised engine with the given fingerprint, if any.
    pub fn engine(&self, fingerprint: u64) -> Option<&EngineInfo> {
        self.engines.iter().find(|e| e.fingerprint == fingerprint)
    }

    /// Number of requests in flight (including parked `BUSY` ones).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Reassembly bytes currently buffered. Bounded by
    /// `4 + max_frame_bytes + ENVELOPE_LEN` plus the largest single
    /// [`ingest`] chunk, in an allocation of about twice that (hostile
    /// length prefixes are rejected before allocation).
    ///
    /// [`ingest`]: ClientCore::ingest
    pub fn buffered_bytes(&self) -> usize {
        self.assembler.buffered()
    }

    // -- egress -------------------------------------------------------

    /// Drains the bytes the transport must now write to the peer.
    /// Empty when nothing is queued.
    pub fn take_egress(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.egress)
    }

    // -- ingest -------------------------------------------------------

    /// Consumes bytes read from the peer (any chunking) and converts
    /// complete messages into typed [`Event`]s.
    ///
    /// # Errors
    ///
    /// A typed [`ArkError`] on any protocol violation or decode
    /// failure — never a panic. After an error the core is closed and
    /// every further call fails fast.
    pub fn ingest(&mut self, bytes: &[u8]) -> ArkResult<()> {
        self.fail_if_closed()?;
        // the handlers borrow each message straight out of the
        // assembler's buffer, so it leaves `self` while they run
        let mut assembler = std::mem::replace(&mut self.assembler, MessageAssembler::new(0));
        assembler.push_bytes(bytes);
        let handled = loop {
            match assembler.next_message() {
                Ok(Some(message)) => {
                    if let Err(e) = self.handle_message(message) {
                        break Err(e);
                    }
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.assembler = assembler;
        if handled.is_err() {
            self.phase = Phase::Closed;
        }
        handled
    }

    /// The next queued event, if any.
    pub fn next_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    fn fail_if_closed(&self) -> ArkResult<()> {
        if self.phase == Phase::Closed {
            return Err(ArkError::Serve {
                reason: "client core is closed (session over or poisoned by an earlier error)"
                    .into(),
            });
        }
        Ok(())
    }

    fn handle_message(&mut self, message: &[u8]) -> ArkResult<()> {
        match self.phase {
            Phase::AwaitServerInfo => self.handle_handshake(message),
            Phase::Ready => self.handle_response(message),
            Phase::Closed => unreachable!("ingest checks the phase first"),
        }
    }

    fn handle_handshake(&mut self, message: &[u8]) -> ArkResult<()> {
        let (frame, _) = read_frame(message)?;
        if frame.kind == msg::ERROR {
            let (c, m) = protocol::decode_error(&mut Cursor::new(frame.payload))?;
            // the only handshake-time rejection is a version gap;
            // surface it typed so callers can distinguish "upgrade one
            // side" from transport loss
            if c == code::PROTOCOL {
                return Err(ArkError::VersionMismatch {
                    client: PROTOCOL_VERSION,
                    reason: m,
                });
            }
            return Err(ArkError::Serve {
                reason: format!(
                    "server rejected the handshake ({}): {m}",
                    protocol::code_label(c)
                ),
            });
        }
        if frame.kind != msg::SERVER_INFO {
            return Err(ArkError::Serve {
                reason: format!(
                    "protocol violation: expected SERVER_INFO in the handshake, got kind {:#x}",
                    frame.kind
                ),
            });
        }
        self.engines = protocol::decode_server_info(&mut Cursor::new(frame.payload))?;
        self.phase = Phase::Ready;
        self.events.push_back(Event::Handshake {
            engines: self.engines.clone(),
        });
        Ok(())
    }

    fn handle_response(&mut self, message: &[u8]) -> ArkResult<()> {
        let (request_id, frame_bytes) = protocol::split_envelope(message)?;
        let pending = self
            .pending
            .get(&request_id)
            .ok_or_else(|| ArkError::Serve {
                reason: format!("protocol violation: response for unknown request id {request_id}"),
            })?;
        let expect = pending.expect;
        let fingerprint = pending.fingerprint;

        let (frame, _) = read_frame(frame_bytes)?;
        if frame.kind == msg::BUSY {
            let retry_after_ms = protocol::decode_busy(&mut Cursor::new(frame.payload))?;
            self.pending
                .get_mut(&request_id)
                .expect("looked up above")
                .parked = true;
            self.events.push_back(Event::Busy {
                request_id,
                retry_after_ms,
            });
            return Ok(());
        }

        // every non-BUSY response completes the request
        self.pending.remove(&request_id);
        if frame.kind == msg::ERROR {
            let (c, m) = protocol::decode_error(&mut Cursor::new(frame.payload))?;
            self.events.push_back(Event::ServerError {
                request_id,
                code: c,
                message: m,
            });
            return Ok(());
        }
        if frame.kind != expect {
            return Err(ArkError::Serve {
                reason: format!(
                    "protocol violation: expected frame kind {expect:#x}, got {:#x}",
                    frame.kind
                ),
            });
        }
        let event = match frame.kind {
            msg::RESULT_CTS => Event::EvalResult {
                request_id,
                payload: frame.payload.to_vec(),
            },
            msg::RESULT_REPORT => Event::SimReport {
                request_id,
                report: core_wire::read_sim_report(frame.payload, fingerprint)?,
            },
            msg::PUBLIC_KEY => Event::PublicKey {
                request_id,
                payload: frame.payload.to_vec(),
            },
            msg::EVAL_KEYS => Event::EvalKeys {
                request_id,
                payload: frame.payload.to_vec(),
            },
            msg::STATS => Event::Stats {
                request_id,
                counters: protocol::decode_stats(&mut Cursor::new(frame.payload))?,
            },
            msg::BYE => {
                self.phase = Phase::Closed;
                Event::Bye { request_id }
            }
            other => {
                return Err(ArkError::Serve {
                    reason: format!("protocol violation: unexpected frame kind {other:#x}"),
                })
            }
        };
        self.events.push_back(event);
        Ok(())
    }

    // -- submission ---------------------------------------------------

    /// Queues the request frame `write` appends under a fresh id,
    /// returning its ticket. The request is written once, where the
    /// transport takes it from: prefix, id, then the frame, sealed in
    /// place. (The copy retained for a `BUSY` retry costs about a quarter
    /// of what hashing the frame does: for a 216 KiB frame, best of 200
    /// in release on a 2-core Xeon host, `to_vec` took 6.5–7.9 µs and
    /// `ark_math::wire::checksum` 23–26 µs.)
    fn submit(
        &mut self,
        expect: u16,
        fingerprint: u64,
        write: impl FnOnce(&mut Vec<u8>) -> ArkResult<()>,
    ) -> ArkResult<Ticket> {
        self.fail_if_closed()?;
        if !self.is_ready() {
            return Err(ArkError::Serve {
                reason: "handshake incomplete: ingest SERVER_INFO before submitting".into(),
            });
        }
        let id = self.next_request_id;
        let at = open_message(&mut self.egress, Some(id));
        let frame_at = self.egress.len();
        if let Err(e) = write(&mut self.egress) {
            self.egress.truncate(at);
            return Err(e);
        }
        close_message(&mut self.egress, at)?;
        self.next_request_id += 1;
        self.pending.insert(
            id,
            Pending {
                expect,
                fingerprint,
                frame: self.egress[frame_at..].to_vec(),
                parked: false,
            },
        );
        Ok(Ticket { id, fingerprint })
    }

    /// Submits a request that is all header: an empty frame of kind
    /// `request`.
    fn submit_empty(&mut self, request: u16, expect: u16, fingerprint: u64) -> ArkResult<Ticket> {
        self.submit(expect, fingerprint, |out| {
            FrameWriter::begin(out, request, fingerprint).finish();
            Ok(())
        })
    }

    /// Submits an evaluation of `program` over locally-encrypted
    /// inputs on the software engine `fingerprint`. The context only
    /// encodes the inputs; it is not retained.
    pub fn submit_evaluate(
        &mut self,
        fingerprint: u64,
        program: &Program,
        inputs: &[Ciphertext],
        ctx: &CkksContext,
    ) -> ArkResult<Ticket> {
        self.submit(msg::RESULT_CTS, fingerprint, |out| {
            write_evaluate(out, fingerprint, program, inputs, ctx)
        })
    }

    /// Submits a simulated costing of `program` with symbolic inputs
    /// at the given levels.
    pub fn submit_simulate(
        &mut self,
        fingerprint: u64,
        program: &Program,
        levels: &[usize],
    ) -> ArkResult<Ticket> {
        self.submit(msg::RESULT_REPORT, fingerprint, |out| {
            out.extend_from_slice(&simulate_frame(fingerprint, program, levels)?);
            Ok(())
        })
    }

    /// Requests the seed-compressed public key of engine `fingerprint`.
    pub fn submit_get_public_key(&mut self, fingerprint: u64) -> ArkResult<Ticket> {
        self.submit_empty(msg::GET_PUBLIC_KEY, msg::PUBLIC_KEY, fingerprint)
    }

    /// Requests the seed-compressed evaluation keys (mult + rotation
    /// set) of engine `fingerprint`.
    pub fn submit_get_eval_keys(&mut self, fingerprint: u64) -> ArkResult<Ticket> {
        self.submit_empty(msg::GET_EVAL_KEYS, msg::EVAL_KEYS, fingerprint)
    }

    /// Requests the server's observability counters.
    pub fn submit_get_stats(&mut self) -> ArkResult<Ticket> {
        self.submit_empty(msg::GET_STATS, msg::STATS, 0)
    }

    /// Asks the server to shut down gracefully; completion is
    /// [`Event::Bye`], after which the core is closed.
    pub fn submit_shutdown(&mut self) -> ArkResult<Ticket> {
        self.submit_empty(msg::SHUTDOWN, msg::BYE, 0)
    }

    /// Re-sends a request the server parked with `BUSY`, under its
    /// original id. The backoff policy (when to call this) belongs to
    /// the transport — the core has no clock.
    pub fn retry(&mut self, ticket: Ticket) -> ArkResult<()> {
        self.fail_if_closed()?;
        let pending = self
            .pending
            .get_mut(&ticket.id)
            .ok_or_else(|| ArkError::Serve {
                reason: format!("no parked request with id {}", ticket.id),
            })?;
        if !pending.parked {
            return Err(ArkError::Serve {
                reason: format!("request {} is in flight, not parked", ticket.id),
            });
        }
        pending.parked = false;
        let at = open_message(&mut self.egress, Some(ticket.id));
        self.egress.extend_from_slice(&pending.frame);
        close_message(&mut self.egress, at)
    }

    /// Drops a parked (or in-flight) request, freeing its retained
    /// frame. A late response for an abandoned id is a protocol
    /// violation.
    pub fn abandon(&mut self, ticket: Ticket) {
        self.pending.remove(&ticket.id);
    }
}

impl Default for ClientCore {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Request encoders and response payload decoders (sans-I/O, reused by
// every transport)
// ---------------------------------------------------------------------

/// The wire counts inputs with a `u16`; reject rather than silently
/// truncate an oversized request.
fn count_u16(n: usize) -> ArkResult<u16> {
    u16::try_from(n).map_err(|_| ArkError::Serve {
        reason: format!("{n} inputs exceed the wire's u16 count"),
    })
}

/// Encodes an `EVALUATE` request frame.
pub fn evaluate_frame(
    fingerprint: u64,
    program: &Program,
    inputs: &[Ciphertext],
    ctx: &CkksContext,
) -> ArkResult<Vec<u8>> {
    let mut out = Vec::new();
    write_evaluate(&mut out, fingerprint, program, inputs, ctx)?;
    Ok(out)
}

/// Appends an `EVALUATE` request frame to `out`: every ciphertext is
/// encoded once, where it ships from, and hashed once — into its own
/// checksum and the request's in the same pass.
fn write_evaluate(
    out: &mut Vec<u8>,
    fingerprint: u64,
    program: &Program,
    inputs: &[Ciphertext],
    ctx: &CkksContext,
) -> ArkResult<()> {
    let count = count_u16(inputs.len())?;
    let mut frame = FrameWriter::begin(out, msg::EVALUATE, fingerprint);
    program.encode(frame.payload());
    put_u16(frame.payload(), count);
    ckks_wire::nest_ciphertexts(&mut frame, ctx, inputs);
    frame.finish();
    Ok(())
}

/// Encodes a `SIMULATE` request frame.
pub fn simulate_frame(fingerprint: u64, program: &Program, levels: &[usize]) -> ArkResult<Vec<u8>> {
    let mut payload = Vec::new();
    program.encode(&mut payload);
    put_u16(&mut payload, count_u16(levels.len())?);
    for &l in levels {
        put_u32(&mut payload, l as u32);
    }
    Ok(write_frame(msg::SIMULATE, fingerprint, &payload))
}

/// Decodes a `RESULT_CTS` payload into still-encrypted outputs,
/// validating every ciphertext against the local parameter set.
pub fn decode_result_cts(ctx: &CkksContext, payload: &[u8]) -> ArkResult<Vec<Ciphertext>> {
    let mut cur = Cursor::new(payload);
    let count = cur.u16()? as usize;
    let rest = cur.take(cur.remaining())?;
    let mut outputs = Vec::with_capacity(count.min(256));
    let mut off = 0;
    for _ in 0..count {
        let (ct, used) = ckks_wire::read_ciphertext_prefix(ctx, &rest[off..])?;
        off += used;
        outputs.push(ct);
    }
    Ok(outputs)
}

/// Decodes a `PUBLIC_KEY` payload: the seed-compressed key, which is
/// the key itself — bit-identical to the key the server holds.
pub fn decode_public_key(ctx: &CkksContext, payload: &[u8]) -> ArkResult<PublicKey> {
    ckks_wire::read_compressed_public_key(ctx, payload)
}

/// Decodes an `EVAL_KEYS` payload — two concatenated nested frames:
/// the seed-compressed mult key, then the rotation-key set — into the
/// keys the server holds, bit for bit.
pub fn decode_eval_keys(ctx: &CkksContext, payload: &[u8]) -> ArkResult<(EvalKey, RotationKeys)> {
    let fp = ckks_wire::param_fingerprint(ctx.params());
    let (mult_frame, used) = ark_math::wire::read_frame_expecting(
        payload,
        ark_math::wire::kind::COMPRESSED_EVAL_KEY,
        fp,
    )?;
    let mut cur = Cursor::new(mult_frame.payload);
    let mult = ckks_wire::decode_compressed_eval_key(&mut cur, ctx)?;
    cur.finish().map_err(ArkError::Wire)?;
    let rotations = ckks_wire::read_compressed_rotation_keys(ctx, &payload[used..])?;
    Ok((mult, rotations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{server_info_frame, stats_frame};
    use ark_math::wire::WireError;

    fn message(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    fn some_engines() -> Vec<EngineInfo> {
        vec![EngineInfo {
            fingerprint: 0xabcd,
            software: true,
            log_n: 10,
            max_level: 9,
            keychain_bytes: 64,
        }]
    }

    fn handshaken() -> ClientCore {
        handshake(ClientCore::new())
    }

    fn handshake(mut core: ClientCore) -> ClientCore {
        let hello = core.take_egress();
        assert!(!hello.is_empty(), "HELLO must be queued at construction");
        core.ingest(&message(&server_info_frame(&some_engines())))
            .unwrap();
        assert!(matches!(core.next_event(), Some(Event::Handshake { .. })));
        assert!(core.is_ready());
        core
    }

    #[test]
    fn handshake_lifecycle() {
        let core = handshaken();
        assert_eq!(core.engines().len(), 1);
        assert!(core.engine(0xabcd).is_some());
        assert!(core.engine(0x1234).is_none());
    }

    #[test]
    fn handshake_version_rejection_is_typed() {
        let mut core = ClientCore::new();
        let _ = core.take_egress();
        let reject = protocol::error_frame(code::PROTOCOL, "server speaks protocol 8");
        let err = core.ingest(&message(&reject)).unwrap_err();
        assert!(matches!(
            err,
            ArkError::VersionMismatch {
                client: PROTOCOL_VERSION,
                ..
            }
        ));
        assert!(core.is_closed());
    }

    #[test]
    fn responses_complete_out_of_order() {
        let mut core = handshaken();
        let t1 = core.submit_get_stats().unwrap();
        let t2 = core.submit_get_stats().unwrap();
        assert_ne!(t1.id(), t2.id());
        assert_eq!(core.in_flight(), 2);
        let _ = core.take_egress();

        let counters = vec![("x".to_string(), 7u64)];
        // answer the second ticket first
        core.ingest(&message(&protocol::envelope(
            t2.id(),
            &stats_frame(&counters),
        )))
        .unwrap();
        core.ingest(&message(&protocol::envelope(
            t1.id(),
            &stats_frame(&counters),
        )))
        .unwrap();
        let first = core.next_event().unwrap();
        assert_eq!(first.request_id(), Some(t2.id()));
        let second = core.next_event().unwrap();
        assert_eq!(second.request_id(), Some(t1.id()));
        assert_eq!(core.in_flight(), 0);
    }

    #[test]
    fn busy_parks_and_retry_resends_same_id() {
        let mut core = handshaken();
        let t = core.submit_get_stats().unwrap();
        let first_egress = core.take_egress();
        core.ingest(&message(&protocol::envelope(
            t.id(),
            &protocol::busy_frame(15),
        )))
        .unwrap();
        match core.next_event().unwrap() {
            Event::Busy {
                request_id,
                retry_after_ms,
            } => {
                assert_eq!(request_id, t.id());
                assert_eq!(retry_after_ms, 15);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // still pending, parked; retry re-queues identical bytes
        assert_eq!(core.in_flight(), 1);
        core.retry(t).unwrap();
        let second_egress = core.take_egress();
        assert_eq!(first_egress, second_egress);
        // retrying an unparked request is a typed error
        assert!(core.retry(t).is_err());
        // completion after retry
        core.ingest(&message(&protocol::envelope(t.id(), &stats_frame(&[]))))
            .unwrap();
        assert!(matches!(core.next_event(), Some(Event::Stats { .. })));
        assert_eq!(core.in_flight(), 0);
    }

    #[test]
    fn abandon_frees_a_parked_request() {
        let mut core = handshaken();
        let t = core.submit_get_stats().unwrap();
        let _ = core.take_egress();
        core.ingest(&message(&protocol::envelope(
            t.id(),
            &protocol::busy_frame(1),
        )))
        .unwrap();
        let _ = core.next_event();
        core.abandon(t);
        assert_eq!(core.in_flight(), 0);
        assert!(core.retry(t).is_err());
    }

    #[test]
    fn server_error_is_an_event_not_a_poison() {
        let mut core = handshaken();
        let t = core.submit_get_stats().unwrap();
        let _ = core.take_egress();
        core.ingest(&message(&protocol::envelope(
            t.id(),
            &protocol::error_frame(code::SESSION_LIMIT, "budget"),
        )))
        .unwrap();
        match core.next_event().unwrap() {
            Event::ServerError {
                request_id,
                code: c,
                message: m,
            } => {
                assert_eq!(request_id, t.id());
                assert_eq!(c, code::SESSION_LIMIT);
                assert_eq!(m, "budget");
            }
            other => panic!("expected ServerError, got {other:?}"),
        }
        // the session stays usable
        assert!(core.is_ready());
        let _ = core.submit_get_stats().unwrap();
    }

    #[test]
    fn unknown_request_id_poisons() {
        let mut core = handshaken();
        let _ = core.submit_get_stats().unwrap();
        let _ = core.take_egress();
        let err = core
            .ingest(&message(&protocol::envelope(999, &stats_frame(&[]))))
            .unwrap_err();
        assert!(matches!(err, ArkError::Serve { .. }));
        assert!(core.is_closed());
        assert!(core.submit_get_stats().is_err());
        assert!(core.ingest(&[0]).is_err());
    }

    #[test]
    fn kind_mismatch_poisons() {
        let mut core = handshaken();
        let t = core.submit_get_stats().unwrap();
        let _ = core.take_egress();
        let err = core
            .ingest(&message(&protocol::envelope(
                t.id(),
                &write_frame(msg::RESULT_CTS, 0, &[0, 0]),
            )))
            .unwrap_err();
        assert!(matches!(err, ArkError::Serve { .. }));
        assert!(core.is_closed());
    }

    #[test]
    fn byte_at_a_time_ingest_reassembles() {
        let mut core = ClientCore::new();
        let _ = core.take_egress();
        let bytes = message(&server_info_frame(&some_engines()));
        for b in &bytes {
            core.ingest(std::slice::from_ref(b)).unwrap();
        }
        assert!(core.is_ready());
        assert!(core.buffered_bytes() == 0);
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut core = ClientCore::config().max_frame_bytes(1024).build();
        let _ = core.take_egress();
        let err = core.ingest(&u32::MAX.to_le_bytes()).unwrap_err();
        assert!(matches!(err, ArkError::Wire(_)));
        assert!(core.is_closed());
        assert!(core.buffered_bytes() <= 8);
        // zero-length messages are equally malformed
        let mut core = ClientCore::config().max_frame_bytes(1024).build();
        let _ = core.take_egress();
        assert!(core.ingest(&0u32.to_le_bytes()).is_err());
    }

    #[test]
    fn frame_cap_bounds_the_frame_not_the_message() {
        // a response whose frame is exactly `max_frame_bytes` is what a
        // server with the same setting may legitimately send: the
        // envelope rides on top of the cap
        let frame = protocol::error_frame(code::EVALUATION, &"x".repeat(200));
        let cap = frame.len();
        let mut core = handshake(ClientCore::config().max_frame_bytes(cap).build());
        let t = core.submit_get_stats().unwrap();
        let _ = core.take_egress();
        core.ingest(&message(&protocol::envelope(t.id(), &frame)))
            .unwrap();
        assert!(matches!(core.next_event(), Some(Event::ServerError { .. })));
        // one byte more is refused on the prefix alone, before any
        // body byte could be buffered
        let prefix = ((cap + ENVELOPE_LEN + 1) as u32).to_le_bytes();
        let err = core.ingest(&prefix).unwrap_err();
        assert!(matches!(err, ArkError::Wire(WireError::Malformed { .. })));
        assert!(core.is_closed());
        assert!(core.buffered_bytes() <= 4);
    }

    #[test]
    fn bye_closes_the_core() {
        let mut core = handshaken();
        let t = core.submit_shutdown().unwrap();
        let _ = core.take_egress();
        core.ingest(&message(&protocol::envelope(
            t.id(),
            &write_frame(msg::BYE, 0, &[]),
        )))
        .unwrap();
        assert!(matches!(core.next_event(), Some(Event::Bye { .. })));
        assert!(core.is_closed());
    }

    #[test]
    fn submitting_before_handshake_is_a_typed_error() {
        let mut core = ClientCore::new();
        assert!(core.submit_get_stats().is_err());
    }
}
