//! The blocking client: connect, pick an engine by fingerprint, ship
//! ciphertexts, get results.
//!
//! [`Client`] is a *thin transport adapter*: a [`TcpStream`] plus
//! timeout/backoff policy wrapped around the sans-I/O [`ClientCore`]
//! state machine from `ark-client`, which owns every protocol decision
//! (handshake, request-id framing, pending-request bookkeeping, typed
//! `ERROR`/`BUSY` surfacing). Anything that can run
//! on wasm32 lives in the core; only the socket, the clock, and the
//! retry policy live here.
//!
//! Encryption and decryption stay with the caller's own
//! [`Engine`](ark_fhe::Engine): encrypt locally, [`Client::evaluate`]
//! remotely, decrypt locally. Decoding server responses requires the
//! caller's [`CkksContext`] so every received ciphertext is validated
//! against the local parameter set (a response produced under
//! different parameters is rejected by fingerprint before any payload
//! byte is interpreted).
//!
//! # Pipelining
//!
//! Every post-handshake message carries a `u64` request id, so several
//! requests can be in flight on one connection.
//! [`Client::submit_evaluate`]/[`Client::submit_simulate`] return a
//! [`Ticket`] without waiting; [`Client::wait_evaluate`]/
//! [`Client::wait_simulate`] collect results in any order (responses
//! that arrive for other tickets are stashed until asked for). The
//! plain [`Client::evaluate`]/[`Client::simulate`] calls are
//! synchronous submit-then-wait pairs.
//!
//! # Load shed and automatic retry
//!
//! A server under load may answer a submission with a typed `BUSY`
//! load-shed. By default it surfaces as [`ArkError::Busy`] carrying
//! the suggested backoff — transient by design, retry instead of
//! failing over. With [`ClientBuilder::busy_retries`]`(n)` the adapter
//! retries automatically: jittered exponential backoff seeded from the
//! server's `retry_after_ms` hint, re-submitting the parked request
//! under its original id up to `n` times before the `Busy` error is
//! surfaced.

use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::params::CkksContext;
use ark_ckks::{Ciphertext, EvalKey, PublicKey, RotationKeys};
use ark_client::core::{decode_eval_keys, decode_public_key, decode_result_cts, ClientCore, Event};
use ark_client::program::Program;
use ark_client::protocol::{code_label, DEFAULT_MAX_FRAME_BYTES};
use ark_core::sched::SimReport;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime};

pub use ark_client::core::Ticket;
pub use ark_client::protocol::EngineInfo;

fn io_err(context: &str, e: impl std::fmt::Display) -> ArkError {
    ArkError::Serve {
        reason: format!("{context}: {e}"),
    }
}

/// Ceiling on one automatic-backoff sleep, however many attempts the
/// exponential schedule has compounded.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Configures and opens a [`Client`] connection.
#[must_use = "a builder does nothing until `.connect()` is called"]
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_frame_bytes: usize,
    busy_retries: u32,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        Self {
            read_timeout: None,
            write_timeout: None,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            busy_retries: 0,
        }
    }
}

impl ClientBuilder {
    /// Bounds how long one receive may wait for the server. Without it
    /// a dead server (or a wedged network) hangs the read forever; with
    /// it the wait surfaces as a typed [`ArkError::Serve`] timeout.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Bounds how long one send may block on a server that stops
    /// draining its socket.
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = Some(timeout);
        self
    }

    /// Largest wire frame this client accepts (allocation bound).
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Retries a `BUSY` load-shed automatically up to `n` times with
    /// jittered exponential backoff honoring the server's
    /// `retry_after_ms` hint, before surfacing [`ArkError::Busy`].
    /// Default 0: every shed surfaces immediately.
    pub fn busy_retries(mut self, n: u32) -> Self {
        self.busy_retries = n;
        self
    }

    /// Connects and performs the `HELLO` handshake, learning the
    /// hosted engine inventory.
    ///
    /// # Errors
    ///
    /// [`ArkError::Serve`] on transport failure or a handshake
    /// rejection; [`ArkError::VersionMismatch`] when the server speaks
    /// a different protocol version.
    pub fn connect(self, addr: impl ToSocketAddrs) -> ArkResult<Client> {
        let core = ClientCore::config()
            .max_frame_bytes(self.max_frame_bytes)
            .build();
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(self.read_timeout)
            .map_err(|e| io_err("set read timeout", e))?;
        stream
            .set_write_timeout(self.write_timeout)
            .map_err(|e| io_err("set write timeout", e))?;
        // a cheap, non-cryptographic jitter seed; correctness never
        // depends on it (it only decorrelates retry storms)
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            | 1;
        let mut client = Client {
            stream,
            core,
            read_timeout: self.read_timeout,
            busy_retries: self.busy_retries,
            sheds_absorbed: 0,
            completed: HashMap::new(),
            rng: seed,
        };
        // the HELLO queued at core construction goes out now; the
        // handshake completes once SERVER_INFO is ingested
        client.flush_egress()?;
        while !client.core.is_ready() {
            client.pump()?;
            while let Some(event) = client.core.next_event() {
                client.stash(event);
            }
        }
        Ok(client)
    }
}

/// A blocking `ark-serve` client session over one TCP connection.
pub struct Client {
    stream: TcpStream,
    core: ClientCore,
    read_timeout: Option<Duration>,
    busy_retries: u32,
    /// `BUSY` sheds converted to a retry by the automatic backoff.
    sheds_absorbed: u64,
    /// Completion events received while waiting for a different
    /// ticket.
    completed: HashMap<u64, Event>,
    /// xorshift64* state for backoff jitter.
    rng: u64,
}

impl Client {
    /// A connection builder with timeout, frame-cap, and retry knobs.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Connects with defaults and performs the `HELLO` handshake,
    /// learning the hosted engine inventory.
    pub fn connect(addr: impl ToSocketAddrs) -> ArkResult<Self> {
        ClientBuilder::default().connect(addr)
    }

    /// The engines the server advertises.
    pub fn engines(&self) -> &[EngineInfo] {
        self.core.engines()
    }

    /// The advertised engine with the given fingerprint, if any.
    pub fn engine(&self, fingerprint: u64) -> Option<&EngineInfo> {
        self.core.engine(fingerprint)
    }

    /// `BUSY` sheds this session absorbed — retried after backoff
    /// instead of surfacing ([`ClientBuilder::busy_retries`]).
    pub fn sheds_absorbed(&self) -> u64 {
        self.sheds_absorbed
    }

    /// Fetches the server's public key for a hosted software engine so
    /// the session can encrypt inputs under the server's key chain.
    /// The key travels as it is held — the seed of its uniform half
    /// plus its `B` limbs — so the decoded key is bit-identical to the
    /// server's.
    pub fn public_key(&mut self, fingerprint: u64, ctx: &CkksContext) -> ArkResult<PublicKey> {
        let ticket = self.core.submit_get_public_key(fingerprint)?;
        self.flush_egress()?;
        match self.wait_for(ticket)? {
            Event::PublicKey { payload, .. } => decode_public_key(ctx, &payload),
            other => Err(unexpected_event(&other)),
        }
    }

    /// Fetches the server's evaluation keys (multiplication key plus
    /// the declared rotation/conjugation set) for local evaluation.
    /// Both travel as they are held, seed plus `B` limbs.
    pub fn eval_keys(
        &mut self,
        fingerprint: u64,
        ctx: &CkksContext,
    ) -> ArkResult<(EvalKey, RotationKeys)> {
        let ticket = self.core.submit_get_eval_keys(fingerprint)?;
        self.flush_egress()?;
        match self.wait_for(ticket)? {
            Event::EvalKeys { payload, .. } => decode_eval_keys(ctx, &payload),
            other => Err(unexpected_event(&other)),
        }
    }

    /// Evaluates `program` remotely over locally-encrypted inputs on
    /// the software engine `fingerprint`, returning the still-encrypted
    /// outputs (decrypt with the local session key).
    pub fn evaluate(
        &mut self,
        fingerprint: u64,
        program: &Program,
        inputs: &[Ciphertext],
        ctx: &CkksContext,
    ) -> ArkResult<Vec<Ciphertext>> {
        let ticket = self.submit_evaluate(fingerprint, program, inputs, ctx)?;
        self.wait_evaluate(ticket, ctx)
    }

    /// Costs `program` on the simulated engine `fingerprint` with
    /// symbolic inputs at the given levels, returning the cycle-level
    /// report.
    pub fn simulate(
        &mut self,
        fingerprint: u64,
        program: &Program,
        levels: &[usize],
    ) -> ArkResult<SimReport> {
        let ticket = self.submit_simulate(fingerprint, program, levels)?;
        self.wait_simulate(ticket)
    }

    /// Submits an evaluation without waiting (pipelining). Redeem the
    /// ticket with [`Client::wait_evaluate`].
    pub fn submit_evaluate(
        &mut self,
        fingerprint: u64,
        program: &Program,
        inputs: &[Ciphertext],
        ctx: &CkksContext,
    ) -> ArkResult<Ticket> {
        let ticket = self
            .core
            .submit_evaluate(fingerprint, program, inputs, ctx)?;
        self.flush_egress()?;
        Ok(ticket)
    }

    /// Submits a simulation without waiting (pipelining). Redeem the
    /// ticket with [`Client::wait_simulate`].
    pub fn submit_simulate(
        &mut self,
        fingerprint: u64,
        program: &Program,
        levels: &[usize],
    ) -> ArkResult<Ticket> {
        let ticket = self.core.submit_simulate(fingerprint, program, levels)?;
        self.flush_egress()?;
        Ok(ticket)
    }

    /// Waits for a pipelined evaluation's still-encrypted outputs.
    pub fn wait_evaluate(
        &mut self,
        ticket: Ticket,
        ctx: &CkksContext,
    ) -> ArkResult<Vec<Ciphertext>> {
        match self.wait_for(ticket)? {
            Event::EvalResult { payload, .. } => decode_result_cts(ctx, &payload),
            other => Err(unexpected_event(&other)),
        }
    }

    /// Waits for a pipelined simulation's report.
    pub fn wait_simulate(&mut self, ticket: Ticket) -> ArkResult<SimReport> {
        match self.wait_for(ticket)? {
            Event::SimReport { report, .. } => Ok(report),
            other => Err(unexpected_event(&other)),
        }
    }

    /// Fetches the server's observability counters (accepted/active
    /// sessions, the job queue's high-water mark, executed jobs per
    /// worker and shed jobs, runtime-key-cache hits, executed ops by
    /// kind) as name → value pairs.
    pub fn stats(&mut self) -> ArkResult<Vec<(String, u64)>> {
        let ticket = self.core.submit_get_stats()?;
        self.flush_egress()?;
        match self.wait_for(ticket)? {
            Event::Stats { counters, .. } => Ok(counters),
            other => Err(unexpected_event(&other)),
        }
    }

    /// Asks the server to shut down gracefully, consuming the client.
    pub fn shutdown_server(mut self) -> ArkResult<()> {
        let ticket = self.core.submit_shutdown()?;
        self.flush_egress()?;
        match self.wait_for(ticket)? {
            Event::Bye { .. } => Ok(()),
            other => Err(unexpected_event(&other)),
        }
    }

    // -- transport ----------------------------------------------------

    /// Writes everything the core has queued.
    fn flush_egress(&mut self) -> ArkResult<()> {
        let bytes = self.core.take_egress();
        if bytes.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&bytes).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                io_err("send", "write timed out")
            } else {
                io_err("send", e)
            }
        })?;
        self.stream.flush().map_err(|e| io_err("send", e))
    }

    /// One blocking read fed into the core. The socket's own
    /// `SO_RCVTIMEO` (from [`ClientBuilder::read_timeout`]) bounds the
    /// wait; expiry surfaces as a typed timeout error.
    fn pump(&mut self) -> ArkResult<()> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(ArkError::Serve {
                        reason: "server closed the connection mid-request".into(),
                    })
                }
                Ok(n) => return self.core.ingest(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(ArkError::Serve {
                        reason: format!(
                            "read timed out after {:?} waiting for the server",
                            self.read_timeout.unwrap_or_default()
                        ),
                    })
                }
                Err(e) => return Err(io_err("recv", e)),
            }
        }
    }

    fn stash(&mut self, event: Event) {
        if let Some(id) = event.request_id() {
            self.completed.insert(id, event);
        }
    }

    /// Receives until the completion for `ticket` arrives, stashing
    /// out-of-order completions for their own waiters. `BUSY` sheds
    /// are retried here (up to the configured budget) before they
    /// surface as [`ArkError::Busy`].
    fn wait_for(&mut self, ticket: Ticket) -> ArkResult<Event> {
        let mut attempts_left = self.busy_retries;
        let mut attempt = 0u32;
        loop {
            let event = loop {
                if let Some(event) = self.completed.remove(&ticket.id()) {
                    break event;
                }
                self.pump()?;
                while let Some(event) = self.core.next_event() {
                    self.stash(event);
                }
            };
            match event {
                Event::Busy { retry_after_ms, .. } => {
                    if attempts_left == 0 {
                        self.core.abandon(ticket);
                        return Err(ArkError::Busy { retry_after_ms });
                    }
                    self.sheds_absorbed += 1;
                    attempts_left -= 1;
                    std::thread::sleep(self.backoff(attempt, retry_after_ms));
                    attempt += 1;
                    self.core.retry(ticket)?;
                    self.flush_egress()?;
                }
                Event::ServerError { code, message, .. } => {
                    return Err(ArkError::Serve {
                        reason: format!(
                            "server rejected the request ({}): {message}",
                            code_label(code)
                        ),
                    });
                }
                done => return Ok(done),
            }
        }
    }

    /// Jittered exponential backoff: the server's hint doubled per
    /// attempt, scaled by a uniform factor in `[0.5, 1.5)`, capped at
    /// [`MAX_BACKOFF`].
    fn backoff(&mut self, attempt: u32, retry_after_ms: u32) -> Duration {
        let base = u64::from(retry_after_ms.max(1)) << attempt.min(16);
        let base = base.min(MAX_BACKOFF.as_millis() as u64);
        // xorshift64*: cheap, seedable, no external dependency
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let uniform =
            (self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        let ms = (base as f64 * (0.5 + uniform)).round() as u64;
        Duration::from_millis(ms.clamp(1, MAX_BACKOFF.as_millis() as u64))
    }
}

fn unexpected_event(event: &Event) -> ArkError {
    ArkError::Serve {
        reason: format!("protocol violation: unexpected response event {event:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_honors_hint_jitter_and_cap() {
        // a throwaway connected pair just to build a Client is
        // overkill — test the schedule through a loopback connection
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            // accept and speak just enough handshake for connect()
            let (mut s, _) = listener.accept().unwrap();
            let mut len = [0u8; 4];
            s.read_exact(&mut len).unwrap();
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            s.read_exact(&mut body).unwrap();
            let info = ark_client::protocol::server_info_frame(&[]);
            s.write_all(&(info.len() as u32).to_le_bytes()).unwrap();
            s.write_all(&info).unwrap();
            s.flush().unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        join.join().unwrap();

        for attempt in 0..8 {
            let d = client.backoff(attempt, 10).as_millis() as u64;
            let ideal = (10u64 << attempt).min(MAX_BACKOFF.as_millis() as u64);
            assert!(d >= ideal / 2, "attempt {attempt}: {d}ms under half-hint");
            assert!(
                d <= MAX_BACKOFF.as_millis() as u64,
                "attempt {attempt}: {d}ms over cap"
            );
        }
        // the zero hint never yields a zero sleep (thundering herd)
        assert!(client.backoff(0, 0).as_millis() >= 1);
    }
}
