//! The serving runtime: one process hosting engines for several
//! parameter sets, serving each client session with two blocking
//! threads in front of one pool of workers.
//!
//! # Architecture
//!
//! ```text
//! accept thread: blocking accept; each connection gets two threads
//!
//! reader (one per connection)
//!   │  blocking reads assemble length-prefixed messages
//!   │  (ark_client::protocol::MessageAssembler, the client's too)
//!   │
//!   ├─ control frames (HELLO, key fetches, STATS, SHUTDOWN):
//!   │  answered inline — they are cheap and touch only this session
//!   │
//!   └─ EVALUATE / SIMULATE: pushed onto the one job queue
//!        │  (bounded at shards × queue_capacity; admission control
//!        │  sheds with a typed BUSY when it is full)
//!        ▼
//!      N workers pop it oldest first — verify and decode, account
//!      the session budget, evaluate on a shared evaluator over the
//!      ONE resident KeyChain, and hand the response frame straight to
//!      its connection's outbox
//!
//! writer (one per connection)
//!      drains the outbox (the bytes of every queued message, each
//!      written into it in place) with one blocking write, holding no
//!      lock a worker or another connection needs while it writes
//! ```
//!
//! A reader hashes no job payload: it routes an `EVALUATE` /
//! `SIMULATE` on the frame *header* and queues the assembled message;
//! the worker that pops it verifies the request's checksum and those of
//! the ciphertext frames nested in it in one pass
//! ([`ark_math::wire::read_nested_frames`]). Hashing a request takes
//! hundreds of microseconds, routing it none, so that work stays under
//! the worker count that bounds evaluation, not the connection count.
//!
//! Key material is the serving-layer analogue of ARK's inter-operation
//! key reuse: the server holds **one** [`KeyChain`]
//! per parameter set, resident for the process lifetime, and every
//! session's requests resolve against it — no per-session key upload,
//! no duplicate evk storage. Workers share the keys as they share the
//! queue, all borrowing the same chain through
//! [`Engine::shared_evaluator`](ark_fhe::engine::Engine::shared_evaluator).
//!
//! # Sessions and pipelining
//!
//! A session opens with a bare `HELLO` carrying exactly
//! [`PROTOCOL_VERSION`] (any other version, or any other first message,
//! is refused with a typed `PROTOCOL` error and the connection stays
//! un-handshaken). From then on every message is `u64` request id ‖
//! frame; a session may pipeline up to [`ServerConfig::max_pipeline`]
//! jobs, and responses come back in completion order, not submission
//! order. A connection at its window is simply not read until a
//! completion frees a slot (TCP back-pressure). A slow-reading peer
//! pins only its own writer: responses queue in that connection's
//! outbox, and an outbox that outgrows
//! [`ServerConfig::max_conn_outbox_bytes`] sheds the connection.
//!
//! # Shutdown
//!
//! Graceful: a client `SHUTDOWN` frame or [`ServerHandle::shutdown`]
//! flips one flag, after which jobs are refused, and the handle
//! (`shutdown`, [`ServerHandle::wait`] or its drop) completes it. A
//! connection to the listener's own address wakes the accept thread,
//! which stops admitting sessions; workers drain the job queue to
//! empty and exit; every writer flushes its outbox and closes its
//! connection, a peer still not reading at
//! [`ServerConfig::drain_grace`] is cut off, and every thread is joined
//! before `shutdown` returns.

use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::params::CkksContext;
use ark_ckks::wire as ckks_wire;
use ark_ckks::Ciphertext;
use ark_client::program::Program;
use ark_client::protocol::{
    self, close_message, code, msg, open_message, EngineInfo, MessageAssembler,
    DEFAULT_MAX_FRAME_BYTES, ENVELOPE_LEN, PROTOCOL_VERSION,
};
use ark_core::wire as core_wire;
use ark_fhe::engine::Engine;
use ark_fhe::verify::{AbstractInput, VerifyReport};
use ark_fhe::workloads::trace::{Trace, TraceSummary};
use ark_fhe::KeyChain;
use ark_math::wire::{
    peek_frame, put_u16, read_frame, read_nested_frames, write_frame, Cursor, FrameWriter,
    CHECKSUM_LEN,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, all popping the one job queue. `0` sizes to the
    /// host's available parallelism. Every worker serves every hosted
    /// engine over the same resident key material.
    pub shards: usize,
    /// Queued jobs per worker, pooled: the one job queue holds
    /// `shards × queue_capacity` jobs before admission control starts
    /// shedding with `BUSY`. At least 1.
    pub queue_capacity: usize,
    /// Largest wire frame a peer may send (allocation bound; a message
    /// may add the request-id envelope on top).
    pub max_frame_bytes: usize,
    /// Ciphertext bytes one session may have in flight: decoded
    /// inputs, the evaluation working set (charged up front as the
    /// program's peak live units × the largest input's size) and
    /// produced outputs. Exceeding it fails the request with a typed
    /// `SESSION_LIMIT` error instead of growing server memory.
    /// Pipelined requests of one session charge concurrently.
    pub max_session_bytes: usize,
    /// Most ops a submitted program may carry — a bound on the work
    /// one request can ask of admission and evaluation. Memory is
    /// bounded separately: evaluation drops each register after its
    /// last use, and `max_session_bytes` covers the peak.
    pub max_program_ops: usize,
    /// Most jobs one connection may have queued or executing. A
    /// connection at this window is not read until a completion frees
    /// a slot, so the excess waits in the peer's socket (TCP
    /// back-pressure), not in server memory; `BUSY` is sent only when
    /// the job queue is full. At least 1.
    pub max_pipeline: usize,
    /// Response bytes one connection's outbox may hold behind the write
    /// in progress. A peer that stops reading its responses gets its
    /// connection shed at this budget instead of holding server memory
    /// hostage — and since only that connection's writer blocks on it,
    /// a stalled reader cannot head-of-line-block other sessions either
    /// way.
    pub max_conn_outbox_bytes: usize,
    /// The retry hint carried by `BUSY` load-shed responses.
    pub busy_retry_after_ms: u32,
    /// Whether a client `SHUTDOWN` frame stops the server. Off by
    /// default: on a multi-session server, any peer that can reach the
    /// port could otherwise kill every session with one frame. Enable
    /// for loopback/dev setups that tear the server down from the
    /// client side.
    pub allow_remote_shutdown: bool,
    /// How long connections keep flushing pending outboxes after the
    /// last job completes during shutdown, before abandoning unread
    /// responses.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            queue_capacity: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_session_bytes: 256 << 20,
            max_program_ops: 1024,
            max_pipeline: 32,
            max_conn_outbox_bytes: 256 << 20,
            busy_retry_after_ms: 50,
            allow_remote_shutdown: false,
            drain_grace: Duration::from_secs(1),
        }
    }
}

impl ServerConfig {
    fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        thread::available_parallelism().map_or(1, usize::from)
    }
}

// ---------------------------------------------------------------------
// shared state
// ---------------------------------------------------------------------

/// Memory accounting of one session: ciphertext bytes currently held on
/// the session's behalf (decoded request inputs, the working set of
/// peak live units × the largest input's size, produced outputs),
/// bounded by [`ServerConfig::max_session_bytes`]. Atomic because a
/// session's pipelined jobs charge concurrently from several workers.
struct SessionState {
    in_flight_bytes: AtomicUsize,
}

impl SessionState {
    fn charge(&self, bytes: usize, cap: usize) -> ArkResult<()> {
        let prev = self.in_flight_bytes.fetch_add(bytes, Ordering::SeqCst);
        let next = prev.saturating_add(bytes);
        if next > cap {
            self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
            return Err(ArkError::Serve {
                reason: format!(
                    "session memory limit: {next} bytes in flight exceeds the {cap}-byte budget"
                ),
            });
        }
        Ok(())
    }

    fn release(&self, bytes: usize) {
        self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
    }
}

/// Accumulates one request's session charges and releases them all
/// when the request's response is built (or the handler unwinds).
struct ChargeGuard<'a> {
    session: &'a SessionState,
    cap: usize,
    total: Cell<usize>,
}

impl<'a> ChargeGuard<'a> {
    fn new(session: &'a SessionState, cap: usize) -> Self {
        Self {
            session,
            cap,
            total: Cell::new(0),
        }
    }

    fn charge(&self, bytes: usize) -> Result<(), (u16, String)> {
        self.session
            .charge(bytes, self.cap)
            .map_err(|e| (code::SESSION_LIMIT, e.to_string()))?;
        self.total.set(self.total.get() + bytes);
        Ok(())
    }
}

impl Drop for ChargeGuard<'_> {
    fn drop(&mut self) {
        self.session.release(self.total.get());
    }
}

/// A routed request bound for a worker. It owns a copy of the message
/// the connection's inbox assembled, still wire bytes: the reader read
/// the frame header to route it and nothing more — verifying and
/// decoding happen on the worker.
struct Job {
    /// Where the response goes, and whose session budget it charges.
    conn: Arc<Conn>,
    /// Echoed in the response envelope.
    request_id: u64,
    engine_idx: usize,
    /// The header's kind tag, unverified until the worker has hashed
    /// the frame.
    kind: u16,
    /// `request id ‖ frame`.
    message: Vec<u8>,
}

impl Job {
    fn frame_bytes(&self) -> &[u8] {
        &self.message[ENVELOPE_LEN..]
    }
}

const SHUTTING_DOWN: &str = "server is shutting down";

struct Shared {
    engines: Vec<Engine>,
    info: Vec<EngineInfo>,
    config: ServerConfig,
    /// The one job queue every worker pops, oldest first, bounded at
    /// `shards × queue_capacity`. The shutdown flag is set and read
    /// under its lock, so a job is either queued before the workers can
    /// see the flag or refused.
    queue: Mutex<VecDeque<Job>>,
    /// Signalled on every push and once at shutdown.
    ready: Condvar,
    /// Signalled once, at shutdown, for [`ServerHandle::wait`].
    stopping: Condvar,
    queue_depth_hwm: AtomicU64,
    /// Per worker: jobs whose request verified — its checksum and
    /// those of the frames nested in it — and so ran, to a result or a
    /// typed error.
    jobs_executed: Vec<AtomicU64>,
    shutdown: AtomicBool,
    sessions_accepted: AtomicU64,
    /// Connections accepted and not yet closed.
    sessions_active: AtomicU64,
    sessions_shed: AtomicU64,
    jobs_shed: AtomicU64,
    /// The op histogram of every job the server has run, plus their
    /// programs' fused rotate-sum terms: the `ops.*` rows of
    /// `GET_STATS`, so remote scenario runs are observable — how many
    /// bootstraps actually executed, how much hoisted-rotation work a
    /// workload generated.
    ops: Mutex<(TraceSummary, usize)>,
}

impl Shared {
    fn new(engines: Vec<Engine>, config: ServerConfig) -> Self {
        let n_shards = config.effective_shards();
        let info = engines
            .iter()
            .map(|e| EngineInfo {
                fingerprint: e.fingerprint(),
                software: e.keychain().is_some(),
                log_n: e.params().log_n as u8,
                max_level: e.params().max_level as u32,
                keychain_bytes: e.keychain().map_or(0, |kc| kc.byte_len() as u64),
            })
            .collect();
        Self {
            engines,
            info,
            config,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stopping: Condvar::new(),
            queue_depth_hwm: AtomicU64::new(0),
            jobs_executed: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            sessions_accepted: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            ops: Mutex::new((TraceSummary::default(), 0)),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        {
            let _queue = self.queue.lock().expect("job queue poisoned");
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.ready.notify_all();
        self.stopping.notify_all();
    }

    /// Queues a job, or hands back the frame that refuses it: `BUSY`
    /// when `shards × queue_capacity` jobs are already queued, a typed
    /// `EVALUATION` error once shutdown has begun (not counted as
    /// shed). A queued job counts against its connection's window from
    /// before any worker can pop it.
    fn submit(&self, job: Job) -> Result<(), Vec<u8>> {
        let mut queue = self.queue.lock().expect("job queue poisoned");
        if self.shutting_down() {
            return Err(protocol::error_frame(code::EVALUATION, SHUTTING_DOWN));
        }
        if queue.len() >= self.jobs_executed.len() * self.config.queue_capacity {
            self.jobs_shed.fetch_add(1, Ordering::Relaxed);
            return Err(protocol::busy_frame(self.config.busy_retry_after_ms));
        }
        job.conn.lock().in_flight += 1;
        queue.push_back(job);
        self.queue_depth_hwm
            .fetch_max(queue.len() as u64, Ordering::Relaxed);
        drop(queue);
        self.ready.notify_one();
        Ok(())
    }

    /// Adds one job's op histogram and its program's fused rotate-sum
    /// terms to the `ops.*` totals.
    fn record_ops(&self, summary: &TraceSummary, program: &Program) {
        let mut ops = self.ops.lock().expect("op totals poisoned");
        ops.0 = ops.0.zip_with(summary, usize::saturating_add);
        ops.1 += program.rotate_sum_terms();
    }

    fn collect_stats(&self) -> Vec<(String, u64)> {
        let shared = self;
        let mut out = vec![
            (
                "sessions_accepted".to_string(),
                shared.sessions_accepted.load(Ordering::Relaxed),
            ),
            (
                "sessions_active".to_string(),
                shared.sessions_active.load(Ordering::Relaxed),
            ),
            (
                "sessions_shed".to_string(),
                shared.sessions_shed.load(Ordering::Relaxed),
            ),
            (
                "jobs_shed".to_string(),
                shared.jobs_shed.load(Ordering::Relaxed),
            ),
            ("shards".to_string(), shared.jobs_executed.len() as u64),
            (
                "shards.queue_depth_hwm".to_string(),
                shared.queue_depth_hwm.load(Ordering::Relaxed),
            ),
        ];
        for (i, executed) in shared.jobs_executed.iter().enumerate() {
            out.push((
                format!("shard{i}.jobs_executed"),
                executed.load(Ordering::Relaxed),
            ));
        }
        for (i, e) in shared.engines.iter().enumerate() {
            if let Some(kc) = e.keychain() {
                let (hits, misses) = kc.runtime_key_cache_stats();
                out.push((format!("engine{i}.runtime_key_hits"), hits));
                out.push((format!("engine{i}.runtime_key_misses"), misses));
            }
        }
        let (ops, rotate_sum_terms) = *shared.ops.lock().expect("op totals poisoned");
        out.extend(
            [
                ("hmult", ops.hmult),
                ("pmult", ops.pmult),
                ("padd", ops.padd),
                ("hadd", ops.hadd),
                ("hrot", ops.hrot),
                ("hrot_hoisted", ops.hrot_hoisted),
                ("hconj", ops.hconj),
                ("cmult", ops.cmult),
                ("cadd", ops.cadd),
                ("hrescale", ops.hrescale),
                ("bootstraps", ops.mod_raise),
                ("rotate_sum_terms", rotate_sum_terms),
            ]
            .map(|(name, n)| (format!("ops.{name}"), n as u64)),
        );
        out
    }
}

// ---------------------------------------------------------------------
// the builder and the handle
// ---------------------------------------------------------------------

/// A serving runtime under construction: add engines with
/// [`Server::host`], then bind and run with [`Server::serve`].
#[must_use = "a server does nothing until `.serve()` is called"]
pub struct Server {
    engines: Vec<Engine>,
    config: ServerConfig,
}

impl Server {
    /// A server with default [`ServerConfig`].
    pub fn new() -> Self {
        Self::with_config(ServerConfig::default())
    }

    /// A server with explicit tuning.
    pub fn with_config(config: ServerConfig) -> Self {
        Self {
            engines: Vec::new(),
            config,
        }
    }

    /// Hosts an engine. Its parameter-set fingerprint becomes the
    /// address clients select it by, so each hosted engine must have a
    /// distinct parameter set.
    ///
    /// # Errors
    ///
    /// [`ArkError::Serve`] if an engine with the same fingerprint is
    /// already hosted.
    pub fn host(mut self, engine: Engine) -> ArkResult<Self> {
        let fp = engine.fingerprint();
        if self.engines.iter().any(|e| e.fingerprint() == fp) {
            return Err(ArkError::Serve {
                reason: format!("an engine with fingerprint {fp:#018x} is already hosted"),
            });
        }
        self.engines.push(engine);
        Ok(self)
    }

    /// Binds `addr` and starts serving: spawns the accept thread and the
    /// workers, then returns immediately with a handle. Bind to port 0
    /// for an ephemeral port ([`ServerHandle::addr`] reports it).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], before binding, if
    /// `queue_capacity` or `max_pipeline` is 0: the first would shed
    /// every job with `BUSY`, the second would never read a request
    /// after `HELLO`. Otherwise the bind's or a thread spawn's error.
    pub fn serve(self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        for (field, value) in [
            ("queue_capacity", self.config.queue_capacity),
            ("max_pipeline", self.config.max_pipeline),
        ] {
            if value == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("ServerConfig::{field} is 0, so the server would serve nobody"),
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(self.engines, self.config));
        let n_shards = shared.jobs_executed.len();
        let mut workers = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("ark-serve-shard-{i}"))
                    .spawn(move || worker_loop(&shared, i))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ark-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

/// A running server: the bound address plus the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Hands back the connections still open when it stops accepting.
    acceptor: Option<thread::JoinHandle<Vec<Session>>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted-engine inventory (what `SERVER_INFO` advertises).
    pub fn engines(&self) -> &[EngineInfo] {
        &self.shared.info
    }

    /// The number of worker threads actually running.
    pub fn shards(&self) -> usize {
        self.shared.jobs_executed.len()
    }

    /// Gracefully stops the server: no new sessions, in-flight requests
    /// complete, the queue drains, all threads join.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.begin_shutdown();
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        wake_acceptor(self.addr);
        let sessions = acceptor.join().unwrap_or_default();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // every job is answered: each writer flushes what is queued and
        // closes, and a peer that will not read is cut off at the
        // deadline
        for (conn, _) in &sessions {
            conn.stop_reading();
        }
        let deadline = Instant::now() + self.shared.config.drain_grace;
        while Instant::now() < deadline && sessions.iter().any(|(_, t)| !t.is_finished()) {
            thread::sleep(Duration::from_millis(2));
        }
        for (conn, reader) in sessions {
            conn.close(&self.shared, &mut conn.lock());
            let _ = reader.join();
        }
    }

    /// Blocks until a shutdown is triggered by a client `SHUTDOWN`
    /// message, then completes it (joins all threads).
    pub fn wait(mut self) {
        let queue = self.shared.queue.lock().expect("job queue poisoned");
        drop(
            self.shared
                .stopping
                .wait_while(queue, |_| !self.shared.shutting_down())
                .expect("job queue poisoned"),
        );
        self.shutdown_in_place();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

// ---------------------------------------------------------------------
// workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared, idx: usize) {
    while let Some(job) = next_job(shared) {
        let frame = execute_job(shared, &shared.jobs_executed[idx], &job);
        job.conn.complete(shared, job.request_id, &frame);
    }
}

/// Pops the oldest queued job, waiting for one. Returns `None` only
/// when, under the queue lock, shutdown has begun and the queue is
/// empty: `submit` refuses under the same lock, so no job is left
/// behind.
fn next_job(shared: &Shared) -> Option<Job> {
    let queue = shared.queue.lock().expect("job queue poisoned");
    shared
        .ready
        .wait_while(queue, |q| q.is_empty() && !shared.shutting_down())
        .expect("job queue poisoned")
        .pop_front()
}

/// Runs one job to a response frame. Every failure path — decode
/// errors, evaluation errors, even panics the decode validators did
/// not anticipate — degrades to a typed `ERROR` frame instead of
/// killing the worker.
fn execute_job(shared: &Shared, executed: &AtomicU64, job: &Job) -> Vec<u8> {
    let charge = ChargeGuard::new(&job.conn.session, shared.config.max_session_bytes);
    // AssertUnwindSafe: jobs borrow the engine immutably and its only
    // interior mutability (context caches) is Mutex-guarded
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job.kind {
        msg::EVALUATE => run_evaluate(shared, executed, job, &charge),
        msg::SIMULATE => run_simulate(shared, executed, job),
        k => Err((code::PROTOCOL, format!("unexpected job kind {k:#x}"))),
    }));
    match outcome {
        Ok(Ok(frame)) => frame,
        Ok(Err((c, m))) => protocol::error_frame(c, &m),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            protocol::error_frame(code::EVALUATION, &format!("evaluation aborted: {what}"))
        }
    }
}

type Handled = Result<Vec<u8>, (u16, String)>;

fn wire_err(e: impl std::fmt::Display) -> (u16, String) {
    (code::WIRE, e.to_string())
}

fn ark_err(e: ArkError) -> (u16, String) {
    (ark_err_code(&e), e.to_string())
}

fn ark_err_code(e: &ArkError) -> u16 {
    match e {
        ArkError::Wire(_) => code::WIRE,
        ArkError::UnsupportedOnBackend { .. } => code::UNSUPPORTED,
        // session-limit rejections are labeled at the charge sites;
        // other runtime Serve errors (bad input count, shutdown races,
        // contained panics) are evaluation failures to the client
        _ => code::EVALUATION,
    }
}

/// Admission: the one abstract pass a request gets. Interprets the
/// program over the inputs' levels/scales against the engine's session
/// shape, with zero evaluator work, and hands back everything the
/// handlers need from it — the liveness report (EVALUATE charges its
/// `peak_live_units`) and the recorded trace (SIMULATE costs it). A
/// finding maps to the typed `VERIFY` error code carrying the op index
/// and the exact error evaluation would have hit; a malformed *input*
/// (a level beyond the chain) answers `input_code` — `VERIFY` on
/// EVALUATE, `EVALUATION` on SIMULATE, as the two kinds always have.
fn admit(
    engine: &Engine,
    program: &Program,
    inputs: impl Iterator<Item = AbstractInput>,
    input_code: u16,
) -> Result<(VerifyReport, Trace), (u16, String)> {
    let mut eval = engine.verify_context().evaluator();
    let cts = inputs
        .map(|i| eval.input_at(i.level, i.scale))
        .collect::<ArkResult<Vec<_>>>()
        .map_err(|e| (input_code, e.to_string()))?;
    let (report, trace) = eval.run(program, &cts);
    match report.finding {
        None => Ok((report, trace)),
        Some(f) => Err((
            code::VERIFY,
            format!("program rejected by static verification at {f}"),
        )),
    }
}

fn check_program_size(shared: &Shared, program: &Program) -> Result<(), (u16, String)> {
    if program.len() > shared.config.max_program_ops {
        return Err((
            code::PROTOCOL,
            format!(
                "program carries {} ops, server accepts at most {}",
                program.len(),
                shared.config.max_program_ops
            ),
        ));
    }
    Ok(())
}

fn run_evaluate(
    shared: &Shared,
    executed: &AtomicU64,
    job: &Job,
    charge: &ChargeGuard<'_>,
) -> Handled {
    // Finding the input frames takes reading the program in front of
    // them before its bytes are verified. The decoders are total, and
    // nothing read here is used unless the pass below then verifies
    // the bytes it was read from.
    let (unverified, _) = peek_frame(job.frame_bytes()).map_err(wire_err)?;
    let mut cur = Cursor::new(unverified.payload);
    let head = (|| {
        let program = Program::decode(&mut cur).map_err(ark_err)?;
        check_program_size(shared, &program)?;
        let n_inputs = cur.u16().map_err(wire_err)? as usize;
        Ok((program, n_inputs))
    })();
    let first = unverified.payload.len() - cur.remaining();
    let n_inputs = head.as_ref().map_or(0, |(_, n)| *n);
    // the request's checksum and its inputs' checksums, in one pass
    let request = read_nested_frames(job.frame_bytes(), first, n_inputs).map_err(wire_err)?;
    if request.nested.iter().all(Result::is_ok) {
        executed.fetch_add(1, Ordering::Relaxed);
    }
    let engine = &shared.engines[job.engine_idx];
    let Some(ctx) = engine.context() else {
        return Err((
            code::UNSUPPORTED,
            "EVALUATE needs a software engine; use SIMULATE here".into(),
        ));
    };
    let (program, _) = head?;
    let mut inputs = Vec::with_capacity(request.nested.len());
    let mut off = first;
    for input in request.nested {
        let (frame, used) = input.map_err(|e| ark_err(e.into()))?;
        let ct = ckks_wire::ciphertext_from_frame(ctx, frame).map_err(ark_err)?;
        off += used;
        // account every decoded input against the session budget
        charge.charge(ct.byte_len())?;
        inputs.push(ct);
    }
    if off != request.frame.payload.len() {
        return Err((
            code::PROTOCOL,
            format!(
                "{} trailing bytes after the last input",
                request.frame.payload.len() - off
            ),
        ));
    }
    let (report, _) = admit(
        engine,
        &program,
        inputs
            .iter()
            .map(|ct| AbstractInput::with_scale(ct.level, ct.scale)),
        code::VERIFY,
    )?;
    // evaluation holds the borrowed inputs, the liveness-live
    // registers, and each op's transient working set (a fused
    // RotateSum's hoisted digits plus its fixed accumulators).
    // Levels only ever drop, so peak units × the largest input is an
    // upper bound on the working set — charge it up front so the
    // session budget covers memory the request will grow into, not
    // just its wire size
    let max_input = inputs.iter().map(Ciphertext::byte_len).max().unwrap_or(0);
    charge.charge(report.peak_live_units.saturating_mul(max_input))?;
    let mut eval = engine.shared_evaluator().map_err(ark_err)?;
    let outputs = program.apply(&mut eval, &inputs).map_err(ark_err)?;
    shared.record_ops(&eval.into_trace().summary(), &program);
    // outputs count against the same budget until the response is off
    for ct in &outputs {
        charge.charge(ct.byte_len())?;
    }
    // each output is encoded once, where it ships from, and hashed
    // once — into its own checksum and the response's
    let mut out = Vec::new();
    let mut response = FrameWriter::begin(&mut out, msg::RESULT_CTS, request.frame.fingerprint);
    put_u16(response.payload(), outputs.len() as u16);
    let output_bytes: usize = outputs
        .iter()
        .map(|ct| ckks_wire::ciphertext_frame_len(ctx, ct))
        .sum();
    response.payload().reserve(output_bytes + CHECKSUM_LEN);
    for ct in &outputs {
        ckks_wire::nest_ciphertext(&mut response, ctx, ct);
    }
    response.finish();
    Ok(out)
}

fn run_simulate(shared: &Shared, executed: &AtomicU64, job: &Job) -> Handled {
    let (request, _) = read_frame(job.frame_bytes()).map_err(wire_err)?;
    executed.fetch_add(1, Ordering::Relaxed);
    let engine = &shared.engines[job.engine_idx];
    if engine.context().is_some() {
        return Err((
            code::UNSUPPORTED,
            "SIMULATE needs a simulated engine; use EVALUATE here".into(),
        ));
    }
    let mut cur = Cursor::new(request.payload);
    let program = Program::decode(&mut cur).map_err(ark_err)?;
    check_program_size(shared, &program)?;
    let n_inputs = cur.u16().map_err(wire_err)? as usize;
    let mut specs = Vec::with_capacity(n_inputs.min(256));
    for _ in 0..n_inputs {
        let level = cur.u32().map_err(wire_err)? as usize;
        specs.push(AbstractInput::at_level(level));
    }
    cur.finish().map_err(|e| (code::PROTOCOL, e.to_string()))?;
    let (_, trace) = admit(engine, &program, specs.into_iter(), code::EVALUATION)?;
    shared.record_ops(&trace.summary(), &program);
    let report = engine.simulate_trace(&trace).map_err(ark_err)?;
    let nested = core_wire::write_sim_report(&report, request.fingerprint);
    Ok(write_frame(
        msg::RESULT_REPORT,
        request.fingerprint,
        &nested,
    ))
}

// ---------------------------------------------------------------------
// connections
// ---------------------------------------------------------------------

/// An open connection and its reader thread, which joins its writer.
type Session = (Arc<Conn>, thread::JoinHandle<()>);

/// Accepts connections until shutdown, giving each a reader and a
/// writer thread. Returns the connections still open then.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Vec<Session> {
    let mut sessions: Vec<Session> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(stream) = stream else {
            // out of descriptors, say: back off rather than spin
            thread::sleep(Duration::from_millis(10));
            continue;
        };
        let _ = stream.set_nodelay(true);
        sessions.retain(|(_, reader)| !reader.is_finished());
        let conn = Arc::new(Conn::new(stream));
        shared.sessions_active.fetch_add(1, Ordering::Relaxed);
        let reader = {
            let (shared, conn) = (Arc::clone(shared), Arc::clone(&conn));
            thread::Builder::new()
                .name("ark-serve-read".into())
                .spawn(move || serve_conn(&shared, &conn))
        };
        match reader {
            Ok(reader) => {
                shared.sessions_accepted.fetch_add(1, Ordering::Relaxed);
                sessions.push((conn, reader));
            }
            Err(_) => conn.close(shared, &mut conn.lock()),
        }
    }
    sessions
}

/// Connects to the listener, so that a blocked `accept` returns and
/// sees the shutdown flag.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// One connection, shared by its reader, its writer and the workers
/// running its jobs.
struct Conn {
    /// Both threads do their I/O through `&TcpStream`; [`Conn::close`]
    /// shuts it down under them, so a blocked read or write returns.
    stream: TcpStream,
    session: SessionState,
    state: Mutex<ConnState>,
    /// Signalled on every change of `state`.
    changed: Condvar,
}

struct ConnState {
    /// Responses the writer has not taken yet: whole messages, length
    /// prefix and all, as they go on the wire.
    outbox: Vec<u8>,
    /// Jobs of this connection currently queued or executing.
    in_flight: usize,
    /// Cleared when the peer half-closes its write side, loses framing,
    /// or the server shuts down: the writer then closes the connection
    /// once every in-flight response is written.
    reading: bool,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            session: SessionState {
                in_flight_bytes: AtomicUsize::new(0),
            },
            state: Mutex::new(ConnState {
                outbox: Vec::new(),
                in_flight: 0,
                reading: true,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().expect("connection state poisoned")
    }

    /// Waits until fewer than `window` jobs are in flight. False once
    /// reading has stopped.
    fn wait_for_slot(&self, window: usize) -> bool {
        let state = self
            .changed
            .wait_while(self.lock(), |s| {
                s.reading && !s.closed && s.in_flight >= window
            })
            .expect("connection state poisoned");
        state.reading && !state.closed
    }

    /// Queues one frame for the writer, enveloped under `request_id`
    /// (`None` for the bare messages).
    fn send(&self, shared: &Shared, request_id: Option<u64>, frame: &[u8]) {
        self.push(shared, &mut self.lock(), request_id, frame);
    }

    /// Queues a finished job's response, freeing its window slot.
    fn complete(&self, shared: &Shared, request_id: u64, frame: &[u8]) {
        let mut state = self.lock();
        state.in_flight -= 1;
        self.push(shared, &mut state, Some(request_id), frame);
    }

    /// Writes one message into the outbox in place. An outbox past its
    /// budget sheds the connection: a peer that will not read its
    /// responses does not get to hold server memory.
    fn push(&self, shared: &Shared, state: &mut ConnState, request_id: Option<u64>, frame: &[u8]) {
        if state.closed {
            return;
        }
        let at = open_message(&mut state.outbox, request_id);
        state.outbox.extend_from_slice(frame);
        if close_message(&mut state.outbox, at).is_err() {
            self.close(shared, state);
        } else if state.outbox.len() > shared.config.max_conn_outbox_bytes {
            shared.sessions_shed.fetch_add(1, Ordering::Relaxed);
            self.close(shared, state);
        } else {
            self.changed.notify_all();
        }
    }

    fn stop_reading(&self) {
        self.lock().reading = false;
        self.changed.notify_all();
    }

    /// Closes the connection, once: both threads' blocked I/O returns
    /// and later responses are dropped.
    fn close(&self, shared: &Shared, state: &mut ConnState) {
        if !state.closed {
            state.closed = true;
            shared.sessions_active.fetch_sub(1, Ordering::Relaxed);
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        self.changed.notify_all();
    }

    /// The writer thread: drains the outbox with blocking writes until
    /// the connection closes, or reading has stopped and every in-flight
    /// response is written. It takes the queued bytes out before
    /// writing them, so a write blocked on a stalled peer holds no lock
    /// that a worker or another connection needs.
    fn write_loop(&self, shared: &Shared) {
        let mut state = self.lock();
        loop {
            state = self
                .changed
                .wait_while(state, |s| {
                    s.outbox.is_empty() && !s.closed && (s.reading || s.in_flight > 0)
                })
                .expect("connection state poisoned");
            if state.closed || state.outbox.is_empty() {
                break;
            }
            let batch = std::mem::take(&mut state.outbox);
            drop(state);
            let written = (&self.stream).write_all(&batch);
            state = self.lock();
            if written.is_err() {
                break;
            }
        }
        self.close(shared, &mut state);
    }
}

/// A connection's reader thread: starts its writer, dispatches messages
/// until reading stops, then waits for the writer to close.
fn serve_conn(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let writer = {
        let (shared, conn) = (Arc::clone(shared), Arc::clone(conn));
        thread::Builder::new()
            .name("ark-serve-write".into())
            .spawn(move || conn.write_loop(&shared))
    };
    let Ok(writer) = writer else {
        conn.close(shared, &mut conn.lock());
        return;
    };
    Reader {
        shared: Arc::clone(shared),
        conn: Arc::clone(conn),
        handshaken: false,
    }
    .run();
    conn.stop_reading();
    let _ = writer.join();
}

/// The protocol side of a connection's reader thread.
struct Reader {
    shared: Arc<Shared>,
    conn: Arc<Conn>,
    /// A `HELLO` carrying [`PROTOCOL_VERSION`] has been answered with
    /// `SERVER_INFO`: every later message is enveloped.
    handshaken: bool,
}

impl Reader {
    /// How many jobs this connection may have in flight: unbounded
    /// before `HELLO` (nothing dispatches then anyway), the pipeline
    /// window after.
    fn window(&self) -> usize {
        if self.handshaken {
            self.shared.config.max_pipeline
        } else {
            usize::MAX
        }
    }

    /// Feeds the inbox from blocking reads and dispatches each complete
    /// message. At the pipeline window it neither dispatches nor reads
    /// until a completion frees a slot, so the excess waits in the
    /// peer's socket.
    fn run(&mut self) {
        let mut inbox = MessageAssembler::new(self.shared.config.max_frame_bytes + ENVELOPE_LEN);
        let mut chunk = vec![0; 64 << 10];
        loop {
            loop {
                if !self.conn.wait_for_slot(self.window()) {
                    return;
                }
                match inbox.next_message() {
                    Ok(Some(message)) => self.dispatch_message(message),
                    Ok(None) => break,
                    // the length prefix is hostile; no recoverable
                    // message boundary remains on this stream
                    Err(_) => return self.close(),
                }
            }
            match (&self.conn.stream).read(&mut chunk) {
                // the peer half-closed: leftover inbox bytes are at most
                // a torn partial message it can never complete
                Ok(0) => return,
                Ok(n) => inbox.push_bytes(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.close(),
            }
        }
    }

    fn close(&self) {
        self.conn.close(&self.shared, &mut self.conn.lock());
    }

    /// Handles one transport message: a bare frame until the handshake
    /// completes, `request id ‖ frame` after.
    fn dispatch_message(&mut self, message: &[u8]) {
        if !self.handshaken {
            self.handle_handshake(message);
            return;
        }
        let Ok((request_id, frame_bytes)) = protocol::split_envelope(message) else {
            // a peer that stops enveloping has lost framing; nothing
            // later on the stream can be trusted: stop reading, and the
            // writer closes once this error and any in-flight responses
            // are out
            self.send(&protocol::error_frame(
                code::PROTOCOL,
                "missing request-id envelope",
            ));
            self.conn.stop_reading();
            return;
        };
        // a job is routed on its header and verified by the worker that
        // runs it; this thread hashes control frames only, which are
        // all header
        if let Ok((header, _)) = peek_frame(frame_bytes) {
            if matches!(header.kind, msg::EVALUATE | msg::SIMULATE) {
                self.admit_job(request_id, header.kind, header.fingerprint, message);
                return;
            }
        }
        let frame = match read_frame(frame_bytes) {
            Ok((frame, _)) => frame,
            Err(e) => {
                self.respond(
                    request_id,
                    protocol::error_frame(code::WIRE, &e.to_string()),
                );
                return;
            }
        };
        match frame.kind {
            msg::HELLO => self.respond(
                request_id,
                protocol::error_frame(code::PROTOCOL, "HELLO after the handshake"),
            ),
            msg::GET_PUBLIC_KEY => {
                let response = self.key_frame(frame.fingerprint, msg::PUBLIC_KEY, |w, ctx, kc| {
                    ckks_wire::nest_compressed_public_key(w, ctx, kc.public_key());
                    kc.public_key().byte_len()
                });
                self.respond(request_id, response);
            }
            msg::GET_EVAL_KEYS => {
                // ship the declared surface only — a bootstrapping
                // engine also holds internal transform keys, which stay
                // server-side
                let response = self.key_frame(frame.fingerprint, msg::EVAL_KEYS, |w, ctx, kc| {
                    let rotations = kc.declared_rotation_keys();
                    let rotation_bytes: usize = rotations.iter().map(|(_, k)| k.byte_len()).sum();
                    ckks_wire::nest_compressed_eval_key(w, ctx, kc.mult_key());
                    ckks_wire::nest_compressed_rotation_keys(w, ctx, rotations);
                    kc.mult_key().byte_len() + rotation_bytes
                });
                self.respond(request_id, response);
            }
            msg::GET_STATS => {
                let response = protocol::stats_frame(&self.shared.collect_stats());
                self.respond(request_id, response);
            }
            msg::SHUTDOWN => {
                if self.shared.config.allow_remote_shutdown {
                    self.respond(request_id, write_frame(msg::BYE, 0, &[]));
                    self.shared.begin_shutdown();
                } else {
                    self.respond(
                        request_id,
                        protocol::error_frame(
                            code::UNSUPPORTED,
                            "remote shutdown is disabled (ServerConfig::allow_remote_shutdown)",
                        ),
                    );
                }
            }
            k => self.respond(
                request_id,
                protocol::error_frame(code::PROTOCOL, &format!("unexpected frame kind {k:#x}")),
            ),
        }
    }

    /// The bare pre-handshake exchange: `HELLO` carrying exactly
    /// [`PROTOCOL_VERSION`] is answered with `SERVER_INFO`, anything
    /// else with a typed `ERROR` — and the connection stays open and
    /// un-handshaken, so a peer may try again.
    fn handle_handshake(&mut self, message: &[u8]) {
        let hello = read_frame(message)
            .map_err(wire_err)
            .and_then(|(frame, _)| {
                if frame.kind != msg::HELLO {
                    return Err((
                        code::PROTOCOL,
                        "expected HELLO before any other message".to_string(),
                    ));
                }
                Cursor::new(frame.payload).u16().map_err(wire_err)
            });
        let reply = match hello {
            Ok(PROTOCOL_VERSION) => {
                self.handshaken = true;
                protocol::server_info_frame(&self.shared.info)
            }
            Ok(version) => protocol::error_frame(
                code::PROTOCOL,
                &format!(
                    "client speaks protocol {version}, server speaks protocol {PROTOCOL_VERSION}"
                ),
            ),
            Err((c, m)) => protocol::error_frame(c, &m),
        };
        self.send(&reply);
    }

    /// Key distribution ships *seed-compressed* frames (runtime data
    /// generation on the wire): the uniform halves travel as one 64-bit
    /// seed the client re-expands, halving key-download traffic. The
    /// reply is one `kind` frame of the keys `nest` writes, and the
    /// session budget is charged at the compressed size `nest` reports
    /// shipping.
    fn key_frame(
        &self,
        fingerprint: u64,
        kind: u16,
        nest: impl FnOnce(&mut FrameWriter<'_>, &CkksContext, &KeyChain) -> usize,
    ) -> Vec<u8> {
        let shared = &self.shared;
        let result = (|| -> Handled {
            let (_, engine) = find_engine(shared, fingerprint)?;
            let (Some(ctx), Some(kc)) = (engine.context(), engine.keychain()) else {
                return Err((
                    code::UNSUPPORTED,
                    "the simulated backend holds no key material".into(),
                ));
            };
            let mut out = Vec::new();
            let mut frame = FrameWriter::begin(&mut out, kind, fingerprint);
            let shipped = nest(&mut frame, ctx, kc);
            frame.finish();
            ChargeGuard::new(&self.conn.session, shared.config.max_session_bytes)
                .charge(shipped)?;
            Ok(out)
        })();
        result.unwrap_or_else(|(c, m)| protocol::error_frame(c, &m))
    }

    /// Admits an `EVALUATE`/`SIMULATE` to the job queue, or answers it
    /// with the queue's refusal: a typed `BUSY` when the queue is full.
    /// (The connection's pipeline window never sheds: `run` stops
    /// popping messages at the window, so a job only gets here under
    /// it.)
    ///
    /// `kind` and `fingerprint` come from a header nobody has verified
    /// yet. A request turned away on them is therefore hashed first —
    /// corruption has always answered `WIRE`, whatever else is wrong.
    fn admit_job(&self, request_id: u64, kind: u16, fingerprint: u64, message: &[u8]) {
        let routed = if self.shared.shutting_down() {
            Err((code::EVALUATION, SHUTTING_DOWN.to_string()))
        } else {
            find_engine(&self.shared, fingerprint).map(|(idx, _)| idx)
        };
        let engine_idx = match routed {
            Ok(idx) => idx,
            Err(refusal) => {
                let (c, m) = match read_frame(&message[ENVELOPE_LEN..]) {
                    Ok(_) => refusal,
                    Err(e) => wire_err(e),
                };
                self.respond(request_id, protocol::error_frame(c, &m));
                return;
            }
        };
        let job = Job {
            conn: Arc::clone(&self.conn),
            request_id,
            engine_idx,
            kind,
            message: message.to_vec(),
        };
        if let Err(refusal) = self.shared.submit(job) {
            self.respond(request_id, refusal);
        }
    }

    /// Queues the response to request `request_id`, enveloped under it.
    fn respond(&self, request_id: u64, frame: Vec<u8>) {
        self.conn.send(&self.shared, Some(request_id), &frame);
    }

    /// Queues one bare frame: the handshake replies and the
    /// lost-framing error.
    fn send(&self, frame: &[u8]) {
        self.conn.send(&self.shared, None, frame);
    }
}

fn find_engine(shared: &Shared, fingerprint: u64) -> Result<(usize, &Engine), (u16, String)> {
    shared
        .engines
        .iter()
        .enumerate()
        .find(|(_, e)| e.fingerprint() == fingerprint)
        .ok_or((
            code::UNKNOWN_ENGINE,
            format!("no hosted engine has fingerprint {fingerprint:#018x}"),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ckks::params::CkksParams;
    use ark_core::config::ArkConfig;
    use ark_fhe::engine::Backend;
    use ark_math::wire::put_u32;

    /// A connection over a loopback socket nobody reads, with no
    /// threads: the tests take its responses out of its outbox.
    fn test_conn() -> Arc<Conn> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Arc::new(Conn::new(listener.accept().unwrap().0))
    }

    /// A SIMULATE job for `x + x` on one input at `level`.
    fn simulate_job(conn: &Arc<Conn>, engine_idx: usize, request_id: u64, level: u32) -> Job {
        let mut program = Program::new(1);
        let x = program.reg(0);
        let sum = program.add(x, x);
        program.output(sum);
        let mut payload = Vec::new();
        program.encode(&mut payload);
        put_u16(&mut payload, 1);
        put_u32(&mut payload, level);
        let mut message = request_id.to_le_bytes().to_vec();
        message.extend_from_slice(&write_frame(msg::SIMULATE, 0, &payload));
        Job {
            conn: Arc::clone(conn),
            request_id,
            engine_idx,
            kind: msg::SIMULATE,
            message,
        }
    }

    /// Server state hosting one simulated engine, with no thread
    /// running: each test spawns the workers it wants.
    fn simulated_shared(config: ServerConfig) -> Arc<Shared> {
        let engine = Engine::builder()
            .params(CkksParams::tiny())
            .backend(Backend::Simulated(ArkConfig::base()))
            .build()
            .unwrap();
        Arc::new(Shared::new(vec![engine], config))
    }

    fn spawn_worker(shared: &Arc<Shared>, idx: usize) -> thread::JoinHandle<()> {
        let shared = Arc::clone(shared);
        thread::spawn(move || worker_loop(&shared, idx))
    }

    /// Waits until every job submitted on `conn` is answered.
    fn wait_for_completions(conn: &Conn) {
        let (_state, wait) = conn
            .changed
            .wait_timeout_while(conn.lock(), Duration::from_secs(30), |s| s.in_flight > 0)
            .unwrap();
        assert!(!wait.timed_out(), "worker stopped serving");
    }

    /// The responses queued on `conn`, as `(request id, frame)`.
    fn completions(conn: &Conn) -> Vec<(u64, Vec<u8>)> {
        let wire = std::mem::take(&mut conn.lock().outbox);
        let mut inbox = MessageAssembler::new(wire.len());
        inbox.push_bytes(&wire);
        let mut out = Vec::new();
        while let Some(m) = inbox.next_message().unwrap() {
            let (id, frame) = protocol::split_envelope(m).unwrap();
            out.push((id, frame.to_vec()));
        }
        out
    }

    fn frame_kind(frame: &[u8]) -> u16 {
        read_frame(frame).unwrap().0.kind
    }

    fn error_of(frame: &[u8]) -> (u16, String) {
        let (f, _) = read_frame(frame).unwrap();
        assert_eq!(f.kind, msg::ERROR);
        protocol::decode_error(&mut Cursor::new(f.payload)).unwrap()
    }

    #[test]
    fn panicking_evaluation_degrades_to_typed_error_and_worker_survives() {
        let shared = simulated_shared(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        let conn = test_conn();
        let worker = spawn_worker(&shared, 0);
        // admission validates everything a wire Program can carry, so
        // the remaining way to make a handler panic is a job a
        // reader would never build: one naming an engine slot that
        // does not exist (an index-out-of-bounds inside the handler)
        shared.submit(simulate_job(&conn, 7, 1, 2)).unwrap();
        // an input level beyond the chain is an ordinary typed failure
        shared.submit(simulate_job(&conn, 0, 2, 99)).unwrap();
        shared.submit(simulate_job(&conn, 0, 3, 2)).unwrap();
        wait_for_completions(&conn);
        shared.begin_shutdown();
        worker.join().expect("the panic must not escape the worker");
        let mut done = completions(&conn);
        done.sort_by_key(|c| c.0);

        let (c, reason) = error_of(&done[0].1);
        assert_eq!(c, code::EVALUATION);
        assert!(
            reason.starts_with("evaluation aborted: ") && reason.contains("index out of bounds"),
            "got {reason}"
        );
        let (c, reason) = error_of(&done[1].1);
        assert_eq!(c, code::EVALUATION);
        assert!(!reason.contains("aborted"), "got {reason}");
        // the same worker went on to serve a good request
        assert_eq!(frame_kind(&done[2].1), msg::RESULT_REPORT);
        assert_eq!(shared.jobs_executed[0].load(Ordering::Relaxed), 3);
    }

    fn refused_before_binding(config: ServerConfig, field: &str) {
        let err = Server::with_config(config)
            .serve("127.0.0.1:0")
            .map(ServerHandle::shutdown)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(field), "got {err}");
    }

    #[test]
    fn zero_queue_capacity_is_refused() {
        refused_before_binding(
            ServerConfig {
                queue_capacity: 0,
                ..ServerConfig::default()
            },
            "queue_capacity",
        );
    }

    #[test]
    fn zero_max_pipeline_is_refused() {
        refused_before_binding(
            ServerConfig {
                max_pipeline: 0,
                ..ServerConfig::default()
            },
            "max_pipeline",
        );
    }

    #[test]
    fn full_queue_sheds_at_shards_times_capacity() {
        // two workers' worth of one slot each, and nothing popping
        let shared = simulated_shared(ServerConfig {
            shards: 2,
            queue_capacity: 1,
            ..ServerConfig::default()
        });
        let conn = test_conn();
        shared.submit(simulate_job(&conn, 0, 1, 2)).unwrap();
        shared.submit(simulate_job(&conn, 0, 2, 2)).unwrap();
        let refusal = shared.submit(simulate_job(&conn, 0, 3, 2)).unwrap_err();
        assert_eq!(frame_kind(&refusal), msg::BUSY);
        assert_eq!(shared.jobs_shed.load(Ordering::Relaxed), 1);
        assert_eq!(shared.queue_depth_hwm.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn one_worker_completes_jobs_in_submission_order() {
        let shared = simulated_shared(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        let conn = test_conn();
        for id in 1..=4 {
            shared.submit(simulate_job(&conn, 0, id, 2)).unwrap();
        }
        let worker = spawn_worker(&shared, 0);
        wait_for_completions(&conn);
        shared.begin_shutdown();
        worker.join().unwrap();
        let ids: Vec<u64> = completions(&conn).iter().map(|c| c.0).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
    }

    #[test]
    fn jobs_queued_before_shutdown_complete_before_workers_exit() {
        let shared = simulated_shared(ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        });
        let conn = test_conn();
        for id in 1..=6 {
            shared.submit(simulate_job(&conn, 0, id, 2)).unwrap();
        }
        // the flag is up before either worker pops a job
        shared.begin_shutdown();
        let workers = [spawn_worker(&shared, 0), spawn_worker(&shared, 1)];
        for w in workers {
            w.join().unwrap();
        }
        let done = completions(&conn);
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|c| frame_kind(&c.1) == msg::RESULT_REPORT));
        assert_eq!(conn.lock().in_flight, 0);
    }

    #[test]
    fn submit_after_shutdown_is_refused_without_shedding() {
        let shared = simulated_shared(ServerConfig::default());
        let conn = test_conn();
        shared.begin_shutdown();
        let refusal = shared.submit(simulate_job(&conn, 0, 1, 2)).unwrap_err();
        assert_eq!(
            error_of(&refusal),
            (code::EVALUATION, SHUTTING_DOWN.to_string())
        );
        assert_eq!(shared.jobs_shed.load(Ordering::Relaxed), 0);
        assert!(shared.queue.lock().unwrap().is_empty());
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        // the whole runtime shares engines across threads by reference
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Engine>();
        assert_sync::<Shared>();
    }

    #[test]
    fn session_accounting_enforces_the_cap() {
        let s = SessionState {
            in_flight_bytes: AtomicUsize::new(0),
        };
        s.charge(600, 1000).unwrap();
        s.charge(300, 1000).unwrap();
        assert!(matches!(
            s.charge(200, 1000).unwrap_err(),
            ArkError::Serve { .. }
        ));
        // the failed charge must not leak into the balance
        assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 900);
        s.release(900);
        s.charge(600, 1000).unwrap();
        assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 600);
    }

    #[test]
    fn charge_guard_releases_on_drop() {
        let s = SessionState {
            in_flight_bytes: AtomicUsize::new(0),
        };
        {
            let g = ChargeGuard::new(&s, 1000);
            g.charge(400).unwrap();
            g.charge(100).unwrap();
            assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 500);
            assert!(g.charge(9000).is_err());
        }
        assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 0);
    }
}
