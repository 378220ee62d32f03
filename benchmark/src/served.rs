//! Closed-loop drivers of one `ark-serve` connection. The untraced
//! driver is the product's own blocking `Client`; the traced driver
//! runs the sans-I/O `ClientCore` over its own socket so it can time
//! each phase of a request from outside.

use crate::span::{now_ns, Recorder};
use crate::workload::{Budget, JobSet, Timed};
use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::params::CkksContext;
use ark_client::core::{decode_result_cts, ClientCore, Event, Ticket};
use ark_serve::Client;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// `BUSY` sheds a connection retries before a job counts as failed.
const BUSY_RETRY_BUDGET: u32 = 4;

/// What both drivers need to run jobs on one connection.
#[derive(Clone, Copy)]
pub struct Lane<'a> {
    pub addr: SocketAddr,
    pub fingerprint: u64,
    pub ctx: &'a CkksContext,
    pub sets: &'a [JobSet],
    /// Connection index; also offsets which input set a lane starts on.
    pub lane: usize,
    /// Requests kept in flight.
    pub depth: usize,
    pub budget: Budget,
}

impl Lane<'_> {
    fn set(&self, submitted: usize) -> usize {
        (self.lane + submitted) % self.sets.len()
    }
}

/// The server's `GET_STATS` counters.
pub fn server_stats(addr: SocketAddr) -> ArkResult<BTreeMap<String, u64>> {
    Ok(Client::connect(addr)?.stats()?.into_iter().collect())
}

/// Drives the lane with `ark_serve::Client`. A job's latency runs from
/// its submit call to its decoded result.
pub fn drive_client(lane: Lane<'_>) -> Timed {
    let mut out = Timed::default();
    let mut client = match Client::builder()
        .busy_retries(BUSY_RETRY_BUDGET)
        .connect(lane.addr)
    {
        Ok(c) => c,
        Err(_) => {
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let start = Instant::now();
    let mut window: VecDeque<(Ticket, Instant, usize)> = VecDeque::new();
    let mut submitted = 0;
    let mut broken = false;
    loop {
        while !broken && window.len() < lane.depth && lane.budget.more(submitted, start) {
            let set = lane.set(submitted);
            let t0 = Instant::now();
            out.attempted += 1;
            match client.submit_evaluate(
                lane.fingerprint,
                &lane.sets[set].program,
                &lane.sets[set].inputs,
                lane.ctx,
            ) {
                Ok(ticket) => window.push_back((ticket, t0, set)),
                Err(_) => {
                    out.failed += 1;
                    broken = true;
                }
            }
            submitted += 1;
        }
        let Some((ticket, t0, set)) = window.pop_front() else {
            break;
        };
        match client.wait_evaluate(ticket, lane.ctx) {
            Ok(outputs) if outputs == lane.sets[set].reference => {
                out.job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            // a surfaced BUSY leaves the connection usable
            Ok(_) | Err(ArkError::Busy { .. }) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                broken = true;
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.busy_retries = client.sheds_absorbed();
    out
}

/// A request in flight on the traced driver.
struct InFlight {
    ticket: Ticket,
    job: u64,
    set: usize,
    /// Submit start, encode end, write end.
    t0: u64,
    t1: u64,
    t2: u64,
    busy: u32,
}

fn io_err(context: &str, e: std::io::Error) -> ArkError {
    ArkError::Serve {
        reason: format!("{context}: {e}"),
    }
}

/// Drives the lane with `ClientCore` over a `TcpStream` and records,
/// for every job, five back-to-back phases under one `job` span:
///
/// - `client.encode_request`: `submit_evaluate` and `take_egress`;
/// - `net.write`: `write_all` of those bytes;
/// - `serve.wait`: from the last written byte until a read returns
///   bytes while this job is the next to complete (at depth 1, the
///   server's whole turn-around; deeper, also the time this thread
///   spends on the window's other jobs);
/// - `net.read`: reads and reassembly until the response is whole;
/// - `client.decode_response`: `decode_result_cts`.
///
/// The phases tile the job span, so their sum is the job's latency.
pub fn drive_core(lane: Lane<'_>) -> Timed {
    let mut out = Timed::default();
    let mut rec = Recorder::new(lane.lane as u64 + 1);
    let start = Instant::now();
    if drive_core_inner(lane, &mut out, &mut rec, start).is_err() {
        // a transport error ends the lane; what was in flight failed
        out.failed = out.attempted - out.job_ms.len() as u64;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.spans = rec.finish();
    out
}

fn drive_core_inner(
    lane: Lane<'_>,
    out: &mut Timed,
    rec: &mut Recorder,
    start: Instant,
) -> ArkResult<()> {
    let mut stream = TcpStream::connect(lane.addr).map_err(|e| io_err("connect", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    let mut core = ClientCore::new();
    let mut buf = vec![0u8; 64 << 10];
    stream
        .write_all(&core.take_egress())
        .map_err(|e| io_err("send", e))?;
    while !core.is_ready() {
        let n = stream.read(&mut buf).map_err(|e| io_err("recv", e))?;
        if n == 0 {
            return Err(io_err("recv", std::io::ErrorKind::UnexpectedEof.into()));
        }
        core.ingest(&buf[..n])?;
    }
    while core.next_event().is_some() {}

    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut submitted = 0usize;
    loop {
        while pending.len() < lane.depth && lane.budget.more(submitted, start) {
            let set = lane.set(submitted);
            out.attempted += 1;
            let t0 = now_ns();
            let ticket = core.submit_evaluate(
                lane.fingerprint,
                &lane.sets[set].program,
                &lane.sets[set].inputs,
                lane.ctx,
            )?;
            let bytes = core.take_egress();
            let t1 = now_ns();
            stream.write_all(&bytes).map_err(|e| io_err("send", e))?;
            let t2 = now_ns();
            out.wire_bytes += bytes.len() as u64;
            pending.insert(
                ticket.id(),
                InFlight {
                    ticket,
                    job: ((lane.lane as u64) << 32) | (submitted as u64 + 1),
                    set,
                    t0,
                    t1,
                    t2,
                    busy: 0,
                },
            );
            submitted += 1;
        }
        if pending.is_empty() {
            return Ok(());
        }
        let mut first_bytes = None;
        let event = loop {
            if let Some(event) = core.next_event() {
                break event;
            }
            let n = stream.read(&mut buf).map_err(|e| io_err("recv", e))?;
            if n == 0 {
                return Err(io_err("recv", std::io::ErrorKind::UnexpectedEof.into()));
            }
            first_bytes.get_or_insert_with(now_ns);
            out.wire_bytes += n as u64;
            core.ingest(&buf[..n])?;
        };
        let t5 = now_ns();
        match event {
            Event::EvalResult {
                request_id,
                payload,
            } => {
                let Some(p) = pending.remove(&request_id) else {
                    continue;
                };
                let outputs = decode_result_cts(lane.ctx, &payload);
                let t6 = now_ns();
                let t4 = first_bytes.unwrap_or(t5).clamp(p.t2, t5);
                let job = rec.add("job", 0, p.job, p.t0, t6);
                rec.add("client.encode_request", job, p.job, p.t0, p.t1);
                rec.add("net.write", job, p.job, p.t1, p.t2);
                rec.add("serve.wait", job, p.job, p.t2, t4);
                rec.add("net.read", job, p.job, t4, t5);
                rec.add("client.decode_response", job, p.job, t5, t6);
                match outputs {
                    Ok(o) if o == lane.sets[p.set].reference => {
                        out.job_ms.push((t6 - p.t0) as f64 / 1e6);
                    }
                    _ => out.failed += 1,
                }
            }
            Event::Busy {
                request_id,
                retry_after_ms,
            } => {
                let Some(p) = pending.get_mut(&request_id) else {
                    continue;
                };
                if p.busy == BUSY_RETRY_BUDGET {
                    core.abandon(p.ticket);
                    pending.remove(&request_id);
                    out.failed += 1;
                    continue;
                }
                p.busy += 1;
                out.busy_retries += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                core.retry(p.ticket)?;
                let bytes = core.take_egress();
                stream.write_all(&bytes).map_err(|e| io_err("send", e))?;
            }
            Event::ServerError { request_id, .. } if pending.remove(&request_id).is_some() => {
                out.failed += 1;
            }
            _ => {}
        }
    }
}
