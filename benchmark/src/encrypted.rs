//! The four encrypted workloads: one engine, a few encrypted input
//! sets with reference outputs, and jobs that either call
//! `Program::run` in this process or go through a loopback server.

use crate::defs::{Def, Mode};
use crate::layers::{self, Fixture, WireSizes};
use crate::served::{drive_client, drive_core, server_stats, Lane};
use crate::span::{durations_ms, totals, Recorder, Span};
use crate::span_eval::{SpanEvaluator, OP_CLASSES};
use crate::spec::Metrics;
use crate::stats::{mean, median, percentile};
use crate::workload::{
    closed_loop, prepare, Budget, JobSet, LayerInput, Prepared, Timed, Workload,
};
use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::Ciphertext;
use ark_fhe::engine::{Engine, EngineBuilder, HeProgram};
use ark_math::poly::derive_seed;
use ark_serve::{Client, Server, ServerConfig, ServerHandle};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

struct Hosted {
    /// Shuts the server down and joins its threads when dropped.
    _handle: ServerHandle,
    addr: SocketAddr,
    conns: usize,
    depth: usize,
}

pub struct Encrypted {
    /// The local engine: the one jobs run on in process, or the
    /// client-side twin of the hosted engine (same seed, same keys).
    prepared: Prepared,
    builder: EngineBuilder,
    hosted: Option<Hosted>,
    nproc: usize,
    seed: u64,
    cold_job_ms: f64,
    wire_bytes_per_job: u64,
    /// Tolerances, trace shape, remote warm-up identity and, as loops
    /// run, the server's op counters and the bytes on the socket.
    checks_ok: bool,
    shape_ok: bool,
    ops_match: bool,
    /// `GET_STATS` after the latest loop, and what that loop added.
    stats: BTreeMap<String, u64>,
    stats_delta: BTreeMap<String, u64>,
}

impl Encrypted {
    /// Everything before the first timed job: engines, keys, server,
    /// key fetch, encryption, reference outputs, and one warm-up job
    /// per input set, which fills the runtime-key cache and the arenas.
    pub fn setup(def: Def, seed: u64, nproc: usize) -> ArkResult<Encrypted> {
        let mut engine = def.builder.clone().build()?;
        let mut checks_ok = true;
        let (prepared, hosted, cold_job_ms) = match def.mode {
            Mode::InProcess => {
                let inputs = def
                    .cases
                    .iter()
                    .map(|c| {
                        c.inputs
                            .iter()
                            .map(|i| engine.encrypt(&i.values, i.level))
                            .collect()
                    })
                    .collect::<ArkResult<Vec<Vec<Ciphertext>>>>()?;
                let prepared = prepare(engine, def.cases, inputs)?;
                let cold = prepared.cold_job_ms;
                (prepared, None, cold)
            }
            Mode::Served { conns, depth } => {
                let hosted = def.builder.clone().build()?;
                let handle = Server::with_config(ServerConfig::default())
                    .host(hosted)?
                    .serve("127.0.0.1:0")
                    .map_err(|e| ArkError::Serve {
                        reason: format!("loopback bind: {e}"),
                    })?;
                let fingerprint = engine.fingerprint();
                let mut client = Client::connect(handle.addr())?;
                // inputs are encrypted under the key the server hands
                // out; the twin decrypting them proves the chains match
                let ctx = engine.context().expect("software engine");
                let pk = client.public_key(fingerprint, ctx)?;
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, u64::MAX));
                let scale = engine.params().scale();
                let inputs = def
                    .cases
                    .iter()
                    .map(|c| {
                        c.inputs
                            .iter()
                            .map(|i| {
                                let pt = ctx.encode(&i.values, i.level, scale);
                                ctx.encrypt_public(&pt, &pk, &mut rng)
                            })
                            .collect()
                    })
                    .collect();
                let prepared = prepare(engine, def.cases, inputs)?;
                let ctx = prepared.engine.context().expect("software engine");
                let mut cold = 0.0;
                for (k, set) in prepared.sets.iter().enumerate() {
                    let start = Instant::now();
                    let remote = client.evaluate(fingerprint, &set.program, &set.inputs, ctx)?;
                    if k == 0 {
                        cold = start.elapsed().as_secs_f64() * 1e3;
                    }
                    checks_ok &= remote == set.reference;
                }
                let hosted = Hosted {
                    addr: handle.addr(),
                    _handle: handle,
                    conns,
                    depth,
                };
                (prepared, Some(hosted), cold)
            }
        };
        let shape_ok = (def.shape_ok)(&prepared.trace);
        checks_ok &= prepared.tolerances_ok && shape_ok;
        let wire_bytes_per_job = WireSizes::of(&prepared.engine, &prepared.sets[0]).total();
        Ok(Encrypted {
            prepared,
            builder: def.builder,
            hosted,
            nproc,
            seed,
            cold_job_ms,
            wire_bytes_per_job,
            checks_ok,
            shape_ok,
            ops_match: true,
            stats: BTreeMap::new(),
            stats_delta: BTreeMap::new(),
        })
    }

    fn run_served(&mut self, budget: Budget, trace: bool) -> Timed {
        let hosted = self.hosted.as_ref().expect("a served workload");
        let (addr, conns, depth) = (hosted.addr, hosted.conns, hosted.depth);
        let Ok(before) = server_stats(addr) else {
            self.checks_ok = false;
            return Timed::default();
        };
        let engine = &self.prepared.engine;
        let ctx = engine.context().expect("software engine");
        let sets = &self.prepared.sets;
        let start = Instant::now();
        let mut timed = Timed::default();
        std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..conns)
                .map(|lane| {
                    let lane = Lane {
                        addr,
                        fingerprint: engine.fingerprint(),
                        ctx,
                        sets,
                        lane,
                        depth,
                        budget: budget.per_lane(conns),
                    };
                    scope.spawn(move || {
                        if trace {
                            drive_core(lane)
                        } else {
                            drive_client(lane)
                        }
                    })
                })
                .collect();
            for lane in lanes {
                match lane.join() {
                    Ok(t) => timed.merge(t),
                    Err(_) => self.checks_ok = false,
                }
            }
        });
        timed.wall_s = start.elapsed().as_secs_f64();

        let Ok(after) = server_stats(addr) else {
            self.checks_ok = false;
            return timed;
        };
        self.stats_delta = after
            .iter()
            .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
            .collect();
        self.stats = after;
        // the server's op counters must have grown by exactly this
        // loop's jobs times the histogram the local engine recorded
        let executed = self.delta_sum(".jobs_executed");
        let s = self.prepared.trace.summary();
        let terms = sets[0].program.rotate_sum_terms();
        let expected = [
            ("ops.hmult", s.hmult),
            ("ops.pmult", s.pmult),
            ("ops.padd", s.padd),
            ("ops.hadd", s.hadd),
            ("ops.hrot", s.hrot),
            ("ops.hrot_hoisted", s.hrot_hoisted),
            ("ops.hconj", s.hconj),
            ("ops.cmult", s.cmult),
            ("ops.cadd", s.cadd),
            ("ops.hrescale", s.hrescale),
            ("ops.bootstraps", s.mod_raise),
            ("ops.rotate_sum_terms", terms),
        ];
        self.ops_match &= executed == timed.attempted
            && expected.iter().all(|(name, per_job)| {
                self.stats_delta.get(*name) == Some(&(*per_job as u64 * executed))
            });
        // the traced driver owns its sockets: what it moved must be
        // what the codecs say a job weighs
        if trace && timed.failed == 0 && timed.busy_retries == 0 {
            self.checks_ok &= timed.wire_bytes == self.wire_bytes_per_job * timed.attempted;
        }
        self.checks_ok &= self.ops_match;
        timed
    }

    /// Sum of the per-shard counters whose name ends in `suffix`, as
    /// the latest loop moved them.
    fn delta_sum(&self, suffix: &str) -> u64 {
        self.stats_delta
            .iter()
            .filter(|(k, _)| k.starts_with("shard") && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    fn run_in_process(&self, budget: Budget, trace: bool) -> Timed {
        let sets = &self.prepared.sets;
        closed_loop(budget, trace, |k, rec| {
            let set = &sets[k % sets.len()];
            let (ms, outputs) = run_local(&self.prepared.engine, set, rec, k as u64 + 1);
            (ms, outputs.is_ok_and(|o| o == set.reference))
        })
    }
}

/// One in-process job: a fresh shared evaluator and `Program::run`.
/// With a recorder, the job gets the span tree
/// job → `engine.execute` → one span per op.
fn run_local(
    engine: &Engine,
    set: &JobSet,
    rec: Option<&mut Recorder>,
    job: u64,
) -> (f64, ArkResult<Vec<Ciphertext>>) {
    let start = Instant::now();
    let outputs = match rec {
        None => engine
            .shared_evaluator()
            .and_then(|mut eval| set.program.run(&mut eval, &set.inputs)),
        Some(rec) => {
            rec.set_job(job);
            rec.open("job");
            let outputs = engine.shared_evaluator().and_then(|eval| {
                rec.open("engine.execute");
                let mut eval = SpanEvaluator::new(eval, rec);
                let outputs = set.program.run(&mut eval, &set.inputs);
                drop(eval);
                rec.close();
                outputs
            });
            rec.close();
            outputs
        }
    };
    (start.elapsed().as_secs_f64() * 1e3, outputs)
}

/// Median latency of `reps` warm jobs on `set`, and whether every
/// output matched the reference.
fn local_job_ms(engine: &Engine, set: &JobSet, reps: usize) -> (f64, bool) {
    let mut ok = true;
    let mut ms = Vec::with_capacity(reps);
    for k in 0..=reps {
        let (t, outputs) = run_local(engine, set, None, 0);
        ok &= outputs.is_ok_and(|o| o == set.reference);
        if k > 0 {
            ms.push(t); // the first run warms the key cache
        }
    }
    (median(&ms), ok)
}

/// `engine.op.*`, `engine.execute.*` as per-job means over the jobs in
/// `spans`. Returns the mean `engine.execute` time.
fn engine_span_metrics(spans: &[Span], m: &mut Metrics) -> f64 {
    let by_name = totals(spans);
    let jobs = by_name.get("job").map_or(1, |t| t.count).max(1) as f64;
    let per_job_ms = |ns: u64| ns as f64 / 1e6 / jobs;
    for class in OP_CLASSES {
        let t = by_name.get(class).copied().unwrap_or_default();
        m.set(&format!("{class}.count"), t.count as f64 / jobs);
        m.set(&format!("{class}.ms"), per_job_ms(t.total_ns));
    }
    let execute = by_name.get("engine.execute").copied().unwrap_or_default();
    m.set("engine.execute.ms", per_job_ms(execute.total_ns));
    m.set(
        "engine.execute.unattributed_ms",
        per_job_ms(execute.self_ns),
    );
    per_job_ms(execute.total_ns)
}

impl Workload for Encrypted {
    fn run_jobs(&mut self, budget: Budget, trace: bool) -> Timed {
        if self.hosted.is_some() {
            self.run_served(budget, trace)
        } else {
            self.run_in_process(budget, trace)
        }
    }

    fn wire_bytes_per_job(&self) -> u64 {
        self.wire_bytes_per_job
    }

    fn worst_err(&self) -> f64 {
        self.prepared.worst_err
    }

    fn checks_ok(&self) -> bool {
        self.checks_ok
    }

    fn layer_metrics(&mut self, input: &LayerInput<'_>, m: &mut Metrics) {
        let quick = input.quick;
        let engine = &self.prepared.engine;
        let params = engine.params().clone();
        let set = &self.prepared.sets[0];
        let reps = if quick { 1 } else { 3 };

        // engine: op spans come from the traced loop in process, and
        // from a local replay of the same jobs for a served workload
        let replay;
        let engine_spans = if self.hosted.is_some() {
            // one untraced run warms the twin's key cache
            let mut rec = Recorder::new(0);
            for k in 0..=reps {
                let (_, outputs) = run_local(engine, set, (k > 0).then_some(&mut rec), k as u64);
                self.checks_ok &= outputs.is_ok_and(|o| o == set.reference);
            }
            replay = rec.finish();
            &replay
        } else {
            &input.traced.spans
        };
        let execute_ms = engine_span_metrics(engine_spans, m);
        let warm_p50 = median(&input.untraced.job_ms);
        m.set("engine.cold_job_ms", self.cold_job_ms);
        let (hits, misses) = match &self.hosted {
            Some(_) => (
                self.stats
                    .get("engine0.runtime_key_hits")
                    .copied()
                    .unwrap_or(0),
                self.stats
                    .get("engine0.runtime_key_misses")
                    .copied()
                    .unwrap_or(0),
            ),
            None => engine
                .keychain()
                .map_or((0, 0), |kc| kc.runtime_key_cache_stats()),
        };
        m.set("engine.runtime_key.hits", hits as f64);
        m.set("engine.runtime_key.misses", misses as f64);
        if misses > 0 {
            m.set(
                "engine.runtime_key.derive_ms_per_key",
                (self.cold_job_ms - warm_p50).max(0.0) / misses as f64,
            );
        }
        m.set(
            "engine.keychain_mib",
            engine.keychain().map_or(0, |kc| kc.byte_len()) as f64 / MIB,
        );

        // the same job on an engine of the other width: nproc threads
        // against one. Outputs must not depend on the width.
        if self.nproc > 1 {
            let other_width = if engine.threads() == 1 { self.nproc } else { 1 };
            match self.builder.clone().threads(other_width).build() {
                Ok(other) => {
                    let (other_ms, ok) = local_job_ms(&other, set, reps);
                    self.checks_ok &= ok;
                    // in process, the untraced loop already timed this engine
                    let this_ms = match self.hosted {
                        Some(_) => local_job_ms(engine, set, reps).0,
                        None => warm_p50,
                    };
                    let (serial, wide) = if other_width == 1 {
                        (other_ms, this_ms)
                    } else {
                        (this_ms, other_ms)
                    };
                    m.set("engine.threads_speedup_x", serial / wide);
                }
                Err(_) => self.checks_ok = false,
            }
        } else {
            m.set("engine.threads_speedup_x", 1.0);
        }

        let fixture = Fixture::new(&params, engine.threads(), derive_seed(self.seed, 1 << 32));
        fixture.ckks_costs(quick, m);
        let costs = fixture.math_costs(quick, m);
        drop(fixture);
        m.set("math.memcpy_gbps", layers::memcpy_gbps(quick));
        layers::kernel_estimates(&self.prepared.trace, &params, costs, execute_ms, m);
        layers::simulate_job_trace(&self.prepared.trace, &params, quick, m);
        let stage_us = layers::stage_costs(engine, set, quick, m);

        m.set(
            "scenarios.trace_shape_ok",
            f64::from(u8::from(self.shape_ok)),
        );
        m.set("scenarios.max_abs_err", self.prepared.worst_err);

        // the layers must add up: what the spans attribute is the
        // traced jobs' mean wall time within 2 %
        let job_ms = mean(&input.traced.job_ms);
        let adds_up = |attributed_ms: f64| (attributed_ms - job_ms).abs() <= 0.02 * job_ms;
        if self.hosted.is_none() {
            // op spans plus engine.execute's own rest
            self.checks_ok &= adds_up(execute_ms);
            return;
        }
        // served: the five client-side phases as per-job means
        let spans = &input.traced.spans;
        let mut phases_ms = 0.0;
        let mut phase = |metric: &str, span: &str| {
            let ms = mean(&durations_ms(spans, span));
            m.set(metric, ms);
            phases_ms += ms;
            ms
        };
        phase("client.encode_request_ms", "client.encode_request");
        phase("net.write_ms", "net.write");
        let wait_ms = phase("serve.wait_ms", "serve.wait");
        phase("net.read_ms", "net.read");
        phase("client.decode_response_ms", "client.decode_response");
        self.checks_ok &= adds_up(phases_ms);
        m.set(
            "client.busy_retries",
            (input.untraced.busy_retries + input.traced.busy_retries) as f64,
        );
        // what the wait holds beyond the stages replayed here: queue
        // hand-off, reactor, wake-ups, copies and, on a pipelined
        // connection, the other requests in the window
        m.set(
            "serve.unattributed_ms",
            wait_ms - stage_us / 1e3 - execute_ms,
        );
        m.set("serve.tax_pct", 100.0 * (job_ms - execute_ms) / execute_ms);
        m.set("serve.job_p99_ms", percentile(&input.untraced.job_ms, 0.99));
        m.set(
            "serve.wire_mib_per_s",
            input.untraced.job_ms.len() as f64 * self.wire_bytes_per_job as f64
                / MIB
                / input.untraced.wall_s,
        );
        m.set(
            "serve.jobs_executed",
            self.delta_sum(".jobs_executed") as f64,
        );
        m.set("serve.jobs_stolen", self.delta_sum(".jobs_stolen") as f64);
        m.set(
            "serve.queue_depth_hwm",
            self.stats
                .iter()
                .filter(|(k, _)| k.ends_with(".queue_depth_hwm"))
                .map(|(_, v)| *v)
                .max()
                .unwrap_or(0) as f64,
        );
        let delta = |name: &str| self.stats_delta.get(name).copied().unwrap_or(0) as f64;
        m.set("serve.jobs_shed", delta("jobs_shed"));
        m.set("serve.sessions_shed", delta("sessions_shed"));
        m.set("serve.ops_match", f64::from(u8::from(self.ops_match)));
    }
}
