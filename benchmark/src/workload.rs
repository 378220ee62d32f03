//! What the five workloads share: the job budget, the timed result,
//! and the set-up that turns plaintext cases into encrypted job sets
//! with their reference outputs.

use crate::span::{Recorder, Span};
use crate::spec::Metrics;
use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::Ciphertext;
use ark_fhe::engine::{Engine, HeEvaluator, HeProgram, ProgramInput};
use ark_fhe::workloads::trace::Trace;
use ark_math::cfft::C64;
use ark_scenarios::{max_abs_error, Scenario};
use ark_serve::Program;
use std::time::Instant;

/// How long a timed loop runs: for a time, or for a fixed job count
/// (smoke runs and tests).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Jobs(usize),
}

impl Budget {
    /// Whether to start another job, `started` jobs into the loop.
    pub fn more(&self, started: usize, since: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => started == 0 || since.elapsed().as_secs_f64() < s,
            Budget::Jobs(n) => started < n,
        }
    }

    /// This budget split over `lanes` concurrent connections.
    pub fn per_lane(&self, lanes: usize) -> Budget {
        match *self {
            Budget::Seconds(s) => Budget::Seconds(s),
            Budget::Jobs(n) => Budget::Jobs(n.div_ceil(lanes)),
        }
    }

    pub fn scaled(&self, share: f64) -> Budget {
        match *self {
            Budget::Seconds(s) => Budget::Seconds(s * share),
            Budget::Jobs(n) => Budget::Jobs(n),
        }
    }
}

/// The outcome of one timed loop.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency of every job that succeeded, in milliseconds.
    pub job_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub busy_retries: u64,
    /// Bytes written and read on the sockets, where the loop owns them.
    pub wire_bytes: u64,
    /// Empty unless the loop ran with tracing on.
    pub spans: Vec<Span>,
    /// Pieces merged into this one so far.
    merged: u64,
}

impl Timed {
    /// Adds another loop's outcome: a parallel lane's or a later
    /// block's. Span and job ids of each merged piece get a prefix of
    /// their own, so they stay unique in the whole.
    pub fn merge(&mut self, mut other: Timed) {
        self.merged += 1;
        let prefix = self.merged << 48;
        for s in &mut other.spans {
            s.id |= prefix;
            s.job |= prefix;
            if s.parent != 0 {
                s.parent |= prefix;
            }
        }
        self.job_ms.extend(other.job_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.busy_retries += other.busy_retries;
        self.wire_bytes += other.wire_bytes;
        self.spans.extend(other.spans);
    }
}

/// Runs `job` back to back on this thread until the budget ends. `job`
/// gets its index and, when tracing, the recorder; it returns its
/// latency in milliseconds and whether its output was right.
pub fn closed_loop(
    budget: Budget,
    trace: bool,
    mut job: impl FnMut(usize, Option<&mut Recorder>) -> (f64, bool),
) -> Timed {
    let mut timed = Timed::default();
    let mut rec = trace.then(|| Recorder::new(0));
    let start = Instant::now();
    let mut k = 0;
    while budget.more(k, start) {
        let (ms, ok) = job(k, rec.as_mut());
        timed.attempted += 1;
        if ok {
            timed.job_ms.push(ms);
        } else {
            timed.failed += 1;
        }
        k += 1;
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed.spans = rec.map(Recorder::finish).unwrap_or_default();
    timed
}

/// What the trace run hands a workload for its layer metrics.
pub struct LayerInput<'a> {
    pub untraced: &'a Timed,
    pub traced: &'a Timed,
    /// Fewer repetitions of every replay (smoke runs).
    pub quick: bool,
}

pub trait Workload {
    /// Runs jobs back to back until the budget ends, checking every
    /// output against its reference.
    fn run_jobs(&mut self, budget: Budget, trace: bool) -> Timed;
    /// Request plus response bytes of one job in the wire encoding.
    fn wire_bytes_per_job(&self) -> u64;
    /// Worst error against the f64 reference over all input sets.
    fn worst_err(&self) -> f64;
    /// Set-up checks: tolerances, trace shape, model bands.
    fn checks_ok(&self) -> bool;
    /// Per-layer metrics; called once, after the traced loop.
    fn layer_metrics(&mut self, input: &LayerInput<'_>, m: &mut Metrics);
}

/// One plaintext case: a program, its inputs and what it must produce.
pub struct Case {
    pub program: Program,
    pub inputs: Vec<ProgramInput>,
    /// The f64 reference, one slot vector per program output.
    pub reference: Vec<Vec<C64>>,
    /// Max-abs-error tolerance per output.
    pub tolerances: Vec<f64>,
    /// Slots that carry data, from slot 0.
    pub checked_slots: usize,
}

impl Case {
    pub fn from_scenario(s: &dyn Scenario) -> Case {
        Case {
            program: s.program(),
            inputs: s.inputs(),
            reference: s.reference(),
            tolerances: s.tolerances(),
            checked_slots: s.checked_slots(),
        }
    }
}

/// One encrypted input set with the outputs every job on it must
/// reproduce bit for bit.
pub struct JobSet {
    pub program: Program,
    pub inputs: Vec<Ciphertext>,
    pub reference: Vec<Ciphertext>,
}

/// The result of preparing cases on an engine.
pub struct Prepared {
    pub engine: Engine,
    pub sets: Vec<JobSet>,
    /// The op trace of the first set's reference evaluation.
    pub trace: Trace,
    pub worst_err: f64,
    pub tolerances_ok: bool,
    /// Wall time of the first evaluation on the fresh engine: it
    /// derives every runtime key.
    pub cold_job_ms: f64,
}

/// Evaluates every case once on `engine`, keeps the outputs as the
/// reference, and checks their decryption against the f64 reference.
pub fn prepare(
    engine: Engine,
    cases: Vec<Case>,
    inputs: Vec<Vec<Ciphertext>>,
) -> ArkResult<Prepared> {
    let mut sets = Vec::with_capacity(cases.len());
    let mut trace = None;
    let mut worst_err = 0.0f64;
    let mut tolerances_ok = true;
    let mut cold_job_ms = 0.0;
    for (case, cts) in cases.into_iter().zip(inputs) {
        let mut eval = engine.shared_evaluator()?;
        let start = Instant::now();
        let reference = case.program.run(&mut eval, &cts)?;
        if trace.is_none() {
            cold_job_ms = start.elapsed().as_secs_f64() * 1e3;
            trace = Some(eval.trace().clone());
        }
        if reference.len() != case.reference.len() || reference.len() != case.tolerances.len() {
            return Err(ArkError::InvalidParams {
                reason: format!(
                    "{} outputs against {} references",
                    reference.len(),
                    case.reference.len()
                ),
            });
        }
        for ((ct, want), tol) in reference.iter().zip(&case.reference).zip(&case.tolerances) {
            let err = max_abs_error(&engine.decrypt(ct)?, want, case.checked_slots);
            worst_err = worst_err.max(err);
            tolerances_ok &= err <= *tol;
        }
        sets.push(JobSet {
            program: case.program,
            inputs: cts,
            reference,
        });
    }
    Ok(Prepared {
        engine,
        sets,
        trace: trace.ok_or(ArkError::InvalidParams {
            reason: "a workload needs at least one input set".into(),
        })?,
        worst_err,
        tolerances_ok,
        cold_job_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_blocks_keep_span_ids_unique_and_parents_linked() {
        let block = || Timed {
            spans: vec![
                Span {
                    name: "job",
                    id: 1,
                    parent: 0,
                    job: 1,
                    start_ns: 0,
                    end_ns: 10,
                },
                Span {
                    name: "op",
                    id: 2,
                    parent: 1,
                    job: 1,
                    start_ns: 2,
                    end_ns: 5,
                },
            ],
            wall_s: 1.0,
            ..Timed::default()
        };
        let mut all = Timed::default();
        all.merge(block());
        all.merge(block());
        assert_eq!(all.wall_s, 2.0);
        let mut ids: Vec<u64> = all.spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        assert_eq!(all.spans[1].parent, all.spans[0].id);
        assert_eq!(all.spans[3].parent, all.spans[2].id);
        assert_ne!(all.spans[0].job, all.spans[2].job);
        assert_eq!(crate::span::self_times_ns(&all.spans), vec![7, 3, 7, 3]);
    }
}
