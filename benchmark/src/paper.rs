//! `paper_model`: the host path of the accelerator model. One job
//! generates, compiles and schedules the four paper-scale traces
//! (bootstrapping, HELR, ResNet-20, sorting) at `CkksParams::ark()`
//! with Min-KS and OF-Limb on `ArkConfig::base()`, then derives
//! `T_A.S.`. The simulated statistics are exact counts: every job must
//! reproduce the set-up sweep's, and a commit that only speeds up the
//! simulator must leave them identical.

use crate::layers::sim_metrics;
use crate::span::{totals, Recorder};
use crate::spec::Metrics;
use crate::stats::mean;
use crate::workload::{closed_loop, Budget, LayerInput, Timed, Workload};
use ark_bench::{reported, t_amortized_per_slot, workload_trace, Workload as PaperWorkload};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;
use ark_core::{ArkConfig, CompileOptions, SimReport};
use std::time::Instant;

/// What one sweep produced.
struct Sweep {
    /// One report per paper workload, in `PaperWorkload::all()` order.
    reports: Vec<SimReport>,
    /// Simulated seconds per workload, sorting's stage scaling applied.
    seconds: Vec<f64>,
    tas_s: f64,
    trace_ops: usize,
}

impl Sweep {
    fn same_statistics(&self, other: &Sweep) -> bool {
        self.trace_ops == other.trace_ops
            && self.tas_s == other.tas_s
            && self.seconds == other.seconds
            && self.reports.iter().zip(&other.reports).all(|(a, b)| {
                a.cycles == b.cycles
                    && a.busy == b.busy
                    && a.hbm_evk_words == b.hbm_evk_words
                    && a.hbm_plaintext_words == b.hbm_plaintext_words
                    && a.hbm_other_words == b.hbm_other_words
                    && a.noc_words == b.noc_words
                    && a.mod_mults == b.mod_mults
            })
    }

    /// The bands the repo's own tests pin: bootstrapping in 1..12 ms
    /// (`ark-core`), `T_A.S.` in 3..80 ns (`ark-bench`), and every
    /// utilization a share.
    fn in_bands(&self) -> bool {
        (1.0..12.0).contains(&(self.seconds[0] * 1e3))
            && (3.0..80.0).contains(&(self.tas_s * 1e9))
            && self
                .reports
                .iter()
                .all(|r| r.busy.values().all(|&busy| busy <= r.cycles))
    }

    /// Worst relative deviation from the figures the paper reports
    /// for ARK (Tables VI and VII). HELR is left out: the repo's
    /// `reported::HELR_ARK_MS` does not say whether it is per
    /// iteration or per 30-iteration run.
    fn worst_deviation(&self) -> f64 {
        [
            (self.tas_s * 1e9, reported::TAS_ARK_NS),
            (self.seconds[2], reported::RESNET_ARK_S),
            (self.seconds[3], reported::SORTING_ARK_S),
        ]
        .iter()
        .map(|(sim, paper)| (sim - paper).abs() / paper)
        .fold(0.0, f64::max)
    }
}

/// Runs `f` inside a span called `name` when a recorder is there.
fn spanned<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Recorder>) -> T,
) -> T {
    if let Some(rec) = rec {
        rec.open(name);
    }
    let out = f(rec);
    if let Some(rec) = rec {
        rec.close();
    }
    out
}

fn sweep(rec: &mut Option<&mut Recorder>) -> Sweep {
    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    let mut out = Sweep {
        reports: Vec::new(),
        seconds: Vec::new(),
        tas_s: 0.0,
        trace_ops: 0,
    };
    for w in PaperWorkload::all() {
        let (trace, scale) = spanned(rec, "workloads.trace_gen", |_| {
            workload_trace(w, &params, KeyStrategy::MinKs)
        });
        let graph = spanned(rec, "core.compile", |_| {
            ark_core::compile(&trace, &params, &cfg, CompileOptions::all_on())
        });
        let report = spanned(rec, "core.sched", |_| {
            ark_core::simulate(&graph, &cfg, params.n())
        });
        out.trace_ops += trace.len();
        out.seconds.push(report.seconds * scale);
        out.reports.push(report);
    }
    out.tas_s = t_amortized_per_slot(&cfg);
    out
}

pub struct PaperModel {
    reference: Sweep,
}

impl PaperModel {
    pub fn setup() -> PaperModel {
        PaperModel {
            reference: sweep(&mut None),
        }
    }
}

impl Workload for PaperModel {
    fn run_jobs(&mut self, budget: Budget, trace: bool) -> Timed {
        closed_loop(budget, trace, |k, mut rec| {
            let start = Instant::now();
            if let Some(rec) = rec.as_deref_mut() {
                rec.set_job(k as u64 + 1);
            }
            let result = spanned(&mut rec, "job", sweep);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (ms, result.same_statistics(&self.reference))
        })
    }

    /// The four reports as `SIM_REPORT` frames: what the model's
    /// results weigh on the wire.
    fn wire_bytes_per_job(&self) -> u64 {
        self.reference
            .reports
            .iter()
            .map(|r| ark_core::wire::write_sim_report(r, 0).len() as u64)
            .sum()
    }

    fn worst_err(&self) -> f64 {
        self.reference.worst_deviation()
    }

    fn checks_ok(&self) -> bool {
        self.reference.in_bands()
    }

    fn layer_metrics(&mut self, input: &LayerInput<'_>, m: &mut Metrics) {
        let by_name = totals(&input.traced.spans);
        let jobs = by_name.get("job").map_or(1, |t| t.count).max(1) as f64;
        let per_job_ms =
            |name: &str| by_name.get(name).map_or(0, |t| t.total_ns) as f64 / 1e6 / jobs;
        m.set("core.model_host_ms", mean(&input.traced.job_ms));
        m.set("core.compile_ms", per_job_ms("core.compile"));
        m.set("core.sched_ms", per_job_ms("core.sched"));
        m.set("workloads.trace_gen_ms", per_job_ms("workloads.trace_gen"));
        let r = &self.reference;
        m.set("workloads.trace_ops", r.trace_ops as f64);
        sim_metrics(&r.reports.iter().collect::<Vec<_>>(), m);
        m.set("core.paper.boot_ms", r.seconds[0] * 1e3);
        m.set("core.paper.helr_ms", r.seconds[1] * 1e3);
        m.set("core.paper.resnet_ms", r.seconds[2] * 1e3);
        m.set("core.paper.sort_s", r.seconds[3]);
        m.set("core.paper.tas_ns", r.tas_s * 1e9);
        m.set(
            "scenarios.trace_shape_ok",
            f64::from(u8::from(r.in_bands())),
        );
        m.set("scenarios.max_abs_err", r.worst_deviation());
        m.set("math.memcpy_gbps", crate::layers::memcpy_gbps(input.quick));
    }
}
