//! Cycle-level scheduler: executes a primary-function graph against the
//! configured resource throughputs.
//!
//! Each hardware resource is a bandwidth server (its aggregate
//! throughput already folds in cluster/lane parallelism); nodes are
//! issued in program order — FHE programs have no dynamic control flow,
//! so program order with explicit dependence edges is exactly the static
//! VLIW-style schedule the paper's simulator produces. A node starts at
//! the later of its dependencies' completion and its resource's previous
//! completion; evk prefetches (HBM nodes with no data dependencies) slide
//! ahead of the compute stream, bounded by the compiler's pacing edges —
//! the double-buffering ARK uses to hide key loads.

use crate::config::{ArkConfig, DataDistribution};
use crate::pf::{DataKind, PfGraph, Resource};
use std::collections::HashMap;

/// Result of simulating one workload on one configuration.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total execution cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Busy cycles per resource.
    pub busy: HashMap<Resource, u64>,
    /// Words loaded from HBM, by kind.
    pub hbm_evk_words: u64,
    /// Plaintext words loaded from HBM.
    pub hbm_plaintext_words: u64,
    /// Other HBM words.
    pub hbm_other_words: u64,
    /// Words moved across the NoC.
    pub noc_words: u64,
    /// Approximate modular multiplications executed (NTT butterflies +
    /// BConv MACs + element-wise words).
    pub mod_mults: u64,
}

impl SimReport {
    /// Utilization of a resource in `[0, 1]`.
    pub fn utilization(&self, r: Resource) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        *self.busy.get(&r).unwrap_or(&0) as f64 / self.cycles as f64
    }

    /// Total off-chip bytes.
    pub fn hbm_bytes(&self) -> u64 {
        8 * (self.hbm_evk_words + self.hbm_plaintext_words + self.hbm_other_words)
    }

    /// Arithmetic intensity in modular mults per off-chip byte — the
    /// ops/byte metric of Fig. 2.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.mod_mults as f64 / self.hbm_bytes().max(1) as f64
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} cycles ({:.3} ms)", self.cycles, self.seconds * 1e3)?;
        writeln!(
            f,
            "  off-chip: {:.2} GB ({:.1} ops/byte); NoC: {:.2} GB",
            self.hbm_bytes() as f64 / 1e9,
            self.arithmetic_intensity(),
            (8 * self.noc_words) as f64 / 1e9,
        )?;
        write!(
            f,
            "  utilization: NTTU {:.0}%  BConvU {:.0}%  MADU {:.0}%  HBM {:.0}%  NoC {:.0}%",
            100.0 * self.utilization(Resource::Nttu),
            100.0 * self.utilization(Resource::BconvU),
            100.0 * self.utilization(Resource::Madu),
            100.0 * self.utilization(Resource::Hbm),
            100.0 * self.utilization(Resource::Noc),
        )
    }
}

/// Every resource, in `Resource as usize` order: the index space of
/// the scheduler's per-resource arrays.
const RESOURCES: [Resource; 6] = [
    Resource::Nttu,
    Resource::BconvU,
    Resource::AutoU,
    Resource::Madu,
    Resource::Hbm,
    Resource::Noc,
];

/// Work units per cycle of every resource, indexed by `Resource as
/// usize`; asserts each is finite and positive (see [`simulate`]).
fn rates(cfg: &ArkConfig, n: usize) -> [f64; 6] {
    RESOURCES.map(|r| {
        let rate = match r {
            Resource::Nttu => cfg.ntt_butterflies_per_cycle(n),
            Resource::BconvU => cfg.bconv_macs_per_cycle(),
            Resource::AutoU => cfg.auto_words_per_cycle(),
            Resource::Madu => cfg.madu_words_per_cycle(),
            Resource::Hbm => cfg.hbm_words_per_cycle(),
            // Limb-wise-only distribution funnels the accumulation
            // through shared NoC endpoints; even with the on-transit
            // adders the paper added, effective bandwidth halves
            // (Section VII-C reports 0.67-0.85x overall performance).
            Resource::Noc => {
                let derate = match cfg.distribution {
                    DataDistribution::Alternating => 1.0,
                    DataDistribution::LimbWiseOnly => 0.5,
                };
                cfg.noc_words_per_cycle() * derate
            }
        };
        assert!(
            rate.is_finite() && rate > 0.0,
            "{r:?} rate {rate} per cycle is not finite and positive: {cfg:?}"
        );
        rate
    })
}

/// Simulates a compiled graph on a configuration.
///
/// # Panics
///
/// Panics if the configuration gives a resource a throughput that is
/// not finite and positive (a zero count, a zero or non-finite
/// bandwidth or clock — what [`ArkConfig::validate`] rejects): such a
/// machine has no schedule, and the duration arithmetic would saturate
/// and wrap into a plausible-looking cycle count.
pub fn simulate(graph: &PfGraph, cfg: &ArkConfig, n: usize) -> SimReport {
    let rate = rates(cfg, n);
    let mut finish = vec![0u64; graph.len()];
    let mut resource_free = [0u64; 6];
    let mut busy = [0u64; 6];
    // a resource gets a `busy` entry in the report once a node ran on it
    let mut used = [false; 6];
    let mut makespan = 0u64;
    let mut evk = 0u64;
    let mut pt = 0u64;
    let mut other = 0u64;
    let mut noc = 0u64;
    let mut mults = 0u64;

    for (id, node) in graph.nodes().iter().enumerate() {
        let r = node.resource as usize;
        let dep_ready = graph.deps(id).iter().map(|&d| finish[d]).max().unwrap_or(0);
        let start = dep_ready.max(resource_free[r]);
        // a true division: multiplying by a reciprocal can round a
        // cycle differently
        let duration = (node.work as f64 / rate[r]).ceil() as u64 + node.latency;
        let end = start + duration;
        finish[id] = end;
        resource_free[r] = end;
        busy[r] += duration;
        used[r] = true;
        makespan = makespan.max(end);
        match node.resource {
            Resource::Hbm => match node.data {
                Some(DataKind::Evk) => evk += node.work,
                Some(DataKind::Plaintext) => pt += node.work,
                _ => other += node.work,
            },
            Resource::Noc => noc += node.work,
            Resource::Nttu | Resource::BconvU | Resource::Madu => mults += node.work,
            Resource::AutoU => {}
        }
    }

    SimReport {
        cycles: makespan,
        seconds: makespan as f64 / (cfg.clock_ghz * 1e9),
        busy: RESOURCES
            .into_iter()
            .filter(|&r| used[r as usize])
            .map(|r| (r, busy[r as usize]))
            .collect(),
        hbm_evk_words: evk,
        hbm_plaintext_words: pt,
        hbm_other_words: other,
        noc_words: noc,
        mod_mults: mults,
    }
}

/// Compiles and simulates a trace in one call.
pub fn run(
    trace: &ark_workloads::trace::Trace,
    params: &ark_ckks::params::CkksParams,
    cfg: &ArkConfig,
    opts: crate::compile::CompileOptions,
) -> SimReport {
    let graph = crate::compile::compile(trace, params, cfg, opts);
    simulate(&graph, cfg, params.n())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompileOptions;
    use ark_ckks::minks::KeyStrategy;
    use ark_ckks::params::CkksParams;
    use ark_workloads::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
    use ark_workloads::hdft::{hdft_trace, HdftConfig};

    #[test]
    fn resource_arrays_are_indexed_in_enum_order() {
        for (i, r) in RESOURCES.into_iter().enumerate() {
            assert_eq!(r as usize, i, "{r:?}");
        }
    }

    #[test]
    #[should_panic(expected = "Hbm rate 0 per cycle is not finite and positive")]
    fn a_machine_without_memory_bandwidth_has_no_schedule() {
        // at the parent this returned 2 485 294 cycles: the f64 → u64
        // cast saturated and `start + duration` wrapped
        let p = CkksParams::ark();
        let cfg = ArkConfig {
            hbm_gbps: 0.0,
            ..ArkConfig::base()
        };
        let t = hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::MinKs));
        run(&t, &p, &cfg, CompileOptions::all_on());
    }

    #[test]
    fn baseline_hidft_is_memory_bound() {
        // Without Min-KS/OF-Limb, H-IDFT must be limited by the evk and
        // plaintext stream: the analytic HBM lower bound should be ≥70%
        // of simulated time (Section III-C's premise).
        let p = CkksParams::ark();
        let cfg = ArkConfig::base();
        let t = hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::Baseline));
        let r = run(&t, &p, &cfg, CompileOptions { of_limb: false });
        let hbm_lower_bound =
            (r.hbm_evk_words + r.hbm_plaintext_words) as f64 / cfg.hbm_words_per_cycle();
        assert!(
            hbm_lower_bound / r.cycles as f64 > 0.7,
            "bound {:.0} vs cycles {}",
            hbm_lower_bound,
            r.cycles
        );
        // paper scale: ~6.4 GB of single-use data → ~6.4 ms at 1 TB/s
        let gb = r.hbm_bytes() as f64 / 1e9;
        assert!((4.0..9.0).contains(&gb), "baseline H-IDFT loads {gb:.1} GB");
    }

    #[test]
    fn minks_oflimb_hidft_is_compute_bound() {
        let p = CkksParams::ark();
        let cfg = ArkConfig::base();
        let t = hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::MinKs));
        let r = run(&t, &p, &cfg, CompileOptions::all_on());
        let hbm_cycles =
            (r.hbm_evk_words + r.hbm_plaintext_words) as f64 / cfg.hbm_words_per_cycle();
        assert!(
            (hbm_cycles / r.cycles as f64) < 0.7,
            "Min-KS+OF-Limb H-IDFT should no longer be HBM-bound"
        );
    }

    #[test]
    fn minks_and_oflimb_speed_up_hidft_by_paper_factors() {
        // Fig. 7(a): Min-KS 2.61×, +OF-Limb 3.36× total on H-IDFT.
        let p = CkksParams::ark();
        let cfg = ArkConfig::base();
        let base = run(
            &hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::Baseline)),
            &p,
            &cfg,
            CompileOptions { of_limb: false },
        );
        let minks = run(
            &hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::MinKs)),
            &p,
            &cfg,
            CompileOptions { of_limb: false },
        );
        let both = run(
            &hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::MinKs)),
            &p,
            &cfg,
            CompileOptions::all_on(),
        );
        let s1 = base.cycles as f64 / minks.cycles as f64;
        let s2 = base.cycles as f64 / both.cycles as f64;
        assert!(s1 > 1.5 && s1 < 4.5, "Min-KS speedup {s1:.2}");
        assert!(
            s2 > s1,
            "OF-Limb must add further speedup: {s2:.2} vs {s1:.2}"
        );
        assert!(s2 > 2.3 && s2 < 6.0, "total speedup {s2:.2}");
    }

    #[test]
    fn bootstrap_latency_in_paper_ballpark() {
        // ARK bootstraps a full ciphertext in single-digit milliseconds.
        let p = CkksParams::ark();
        let cfg = ArkConfig::base();
        let t = bootstrap_trace(&p, &BootstrapTraceConfig::full(&p, KeyStrategy::MinKs));
        let r = run(&t, &p, &cfg, CompileOptions::all_on());
        let ms = r.seconds * 1e3;
        assert!((1.0..12.0).contains(&ms), "bootstrap = {ms:.2} ms");
    }

    #[test]
    fn two_x_hbm_barely_helps_when_algorithms_on() {
        // Fig. 8: doubling HBM bandwidth improves bootstrapping only
        // ~1.07× once Min-KS + OF-Limb removed the bottleneck.
        let p = CkksParams::ark();
        let t = bootstrap_trace(&p, &BootstrapTraceConfig::full(&p, KeyStrategy::MinKs));
        let base = run(&t, &p, &ArkConfig::base(), CompileOptions::all_on());
        let fast = run(&t, &p, &ArkConfig::two_x_hbm(), CompileOptions::all_on());
        let speedup = base.cycles as f64 / fast.cycles as f64;
        assert!(speedup < 1.35, "2x HBM speedup {speedup:.2} too large");
    }

    #[test]
    fn two_x_clusters_helps_compute_bound_bootstrapping() {
        let p = CkksParams::ark();
        let t = bootstrap_trace(&p, &BootstrapTraceConfig::full(&p, KeyStrategy::MinKs));
        let base = run(&t, &p, &ArkConfig::base(), CompileOptions::all_on());
        let big = run(
            &t,
            &p,
            &ArkConfig::two_x_clusters(),
            CompileOptions::all_on(),
        );
        let speedup = base.cycles as f64 / big.cycles as f64;
        assert!(
            speedup > 1.15 && speedup < 2.0,
            "2x clusters speedup {speedup:.2} (paper: 1.45)"
        );
    }

    #[test]
    fn utilization_and_intensity_are_sane() {
        let p = CkksParams::ark();
        let cfg = ArkConfig::base();
        let t = hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::MinKs));
        let r = run(&t, &p, &cfg, CompileOptions::all_on());
        for res in [
            Resource::Nttu,
            Resource::BconvU,
            Resource::Madu,
            Resource::Hbm,
            Resource::Noc,
        ] {
            let u = r.utilization(res);
            assert!((0.0..=1.0).contains(&u), "{res:?} utilization {u}");
        }
        assert!(r.arithmetic_intensity() > 1.0);
    }
}
