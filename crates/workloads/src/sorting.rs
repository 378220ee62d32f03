//! Homomorphic sorting trace after Hong et al. \[47\] (k-way sorting
//! network).
//!
//! Sorting under CKKS compares elements with composite minimax
//! polynomial approximations of the sign function — each
//! compare-exchange stage is a deep polynomial evaluation followed by
//! rotations to align partners, and the level budget forces multiple
//! bootstraps per stage. The paper's 2^14-element sort takes 23,066 s on
//! a CPU and 1.99 s on ARK; the trace here reproduces the op mix
//! (bootstrap-dominated, with OF-Limb applicable to every PMult and
//! Min-KS applicable only inside bootstrapping — Section VII-B:
//! "other than bootstrapping, these workloads do not feature a
//! computation pattern where Min-KS is applicable").

use crate::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
use crate::trace::{HeOp, KeyId, Trace};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;

/// Shape of the sorting workload.
#[derive(Debug, Clone, Copy)]
pub struct SortingConfig {
    /// log2 of the element count (paper: 14).
    pub elements_log2: u32,
    /// Multiplicative depth of one sign-function composite (the paper's
    /// reference uses three composed degree-7/15 minimax factors).
    pub compare_depth: usize,
    /// Bootstraps per compare-exchange stage (both outputs of the
    /// min/max pair are refreshed, twice each across the deep compare).
    pub boots_per_stage: usize,
    /// Key strategy for bootstrapping transforms.
    pub strategy: KeyStrategy,
}

impl SortingConfig {
    /// The paper's configuration.
    pub fn paper(strategy: KeyStrategy) -> Self {
        Self {
            elements_log2: 14,
            compare_depth: 15,
            boots_per_stage: 4,
            strategy,
        }
    }

    /// Number of compare-exchange stages in the bitonic-style network:
    /// `log n · (log n + 1) / 2`.
    pub fn stages(&self) -> usize {
        let l = self.elements_log2 as usize;
        l * (l + 1) / 2
    }
}

fn compare_exchange(t: &mut Trace, cfg: &SortingConfig, distance: i64, level: usize) {
    // align partners
    t.push(HeOp::HRot {
        level,
        amount: distance,
        key: KeyId::Rot(distance),
    });
    // sign-composite evaluation: HMult + CMult ladder
    let mut l = level;
    for _ in 0..cfg.compare_depth {
        t.push(HeOp::HMult { level: l });
        t.push(HeOp::CMult { level: l });
        t.push(HeOp::HAdd { level: l });
        t.push(HeOp::HRescale { level: l });
        l = l.saturating_sub(1).max(1);
    }
    // min/max recombination: two PMults with mask plaintexts
    for _ in 0..2 {
        t.push(HeOp::PMult {
            level: l,
            fresh_plaintext: true,
        });
        t.push(HeOp::HAdd { level: l });
    }
    t.push(HeOp::HRot {
        level: l,
        amount: -distance,
        key: KeyId::Rot(-distance),
    });
    t.push(HeOp::HAdd { level: l });
}

/// The full sorting trace.
pub fn sorting_trace(params: &CkksParams, cfg: &SortingConfig) -> Trace {
    let mut t = Trace::new(format!("sorting-2^{}", cfg.elements_log2));
    let boot_cfg = BootstrapTraceConfig::full(params, cfg.strategy);
    let boot = bootstrap_trace(params, &boot_cfg);
    let post_boot = params.max_level - boot_cfg.levels_consumed();
    let l = cfg.elements_log2 as usize;
    for phase in 0..l {
        for sub in 0..=phase {
            let distance = 1i64 << (phase - sub);
            compare_exchange(
                &mut t,
                cfg,
                distance,
                post_boot.max(cfg.compare_depth / 2 + 2),
            );
            for _ in 0..cfg.boots_per_stage {
                t.extend(&boot);
            }
        }
    }
    t
}

/// Total bootstraps — the dominant cost (~90% of sorting time, Fig. 7(b)).
#[cfg(test)]
fn bootstrap_count(cfg: &SortingConfig) -> usize {
    cfg.stages() * cfg.boots_per_stage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_count_is_bitonic() {
        let cfg = SortingConfig::paper(KeyStrategy::MinKs);
        assert_eq!(cfg.stages(), 105);
        assert_eq!(bootstrap_count(&cfg), 420);
    }

    #[test]
    fn trace_is_bootstrap_dominated() {
        let params = CkksParams::ark();
        let cfg = SortingConfig {
            elements_log2: 4, // shrink for test speed
            ..SortingConfig::paper(KeyStrategy::MinKs)
        };
        let t = sorting_trace(&params, &cfg);
        assert_eq!(t.summary().mod_raise, bootstrap_count(&cfg));
        // key-switches inside bootstraps dwarf the compare ladders
        let boot = bootstrap_trace(
            &params,
            &BootstrapTraceConfig::full(&params, KeyStrategy::MinKs),
        );
        let boot_ks = boot.key_switch_count() * bootstrap_count(&cfg);
        assert!(boot_ks as f64 / t.key_switch_count() as f64 > 0.7);
    }

    #[test]
    fn exchange_distances_cover_all_powers() {
        let params = CkksParams::ark();
        let cfg = SortingConfig {
            elements_log2: 3,
            ..SortingConfig::paper(KeyStrategy::MinKs)
        };
        let t = sorting_trace(&params, &cfg);
        let mut distances: Vec<i64> = t
            .ops()
            .iter()
            .filter_map(|op| match op {
                HeOp::HRot { amount, .. } if *amount > 0 && *amount < 8 => Some(*amount),
                _ => None,
            })
            .collect();
        distances.sort_unstable();
        distances.dedup();
        // bootstrap internals add more amounts; the exchange distances
        // must all be present
        for d in [1i64, 2, 4] {
            assert!(distances.contains(&d), "missing distance {d}");
        }
    }
}
