//! Full bootstrapping trace: ModRaise → (SubSum) → H-IDFT → EvalMod →
//! H-DFT, with the SubSum projection and a single packed EvalMod when
//! fewer than `N/2` slots are refreshed.
//!
//! Matches the paper's pipeline at ARK parameters: `L_boot = 15` levels
//! consumed (3 per H-(I)DFT direction and ~9 by EvalMod), with the
//! H-IDFT running at the top of the chain (huge limbs, huge evks) and
//! the H-DFT at the bottom — the asymmetry behind the 6.4 GB vs 0.6 GB
//! single-use-data footprints of Fig. 2.

use crate::hdft::{hdft_trace, HdftConfig};
use crate::trace::{HeOp, KeyId, Trace};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;

/// Configuration of a bootstrapping trace.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapTraceConfig {
    /// log2 of the slot count being refreshed (`n` in Eq. 13); sparse
    /// workloads like HELR bootstrap with far fewer slots than `N/2`.
    pub slots_log2: u32,
    /// Radix of the H-(I)DFT factorization.
    pub radix_log2: u32,
    /// Key strategy for the transforms.
    pub strategy: KeyStrategy,
    /// Chebyshev degree of EvalMod's interpolant.
    pub evalmod_degree: usize,
    /// Angle doublings `c ← 2c² − 1` after the interpolant: the
    /// software's cosine EvalMod takes 3; the paper-scale traces model
    /// one sine interpolant and take none.
    pub evalmod_doublings: usize,
    /// Levels to keep above the bootstrap's own consumption when the
    /// chain is truncated (sparse bootstrapping mod-raises only as far
    /// as the workload needs, keeping every op on short limbs).
    pub spare_levels: Option<usize>,
}

impl BootstrapTraceConfig {
    /// The paper's full-slot bootstrapping at a parameter set.
    pub fn full(params: &CkksParams, strategy: KeyStrategy) -> Self {
        Self {
            slots_log2: params.log_n - 1,
            radix_log2: 5,
            strategy,
            evalmod_degree: 119,
            evalmod_doublings: 0,
            spare_levels: None,
        }
    }

    /// Sparse bootstrapping refreshing `2^slots_log2` slots (HELR uses
    /// 256 of 32,768). Training tolerates low precision, so the sine
    /// interpolant degree drops with the slot count.
    pub fn sparse(slots_log2: u32, strategy: KeyStrategy) -> Self {
        Self {
            slots_log2,
            radix_log2: 4,
            strategy,
            evalmod_degree: 63,
            evalmod_doublings: 0,
            spare_levels: Some(8),
        }
    }

    fn dft_iterations(&self) -> usize {
        (self.slots_log2 as usize).div_ceil(self.radix_log2 as usize)
    }

    /// Whether the real and imaginary coefficient halves share one
    /// ciphertext (`2n ≤ N/2`), so EvalMod runs once instead of twice.
    fn packs_halves(&self, params: &CkksParams) -> bool {
        self.slots_log2 + 2 <= params.log_n
    }

    /// EvalMod depth for the level budget (affine + basis + recursion,
    /// then one level per doubling).
    pub fn evalmod_depth(&self) -> usize {
        let d = self.evalmod_degree;
        let mut m = 1usize;
        while m * m < d + 1 {
            m <<= 1;
        }
        let baby_depth = m.trailing_zeros() as usize;
        let mut giants = 0usize;
        let mut g = 2 * m;
        while g <= d {
            giants += 1;
            g <<= 1;
        }
        1 + baby_depth + giants + giants.min(2) + self.evalmod_doublings
    }

    /// Total levels the bootstrap consumes (`L_boot`).
    pub fn levels_consumed(&self) -> usize {
        2 * self.dft_iterations() + self.evalmod_depth()
    }
}

/// Emits the EvalMod sub-trace at `start_level`, returning the level it
/// ends at. Structure mirrors the BSGS Chebyshev evaluator of
/// `ark-ckks`: baby/giant basis construction, recursive combines, then
/// the angle doublings, once per ciphertext the split leaves — two when the real and
/// imaginary coefficient halves are reduced separately, one when they
/// are packed together.
fn evalmod_trace(
    t: &mut Trace,
    cfg: &BootstrapTraceConfig,
    start_level: usize,
    halves: usize,
) -> usize {
    let d = cfg.evalmod_degree;
    let mut m = 1usize;
    while m * m < d + 1 {
        m <<= 1;
    }
    let mut level = start_level;
    // conjugation + split (both halves share it)
    t.push(HeOp::HConj { level });
    t.push(HeOp::HAdd { level });
    if halves == 2 {
        t.push(HeOp::CMult { level }); // ×(−i) monomial for the imaginary half
        t.push(HeOp::HAdd { level });
    }

    // affine map to [−1, 1] (shared basis, evaluated once per half)
    for _half in 0..halves {
        let mut l = level;
        t.push(HeOp::CMult { level: l });
        t.push(HeOp::HRescale { level: l });
        l -= 1;
        // babies T_2..T_m (m−1 HMults at staircase levels)
        let baby_depth = m.trailing_zeros() as usize;
        for j in 2..=m {
            let depth = usize::BITS as usize - 1 - (j as u32).leading_zeros() as usize;
            let lvl = l - (depth - 1).min(baby_depth - 1);
            t.push(HeOp::HMult { level: lvl });
            t.push(HeOp::HRescale { level: lvl });
        }
        let mut l2 = l - baby_depth;
        // giants
        let mut g = 2 * m;
        while g <= d {
            t.push(HeOp::HMult { level: l2 + 1 });
            t.push(HeOp::HRescale { level: l2 + 1 });
            l2 -= 1;
            g <<= 1;
        }
        // base-case constant products: ~d/2 CMults spread over chunks
        for _ in 0..d / 2 {
            t.push(HeOp::CMult { level: l2 });
            t.push(HeOp::HAdd { level: l2 });
        }
        // recursive combines: one HMult per chunk boundary
        let chunks = d.div_ceil(m);
        for c in 0..chunks.min(3) {
            t.push(HeOp::HMult {
                level: l2 - c.min(l2),
            });
            t.push(HeOp::HRescale {
                level: (l2 - c.min(l2)).max(1),
            });
        }
        // angle doublings on EvalMod's last levels
        let end = start_level - cfg.evalmod_depth();
        for k in (1..=cfg.evalmod_doublings).rev() {
            t.push(HeOp::HMult { level: end + k });
            t.push(HeOp::HRescale { level: end + k });
        }
    }
    level = start_level - cfg.evalmod_depth();
    if halves == 2 {
        // recombine halves
        t.push(HeOp::CMult { level });
        t.push(HeOp::HAdd { level });
    }
    level
}

/// Emits the full bootstrapping trace for a parameter set. A sparse
/// bootstrap (`n < N/2`) first sums `log2(N/2n)` rotations by `n·2^i`
/// at the top (SubSum) and, as `2n ≤ N/2` packs both coefficient
/// halves into one ciphertext, runs EvalMod once.
pub fn bootstrap_trace(params: &CkksParams, cfg: &BootstrapTraceConfig) -> Trace {
    let mut t = Trace::new(format!("bootstrap-n{}", 1u64 << cfg.slots_log2));
    t.push(HeOp::ModRaise);
    let iters = cfg.dft_iterations();
    let top = match cfg.spare_levels {
        Some(spare) => (cfg.levels_consumed() + spare).min(params.max_level),
        None => params.max_level,
    };
    // SubSum: rotate-and-add rounds, no level spent
    for i in cfg.slots_log2..params.log_n - 1 {
        let amount = 1i64 << i;
        t.push(HeOp::HRot {
            level: top,
            amount,
            key: KeyId::Rot(amount),
        });
        t.push(HeOp::HAdd { level: top });
    }
    // H-IDFT at the top of the (possibly truncated) chain
    let hidft = hdft_trace(&HdftConfig {
        slots_log2: cfg.slots_log2,
        radix_log2: cfg.radix_log2,
        k1: cfg.radix_log2.div_ceil(2),
        k2: cfg.radix_log2 / 2 + 1,
        strategy: cfg.strategy,
        start_level: top,
        inverse: true,
        hoisting: false,
    });
    t.extend(&hidft);
    // EvalMod
    let halves = if cfg.packs_halves(params) { 1 } else { 2 };
    let after_evalmod = evalmod_trace(&mut t, cfg, top - iters, halves);
    // H-DFT at the bottom
    let hdft = hdft_trace(&HdftConfig {
        slots_log2: cfg.slots_log2,
        radix_log2: cfg.radix_log2,
        k1: cfg.radix_log2.div_ceil(2),
        k2: cfg.radix_log2 / 2 + 1,
        strategy: cfg.strategy,
        start_level: after_evalmod,
        inverse: false,
        hoisting: false,
    });
    t.extend(&hdft);
    t
}

/// The level a freshly bootstrapped ciphertext ends at
/// (`L − L_boot` for full-chain bootstrapping, `spare_levels` when the
/// chain is truncated).
pub fn post_bootstrap_level(params: &CkksParams, cfg: &BootstrapTraceConfig) -> usize {
    match cfg.spare_levels {
        Some(spare) => spare.min(params.max_level - cfg.levels_consumed()),
        None => params.max_level - cfg.levels_consumed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_level_budget() {
        // ARK: L_boot = 15 (3 + 3 H-(I)DFT + 9 EvalMod)
        let params = CkksParams::ark();
        let cfg = BootstrapTraceConfig::full(&params, KeyStrategy::MinKs);
        assert_eq!(cfg.dft_iterations(), 3);
        assert_eq!(cfg.evalmod_depth(), 9);
        assert_eq!(cfg.levels_consumed(), 15);
        assert_eq!(post_bootstrap_level(&params, &cfg), 8);
    }

    #[test]
    fn trace_structure() {
        let params = CkksParams::ark();
        let cfg = BootstrapTraceConfig::full(&params, KeyStrategy::MinKs);
        let t = bootstrap_trace(&params, &cfg);
        let s = t.summary();
        assert_eq!(s.mod_raise, 1);
        assert_eq!(s.hrot, 84); // 42 per direction
        assert_eq!(s.hconj, 1);
        assert!(s.hmult > 30, "EvalMod multiplies: {}", s.hmult);
        assert!(s.pmult >= 384); // 192 per transform
    }

    #[test]
    fn minks_needs_order_of_magnitude_fewer_keys() {
        let params = CkksParams::ark();
        let base = bootstrap_trace(
            &params,
            &BootstrapTraceConfig::full(&params, KeyStrategy::Baseline),
        )
        .distinct_keys();
        let minks = bootstrap_trace(
            &params,
            &BootstrapTraceConfig::full(&params, KeyStrategy::MinKs),
        )
        .distinct_keys();
        assert!(base > 70, "baseline keys = {base}");
        assert!(minks < 16, "minks keys = {minks}");
    }

    #[test]
    fn sparse_bootstrap_is_smaller() {
        let params = CkksParams::ark();
        let full = bootstrap_trace(
            &params,
            &BootstrapTraceConfig::full(&params, KeyStrategy::MinKs),
        );
        let sparse = bootstrap_trace(
            &params,
            &BootstrapTraceConfig::sparse(8, KeyStrategy::MinKs),
        );
        // SubSum's seven rotations are the price of 2^8 slots
        assert!(sparse.summary().hrot < full.summary().hrot * 3 / 5);
        assert!(sparse.summary().pmult < full.summary().pmult / 2);
    }

    #[test]
    fn sparse_bootstrap_sub_sums_and_packs_one_evalmod() {
        let params = CkksParams::ark();
        let full = BootstrapTraceConfig::full(&params, KeyStrategy::MinKs);
        let half = BootstrapTraceConfig {
            slots_log2: params.log_n - 2,
            ..full
        };
        let t = bootstrap_trace(&params, &half);
        // N/4 slots: one SubSum round, right after ModRaise at the top
        let top = params.max_level;
        let amount = 1 << (params.log_n - 2);
        assert_eq!(
            t.ops()[1..3],
            [
                HeOp::HRot {
                    level: top,
                    amount,
                    key: KeyId::Rot(amount),
                },
                HeOp::HAdd { level: top },
            ]
        );
        let (f, h) = (bootstrap_trace(&params, &full).summary(), t.summary());
        // every HMult is EvalMod's, and it now runs once
        assert_eq!(2 * h.hmult, f.hmult);
        assert_eq!(h.hconj, 1);
    }

    #[test]
    fn no_op_below_level_zero() {
        let params = CkksParams::ark();
        for strategy in [KeyStrategy::Baseline, KeyStrategy::MinKs] {
            let t = bootstrap_trace(&params, &BootstrapTraceConfig::full(&params, strategy));
            for op in t.ops() {
                assert!(op.level() <= params.max_level);
            }
        }
    }
}
