//! H-(I)DFT trace generation (Alg. 3 with the BSGS split of Eq. 8).
//!
//! The FFT-like homomorphic DFT runs `⌈log2(n)/k⌉` iterations of a
//! radix-`2^k` stage; each stage is a BSGS pass over `2^{k+1} − 1`
//! generalized diagonals split as `k+1 = k1 + k2`. The paper uses
//! `n = 2^15, k = 5, (k1, k2) = (3, 3)`, giving ~40 HRots and ~158
//! PMults per transform (we emit the unoptimized 42/192 — the paper's
//! "additional optimizations" trim boundary diagonals; the shape and
//! every conclusion are unchanged, see EXPERIMENTS.md).
//!
//! Key usage per stage follows Fig. 1: baseline loads one `evk` per
//! distinct amount plus a pre-rotation; the minimal strategy of \[42\]
//! iterates but keeps the pre-rotation (3 keys); Min-KS folds the
//! pre-rotation away (2 keys).

use crate::trace::{HeOp, KeyId, Trace};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;

/// Configuration of one homomorphic (I)DFT transform.
#[derive(Debug, Clone, Copy)]
pub struct HdftConfig {
    /// log2 of the slot count (paper: 15).
    pub slots_log2: u32,
    /// Radix exponent `k` (paper: 5).
    pub radix_log2: u32,
    /// Baby-step exponent `k1` (paper: 3).
    pub k1: u32,
    /// Giant-step exponent `k2` (paper: 3).
    pub k2: u32,
    /// Key-usage strategy.
    pub strategy: KeyStrategy,
    /// Level the transform starts at (each iteration consumes one).
    pub start_level: usize,
    /// Negative rotation amounts (IDFT direction); cosmetic for traffic.
    pub inverse: bool,
    /// Hoist each stage's baby rotations (Halevi–Shoup): every baby
    /// shares one digit decomposition instead of paying its own ModUp.
    /// Only meaningful under [`KeyStrategy::Baseline`] — the iterated
    /// strategies chain each baby off the previous result, so there is
    /// no shared input to hoist (the keys-vs-compute tension between
    /// Min-KS and hoisting; see DESIGN.md).
    pub hoisting: bool,
}

impl HdftConfig {
    /// The paper's H-IDFT configuration at ARK parameters (starts at the
    /// top of the chain, right after ModRaise).
    pub fn paper_hidft(params: &CkksParams, strategy: KeyStrategy) -> Self {
        Self {
            slots_log2: params.log_n - 1,
            radix_log2: 5,
            k1: 3,
            k2: 3,
            strategy,
            start_level: params.max_level,
            inverse: true,
            hoisting: false,
        }
    }

    /// The paper's H-DFT configuration (runs late in bootstrapping, at
    /// low levels — the reason its data footprint is ~10x smaller).
    pub fn paper_hdft(params: &CkksParams, strategy: KeyStrategy) -> Self {
        let iters = (params.log_n - 1).div_ceil(5) as usize;
        Self {
            slots_log2: params.log_n - 1,
            radix_log2: 5,
            k1: 3,
            k2: 3,
            strategy,
            // H-DFT ends bootstrapping: it occupies the last L_boot levels
            start_level: params.max_level - params.boot_levels + iters,
            inverse: false,
            hoisting: false,
        }
    }
}

/// Emits the H-(I)DFT trace.
pub fn hdft_trace(cfg: &HdftConfig) -> Trace {
    let mut t = Trace::new(if cfg.inverse { "h-idft" } else { "h-dft" });
    let mut remaining = cfg.slots_log2;
    let mut stride_log2 = 0u32;
    let mut level = cfg.start_level;
    let sign: i64 = if cfg.inverse { -1 } else { 1 };
    while remaining > 0 {
        let r = remaining.min(cfg.radix_log2);
        // split r+1 diagonal bits into baby/giant proportionally
        let k1 = cfg.k1.min(r);
        let k2 = (r + 1 - k1).min(cfg.k2 + 1);
        let stride = sign * (1i64 << stride_log2);
        let baby_amt = stride;
        let giant_amt = stride << k1;

        if cfg.strategy == KeyStrategy::HoistedMinimal {
            // Eq. 7 pre-rotation by −2^k·stride with its own key
            let pre = -(stride << r);
            t.push(HeOp::HRot {
                level,
                amount: pre,
                key: KeyId::Rot(pre),
            });
        }
        // Baby steps: rotations by i·stride, i = 1..2^k1. All apply to
        // the same stage input, so under Baseline keys they can share
        // one digit decomposition (hoisting); the iterated strategies
        // chain each baby off the previous result and cannot.
        let hoist_babies = cfg.hoisting && cfg.strategy == KeyStrategy::Baseline;
        for i in 1..(1u32 << k1) as i64 {
            let amount = i * baby_amt;
            let key = match cfg.strategy {
                KeyStrategy::Baseline => KeyId::Rot(amount),
                // iterated: every baby uses evk^{(stride)}
                _ => KeyId::Rot(baby_amt),
            };
            if hoist_babies {
                t.push(HeOp::HRotHoisted {
                    level,
                    amount,
                    key,
                    fresh_digits: i == 1,
                });
            } else {
                t.push(HeOp::HRot { level, amount, key });
            }
        }
        // PMults: one per (baby, giant) pair; plaintexts are single-use.
        let pmults = (1u32 << k1) as usize * (1u32 << k2) as usize;
        for _ in 0..pmults {
            t.push(HeOp::PMult {
                level,
                fresh_plaintext: true,
            });
            t.push(HeOp::HAdd { level });
        }
        // Giant steps: rotations by j·2^{k1}·stride, j = 1..2^k2.
        for j in 1..(1u32 << k2) as i64 {
            let amount = j * giant_amt;
            let key = match cfg.strategy {
                KeyStrategy::Baseline => KeyId::Rot(amount),
                _ => KeyId::Rot(giant_amt),
            };
            t.push(HeOp::HRot { level, amount, key });
            t.push(HeOp::HAdd { level });
        }
        t.push(HeOp::HRescale { level });
        level -= 1;
        stride_log2 += r;
        remaining -= r;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cfg(strategy: KeyStrategy) -> HdftConfig {
        HdftConfig::paper_hidft(&CkksParams::ark(), strategy)
    }

    #[test]
    fn rotation_and_pmult_counts_match_paper_scale() {
        // Paper reports 40 HRots and 158 PMults after boundary trims; the
        // untrimmed structure is 42 and 192, over 3 iterations of one
        // rescale each.
        let t = hdft_trace(&paper_cfg(KeyStrategy::MinKs));
        let s = t.summary();
        assert_eq!(s.hrot, 42);
        assert_eq!(s.pmult, 192);
        assert_eq!(s.hrescale, 3);
    }

    #[test]
    fn key_counts_per_strategy_match_figure_1() {
        // 3 iterations of 14 rotations; two giant/baby amounts collide
        // across iterations (±32 and ±1024), leaving exactly the paper's
        // 40 distinct evk_rot's. Hoisted-minimal needs 3/iteration,
        // Min-KS 2/iteration.
        let baseline = hdft_trace(&paper_cfg(KeyStrategy::Baseline));
        assert_eq!(baseline.distinct_keys(), 40);
        let hoisted = hdft_trace(&paper_cfg(KeyStrategy::HoistedMinimal));
        assert_eq!(hoisted.distinct_keys(), 9);
        let minks = hdft_trace(&paper_cfg(KeyStrategy::MinKs));
        assert_eq!(minks.distinct_keys(), 6);
    }

    #[test]
    fn hoisted_baseline_shares_baby_decompositions() {
        let plain = hdft_trace(&paper_cfg(KeyStrategy::Baseline));
        let hoisted = hdft_trace(&HdftConfig {
            hoisting: true,
            ..paper_cfg(KeyStrategy::Baseline)
        });
        // same op count, same key surface, same rotation structure
        assert_eq!(plain.len(), hoisted.len());
        assert_eq!(plain.distinct_keys(), hoisted.distinct_keys());
        let s = hoisted.summary();
        // 3 stages × 7 babies hoisted; giants stay per-rotation
        assert_eq!(s.hrot_hoisted, 21);
        assert_eq!(s.hrot, 21);
        // one ModUp per stage's baby group instead of one per baby:
        // 3 × (1 + 7 giants) vs 3 × (7 + 7)
        assert_eq!(plain.decompose_count(), 42);
        assert_eq!(hoisted.decompose_count(), 24);
    }

    #[test]
    fn hoisting_flag_is_inert_for_iterated_strategies() {
        // Min-KS babies chain off the previous result — nothing to hoist
        let plain = hdft_trace(&paper_cfg(KeyStrategy::MinKs));
        let flagged = hdft_trace(&HdftConfig {
            hoisting: true,
            ..paper_cfg(KeyStrategy::MinKs)
        });
        assert_eq!(plain.ops(), flagged.ops());
    }

    #[test]
    fn levels_decrease_per_iteration() {
        let t = hdft_trace(&paper_cfg(KeyStrategy::MinKs));
        let levels: Vec<usize> = t
            .ops()
            .iter()
            .filter_map(|op| match op {
                HeOp::HRescale { level } => Some(*level),
                _ => None,
            })
            .collect();
        assert_eq!(levels, vec![23, 22, 21]);
    }

    #[test]
    fn hdft_runs_at_low_levels() {
        let params = CkksParams::ark();
        let cfg = HdftConfig::paper_hdft(&params, KeyStrategy::MinKs);
        let t = hdft_trace(&cfg);
        // L − L_boot = 8; H-DFT's three iterations end at level 8
        let last_rescale = t
            .ops()
            .iter()
            .rev()
            .find_map(|op| match op {
                HeOp::HRescale { level } => Some(*level),
                _ => None,
            })
            .expect("has rescales");
        assert_eq!(last_rescale - 1, params.max_level - params.boot_levels);
    }

    #[test]
    fn ragged_slot_count_handled() {
        // 13 = 5 + 5 + 3: the last iteration has a smaller radix
        let cfg = HdftConfig {
            slots_log2: 13,
            radix_log2: 5,
            k1: 3,
            k2: 3,
            strategy: KeyStrategy::MinKs,
            start_level: 20,
            inverse: false,
            hoisting: false,
        };
        let t = hdft_trace(&cfg);
        assert_eq!(t.summary().hrescale, 3);
        assert!(t.summary().hrot < 42);
    }
}
