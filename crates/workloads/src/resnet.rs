//! ResNet-20/CIFAR-10 inference trace after Lee et al. \[64\].
//!
//! The model evaluates 20 convolution layers with multiplexed parallel
//! convolutions: each 3×3 kernel position becomes an `HRot` whose
//! amounts form an arithmetic progression across the packed image — the
//! structure the paper generalizes Min-KS to (Section IV-A), yielding
//! the extra 1.09× on the non-bootstrap part of ResNet-20 (Section
//! VII-B). ReLU is the AppReLU composite minimax polynomial, and one
//! full-slot bootstrap runs per layer plus extras for the deeper stages
//! — real-time inference is then bootstrap-bound (Fig. 7(b)).

use crate::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
use crate::trace::{HeOp, KeyId, Trace};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;

/// Shape of the ResNet-20 workload.
#[derive(Debug, Clone, Copy)]
pub struct ResNetConfig {
    /// Convolution layers (ResNet-20: 19 conv + 1 FC).
    pub conv_layers: usize,
    /// Kernel size (3×3).
    pub kernel: usize,
    /// AppReLU multiplicative depth (composite minimax {15,15,27}).
    pub relu_depth: usize,
    /// Whether Min-KS is applied to the convolution rotations too
    /// (the paper's extra ablation on top of bootstrapping Min-KS).
    pub minks_on_conv: bool,
    /// Key strategy for bootstrapping transforms.
    pub strategy: KeyStrategy,
}

impl ResNetConfig {
    /// The paper's configuration.
    pub fn paper(strategy: KeyStrategy) -> Self {
        Self {
            conv_layers: 20,
            kernel: 3,
            relu_depth: 11,
            minks_on_conv: strategy == KeyStrategy::MinKs,
            strategy,
        }
    }
}

/// Rotation amounts of one multiplexed 3×3 convolution on a `w`-wide
/// packed image: `{(di·w + dj)}` for `di, dj ∈ {−1, 0, 1}` — re-packed
/// by \[64\] so consecutive kernel taps differ by a constant stride,
/// i.e. an arithmetic progression Min-KS can absorb.
pub fn conv_rotations(kernel: usize, image_width: usize) -> Vec<i64> {
    let half = kernel as i64 / 2;
    let mut out = Vec::new();
    for di in -half..=half {
        for dj in -half..=half {
            let amt = di * image_width as i64 + dj;
            if amt != 0 {
                out.push(amt);
            }
        }
    }
    out
}

fn conv_layer(t: &mut Trace, cfg: &ResNetConfig, level: usize, width: usize) -> usize {
    let taps = cfg.kernel * cfg.kernel;
    let rots = conv_rotations(cfg.kernel, width);
    for (i, &amount) in rots.iter().enumerate() {
        let key = if cfg.minks_on_conv {
            // Min-KS iterated: one key per progression direction
            KeyId::Rot(if amount > 0 { 1 } else { -1 })
        } else {
            KeyId::Rot(amount)
        };
        t.push(HeOp::HRot { level, amount, key });
        let _ = i;
    }
    // one weight PMult per kernel tap (multiplexed channels share it)
    for _ in 0..taps {
        t.push(HeOp::PMult {
            level,
            fresh_plaintext: true,
        });
        t.push(HeOp::HAdd { level });
    }
    // channel accumulation: log2 rotate-and-sum (powers of two)
    for round in 0..4 {
        let amount = 1i64 << (round + 10);
        t.push(HeOp::HRot {
            level,
            amount,
            key: KeyId::Rot(amount),
        });
        t.push(HeOp::HAdd { level });
    }
    // batch-norm folded scale + bias
    t.push(HeOp::CMult { level });
    t.push(HeOp::PAdd {
        level,
        fresh_plaintext: true,
    });
    t.push(HeOp::HRescale { level });
    level - 1
}

fn app_relu(t: &mut Trace, cfg: &ResNetConfig, level: usize) -> usize {
    let mut l = level;
    for _ in 0..cfg.relu_depth {
        t.push(HeOp::HMult { level: l });
        t.push(HeOp::CMult { level: l });
        t.push(HeOp::HAdd { level: l });
        t.push(HeOp::HRescale { level: l });
        l -= 1;
    }
    l
}

/// The full inference trace: per layer one convolution, one AppReLU and
/// one full-slot bootstrap; deeper stages (strided, more channels) add a
/// second bootstrap every third layer.
pub fn resnet_trace(params: &CkksParams, cfg: &ResNetConfig) -> Trace {
    let mut t = Trace::new("resnet-20");
    let boot_cfg = BootstrapTraceConfig::full(params, cfg.strategy);
    let boot = bootstrap_trace(params, &boot_cfg);
    let post_boot = params.max_level - boot_cfg.levels_consumed();
    for layer in 0..cfg.conv_layers {
        let width = if layer < 7 {
            32
        } else if layer < 13 {
            16
        } else {
            8
        };
        // conv at a level that still has room before AppReLU's depth
        let l = conv_layer(&mut t, cfg, post_boot.max(2), width);
        t.extend(&boot);
        let _ = app_relu(&mut t, cfg, post_boot.max(cfg.relu_depth + 1));
        if layer % 3 == 2 {
            t.extend(&boot);
        }
        let _ = l;
    }
    // average pool + FC: one more rotate-and-sum plus PMult
    for round in 0..6 {
        let amount = 1i64 << round;
        t.push(HeOp::HRot {
            level: 2,
            amount,
            key: KeyId::Rot(amount),
        });
        t.push(HeOp::HAdd { level: 2 });
    }
    t.push(HeOp::PMult {
        level: 2,
        fresh_plaintext: true,
    });
    t.push(HeOp::HRescale { level: 2 });
    t
}

/// Number of bootstraps in the trace — the quantity that dominates the
/// 0.125 s inference time.
#[cfg(test)]
fn bootstrap_count(cfg: &ResNetConfig) -> usize {
    cfg.conv_layers + cfg.conv_layers / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ckks::minks::detect_arithmetic_pattern;

    #[test]
    fn conv_rotations_form_progressions_rowwise() {
        // within one kernel row the amounts differ by 1 — Min-KS applies
        let rots = conv_rotations(3, 32);
        assert_eq!(rots.len(), 8);
        let row: Vec<i64> = rots.iter().copied().filter(|&a| a.abs() <= 1).collect();
        assert!(detect_arithmetic_pattern(&row).is_some() || row.len() <= 2);
    }

    #[test]
    fn trace_bootstrap_count() {
        let params = CkksParams::ark();
        let cfg = ResNetConfig::paper(KeyStrategy::MinKs);
        let t = resnet_trace(&params, &cfg);
        assert_eq!(t.summary().mod_raise, bootstrap_count(&cfg));
        assert_eq!(bootstrap_count(&cfg), 26);
    }

    #[test]
    fn minks_reduces_conv_keys() {
        let params = CkksParams::ark();
        let with = resnet_trace(&params, &ResNetConfig::paper(KeyStrategy::MinKs));
        let without = resnet_trace(&params, &ResNetConfig::paper(KeyStrategy::Baseline));
        assert!(with.distinct_keys() < without.distinct_keys());
    }

    #[test]
    fn conv_and_relu_present() {
        let params = CkksParams::ark();
        let t = resnet_trace(&params, &ResNetConfig::paper(KeyStrategy::MinKs));
        let s = t.summary();
        assert!(s.pmult > 20 * 9, "kernel-tap PMults");
        assert!(s.hmult > 20 * 11, "AppReLU HMults");
    }
}
