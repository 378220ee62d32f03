//! HELR \[43\]: homomorphic logistic-regression training trace.
//!
//! Each iteration trains on a 1,024-image MNIST mini-batch (14×14 = 196
//! features). The batch packs into a handful of full ciphertexts; the
//! forward/backward passes are inner products realized as PMult followed
//! by rotate-and-accumulate trees whose rotation amounts are *powers of
//! two* — explicitly **not** an arithmetic progression, which is why
//! Min-KS does not apply to these parts and HELR remains partly
//! memory-bound even on ARK (Section VII-C: the 2× HBM design helps HELR
//! 1.47× but bootstrapping-dominated workloads barely move).
//! Bootstrapping refreshes the model with only `n = 256` slots.

use crate::bootstrap::{bootstrap_trace, post_bootstrap_level, BootstrapTraceConfig};
use crate::trace::{HeOp, KeyId, Trace};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;

/// Shape of the HELR workload.
#[derive(Debug, Clone, Copy)]
pub struct HelrConfig {
    /// Images per mini-batch (paper: 1,024).
    pub batch: usize,
    /// Features per image (14×14 = 196).
    pub features: usize,
    /// Training iterations to trace (paper reports the average of 30).
    pub iterations: usize,
    /// Key strategy where applicable (bootstrapping transforms).
    pub strategy: KeyStrategy,
    /// Sigmoid polynomial degree (HELR uses degree 7).
    pub sigmoid_degree: usize,
    /// Evaluate the inner-product trees with hoisted radix-4 rounds:
    /// each round computes `Σ_{j=0..3} rot(acc, j·4^k)` with the three
    /// rotations sharing one digit decomposition, halving the round
    /// count (and the ModUps) at the cost of more rotations — and more
    /// distinct keys (12 vs 8 per tree), the hoisting-vs-Min-KS
    /// tradeoff Section VII-C's key analysis already flags for HELR.
    pub hoisting: bool,
}

impl HelrConfig {
    /// The paper's configuration.
    pub fn paper(strategy: KeyStrategy) -> Self {
        Self {
            batch: 1024,
            features: 196,
            iterations: 30,
            strategy,
            sigmoid_degree: 7,
            hoisting: false,
        }
    }

    /// Data ciphertexts needed to pack the batch.
    pub fn data_ciphertexts(&self, params: &CkksParams) -> usize {
        (self.batch * self.features).div_ceil(params.slots())
    }
}

/// One rotate-and-accumulate tree over `2^rounds` positions, rotating
/// by `sign · 2^k`.
///
/// Plain: `rounds` serial radix-2 steps (`acc += rot(acc, 2^k)`), each
/// paying a full key-switch. Hoisted: radix-4 rounds — `acc = Σ_{j=0..3}
/// rot(acc, j·4^k)` — where the three rotations of one round share a
/// single digit decomposition (they all read the same `acc`), so the
/// tree pays `⌈rounds/2⌉` ModUps instead of `rounds`. An odd `rounds`
/// leaves one radix-2 step, emitted un-hoisted (a group of one saves
/// nothing).
fn rotation_tree(t: &mut Trace, level: usize, rounds: u32, sign: i64, hoisting: bool) {
    if !hoisting {
        for round in 0..rounds {
            let amount = sign * (1i64 << round);
            t.push(HeOp::HRot {
                level,
                amount,
                key: KeyId::Rot(amount),
            });
            t.push(HeOp::HAdd { level });
        }
        return;
    }
    let mut done = 0u32;
    while done < rounds {
        let radix_log2 = (rounds - done).min(2);
        let step = sign * (1i64 << done);
        if radix_log2 == 1 {
            t.push(HeOp::HRot {
                level,
                amount: step,
                key: KeyId::Rot(step),
            });
            t.push(HeOp::HAdd { level });
        } else {
            // the group stays contiguous (rotations first, adds after)
            // so the compiler's shared-digit state survives the round
            for j in 1..4i64 {
                let amount = j * step;
                t.push(HeOp::HRotHoisted {
                    level,
                    amount,
                    key: KeyId::Rot(amount),
                    fresh_digits: j == 1,
                });
            }
            for _ in 1..4 {
                t.push(HeOp::HAdd { level });
            }
        }
        done += radix_log2;
    }
}

/// Emits one training iteration (without the trailing bootstrap).
///
/// The HELR packing aligns the feature axis identically across the batch
/// ciphertexts, so the inner-product rotation tree runs once on the
/// accumulated sum rather than once per ciphertext — one PMult per data
/// ciphertext plus a single log2(features) tree per pass.
fn helr_iteration(t: &mut Trace, cfg: &HelrConfig, params: &CkksParams, level: usize) -> usize {
    let cts = cfg.data_ciphertexts(params);
    let sum_rounds = (cfg.features as f64).log2().ceil() as u32;
    let mut l = level;
    // forward: z = X·w — the training data X is *plaintext* in HELR
    // (only the model is encrypted): PMult per data ciphertext, then one
    // shared rotate-and-sum tree (powers of two — not Min-KS-able).
    for _ in 0..cts {
        t.push(HeOp::PMult {
            level: l,
            fresh_plaintext: true,
        });
        t.push(HeOp::HAdd { level: l });
    }
    t.push(HeOp::HRescale { level: l });
    l -= 1;
    rotation_tree(t, l, sum_rounds, 1, cfg.hoisting);
    // sigmoid (degree 7 ⇒ 3 squaring levels)
    let sig_depth = (cfg.sigmoid_degree as f64).log2().ceil() as usize;
    for _ in 0..sig_depth {
        t.push(HeOp::HMult { level: l });
        t.push(HeOp::HRescale { level: l });
        t.push(HeOp::CMult { level: l });
        t.push(HeOp::HAdd { level: l });
        l -= 1;
    }
    // backward: g = X^T·σ — broadcast σ back across the feature axis
    // (reverse tree), PMult with the data, then one gradient-sum tree.
    rotation_tree(t, l, sum_rounds, -1, cfg.hoisting);
    for _ in 0..cts {
        t.push(HeOp::PMult {
            level: l,
            fresh_plaintext: true,
        });
        t.push(HeOp::HAdd { level: l });
    }
    t.push(HeOp::HRescale { level: l });
    l -= 1;
    rotation_tree(t, l, sum_rounds, 1, cfg.hoisting);
    // NAG-style update: two scalar multiplies and adds
    t.push(HeOp::CMult { level: l });
    t.push(HeOp::HAdd { level: l });
    t.push(HeOp::CMult { level: l });
    t.push(HeOp::HRescale { level: l });
    l - 1
}

/// The full HELR trace: `iterations` training steps, each followed by a
/// sparse (`n = 256`) bootstrap of the model ciphertext.
pub fn helr_trace(params: &CkksParams, cfg: &HelrConfig) -> Trace {
    let mut t = Trace::new("helr");
    let boot_cfg = BootstrapTraceConfig::sparse(8, cfg.strategy);
    let boot = bootstrap_trace(params, &boot_cfg);
    let post_boot = post_bootstrap_level(params, &boot_cfg).max(5);
    for _ in 0..cfg.iterations {
        let end = helr_iteration(&mut t, cfg, params, post_boot);
        // burn remaining levels is not needed; bootstrap from wherever
        let _ = end;
        t.extend(&boot);
    }
    t
}

/// The rotation amounts HELR's inner-product trees use — exposed so the
/// Min-KS applicability analysis (they are powers of two, not an
/// arithmetic progression) is checkable.
pub fn inner_product_rotations(features: usize) -> Vec<i64> {
    let rounds = (features as f64).log2().ceil() as u32;
    (0..rounds).map(|r| 1i64 << r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ckks::minks::detect_arithmetic_pattern;

    #[test]
    fn packing_arithmetic() {
        let params = CkksParams::ark();
        let cfg = HelrConfig::paper(KeyStrategy::MinKs);
        // 1024 × 196 = 200,704 values over 32,768 slots → 7 ciphertexts
        assert_eq!(cfg.data_ciphertexts(&params), 7);
    }

    #[test]
    fn rotation_amounts_defeat_minks() {
        // Section VII-C: HELR's rotation amounts are not an arithmetic
        // progression, so Min-KS cannot merge their keys.
        let rots = inner_product_rotations(196);
        assert_eq!(rots, vec![1, 2, 4, 8, 16, 32, 64, 128]);
        assert!(detect_arithmetic_pattern(&rots).is_none());
    }

    #[test]
    fn hoisted_trees_halve_the_modups_per_tree() {
        let params = CkksParams::ark();
        let base = HelrConfig {
            iterations: 1,
            ..HelrConfig::paper(KeyStrategy::MinKs)
        };
        let plain = helr_trace(&params, &base);
        let hoisted = helr_trace(
            &params,
            &HelrConfig {
                hoisting: true,
                ..base
            },
        );
        // 196 features ⇒ 8 radix-2 rounds become 4 radix-4 rounds: per
        // tree 4 ModUps instead of 8, three trees per iteration
        assert_eq!(
            plain.decompose_count() - hoisted.decompose_count(),
            3 * 4,
            "plain {} vs hoisted {}",
            plain.decompose_count(),
            hoisted.decompose_count()
        );
        // radix-4 rounds rotate 3× per round: 12 hoisted rotations/tree
        assert_eq!(
            hoisted.summary().hrot_hoisted,
            3 * 12,
            "three trees of four radix-4 rounds"
        );
        // the sums are unchanged: every tree still covers 2^8 positions
        assert_eq!(plain.summary().hrescale, hoisted.summary().hrescale);
    }

    #[test]
    fn trace_contains_expected_phases() {
        let params = CkksParams::ark();
        let cfg = HelrConfig {
            iterations: 2,
            ..HelrConfig::paper(KeyStrategy::MinKs)
        };
        let t = helr_trace(&params, &cfg);
        let s = t.summary();
        assert_eq!(s.mod_raise, 2, "one bootstrap per iteration");
        // 3 shared trees × 8 rotations × 2 iterations = 48 tree HRots
        // (plus bootstrap-internal rotations)
        assert!(s.hrot > 48);
        assert!(s.pmult > 2 * 2 * 7, "forward/backward PMults");
        assert!(s.hmult > 2 * 3, "sigmoid HMults");
    }

    #[test]
    fn bootstrap_dominates_ops_but_not_totally() {
        // the paper reports bootstrapping ≈ 39.3% of HELR time on ARK:
        // the trace must contain substantial non-bootstrap work
        let params = CkksParams::ark();
        let cfg = HelrConfig {
            iterations: 1,
            ..HelrConfig::paper(KeyStrategy::MinKs)
        };
        let t = helr_trace(&params, &cfg);
        let boot = bootstrap_trace(
            &params,
            &BootstrapTraceConfig::sparse(8, KeyStrategy::MinKs),
        );
        let non_boot_ks = t.key_switch_count() - boot.key_switch_count();
        assert!(
            non_boot_ks > 20,
            "non-bootstrap key-switches: {non_boot_ks}"
        );
    }
}
