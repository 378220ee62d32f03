//! Homomorphic (I)DFT factor generation (Alg. 3 of the paper).
//!
//! Bootstrapping's CoeffToSlot / SlotToCoeff steps apply the (inverse)
//! special FFT *to the slots* of a ciphertext. Doing it as one dense
//! matrix costs one level but `O(√n)` rotations with `n` diagonals;
//! the FFT-like algorithm (Alg. 3) instead factors the transform into
//! `log_{2^k} n` sparse stages, each a [`LinearTransform`] with at most
//! `2^{k+1} − 1` diagonals whose rotation amounts form an arithmetic
//! progression — precisely the structure Min-KS exploits.
//!
//! We build the radix-2 butterfly stages of the special FFT symbolically
//! (three diagonals each: `0, ±len/2`) and *group* consecutive stages by
//! composition to reach any radix `2^k` — grouping all stages recovers
//! the dense single-level transform. A group whose smallest butterfly
//! distance is `s` has its diagonals at `{u·s mod n : |u| ≤ 2^k − 1}`:
//! a progression of stride `s` that starts *below* zero and therefore
//! wraps around the slot cycle (`{0, 8, …, 56, 456, …, 504}` at 512
//! slots, `s = 8`). [`LinearTransform`] plans its BSGS split over that
//! progression — 15 units wide, not 505 indices — and the edge group,
//! where `2^k·s = n`, collapses onto `2^k` diagonals because `+u·s` and
//! `−(2^k − u)·s` coincide mod `n`. The bit-reversal that a plain FFT
//! would need is avoided by letting CoeffToSlot emit the coefficients in
//! bit-reversed slot order and having SlotToCoeff consume that order;
//! slot-wise EvalMod in between is order-agnostic.
//!
//! One type carries each map from factor to evaluation: a stage is a
//! [`LinearTransform`] from the moment it is generated here, and the
//! same value is grouped, scaled, tiled, planned and evaluated by that
//! type's methods in [`crate::lintrans`], with no conversion in between.
//!
//! A *sparse* bootstrap transforms `n < N/2` slots whose message
//! repeats with period `n` ([`crate::bootstrap`]). Its stages are the
//! `n`-slot ones, tiled to the ciphertext's `N/2` slots: on
//! `n`-periodic data a rotation only matters mod `n`. Between the
//! transforms the real and imaginary halves share one ciphertext,
//! `2n`-periodic: `real_imag_pack` masks CoeffToSlot's last stage so
//! it emits `[w, −i·w]`, and `real_imag_unpack` folds the halves
//! `x, y` back into `x + i·y` inside SlotToCoeff's last stage, whose
//! butterflies ([`slot_to_coeff_stages`] over `2n` slots) keep the two
//! halves apart until then.

use crate::lintrans::LinearTransform;
use ark_math::cfft::C64;
use std::collections::BTreeMap;

fn rot_group(n: usize) -> Vec<usize> {
    let m = 4 * n;
    let mut out = Vec::with_capacity(n);
    let mut five = 1usize;
    for _ in 0..n {
        out.push(five);
        five = five * 5 % m;
    }
    out
}

fn ksi(n: usize, idx: usize) -> C64 {
    let m = 4 * n;
    C64::from_angle(2.0 * std::f64::consts::PI * (idx % m) as f64 / m as f64)
}

/// CoeffToSlot stage maps, in application order (index 0 first). The
/// product of all stages equals `P_br · U0^{-1}` — the inverse special
/// FFT with its output left in bit-reversed order; the `1/n` factor is
/// folded into the first stage.
pub fn coeff_to_slot_stages(n: usize) -> Vec<LinearTransform> {
    assert!(n.is_power_of_two() && n >= 2);
    let rg = rot_group(n);
    let mut stages = Vec::new();
    let mut len = n;
    while len >= 2 {
        let lenh = len >> 1;
        let lenq = len << 2;
        let mut d0 = vec![C64::zero(); n];
        let mut dplus = vec![C64::zero(); n]; // rotation +lenh
        let mut dminus = vec![C64::zero(); n]; // rotation n-lenh
        for i in (0..n).step_by(len) {
            for j in 0..lenh {
                let idx = (lenq - (rg[j] % lenq)) * (4 * n / lenq);
                let w = ksi(n, idx);
                // out[i+j]      = in[i+j] + in[i+j+lenh]
                d0[i + j] = C64::new(1.0, 0.0);
                dplus[i + j] = C64::new(1.0, 0.0);
                // out[i+j+lenh] = (in[i+j] − in[i+j+lenh]) · w
                d0[i + j + lenh] = -w;
                dminus[i + j + lenh] = w;
            }
        }
        stages.push(merge_diagonals(
            n,
            [(0, d0), (lenh, dplus), (n - lenh, dminus)],
        ));
        len >>= 1;
    }
    // fold 1/n into the first applied stage
    stages[0] = stages[0].scaled(1.0 / n as f64);
    stages
}

/// SlotToCoeff stage maps of an `n`-slot transform over `slots`-long
/// vectors, in application order: every aligned `n`-block is
/// transformed on its own, its butterflies reading `±len/2` inside the
/// block (`slots = n` is the plain transform). The product equals
/// `U0 · P_br` per block — the forward special FFT consuming
/// bit-reversed input.
///
/// # Panics
///
/// Panics unless `n ≥ 2` is a power of two dividing `slots`.
pub fn slot_to_coeff_stages(n: usize, slots: usize) -> Vec<LinearTransform> {
    assert!(n.is_power_of_two() && n >= 2 && slots.is_multiple_of(n));
    let rg = rot_group(n);
    let mut stages = Vec::new();
    let mut len = 2usize;
    while len <= n {
        let lenh = len >> 1;
        let lenq = len << 2;
        let mut d0 = vec![C64::zero(); slots];
        let mut dplus = vec![C64::zero(); slots];
        let mut dminus = vec![C64::zero(); slots];
        for i in (0..slots).step_by(len) {
            for j in 0..lenh {
                let idx = (rg[j] % lenq) * (4 * n / lenq);
                let w = ksi(n, idx);
                // out[i+j]      = in[i+j] + w·in[i+j+lenh]
                d0[i + j] = C64::new(1.0, 0.0);
                dplus[i + j] = w;
                // out[i+j+lenh] = in[i+j] − w·in[i+j+lenh]
                d0[i + j + lenh] = -w;
                dminus[i + j + lenh] = C64::new(1.0, 0.0);
            }
        }
        stages.push(merge_diagonals(
            slots,
            [(0, d0), (lenh, dplus), (slots - lenh, dminus)],
        ));
        len <<= 1;
    }
    stages
}

/// CoeffToSlot's last-stage mask when the real and imaginary halves
/// share one ciphertext (`2n ≤ slots`): `1` on the first `n` slots of
/// every `2n`, `−i` on the second. Applied to an `n`-periodic `w` it
/// gives `u = [w, −i·w]`, and `u + ū = [2·Re w, 2·Im w]`.
pub(crate) fn real_imag_pack(n: usize, slots: usize) -> LinearTransform {
    assert!(
        slots.is_multiple_of(2 * n),
        "{slots} slots hold no {n} pairs"
    );
    let mask = (0..slots)
        .map(|k| match (k / n) % 2 {
            0 => C64::new(1.0, 0.0),
            _ => C64::new(0.0, -1.0),
        })
        .collect();
    LinearTransform::from_diagonals(slots, BTreeMap::from([(0, mask)]))
}

/// The fold back, on `2n` slots holding the halves `v = [x, y]`: every
/// slot gets `x + i·y` of its class mod `n` — `v_k + i·v_{k+n}` on the
/// first half, `i·v_k + v_{k+n}` on the second (rotations are cyclic on
/// `2n`) — an `n`-periodic result from the amounts `{0, n}` alone.
pub(crate) fn real_imag_unpack(n: usize) -> LinearTransform {
    let one = C64::new(1.0, 0.0);
    let i = C64::new(0.0, 1.0);
    let half = |first: C64, second: C64| -> Vec<C64> {
        (0..2 * n)
            .map(|k| if k < n { first } else { second })
            .collect()
    };
    LinearTransform::from_diagonals(
        2 * n,
        BTreeMap::from([(0, half(one, i)), (n, half(i, one))]),
    )
}

/// A butterfly stage from its diagonals, merged additively: at the
/// `len == n` stage of an `n`-slot transform the `+n/2` and `−n/2`
/// rotation amounts coincide (their supports are disjoint halves), so a
/// plain map insert would drop one of them.
fn merge_diagonals(n: usize, entries: [(usize, Vec<C64>); 3]) -> LinearTransform {
    let mut out: BTreeMap<usize, Vec<C64>> = BTreeMap::new();
    for (amount, diag) in entries {
        match out.entry(amount) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(diag);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                for (a, b) in e.get_mut().iter_mut().zip(&diag) {
                    *a = *a + *b;
                }
            }
        }
    }
    LinearTransform::from_nonzero_diagonals(n, out)
}

/// Groups consecutive stages into radix-`2^k` super-stages by
/// composition; the last group may be smaller. Grouping with
/// `k >= log2(n)` yields the dense single-stage transform.
pub fn group_stages(stages: &[LinearTransform], k: usize) -> Vec<LinearTransform> {
    assert!(k >= 1);
    stages
        .chunks(k)
        .map(|chunk| {
            let first = chunk[0].clone();
            chunk[1..]
                .iter()
                .fold(first, |acc, stage| stage.compose(&acc))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use ark_math::cfft::SpecialFft;

    /// Bit-reverses a slot vector (the order CoeffToSlot emits).
    fn bit_reverse_slots(z: &[C64]) -> Vec<C64> {
        let n = z.len();
        assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let mut out = z.to_vec();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                out.swap(i, j);
            }
        }
        out
    }

    fn test_vec(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((i as f64 * 0.3).sin(), (i as f64 * 0.5).cos()))
            .collect()
    }

    fn apply_all(stages: &[LinearTransform], z: &[C64]) -> Vec<C64> {
        stages.iter().fold(z.to_vec(), |v, s| s.apply_clear(&v))
    }

    #[test]
    fn c2s_stages_equal_inverse_special_fft_bit_reversed() {
        for n in [4usize, 16, 64] {
            let stages = coeff_to_slot_stages(n);
            assert_eq!(stages.len(), n.trailing_zeros() as usize);
            let z = test_vec(n);
            let got = apply_all(&stages, &z);
            let fft = SpecialFft::new(n);
            let mut want = z.clone();
            fft.inverse(&mut want);
            let want_br = bit_reverse_slots(&want);
            assert!(max_error(&got, &want_br) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn s2c_stages_equal_forward_special_fft_from_bit_reversed() {
        for n in [4usize, 16, 64] {
            let stages = slot_to_coeff_stages(n, n);
            let z = test_vec(n);
            // feed bit-reversed input; expect forward special FFT of z
            let got = apply_all(&stages, &bit_reverse_slots(&z));
            let fft = SpecialFft::new(n);
            let mut want = z.clone();
            fft.forward(&mut want);
            assert!(max_error(&got, &want) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn c2s_then_s2c_is_identity() {
        let n = 32;
        let z = test_vec(n);
        let after_c2s = apply_all(&coeff_to_slot_stages(n), &z);
        let back = apply_all(&slot_to_coeff_stages(n, n), &after_c2s);
        assert!(max_error(&z, &back) < 1e-9);
    }

    #[test]
    fn stages_are_sparse_with_progression_amounts() {
        // each radix-2 stage has ≤3 diagonals at {0, lenh, n−lenh}
        let n = 64;
        for (s, stage) in coeff_to_slot_stages(n).iter().enumerate() {
            let amounts = stage.amounts();
            assert!(amounts.len() <= 3, "stage {s} has {amounts:?}");
            let lenh = n >> (s + 1);
            for &a in &amounts {
                assert!(
                    a == 0 || a == lenh || a == n - lenh,
                    "stage {s} unexpected amount {a}"
                );
            }
        }
    }

    #[test]
    fn grouping_preserves_the_transform() {
        let n = 64; // 6 stages
        let stages = slot_to_coeff_stages(n, n);
        let z = test_vec(n);
        let want = apply_all(&stages, &z);
        // k = stages.len() is the dense single-stage transform
        for k in [2usize, 3, stages.len(), 10] {
            let grouped = group_stages(&stages, k);
            let got = apply_all(&grouped, &z);
            assert!(max_error(&want, &got) < 1e-8, "radix 2^{k}");
        }
    }

    #[test]
    fn grouped_stage_diagonal_counts_follow_radix() {
        // radix-2^k grouping: ≤ 2^{k+1} − 1 diagonals per super-stage
        let n = 64;
        let stages = coeff_to_slot_stages(n);
        for k in [1usize, 2, 3] {
            for g in group_stages(&stages, k) {
                assert!(
                    g.diagonal_count() < (1 << (k + 1)),
                    "radix 2^{k}: {} diagonals",
                    g.diagonal_count()
                );
            }
        }
    }

    fn tile(z: &[C64], slots: usize) -> Vec<C64> {
        z.iter().cycle().take(slots).copied().collect()
    }

    #[test]
    fn tiled_stages_act_per_period_with_the_same_plan() {
        use crate::minks::KeyStrategy;
        let (n, slots) = (16, 128);
        let z = test_vec(n);
        for k in [1usize, 2, 3] {
            for group in group_stages(&coeff_to_slot_stages(n), k) {
                let lifted = group.tiled(slots);
                let want = tile(&group.apply_clear(&z), slots);
                assert!(max_error(&lifted.apply_clear(&tile(&z, slots)), &want) < 1e-12);
                let (a, b) = (
                    group.plan(KeyStrategy::HoistedMinimal),
                    lifted.plan(KeyStrategy::HoistedMinimal),
                );
                assert_eq!((a.stride, a.span), (b.stride, b.span), "radix 2^{k}");
                assert_eq!(a.key_switches(), b.key_switches(), "radix 2^{k}");
            }
        }
    }

    #[test]
    fn packed_halves_fold_back_through_slot_to_coeff() {
        // CoeffToSlot's output w, packed as [w, −i·w] and conjugate-added
        // to [2·Re w, 2·Im w], comes out of the 2n-slot SlotToCoeff
        // with the fold as the n-slot SlotToCoeff of 2·w, tiled
        let (n, slots) = (8, 64);
        let w = test_vec(n);
        let u = real_imag_pack(n, slots).apply_clear(&tile(&w, slots));
        let v: Vec<C64> = u.iter().map(|&x| x + x.conj()).collect();
        let mut stages = slot_to_coeff_stages(n, 2 * n);
        let last = stages.pop().expect("log2 n stages");
        stages.push(real_imag_unpack(n).compose(&last));
        let got = stages
            .iter()
            .fold(v, |x, stage| stage.tiled(slots).apply_clear(&x));
        let twice: Vec<C64> = w.iter().map(|&x| x.scale(2.0)).collect();
        let want = tile(&apply_all(&slot_to_coeff_stages(n, n), &twice), slots);
        assert!(max_error(&got, &want) < 1e-12);
    }
}
