//! Generalized key-switching (Alg. 2 of the paper), split into its
//! *hoistable* halves.
//!
//! `KeySwitch(x, evk)` re-encrypts `x·s'` under `s`: the input is split
//! into `dnum` decomposition pieces `[x]_{C_i}`, each piece is extended
//! to `R_PQ` with a BConvRoutine (INTT → BConv → NTT), multiplied with
//! its `evk_i` pair and accumulated, and the result is brought back to
//! `R_Q` and divided by `P` (the ModDown). This op dominates HE
//! execution time (Section II-C) — its primary-function sequence is what
//! the ARK compiler in `ark-core` reproduces cycle by cycle.
//!
//! The op factors into two phases with very different reuse behavior:
//!
//! 1. [`CkksContext::hoisted_decompose`] — digit decomposition + ModUp
//!    (`dnum'` BConvRoutines), a function of the *input polynomial
//!    only*;
//! 2. [`CkksContext::hoisted_apply`] — a function of the *rotation*
//!    (Galois element + key), itself two halves:
//!    [`CkksContext::hoisted_inner_product_with`] (a Galois permutation
//!    of the raised digits and the evk inner product, result left in
//!    `R_PQ`) and [`CkksContext::mod_down`] (two BConvRoutines back to
//!    `R_Q`, dividing by `P`).
//!
//! Because the Galois map is a signed coefficient permutation applied
//! identically to every limb, it commutes with the per-coefficient
//! ModUp, so one decomposition serves any number of rotations of the
//! same ciphertext (Halevi–Shoup hoisting): rotation-heavy kernels
//! (the BSGS baby loop of Eq. 8, H-(I)DFT stages) pay the `dnum'`
//! mod-up BConvRoutines once instead of once per rotation. The ModDown
//! cannot be *shared* — its input already mixes in the per-rotation evk
//! product, so a rotation whose result is needed on its own
//! ([`CkksContext::hoisted_apply`]) pays its own two BConvRoutines. It
//! can be *deferred*: ModDown is linear up to one rounding, so a
//! weighted sum of rotations ([`CkksContext::rotate_sum`]) accumulates
//! the inner products in `R_PQ` and pays two ModDowns for the whole
//! sum — `dnum' + 2` BConvRoutines instead of `dnum' + 2k`.

use crate::keys::EvalKey;
use crate::params::CkksContext;
use ark_math::automorphism::GaloisElement;
use ark_math::modulus::Modulus;
use ark_math::poly::{derive_seed, seeded_row_rng, Representation, RnsPoly};
use ark_math::scratch::ScratchArena;
use rand::rngs::StdRng;
use rand::Rng;

/// The shared state of a hoisted key-switch: the input's decomposition
/// digits, already extended to `R_PQ` (ModUp done) in the evaluation
/// representation. Produced once by [`CkksContext::hoisted_decompose`],
/// consumed by any number of [`CkksContext::hoisted_apply`] calls with
/// different Galois elements.
#[derive(Debug, Clone)]
pub struct HoistedDigits {
    /// Level the digits were decomposed at.
    level: usize,
    /// The extended limb set `C_ℓ ∪ B` the digits live on.
    ext: Vec<usize>,
    /// One raised digit per decomposition group, evaluation rep.
    digits: Vec<RnsPoly>,
}

impl HoistedDigits {
    /// Level the decomposition was taken at.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of decomposition digits (`dnum'` at this level).
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// True if the decomposition holds no digits (never for a valid
    /// level).
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Storage in words — the scratch the hoisted state occupies
    /// between applications (`dnum' · (ℓ+1+α) · N`).
    pub fn words(&self) -> usize {
        self.digits.iter().map(RnsPoly::words).sum()
    }

    /// Returns every digit buffer to `arena` for reuse. Hot paths that
    /// decompose per call (e.g. `HMult`'s relinearization) recycle the
    /// digits so steady-state key-switching allocates nothing; dropping
    /// a `HoistedDigits` instead is always safe, just not free.
    pub fn recycle(self, arena: &mut ScratchArena) {
        let HoistedDigits {
            ext, mut digits, ..
        } = self;
        for digit in digits.drain(..) {
            digit.recycle(arena);
        }
        arena.put_poly_vec(digits);
        arena.put_indices(ext);
    }
}

impl CkksContext {
    /// Extends one decomposition piece `[x]_{C_i}` to the limb set `ext`
    /// (Alg. 2 line 3), keeping the piece's own limbs exact and base-
    /// converting the rest.
    fn extend_piece(
        &self,
        x: &RnsPoly,
        level: usize,
        group_idx: usize,
        ext: &[usize],
        arena: &mut ScratchArena,
    ) -> RnsPoly {
        let group = &self.decomposition_groups(level)[group_idx];
        let piece = x.subset_in(arena, group);
        let conv = self.modup_converter(level, group_idx);
        // BConvRoutine (INTT → BConv → NTT) fans out per limb internally.
        let extension = conv.routine_with(&piece, self.basis(), arena);
        // Assemble limbs in `ext` order (parallel row copies into one
        // flat buffer — at paper scale each row is N words).
        let n = x.n();
        let mut data = arena.take(ext.len() * n);
        self.basis()
            .pool()
            .for_work(data.len())
            .par_for_each_row(&mut data, n, |k, row| {
                let i = ext[k];
                let src = match piece.position_of(i) {
                    Some(pos) => piece.limb(pos),
                    None => {
                        let pos = extension.position_of(i).expect("converted limb present");
                        extension.limb(pos)
                    }
                };
                row.copy_from_slice(src);
            });
        let mut limb_idx = arena.take_indices(ext.len());
        limb_idx.extend_from_slice(ext);
        piece.recycle(arena);
        extension.recycle(arena);
        RnsPoly::from_parts(n, Representation::Evaluation, limb_idx, data)
    }

    /// `ModDown`: maps a polynomial over `C_ℓ ∪ B` back to `C_ℓ` and
    /// divides by `P` (Alg. 2 lines 6–8). Rounding error is the usual
    /// key-switching noise.
    pub fn mod_down(&self, y: &RnsPoly, level: usize) -> RnsPoly {
        let mut arena = self.arena();
        self.mod_down_with(y, level, &mut arena)
    }

    /// [`Self::mod_down`] with every temporary drawn from `arena` — the
    /// form the key-switch inner loop uses. The returned polynomial is
    /// arena-backed; recycle it when done to keep the op allocation-free.
    pub fn mod_down_with(&self, y: &RnsPoly, level: usize, arena: &mut ScratchArena) -> RnsPoly {
        let conv = self.moddown_converter(level);
        let y_b = y.subset_in(arena, self.special_indices());
        let down = conv.routine_with(&y_b, self.basis(), arena);
        y_b.recycle(arena);
        let mut out = y.subset_in(arena, self.chain_indices(level));
        out.sub_assign(&down, self.basis());
        down.recycle(arena);
        // multiply by P^{-1} mod q_j (the level's precomputed scalars)
        out.mul_scalar_per_limb(self.moddown_factors(level), self.basis());
        out
    }

    /// Phase 1 of a (possibly hoisted) key-switch: digit decomposition
    /// plus ModUp (Alg. 2 lines 1–3), `dnum'` BConvRoutines. The result
    /// depends only on `x`, so rotation-heavy kernels compute it once
    /// and feed it to many [`Self::hoisted_apply`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the evaluation representation over the
    /// chain limbs of `level`.
    pub fn hoisted_decompose(&self, x: &RnsPoly, level: usize) -> HoistedDigits {
        let mut arena = self.arena();
        self.hoisted_decompose_with(x, level, &mut arena)
    }

    /// [`Self::hoisted_decompose`] drawing every digit from `arena`.
    pub fn hoisted_decompose_with(
        &self,
        x: &RnsPoly,
        level: usize,
        arena: &mut ScratchArena,
    ) -> HoistedDigits {
        assert_eq!(x.representation(), Representation::Evaluation);
        let mut ext = arena.take_indices(self.extended_indices(level).len());
        ext.extend_from_slice(self.extended_indices(level));
        let group_count = self.decomposition_groups(level).len();
        // the digit spine comes from the arena too, so decompose-per-call
        // paths (relinearization) allocate nothing in steady state
        let mut digits = arena.take_poly_vec(group_count);
        for group_idx in 0..group_count {
            let digit = self.extend_piece(x, level, group_idx, &ext, arena);
            digits.push(digit);
        }
        HoistedDigits { level, ext, digits }
    }

    /// Phase 2: applies the Galois automorphism `g` to the raised
    /// digits, runs the evk inner product and the ModDown. Returns
    /// `(kb, ka)` over the chain at the digits' level with
    /// `kb − ka·s ≈ ψ_g(x)·ψ_g(s')`.
    ///
    /// The evk must be the switching key for `ψ_g(s') → s` — for
    /// rotations, the rotation key of `g` — and needs at least
    /// `digits.len()` pieces.
    ///
    /// # Panics
    ///
    /// Panics if the evk has fewer pieces than digits.
    pub fn hoisted_apply(
        &self,
        digits: &HoistedDigits,
        g: GaloisElement,
        evk: &EvalKey,
    ) -> (RnsPoly, RnsPoly) {
        let mut arena = self.arena();
        self.hoisted_apply_with(digits, g, evk, &mut arena)
    }

    /// [`Self::hoisted_apply`] with every temporary drawn from `arena`:
    /// [`Self::hoisted_inner_product_with`] followed by one
    /// [`Self::mod_down_with`] per half. The returned pair is
    /// arena-backed.
    pub fn hoisted_apply_with(
        &self,
        digits: &HoistedDigits,
        g: GaloisElement,
        evk: &EvalKey,
        arena: &mut ScratchArena,
    ) -> (RnsPoly, RnsPoly) {
        let (acc_b, acc_a) = self.hoisted_inner_product_with(digits, g, evk, arena);
        let out_b = self.mod_down_with(&acc_b, digits.level, arena);
        let out_a = self.mod_down_with(&acc_a, digits.level, arena);
        acc_b.recycle(arena);
        acc_a.recycle(arena);
        (out_b, out_a)
    }

    /// The rotation-dependent half of a key-switch that stays in
    /// `R_PQ`: applies the Galois automorphism `g` to the raised digits
    /// (a per-limb permutation in the evaluation representation —
    /// exact, because the signed coefficient permutation commutes with
    /// the per-coefficient ModUp) and runs the evk inner product.
    /// Returns `(ub, ua)` over `C_ℓ ∪ B` with
    /// `ub − ua·s ≈ P·ψ_g(x)·ψ_g(s')`; a [`Self::mod_down`] of each
    /// half finishes the key-switch, and a caller summing several
    /// rotations may take it once, after the sum. The returned pair is
    /// arena-backed.
    ///
    /// One pass per output limb `j` (`InnerProductRow`) reads each
    /// digit's row through the permutation in place (no rotated copy),
    /// reads the key's `B_d` row, regenerates the key's `A_d` row from
    /// its seed, and sums the `dnum'` products of each half in `u128`
    /// before one reduction per output word.
    ///
    /// # Panics
    ///
    /// Panics if the evk has fewer pieces than digits.
    pub fn hoisted_inner_product_with(
        &self,
        digits: &HoistedDigits,
        g: GaloisElement,
        evk: &EvalKey,
        arena: &mut ScratchArena,
    ) -> (RnsPoly, RnsPoly) {
        assert!(
            digits.len() <= evk.dnum(),
            "evk has too few decomposition pieces"
        );
        let ext = &digits.ext;
        let n = self.params().n();
        let basis = self.basis();
        // one permutation table serves every digit; the identity reads
        // rows in order
        let perm = (g != GaloisElement::identity()).then(|| self.eval_perm(g));
        let perm = perm.as_deref().map(Vec::as_slice);
        let mut out_b = arena.take(ext.len() * n);
        let mut out_a = arena.take(ext.len() * n);
        basis.pool().for_work(out_b.len()).par_for_each_row_pair(
            &mut out_b,
            &mut out_a,
            n,
            |pos, row_b, row_a| {
                let row = InnerProductRow {
                    q: basis.modulus(ext[pos]),
                    pos,
                    perm,
                    digits,
                    evk,
                };
                row.run(row_b, row_a);
            },
        );
        let mut half = |data| {
            let mut limb_idx = arena.take_indices(ext.len());
            limb_idx.extend_from_slice(ext);
            RnsPoly::from_parts(n, Representation::Evaluation, limb_idx, data)
        };
        (half(out_b), half(out_a))
    }

    /// Generalized key-switching: returns `(kb, ka)` over the chain at
    /// `level` with `kb − ka·s ≈ x·s'` for the evk's source key `s'`.
    ///
    /// This is exactly [`Self::hoisted_decompose`] followed by one
    /// identity [`Self::hoisted_apply`] — the two-phase split is the
    /// canonical path, so per-rotation and hoisted evaluation are
    /// bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the evaluation representation over the
    /// chain limbs of `level`.
    pub fn key_switch(&self, x: &RnsPoly, evk: &EvalKey, level: usize) -> (RnsPoly, RnsPoly) {
        let mut arena = self.arena();
        self.key_switch_with(x, evk, level, &mut arena)
    }

    /// [`Self::key_switch`] with digits and temporaries drawn from
    /// `arena` (the digits are recycled before returning).
    pub fn key_switch_with(
        &self,
        x: &RnsPoly,
        evk: &EvalKey,
        level: usize,
        arena: &mut ScratchArena,
    ) -> (RnsPoly, RnsPoly) {
        let digits = self.hoisted_decompose_with(x, level, arena);
        let out = self.hoisted_apply_with(&digits, GaloisElement::identity(), evk, arena);
        digits.recycle(arena);
        out
    }
}

/// Most digits one pass of [`InnerProductRow::group`] sums in a
/// `u128` before it reduces, each drawing from its own `A` stream, the
/// streams advanced in lockstep. One monomorph per group size keeps the
/// group's generators and sums in registers (the functional parameter
/// sets have `dnum ≤ 3`). A sum of `DIGIT_GROUP` products `(q−1)²` fits
/// for any prime the basis admits (checked below at compile time), and
/// the context asserts `dnum ≤ max_lazy_mac_terms(q − 1)` for each of
/// its primes when it is built. A larger `dnum'` runs group by group,
/// each group reduced and added onto the last.
const DIGIT_GROUP: usize = 4;

const _: () = {
    let widest = (1u128 << ark_math::modulus::MAX_MODULUS_BITS) - 2; // q − 1 < 2^62 − 1
    assert!(u128::MAX / (widest * widest) >= DIGIT_GROUP as u128);
};

/// Output limb `j = digits.ext[pos]` (modulus `q`) of
/// [`CkksContext::hoisted_inner_product_with`]:
///
/// ```text
/// ub[k] = Σ_d x_d[π(k)] · B_d[k]     ua[k] = Σ_d x_d[π(k)] · A_d[k]   (mod q_j)
/// ```
///
/// with `x_d` digit `d`'s row, `π` the evaluation-side permutation
/// (`perm`, `None` for the identity), `B_d` the key's stored row and
/// `A_d` regenerated on the fly: `A_d[k]` is the `k`-th
/// `gen_range(0..q_j)` draw of
/// [`seeded_row_rng`]`(derive_seed(a_seed, d), j)`, the same stream
/// [`RnsPoly::from_seed`] expands row `j` of `A_d` from.
struct InnerProductRow<'a> {
    q: &'a Modulus,
    pos: usize,
    perm: Option<&'a [usize]>,
    digits: &'a HoistedDigits,
    evk: &'a EvalKey,
}

impl InnerProductRow<'_> {
    /// Writes the row's `ub` and `ua` words, [`DIGIT_GROUP`] digits at
    /// a time.
    fn run(&self, out_b: &mut [u64], out_a: &mut [u64]) {
        let (count, mut first) = (self.digits.len(), 0);
        while first < count {
            first += match count - first {
                1 => self.group::<1>(first, out_b, out_a),
                2 => self.group::<2>(first, out_b, out_a),
                3 => self.group::<3>(first, out_b, out_a),
                _ => self.group::<DIGIT_GROUP>(first, out_b, out_a),
            };
        }
    }

    /// Digits `first..first + D`: sums their `D` products of each half
    /// per output word in a `u128` and reduces once — written into the
    /// output for the first group, added onto it for a later one.
    /// Returns `D`.
    fn group<const D: usize>(&self, first: usize, out_b: &mut [u64], out_a: &mut [u64]) -> usize {
        let Self {
            q,
            pos,
            perm,
            digits,
            evk,
        } = *self;
        let limb = digits.ext[pos];
        let key_pos = evk.b_pieces[first]
            .position_of(limb)
            .expect("evaluation keys cover the extended basis");
        let x: [&[u64]; D] = std::array::from_fn(|d| digits.digits[first + d].limb(pos));
        let kb: [&[u64]; D] = std::array::from_fn(|d| evk.b_pieces[first + d].limb(key_pos));
        let mut rngs: [StdRng; D] = std::array::from_fn(|d| {
            seeded_row_rng(derive_seed(evk.a_seed, (first + d) as u64), limb)
        });
        let qv = q.value();
        for (k, (b, a)) in out_b.iter_mut().zip(out_a.iter_mut()).enumerate() {
            let src = perm.map_or(k, |p| p[k]);
            let (mut sum_b, mut sum_a) = (0u128, 0u128);
            for d in 0..D {
                let xv = x[d][src] as u128;
                sum_b += xv * kb[d][k] as u128;
                sum_a += xv * rngs[d].gen_range(0..qv) as u128;
            }
            let (rb, ra) = (q.reduce_u128(sum_b), q.reduce_u128(sum_a));
            (*b, *a) = if first == 0 {
                (rb, ra)
            } else {
                (q.add(*b, rb), q.add(*a, ra))
            };
        }
        D
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use ark_math::cfft::C64;
    use rand::{Rng, SeedableRng};

    /// Largest centered coefficient magnitude of `poly` (any
    /// representation) over the chain limbs `chain`.
    fn max_magnitude(ctx: &CkksContext, mut poly: RnsPoly, chain: &[usize]) -> f64 {
        poly.to_coeff(ctx.basis());
        let crt = ctx.crt(chain.len() - 1);
        let mut residues = vec![0u64; chain.len()];
        let mut max_mag = 0f64;
        for k in 0..ctx.params().n() {
            for (pos, r) in residues.iter_mut().enumerate() {
                *r = poly.limb(pos)[k];
            }
            let (_, mag) = crt.reconstruct_signed(&residues);
            max_mag = max_mag.max(mag.to_f64());
        }
        max_mag
    }

    /// `kb − ka·s` over `chain`.
    fn phase(
        ctx: &CkksContext,
        kb: &RnsPoly,
        ka: &RnsPoly,
        s: &RnsPoly,
        chain: &[usize],
    ) -> RnsPoly {
        let mut got = ka.clone();
        got.mul_assign(&s.subset(chain), ctx.basis());
        got.negate(ctx.basis());
        got.add_assign(kb, ctx.basis());
        got
    }

    /// Direct test of the key-switch identity: kb − ka·s ≈ x·s'.
    #[test]
    fn key_switch_identity_holds() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = ctx.gen_secret_key(&mut rng);
        // source key: an independent ternary key
        let other = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_switching_key_seeded(&other.s, &sk, rng.gen(), rng.gen());

        let level = ctx.params().max_level;
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let (kb, ka) = ctx.key_switch(&x, &evk, level);

        // expected = x * s' (eval rep)
        let mut expected = x.clone();
        expected.mul_assign(&other.s.subset(chain), ctx.basis());
        // difference must be a *small* polynomial (key-switching noise)
        let mut diff = phase(&ctx, &kb, &ka, &sk.s, chain);
        diff.sub_assign(&expected, ctx.basis());
        let max_mag = max_magnitude(&ctx, diff, chain);
        // Noise bound: heuristically q_top * small; assert far below Δ·q0
        // but nonzero structure allowed. Use a generous 2^30 bound
        // relative to the 2^36 scale primes of the tiny set.
        assert!(
            max_mag < 2f64.powi(33),
            "key-switch noise too large: 2^{}",
            max_mag.log2()
        );
    }

    #[test]
    fn key_switch_works_at_partial_levels() {
        // level where the last decomposition group is partial
        let ctx = CkksContext::new(CkksParams::tiny()); // L=3, α=2
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let sk = ctx.gen_secret_key(&mut rng);
        let other = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_switching_key_seeded(&other.s, &sk, rng.gen(), rng.gen());
        let level = 2; // groups {0,1},{2}
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let (kb, ka) = ctx.key_switch(&x, &evk, level);
        let mut expected = x.clone();
        expected.mul_assign(&other.s.subset(chain), ctx.basis());
        let mut diff = phase(&ctx, &kb, &ka, &sk.s, chain);
        diff.sub_assign(&expected, ctx.basis());
        let max_mag = max_magnitude(&ctx, diff, chain);
        assert!(max_mag < 2f64.powi(33), "noise 2^{}", max_mag.log2());
    }

    /// Hoisted identity: `kb − ka·s ≈ ψ_g(x)·ψ_g(s')` when the digits
    /// of `x` are applied with the Galois key for `g` — the correctness
    /// statement that lets one decomposition serve many rotations.
    #[test]
    fn hoisted_apply_switches_the_rotated_input() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sk = ctx.gen_secret_key(&mut rng);
        let level = ctx.params().max_level;
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let digits = ctx.hoisted_decompose(&x, level);
        for r in [1i64, 2, -3] {
            let g = GaloisElement::from_rotation(r, ctx.params().n());
            let key = ctx.gen_galois_key_seeded(g, &sk, rng.gen(), rng.gen());
            let (kb, ka) = ctx.hoisted_apply(&digits, g, &key);

            // expected = ψ(x) · ψ(s)
            let mut expected = x.automorphism(g, ctx.basis());
            let rotated_s = sk.s.subset(chain).automorphism(g, ctx.basis());
            expected.mul_assign(&rotated_s, ctx.basis());
            let mut diff = phase(&ctx, &kb, &ka, &sk.s, chain);
            diff.sub_assign(&expected, ctx.basis());
            let max_mag = max_magnitude(&ctx, diff, chain);
            assert!(max_mag < 2f64.powi(33), "r={r}: noise 2^{}", max_mag.log2());
        }
    }

    /// One decomposition reused across distinct Galois elements gives
    /// the same bits as re-decomposing for each application — the digit
    /// state is read-only.
    #[test]
    fn hoisted_digits_are_reusable_and_immutable() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let sk = ctx.gen_secret_key(&mut rng);
        let level = 2;
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let g1 = GaloisElement::from_rotation(1, ctx.params().n());
        let g2 = GaloisElement::from_rotation(2, ctx.params().n());
        let k1 = ctx.gen_galois_key_seeded(g1, &sk, rng.gen(), rng.gen());
        let k2 = ctx.gen_galois_key_seeded(g2, &sk, rng.gen(), rng.gen());

        let shared = ctx.hoisted_decompose(&x, level);
        assert_eq!(shared.level(), level);
        assert_eq!(shared.len(), ctx.decomposition_groups(level).len());
        assert!(shared.words() > 0);
        let a1 = ctx.hoisted_apply(&shared, g1, &k1);
        let a2 = ctx.hoisted_apply(&shared, g2, &k2);
        // fresh decompositions per application must agree bitwise
        let b1 = ctx.hoisted_apply(&ctx.hoisted_decompose(&x, level), g1, &k1);
        let b2 = ctx.hoisted_apply(&ctx.hoisted_decompose(&x, level), g2, &k2);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    /// `hoisted_apply` is literally `mod_down ∘ hoisted_inner_product`:
    /// the split the deferred rotate-sum builds on changes no bit of
    /// `rotate`, `conjugate`, `key_switch` or `mul`.
    #[test]
    fn hoisted_apply_is_mod_down_of_the_inner_product() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let sk = ctx.gen_secret_key(&mut rng);
        // full level, and one whose last decomposition group is partial
        for level in [ctx.params().max_level, 2] {
            let chain = ctx.chain_indices(level);
            let x =
                RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
            let digits = ctx.hoisted_decompose(&x, level);
            for g in [
                GaloisElement::identity(),
                GaloisElement::from_rotation(3, ctx.params().n()),
                GaloisElement::conjugation(ctx.params().n()),
            ] {
                let key = ctx.gen_galois_key_seeded(g, &sk, rng.gen(), rng.gen());
                let (ub, ua) = ctx.hoisted_inner_product_with(&digits, g, &key, &mut ctx.arena());
                assert_eq!(ub.limb_indices(), ctx.extended_indices(level));
                let composed = (ctx.mod_down(&ub, level), ctx.mod_down(&ua, level));
                assert_eq!(composed, ctx.hoisted_apply(&digits, g, &key));
            }
        }
    }

    /// Deferred identity: the fused rotate-sum of a pair `(b, a)` with
    /// phase `m = b − a·s` has phase `Σ_t pt_t·ψ_t(m)` up to noise. The
    /// `rotate`/`mul_plain`/`add` spelling multiplies each rotation's
    /// key-switch noise (the `2^33` bound above) by its plaintext, so
    /// its noise is bounded by `2^33 · Σ_t ‖pt_t‖₁`; the fused sum must
    /// stay under that same bound.
    #[test]
    fn fused_rotate_sum_switches_the_weighted_rotations() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = ctx.gen_secret_key(&mut rng);
        let slots = ctx.params().slots();
        // −2 and 14 alias at 16 slots; 16 and 0 are identities
        let amounts = [1i64, 0, -2, 14, 5, 16];
        let keys = ctx.gen_rotation_keys(&amounts, false, &sk, &mut rng);
        let weights: Vec<Vec<C64>> = (0..amounts.len())
            .map(|t| {
                (0..slots)
                    .map(|i| C64::new(0.1 * (t + 1) as f64, 0.02 * i as f64 - 0.1))
                    .collect()
            })
            .collect();
        let terms: Vec<(i64, &[C64])> = amounts
            .iter()
            .zip(&weights)
            .map(|(&r, w)| (r, w.as_slice()))
            .collect();
        for level in [ctx.params().max_level, 2] {
            let chain = ctx.chain_indices(level);
            let mut uniform = || {
                RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng)
            };
            let ct = crate::Ciphertext::new(uniform(), uniform(), level, ctx.params().scale());
            let m = phase(&ctx, &ct.b, &ct.a, &sk.s, chain);
            let out = ctx.rotate_sum(&ct, &terms, |g| keys.get(g)).unwrap();
            assert_eq!((out.level, out.b.limb_indices()), (level, chain));

            let q_top = ctx.basis().modulus(level).value() as f64;
            let mut expected = RnsPoly::zero(ctx.basis(), chain, Representation::Evaluation);
            let mut pt_l1 = 0f64;
            for (r, w) in &terms {
                let g = GaloisElement::from_rotation(*r, ctx.params().n());
                let pt = ctx.encode_on(w, chain, q_top);
                expected.mul_add_assign(&m.automorphism(g, ctx.basis()), &pt, ctx.basis());
                // ‖pt‖₁ ≤ N · ‖pt‖_∞
                pt_l1 += ctx.params().n() as f64 * max_magnitude(&ctx, pt, chain);
            }
            let mut diff = phase(&ctx, &out.b, &out.a, &sk.s, chain);
            diff.sub_assign(&expected, ctx.basis());
            let max_mag = max_magnitude(&ctx, diff, chain);
            assert!(
                max_mag < 2f64.powi(33) * pt_l1,
                "level {level}: noise 2^{} vs bound 2^{}",
                max_mag.log2(),
                (2f64.powi(33) * pt_l1).log2()
            );
            // and it is *one* rounding: far below a single plaintext's
            // magnitude, which `k` multiplied roundings are not
            assert!(max_mag < q_top, "noise 2^{}", max_mag.log2());
        }
    }

    /// The two-pass inner product the fused kernel replaced, kept here
    /// as its reference: `A_d` materialized from the key's seed over
    /// the extended basis, each digit permuted into a copy, then one
    /// per-step-reduced `mul_add` pass per half and digit.
    fn reference_inner_product(
        ctx: &CkksContext,
        digits: &HoistedDigits,
        g: GaloisElement,
        evk: &EvalKey,
    ) -> (RnsPoly, RnsPoly) {
        let basis = ctx.basis();
        let full = ctx.extended_indices(ctx.params().max_level);
        let mut acc_b = RnsPoly::zero(basis, &digits.ext, Representation::Evaluation);
        let mut acc_a = RnsPoly::zero(basis, &digits.ext, Representation::Evaluation);
        for (d, (digit, kb)) in digits.digits.iter().zip(&evk.b_pieces).enumerate() {
            let seed = derive_seed(evk.a_seed, d as u64);
            let ka = RnsPoly::from_seed(basis, full, Representation::Evaluation, seed);
            let operand = if g == GaloisElement::identity() {
                digit.clone()
            } else {
                digit.permute_eval(&ctx.eval_perm(g), basis)
            };
            acc_b.mul_add_assign(&operand, &kb.subset(&digits.ext), basis);
            acc_a.mul_add_assign(&operand, &ka.subset(&digits.ext), basis);
        }
        (acc_b, acc_a)
    }

    /// Random digits over the extended set of `level`: as many as that
    /// level's decomposition has groups.
    fn random_digits(ctx: &CkksContext, level: usize, rng: &mut impl Rng) -> HoistedDigits {
        let ext = ctx.extended_indices(level).to_vec();
        let digits = (0..ctx.decomposition_groups(level).len())
            .map(|_| RnsPoly::random_uniform(ctx.basis(), &ext, Representation::Evaluation, rng))
            .collect();
        HoistedDigits { level, ext, digits }
    }

    /// The fused pass equals the two-pass reference bit for bit: at
    /// `tiny` and `boot-test`, for identity, rotation and conjugation,
    /// at full and partial levels (`dnum' < dnum`), on pools of one
    /// and two threads with no dispatch floor.
    #[test]
    fn fused_inner_product_matches_the_two_pass_reference() {
        for params in [CkksParams::tiny(), CkksParams::boot_test()] {
            let top = params.max_level;
            let levels = [top, params.alpha(), 1];
            for threads in [1, 2] {
                let pool = ark_math::par::ThreadPool::new(threads).with_min_dispatch_words(0);
                let ctx = CkksContext::with_pool(params.clone(), pool);
                let mut rng = rand::rngs::StdRng::seed_from_u64(14);
                let sk = ctx.gen_secret_key(&mut rng);
                let n = ctx.params().n();
                for g in [
                    GaloisElement::identity(),
                    GaloisElement::from_rotation(3, n),
                    GaloisElement::conjugation(n),
                ] {
                    let key = ctx.gen_galois_key_seeded(g, &sk, rng.gen(), rng.gen());
                    for level in levels {
                        let digits = random_digits(&ctx, level, &mut rng);
                        assert!(digits.len() <= key.dnum());
                        let fused =
                            ctx.hoisted_inner_product_with(&digits, g, &key, &mut ctx.arena());
                        let want = reference_inner_product(&ctx, &digits, g, &key);
                        assert_eq!(
                            fused, want,
                            "{} level {level} g {} threads {threads}",
                            params.name, g.0
                        );
                    }
                }
            }
        }
    }

    /// The stream contract: the `A_d` row the kernel regenerates for
    /// limb `j` is row `j` of `RnsPoly::from_seed(derive_seed(a_seed, d))`.
    /// A digit of ones against a zero `B` makes `ua` exactly `A_d`.
    #[test]
    fn regenerated_rows_are_from_seed_rows_for_every_limb() {
        let ctx = CkksContext::new(CkksParams::boot_test());
        let level = ctx.params().max_level;
        let ext = ctx.extended_indices(level);
        let basis = ctx.basis();
        let dnum = ctx.params().dnum;
        let zero = RnsPoly::zero(basis, ext, Representation::Evaluation);
        let ones = RnsPoly::from_flat(
            basis,
            ext,
            Representation::Evaluation,
            vec![1; zero.words()],
        );
        let evk = EvalKey {
            a_seed: 0xa5eed,
            b_pieces: vec![zero.clone(); dnum],
        };
        for d in 0..dnum {
            let mut one_hot = vec![zero.clone(); dnum];
            one_hot[d] = ones.clone();
            let digits = HoistedDigits {
                level,
                ext: ext.to_vec(),
                digits: one_hot,
            };
            let (ub, ua) = ctx.hoisted_inner_product_with(
                &digits,
                GaloisElement::identity(),
                &evk,
                &mut ctx.arena(),
            );
            assert_eq!(ub, zero);
            let want = RnsPoly::from_seed(
                basis,
                ext,
                Representation::Evaluation,
                derive_seed(evk.a_seed, d as u64),
            );
            for (pos, limb) in ext.iter().enumerate() {
                assert_eq!(ua.limb(pos), want.limb(pos), "digit {d}, limb {limb}");
            }
        }
    }

    /// The lazy window with the widest primes the prime scan makes
    /// (61/62-bit, around 2^61) and every digit and `B` word at `q − 1`:
    /// `dnum = 4` fills one [`DIGIT_GROUP`] sum, `dnum = 6` adds a group
    /// of two onto it and `dnum = 16` runs four full groups. Each must
    /// equal per-step `mul_add` reduction.
    #[test]
    fn fused_sum_with_every_operand_at_q_minus_one_matches_per_step_reduction() {
        for dnum in [DIGIT_GROUP, 6, 16] {
            let ctx = CkksContext::new(CkksParams {
                log_n: 4,
                max_level: dnum - 1,
                dnum,
                q0_bits: 61,
                scale_bits: 61,
                special_bits: 61,
                secret_hamming_weight: 0,
                boot_levels: 0,
                name: "lazy-window",
            });
            let basis = ctx.basis();
            let level = ctx.params().max_level;
            let ext = ctx.extended_indices(level);
            let n = ctx.params().n();
            for i in 0..basis.len() {
                let q = basis.modulus(i);
                assert!(q.value() > 1 << 60, "prime {q} is not 61/62-bit");
                assert!(q.max_lazy_mac_terms(q.value() - 1) >= dnum);
            }
            let q_minus_one = RnsPoly::from_flat(
                basis,
                ext,
                Representation::Evaluation,
                ext.iter()
                    .flat_map(|&i| std::iter::repeat_n(basis.modulus(i).value() - 1, n))
                    .collect(),
            );
            let digits = HoistedDigits {
                level,
                ext: ext.to_vec(),
                digits: vec![q_minus_one.clone(); dnum],
            };
            assert_eq!(digits.len(), ctx.decomposition_groups(level).len());
            let evk = EvalKey {
                a_seed: 0x1a2e,
                b_pieces: vec![q_minus_one; dnum],
            };
            for g in [
                GaloisElement::identity(),
                GaloisElement::from_rotation(1, n),
            ] {
                let fused = ctx.hoisted_inner_product_with(&digits, g, &evk, &mut ctx.arena());
                assert_eq!(
                    fused,
                    reference_inner_product(&ctx, &digits, g, &evk),
                    "dnum {dnum}"
                );
                // every B product is (q−1)² ≡ 1, so ub is dnum everywhere
                assert!(fused.0.flat().iter().all(|&x| x == dnum as u64));
            }
        }
    }

    /// A `dnum` whose digit sum could overflow a `u128` for the
    /// context's primes is refused when the context is built: around
    /// 2^61 the window holds 63 products.
    #[test]
    #[should_panic(expected = "lazy window")]
    fn context_refuses_a_dnum_beyond_the_lazy_window() {
        let _ = CkksContext::new(CkksParams {
            log_n: 4,
            max_level: 63,
            dnum: 64,
            q0_bits: 61,
            scale_bits: 61,
            special_bits: 61,
            secret_hamming_weight: 0,
            boot_levels: 0,
            name: "beyond-the-window",
        });
    }

    #[test]
    fn mod_down_divides_by_p() {
        // A polynomial that is exactly P times a small value must come
        // back as that value.
        let ctx = CkksContext::new(CkksParams::tiny());
        let level = ctx.params().max_level;
        let ext = ctx.extended_indices(level);
        let n = ctx.params().n();
        let small: Vec<i64> = (0..n as i64).map(|i| (i % 11) - 5).collect();
        // P mod d_j per limb of the extended basis
        let special = ctx.special_indices();
        let mut poly = RnsPoly::from_signed_coeffs(ctx.basis(), ext, &small);
        let scalars: Vec<u64> = ext
            .iter()
            .map(|&j| {
                let q = ctx.basis().modulus(j);
                special.iter().fold(1u64, |acc, &pi| {
                    q.mul(acc, q.reduce(ctx.basis().modulus(pi).value()))
                })
            })
            .collect();
        poly.mul_scalar_per_limb(&scalars, ctx.basis());
        poly.to_eval(ctx.basis());
        let mut down = ctx.mod_down(&poly, level);
        down.to_coeff(ctx.basis());
        let expect = RnsPoly::from_signed_coeffs(ctx.basis(), ctx.chain_indices(level), &small);
        assert_eq!(down, expect);
    }
}
