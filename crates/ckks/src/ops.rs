//! The primitive HE ops of CKKS (Table II of the paper).
//!
//! `CAdd`/`CMult` (scalar), `PAdd`/`PMult` (plaintext), `HAdd`/`HSub`,
//! `HMult` (with key-switching), `HRot`/`HConj` (automorphism +
//! key-switching) and `HRescale` (exact RNS rescale). Scale management
//! follows the Lattigo convention: constants are encoded at the scale of
//! the *current top prime* so a following rescale restores the
//! ciphertext scale exactly.

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::encoding::ENCODE_LIMIT;
use crate::error::{ArkError, ArkResult};
use crate::keys::{EvalKey, RotationKeys};
use crate::keyswitch::HoistedDigits;
use crate::params::CkksContext;
use ark_math::automorphism::GaloisElement;
use ark_math::cfft::C64;
use ark_math::poly::{Representation, RnsPoly};
use ark_math::rows;
use ark_math::scratch::ScratchArena;
use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;

/// Relative scale mismatch tolerated by additive ops. A rescale by
/// `q_i ≠ Δ` moves a scale by `q_i/Δ − 1` (about 2^-30 on the shipped
/// chains), and a product of two drifted operands adds their drifts, so
/// a chain of squarings doubles the drift at every level: a program
/// that squares its way down a chain and then adds ciphertexts from
/// different levels can approach this bound. The library's own
/// pipelines (EvalMod, the H-(I)DFT) add only scales they made equal.
pub const SCALE_TOLERANCE: f64 = 1e-6;

/// Ciphertext-units of [`CkksContext::rotate_sum`]'s working set beyond
/// the hoisted digits ([`crate::params::CkksParams::digit_units`]),
/// independent of the term count, in max-level ciphertexts (`2(L+1)`
/// limbs) with `e = L+1+α ≤ 2(L+1)` the extended limb count: the running
/// `R_PQ` sum pair (`2e` limbs, ≤ 2 units), the in-flight `R_PQ` inner
/// product pair (≤ 2), the `Q`-side pair that becomes the result (1),
/// one plaintext encoded over the extended set (`e`, ≤ 1) and the
/// permuted `b` half (½, rounded up to 1). The permuted digit inside
/// an inner product and the ModDown temporaries are alive only while
/// the plaintext and permuted half are not, and are no larger.
pub const ROTATE_SUM_FIXED_UNITS: usize = 7;

/// Checks two operand scales agree within [`SCALE_TOLERANCE`] — shared
/// by the scheme ops and the engine layer so both backends agree on
/// which programs raise [`ArkError::ScaleMismatch`].
pub fn check_scales_match(a: f64, b: f64) -> ArkResult<()> {
    if (a / b - 1.0).abs() < SCALE_TOLERANCE {
        Ok(())
    } else {
        Err(ArkError::ScaleMismatch { lhs: a, rhs: b })
    }
}

impl CkksContext {
    /// Drops limbs so `ct` sits at `level` (message unchanged).
    ///
    /// # Errors
    ///
    /// [`ArkError::LevelMismatch`] if `level` exceeds the ciphertext's
    /// current level (limbs cannot be re-grown by dropping).
    #[must_use = "returns the dropped ciphertext; the input is unchanged"]
    pub fn mod_drop_to(&self, ct: &Ciphertext, level: usize) -> ArkResult<Ciphertext> {
        if level > ct.level {
            return Err(ArkError::LevelMismatch {
                expected: ct.level,
                found: level,
            });
        }
        Ok(self.drop_limbs(ct, level))
    }

    /// Infallible limb drop for callers that already checked the level.
    /// The seed hint survives: a seed's row for a limb does not depend
    /// on which other limbs it is expanded over.
    fn drop_limbs(&self, ct: &Ciphertext, level: usize) -> Ciphertext {
        let idx = self.chain_indices(level);
        Ciphertext {
            b: ct.b.subset(idx),
            a: ct.a.subset(idx),
            level,
            scale: ct.scale,
            a_seed: ct.a_seed,
        }
    }

    /// Returns a ciphertext's buffers to the context's scratch pools so
    /// the next op of the same shape allocates nothing. Purely an
    /// optimization — dropping a ciphertext is always correct.
    pub fn recycle_ciphertext(&self, ct: Ciphertext) {
        let mut arena = self.arena();
        ct.b.recycle(&mut arena);
        ct.a.recycle(&mut arena);
    }

    /// Aligns two ciphertexts to the lower of their levels.
    pub fn align_levels(&self, a: &Ciphertext, b: &Ciphertext) -> (Ciphertext, Ciphertext) {
        let level = a.level.min(b.level);
        (self.drop_limbs(a, level), self.drop_limbs(b, level))
    }

    /// `HAdd`: slot-wise sum (levels aligned by dropping limbs).
    ///
    /// # Errors
    ///
    /// [`ArkError::ScaleMismatch`] if the operand scales diverge.
    #[must_use = "returns the sum; the inputs are unchanged"]
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> ArkResult<Ciphertext> {
        check_scales_match(a.scale, b.scale)?;
        let (mut a, b) = self.align_levels(a, b);
        a.b.add_assign(&b.b, self.basis());
        a.a.add_assign(&b.a, self.basis());
        Ok(a)
    }

    /// `HSub`: slot-wise difference (levels aligned by dropping limbs).
    ///
    /// # Errors
    ///
    /// [`ArkError::ScaleMismatch`] if the operand scales diverge.
    #[must_use = "returns the difference; the inputs are unchanged"]
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> ArkResult<Ciphertext> {
        check_scales_match(a.scale, b.scale)?;
        let (mut a, b) = self.align_levels(a, b);
        a.b.sub_assign(&b.b, self.basis());
        a.a.sub_assign(&b.a, self.basis());
        Ok(a)
    }

    /// Slot-wise negation.
    #[must_use = "returns the negation; the input is unchanged"]
    pub fn negate(&self, ct: &Ciphertext) -> Ciphertext {
        let mut out = ct.clone();
        out.b.negate(self.basis());
        out.a.negate(self.basis());
        out
    }

    /// `PAdd`: adds an encoded plaintext (levels aligned by dropping).
    ///
    /// # Errors
    ///
    /// [`ArkError::ScaleMismatch`] if the plaintext was encoded at a
    /// diverging scale.
    #[must_use = "returns the sum; the inputs are unchanged"]
    pub fn add_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> ArkResult<Ciphertext> {
        check_scales_match(ct.scale, pt.scale)?;
        let level = ct.level.min(pt.level);
        let mut out = self.drop_limbs(ct, level);
        let p = pt.poly.subset(self.chain_indices(level));
        out.b.add_assign(&p, self.basis());
        Ok(out)
    }

    /// `PMult`: multiplies by an encoded plaintext. The result's scale is
    /// the product; rescale afterwards.
    #[must_use = "returns the product; the inputs are unchanged"]
    pub fn mul_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let level = ct.level.min(pt.level);
        let mut out = self.drop_limbs(ct, level);
        let p = pt.poly.subset(self.chain_indices(level));
        out.b.mul_assign(&p, self.basis());
        out.a.mul_assign(&p, self.basis());
        out.scale = ct.scale * pt.scale;
        out
    }

    /// `CAdd`: adds the same complex constant to every slot.
    ///
    /// A constant slot vector encodes to a constant polynomial, which in
    /// the evaluation representation is the constant broadcast to every
    /// point — so this is a scalar add on the `B` limbs.
    #[must_use = "returns a new ciphertext; the input is unchanged"]
    pub fn add_const(&self, ct: &Ciphertext, c: f64) -> Ciphertext {
        let mut out = ct.clone();
        let v = c * ct.scale;
        assert!(v.abs() < ENCODE_LIMIT, "constant overflows at this scale");
        let vi = v.round() as i64;
        out.b.par_update_limbs(self.basis(), |_pos, idx, row| {
            let q = self.basis().modulus(idx);
            let add = q.from_i64(vi);
            for x in row.iter_mut() {
                *x = q.add(*x, add);
            }
        });
        out
    }

    /// `CMult`: multiplies every slot by a real constant, encoded at the
    /// scale of the current top prime (so a following [`Self::rescale`]
    /// restores the original scale exactly).
    #[must_use = "returns a new ciphertext; the input is unchanged"]
    pub fn mul_const(&self, ct: &Ciphertext, c: f64) -> Ciphertext {
        let q_top = self.basis().modulus(ct.level).value() as f64;
        self.mul_const_at(ct.clone(), c, q_top)
    }

    /// `CMult` in place, with the constant encoded at `scale`: the
    /// result's scale is `ct.scale · scale`.
    pub(crate) fn mul_const_at(&self, mut out: Ciphertext, c: f64, scale: f64) -> Ciphertext {
        let v = c * scale;
        assert!(v.abs() < ENCODE_LIMIT, "constant overflows at this scale");
        let vi = v.round() as i64;
        let scalars: Vec<u64> = out
            .b
            .limb_indices()
            .iter()
            .map(|&idx| self.basis().modulus(idx).from_i64(vi))
            .collect();
        out.b.mul_scalar_per_limb(&scalars, self.basis());
        out.a.mul_scalar_per_limb(&scalars, self.basis());
        out.scale *= scale;
        out
    }

    /// `CMult` by the imaginary unit `i` (or `-i`): multiplies the
    /// underlying polynomial by the monomial `X^{N/2}` (resp. its
    /// negation), a scale-free exact operation used by bootstrapping.
    /// In the NTT's bit-reversed output order `X^{N/2}` evaluates to
    /// `ι = ψ^{N/2}` on the first half of the points and to `−ι` on the
    /// second, so this is two scalar multiplies per limb.
    #[must_use = "returns a new ciphertext; the input is unchanged"]
    pub fn mul_i(&self, ct: &Ciphertext, negative: bool) -> Ciphertext {
        let basis = self.basis();
        let half = self.params().n() / 2;
        let mut out = ct.clone();
        for poly in [&mut out.b, &mut out.a] {
            assert_eq!(
                poly.representation(),
                Representation::Evaluation,
                "mul needs evaluation rep"
            );
            poly.par_update_limbs(basis, |_pos, idx, row| {
                let q = basis.modulus(idx);
                let iota = q.pow(basis.table(idx).psi(), half as u64);
                let (lo, hi) = if negative {
                    (q.neg(iota), iota)
                } else {
                    (iota, q.neg(iota))
                };
                let (first, second) = row.split_at_mut(half);
                rows::mul_shoup_rows(q, first, &q.shoup(lo));
                rows::mul_shoup_rows(q, second, &q.shoup(hi));
            });
        }
        out
    }

    /// `HMult` with relinearization (key-switching by `evk_mult`).
    /// The result's scale is the product; rescale afterwards.
    #[must_use = "returns a new ciphertext; the input is unchanged"]
    pub fn mul(&self, x: &Ciphertext, y: &Ciphertext, evk_mult: &EvalKey) -> Ciphertext {
        let mut guard = self.arena();
        let arena = &mut *guard;
        let level = x.level.min(y.level);
        let chain = self.chain_indices(level);
        // align levels without copying the operand that is already there
        let xd =
            (x.level != level).then(|| (x.b.subset_in(arena, chain), x.a.subset_in(arena, chain)));
        let (xb, xa) = xd.as_ref().map_or((&x.b, &x.a), |(b, a)| (b, a));
        let yd =
            (y.level != level).then(|| (y.b.subset_in(arena, chain), y.a.subset_in(arena, chain)));
        let (yb, ya) = yd.as_ref().map_or((&y.b, &y.a), |(b, a)| (b, a));
        // d0 = b1*b2 ; d1 = a1*b2 + a2*b1 ; d2 = a1*a2
        let mut d0 = xb.clone_in(arena);
        d0.mul_assign(yb, self.basis());
        let mut d1 = xa.clone_in(arena);
        d1.mul_assign(yb, self.basis());
        let mut d1b = ya.clone_in(arena);
        d1b.mul_assign(xb, self.basis());
        d1.add_assign(&d1b, self.basis());
        d1b.recycle(arena);
        let mut d2 = xa.clone_in(arena);
        d2.mul_assign(ya, self.basis());
        if let Some((tb, ta)) = xd {
            tb.recycle(arena);
            ta.recycle(arena);
        }
        if let Some((tb, ta)) = yd {
            tb.recycle(arena);
            ta.recycle(arena);
        }
        self.relinearize([d0, d1, d2], evk_mult, level, x.scale * y.scale, arena)
    }

    /// Squares a ciphertext (saves one of HMult's three products).
    #[must_use = "returns a new ciphertext; the input is unchanged"]
    pub fn square(&self, x: &Ciphertext, evk_mult: &EvalKey) -> Ciphertext {
        let mut guard = self.arena();
        let arena = &mut *guard;
        let level = x.level;
        let mut d0 = x.b.clone_in(arena);
        d0.mul_assign(&x.b, self.basis());
        let mut d1 = x.a.clone_in(arena);
        d1.mul_assign(&x.b, self.basis());
        let two = d1.clone_in(arena);
        d1.add_assign(&two, self.basis());
        two.recycle(arena);
        let mut d2 = x.a.clone_in(arena);
        d2.mul_assign(&x.a, self.basis());
        self.relinearize([d0, d1, d2], evk_mult, level, x.scale * x.scale, arena)
    }

    /// HMult's tail on `[d0, d1, d2]`: key-switches `d2` (≈ `d2·s²`
    /// under `evk_mult`) and adds it into `(d0, d1)`, recycling every
    /// temporary.
    fn relinearize(
        &self,
        [mut b, mut a, d2]: [RnsPoly; 3],
        evk_mult: &EvalKey,
        level: usize,
        scale: f64,
        arena: &mut ScratchArena,
    ) -> Ciphertext {
        let (kb, ka) = self.key_switch_with(&d2, evk_mult, level, arena);
        d2.recycle(arena);
        b.add_assign(&kb, self.basis());
        kb.recycle(arena);
        a.add_assign(&ka, self.basis());
        ka.recycle(arena);
        Ciphertext::new(b, a, level, scale)
    }

    /// Phase 1 of a hoisted Galois application: decomposes `−a` (the
    /// half that needs key-switching) once. The digits are independent
    /// of the rotation amount, so any number of
    /// [`Self::apply_galois_hoisted`] calls can share them — this is
    /// where rotation-heavy kernels (BSGS baby loops, H-(I)DFT stages)
    /// save their `dnum'` mod-up BConvRoutines per extra rotation.
    pub fn hoist_ciphertext(&self, ct: &Ciphertext) -> HoistedDigits {
        self.hoist_ciphertext_with(ct, &mut self.arena())
    }

    /// [`Self::hoist_ciphertext`] drawing every digit from `arena`.
    fn hoist_ciphertext_with(&self, ct: &Ciphertext, arena: &mut ScratchArena) -> HoistedDigits {
        let mut pa = ct.a.clone_in(arena);
        // kb − ka·s ≈ ψ(−a)·ψ(s) after the apply, so the result decrypts
        // to ψ(b) − ψ(a)·ψ(s) = ψ(b − a·s); negating *before* the
        // decomposition keeps the negation rotation-independent
        pa.negate(self.basis());
        let digits = self.hoisted_decompose_with(&pa, ct.level, arena);
        pa.recycle(arena);
        digits
    }

    /// Phase 2 of a hoisted Galois application: evaluates one rotation
    /// (or conjugation) of `ct` from shared digits. `digits` must come
    /// from [`Self::hoist_ciphertext`] on this very ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the digit level does not match the ciphertext level.
    #[must_use = "returns a new ciphertext; the input is unchanged"]
    pub fn apply_galois_hoisted(
        &self,
        ct: &Ciphertext,
        digits: &HoistedDigits,
        g: GaloisElement,
        key: &EvalKey,
    ) -> Ciphertext {
        assert_eq!(
            digits.level(),
            ct.level,
            "hoisted digits were taken at a different level"
        );
        let mut arena = self.arena();
        let (kb, ka) = self.hoisted_apply_with(digits, g, key, &mut arena);
        // the table the digits were just permuted with, not a rebuild
        let mut b =
            ct.b.permute_eval_in(&mut arena, &self.eval_perm(g), self.basis());
        b.add_assign(&kb, self.basis());
        kb.recycle(&mut arena);
        Ciphertext::new(b, ka, ct.level, ct.scale)
    }

    /// Applies a Galois automorphism with its key: the common core of
    /// `HRot` and `HConj`. This is exactly one hoisted decomposition
    /// plus one application, so per-rotation and hoisted evaluation are
    /// bit-identical by construction.
    #[must_use = "returns a new ciphertext; the input is unchanged"]
    pub fn apply_galois(&self, ct: &Ciphertext, g: GaloisElement, key: &EvalKey) -> Ciphertext {
        let digits = self.hoist_ciphertext(ct);
        let out = self.apply_galois_hoisted(ct, &digits, g, key);
        digits.recycle(&mut self.arena());
        out
    }

    /// Hoisted multi-rotation (Halevi–Shoup): evaluates `rot(ct, r)`
    /// for every amount in `amounts` from a *single* digit
    /// decomposition, instead of one per rotation. Outputs are
    /// bit-identical to calling [`Self::rotate`] per amount (both paths
    /// share [`Self::apply_galois_hoisted`]); only the shared mod-up
    /// work differs. Needs one key per distinct non-identity amount —
    /// the Baseline key surface, not Min-KS's two keys (hoisting trades
    /// evk loads for BConv/NTT work; see DESIGN.md).
    ///
    /// # Errors
    ///
    /// [`ArkError::MissingRotationKey`] if any amount's key is absent
    /// (checked up front, before the decomposition is paid).
    pub fn hoisted_rotate_many(
        &self,
        ct: &Ciphertext,
        amounts: &[i64],
        keys: &RotationKeys,
    ) -> ArkResult<Vec<Ciphertext>> {
        let slots = self.params().slots();
        let n = self.params().n();
        let mut resolved = Vec::with_capacity(amounts.len());
        for &r in amounts {
            if GaloisElement::normalize_rotation(r, slots) == 0 {
                resolved.push(None); // identity: keyless clone
            } else {
                let g = GaloisElement::from_rotation(r, n);
                let key = keys
                    .get(g)
                    .ok_or(ArkError::MissingRotationKey { amount: r })?;
                resolved.push(Some((g, key)));
            }
        }
        // pay the decomposition only if something actually rotates, and
        // each distinct Galois element only once — amounts that alias
        // (duplicates, `r` vs `r − n_slots`) clone the computed result,
        // which itself moves into the last slot that wants it
        let digits = resolved
            .iter()
            .any(Option::is_some)
            .then(|| self.hoist_ciphertext(ct));
        let mut last_slot: HashMap<u64, usize> = HashMap::new();
        for (i, slot) in resolved.iter().enumerate() {
            if let Some((g, _)) = slot {
                last_slot.insert(g.0, i);
            }
        }
        let mut pending: HashMap<u64, Ciphertext> = HashMap::new();
        Ok(resolved
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                None => ct.clone(),
                Some((g, key)) => {
                    let out = pending.remove(&g.0).unwrap_or_else(|| {
                        let digits = digits.as_ref().expect("digits exist for rotations");
                        self.apply_galois_hoisted(ct, digits, g, key)
                    });
                    if last_slot[&g.0] != i {
                        pending.insert(g.0, out.clone());
                    }
                    out
                }
            })
            .collect())
    }

    /// Fused weighted rotate-sum `Σ_t pt_t ⊙ rot(ct, r_t)`, each
    /// `pt_t` the weights of term `t = (r_t, weights_t)` encoded at the
    /// top-prime scale (as [`Self::encode_for_mul`] does, so a following
    /// [`Self::rescale`] restores the scale): one digit decomposition
    /// for the whole set, and — because ModDown is linear up to one
    /// rounding, `Σ_t pt_t ⊙ ModDown(u_t) ≈ ModDown(Σ_t pt_t ⊙ u_t)` —
    /// two ModDowns for the whole *sum* instead of two per rotation.
    ///
    /// Per distinct non-identity amount (ascending, aliases such as `r`
    /// and `r − n_slots` merged) the evk inner product `(u_b, u_a)`
    /// stays in `R_PQ`; every term of that amount multiply-accumulates
    /// its weights into one `R_PQ` pair, while the key-switch-free
    /// parts — `pt ⊙ ψ_g(b)`, and `pt ⊙ (b, a)` of identity terms —
    /// accumulate exactly in a `Q`-side pair that never meets `P`. The
    /// result is numerically the `rotate`/`mul_plain`/`add` spelling
    /// with one ModDown rounding in place of `k` roundings that each got
    /// multiplied by a plaintext; it is not bit-identical to that
    /// spelling.
    ///
    /// A term's weights are encoded once, before its multiply-adds, over
    /// `C_ℓ ∪ B` (over `C_ℓ` for an identity term); uniform weights, one
    /// real value in every slot, encode as a constant without a
    /// transform. When every term carries the same uniform weight,
    /// nothing is encoded over `C_ℓ ∪ B` at all: the terms just add, and
    /// that weight multiplies the four accumulators once, as one scalar
    /// per limb. This is exact mod `q`, so the output bits are those of
    /// the per-term products.
    ///
    /// Keys resolve lazily through `key_for`, one amount at a time, so
    /// a bounded runtime-key cache never has to hold the whole set. The
    /// working set is the digits plus [`ROTATE_SUM_FIXED_UNITS`]
    /// ciphertexts, whatever the term count.
    ///
    /// # Errors
    ///
    /// [`ArkError::InvalidParams`] for an empty term list;
    /// [`ArkError::MissingRotationKey`] if `key_for` has no key for a
    /// term's rotation.
    ///
    /// # Panics
    ///
    /// Panics if a term carries more weights than slots or a weight
    /// overflows the top-prime scale (see [`Self::encode`]).
    pub fn rotate_sum<K: Deref<Target = EvalKey>>(
        &self,
        ct: &Ciphertext,
        terms: &[(i64, &[C64])],
        mut key_for: impl FnMut(GaloisElement) -> Option<K>,
    ) -> ArkResult<Ciphertext> {
        let Some(((_, first), rest)) = terms.split_first() else {
            return Err(ArkError::InvalidParams {
                reason: "rotate_sum needs at least one term".into(),
            });
        };
        let basis = self.basis();
        let level = ct.level;
        let chain = self.chain_indices(level);
        let ext = self.extended_indices(level);
        let q_top = basis.modulus(level).value() as f64;
        // term indices per normalized amount, program order within one
        let mut by_amount: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for (t, (amount, _)) in terms.iter().enumerate() {
            let reduced = GaloisElement::normalize_rotation(*amount, self.params().slots());
            by_amount.entry(reduced).or_default().push(t);
        }
        // a uniform weight every term shares factors out of the sum: its
        // residues over `C_ℓ ∪ B`, whose prefix serves a `C_ℓ` pair
        let shared: Option<Vec<u64>> = self
            .uniform_coefficient(first, q_top)
            .filter(|&v| {
                rest.iter()
                    .all(|(_, w)| self.uniform_coefficient(w, q_top) == Some(v))
            })
            .map(|v| ext.iter().map(|&i| basis.modulus(i).from_i64(v)).collect());
        // term `t`'s plaintext over `limbs`; none in a shared-weight sum
        let weight = |t: usize, limbs: &[usize]| {
            shared
                .is_none()
                .then(|| self.encode_on(terms[t].1, limbs, q_top))
        };
        let mut guard = self.arena();
        let arena = &mut *guard;
        // the Q-side pair: everything that needs no key-switch
        let mut sum_b = RnsPoly::zero_in(arena, basis, chain, Representation::Evaluation);
        let mut sum_a = RnsPoly::zero_in(arena, basis, chain, Representation::Evaluation);
        for t in by_amount.remove(&0).unwrap_or_default() {
            let pt = weight(t, chain);
            self.mul_add_weighted(&mut sum_b, &ct.b, pt.as_ref());
            self.mul_add_weighted(&mut sum_a, &ct.a, pt.as_ref());
        }
        let mut acc = None;
        if !by_amount.is_empty() {
            let digits = self.hoist_ciphertext_with(ct, arena);
            let mut acc_b = RnsPoly::zero_in(arena, basis, ext, Representation::Evaluation);
            let mut acc_a = RnsPoly::zero_in(arena, basis, ext, Representation::Evaluation);
            for (&reduced, members) in &by_amount {
                let g = GaloisElement::from_rotation(reduced, self.params().n());
                let key = key_for(g).ok_or(ArkError::MissingRotationKey {
                    amount: terms[members[0]].0,
                })?;
                let (ub, ua) = self.hoisted_inner_product_with(&digits, g, &key, arena);
                let rb = ct.b.permute_eval_in(arena, &self.eval_perm(g), basis);
                for &t in members {
                    let pt = weight(t, ext);
                    self.mul_add_weighted(&mut acc_b, &ub, pt.as_ref());
                    self.mul_add_weighted(&mut acc_a, &ua, pt.as_ref());
                    self.mul_add_weighted(&mut sum_b, &rb, pt.as_ref());
                }
                ub.recycle(arena);
                ua.recycle(arena);
                rb.recycle(arena);
            }
            digits.recycle(arena);
            acc = Some([acc_b, acc_a]);
        }
        // before the ModDowns: the scalar must multiply what they round,
        // exactly as the per-term products did
        if let Some(residues) = &shared {
            let accs = acc.iter_mut().flatten();
            for poly in [&mut sum_b, &mut sum_a].into_iter().chain(accs) {
                let limbs = poly.limb_indices().len();
                poly.mul_scalar_per_limb(&residues[..limbs], basis);
            }
        }
        for (sum, acc) in [&mut sum_b, &mut sum_a]
            .into_iter()
            .zip(acc.into_iter().flatten())
        {
            let down = self.mod_down_with(&acc, level, arena);
            acc.recycle(arena);
            sum.add_assign(&down, basis);
            down.recycle(arena);
        }
        Ok(Ciphertext::new(sum_b, sum_a, level, ct.scale * q_top))
    }

    /// `acc += u ⊙ pt` for one [`Self::rotate_sum`] term, or `acc += u`
    /// in a shared-weight sum (no `pt`: the weight multiplies the sum
    /// afterwards). `pt` may carry more limbs than `acc`.
    fn mul_add_weighted(&self, acc: &mut RnsPoly, u: &RnsPoly, pt: Option<&RnsPoly>) {
        match pt {
            Some(pt) => acc.mul_add_assign_select(u, pt, self.basis()),
            None => acc.add_assign(u, self.basis()),
        }
    }

    /// `HRot`: circular left shift of the slots by `r` (negative `r`
    /// shifts right).
    ///
    /// # Errors
    ///
    /// [`ArkError::MissingRotationKey`] if no key for `5^r` is held.
    #[must_use = "returns the rotated ciphertext; the input is unchanged"]
    pub fn rotate(&self, ct: &Ciphertext, r: i64, keys: &RotationKeys) -> ArkResult<Ciphertext> {
        // single choke point: reduce the amount modulo the slot count
        // so `r` and `r − n_slots` resolve to the same key, and any
        // amount ≡ 0 (including ±n_slots) is a keyless no-op
        let reduced = GaloisElement::normalize_rotation(r, self.params().slots());
        if reduced == 0 {
            return Ok(ct.clone());
        }
        let g = GaloisElement::from_rotation(reduced, self.params().n());
        let key = keys
            .get(g)
            .ok_or(ArkError::MissingRotationKey { amount: r })?;
        Ok(self.apply_galois(ct, g, key))
    }

    /// `HConj`: complex conjugation of every slot.
    ///
    /// # Errors
    ///
    /// [`ArkError::MissingConjugationKey`] if the conjugation key is
    /// missing.
    #[must_use = "returns the conjugated ciphertext; the input is unchanged"]
    pub fn conjugate(&self, ct: &Ciphertext, keys: &RotationKeys) -> ArkResult<Ciphertext> {
        let g = GaloisElement::conjugation(self.params().n());
        let key = keys.get(g).ok_or(ArkError::MissingConjugationKey)?;
        Ok(self.apply_galois(ct, g, key))
    }

    /// `HRescale`: drops the top limb and divides the message by it
    /// (exact RNS rescale with centered lift).
    ///
    /// # Errors
    ///
    /// [`ArkError::ModulusChainExhausted`] at level 0.
    #[must_use = "returns the rescaled ciphertext; the input is unchanged"]
    pub fn rescale(&self, ct: &Ciphertext) -> ArkResult<Ciphertext> {
        if ct.level == 0 {
            return Err(ArkError::ModulusChainExhausted);
        }
        let out_level = ct.level - 1;
        let q_last_idx = ct.level;
        let q_last = *self.basis().modulus(q_last_idx);
        let mut arena = self.arena();
        Ok(Ciphertext::new(
            self.rescale_poly_with(&ct.b, out_level, q_last_idx, &mut arena),
            self.rescale_poly_with(&ct.a, out_level, q_last_idx, &mut arena),
            out_level,
            ct.scale / q_last.value() as f64,
        ))
    }

    /// One polynomial of an `HRescale`, every temporary drawn from
    /// `arena`: lift the top limb to coefficients, compute the centered
    /// correction rows (one per kept limb, NTT'd back), then subtract
    /// and scale by `q_last^{-1}` in place.
    fn rescale_poly_with(
        &self,
        poly: &RnsPoly,
        out_level: usize,
        q_last_idx: usize,
        arena: &mut ScratchArena,
    ) -> RnsPoly {
        let q_last = *self.basis().modulus(q_last_idx);
        let n = poly.n();
        let keep = self.chain_indices(out_level);
        // take the top limb to coefficient representation
        let mut top = poly.subset_in(arena, &[q_last_idx]);
        top.to_coeff(self.basis());
        // every kept limb computes its correction row independently —
        // the per-limb hot loop of HRescale, fanned out on the pool
        let mut corr = arena.take(keep.len() * n);
        {
            let top_coeffs = top.limb(0);
            self.basis()
                .pool()
                .for_work(corr.len())
                .par_for_each_row(&mut corr, n, |k, crow| {
                    let j = keep[k];
                    let q = self.basis().modulus(j);
                    for (c, &x) in crow.iter_mut().zip(top_coeffs) {
                        *c = q.lift_centered(x, q_last.value());
                    }
                    self.basis().table(j).forward(crow);
                });
        }
        top.recycle(arena);
        let mut out = poly.subset_in(arena, keep);
        // (c_j − centered(c_last)) · q_last^{-1}
        out.par_update_limbs(self.basis(), |pos, j, limb| {
            let q = self.basis().modulus(j);
            let inv = q.inv(q.reduce(q_last.value()));
            let pre = q.shoup(inv);
            let crow = &corr[pos * n..(pos + 1) * n];
            for (c, &x) in limb.iter_mut().zip(crow) {
                *c = q.mul_shoup(q.sub(*c, x), &pre);
            }
        });
        arena.put(corr);
        out
    }

    /// `HMult` followed by `HRescale` — the common pairing.
    ///
    /// # Errors
    ///
    /// [`ArkError::ModulusChainExhausted`] if the operands sit at level 0.
    #[must_use = "returns the product; the inputs are unchanged"]
    pub fn mul_rescale(
        &self,
        x: &Ciphertext,
        y: &Ciphertext,
        evk_mult: &EvalKey,
    ) -> ArkResult<Ciphertext> {
        let prod = self.mul(x, y, evk_mult);
        let out = self.rescale(&prod);
        self.recycle_ciphertext(prod);
        out
    }

    /// `PMult` followed by `HRescale`.
    ///
    /// # Errors
    ///
    /// [`ArkError::ModulusChainExhausted`] if the operands sit at level 0.
    #[must_use = "returns the product; the inputs are unchanged"]
    pub fn mul_plain_rescale(&self, ct: &Ciphertext, pt: &Plaintext) -> ArkResult<Ciphertext> {
        self.rescale(&self.mul_plain(ct, pt))
    }

    /// Encodes a complex constant vector at the top-prime scale of
    /// `level` (the encoding used before `PMult` + rescale chains).
    pub fn encode_for_mul(&self, values: &[C64], level: usize) -> Plaintext {
        let q_top = self.basis().modulus(level).value() as f64;
        self.encode(values, level, q_top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use crate::keys::SecretKey;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, SecretKey, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let sk = ctx.gen_secret_key(&mut rng);
        (ctx, sk, rng)
    }

    fn msg(ctx: &CkksContext, f: impl Fn(usize) -> C64) -> Vec<C64> {
        (0..ctx.params().slots()).map(f).collect()
    }

    #[test]
    fn hadd_and_hsub() {
        let (ctx, sk, mut rng) = setup();
        let m1 = msg(&ctx, |i| C64::new(i as f64 * 0.1, 0.3));
        let m2 = msg(&ctx, |i| C64::new(0.5, -0.2 * i as f64));
        let scale = ctx.params().scale();
        let c1 = ctx.encrypt(&ctx.encode(&m1, 2, scale), &sk, &mut rng);
        let c2 = ctx.encrypt(&ctx.encode(&m2, 2, scale), &sk, &mut rng);
        let sum = ctx.decrypt_decode(&ctx.add(&c1, &c2).unwrap(), &sk);
        let diff = ctx.decrypt_decode(&ctx.sub(&c1, &c2).unwrap(), &sk);
        let want_sum: Vec<C64> = m1.iter().zip(&m2).map(|(&a, &b)| a + b).collect();
        let want_diff: Vec<C64> = m1.iter().zip(&m2).map(|(&a, &b)| a - b).collect();
        assert!(max_error(&want_sum, &sum) < 1e-4);
        assert!(max_error(&want_diff, &diff) < 1e-4);
    }

    #[test]
    fn hadd_aligns_levels() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |i| C64::new(i as f64 * 0.01, 0.0));
        let scale = ctx.params().scale();
        let c_hi = ctx.encrypt(&ctx.encode(&m, 3, scale), &sk, &mut rng);
        let c_lo = ctx.encrypt(&ctx.encode(&m, 1, scale), &sk, &mut rng);
        let sum = ctx.add(&c_hi, &c_lo).unwrap();
        assert_eq!(sum.level, 1);
        let out = ctx.decrypt_decode(&sum, &sk);
        let want: Vec<C64> = m.iter().map(|&z| z + z).collect();
        assert!(max_error(&want, &out) < 1e-4);
    }

    #[test]
    fn pmult_then_rescale() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |i| C64::new(0.02 * i as f64, -0.01 * i as f64));
        let w = msg(&ctx, |i| C64::new(0.5 + 0.01 * i as f64, 0.0));
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        let pt = ctx.encode_for_mul(&w, 2);
        let prod = ctx.mul_plain_rescale(&ct, &pt).unwrap();
        assert_eq!(prod.level, 1);
        // top-prime scale trick: scale restored exactly
        assert!((prod.scale / scale - 1.0).abs() < 1e-9);
        let out = ctx.decrypt_decode(&prod, &sk);
        let want: Vec<C64> = m.iter().zip(&w).map(|(&a, &b)| a * b).collect();
        assert!(
            max_error(&want, &out) < 1e-4,
            "err={}",
            max_error(&want, &out)
        );
    }

    #[test]
    fn hmult_relinearizes_correctly() {
        let (ctx, sk, mut rng) = setup();
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let m1 = msg(&ctx, |i| C64::new(0.1 * i as f64, 0.05));
        let m2 = msg(&ctx, |i| C64::new(0.3, 0.02 * i as f64));
        let scale = ctx.params().scale();
        let c1 = ctx.encrypt(&ctx.encode(&m1, 3, scale), &sk, &mut rng);
        let c2 = ctx.encrypt(&ctx.encode(&m2, 3, scale), &sk, &mut rng);
        let prod = ctx.mul_rescale(&c1, &c2, &evk).unwrap();
        assert_eq!(prod.level, 2);
        let out = ctx.decrypt_decode(&prod, &sk);
        let want: Vec<C64> = m1.iter().zip(&m2).map(|(&a, &b)| a * b).collect();
        let err = max_error(&want, &out);
        assert!(err < 1e-3, "err={err}");
    }

    #[test]
    fn square_matches_mul() {
        let (ctx, sk, mut rng) = setup();
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let m = msg(&ctx, |i| C64::new(0.2 * (i as f64).sin(), 0.1));
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        let sq = ctx.rescale(&ctx.square(&ct, &evk));
        let out = ctx.decrypt_decode(&sq.unwrap(), &sk);
        let want: Vec<C64> = m.iter().map(|&z| z * z).collect();
        assert!(max_error(&want, &out) < 1e-3);
    }

    #[test]
    fn rotation_shifts_slots() {
        let (ctx, sk, mut rng) = setup();
        let slots = ctx.params().slots();
        let keys = ctx.gen_rotation_keys(&[1, 3, -2], false, &sk, &mut rng);
        let m = msg(&ctx, |i| C64::new(i as f64, 0.0));
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        for r in [1i64, 3, -2] {
            let rot = ctx.rotate(&ct, r, &keys).unwrap();
            let out = ctx.decrypt_decode(&rot, &sk);
            let want: Vec<C64> = (0..slots)
                .map(|i| m[(i as i64 + r).rem_euclid(slots as i64) as usize])
                .collect();
            assert!(max_error(&want, &out) < 1e-3, "r={r}");
        }
    }

    #[test]
    fn hoisted_rotate_many_is_bit_identical_to_per_rotation() {
        let (ctx, sk, mut rng) = setup();
        let keys = ctx.gen_rotation_keys(&[1, 2, 5, -3], false, &sk, &mut rng);
        let m = msg(&ctx, |i| C64::new(0.1 * i as f64, -0.05 * i as f64));
        let ct = ctx.encrypt(&ctx.encode(&m, 2, ctx.params().scale()), &sk, &mut rng);
        // includes an identity amount (0) and a duplicate
        let amounts = [1i64, 2, 0, 5, -3, 2];
        let hoisted = ctx.hoisted_rotate_many(&ct, &amounts, &keys).unwrap();
        assert_eq!(hoisted.len(), amounts.len());
        for (r, h) in amounts.iter().zip(&hoisted) {
            let direct = ctx.rotate(&ct, *r, &keys).unwrap();
            assert_eq!(*h, direct, "amount {r} diverged from the per-rotation path");
        }
    }

    #[test]
    fn hoisted_rotate_many_missing_key_is_typed_error_before_work() {
        let (ctx, sk, mut rng) = setup();
        let keys = ctx.gen_rotation_keys(&[1], false, &sk, &mut rng);
        let m = msg(&ctx, |i| C64::new(i as f64, 0.0));
        let ct = ctx.encrypt(&ctx.encode(&m, 2, ctx.params().scale()), &sk, &mut rng);
        assert_eq!(
            ctx.hoisted_rotate_many(&ct, &[1, 7], &keys).unwrap_err(),
            crate::error::ArkError::MissingRotationKey { amount: 7 }
        );
        // identity-only sets need no keys at all
        let out = ctx
            .hoisted_rotate_many(&ct, &[0], &RotationKeys::new())
            .unwrap();
        assert_eq!(out[0], ct);
    }

    #[test]
    fn rotate_sum_working_set_stays_under_its_charge() {
        // the arena of a fresh context records the high-water mark of
        // the scratch an 18-term sum holds at once (result included);
        // the one plaintext alive at a time is heap storage, counted by
        // hand
        for (dnum, max_level) in [(1, 3), (2, 3), (4, 3), (2, 9)] {
            let params = CkksParams {
                log_n: 8,
                dnum,
                max_level,
                ..CkksParams::tiny()
            };
            let keygen = CkksContext::new(params.clone());
            let mut rng = rand::rngs::StdRng::seed_from_u64(15);
            let sk = keygen.gen_secret_key(&mut rng);
            let amounts: Vec<i64> = (0..18).map(|t| t % 9).collect();
            let keys = keygen.gen_rotation_keys(&amounts, false, &sk, &mut rng);
            let w = msg(&keygen, |i| C64::new(0.01 * (i % 7) as f64, 0.1));
            let pt = keygen.encode(&w, max_level, params.scale());
            let ct = keygen.encrypt(&pt, &sk, &mut rng);
            let terms: Vec<(i64, &[C64])> = amounts.iter().map(|&r| (r, w.as_slice())).collect();

            let fresh = CkksContext::new(params.clone());
            let out = fresh.rotate_sum(&ct, &terms, |g| keys.get(g)).unwrap();
            let plaintext = fresh.extended_indices(max_level).len() * params.n();
            let taken = fresh.arena().peak_in_use_words() + plaintext;
            let ct_words = out.b.words() + out.a.words();
            let charge = params.digit_units() + ROTATE_SUM_FIXED_UNITS;
            assert!(
                taken <= charge * ct_words,
                "dnum {dnum}, L {max_level}: took {taken} words, charged {charge} × {ct_words}"
            );
        }
    }

    #[test]
    fn conjugation_conjugates() {
        let (ctx, sk, mut rng) = setup();
        let keys = ctx.gen_rotation_keys(&[], true, &sk, &mut rng);
        let m = msg(&ctx, |i| C64::new(0.1 * i as f64, 0.7 - 0.02 * i as f64));
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        let out = ctx.decrypt_decode(&ctx.conjugate(&ct, &keys).unwrap(), &sk);
        let want: Vec<C64> = m.iter().map(|z| z.conj()).collect();
        assert!(max_error(&want, &out) < 1e-3);
    }

    #[test]
    fn cadd_and_cmult() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |i| C64::new(0.05 * i as f64, -0.3));
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        let shifted = ctx.add_const(&ct, 1.5);
        let out = ctx.decrypt_decode(&shifted, &sk);
        let want: Vec<C64> = m.iter().map(|&z| z + C64::new(1.5, 0.0)).collect();
        assert!(max_error(&want, &out) < 1e-4);

        let scaled = ctx.rescale(&ctx.mul_const(&ct, -0.25)).unwrap();
        assert!((scaled.scale / scale - 1.0).abs() < 1e-9);
        let out = ctx.decrypt_decode(&scaled, &sk);
        let want: Vec<C64> = m.iter().map(|&z| z.scale(-0.25)).collect();
        assert!(max_error(&want, &out) < 1e-4);
    }

    #[test]
    fn mul_i_multiplies_by_imaginary_unit() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |i| C64::new(0.2, 0.1 * i as f64));
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        let out = ctx.decrypt_decode(&ctx.mul_i(&ct, false), &sk);
        let want: Vec<C64> = m.iter().map(|&z| z * C64::new(0.0, 1.0)).collect();
        assert!(max_error(&want, &out) < 1e-4);
        let out = ctx.decrypt_decode(&ctx.mul_i(&ct, true), &sk);
        let want: Vec<C64> = m.iter().map(|&z| z * C64::new(0.0, -1.0)).collect();
        assert!(max_error(&want, &out) < 1e-4);
    }

    #[test]
    fn rescale_chain_to_level_zero() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |_| C64::new(0.5, 0.25));
        let scale = ctx.params().scale();
        let mut ct = ctx.encrypt(&ctx.encode(&m, 3, scale), &sk, &mut rng);
        // burn all levels with constant multiplications by 1.0
        while ct.level > 0 {
            ct = ctx.rescale(&ctx.mul_const(&ct, 1.0)).unwrap();
        }
        let out = ctx.decrypt_decode(&ct, &sk);
        assert!(max_error(&m, &out) < 1e-3);
    }

    #[test]
    fn rescale_at_level_zero_is_typed_error() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |_| C64::new(0.1, 0.0));
        let ct = ctx.encrypt(&ctx.encode(&m, 0, ctx.params().scale()), &sk, &mut rng);
        assert_eq!(
            ctx.rescale(&ct).unwrap_err(),
            crate::error::ArkError::ModulusChainExhausted
        );
    }

    #[test]
    fn missing_rotation_key_is_typed_error() {
        let (ctx, sk, mut rng) = setup();
        let keys = ctx.gen_rotation_keys(&[1], false, &sk, &mut rng);
        let m = msg(&ctx, |i| C64::new(i as f64, 0.0));
        let ct = ctx.encrypt(&ctx.encode(&m, 2, ctx.params().scale()), &sk, &mut rng);
        assert_eq!(
            ctx.rotate(&ct, 5, &keys).unwrap_err(),
            crate::error::ArkError::MissingRotationKey { amount: 5 }
        );
        assert_eq!(
            ctx.conjugate(&ct, &keys).unwrap_err(),
            crate::error::ArkError::MissingConjugationKey
        );
    }

    #[test]
    fn scale_mismatch_is_typed_error() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |_| C64::new(0.2, 0.0));
        let scale = ctx.params().scale();
        let a = ctx.encrypt(&ctx.encode(&m, 2, scale), &sk, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&m, 2, scale * 2.0), &sk, &mut rng);
        assert!(matches!(
            ctx.add(&a, &b).unwrap_err(),
            crate::error::ArkError::ScaleMismatch { .. }
        ));
        assert!(matches!(
            ctx.sub(&a, &b).unwrap_err(),
            crate::error::ArkError::ScaleMismatch { .. }
        ));
    }

    #[test]
    fn mod_drop_cannot_raise_levels() {
        let (ctx, sk, mut rng) = setup();
        let m = msg(&ctx, |_| C64::new(0.2, 0.0));
        let ct = ctx.encrypt(&ctx.encode(&m, 1, ctx.params().scale()), &sk, &mut rng);
        assert!(matches!(
            ctx.mod_drop_to(&ct, 3).unwrap_err(),
            crate::error::ArkError::LevelMismatch { .. }
        ));
    }

    #[test]
    fn depth_chain_multiplication() {
        // (((m²)²)²) across three levels: checks noise + scale tracking.
        let (ctx, sk, mut rng) = setup();
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let m = msg(&ctx, |i| C64::new(0.9 - 0.001 * i as f64, 0.0));
        let scale = ctx.params().scale();
        let mut ct = ctx.encrypt(&ctx.encode(&m, 3, scale), &sk, &mut rng);
        let mut want: Vec<C64> = m.clone();
        for _ in 0..3 {
            ct = ctx.rescale(&ctx.square(&ct, &evk)).unwrap();
            want = want.iter().map(|&z| z * z).collect();
        }
        let out = ctx.decrypt_decode(&ct, &sk);
        assert!(
            max_error(&want, &out) < 1e-2,
            "err={}",
            max_error(&want, &out)
        );
    }
}
