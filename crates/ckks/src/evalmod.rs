//! EvalMod: homomorphic modular reduction by polynomial approximation.
//!
//! After ModRaise and CoeffToSlot, every slot holds `u = I + x` in units
//! of `q_0`, with a small integer `I` (`|I| ≤ K`) on top of the wanted
//! `x`. The modulo function is not a polynomial (Section II-D), so
//! EvalMod returns `sin(2πu) = sin(2πx) ≈ 2πx` and SlotToCoeff divides
//! the `2π` back out. It takes the cosine-and-double-angle route of
//! Han–Ki (CT-RSA 2020): with `w = K + 1/4`, the caller hands in `u/w`
//! (CoeffToSlot's last stage carries the `1/w`), EvalMod adds
//! `−1/(4w)` for `v = (u − 1/4)/w ∈ [−1, 1]`, evaluates an even
//! Chebyshev interpolant of `cos(2π·w·v/2^r)` and doubles the angle `r`
//! times with `c ← 2c² − 1`, landing on `cos(2π(u − 1/4)) = sin(2πu)`.
//! A cosine over a `2^r`-times narrower angle needs a far smaller degree
//! than one sine over all `2K` periods: at the default (`K = 12`,
//! degree 29, `r = 3`) EvalMod spends 12 relinearisations at depth 8 —
//! 9 in the interpolant and 3 in the doublings — where a degree-119
//! sine spent 21 at the same depth.
//!
//! The interpolant runs through the baby-step giant-step
//! (Paterson–Stockmeyer) recursion in the Chebyshev basis, so its depth
//! is `O(log degree)`, and it lands on exactly the scale it is asked
//! for (Bossuat et al., EUROCRYPT 2021): every node of the recursion
//! is handed a level `ℓ` and a target scale `s`.
//!
//! - A base case multiplies each `T_j` (scale `S_j`) by its coefficient
//!   encoded at `s·q_{ℓ+1}/S_j`, so every term sums at `s·q_{ℓ+1}` and
//!   one rescale by `q_{ℓ+1}` leaves `s`.
//! - A division `p = q·T_g + r` asks its quotient for `s·q_{ℓ+1}/S_g`
//!   and its remainder for `s`.
//! - The basis adds only equal scales: `T_{2k} = 2T_k² − 1` adds a
//!   ciphertext to itself and a constant, and an odd
//!   `T_j = 2·T_⌈j/2⌉·T_⌊j/2⌋ − T_1` subtracts `T_1` from the product
//!   before its rescale, `T_1` multiplied by a `1` encoded at the
//!   other factors' scales.
//!
//! EvalMod picks the interpolant's target by walking its doublings
//! backwards (`s_{k−1} = √(s_k·q)`), so its output lands on its input's
//! scale and the bootstrap returns its input's scale, not an
//! approximation of it.
//!
//! Threading: the recursion itself is depth-sequential (each `T_j`
//! depends on earlier basis entries), so EvalMod exposes no op-level
//! parallelism — all fan-out happens one layer down, in the per-limb
//! loops of the `HMult`/`HRescale`/`CMult` primitives it issues, which
//! ride the context's [`ark_math::par::ThreadPool`] automatically.

use crate::ciphertext::Ciphertext;
use crate::keys::EvalKey;
use crate::params::CkksContext;

/// The evaluator adds ciphertexts only at scales it made equal.
const SAME_SCALE: &str = "Chebyshev terms land on one scale by construction";
/// The caller checked the level budget against [`ChebyshevPoly::depth`].
const DEPTH: &str = "chain long enough for Chebyshev depth";

/// A Chebyshev expansion `Σ c_j T_j(u)` of a function on `[−1, 1]`.
/// A caller with another interval folds its affine map into the linear
/// step before (EvalMod's `1/w` rides in CoeffToSlot).
#[derive(Debug, Clone)]
pub struct ChebyshevPoly {
    /// Chebyshev coefficients `c_0..c_d`.
    pub coeffs: Vec<f64>,
}

impl ChebyshevPoly {
    /// Interpolates `f` at the `degree+1` Chebyshev nodes of `[−1, 1]`.
    pub fn interpolate(f: impl Fn(f64) -> f64, degree: usize) -> Self {
        let m = degree + 1;
        // nodes u_k = cos(π(k+0.5)/m)
        let fx: Vec<f64> = (0..m)
            .map(|k| f((std::f64::consts::PI * (k as f64 + 0.5) / m as f64).cos()))
            .collect();
        let coeffs: Vec<f64> = (0..m)
            .map(|j| {
                let s: f64 = (0..m)
                    .map(|k| {
                        fx[k]
                            * (std::f64::consts::PI * j as f64 * (k as f64 + 0.5) / m as f64).cos()
                    })
                    .sum();
                let norm = if j == 0 { 1.0 } else { 2.0 };
                norm * s / m as f64
            })
            .collect();
        Self { coeffs }
    }

    /// Degree of the expansion.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Evaluates on a clear input (Clenshaw recurrence) — test oracle.
    pub fn eval_clear(&self, u: f64) -> f64 {
        let (mut b1, mut b2) = (0.0f64, 0.0f64);
        for &c in self.coeffs.iter().skip(1).rev() {
            let t = 2.0 * u * b1 - b2 + c;
            b2 = b1;
            b1 = t;
        }
        u * b1 - b2 + self.coeffs[0]
    }

    /// Multiplicative levels [`CkksContext::eval_chebyshev`] consumes on
    /// this expansion: the deepest basis entry a base case reads, and
    /// one level per base case and per giant product on the way up —
    /// the evaluator's level arithmetic, on levels alone (it depends on
    /// which coefficients vanish, so it is not a function of the
    /// degree).
    pub fn depth(&self) -> usize {
        let d = self.degree();
        let plan = ChebyBasisPlan::for_degree(d);
        // levels[j]: how far below the input `T_j` lands
        let mut levels = vec![0usize; plan.baby.max(d) + 1];
        for j in 2..=plan.baby {
            levels[j] = levels[j.div_ceil(2)].max(levels[j / 2]) + 1;
        }
        for &g in &plan.giants {
            levels[g] = levels[g / 2] + 1;
        }
        cheby_depth(&self.coeffs, &levels, plan.baby)
    }
}

/// Divides a Chebyshev-basis polynomial by `T_g`: returns `(q, r)` with
/// `p = q·T_g + r`, `deg r < g`, using `T_i = 2·T_g·T_{i−g} − T_{|i−2g|}`.
fn cheby_divide(p: &[f64], g: usize) -> (Vec<f64>, Vec<f64>) {
    let d = p.len() - 1;
    assert!(d >= g, "degree must be at least g");
    let mut rem = p.to_vec();
    let mut quo = vec![0.0f64; d - g + 1];
    for i in (g..=d).rev() {
        let c = rem[i];
        if c == 0.0 {
            continue;
        }
        if i == g {
            quo[0] += c; // T_g·T_0 = T_g
        } else {
            quo[i - g] += 2.0 * c;
            let k = i.abs_diff(2 * g);
            rem[k] -= c;
        }
        rem[i] = 0.0;
    }
    rem.truncate(g);
    (quo, rem)
}

/// The giant `T_g` a degree-`d ≥ m` polynomial is divided by: the
/// largest `m·2^k ≤ d`.
fn largest_giant(m: usize, d: usize) -> usize {
    let mut g = m;
    while 2 * g <= d {
        g *= 2;
    }
    g
}

/// Base-case terms `c_j·T_j`, `j ≥ 1`, that are actually evaluated.
fn used_terms(coeffs: &[f64]) -> impl Iterator<Item = usize> + '_ {
    (1..coeffs.len()).filter(|&j| coeffs[j].abs() > 1e-13)
}

/// `eval_cheby_node` on levels alone (see [`ChebyshevPoly::depth`]).
fn cheby_depth(coeffs: &[f64], levels: &[usize], m: usize) -> usize {
    let d = coeffs.len() - 1;
    if d < m {
        // a constant burns a level of T_1
        let deepest = used_terms(coeffs).map(|j| levels[j]).max();
        return deepest.unwrap_or(levels[1]) + 1;
    }
    let g = largest_giant(m, d);
    let (q, r) = cheby_divide(coeffs, g);
    let product = cheby_depth(&q, levels, m).max(levels[g]) + 1;
    product.max(cheby_depth(&r, levels, m))
}

/// Plan of which Chebyshev basis ciphertexts `T_j` the evaluator
/// materializes: babies `T_1..T_m` and giants `T_{2m}, T_{4m}, …`.
#[derive(Debug, Clone)]
pub struct ChebyBasisPlan {
    /// Baby count `m` (a power of two).
    pub baby: usize,
    /// Giant indices (powers of two times `m`) up to the degree.
    pub giants: Vec<usize>,
}

impl ChebyBasisPlan {
    /// Chooses `m ≈ √(d+1)` rounded to a power of two.
    pub fn for_degree(degree: usize) -> Self {
        let mut m = 1usize;
        while m * m < degree + 1 {
            m <<= 1;
        }
        let mut giants = Vec::new();
        let mut g = 2 * m;
        while g <= degree {
            giants.push(g);
            g <<= 1;
        }
        Self { baby: m, giants }
    }

    /// Which basis entries evaluating `coeffs` reads, `needed[j]` for
    /// `T_j`: the base-case terms and the giant of every division in
    /// the recursion, closed over what building each takes
    /// (`T_j ← T_⌈j/2⌉, T_⌊j/2⌋, T_1`). An even expansion such as the
    /// cosine keeps even quotients and remainders, so it never reads an
    /// odd baby — and the evaluator builds only the odd ones its even
    /// babies are squares of.
    fn needed(&self, coeffs: &[f64]) -> Vec<bool> {
        let mut needed = vec![false; self.baby.max(coeffs.len() - 1) + 1];
        mark_read(coeffs, self.baby, &mut needed);
        needed[1] = true;
        for j in (2..needed.len()).rev() {
            if needed[j] {
                needed[j.div_ceil(2)] = true;
                needed[j / 2] = true;
            }
        }
        needed
    }
}

/// Marks the basis entries `eval_cheby_node` reads on `coeffs`.
fn mark_read(coeffs: &[f64], m: usize, read: &mut [bool]) {
    let d = coeffs.len() - 1;
    if d < m {
        used_terms(coeffs).for_each(|j| read[j] = true);
        return;
    }
    let g = largest_giant(m, d);
    read[g] = true;
    let (q, r) = cheby_divide(coeffs, g);
    mark_read(&q, m, read);
    mark_read(&r, m, read);
}

impl CkksContext {
    /// Evaluates a Chebyshev expansion homomorphically, landing on
    /// exactly `scale` at level `ct.level − poly.depth()` (see the
    /// module docs). The input's slots must lie inside `[−1, 1]` for the
    /// approximation to hold.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext lacks the required levels.
    pub fn eval_chebyshev(
        &self,
        ct: &Ciphertext,
        poly: &ChebyshevPoly,
        scale: f64,
        evk: &EvalKey,
    ) -> Ciphertext {
        let level = ct.level.checked_sub(poly.depth()).expect(DEPTH);
        let d = poly.degree();
        let plan = ChebyBasisPlan::for_degree(d);
        let m = plan.baby;
        let needed = plan.needed(&poly.coeffs);

        // Babies T_1..T_m (index 0 unused), those the expansion reads.
        let mut basis: Vec<Option<Ciphertext>> = vec![None; m.max(d) + 1];
        basis[1] = Some(ct.clone());
        for j in (2..=m).filter(|&j| needed[j]) {
            let entry = |k: usize| basis[k].as_ref().expect("needed baby computed in order");
            let t = if j % 2 == 0 {
                self.double_angle(entry(j / 2), evk)
            } else {
                // T_{2k+1} = 2·T_{k+1}·T_k − T_1, T_1 taken onto the
                // product's level and scale before the one rescale
                let prod = self.mul(entry(j.div_ceil(2)), entry(j / 2), evk);
                let t1 = self.term_at(entry(1), 1.0, prod.level, prod.scale);
                let two = self.add(&prod, &prod).expect(SAME_SCALE);
                let t = self.sub(&two, &t1).expect(SAME_SCALE);
                self.rescale(&t).expect(DEPTH)
            };
            basis[j] = Some(t);
        }
        // Giants T_{2m}, T_{4m}, …
        for &g in plan.giants.iter().filter(|&&g| needed[g]) {
            let half = basis[g / 2].as_ref().expect("needed giant halves exist");
            basis[g] = Some(self.double_angle(half, evk));
        }

        self.eval_cheby_node(&poly.coeffs, &basis, m, level, scale, evk)
    }

    /// `2c² − 1`: the Chebyshev doubling `T_{2k} = 2T_k² − 1`, and
    /// EvalMod's `cos 2θ = 2cos²θ − 1`. One level; the result's scale
    /// is `c`'s squared over the prime it rescales by.
    fn double_angle(&self, c: &Ciphertext, evk: &EvalKey) -> Ciphertext {
        let sq = self.rescale(&self.square(c, evk)).expect(DEPTH);
        let two = self.add(&sq, &sq).expect(SAME_SCALE);
        self.add_const(&two, -1.0)
    }

    /// `c·ct` at `level` and exactly `scale`: `ct` drops to `level` and
    /// takes `c` encoded at `scale/S` for its scale `S`.
    fn term_at(&self, ct: &Ciphertext, c: f64, level: usize, scale: f64) -> Ciphertext {
        let at = self
            .mod_drop_to(ct, level)
            .expect("a basis entry sits above every level it is read at");
        self.mul_const_at(at, c, scale / ct.scale)
    }

    /// One node of the Paterson–Stockmeyer recursion in the Chebyshev
    /// basis, landing on `level` at exactly `scale`.
    fn eval_cheby_node(
        &self,
        coeffs: &[f64],
        basis: &[Option<Ciphertext>],
        m: usize,
        level: usize,
        scale: f64,
        evk: &EvalKey,
    ) -> Ciphertext {
        let d = coeffs.len() - 1;
        if d < m {
            return self.eval_cheby_base(coeffs, basis, level, scale);
        }
        let g = largest_giant(m, d);
        let (q, r) = cheby_divide(coeffs, g);
        let tg = basis[g].as_ref().expect("giant T_g materialized");
        // q·T_g is rescaled by q_{level+1}: ask q for scale·q_{level+1}/S_g
        let q_next = self.basis().modulus(level + 1).value() as f64;
        let ct_q = self.eval_cheby_node(&q, basis, m, level + 1, scale * q_next / tg.scale, evk);
        let prod = self.rescale(&self.mul(&ct_q, tg, evk)).expect(DEPTH);
        let ct_r = self.eval_cheby_node(&r, basis, m, level, scale, evk);
        self.add(&prod, &ct_r).expect(SAME_SCALE)
    }

    /// Base case: `Σ_{j<m} c_j T_j` via constant multiplications, every
    /// term encoded onto one scale, summed, and rescaled once.
    fn eval_cheby_base(
        &self,
        coeffs: &[f64],
        basis: &[Option<Ciphertext>],
        level: usize,
        scale: f64,
    ) -> Ciphertext {
        let mut terms: Vec<(usize, f64)> = used_terms(coeffs).map(|j| (j, coeffs[j])).collect();
        if terms.is_empty() {
            // a constant polynomial: 0·T_1 + c_0 burns a level of T_1
            terms.push((1, 0.0));
        }
        // every term at scale·q_{level+1}, so the rescale leaves scale
        let q = self.basis().modulus(level + 1).value() as f64;
        let sum = terms
            .into_iter()
            .map(|(j, c)| {
                let t = basis[j].as_ref().expect("basis entry");
                self.term_at(t, c, level + 1, scale * q)
            })
            .reduce(|acc, term| self.add(&acc, &term).expect(SAME_SCALE))
            .expect("at least one term");
        let sum = self.rescale(&sum).expect(DEPTH);
        self.add_const(&sum, coeffs[0])
    }

    /// EvalMod on `u/w` (see the module docs): adds `−1/(4w)`, evaluates
    /// the cosine interpolant and doubles the angle, returning
    /// `sin(2πu)` at `ct`'s scale, [`EvalMod::depth`] levels lower.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext lacks the required levels.
    pub fn eval_mod(&self, ct: &Ciphertext, evalmod: &EvalMod, evk: &EvalKey) -> Ciphertext {
        let v = self.add_const(ct, -0.25 / evalmod.width);
        let cosine_level = ct.level.checked_sub(evalmod.cosine.depth()).expect(DEPTH);
        assert!(cosine_level >= EvalMod::DOUBLINGS, "{DEPTH}");
        // doubling k rescales by q at `cosine_level + 1 − k`; walk them
        // backwards from the output scale to the interpolant's target
        let scale = (1..=EvalMod::DOUBLINGS).rev().fold(ct.scale, |s, k| {
            let q = self.basis().modulus(cosine_level + 1 - k).value() as f64;
            (s * q).sqrt()
        });
        let c = self.eval_chebyshev(&v, &evalmod.cosine, scale, evk);
        (0..EvalMod::DOUBLINGS).fold(c, |c, _| self.double_angle(&c, evk))
    }
}

/// Parameters of the EvalMod step.
#[derive(Debug, Clone)]
pub struct EvalModParams {
    /// Half-width `K`: slots lie in `[−K·q0, K·q0]` before reduction
    /// (bounded by the secret key's Hamming weight).
    pub k: usize,
    /// Degree of the cosine interpolant.
    pub degree: usize,
}

impl EvalModParams {
    /// A default sized for sparse secrets (`h ≤ 64`).
    pub fn for_sparse_secret() -> Self {
        Self { k: 12, degree: 29 }
    }
}

/// EvalMod, ready to run: the interval width `w = K + 1/4` and the even
/// interpolant of `cos(2π·w·v/2^r)` on `[−1, 1]`.
#[derive(Debug, Clone)]
pub struct EvalMod {
    width: f64,
    cosine: ChebyshevPoly,
}

impl EvalMod {
    /// Angle doublings `r` after the interpolant. Fixed: the
    /// interpolant's degree is sized for the angle `2^r` narrows.
    pub const DOUBLINGS: usize = 3;

    /// Interpolates the cosine of `params`. Its odd coefficients vanish
    /// in exact arithmetic and are set to zero, so the evaluator builds
    /// no odd basis entry it would only multiply by rounding noise.
    pub fn new(params: &EvalModParams) -> Self {
        let width = params.k as f64 + 0.25;
        let turn = 2.0 * std::f64::consts::PI * width / (1u64 << Self::DOUBLINGS) as f64;
        let mut cosine = ChebyshevPoly::interpolate(|v| (turn * v).cos(), params.degree);
        cosine
            .coeffs
            .iter_mut()
            .skip(1)
            .step_by(2)
            .for_each(|c| *c = 0.0);
        Self { width, cosine }
    }

    /// `w = K + 1/4`: EvalMod's input is `u/w`, so the caller folds
    /// `1/w` into the linear map before it.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Levels [`CkksContext::eval_mod`] consumes: the interpolant's
    /// depth plus one per doubling.
    pub fn depth(&self) -> usize {
        self.cosine.depth() + Self::DOUBLINGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use crate::params::CkksParams;
    use ark_math::cfft::C64;
    use rand::SeedableRng;

    /// Maximum interpolation error of `p` against `f`, sampled on a
    /// grid over `[−1, 1]`.
    fn max_error_on(p: &ChebyshevPoly, f: impl Fn(f64) -> f64, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let x = -1.0 + 2.0 * i as f64 / (samples - 1) as f64;
                (p.eval_clear(x) - f(x)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn interpolation_converges_on_smooth_function() {
        let p = ChebyshevPoly::interpolate(f64::exp, 12);
        assert!(max_error_on(&p, f64::exp, 100) < 1e-10);
    }

    #[test]
    fn clenshaw_matches_direct_chebyshev() {
        // p = T_0 + 2 T_1 + 3 T_2 on [-1,1]; T_2(x) = 2x²−1
        let p = ChebyshevPoly {
            coeffs: vec![1.0, 2.0, 3.0],
        };
        for x in [-1.0, -0.3, 0.0, 0.7, 1.0] {
            let want = 1.0 + 2.0 * x + 3.0 * (2.0 * x * x - 1.0);
            assert!((p.eval_clear(x) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn cheby_division_invariant() {
        // random-ish p of degree 13, divide by T_8, recombine numerically
        let p: Vec<f64> = (0..14).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let g = 8;
        let (q, r) = cheby_divide(&p, g);
        assert!(r.len() <= g);
        // numeric check: p(x) == q(x)*T_g(x) + r(x) at sample points
        let eval = |c: &[f64], x: f64| {
            let poly = ChebyshevPoly { coeffs: c.to_vec() };
            poly.eval_clear(x)
        };
        let tg = |x: f64| (g as f64 * x.acos()).cos();
        for x in [-0.9, -0.5, 0.0, 0.3, 0.99] {
            let want = eval(&p, x);
            let got = eval(&q, x) * tg(x) + eval(&r, x);
            assert!((want - got).abs() < 1e-9, "x={x}: {want} vs {got}");
        }
    }

    /// `sin(2πu)` as EvalMod computes it in the clear: the cosine
    /// interpolant at `(u − 1/4)/w`, then the doublings.
    fn eval_mod_clear(em: &EvalMod, u: f64) -> f64 {
        let c = em.cosine.eval_clear((u - 0.25) / em.width);
        (0..EvalMod::DOUBLINGS).fold(c, |c, _| 2.0 * c * c - 1.0)
    }

    #[test]
    fn cosine_and_doublings_compose_to_the_sine() {
        let em = EvalMod::new(&EvalModParams::for_sparse_secret());
        assert_eq!(em.width(), 12.25);
        assert!(em
            .cosine
            .coeffs
            .iter()
            .skip(1)
            .step_by(2)
            .all(|&c| c == 0.0));
        // over every period the key's weight allows, not only near
        // integers: the composition is the sine, not just its
        // linearisation
        let samples = 20_000;
        let worst = (0..=samples)
            .map(|i| {
                let u = -12.0 + 24.0 * i as f64 / samples as f64;
                (eval_mod_clear(&em, u) - (2.0 * std::f64::consts::PI * u).sin()).abs()
            })
            .fold(0.0, f64::max);
        assert!(worst < 1e-10, "composed clear error {worst:e}");
    }

    /// Relinearisations one EvalMod issues, walked off its plan: one
    /// per basis entry past `T_1`, one per division of the recursion
    /// and one per doubling.
    fn relinearisations(poly: &ChebyshevPoly, doublings: usize) -> usize {
        fn divisions(coeffs: &[f64], m: usize) -> usize {
            let d = coeffs.len() - 1;
            if d < m {
                return 0;
            }
            let (q, r) = cheby_divide(coeffs, largest_giant(m, d));
            1 + divisions(&q, m) + divisions(&r, m)
        }
        let plan = ChebyBasisPlan::for_degree(poly.degree());
        let needed = plan.needed(&poly.coeffs);
        let basis = needed.iter().skip(2).filter(|&&built| built).count();
        basis + divisions(&poly.coeffs, plan.baby) + doublings
    }

    #[test]
    fn evalmod_spends_twelve_products_at_depth_eight() {
        let em = EvalMod::new(&EvalModParams::for_sparse_secret());
        assert_eq!(em.cosine.depth(), 5);
        assert_eq!(em.depth(), 8);
        assert_eq!(relinearisations(&em.cosine, EvalMod::DOUBLINGS), 9 + 3);
        // the degree-119 sine on [−12, 12] it replaced: 21 products, at
        // the same depth once its affine map's level is counted
        let two_pi = 2.0 * std::f64::consts::PI;
        let sine = ChebyshevPoly::interpolate(|v| (two_pi * 12.0 * v).sin() / two_pi, 119);
        assert_eq!(sine.depth() + 1, 8);
        assert_eq!(relinearisations(&sine, 0), 21);
    }

    #[test]
    fn basis_plan_shapes() {
        let plan = ChebyBasisPlan::for_degree(119);
        assert_eq!(plan.baby, 16);
        assert_eq!(plan.giants, vec![32, 64]);
        let plan = ChebyBasisPlan::for_degree(15);
        assert_eq!(plan.baby, 4);
        assert_eq!(plan.giants, vec![8]);
    }

    #[test]
    fn basis_holds_only_what_the_expansion_reads() {
        let built = |coeffs: &[f64]| -> Vec<usize> {
            let needed = ChebyBasisPlan::for_degree(coeffs.len() - 1).needed(coeffs);
            (1..needed.len()).filter(|&j| needed[j]).collect()
        };
        // the even degree-29 cosine reads T_2, T_4, T_6 and the giants
        // T_8, T_16; building those takes T_1 and T_3 — no other odd
        // baby, and never T_5 or T_7
        let cosine = EvalMod::new(&EvalModParams::for_sparse_secret()).cosine;
        assert_eq!(built(&cosine.coeffs), vec![1, 2, 3, 4, 6, 8, 16]);
        // a dense expansion reads every baby
        let dense: Vec<f64> = (0..120).map(|j| 1.0 / (1 + j) as f64).collect();
        let mut want: Vec<usize> = (1..=16).collect();
        want.extend([32, 64]);
        assert_eq!(built(&dense), want);
        // a term past the babies comes out of the division by a giant,
        // not out of the basis: T_3 = 2·T_2·T_1 − T_1 with m = 2
        assert_eq!(built(&[0.5, 0.0, 0.0, 1.0]), vec![1, 2]);
    }

    #[test]
    fn homomorphic_chebyshev_small_degree() {
        // evaluate x² (as a Chebyshev expansion) homomorphically
        let ctx = CkksContext::new(CkksParams::small());
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let sk = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new(-0.8 + 1.6 * i as f64 / slots as f64, 0.0))
            .collect();
        let ct = ctx.encrypt(
            &ctx.encode(&msg, ctx.params().max_level, ctx.params().scale()),
            &sk,
            &mut rng,
        );
        let p = ChebyshevPoly::interpolate(|x| x * x, 7);
        let out_ct = ctx.eval_chebyshev(&ct, &p, ct.scale, &evk);
        assert_eq!(out_ct.level, ct.level - p.depth());
        assert!((out_ct.scale / ct.scale - 1.0).abs() < 1e-12);
        let out = ctx.decrypt_decode(&out_ct, &sk);
        let want: Vec<C64> = msg.iter().map(|z| C64::new(z.re * z.re, 0.0)).collect();
        let err = max_error(&want, &out);
        assert!(err < 1e-2, "err={err}");
    }

    #[test]
    fn homomorphic_chebyshev_higher_degree_sine() {
        let ctx = CkksContext::new(CkksParams::small());
        let mut rng = rand::rngs::StdRng::seed_from_u64(56);
        let sk = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new(-0.9 + 1.8 * i as f64 / slots as f64, 0.0))
            .collect();
        let ct = ctx.encrypt(
            &ctx.encode(&msg, ctx.params().max_level, ctx.params().scale()),
            &sk,
            &mut rng,
        );
        let f = |x: f64| (2.0 * x).sin();
        let p = ChebyshevPoly::interpolate(f, 23);
        assert!(max_error_on(&p, f, 200) < 1e-8);
        let out_ct = ctx.eval_chebyshev(&ct, &p, ct.scale, &evk);
        assert_eq!(out_ct.level, ct.level - p.depth());
        assert!((out_ct.scale / ct.scale - 1.0).abs() < 1e-12);
        let out = ctx.decrypt_decode(&out_ct, &sk);
        let want: Vec<C64> = msg.iter().map(|z| C64::new(f(z.re), 0.0)).collect();
        let err = max_error(&want, &out);
        assert!(err < 2e-2, "err={err}");
        // m = 8 here, so the base cases sum up to seven `c_j·T_j` terms
        // before their one rescale: the sum must still be the Clenshaw
        // value of the same expansion
        let clear: Vec<C64> = msg
            .iter()
            .map(|z| C64::new(p.eval_clear(z.re), 0.0))
            .collect();
        let err = max_error(&clear, &out);
        assert!(err < 2e-2, "against eval_clear: err={err}");
    }

    /// EvalMod alone at boot-test level 14 on `u = I + x`, `|I| ≤ 8`,
    /// `|x| ≤ 0.004` (HELR's magnitudes): the real part is within 2^-28
    /// of `sin(2πu)/(2π)` (the degree-119 sine reached 2^-24.3 here,
    /// its terms summed at scales 1e-7 apart), and the output sits at
    /// the input's scale, 8 levels lower.
    #[test]
    fn evalmod_reaches_28_bits_on_its_input_scale() {
        let ctx = CkksContext::new(CkksParams::boot_test());
        let mut rng = rand::rngs::StdRng::seed_from_u64(57);
        let sk = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let em = EvalMod::new(&EvalModParams::for_sparse_secret());
        let slots = ctx.params().slots();
        let u: Vec<f64> = (0..slots)
            .map(|i| (i % 17) as f64 - 8.0 + 0.004 * ((i as f64) * 0.731).sin())
            .collect();
        let msg: Vec<C64> = u.iter().map(|&u| C64::new(u / em.width(), 0.0)).collect();
        let ct = ctx.encrypt(&ctx.encode(&msg, 14, ctx.params().scale()), &sk, &mut rng);
        let out_ct = ctx.eval_mod(&ct, &em, &evk);
        assert_eq!(out_ct.level, 14 - 8);
        assert!((out_ct.scale / ct.scale - 1.0).abs() < 1e-12);
        let out = ctx.decrypt_decode(&out_ct, &sk);
        let two_pi = 2.0 * std::f64::consts::PI;
        let worst = out
            .iter()
            .zip(&u)
            .map(|(z, &u)| ((z.re - (two_pi * u).sin()) / two_pi).abs())
            .fold(0.0, f64::max);
        let bits = -worst.log2();
        assert!(bits >= 28.0, "EvalMod real part: {bits:.2} bits");
    }
}
