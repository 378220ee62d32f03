//! EvalMod: homomorphic modular reduction by polynomial approximation.
//!
//! After ModRaise, every slot holds `c + q_0·I` for a small integer `I`;
//! EvalMod recovers `c ≈ (c + q_0·I) mod q_0` by evaluating the scaled
//! sine `q_0/(2π) · sin(2π·x/q_0)` (the modulo function is not
//! polynomial, so it is approximated by a high-degree interpolant —
//! Section II-D). The interpolant is a Chebyshev expansion on
//! `[−K, +K]` periods, evaluated homomorphically with the baby-step
//! giant-step (Paterson–Stockmeyer) recursion in the Chebyshev basis so
//! the multiplicative depth is `O(log degree)`.
//!
//! Threading: the recursion itself is depth-sequential (each `T_j`
//! depends on earlier basis entries), so EvalMod exposes no op-level
//! parallelism — all fan-out happens one layer down, in the per-limb
//! loops of the `HMult`/`HRescale`/`CMult` primitives it issues, which
//! ride the context's [`ark_math::par::ThreadPool`] automatically.

use crate::ciphertext::Ciphertext;
use crate::keys::EvalKey;
use crate::params::CkksContext;

/// A Chebyshev expansion `Σ c_j T_j(u)` of a function on `[a, b]`
/// (with `u` the affine image of `x` in `[−1, 1]`).
#[derive(Debug, Clone)]
pub struct ChebyshevPoly {
    /// Chebyshev coefficients `c_0..c_d`.
    pub coeffs: Vec<f64>,
    /// Interval lower end.
    pub a: f64,
    /// Interval upper end.
    pub b: f64,
}

impl ChebyshevPoly {
    /// Interpolates `f` at the `degree+1` Chebyshev nodes of `[a, b]`.
    pub fn interpolate(f: impl Fn(f64) -> f64, a: f64, b: f64, degree: usize) -> Self {
        let m = degree + 1;
        // nodes u_k = cos(π(k+0.5)/m); x_k = affine image in [a,b]
        let fx: Vec<f64> = (0..m)
            .map(|k| {
                let u = (std::f64::consts::PI * (k as f64 + 0.5) / m as f64).cos();
                f(0.5 * (b - a) * u + 0.5 * (a + b))
            })
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
        Self { coeffs, a, b }
    }

    /// Degree of the expansion.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Evaluates on a clear input (Clenshaw recurrence) — test oracle.
    pub fn eval_clear(&self, x: f64) -> f64 {
        let u = (2.0 * x - self.a - self.b) / (self.b - self.a);
        let (mut b1, mut b2) = (0.0f64, 0.0f64);
        for &c in self.coeffs.iter().skip(1).rev() {
            let t = 2.0 * u * b1 - b2 + c;
            b2 = b1;
            b1 = t;
        }
        u * b1 - b2 + self.coeffs[0]
    }

    /// Multiplicative levels [`CkksContext::eval_chebyshev`] consumes on
    /// this expansion: the affine input map, the deepest basis entry a
    /// base case reads, and one level per base case and per giant
    /// product on the way up — the evaluator's level arithmetic, on
    /// levels alone (it depends on which coefficients vanish, so it is
    /// not a function of the degree).
    pub fn depth(&self) -> usize {
        let d = self.degree();
        if d == 0 {
            return 2;
        }
        let plan = ChebyBasisPlan::for_degree(d);
        // levels[j]: how far below the input `T_j` lands
        let mut levels = vec![0usize; plan.baby.max(d) + 1];
        levels[1] = 1;
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

/// `eval_cheby_recursive` on levels alone (see
/// [`ChebyshevPoly::depth`]).
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
    /// (`T_j ← T_⌈j/2⌉, T_⌊j/2⌋, T_1`). An odd expansion such as the
    /// sine keeps odd quotients and remainders, so it never reads most
    /// even babies — and the evaluator does not build them.
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

/// Marks the basis entries `eval_cheby_recursive` reads on `coeffs`.
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
    /// Evaluates a Chebyshev expansion homomorphically.
    ///
    /// Consumes roughly `log2(degree) + 2` levels. The input's slots must
    /// lie inside `[poly.a, poly.b]` for the approximation to hold.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext lacks the required levels.
    pub fn eval_chebyshev(
        &self,
        ct: &Ciphertext,
        poly: &ChebyshevPoly,
        evk: &EvalKey,
    ) -> Ciphertext {
        // affine map to [-1, 1]: u = (2x − a − b)/(b − a)
        let scale_f = 2.0 / (poly.b - poly.a);
        let shift = -(poly.a + poly.b) / (poly.b - poly.a);
        let u = self
            .rescale(&self.mul_const(ct, scale_f))
            .expect("chain long enough for Chebyshev depth");
        let u = self.add_const(&u, shift);

        let d = poly.degree();
        if d == 0 {
            let mut c = self.mul_const(&u, 0.0);
            c = self
                .rescale(&c)
                .expect("chain long enough for Chebyshev depth");
            return self.add_const(&c, poly.coeffs[0]);
        }
        let plan = ChebyBasisPlan::for_degree(d);
        let m = plan.baby;
        let needed = plan.needed(&poly.coeffs);
        let depth = "chain long enough for Chebyshev depth";
        let one_scale = "Chebyshev terms share one scale by construction";

        // Babies T_1..T_m (index 0 unused), those the expansion reads.
        let mut basis: Vec<Option<Ciphertext>> = vec![None; m.max(d) + 1];
        basis[1] = Some(u);
        for j in (2..=m).filter(|&j| needed[j]) {
            let entry = |k: usize| basis[k].as_ref().expect("needed baby computed in order");
            let t = if j % 2 == 0 {
                // T_{2k} = 2 T_k² − 1
                let sq = self.rescale(&self.square(entry(j / 2), evk)).expect(depth);
                let two = self.add(&sq, &sq).expect(one_scale);
                self.add_const(&two, -1.0)
            } else {
                // T_{i+j} = 2 T_i T_j − T_{i−j} with i = (j+1)/2, j' = j/2
                let (hi, lo) = (j.div_ceil(2), j / 2);
                let prod = self
                    .rescale(&self.mul(entry(hi), entry(lo), evk))
                    .expect(depth);
                let two = self.add(&prod, &prod).expect(one_scale);
                self.sub(&two, entry(hi - lo)).expect(one_scale)
            };
            basis[j] = Some(t);
        }
        // Giants T_{2m}, T_{4m}, …
        for &g in plan.giants.iter().filter(|&&g| needed[g]) {
            let half = basis[g / 2].as_ref().expect("needed giant halves exist");
            let sq = self.rescale(&self.square(half, evk)).expect(depth);
            let two = self.add(&sq, &sq).expect(one_scale);
            basis[g] = Some(self.add_const(&two, -1.0));
        }

        self.eval_cheby_recursive(&poly.coeffs, &basis, m, evk)
    }

    /// Recursive Paterson–Stockmeyer combine in the Chebyshev basis.
    fn eval_cheby_recursive(
        &self,
        coeffs: &[f64],
        basis: &[Option<Ciphertext>],
        m: usize,
        evk: &EvalKey,
    ) -> Ciphertext {
        let d = coeffs.len() - 1;
        if d < m {
            return self.eval_cheby_base(coeffs, basis);
        }
        let g = largest_giant(m, d);
        let (q, r) = cheby_divide(coeffs, g);
        let ct_q = self.eval_cheby_recursive(&q, basis, m, evk);
        let ct_r = self.eval_cheby_recursive(&r, basis, m, evk);
        let tg = basis[g].as_ref().expect("giant T_g materialized");
        let prod = self
            .rescale(&self.mul(&ct_q, tg, evk))
            .expect("chain long enough for Chebyshev depth");
        self.add(&prod, &ct_r)
            .expect("Chebyshev terms share one scale by construction")
    }

    /// Base case: `Σ_{j<m} c_j T_j` via constant multiplications. Every
    /// term sits at one level and one scale, so the terms are summed
    /// first and rescaled once.
    fn eval_cheby_base(&self, coeffs: &[f64], basis: &[Option<Ciphertext>]) -> Ciphertext {
        let used: Vec<usize> = used_terms(coeffs).collect();
        let template = basis[1].as_ref().expect("T_1 exists");
        if used.is_empty() {
            // constant polynomial: 0·T_1 + c_0 (burn one level for scale)
            let z = self
                .rescale(&self.mul_const(template, 0.0))
                .expect("chain long enough for Chebyshev depth");
            return self.add_const(&z, coeffs[0]);
        }
        // align all used T_j to the minimum level among them
        let min_level = used
            .iter()
            .map(|&j| basis[j].as_ref().expect("basis entry").level)
            .min()
            .expect("non-empty");
        let mut acc: Option<Ciphertext> = None;
        for &j in &used {
            let t = self
                .mod_drop_to(basis[j].as_ref().expect("basis entry"), min_level)
                .expect("min_level is a lower bound");
            let term = self.mul_const(&t, coeffs[j]);
            acc = Some(match acc {
                Some(a) => self
                    .add(&a, &term)
                    .expect("Chebyshev terms share one scale by construction"),
                None => term,
            });
        }
        let sum = self
            .rescale(&acc.expect("at least one term"))
            .expect("chain long enough for Chebyshev depth");
        self.add_const(&sum, coeffs[0])
    }
}

/// Parameters of the EvalMod step.
#[derive(Debug, Clone)]
pub struct EvalModParams {
    /// Half-width `K`: slots lie in `[−K·q0, K·q0]` before reduction
    /// (bounded by the secret key's Hamming weight).
    pub k: usize,
    /// Degree of the sine interpolant.
    pub degree: usize,
}

impl EvalModParams {
    /// A default sized for sparse secrets (`h ≤ 64`).
    pub fn for_sparse_secret() -> Self {
        Self { k: 12, degree: 119 }
    }

    /// The scaled-sine interpolant `sin(2πu)/(2π)` on `[−K, K]` — the
    /// approximation to `u − round(u)` away from half-integers.
    pub fn sine_poly(&self) -> ChebyshevPoly {
        let k = self.k as f64;
        ChebyshevPoly::interpolate(
            |u| (2.0 * std::f64::consts::PI * u).sin() / (2.0 * std::f64::consts::PI),
            -k,
            k,
            self.degree,
        )
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
    /// grid over `p`'s interval.
    fn max_error_on(p: &ChebyshevPoly, f: impl Fn(f64) -> f64, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let x = p.a + (p.b - p.a) * i as f64 / (samples - 1) as f64;
                (p.eval_clear(x) - f(x)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn interpolation_converges_on_smooth_function() {
        let p = ChebyshevPoly::interpolate(f64::exp, -1.0, 1.0, 12);
        assert!(max_error_on(&p, f64::exp, 100) < 1e-10);
    }

    #[test]
    fn clenshaw_matches_direct_chebyshev() {
        // p = T_0 + 2 T_1 + 3 T_2 on [-1,1]; T_2(x) = 2x²−1
        let p = ChebyshevPoly {
            coeffs: vec![1.0, 2.0, 3.0],
            a: -1.0,
            b: 1.0,
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
            let poly = ChebyshevPoly {
                coeffs: c.to_vec(),
                a: -1.0,
                b: 1.0,
            };
            poly.eval_clear(x)
        };
        let tg = |x: f64| (g as f64 * x.acos()).cos();
        for x in [-0.9, -0.5, 0.0, 0.3, 0.99] {
            let want = eval(&p, x);
            let got = eval(&q, x) * tg(x) + eval(&r, x);
            assert!((want - got).abs() < 1e-9, "x={x}: {want} vs {got}");
        }
    }

    #[test]
    fn sine_poly_approximates_mod_one() {
        let em = EvalModParams { k: 5, degree: 63 };
        let p = em.sine_poly();
        // near integers i, sin(2πu)/(2π) ≈ u − i
        for i in -4i32..=4 {
            for eps in [-0.01, 0.005, 0.02] {
                let u = i as f64 + eps;
                assert!(
                    (p.eval_clear(u) - eps).abs() < 1e-4,
                    "u={u}: {} vs {eps}",
                    p.eval_clear(u)
                );
            }
        }
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
        // the odd degree-119 sine reads T_1, T_3, …, T_15 and the giants
        // T_16, T_32, T_64; building those takes T_2, T_4, T_6, T_8 —
        // never T_10, T_12, T_14
        let sine = EvalModParams::for_sparse_secret().sine_poly();
        let mut want: Vec<usize> = (1..=9).collect();
        want.extend([11, 13, 15, 16, 32, 64]);
        assert_eq!(built(&sine.coeffs), want);
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
        let p = ChebyshevPoly::interpolate(|x| x * x, -1.0, 1.0, 7);
        let out_ct = ctx.eval_chebyshev(&ct, &p, &evk);
        assert_eq!(out_ct.level, ct.level - p.depth());
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
            .map(|i| C64::new(-1.8 + 3.6 * i as f64 / slots as f64, 0.0))
            .collect();
        let ct = ctx.encrypt(
            &ctx.encode(&msg, ctx.params().max_level, ctx.params().scale()),
            &sk,
            &mut rng,
        );
        let f = |x: f64| x.sin();
        let p = ChebyshevPoly::interpolate(f, -2.0, 2.0, 23);
        assert!(max_error_on(&p, f, 200) < 1e-8);
        let out_ct = ctx.eval_chebyshev(&ct, &p, &evk);
        assert_eq!(out_ct.level, ct.level - p.depth());
        let out = ctx.decrypt_decode(&out_ct, &sk);
        let want: Vec<C64> = msg.iter().map(|z| C64::new(z.re.sin(), 0.0)).collect();
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
}
