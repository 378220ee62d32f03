//! Negacyclic number-theoretic transform (NTT).
//!
//! CKKS keeps polynomials of `R_q = Z_q[X]/(X^N + 1)` in their *evaluation
//! representation* so that polynomial multiplication is element-wise
//! (Section II-B of the paper). The forward transform here evaluates a
//! polynomial at the odd powers of a primitive `2N`-th root of unity
//! `ψ`; `INTT` inverts it. The implementation is the standard in-place
//! Harvey butterfly pair (Cooley–Tukey decimation-in-time forward with
//! merged `ψ` powers, Gentleman–Sande inverse), with Shoup-precomputed
//! twiddles.
//!
//! The forward transform consumes natural-order input and produces
//! bit-reversed-order output; the inverse consumes bit-reversed order and
//! restores natural order. Element-wise products are order-agnostic, so
//! the library never pays an explicit bit-reversal.
//!
//! # Lazy reduction
//!
//! Both passes defer modular reduction in the Harvey style: butterfly
//! outputs stay in the *redundant* ranges `[0, 4q)` (forward) and
//! `[0, 2q)` (inverse), exploiting `mul_shoup_lazy`'s tolerance of any
//! 64-bit operand, and a single normalization pass canonicalizes each
//! limb at the end. With `q < 2^62` (the [`Modulus`] ceiling, checked by
//! a `const` assertion) every intermediate fits a `u64`, and because the
//! final canonical residue of each element is unique, the lazy pipeline
//! is bit-identical to eager per-butterfly reduction.
//!
//! Every window subtraction is one [`csub`], a sign-mask conditional
//! subtract. The compare-and-mask form `x - (b & mask(x >= b))` it
//! replaced compiled to data-dependent `cmp; jb` branches in the final
//! canonicalization loop, and those mispredict on residues spread over
//! `[0, 4q)`. Barrett `reduce`/`reduce_u128` and `add`/`sub` keep their
//! `if` form because it already compiles to `cmov`. A change to these
//! helpers is judged by `math.ntt_{fwd,inv}.ns_per_coeff` and
//! `math.mul_add.ns_per_coeff` from a traced benchmark run.

use crate::modulus::{csub, Modulus, ShoupPrecomp};
use crate::par::ThreadPool;
use crate::primes::primitive_root_of_unity;

/// Which way a batched limb transform runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttDirection {
    /// Coefficient → evaluation (natural → bit-reversed order).
    Forward,
    /// Evaluation → coefficient (bit-reversed → natural order).
    Inverse,
}

/// Transforms every limb row of a flat limb-major buffer (limb `pos`
/// at `data[pos*n..(pos+1)*n]`) with its own table, fanning the rows
/// out across `pool` — the limb-level hot loop behind
/// [`crate::poly::RnsPoly::to_eval`]/[`crate::poly::RnsPoly::to_coeff`].
/// Each limb's transform is independent and exact, so any pool width is
/// bit-identical to the serial loop.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n` or a table's degree
/// differs from `n`.
pub fn transform_limbs<'t, F>(
    data: &mut [u64],
    n: usize,
    table_for: F,
    direction: NttDirection,
    pool: &ThreadPool,
) where
    F: Fn(usize) -> &'t NttTable + Sync,
{
    assert_eq!(data.len() % n, 0, "flat buffer must hold whole limbs");
    pool.par_for_each_row(data, n, |pos, row| match direction {
        NttDirection::Forward => table_for(pos).forward(row),
        NttDirection::Inverse => table_for(pos).inverse(row),
    });
}

/// Precomputed twiddle tables for one `(modulus, degree)` pair.
///
/// # Examples
///
/// ```
/// use ark_math::modulus::Modulus;
/// use ark_math::ntt::NttTable;
///
/// let q = Modulus::new(ark_math::primes::generate_ntt_primes(8, 30, 1)[0]).unwrap();
/// let table = NttTable::new(q, 8);
/// let mut a = vec![1, 2, 3, 4, 5, 6, 7, 8];
/// let orig = a.clone();
/// table.forward(&mut a);
/// table.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    /// ψ^br(i) in bit-reversed order for the CT forward pass.
    root_powers: Vec<ShoupPrecomp>,
    /// ψ^{-br(i)} for the GS inverse pass.
    inv_root_powers: Vec<ShoupPrecomp>,
    /// n^{-1} mod q for the inverse scaling.
    n_inv: ShoupPrecomp,
    /// The primitive 2N-th root ψ itself (for callers that need a power
    /// of it, e.g. the `i = ψ^{N/2}` of `mul_i`).
    psi: u64,
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds twiddle tables for degree `n` under `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or the modulus does not
    /// support a `2n`-th root of unity.
    pub fn new(modulus: Modulus, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "degree must be a power of two >= 2"
        );
        let log_n = n.trailing_zeros();
        let psi = primitive_root_of_unity(&modulus, 2 * n as u64);
        let psi_inv = modulus.inv(psi);

        let mut root_powers = vec![ShoupPrecomp { w: 0, w_shoup: 0 }; n];
        let mut inv_root_powers = vec![ShoupPrecomp { w: 0, w_shoup: 0 }; n];
        let mut power = 1u64;
        let mut inv_power = 1u64;
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            root_powers[r] = modulus.shoup(power);
            inv_root_powers[r] = modulus.shoup(inv_power);
            power = modulus.mul(power, psi);
            inv_power = modulus.mul(inv_power, psi_inv);
        }
        let n_inv = modulus.shoup(modulus.inv(n as u64));
        Self {
            modulus,
            n,
            root_powers,
            inv_root_powers,
            n_inv,
            psi,
        }
    }

    /// The modulus these tables were built for.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The transform degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The primitive `2N`-th root of unity `ψ` used by this table.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// In-place forward negacyclic NTT (natural → bit-reversed order).
    ///
    /// Runs the Harvey lazy pipeline: butterflies keep values in
    /// `[0, 4q)` and one normalization pass per limb canonicalizes at
    /// the end — `N` reductions instead of `N·log2 N`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the degree");
        let m = &self.modulus;
        let two_q = 2 * m.value();
        let mut t = self.n;
        let mut groups = 1usize;
        while groups < self.n {
            t >>= 1;
            for i in 0..groups {
                let w = &self.root_powers[groups + i];
                let base = 2 * i * t;
                // Split the group into its low/high halves so the inner
                // loop indexes two disjoint slices — the shape LLVM
                // vectorizes without bounds checks.
                let (lo, hi) = a[base..base + 2 * t].split_at_mut(t);
                for j in 0..t {
                    // lo[j] < 4q → bring into [0, 2q).
                    let x = csub(lo[j], two_q);
                    // hi[j] < 4q < 2^64 is fine as a lazy Shoup operand;
                    // the product lands in [0, 2q).
                    let v = m.mul_shoup_lazy(hi[j], w);
                    lo[j] = x + v; // < 4q
                    hi[j] = x + two_q - v; // < 4q
                }
            }
            groups <<= 1;
        }
        for x in a.iter_mut() {
            *x = m.reduce_lazy4(*x);
        }
    }

    /// In-place inverse negacyclic NTT (bit-reversed → natural order).
    ///
    /// Lazy Gentleman–Sande: values stay in `[0, 2q)` across stages and
    /// the final `n^{-1}` scaling pass canonicalizes.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the degree");
        let m = &self.modulus;
        let two_q = 2 * m.value();
        let mut t = 1usize;
        let mut groups = self.n >> 1;
        while groups >= 1 {
            let mut base = 0usize;
            for i in 0..groups {
                let w = &self.inv_root_powers[groups + i];
                let (lo, hi) = a[base..base + 2 * t].split_at_mut(t);
                for j in 0..t {
                    // Invariant: lo[j], hi[j] < 2q.
                    let x = lo[j];
                    let y = hi[j];
                    let u = x + y; // < 4q
                    lo[j] = csub(u, two_q);
                    // x + 2q − y < 4q < 2^64; lazy product lands < 2q.
                    hi[j] = m.mul_shoup_lazy(x + two_q - y, w);
                }
                base += 2 * t;
            }
            t <<= 1;
            groups >>= 1;
        }
        // Full Shoup reduction canonicalizes any 64-bit operand.
        for x in a.iter_mut() {
            *x = m.mul_shoup(*x, &self.n_inv);
        }
    }

    /// Negacyclic convolution via NTT: `out = a * b mod (X^N + 1, q)`.
    ///
    /// Both inputs are in coefficient (natural) order; so is the output.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x = self.modulus.mul(*x, *y);
        }
        self.inverse(&mut fa);
        fa
    }
}

/// Naive `O(N^2)` negacyclic convolution, used as a test oracle.
#[allow(clippy::needless_range_loop)] // index math over two arrays
pub fn negacyclic_mul_naive(a: &[u64], b: &[u64], q: &Modulus) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for i in 0..n {
        for j in 0..n {
            let prod = q.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                out[k] = q.add(out[k], prod);
            } else {
                out[k - n] = q.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, bits: u32) -> NttTable {
        let p = generate_ntt_primes(n, bits, 1)[0];
        NttTable::new(Modulus::new(p).unwrap(), n)
    }

    #[test]
    fn roundtrip_small() {
        let t = table(8, 30);
        let orig: Vec<u64> = (0..8).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        assert_ne!(a, orig, "forward must change the data");
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn roundtrip_random_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for log_n in [3usize, 6, 8, 11] {
            let n = 1 << log_n;
            let t = table(n, 45);
            let q = t.modulus().value();
            let orig: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            t.inverse(&mut a);
            assert_eq!(a, orig, "n={n}");
        }
    }

    #[test]
    fn convolution_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 64;
        let t = table(n, 40);
        let q = *t.modulus();
        let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        assert_eq!(t.negacyclic_mul(&a, &b), negacyclic_mul_naive(&a, &b, &q));
    }

    #[test]
    fn x_times_x_n_minus_1_wraps_negatively() {
        // (X^(N-1)) * X = X^N = -1 in the negacyclic ring.
        let n = 16;
        let t = table(n, 30);
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let c = t.negacyclic_mul(&a, &b);
        let q = t.modulus().value();
        assert_eq!(c[0], q - 1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn forward_is_evaluation_at_odd_psi_powers() {
        // NTT output (in bit-reversed order) must contain a(ψ^(2i+1)).
        let n = 8;
        let t = table(n, 30);
        let q = *t.modulus();
        let a: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut f = a.clone();
        t.forward(&mut f);
        let psi = t.psi();
        let mut evals: Vec<u64> = (0..n)
            .map(|i| {
                let x = q.pow(psi, (2 * i + 1) as u64);
                // Horner
                a.iter().rev().fold(0u64, |acc, &c| q.add(q.mul(acc, x), c))
            })
            .collect();
        evals.sort_unstable();
        f.sort_unstable();
        assert_eq!(f, evals);
    }

    #[test]
    fn monomial_x_half_n_is_plus_then_minus_iota() {
        // X^{N/2} at ψ^{2k+1} is ι·(−1)^k with ι = ψ^{N/2}, and in the
        // bit-reversed output order the even k fill the first half:
        // what lets `mul_i` multiply by two scalars instead
        for (n, bits) in [(16, 30), (1024, 50), (1 << 15, 55)] {
            let t = table(n, bits);
            let q = *t.modulus();
            let mut a = vec![0u64; n];
            a[n / 2] = 1;
            t.forward(&mut a);
            let iota = q.pow(t.psi(), n as u64 / 2);
            assert!(a[..n / 2].iter().all(|&x| x == iota), "N = {n}");
            assert!(a[n / 2..].iter().all(|&x| x == q.neg(iota)), "N = {n}");
        }
    }

    #[test]
    fn linearity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 32;
        let t = table(n, 35);
        let q = *t.modulus();
        let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
        t.forward(&mut sum);
        for i in 0..n {
            assert_eq!(sum[i], q.add(fa[i], fb[i]));
        }
    }

    #[test]
    fn lazy_pipeline_matches_eager_reference() {
        // Eager per-butterfly reduction, kept as the bit-identity oracle
        // for the lazy production pipeline.
        fn forward_eager(t: &NttTable, a: &mut [u64]) {
            let m = *t.modulus();
            let n = t.n();
            let mut tt = n;
            let mut groups = 1usize;
            while groups < n {
                tt >>= 1;
                for i in 0..groups {
                    let w = &t.root_powers[groups + i];
                    let base = 2 * i * tt;
                    for j in base..base + tt {
                        let u = a[j];
                        let v = m.mul_shoup(a[j + tt], w);
                        a[j] = m.add(u, v);
                        a[j + tt] = m.sub(u, v);
                    }
                }
                groups <<= 1;
            }
        }
        fn inverse_eager(t: &NttTable, a: &mut [u64]) {
            let m = *t.modulus();
            let n = t.n();
            let mut tt = 1usize;
            let mut groups = n >> 1;
            while groups >= 1 {
                let mut base = 0usize;
                for i in 0..groups {
                    let w = &t.inv_root_powers[groups + i];
                    for j in base..base + tt {
                        let u = a[j];
                        let v = a[j + tt];
                        a[j] = m.add(u, v);
                        a[j + tt] = m.mul_shoup(m.sub(u, v), w);
                    }
                    base += 2 * tt;
                }
                tt <<= 1;
                groups >>= 1;
            }
            for x in a.iter_mut() {
                *x = m.mul_shoup(*x, &t.n_inv);
            }
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // 61-bit primes stress the 4q < 2^64 headroom bound.
        for (n, bits) in [(8usize, 30u32), (64, 45), (256, 61)] {
            let t = table(n, bits);
            let q = t.modulus().value();
            let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
            let mut lazy = a.clone();
            let mut eager = a.clone();
            t.forward(&mut lazy);
            forward_eager(&t, &mut eager);
            assert_eq!(lazy, eager, "forward n={n} bits={bits}");
            t.inverse(&mut lazy);
            inverse_eager(&t, &mut eager);
            assert_eq!(lazy, eager, "inverse n={n} bits={bits}");
            assert_eq!(lazy, a, "roundtrip n={n} bits={bits}");
        }
    }

    /// The largest prime below `2^bits` that is `1 mod 2n`.
    fn largest_ntt_prime(n: usize, bits: u32) -> u64 {
        let step = 2 * n as u64;
        let mut p = (1u64 << bits) - step + 1;
        while !crate::primes::is_prime(p) {
            p -= step;
        }
        p
    }

    #[test]
    fn every_input_at_q_minus_one_on_the_widest_primes() {
        // the top of every lazy window: the largest residue through the
        // largest 61- and 62-bit primes
        for bits in [61, 62] {
            for log_n in [4u32, 10, 15] {
                let n = 1usize << log_n;
                let q = Modulus::new(largest_ntt_prime(n, bits)).unwrap();
                assert_eq!(q.bits(), bits);
                let t = NttTable::new(q, n);
                let a = vec![q.value() - 1; n];
                let mut f = a.clone();
                t.forward(&mut f);
                assert!(f.iter().all(|&x| x < q.value()), "bits={bits} n={n}");
                t.inverse(&mut f);
                assert_eq!(f, a, "roundtrip bits={bits} n={n}");
                if log_n == 4 {
                    assert_eq!(
                        t.negacyclic_mul(&a, &a),
                        negacyclic_mul_naive(&a, &a, &q),
                        "product bits={bits}"
                    );
                }
            }
        }
    }
}
