//! Bailey 4-step NTT with on-the-fly twisting-factor generation (OF-Twist).
//!
//! ARK's NTT unit (Section V-C) implements an `N`-point negacyclic NTT as
//! a `√N × √N` 2D transform: `√N`-point column DFTs, a *twisting* step
//! multiplying element `(k1, j2)` by `ω^{j2·k1}`, a transpose, and
//! `√N`-point row DFTs. The twisting factors form geometric progressions
//! (`ω^{j2·k1}` is geometric in `j2` for fixed `k1`), so the hardware can
//! generate them from a start value and a common ratio instead of loading
//! `N` precomputed words — the paper's **OF-Twist**, which removes ~half
//! of all data loaded during (I)NTT and 99% of twisting-factor storage.
//!
//! This module provides a functional 4-step transform equivalent to
//! [`crate::ntt::NttTable`] (in natural output order) plus the
//! storage/traffic accounting that backs the paper's OF-Twist claims.

use crate::modulus::Modulus;
use crate::primes::primitive_root_of_unity;

/// Cyclic NTT of size `m` with natural-order input and output.
#[derive(Debug, Clone)]
struct CyclicNtt {
    m: usize,
    modulus: Modulus,
    /// ω^i for i in 0..m (ω a primitive m-th root).
    omega_powers: Vec<u64>,
    /// ω^{-i}.
    inv_omega_powers: Vec<u64>,
    m_inv: u64,
}

impl CyclicNtt {
    fn new(modulus: Modulus, m: usize, omega: u64) -> Self {
        let mut omega_powers = Vec::with_capacity(m);
        let mut inv_omega_powers = Vec::with_capacity(m);
        let omega_inv = modulus.inv(omega);
        let (mut w, mut wi) = (1u64, 1u64);
        for _ in 0..m {
            omega_powers.push(w);
            inv_omega_powers.push(wi);
            w = modulus.mul(w, omega);
            wi = modulus.mul(wi, omega_inv);
        }
        let m_inv = modulus.inv(m as u64);
        Self {
            m,
            modulus,
            omega_powers,
            inv_omega_powers,
            m_inv,
        }
    }

    /// Iterative radix-2 DIT FFT; bit-reversal first, natural-order output.
    fn transform(&self, a: &mut [u64], inverse: bool) {
        let m = self.m;
        debug_assert_eq!(a.len(), m);
        let bits = m.trailing_zeros();
        for i in 0..m {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                a.swap(i, j);
            }
        }
        let q = &self.modulus;
        let powers = if inverse {
            &self.inv_omega_powers
        } else {
            &self.omega_powers
        };
        let mut len = 2usize;
        while len <= m {
            let stride = m / len;
            let half = len / 2;
            for start in (0..m).step_by(len) {
                for k in 0..half {
                    let w = powers[k * stride];
                    let u = a[start + k];
                    let v = q.mul(a[start + k + half], w);
                    a[start + k] = q.add(u, v);
                    a[start + k + half] = q.sub(u, v);
                }
            }
            len <<= 1;
        }
        if inverse {
            for x in a.iter_mut() {
                *x = q.mul(*x, self.m_inv);
            }
        }
    }
}

/// 4-step negacyclic NTT of degree `n = n1 * n2` (both powers of two).
///
/// Output is in *natural* order: element `k` is the evaluation at
/// `ψ^(2k+1)`.
///
/// # Examples
///
/// ```
/// use ark_math::modulus::Modulus;
/// use ark_math::ntt4step::FourStepNtt;
/// use ark_math::primes::generate_ntt_primes;
///
/// let n = 64;
/// let q = Modulus::new(generate_ntt_primes(n, 30, 1)[0]).unwrap();
/// let ntt = FourStepNtt::new(q, n);
/// let mut a: Vec<u64> = (0..n as u64).collect();
/// let orig = a.clone();
/// ntt.forward(&mut a);
/// ntt.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct FourStepNtt {
    n: usize,
    n1: usize,
    n2: usize,
    modulus: Modulus,
    psi: u64,
    psi_inv: u64,
    omega: u64,
    omega_inv: u64,
    col_ntt: CyclicNtt,
    row_ntt: CyclicNtt,
}

impl FourStepNtt {
    /// Builds a 4-step transform with `n1 = n2 = √n` when `n` is an even
    /// power of two, else `n1 = 2·n2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or not a power of two, or if the modulus lacks a
    /// `2n`-th root of unity.
    pub fn new(modulus: Modulus, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "n must be a power of two >= 4"
        );
        let log_n = n.trailing_zeros();
        let n1 = 1usize << log_n.div_ceil(2);
        let n2 = n / n1;
        let psi = primitive_root_of_unity(&modulus, 2 * n as u64);
        let omega = modulus.mul(psi, psi); // primitive n-th root
        let col_ntt = CyclicNtt::new(modulus, n1, modulus.pow(omega, n2 as u64));
        let row_ntt = CyclicNtt::new(modulus, n2, modulus.pow(omega, n1 as u64));
        Self {
            n,
            n1,
            n2,
            modulus,
            psi,
            psi_inv: modulus.inv(psi),
            omega,
            omega_inv: modulus.inv(omega),
            col_ntt,
            row_ntt,
        }
    }

    /// The transform degree.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row/column split `(n1, n2)` — ARK uses `√N = 256` lanes.
    pub fn split(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// Forward negacyclic NTT, natural-order output.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let q = &self.modulus;
        // Twist by ψ^j — a geometric progression generated on the fly
        // (OF-Twist): only the start value (1) and ratio (ψ) are "loaded".
        let mut tw = 1u64;
        for x in a.iter_mut() {
            *x = q.mul(*x, tw);
            tw = q.mul(tw, self.psi);
        }
        self.cyclic_4step(a, false);
    }

    /// Inverse negacyclic NTT from natural-order evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let q = &self.modulus;
        self.cyclic_4step(a, true);
        let mut tw = 1u64;
        for x in a.iter_mut() {
            *x = q.mul(*x, tw);
            tw = q.mul(tw, self.psi_inv);
        }
    }

    /// Cyclic DFT_n via column DFTs → twiddle → transpose → row DFTs.
    /// Input index `j = j1*n2 + j2`; output index `k = k2*n1 + k1`.
    fn cyclic_4step(&self, a: &mut [u64], inverse: bool) {
        let (n1, n2) = (self.n1, self.n2);
        let q = &self.modulus;
        let omega = if inverse { self.omega_inv } else { self.omega };

        // Step 1: n2 column DFTs of length n1 (stride n2). The strided
        // access forces a gather → transform → scatter through one flat
        // transposed scratch, whose contiguous rows transform in place.
        let mut colbuf = vec![0u64; self.n];
        for (j2, col) in colbuf.chunks_exact_mut(n1).enumerate() {
            for (j1, c) in col.iter_mut().enumerate() {
                *c = a[j1 * n2 + j2];
            }
            self.col_ntt.transform(col, inverse);
        }
        for (k1, row) in a.chunks_exact_mut(n2).enumerate() {
            for (j2, x) in row.iter_mut().enumerate() {
                *x = colbuf[j2 * n1 + k1];
            }
        }

        // Step 2: twisting factors ω^{j2·k1}. For each k1 (a hardware
        // vector of n2 elements) the factors are geometric with ratio
        // ω^{k1}: generated on the fly from (start=1, ratio).
        for (k1, row) in a.chunks_exact_mut(n2).enumerate() {
            let ratio = q.pow(omega, k1 as u64);
            let mut tw = 1u64;
            for x in row.iter_mut() {
                *x = q.mul(*x, tw);
                tw = q.mul(tw, ratio);
            }
        }

        // Step 3 + 4: n1 row DFTs of length n2 — rows are contiguous, so
        // they transform in place — then the transpose into the output
        // layout (a data-layout step in hardware). The two small inverse
        // transforms each divided by their own size; together that is
        // exactly n — nothing left to scale.
        for row in a.chunks_exact_mut(n2) {
            self.row_ntt.transform(row, inverse);
        }
        let mut out = colbuf; // reuse the step-1 scratch
        for (k2, orow) in out.chunks_exact_mut(n1).enumerate() {
            for (k1, x) in orow.iter_mut().enumerate() {
                *x = a[k1 * n2 + k2];
            }
        }
        a.copy_from_slice(&out);
    }

    /// Words of twisting-factor storage *without* OF-Twist: every element
    /// needs its own factor (`N` per limb: ψ-twist) plus `N` step-2
    /// twiddles.
    pub fn twist_storage_words_baseline(&self) -> usize {
        2 * self.n
    }

    /// Words of twisting-factor storage *with* OF-Twist: a start value and
    /// a common ratio per generated progression (1 for the ψ-twist, `n1`
    /// for step 2).
    pub fn twist_storage_words_of_twist(&self) -> usize {
        2 * (1 + self.n1)
    }

    /// Fraction of twisting-factor storage removed by OF-Twist.
    /// The paper reports ~99% for `N = 2^16`.
    pub fn of_twist_storage_saving(&self) -> f64 {
        1.0 - self.twist_storage_words_of_twist() as f64
            / self.twist_storage_words_baseline() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttTable;
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn modulus(n: usize) -> Modulus {
        Modulus::new(generate_ntt_primes(n, 45, 1)[0]).unwrap()
    }

    #[test]
    fn roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for n in [16usize, 64, 128, 1024] {
            let q = modulus(n);
            let ntt = FourStepNtt::new(q, n);
            let orig: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
            let mut a = orig.clone();
            ntt.forward(&mut a);
            assert_ne!(a, orig);
            ntt.inverse(&mut a);
            assert_eq!(a, orig, "n={n}");
        }
    }

    #[test]
    fn matches_radix2_ntt_as_multiset_and_pointwise() {
        // The 4-step output is the radix-2 output un-bit-reversed.
        let n = 256;
        let q = modulus(n);
        let four = FourStepNtt::new(q, n);
        let radix2 = NttTable::new(q, n);
        assert_eq!(four.psi, radix2.psi(), "same root chosen deterministically");
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let mut f4 = a.clone();
        four.forward(&mut f4);
        let mut f2 = a.clone();
        radix2.forward(&mut f2);
        let bits = n.trailing_zeros();
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let br = i.reverse_bits() >> (usize::BITS - bits);
            assert_eq!(f4[i], f2[br], "natural index {i}");
        }
    }

    #[test]
    fn split_shapes() {
        let q = modulus(1 << 10);
        let ntt = FourStepNtt::new(q, 1 << 10);
        assert_eq!(ntt.split(), (32, 32));
        let q = modulus(1 << 11);
        let ntt = FourStepNtt::new(q, 1 << 11);
        assert_eq!(ntt.split(), (64, 32));
    }

    #[test]
    fn of_twist_saves_nearly_all_storage() {
        let n = 1 << 12;
        let ntt = FourStepNtt::new(modulus(n), n);
        let saving = ntt.of_twist_storage_saving();
        assert!(saving > 0.96, "saving was {saving}");
        // At the paper's N = 2^16 the saving passes 99%.
        let baseline = 2 * (1usize << 16);
        let oftwist = 2 * (1 + 256);
        assert!(1.0 - oftwist as f64 / baseline as f64 > 0.99);
    }

    #[test]
    fn convolution_through_four_step() {
        let n = 64;
        let q = modulus(n);
        let ntt = FourStepNtt::new(q, n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        ntt.forward(&mut fa);
        ntt.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x = q.mul(*x, *y);
        }
        ntt.inverse(&mut fa);
        assert_eq!(fa, crate::ntt::negacyclic_mul_naive(&a, &b, &q));
    }
}
