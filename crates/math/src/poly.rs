//! RNS polynomials: flat limb-major `(limbs × N)` word buffers.
//!
//! A polynomial of `R_Q` with `Q = Π q_i` is stored as one row (*limb*)
//! per prime `q_i` (Section II-B), all rows packed into **one
//! contiguous `Vec<u64>`**: limb at storage position `pos` occupies
//! `data[pos*N .. (pos+1)*N]`. The layout matches the paper's
//! bandwidth-oriented cycle model (streaming kernels walk one cache-
//! friendly buffer) and the flat-limb idiom of the starky exemplars.
//! Limbs are tagged with indices into a shared [`RnsBasis`] — the
//! ordered set `D = C ∪ B` of chain primes and special primes — so
//! level changes (`HRescale`), limb extension (key-switching, OF-Limb)
//! and base conversion are index juggling plus word arithmetic, never
//! big-integer math.
//!
//! Callers read one row with [`RnsPoly::limb`] or the whole buffer with
//! [`RnsPoly::flat`]; every write goes through the limb-wise kernels
//! below, or through [`RnsPoly::par_update_limbs`] for a custom
//! per-limb kernel (rescale, ModRaise).

use crate::automorphism::{self, GaloisElement};
use crate::modulus::Modulus;
use crate::ntt::{self, NttDirection, NttTable};
use crate::par::ThreadPool;
use crate::rows;
use crate::scratch::ScratchArena;
use rand::{Rng, SeedableRng};

/// Derives a child seed from `(seed, tweak)` with a SplitMix64-style
/// finalizer — the domain-separation primitive behind every
/// seed-compressed object (evaluation keys, public keys): one 64-bit
/// master seed fans out into independent per-piece, per-limb streams.
/// Not a cryptographic PRF; it matches the security posture of the
/// vendored xoshiro `StdRng` it feeds (see `vendor/rand`).
pub fn derive_seed(seed: u64, tweak: u64) -> u64 {
    let mut z = seed ^ tweak.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator behind the row of basis limb `idx` in
/// [`RnsPoly::from_seed`]`(.., seed)`: that row is `N` successive
/// `gen_range(0..q_idx)` draws from it. A kernel that regenerates a
/// uniform row where it consumes it (the key-switch inner product)
/// draws from this same generator, so its words are the row's words.
pub fn seeded_row_rng(seed: u64, idx: usize) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(derive_seed(seed, idx as u64))
}

/// Whether limb data is in coefficient or evaluation (NTT) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Natural coefficient order — required by BConv and automorphism
    /// index math on coefficients.
    Coefficient,
    /// NTT-transformed (bit-reversed) order — element-wise products.
    Evaluation,
}

/// An ordered set of NTT-ready prime limbs shared by all polynomials.
///
/// For CKKS this is `D = {q_0, …, q_L, p_0, …, p_{α−1}}`: indices
/// `0..=L` are the chain primes `C`, the rest the special primes `B`.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    n: usize,
    moduli: Vec<Modulus>,
    tables: Vec<NttTable>,
    pool: ThreadPool,
}

impl RnsBasis {
    /// Builds a basis of NTT tables for degree `n` over distinct primes,
    /// executing limb loops serially (see [`RnsBasis::with_pool`]).
    ///
    /// # Panics
    ///
    /// Panics if primes repeat, are not NTT-friendly for `n`, or are not
    /// valid moduli.
    pub fn new(n: usize, primes: &[u64]) -> Self {
        Self::with_pool(n, primes, ThreadPool::serial())
    }

    /// Builds a basis whose per-limb hot loops fan out across `pool`.
    /// Any pool width produces bit-identical results to the serial
    /// basis (limbs are independent and their arithmetic exact).
    ///
    /// # Panics
    ///
    /// As for [`RnsBasis::new`].
    pub fn with_pool(n: usize, primes: &[u64], pool: ThreadPool) -> Self {
        let mut seen = primes.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), primes.len(), "basis primes must be distinct");
        let moduli: Vec<Modulus> = primes
            .iter()
            .map(|&p| Modulus::new(p).expect("valid modulus"))
            .collect();
        let tables: Vec<NttTable> = moduli.iter().map(|&q| NttTable::new(q, n)).collect();
        Self {
            n,
            moduli,
            tables,
            pool,
        }
    }

    /// The thread pool this basis fans limb loops out on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Polynomial degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of primes in the basis.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True if the basis holds no primes (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The modulus at basis index `idx`.
    pub fn modulus(&self, idx: usize) -> &Modulus {
        &self.moduli[idx]
    }

    /// The NTT table at basis index `idx`.
    pub fn table(&self, idx: usize) -> &NttTable {
        &self.tables[idx]
    }
}

/// A polynomial as a set of RNS limbs over a shared [`RnsBasis`],
/// stored limb-major in one contiguous buffer.
///
/// # Examples
///
/// ```
/// use ark_math::poly::{RnsBasis, RnsPoly, Representation};
/// use ark_math::primes::generate_ntt_primes;
///
/// let n = 16;
/// let basis = RnsBasis::new(n, &generate_ntt_primes(n, 30, 2));
/// let p = RnsPoly::from_signed_coeffs(&basis, &[0, 1], &vec![1i64; n]);
/// assert_eq!(p.level_count(), 2);
/// assert_eq!(p.representation(), Representation::Coefficient);
/// // limb 1 is the second contiguous row of the flat buffer
/// assert_eq!(p.limb(1), &p.flat()[n..2 * n]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    n: usize,
    rep: Representation,
    limb_idx: Vec<usize>,
    data: Vec<u64>,
}

impl RnsPoly {
    /// The zero polynomial over the given basis indices.
    pub fn zero(basis: &RnsBasis, indices: &[usize], rep: Representation) -> Self {
        Self {
            n: basis.n(),
            rep,
            limb_idx: indices.to_vec(),
            data: vec![0u64; indices.len() * basis.n()],
        }
    }

    /// The zero polynomial with storage drawn from `arena` (recycle it
    /// with [`RnsPoly::recycle`] once the value dies).
    pub fn zero_in(
        arena: &mut ScratchArena,
        basis: &RnsBasis,
        indices: &[usize],
        rep: Representation,
    ) -> Self {
        let mut limb_idx = arena.take_indices(indices.len());
        limb_idx.extend_from_slice(indices);
        Self {
            n: basis.n(),
            rep,
            limb_idx,
            data: arena.take_zeroed(indices.len() * basis.n()),
        }
    }

    /// Builds a polynomial from signed coefficients, reducing into every
    /// requested limb.
    pub fn from_signed_coeffs(basis: &RnsBasis, indices: &[usize], coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), basis.n(), "coefficient count must equal N");
        let n = basis.n();
        let mut data = Vec::with_capacity(indices.len() * n);
        for &i in indices {
            let q = basis.modulus(i);
            data.extend(coeffs.iter().map(|&c| q.from_i64(c)));
        }
        Self {
            n,
            rep: Representation::Coefficient,
            limb_idx: indices.to_vec(),
            data,
        }
    }

    /// Builds a polynomial directly from a flat limb-major buffer
    /// (limb `pos` at `data[pos*N..(pos+1)*N]`, already reduced).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != indices.len() * basis.n()`.
    pub fn from_flat(
        basis: &RnsBasis,
        indices: &[usize],
        rep: Representation,
        data: Vec<u64>,
    ) -> Self {
        assert_eq!(
            data.len(),
            indices.len() * basis.n(),
            "flat buffer must hold limbs × N words"
        );
        Self {
            n: basis.n(),
            rep,
            limb_idx: indices.to_vec(),
            data,
        }
    }

    /// Uniformly random polynomial (each limb uniform in `[0, q_i)`).
    pub fn random_uniform<R: rand::Rng>(
        basis: &RnsBasis,
        indices: &[usize],
        rep: Representation,
        rng: &mut R,
    ) -> Self {
        let n = basis.n();
        let mut data = Vec::with_capacity(indices.len() * n);
        for &i in indices {
            let q = basis.modulus(i).value();
            data.extend((0..n).map(|_| rng.gen_range(0..q)));
        }
        Self {
            n,
            rep,
            limb_idx: indices.to_vec(),
            data,
        }
    }

    /// Uniformly random polynomial expanded deterministically from a
    /// 64-bit seed — the *runtime data generation* primitive of the
    /// paper: the uniform `a` half of an RLWE pair need not be stored
    /// or shipped because any party can re-derive it from the seed.
    ///
    /// The row for basis limb `i` depends only on `(seed, i)`: each
    /// limb draws from its own child generator ([`seeded_row_rng`]),
    /// so the expansion is identical regardless of which other limbs
    /// are requested, in what order, or how wide the basis thread pool
    /// is. In particular
    /// `from_seed(.., &[0, 1, 2], ..).subset(&[0, 2])` equals
    /// `from_seed(.., &[0, 2], ..)`.
    pub fn from_seed(basis: &RnsBasis, indices: &[usize], rep: Representation, seed: u64) -> Self {
        let n = basis.n();
        let mut data = vec![0u64; indices.len() * n];
        basis
            .pool()
            .for_work(data.len())
            .par_for_each_row(&mut data, n, |pos, row| {
                let idx = indices[pos];
                let q = basis.modulus(idx).value();
                let mut rng = seeded_row_rng(seed, idx);
                for x in row.iter_mut() {
                    *x = rng.gen_range(0..q);
                }
            });
        Self {
            n,
            rep,
            limb_idx: indices.to_vec(),
            data,
        }
    }

    /// Whether this polynomial's words are exactly those of
    /// [`Self::from_seed`]`(basis, self.limb_indices(), .., seed)`.
    /// Each row is compared against its own generator and the check
    /// stops at the first word that differs, so a wrong seed costs a
    /// draw or two, not a regeneration.
    pub fn matches_seed(&self, basis: &RnsBasis, seed: u64) -> bool {
        let rows = self.data.chunks_exact(self.n);
        self.limb_idx.iter().zip(rows).all(|(&idx, row)| {
            let q = basis.modulus(idx).value();
            let mut rng = seeded_row_rng(seed, idx);
            row.iter().all(|&w| rng.gen_range(0..q) == w)
        })
    }

    /// Degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current representation.
    pub fn representation(&self) -> Representation {
        self.rep
    }

    /// Number of limbs.
    pub fn level_count(&self) -> usize {
        self.limb_idx.len()
    }

    /// Basis indices of the limbs, in storage order.
    pub fn limb_indices(&self) -> &[usize] {
        &self.limb_idx
    }

    /// The whole flat limb-major buffer (limb `pos` at
    /// `flat()[pos*N..(pos+1)*N]`).
    pub fn flat(&self) -> &[u64] {
        &self.data
    }

    /// Assembles a polynomial from owned parts without copying — the
    /// zero-allocation counterpart of [`RnsPoly::from_flat`] for callers
    /// holding arena-recycled vectors.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != limb_idx.len() * n`.
    pub fn from_parts(n: usize, rep: Representation, limb_idx: Vec<usize>, data: Vec<u64>) -> Self {
        assert_eq!(
            data.len(),
            limb_idx.len() * n,
            "flat buffer must hold limbs × N words"
        );
        Self {
            n,
            rep,
            limb_idx,
            data,
        }
    }

    /// Returns this polynomial's storage to `arena`.
    pub fn recycle(self, arena: &mut ScratchArena) {
        arena.put(self.data);
        arena.put_indices(self.limb_idx);
    }

    /// Raw limb row for storage position `pos`.
    pub fn limb(&self, pos: usize) -> &[u64] {
        &self.data[pos * self.n..(pos + 1) * self.n]
    }

    /// Storage position of the limb with basis index `idx`, if present.
    pub fn position_of(&self, idx: usize) -> Option<usize> {
        self.limb_idx.iter().position(|&i| i == idx)
    }

    fn assert_compatible(&self, other: &Self) {
        assert_eq!(self.n, other.n, "degree mismatch");
        assert_eq!(self.rep, other.rep, "representation mismatch");
        assert_eq!(self.limb_idx, other.limb_idx, "limb set mismatch");
    }

    /// `self += other`, limb-wise.
    ///
    /// # Panics
    ///
    /// Panics if degrees, representations or limb sets differ.
    pub fn add_assign(&mut self, other: &Self, basis: &RnsBasis) {
        self.assert_compatible(other);
        let n = self.n;
        let idx = &self.limb_idx;
        basis.pool().for_work(self.data.len()).par_zip_rows(
            &mut self.data,
            &other.data,
            n,
            |pos, dst, src| {
                rows::add_rows(basis.modulus(idx[pos]), dst, src);
            },
        );
    }

    /// `self -= other`, limb-wise.
    ///
    /// # Panics
    ///
    /// Panics if degrees, representations or limb sets differ.
    pub fn sub_assign(&mut self, other: &Self, basis: &RnsBasis) {
        self.assert_compatible(other);
        let n = self.n;
        let idx = &self.limb_idx;
        basis.pool().for_work(self.data.len()).par_zip_rows(
            &mut self.data,
            &other.data,
            n,
            |pos, dst, src| {
                rows::sub_rows(basis.modulus(idx[pos]), dst, src);
            },
        );
    }

    /// Negates in place.
    pub fn negate(&mut self, basis: &RnsBasis) {
        self.par_update_limbs(basis, |_pos, idx, row| {
            rows::neg_rows(basis.modulus(idx), row);
        });
    }

    /// Element-wise product (both operands in evaluation representation).
    ///
    /// # Panics
    ///
    /// Panics unless both polynomials are in [`Representation::Evaluation`]
    /// with identical limb sets.
    pub fn mul_assign(&mut self, other: &Self, basis: &RnsBasis) {
        assert_eq!(
            self.rep,
            Representation::Evaluation,
            "mul needs evaluation rep"
        );
        self.assert_compatible(other);
        let n = self.n;
        let idx = &self.limb_idx;
        basis.pool().for_work(self.data.len()).par_zip_rows(
            &mut self.data,
            &other.data,
            n,
            |pos, dst, src| {
                rows::mul_rows(basis.modulus(idx[pos]), dst, src);
            },
        );
    }

    /// Fused `self += a * b` without materializing the product.
    ///
    /// # Panics
    ///
    /// As for [`RnsPoly::mul_assign`].
    pub fn mul_add_assign(&mut self, a: &Self, b: &Self, basis: &RnsBasis) {
        assert_eq!(self.rep, Representation::Evaluation);
        self.assert_compatible(a);
        self.assert_compatible(b);
        let n = self.n;
        let idx = &self.limb_idx;
        basis.pool().for_work(self.data.len()).par_zip2_rows(
            &mut self.data,
            &a.data,
            &b.data,
            n,
            |pos, acc, arow, brow| {
                rows::mul_add_rows(basis.modulus(idx[pos]), acc, arow, brow);
            },
        );
    }

    /// Fused `self += a * b` where `b` may carry a *superset* of the
    /// accumulator's limbs (matched by basis index). This is the
    /// key-switch inner-product shape: evaluation-key pieces live on
    /// the full extended basis while the accumulator lives on the
    /// current level's extension, and selecting rows by index here
    /// avoids materializing `b.subset(...)` per digit.
    ///
    /// # Panics
    ///
    /// Panics if `a` is incompatible, or `b` misses a limb or is not in
    /// evaluation representation.
    pub fn mul_add_assign_select(&mut self, a: &Self, b: &Self, basis: &RnsBasis) {
        assert_eq!(self.rep, Representation::Evaluation);
        self.assert_compatible(a);
        assert_eq!(self.n, b.n, "degree mismatch");
        assert_eq!(b.rep, Representation::Evaluation, "rep mismatch");
        let n = self.n;
        let idx = &self.limb_idx;
        basis.pool().for_work(self.data.len()).par_zip_rows(
            &mut self.data,
            &a.data,
            n,
            |pos, acc, arow| {
                let i = idx[pos];
                let bpos = b
                    .position_of(i)
                    .unwrap_or_else(|| panic!("limb {i} missing from operand"));
                rows::mul_add_rows(basis.modulus(i), acc, arow, b.limb(bpos));
            },
        );
    }

    /// Multiplies every coefficient of limb `q_i` by `scalars[pos]`.
    pub fn mul_scalar_per_limb(&mut self, scalars: &[u64], basis: &RnsBasis) {
        assert_eq!(scalars.len(), self.limb_idx.len());
        self.par_update_limbs(basis, |pos, idx, row| {
            let q = basis.modulus(idx);
            let s = q.reduce(scalars[pos]);
            let pre = q.shoup(s);
            rows::mul_shoup_rows(q, row, &pre);
        });
    }

    /// Converts to evaluation representation (no-op if already there).
    pub fn to_eval(&mut self, basis: &RnsBasis) {
        if self.rep == Representation::Evaluation {
            return;
        }
        let idx = &self.limb_idx;
        let pool = basis.pool().for_work(self.data.len());
        ntt::transform_limbs(
            &mut self.data,
            self.n,
            |pos| basis.table(idx[pos]),
            NttDirection::Forward,
            pool,
        );
        self.rep = Representation::Evaluation;
    }

    /// Converts to coefficient representation (no-op if already there).
    pub fn to_coeff(&mut self, basis: &RnsBasis) {
        if self.rep == Representation::Coefficient {
            return;
        }
        let idx = &self.limb_idx;
        let pool = basis.pool().for_work(self.data.len());
        ntt::transform_limbs(
            &mut self.data,
            self.n,
            |pos| basis.table(idx[pos]),
            NttDirection::Inverse,
            pool,
        );
        self.rep = Representation::Coefficient;
    }

    /// Applies the Galois automorphism `X ↦ X^g` in either representation.
    pub fn automorphism(&self, g: GaloisElement, basis: &RnsBasis) -> Self {
        let mut out = vec![0u64; self.data.len()];
        let n = self.n;
        let idx = &self.limb_idx;
        let pool = basis.pool().for_work(self.data.len());
        match self.rep {
            Representation::Coefficient => {
                pool.par_zip_rows(&mut out, &self.data, n, |pos, orow, irow| {
                    automorphism::apply_coeff_into(irow, g, basis.modulus(idx[pos]), orow);
                });
            }
            Representation::Evaluation => {
                let perm = automorphism::eval_permutation(n, g);
                pool.par_zip_rows(&mut out, &self.data, n, |_pos, orow, irow| {
                    automorphism::apply_eval_into(irow, &perm, orow);
                });
            }
        }
        Self {
            n,
            rep: self.rep,
            limb_idx: self.limb_idx.clone(),
            data: out,
        }
    }

    /// Applies a precomputed evaluation-representation automorphism
    /// permutation (from [`automorphism::eval_permutation`]) to every
    /// limb. The hoisted key-switching hot path applies one Galois map
    /// to *every* raised digit, so the caller computes the table once
    /// and reuses it here instead of paying [`Self::automorphism`]'s
    /// per-call table build per digit.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is not in the evaluation representation
    /// or the permutation length differs from the ring degree.
    pub fn permute_eval(&self, perm: &[usize], basis: &RnsBasis) -> Self {
        let mut out = vec![0u64; self.data.len()];
        self.permute_eval_into(perm, basis, &mut out);
        Self {
            n: self.n,
            rep: self.rep,
            limb_idx: self.limb_idx.clone(),
            data: out,
        }
    }

    /// [`RnsPoly::permute_eval`] with output storage drawn from `arena`.
    pub fn permute_eval_in(
        &self,
        arena: &mut ScratchArena,
        perm: &[usize],
        basis: &RnsBasis,
    ) -> Self {
        let mut out = arena.take(self.data.len());
        self.permute_eval_into(perm, basis, &mut out);
        let mut limb_idx = arena.take_indices(self.limb_idx.len());
        limb_idx.extend_from_slice(&self.limb_idx);
        Self {
            n: self.n,
            rep: self.rep,
            limb_idx,
            data: out,
        }
    }

    /// Applies a precomputed evaluation permutation, writing into an
    /// existing buffer (no allocation) — the innermost hoisted-rotation
    /// kernel.
    ///
    /// # Panics
    ///
    /// As for [`RnsPoly::permute_eval`], plus a length check on `out`.
    pub fn permute_eval_into(&self, perm: &[usize], basis: &RnsBasis, out: &mut [u64]) {
        assert_eq!(
            self.rep,
            Representation::Evaluation,
            "permute_eval acts on the evaluation representation"
        );
        assert_eq!(perm.len(), self.n, "permutation/degree mismatch");
        assert_eq!(out.len(), self.data.len(), "output buffer mismatch");
        let n = self.n;
        basis.pool().for_work(self.data.len()).par_zip_rows(
            out,
            &self.data,
            n,
            |_pos, orow, irow| {
                automorphism::apply_eval_into(irow, perm, orow);
            },
        );
    }

    /// Applies `f(pos, basis_index, row)` to every limb, fanning out over
    /// the basis pool. `f` must treat limbs independently (it runs
    /// concurrently on a parallel pool) — the contract every RNS op here
    /// already satisfies. This is the extension point callers (rescale,
    /// ModRaise) use for custom per-limb kernels.
    pub fn par_update_limbs<F>(&mut self, basis: &RnsBasis, f: F)
    where
        F: Fn(usize, usize, &mut [u64]) + Sync,
    {
        let idx = &self.limb_idx;
        let n = self.n;
        basis
            .pool()
            .for_work(self.data.len())
            .par_for_each_row(&mut self.data, n, |pos, row| f(pos, idx[pos], row));
    }

    /// Returns a new polynomial restricted to the given basis indices
    /// (which must all be present).
    ///
    /// # Panics
    ///
    /// Panics if an index is missing.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.n);
        for &i in indices {
            let pos = self
                .position_of(i)
                .unwrap_or_else(|| panic!("limb {i} not present"));
            data.extend_from_slice(self.limb(pos));
        }
        Self {
            n: self.n,
            rep: self.rep,
            limb_idx: indices.to_vec(),
            data,
        }
    }

    /// [`RnsPoly::subset`] with storage drawn from `arena`.
    ///
    /// # Panics
    ///
    /// Panics if an index is missing.
    pub fn subset_in(&self, arena: &mut ScratchArena, indices: &[usize]) -> Self {
        let mut data = arena.take(indices.len() * self.n);
        for (k, &i) in indices.iter().enumerate() {
            let pos = self
                .position_of(i)
                .unwrap_or_else(|| panic!("limb {i} not present"));
            data[k * self.n..(k + 1) * self.n].copy_from_slice(self.limb(pos));
        }
        let mut limb_idx = arena.take_indices(indices.len());
        limb_idx.extend_from_slice(indices);
        Self {
            n: self.n,
            rep: self.rep,
            limb_idx,
            data,
        }
    }

    /// A deep copy with storage drawn from `arena`.
    pub fn clone_in(&self, arena: &mut ScratchArena) -> Self {
        let mut data = arena.take(self.data.len());
        data.copy_from_slice(&self.data);
        let mut limb_idx = arena.take_indices(self.limb_idx.len());
        limb_idx.extend_from_slice(&self.limb_idx);
        Self {
            n: self.n,
            rep: self.rep,
            limb_idx,
            data,
        }
    }

    /// Total words of storage, the unit of the paper's data-size and
    /// traffic accounting (`limbs × N`).
    pub fn words(&self) -> usize {
        self.limb_idx.len() * self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::SeedableRng;

    fn basis(n: usize, k: usize) -> RnsBasis {
        RnsBasis::new(n, &generate_ntt_primes(n, 40, k))
    }

    #[test]
    fn zero_poly_shape() {
        let b = basis(16, 3);
        let p = RnsPoly::zero(&b, &[0, 1, 2], Representation::Coefficient);
        assert_eq!(p.level_count(), 3);
        assert_eq!(p.words(), 48);
        assert!(p.limb(0).iter().all(|&x| x == 0));
    }

    #[test]
    fn flat_layout_is_limb_major_and_contiguous() {
        let b = basis(16, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let p = RnsPoly::random_uniform(&b, &[0, 1, 2], Representation::Coefficient, &mut rng);
        assert_eq!(p.flat().len(), 3 * 16);
        for pos in 0..3 {
            assert_eq!(p.limb(pos), &p.flat()[pos * 16..(pos + 1) * 16]);
        }
    }

    #[test]
    fn arena_constructors_match_plain_ones() {
        let b = basis(16, 3);
        let mut arena = ScratchArena::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        let p = RnsPoly::random_uniform(&b, &[0, 1, 2], Representation::Coefficient, &mut rng);

        let z = RnsPoly::zero_in(&mut arena, &b, &[0, 1], Representation::Evaluation);
        assert_eq!(z, RnsPoly::zero(&b, &[0, 1], Representation::Evaluation));
        z.recycle(&mut arena);

        let s = p.subset_in(&mut arena, &[0, 2]);
        assert_eq!(s, p.subset(&[0, 2]));
        s.recycle(&mut arena);

        let c = p.clone_in(&mut arena);
        assert_eq!(c, p);
        c.recycle(&mut arena);

        // steady state: everything above now reuses pooled buffers
        let before = arena.stats().fresh;
        let s2 = p.subset_in(&mut arena, &[1, 2]);
        assert_eq!(arena.stats().fresh, before, "no fresh allocation");
        s2.recycle(&mut arena);
    }

    #[test]
    fn add_sub_roundtrip() {
        let b = basis(32, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let idx = [0usize, 1];
        let a = RnsPoly::random_uniform(&b, &idx, Representation::Coefficient, &mut rng);
        let c = RnsPoly::random_uniform(&b, &idx, Representation::Coefficient, &mut rng);
        let mut s = a.clone();
        s.add_assign(&c, &b);
        s.sub_assign(&c, &b);
        assert_eq!(s, a);
    }

    #[test]
    fn negate_twice_is_identity() {
        let b = basis(32, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = RnsPoly::random_uniform(&b, &[0, 1], Representation::Coefficient, &mut rng);
        let mut c = a.clone();
        c.negate(&b);
        c.negate(&b);
        assert_eq!(c, a);
    }

    #[test]
    fn ntt_roundtrip_via_poly() {
        let b = basis(64, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = RnsPoly::random_uniform(&b, &[0, 1, 2], Representation::Coefficient, &mut rng);
        let mut c = a.clone();
        c.to_eval(&b);
        assert_eq!(c.representation(), Representation::Evaluation);
        c.to_coeff(&b);
        assert_eq!(c, a);
    }

    #[test]
    fn eval_mul_matches_negacyclic_convolution() {
        let b = basis(32, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let idx = [0usize, 1];
        let a = RnsPoly::random_uniform(&b, &idx, Representation::Coefficient, &mut rng);
        let c = RnsPoly::random_uniform(&b, &idx, Representation::Coefficient, &mut rng);
        let mut ea = a.clone();
        let mut ec = c.clone();
        ea.to_eval(&b);
        ec.to_eval(&b);
        ea.mul_assign(&ec, &b);
        ea.to_coeff(&b);
        for (pos, &i) in idx.iter().enumerate() {
            let expect = b.table(i).negacyclic_mul(a.limb(pos), c.limb(pos));
            assert_eq!(ea.limb(pos), &expect[..]);
        }
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let b = basis(16, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let idx = [0usize, 1];
        let mut acc = RnsPoly::random_uniform(&b, &idx, Representation::Evaluation, &mut rng);
        let x = RnsPoly::random_uniform(&b, &idx, Representation::Evaluation, &mut rng);
        let y = RnsPoly::random_uniform(&b, &idx, Representation::Evaluation, &mut rng);
        let mut expect = acc.clone();
        let mut prod = x.clone();
        prod.mul_assign(&y, &b);
        expect.add_assign(&prod, &b);
        acc.mul_add_assign(&x, &y, &b);
        assert_eq!(acc, expect);
    }

    #[test]
    fn mul_add_select_matches_subset_then_mul_add() {
        let b = basis(16, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let small = [0usize, 2];
        let full = [0usize, 1, 2, 3];
        let mut acc = RnsPoly::random_uniform(&b, &small, Representation::Evaluation, &mut rng);
        let a = RnsPoly::random_uniform(&b, &small, Representation::Evaluation, &mut rng);
        let wide = RnsPoly::random_uniform(&b, &full, Representation::Evaluation, &mut rng);
        let mut expect = acc.clone();
        expect.mul_add_assign(&a, &wide.subset(&small), &b);
        acc.mul_add_assign_select(&a, &wide, &b);
        assert_eq!(acc, expect);
    }

    #[test]
    fn automorphism_agrees_across_representations() {
        let b = basis(64, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a = RnsPoly::random_uniform(&b, &[0, 1], Representation::Coefficient, &mut rng);
        let g = GaloisElement::from_rotation(3, 64);
        let via_coeff = {
            let mut r = a.automorphism(g, &b);
            r.to_eval(&b);
            r
        };
        let via_eval = {
            let mut r = a.clone();
            r.to_eval(&b);
            r.automorphism(g, &b)
        };
        assert_eq!(via_coeff, via_eval);
    }

    #[test]
    #[should_panic(expected = "limb set mismatch")]
    fn mismatched_limb_sets_panic() {
        let b = basis(16, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut a = RnsPoly::random_uniform(&b, &[0, 1], Representation::Coefficient, &mut rng);
        let c = RnsPoly::random_uniform(&b, &[0, 2], Representation::Coefficient, &mut rng);
        a.add_assign(&c, &b);
    }

    #[test]
    fn from_seed_is_deterministic_and_limb_set_independent() {
        let b = basis(32, 4);
        let p = RnsPoly::from_seed(&b, &[0, 1, 2, 3], Representation::Evaluation, 0xfeed);
        let q = RnsPoly::from_seed(&b, &[0, 1, 2, 3], Representation::Evaluation, 0xfeed);
        assert_eq!(p, q);
        // residues are reduced
        for (pos, &i) in p.limb_indices().iter().enumerate() {
            let m = b.modulus(i).value();
            assert!(p.limb(pos).iter().all(|&w| w < m));
        }
        // each limb depends only on (seed, limb index), not on which
        // other limbs were requested
        let sub = RnsPoly::from_seed(&b, &[0, 2], Representation::Evaluation, 0xfeed);
        assert_eq!(sub, p.subset(&[0, 2]));
        // different seeds diverge
        let other = RnsPoly::from_seed(&b, &[0, 1, 2, 3], Representation::Evaluation, 0xfeee);
        assert_ne!(other, p);
    }

    #[test]
    fn matches_seed_accepts_exactly_the_expansion() {
        let b = basis(32, 4);
        let p = RnsPoly::from_seed(&b, &[0, 1, 3], Representation::Evaluation, 0xfeed);
        assert!(p.matches_seed(&b, 0xfeed));
        assert!(p.subset(&[0, 3]).matches_seed(&b, 0xfeed));
        assert!(!p.matches_seed(&b, 0xfeee));
        // one word off, in the last row's last slot
        let mut data = p.flat().to_vec();
        let last = data.len() - 1;
        data[last] = (data[last] + 1) % b.modulus(3).value();
        let off = RnsPoly::from_flat(&b, &[0, 1, 3], Representation::Evaluation, data);
        assert!(!off.matches_seed(&b, 0xfeed));
    }

    #[test]
    fn derive_seed_separates_tweaks() {
        let a = crate::poly::derive_seed(1, 0);
        let b = crate::poly::derive_seed(1, 1);
        let c = crate::poly::derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, crate::poly::derive_seed(1, 0));
    }

    #[test]
    fn normalize_rotation_is_the_single_choke_point() {
        use crate::automorphism::GaloisElement;
        let slots = 16usize;
        assert_eq!(GaloisElement::normalize_rotation(0, slots), 0);
        assert_eq!(GaloisElement::normalize_rotation(16, slots), 0);
        assert_eq!(GaloisElement::normalize_rotation(-16, slots), 0);
        assert_eq!(GaloisElement::normalize_rotation(-1, slots), 15);
        assert_eq!(GaloisElement::normalize_rotation(3 - 16, slots), 3);
        // r and r − n_slots resolve to the same Galois element
        let n = 2 * slots;
        assert_eq!(
            GaloisElement::from_rotation(3, n),
            GaloisElement::from_rotation(3 - slots as i64, n)
        );
    }

    #[test]
    fn scalar_multiplication_distributes() {
        let b = basis(16, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let idx = [0usize, 1];
        let a = RnsPoly::random_uniform(&b, &idx, Representation::Coefficient, &mut rng);
        let c = RnsPoly::random_uniform(&b, &idx, Representation::Coefficient, &mut rng);
        let mut sum = a.clone();
        sum.add_assign(&c, &b);
        sum.mul_scalar_per_limb(&[7, 7], &b);
        let mut a7 = a.clone();
        a7.mul_scalar_per_limb(&[7, 7], &b);
        let mut c7 = c.clone();
        c7.mul_scalar_per_limb(&[7, 7], &b);
        a7.add_assign(&c7, &b);
        assert_eq!(sum, a7);
    }

    #[test]
    fn permute_eval_in_matches_permute_eval() {
        let b = basis(32, 2);
        let mut arena = ScratchArena::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = RnsPoly::random_uniform(&b, &[0, 1], Representation::Evaluation, &mut rng);
        let g = GaloisElement::from_rotation(5, 32);
        let perm = automorphism::eval_permutation(32, g);
        let plain = a.permute_eval(&perm, &b);
        let pooled = a.permute_eval_in(&mut arena, &perm, &b);
        assert_eq!(plain, pooled);
        pooled.recycle(&mut arena);
    }
}
