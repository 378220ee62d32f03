//! Nested-row reference implementation of the RNS polynomial ops —
//! the support module of `tests/flat_equivalence.rs`.
//!
//! Before the flat limb-major redesign, [`ark_math::poly::RnsPoly`]
//! stored one heap `Vec<u64>` per limb. This module preserves that
//! shape as an *oracle*: every operation is written in the simplest
//! possible style — serial loops, eager per-element reduction through
//! the scalar [`Modulus`] ops, fresh allocations everywhere — so the
//! equivalence suite can pin the production flat/lazy/parallel kernels
//! against an independent implementation, bit for bit. Nothing here is
//! a hot path; clarity beats speed on purpose.

use ark_math::automorphism::{self, GaloisElement};
use ark_math::bconv::BaseConverter;
use ark_math::modulus::Modulus;
use ark_math::poly::{Representation, RnsBasis, RnsPoly};

/// An RNS polynomial as one heap-allocated row per limb — the
/// pre-refactor storage layout, kept as a reference shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedPoly {
    /// Degree `N`.
    pub n: usize,
    /// Representation of every row.
    pub rep: Representation,
    /// Basis index of each row.
    pub limb_idx: Vec<usize>,
    /// One row of `N` residues per limb.
    pub rows: Vec<Vec<u64>>,
}

// `to_eval` / `to_coeff` keep the in-place `&mut self` shape of the
// `RnsPoly` methods they mirror, so the two read in lockstep in a test
#[allow(clippy::wrong_self_convention)]
impl NestedPoly {
    /// Snapshots a flat polynomial into nested rows.
    pub fn from_poly(p: &RnsPoly) -> Self {
        Self {
            n: p.n(),
            rep: p.representation(),
            limb_idx: p.limb_indices().to_vec(),
            rows: p.flat().chunks_exact(p.n()).map(<[u64]>::to_vec).collect(),
        }
    }

    /// Packs the nested rows back into a flat polynomial.
    pub fn to_poly(&self, basis: &RnsBasis) -> RnsPoly {
        let mut data = Vec::with_capacity(self.rows.len() * self.n);
        for row in &self.rows {
            data.extend_from_slice(row);
        }
        RnsPoly::from_flat(basis, &self.limb_idx, self.rep, data)
    }

    fn modulus<'b>(&self, basis: &'b RnsBasis, pos: usize) -> &'b Modulus {
        basis.modulus(self.limb_idx[pos])
    }

    /// `self += other`, eager scalar ops, serial.
    pub fn add_assign(&mut self, other: &Self, basis: &RnsBasis) {
        assert_eq!(self.limb_idx, other.limb_idx);
        for pos in 0..self.rows.len() {
            let q = *self.modulus(basis, pos);
            for (x, &y) in self.rows[pos].iter_mut().zip(&other.rows[pos]) {
                *x = q.add(*x, y);
            }
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Self, basis: &RnsBasis) {
        assert_eq!(self.limb_idx, other.limb_idx);
        for pos in 0..self.rows.len() {
            let q = *self.modulus(basis, pos);
            for (x, &y) in self.rows[pos].iter_mut().zip(&other.rows[pos]) {
                *x = q.sub(*x, y);
            }
        }
    }

    /// `self = -self`.
    pub fn negate(&mut self, basis: &RnsBasis) {
        for pos in 0..self.rows.len() {
            let q = *self.modulus(basis, pos);
            for x in self.rows[pos].iter_mut() {
                *x = q.neg(*x);
            }
        }
    }

    /// Element-wise product (evaluation representation).
    pub fn mul_assign(&mut self, other: &Self, basis: &RnsBasis) {
        assert_eq!(self.rep, Representation::Evaluation);
        assert_eq!(self.limb_idx, other.limb_idx);
        for pos in 0..self.rows.len() {
            let q = *self.modulus(basis, pos);
            for (x, &y) in self.rows[pos].iter_mut().zip(&other.rows[pos]) {
                *x = q.mul(*x, y);
            }
        }
    }

    /// `self += a * b` via separate scalar mul and add per element.
    pub fn mul_add_assign(&mut self, a: &Self, b: &Self, basis: &RnsBasis) {
        assert_eq!(self.limb_idx, a.limb_idx);
        assert_eq!(self.limb_idx, b.limb_idx);
        for pos in 0..self.rows.len() {
            let q = *self.modulus(basis, pos);
            for (k, x) in self.rows[pos].iter_mut().enumerate() {
                *x = q.add(*x, q.mul(a.rows[pos][k], b.rows[pos][k]));
            }
        }
    }

    /// Multiplies limb `pos` by `scalars[pos]` (reduced into the limb).
    pub fn mul_scalar_per_limb(&mut self, scalars: &[u64], basis: &RnsBasis) {
        assert_eq!(scalars.len(), self.rows.len());
        for (pos, &scalar) in scalars.iter().enumerate() {
            let q = *self.modulus(basis, pos);
            let s = q.reduce(scalar);
            for x in self.rows[pos].iter_mut() {
                *x = q.mul(*x, s);
            }
        }
    }

    /// Forward NTT on every row, serially. (The butterfly kernel itself
    /// is shared with production; its lazy-vs-eager bit-identity is
    /// pinned separately in `ntt.rs` tests.)
    pub fn to_eval(&mut self, basis: &RnsBasis) {
        if self.rep == Representation::Evaluation {
            return;
        }
        for (pos, row) in self.rows.iter_mut().enumerate() {
            basis.table(self.limb_idx[pos]).forward(row);
        }
        self.rep = Representation::Evaluation;
    }

    /// Inverse NTT on every row, serially.
    pub fn to_coeff(&mut self, basis: &RnsBasis) {
        if self.rep == Representation::Coefficient {
            return;
        }
        for (pos, row) in self.rows.iter_mut().enumerate() {
            basis.table(self.limb_idx[pos]).inverse(row);
        }
        self.rep = Representation::Coefficient;
    }

    /// The Galois automorphism, row by row.
    pub fn automorphism(&self, g: GaloisElement, basis: &RnsBasis) -> Self {
        let rows = match self.rep {
            Representation::Coefficient => self
                .rows
                .iter()
                .enumerate()
                .map(|(pos, row)| automorphism::apply_coeff(row, g, self.modulus(basis, pos)))
                .collect(),
            Representation::Evaluation => {
                let perm = automorphism::eval_permutation(self.n, g);
                self.rows
                    .iter()
                    .map(|row| automorphism::apply_eval(row, &perm))
                    .collect()
            }
        };
        Self {
            n: self.n,
            rep: self.rep,
            limb_idx: self.limb_idx.clone(),
            rows,
        }
    }

    /// Restricts to a subset of basis indices (cloning rows — the old
    /// layout's cost model).
    pub fn subset(&self, indices: &[usize]) -> Self {
        let rows = indices
            .iter()
            .map(|&i| {
                let pos = self
                    .limb_idx
                    .iter()
                    .position(|&x| x == i)
                    .unwrap_or_else(|| panic!("limb {i} not present"));
                self.rows[pos].clone()
            })
            .collect();
        Self {
            n: self.n,
            rep: self.rep,
            limb_idx: indices.to_vec(),
            rows,
        }
    }
}

/// Eager nested BConv: scales every source row by `p̂_j⁻¹` with scalar
/// Shoup multiplies, then accumulates each target element with an
/// immediate reduction per MAC term. Canonical residues are unique, so
/// this must agree bit-for-bit with the lazy production
/// [`BaseConverter::convert`].
pub fn bconv_reference(bc: &BaseConverter, poly: &NestedPoly, basis: &RnsBasis) -> NestedPoly {
    assert_eq!(poly.rep, Representation::Coefficient);
    let n = poly.n;
    let from = bc.from_indices();
    let scaled: Vec<Vec<u64>> = from
        .iter()
        .enumerate()
        .map(|(j, &fj)| {
            let p = basis.modulus(fj);
            // Recompute the inverse from the converter's own base table
            // is not possible (it stores p̂ mod q_i only), so rebuild
            // p̂_j⁻¹ mod p_j from first principles: p̂_j = Π_{k≠j} p_k.
            let mut phat = 1u64;
            for (k, &fk) in from.iter().enumerate() {
                if k != j {
                    phat = p.mul(phat, p.reduce(basis.modulus(fk).value()));
                }
            }
            let inv = p.inv(phat);
            let pos = poly
                .limb_idx
                .iter()
                .position(|&x| x == fj)
                .unwrap_or_else(|| panic!("source limb {fj} missing"));
            poly.rows[pos].iter().map(|&x| p.mul(x, inv)).collect()
        })
        .collect();
    let rows: Vec<Vec<u64>> = bc
        .to_indices()
        .iter()
        .enumerate()
        .map(|(i, &ti)| {
            let q = basis.modulus(ti);
            let brow = bc.base_row(i);
            (0..n)
                .map(|k| {
                    let mut acc = 0u64;
                    for (j, s) in scaled.iter().enumerate() {
                        acc = q.add(acc, q.mul(q.reduce(s[k]), q.reduce(brow[j])));
                    }
                    acc
                })
                .collect()
        })
        .collect();
    NestedPoly {
        n,
        rep: Representation::Coefficient,
        limb_idx: bc.to_indices().to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_math::primes::generate_ntt_primes;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_through_nested_shape() {
        let n = 32;
        let basis = RnsBasis::new(n, &generate_ntt_primes(n, 40, 3));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = RnsPoly::random_uniform(&basis, &[0, 1, 2], Representation::Coefficient, &mut rng);
        let nested = NestedPoly::from_poly(&p);
        assert_eq!(nested.to_poly(&basis), p);
    }

    #[test]
    fn nested_ops_mirror_flat_ops() {
        let n = 32;
        let basis = RnsBasis::new(n, &generate_ntt_primes(n, 40, 2));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let idx = [0usize, 1];
        let a = RnsPoly::random_uniform(&basis, &idx, Representation::Coefficient, &mut rng);
        let b = RnsPoly::random_uniform(&basis, &idx, Representation::Coefficient, &mut rng);

        let mut flat = a.clone();
        flat.add_assign(&b, &basis);
        flat.to_eval(&basis);

        let mut nested = NestedPoly::from_poly(&a);
        nested.add_assign(&NestedPoly::from_poly(&b), &basis);
        nested.to_eval(&basis);

        assert_eq!(nested.to_poly(&basis), flat);
    }

    #[test]
    fn bconv_reference_matches_lazy_production_kernel() {
        let n = 16;
        let basis = RnsBasis::new(n, &generate_ntt_primes(n, 40, 5));
        let from = [0usize, 1, 2];
        let to = [3usize, 4];
        let bc = BaseConverter::new(&basis, &from, &to);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let p = RnsPoly::random_uniform(&basis, &from, Representation::Coefficient, &mut rng);
        let fast = bc.convert(&p, &basis);
        let slow = bconv_reference(&bc, &NestedPoly::from_poly(&p), &basis);
        assert_eq!(slow.to_poly(&basis), fast);
    }
}
