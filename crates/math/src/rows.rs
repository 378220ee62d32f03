//! Fixed-width row kernels over contiguous limb slices.
//!
//! These are the element-wise inner loops of every RNS op, restructured
//! for the flat limb-major layout: each kernel walks aligned slices in
//! fixed-width chunks ([`LANES`] elements), the shape LLVM
//! autovectorizes. Their conditional subtractions are the sign-mask
//! [`csub`], because the compare-and-mask form compiled to branches in
//! the NTT; the Barrett multiplies keep [`Modulus::mul`]'s `if` form,
//! which already compiles to `cmov`. A change to either is judged by
//! `math.mul_add.ns_per_coeff` and `math.ntt_{fwd,inv}.ns_per_coeff`
//! from a traced benchmark run. The arithmetic is identical to the
//! scalar [`Modulus`] ops — the same canonical residue comes out of
//! every element — only the control flow changed.

use crate::modulus::{csub, Modulus, ShoupPrecomp};

/// Fixed chunk width of the vectorizable inner loops.
pub const LANES: usize = 8;

macro_rules! for_each_chunk {
    // Binary in-place: dst[i] = f(dst[i], src[i])
    ($dst:expr, $src:expr, |$a:ident, $b:ident| $body:expr) => {{
        let mut d = $dst.chunks_exact_mut(LANES);
        let mut s = $src.chunks_exact(LANES);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for i in 0..LANES {
                let $a = dc[i];
                let $b = sc[i];
                dc[i] = $body;
            }
        }
        for (x, &y) in d.into_remainder().iter_mut().zip(s.remainder()) {
            let $a = *x;
            let $b = y;
            *x = $body;
        }
    }};
}

/// `dst[i] = (dst[i] + src[i]) mod q`, inputs canonical.
pub fn add_rows(q: &Modulus, dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let qv = q.value();
    for_each_chunk!(dst, src, |a, b| csub(a + b, qv));
}

/// `dst[i] = (dst[i] - src[i]) mod q`, inputs canonical.
pub fn sub_rows(q: &Modulus, dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let qv = q.value();
    for_each_chunk!(dst, src, |a, b| csub(a + qv - b, qv));
}

/// `dst[i] = (-dst[i]) mod q`, input canonical.
pub fn neg_rows(q: &Modulus, dst: &mut [u64]) {
    let qv = q.value();
    for x in dst.iter_mut() {
        let mask = ((*x != 0) as u64).wrapping_neg();
        *x = (qv - *x) & mask;
    }
}

/// `dst[i] = dst[i] * src[i] mod q` (Barrett per element).
pub fn mul_rows(q: &Modulus, dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for_each_chunk!(dst, src, |a, b| q.mul(a, b));
}

/// `dst[i] = (dst[i] + a[i] * b[i]) mod q` — the fused MAC of the
/// key-switch inner product, one 128-bit accumulate + Barrett per
/// element.
pub fn mul_add_rows(q: &Modulus, dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((dc, av), bv) in (&mut d).zip(&mut ac).zip(&mut bc) {
        for i in 0..LANES {
            dc[i] = q.mul_add(av[i], bv[i], dc[i]);
        }
    }
    for ((x, &y), &z) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *x = q.mul_add(y, z, *x);
    }
}

/// `dst[i] = dst[i] * pre.w mod q` (Shoup).
pub fn mul_shoup_rows(q: &Modulus, dst: &mut [u64], pre: &ShoupPrecomp) {
    for x in dst.iter_mut() {
        *x = q.mul_shoup(*x, pre);
    }
}

/// `dst[i] = src[i] * pre.w mod q` — the out-of-place Shoup scaling of
/// BConv step 1.
pub fn scale_shoup_rows(q: &Modulus, dst: &mut [u64], src: &[u64], pre: &ShoupPrecomp) {
    debug_assert_eq!(dst.len(), src.len());
    for (x, &y) in dst.iter_mut().zip(src) {
        *x = q.mul_shoup(y, pre);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn q61() -> Modulus {
        Modulus::new(0x1fff_ffff_ffe0_0001).unwrap()
    }

    fn rand_row(q: &Modulus, len: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u64>() % q.value()).collect()
    }

    #[test]
    fn kernels_match_scalar_ops_including_remainders() {
        let q = q61();
        // lengths straddling the chunk width, including the empty row
        for len in [0usize, 1, 7, 8, 9, 16, 37] {
            let a = rand_row(&q, len, 1000 + len as u64);
            let b = rand_row(&q, len, 2000 + len as u64);
            let c = rand_row(&q, len, 3000 + len as u64);

            let mut d = a.clone();
            add_rows(&q, &mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], q.add(a[i], b[i]));
            }

            let mut d = a.clone();
            sub_rows(&q, &mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], q.sub(a[i], b[i]));
            }

            let mut d = a.clone();
            neg_rows(&q, &mut d);
            for i in 0..len {
                assert_eq!(d[i], q.neg(a[i]));
            }

            let mut d = a.clone();
            mul_rows(&q, &mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], q.mul(a[i], b[i]));
            }

            let mut d = c.clone();
            mul_add_rows(&q, &mut d, &a, &b);
            for i in 0..len {
                assert_eq!(d[i], q.add(c[i], q.mul(a[i], b[i])));
            }

            let w = 0x1234_5678 % q.value();
            let pre = q.shoup(w);
            let mut d = a.clone();
            mul_shoup_rows(&q, &mut d, &pre);
            for i in 0..len {
                assert_eq!(d[i], q.mul(a[i], w));
            }

            let mut d = vec![0u64; len];
            scale_shoup_rows(&q, &mut d, &a, &pre);
            for i in 0..len {
                assert_eq!(d[i], q.mul(a[i], w));
            }
        }
    }

    #[test]
    fn edge_residues_stay_canonical() {
        let q = q61();
        let top = q.value() - 1;
        let mut d = vec![top, 0, top];
        add_rows(&q, &mut d, &[top, 0, 1]);
        assert_eq!(d, vec![q.add(top, top), 0, 0]);
        let mut d = vec![0u64, top];
        sub_rows(&q, &mut d, &[top, top]);
        assert_eq!(d, vec![1, 0]);
    }
}
