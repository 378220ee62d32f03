//! Equivalence suite for the flat limb-major redesign: every production
//! kernel (flat storage, lazy reduction, pool fan-out) is pinned
//! bit-for-bit against the [`nested`] reference oracle (the support
//! module beside this file) — serial, eager, one heap row per limb —
//! at 1 and 4 threads.
//!
//! Shapes deliberately include non-power-of-two limb counts (3, 5) and
//! dropped-limb / non-contiguous subsets of the basis (the shapes
//! `mod_drop_to` and decomposition produce), because those exercise the
//! `limb_idx → storage position` indirection the flat layout added.

#[path = "support/nested.rs"]
mod nested;

use ark_math::automorphism::GaloisElement;
use ark_math::bconv::BaseConverter;
use ark_math::par::ThreadPool;
use ark_math::poly::{Representation, RnsBasis, RnsPoly};
use ark_math::primes::generate_ntt_primes;
use nested::{bconv_reference, NestedPoly};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

const N: usize = 32;
const LIMBS: usize = 5; // non-power-of-two on purpose

/// One shared prime chain so every basis (serial and threaded) agrees
/// on the moduli and NTT tables.
fn primes() -> &'static Vec<u64> {
    static P: OnceLock<Vec<u64>> = OnceLock::new();
    P.get_or_init(|| generate_ntt_primes(N, 45, LIMBS))
}

fn basis(threads: usize) -> RnsBasis {
    if threads <= 1 {
        RnsBasis::new(N, primes())
    } else {
        // floor 0: at N = 32 every loop is far below the default floor,
        // which would run the threaded basis serially too
        RnsBasis::with_pool(
            N,
            primes(),
            ThreadPool::new(threads).with_min_dispatch_words(0),
        )
    }
}

/// Limb-set shapes the scheme actually produces: full chain, prefix
/// drops, and non-contiguous decomposition-style picks.
fn limb_sets() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![0, 1, 2, 3, 4]),
        Just(vec![0, 1, 2]),
        Just(vec![0, 2, 4]),
        Just(vec![1, 3]),
        Just(vec![4]),
    ]
}

fn random_poly(b: &RnsBasis, idx: &[usize], rep: Representation, seed: u64) -> RnsPoly {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    RnsPoly::random_uniform(b, idx, rep, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // add / sub / mul / mul_add / scalar mul, flat+parallel vs nested
    // serial oracle.
    #[test]
    fn elementwise_ops_match_nested(
        seed in any::<u64>(),
        idx in limb_sets(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let b = basis(threads);
        let x = random_poly(&b, &idx, Representation::Evaluation, seed);
        let y = random_poly(&b, &idx, Representation::Evaluation, seed ^ 0x9e37_79b9);
        let z = random_poly(&b, &idx, Representation::Evaluation, seed ^ 0x85eb_ca6b);

        let mut flat = x.clone();
        flat.add_assign(&y, &b);
        flat.mul_assign(&z, &b);
        flat.mul_add_assign(&y, &z, &b);
        flat.sub_assign(&z, &b);
        let residues: Vec<u64> = idx.iter().map(|&i| b.modulus(i).reduce(12345)).collect();
        flat.mul_scalar_per_limb(&residues, &b);
        flat.negate(&b);

        let mut nested = NestedPoly::from_poly(&x);
        let ny = NestedPoly::from_poly(&y);
        let nz = NestedPoly::from_poly(&z);
        nested.add_assign(&ny, &b);
        nested.mul_assign(&nz, &b);
        nested.mul_add_assign(&ny, &nz, &b);
        nested.sub_assign(&nz, &b);
        nested.mul_scalar_per_limb(&residues, &b);
        nested.negate(&b);

        prop_assert_eq!(nested.to_poly(&b), flat);
    }

    // The lazy flat NTT pipeline (forward Harvey in `[0,4q)`, inverse
    // GS in `[0,2q)`) against the nested serial path, both directions.
    #[test]
    fn ntt_pipeline_matches_nested(
        seed in any::<u64>(),
        idx in limb_sets(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let b = basis(threads);
        let x = random_poly(&b, &idx, Representation::Coefficient, seed);

        let mut flat = x.clone();
        flat.to_eval(&b);
        let mut nested = NestedPoly::from_poly(&x);
        nested.to_eval(&b);
        prop_assert_eq!(nested.to_poly(&b), flat.clone());

        flat.to_coeff(&b);
        nested.to_coeff(&b);
        prop_assert_eq!(nested.to_poly(&b), flat.clone());
        prop_assert_eq!(flat, x); // exact round-trip
    }

    // Galois automorphism in both representations.
    #[test]
    fn automorphism_matches_nested(
        seed in any::<u64>(),
        idx in limb_sets(),
        r in prop_oneof![Just(1i64), Just(2), Just(-3), Just(7)],
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let b = basis(threads);
        let g = GaloisElement::from_rotation(r, N);
        for rep in [Representation::Coefficient, Representation::Evaluation] {
            let x = random_poly(&b, &idx, rep, seed);
            let flat = x.automorphism(g, &b);
            let nested = NestedPoly::from_poly(&x).automorphism(g, &b);
            prop_assert_eq!(nested.to_poly(&b), flat);
        }
    }

    // The lazy 128-bit MAC BConv kernel against the eager per-term
    // reference (canonical residues are unique, so bit-equality holds).
    #[test]
    fn bconv_matches_eager_reference(
        seed in any::<u64>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let b = basis(threads);
        let from = [0usize, 1, 2];
        let to = [3usize, 4];
        let bc = BaseConverter::new(&b, &from, &to);
        let x = random_poly(&b, &from, Representation::Coefficient, seed);
        let fast = bc.convert(&x, &b);
        let slow = bconv_reference(&bc, &NestedPoly::from_poly(&x), &b);
        prop_assert_eq!(slow.to_poly(&b), fast);
    }

    // Subset extraction — the `mod_drop_to` and decomposition shapes —
    // keeps flat and nested storage in lockstep.
    #[test]
    fn subset_matches_nested(
        seed in any::<u64>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let b = basis(threads);
        let full: Vec<usize> = (0..LIMBS).collect();
        let x = random_poly(&b, &full, Representation::Coefficient, seed);
        let nx = NestedPoly::from_poly(&x);
        for pick in [vec![0usize, 2, 3], vec![4, 1], vec![0]] {
            let flat = x.subset(&pick);
            let nested = nx.subset(&pick);
            prop_assert_eq!(nested.to_poly(&b), flat);
        }
    }
}

/// Serial and 4-thread pools agree bit-for-bit on a fused op chain —
/// thread count is a pure throughput knob.
#[test]
fn thread_count_is_bit_invariant() {
    let b1 = basis(1);
    let b4 = basis(4);
    let idx = [0usize, 2, 3];
    let run = |b: &RnsBasis| {
        let mut x = random_poly(b, &idx, Representation::Coefficient, 77);
        let y = random_poly(b, &idx, Representation::Coefficient, 78);
        x.to_eval(b);
        let mut ye = y.clone();
        ye.to_eval(b);
        x.mul_add_assign(&ye, &ye, b);
        x.to_coeff(b);
        x
    };
    assert_eq!(run(&b1), run(&b4));
}
