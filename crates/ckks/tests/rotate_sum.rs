//! The fused, ModDown-deferred `rotate_sum` against the
//! `rotate`/`mul_plain`/`add` spelling it replaces: same message, never
//! a worse one, and the same bits on every thread width. Uniform
//! weights, which the fused op encodes without a transform or factors
//! out of the sum, keep the bound and the bits.
//!
//! The two are *not* bit-identical. The spelling rounds once per
//! rotation (its ModDown) and then multiplies every rounding by a
//! `q_top`-scale plaintext; the fused op rounds once, after the sum. So
//! they differ by the spelling's own rounding noise — up to 3.3e-9 at
//! the tiny set's `Δ = 2^36` — and the fused result is the one closer
//! to the exact sum. "Exact" is the weighted sum of what the input
//! ciphertext holds (its decryption): the input's encryption noise is
//! common to both paths and would otherwise drown what the op adds.

use ark_ckks::encoding::max_error;
use ark_ckks::keys::{RotationKeys, SecretKey};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::Ciphertext;
use ark_math::cfft::C64;
use ark_math::par::ThreadPool;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Fixture {
    ctx: CkksContext,
    sk: SecretKey,
    keys: RotationKeys,
}

impl Fixture {
    fn new(pool: ThreadPool) -> Self {
        let ctx = CkksContext::with_pool(CkksParams::tiny(), pool);
        // identical seed on both fixtures ⇒ identical key bits
        let mut rng = rand::rngs::StdRng::seed_from_u64(1504);
        let sk = ctx.gen_secret_key(&mut rng);
        let all: Vec<i64> = (1..ctx.params().slots() as i64).collect();
        let keys = ctx.gen_rotation_keys(&all, false, &sk, &mut rng);
        Fixture { ctx, sk, keys }
    }

    fn encrypt(&self, m: &[C64], level: usize, seed: u64) -> Ciphertext {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pt = self.ctx.encode(m, level, self.ctx.params().scale());
        self.ctx.encrypt(&pt, &self.sk, &mut rng)
    }

    fn fused(&self, ct: &Ciphertext, terms: &[(i64, &[C64])]) -> Ciphertext {
        self.ctx
            .rotate_sum(ct, terms, |g| self.keys.get(g))
            .expect("every amount is keyed")
    }

    /// The unfused spelling: one `rotate`, `mul_plain` and `add` per
    /// term.
    fn spelled(&self, ct: &Ciphertext, terms: &[(i64, &[C64])]) -> Ciphertext {
        let ctx = &self.ctx;
        terms
            .iter()
            .map(|(r, w)| {
                let rot = ctx.rotate(ct, *r, &self.keys).expect("keyed");
                ctx.mul_plain(&rot, &ctx.encode_for_mul(w, ct.level))
            })
            .reduce(|acc, prod| ctx.add(&acc, &prod).expect("equal scales"))
            .expect("at least one term")
    }

    fn decode_rescaled(&self, ct: &Ciphertext) -> Vec<C64> {
        let rescaled = self.ctx.rescale(ct).expect("level ≥ 1");
        self.ctx.decrypt_decode(&rescaled, &self.sk)
    }
}

/// The serial and 4-thread fixtures (every limb loop dispatched).
fn fixtures() -> &'static (Fixture, Fixture) {
    static F: OnceLock<(Fixture, Fixture)> = OnceLock::new();
    F.get_or_init(|| {
        (
            Fixture::new(ThreadPool::serial()),
            Fixture::new(ThreadPool::new(4).with_min_dispatch_words(0)),
        )
    })
}

fn to_c64(v: &[(f64, f64)]) -> Vec<C64> {
    v.iter().map(|&(re, im)| C64::new(re, im)).collect()
}

fn slots_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 16)
}

/// Term weights: per-slot, or (one draw in two) one real constant in
/// every slot, which `rotate_sum` encodes without a transform. Two
/// constants only, so all-uniform sums often share one and take the
/// factored path.
fn weights_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop_oneof![
        slots_strategy(),
        prop_oneof![Just(0.5), Just(-0.25)].prop_map(|c| vec![(c, 0.0); 16]),
    ]
}

/// `Σ_t w_t ⊙ rot(m, r_t)` in the clear.
fn clear_sum(m: &[C64], terms: &[(i64, &[C64])]) -> Vec<C64> {
    let n = m.len() as i64;
    (0..m.len())
        .map(|i| {
            terms.iter().fold(C64::zero(), |acc, (r, w)| {
                acc + w[i] * m[(i as i64 + r).rem_euclid(n) as usize]
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // Levels 1..=3 at tiny's α = 2 cover a full last decomposition
    // group (1, 3) and a partial one (2). The amount pool (16 slots)
    // holds the identity under two spellings (0, 16), an alias pair
    // under each of two spellings (−2 ≡ 14, 5 ≡ −11) and plain amounts;
    // 1..=6 draws give single terms, duplicates and mixes of all three.
    #[test]
    fn fused_matches_the_spelling_and_is_never_worse(
        m in slots_strategy(),
        picks in proptest::collection::vec(
            (prop_oneof![
                Just(0i64), Just(16), Just(1), Just(3), Just(-2), Just(14), Just(5), Just(-11),
            ], slots_strategy()),
            1..=6,
        ),
        level in 1usize..=3,
        seed in 0u64..1000,
    ) {
        let (serial, pooled) = fixtures();
        let m = to_c64(&m);
        let weights: Vec<Vec<C64>> = picks.iter().map(|(_, w)| to_c64(w)).collect();
        let terms: Vec<(i64, &[C64])> =
            picks.iter().zip(&weights).map(|((r, _), w)| (*r, w.as_slice())).collect();
        let ct = serial.encrypt(&m, level, seed);
        prop_assert_eq!(&ct, &pooled.encrypt(&m, level, seed));

        let fused = serial.fused(&ct, &terms);
        prop_assert_eq!(&fused, &pooled.fused(&ct, &terms), "1 vs 4 threads diverged");
        let spelled = serial.spelled(&ct, &terms);
        prop_assert_eq!((fused.level, fused.scale), (spelled.level, spelled.scale));

        let held = serial.ctx.decrypt_decode(&ct, &serial.sk);
        let want = clear_sum(&held, &terms);
        let err_fused = max_error(&want, &serial.decode_rescaled(&fused));
        let err_spelled = max_error(&want, &serial.decode_rescaled(&spelled));
        // 3000 draws: fused ≤ 5.5e-10, spelled ≤ 3.3e-9
        prop_assert!(err_fused < 1e-9, "fused off the exact sum by {}", err_fused);
        prop_assert!(err_spelled < 1e-8, "spelling off the exact sum by {}", err_spelled);
        // the slack is the final rescale's own rounding (shared by both,
        // drawn separately): one draw in 3000 needed 4.4e-11 of it
        prop_assert!(
            err_fused <= err_spelled + 1e-10,
            "fused {} worse than spelled {} on {:?}", err_fused, err_spelled,
            terms.iter().map(|t| t.0).collect::<Vec<_>>()
        );
    }

    // Uniform weights take the constant encode and the shared-weight
    // path. They keep the thread-width bit identity and the 1e-9 bound. "Never
    // worse than the spelling" is not claimed for them: small uniform
    // weights shrink the spelling's multiplied roundings too, and the
    // two errors become comparable (one draw read fused 3.7e-10 against
    // spelled 2.2e-10, with and without the shortcut).
    #[test]
    fn uniform_weights_keep_the_fused_bounds(
        m in slots_strategy(),
        picks in proptest::collection::vec(
            (prop_oneof![Just(0i64), Just(16), Just(1), Just(-2), Just(14)], weights_strategy()),
            1..=6,
        ),
        level in 1usize..=3,
        seed in 0u64..1000,
    ) {
        let (serial, pooled) = fixtures();
        let m = to_c64(&m);
        let weights: Vec<Vec<C64>> = picks.iter().map(|(_, w)| to_c64(w)).collect();
        let terms: Vec<(i64, &[C64])> =
            picks.iter().zip(&weights).map(|((r, _), w)| (*r, w.as_slice())).collect();
        let ct = serial.encrypt(&m, level, seed);
        let fused = serial.fused(&ct, &terms);
        prop_assert_eq!(&fused, &pooled.fused(&ct, &terms), "1 vs 4 threads diverged");
        let held = serial.ctx.decrypt_decode(&ct, &serial.sk);
        let err = max_error(&clear_sum(&held, &terms), &serial.decode_rescaled(&fused));
        prop_assert!(err < 1e-9, "fused off the exact sum by {}", err);
    }
}
