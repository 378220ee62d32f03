//! Hoisted vs per-rotation equivalence: evaluating a set of rotations
//! (or a whole BSGS linear transform) from one shared digit
//! decomposition must be **bit-identical** to the per-rotation path —
//! across random levels, random rotation sets, all three
//! [`KeyStrategy`] variants, and serial vs pooled execution. This is
//! the contract that lets `eval_linear_transform` hoist its baby loop
//! unconditionally: sharing the *ModUp* is a pure cost optimization,
//! never a numerics change. (The fused `rotate_sum` additionally
//! *defers* its ModDown past the sum, which does change the rounding —
//! one instead of one per rotation; `tests/rotate_sum.rs` covers it.)

use ark_ckks::keys::{RotationKeys, SecretKey};
use ark_ckks::lintrans::LinearTransform;
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::Ciphertext;
use ark_math::cfft::C64;
use ark_math::par::ThreadPool;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::OnceLock;

struct Fixture {
    ctx: CkksContext,
    sk: SecretKey,
    /// Keys for every amount the random rotation sets can draw, plus
    /// the Min-KS chain keys (1 and the baby counts under test).
    keys: RotationKeys,
}

/// Amounts the random rotation sets draw from (slots = 16 at tiny
/// params, so these cover identity, wraparound and negative spellings).
const AMOUNT_POOL: [i64; 8] = [0, 1, 2, 3, 5, 8, -2, 15];

impl Fixture {
    fn new(pool: ThreadPool) -> Self {
        let ctx = CkksContext::with_pool(CkksParams::tiny(), pool);
        // identical seed on both fixtures ⇒ identical key bits
        let mut rng = rand::rngs::StdRng::seed_from_u64(4104);
        let sk = ctx.gen_secret_key(&mut rng);
        // every amount 1..slots so any random transform/rotation set
        // finds its keys under every strategy
        let all: Vec<i64> = (1..ctx.params().slots() as i64).collect();
        let keys = ctx.gen_rotation_keys(&all, false, &sk, &mut rng);
        Fixture { ctx, sk, keys }
    }
}

/// The serial and 4-thread fixtures under comparison (1 vs N threads).
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

fn msg_strategy(slots: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), slots)
}

fn amounts_strategy() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(
        prop_oneof![
            Just(AMOUNT_POOL[0]),
            Just(AMOUNT_POOL[1]),
            Just(AMOUNT_POOL[2]),
            Just(AMOUNT_POOL[3]),
            Just(AMOUNT_POOL[4]),
            Just(AMOUNT_POOL[5]),
            Just(AMOUNT_POOL[6]),
            Just(AMOUNT_POOL[7]),
        ],
        1..6,
    )
}

fn strategy_strategy() -> impl Strategy<Value = KeyStrategy> {
    prop_oneof![
        Just(KeyStrategy::Baseline),
        Just(KeyStrategy::HoistedMinimal),
        Just(KeyStrategy::MinKs),
    ]
}

/// Encrypts the same message under both fixtures with the same seed.
fn encrypt_pair(
    f: &'static (Fixture, Fixture),
    m: &[C64],
    level: usize,
    seed: u64,
) -> [Ciphertext; 2] {
    [&f.0, &f.1].map(|fx| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        fx.ctx.encrypt(
            &fx.ctx.encode(m, level, fx.ctx.params().scale()),
            &fx.sk,
            &mut rng,
        )
    })
}

/// A transform's diagonals: rotation amount → vector.
type Diagonals = BTreeMap<usize, Vec<C64>>;

/// `Σ_d D_d ⊙ rot(z, d)` in the clear: what a homomorphic evaluation of
/// the transform on these diagonals must decrypt to.
fn clear_product(diagonals: &Diagonals, z: &[C64]) -> Vec<C64> {
    let n = z.len();
    (0..n)
        .map(|k| {
            let terms = diagonals.iter().map(|(&d, diag)| diag[k] * z[(k + d) % n]);
            terms.fold(C64::zero(), |acc, term| acc + term)
        })
        .collect()
}

/// Random sparse diagonals over `n` slots from the generated
/// index/value material (sparse so baby sets vary).
fn diagonals_from(n: usize, picks: &[(usize, (f64, f64))]) -> Diagonals {
    let mut diagonals = BTreeMap::new();
    for &(d, (re, im)) in picks {
        diagonals.insert(d % n, vec![C64::new(re, im); n]);
    }
    // always at least the main diagonal so the transform is non-empty
    diagonals
        .entry(0)
        .or_insert_with(|| vec![C64::new(1.0, 0.0); n]);
    diagonals
}

/// A strided, wrapped diagonal set on 16 slots: stride `2^a`, a window
/// of up to `2^{k+1} − 1 = 7` units starting anywhere on the cycle
/// (wrap-around past `n` included), and a non-empty subset of it.
fn strided_diagonals(a: u32, offset: usize, mask: u32, values: &[(f64, f64)]) -> Diagonals {
    let n = 16usize;
    let s = 1usize << a;
    let cycle = n / s;
    let mut diagonals = BTreeMap::new();
    for w in (0..7usize).filter(|w| mask >> w & 1 == 1) {
        let (re, im) = values[w];
        let d = (offset + w) % cycle * s;
        let v: Vec<C64> = (0..n)
            .map(|k| C64::new(re * (1.0 + k as f64) / 16.0, im))
            .collect();
        diagonals.insert(d, v);
    }
    diagonals
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // The progression-aware plan on strided, wrapped diagonal sets:
    // every strategy, holding exactly the keys its plan names, matches
    // the clear transform; Baseline's hoisted babies stay bit-identical
    // to per-rotation ones; serial and pooled evaluation agree bitwise.
    #[test]
    fn strided_wrapped_transforms_run_on_exactly_the_planned_keys(
        m in msg_strategy(16),
        a in 0u32..=2,
        // the k0 = 0 and single-diagonal corners, then the general case
        offset in prop_oneof![Just(0usize), 0usize..16],
        mask in prop_oneof![(0u32..7).prop_map(|b| 1u32 << b), 1u32..128],
        values in proptest::collection::vec((-0.5f64..0.5, -0.5f64..0.5), 7),
        seed in 0u64..1000,
    ) {
        let f = fixtures();
        let m = to_c64(&m);
        let diagonals = strided_diagonals(a, offset, mask, &values);
        let lt = LinearTransform::from_diagonals(16, diagonals.clone());
        let want = clear_product(&diagonals, &m);
        let [ct_s, ct_p] = encrypt_pair(f, &m, 2, seed);
        for strategy in [KeyStrategy::Baseline, KeyStrategy::HoistedMinimal, KeyStrategy::MinKs] {
            let rots = lt.required_rotations(strategy);
            let [keys_s, keys_p] = [&f.0, &f.1].map(|fx| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                fx.ctx.gen_rotation_keys(&rots, false, &fx.sk, &mut rng)
            });
            prop_assert_eq!(keys_s.len(), rots.len());
            let out_s = f.0.ctx.eval_linear_transform(&ct_s, &lt, strategy, &keys_s);
            let out_p = f.1.ctx.eval_linear_transform(&ct_p, &lt, strategy, &keys_p);
            prop_assert_eq!(&out_s, &out_p, "{:?}: 1 vs 4 threads diverged", strategy);
            let per_rot = f.0.ctx.eval_linear_transform_per_rotation(&ct_s, &lt, strategy, &keys_s);
            prop_assert_eq!(&out_s, &per_rot, "{:?}: hoisted vs per-rotation diverged", strategy);
            let got = f.0.ctx.decrypt_decode(&out_s, &f.0.sk);
            let err = ark_ckks::encoding::max_error(&want, &got);
            prop_assert!(err < 5e-2, "{:?} on {:?}: err {}", strategy, lt.plan(strategy), err);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    // `hoisted_rotate_many` ≡ per-amount `rotate`, bitwise, at random
    // levels and rotation sets, on the serial and pooled contexts.
    #[test]
    fn hoisted_rotate_many_bit_identical_across_threads(
        m in msg_strategy(16),
        amounts in amounts_strategy(),
        level in 1usize..=3,
        seed in 0u64..1000,
    ) {
        let f = fixtures();
        let m = to_c64(&m);
        let [ct_s, ct_p] = encrypt_pair(f, &m, level, seed);
        prop_assert_eq!(&ct_s, &ct_p, "fresh ciphertexts must already agree");
        let hoisted_s = f.0.ctx.hoisted_rotate_many(&ct_s, &amounts, &f.0.keys).unwrap();
        let hoisted_p = f.1.ctx.hoisted_rotate_many(&ct_p, &amounts, &f.1.keys).unwrap();
        for (i, r) in amounts.iter().enumerate() {
            let direct_s = f.0.ctx.rotate(&ct_s, *r, &f.0.keys).unwrap();
            prop_assert_eq!(&hoisted_s[i], &direct_s, "serial: amount {} diverged", r);
            prop_assert_eq!(&hoisted_p[i], &direct_s, "pooled: amount {} diverged", r);
        }
    }

    // The hoisted BSGS baby loop ≡ the per-rotation baby loop, bitwise,
    // for every key strategy, on both thread widths.
    #[test]
    fn lintrans_hoisted_bit_identical_across_strategies_and_threads(
        m in msg_strategy(16),
        picks in proptest::collection::vec(
            (0usize..16, (-0.5f64..0.5, -0.5f64..0.5)), 1..8),
        strategy in strategy_strategy(),
        seed in 0u64..1000,
    ) {
        let f = fixtures();
        let m = to_c64(&m);
        let lt = LinearTransform::from_diagonals(16, diagonals_from(16, &picks));
        let [ct_s, ct_p] = encrypt_pair(f, &m, 2, seed);
        let hoisted_s = f.0.ctx.eval_linear_transform(&ct_s, &lt, strategy, &f.0.keys);
        let per_rot_s = f.0.ctx.eval_linear_transform_per_rotation(&ct_s, &lt, strategy, &f.0.keys);
        prop_assert_eq!(&hoisted_s, &per_rot_s, "serial: {:?} paths diverged", strategy);
        let hoisted_p = f.1.ctx.eval_linear_transform(&ct_p, &lt, strategy, &f.1.keys);
        let per_rot_p = f.1.ctx.eval_linear_transform_per_rotation(&ct_p, &lt, strategy, &f.1.keys);
        prop_assert_eq!(&hoisted_p, &per_rot_p, "pooled: {:?} paths diverged", strategy);
        prop_assert_eq!(&hoisted_s, &hoisted_p, "{:?}: 1 vs 4 threads diverged", strategy);
    }

    // Shared digits survive arbitrary interleavings: applying the same
    // decomposition in any order yields what per-rotation evaluation
    // yields, and strategies still agree with each other numerically.
    #[test]
    fn strategies_agree_on_hoisted_transforms(
        m in msg_strategy(16),
        picks in proptest::collection::vec(
            (0usize..16, (-0.5f64..0.5, -0.5f64..0.5)), 1..6),
        seed in 0u64..1000,
    ) {
        let f = fixtures();
        let m = to_c64(&m);
        let diagonals = diagonals_from(16, &picks);
        let lt = LinearTransform::from_diagonals(16, diagonals.clone());
        let [ct, _] = encrypt_pair(f, &m, 2, seed);
        let base = f.0.ctx.eval_linear_transform(&ct, &lt, KeyStrategy::Baseline, &f.0.keys);
        let minks = f.0.ctx.eval_linear_transform(&ct, &lt, KeyStrategy::MinKs, &f.0.keys);
        let want = clear_product(&diagonals, &m);
        let got_base = f.0.ctx.decrypt_decode(&base, &f.0.sk);
        let got_minks = f.0.ctx.decrypt_decode(&minks, &f.0.sk);
        let err = ark_ckks::encoding::max_error(&want, &got_base);
        prop_assert!(err < 5e-2, "baseline err {}", err);
        let err = ark_ckks::encoding::max_error(&got_base, &got_minks);
        prop_assert!(err < 5e-2, "strategy disagreement {}", err);
    }
}
