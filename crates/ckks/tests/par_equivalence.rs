//! Serial/parallel equivalence of the scheme ops: a context whose limb
//! loops fan out over a 4-thread pool must produce *bit-identical* key
//! material and ciphertexts to the strictly serial context, across the
//! whole primitive op set (`HAdd`, `HMult+HRescale`, `HRot`, raw
//! key-switching, ModRaise). This is the determinism contract
//! `Engine::builder().threads(n)` advertises.

use ark_ckks::keys::{EvalKey, RotationKeys, SecretKey};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::Ciphertext;
use ark_math::cfft::C64;
use ark_math::par::ThreadPool;
use ark_math::poly::{Representation, RnsPoly};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Fixture {
    ctx: CkksContext,
    sk: SecretKey,
    evk: EvalKey,
    keys: RotationKeys,
}

impl Fixture {
    fn new(pool: ThreadPool) -> Self {
        let ctx = CkksContext::with_pool(CkksParams::tiny(), pool);
        // identical seed on both fixtures ⇒ identical draws ⇒ identical
        // key material (keygen itself is deterministic given the rng)
        let mut rng = rand::rngs::StdRng::seed_from_u64(777);
        let sk = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let keys = ctx.gen_rotation_keys(&[1, 2, 3, -1], true, &sk, &mut rng);
        Fixture { ctx, sk, evk, keys }
    }
}

/// The serial and 4-thread fixtures under comparison.
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

#[test]
fn key_material_is_bit_identical() {
    // key structs keep their polynomials private; identity is observable
    // through the public surface: a ciphertext produced under the serial
    // fixture's keys must decrypt *exactly* (same float bits) under the
    // parallel fixture's, and evk sizes must agree.
    let (serial, parallel) = fixtures();
    assert_eq!(serial.evk.words(), parallel.evk.words());
    assert_eq!(serial.keys.len(), parallel.keys.len());
    let m: Vec<C64> = (0..16).map(|i| C64::new(0.01 * i as f64, -0.4)).collect();
    let [ct_s, _] = encrypt_pair(fixtures(), &m, 2, 4242);
    let dec_s = serial.ctx.decrypt_decode(&ct_s, &serial.sk);
    let dec_p = parallel.ctx.decrypt_decode(&ct_s, &parallel.sk);
    for (a, b) in dec_s.iter().zip(&dec_p) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn add_sub_bit_identical(
        m1 in msg_strategy(16),
        m2 in msg_strategy(16),
        seed in 0u64..1000,
    ) {
        let f = fixtures();
        let (m1, m2) = (to_c64(&m1), to_c64(&m2));
        let [a_s, a_p] = encrypt_pair(f, &m1, 2, seed);
        let [b_s, b_p] = encrypt_pair(f, &m2, 2, seed.wrapping_add(1));
        prop_assert_eq!(&a_s, &a_p, "fresh ciphertexts must already agree");
        let sum_s = f.0.ctx.add(&a_s, &b_s).unwrap();
        let sum_p = f.1.ctx.add(&a_p, &b_p).unwrap();
        prop_assert_eq!(sum_s, sum_p);
        let diff_s = f.0.ctx.sub(&a_s, &b_s).unwrap();
        let diff_p = f.1.ctx.sub(&a_p, &b_p).unwrap();
        prop_assert_eq!(diff_s, diff_p);
    }

    #[test]
    fn mul_rescale_bit_identical(
        m1 in msg_strategy(16),
        m2 in msg_strategy(16),
        seed in 0u64..1000,
    ) {
        let f = fixtures();
        let (m1, m2) = (to_c64(&m1), to_c64(&m2));
        let [a_s, a_p] = encrypt_pair(f, &m1, 3, seed);
        let [b_s, b_p] = encrypt_pair(f, &m2, 3, seed.wrapping_add(1));
        let prod_s = f.0.ctx.mul_rescale(&a_s, &b_s, &f.0.evk).unwrap();
        let prod_p = f.1.ctx.mul_rescale(&a_p, &b_p, &f.1.evk).unwrap();
        prop_assert_eq!(prod_s, prod_p);
    }

    #[test]
    fn rotate_and_conjugate_bit_identical(
        m in msg_strategy(16),
        r in prop_oneof![Just(1i64), Just(2), Just(3), Just(-1)],
        seed in 0u64..1000,
    ) {
        let f = fixtures();
        let m = to_c64(&m);
        let [a_s, a_p] = encrypt_pair(f, &m, 2, seed);
        let rot_s = f.0.ctx.rotate(&a_s, r, &f.0.keys).unwrap();
        let rot_p = f.1.ctx.rotate(&a_p, r, &f.1.keys).unwrap();
        prop_assert_eq!(rot_s, rot_p);
        let conj_s = f.0.ctx.conjugate(&a_s, &f.0.keys).unwrap();
        let conj_p = f.1.ctx.conjugate(&a_p, &f.1.keys).unwrap();
        prop_assert_eq!(conj_s, conj_p);
    }

    #[test]
    fn raw_key_switch_bit_identical(seed in 0u64..1000) {
        // key_switch on an arbitrary evaluation-representation input —
        // exercises extend_piece/BConvRoutine/ModDown off the ciphertext
        // path
        let f = fixtures();
        let level = f.0.ctx.params().max_level;
        let chain = f.0.ctx.chain_indices(level);
        let make = |fx: &Fixture| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(5));
            RnsPoly::random_uniform(fx.ctx.basis(), chain, Representation::Evaluation, &mut rng)
        };
        let x_s = make(&f.0);
        let x_p = make(&f.1);
        prop_assert_eq!(&x_s, &x_p);
        let (kb_s, ka_s) = f.0.ctx.key_switch(&x_s, &f.0.evk, level);
        let (kb_p, ka_p) = f.1.ctx.key_switch(&x_p, &f.1.evk, level);
        prop_assert_eq!(kb_s, kb_p);
        prop_assert_eq!(ka_s, ka_p);
    }

    #[test]
    fn mod_raise_bit_identical(m in msg_strategy(16), seed in 0u64..1000) {
        let f = fixtures();
        let m = to_c64(&m);
        let [a_s, a_p] = encrypt_pair(f, &m, 0, seed);
        let top = f.0.ctx.params().max_level;
        let raised_s = f.0.ctx.mod_raise(&a_s, top);
        let raised_p = f.1.ctx.mod_raise(&a_p, top);
        prop_assert_eq!(raised_s, raised_p);
    }
}

/// The default dispatch floor's two regimes: the widest polynomial of
/// the boot-test set (every extended-basis limb at N = 2^10) stays on
/// the caller, while the top level of an N = 2^15, L = 5 chain fans out.
#[test]
fn default_floor_separates_small_and_large_rings() {
    let pool = ThreadPool::new(2);
    let boot = CkksParams::boot_test();
    let widest = (boot.max_level + 1 + boot.alpha()) * boot.n();
    assert_eq!(widest, 28 << 10);
    assert_eq!(pool.for_work(widest).threads(), 1, "N = 2^10 runs inline");
    assert_eq!(pool.for_work(6 << 15).threads(), 2, "6 limbs at N = 2^15");
    assert_eq!(pool.for_work(4 << 15).threads(), 2, "4 limbs at N = 2^15");
}
