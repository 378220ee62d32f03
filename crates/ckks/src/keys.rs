//! Key generation: secret keys, encryption, and evaluation keys.
//!
//! Evaluation keys follow the generalized key-switching of Han–Ki \[44\]
//! (Section II-C): one `evk` is `dnum` RLWE pairs over `R_PQ`, the `i`-th
//! pair encrypting `P·T_i·s'` where `T_i = Q̂_i·(Q̂_i⁻¹ mod Q_i)` is the
//! RNS gadget for decomposition group `C_i`. Reduced limb-by-limb the
//! gadget collapses to
//!
//! ```text
//! (P·T_i) mod q_j = P mod q_j   if q_j ∈ C_i
//!                 = 0           otherwise (including all p_j ∈ B),
//! ```
//!
//! so key generation needs only word arithmetic.
//!
//! # Runtime data generation (the key holds only `B`)
//!
//! The `A_i` half of every RLWE pair is *uniform* — it carries no
//! secret and no error, so it never needs to be stored or shipped: any
//! party can re-derive it from a public 64-bit seed via
//! [`RnsPoly::from_seed`] (the paper's runtime data generation,
//! Section IV-A). Every key here is generated from seeds, by one
//! schedule. Two masters split the randomness: a **public**
//! `a_master` (its children expand the uniform halves and ship inside
//! key frames) and a **secret** `noise_master` (its children drive the
//! error sampler; the error must never be derivable from shipped
//! bytes, or `B − E = A·S` hands an attacker exact linear equations in
//! the secret). [`derive_seed`] fans each master into one child per
//! key — tagged by key kind: public key, multiplication key, or Galois
//! element `g` — and each key's child into one seed per decomposition
//! piece.
//!
//! The `*_seeded` generators take the two masters (the generic
//! [`CkksContext::gen_switching_key_seeded`] takes one key's seeds
//! directly: its source key has no kind to tag). The RNG front
//! (`gen_public_key`, `gen_mult_key`, `gen_rotation_keys`) draws
//! `a_master` then `noise_master` from its RNG and calls its seeded
//! twin, so a library caller and an engine session share one generator
//! and one schedule. Key-generation noise therefore has the same
//! posture on both fronts: each error is expanded from a 64-bit noise
//! seed, not drawn from the caller's RNG stream. Fresh ciphertexts
//! join the schedule too: [`ciphertext_seed`] numbers their `A` seeds
//! off the public `a_master` ([`CkksContext::encrypt_seeded`]).
//!
//! Key generation expands each `A_i` to compute `B_i`, then drops it:
//! an [`EvalKey`] is `{ a_seed, b_pieces }` and a [`PublicKey`] is
//! `{ a_seed, b }`, the same bytes the wire carries, so the key that
//! ships is the key that runs. Its consumers regenerate `A` where they
//! use it: the key-switch inner product
//! ([`CkksContext::hoisted_inner_product_with`]) draws each `A_i` row
//! from [`ark_math::poly::seeded_row_rng`] inside its one pass, and
//! [`CkksContext::encrypt_public`] expands the `A` limbs of its level.
//! Resident and streamed key bytes halve; `B_i` cannot be compressed
//! the same way: it is `A_i·s + e_i + gadget`, a secret- and
//! error-dependent value with full entropy to the holder of `s` only.

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::params::CkksContext;
use ark_math::automorphism::GaloisElement;
use ark_math::poly::{derive_seed, Representation, RnsPoly};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Standard deviation of the RLWE error distribution.
pub const ERROR_STD_DEV: f64 = 3.2;

// Domain tags separating the masters' per-key children. Galois
// elements (the other tweak family) are odd and `< 2N ≤ 2^18`, so tags
// at or above `1 << 32` cannot collide with them.
const SEED_TAG_PUBLIC_KEY: u64 = 1 << 32;
const SEED_TAG_MULT_KEY: u64 = (1 << 32) + 1;
// Fresh ciphertexts' tweaks: the top bit set, above every key tweak.
const SEED_TAG_CIPHERTEXT: u64 = 1 << 63;

/// The public `A` seed of the `n`-th fresh ciphertext encrypted under
/// the keys generated from `a_master`: `a_master`'s child under the
/// tweak `2^63 | n`. For a fixed master [`derive_seed`] is a bijection
/// of the tweak, so the seeds of distinct `n < 2^63` are distinct and
/// none is the child of a key (public key, multiplication key, Galois
/// element). They are computed from the already public master, so
/// shipping them reveals no output of the generator behind `sk` and
/// the errors.
pub fn ciphertext_seed(a_master: u64, n: u64) -> u64 {
    debug_assert!(n < SEED_TAG_CIPHERTEXT, "ciphertext counter overflow");
    derive_seed(a_master, SEED_TAG_CIPHERTEXT | n)
}

/// Draws the two masters the RNG front generates from: `a_master`
/// first, then `noise_master`.
fn draw_masters<R: Rng>(rng: &mut R) -> (u64, u64) {
    (rng.gen(), rng.gen())
}

/// One key's `(a_seed, noise_seed)`: both masters' children under the
/// key's tweak.
fn key_seeds(a_master: u64, noise_master: u64, tweak: u64) -> (u64, u64) {
    (
        derive_seed(a_master, tweak),
        derive_seed(noise_master, tweak),
    )
}

/// A ternary secret key, stored in evaluation representation over the
/// full basis `D` so key-switching keys for any level can be derived.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: RnsPoly,
}

impl SecretKey {
    /// Words of storage (`|D| · N`).
    pub fn words(&self) -> usize {
        self.s.words()
    }

    /// Bytes of key storage (`words × 8`).
    pub fn byte_len(&self) -> usize {
        self.words() * 8
    }
}

/// One evaluation key: `dnum` RLWE pairs `(B_i, A_i)` over `R_PQ`,
/// with `B_i = A_i·s + e_i + (P·T_i)·s'`, held as the public `a_seed`
/// plus the `B_i` limbs. `A_i` is [`RnsPoly::from_seed`] of
/// `derive_seed(a_seed, i)` over the extended basis; the key-switch
/// regenerates each of its rows where it consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalKey {
    /// Public seed the `A_i` halves expand from.
    pub(crate) a_seed: u64,
    /// The `B_i` halves, one per decomposition piece, over the full
    /// extended basis.
    pub(crate) b_pieces: Vec<RnsPoly>,
}

impl EvalKey {
    /// Number of decomposition pieces (`dnum`).
    pub fn dnum(&self) -> usize {
        self.b_pieces.len()
    }

    /// Stored words: the `B_i` limbs only, `dnum · (α+L+1) · N` — half
    /// of Table III's `dnum · 2 · (α+L+1) · N`.
    pub fn words(&self) -> usize {
        self.b_pieces.iter().map(RnsPoly::words).sum()
    }

    /// Bytes of key storage: stored words plus the 8-byte seed.
    pub fn byte_len(&self) -> usize {
        self.words() * 8 + 8
    }
}

/// A set of rotation keys (`evk_rot^{(r)}` per rotation amount) plus the
/// conjugation key. H-(I)DFT with the baseline algorithm needs ~40 of
/// these per transform; Min-KS shrinks the set to 2 per iteration.
#[derive(Debug, Default)]
pub struct RotationKeys {
    keys: BTreeMap<u64, EvalKey>,
}

impl RotationKeys {
    /// An empty key set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a key for a Galois element.
    pub fn insert(&mut self, g: GaloisElement, key: EvalKey) {
        self.keys.insert(g.0, key);
    }

    /// Fetches the key for a Galois element.
    pub fn get(&self, g: GaloisElement) -> Option<&EvalKey> {
        self.keys.get(&g.0)
    }

    /// Number of distinct keys held — the quantity Min-KS minimizes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no keys are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total storage in words across all keys.
    pub fn words(&self) -> usize {
        self.keys.values().map(EvalKey::words).sum()
    }

    /// Total bytes of key storage across all keys.
    pub fn byte_len(&self) -> usize {
        self.keys.values().map(EvalKey::byte_len).sum()
    }

    /// The held `(Galois element, key)` pairs in ascending element
    /// order — the stable iteration the wire encoder relies on.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &EvalKey)> {
        self.keys.iter().map(|(&g, key)| (g, key))
    }
}

/// An RLWE public key `(B, A)` with `B = A·s + e` over the full chain,
/// held as the public `a_seed` plus the `B` limbs: anyone holding it
/// can encrypt; only the secret key decrypts.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicKey {
    /// Public seed `A` expands from (`derive_seed(a_seed, 0)`).
    pub(crate) a_seed: u64,
    pub(crate) b: RnsPoly,
}

impl PublicKey {
    /// Bytes of key storage: the `B` limbs (`(L+1) · N` words) plus
    /// the 8-byte seed.
    pub fn byte_len(&self) -> usize {
        self.b.words() * 8 + 8
    }
}

/// Samples a centered approximately-Gaussian integer (Irwin–Hall).
fn sample_error<R: Rng>(rng: &mut R) -> i64 {
    let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
    (s * ERROR_STD_DEV).round() as i64
}

impl CkksContext {
    /// Samples a ternary secret key. If the parameter set specifies a
    /// Hamming weight `h > 0` the key is sparse with exactly `h` nonzero
    /// (±1) coefficients — the standard choice that keeps the EvalMod
    /// interpolation interval small during bootstrapping.
    pub fn gen_secret_key<R: Rng>(&self, rng: &mut R) -> SecretKey {
        let n = self.params().n();
        let h = self.params().secret_hamming_weight;
        let mut coeffs = vec![0i64; n];
        if h == 0 {
            for c in coeffs.iter_mut() {
                *c = rng.gen_range(-1..=1);
            }
        } else {
            assert!(h <= n, "hamming weight exceeds degree");
            let mut placed = 0;
            while placed < h {
                let pos = rng.gen_range(0..n);
                if coeffs[pos] == 0 {
                    coeffs[pos] = if rng.gen::<bool>() { 1 } else { -1 };
                    placed += 1;
                }
            }
        }
        let all: Vec<usize> = (0..self.basis().len()).collect();
        let mut s = RnsPoly::from_signed_coeffs(self.basis(), &all, &coeffs);
        s.to_eval(self.basis());
        SecretKey { s }
    }

    /// Samples an error polynomial over the given limbs, returned in
    /// evaluation representation.
    fn sample_error_poly<R: Rng>(&self, indices: &[usize], rng: &mut R) -> RnsPoly {
        let n = self.params().n();
        let coeffs: Vec<i64> = (0..n).map(|_| sample_error(rng)).collect();
        let mut e = RnsPoly::from_signed_coeffs(self.basis(), indices, &coeffs);
        e.to_eval(self.basis());
        e
    }

    /// Encrypts a plaintext under the secret key (symmetric RLWE,
    /// Eq. 2: `B = A·S + P_m + E`) with a uniform `A` and the error
    /// both drawn from `rng`. The ciphertext records no seed, so its
    /// `A` ships in full; [`Self::encrypt_seeded`] is the form whose
    /// `A` travels as 8 bytes.
    pub fn encrypt<R: Rng>(&self, pt: &Plaintext, sk: &SecretKey, rng: &mut R) -> Ciphertext {
        let idx = self.chain_indices(pt.level);
        let a = RnsPoly::random_uniform(self.basis(), idx, Representation::Evaluation, rng);
        self.encrypt_with_a(pt, sk, a, None, rng)
    }

    /// Symmetric encryption whose `A` expands from the public `a_seed`
    /// ([`RnsPoly::from_seed`]); the ciphertext records the seed, so
    /// the wire codec can ship `A` as those 8 bytes. Only the error is
    /// drawn from `rng`.
    ///
    /// `a_seed` is published with the ciphertext, so it must not be an
    /// output of the generator that drew `sk` or draws the errors, and
    /// it must never repeat under one secret key: two ciphertexts that
    /// share `A` leak the difference of their messages.
    /// [`ciphertext_seed`] numbers seeds off a key chain's public
    /// master so that neither can happen.
    pub fn encrypt_seeded<R: Rng>(
        &self,
        pt: &Plaintext,
        sk: &SecretKey,
        a_seed: u64,
        rng: &mut R,
    ) -> Ciphertext {
        let idx = self.chain_indices(pt.level);
        let a = RnsPoly::from_seed(self.basis(), idx, Representation::Evaluation, a_seed);
        self.encrypt_with_a(pt, sk, a, Some(a_seed), rng)
    }

    /// `B = A·S + P_m + E` for a given `A`, the error drawn from `rng`.
    fn encrypt_with_a<R: Rng>(
        &self,
        pt: &Plaintext,
        sk: &SecretKey,
        a: RnsPoly,
        a_seed: Option<u64>,
        rng: &mut R,
    ) -> Ciphertext {
        let idx = self.chain_indices(pt.level);
        let mut b = sk.s.subset(idx);
        b.mul_assign(&a, self.basis());
        b.add_assign(&pt.poly, self.basis());
        let e = self.sample_error_poly(idx, rng);
        b.add_assign(&e, self.basis());
        Ciphertext {
            b,
            a,
            level: pt.level,
            scale: pt.scale,
            a_seed,
        }
    }

    /// Derives the public key `(A·s + e, A)` over the full chain from
    /// masters drawn from `rng` (see [`Self::gen_public_key_seeded`]).
    pub fn gen_public_key<R: Rng>(&self, sk: &SecretKey, rng: &mut R) -> PublicKey {
        let (a_master, noise_master) = draw_masters(rng);
        self.gen_public_key_seeded(sk, a_master, noise_master)
    }

    /// Seeded public-key generation: `A` expands from the **public**
    /// `a_master`'s public-key child (so the key is that seed plus
    /// `B`), the error from the **secret** `noise_master`'s. The same
    /// masters always yield bit-identical keys.
    pub fn gen_public_key_seeded(
        &self,
        sk: &SecretKey,
        a_master: u64,
        noise_master: u64,
    ) -> PublicKey {
        let (a_seed, noise_seed) = key_seeds(a_master, noise_master, SEED_TAG_PUBLIC_KEY);
        let idx = self.chain_indices(self.params().max_level);
        let a = RnsPoly::from_seed(
            self.basis(),
            idx,
            Representation::Evaluation,
            derive_seed(a_seed, 0),
        );
        let mut erng = rand::rngs::StdRng::seed_from_u64(derive_seed(noise_seed, 0));
        let e = self.sample_error_poly(idx, &mut erng);
        let mut b = a;
        b.mul_assign(&sk.s.subset(idx), self.basis());
        b.add_assign(&e, self.basis());
        PublicKey { a_seed, b }
    }

    /// Public-key encryption: `(v·B + e_0 + P_m, v·A + e_1)` for a fresh
    /// ternary `v` — decryptable only with the secret key behind `pk`.
    pub fn encrypt_public<R: Rng>(
        &self,
        pt: &Plaintext,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        let idx = self.chain_indices(pt.level);
        let n = self.params().n();
        let v_coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
        let mut v = RnsPoly::from_signed_coeffs(self.basis(), idx, &v_coeffs);
        v.to_eval(self.basis());
        let mut b = pk.b.subset(idx);
        b.mul_assign(&v, self.basis());
        b.add_assign(&pt.poly, self.basis());
        b.add_assign(&self.sample_error_poly(idx, rng), self.basis());
        // `A`'s limbs at this level, regenerated from the key's seed
        let mut a = RnsPoly::from_seed(
            self.basis(),
            idx,
            Representation::Evaluation,
            derive_seed(pk.a_seed, 0),
        );
        a.mul_assign(&v, self.basis());
        a.add_assign(&self.sample_error_poly(idx, rng), self.basis());
        Ciphertext::new(b, a, pt.level, pt.scale)
    }

    /// Decrypts: `P_m + E = B − A·S` (Eq. 3 before decoding).
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Plaintext {
        ct.assert_well_formed();
        let idx: Vec<usize> = ct.b.limb_indices().to_vec();
        let s = sk.s.subset(&idx);
        let mut m = ct.a.clone();
        m.mul_assign(&s, self.basis());
        m.negate(self.basis());
        m.add_assign(&ct.b, self.basis());
        Plaintext {
            poly: m,
            level: ct.level,
            scale: ct.scale,
        }
    }

    /// Convenience: decrypt then decode.
    pub fn decrypt_decode(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<ark_math::cfft::C64> {
        self.decode(&self.decrypt(ct, sk))
    }

    /// Generates a key-switching key from source key `s'` (given in
    /// evaluation representation over the full basis) to `sk`. Piece
    /// `i`'s uniform `A_i` expands from `derive_seed(a_seed, i)`
    /// (public — the key keeps the seed and the `B_i` limbs), its error
    /// from `derive_seed(noise_seed, i)` (secret). Deterministic: the same
    /// `(source, sk, a_seed, noise_seed)` always yields bit-identical
    /// keys, which is what lets eval keys be *re-derived at runtime*
    /// instead of stored.
    pub fn gen_switching_key_seeded(
        &self,
        source: &RnsPoly,
        sk: &SecretKey,
        a_seed: u64,
        noise_seed: u64,
    ) -> EvalKey {
        let l = self.params().max_level;
        let ext = self.extended_indices(l); // all of D
        let groups = self.decomposition_groups(l);
        let special = self.special_indices();
        // P mod q_j for every chain limb.
        let p_mod: Vec<u64> = (0..=l)
            .map(|j| {
                let q = self.basis().modulus(j);
                special.iter().fold(1u64, |acc, &pi| {
                    q.mul(acc, q.reduce(self.basis().modulus(pi).value()))
                })
            })
            .collect();
        let s = sk.s.subset(ext);
        let b_pieces = groups
            .iter()
            .enumerate()
            .map(|(i, group)| {
                let a = RnsPoly::from_seed(
                    self.basis(),
                    ext,
                    Representation::Evaluation,
                    derive_seed(a_seed, i as u64),
                );
                let mut erng = rand::rngs::StdRng::seed_from_u64(derive_seed(noise_seed, i as u64));
                let e = self.sample_error_poly(ext, &mut erng);
                // `A_i` is consumed here and dropped: only `B_i` is kept
                let mut b = a;
                b.mul_assign(&s, self.basis());
                b.add_assign(&e, self.basis());
                // Add (P·T_i)·s': per limb, P·s' on the group's own limbs,
                // zero elsewhere.
                let mut gadget = source.subset(ext);
                let scalars: Vec<u64> = ext
                    .iter()
                    .map(|&j| if group.contains(&j) { p_mod[j] } else { 0 })
                    .collect();
                gadget.mul_scalar_per_limb(&scalars, self.basis());
                b.add_assign(&gadget, self.basis());
                b
            })
            .collect();
        EvalKey { a_seed, b_pieces }
    }

    /// The multiplication key `evk_mult` (source key `s²`), from
    /// masters drawn from `rng`.
    pub fn gen_mult_key<R: Rng>(&self, sk: &SecretKey, rng: &mut R) -> EvalKey {
        let (a_master, noise_master) = draw_masters(rng);
        self.gen_mult_key_seeded(sk, a_master, noise_master)
    }

    /// Seeded multiplication key: the masters' multiplication-key
    /// children seed [`Self::gen_switching_key_seeded`].
    pub fn gen_mult_key_seeded(&self, sk: &SecretKey, a_master: u64, noise_master: u64) -> EvalKey {
        let mut s2 = sk.s.clone();
        s2.mul_assign(&sk.s, self.basis());
        let (a_seed, noise_seed) = key_seeds(a_master, noise_master, SEED_TAG_MULT_KEY);
        self.gen_switching_key_seeded(&s2, sk, a_seed, noise_seed)
    }

    /// A Galois key for an arbitrary element (source key `ψ_g(s)`): the
    /// masters' children under `g` seed [`Self::gen_switching_key_seeded`].
    /// Each element's key derives without any other key existing, so a
    /// key generated eagerly and one derived on demand later are
    /// bit-identical.
    pub fn gen_galois_key_seeded(
        &self,
        g: GaloisElement,
        sk: &SecretKey,
        a_master: u64,
        noise_master: u64,
    ) -> EvalKey {
        let rotated = sk.s.automorphism(g, self.basis());
        let (a_seed, noise_seed) = key_seeds(a_master, noise_master, g.0);
        self.gen_switching_key_seeded(&rotated, sk, a_seed, noise_seed)
    }

    /// Generates rotation keys for a set of amounts plus conjugation,
    /// from masters drawn from `rng` (see
    /// [`Self::gen_rotation_keys_seeded`]).
    pub fn gen_rotation_keys<R: Rng>(
        &self,
        rotations: &[i64],
        include_conjugation: bool,
        sk: &SecretKey,
        rng: &mut R,
    ) -> RotationKeys {
        let (a_master, noise_master) = draw_masters(rng);
        self.gen_rotation_keys_seeded(rotations, include_conjugation, sk, a_master, noise_master)
    }

    /// Seeded rotation keys for a set of amounts plus conjugation, one
    /// [`Self::gen_galois_key_seeded`] per distinct Galois element.
    /// Amounts are reduced through
    /// [`GaloisElement::normalize_rotation`]; amounts ≡ 0 mod the slot
    /// count are skipped entirely (rotation by 0 is the identity and
    /// needs no key).
    pub fn gen_rotation_keys_seeded(
        &self,
        rotations: &[i64],
        include_conjugation: bool,
        sk: &SecretKey,
        a_master: u64,
        noise_master: u64,
    ) -> RotationKeys {
        let n = self.params().n();
        let slots = self.params().slots();
        let rotation_elements = rotations
            .iter()
            .filter(|&&r| GaloisElement::normalize_rotation(r, slots) != 0)
            .map(|&r| GaloisElement::from_rotation(r, n));
        let conjugation = include_conjugation.then(|| GaloisElement::conjugation(n));
        let mut set = RotationKeys::new();
        for g in rotation_elements.chain(conjugation) {
            if set.get(g).is_none() {
                set.insert(g, self.gen_galois_key_seeded(g, sk, a_master, noise_master));
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use crate::params::CkksParams;
    use ark_math::cfft::C64;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, SecretKey, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let sk = ctx.gen_secret_key(&mut rng);
        (ctx, sk, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, sk, mut rng) = setup();
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new((i as f64 * 0.1).cos(), (i as f64 * 0.2).sin()))
            .collect();
        let pt = ctx.encode(&msg, 2, ctx.params().scale());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let out = ctx.decrypt_decode(&ct, &sk);
        let err = max_error(&msg, &out);
        assert!(err < 1e-5, "decryption error {err}");
    }

    /// The seeds of 10 000 fresh ciphertexts of one chain are pairwise
    /// distinct, none is a seed any key of the chain expands an `A`
    /// from, and a seeded encryption decrypts and records its seed.
    #[test]
    fn fresh_seeds_never_repeat_or_meet_a_key_seed() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let sk = ctx.gen_secret_key(&mut rng);
        let (a_master, noise_master) = draw_masters(&mut rng);
        let pk = ctx.gen_public_key_seeded(&sk, a_master, noise_master);
        let evk = ctx.gen_mult_key_seeded(&sk, a_master, noise_master);
        let rot = ctx.gen_rotation_keys_seeded(&[1, 2, -3], true, &sk, a_master, noise_master);
        let mut key_seeds = vec![a_master, noise_master, pk.a_seed, derive_seed(pk.a_seed, 0)];
        for key in std::iter::once(&evk).chain(rot.iter().map(|(_, key)| key)) {
            key_seeds.push(key.a_seed);
            key_seeds.extend((0..key.dnum() as u64).map(|i| derive_seed(key.a_seed, i)));
        }
        let mut seen = std::collections::HashSet::new();
        for n in 0..10_000 {
            let seed = ciphertext_seed(a_master, n);
            assert!(seen.insert(seed), "seed {seed:#x} repeated");
            assert!(!key_seeds.contains(&seed), "seed {seed:#x} is a key's");
        }
        let msg = [C64::new(0.5, -0.25)];
        let pt = ctx.encode(&msg, 1, ctx.params().scale());
        let seed = ciphertext_seed(a_master, 0);
        let ct = ctx.encrypt_seeded(&pt, &sk, seed, &mut rng);
        assert_eq!(ct.a_seed, Some(seed));
        assert!(ct.a.matches_seed(ctx.basis(), seed));
        assert!(max_error(&msg, &ctx.decrypt_decode(&ct, &sk)[..1]) < 1e-5);
        assert_eq!(ctx.encrypt(&pt, &sk, &mut rng).a_seed, None);
    }

    #[test]
    fn public_key_encryption_roundtrip() {
        let (ctx, sk, mut rng) = setup();
        let pk = ctx.gen_public_key(&sk, &mut rng);
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots)
            .map(|i| C64::new(0.1 * i as f64, -0.05 * i as f64))
            .collect();
        let pt = ctx.encode(&msg, 2, ctx.params().scale());
        let ct = ctx.encrypt_public(&pt, &pk, &mut rng);
        let out = ctx.decrypt_decode(&ct, &sk);
        let err = max_error(&msg, &out);
        // public-key noise is larger than symmetric (v·e term) but still
        // far below the message scale
        assert!(err < 1e-3, "public-key decryption error {err}");
    }

    #[test]
    fn public_key_ciphertexts_compose_with_he_ops() {
        let (ctx, sk, mut rng) = setup();
        let pk = ctx.gen_public_key(&sk, &mut rng);
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let slots = ctx.params().slots();
        let msg: Vec<C64> = (0..slots).map(|i| C64::new(0.3, 0.01 * i as f64)).collect();
        let pt = ctx.encode(&msg, 2, ctx.params().scale());
        let ct = ctx.encrypt_public(&pt, &pk, &mut rng);
        let sq = ctx.rescale(&ctx.square(&ct, &evk));
        let out = ctx.decrypt_decode(&sq.unwrap(), &sk);
        let want: Vec<C64> = msg.iter().map(|&z| z * z).collect();
        assert!(max_error(&want, &out) < 1e-3);
    }

    #[test]
    fn decrypting_with_wrong_key_garbles() {
        let (ctx, sk, mut rng) = setup();
        let other = ctx.gen_secret_key(&mut rng);
        let msg = vec![C64::new(1.0, 0.0); ctx.params().slots()];
        let pt = ctx.encode(&msg, 1, ctx.params().scale());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let out = ctx.decrypt_decode(&ct, &other);
        assert!(max_error(&msg, &out) > 1.0, "wrong key must not decrypt");
    }

    #[test]
    fn sparse_secret_has_requested_weight() {
        let params = CkksParams {
            secret_hamming_weight: 8,
            ..CkksParams::tiny()
        };
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sk = ctx.gen_secret_key(&mut rng);
        let mut s = sk.s.clone();
        s.to_coeff(ctx.basis());
        let q0 = ctx.basis().modulus(0);
        let nonzero = s.limb(0).iter().filter(|&&x| x != 0).count();
        assert_eq!(nonzero, 8);
        for &x in s.limb(0) {
            let v = q0.to_signed(x);
            assert!((-1..=1).contains(&v));
        }
    }

    #[test]
    fn evk_shape_and_words() {
        let (ctx, sk, mut rng) = setup();
        let evk = ctx.gen_mult_key(&sk, &mut rng);
        let p = ctx.params();
        assert_eq!(evk.dnum(), p.dnum);
        // only the `B_i` halves are stored: half of Table III's words
        assert_eq!(evk.words(), p.dnum * (p.alpha() + p.max_level + 1) * p.n());
        assert_eq!(evk.byte_len(), p.evk_bytes() / 2 + 8);
    }

    #[test]
    fn rotation_key_set_dedups() {
        let (ctx, sk, mut rng) = setup();
        // rotation by 0 and by n/2 share the identity Galois element
        let keys = ctx.gen_rotation_keys(&[1, 1, 2], true, &sk, &mut rng);
        assert_eq!(keys.len(), 3); // {g(1), g(2), conj}
        assert!(!keys.is_empty());
        assert!(keys.words() > 0);
        let elements: Vec<u64> = keys.iter().map(|(g, _)| g).collect();
        assert!(elements.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    #[test]
    fn seeded_keys_are_deterministic() {
        let (ctx, sk, _) = setup();
        let k1 = ctx.gen_mult_key_seeded(&sk, 0xaaaa, 0xbbbb);
        let k2 = ctx.gen_mult_key_seeded(&sk, 0xaaaa, 0xbbbb);
        assert_eq!(k1, k2, "same seeds must yield bit-identical keys");
        assert_ne!(k1, ctx.gen_mult_key_seeded(&sk, 0xaaab, 0xbbbb));
        assert_ne!(k1, ctx.gen_mult_key_seeded(&sk, 0xaaaa, 0xbbbc));
        assert_eq!(
            ctx.gen_public_key_seeded(&sk, 0x1111, 0x2222),
            ctx.gen_public_key_seeded(&sk, 0x1111, 0x2222)
        );
    }

    /// `B_i − A_i·s` is `e_i` plus the gadget term, with `A_i` expanded
    /// from the stored seed: the seed a key keeps is the one its `B_i`
    /// was computed against.
    #[test]
    fn stored_seed_regenerates_the_a_halves_behind_b() {
        let (ctx, sk, _) = setup();
        let other = ctx.gen_secret_key(&mut rand::rngs::StdRng::seed_from_u64(3));
        let key = ctx.gen_switching_key_seeded(&other.s, &sk, 0x5eed, 0x401e);
        let l = ctx.params().max_level;
        let ext = ctx.extended_indices(l);
        let special = ctx.special_indices();
        for (i, (b, group)) in key
            .b_pieces
            .iter()
            .zip(ctx.decomposition_groups(l))
            .enumerate()
        {
            let mut phase = RnsPoly::from_seed(
                ctx.basis(),
                ext,
                Representation::Evaluation,
                derive_seed(key.a_seed, i as u64),
            );
            phase.mul_assign(&sk.s.subset(ext), ctx.basis());
            phase.negate(ctx.basis());
            phase.add_assign(b, ctx.basis());
            // remove the gadget: P·s' on the group's limbs
            let mut gadget = other.s.subset(ext);
            let scalars: Vec<u64> = ext
                .iter()
                .map(|&j| {
                    let q = ctx.basis().modulus(j);
                    let p = special.iter().fold(1u64, |acc, &pi| {
                        q.mul(acc, q.reduce(ctx.basis().modulus(pi).value()))
                    });
                    if group.contains(&j) {
                        p
                    } else {
                        0
                    }
                })
                .collect();
            gadget.mul_scalar_per_limb(&scalars, ctx.basis());
            phase.sub_assign(&gadget, ctx.basis());
            phase.to_coeff(ctx.basis());
            let q0 = ctx.basis().modulus(0);
            assert!(
                phase.limb(0).iter().all(|&x| q0.to_signed(x).abs() < 64),
                "piece {i}: B − A·s is not the small error"
            );
        }
    }

    #[test]
    fn seeded_galois_key_actually_rotates() {
        let (ctx, sk, mut rng) = setup();
        let slots = ctx.params().slots();
        let g = GaloisElement::from_rotation(1, ctx.params().n());
        let key = ctx.gen_galois_key_seeded(g, &sk, 0x5eed, 0x401e);
        let msg: Vec<ark_math::cfft::C64> = (0..slots)
            .map(|i| ark_math::cfft::C64::new(0.01 * i as f64, 0.0))
            .collect();
        let pt = ctx.encode(&msg, 2, ctx.params().scale());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let rotated = ctx.apply_galois(&ct, g, &key);
        let out = ctx.decrypt_decode(&rotated, &sk);
        let want: Vec<ark_math::cfft::C64> = (0..slots).map(|i| msg[(i + 1) % slots]).collect();
        assert!(max_error(&want, &out) < 1e-3);
    }

    #[test]
    fn seeded_public_key_stores_b_and_encrypts_at_every_level() {
        let (ctx, sk, mut rng) = setup();
        let pk = ctx.gen_public_key_seeded(&sk, 0x1111, 0x2222);
        let chain = ctx.params().max_level + 1;
        assert_eq!(pk.byte_len(), chain * ctx.params().n() * 8 + 8);
        let msg = vec![ark_math::cfft::C64::new(0.25, -0.5); ctx.params().slots()];
        for level in 0..chain {
            let pt = ctx.encode(&msg, level, ctx.params().scale());
            let ct = ctx.encrypt_public(&pt, &pk, &mut rng);
            assert!(max_error(&msg, &ctx.decrypt_decode(&ct, &sk)) < 1e-3);
        }
    }

    #[test]
    fn rotation_keygen_skips_identity_amounts() {
        let (ctx, sk, mut rng) = setup();
        let slots = ctx.params().slots() as i64;
        // 0 and ±slots are identity rotations: no key is generated
        let keys = ctx.gen_rotation_keys(&[0, slots, -slots, 1], false, &sk, &mut rng);
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn error_sampler_is_centered_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let samples: Vec<i64> = (0..4000).map(|_| sample_error(&mut rng)).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / 4000.0;
        assert!(mean.abs() < 0.5, "mean={mean}");
        assert!(samples.iter().all(|&x| x.abs() < 30));
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / 4000.0;
        assert!(
            (var.sqrt() - ERROR_STD_DEV).abs() < 0.5,
            "std={}",
            var.sqrt()
        );
    }
}
