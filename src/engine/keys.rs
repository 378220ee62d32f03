//! Session key material: the declared key surface, the eagerly
//! generated [`KeyChain`], and the bounded runtime cache of
//! seed-derived Galois keys.

use ark_ckks::keys::{EvalKey, PublicKey, RotationKeys, SecretKey};
use ark_ckks::params::CkksContext;
use ark_math::automorphism::GaloisElement;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The rotation amounts and conjugation flag a session was declared
/// with — the user-visible rotation surface, identical on every
/// evaluator so key-resolution errors agree. Bootstrapping transform
/// keys are generated on the software backend but stay internal; they
/// never appear here.
///
/// Amounts are stored *normalized* modulo the slot count (the single
/// choke point [`GaloisElement::normalize_rotation`]), so declaring
/// `r` and asking for `r − n_slots` — or any mixed-sign spelling of
/// the same rotation — resolves to the same key.
#[derive(Debug, Clone, Default)]
pub struct DeclaredKeys {
    /// Normalized amounts in `1..n_slots` (0 is keyless and never stored).
    rotations: BTreeSet<i64>,
    conjugation: bool,
    /// Slot count the amounts are normalized against (0 only in the
    /// `Default` empty set, which declares nothing).
    slots: usize,
}

impl DeclaredKeys {
    /// Builds a declared-key surface without generating any key
    /// material — the shape static verification
    /// ([`crate::verify::VerifyContext`]) resolves rotations against
    /// when no engine (hence no [`KeyChain`]) exists. Amounts normalize
    /// through the same choke point the builder uses, so a surface
    /// declared here accepts exactly the programs a built engine with
    /// the same declarations would.
    pub fn declare(rotations: &[i64], conjugation: bool, slots: usize) -> Self {
        let rotations = rotations
            .iter()
            .map(|&r| GaloisElement::normalize_rotation(r, slots))
            .filter(|&r| r != 0)
            .collect();
        Self {
            rotations,
            conjugation,
            slots,
        }
    }

    /// True if a rotation by `amount` needs no undeclared key: either
    /// its normalized amount was declared, or it is ≡ 0 mod the slot
    /// count (the identity — always possible without any key).
    pub fn has_rotation(&self, amount: i64) -> bool {
        if self.slots == 0 {
            return false;
        }
        let r = GaloisElement::normalize_rotation(amount, self.slots);
        r == 0 || self.rotations.contains(&r)
    }

    /// True if the conjugation key was declared.
    pub fn has_conjugation(&self) -> bool {
        self.conjugation
    }

    /// The declared rotation amounts, normalized to `1..n_slots`, in
    /// ascending order.
    pub fn rotations(&self) -> impl Iterator<Item = i64> + '_ {
        self.rotations.iter().copied()
    }
}

/// Default bound on the runtime rotation-key LRU cache (entries, each
/// one full [`EvalKey`]). Sized for a couple of concurrent BSGS
/// passes: Min-KS needs 2 keys per pass, the baseline `O(√D)`.
pub const DEFAULT_RUNTIME_KEY_CAPACITY: usize = 64;

/// Bounded LRU of runtime-derived Galois keys, keyed by Galois
/// element. Interior-mutable (and `Sync`) so evaluation-only shared
/// borrows — the shape `ark-serve` fans batches out on — can still
/// populate it.
#[derive(Debug)]
struct RuntimeKeyCache {
    capacity: usize,
    inner: Mutex<RuntimeCacheInner>,
    /// Lookups answered from the cache (atomic: shared evaluators hit
    /// this concurrently; `ark-serve` exports it through `STATS`).
    hits: AtomicU64,
    /// Lookups that had to derive the key.
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct RuntimeCacheInner {
    /// Monotone use counter backing the LRU order.
    tick: u64,
    /// Galois element → (last-use tick, key).
    keys: HashMap<u64, (u64, Arc<EvalKey>)>,
}

impl RuntimeKeyCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(RuntimeCacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached key for `g`, deriving it via `derive` on a
    /// miss and evicting the least-recently-used entry beyond the
    /// bound. The lock is *released* during derivation — a keygen is
    /// many NTTs, and holding the lock would serialize every
    /// concurrent hit and miss behind it. Two threads racing a miss on
    /// the same element may both derive; derivation is deterministic,
    /// so the loser's bits are identical and the first insert stays
    /// the canonical entry.
    fn get_or_derive(&self, g: GaloisElement, derive: impl FnOnce() -> EvalKey) -> Arc<EvalKey> {
        {
            let mut inner = self.inner.lock().expect("runtime key cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((stamp, key)) = inner.keys.get_mut(&g.0) {
                *stamp = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(key);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let key = Arc::new(derive()); // no lock held across the keygen
        let mut inner = self.inner.lock().expect("runtime key cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let out = {
            let entry = inner.keys.entry(g.0).or_insert((tick, key));
            entry.0 = tick; // just used, whoever inserted it
            Arc::clone(&entry.1)
        };
        if inner.keys.len() > self.capacity {
            // the entry just touched carries the max stamp, so the
            // eviction can never remove the key being returned
            let oldest = inner
                .keys
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(&g, _)| g)
                .expect("cache non-empty");
            inner.keys.remove(&oldest);
        }
        out
    }

    fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("runtime key cache poisoned")
            .keys
            .len()
    }
}

/// A Galois key resolved by the [`KeyChain`]: either a borrow of the
/// eagerly generated material or a shared handle into the runtime
/// cache. Both deref to the same bits (derivation is deterministic).
pub(super) enum ResolvedKey<'a> {
    Eager(&'a EvalKey),
    Runtime(Arc<EvalKey>),
}

impl std::ops::Deref for ResolvedKey<'_> {
    type Target = EvalKey;

    fn deref(&self) -> &EvalKey {
        match self {
            ResolvedKey::Eager(k) => k,
            ResolvedKey::Runtime(k) => k,
        }
    }
}

/// Every key a software session needs: the secret/public pair, the
/// multiplication key, and rotation keys for all declared amounts,
/// generated once at build time. Operations resolve keys internally —
/// no call site threads key material.
///
/// Key material follows the paper's *runtime data generation*: every
/// key comes from `ark-ckks`'s one seed schedule over the chain's two
/// masters (see [`ark_ckks::keys`]), so any Galois key can be
/// re-derived bit-identically at any time
/// ([`CkksContext::gen_galois_key_seeded`]). With
/// [`super::EngineBuilder::runtime_keys`] the chain exploits that at runtime:
/// a rotation miss derives the key on demand into a bounded LRU
/// instead of failing, keyed by Galois element so BSGS passes reuse
/// one entry across operations.
#[derive(Debug)]
pub struct KeyChain {
    pub(super) sk: SecretKey,
    pk: PublicKey,
    evk_mult: EvalKey,
    rotations: RotationKeys,
    declared: DeclaredKeys,
    /// Public master seed every key's uniform `A` half derives from.
    a_master: u64,
    /// Secret master seed for key-generation noise — never serialized
    /// (a published error term would hand out `A·S = B − E`).
    noise_master: u64,
    /// Runtime-derived Galois keys, present iff `runtime_keys(true)`.
    runtime: Option<RuntimeKeyCache>,
    /// Fresh ciphertexts encrypted under `sk` so far: numbers the next
    /// one's public `A` seed.
    fresh_ciphertexts: AtomicU64,
}

impl KeyChain {
    /// Generates the full chain for a context. `keygen_rotations` may
    /// exceed the declared set (bootstrapping transform keys are
    /// generated but stay internal — they are not part of the declared,
    /// user-visible rotation surface). `rng` supplies `sk`, then
    /// `a_master`, then `noise_master`; every key derives from the two
    /// masters through `ark-ckks`'s seed schedule, independent of
    /// `rng`'s further stream position, so eagerly generated keys are
    /// bit-identical to their runtime-derived counterparts.
    pub(super) fn generate<R: rand::Rng>(
        ctx: &CkksContext,
        declared: DeclaredKeys,
        keygen_rotations: &[i64],
        runtime_capacity: Option<usize>,
        rng: &mut R,
    ) -> Self {
        let sk = ctx.gen_secret_key(rng);
        // the masters are *drawn* from the generator, never derived
        // from the builder seed by the (invertible, per-tweak)
        // derive_seed mixer: a_master ships inside every compressed
        // key frame, and an algebraically invertible path from it back
        // to the seed that also generates `sk` would hand the secret
        // key to anyone holding a compressed frame. One generator
        // output does not expose the 256-bit stream state. (The
        // builder seed itself is still the 64-bit root secret of a
        // session — the toy posture of the vendored RNG; see
        // `vendor/rand`.)
        let a_master = rng.gen::<u64>();
        let noise_master = rng.gen::<u64>();
        let pk = ctx.gen_public_key_seeded(&sk, a_master, noise_master);
        let evk_mult = ctx.gen_mult_key_seeded(&sk, a_master, noise_master);
        let rotations = ctx.gen_rotation_keys_seeded(
            keygen_rotations,
            declared.conjugation,
            &sk,
            a_master,
            noise_master,
        );
        Self {
            sk,
            pk,
            evk_mult,
            rotations,
            declared,
            a_master,
            noise_master,
            runtime: runtime_capacity.map(RuntimeKeyCache::new),
            fresh_ciphertexts: AtomicU64::new(0),
        }
    }

    /// The `A` seed of the next fresh ciphertext under `sk`:
    /// [`ark_ckks::keys::ciphertext_seed`] of the public `a_master` and
    /// a per-chain counter, so no two ciphertexts of the chain share
    /// `A` and no seed is an output of the generator behind `sk`.
    pub(super) fn next_ciphertext_seed(&self) -> u64 {
        let n = self.fresh_ciphertexts.fetch_add(1, Ordering::Relaxed);
        ark_ckks::keys::ciphertext_seed(self.a_master, n)
    }

    /// True if rotation keys are derived on demand instead of erroring
    /// on undeclared amounts.
    pub fn runtime_keys_enabled(&self) -> bool {
        self.runtime.is_some()
    }

    /// Number of Galois keys currently resident in the runtime cache
    /// (0 when runtime keys are disabled).
    pub fn runtime_cached_keys(&self) -> usize {
        self.runtime.as_ref().map_or(0, RuntimeKeyCache::len)
    }

    /// Lifetime `(hits, misses)` of the runtime key cache — a hit is a
    /// lookup answered from the cache, a miss one that derived the key
    /// on demand. `(0, 0)` when runtime keys are disabled. `ark-serve`
    /// surfaces these through its `STATS` message.
    pub fn runtime_key_cache_stats(&self) -> (u64, u64) {
        self.runtime.as_ref().map_or((0, 0), |c| {
            (
                c.hits.load(Ordering::Relaxed),
                c.misses.load(Ordering::Relaxed),
            )
        })
    }

    /// Resolves the key for a Galois element: eagerly generated
    /// material first (declared rotations, conjugation, bootstrap
    /// transform keys), then the runtime cache — deriving on a miss.
    ///
    /// # Panics
    ///
    /// Panics if the key is neither held nor runtime-derivable. The
    /// metadata front admits a rotation or conjugation only when its
    /// key was declared (hence generated at build time) or runtime
    /// keys are on, so reaching that is a bug in this crate.
    pub(super) fn galois_key(&self, ctx: &CkksContext, g: GaloisElement) -> ResolvedKey<'_> {
        if let Some(key) = self.rotations.get(g) {
            return ResolvedKey::Eager(key);
        }
        let cache = self
            .runtime
            .as_ref()
            .expect("the front admitted an op whose key is neither declared nor derivable");
        ResolvedKey::Runtime(cache.get_or_derive(g, || {
            ctx.gen_galois_key_seeded(g, &self.sk, self.a_master, self.noise_master)
        }))
    }

    /// The public encryption key.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The multiplication (relinearization) key.
    pub fn mult_key(&self) -> &EvalKey {
        &self.evk_mult
    }

    /// The rotation/conjugation key set.
    pub fn rotation_keys(&self) -> &RotationKeys {
        &self.rotations
    }

    /// The *declared*, user-visible subset of the rotation/conjugation
    /// keys as `(Galois element, key)` pairs in ascending element order
    /// — what key distribution ships, borrowed straight from the
    /// resident keys. A bootstrapping session also holds internal
    /// transform keys in [`Self::rotation_keys`]; those never appear
    /// here (they are not part of the declared surface, and exporting
    /// them would balloon key downloads far beyond what the session
    /// asked for).
    pub fn declared_rotation_keys(&self) -> Vec<(u64, &EvalKey)> {
        let n = 2 * self.declared.slots.max(1); // slots = N/2
        let conjugation = self
            .declared
            .conjugation
            .then(|| GaloisElement::conjugation(n));
        let declared: Vec<u64> = self
            .declared
            .rotations()
            .map(|r| GaloisElement::from_rotation(r, n))
            .chain(conjugation)
            .map(|g| g.0)
            .collect();
        self.rotations
            .iter()
            .filter(|(g, _)| declared.contains(g))
            .collect()
    }

    /// The declared key set this chain was generated from.
    pub fn declared(&self) -> &DeclaredKeys {
        &self.declared
    }

    /// Total evaluation-key storage in words (the working set the ARK
    /// scratchpad must hold).
    pub fn evk_words(&self) -> usize {
        self.evk_mult.words() + self.rotations.words()
    }

    /// Total key-material bytes held by this chain: public key,
    /// multiplication key, rotation keys and the secret key. This is
    /// the per-parameter-set resident cost an `ark-serve` server pays
    /// *once* and then shares across every session — the serving-layer
    /// analogue of ARK's inter-operation key reuse.
    pub fn byte_len(&self) -> usize {
        self.pk.byte_len()
            + self.evk_mult.byte_len()
            + self.rotations.byte_len()
            + self.sk.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use ark_ckks::params::CkksParams;
    use ark_math::cfft::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A session numbers its fresh ciphertexts' seeds off its chain's
    /// public master, and none of them is an output of the generator
    /// that drew `sk` and goes on to draw the errors: a seed on the
    /// wire tells a reader nothing about that stream.
    #[test]
    fn fresh_seeds_are_numbered_off_the_public_master() {
        let mut engine = Engine::builder()
            .params(CkksParams::tiny())
            .seed(5)
            .build()
            .unwrap();
        let seeds: Vec<u64> = (0..16)
            .map(|_| {
                let ct = engine.encrypt(&[C64::new(0.5, 0.0)], 1).unwrap();
                ct.a_seed.expect("a seeded ciphertext")
            })
            .collect();
        let a_master = engine.keychain().unwrap().a_master;
        let numbered: Vec<u64> = (0..16)
            .map(|n| ark_ckks::keys::ciphertext_seed(a_master, n))
            .collect();
        assert_eq!(seeds, numbered);
        // `sk`, the two masters and 16 encryptions' errors (12 draws a
        // coefficient) take fewer than 13·16·N + 2N outputs
        let mut stream = StdRng::seed_from_u64(5);
        let outputs: std::collections::HashSet<u64> = (0..16 * 16 * engine.params().n())
            .map(|_| stream.gen::<u64>())
            .collect();
        assert!(outputs.contains(&a_master));
        assert!(seeds.iter().all(|seed| !outputs.contains(seed)));
    }
}
