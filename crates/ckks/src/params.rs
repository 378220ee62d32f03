//! CKKS parameter sets and the shared evaluation context.
//!
//! Table I/III of the paper: a parameter set fixes the ring degree `N`,
//! the maximum multiplicative level `L`, the decomposition number `dnum`
//! (hence `α = (L+1)/dnum` special primes), and the scale `Δ`. The
//! *context* materializes the RNS basis `D = C ∪ B`, NTT tables and
//! the per-level base converters shared by every operation.
//!
//! Two families of presets exist:
//!
//! - **Paper-scale** sets (`ark`, `lattigo`, `f1`, `hundred_x`) used for
//!   data-size analytics and the accelerator model. These are *not*
//!   instantiated functionally in tests (a 2^16-degree bootstrapping run
//!   is minutes of host time) — the simulator consumes only their shape.
//! - **Test-scale** sets (`tiny`, `small`, `boot_test`) with reduced `N`
//!   for functional validation. They keep the same structure (dnum
//!   decomposition, special primes, sparse secret) at toy security.

use ark_math::automorphism::{eval_permutation, GaloisElement};
use ark_math::bconv::BaseConverter;
use ark_math::cfft::SpecialFft;
use ark_math::crt::CrtContext;
use ark_math::par::ThreadPool;
use ark_math::poly::RnsBasis;
use ark_math::primes::{generate_ntt_primes, generate_ntt_primes_excluding};
use ark_math::scratch::ScratchArena;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// Static description of a CKKS parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    /// log2 of the ring degree.
    pub log_n: u32,
    /// Maximum multiplicative level `L` (the chain has `L+1` primes).
    pub max_level: usize,
    /// Decomposition number for generalized key-switching.
    pub dnum: usize,
    /// Bits of the base prime `q_0`.
    pub q0_bits: u32,
    /// Bits of the scale primes `q_1..q_L` (`Δ ≈ 2^scale_bits`).
    pub scale_bits: u32,
    /// Bits of the special primes `p_0..p_{α−1}`.
    pub special_bits: u32,
    /// Hamming weight of the sparse ternary secret (0 ⇒ dense ternary).
    pub secret_hamming_weight: usize,
    /// Levels consumed by bootstrapping (`L_boot`), for the paper-scale
    /// throughput metric (Eq. 13). Purely descriptive.
    pub boot_levels: usize,
    /// Human-readable name.
    pub name: &'static str,
}

impl CkksParams {
    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Slot count `n = N/2` (full packing).
    pub fn slots(&self) -> usize {
        self.n() / 2
    }

    /// `α = (L+1)/dnum`, the special-prime count.
    ///
    /// # Panics
    ///
    /// Panics if `dnum` does not divide `L+1`.
    pub fn alpha(&self) -> usize {
        assert_eq!((self.max_level + 1) % self.dnum, 0, "dnum must divide L+1");
        (self.max_level + 1) / self.dnum
    }

    /// The scale `Δ`.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// Ciphertext-equivalents of one hoisted digit decomposition:
    /// `dnum` digits over the extended basis (`L+1+α` limbs) against a
    /// `2·(L+1)`-limb ciphertext, `⌈dnum·(L+1+α) / 2(L+1)⌉` — the
    /// transient weight memory budgets give a fused rotate-sum.
    pub fn digit_units(&self) -> usize {
        let l1 = self.max_level + 1;
        (self.dnum * (l1 + self.alpha())).div_ceil(2 * l1)
    }

    /// The chain primes `q_0..q_L` (`q_0` has `q0_bits`, the rest
    /// `scale_bits`) — a pure function of the parameter set. This is
    /// the chain [`CkksContext`] materializes; the engine's metadata
    /// front range-checks top-prime-scale encodings (`mul_const`,
    /// `mul_plain`) against it without building any NTT table.
    ///
    /// # Panics
    ///
    /// Panics if a bit width lies outside the prime scan's `(2, 62)`
    /// range or its window holds too few NTT primes for `N`.
    pub fn chain_primes(&self) -> Vec<u64> {
        let n = self.n();
        let mut chain = generate_ntt_primes(n, self.q0_bits, 1);
        let scale_primes =
            generate_ntt_primes_excluding(n, self.scale_bits, self.max_level, &chain);
        chain.extend_from_slice(&scale_primes);
        chain
    }

    /// **Paper Table III, row "ARK"**: `N=2^16, L=23, dnum=4, α=6`.
    pub fn ark() -> Self {
        Self {
            log_n: 16,
            max_level: 23,
            dnum: 4,
            q0_bits: 60,
            scale_bits: 44,
            special_bits: 60,
            secret_hamming_weight: 192,
            boot_levels: 15,
            name: "ARK",
        }
    }

    /// **Paper Table III, row "Lattigo"**: `N=2^16, L=24, dnum=5, α=5`.
    pub fn lattigo() -> Self {
        Self {
            log_n: 16,
            max_level: 24,
            dnum: 5,
            q0_bits: 60,
            scale_bits: 44,
            special_bits: 60,
            secret_hamming_weight: 192,
            boot_levels: 15,
            name: "Lattigo",
        }
    }

    /// **Paper Table III, row "F1"**: `N=2^14, L=15, dnum=16, α=1`
    /// (max-dnum design, 32-bit words in the original).
    pub fn f1() -> Self {
        Self {
            log_n: 14,
            max_level: 15,
            dnum: 16,
            q0_bits: 32,
            scale_bits: 28,
            special_bits: 32,
            secret_hamming_weight: 64,
            boot_levels: 0,
            name: "F1",
        }
    }

    /// **Paper Table III, row "100x"**: `N=2^17, L=29, dnum=3, α=10`.
    pub fn hundred_x() -> Self {
        Self {
            log_n: 17,
            max_level: 29,
            dnum: 3,
            q0_bits: 60,
            scale_bits: 50,
            special_bits: 60,
            secret_hamming_weight: 192,
            boot_levels: 19,
            name: "100x",
        }
    }

    /// Minimal functional set for unit tests: `N=2^5`, 4 levels.
    pub fn tiny() -> Self {
        Self {
            log_n: 5,
            max_level: 3,
            dnum: 2,
            q0_bits: 50,
            scale_bits: 36,
            special_bits: 50,
            secret_hamming_weight: 0,
            boot_levels: 0,
            name: "tiny-test",
        }
    }

    /// Mid-size functional set: `N=2^10`, 9 levels, dnum=2.
    pub fn small() -> Self {
        Self {
            log_n: 10,
            max_level: 9,
            dnum: 2,
            q0_bits: 55,
            scale_bits: 40,
            special_bits: 55,
            secret_hamming_weight: 64,
            boot_levels: 0,
            name: "small-test",
        }
    }

    /// Functional bootstrapping set: `N=2^10` with a deep chain and a
    /// sparse secret so `EvalMod`'s interpolation interval stays small.
    pub fn boot_test() -> Self {
        Self {
            log_n: 10,
            max_level: 20,
            dnum: 3,
            q0_bits: 50,
            scale_bits: 45,
            special_bits: 55,
            secret_hamming_weight: 32,
            boot_levels: 14,
            name: "boot-test",
        }
    }

    // ---- data-size analytics (Table III right half) ----

    /// Bytes of a full-level plaintext polynomial: `(L+1) · N · 8`.
    pub fn plaintext_bytes(&self) -> usize {
        (self.max_level + 1) * self.n() * 8
    }

    /// Bytes of a full-level ciphertext (two polynomials).
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.plaintext_bytes()
    }

    /// Bytes of one evaluation key: `dnum` pairs of polynomials over
    /// `R_PQ` (`α + L + 1` limbs each).
    pub fn evk_bytes(&self) -> usize {
        self.dnum * 2 * (self.alpha() + self.max_level + 1) * self.n() * 8
    }
}

/// Everything key-switching and decoding need at one level `ℓ`,
/// built with the context: the basis-index sets the hot paths borrow,
/// and the constants of Alg. 1–2 that depend only on the parameters
/// and `ℓ`.
#[derive(Debug)]
struct LevelTables {
    /// `C_ℓ ∪ B`, chain limbs first.
    extended: Vec<usize>,
    /// The decomposition groups `C_i ∩ C_ℓ`.
    groups: Vec<Vec<usize>>,
    /// One ModUp converter per group: its limbs to the rest of `C_ℓ ∪ B`.
    modup: Vec<BaseConverter>,
    /// The ModDown converter `B → C_ℓ`.
    moddown: BaseConverter,
    /// `P^{-1} mod q_j` for every chain limb `j ≤ ℓ`.
    moddown_factors: Vec<u64>,
    /// CRT reconstruction over `C_ℓ`.
    crt: CrtContext,
}

impl LevelTables {
    fn new(basis: &RnsBasis, level: usize, special: &[usize], alpha: usize) -> Self {
        let chain: Vec<usize> = (0..=level).collect();
        let extended = [&chain, special].concat();
        let groups: Vec<Vec<usize>> = chain.chunks(alpha).map(<[usize]>::to_vec).collect();
        let modup = groups
            .iter()
            .map(|group| {
                let others: Vec<usize> = extended
                    .iter()
                    .copied()
                    .filter(|i| !group.contains(i))
                    .collect();
                BaseConverter::new(basis, group, &others)
            })
            .collect();
        let moddown_factors = chain
            .iter()
            .map(|&j| {
                let q = basis.modulus(j);
                let p_mod = special.iter().fold(1u64, |acc, &pi| {
                    q.mul(acc, q.reduce(basis.modulus(pi).value()))
                });
                q.inv(p_mod)
            })
            .collect();
        let moduli: Vec<_> = chain.iter().map(|&i| *basis.modulus(i)).collect();
        Self {
            modup,
            moddown: BaseConverter::new(basis, special, &chain),
            moddown_factors,
            crt: CrtContext::new(&moduli),
            extended,
            groups,
        }
    }
}

/// A scratch arena checked out of [`CkksContext::arena`]. Dropping the
/// guard returns the arena (and every buffer it has pooled) to the
/// context, so concurrent ops each hold a private arena and the lock is
/// only taken for the checkout/return itself — never across a kernel.
#[derive(Debug)]
pub struct ArenaGuard<'a> {
    arena: Option<ScratchArena>,
    slot: &'a Mutex<Vec<ScratchArena>>,
}

impl Deref for ArenaGuard<'_> {
    type Target = ScratchArena;
    fn deref(&self) -> &ScratchArena {
        self.arena.as_ref().expect("arena present until drop")
    }
}

impl DerefMut for ArenaGuard<'_> {
    fn deref_mut(&mut self) -> &mut ScratchArena {
        self.arena.as_mut().expect("arena present until drop")
    }
}

impl Drop for ArenaGuard<'_> {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            if let Ok(mut pool) = self.slot.lock() {
                pool.push(arena);
            }
        }
    }
}

/// The shared CKKS evaluation context: basis, FFT tables, and the
/// converter, `P^{-1}` and CRT tables of every level.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    basis: RnsBasis,
    special_fft: SpecialFft,
    /// The special limb indices `B`.
    special: Vec<usize>,
    /// The tables of level `ℓ` at index `ℓ`.
    levels: Vec<LevelTables>,
    /// Evaluation-representation Galois permutations keyed by the
    /// element `g` (one table serves every limb of every digit).
    perms: Mutex<HashMap<u64, Arc<Vec<usize>>>>,
    /// Checked-in scratch arenas (see [`CkksContext::arena`]).
    arenas: Mutex<Vec<ScratchArena>>,
}

impl CkksContext {
    /// Materializes NTT tables and prime chains for a parameter set,
    /// executing limb loops serially (see [`CkksContext::with_pool`]).
    ///
    /// Prime layout in the basis: indices `0..=L` are the chain `C`
    /// (`q_0` first), indices `L+1..L+α` (inclusive) are the special
    /// primes `B`.
    pub fn new(params: CkksParams) -> Self {
        Self::with_pool(params, ThreadPool::serial())
    }

    /// Materializes the context with per-limb hot loops fanned out
    /// across `pool` (limb parallelism of NTT, BConv, key-switching and
    /// element-wise arithmetic). The prime chain, key material drawn
    /// from a given seed, and every ciphertext produced are
    /// *bit-identical* to the serial context — thread count is a pure
    /// throughput knob.
    pub fn with_pool(params: CkksParams, pool: ThreadPool) -> Self {
        let n = params.n();
        let alpha = params.alpha();
        let chain = params.chain_primes();
        let special = generate_ntt_primes_excluding(n, params.special_bits, alpha, &chain);
        let mut all = chain;
        all.extend_from_slice(&special);
        let basis = RnsBasis::with_pool(n, &all, pool);
        // the key-switch inner product sums one product of two canonical
        // residues per digit in a `u128` before it reduces
        // (`keyswitch::InnerProductRow`): `dnum` such terms must fit
        for i in 0..basis.len() {
            let q = basis.modulus(i);
            let window = q.max_lazy_mac_terms(q.value() - 1);
            assert!(
                params.dnum <= window,
                "dnum = {} exceeds the u128 lazy window ({window} terms) of prime {q}",
                params.dnum
            );
        }
        let l = params.max_level;
        let special: Vec<usize> = (l + 1..=l + alpha).collect();
        let levels = (0..=l)
            .map(|level| LevelTables::new(&basis, level, &special, alpha))
            .collect();
        Self {
            special_fft: SpecialFft::new(params.slots()),
            params,
            basis,
            special,
            levels,
            perms: Mutex::new(HashMap::new()),
            arenas: Mutex::new(Vec::new()),
        }
    }

    /// The thread pool limb loops fan out on (serial by default).
    pub fn pool(&self) -> &ThreadPool {
        self.basis.pool()
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The shared RNS basis `D = C ∪ B`.
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// The special FFT used by encoding.
    pub fn special_fft(&self) -> &SpecialFft {
        &self.special_fft
    }

    /// Basis indices of the chain limbs at level `ℓ`: `{0, …, ℓ}`.
    pub fn chain_indices(&self, level: usize) -> &[usize] {
        &self.levels[level].extended[..=level]
    }

    /// Basis indices of the special limbs `B`.
    pub fn special_indices(&self) -> &[usize] {
        &self.special
    }

    /// Basis indices of `D = C_ℓ ∪ B` for key-switching at level `ℓ`.
    pub fn extended_indices(&self, level: usize) -> &[usize] {
        &self.levels[level].extended
    }

    /// The decomposition groups `C_i` intersected with the current level:
    /// `C_i = {q_{αi}, …, q_{α(i+1)−1}} ∩ {q_0..q_ℓ}`.
    pub fn decomposition_groups(&self, level: usize) -> &[Vec<usize>] {
        &self.levels[level].groups
    }

    /// The ModUp converter for decomposition group `group_idx` at
    /// `level` (from the group's limbs to the rest of `C_ℓ ∪ B`).
    pub fn modup_converter(&self, level: usize, group_idx: usize) -> &BaseConverter {
        &self.levels[level].modup[group_idx]
    }

    /// The ModDown converter (`B → C_ℓ`) for `level`.
    pub fn moddown_converter(&self, level: usize) -> &BaseConverter {
        &self.levels[level].moddown
    }

    /// `P^{-1} mod q_j` for every chain limb of `level` — the scalar
    /// sweep that finishes a ModDown.
    pub fn moddown_factors(&self, level: usize) -> &[u64] {
        &self.levels[level].moddown_factors
    }

    /// The CRT reconstruction context over the chain limbs of `level`.
    pub fn crt(&self, level: usize) -> &CrtContext {
        &self.levels[level].crt
    }

    /// The evaluation-representation permutation of the Galois element
    /// `g` (see [`eval_permutation`]), built on first use and kept. It is
    /// the one table filled on demand: the per-level tables have a key
    /// set the parameters fix, but the Galois elements in use are an
    /// open set that the rotation keys decide, and each table is `N`
    /// words.
    pub fn eval_perm(&self, g: GaloisElement) -> Arc<Vec<usize>> {
        let mut cache = self.perms.lock().expect("permutation cache poisoned");
        if let Some(perm) = cache.get(&g.0) {
            return perm.clone();
        }
        let perm = Arc::new(eval_permutation(self.params.n(), g));
        cache.insert(g.0, perm.clone());
        perm
    }

    /// Checks a scratch arena out of the context. Each guard holds a
    /// *private* arena for its whole scope (ops running concurrently on
    /// the same context get distinct arenas), and returns it — with all
    /// the buffers it pooled — on drop. Steady state, every temporary
    /// of the hot ops is served from these pools with zero heap
    /// allocation.
    pub fn arena(&self) -> ArenaGuard<'_> {
        let arena = self
            .arenas
            .lock()
            .expect("arena pool poisoned")
            .pop()
            .unwrap_or_default();
        ArenaGuard {
            arena: Some(arena),
            slot: &self.arenas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_math::crt::BigUint;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ark_params_match_table_iii() {
        let p = CkksParams::ark();
        assert_eq!(p.n(), 1 << 16);
        assert_eq!(p.alpha(), 6);
        // Table III: Pm = 12 MB, [[m]] = 24 MB, evk = 120 MB.
        assert_eq!(p.plaintext_bytes(), 12 << 20);
        assert_eq!(p.ciphertext_bytes(), 24 << 20);
        assert_eq!(p.evk_bytes(), 120 << 20);
    }

    #[test]
    fn lattigo_and_100x_sizes() {
        let lat = CkksParams::lattigo();
        assert_eq!(lat.plaintext_bytes(), 25 << 19); // 12.5 MB
        assert_eq!(lat.ciphertext_bytes(), 25 << 20);
        assert_eq!(lat.evk_bytes(), 150 << 20);
        let hx = CkksParams::hundred_x();
        assert_eq!(hx.plaintext_bytes(), 30 << 20);
        assert_eq!(hx.ciphertext_bytes(), 60 << 20);
        assert_eq!(hx.evk_bytes(), 240 << 20);
    }

    #[test]
    fn f1_sizes_with_its_word_size() {
        // F1 uses 32-bit words; Table III reports 1/2/34 MB. With our
        // 8-byte words the formulas double: check the word-level counts.
        let f1 = CkksParams::f1();
        assert_eq!(f1.alpha(), 1);
        let words = (f1.max_level + 1) * f1.n();
        assert_eq!(words * 4, 1 << 20); // 1 MB at 4-byte words
    }

    #[test]
    fn context_basis_layout() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let p = ctx.params();
        assert_eq!(ctx.basis().len(), p.max_level + 1 + p.alpha());
        assert_eq!(ctx.chain_indices(2), vec![0, 1, 2]);
        assert_eq!(ctx.special_indices(), vec![4, 5]);
        assert_eq!(ctx.extended_indices(1), vec![0, 1, 4, 5]);
    }

    #[test]
    fn decomposition_groups_respect_alpha() {
        let ctx = CkksContext::new(CkksParams::tiny()); // L=3, dnum=2, α=2
        assert_eq!(ctx.decomposition_groups(3), vec![vec![0, 1], vec![2, 3]]);
        // partial last group at lower level
        assert_eq!(ctx.decomposition_groups(2), vec![vec![0, 1], vec![2]]);
        assert_eq!(ctx.decomposition_groups(0), vec![vec![0]]);
    }

    #[test]
    fn level_tables_are_exact_at_every_level() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for params in [
            CkksParams::tiny(),
            CkksParams::small(),
            CkksParams::boot_test(),
        ] {
            let ctx = CkksContext::new(params.clone());
            let basis = ctx.basis();
            for level in 0..=params.max_level {
                let ext = ctx.extended_indices(level);
                for (i, group) in ctx.decomposition_groups(level).iter().enumerate() {
                    let conv = ctx.modup_converter(level, i);
                    let rest: Vec<usize> =
                        ext.iter().copied().filter(|j| !group.contains(j)).collect();
                    assert_eq!(
                        (conv.from_indices(), conv.to_indices()),
                        (&group[..], &rest[..])
                    );
                }
                let down = ctx.moddown_converter(level);
                assert_eq!(down.from_indices(), ctx.special_indices());
                assert_eq!(down.to_indices(), ctx.chain_indices(level));

                let factors = ctx.moddown_factors(level);
                assert_eq!(factors.len(), level + 1);
                for (&j, &inv) in ctx.chain_indices(level).iter().zip(factors) {
                    let q = basis.modulus(j);
                    let p_mod = ctx.special_indices().iter().fold(1, |acc, &i| {
                        q.mul(acc, basis.modulus(i).value() % q.value())
                    });
                    assert_eq!(
                        q.mul(inv, p_mod),
                        1,
                        "{}: P⁻¹ mod q_{j} at level {level}",
                        params.name
                    );
                }

                // ±v for a random v below 2^40 (under Q/2 at every level),
                // its residues taken over the chain's own moduli
                let crt = ctx.crt(level);
                let v: u64 = rng.gen_range(1..1 << 40);
                let chain = ctx.chain_indices(level).iter().map(|&j| basis.modulus(j));
                let residues: Vec<u64> = chain.clone().map(|q| v % q.value()).collect();
                let negated: Vec<u64> = chain.map(|q| q.neg(v % q.value())).collect();
                assert_eq!(crt.decompose(&BigUint::from_u64(v)), residues);
                assert_eq!(
                    crt.reconstruct_signed(&residues),
                    (false, BigUint::from_u64(v))
                );
                assert_eq!(
                    crt.reconstruct_signed(&negated),
                    (true, BigUint::from_u64(v))
                );
            }
        }
    }

    #[test]
    fn chain_primes_near_scale() {
        let ctx = CkksContext::new(CkksParams::small());
        let p = ctx.params();
        for i in 1..=p.max_level {
            let q = ctx.basis().modulus(i).value() as f64;
            let ratio = q / p.scale();
            assert!((ratio - 1.0).abs() < 0.01, "q_{i} strays from Δ: {ratio}");
        }
    }
}
