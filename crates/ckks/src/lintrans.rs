//! Homomorphic linear transforms with a progression-aware BSGS plan and
//! selectable key strategy.
//!
//! A slot-space linear map `y = M·z` decomposes into generalized
//! diagonals, `y = Σ_d D_d ⊙ rot(z, d)`. The rotation amounts of an
//! H-(I)DFT stage are not an index *range* but an arithmetic
//! *progression* that wraps around the slot cycle — `{0, ±s, …, ±7s}` at
//! radix 2^3 — so the plan is made over the progression (§IV-A):
//!
//! - **stride** `s = gcd(n, all nonzero indices)`; the indices become
//!   units `u = d/s` on the cycle `Z_{n/s}`;
//! - **window**: the units are covered by the shortest cyclic interval,
//!   the one that starts at `k0`, just after their largest cyclic gap
//!   (`{0..7, 57..63}` on `Z_64` is the contiguous span `−7..7`, 15
//!   units, not `0..63`); `span` is its length;
//! - **split** `g = 2^⌈log2 √span⌉` baby steps, `⌈span/g⌉` giant steps.
//!
//! With `w = i + g·j` the position inside the window and
//! `z' = rot(z, k0·s)`, Eq. 8 becomes
//!
//! ```text
//! y = Σ_j rot_{j·g·s}( Σ_i rot(D_{(k0+i+g·j)·s}, −j·g·s) ⊙ rot(z', i·s) )
//! ```
//!
//! (the diagonals are rotated clear-side, for free): babies step by `s`,
//! giants by `g·s`, so a `2^{k+1}−1`-diagonal stage costs
//! `(g−1) + (⌈span/g⌉−1)` key-switches. A dense or band transform has
//! `s = 1`, `k0 = 0` and plans over its index range.
//!
//! The *key strategy* decides how `z'` and the two progressions are
//! reached (Fig. 1, see [`crate::minks`]):
//!
//! - [`KeyStrategy::Baseline`] rotates the input directly by every
//!   occurring `(k0+i)·s` (hoisted: one shared digit decomposition) and
//!   every inner sum by its `j·g·s` — one key per amount;
//! - [`KeyStrategy::HoistedMinimal`] pre-rotates by `k0·s` with a key of
//!   its own, then iterates `evk^{(s)}` and `evk^{(g·s)}` — 3 keys;
//! - [`KeyStrategy::MinKs`] evaluates the same chains; the pre-rotation
//!   is removed *between* transforms, by [`LinearTransform::re_anchored`]
//!   (which [`crate::bootstrap::Bootstrapper`] applies to every stage),
//!   leaving 2 keys. A lone un-anchored transform has no neighbour to
//!   cancel against and pays the pre-rotation like `HoistedMinimal`.
//!
//! [`LinearTransform::plan`] is the one description of all of this: the
//! evaluator executes it, and key generation
//! ([`LinearTransform::required_rotations`]) and the bootstrap's stage
//! plans read it, so accounting cannot drift from execution.
//!
//! [`LinearTransform`] is the crate's one diagonal-form map: the
//! bootstrap's H-(I)DFT factors are built as transforms by
//! [`crate::dft`], which composes, scales and tiles them with this
//! type's crate-internal methods, and the same values are re-anchored,
//! planned and evaluated here.

use crate::ciphertext::Ciphertext;
use crate::keys::RotationKeys;
use crate::minks::KeyStrategy;
use crate::params::CkksContext;
use ark_math::cfft::C64;
use std::collections::{BTreeMap, BTreeSet};

/// A slot-space linear transform in diagonal form, with its BSGS plan.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    n: usize,
    /// Nonzero generalized diagonals: rotation amount (mod `n`) → vector.
    diagonals: BTreeMap<usize, Vec<C64>>,
    /// Stride `s`: the gcd of `n` and every nonzero rotation amount.
    stride: usize,
    /// Window start `k0`, in units of `s` on the cycle `Z_{n/s}`.
    offset: usize,
    /// Window length in units.
    span: usize,
    /// Baby-step count `g`, in units.
    baby: usize,
}

/// What one evaluation of a [`LinearTransform`] costs under one
/// [`KeyStrategy`]: the read-only view of the plan the evaluator runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsgsPlan {
    /// Stride `s` of the rotation progression, in slots.
    pub stride: usize,
    /// Window start `k0`, in units of `s` on the cycle `Z_{n/s}`.
    pub offset: usize,
    /// Window length in units (at least the diagonal count).
    pub span: usize,
    /// Key-switches that bring the input to the window start: 1 under
    /// the iterated strategies when `k0·s ≢ 0`, else 0 (`Baseline` folds
    /// the offset into its baby amounts).
    pub pre_rotations: usize,
    /// Baby key-switches.
    pub babies: usize,
    /// Giant key-switches.
    pub giants: usize,
    /// The distinct rotation amounts (in `1..n`, ascending) whose keys
    /// the evaluation loads.
    pub keys: Vec<i64>,
}

impl BsgsPlan {
    /// Total rotation key-switches of one evaluation.
    pub fn key_switches(&self) -> usize {
        self.pre_rotations + self.babies + self.giants
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The progression ascending rotation amounts on `Z_n` form, as
/// `(stride s, window start k0, span)`: `s` is the gcd of `n` and every
/// amount, and the window of `span` units on the cycle `Z_{n/s}` starts
/// just after the units' largest cyclic gap. The gap that wraps past
/// the cycle's end wins ties, so an index range that already starts at
/// 0 keeps `k0 = 0`.
fn progression(n: usize, amounts: &[usize]) -> (usize, usize, usize) {
    let stride = amounts.iter().fold(n, |s, &d| gcd(s, d));
    let cycle = n / stride;
    let units: Vec<usize> = amounts.iter().map(|&d| d / stride).collect();
    let (mut offset, mut gap) = match (units.first(), units.last()) {
        (Some(&first), Some(&last)) => (first, first + cycle - last),
        _ => (0, cycle),
    };
    for pair in units.windows(2) {
        if pair[1] - pair[0] > gap {
            (offset, gap) = (pair[1], pair[1] - pair[0]);
        }
    }
    (stride, offset, cycle - gap + 1)
}

impl LinearTransform {
    /// Builds from an explicit diagonal map and plans the BSGS split
    /// over the indices' progression (stride, window, `g ≈ √span`; see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if any diagonal has the wrong length or an out-of-range
    /// index.
    pub fn from_diagonals(n: usize, diagonals: BTreeMap<usize, Vec<C64>>) -> Self {
        for (&d, v) in &diagonals {
            assert!(d < n, "diagonal index {d} out of range");
            assert_eq!(v.len(), n, "diagonal {d} has wrong length");
        }
        let amounts: Vec<usize> = diagonals.keys().copied().collect();
        let (stride, offset, span) = progression(n, &amounts);
        let mut baby = 1usize;
        while baby * baby < span {
            baby <<= 1;
        }
        Self {
            n,
            diagonals,
            stride,
            offset,
            span,
            baby,
        }
    }

    /// [`Self::from_diagonals`] without the numerically zero diagonals
    /// that cancellation or a sparse matrix leaves behind.
    pub(crate) fn from_nonzero_diagonals(
        n: usize,
        mut diagonals: BTreeMap<usize, Vec<C64>>,
    ) -> Self {
        diagonals.retain(|_, v| v.iter().any(|z| z.abs() > 1e-12));
        Self::from_diagonals(n, diagonals)
    }

    /// Extracts diagonals from a dense matrix (`rows[k][j] = M[k][j]`),
    /// dropping all-zero diagonals.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is ragged — every row must have length
    /// `rows.len()` (the transform is square over the slot space).
    pub fn from_matrix(rows: &[Vec<C64>]) -> Self {
        let n = rows.len();
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                n,
                "matrix row {k} has {} entries but the transform is {n}×{n} \
                 (every row must have length {n})",
                row.len()
            );
        }
        let diagonals = (0..n)
            .map(|d| (d, (0..n).map(|k| rows[k][(k + d) % n]).collect()))
            .collect();
        Self::from_nonzero_diagonals(n, diagonals)
    }

    /// Slot count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (nonzero) diagonals.
    pub fn diagonal_count(&self) -> usize {
        self.diagonals.len()
    }

    /// Rotation amounts of the stored diagonals, ascending.
    #[cfg(test)]
    pub(crate) fn amounts(&self) -> Vec<usize> {
        self.diagonals.keys().copied().collect()
    }

    /// Applies the transform to a clear vector (test oracle).
    #[cfg(test)]
    pub(crate) fn apply_clear(&self, z: &[C64]) -> Vec<C64> {
        assert_eq!(z.len(), self.n);
        let mut out = vec![C64::zero(); self.n];
        for (&d, diag) in &self.diagonals {
            for k in 0..self.n {
                out[k] = out[k] + diag[k] * z[(k + d) % self.n];
            }
        }
        out
    }

    /// Composition `self ∘ inner` (apply `inner` first):
    /// `D^{out}_{a+b} += D^{self}_a ⊙ rot(D^{inner}_b, a)`.
    pub(crate) fn compose(&self, inner: &Self) -> Self {
        assert_eq!(self.n, inner.n);
        let n = self.n;
        let mut out = BTreeMap::new();
        for (&a, da) in &self.diagonals {
            for (&b, db) in &inner.diagonals {
                let entry = out
                    .entry((a + b) % n)
                    .or_insert_with(|| vec![C64::zero(); n]);
                for k in 0..n {
                    entry[k] = entry[k] + da[k] * db[(k + a) % n];
                }
            }
        }
        Self::from_nonzero_diagonals(n, out)
    }

    /// Every diagonal scaled by a real factor.
    pub(crate) fn scaled(&self, factor: f64) -> Self {
        let diagonals = self
            .diagonals
            .iter()
            .map(|(&d, v)| (d, v.iter().map(|z| z.scale(factor)).collect()))
            .collect();
        Self::from_diagonals(self.n, diagonals)
    }

    /// The same map on `slots`-long vectors that repeat with period
    /// `n`: every diagonal is tiled, and every amount keeps its residue
    /// mod `n` but is placed at its window unit counted from a start
    /// taken in `(−n/2, n/2]` — so the tiled map plans the same stride,
    /// span and key-switches, and `±` amounts land on the same keys
    /// whichever transform they come from. `slots = n` is the same map.
    ///
    /// # Panics
    ///
    /// Panics unless `slots` is a multiple of `n`.
    pub(crate) fn tiled(&self, slots: usize) -> Self {
        assert!(
            slots.is_multiple_of(self.n),
            "{slots} slots do not tile {}",
            self.n
        );
        let (cycle, offset) = ((self.n / self.stride) as i64, self.offset as i64);
        let start = offset - if 2 * offset > cycle { cycle } else { 0 };
        let diagonals = self
            .diagonals
            .iter()
            .map(|(&d, v)| {
                let amount = (start + self.window_unit(d) as i64) * self.stride as i64;
                let tiled = v.iter().cycle().take(slots).copied().collect();
                (amount.rem_euclid(slots as i64) as usize, tiled)
            })
            .collect();
        Self::from_diagonals(slots, diagonals)
    }

    /// Position `w` of diagonal `d` inside the window, in units of `s`:
    /// `d = (k0 + w)·s mod n`.
    fn window_unit(&self, d: usize) -> usize {
        let cycle = self.n / self.stride;
        (d / self.stride + cycle - self.offset) % cycle
    }

    /// Window position of diagonal `d` as `(baby i, giant j)`:
    /// `d = (k0 + i + g·j)·s mod n`.
    fn cell(&self, d: usize) -> (usize, usize) {
        let w = self.window_unit(d);
        (w % self.baby, w / self.baby)
    }

    /// [`Self::cell`] of every stored diagonal, in index order.
    fn cells(&self) -> Vec<(usize, usize)> {
        self.diagonals.keys().map(|&d| self.cell(d)).collect()
    }

    /// The rotation `k0·s mod n` that brings the input to the window
    /// start (0 when the window starts at the main diagonal).
    fn pre_rotation(&self) -> usize {
        self.offset * self.stride % self.n
    }

    /// `Baseline`'s direct amount for baby `i`: `(k0 + i)·s mod n`.
    fn baby_amount(&self, i: usize) -> usize {
        (self.offset + i) * self.stride % self.n
    }

    /// The giant progression's common difference `g·s`.
    fn giant_step(&self) -> usize {
        self.baby * self.stride
    }

    /// The plan an evaluation under `strategy` executes: how many
    /// key-switches of each kind, and which keys they load.
    pub fn plan(&self, strategy: KeyStrategy) -> BsgsPlan {
        let cells = self.cells();
        let mut keys = BTreeSet::new();
        let (pre_rotations, babies, giants) = match strategy {
            KeyStrategy::Baseline => {
                // one direct rotation per occurring baby and giant amount
                let babies: BTreeSet<usize> = cells
                    .iter()
                    .map(|&(i, _)| self.baby_amount(i))
                    .filter(|&amount| amount != 0)
                    .collect();
                let giants: BTreeSet<usize> = cells
                    .iter()
                    .filter(|&&(_, j)| j != 0)
                    .map(|&(_, j)| j * self.giant_step())
                    .collect();
                let counts = (0, babies.len(), giants.len());
                keys.extend(babies);
                keys.extend(giants);
                counts
            }
            KeyStrategy::HoistedMinimal | KeyStrategy::MinKs => {
                // iterate evk^{(s)} up to the last occurring baby and
                // evk^{(g·s)} up to the last occurring giant
                let pre = self.pre_rotation();
                let babies = cells.iter().map(|&(i, _)| i).max().unwrap_or(0);
                let giants = cells.iter().map(|&(_, j)| j).max().unwrap_or(0);
                if pre != 0 {
                    keys.insert(pre);
                }
                if babies != 0 {
                    keys.insert(self.stride);
                }
                if giants != 0 {
                    keys.insert(self.giant_step());
                }
                (usize::from(pre != 0), babies, giants)
            }
        };
        BsgsPlan {
            stride: self.stride,
            offset: self.offset,
            span: self.span,
            pre_rotations,
            babies,
            giants,
            keys: keys.into_iter().map(|amount| amount as i64).collect(),
        }
    }

    /// Exactly the rotation amounts a homomorphic evaluation asks
    /// [`RotationKeys`] for under the given strategy — `{s, g·s}` (and
    /// `k0·s` while the transform is not anchored) for the iterated
    /// strategies, every occurring `(k0+i)·s` and `j·g·s` for
    /// `Baseline`. Feed this to [`CkksContext::gen_rotation_keys`].
    pub fn required_rotations(&self, strategy: KeyStrategy) -> Vec<i64> {
        self.plan(strategy).keys
    }

    /// Min-KS's clear-side removal of the pre-rotation. Returns
    /// `(M̃, c)` with
    ///
    /// ```text
    /// M ∘ rot_pending = rot_c ∘ M̃,    c = pending + k0·s  (mod n)
    /// ```
    ///
    /// where `M̃` is anchored (its window starts at the main diagonal, so
    /// it plans no pre-rotation). Two identities compose: a pending
    /// input rotation moves to the output side, `M ∘ rot_p = rot_p ∘ M'`
    /// with `M'` keeping `M`'s indices and holding `rot(D_d, −p)`
    /// (rotations commute with each other and distribute over `⊙`); and
    /// the window offset `a = k0·s` factors out, `M' = rot_a ∘ M̃` with
    /// diagonal `d` moved to `d − a` and rotated by a further `−a`. A
    /// pipeline threads `c` into the next transform's `pending` and
    /// rotates once at the end, by the final `c`, if that is nonzero.
    pub fn re_anchored(&self, pending: usize) -> (Self, usize) {
        let n = self.n;
        let anchor = self.pre_rotation();
        let c = (pending + anchor) % n;
        let diagonals = self
            .diagonals
            .iter()
            .map(|(&d, diag)| {
                let moved: Vec<C64> = (0..n).map(|k| diag[(k + n - c) % n]).collect();
                ((d + n - anchor) % n, moved)
            })
            .collect();
        (Self::from_diagonals(n, diagonals), c)
    }
}

impl CkksContext {
    /// Evaluates `M·z` homomorphically by the transform's BSGS plan
    /// under the chosen key strategy, consuming one multiplicative
    /// level.
    ///
    /// All strategies produce the same message; they differ only in which
    /// rotation keys they touch (and, on ARK, in how much evk traffic
    /// they generate). Under [`KeyStrategy::Baseline`] the baby loop is
    /// *hoisted*: every `rot(ct, (k0+i)·s)` is evaluated from one shared
    /// digit decomposition of `ct`
    /// ([`CkksContext::hoisted_rotate_many`]), which is bit-identical to
    /// per-rotation evaluation (`tests/hoisting_equivalence.rs`) but
    /// pays the `dnum'` mod-up BConvRoutines once instead of once per
    /// baby. The iterated strategies' babies step a single `evk^{(s)}`
    /// — a serial chain whose inputs change every step, so there is
    /// nothing to hoist there; giant rotations each have a distinct
    /// input under every strategy.
    ///
    /// # Panics
    ///
    /// Panics if a key in [`LinearTransform::required_rotations`] is
    /// missing, the transform has no diagonal, or the ciphertext has no
    /// level to spend.
    pub fn eval_linear_transform(
        &self,
        ct: &Ciphertext,
        lt: &LinearTransform,
        strategy: KeyStrategy,
        keys: &RotationKeys,
    ) -> Ciphertext {
        self.eval_linear_transform_impl(ct, lt, strategy, keys, true)
    }

    /// Test oracle, not API: [`Self::eval_linear_transform`] with
    /// hoisting disabled, so every baby rotation pays its own digit
    /// decomposition. Both paths must produce identical ciphertexts at
    /// every strategy and thread count
    /// (`tests/hoisting_equivalence.rs`).
    #[doc(hidden)]
    pub fn eval_linear_transform_per_rotation(
        &self,
        ct: &Ciphertext,
        lt: &LinearTransform,
        strategy: KeyStrategy,
        keys: &RotationKeys,
    ) -> Ciphertext {
        self.eval_linear_transform_impl(ct, lt, strategy, keys, false)
    }

    fn eval_linear_transform_impl(
        &self,
        ct: &Ciphertext,
        lt: &LinearTransform,
        strategy: KeyStrategy,
        keys: &RotationKeys,
        hoist_babies: bool,
    ) -> Ciphertext {
        assert_eq!(lt.n(), self.params().slots(), "transform/slot mismatch");
        assert!(ct.level >= 1, "linear transform needs one level");
        let n = lt.n;
        let level = ct.level;
        let cells = lt.cells();
        let max_baby = cells
            .iter()
            .map(|&(i, _)| i)
            .max()
            .expect("transform has at least one diagonal");
        let max_giant = cells.iter().map(|&(_, j)| j).max().unwrap_or(0);

        // Baby rotations rot(z', i·s) with z' = rot(ct, k0·s).
        let babies: Vec<Option<Ciphertext>> = match strategy {
            KeyStrategy::Baseline => {
                // only the occurring babies, each straight from `ct` by
                // (k0+i)·s — the window offset costs no extra rotation
                let needed: BTreeSet<usize> = cells.iter().map(|&(i, _)| i).collect();
                let amounts: Vec<i64> = needed.iter().map(|&i| lt.baby_amount(i) as i64).collect();
                let rotated = if hoist_babies {
                    // one decomposition serves every occurring baby
                    self.hoisted_rotate_many(ct, &amounts, keys)
                        .expect("caller provides baseline baby keys")
                } else {
                    amounts
                        .iter()
                        .map(|&r| {
                            self.rotate(ct, r, keys)
                                .expect("caller provides baseline baby keys")
                        })
                        .collect()
                };
                let mut by_index: BTreeMap<usize, Ciphertext> =
                    needed.into_iter().zip(rotated).collect();
                (0..=max_baby).map(|i| by_index.remove(&i)).collect()
            }
            KeyStrategy::HoistedMinimal | KeyStrategy::MinKs => {
                let anchored;
                let start = match lt.pre_rotation() {
                    0 => ct,
                    pre => {
                        anchored = self
                            .rotate(ct, pre as i64, keys)
                            .expect("caller provides the pre-rotation key");
                        &anchored
                    }
                };
                self.rotate_chain(start, lt.stride as i64, max_baby, keys)
                    .into_iter()
                    .map(Some)
                    .collect()
            }
        };

        // Inner sums per giant step j: Σ_i rot(diag, −j·g·s) ⊙ baby_i.
        let mut inners: Vec<Option<Ciphertext>> = vec![None; max_giant + 1];
        for (diag, &(i, j)) in lt.diagonals.values().zip(&cells) {
            // rotate the diagonal by −(j·g·s): clear-side, free
            let shift = j * lt.giant_step() % n;
            let rotated_diag: Vec<C64> = (0..n).map(|k| diag[(k + n - shift) % n]).collect();
            let pt = self.encode_for_mul(&rotated_diag, level);
            let baby = babies[i].as_ref().expect("baby rotation computed");
            let term = self.mul_plain(baby, &pt);
            inners[j] = Some(match inners[j].take() {
                Some(acc) => self.add(&acc, &term).expect("inner terms share one scale"),
                None => term,
            });
        }

        // Giant accumulation: Σ_j rot(inner_j, j·g·s), empty giants skipped.
        let result = match strategy {
            KeyStrategy::Baseline => {
                let mut acc: Option<Ciphertext> = None;
                for (j, inner) in inners.iter().enumerate() {
                    if let Some(inner) = inner {
                        let rotated = self
                            .rotate(inner, (j * lt.giant_step()) as i64, keys)
                            .expect("caller provides baseline giant keys");
                        acc = Some(match acc {
                            Some(a) => self.add(&a, &rotated).expect("giant terms share one scale"),
                            None => rotated,
                        });
                    }
                }
                acc.expect("transform has at least one diagonal")
            }
            KeyStrategy::HoistedMinimal | KeyStrategy::MinKs => {
                self.rotate_accumulate(&inners, lt.giant_step() as i64, keys)
            }
        };
        self.rescale(&result)
            .expect("transform input has a level to rescale into")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use crate::keys::SecretKey;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, SecretKey, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let sk = ctx.gen_secret_key(&mut rng);
        (ctx, sk, rng)
    }

    fn random_matrix(n: usize, rng: &mut impl rand::Rng) -> Vec<Vec<C64>> {
        (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| C64::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn diagonal_extraction_matches_dense_product() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 8;
        let m = random_matrix(n, &mut rng);
        let lt = LinearTransform::from_matrix(&m);
        let z: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let via_diag = lt.apply_clear(&z);
        let dense: Vec<C64> = (0..n)
            .map(|k| (0..n).fold(C64::zero(), |acc, j| acc + m[k][j] * z[j]))
            .collect();
        assert!(max_error(&via_diag, &dense) < 1e-9);
    }

    #[test]
    fn bsgs_split_key_requirements() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 16;
        let lt = LinearTransform::from_matrix(&random_matrix(n, &mut rng));
        let minks = lt.required_rotations(KeyStrategy::MinKs);
        assert_eq!(minks, vec![1, 4]); // s and g·s, g = sqrt(16)
        let baseline = lt.required_rotations(KeyStrategy::Baseline);
        assert_eq!(baseline, vec![1, 2, 3, 4, 8, 12]);
        // a dense transform's window starts at the main diagonal, so no
        // strategy pre-rotates: the iterated ones load {s, g·s} alone
        for strategy in [
            KeyStrategy::Baseline,
            KeyStrategy::HoistedMinimal,
            KeyStrategy::MinKs,
        ] {
            let plan = lt.plan(strategy);
            assert_eq!((plan.stride, plan.offset, plan.span), (1, 0, 16));
            assert_eq!(plan.pre_rotations, 0);
            // g = 4 babies and ⌈16/4⌉ = 4 giants, the first of each free
            assert_eq!((plan.babies, plan.giants), (3, 3));
        }
        assert_eq!(lt.plan(KeyStrategy::MinKs).keys.len(), 2);
        assert_eq!(lt.plan(KeyStrategy::HoistedMinimal).keys.len(), 2);
        assert_eq!(lt.plan(KeyStrategy::Baseline).keys.len(), 6);
    }

    /// Diagonals `{u·s}` for the given units, deterministic values.
    fn strided(n: usize, s: usize, units: &[i64]) -> LinearTransform {
        let diagonals = units
            .iter()
            .map(|&u| {
                let d = (u * s as i64).rem_euclid(n as i64) as usize;
                let v = (0..n)
                    .map(|k| {
                        let x = ((d * 13 + k * 7) % 31) as f64 / 31.0 - 0.5;
                        C64::new(x, 0.25 - x)
                    })
                    .collect();
                (d, v)
            })
            .collect();
        LinearTransform::from_diagonals(n, diagonals)
    }

    #[test]
    fn dft_stage_plans_over_the_wrapped_progression() {
        // a radix-2^3 H-(I)DFT stage at 512 slots: {0, ±8, …, ±56}
        let units: Vec<i64> = (-7..=7).collect();
        let lt = strided(512, 8, &units);
        assert_eq!(lt.diagonal_count(), 15);
        let minimal = lt.plan(KeyStrategy::HoistedMinimal);
        assert_eq!((minimal.stride, minimal.offset, minimal.span), (8, 57, 15));
        assert_eq!(
            (minimal.pre_rotations, minimal.babies, minimal.giants),
            (1, 3, 3)
        );
        assert_eq!(minimal.keys, vec![8, 32, 456]); // s, g·s, k0·s = −56
        assert_eq!(minimal.key_switches(), 7);
        // Baseline folds the offset into its four baby amounts −56..−32
        let baseline = lt.plan(KeyStrategy::Baseline);
        assert_eq!(
            (baseline.pre_rotations, baseline.babies, baseline.giants),
            (0, 4, 3)
        );
        assert_eq!(baseline.keys, vec![32, 64, 96, 456, 464, 472, 480]);
        // the edge stage: ±k·64 mod 512 collapses to 8 diagonals
        let edge = strided(512, 64, &units);
        assert_eq!(edge.diagonal_count(), 8);
        let plan = edge.plan(KeyStrategy::MinKs);
        assert_eq!((plan.stride, plan.offset, plan.span), (64, 0, 8));
        assert_eq!((plan.pre_rotations, plan.babies, plan.giants), (0, 3, 1));
        assert_eq!(plan.keys, vec![64, 256]);
        // degenerate: one off-centre diagonal is a window of one unit
        let single = strided(16, 1, &[5]);
        let plan = single.plan(KeyStrategy::Baseline);
        assert_eq!((plan.babies, plan.giants, plan.keys), (1, 0, vec![5]));
        let plan = single.plan(KeyStrategy::MinKs);
        assert_eq!((plan.pre_rotations, plan.babies, plan.giants), (1, 0, 0));
        // and the identity needs no key at all
        let identity = strided(16, 1, &[0]);
        assert!(identity.required_rotations(KeyStrategy::MinKs).is_empty());
    }

    #[test]
    fn re_anchoring_moves_the_offset_to_the_output_side() {
        let n = 64;
        let rot = |z: &[C64], r: usize| -> Vec<C64> { (0..n).map(|k| z[(k + r) % n]).collect() };
        let z: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let lt = strided(n, 4, &[-3, -2, -1, 0, 1, 3]);
        for pending in [0usize, 5, 63] {
            let (anchored, c) = lt.re_anchored(pending);
            assert_eq!(c, (pending + n - 12) % n);
            // M ∘ rot_pending = rot_c ∘ M̃
            let want = lt.apply_clear(&rot(&z, pending));
            let got = rot(&anchored.apply_clear(&z), c);
            assert!(max_error(&want, &got) < 1e-12, "pending {pending}");
            let plan = anchored.plan(KeyStrategy::MinKs);
            assert_eq!((plan.offset, plan.span, plan.pre_rotations), (0, 7, 0));
            assert_eq!(plan.keys, vec![4, 16]);
        }
    }

    #[test]
    fn wrapped_transform_matches_clear_on_exactly_the_planned_keys() {
        let (ctx, sk, mut rng) = setup();
        let n = ctx.params().slots();
        // units {−2, −1, 0, 1} at stride 2: indices {12, 14, 0, 2}
        let lt = strided(n, 2, &[-2, -1, 0, 1]);
        let z: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.2).sin(), (i as f64 * 0.4).cos()))
            .collect();
        let want = lt.apply_clear(&z);
        let ct = ctx.encrypt(&ctx.encode(&z, 2, ctx.params().scale()), &sk, &mut rng);
        for strategy in [
            KeyStrategy::Baseline,
            KeyStrategy::HoistedMinimal,
            KeyStrategy::MinKs,
        ] {
            let rots = lt.required_rotations(strategy);
            let keys = ctx.gen_rotation_keys(&rots, false, &sk, &mut rng);
            assert_eq!(keys.len(), rots.len());
            let out =
                ctx.decrypt_decode(&ctx.eval_linear_transform(&ct, &lt, strategy, &keys), &sk);
            let err = max_error(&want, &out);
            assert!(err < 2e-2, "{strategy:?}: err={err}");
        }
    }

    #[test]
    fn homomorphic_transform_matches_clear_baseline_and_minks() {
        let (ctx, sk, mut rng) = setup();
        let n = ctx.params().slots();
        let m = random_matrix(n, &mut rng);
        let lt = LinearTransform::from_matrix(&m);
        let z: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.2).sin(), (i as f64 * 0.4).cos()))
            .collect();
        let want = lt.apply_clear(&z);
        let scale = ctx.params().scale();
        let ct = ctx.encrypt(&ctx.encode(&z, 3, scale), &sk, &mut rng);
        for strategy in [KeyStrategy::Baseline, KeyStrategy::MinKs] {
            let rots = lt.required_rotations(strategy);
            let keys = ctx.gen_rotation_keys(&rots, false, &sk, &mut rng);
            let out_ct = ctx.eval_linear_transform(&ct, &lt, strategy, &keys);
            assert_eq!(out_ct.level, 2, "one level consumed");
            let out = ctx.decrypt_decode(&out_ct, &sk);
            let err = max_error(&want, &out);
            assert!(err < 2e-2, "{strategy:?}: err={err}");
        }
    }

    #[test]
    fn strategies_agree_with_each_other() {
        let (ctx, sk, mut rng) = setup();
        let n = ctx.params().slots();
        let m = random_matrix(n, &mut rng);
        let lt = LinearTransform::from_matrix(&m);
        let z: Vec<C64> = (0..n).map(|i| C64::new(0.1 * i as f64, 0.0)).collect();
        let ct = ctx.encrypt(&ctx.encode(&z, 2, ctx.params().scale()), &sk, &mut rng);
        let mut rots = lt.required_rotations(KeyStrategy::Baseline);
        rots.extend(lt.required_rotations(KeyStrategy::MinKs));
        let keys = ctx.gen_rotation_keys(&rots, false, &sk, &mut rng);
        let a = ctx.decrypt_decode(
            &ctx.eval_linear_transform(&ct, &lt, KeyStrategy::Baseline, &keys),
            &sk,
        );
        let b = ctx.decrypt_decode(
            &ctx.eval_linear_transform(&ct, &lt, KeyStrategy::MinKs, &keys),
            &sk,
        );
        assert!(max_error(&a, &b) < 1e-2);
    }

    #[test]
    #[should_panic(expected = "matrix row 1 has 3 entries but the transform is 4×4")]
    fn from_matrix_rejects_ragged_rows() {
        let mut rows = random_matrix(4, &mut rand::rngs::StdRng::seed_from_u64(3));
        rows[1].pop(); // row 1 now has 3 entries
        let _ = LinearTransform::from_matrix(&rows);
    }

    #[test]
    fn hoisted_baby_loop_is_bit_identical_to_per_rotation() {
        let (ctx, sk, mut rng) = setup();
        let n = ctx.params().slots();
        let lt = LinearTransform::from_matrix(&random_matrix(n, &mut rng));
        let z: Vec<C64> = (0..n).map(|i| C64::new(0.05 * i as f64, -0.02)).collect();
        let ct = ctx.encrypt(&ctx.encode(&z, 2, ctx.params().scale()), &sk, &mut rng);
        let mut rots = lt.required_rotations(KeyStrategy::Baseline);
        rots.extend(lt.required_rotations(KeyStrategy::MinKs));
        let keys = ctx.gen_rotation_keys(&rots, false, &sk, &mut rng);
        for strategy in [
            KeyStrategy::Baseline,
            KeyStrategy::HoistedMinimal,
            KeyStrategy::MinKs,
        ] {
            let hoisted = ctx.eval_linear_transform(&ct, &lt, strategy, &keys);
            let per_rot = ctx.eval_linear_transform_per_rotation(&ct, &lt, strategy, &keys);
            assert_eq!(hoisted, per_rot, "{strategy:?} paths diverged bitwise");
        }
    }

    #[test]
    fn sparse_transform_skips_zero_diagonals() {
        let n = 16;
        let mut diagonals = BTreeMap::new();
        diagonals.insert(0usize, vec![C64::new(1.0, 0.0); n]);
        diagonals.insert(5usize, vec![C64::new(0.5, 0.0); n]);
        let lt = LinearTransform::from_diagonals(n, diagonals);
        assert_eq!(lt.diagonal_count(), 2);
        let z: Vec<C64> = (0..n).map(|i| C64::new(i as f64, 0.0)).collect();
        let out = lt.apply_clear(&z);
        for k in 0..n {
            let want = z[k] + z[(k + 5) % n].scale(0.5);
            assert!((out[k] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_transform_is_identity() {
        let (ctx, sk, mut rng) = setup();
        let n = ctx.params().slots();
        let mut diagonals = BTreeMap::new();
        diagonals.insert(0usize, vec![C64::new(1.0, 0.0); n]);
        let lt = LinearTransform::from_diagonals(n, diagonals);
        let z: Vec<C64> = (0..n).map(|i| C64::new(0.3 * i as f64, -0.1)).collect();
        let ct = ctx.encrypt(&ctx.encode(&z, 2, ctx.params().scale()), &sk, &mut rng);
        let keys = ctx.gen_rotation_keys(
            &lt.required_rotations(KeyStrategy::MinKs),
            false,
            &sk,
            &mut rng,
        );
        let out = ctx.decrypt_decode(
            &ctx.eval_linear_transform(&ct, &lt, KeyStrategy::MinKs, &keys),
            &sk,
        );
        assert!(max_error(&z, &out) < 1e-2);
    }
}
