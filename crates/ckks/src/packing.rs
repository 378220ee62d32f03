//! Slot-packing helpers for data-parallel workloads.
//!
//! CKKS workloads lay their data out over the slot vector in a few
//! recurring shapes: a minibatch packs one sample per fixed-stride
//! block (HELR), an image packs channels of row-major pixels (ResNet),
//! and hoisted rotate-and-sum trees need *selector* weight vectors that
//! keep exactly one residue class (or block range) per term. These are
//! pure `Vec<C64>` constructors — no context or key material — kept
//! here, below `ark-scenarios`, so every consumer agrees on the layout.

use ark_math::cfft::C64;

/// Packs a real matrix row-per-block: slot `s·stride + j` holds
/// `rows[s][j]`; slots past the data (short rows, trailing blocks) are
/// zero.
///
/// # Panics
///
/// Panics if a row exceeds `stride` or the packed matrix exceeds
/// `slots`.
pub fn pack_rows(rows: &[Vec<f64>], stride: usize, slots: usize) -> Vec<C64> {
    assert!(rows.len() * stride <= slots, "matrix exceeds slot count");
    let mut v = vec![C64::zero(); slots];
    for (s, row) in rows.iter().enumerate() {
        assert!(row.len() <= stride, "row {s} exceeds stride {stride}");
        for (j, &x) in row.iter().enumerate() {
            v[s * stride + j] = C64::new(x, 0.0);
        }
    }
    v
}

/// Broadcasts one real per block: every slot of block `s` (the `stride`
/// slots starting at `s·stride`) holds `per_block[s]`. Trailing blocks
/// are zero.
///
/// # Panics
///
/// Panics if the blocks exceed `slots`.
pub fn pack_block_broadcast(per_block: &[f64], stride: usize, slots: usize) -> Vec<C64> {
    assert!(
        per_block.len() * stride <= slots,
        "blocks exceed slot count"
    );
    let mut v = vec![C64::zero(); slots];
    for (s, &y) in per_block.iter().enumerate() {
        for slot in v.iter_mut().skip(s * stride).take(stride) {
            *slot = C64::new(y, 0.0);
        }
    }
    v
}

/// Tiles one real pattern across every block: slot `i` holds
/// `pattern[i mod pattern.len()]` — e.g. a model vector repeated over
/// every sample block so one `PMult` with a [`pack_rows`] minibatch
/// forms all per-sample products at once.
///
/// # Panics
///
/// Panics if the pattern is empty or does not divide `slots`.
pub fn pack_tiled(pattern: &[f64], slots: usize) -> Vec<C64> {
    assert!(
        !pattern.is_empty() && slots.is_multiple_of(pattern.len()),
        "tile pattern must divide the slot count"
    );
    (0..slots)
        .map(|i| C64::new(pattern[i % pattern.len()], 0.0))
        .collect()
}

/// Selector weights for a rotate-and-sum term: `gain` on every slot `i`
/// with `lo ≤ i mod modulus < hi`, zero elsewhere. Two cascaded
/// rotate-sums with these selectors implement "pick the block head and
/// broadcast it" without a separate masking level (see the HELR
/// scenario).
///
/// # Panics
///
/// Panics unless `lo < hi ≤ modulus` and `modulus` divides `slots`.
pub fn range_selector(slots: usize, modulus: usize, lo: usize, hi: usize, gain: f64) -> Vec<C64> {
    assert!(lo < hi && hi <= modulus, "empty or out-of-range selector");
    assert!(
        modulus != 0 && slots.is_multiple_of(modulus),
        "selector modulus must divide the slot count"
    );
    (0..slots)
        .map(|i| {
            let r = i % modulus;
            if r >= lo && r < hi {
                C64::new(gain, 0.0)
            } else {
                C64::zero()
            }
        })
        .collect()
}

/// An all-slots constant weight vector (`gain` everywhere) — the
/// weight of a plain summing rotate-sum term.
pub fn uniform(slots: usize, gain: f64) -> Vec<C64> {
    vec![C64::new(gain, 0.0); slots]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_rows_places_samples_at_stride() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let v = pack_rows(&rows, 4, 8);
        let re: Vec<f64> = v.iter().map(|c| c.re).collect();
        assert_eq!(re, vec![1.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn block_broadcast_fills_blocks() {
        let v = pack_block_broadcast(&[0.5, -1.0], 2, 4);
        let re: Vec<f64> = v.iter().map(|c| c.re).collect();
        assert_eq!(re, vec![0.5, 0.5, -1.0, -1.0]);
    }

    #[test]
    fn tiled_repeats_the_pattern() {
        let v = pack_tiled(&[1.0, -2.0], 6);
        let re: Vec<f64> = v.iter().map(|c| c.re).collect();
        assert_eq!(re, vec![1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
    }

    #[test]
    fn range_selector_picks_residues() {
        let v = range_selector(8, 4, 1, 3, 2.0);
        let re: Vec<f64> = v.iter().map(|c| c.re).collect();
        assert_eq!(re, vec![0.0, 2.0, 2.0, 0.0, 0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds stride")]
    fn pack_rows_rejects_wide_rows() {
        pack_rows(&[vec![1.0; 5]], 4, 16);
    }
}
