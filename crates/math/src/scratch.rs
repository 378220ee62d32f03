//! Reusable scratch buffers for allocation-free hot paths.
//!
//! Every HE op in the paper's pipeline (`HMult → KeySwitch → HRescale`)
//! is a fixed dance over a handful of `limbs × N` word buffers. Freshly
//! heap-allocating those buffers on every invocation costs both the
//! allocator round-trip and — worse — cold pages that the streaming
//! kernels then fault in. A [`ScratchArena`] recycles the buffers
//! instead: an op *takes* flat buffers sized for its working set, and
//! *puts* them back when the intermediate values die, so the steady
//! state of `mul_rescale`/key-switching performs **zero** heap
//! allocations (asserted by `ark-ckks`' `tests/zero_alloc.rs` with a
//! counting allocator on the serial pool).
//!
//! The arena is deliberately dumb: a LIFO stack of free buffers per
//! element type, first-fit by capacity, with a configurable cap on the
//! total words retained so a burst of large temporaries cannot pin
//! memory forever. It is not thread-safe by itself — callers (the CKKS
//! context) wrap it in a `Mutex` and hold the lock only across
//! individual take/put calls, never across a kernel.

use crate::poly::RnsPoly;

/// Recycling pool of flat scratch buffers (`u64` words, `usize` index
/// vectors, and [`RnsPoly`] spine vectors).
///
/// # Examples
///
/// ```
/// use ark_math::scratch::ScratchArena;
///
/// let mut arena = ScratchArena::new();
/// let buf = arena.take(1024); // fresh allocation
/// arena.put(buf);
/// let buf = arena.take(512); // recycled, no allocation
/// assert_eq!(buf.len(), 512);
/// assert_eq!(arena.stats().reused, 1);
/// ```
#[derive(Debug)]
pub struct ScratchArena {
    bufs: Vec<Vec<u64>>,
    idxs: Vec<Vec<usize>>,
    polys: Vec<Vec<RnsPoly>>,
    /// Cap on total words retained across all pools.
    cap_words: usize,
    pooled_words: usize,
    /// Words currently checked out (taken and not yet put back), and
    /// the high-water mark of that figure.
    in_use_words: usize,
    peak_in_use_words: usize,
    stats: ArenaStats,
}

/// Allocation counters for the arena, used by benches to demonstrate
/// steady-state reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Takes served by a fresh heap allocation.
    pub fresh: u64,
    /// Takes served from the free pool.
    pub reused: u64,
}

/// Default retention cap: 1 Gi words (8 GiB) — effectively "keep
/// everything" for the parameter sets this library targets, while still
/// bounding a pathological burst. Tune with
/// [`ScratchArena::with_cap_words`].
pub const DEFAULT_CAP_WORDS: usize = 1 << 30;

impl Default for ScratchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchArena {
    /// An empty arena with the default retention cap.
    pub fn new() -> Self {
        Self::with_cap_words(DEFAULT_CAP_WORDS)
    }

    /// An empty arena retaining at most `cap_words` words of free
    /// buffers; buffers returned beyond the cap are simply dropped.
    pub fn with_cap_words(cap_words: usize) -> Self {
        Self {
            bufs: Vec::new(),
            idxs: Vec::new(),
            polys: Vec::new(),
            cap_words,
            pooled_words: 0,
            in_use_words: 0,
            peak_in_use_words: 0,
            stats: ArenaStats::default(),
        }
    }

    /// Takes a `u64` buffer of exactly `len` elements with *unspecified*
    /// contents (callers overwrite). Reuses a pooled buffer when one has
    /// the capacity, otherwise allocates.
    pub fn take(&mut self, len: usize) -> Vec<u64> {
        let buf = if let Some(i) = self.bufs.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.bufs.swap_remove(i);
            self.pooled_words -= buf.capacity();
            self.stats.reused += 1;
            // `resize` only writes the grown gap — shrinking is free, so
            // recycled contents are left as garbage for callers that
            // overwrite anyway (use `take_zeroed` otherwise).
            buf.resize(len, 0);
            buf
        } else {
            self.stats.fresh += 1;
            vec![0u64; len]
        };
        self.checked_out(buf.capacity());
        buf
    }

    /// Takes a `u64` buffer of `len` zeros.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<u64> {
        let mut buf = self.take(len);
        buf.fill(0);
        buf
    }

    /// Returns a `u64` buffer to the pool (dropped if over the cap).
    pub fn put(&mut self, buf: Vec<u64>) {
        let words = buf.capacity();
        self.in_use_words = self.in_use_words.saturating_sub(words);
        if words == 0 || self.pooled_words + words > self.cap_words {
            return;
        }
        self.pooled_words += words;
        self.bufs.push(buf);
    }

    /// Takes an empty `usize` index vector with capacity for at least
    /// `cap` entries.
    pub fn take_indices(&mut self, cap: usize) -> Vec<usize> {
        if let Some(i) = self.idxs.iter().position(|b| b.capacity() >= cap) {
            let mut buf = self.idxs.swap_remove(i);
            self.pooled_words -= buf.capacity();
            self.stats.reused += 1;
            buf.clear();
            buf
        } else {
            self.stats.fresh += 1;
            Vec::with_capacity(cap)
        }
    }

    /// Returns an index vector to the pool.
    pub fn put_indices(&mut self, buf: Vec<usize>) {
        let words = buf.capacity();
        if words == 0 || self.pooled_words + words > self.cap_words {
            return;
        }
        self.pooled_words += words;
        self.idxs.push(buf);
    }

    /// Takes an empty `Vec<RnsPoly>` with capacity for at least `cap`
    /// polynomials — the spine of a digit decomposition. The polynomials
    /// themselves come from [`Self::take`]/[`Self::take_indices`]; this
    /// pool only recycles the outer vector so decompose-per-call hot
    /// paths (relinearization) stay allocation-free.
    pub fn take_poly_vec(&mut self, cap: usize) -> Vec<RnsPoly> {
        if let Some(i) = self.polys.iter().position(|b| b.capacity() >= cap) {
            let buf = self.polys.swap_remove(i);
            self.pooled_words -= Self::poly_vec_words(buf.capacity());
            self.stats.reused += 1;
            buf
        } else {
            self.stats.fresh += 1;
            Vec::with_capacity(cap)
        }
    }

    /// Returns a polynomial spine vector to the pool. Any polynomials
    /// still inside are dropped (recycle them first via
    /// [`RnsPoly::recycle`] to keep their buffers).
    pub fn put_poly_vec(&mut self, mut buf: Vec<RnsPoly>) {
        buf.clear();
        let words = Self::poly_vec_words(buf.capacity());
        if words == 0 || self.pooled_words + words > self.cap_words {
            return;
        }
        self.pooled_words += words;
        self.polys.push(buf);
    }

    /// Retained-words cost of a pooled poly spine (struct size in u64s).
    fn poly_vec_words(cap: usize) -> usize {
        cap * std::mem::size_of::<RnsPoly>() / 8
    }

    /// Allocation counters since construction.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Total words currently retained in the free pools.
    pub fn pooled_words(&self) -> usize {
        self.pooled_words
    }

    /// Test probe, not API: the high-water mark of the `u64` buffer
    /// words checked out at once (by capacity). Only meaningful on a
    /// *fresh* arena that has served one op which returns exactly the
    /// buffers it took — the working-set tests' case: a result that
    /// leaves for good stays counted for ever, and putting a heap-born
    /// buffer lowers the figure.
    #[doc(hidden)]
    pub fn peak_in_use_words(&self) -> usize {
        self.peak_in_use_words
    }

    fn checked_out(&mut self, words: usize) {
        self.in_use_words += words;
        self.peak_in_use_words = self.peak_in_use_words.max(self.in_use_words);
    }

    /// Drops every pooled buffer (counters are kept).
    pub fn clear(&mut self) {
        self.bufs.clear();
        self.idxs.clear();
        self.polys.clear();
        self.pooled_words = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles() {
        let mut arena = ScratchArena::new();
        let a = arena.take(100);
        assert_eq!(a.len(), 100);
        let cap = a.capacity();
        arena.put(a);
        assert_eq!(arena.pooled_words(), cap);
        let b = arena.take(50);
        assert_eq!(b.len(), 50);
        assert_eq!(
            arena.stats(),
            ArenaStats {
                fresh: 1,
                reused: 1
            }
        );
        assert_eq!(arena.pooled_words(), 0);
    }

    #[test]
    fn peak_in_use_is_the_high_water_mark_of_checked_out_words() {
        let mut arena = ScratchArena::new();
        let a = arena.take(100);
        let a2 = arena.take(10);
        let held = a.capacity() + a2.capacity();
        assert_eq!(arena.peak_in_use_words(), held);
        arena.put(a);
        arena.put(a2);
        // everything is back: a smaller take reuses and moves no peak
        let b = arena.take(50);
        assert_eq!(arena.peak_in_use_words(), held);
        // a heap-born buffer that is only ever put cannot underflow it
        arena.put(vec![0u64; 4096]);
        arena.put(b);
        let c = arena.take(8192);
        assert_eq!(arena.peak_in_use_words(), held.max(c.capacity()));
    }

    #[test]
    fn take_zeroed_clears_recycled_garbage() {
        let mut arena = ScratchArena::new();
        let mut a = arena.take(16);
        a.fill(0xdead_beef);
        arena.put(a);
        let b = arena.take_zeroed(16);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn cap_drops_oversized_returns() {
        let mut arena = ScratchArena::with_cap_words(64);
        arena.put(vec![0u64; 256]);
        assert_eq!(arena.pooled_words(), 0, "over-cap buffer is dropped");
        arena.put(vec![0u64; 32]);
        assert!(arena.pooled_words() >= 32);
    }

    #[test]
    fn index_pool_recycles_empty_vectors() {
        let mut arena = ScratchArena::new();
        let mut idx = arena.take_indices(10);
        idx.extend(0..10);
        arena.put_indices(idx);
        let idx2 = arena.take_indices(5);
        assert!(idx2.is_empty(), "recycled index vectors come back empty");
        assert!(idx2.capacity() >= 5);
    }

    #[test]
    fn poly_spine_pool_recycles_empty_vectors() {
        let mut arena = ScratchArena::new();
        let v = arena.take_poly_vec(4);
        assert!(v.is_empty() && v.capacity() >= 4);
        arena.put_poly_vec(v);
        let v2 = arena.take_poly_vec(3);
        assert!(v2.is_empty() && v2.capacity() >= 3);
        assert_eq!(
            arena.stats(),
            ArenaStats {
                fresh: 1,
                reused: 1
            }
        );
    }

    #[test]
    fn growth_beyond_pooled_capacity_allocates() {
        let mut arena = ScratchArena::new();
        arena.put(vec![0u64; 8]);
        let big = arena.take(1024);
        assert_eq!(big.len(), 1024);
        assert_eq!(arena.stats().fresh, 1, "small pooled buffer not reused");
    }
}
