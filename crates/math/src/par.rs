//! Scoped fan-out over RNS limbs: the software analogue of ARK's
//! limb-level parallelism.
//!
//! Every residue polynomial (limb) of an RNS-CKKS operand is processed
//! independently by NTT, base conversion, automorphism and element-wise
//! arithmetic — the property the paper's hardware exploits with parallel
//! lanes, and the one this module exploits with host threads. The
//! [`ThreadPool`] here is plain data (a width and a work floor): each
//! fan-out runs its first chunk on the caller and every other chunk on a
//! thread spawned inside [`std::thread::scope`], so tasks borrow stack
//! data without `'static` bounds and no thread outlives the call.
//!
//! # Determinism
//!
//! Every fan-out partitions its input into disjoint chunks and applies
//! a pure per-row closure; no reductions are reordered and all limb
//! arithmetic is exact modular integer math. A pool of any size therefore
//! produces *bit-identical* results to [`ThreadPool::serial`] — the
//! property the serial/parallel equivalence proptests pin down.
//!
//! # Dispatch cost
//!
//! A scoped spawn plus join costs tens of µs to milliseconds, so
//! [`ThreadPool::for_work`] keeps loops below
//! [`DEFAULT_MIN_DISPATCH_WORDS`] on the caller. A chunk whose spawn
//! fails runs on the caller too: a refused thread degrades one batch,
//! never the result.
//!
//! # Examples
//!
//! ```
//! use ark_math::par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut limbs = vec![1u64; 3 * 8]; // three limbs of eight words
//! pool.par_for_each_row(&mut limbs, 8, |i, row| {
//!     for x in row.iter_mut() {
//!         *x += i as u64;
//!     }
//! });
//! assert_eq!(limbs[2 * 8], 3);
//! ```

use std::panic;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Default [`ThreadPool::for_work`] floor, in words.
///
/// A scoped spawn plus join of one thread costs 24–29 µs (median 27 µs)
/// on an idle 2-core Xeon container, with a tail to 0.7 ms; under
/// neighbour load it measured 29–131 µs (median ≈ 120 µs), and its 75th
/// percentile reached 4 ms while a build kept both cores busy. Splitting
/// a loop in two saves about half its time, and element-wise passes run
/// at 1–6 ns a word, so the split pays for the loaded spawn only from
/// about 2^17 words on. At a floor of 8 192 words, served N = 2^10 jobs
/// ran 1.3–2.2× slower. At this floor every N = 2^10 operand (at most 28
/// limbs, 28 672 words) runs inline, while N = 2^15 operands of four or
/// more limbs fan out.
pub const DEFAULT_MIN_DISPATCH_WORDS: usize = 1 << 17;

/// The width and work floor of limb-level fan-out.
///
/// See the [module docs](self) for the determinism guarantee. A pool
/// owns no threads; it only says how many to use.
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
    /// Work floor (in words) below which [`ThreadPool::for_work`] hands
    /// back the serial path instead of paying for thread spawns.
    min_dispatch_words: usize,
}

/// The serial pool handed out by [`ThreadPool::for_work`].
static SERIAL: ThreadPool = ThreadPool {
    threads: 1,
    min_dispatch_words: DEFAULT_MIN_DISPATCH_WORDS,
};

impl Default for ThreadPool {
    /// The serial pool (`threads == 1`).
    fn default() -> Self {
        Self::serial()
    }
}

impl ThreadPool {
    /// A pool running each fan-out on up to `threads` threads (the
    /// caller plus `threads − 1` scoped threads). `0` is clamped to `1`;
    /// `new(1)` never spawns and executes everything inline.
    ///
    /// Nothing is spawned here. Threads are spawned per fan-out, and a
    /// spawn the OS refuses (pid limits, exhausted resources) runs its
    /// chunk on the caller, so that batch degrades instead of panicking.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            min_dispatch_words: DEFAULT_MIN_DISPATCH_WORDS,
        }
    }

    /// Overrides the [`Self::for_work`] floor (`0` forces dispatch for
    /// any amount of work — used by the equivalence tests so tiny
    /// parameter sets still exercise the parallel path).
    pub fn with_min_dispatch_words(mut self, words: usize) -> Self {
        self.min_dispatch_words = words;
        self
    }

    /// The pool to use for a loop touching `work_words` words in total:
    /// `self` when the work amortizes the thread spawns, the serial pool
    /// when it would not. Bit-identical either way — this is purely a
    /// latency heuristic.
    pub fn for_work(&self, work_words: usize) -> &ThreadPool {
        if work_words < self.min_dispatch_words {
            &SERIAL
        } else {
            self
        }
    }

    /// The strictly serial pool — bit-identical baseline for any width.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Threads a fan-out uses at most (the caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `data` into rows of `row_len` contiguous elements (in
    /// `RnsPoly` terms, limbs of the flat limb-major buffer) and applies
    /// `f(row_index, row)` to each. Rows are grouped into
    /// `min(threads, rows)` contiguous chunks; the caller runs the first
    /// and a scoped thread each other one. If a chunk panics, its payload
    /// is re-raised once every chunk has finished.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero, or re-raises a panic of `f`.
    pub fn par_for_each_row<T, F>(&self, data: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "row length must be positive");
        let rows = data.len().div_ceil(row_len);
        let t = self.threads.min(rows);
        if t <= 1 {
            for (i, row) in data.chunks_mut(row_len).enumerate() {
                f(i, row);
            }
            return;
        }
        let rows_per_task = rows.div_ceil(t);
        // Each chunk sits behind its own (uncontended) lock so that a
        // chunk whose spawn fails is still reachable from the caller.
        let chunks: Vec<Mutex<&mut [T]>> = data
            .chunks_mut(rows_per_task * row_len)
            .map(Mutex::new)
            .collect();
        let run = |ci: usize| {
            let mut chunk = chunks[ci].lock().unwrap_or_else(PoisonError::into_inner);
            for (k, row) in chunk.chunks_mut(row_len).enumerate() {
                f(ci * rows_per_task + k, row);
            }
        };
        let run = &run;
        let panicked = thread::scope(|s| {
            let mut handles = Vec::with_capacity(chunks.len() - 1);
            for ci in 1..chunks.len() {
                match thread::Builder::new().spawn_scoped(s, move || run(ci)) {
                    Ok(handle) => handles.push(handle),
                    Err(_) => run(ci),
                }
            }
            run(0);
            // join every handle (a joined panic is not re-raised by the
            // scope) and keep the first payload
            let mut first = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first.get_or_insert(payload);
                }
            }
            first
        });
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }

    /// Two-destination variant of [`Self::par_for_each_row`]:
    /// `f(row_index, a_row, b_row)` over the aligned rows of `a` and `b`
    /// — the shape of a kernel that writes both halves of an RLWE pair
    /// in one pass. A serial pool allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero or the buffers disagree in length, or
    /// re-raises a panic of `f`.
    pub fn par_for_each_row_pair<T, F>(&self, a: &mut [T], b: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T], &mut [T]) + Sync,
    {
        assert!(row_len > 0, "row length must be positive");
        assert_eq!(a.len(), b.len(), "paired buffers must match");
        if self.threads == 1 {
            let rows = a.chunks_mut(row_len).zip(b.chunks_mut(row_len));
            for (i, (ra, rb)) in rows.enumerate() {
                f(i, ra, rb);
            }
            return;
        }
        // one uncontended lock per row of `b`, taken by whichever chunk
        // runs the matching row of `a`
        let b_rows: Vec<Mutex<&mut [T]>> = b.chunks_mut(row_len).map(Mutex::new).collect();
        self.par_for_each_row(a, row_len, |i, ra| {
            let mut rb = b_rows[i].lock().unwrap_or_else(PoisonError::into_inner);
            f(i, ra, &mut rb);
        });
    }

    /// Splits `dst` and `src` into aligned rows of `row_len` elements and
    /// applies `f(row_index, dst_row, src_row)` to each pair in parallel —
    /// the primitive behind in-place binary limb ops on the flat
    /// limb-major layout. Rows are *borrowed* chunked views into the two
    /// flat buffers; nothing is cloned for a spawned chunk.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero or the buffers disagree in length.
    pub fn par_zip_rows<T, U, F>(&self, dst: &mut [T], src: &[U], row_len: usize, f: F)
    where
        T: Send,
        U: Sync,
        F: Fn(usize, &mut [T], &[U]) + Sync,
    {
        assert!(row_len > 0, "row length must be positive");
        assert_eq!(dst.len(), src.len(), "zipped buffers must match");
        self.par_for_each_row(dst, row_len, |i, drow| {
            f(i, drow, &src[i * row_len..(i + 1) * row_len]);
        });
    }

    /// Three-operand variant of [`Self::par_zip_rows`]:
    /// `f(row_index, dst_row, a_row, b_row)` — the shape of fused
    /// multiply-accumulate over limbs (`dst += a * b`).
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero or any buffer length differs.
    pub fn par_zip2_rows<T, U, F>(&self, dst: &mut [T], a: &[U], b: &[U], row_len: usize, f: F)
    where
        T: Send,
        U: Sync,
        F: Fn(usize, &mut [T], &[U], &[U]) + Sync,
    {
        assert!(row_len > 0, "row length must be positive");
        assert_eq!(dst.len(), a.len(), "zipped buffers must match");
        assert_eq!(dst.len(), b.len(), "zipped buffers must match");
        self.par_for_each_row(dst, row_len, |i, drow| {
            let at = &a[i * row_len..(i + 1) * row_len];
            let bt = &b[i * row_len..(i + 1) * row_len];
            f(i, drow, at, bt);
        });
    }
}

/// The host's available parallelism (1 if the query fails).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_spawns_nothing() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(ThreadPool::new(0).threads(), 1, "0 clamps to 1");
        let caller = thread::current().id();
        let mut flat = vec![0u64; 64];
        pool.par_for_each_row(&mut flat, 8, |_, _| {
            assert_eq!(thread::current().id(), caller);
        });
    }

    #[test]
    fn two_threads_run_rows_on_two_threads() {
        let pool = ThreadPool::new(2).with_min_dispatch_words(0);
        let ids = Mutex::new(HashSet::new());
        let mut flat = vec![0u64; 16];
        pool.for_work(flat.len())
            .par_for_each_row(&mut flat, 4, |_, _| {
                ids.lock().unwrap().insert(thread::current().id());
            });
        let ids = ids.into_inner().unwrap();
        assert_eq!(
            ids.len(),
            2,
            "rows must run on the caller and one spawned thread"
        );
        assert!(
            ids.contains(&thread::current().id()),
            "the caller runs a chunk"
        );
    }

    #[test]
    fn for_each_row_partitions_flat_buffers() {
        let pool = ThreadPool::new(4);
        let mut flat: Vec<u64> = (0..64).collect();
        pool.par_for_each_row(&mut flat, 8, |r, row| {
            for x in row.iter_mut() {
                *x += (r * 100) as u64;
            }
        });
        assert_eq!(flat[0], 0);
        assert_eq!(flat[8], 108);
        assert_eq!(flat[63], 763);
    }

    #[test]
    fn zip_rows_matches_serial_and_borrows_views() {
        let serial = ThreadPool::serial();
        let par = ThreadPool::new(4);
        let src: Vec<u64> = (0..96).map(|i| i * 3).collect();
        let f = |r: usize, d: &mut [u64], s: &[u64]| {
            for (x, &y) in d.iter_mut().zip(s) {
                *x = x.wrapping_add(y).wrapping_add(r as u64);
            }
        };
        let mut a: Vec<u64> = (0..96).collect();
        serial.par_zip_rows(&mut a, &src, 8, f);
        let mut b: Vec<u64> = (0..96).collect();
        par.par_zip_rows(&mut b, &src, 8, f);
        assert_eq!(a, b);
    }

    #[test]
    fn row_pairs_run_aligned_rows_on_two_threads() {
        let pool = ThreadPool::new(2).with_min_dispatch_words(0);
        let ids = Mutex::new(HashSet::new());
        let mut a = vec![0u64; 5 * 4];
        let mut b = vec![0u64; 5 * 4];
        pool.par_for_each_row_pair(&mut a, &mut b, 4, |r, ra, rb| {
            ids.lock().unwrap().insert(thread::current().id());
            ra.fill(r as u64);
            rb.fill(10 * r as u64);
        });
        assert_eq!(ids.into_inner().unwrap().len(), 2);
        for r in 0..5 {
            assert!(a[4 * r..4 * r + 4].iter().all(|&x| x == r as u64));
            assert!(b[4 * r..4 * r + 4].iter().all(|&x| x == 10 * r as u64));
        }
    }

    #[test]
    fn zip2_rows_fuses_three_operands() {
        let pool = ThreadPool::new(3);
        let a: Vec<u64> = (0..32).collect();
        let b: Vec<u64> = (0..32).map(|i| i + 1).collect();
        let mut acc = vec![1u64; 32];
        pool.par_zip2_rows(&mut acc, &a, &b, 4, |_, d, x, y| {
            for i in 0..d.len() {
                d[i] += x[i] * y[i];
            }
        });
        for i in 0..32u64 {
            assert_eq!(acc[i as usize], 1 + i * (i + 1));
        }
    }

    #[test]
    #[should_panic(expected = "zipped buffers must match")]
    fn zip_rows_rejects_mismatched_lengths() {
        let pool = ThreadPool::serial();
        let mut d = vec![0u64; 8];
        pool.par_zip_rows(&mut d, &[1u64; 4], 2, |_, _, _| {});
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..200 {
            let mut items = vec![0u8; 16];
            pool.par_for_each_row(&mut items, 1, |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 3200);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let pool = ThreadPool::new(4);
        // 8 rows in 4 chunks of 2: row 1 ends the caller's chunk, row 7
        // the last spawned one
        for bad in [1usize, 7] {
            let mut items: Vec<usize> = (0..8).collect();
            let finished = AtomicUsize::new(0);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.par_for_each_row(&mut items, 1, |i, _| {
                    assert!(i != bad, "row {bad} rejected");
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains(&format!("row {bad} rejected")), "got: {msg}");
            assert_eq!(finished.load(Ordering::Relaxed), 7, "every other row ran");
        }
        // the pool still works afterwards
        let mut flat = vec![0usize; 4];
        pool.par_for_each_row(&mut flat, 1, |i, row| row[0] = i + 1);
        assert_eq!(flat, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nested_fan_out_does_not_deadlock() {
        let pool = ThreadPool::new(4);
        let mut outer = vec![0usize; 4];
        pool.par_for_each_row(&mut outer, 1, |i, slot| {
            let mut inner: Vec<usize> = (0..4).collect();
            pool.par_for_each_row(&mut inner, 1, |_, x| x[0] += i * 10);
            slot[0] = inner.iter().sum();
        });
        assert_eq!(outer, vec![6, 46, 86, 126]);
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn for_work_floors_small_batches() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.for_work(10).threads(), 1, "tiny work runs inline");
        assert_eq!(pool.for_work(DEFAULT_MIN_DISPATCH_WORDS).threads(), 4);
        let eager = ThreadPool::new(4).with_min_dispatch_words(0);
        assert_eq!(eager.for_work(1).threads(), 4, "floor 0 always dispatches");
        let serial = ThreadPool::serial();
        assert_eq!(serial.for_work(1 << 30).threads(), 1, "serial stays serial");
    }
}
