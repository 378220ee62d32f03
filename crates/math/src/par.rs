//! Scoped fan-out over RNS limbs: the software analogue of ARK's
//! limb-level parallelism.
//!
//! Every residue polynomial (limb) of an RNS-CKKS operand is processed
//! independently by NTT, base conversion, automorphism and element-wise
//! arithmetic — the property the paper's hardware exploits with parallel
//! lanes, and the one this module exploits with host threads. The
//! [`ThreadPool`] here is deliberately std-only (the workspace vendors no
//! thread-pool crates): a fixed set of parked worker threads plus the
//! calling thread, with a *scoped* batch submission so tasks may borrow
//! stack data without `'static` bounds.
//!
//! # Determinism
//!
//! Every primitive partitions its input into disjoint chunks and applies
//! a pure per-item closure; no reductions are reordered and all limb
//! arithmetic is exact modular integer math. A pool of any size therefore
//! produces *bit-identical* results to [`ThreadPool::serial`] — the
//! property the serial/parallel equivalence proptests pin down.
//!
//! # Pool lifecycle
//!
//! A pool with `t` threads owns `t − 1` parked workers; the caller always
//! executes one chunk itself, so `ThreadPool::new(1)` spawns nothing and
//! runs everything inline. Cloning a pool clones a *handle* (workers are
//! shared); the workers shut down when the last handle drops. While
//! waiting for a batch, the submitting thread executes queued tasks
//! (help-first stealing), so nested fan-out cannot deadlock the pool.
//!
//! # Examples
//!
//! ```
//! use ark_math::par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut limbs = vec![vec![1u64; 8], vec![2; 8], vec![3; 8]];
//! pool.par_for_each_limb(&mut limbs, |i, row| {
//!     for x in row.iter_mut() {
//!         *x += i as u64;
//!     }
//! });
//! assert_eq!(limbs[2][0], 5);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A type-erased task owned by the worker queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct JobQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<JobQueue>,
    ready: Condvar,
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .pop_front()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.ready.wait(q).expect("pool queue poisoned");
            }
        };
        // Panics are caught at the batch layer before the job reaches
        // the queue, so a raw call cannot take the worker down.
        job();
    }
}

/// Worker threads plus their queue; joined when the last handle drops.
struct Workers {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .shutdown = true;
        self.shared.ready.notify_all();
        for handle in self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// Completion latch of one scoped batch.
struct Batch {
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload observed in a worker-executed task.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A reusable scoped thread pool for limb-level fan-out.
///
/// See the [module docs](self) for the lifecycle and determinism
/// guarantees. All primitives take `&self` and closures by reference, so
/// a pool can be shared freely (it is `Clone`; clones share the same
/// workers).
#[derive(Clone)]
pub struct ThreadPool {
    threads: usize,
    workers: Option<Arc<Workers>>,
    /// Work floor (in words) below which [`ThreadPool::for_work`] hands
    /// back the serial path instead of paying batch dispatch.
    min_dispatch_words: usize,
}

/// Default [`ThreadPool::for_work`] floor: fan-out costs a few µs of
/// dispatch, so loops touching fewer words than this (≈ tens of µs of
/// modular arithmetic) run inline instead.
pub const DEFAULT_MIN_DISPATCH_WORDS: usize = 8192;

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Default for ThreadPool {
    /// The serial pool (`threads == 1`).
    fn default() -> Self {
        Self::serial()
    }
}

impl ThreadPool {
    /// A pool running tasks on `threads` threads total (the caller plus
    /// `threads − 1` workers). `0` is clamped to `1`; `new(1)` spawns no
    /// threads and executes everything inline on the caller.
    ///
    /// Worker spawning is best-effort: if the OS refuses a thread (pid
    /// limits, exhausted resources) the pool degrades to the workers it
    /// got — down to fully serial — rather than panicking, so
    /// `Engine::builder().build()` stays panic-free. [`Self::threads`]
    /// reports the width actually obtained.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut spawned = 0usize;
        let workers = (threads > 1)
            .then(|| {
                let shared = Arc::new(Shared {
                    queue: Mutex::new(JobQueue {
                        jobs: VecDeque::new(),
                        shutdown: false,
                    }),
                    ready: Condvar::new(),
                });
                let mut handles = Vec::with_capacity(threads - 1);
                for i in 0..threads - 1 {
                    let worker_shared = Arc::clone(&shared);
                    match std::thread::Builder::new()
                        .name(format!("ark-par-{i}"))
                        .spawn(move || worker_loop(&worker_shared))
                    {
                        Ok(handle) => handles.push(handle),
                        Err(_) => break, // degrade to what we have
                    }
                }
                spawned = handles.len();
                (spawned > 0).then(|| {
                    Arc::new(Workers {
                        shared,
                        handles: Mutex::new(handles),
                    })
                })
            })
            .flatten();
        Self {
            threads: spawned + 1,
            workers,
            min_dispatch_words: DEFAULT_MIN_DISPATCH_WORDS,
        }
    }

    /// Overrides the [`Self::for_work`] floor (`0` forces dispatch for
    /// any amount of work — used by the equivalence tests so tiny
    /// parameter sets still exercise the parallel machinery).
    pub fn with_min_dispatch_words(mut self, words: usize) -> Self {
        self.min_dispatch_words = words;
        self
    }

    /// The pool to use for a loop touching `work_words` words in total:
    /// `self` when the work amortizes batch dispatch, the shared serial
    /// pool when it would not. Bit-identical either way — this is purely
    /// a latency heuristic.
    pub fn for_work(&self, work_words: usize) -> &ThreadPool {
        if self.workers.is_some() && work_words < self.min_dispatch_words {
            serial_ref()
        } else {
            self
        }
    }

    /// The strictly serial pool — bit-identical baseline for any width.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Total threads participating in a fan-out (callers included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True if this pool executes everything inline on the caller.
    pub fn is_serial(&self) -> bool {
        self.workers.is_none()
    }

    /// Applies `f(index, &mut item)` to every element, fanning contiguous
    /// chunks out across the pool. This is the limb-level primitive: in
    /// `RnsPoly` terms, `index` is the storage position and `item` the
    /// limb row.
    pub fn par_for_each_limb<T, F>(&self, limbs: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = limbs.len();
        let t = self.threads.min(n);
        if t <= 1 || self.workers.is_none() {
            for (i, item) in limbs.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = n.div_ceil(t);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = limbs
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let base = ci * chunk;
                Box::new(move || {
                    for (k, item) in slice.iter_mut().enumerate() {
                        f(base + k, item);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_batch(tasks);
    }

    /// Computes `f(0..len)` in parallel, returning the results in index
    /// order (the map-side of the limb primitive — used where an op
    /// *produces* limb rows rather than mutating them in place).
    pub fn par_map_range<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(len, || None);
        self.par_for_each_limb(&mut out, |i, slot| *slot = Some(f(i)));
        out.into_iter()
            .map(|slot| slot.expect("par_map_range filled every slot"))
            .collect()
    }

    /// Maps every limb row through `f`, in parallel, preserving order.
    pub fn par_map_limbs<T, R, F>(&self, limbs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_range(limbs.len(), |i| f(i, &limbs[i]))
    }

    /// Splits `data` into rows of `row_len` contiguous elements and
    /// applies `f(row_index, row)` to each in parallel — the shape of the
    /// 4-step NTT's twist and row-transform passes, where one limb is a
    /// `√N × √N` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero.
    pub fn par_for_each_row<T, F>(&self, data: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "row length must be positive");
        let rows = data.len().div_ceil(row_len);
        let t = self.threads.min(rows);
        if t <= 1 || self.workers.is_none() {
            for (i, row) in data.chunks_mut(row_len).enumerate() {
                f(i, row);
            }
            return;
        }
        let rows_per_task = rows.div_ceil(t);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(rows_per_task * row_len)
            .enumerate()
            .map(|(ci, slice)| {
                let base = ci * rows_per_task;
                Box::new(move || {
                    for (k, row) in slice.chunks_mut(row_len).enumerate() {
                        f(base + k, row);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_batch(tasks);
    }

    /// Splits `dst` and `src` into aligned rows of `row_len` elements and
    /// applies `f(row_index, dst_row, src_row)` to each pair in parallel —
    /// the primitive behind in-place binary limb ops on the flat
    /// limb-major layout. Rows are *borrowed* chunked views into the two
    /// flat buffers; nothing is cloned when a worker steals a chunk.
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

    /// Runs a batch of borrowed tasks to completion: the last task on the
    /// calling thread, the rest on the workers. Does not return until
    /// every task has finished (even if one panics), which is what makes
    /// the non-`'static` borrows sound.
    fn run_batch<'env>(&self, mut tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let Some(workers) = &self.workers else {
            for task in tasks {
                task();
            }
            return;
        };
        if tasks.len() <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        let local = tasks.pop().expect("len checked above");
        let batch = Arc::new(Batch {
            pending: Mutex::new(tasks.len()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut q = workers.shared.queue.lock().expect("pool queue poisoned");
            for task in tasks {
                let b = Arc::clone(&batch);
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
                        let mut slot = b.panic.lock().expect("panic slot poisoned");
                        slot.get_or_insert(payload);
                    }
                    let mut pending = b.pending.lock().expect("batch latch poisoned");
                    *pending -= 1;
                    if *pending == 0 {
                        b.done.notify_all();
                    }
                });
                // SAFETY: `run_batch` blocks below until `pending == 0`,
                // i.e. until every enqueued job has run to completion —
                // including when the locally-run task panics (the payload
                // is re-raised only after the wait). The `'env` borrows
                // captured by the job therefore strictly outlive its
                // execution, so erasing the lifetime is sound.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
                q.jobs.push_back(job);
            }
            workers.shared.ready.notify_all();
        }
        let local_result = panic::catch_unwind(AssertUnwindSafe(local));
        self.wait_batch(&workers.shared, &batch);
        if let Err(payload) = local_result {
            panic::resume_unwind(payload);
        }
        let worker_panic = batch.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Waits for a batch, executing queued jobs while it does (help-first
    /// stealing: a thread blocked on a nested batch keeps the pool
    /// making progress instead of deadlocking it).
    fn wait_batch(&self, shared: &Shared, batch: &Batch) {
        loop {
            {
                let pending = batch.pending.lock().expect("batch latch poisoned");
                if *pending == 0 {
                    return;
                }
            }
            match shared.pop() {
                Some(job) => job(),
                None => {
                    let pending = batch.pending.lock().expect("batch latch poisoned");
                    if *pending == 0 {
                        return;
                    }
                    // Timed wait: a job enqueued by *another* batch after
                    // the pop above would not signal `done`, so never
                    // sleep unboundedly.
                    let _ = batch
                        .done
                        .wait_timeout(pending, Duration::from_millis(1))
                        .expect("batch latch poisoned");
                }
            }
        }
    }
}

/// The process-wide serial pool handed out by [`ThreadPool::for_work`].
fn serial_ref() -> &'static ThreadPool {
    static SERIAL: std::sync::OnceLock<ThreadPool> = std::sync::OnceLock::new();
    SERIAL.get_or_init(ThreadPool::serial)
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_spawns_nothing() {
        let pool = ThreadPool::new(1);
        assert!(pool.is_serial());
        assert_eq!(pool.threads(), 1);
        let pool = ThreadPool::new(0);
        assert!(pool.is_serial(), "0 clamps to 1");
    }

    #[test]
    fn for_each_limb_matches_serial() {
        let serial = ThreadPool::serial();
        let par = ThreadPool::new(4);
        let base: Vec<Vec<u64>> = (0..7).map(|i| vec![i as u64; 33]).collect();
        let f = |i: usize, row: &mut Vec<u64>| {
            for (k, x) in row.iter_mut().enumerate() {
                *x = x.wrapping_mul(31).wrapping_add((i * 1000 + k) as u64);
            }
        };
        let mut a = base.clone();
        serial.par_for_each_limb(&mut a, f);
        let mut b = base.clone();
        par.par_for_each_limb(&mut b, f);
        assert_eq!(a, b);
    }

    #[test]
    fn map_range_preserves_order() {
        let pool = ThreadPool::new(3);
        let out = pool.par_map_range(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(pool.par_map_range(0, |i| i).is_empty());
    }

    #[test]
    fn map_limbs_borrows_input() {
        let pool = ThreadPool::new(4);
        let rows: Vec<Vec<u64>> = (0..5).map(|i| vec![i as u64; 4]).collect();
        let sums = pool.par_map_limbs(&rows, |_, row| row.iter().sum::<u64>());
        assert_eq!(sums, vec![0, 4, 8, 12, 16]);
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
            pool.par_for_each_limb(&mut items, |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 3200);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let pool = ThreadPool::new(4);
        let mut items: Vec<usize> = (0..8).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_for_each_limb(&mut items, |i, _| {
                // first chunk runs on a worker; panic from whichever
                // thread owns index 0
                assert!(i != 0, "index zero rejected");
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("index zero rejected"), "got: {msg}");
        // pool still works afterwards
        let out = pool.par_map_range(4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nested_fan_out_does_not_deadlock() {
        let pool = ThreadPool::new(4);
        let outer = pool.par_map_range(4, |i| {
            let inner = pool.par_map_range(4, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(outer, vec![6, 46, 86, 126]);
    }

    #[test]
    fn clones_share_workers() {
        let pool = ThreadPool::new(4);
        let clone = pool.clone();
        assert_eq!(clone.threads(), 4);
        let out = clone.par_map_range(10, |i| i);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn for_work_floors_small_batches() {
        let pool = ThreadPool::new(4);
        assert!(pool.for_work(10).is_serial(), "tiny work runs inline");
        assert!(!pool.for_work(DEFAULT_MIN_DISPATCH_WORDS).is_serial());
        let eager = ThreadPool::new(4).with_min_dispatch_words(0);
        assert!(!eager.for_work(1).is_serial(), "floor 0 always dispatches");
        let serial = ThreadPool::serial();
        assert!(serial.for_work(1 << 30).is_serial(), "serial stays serial");
    }
}
