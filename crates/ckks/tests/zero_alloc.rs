//! Steady-state `mul_rescale` and `key_switch` make **zero** heap
//! allocations: once the context's scratch arena has seen an op's
//! working set, every temporary and every result buffer is a recycled
//! one (DESIGN.md "Memory layout"). A counting `#[global_allocator]`
//! is the witness, which is why this test is a binary of its own.
//!
//! The parameters are small enough for a debug run; what a small `N`
//! cannot show — the arena's word cap holding at `N = 2^15` — is the
//! benchmark's `math.allocs_per_job` on `rotate_large`.

use ark_ckks::params::{CkksContext, CkksParams};
use ark_math::cfft::C64;
use ark_math::poly::{Representation, RnsPoly};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap-allocation counter wrapping the system allocator: every
/// `alloc`/`realloc`/`alloc_zeroed` made by a thread that is measuring
/// bumps that thread's counter.
struct CountingAlloc;

thread_local! {
    /// `Some(hits)` while this thread measures. Per thread, so libtest's
    /// harness thread cannot perturb the count; `const`-initialised and
    /// without a destructor, so reading it never allocates.
    static HITS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // try_with: the allocator also runs while a thread's locals are
    // being torn down
    let _ = HITS.try_with(|hits| {
        if let Some(n) = hits.get() {
            hits.set(Some(n + 1));
        }
    });
}

// SAFETY: pure pass-through to the system allocator plus a bump of a
// plain thread-local counter — layout contracts are forwarded verbatim,
// so the GlobalAlloc invariants hold exactly as `System` upholds them
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller passed under the same contract
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout the caller passed under the same contract
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same ptr/layout/size the caller passed under the same contract
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller passed under the same contract
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator hits this thread makes across `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    HITS.with(|hits| hits.set(Some(0)));
    f();
    HITS.with(|hits| hits.replace(None))
        .expect("set to Some above")
}

#[test]
fn steady_state_mul_rescale_and_key_switch_do_not_allocate() {
    // `L = 5`, `dnum = 3` ⇒ α = 2: three full decomposition groups at
    // the top level, and `{2, 2, 1}` — a partial last group — one below
    let ctx = CkksContext::new(CkksParams {
        log_n: 10,
        max_level: 5,
        dnum: 3,
        q0_bits: 55,
        scale_bits: 45,
        special_bits: 55,
        secret_hamming_weight: 64,
        boot_levels: 0,
        name: "zero-alloc",
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4152_4b50_5237);
    let sk = ctx.gen_secret_key(&mut rng);
    let evk = ctx.gen_mult_key(&sk, &mut rng);
    let top = ctx.params().max_level;
    let group_sizes = |level| -> Vec<usize> {
        let groups = ctx.decomposition_groups(level);
        groups.iter().map(Vec::len).collect()
    };
    assert_eq!(group_sizes(top), [2, 2, 2]);
    assert_eq!(group_sizes(top - 1), [2, 2, 1]);
    let scale = ctx.params().scale();
    let message = |step: f64| -> Vec<C64> {
        (0..ctx.params().slots())
            .map(|i| C64::new(step * (i % 89) as f64, -step * (i % 83) as f64))
            .collect()
    };
    let c1 = ctx.encrypt(&ctx.encode(&message(0.001), top, scale), &sk, &mut rng);
    let c2 = ctx.encrypt(&ctx.encode(&message(0.003), top, scale), &sk, &mut rng);
    let switched = [top, top - 1].map(|level| {
        let x = RnsPoly::random_uniform(
            ctx.basis(),
            ctx.chain_indices(level),
            Representation::Evaluation,
            &mut rng,
        );
        (level, x)
    });

    let round = || {
        let product = ctx.mul_rescale(&c1, &c2, &evk).expect("level > 0");
        ctx.recycle_ciphertext(product);
        for (level, x) in &switched {
            let (kb, ka) = ctx.key_switch(x, &evk, *level);
            let mut arena = ctx.arena();
            kb.recycle(&mut arena);
            ka.recycle(&mut arena);
        }
    };

    // the control: a cold arena has nothing to hand out, so a counter
    // that counts sees the first round allocate
    let cold = allocs_during(round);
    assert!(cold > 0, "the cold round must allocate, or nothing counts");
    round();

    let steady = allocs_during(|| (0..5).for_each(|_| round()));
    assert_eq!(steady, 0, "heap allocations in five steady-state rounds");
}
