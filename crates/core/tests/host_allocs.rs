//! The cycle model's host path allocates per *graph*, not per node:
//! `compile` reserves the CSR arrays once from a bound over the trace
//! and lowers every op through buffers the compiler owns, `simulate`
//! keeps its bookkeeping in arrays (DESIGN.md "Host path"). A counting
//! `#[global_allocator]` is the witness, which is why this test is a
//! binary of its own.
//!
//! The control, at the parent of the change that added this file: the
//! same bootstrap trace (1 227 ops, 4 852 nodes) cost 5 400 allocator
//! hits and its fourfold repetition 21 501; both cost 10 now.

use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;
use ark_core::{compile, simulate, ArkConfig, CompileOptions};
use ark_workloads::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
use ark_workloads::trace::Trace;
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

/// Allocator hits of one `compile` + `simulate` of `trace`.
fn host_path_allocs(trace: &Trace, p: &CkksParams, cfg: &ArkConfig) -> u64 {
    allocs_during(|| {
        let graph = compile(trace, p, cfg, CompileOptions::all_on());
        let report = simulate(&graph, cfg, p.n());
        assert!(report.cycles > 0);
    })
}

#[test]
fn compile_and_simulate_allocate_per_graph_not_per_node() {
    let p = CkksParams::ark();
    let cfg = ArkConfig::base();
    let boot = bootstrap_trace(&p, &BootstrapTraceConfig::full(&p, KeyStrategy::MinKs));
    let mut fourfold = Trace::new("bootstrap x4");
    for _ in 0..4 {
        fourfold.extend(&boot);
    }
    assert!(boot.len() > 1000, "a paper-scale trace: {} ops", boot.len());

    // 10 today: the three CSR arrays, the compiler's two scratch
    // buffers, the evk cache's map, the scheduler's `finish` array and
    // the report's map
    const BUDGET: u64 = 16;
    let once = host_path_allocs(&boot, &p, &cfg);
    assert!(
        once <= BUDGET,
        "{once} allocations for {} ops: something allocates per node again",
        boot.len()
    );

    // four times the nodes, the same handful of (larger) buffers
    let four = host_path_allocs(&fourfold, &p, &cfg);
    assert!(
        four <= BUDGET,
        "{four} allocations for the fourfold trace against {once} for one: \
         growth must be logarithmic or nil, not per node"
    );
}
