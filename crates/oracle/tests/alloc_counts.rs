//! Heap allocation counts of a conformance point's three parts: the
//! lockstep diff, the cache key and the steady-state solve.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's own threads never leak into a measurement. The
//! lockstep must add no per-cycle allocation to what the naive reference
//! engine makes by itself; the key and a short-period solve stay within
//! fixed budgets.
#![expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::steady::measure_steady_state;
use vecmem_banksim::{PriorityRule, SimConfig};
use vecmem_exec::steady_key;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every allocation and reallocation on the calling
/// thread.
struct Counting;

fn count_one() {
    // During thread teardown the counter may already be gone; nothing is
    // measured then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local cell,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn spec(start_bank: u64, distance: u64) -> StreamSpec {
    StreamSpec {
        start_bank,
        distance,
    }
}

/// Contested points of the conformance sweep's shape: one, two and three
/// ports, both topologies and both priority rules, each with a period
/// below 64.
fn points() -> Vec<(SimConfig, Vec<StreamSpec>)> {
    let g13 = Geometry::unsectioned(13, 4).unwrap();
    let g16 = Geometry::unsectioned(16, 4).unwrap();
    vec![
        (SimConfig::single_cpu(g16, 1), vec![spec(3, 4)]),
        (
            SimConfig::one_port_per_cpu(g13, 2).with_priority(PriorityRule::Cyclic),
            vec![spec(0, 2), spec(0, 2)],
        ),
        (SimConfig::single_cpu(g16, 2), vec![spec(0, 2), spec(5, 6)]),
        (
            SimConfig::one_port_per_cpu(g16, 3).with_priority(PriorityRule::Cyclic),
            vec![spec(0, 1), spec(0, 1), spec(0, 2)],
        ),
    ]
}

/// Doubling the lockstep horizon costs exactly the reference engine's own
/// allocations over the extra cycles: the harness and the optimized
/// kernel allocate nothing per cycle. (Under `sanitize` the harness lifts
/// the oracle into a fresh packed state every cycle by design.)
#[cfg(not(feature = "sanitize"))]
#[test]
fn lockstep_adds_no_per_cycle_allocation() {
    use vecmem_oracle::{mirror_config, run_pair, RefEngine};
    const N: u64 = 300;
    for (config, streams) in points() {
        let pair = |cycles| allocations(|| run_pair(&config, &streams, cycles)).0;
        let reference = |cycles| {
            let mut oracle = RefEngine::new(mirror_config(&config), &streams);
            allocations(|| oracle.run(cycles)).0
        };
        let (pair_n, pair_2n) = (pair(N), pair(2 * N));
        let (ref_n, ref_2n) = (reference(N), reference(2 * N));
        assert!(ref_2n > ref_n, "the reference engine allocates per cycle");
        assert_eq!(
            pair_2n - pair_n,
            ref_2n - ref_n,
            "{config:?} {streams:?}: lockstep {pair_n} -> {pair_2n}, reference {ref_n} -> {ref_2n}"
        );
    }
}

/// The cache key allocates its port list and its canonical streams, and
/// nothing else: canonicalisation builds only the answer.
#[test]
fn steady_key_allocates_at_most_twice() {
    for (config, streams) in points() {
        let (n, _key) = allocations(|| steady_key(&config, &streams, 500_000));
        assert!(
            n <= 2,
            "{config:?} {streams:?}: steady_key made {n} allocations"
        );
    }
}

/// A short-period solve (λ < 64, so the search leaves no rung) stays
/// within the allocation budget of the scratch-free snapshots: each
/// snapshot copies the state buffer, the workload and the counters. The
/// points take 42 to 51 allocations; a snapshot that also cloned the
/// per-cycle scratch took 52 to 69.
const SOLVE_ALLOCATIONS: u64 = 51;

#[test]
fn short_period_solve_stays_within_budget() {
    for (config, streams) in points() {
        let (n, solved) = allocations(|| measure_steady_state(&config, &streams, 500_000));
        let ss = solved.unwrap();
        assert!(
            ss.period < 64,
            "{config:?} {streams:?}: period {}",
            ss.period
        );
        assert!(
            n <= SOLVE_ALLOCATIONS,
            "{config:?} {streams:?}: solve (μ {}, λ {}) made {n} allocations",
            ss.transient,
            ss.period
        );
    }
}
