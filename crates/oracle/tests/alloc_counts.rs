//! Heap allocation counts of the step kernel, of a conformance point and
//! of its parts (the lockstep diff, the cache key and the steady-state
//! solve), and of the conformance sweep around its points.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's own threads never leak into a measurement. A warmed-up
//! [`step`] must not allocate at all, over every pattern family, both
//! bank models and every port topology: this is the hot path's
//! allocation rule, checked on the code that actually runs, generic and
//! trait calls included (TESTING.md, "Hot-path rules"). Neither may a
//! warmed-up [`Engine`] step or run, which feed the same kernel to the
//! engine's statistics observer. A warmed-up
//! lockstep cycle, on both engines, must not allocate either, whether a
//! fixed horizon or the steady-state search drives the kernel; the key, a
//! short-period solve and a short-period conformance point stay within
//! fixed budgets, and a sweep allocates per simulated point and per chunk,
//! never per replayed point.
#![expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::steady::{measure_steady_state, measure_steady_state_patterns};
use vecmem_banksim::step::step;
use vecmem_banksim::{
    BankModel, Engine, IndexPattern, NoopObserver, PatternSpec, PatternWorkload, PortOutcome,
    PriorityRule, RunOutcome, SimConfig, SimState, SimStats,
};
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

fn stride(start_bank: u64, distance: u64) -> PatternSpec {
    PatternSpec::Stride {
        start_bank,
        distance,
    }
}

fn gather(span: u64, index: IndexPattern) -> PatternSpec {
    PatternSpec::Gather {
        base: 0,
        span,
        index,
    }
}

fn burst(start_bank: u64, distance: u64, burst: u64) -> PatternSpec {
    PatternSpec::Burst {
        start_bank,
        distance,
        burst,
    }
}

/// Kernel shapes covering every pattern family (stride, affine and
/// pseudo-random gather, burst), the uniform and DRAM bank models, a
/// sectioned geometry, both priority rules, both port topologies and one
/// to three ports. Each keeps its ports contending, so the arbiter's
/// delay paths run too.
fn kernel_shapes() -> Vec<(SimConfig, Vec<PatternSpec>)> {
    let g13 = Geometry::unsectioned(13, 6).unwrap();
    let g16 = Geometry::unsectioned(16, 4).unwrap();
    let xmp = Geometry::cray_xmp();
    let dram = BankModel::Dram {
        hit_cycle: 2,
        rows: 4,
    };
    let affine = IndexPattern::Affine { a: 5, c: 3 };
    let random = IndexPattern::PseudoRandom { seed: 7 };
    vec![
        (SimConfig::single_cpu(g16, 1), vec![stride(3, 4)]),
        (
            SimConfig::one_port_per_cpu(g13, 2).with_priority(PriorityRule::Cyclic),
            vec![stride(0, 1), stride(0, 6)],
        ),
        (
            SimConfig::single_cpu(xmp, 3),
            vec![stride(0, 1), gather(4096, affine), stride(2, 3)],
        ),
        (
            SimConfig::one_port_per_cpu(g16, 2),
            vec![gather(65_536, random), gather(1000, random)],
        ),
        (
            SimConfig::single_cpu(g16, 2).with_priority(PriorityRule::Cyclic),
            vec![burst(0, 1, 4), burst(1, 2, 3)],
        ),
        (
            SimConfig::one_port_per_cpu(g16, 2).with_bank_model(dram),
            vec![stride(0, 0), gather(4096, affine)],
        ),
        (
            SimConfig::one_port_per_cpu(xmp, 3)
                .with_priority(PriorityRule::Cyclic)
                .with_bank_model(dram),
            vec![burst(0, 8, 2), stride(4, 4), gather(4096, random)],
        ),
    ]
}

/// The step kernel allocates nothing once warmed up: every scratch
/// buffer lives in the [`SimState`] and is reused cycle after cycle. One
/// `Vec::new()` per cycle anywhere under [`step`] fails this with one
/// allocation per counted cycle.
#[test]
fn warmed_up_step_never_allocates() {
    const WARM_UP: u64 = 1_000;
    const COUNTED: u64 = 20_000;
    for (config, specs) in kernel_shapes() {
        let mut state = SimState::new(&config);
        let mut workload = PatternWorkload::from_specs(&config, &specs);
        let mut run = |cycles| {
            let mut grants = 0;
            for _ in 0..cycles {
                grants += step(&config, &mut state, &mut workload, &mut NoopObserver).grants;
            }
            grants
        };
        run(WARM_UP);
        let (n, grants) = allocations(|| run(COUNTED));
        assert!(grants > 0, "{config:?} {specs:?}: no grants");
        assert_eq!(
            n, 0,
            "{config:?} {specs:?}: {n} allocations over {COUNTED} warmed-up cycles"
        );
    }
}

/// The engine adds no allocation to the kernel's: `step` hands back the
/// kernel's outcome slice, and `run_with` (here with a second
/// [`SimStats`] riding along) counts through the engine's own statistics
/// observer.
#[test]
fn warmed_up_engine_never_allocates() {
    const WARM_UP: u64 = 1_000;
    const COUNTED: u64 = 20_000;
    for (config, specs) in kernel_shapes() {
        let mut engine = Engine::new(config.clone());
        let mut workload = PatternWorkload::from_specs(&config, &specs);
        let mut extra = SimStats::new(config.num_ports());
        assert_eq!(
            engine.run_with(&mut workload, WARM_UP, &mut extra),
            RunOutcome::CyclesExhausted
        );
        let (n, grants) = allocations(|| {
            let mut grants = 0;
            for _ in 0..COUNTED {
                grants += engine
                    .step(&mut workload)
                    .iter()
                    .filter(|ev| ev.outcome == PortOutcome::Granted)
                    .count();
            }
            grants
        });
        assert!(grants > 0, "{config:?} {specs:?}: no grants");
        assert_eq!(
            n, 0,
            "{config:?} {specs:?}: {n} allocations over {COUNTED} warmed-up Engine::step calls"
        );
        let (n, outcome) = allocations(|| engine.run_with(&mut workload, COUNTED, &mut extra));
        assert_eq!(outcome, RunOutcome::CyclesExhausted);
        assert_eq!(
            n, 0,
            "{config:?} {specs:?}: {n} allocations over {COUNTED} warmed-up Engine::run_with cycles"
        );
        assert_eq!(engine.stats().cycles(), WARM_UP + 2 * COUNTED);
        assert_eq!(extra.cycles(), WARM_UP + COUNTED);
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

/// Lockstep shapes for the generalized-pattern entry point: an affine and
/// a pseudo-random gather, bursts under the rotating rule, and the DRAM
/// bank model on a sectioned geometry.
#[cfg(not(feature = "sanitize"))]
fn pattern_points() -> Vec<(SimConfig, Vec<PatternSpec>)> {
    let g16 = Geometry::unsectioned(16, 4).unwrap();
    let dram = BankModel::Dram {
        hit_cycle: 2,
        rows: 4,
    };
    vec![
        (
            SimConfig::one_port_per_cpu(g16, 2),
            vec![
                gather(4096, IndexPattern::Affine { a: 5, c: 3 }),
                gather(65_536, IndexPattern::PseudoRandom { seed: 7 }),
            ],
        ),
        (
            SimConfig::single_cpu(g16, 2).with_priority(PriorityRule::Cyclic),
            vec![burst(0, 1, 4), burst(1, 2, 3)],
        ),
        (
            SimConfig::one_port_per_cpu(Geometry::cray_xmp(), 2).with_bank_model(dram),
            vec![stride(0, 0), stride(4, 4)],
        ),
    ]
}

/// A warmed-up lockstep cycle allocates nothing, on either side:
/// `run_pair`, `run_pair_patterns` and `RefEngine::run` make exactly as
/// many allocations over 2N cycles as over N. (Under `sanitize` the
/// harness lifts the oracle into a fresh packed state every cycle by
/// design.)
#[cfg(not(feature = "sanitize"))]
#[test]
fn lockstep_adds_no_per_cycle_allocation() {
    use vecmem_oracle::diff::run_pair_patterns;
    use vecmem_oracle::{mirror_config, run_pair, DiffOutcome, RefEngine};
    const N: u64 = 300;
    let matched = |outcome: DiffOutcome| matches!(outcome, DiffOutcome::Match { .. });
    for (config, streams) in points() {
        let pair = |cycles| {
            let (n, outcome) = allocations(|| run_pair(&config, &streams, cycles));
            assert!(matched(outcome), "{config:?} {streams:?}: diverged");
            n
        };
        let reference = |cycles| {
            let mut oracle = RefEngine::new(mirror_config(&config), &streams);
            allocations(|| oracle.run(cycles)).0
        };
        let (pair_n, pair_2n) = (pair(N), pair(2 * N));
        let (ref_n, ref_2n) = (reference(N), reference(2 * N));
        assert_eq!(
            (pair_2n, ref_2n),
            (pair_n, ref_n),
            "{config:?} {streams:?}: lockstep {pair_n} -> {pair_2n}, reference {ref_n} -> {ref_2n}"
        );
    }
    for (config, specs) in pattern_points() {
        let pair = |cycles| {
            let (n, outcome) = allocations(|| run_pair_patterns(&config, &specs, cycles));
            assert!(matched(outcome), "{config:?} {specs:?}: diverged");
            n
        };
        let (pair_n, pair_2n) = (pair(N), pair(2 * N));
        assert_eq!(
            pair_2n, pair_n,
            "{config:?} {specs:?}: lockstep {pair_n} -> {pair_2n}"
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
/// snapshot copies the state buffer and the workload, whose issue counts
/// are the per-port grant counters; the snapshot list is sized once; and
/// the transient walk takes over the snapshots it starts from and the
/// searching cursor's buffers instead of copying them. The points take
/// 24 to 29 allocations; copying the walk's snapshots and growing the
/// snapshot list took 35 to 42, snapshots that also cloned a per-port
/// grant vector 42 to 51, and ones that cloned the per-cycle scratch too
/// 52 to 69.
const SOLVE_ALLOCATIONS: u64 = 29;

/// Pattern points whose period is 64 or more but whose solve searches up
/// to address translation in fewer than 64 steps, so it leaves no rung
/// either: a burst pair on the uniform model, and a stride pair and a
/// burst pair on the DRAM model. A DRAM transient fills the open rows, so
/// it runs longer than a uniform one and keeps more power-of-two
/// snapshots: these take 24, 29 and 29 allocations, and DRAM pairs with
/// transients past 16 take 30 to 33.
fn reduced_pattern_points() -> Vec<(SimConfig, Vec<PatternSpec>)> {
    let g16 = Geometry::unsectioned(16, 4).unwrap();
    let g64 = Geometry::unsectioned(64, 6).unwrap();
    let dram = BankModel::Dram {
        hit_cycle: 2,
        rows: 4,
    };
    vec![
        (
            SimConfig::single_cpu(g64, 2).with_priority(PriorityRule::Cyclic),
            vec![burst(0, 1, 2), burst(5, 1, 2)],
        ),
        (
            SimConfig::single_cpu(g16, 2).with_bank_model(dram),
            vec![stride(0, 5), stride(3, 5)],
        ),
        (
            SimConfig::one_port_per_cpu(g16, 2).with_bank_model(dram),
            vec![burst(0, 2, 2), burst(1, 2, 2)],
        ),
    ]
}

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
    for (config, specs) in reduced_pattern_points() {
        let (n, solved) = allocations(|| measure_steady_state_patterns(&config, &specs, 500_000));
        let ss = solved.unwrap();
        assert!(
            ss.period >= 64,
            "{config:?} {specs:?}: period {}",
            ss.period
        );
        assert!(
            n <= SOLVE_ALLOCATIONS,
            "{config:?} {specs:?}: solve (μ {}, λ {}) made {n} allocations",
            ss.transient,
            ss.period
        );
    }
}

/// A short-period conformance point ([`ConformScenario::execute`]): one
/// solve with the lockstep riding its search, so the solve's snapshots
/// plus the reference engine and its per-cycle lists. The points take 36
/// to 41 allocations, one more with `bug_injection` (the seeded faults'
/// freed-bank list, which the workspace test run compiles in); the solve
/// followed by a separate `run_pair` took about 23 + 18.
#[cfg(not(feature = "sanitize"))]
const CONFORM_ALLOCATIONS: u64 = 42;

#[cfg(not(feature = "sanitize"))]
#[test]
fn short_period_conform_point_stays_within_budget() {
    use vecmem_exec::Scenario;
    use vecmem_oracle::conform::ConformScenario;
    for (config, streams) in points() {
        let scenario = ConformScenario {
            config,
            streams,
            steady_budget: 500_000,
        };
        let (n, out) = allocations(|| scenario.execute());
        assert!(
            out.beff.is_some() && out.divergence.is_none(),
            "{scenario:?}"
        );
        assert!(
            n <= CONFORM_ALLOCATIONS,
            "{scenario:?}: conformance point made {n} allocations"
        );
    }
}

/// Allocations of a sweep chunk beyond its simulations: the
/// representatives' scenario list, the runner's outcome list and the
/// chunk's configuration, plus each geometry's orbit tables spread over
/// its chunks. The 144 chunks of the test below take 595, about 4 each,
/// next to 242,128 for their 6,700 simulations.
#[cfg(not(feature = "sanitize"))]
const CHUNK_ALLOCATIONS: u64 = 8;

/// A sweep allocates per simulated point and per chunk, and a replayed
/// point allocates nothing. On one thread the sweep's count is at most
/// what building and executing its orbit representatives one by one
/// takes, within [`CONFORM_ALLOCATIONS`] each, plus
/// [`CHUNK_ALLOCATIONS`] per chunk; the replayed points outnumber that
/// slack, so one allocation per replayed point would fail it.
#[cfg(not(feature = "sanitize"))]
#[test]
fn sweep_allocations_follow_simulations_not_points() {
    use vecmem_exec::{Runner, Scenario};
    use vecmem_oracle::conform::{sweep, ChunkSpace, ConformScenario, SweepBounds};
    let bounds = SweepBounds {
        max_banks: 8,
        max_nc: 2,
        max_ports: 3,
        steady_budget: 500_000,
    };
    let (total, report) = allocations(|| sweep(&bounds, &Runner::with_threads(1)));
    assert!(report.clean(), "{report:?}");
    let (mut simulations, mut simulated, mut chunks) = (0, 0, 0);
    for m in 1..=bounds.max_banks {
        for ports in 1..=bounds.max_ports {
            let space = ChunkSpace::new(m, ports);
            let rep = space.representatives();
            for nc in 1..=bounds.max_nc {
                let geom = Geometry::unsectioned(m, nc).unwrap();
                let configs = if ports == 1 {
                    vec![SimConfig::single_cpu(geom, 1)]
                } else {
                    [PriorityRule::Fixed, PriorityRule::Cyclic]
                        .into_iter()
                        .flat_map(|prio| {
                            [
                                SimConfig::one_port_per_cpu(geom, ports).with_priority(prio),
                                SimConfig::single_cpu(geom, ports).with_priority(prio),
                            ]
                        })
                        .collect()
                };
                for config in &configs {
                    chunks += 1;
                    for (i, _) in rep.iter().enumerate().filter(|&(i, &r)| r == i) {
                        let (n, _) = allocations(|| {
                            ConformScenario {
                                config: config.clone(),
                                streams: space.streams(i)[..ports].to_vec(),
                                steady_budget: bounds.steady_budget,
                            }
                            .execute()
                        });
                        simulations += n;
                        simulated += 1;
                    }
                }
            }
        }
    }
    assert_eq!(simulated, report.executed);
    assert!(
        simulations <= simulated * CONFORM_ALLOCATIONS,
        "{simulated} representatives made {simulations} allocations"
    );
    assert!(
        total <= simulations + chunks * CHUNK_ALLOCATIONS,
        "the sweep made {total} allocations: {simulations} for its {simulated} simulations \
         and {} over {chunks} chunks",
        total - simulations.min(total)
    );
    assert!(
        report.replayed > chunks * CHUNK_ALLOCATIONS,
        "{} replayed points do not outnumber the slack",
        report.replayed
    );
}

/// The lockstep riding a search adds the same allocations to it however
/// long the ride: the reference engine's construction and warm-up, its
/// anchor records, and nothing per compared cycle. The rides run from
/// under a hundred cycles (a pair the search reduces by translation) to
/// several hundred (pairs on consecutive sections, which it searches
/// whole). The baseline is the same search with no rider.
#[cfg(not(feature = "sanitize"))]
#[test]
fn fused_lockstep_adds_no_per_cycle_allocation() {
    use vecmem_analytic::SectionMapping;
    use vecmem_banksim::steady::measure_steady_state_workload;
    use vecmem_oracle::{solve_in_lockstep, DiffOutcome};
    let consecutive = Geometry::with_mapping(60, 4, 8, SectionMapping::Consecutive).unwrap();
    let mut runs = Vec::new();
    for (config, streams) in [
        (
            SimConfig::one_port_per_cpu(Geometry::unsectioned(61, 8).unwrap(), 2),
            vec![spec(0, 1), spec(0, 1)],
        ),
        (
            SimConfig::single_cpu(consecutive, 2),
            vec![spec(0, 1), spec(1, 1)],
        ),
        (
            SimConfig::single_cpu(consecutive, 2),
            vec![spec(0, 7), spec(5, 11)],
        ),
    ] {
        let (plain_n, plain) = allocations(|| {
            let mut workload = PatternWorkload::strided(&config.geometry, &streams);
            measure_steady_state_workload(&config, &mut workload, 0, 500_000, 0, |_| {})
        });
        assert_eq!(
            plain.as_ref(),
            measure_steady_state(&config, &streams, 500_000).as_ref(),
            "{streams:?}"
        );
        let (fused_n, (fused, diff)) =
            allocations(|| solve_in_lockstep(&config, &streams, 500_000));
        assert_eq!(fused.as_ref(), plain.as_ref(), "{streams:?}");
        let DiffOutcome::Match { cycles, .. } = diff else {
            panic!("{streams:?}: {diff:?}");
        };
        runs.push((cycles, fused_n - plain_n));
    }
    let (shortest, longest) = (runs[0].0, runs[2].0);
    assert!(
        shortest < 100 && longest > 500,
        "rides of {shortest} and {longest} cycles"
    );
    assert!(
        runs.iter().all(|&(_, extra)| extra == runs[0].1),
        "the lockstep's allocations grow with the ride: {runs:?}"
    );
}
