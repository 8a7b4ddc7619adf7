//! Bench: steady-state solver throughput (simulations per second) over a
//! fixed batch of small geometries, executed through the [`exec::Runner`]
//! exactly like the conformance sweep drives it.
//!
//! The batch mirrors the shape of the `m <= 16` conformance tiers: every
//! `(d1, d2)` cross-CPU pair on a power-of-two, a prime and the Cray-sized
//! bank count, plus a same-CPU slice, all with the sweep's 500k cycle
//! budget. One bench "element" is one steady-state measurement, so the
//! reported elements/second is sims/sec — the perf trajectory number every
//! PR records in `BENCH_steady.json`.

use std::hint::black_box;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::pattern::{IndexPattern, PatternSpec};
use vecmem_banksim::SimConfig;
use vecmem_exec::{PatternSteadyScenario, Runner, SteadyScenario};
use vecmem_obs::Profiler;

/// Cycle budget per steady-state search (the conformance sweep's default).
const BUDGET: u64 = 500_000;

fn spec(b: u64, d: u64) -> StreamSpec {
    StreamSpec {
        start_bank: b,
        distance: d,
    }
}

/// The fixed m<=16 batch: all (d1, d2) pairs from aligned starts on three
/// representative bank counts, cross-CPU; plus the same-CPU slice on the
/// Cray-sized geometry where section conflicts replace simultaneous ones.
fn batch() -> Vec<SteadyScenario> {
    let mut scenarios = Vec::new();
    for (m, nc) in [(8u64, 2u64), (13, 4), (16, 4)] {
        let geom = Geometry::unsectioned(m, nc).unwrap();
        for d1 in 0..m {
            for d2 in 0..m {
                scenarios.push(SteadyScenario {
                    config: SimConfig::one_port_per_cpu(geom, 2),
                    streams: vec![spec(0, d1), spec(0, d2)],
                    max_cycles: BUDGET,
                });
            }
        }
    }
    let geom = Geometry::new(16, 4, 4).unwrap();
    for d1 in 0..16 {
        for d2 in 0..16 {
            scenarios.push(SteadyScenario {
                config: SimConfig::single_cpu(geom, 2),
                streams: vec![spec(0, d1), spec(0, d2)],
                max_cycles: BUDGET,
            });
        }
    }
    scenarios
}

/// The gather batch: affine index walks (exact cyclic states) over every
/// multiplier on the same three bank counts, cross-CPU. This is the hot
/// path of the generalized pattern layer — the trajectory number that
/// keeps indexed workloads from silently regressing. On m = 8 and 16,
/// which divide the span, a port's request period is at most `m`. On
/// m = 13 it is the full index period (cycle detection walks one full
/// period), so the span is kept small enough for a sub-second batch while
/// still exceeding every `m · n_c` state period in the batch.
fn gather_batch() -> Vec<PatternSteadyScenario> {
    let mut scenarios = Vec::new();
    for (m, nc) in [(8u64, 2u64), (13, 4), (16, 4)] {
        let geom = Geometry::unsectioned(m, nc).unwrap();
        for a1 in 0..m {
            for a2 in 0..m {
                let gather = |a, c| PatternSpec::Gather {
                    base: 0,
                    span: 1 << 10,
                    index: IndexPattern::Affine { a, c },
                };
                scenarios.push(PatternSteadyScenario {
                    config: SimConfig::one_port_per_cpu(geom, 2),
                    patterns: vec![gather(a1, 0), gather(a2, 1)],
                    max_cycles: BUDGET,
                });
            }
        }
    }
    scenarios
}

fn main() {
    let mut p = Profiler::from_env("steady");
    let scenarios = batch();
    let sims = scenarios.len() as u64;

    // Serial run: the per-simulation cost, uncontended.
    let runner = Runner::with_threads(1);
    p.bench_with_elements("steady/conformance_batch/serial", sims, || {
        let results = runner.run(black_box(&scenarios));
        black_box(results.len());
    });

    // Parallel run at the machine's width, as the sweeps actually execute.
    let wide = Runner::new();
    p.bench_with_elements(
        format!("steady/conformance_batch/threads_{}", wide.threads()),
        sims,
        || {
            let results = wide.run(black_box(&scenarios));
            black_box(results.len());
        },
    );

    // Serial gather run: the pattern layer's per-simulation cost.
    let gathers = gather_batch();
    let gather_sims = gathers.len() as u64;
    p.bench_with_elements("steady/gather_batch/serial", gather_sims, || {
        let results = runner.run(black_box(&gathers));
        black_box(results.len());
    });

    p.finish().expect("bench report written");
}
