//! Bench: raw simulator throughput (simulated cycles per second) across
//! memory geometries and port counts, plus the observer-overhead group that
//! guards the zero-cost claim of the `SimObserver` hooks.

use std::hint::black_box;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::{Engine, NoopObserver, PatternWorkload, SimConfig};
use vecmem_obs::{MetricsRegistry, Profiler};

const CYCLES: u64 = 10_000;

fn run_streams(config: &SimConfig, specs: &[StreamSpec]) -> u64 {
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::strided(&config.geometry, specs);
    for _ in 0..CYCLES {
        engine.step(&mut workload);
    }
    engine.stats().total_grants()
}

fn bench_port_scaling(p: &mut Profiler) {
    for ports in [1usize, 2, 4, 6, 8] {
        let geom = Geometry::unsectioned(64, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, ports);
        let specs: Vec<StreamSpec> = (0..ports as u64)
            .map(|i| StreamSpec {
                start_bank: (i * 7) % 64,
                distance: 1 + i % 5,
            })
            .collect();
        p.bench_with_elements(format!("engine/port_scaling/{ports}"), CYCLES, || {
            black_box(run_streams(black_box(&config), black_box(&specs)));
        });
    }
}

fn bench_bank_scaling(p: &mut Profiler) {
    for banks in [16u64, 64, 256, 1024] {
        let geom = Geometry::unsectioned(banks, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 4);
        let specs: Vec<StreamSpec> = (0..4)
            .map(|i| StreamSpec {
                start_bank: i * 3 % banks,
                distance: (1 + 2 * i) % banks,
            })
            .collect();
        p.bench_with_elements(format!("engine/bank_scaling/{banks}"), CYCLES, || {
            black_box(run_streams(black_box(&config), black_box(&specs)));
        });
    }
}

fn bench_sectioned_vs_unsectioned(p: &mut Profiler) {
    for (label, sections) in [("s=m", 64u64), ("s=8", 8), ("s=2", 2)] {
        let geom = Geometry::new(64, sections, 4).unwrap();
        let config = SimConfig::single_cpu(geom, 3);
        let specs: Vec<StreamSpec> = (0..3)
            .map(|i| StreamSpec {
                start_bank: i * 11 % 64,
                distance: 1,
            })
            .collect();
        p.bench_with_elements(format!("engine/sections/{label}"), CYCLES, || {
            black_box(run_streams(black_box(&config), black_box(&specs)));
        });
    }
}

fn bench_steady_state_detection(p: &mut Profiler) {
    // Conflict-free pairs synchronise quickly; barrier pairs take longer;
    // the detection cost is dominated by the cycle period.
    let cases = [
        ("fig2_conflict_free", 12u64, 3u64, 1u64, 7u64),
        ("fig3_barrier", 13, 6, 1, 6),
        ("fig5_barrier", 13, 4, 1, 3),
        ("large_prime", 251, 4, 1, 3),
    ];
    for (label, m, nc, d1, d2) in cases {
        let geom = Geometry::unsectioned(m, nc).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: d1,
            },
            StreamSpec {
                start_bank: 0,
                distance: d2,
            },
        ];
        p.bench(format!("engine/steady_state/{label}"), || {
            black_box(
                vecmem_banksim::measure_steady_state(
                    black_box(&config),
                    black_box(&specs),
                    10_000_000,
                )
                .unwrap()
                .beff,
            );
        });
    }
}

/// The zero-cost-observer guard: `step` (legacy entry point),
/// `step_with(NoopObserver)` (must be identical — it IS the legacy path)
/// and `step_with(MetricsRegistry)` (the paid tier) on one workload.
fn bench_observer_overhead(p: &mut Profiler) {
    let geom = Geometry::unsectioned(64, 4).unwrap();
    let config = SimConfig::one_port_per_cpu(geom, 4);
    let specs: Vec<StreamSpec> = (0..4)
        .map(|i| StreamSpec {
            start_bank: (i * 7) % 64,
            distance: 1 + i % 3,
        })
        .collect();

    p.bench_with_elements("engine/observer/step_legacy", CYCLES, || {
        black_box(run_streams(black_box(&config), black_box(&specs)));
    });
    p.bench_with_elements("engine/observer/step_with_noop", CYCLES, || {
        let mut engine = Engine::new(config.clone());
        let mut workload = PatternWorkload::strided(&config.geometry, &specs);
        for _ in 0..CYCLES {
            engine.step_with(&mut workload, &mut NoopObserver);
        }
        black_box(engine.stats().total_grants());
    });
    p.bench_with_elements("engine/observer/step_with_metrics", CYCLES, || {
        let mut engine = Engine::new(config.clone());
        let mut workload = PatternWorkload::strided(&config.geometry, &specs);
        let mut metrics = MetricsRegistry::new(64, 4);
        for _ in 0..CYCLES {
            engine.step_with(&mut workload, &mut metrics);
        }
        black_box(metrics.total_grants());
    });
}

fn main() {
    let mut p = Profiler::from_env("engine_throughput");
    bench_port_scaling(&mut p);
    bench_bank_scaling(&mut p);
    bench_sectioned_vs_unsectioned(&mut p);
    bench_steady_state_detection(&mut p);
    bench_observer_overhead(&mut p);
    p.finish().expect("bench report written");
}
