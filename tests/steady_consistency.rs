//! Consistency of the exact cyclic-state measurement with brute-force
//! long-run averages: the steady-state detector must agree with simply
//! running the engine for a long time, for every kind of stream pair.

use vecmem::analytic::{Geometry, StreamSpec};
use vecmem::banksim::steady::measure_steady_state;
use vecmem::banksim::SmallRng;
use vecmem::banksim::{Engine, PatternWorkload, PriorityRule, SimConfig};

/// Long-run average bandwidth by brute force over `cycles` clock periods,
/// discarding a warm-up prefix.
fn brute_force_average(config: &SimConfig, specs: &[StreamSpec], cycles: u64) -> f64 {
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::strided(&config.geometry, specs);
    let warmup = cycles / 10;
    for _ in 0..warmup {
        engine.step(&mut workload);
    }
    let before = engine.stats().total_grants();
    for _ in 0..cycles {
        engine.step(&mut workload);
    }
    (engine.stats().total_grants() - before) as f64 / cycles as f64
}

#[test]
fn steady_state_matches_long_run_average_randomized() {
    let mut rng = SmallRng::seed_from_u64(0xBADC0DE);
    for trial in 0..60 {
        let m = [8u64, 12, 13, 16, 24][rng.gen_range(0..5) as usize];
        let nc = rng.gen_range_inclusive(1..=5);
        let geom = Geometry::unsectioned(m, nc).unwrap();
        let specs = [
            StreamSpec {
                start_bank: rng.gen_range(0..m),
                distance: rng.gen_range(0..m),
            },
            StreamSpec {
                start_bank: rng.gen_range(0..m),
                distance: rng.gen_range(0..m),
            },
        ];
        let priority = if rng.gen_bool(0.5) {
            PriorityRule::Fixed
        } else {
            PriorityRule::Cyclic
        };
        let config = SimConfig::one_port_per_cpu(geom, 2).with_priority(priority);
        let exact = measure_steady_state(&config, &specs, 5_000_000)
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"))
            .beff
            .to_f64();
        let average = brute_force_average(&config, &specs, 200_000);
        assert!(
            (exact - average).abs() < 0.01,
            "trial {trial} (m={m} nc={nc} {specs:?} {priority:?}): exact {exact} vs avg {average}"
        );
    }
}

#[test]
fn steady_state_matches_long_run_average_sectioned() {
    let mut rng = SmallRng::seed_from_u64(0x5EC7103);
    for trial in 0..40 {
        let (m, s) = [(12u64, 3u64), (12, 2), (16, 4), (24, 6)][rng.gen_range(0..4) as usize];
        let nc = rng.gen_range_inclusive(1..=4);
        let geom = Geometry::new(m, s, nc).unwrap();
        let specs = [
            StreamSpec {
                start_bank: rng.gen_range(0..m),
                distance: rng.gen_range(0..m),
            },
            StreamSpec {
                start_bank: rng.gen_range(0..m),
                distance: rng.gen_range(0..m),
            },
        ];
        let config = SimConfig::single_cpu(geom, 2);
        let exact = measure_steady_state(&config, &specs, 5_000_000)
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"))
            .beff
            .to_f64();
        let average = brute_force_average(&config, &specs, 200_000);
        assert!(
            (exact - average).abs() < 0.01,
            "trial {trial} (m={m} s={s} nc={nc} {specs:?}): exact {exact} vs avg {average}"
        );
    }
}

#[test]
fn steady_state_is_deterministic_and_budget_independent() {
    // The same scenario must yield the identical steady state regardless of
    // the cycle budget (as long as it suffices).
    let geom = Geometry::unsectioned(13, 4).unwrap();
    let config = SimConfig::one_port_per_cpu(geom, 2);
    let specs = [
        StreamSpec {
            start_bank: 0,
            distance: 1,
        },
        StreamSpec {
            start_bank: 7,
            distance: 3,
        },
    ];
    let a = measure_steady_state(&config, &specs, 100_000).unwrap();
    let b = measure_steady_state(&config, &specs, 9_999_999).unwrap();
    assert_eq!(a, b);
}

#[test]
fn three_stream_steady_states_also_consistent() {
    let geom = Geometry::unsectioned(16, 4).unwrap();
    let config = SimConfig::one_port_per_cpu(geom, 3);
    let specs = [
        StreamSpec {
            start_bank: 0,
            distance: 1,
        },
        StreamSpec {
            start_bank: 5,
            distance: 1,
        },
        StreamSpec {
            start_bank: 10,
            distance: 2,
        },
    ];
    let exact = measure_steady_state(&config, &specs, 5_000_000)
        .unwrap()
        .beff
        .to_f64();
    let average = brute_force_average(&config, &specs, 300_000);
    assert!(
        (exact - average).abs() < 0.01,
        "exact {exact} vs avg {average}"
    );
}
