//! Ablation bench A1: fixed vs cyclic priority.
//!
//! Measures the wall time of steady-state detection under each rule (the
//! cost tracks the transient + period length of the resulting cycle); the
//! achieved bandwidth per rule is folded into the benchmark name so the
//! quality dimension of the ablation is visible in the output.

use std::hint::black_box;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::{measure_steady_state, PriorityRule, SimConfig};
use vecmem_obs::Profiler;

fn bench_priority_rules(p: &mut Profiler) {
    // The Fig. 8 linked-conflict scenario and two contrasting ones.
    let cases = [
        ("fig8_linked_conflict", 12u64, 3u64, 3u64, 1u64, 1u64, 1u64),
        ("barrier_m13", 13, 13, 4, 1, 3, 0),
        ("conflict_free_m12", 12, 12, 3, 1, 7, 1),
    ];
    for (label, m, s, nc, d1, d2, b2) in cases {
        let geom = Geometry::new(m, s, nc).unwrap();
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: d1,
            },
            StreamSpec {
                start_bank: b2,
                distance: d2,
            },
        ];
        for rule in [PriorityRule::Fixed, PriorityRule::Cyclic] {
            let config = SimConfig::single_cpu(geom, 2).with_priority(rule);
            let beff = measure_steady_state(&config, &specs, 10_000_000)
                .expect("converges")
                .beff;
            p.bench(
                format!("ablation/priority/{label}/{rule:?}/beff={beff}"),
                || {
                    black_box(
                        measure_steady_state(black_box(&config), black_box(&specs), 10_000_000)
                            .unwrap()
                            .beff,
                    );
                },
            );
        }
    }
}

fn bench_priority_under_load(p: &mut Profiler) {
    // Six ports on the X-MP geometry (the Fig. 10 contention level):
    // measure a fixed number of cycles under each rule.
    const CYCLES: u64 = 5_000;
    let geom = Geometry::cray_xmp();
    let specs: Vec<StreamSpec> = (0..6u64)
        .map(|i| StreamSpec {
            start_bank: (5 * i) % 16,
            distance: 1 + (i % 3),
        })
        .collect();
    for rule in [PriorityRule::Fixed, PriorityRule::Cyclic] {
        let config = SimConfig::cray_xmp_dual().with_priority(rule);
        p.bench_with_elements(
            format!("ablation/priority_six_ports/{rule:?}"),
            CYCLES,
            || {
                let mut engine = vecmem_banksim::Engine::new(config.clone());
                let mut w = vecmem_banksim::PatternWorkload::strided(&geom, black_box(&specs));
                for _ in 0..CYCLES {
                    engine.step(&mut w);
                }
                black_box(engine.stats().total_grants());
            },
        );
    }
}

fn main() {
    let mut p = Profiler::from_env("ablate_priority");
    bench_priority_rules(&mut p);
    bench_priority_under_load(&mut p);
    p.finish().expect("bench report written");
}
