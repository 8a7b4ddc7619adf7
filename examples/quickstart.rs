//! Quickstart: predict, then verify, the effective bandwidth of two
//! concurrent vector access streams.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the paper's Fig. 2 setting (12 banks, bank cycle 3 clocks),
//! classifies two streams analytically (Theorem 3), verifies the prediction
//! on the cycle-accurate simulator, and prints the access trace.

use vecmem::analytic::pair::classify_pair;
use vecmem::analytic::{predict_single, PortPlacement};
use vecmem::banksim::steady::measure_pair_cross_cpu;
use vecmem::banksim::{Engine, PatternWorkload, SimConfig, TraceRecorder};
use vecmem::{Geometry, StreamSpec};

fn main() {
    // An m-way interleaved memory: 12 banks, each busy 3 clock periods per
    // access, every bank with its own access path (s = m).
    let geom = Geometry::unsectioned(12, 3).expect("valid geometry");

    // Two vector streams: stride 1 from bank 0, stride 7 from bank 1.
    let s1 = StreamSpec::new(&geom, 0, 1).expect("valid stream");
    let s2 = StreamSpec::new(&geom, 1, 7).expect("valid stream");

    println!("memory: m = {}, n_c = {}", geom.banks(), geom.bank_cycle());
    println!(
        "stream 1: start bank {}, distance {}, return number {} => solo b_eff = {}",
        s1.start_bank,
        s1.distance,
        s1.return_number(&geom),
        predict_single(&geom, &s1),
    );
    println!(
        "stream 2: start bank {}, distance {}, return number {} => solo b_eff = {}",
        s2.start_bank,
        s2.distance,
        s2.return_number(&geom),
        predict_single(&geom, &s2),
    );

    // Analytical prediction (Theorems 2-7).
    let class = classify_pair(&geom, &s1, &s2, true);
    println!("\nanalytic classification: {class:?}");
    let _ = PortPlacement::DifferentCpus; // see vecmem::analytic::predict_pair

    // Exact verification on the simulator: run to the cyclic state.
    let steady = measure_pair_cross_cpu(&geom, s1, s2, 100_000).expect("converges");
    println!(
        "simulated steady state: b_eff = {} (per stream {} and {}), {} conflicts per period",
        steady.beff,
        steady.per_port[0],
        steady.per_port[1],
        steady.conflicts_per_period.total(),
    );

    // And the paper-style trace of the first 36 clock periods.
    let config = SimConfig::one_port_per_cpu(geom, 2);
    let mut engine = Engine::new(config);
    let mut trace = TraceRecorder::new(geom.banks(), 36);
    let mut workload = PatternWorkload::strided(&geom, &[s1, s2]);
    for _ in 0..36 {
        engine.step_with(&mut workload, &mut trace);
    }
    println!("\naccess trace (rows = banks, columns = clock periods):");
    print!("{}", trace.render_all());
}
