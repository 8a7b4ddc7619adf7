//! Metamorphic tests of the arbiter: permuting which port carries which
//! stream is a relabelling of the access ports, and for *symmetric*
//! (equal-distance) stream sets on distinct CPUs the simulator must treat
//! it as one — the steady-state `b_eff` of the set is invariant, and every
//! per-port statistic (grants, conflict counts, wait histograms, maximum
//! wait) moves with its stream, i.e. changes only by the permutation.
//!
//! The scope is deliberate, and two pinned counterexamples guard it:
//! swapping streams of *unequal* distance hands the priority advantage to
//! a different access pattern and genuinely changes `b_eff`; and on a
//! *sectioned* geometry with both ports on one CPU the fixed-priority
//! section-path arbitration is port-asymmetric, so even equal-distance
//! swaps shift the total bandwidth.

use vecmem::banksim::steady::measure_steady_state;
use vecmem::banksim::{Engine, PatternWorkload, PriorityRule, SimConfig, SimStats};
use vecmem::{Geometry, Ratio, SectionMapping, StreamSpec};

/// Finite-horizon cycles for the exact per-port statistics comparison
/// (covers transient + several periods of every geometry in range).
const HORIZON: u64 = 300;

fn stats_of(config: &SimConfig, streams: &[StreamSpec], cycles: u64) -> SimStats {
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::strided(&config.geometry, streams);
    for _ in 0..cycles {
        engine.step(&mut workload);
    }
    engine.stats().clone()
}

/// Exhaustive over small cross-CPU geometries: swapping the two streams of
/// an equal-distance pair never changes total `b_eff`, reverses the
/// steady per-port bandwidths, and swaps the full finite-horizon port
/// statistics — under both priority rules.
#[test]
fn swapping_a_symmetric_pair_is_a_port_relabelling() {
    for m in 2u64..=8 {
        for nc in 1u64..=3 {
            let geom = Geometry::unsectioned(m, nc).unwrap();
            for d in 0..m {
                for b1 in 0..m {
                    for b2 in 0..b1 {
                        for prio in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                            let cfg = SimConfig::one_port_per_cpu(geom, 2).with_priority(prio);
                            let s1 = StreamSpec {
                                start_bank: b1,
                                distance: d,
                            };
                            let s2 = StreamSpec {
                                start_bank: b2,
                                distance: d,
                            };
                            let ctx = format!("m={m} nc={nc} d={d} b1={b1} b2={b2} {prio:?}");

                            let a = measure_steady_state(&cfg, &[s1, s2], 100_000).unwrap();
                            let b = measure_steady_state(&cfg, &[s2, s1], 100_000).unwrap();
                            assert_eq!(a.beff, b.beff, "total b_eff changed under swap: {ctx}");
                            let mut rev = b.per_port.clone();
                            rev.reverse();
                            assert_eq!(a.per_port, rev, "per-port bandwidths not permuted: {ctx}");

                            let sa = stats_of(&cfg, &[s1, s2], HORIZON);
                            let sb = stats_of(&cfg, &[s2, s1], HORIZON);
                            assert_eq!(
                                sa.ports()[0],
                                sb.ports()[1],
                                "port stats did not follow the stream: {ctx}"
                            );
                            assert_eq!(
                                sa.ports()[1],
                                sb.ports()[0],
                                "port stats did not follow the stream: {ctx}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Swapping two *identical* streams is the identity permutation: the
/// statistics must come back unchanged — not reversed. Under fixed
/// priority they are genuinely asymmetric (port 0 wins every tie), which
/// is exactly why the relabelling laws above are stated on the
/// permutation and not on symmetry of the outcome.
#[test]
fn swapping_identical_streams_is_a_no_op() {
    let geom = Geometry::unsectioned(2, 2).unwrap();
    let cfg = SimConfig::one_port_per_cpu(geom, 2);
    let s = StreamSpec {
        start_bank: 0,
        distance: 0,
    };
    let a = measure_steady_state(&cfg, &[s, s], 100_000).unwrap();
    let b = measure_steady_state(&cfg, &[s, s], 100_000).unwrap();
    assert_eq!(a.per_port, b.per_port);
    // Port 0 monopolises the bank: d = 0 keeps both streams on bank 0 and
    // fixed priority resolves every cycle in port 0's favour.
    assert_eq!(a.per_port, vec![Ratio::new(1, 2), Ratio::new(0, 1)]);
    assert_eq!(a.beff, Ratio::new(1, 2));
}

/// Three symmetric streams on three CPUs: rotating the stream-to-port
/// assignment leaves total `b_eff` unchanged and rotates the steady
/// per-port bandwidths accordingly, under both priority rules.
#[test]
fn rotating_three_symmetric_streams_is_a_port_relabelling() {
    for m in [6u64, 8, 9] {
        for nc in 1u64..=3 {
            let geom = Geometry::unsectioned(m, nc).unwrap();
            for d in 0..m {
                for prio in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                    let cfg = SimConfig::one_port_per_cpu(geom, 3).with_priority(prio);
                    let banks = [0u64, 1 % m, 3 % m];
                    let specs: Vec<StreamSpec> = banks
                        .iter()
                        .map(|&b| StreamSpec {
                            start_bank: b,
                            distance: d,
                        })
                        .collect();
                    // Port i carries stream (i + 1) mod 3.
                    let rotated: Vec<StreamSpec> = (0..3).map(|i| specs[(i + 1) % 3]).collect();
                    let ctx = format!("m={m} nc={nc} d={d} {prio:?}");
                    let a = measure_steady_state(&cfg, &specs, 100_000).unwrap();
                    let b = measure_steady_state(&cfg, &rotated, 100_000).unwrap();
                    assert_eq!(a.beff, b.beff, "total b_eff changed under rotation: {ctx}");
                    let unrotated: Vec<Ratio> = (0..3).map(|i| b.per_port[(i + 2) % 3]).collect();
                    assert_eq!(
                        a.per_port, unrotated,
                        "per-port bandwidths not rotated: {ctx}"
                    );
                }
            }
        }
    }
}

/// Guard on the scope: for streams of *unequal* distance the swap moves
/// the fixed-priority advantage to a different access pattern, and the
/// total bandwidth genuinely changes. m = 2, n_c = 1, streams (0,1) and
/// (0,0): with the strided stream on the high-priority port the pair
/// reaches b_eff = 3/2; swapped, the constant stream camps on bank 0 and
/// the pair degrades to b_eff = 1.
#[test]
fn unequal_distances_are_outside_the_invariance() {
    let geom = Geometry::unsectioned(2, 1).unwrap();
    let cfg = SimConfig::one_port_per_cpu(geom, 2);
    let strided = StreamSpec {
        start_bank: 0,
        distance: 1,
    };
    let constant = StreamSpec {
        start_bank: 0,
        distance: 0,
    };
    let a = measure_steady_state(&cfg, &[strided, constant], 100_000).unwrap();
    let b = measure_steady_state(&cfg, &[constant, strided], 100_000).unwrap();
    assert_eq!(a.beff, Ratio::new(3, 2));
    assert_eq!(b.beff, Ratio::new(1, 1));
}

/// Guard on the scope: with both ports on one CPU of a *sectioned*
/// geometry, the section-path arbitration is port-asymmetric under fixed
/// priority, so even an equal-distance swap changes total bandwidth.
/// m = 8, s = 2, n_c = 2, d = 1: streams starting at banks 2 and 0 are
/// conflict-free in one assignment (b_eff = 2) but collide on section
/// paths in the other (b_eff = 4/3).
#[test]
fn sectioned_same_cpu_is_outside_the_invariance() {
    let geom = Geometry::with_mapping(8, 2, 2, SectionMapping::Cyclic).unwrap();
    let cfg = SimConfig::single_cpu(geom, 2);
    let s1 = StreamSpec {
        start_bank: 2,
        distance: 1,
    };
    let s2 = StreamSpec {
        start_bank: 0,
        distance: 1,
    };
    let a = measure_steady_state(&cfg, &[s1, s2], 100_000).unwrap();
    let b = measure_steady_state(&cfg, &[s2, s1], 100_000).unwrap();
    assert_eq!(a.beff, Ratio::new(2, 1));
    assert_eq!(b.beff, Ratio::new(4, 3));
}
