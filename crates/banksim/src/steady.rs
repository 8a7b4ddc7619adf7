//! Exact steady-state (cyclic state) effective bandwidth of strided
//! streams.
//!
//! The detector itself — Brent's cycle-finding over the packed simulator
//! state's incremental hash, in O(state · log) memory — lives in
//! [`vecmem_simcore::steady`] and is re-exported here together with its
//! result and error types. This module adds the stream-level entry points
//! the paper's figures are phrased in: one [`StreamSpec`] per port and
//! start bank sweeps — plus the generalized
//! [`measure_steady_state_patterns`] entry taking one
//! [`PatternSpec`] per port (gather,
//! burst, DRAM bank models).

use crate::config::SimConfig;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_simcore::pattern::{PatternSpec, PatternWorkload};

pub use vecmem_simcore::steady::{
    measure_steady_state_with, measure_steady_state_workload, ObservableWorkload, SteadyState,
    SteadyStateError,
};

/// Runs infinite streams until the simulator state recurs and returns the
/// exact cyclic-state bandwidth.
///
/// `specs[i]` is the stream of port `i`; every port of the configuration
/// must have a stream. `max_cycles` bounds the search (the cycle is
/// normally found within a few `lcm`-scale periods).
///
/// The streams run as
/// [`StridePattern`](vecmem_simcore::pattern::StridePattern)s through the
/// generic [`PatternWorkload`] adapter ([`PatternWorkload::strided`]).
///
/// # Errors
/// Returns a [`SteadyStateError`] when the simulator state does not recur
/// within `max_cycles`.
pub fn measure_steady_state(
    config: &SimConfig,
    specs: &[StreamSpec],
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    assert_eq!(
        specs.len(),
        config.num_ports(),
        "one stream per configured port required"
    );
    let mut workload = PatternWorkload::strided(&config.geometry, specs);
    measure_steady_state_workload(config, &mut workload, 0, max_cycles)
}

/// Generalized steady-state entry: one [`PatternSpec`] per port — stride,
/// indexed gather/scatter or strided burst — instantiated against
/// `config`'s geometry *and bank model* (under
/// [`BankModel::Dram`](crate::BankModel) the patterns derive per-request
/// rows and the packed state tracks open rows).
///
/// Periodic pattern sets converge to an exact cyclic state
/// ([`SteadyState::exact`] = `true`); a workload containing an aperiodic
/// pattern (pseudo-random gather) is measured with the budgeted windowed
/// estimate instead (`exact` = `false`).
///
/// # Errors
/// Returns a [`SteadyStateError`] when the simulator state neither recurs
/// nor can be estimated within `max_cycles`.
pub fn measure_steady_state_patterns(
    config: &SimConfig,
    specs: &[PatternSpec],
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    assert_eq!(
        specs.len(),
        config.num_ports(),
        "one pattern per configured port required"
    );
    let mut workload = PatternWorkload::from_specs(config, specs);
    measure_steady_state_workload(config, &mut workload, 0, max_cycles)
}

/// Convenience wrapper: two infinite streams on ports of *different* CPUs
/// over an unsectioned view (the §III-B "equal sections and banks" setting).
///
/// # Errors
/// Returns a [`SteadyStateError`] when no cyclic state is found within
/// `max_cycles`.
pub fn measure_pair_cross_cpu(
    geom: &Geometry,
    s1: StreamSpec,
    s2: StreamSpec,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    let config = SimConfig::one_port_per_cpu(*geom, 2);
    measure_steady_state(&config, &[s1, s2], max_cycles)
}

/// Convenience wrapper: two infinite streams on ports of the *same* CPU
/// (section conflicts possible when `s < m`).
///
/// # Errors
/// Returns a [`SteadyStateError`] when no cyclic state is found within
/// `max_cycles`.
pub fn measure_pair_same_cpu(
    geom: &Geometry,
    s1: StreamSpec,
    s2: StreamSpec,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    let config = SimConfig::single_cpu(*geom, 2);
    measure_steady_state(&config, &[s1, s2], max_cycles)
}

/// Measures a single stream's steady state (validates §III-A).
///
/// # Errors
/// Returns a [`SteadyStateError`] when no cyclic state is found within
/// `max_cycles`.
pub fn measure_single(
    geom: &Geometry,
    spec: StreamSpec,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    let config = SimConfig::single_cpu(*geom, 1);
    measure_steady_state(&config, &[spec], max_cycles)
}

/// Delay variants of a stream pair: sweeps stream 2's start bank over all
/// `m` positions and reports each steady state. Used to verify the
/// "synchronization" claim of Theorem 3 and the uniqueness claims of
/// Theorems 6/7.
///
/// # Errors
/// Returns a [`SteadyStateError`] when any start position fails to reach a
/// cyclic state within `max_cycles`.
pub fn sweep_start_banks(
    config: &SimConfig,
    d1: u64,
    d2: u64,
    max_cycles: u64,
) -> Result<Vec<SteadyState>, SteadyStateError> {
    let geom = config.geometry;
    let m = geom.banks();
    let mut out = Vec::with_capacity(m as usize);
    for b2 in 0..m {
        let s1 = StreamSpec {
            start_bank: 0,
            distance: d1 % m,
        };
        let s2 = StreamSpec {
            start_bank: b2,
            distance: d2 % m,
        };
        out.push(measure_steady_state(config, &[s1, s2], max_cycles)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::request::PortId;
    use crate::rng::SmallRng;
    use crate::stats::ConflictCounts;
    use std::collections::HashMap;
    use vecmem_analytic::Ratio;
    use vecmem_simcore::pattern::{PatternPort, StridePattern};

    fn geom(m: u64, nc: u64) -> Geometry {
        Geometry::unsectioned(m, nc).unwrap()
    }

    fn spec(g: &Geometry, b: u64, d: u64) -> StreamSpec {
        StreamSpec::new(g, b, d).unwrap()
    }

    /// Port `i` runs `specs[i].0` from cycle `specs[i].1` on; the search
    /// starts once every stream has (the state core holds no absolute
    /// time).
    fn measure_delayed(
        config: &SimConfig,
        specs: &[(StreamSpec, u64)],
        max_cycles: u64,
    ) -> Result<SteadyState, SteadyStateError> {
        let geom = config.geometry;
        let ports = specs
            .iter()
            .map(|&(spec, at)| PatternPort::new(StridePattern::new(&geom, spec)).starting_at(at))
            .collect();
        let warmup = specs.iter().map(|&(_, at)| at).max().unwrap_or(0);
        measure_steady_state_workload(config, &mut PatternWorkload::new(ports), warmup, max_cycles)
    }

    #[derive(Clone)]
    struct Snapshot {
        cycle: u64,
        grants: Vec<u64>,
        conflicts: ConflictCounts,
    }

    /// The pre-Brent detector, retained verbatim as the differential
    /// reference: hash every visited state into a map and report the
    /// window between the two visits of the first repeated state. O(cycles)
    /// memory — the cost the production solver exists to avoid.
    fn reference_measure<W: ObservableWorkload>(
        config: &SimConfig,
        workload: &mut W,
        warmup: u64,
        max_cycles: u64,
    ) -> Result<SteadyState, SteadyStateError> {
        let mut engine = Engine::new(config.clone());
        for _ in 0..warmup {
            engine.step(workload);
        }
        let mut seen: HashMap<Vec<u64>, Snapshot> = HashMap::new();
        loop {
            let mut key: Vec<u64> = engine.state().residues().collect();
            key.extend(workload.state_signature());
            key.push(engine.state().rotation() as u64);
            let grants: Vec<u64> = (0..config.num_ports())
                .map(|p| engine.stats().port(PortId(p)).grants)
                .collect();
            let snapshot = Snapshot {
                cycle: engine.now(),
                grants,
                conflicts: engine.stats().total_conflicts(),
            };
            if let Some(first) = seen.get(&key) {
                let period = snapshot.cycle - first.cycle;
                let per_port: Vec<Ratio> = snapshot
                    .grants
                    .iter()
                    .zip(&first.grants)
                    .map(|(&now, &then)| Ratio::new(now - then, period))
                    .collect();
                let grants_per_period: u64 = snapshot
                    .grants
                    .iter()
                    .zip(&first.grants)
                    .map(|(&now, &then)| now - then)
                    .sum();
                return Ok(SteadyState {
                    beff: Ratio::new(grants_per_period, period),
                    transient: first.cycle,
                    period,
                    grants_per_period,
                    per_port,
                    conflicts_per_period: snapshot.conflicts - first.conflicts,
                    exact: true,
                });
            }
            if engine.now() >= max_cycles + warmup {
                return Err(SteadyStateError::NotConverged { cycles: max_cycles });
            }
            seen.insert(key, snapshot);
            engine.step(workload);
        }
    }

    #[test]
    fn single_stream_steady_states() {
        // §III-A: b_eff = 1 for r >= n_c, r/n_c otherwise.
        let g = geom(16, 4);
        let full = measure_single(&g, spec(&g, 0, 1), 10_000).unwrap();
        assert_eq!(full.beff, Ratio::integer(1));
        assert!(full.conflict_free());

        let half = measure_single(&g, spec(&g, 0, 8), 10_000).unwrap();
        assert_eq!(half.beff, Ratio::new(1, 2)); // r = 2, n_c = 4
        assert!(!half.conflict_free());

        let quarter = measure_single(&g, spec(&g, 3, 0), 10_000).unwrap();
        assert_eq!(quarter.beff, Ratio::new(1, 4)); // r = 1
    }

    #[test]
    fn fig2_conflict_free_pair() {
        // Fig. 2: m = 12, n_c = 3, d1 = 1, d2 = 7: b_eff = 2.
        let g = geom(12, 3);
        let ss = measure_pair_cross_cpu(&g, spec(&g, 0, 1), spec(&g, 1, 7), 10_000).unwrap();
        assert_eq!(ss.beff, Ratio::integer(2));
        assert!(ss.conflict_free());
    }

    #[test]
    fn fig3_barrier_pair() {
        // Fig. 3: m = 13, n_c = 6, d1 = 1, d2 = 6 with starts realising the
        // barrier: b_eff = 1 + d1/d2 = 7/6.
        let g = geom(13, 6);
        let ss = measure_pair_cross_cpu(&g, spec(&g, 0, 1), spec(&g, 0, 6), 100_000).unwrap();
        assert_eq!(ss.beff, Ratio::new(7, 6));
        // Stream 1 runs conflict-free at rate 1; stream 2 is the delayed one.
        assert_eq!(ss.per_port[0], Ratio::integer(1));
        assert_eq!(ss.per_port[1], Ratio::new(1, 6));
    }

    #[test]
    fn disjoint_sets_full_bandwidth() {
        // m = 12, d1 = d2 = 2, odd offset: even/odd banks never meet.
        let g = geom(12, 4);
        let ss = measure_pair_cross_cpu(&g, spec(&g, 0, 2), spec(&g, 1, 2), 10_000).unwrap();
        assert_eq!(ss.beff, Ratio::integer(2));
        assert!(ss.conflict_free());
    }

    #[test]
    fn start_bank_sweep_respects_theorem3_sync() {
        // d1 = 1, d2 = 7 on m = 12, n_c = 3 satisfies Theorem 3, so *every*
        // relative start position must converge to b_eff = 2.
        let g = geom(12, 3);
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        for (b2, ss) in sweep_start_banks(&cfg, 1, 7, 100_000)
            .unwrap()
            .into_iter()
            .enumerate()
        {
            assert_eq!(ss.beff, Ratio::integer(2), "b2 = {b2}");
        }
    }

    #[test]
    fn time_offsets_equivalent_to_space_offsets() {
        // Paper: "a relative position in time can be transformed to a
        // relative position in space". Delaying stream 2 (d2 = 3) by one
        // cycle is the same as moving its start bank back by d2: in the
        // start-dependent Fig. 5/6 case (m = 13, n_c = 4) even the per-port
        // split must match.
        let g = geom(13, 4);
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let a =
            measure_delayed(&cfg, &[(spec(&g, 0, 1), 0), (spec(&g, 0, 3), 1)], 100_000).unwrap();
        let b = measure_steady_state(&cfg, &[spec(&g, 0, 1), spec(&g, 10, 3)], 100_000).unwrap();
        assert_eq!(a.beff, b.beff);
        assert_eq!(a.per_port, b.per_port);
    }

    #[test]
    fn not_converged_is_unreachable_for_small_systems() {
        let g = geom(8, 2);
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        for d1 in 0..8 {
            for d2 in 0..8 {
                let r = sweep_start_banks(&cfg, d1, d2, 1_000_000);
                assert!(r.is_ok(), "d1={d1} d2={d2}");
            }
        }
    }

    #[test]
    fn transient_and_period_reported() {
        let g = geom(12, 3);
        let ss = measure_pair_cross_cpu(&g, spec(&g, 0, 1), spec(&g, 0, 7), 10_000).unwrap();
        assert!(ss.period > 0);
        assert_eq!(ss.grants_per_period, 2 * ss.period);
    }

    #[test]
    fn not_converged_reports_the_budget_from_every_entry_point() {
        // One semantics for `NotConverged::cycles`: the exhausted search
        // budget, regardless of how much warmup the entry point inserted.
        let g = geom(16, 4);
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let budget = 2;
        let specs = [spec(&g, 0, 1), spec(&g, 0, 3)];

        let via_specs = measure_steady_state(&cfg, &specs, budget).unwrap_err();
        assert_eq!(via_specs, SteadyStateError::NotConverged { cycles: budget });

        // A delayed start warms up 5 cycles first; the reported
        // budget must not be inflated by them.
        let via_delays =
            measure_delayed(&cfg, &[(specs[0], 0), (specs[1], 5)], budget).unwrap_err();
        assert_eq!(
            via_delays,
            SteadyStateError::NotConverged { cycles: budget }
        );
        assert_eq!(via_delays.to_string(), "no cyclic state within 2 cycles");
    }

    /// Satellite property: on random geometries and stream sets, Brent's
    /// bounded-memory detector returns bitwise-identical results to the
    /// retained hash-map reference detector.
    #[test]
    fn brent_matches_reference_detector_on_random_systems() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0bed);
        for case in 0..60 {
            let m = rng.gen_range_inclusive(2..=24);
            let nc = rng.gen_range_inclusive(1..=6);
            let ports = rng.gen_range_inclusive(1..=3) as usize;
            let g = geom(m, nc);
            let cfg = if rng.gen_bool(0.5) {
                SimConfig::single_cpu(g, ports)
            } else {
                SimConfig::one_port_per_cpu(g, ports)
            };
            let specs: Vec<StreamSpec> = (0..ports)
                .map(|_| spec(&g, rng.gen_range(0..m), rng.gen_range(0..m)))
                .collect();
            let warmup = rng.gen_range(0..4);
            let label =
                format!("case {case}: m={m} nc={nc} ports={ports} specs={specs:?} warmup={warmup}");

            let mut w1 = PatternWorkload::strided(&g, &specs);
            let brent = measure_steady_state_workload(&cfg, &mut w1, warmup, 500_000);
            let mut w2 = PatternWorkload::strided(&g, &specs);
            let reference = reference_measure(&cfg, &mut w2, warmup, 500_000);

            let (b, r) = (brent.unwrap(), reference.unwrap());
            assert_eq!(b.beff, r.beff, "{label}");
            assert_eq!(b.transient, r.transient, "{label}");
            assert_eq!(b.period, r.period, "{label}");
            assert_eq!(b.grants_per_period, r.grants_per_period, "{label}");
            assert_eq!(b.per_port, r.per_port, "{label}");
            assert_eq!(b.conflicts_per_period, r.conflicts_per_period, "{label}");
        }
    }

    /// Cyclic priority exercises the rotation word of the state core; the
    /// two detectors must still agree exactly.
    #[test]
    fn brent_matches_reference_under_cyclic_priority() {
        use crate::config::PriorityRule;
        let mut rng = SmallRng::seed_from_u64(0xc1c1_0bed);
        for case in 0..20 {
            let m = rng.gen_range_inclusive(2..=16);
            let nc = rng.gen_range_inclusive(1..=4);
            let g = geom(m, nc);
            let cfg = SimConfig::one_port_per_cpu(g, 2).with_priority(PriorityRule::Cyclic);
            let specs = vec![
                spec(&g, rng.gen_range(0..m), rng.gen_range(0..m)),
                spec(&g, rng.gen_range(0..m), rng.gen_range(0..m)),
            ];
            let label = format!("case {case}: m={m} nc={nc} specs={specs:?}");

            let mut w1 = PatternWorkload::strided(&g, &specs);
            let b = measure_steady_state_workload(&cfg, &mut w1, 0, 500_000).unwrap();
            let mut w2 = PatternWorkload::strided(&g, &specs);
            let r = reference_measure(&cfg, &mut w2, 0, 500_000).unwrap();
            assert_eq!(
                (
                    b.beff,
                    b.transient,
                    b.period,
                    &b.per_port,
                    b.conflicts_per_period
                ),
                (
                    r.beff,
                    r.transient,
                    r.period,
                    &r.per_port,
                    r.conflicts_per_period
                ),
                "{label}"
            );
        }
    }
}
