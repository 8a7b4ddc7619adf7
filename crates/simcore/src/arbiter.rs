//! Per-cycle conflict arbitration.
//!
//! Implements the conflict taxonomy of paper §II in three phases:
//!
//! 1. **bank conflicts** — requests to still-active banks are delayed;
//! 2. **section conflicts** — among a CPU's remaining requests, only one per
//!    section can use that CPU's access path; the priority rule picks the
//!    winner (this also covers two same-CPU ports colliding on one inactive
//!    bank, which the paper treats as a section conflict);
//! 3. **simultaneous bank conflicts** — among the per-CPU winners, requests
//!    from different CPUs (hence different paths) colliding on one inactive
//!    bank are arbitrated by the same priority rule.

// Hot-path panic policy (TESTING.md, "Hot-path rules").
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::integer_division,
        clippy::disallowed_macros,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::config::{PriorityRule, SimConfig};
use crate::request::{ConflictKind, PortId, PortOutcome, Request};

/// Priority rank of a port under `rule` with the given rotation offset;
/// lower rank wins.
#[must_use]
pub fn priority_rank(rule: PriorityRule, rotation: usize, n_ports: usize, port: PortId) -> usize {
    match rule {
        PriorityRule::Fixed => port.0,
        PriorityRule::Cyclic => (port.0 + n_ports - rotation % n_ports) % n_ports,
    }
}

/// Arbitrates one clock period without allocating: one outcome per request
/// is pushed into `outcomes` (which is cleared first), in input order.
///
/// `bank_busy(bank)` reports whether a bank is still active; `requests`
/// holds the pending request of every active port this cycle, each port
/// below `config.num_ports()`. The port count is small (one to a few per
/// CPU), so the phase-2/3 group scans are plain O(p²) passes over the
/// request slice — no sorting, no temporary group tables. The passes do
/// not divide: the rotation is reduced once per call, phase 2 looks up
/// sections only for a same-CPU pair whose rank already decides it, and
/// phase 3 folds its pairwise test without short-circuiting, so it
/// compiles to straight-line code.
#[expect(
    clippy::indexing_slicing,
    reason = "every index walks `requests`/`outcomes`, which this function sized itself; the step kernel asserted the banks"
)]
pub fn arbitrate_into(
    config: &SimConfig,
    rotation: usize,
    bank_busy: impl Fn(u64) -> bool,
    requests: &[(PortId, Request)],
    outcomes: &mut Vec<PortOutcome>,
) {
    let n = config.num_ports();
    // `priority_rank` with the rotation reduced once (fixed priority is
    // rotation 0): for a port below `n` and a rotation below `n`,
    // `port + n - rotation` lies in `1..2n`, so one conditional subtract
    // replaces the modulo.
    let rotation = match config.priority {
        PriorityRule::Fixed => 0,
        PriorityRule::Cyclic => rotation % n.max(1),
    };
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! only: compiled out of release builds"
    )]
    let rank = |p: PortId| {
        debug_assert!(p.0 < n, "port {} of {n}", p.0);
        let r = p.0 + n - rotation;
        if r >= n {
            r - n
        } else {
            r
        }
    };

    // Phase 1: bank conflicts. Everything else is tentatively granted.
    outcomes.clear();
    for &(_, req) in requests {
        outcomes.push(if bank_busy(req.bank) {
            PortOutcome::Delayed(ConflictKind::Bank)
        } else {
            PortOutcome::Granted
        });
    }

    // Phase 2: section conflicts within each CPU. A tentative grant loses
    // to any phase-1 survivor of the same (cpu, section) group with a
    // better rank. Requests already marked `Delayed(Section)` by this pass
    // still count as phase-1 survivors for later comparisons, so the scan
    // order does not matter.
    let geometry = &config.geometry;
    for i in 0..requests.len() {
        if outcomes[i] != PortOutcome::Granted {
            continue;
        }
        let (port, req) = requests[i];
        let cpu = config.cpu_of(port);
        let rank_i = rank(port);
        let loses = requests.iter().enumerate().any(|(j, &(p, r))| {
            j != i
                && outcomes[j] != PortOutcome::Delayed(ConflictKind::Bank)
                && config.cpu_of(p) == cpu
                && rank(p) < rank_i
                && geometry.section_of(r.bank) == geometry.section_of(req.bank)
        });
        if loses {
            outcomes[i] = PortOutcome::Delayed(ConflictKind::Section);
        }
    }

    // Phase 3: simultaneous bank conflicts across CPUs. A remaining grant
    // loses to any phase-2 survivor (granted, or already demoted to
    // `Delayed(SimultaneousBank)` by this pass) on the same bank with a
    // better rank.
    for i in 0..requests.len() {
        if outcomes[i] != PortOutcome::Granted {
            continue;
        }
        let (port, req) = requests[i];
        let rank_i = rank(port);
        let mut loses = false;
        for (j, &(p, r)) in requests.iter().enumerate() {
            let survivor = matches!(
                outcomes[j],
                PortOutcome::Granted | PortOutcome::Delayed(ConflictKind::SimultaneousBank)
            );
            loses |= (j != i) & survivor & (r.bank == req.bank) & (rank(p) < rank_i);
        }
        if loses {
            outcomes[i] = PortOutcome::Delayed(ConflictKind::SimultaneousBank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CpuId;
    use vecmem_analytic::{Geometry, SectionMapping};
    use vecmem_prop::prelude::*;
    use vecmem_prop::{select, TestRng};

    fn req(port: usize, bank: u64) -> (PortId, Request) {
        (PortId(port), Request::to_bank(bank))
    }

    fn never_busy(_: u64) -> bool {
        false
    }

    fn arbitrated(
        config: &SimConfig,
        rotation: usize,
        bank_busy: impl Fn(u64) -> bool,
        requests: &[(PortId, Request)],
    ) -> Vec<PortOutcome> {
        let mut outcomes = Vec::new();
        arbitrate_into(config, rotation, bank_busy, requests, &mut outcomes);
        outcomes
    }

    #[test]
    fn no_conflicts_all_granted() {
        let c = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 2).unwrap(), 2);
        let out = arbitrated(&c, 0, never_busy, &[req(0, 1), req(1, 5)]);
        assert!(out.iter().all(|&o| o == PortOutcome::Granted));
    }

    #[test]
    fn bank_conflict_on_busy_bank() {
        let c = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 2).unwrap(), 2);
        let out = arbitrated(&c, 0, |b| b == 3, &[req(0, 3), req(1, 5)]);
        assert_eq!(out[0], PortOutcome::Delayed(ConflictKind::Bank));
        assert_eq!(out[1], PortOutcome::Granted);
    }

    #[test]
    fn simultaneous_conflict_between_cpus() {
        // Two ports on different CPUs hit the same inactive bank: fixed
        // priority gives it to port 0.
        let c = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 2).unwrap(), 2);
        let out = arbitrated(&c, 0, never_busy, &[req(0, 3), req(1, 3)]);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Delayed(ConflictKind::SimultaneousBank));
    }

    #[test]
    fn same_cpu_same_bank_is_section_conflict() {
        // Paper §III-B: within one CPU there is a single path to the bank's
        // section, so the collision is classified as a section conflict.
        let c = SimConfig::single_cpu(Geometry::unsectioned(8, 2).unwrap(), 2);
        let out = arbitrated(&c, 0, never_busy, &[req(0, 3), req(1, 3)]);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Delayed(ConflictKind::Section));
    }

    #[test]
    fn section_conflict_different_banks_same_path() {
        // m = 4, s = 2: banks 1 and 3 are both in section 1; two ports of one
        // CPU need the same path.
        let c = SimConfig::single_cpu(Geometry::new(4, 2, 2).unwrap(), 2);
        let out = arbitrated(&c, 0, never_busy, &[req(0, 1), req(1, 3)]);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Delayed(ConflictKind::Section));
    }

    #[test]
    fn different_cpus_never_section_conflict() {
        // Same section, different banks, different CPUs: each CPU has its
        // own path, both granted.
        let c = SimConfig::one_port_per_cpu(Geometry::new(4, 2, 2).unwrap(), 2);
        let out = arbitrated(&c, 0, never_busy, &[req(0, 1), req(1, 3)]);
        assert!(out.iter().all(|&o| o == PortOutcome::Granted));
    }

    #[test]
    fn cyclic_priority_rotates_winner() {
        let c = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 2).unwrap(), 2)
            .with_priority(PriorityRule::Cyclic);
        // rotation 0: port 0 wins.
        let out0 = arbitrated(&c, 0, never_busy, &[req(0, 3), req(1, 3)]);
        assert_eq!(out0[0], PortOutcome::Granted);
        // rotation 1: port 1 holds top priority.
        let out1 = arbitrated(&c, 1, never_busy, &[req(0, 3), req(1, 3)]);
        assert_eq!(out1[1], PortOutcome::Granted);
        assert_eq!(
            out1[0],
            PortOutcome::Delayed(ConflictKind::SimultaneousBank)
        );
    }

    #[test]
    fn three_way_section_conflict_single_winner() {
        let c = SimConfig::single_cpu(Geometry::new(8, 2, 2).unwrap(), 3);
        let out = arbitrated(&c, 0, never_busy, &[req(0, 0), req(1, 2), req(2, 4)]);
        let granted = out.iter().filter(|&&o| o == PortOutcome::Granted).count();
        assert_eq!(granted, 1);
        assert_eq!(out[0], PortOutcome::Granted);
    }

    #[test]
    fn bank_conflict_checked_before_section() {
        // A port whose bank is busy must record a bank conflict even if it
        // would also have lost the path arbitration.
        let c = SimConfig::single_cpu(Geometry::new(4, 2, 2).unwrap(), 2);
        let out = arbitrated(&c, 0, |b| b == 3, &[req(0, 1), req(1, 3)]);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Delayed(ConflictKind::Bank));
    }

    #[test]
    fn arbitrate_into_reuses_buffer_across_cycles() {
        let c = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 2).unwrap(), 2);
        let mut buf = Vec::new();
        arbitrate_into(&c, 0, never_busy, &[req(0, 3), req(1, 3)], &mut buf);
        assert_eq!(
            buf,
            vec![
                PortOutcome::Granted,
                PortOutcome::Delayed(ConflictKind::SimultaneousBank)
            ]
        );
        arbitrate_into(&c, 0, |b| b == 1, &[req(0, 1)], &mut buf);
        assert_eq!(buf, vec![PortOutcome::Delayed(ConflictKind::Bank)]);
    }

    /// The three-phase arbiter as it stood before the passes stopped
    /// dividing, kept verbatim as the equivalence reference.
    fn arbitrate_reference(
        config: &SimConfig,
        rotation: usize,
        bank_busy: impl Fn(u64) -> bool,
        requests: &[(PortId, Request)],
        outcomes: &mut Vec<PortOutcome>,
    ) {
        let n = config.num_ports();
        let rank = |p: PortId| priority_rank(config.priority, rotation, n, p);

        // Phase 1: bank conflicts. Everything else is tentatively granted.
        outcomes.clear();
        for &(_, req) in requests {
            outcomes.push(if bank_busy(req.bank) {
                PortOutcome::Delayed(ConflictKind::Bank)
            } else {
                PortOutcome::Granted
            });
        }

        // Phase 2: section conflicts within each CPU. A tentative grant loses
        // to any phase-1 survivor of the same (cpu, section) group with a
        // better rank. Requests already marked `Delayed(Section)` by this pass
        // still count as phase-1 survivors for later comparisons, so the scan
        // order does not matter.
        for i in 0..requests.len() {
            if outcomes[i] != PortOutcome::Granted {
                continue;
            }
            let (port, req) = requests[i];
            let cpu = config.cpu_of(port);
            let section = config.geometry.section_of(req.bank);
            let loses = requests.iter().enumerate().any(|(j, &(p, r))| {
                j != i
                    && outcomes[j] != PortOutcome::Delayed(ConflictKind::Bank)
                    && config.cpu_of(p) == cpu
                    && config.geometry.section_of(r.bank) == section
                    && rank(p) < rank(port)
            });
            if loses {
                outcomes[i] = PortOutcome::Delayed(ConflictKind::Section);
            }
        }

        // Phase 3: simultaneous bank conflicts across CPUs. A remaining grant
        // loses to any phase-2 survivor (granted, or already demoted to
        // `Delayed(SimultaneousBank)` by this pass) on the same bank with a
        // better rank.
        for i in 0..requests.len() {
            if outcomes[i] != PortOutcome::Granted {
                continue;
            }
            let (port, req) = requests[i];
            let loses = requests.iter().enumerate().any(|(j, &(p, r))| {
                j != i
                    && matches!(
                        outcomes[j],
                        PortOutcome::Granted | PortOutcome::Delayed(ConflictKind::SimultaneousBank)
                    )
                    && r.bank == req.bank
                    && rank(p) < rank(port)
            });
            if loses {
                outcomes[i] = PortOutcome::Delayed(ConflictKind::SimultaneousBank);
            }
        }
    }

    fn equivalence_geometries() -> Vec<Geometry> {
        let mut geometries = vec![
            Geometry::unsectioned(4, 2).unwrap(),
            Geometry::unsectioned(8, 3).unwrap(),
            Geometry::unsectioned(13, 4).unwrap(),
        ];
        for (banks, sections, nc) in [(8, 2, 2), (12, 3, 4), (16, 4, 4), (6, 6, 2)] {
            for mapping in [SectionMapping::Cyclic, SectionMapping::Consecutive] {
                geometries.push(Geometry::with_mapping(banks, sections, nc, mapping).unwrap());
            }
        }
        geometries
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn arbitrate_into_matches_reference(
            geometry in select(equivalence_geometries()),
            n in 1usize..=6,
            cpus in 1u64..=3,
            priority in select(vec![PriorityRule::Fixed, PriorityRule::Cyclic]),
            rotation in 0usize..12,
            busy in 0u64..=u64::MAX,
            seed in 0u64..=u64::MAX,
        ) {
            // Ports spread over one to three CPUs; each port requests a
            // random bank with probability 3/4, in ascending port order as
            // the step kernel collects them. `priority_rank` accepts any
            // rotation, so both arbiters see one in `0..2n`.
            let mut rng = TestRng::seed_from_u64(seed);
            let config = SimConfig {
                ports: (0..n).map(|_| CpuId(rng.bounded(cpus) as usize)).collect(),
                ..SimConfig::single_cpu(geometry, n).with_priority(priority)
            };
            let rotation = rotation % (2 * n);
            let requests: Vec<(PortId, Request)> = (0..n)
                .filter_map(|p| {
                    let bank = rng.bounded(geometry.banks());
                    (rng.bounded(4) != 0).then(|| (PortId(p), Request::to_bank(bank)))
                })
                .collect();
            let bank_busy = |b: u64| busy >> b & 1 != 0;
            let (mut fast, mut reference) = (Vec::new(), Vec::new());
            arbitrate_into(&config, rotation, bank_busy, &requests, &mut fast);
            arbitrate_reference(&config, rotation, bank_busy, &requests, &mut reference);
            prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn priority_rank_wrapping() {
        assert_eq!(priority_rank(PriorityRule::Fixed, 7, 4, PortId(2)), 2);
        assert_eq!(priority_rank(PriorityRule::Cyclic, 0, 4, PortId(2)), 2);
        assert_eq!(priority_rank(PriorityRule::Cyclic, 2, 4, PortId(2)), 0);
        assert_eq!(priority_rank(PriorityRule::Cyclic, 3, 4, PortId(0)), 1);
        assert_eq!(priority_rank(PriorityRule::Cyclic, 5, 4, PortId(1)), 0);
    }
}
