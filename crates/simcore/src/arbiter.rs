//! Per-cycle conflict arbitration.
//!
//! Implements the conflict taxonomy of paper §II in one pass over the
//! requests in priority-rank order. Each request is decided against the
//! higher-priority requests already decided, by the first rule it meets:
//!
//! 1. **bank conflict** — its bank is still active;
//! 2. **section conflict** — a better-ranked request of the same CPU, not
//!    itself delayed by a bank conflict, needs the same section: one
//!    access path per section per CPU (this also covers two same-CPU
//!    ports colliding on one inactive bank, which the paper treats as a
//!    section conflict);
//! 3. **simultaneous bank conflict** — a better-ranked request that
//!    survived rules 1–2 (granted, or itself delayed by rule 3) uses the
//!    same bank: requests from different CPUs, hence different paths,
//!    collide on one inactive bank;
//!
//! and is granted otherwise. Rank order settles each rule before the
//! next can look at it, so the pass gives the same outcomes as applying
//! the three rules as separate phases over all requests.

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

/// Arbitrates one clock period without allocating: one outcome per request
/// is written into `outcomes` (which is cleared first), in input order.
///
/// `bank_busy(bank)` reports whether a bank is still active; `requests`
/// holds the pending request of every active port this cycle. Two
/// preconditions, both guaranteed by the step kernel and checked by
/// `debug_assert!`:
///
/// * ports are distinct, below `config.num_ports()` and in ascending
///   order, so rank order is `requests` rotated at the first port at or
///   after the rotation (found by binary search, which rotation 0, and
///   so fixed priority, skips);
/// * every bank is below the geometry's bank count `m`, so on an
///   unsectioned geometry (`s = m`) section equality is bank equality.
///
/// The port count is small (one to a few per CPU), so each request scans
/// the already decided ones: O(p²/2) compares, no sorting, no group
/// tables. Only a same-CPU pair on a sectioned geometry looks up sections.
#[expect(
    clippy::indexing_slicing,
    reason = "every index is below `requests.len()`, and `outcomes` was resized to that length"
)]
#[expect(
    clippy::disallowed_macros,
    reason = "debug_assert! only: compiled out of release builds"
)]
#[inline]
pub fn arbitrate_into(
    config: &SimConfig,
    rotation: usize,
    bank_busy: impl Fn(u64) -> bool,
    requests: &[(PortId, Request)],
    outcomes: &mut Vec<PortOutcome>,
) {
    let n = config.num_ports();
    let geometry = &config.geometry;
    debug_assert!(
        requests.windows(2).all(|w| w[0].0 .0 < w[1].0 .0)
            && requests.last().is_none_or(|&(p, _)| p.0 < n),
        "ports must be distinct, ascending and below {n}"
    );
    debug_assert!(
        requests.iter().all(|&(_, r)| r.bank < geometry.banks()),
        "banks must be below {}",
        geometry.banks()
    );
    // Rank order starts at the first port at or after the rotation (fixed
    // priority is rotation 0) and wraps around.
    let rotation = match config.priority {
        PriorityRule::Fixed => 0,
        PriorityRule::Cyclic => rotation % n.max(1),
    };
    let len = requests.len();
    let first = if rotation == 0 {
        0
    } else {
        requests.partition_point(|&(p, _)| p.0 < rotation)
    };
    let in_rank = |k: usize| {
        if k < len - first {
            first + k
        } else {
            k - (len - first)
        }
    };
    let sectioned = geometry.sections() != geometry.banks();

    outcomes.clear();
    outcomes.resize(len, PortOutcome::Granted);
    for k in 0..len {
        let i = in_rank(k);
        let (port, req) = requests[i];
        if bank_busy(req.bank) {
            outcomes[i] = PortOutcome::Delayed(ConflictKind::Bank);
            continue;
        }
        let cpu = config.cpu_of(port);
        let (mut section, mut simultaneous) = (false, false);
        for j in (0..k).map(in_rank) {
            let (p, r) = requests[j];
            let survivor = match outcomes[j] {
                PortOutcome::Delayed(ConflictKind::Bank) => continue,
                PortOutcome::Delayed(ConflictKind::Section) => false,
                PortOutcome::Granted | PortOutcome::Delayed(ConflictKind::SimultaneousBank) => true,
            };
            let same_bank = r.bank == req.bank;
            section |= config.cpu_of(p) == cpu
                && (same_bank
                    || sectioned && geometry.section_of(r.bank) == geometry.section_of(req.bank));
            simultaneous |= survivor && same_bank;
        }
        if section {
            outcomes[i] = PortOutcome::Delayed(ConflictKind::Section);
        } else if simultaneous {
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

    #[test]
    fn cyclic_rank_order_wraps_around() {
        // Ports 0 and 2 on CPU 0, port 1 on CPU 1; m = 8, s = 2 (section
        // = bank mod 2). Rotation 2 ranks the ports 2, 0, 1: port 2 takes
        // bank 5 and CPU 0's path to section 1, so port 0 (bank 3, same
        // section, same CPU) loses the path and port 1 (bank 5, other
        // CPU) loses the bank.
        let c = SimConfig {
            ports: vec![CpuId(0), CpuId(1), CpuId(0)],
            ..SimConfig::single_cpu(Geometry::new(8, 2, 2).unwrap(), 3)
                .with_priority(PriorityRule::Cyclic)
        };
        let requests = [req(0, 3), req(1, 5), req(2, 5)];
        let expected = vec![
            PortOutcome::Delayed(ConflictKind::Section),
            PortOutcome::Delayed(ConflictKind::SimultaneousBank),
            PortOutcome::Granted,
        ];
        assert_eq!(arbitrated(&c, 2, never_busy, &requests), expected);
        let mut reference = Vec::new();
        arbitrate_reference(&c, 2, never_busy, &requests, &mut reference);
        assert_eq!(reference, expected);
        // Rotation 0 ranks them 0, 1, 2: now port 2 loses CPU 0's path.
        assert_eq!(
            arbitrated(&c, 0, never_busy, &requests),
            vec![
                PortOutcome::Granted,
                PortOutcome::Granted,
                PortOutcome::Delayed(ConflictKind::Section),
            ]
        );
    }

    /// Priority rank of a port under `rule` with the given rotation
    /// offset; lower rank wins. The reference arbiter's ranking.
    fn priority_rank(rule: PriorityRule, rotation: usize, n_ports: usize, port: PortId) -> usize {
        match rule {
            PriorityRule::Fixed => port.0,
            PriorityRule::Cyclic => (port.0 + n_ports - rotation % n_ports) % n_ports,
        }
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
            n in 1usize..=8,
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
