//! Structural invariants of the simulator, checked cycle by cycle while
//! driving it with adversarial random workloads.
//!
//! These validate the arbitration semantics of paper §II directly:
//! no grant ever targets an active bank, at most one grant per bank per
//! clock period, at most one grant per (CPU, section) per clock period,
//! and delayed ports always retry the same request.

use std::collections::HashSet;
use vecmem::analytic::Geometry;
use vecmem::banksim::{
    ConflictKind, Engine, PortEvent, PortId, PortOutcome, PriorityRule, Request, SimConfig,
    SmallRng, Workload,
};

/// A deliberately nasty workload: per-port random banks with heavy
/// collision bias (small bank range), plus random idling.
struct AdversarialWorkload {
    current: Vec<Option<u64>>,
    rng: SmallRng,
    banks: u64,
}

impl AdversarialWorkload {
    fn new(ports: usize, banks: u64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let current = (0..ports)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    Some(rng.gen_range(0..banks.min(4))) // bias to few banks
                } else {
                    None
                }
            })
            .collect();
        Self {
            current,
            rng,
            banks,
        }
    }

    fn refresh(&mut self, port: usize) {
        self.current[port] = if self.rng.gen_bool(0.9) {
            let range = if self.rng.gen_bool(0.5) {
                self.banks.min(4)
            } else {
                self.banks
            };
            Some(self.rng.gen_range(0..range))
        } else {
            None
        };
    }
}

impl Workload for AdversarialWorkload {
    fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
        self.current[port.0].map(Request::to_bank)
    }
    fn granted(&mut self, port: PortId, _now: u64) {
        self.refresh(port.0);
    }
    fn is_finished(&self) -> bool {
        false
    }
}

fn check_invariants(config: SimConfig, seed: u64, cycles: u64) {
    let geom = config.geometry;
    let nc = geom.bank_cycle();
    let mut engine = Engine::new(config.clone());
    let mut workload = AdversarialWorkload::new(config.num_ports(), geom.banks(), seed);
    // Track bank busy state independently of the engine.
    let mut shadow_free_at = vec![0u64; geom.banks() as usize];
    // Track each port's previously delayed request.
    let mut delayed_request: Vec<Option<u64>> = vec![None; config.num_ports()];

    for t in 0..cycles {
        let mut granted_banks = HashSet::new();
        let mut granted_paths = HashSet::new();
        for &PortEvent {
            port,
            request: req,
            outcome,
            ..
        } in engine.step(&mut workload)
        {
            // Invariant: a port that was delayed last cycle presents the
            // SAME request this cycle (in-order dynamic resolution).
            if let Some(prev) = delayed_request[port.0] {
                assert_eq!(req.bank, prev, "port {} changed a delayed request", port.0);
            }
            match outcome {
                PortOutcome::Granted => {
                    // Never grant an active bank.
                    assert!(
                        t >= shadow_free_at[req.bank as usize],
                        "cycle {t}: grant to busy bank {}",
                        req.bank
                    );
                    // One grant per bank per cycle.
                    assert!(
                        granted_banks.insert(req.bank),
                        "cycle {t}: two grants to bank {}",
                        req.bank
                    );
                    // One grant per (cpu, section) per cycle.
                    let path = (config.cpu_of(port), geom.section_of(req.bank));
                    assert!(
                        granted_paths.insert(path),
                        "cycle {t}: two grants on path {path:?}"
                    );
                    shadow_free_at[req.bank as usize] = t + nc;
                    delayed_request[port.0] = None;
                }
                PortOutcome::Delayed(kind) => {
                    delayed_request[port.0] = Some(req.bank);
                    // Bank conflicts only on actually busy banks.
                    if kind == ConflictKind::Bank {
                        assert!(
                            t < shadow_free_at[req.bank as usize],
                            "cycle {t}: bank conflict on idle bank {}",
                            req.bank
                        );
                    }
                    // Section conflicts require s < m ports sharing a CPU,
                    // or a same-CPU same-bank collision.
                    if kind == ConflictKind::Section {
                        assert!(config.num_cpus() < config.num_ports());
                    }
                }
            }
        }
    }
}

#[test]
fn invariants_single_cpu_sectioned() {
    for seed in 0..8 {
        check_invariants(
            SimConfig::single_cpu(Geometry::new(16, 4, 4).unwrap(), 3),
            seed,
            3_000,
        );
    }
}

#[test]
fn invariants_dual_cpu_xmp() {
    for seed in 0..8 {
        check_invariants(SimConfig::cray_xmp_dual(), seed, 3_000);
    }
}

#[test]
fn invariants_cyclic_priority() {
    for seed in 0..8 {
        check_invariants(
            SimConfig::cray_xmp_dual().with_priority(PriorityRule::Cyclic),
            seed,
            3_000,
        );
    }
}

#[test]
fn invariants_unsectioned_many_ports() {
    for seed in 0..4 {
        check_invariants(
            SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 3).unwrap(), 6),
            seed,
            3_000,
        );
    }
}

#[test]
fn invariants_consecutive_mapping() {
    use vecmem::analytic::SectionMapping;
    let geom = Geometry::with_mapping(12, 3, 3, SectionMapping::Consecutive).unwrap();
    for seed in 0..4 {
        check_invariants(SimConfig::single_cpu(geom, 3), seed, 3_000);
    }
}

#[test]
fn invariants_tiny_geometry() {
    // m = 2, n_c = 1: the smallest legal system, maximum collision rate.
    for seed in 0..4 {
        check_invariants(
            SimConfig::one_port_per_cpu(Geometry::unsectioned(2, 1).unwrap(), 3),
            seed,
            2_000,
        );
    }
}
