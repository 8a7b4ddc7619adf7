//! Random-access workloads — the setting of the classical interleaved-
//! memory models the paper's introduction cites (\[1\]–\[5\]).
//!
//! Whereas vector mode produces deterministic strided streams, the classic
//! models assume each processor requests a *uniformly random* bank. This
//! module provides that workload (with the same in-order,
//! resubmit-on-conflict port semantics as the rest of the simulator) so
//! vector-mode and random-access bandwidth can be compared on identical
//! hardware — quantifying how much of the machine's bandwidth the
//! vector-mode structure is worth.

use crate::config::SimConfig;
use crate::observe::NoopObserver;
use crate::request::{PortId, Request};
use crate::rng::SmallRng;
use crate::workload::Workload;
use vecmem_simcore::{step::step, SimState};

/// Each port requests an independent, uniformly random bank per element.
#[derive(Debug, Clone)]
pub struct RandomWorkload {
    banks: u64,
    current: Vec<u64>,
    rng: SmallRng,
}

impl RandomWorkload {
    /// A workload for `ports` ports over `banks` banks, deterministic in
    /// `seed`.
    #[must_use]
    pub fn new(banks: u64, ports: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let current = (0..ports).map(|_| rng.gen_range(0..banks)).collect();
        Self {
            banks,
            current,
            rng,
        }
    }
}

impl Workload for RandomWorkload {
    fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
        self.current.get(port.0).map(|&bank| Request::to_bank(bank))
    }

    fn granted(&mut self, port: PortId, _now: u64) {
        self.current[port.0] = self.rng.gen_range(0..self.banks);
    }

    fn is_finished(&self) -> bool {
        false
    }
}

/// Long-run average bandwidth of the random workload (no cyclic state
/// exists; this is a Monte Carlo estimate over `cycles` clock periods
/// after a warm-up of `cycles / 10`).
///
/// Drives the [`step`] kernel directly on a bare [`SimState`] with a
/// [`NoopObserver`], summing each cycle's
/// [`CycleEvents::grants`](vecmem_simcore::CycleEvents): no per-cycle
/// outcome vector and no statistics that nothing reads.
#[must_use]
pub fn measure_random_bandwidth(config: &SimConfig, seed: u64, cycles: u64) -> f64 {
    let mut state = SimState::new(config);
    let mut workload = RandomWorkload::new(config.geometry.banks(), config.num_ports(), seed);
    for _ in 0..cycles / 10 {
        step(config, &mut state, &mut workload, &mut NoopObserver);
    }
    let mut grants = 0u64;
    for _ in 0..cycles {
        grants += u64::from(step(config, &mut state, &mut workload, &mut NoopObserver).grants);
    }
    grants as f64 / cycles as f64
}

/// Hellerman's classical batch-scan bandwidth: the expected number of
/// requests from an infinite random sequence that can be serviced per
/// memory cycle, scanning until the first bank repetition:
///
/// ```text
/// B(m) = Σ_{k=1}^{m}  m! / ((m-k)! · m^k)  ≈  sqrt(π·m/2)
/// ```
///
/// This is the no-queueing, single-decoder model (\[2\]'s starting point);
/// the simulator's dynamic-resolution model queues delayed requests and so
/// achieves more.
///
/// ```
/// use vecmem_banksim::hellerman_bandwidth;
/// assert!((hellerman_bandwidth(2) - 1.5).abs() < 1e-12);
/// assert!(hellerman_bandwidth(1024) > 35.0); // ~ sqrt(pi*1024/2)
/// ```
#[must_use]
pub fn hellerman_bandwidth(banks: u64) -> f64 {
    // Compute Σ Π_{j=0}^{k-1} (m - j)/m iteratively to stay in f64 range.
    let m = banks as f64;
    let mut term = 1.0;
    let mut sum = 0.0;
    for j in 0..banks {
        term *= (m - j as f64) / m;
        sum += term;
    }
    sum
}

/// The `sqrt(π·m/2)` asymptotic of [`hellerman_bandwidth`].
#[must_use]
pub fn hellerman_asymptotic(banks: u64) -> f64 {
    (std::f64::consts::PI * banks as f64 / 2.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::Geometry;

    #[test]
    fn hellerman_small_values() {
        // m = 1: B = 1. m = 2: 1 + 2!/0!/4 = 1 + 1/2 = 1.5.
        assert!((hellerman_bandwidth(1) - 1.0).abs() < 1e-12);
        assert!((hellerman_bandwidth(2) - 1.5).abs() < 1e-12);
        // m = 3: 1 + 2/3 + 2/9 = 17/9.
        assert!((hellerman_bandwidth(3) - 17.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn hellerman_matches_asymptotic_within_ten_percent() {
        for m in [16u64, 64, 256, 1024] {
            let exact = hellerman_bandwidth(m);
            let asym = hellerman_asymptotic(m);
            let rel = (exact - asym).abs() / exact;
            assert!(rel < 0.10, "m={m}: exact {exact}, asym {asym}");
        }
    }

    #[test]
    fn hellerman_monte_carlo_agreement() {
        // Direct Monte Carlo of the batch-scan definition.
        let m = 16u64;
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 20_000;
        let mut total = 0u64;
        for _ in 0..trials {
            let mut seen = [false; 16];
            loop {
                let b = rng.gen_range(0..m) as usize;
                if seen[b] {
                    break;
                }
                seen[b] = true;
                total += 1;
            }
        }
        let mc = total as f64 / trials as f64;
        let exact = hellerman_bandwidth(m);
        assert!((mc - exact).abs() < 0.1, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn random_workload_is_deterministic_per_seed() {
        let g = Geometry::unsectioned(16, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(g, 4);
        let a = measure_random_bandwidth(&config, 42, 20_000);
        let b = measure_random_bandwidth(&config, 42, 20_000);
        assert_eq!(a, b);
        let c = measure_random_bandwidth(&config, 43, 20_000);
        // Different seeds give (slightly) different estimates.
        assert!((a - c).abs() > 0.0);
    }

    #[test]
    fn random_bandwidth_below_vector_bandwidth() {
        // Four random-access ports on 16 banks (n_c = 4) fall well short of
        // the 4.0 that four well-placed unit-stride streams achieve.
        let g = Geometry::unsectioned(16, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(g, 4);
        let random = measure_random_bandwidth(&config, 1, 50_000);
        assert!(random < 3.2, "random access should conflict: {random}");
        assert!(random > 1.0, "but still beat a single port: {random}");
    }

    #[test]
    fn random_bandwidth_scales_with_banks() {
        // More banks -> fewer conflicts at fixed port count.
        let p = 4;
        let small = {
            let g = Geometry::unsectioned(8, 4).unwrap();
            measure_random_bandwidth(&SimConfig::one_port_per_cpu(g, p), 9, 50_000)
        };
        let large = {
            let g = Geometry::unsectioned(256, 4).unwrap();
            measure_random_bandwidth(&SimConfig::one_port_per_cpu(g, p), 9, 50_000)
        };
        assert!(large > small);
        assert!(
            large > 3.5,
            "256 banks should mostly serve 4 random ports: {large}"
        );
    }

    #[test]
    fn bandwidth_capped_by_bank_periods() {
        // 8 ports, 16 banks, n_c = 4: the capacity bound m/n_c = 4 holds
        // for random access too.
        let g = Geometry::unsectioned(16, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(g, 8);
        let random = measure_random_bandwidth(&config, 5, 50_000);
        assert!(random <= 4.0 + 1e-9, "capacity bound violated: {random}");
    }
}
