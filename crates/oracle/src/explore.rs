//! Coverage-guided random exploration of the configuration space.
//!
//! The exhaustive sweep covers unsectioned geometries; this explorer
//! samples the rest of the space — sectioned geometries, both section
//! mappings, mixed topologies — with generation biased toward
//! configurations whose *(conflict-kind set, section count, gcd class)*
//! signature has not been exercised yet. Every accepted case is diffed
//! against the [`RefEngine`](crate::engine::RefEngine) in lockstep, and
//! the evolving coverage is logged to `vecmem-obs` counters under the
//! `oracle.explore.` prefix.

use crate::conform::Violation;
use crate::diff::{run_pair, DiffOutcome};
use std::collections::HashSet;
use vecmem_analytic::numtheory::{divisors, gcd};
use vecmem_analytic::{Geometry, SectionMapping, StreamSpec};
use vecmem_banksim::steady::measure_steady_state;
use vecmem_banksim::{PriorityRule, SimConfig};
use vecmem_obs::MetricsRegistry;
use vecmem_prop::strategy::{select, Strategy};
use vecmem_prop::TestRng;

/// Configuration of one exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Cases to execute.
    pub cases: u64,
    /// Deterministic RNG seed.
    pub seed: u64,
    /// Cycle budget of the steady-state search per case.
    pub steady_budget: u64,
    /// Candidates drawn per case while hunting an unexercised signature.
    pub candidates: u32,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            cases: 200,
            seed: 1,
            steady_budget: 200_000,
            candidates: 12,
        }
    }
}

/// Coverage signature of a configuration: which conflict kinds occur in
/// one steady period, how many sections the geometry has, and the gcd
/// class binding the strides to the bank count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Section count `s` of the geometry.
    pub sections: u64,
    /// `gcd(m, d_1, ..., d_p)`.
    pub gcd_class: u64,
    /// Conflict kinds observed: bit 0 bank, bit 1 section, bit 2
    /// simultaneous-bank.
    pub kinds: u8,
}

/// Result of [`explore`].
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Cases executed.
    pub cases: u64,
    /// Cases that landed on a signature not seen before in this run.
    pub fresh: u64,
    /// Distinct signatures covered.
    pub distinct: u64,
    /// Cases whose steady-state search did not converge.
    pub not_converged: u64,
    /// Total divergences found (must be zero).
    pub divergence_count: u64,
    /// First few divergences, with dumps.
    pub divergences: Vec<Violation>,
}

impl ExploreReport {
    /// True when no divergence was found.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.divergence_count == 0
    }
}

/// One sampled configuration.
#[derive(Debug, Clone)]
struct Candidate {
    config: SimConfig,
    streams: Vec<StreamSpec>,
}

impl Candidate {
    fn gcd_class(&self) -> u64 {
        self.streams
            .iter()
            .fold(self.config.geometry.banks(), |g, s| gcd(g, s.distance))
    }

    /// Cheap analytic guess of the conflict kinds this case will show,
    /// used only to bias generation toward unexercised signatures.
    fn predicted(&self) -> Signature {
        let geom = &self.config.geometry;
        let nc = geom.bank_cycle();
        let mut kinds = 0u8;
        if self
            .streams
            .iter()
            .any(|s| geom.return_number(s.distance) < nc)
        {
            kinds |= 1;
        }
        let ports = &self.config.ports;
        let same_cpu_pair = ports
            .iter()
            .any(|c| ports.iter().filter(|o| *o == c).count() > 1);
        if same_cpu_pair || !geom.is_unsectioned() {
            kinds |= 2;
        }
        if self.config.num_cpus() > 1 && self.streams.len() > 1 {
            kinds |= 4;
        }
        Signature {
            sections: geom.sections(),
            gcd_class: self.gcd_class(),
            kinds,
        }
    }
}

fn draw_candidate(rng: &mut TestRng) -> Candidate {
    let (m, nc, ports) = (2u64..=16u64, 1u64..=4u64, 1usize..=3usize).generate(rng);
    let sections = select(divisors(m)).generate(rng);
    let mapping = select(vec![SectionMapping::Cyclic, SectionMapping::Consecutive]).generate(rng);
    #[expect(
        clippy::expect_used,
        reason = "sections is drawn from the divisors of m, and m >= 2, n_c >= 1"
    )]
    let geom = Geometry::with_mapping(m, sections, nc, mapping).expect("divisor section count");
    let cross = select(vec![false, true]).generate(rng);
    let priority = select(vec![PriorityRule::Fixed, PriorityRule::Cyclic]).generate(rng);
    let config = if cross {
        SimConfig::one_port_per_cpu(geom, ports)
    } else {
        SimConfig::single_cpu(geom, ports)
    }
    .with_priority(priority);
    let streams = (0..ports)
        .map(|_| {
            let (b, d) = (0u64..m, 0u64..m).generate(rng);
            StreamSpec {
                start_bank: b,
                distance: d,
            }
        })
        .collect();
    Candidate { config, streams }
}

fn context_of(c: &Candidate) -> String {
    let s: Vec<String> = c
        .streams
        .iter()
        .map(|s| format!("(b={}, d={})", s.start_bank, s.distance))
        .collect();
    format!(
        "m={} s={} nc={} mapping={:?} ports={:?} priority={:?} streams=[{}]",
        c.config.geometry.banks(),
        c.config.geometry.sections(),
        c.config.geometry.bank_cycle(),
        c.config.geometry.mapping(),
        c.config.ports.iter().map(|p| p.0).collect::<Vec<_>>(),
        c.config.priority,
        s.join(", ")
    )
}

/// Runs `cfg.cases` coverage-guided random cases, logging coverage to
/// `registry` counters (`oracle.explore.*`).
#[must_use]
pub fn explore(cfg: &ExploreConfig, registry: &mut MetricsRegistry) -> ExploreReport {
    let mut rng = TestRng::seed_from_u64(cfg.seed);
    let mut seen: HashSet<Signature> = HashSet::new();
    let mut report = ExploreReport::default();

    for _ in 0..cfg.cases {
        // Bias: redraw until a candidate *predicts* an unexercised
        // signature, falling back to the last draw.
        let mut candidate = draw_candidate(&mut rng);
        for _ in 1..cfg.candidates {
            if !seen.contains(&candidate.predicted()) {
                break;
            }
            candidate = draw_candidate(&mut rng);
        }

        report.cases += 1;
        registry.add_counter("oracle.explore.cases", 1);

        let steady = measure_steady_state(&candidate.config, &candidate.streams, cfg.steady_budget);
        let (kinds, horizon) = match &steady {
            Ok(ss) => {
                let c = ss.conflicts_per_period;
                let mut kinds = 0u8;
                if c.bank > 0 {
                    kinds |= 1;
                }
                if c.section > 0 {
                    kinds |= 2;
                }
                if c.simultaneous > 0 {
                    kinds |= 4;
                }
                (kinds, ss.transient + ss.period + 8)
            }
            Err(_) => {
                report.not_converged += 1;
                registry.add_counter("oracle.explore.not_converged", 1);
                (0, 1024)
            }
        };

        if let DiffOutcome::Diverged(d) = run_pair(&candidate.config, &candidate.streams, horizon) {
            report.divergence_count += 1;
            registry.add_counter("oracle.explore.divergences", 1);
            if report.divergences.len() < 8 {
                report.divergences.push(Violation {
                    context: context_of(&candidate),
                    detail: format!("engines diverged at cycle {}\n{}", d.cycle, d.report),
                });
            }
        }

        let signature = Signature {
            sections: candidate.config.geometry.sections(),
            gcd_class: candidate.gcd_class(),
            kinds,
        };
        registry.add_counter(
            &format!(
                "oracle.explore.sig.s{}.g{}.k{}",
                signature.sections, signature.gcd_class, signature.kinds
            ),
            1,
        );
        if seen.insert(signature) {
            report.fresh += 1;
            registry.add_counter("oracle.explore.fresh", 1);
        }
    }
    report.distinct = seen.len() as u64;
    registry.add_counter("oracle.explore.signatures", report.distinct);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explorer_is_deterministic_and_clean() {
        let cfg = ExploreConfig {
            cases: 40,
            seed: 7,
            steady_budget: 100_000,
            candidates: 8,
        };
        let mut reg_a = MetricsRegistry::new(1, 1);
        let a = explore(&cfg, &mut reg_a);
        assert!(a.clean(), "{:?}", a.divergences);
        assert_eq!(a.cases, 40);
        assert!(a.distinct > 1, "coverage never grew: {a:?}");
        assert_eq!(reg_a.counter("oracle.explore.cases"), Some(40));

        // Same seed, same trajectory.
        let mut reg_b = MetricsRegistry::new(1, 1);
        let b = explore(&cfg, &mut reg_b);
        assert_eq!(a.distinct, b.distinct);
        assert_eq!(a.fresh, b.fresh);
        assert_eq!(reg_a.counters(), reg_b.counters());
    }

    #[test]
    fn bias_covers_more_signatures_than_unbiased() {
        let mut reg = MetricsRegistry::new(1, 1);
        let biased = explore(
            &ExploreConfig {
                cases: 60,
                seed: 3,
                steady_budget: 100_000,
                candidates: 12,
            },
            &mut reg,
        );
        let unbiased = explore(
            &ExploreConfig {
                cases: 60,
                seed: 3,
                steady_budget: 100_000,
                candidates: 1,
            },
            &mut reg,
        );
        assert!(
            biased.distinct >= unbiased.distinct,
            "bias lost coverage: {} < {}",
            biased.distinct,
            unbiased.distinct
        );
    }
}
