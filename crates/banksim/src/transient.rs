//! Startup-transient analysis.
//!
//! Paper §III: "Neglecting startup times, we compute the effective
//! bandwidth for the cyclic state." This module quantifies exactly what
//! was neglected: how many clock periods a stream pair needs to *reach*
//! its cyclic state, and how much bandwidth the transient costs a finite
//! vector of length `n` relative to the asymptotic rate.
//!
//! For short vectors (the X-MP's 64-element registers!) the transient can
//! matter: a pair that synchronises into a conflict-free cycle after 20
//! periods still pays those conflicts on every 64-element strip.

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::steady::{measure_steady_state, SteadyState, SteadyStateError};
use vecmem_analytic::StreamSpec;
use vecmem_simcore::pattern::{PatternPort, PatternWorkload, StridePattern};

/// Transient statistics of a stream pair over all relative start banks.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientProfile {
    /// Transient length (clock periods before the cyclic state) per start
    /// bank `b2` of the second stream.
    pub transients: Vec<u64>,
    /// Longest transient.
    pub max: u64,
    /// Mean transient.
    pub mean: f64,
}

/// Measures the transient for every relative start position of a pair.
///
/// # Errors
/// Returns a [`SteadyStateError`] when any start position fails to reach a
/// cyclic state within `max_cycles`.
pub fn transient_profile(
    config: &SimConfig,
    d1: u64,
    d2: u64,
    max_cycles: u64,
) -> Result<TransientProfile, SteadyStateError> {
    let m = config.geometry.banks();
    let mut transients = Vec::with_capacity(m as usize);
    for b2 in 0..m {
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: d1 % m,
            },
            StreamSpec {
                start_bank: b2,
                distance: d2 % m,
            },
        ];
        let ss: SteadyState = measure_steady_state(config, &specs, max_cycles)?;
        transients.push(ss.transient);
    }
    let max = transients.iter().copied().max().unwrap_or(0);
    let mean = transients.iter().sum::<u64>() as f64 / transients.len().max(1) as f64;
    Ok(TransientProfile {
        transients,
        max,
        mean,
    })
}

/// Effective bandwidth of a *finite* transfer of `n` elements per stream
/// (both streams stop after `n` grants), measured end to end — the number
/// the asymptotic model approximates.
#[must_use]
pub fn finite_vector_bandwidth(config: &SimConfig, specs: &[StreamSpec], n: u64) -> f64 {
    let geom = config.geometry;
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::new(
        specs
            .iter()
            .map(|&s| PatternPort::new(StridePattern::new(&geom, s)).with_length(n))
            .collect(),
    );
    let bound = n * geom.bank_cycle() * specs.len() as u64 + 10_000;
    #[expect(
        clippy::expect_used,
        reason = "n grants per stream finish within n·n_c cycles per stream, which `bound` exceeds"
    )]
    let cycles = engine
        .run(&mut workload, bound)
        .finished_cycles()
        .expect("finite vectors finish");
    (n * specs.len() as u64) as f64 / cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::{Geometry, Ratio};

    #[test]
    fn conflict_free_pairs_have_short_transients() {
        // Fig. 2: synchronisation happens within roughly one bank-revisit
        // period from any start.
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let p = transient_profile(&config, 1, 7, 1_000_000).unwrap();
        assert_eq!(p.transients.len(), 12);
        assert!(p.max <= 24, "sync should be fast: {p:?}");
    }

    #[test]
    fn finite_vectors_approach_asymptotic_rate() {
        // Fig. 2's pair: asymptotic b_eff = 2. A 64-element strip already
        // achieves > 1.8; 1024 elements get within 2%.
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 1,
            },
            StreamSpec {
                start_bank: 1,
                distance: 7,
            },
        ];
        let short = finite_vector_bandwidth(&config, &specs, 64);
        let long = finite_vector_bandwidth(&config, &specs, 1024);
        assert!(short > 1.8, "64-element strip: {short}");
        assert!(long > 1.96, "1024 elements: {long}");
        assert!(long > short, "longer vectors amortise the transient");
    }

    #[test]
    fn barrier_pairs_finite_rate_shows_tail_effect() {
        // The Fig. 3 barrier pair: during coexistence the pair runs at the
        // 7/6 asymptote with stream 2 at only 1/6 — so stream 1 finishes
        // its n elements first and stream 2 then runs SOLO at full rate.
        // The end-to-end finite rate therefore sits below the coexistence
        // asymptote (2n elements over ≈ n + (n - n/6) cycles ≈ 1.09),
        // a tail effect the infinite-stream model does not see.
        let geom = Geometry::unsectioned(13, 6).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 1,
            },
            StreamSpec {
                start_bank: 0,
                distance: 6,
            },
        ];
        let rate = finite_vector_bandwidth(&config, &specs, 1024);
        let expected = 2.0 * 1024.0 / (1024.0 + (1024.0 - 1024.0 / 6.0));
        assert!(
            (rate - expected).abs() < 0.03,
            "rate {rate} vs tail model {expected}"
        );
        assert!(
            rate < Ratio::new(7, 6).to_f64(),
            "below the coexistence asymptote"
        );
    }

    #[test]
    fn transient_profile_deterministic() {
        let geom = Geometry::unsectioned(13, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let a = transient_profile(&config, 1, 3, 1_000_000).unwrap();
        let b = transient_profile(&config, 1, 3, 1_000_000).unwrap();
        assert_eq!(a, b);
        assert!(a.mean <= a.max as f64);
    }
}
