//! vecmem-exec: unified parallel experiment runner with isomorphism-keyed
//! result caching.
//!
//! Every sweep-shaped experiment of the reproduction — theorem tables,
//! figure traces, the spectrum census, the Fig. 10 triad series, the
//! analytic-vs-simulation cross-validation — runs through one execution
//! layer instead of private scoped-thread fan-outs:
//!
//! * [`Scenario`] describes one unit of work (a steady-state measurement,
//!   a traced figure run, a triad point, a census slice) and knows its
//!   canonical cache key.
//! * [`Runner`] executes batches with deterministic work stealing: chunks
//!   are dealt off a shared cursor and results stitched back into
//!   submission order, so output is byte-identical for any thread count.
//! * [`ResultCache`] memoises outcomes by canonical key. Steady-state
//!   scenarios canonicalise through the paper Appendix's isomorphism
//!   (`d1 ⊕ d2 ≡ k·d1 ⊕ k·d2 (mod m)` for units `k`), so isomorphic
//!   stream pairs simulate once and replay for free.
//! * [`SweepBuilder`] turns "all distance pairs on geometry G" /
//!   "all start banks" / "INC = 1..=16" descriptions into ordered batches.
//! * [`telemetry`] exports cache hit/miss/coalesce counters and runner
//!   gauges into a `vecmem-obs`
//!   [`MetricsRegistry`](vecmem_obs::MetricsRegistry), and [`spans`] lays
//!   an executed batch out as a deterministic merged trace on a
//!   [`SpanSink`](vecmem_obs::SpanSink).

// Panic policy and exhaustive matches for non-test library code; bins and
// integration tests are separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

pub mod cache;
pub mod runner;
pub mod scenario;
pub mod spans;
pub mod sweep;
pub mod telemetry;

pub use cache::{CacheStats, ResultCache};
pub use runner::{ExecReport, Runner, DEFAULT_CHUNK};
pub use scenario::{
    pattern_steady_key, steady_key, PatternSteadyKey, PatternSteadyScenario, Scenario,
    SpectrumScenario, SteadyKey, SteadyOutcome, SteadyScenario, TraceKey, TraceOutcome,
    TraceScenario, TriadScenario,
};
pub use spans::batch_spans;
pub use sweep::{triad_sweep, SweepBuilder, SweepPlan, SweepPoint};
pub use telemetry::export_exec_telemetry;

use vecmem_analytic::spectrum::Spectrum;
use vecmem_analytic::Geometry;

/// The full design-space census of `geom` as one [`SpectrumScenario`]
/// slice per `d1`, in `d1` order.
#[must_use]
pub fn spectrum_slices(geom: &Geometry) -> Vec<SpectrumScenario> {
    (1..geom.banks())
        .map(|d1| SpectrumScenario {
            geom: *geom,
            d1s: vec![d1],
        })
        .collect()
}

/// Merges the outcomes of [`spectrum_slices`] in slice order.
#[must_use]
pub fn merge_spectrum(parts: &[Spectrum]) -> Spectrum {
    let mut total = Spectrum::default();
    for partial in parts {
        total.merge(partial);
    }
    total
}

/// Classifies all `(d1, d2, b2)` triples of `geom` — the full design-space
/// census — fanned out over `runner` as [`spectrum_slices`] and merged in
/// `d1` order (so the result equals the serial
/// [`vecmem_analytic::spectrum::full_spectrum`] exactly).
#[must_use]
pub fn full_spectrum(geom: &Geometry, runner: &Runner) -> Spectrum {
    merge_spectrum(&runner.run(&spectrum_slices(geom)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_census_equals_serial() {
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let serial = vecmem_analytic::spectrum::full_spectrum(&geom);
        for threads in [1, 3] {
            let parallel = full_spectrum(&geom, &Runner::with_threads(threads));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }
}
