//! The [`Scenario`] abstraction: one self-contained unit of sweep work.
//!
//! Every sweep-shaped artefact of the reproduction — the theorem tables,
//! the figure traces, the spectrum census, the Fig. 10 triad series, the
//! cross-validation suites — decomposes into independent scenarios. A
//! scenario knows how to *execute* itself and (when the physics allows)
//! how to *canonicalise* itself into a cache key such that key-equal
//! scenarios are guaranteed to produce identical outcomes.

use vecmem_analytic::isomorphism::canonical_streams;
use vecmem_analytic::spectrum::{full_spectrum_slice, Spectrum};
use vecmem_analytic::{Geometry, SectionMapping, StreamSpec};
use vecmem_banksim::pattern::{PatternSpec, PatternWorkload};
use vecmem_banksim::steady::{
    measure_steady_state, measure_steady_state_patterns, SteadyStateError,
};
use vecmem_banksim::{
    BankModel, Engine, PriorityRule, SimConfig, SimStats, SteadyState, TraceRecorder,
};
use vecmem_vproc::triad::{TriadExperiment, TriadResult};

/// A unit of sweep work executable on the [`Runner`](crate::Runner).
///
/// `execute` must be deterministic and depend only on the scenario's own
/// state: the runner relies on this for submission-order determinism across
/// thread counts, and the cache relies on it to replay key-equal scenarios.
pub trait Scenario: Sync {
    /// Result of executing the scenario.
    type Output: Send + Clone;
    /// Canonical cache key; scenarios with equal keys MUST produce equal
    /// outputs.
    type Key: std::hash::Hash + Eq + Clone + Send;

    /// The canonical key, or `None` when the scenario must not be cached.
    fn key(&self) -> Option<Self::Key>;

    /// Runs the scenario to completion.
    fn execute(&self) -> Self::Output;

    /// Short human label used for this scenario's span when a sweep is
    /// laid out as a merged trace (see [`crate::spans::batch_spans`]).
    fn span_label(&self) -> String {
        "scenario".to_string()
    }

    /// Virtual-tick cost of `output` — the simulated cycles where the
    /// outcome records them, an analytic work estimate otherwise. Merged
    /// traces use this as the span duration, so the layout stays
    /// deterministic (no wall clock). Defaults to one tick.
    fn span_cost(&self, output: &Self::Output) -> u64 {
        let _ = output;
        1
    }
}

/// Outcome of a steady-state scenario: the exact cyclic state, or the
/// (deterministic) failure to find one within the cycle budget.
pub type SteadyOutcome = Result<SteadyState, SteadyStateError>;

/// Canonical identity of a [`SteadyScenario`] (and the trace prefix of a
/// [`TraceScenario`]): geometry, port topology, priority rule, cycle budget
/// and the isomorphism-normalised streams.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SteadyKey {
    banks: u64,
    sections: u64,
    bank_cycle: u64,
    mapping: SectionMapping,
    ports: Vec<usize>,
    priority: PriorityRule,
    bank_model: BankModel,
    streams: Vec<StreamSpec>,
    max_cycles: u64,
}

/// Canonical [`SteadyKey`] for an arbitrary `(config, streams, budget)`
/// triple — the exact quotient used by [`SteadyScenario::key`].
///
/// Exposed so that external differential harnesses (`vecmem-oracle`) key
/// their own scenarios with byte-identical canonicalisation: a bug in the
/// quotient then shows up as a cross-member divergence instead of silently
/// splitting the cache.
#[must_use]
pub fn steady_key(config: &SimConfig, streams: &[StreamSpec], max_cycles: u64) -> SteadyKey {
    let geom = &config.geometry;
    // The unit renumbering of the Appendix commutes with the simulator's
    // dynamics only when every bank has its own access path (s = m) and
    // bank holds are uniform; sectioned systems break the former, DRAM row
    // buffers the latter (renumbering changes the word addresses, hence the
    // row sequence). In either case the identity (exact dedup) is the safe
    // quotient.
    let streams = if geom.is_unsectioned() && config.bank_model == BankModel::Uniform {
        canonical_streams(geom, streams)
    } else {
        streams.to_vec()
    };
    SteadyKey {
        banks: geom.banks(),
        sections: geom.sections(),
        bank_cycle: geom.bank_cycle(),
        mapping: geom.mapping(),
        ports: config.ports.iter().map(|c| c.0).collect(),
        priority: config.priority,
        bank_model: config.bank_model,
        streams,
        max_cycles,
    }
}

/// Exact cyclic-state measurement of a set of infinite streams — the
/// workhorse scenario behind the theorem tables, the start-bank sweeps and
/// the cross-validation suites.
#[derive(Debug, Clone)]
pub struct SteadyScenario {
    /// Memory geometry, port topology and priority rule.
    pub config: SimConfig,
    /// One stream per configured port.
    pub streams: Vec<StreamSpec>,
    /// Bound on the cyclic-state search.
    pub max_cycles: u64,
}

impl SteadyScenario {
    /// Two streams on ports of different CPUs (the §III-B setting).
    #[must_use]
    pub fn cross_cpu(geom: Geometry, s1: StreamSpec, s2: StreamSpec, max_cycles: u64) -> Self {
        Self {
            config: SimConfig::one_port_per_cpu(geom, 2),
            streams: vec![s1, s2],
            max_cycles,
        }
    }

    /// Two streams on ports of the same CPU (section conflicts possible).
    #[must_use]
    pub fn same_cpu(geom: Geometry, s1: StreamSpec, s2: StreamSpec, max_cycles: u64) -> Self {
        Self {
            config: SimConfig::single_cpu(geom, 2),
            streams: vec![s1, s2],
            max_cycles,
        }
    }
}

impl Scenario for SteadyScenario {
    type Output = SteadyOutcome;
    type Key = SteadyKey;

    fn key(&self) -> Option<SteadyKey> {
        Some(steady_key(&self.config, &self.streams, self.max_cycles))
    }

    fn execute(&self) -> SteadyOutcome {
        measure_steady_state(&self.config, &self.streams, self.max_cycles)
    }

    fn span_label(&self) -> String {
        let g = &self.config.geometry;
        format!(
            "steady m={} nc={} d={}",
            g.banks(),
            g.bank_cycle(),
            distance_list(&self.streams)
        )
    }

    fn span_cost(&self, output: &Self::Output) -> u64 {
        match output {
            // Simulated cycles: the search ran transient + one period.
            Ok(ss) => (ss.transient + ss.period).max(1),
            // A failed search burned the whole budget.
            Err(_) => self.max_cycles.max(1),
        }
    }
}

/// Canonical identity of a [`PatternSteadyScenario`]: the configuration
/// fields of [`SteadyKey`] plus the pattern specs themselves.
///
/// The spec enum keeps stride and non-stride patterns in distinct
/// variants, so a stride scenario and a gather/burst scenario can never
/// collapse onto one key. The isomorphism quotient applies only when
/// *every* port is a stride pattern on an unsectioned uniform-hold system
/// — exactly the regime where it is proven sound; any gather, burst, DRAM
/// model or section mapping keeps the literal specs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternSteadyKey {
    base: SteadyKey,
    patterns: Vec<PatternSpec>,
}

/// Canonical [`PatternSteadyKey`] for `(config, patterns, budget)` — the
/// quotient used by [`PatternSteadyScenario::key`].
#[must_use]
pub fn pattern_steady_key(
    config: &SimConfig,
    patterns: &[PatternSpec],
    max_cycles: u64,
) -> PatternSteadyKey {
    let geom = &config.geometry;
    let strides: Option<Vec<StreamSpec>> = patterns
        .iter()
        .map(|p| match *p {
            PatternSpec::Stride {
                start_bank,
                distance,
            } => Some(StreamSpec {
                start_bank,
                distance,
            }),
            PatternSpec::Gather { .. } | PatternSpec::Burst { .. } => None,
        })
        .collect();
    let patterns = match strides {
        Some(streams) if geom.is_unsectioned() && config.bank_model == BankModel::Uniform => {
            canonical_streams(geom, &streams)
                .into_iter()
                .map(|s| PatternSpec::Stride {
                    start_bank: s.start_bank,
                    distance: s.distance,
                })
                .collect()
        }
        _ => patterns.to_vec(),
    };
    PatternSteadyKey {
        base: steady_key(config, &[], max_cycles),
        patterns,
    }
}

/// Steady-state measurement of a set of generalized access patterns —
/// the pattern-layer counterpart of [`SteadyScenario`], covering gathers,
/// bursts and DRAM-flavoured bank models alongside plain strides.
#[derive(Debug, Clone)]
pub struct PatternSteadyScenario {
    /// Memory geometry, port topology, priority rule and bank model.
    pub config: SimConfig,
    /// One pattern spec per configured port.
    pub patterns: Vec<PatternSpec>,
    /// Bound on the cyclic-state search (and the windowed-estimate budget
    /// for aperiodic patterns).
    pub max_cycles: u64,
}

impl Scenario for PatternSteadyScenario {
    type Output = SteadyOutcome;
    type Key = PatternSteadyKey;

    fn key(&self) -> Option<PatternSteadyKey> {
        Some(pattern_steady_key(
            &self.config,
            &self.patterns,
            self.max_cycles,
        ))
    }

    fn execute(&self) -> SteadyOutcome {
        measure_steady_state_patterns(&self.config, &self.patterns, self.max_cycles)
    }

    fn span_label(&self) -> String {
        let g = &self.config.geometry;
        format!(
            "steady m={} nc={} pat={}",
            g.banks(),
            g.bank_cycle(),
            pattern_list(&self.patterns)
        )
    }

    fn span_cost(&self, output: &Self::Output) -> u64 {
        match output {
            Ok(ss) => (ss.transient + ss.period).max(1),
            Err(_) => self.max_cycles.max(1),
        }
    }
}

/// `"d3/g/b4x2/..."` — compact per-port pattern tags for span labels.
fn pattern_list(patterns: &[PatternSpec]) -> String {
    let tags: Vec<String> = patterns
        .iter()
        .map(|p| match *p {
            PatternSpec::Stride { distance, .. } => format!("d{distance}"),
            PatternSpec::Gather { .. } => "g".to_string(),
            PatternSpec::Burst {
                distance, burst, ..
            } => format!("b{distance}x{burst}"),
        })
        .collect();
    tags.join("/")
}

/// `"d1/d2/..."` — the stream distances of a scenario, for span labels.
fn distance_list(streams: &[StreamSpec]) -> String {
    let ds: Vec<String> = streams.iter().map(|s| s.distance.to_string()).collect();
    ds.join("/")
}

/// Outcome of a [`TraceScenario`]: the paper-style ASCII trace of the
/// first cycles, the statistics of the traced run, and the exact steady
/// state measured on a fresh workload.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// ASCII trace in the paper's visual layout.
    pub trace: String,
    /// Raw statistics of the traced prefix.
    pub stats: SimStats,
    /// Exact steady state (independent of the traced prefix).
    pub steady: SteadyOutcome,
}

/// A figure-style scenario: trace the first cycles of a stream pair and
/// measure the exact steady state.
///
/// Trace output names concrete banks, which the isomorphism renumbers —
/// so the cache key is the *exact* scenario (no canonicalisation): only
/// byte-identical repeats replay from the cache.
#[derive(Debug, Clone)]
pub struct TraceScenario {
    /// Memory geometry, port topology and priority rule.
    pub config: SimConfig,
    /// One stream per configured port.
    pub streams: Vec<StreamSpec>,
    /// Number of cycles to trace.
    pub trace_cycles: u64,
    /// Bound on the cyclic-state search.
    pub max_cycles: u64,
}

/// Exact (un-normalised) identity of a [`TraceScenario`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    steady: SteadyKey,
    exact_streams: Vec<StreamSpec>,
    trace_cycles: u64,
}

impl Scenario for TraceScenario {
    type Output = TraceOutcome;
    type Key = TraceKey;

    fn key(&self) -> Option<TraceKey> {
        let mut steady = steady_key(&self.config, &self.streams, self.max_cycles);
        // Replace the canonicalised streams with the literal ones: the
        // rendered trace is not invariant under bank renumbering.
        steady.streams = self.streams.clone();
        Some(TraceKey {
            steady,
            exact_streams: self.streams.clone(),
            trace_cycles: self.trace_cycles,
        })
    }

    fn execute(&self) -> TraceOutcome {
        let mut engine = Engine::new(self.config.clone());
        let mut recorder = TraceRecorder::new(self.config.geometry.banks(), self.trace_cycles);
        let mut workload = PatternWorkload::strided(&self.config.geometry, &self.streams);
        for _ in 0..self.trace_cycles {
            engine.step_with(&mut workload, &mut recorder);
        }
        let trace = recorder.render_all();
        let stats = engine.stats().clone();
        let mut fresh = PatternWorkload::strided(&self.config.geometry, &self.streams);
        let steady = vecmem_banksim::steady::measure_steady_state_workload(
            &self.config,
            &mut fresh,
            0,
            self.max_cycles,
            0,
            |_| {},
        );
        TraceOutcome {
            trace,
            stats,
            steady,
        }
    }

    fn span_label(&self) -> String {
        let g = &self.config.geometry;
        format!(
            "trace m={} nc={} d={}",
            g.banks(),
            g.bank_cycle(),
            distance_list(&self.streams)
        )
    }

    fn span_cost(&self, output: &Self::Output) -> u64 {
        // Traced prefix plus the independent steady-state search.
        let search = match &output.steady {
            Ok(ss) => ss.transient + ss.period,
            Err(_) => self.max_cycles,
        };
        (self.trace_cycles + search).max(1)
    }
}

/// One point of the Fig. 10 triad series: the §IV experiment at a given
/// loop increment, with or without the other CPU's background streams.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriadScenario {
    /// Fortran loop increment (`1..=16` in the paper).
    pub inc: u64,
    /// Whether the other CPU runs its three unit-stride streams.
    pub with_background: bool,
}

impl Scenario for TriadScenario {
    type Output = TriadResult;
    type Key = TriadScenario;

    fn key(&self) -> Option<Self::Key> {
        // Sectioned X-MP geometry: no isomorphism quotient, exact dedup only.
        Some(self.clone())
    }

    fn execute(&self) -> TriadResult {
        let exp = if self.with_background {
            TriadExperiment::paper(self.inc)
        } else {
            TriadExperiment::paper_alone(self.inc)
        };
        exp.run()
    }

    fn span_label(&self) -> String {
        let bg = if self.with_background { "" } else { " alone" };
        format!("triad inc={}{bg}", self.inc)
    }

    fn span_cost(&self, output: &Self::Output) -> u64 {
        // The triad's CPU time in clock periods (Fig. 10a/b).
        output.cycles.max(1)
    }
}

/// One slice of the full design-space census of
/// [`vecmem_analytic::spectrum`]: classifies all `(d1, d2, b2)` triples for
/// the held `d1` values.
#[derive(Debug, Clone)]
pub struct SpectrumScenario {
    /// Geometry under census.
    pub geom: Geometry,
    /// The `d1` values this slice covers.
    pub d1s: Vec<u64>,
}

impl Scenario for SpectrumScenario {
    type Output = Spectrum;
    type Key = (Geometry, Vec<u64>);

    fn key(&self) -> Option<Self::Key> {
        Some((self.geom, self.d1s.clone()))
    }

    fn execute(&self) -> Spectrum {
        full_spectrum_slice(&self.geom, &self.d1s)
    }

    fn span_label(&self) -> String {
        format!("spectrum m={} d1s={}", self.geom.banks(), self.d1s.len())
    }

    fn span_cost(&self, output: &Self::Output) -> u64 {
        let _ = output;
        // Analytic census: one tick per (d1, d2, b2) triple classified.
        let m = self.geom.banks();
        (self.d1s.len() as u64 * m.saturating_sub(1) * m).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::Ratio;

    fn spec(b: u64, d: u64) -> StreamSpec {
        StreamSpec {
            start_bank: b,
            distance: d,
        }
    }

    #[test]
    fn steady_scenario_reproduces_fig3() {
        let geom = Geometry::unsectioned(13, 6).unwrap();
        let s = SteadyScenario::cross_cpu(geom, spec(0, 1), spec(0, 6), 100_000);
        let ss = s.execute().unwrap();
        assert_eq!(ss.beff, Ratio::new(7, 6));
    }

    #[test]
    fn isomorphic_scenarios_share_a_key() {
        // m = 16: 1 ⊕ 3 ≡ 5 ⊕ 15 (Appendix example), with start banks
        // renumbered alongside.
        let geom = Geometry::unsectioned(16, 4).unwrap();
        let a = SteadyScenario::cross_cpu(geom, spec(0, 1), spec(0, 3), 100_000);
        // 5·13 ≡ 1, 15·13 ≡ 3 (mod 16): (5, 15) is in the (1, 3) orbit.
        let b = SteadyScenario::cross_cpu(geom, spec(0, 5), spec(0, 15), 100_000);
        assert_eq!(a.key(), b.key());
        // And the outcomes agree in full (the cache-soundness contract).
        assert_eq!(a.execute(), b.execute());
        // A genuinely different pair gets a different key.
        let c = SteadyScenario::cross_cpu(geom, spec(0, 1), spec(0, 2), 100_000);
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn sectioned_scenarios_use_exact_keys() {
        let geom = Geometry::new(12, 3, 3).unwrap();
        // 5 is a unit mod 12, so unsectioned these would collapse; with
        // sections they must not.
        let a = SteadyScenario::same_cpu(geom, spec(0, 1), spec(1, 1), 100_000);
        let b = SteadyScenario::same_cpu(geom, spec(0, 5), spec(5, 5), 100_000);
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn cross_and_same_cpu_keys_differ() {
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let a = SteadyScenario::cross_cpu(geom, spec(0, 1), spec(0, 7), 10_000);
        let b = SteadyScenario::same_cpu(geom, spec(0, 1), spec(0, 7), 10_000);
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn trace_scenario_keys_are_exact() {
        let geom = Geometry::unsectioned(16, 4).unwrap();
        let mk = |d1: u64, d2: u64| TraceScenario {
            config: SimConfig::one_port_per_cpu(geom, 2),
            streams: vec![spec(0, d1), spec(0, d2)],
            trace_cycles: 16,
            max_cycles: 100_000,
        };
        // Isomorphic but not identical: traces differ, keys must too.
        assert_ne!(mk(1, 3).key(), mk(5, 15).key());
        assert_eq!(mk(1, 3).key(), mk(1, 3).key());
    }

    #[test]
    fn pattern_keys_never_collapse_stride_and_non_stride() {
        let geom = Geometry::unsectioned(16, 4).unwrap();
        let mk = |patterns: Vec<PatternSpec>| PatternSteadyScenario {
            config: SimConfig::single_cpu(geom, 1),
            patterns,
            max_cycles: 100_000,
        };
        // A unit stride and the affine gather that *generates the same
        // address walk* must still key apart: the cache may only collapse
        // proven-equal scenarios, and the proof covers stride specs only.
        let stride = mk(vec![PatternSpec::Stride {
            start_bank: 0,
            distance: 1,
        }]);
        let gather = mk(vec![PatternSpec::Gather {
            base: 0,
            span: 1 << 20,
            index: vecmem_banksim::pattern::IndexPattern::Affine { a: 1, c: 0 },
        }]);
        let burst = mk(vec![PatternSpec::Burst {
            start_bank: 0,
            distance: 1,
            burst: 1,
        }]);
        assert_ne!(stride.key(), gather.key());
        assert_ne!(stride.key(), burst.key());
        assert_ne!(gather.key(), burst.key());
    }

    #[test]
    fn pattern_stride_keys_share_the_stream_quotient() {
        // All-stride pattern scenarios inherit the Appendix isomorphism…
        let geom = Geometry::unsectioned(16, 4).unwrap();
        let mk = |d1: u64, d2: u64, bank_model| {
            let mut config = SimConfig::one_port_per_cpu(geom, 2);
            config.bank_model = bank_model;
            PatternSteadyScenario {
                config,
                patterns: vec![
                    PatternSpec::Stride {
                        start_bank: 0,
                        distance: d1,
                    },
                    PatternSpec::Stride {
                        start_bank: 0,
                        distance: d2,
                    },
                ],
                max_cycles: 100_000,
            }
        };
        let a = mk(1, 3, BankModel::Uniform);
        let b = mk(5, 15, BankModel::Uniform);
        assert_eq!(a.key(), b.key());
        assert_eq!(a.execute(), b.execute());
        // …but only under uniform holds: DRAM rows see the raw addresses,
        // so the renumbering is no longer a symmetry and keys stay exact.
        let dram = BankModel::Dram {
            hit_cycle: 1,
            rows: 4,
        };
        assert_ne!(mk(1, 3, dram).key(), mk(5, 15, dram).key());
        // And the bank model itself is part of the identity.
        assert_ne!(mk(1, 3, BankModel::Uniform).key(), mk(1, 3, dram).key());
    }

    #[test]
    fn steady_key_separates_bank_models() {
        let geom = Geometry::unsectioned(16, 4).unwrap();
        let mut a = SteadyScenario::cross_cpu(geom, spec(0, 1), spec(0, 3), 100_000);
        let mut b = a.clone();
        b.config.bank_model = BankModel::Dram {
            hit_cycle: 2,
            rows: 8,
        };
        assert_ne!(a.key(), b.key());
        // Self-consistency: mutating nothing keeps the key.
        a.config.bank_model = BankModel::Uniform;
        assert_eq!(a.key(), a.key());
    }

    #[test]
    fn pattern_scenario_matches_stream_scenario_on_strides() {
        let geom = Geometry::unsectioned(13, 6).unwrap();
        let streams = SteadyScenario::cross_cpu(geom, spec(0, 1), spec(0, 6), 100_000);
        let patterns = PatternSteadyScenario {
            config: streams.config.clone(),
            patterns: vec![
                PatternSpec::Stride {
                    start_bank: 0,
                    distance: 1,
                },
                PatternSpec::Stride {
                    start_bank: 0,
                    distance: 6,
                },
            ],
            max_cycles: 100_000,
        };
        assert_eq!(streams.execute(), patterns.execute());
    }

    #[test]
    fn spectrum_scenario_matches_serial_census() {
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let s = SpectrumScenario {
            geom,
            d1s: (1..12).collect(),
        };
        assert_eq!(s.execute(), vecmem_analytic::spectrum::full_spectrum(&geom));
    }
}
