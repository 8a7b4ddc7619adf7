//! Lockstep differential harness: the optimized [`Engine`] against the
//! naive [`RefEngine`], cycle by cycle.
//!
//! Both engines simulate the same configuration and streams. Every clock
//! period the harness compares, port by port, the requested bank and the
//! grant/delay outcome (including the conflict kind); the reference
//! engine's bank residues and rotation are then lifted into a canonical
//! packed [`SimState`] via [`SimState::pack`], so the full-state check is
//! one `PartialEq` against the optimized engine's state and both sides
//! share one dump format ([`SimState::render`]). The first mismatch aborts
//! the run with a [`Divergence`] carrying the rendered dual dump;
//! agreement over the full horizon returns [`DiffOutcome::Match`].
//!
//! Because both simulators are deterministic and the compared residues +
//! stream positions + rotation form the complete dynamic state, agreement
//! through one transient plus one full period of the cyclic steady state
//! implies agreement forever.

use crate::engine::{RefBankModel, RefConfig, RefEngine, RefOutcome, RefPriority};
use vecmem_analytic::StreamSpec;
use vecmem_banksim::pattern::{PatternSpec, PatternWorkload};
use vecmem_banksim::workload::Workload;
use vecmem_banksim::{
    BankModel, ConflictKind, Engine, PortOutcome, PriorityRule, SimConfig, SimState,
};

/// Builds the [`RefConfig`] mirroring a simulator configuration,
/// bank model included.
#[must_use]
pub fn mirror_config(config: &SimConfig) -> RefConfig {
    RefConfig {
        geometry: config.geometry,
        port_cpus: config.ports.iter().map(|c| c.0).collect(),
        priority: match config.priority {
            PriorityRule::Fixed => RefPriority::Fixed,
            PriorityRule::Cyclic => RefPriority::Cyclic,
        },
        bank_model: match config.bank_model {
            BankModel::Uniform => RefBankModel::Uniform,
            BankModel::Dram { hit_cycle, rows } => RefBankModel::Dram { hit_cycle, rows },
        },
    }
}

/// First divergent cycle, with a rendered state dump for reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Clock period (0-based) of the first disagreement.
    pub cycle: u64,
    /// Human-readable bank/port state dump of both engines at that cycle.
    pub report: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "divergence at cycle {}\n{}", self.cycle, self.report)
    }
}

/// Result of a lockstep comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Both engines agreed on every compared cycle.
    Match {
        /// Clock periods compared.
        cycles: u64,
        /// Total grants observed (identical on both sides).
        grants: u64,
    },
    /// The engines disagreed; payload reports the first divergent cycle.
    Diverged(Divergence),
}

impl DiffOutcome {
    /// True when the engines agreed over the whole horizon.
    #[must_use]
    pub fn matched(&self) -> bool {
        matches!(self, Self::Match { .. })
    }

    /// The divergence, if any.
    #[must_use]
    pub fn divergence(&self) -> Option<&Divergence> {
        match self {
            Self::Match { .. } => None,
            Self::Diverged(d) => Some(d),
        }
    }
}

/// Grant totals of the `b_eff`-only fast mode (see [`run_beff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeffDiff {
    /// Clock periods simulated.
    pub cycles: u64,
    /// Total grants of the optimized engine.
    pub engine_grants: u64,
    /// Total grants of the reference engine.
    pub oracle_grants: u64,
}

impl BeffDiff {
    /// True when both engines delivered the same number of grants.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.engine_grants == self.oracle_grants
    }
}

fn kind_of(outcome: PortOutcome) -> RefOutcome {
    match outcome {
        PortOutcome::Granted => RefOutcome::Granted,
        PortOutcome::Delayed(ConflictKind::Bank) => RefOutcome::BankConflict,
        PortOutcome::Delayed(ConflictKind::Section) => RefOutcome::SectionConflict,
        PortOutcome::Delayed(ConflictKind::SimultaneousBank) => {
            RefOutcome::SimultaneousBankConflict
        }
    }
}

fn outcome_name(o: RefOutcome) -> &'static str {
    match o {
        RefOutcome::Granted => "granted",
        RefOutcome::BankConflict => "bank-conflict",
        RefOutcome::SectionConflict => "section-conflict",
        RefOutcome::SimultaneousBankConflict => "simultaneous-bank",
    }
}

/// Lifts the reference engine's state into the canonical packed form in
/// place, so the full-state comparison is one `PartialEq` and the dump
/// comes from one renderer. Under the DRAM bank model the open-row vector
/// is lifted too. Called once per lockstep cycle: the packed copy first
/// advances its own clock with the oracle's, so a bank still aging keeps
/// its free time and only the oracle's new grants change the copy.
fn repack_oracle_state(
    oracle: &RefEngine,
    dram: bool,
    residue_buf: &mut Vec<u8>,
    packed: &mut SimState,
) {
    packed.advance_now();
    residue_buf.clear();
    residue_buf.extend(oracle.bank_residues().iter().map(|&r| r as u8));
    packed.repack(residue_buf, &[], oracle.rotation());
    if dram {
        packed.sync_open_rows(oracle.open_rows());
    }
}

/// Renders the full dual state dump at a divergent cycle. Both sides use
/// the canonical [`SimState::render`] format.
// vecmem-lint: allow-fn(L6, L7) -- divergence report: only reached after a mismatch, never on the lockstep hot loop
fn render_dump(
    config: &SimConfig,
    cycle: u64,
    engine_view: &[(u64, RefOutcome)],
    oracle_view: &[(u64, RefOutcome)],
    engine_state: &SimState,
    oracle_state: &SimState,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let g = &config.geometry;
    let _ = writeln!(
        s,
        "geometry m={} s={} nc={} priority={:?} ports={:?}",
        g.banks(),
        g.sections(),
        g.bank_cycle(),
        config.priority,
        config.ports.iter().map(|c| c.0).collect::<Vec<_>>(),
    );
    let _ = writeln!(s, "cycle {cycle}:");
    let _ = writeln!(
        s,
        "  port cpu | engine: bank outcome | oracle: bank outcome"
    );
    for (p, (e, o)) in engine_view.iter().zip(oracle_view).enumerate() {
        let marker = if e == o { ' ' } else { '*' };
        let _ = writeln!(
            s,
            " {marker}{p:>4} {cpu:>3} | {eb:>4} {eo:<17} | {ob:>4} {oo}",
            cpu = config.ports[p].0,
            eb = e.0,
            eo = outcome_name(e.1),
            ob = o.0,
            oo = outcome_name(o.1),
        );
    }
    let _ = writeln!(s, "  state (rotation, remaining bank busy periods):");
    let _ = writeln!(s, "    engine: {}", engine_state.render());
    let _ = writeln!(s, "    oracle: {}", oracle_state.render());
    s
}

/// Steps a pre-built reference engine against a fresh optimized engine in
/// lockstep for `cycles` clock periods, over any shared workload.
///
/// Ports idle on one side must be idle on the other: an inactive port
/// keeps the `(u64::MAX, Granted)` placeholder in both views, so a
/// cooldown disagreement surfaces as a view mismatch.
// vecmem-lint: alloc-free
// vecmem-lint: hot-path
fn run_lockstep<W: Workload>(
    mut oracle: RefEngine,
    config: &SimConfig,
    mut workload: W,
    cycles: u64,
) -> DiffOutcome {
    let mut engine = Engine::new(config.clone());
    let ports = config.num_ports();
    let dram = matches!(config.bank_model, BankModel::Dram { .. });
    let mut grants = 0u64;
    // Reused across cycles: the per-port views and the canonical packed
    // copy of the oracle's state (updated in place — the hot loop of the
    // exhaustive conformance sweep allocates nothing per cycle beyond what
    // the naive reference engine itself does).
    let mut engine_view = vec![(u64::MAX, RefOutcome::Granted); ports]; // vecmem-lint: allow(L2) -- per-run setup; reused across cycles
    let mut oracle_view = vec![(u64::MAX, RefOutcome::Granted); ports]; // vecmem-lint: allow(L2) -- per-run setup; reused across cycles
    let mut residue_buf: Vec<u8> = Vec::with_capacity(config.geometry.banks() as usize); // vecmem-lint: allow(L2) -- per-run setup; reused across cycles
    let mut oracle_state = SimState::new(config);
    for cycle in 0..cycles {
        engine.run_with(&mut workload, 1, &mut vecmem_banksim::observe::NoopObserver);
        let oracle_steps = oracle.step_ports();
        // Normalise the engine's per-port events to per-port order; ports
        // with no pending request keep the placeholder.
        engine_view
            .iter_mut()
            .for_each(|v| *v = (u64::MAX, RefOutcome::Granted));
        for ev in engine.state().outcomes() {
            // vecmem-lint: allow(L7) -- port ids come from the engine's own config, always < ports
            engine_view[ev.port.0] = (ev.request.bank, kind_of(ev.outcome));
        }
        oracle_view
            .iter_mut()
            .for_each(|v| *v = (u64::MAX, RefOutcome::Granted));
        for (slot, s) in oracle_view.iter_mut().zip(&oracle_steps) {
            if let Some(s) = s {
                *slot = (s.bank, s.outcome);
            }
        }
        repack_oracle_state(&oracle, dram, &mut residue_buf, &mut oracle_state);
        // Sanitizer: the lifted oracle state must satisfy every SimState
        // structural invariant; a violation is reported at the exact cycle
        // the corruption appears, before any divergence masking it.
        #[cfg(feature = "sanitize")]
        #[expect(
            clippy::panic,
            reason = "sanitizer: corruption must abort at the violating cycle"
        )]
        if let Err(violation) = oracle_state.validate() {
            // vecmem-lint: allow(L7) -- the sanitizer aborts at the violating cycle by design
            panic!("vecmem sanitize: oracle state at cycle {cycle}: {violation}");
        }
        let agree = engine_view == oracle_view
            && engine.state().hash() == oracle_state.hash()
            && *engine.state() == oracle_state;
        if !agree {
            let report = render_dump(
                config,
                cycle,
                &engine_view,
                &oracle_view,
                engine.state(),
                &oracle_state,
            );
            return DiffOutcome::Diverged(Divergence { cycle, report });
        }
        grants += oracle_steps
            .iter()
            .filter(|s| s.is_some_and(|s| s.outcome.granted()))
            .count() as u64;
    }
    DiffOutcome::Match { cycles, grants }
}

/// Steps a pre-built reference engine against a fresh optimized engine in
/// lockstep for `cycles` clock periods.
///
/// The `oracle` must have been built from [`mirror_config`]`(config)` and
/// the same `streams` (possibly with a seeded bug, which is the point of
/// taking it as an argument).
pub fn run_pair_against(
    oracle: RefEngine,
    config: &SimConfig,
    streams: &[StreamSpec],
    cycles: u64,
) -> DiffOutcome {
    let workload = PatternWorkload::strided(&config.geometry, streams);
    run_lockstep(oracle, config, workload, cycles)
}

/// Lockstep comparison over `cycles` clock periods with a fresh, faithful
/// reference engine.
pub fn run_pair(config: &SimConfig, streams: &[StreamSpec], cycles: u64) -> DiffOutcome {
    let oracle = RefEngine::new(mirror_config(config), streams);
    run_pair_against(oracle, config, streams, cycles)
}

/// Lockstep comparison of generalized access patterns: one
/// [`PatternSpec`] per port (stride, gather, burst), honouring `config`'s
/// bank model on both sides. The optimized side runs the patterns through
/// the generic `PatternWorkload` adapter; the reference side recomputes
/// every address naively and keeps cooldowns as absolute cycle stamps.
pub fn run_pair_patterns(config: &SimConfig, specs: &[PatternSpec], cycles: u64) -> DiffOutcome {
    let oracle = RefEngine::from_specs(mirror_config(config), specs);
    let workload = PatternWorkload::from_specs(config, specs);
    run_lockstep(oracle, config, workload, cycles)
}

/// `b_eff`-only fast mode for long runs: both engines simulate `cycles`
/// periods independently (no per-cycle comparison) and only the grant
/// totals are diffed.
pub fn run_beff(config: &SimConfig, streams: &[StreamSpec], cycles: u64) -> BeffDiff {
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::strided(&config.geometry, streams);
    for _ in 0..cycles {
        engine.step(&mut workload);
    }
    let mut oracle = RefEngine::new(mirror_config(config), streams);
    let oracle_grants = oracle.run(cycles);
    BeffDiff {
        cycles,
        engine_grants: engine.stats().total_grants(),
        oracle_grants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::Geometry;

    fn spec(g: &Geometry, b: u64, d: u64) -> StreamSpec {
        StreamSpec::new(g, b, d).unwrap()
    }

    #[test]
    fn fig2_pair_matches() {
        // Fig. 2: m = 12, n_c = 3, d1 = 1, d2 = 7 — conflict-free pair.
        let g = Geometry::unsectioned(12, 3).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let out = run_pair(&cfg, &[spec(&g, 0, 1), spec(&g, 1, 7)], 2000);
        assert!(out.matched(), "{out:?}");
    }

    #[test]
    fn contested_cyclic_pair_matches() {
        let g = Geometry::unsectioned(8, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2).with_priority(PriorityRule::Cyclic);
        let out = run_pair(&cfg, &[spec(&g, 0, 2), spec(&g, 0, 2)], 2000);
        assert!(out.matched(), "{out:?}");
    }

    #[test]
    fn sectioned_same_cpu_matches() {
        let g = Geometry::new(16, 4, 4).unwrap();
        let cfg = SimConfig::single_cpu(g, 2);
        let out = run_pair(&cfg, &[spec(&g, 0, 1), spec(&g, 2, 5)], 2000);
        assert!(out.matched(), "{out:?}");
    }

    #[test]
    fn gather_pattern_lockstep_matches() {
        use vecmem_banksim::pattern::IndexPattern;
        let g = Geometry::unsectioned(16, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let specs = [
            PatternSpec::Gather {
                base: 0,
                span: 1 << 16,
                index: IndexPattern::PseudoRandom { seed: 7 },
            },
            PatternSpec::Stride {
                start_bank: 1,
                distance: 1,
            },
        ];
        let out = run_pair_patterns(&cfg, &specs, 2000);
        assert!(out.matched(), "{out:?}");
    }

    #[test]
    fn burst_pattern_lockstep_matches() {
        let g = Geometry::unsectioned(8, 4).unwrap();
        let cfg = SimConfig::single_cpu(g, 2).with_priority(PriorityRule::Cyclic);
        let specs = [
            PatternSpec::Burst {
                start_bank: 0,
                distance: 1,
                burst: 4,
            },
            PatternSpec::Burst {
                start_bank: 0,
                distance: 2,
                burst: 2,
            },
        ];
        let out = run_pair_patterns(&cfg, &specs, 2000);
        assert!(out.matched(), "{out:?}");
    }

    #[test]
    fn dram_pattern_lockstep_matches() {
        use vecmem_banksim::pattern::IndexPattern;
        use vecmem_banksim::BankModel;
        let g = Geometry::unsectioned(16, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        });
        let specs = [
            PatternSpec::Stride {
                start_bank: 0,
                distance: 3,
            },
            PatternSpec::Gather {
                base: 0,
                span: 64,
                index: IndexPattern::PseudoRandom { seed: 11 },
            },
        ];
        let out = run_pair_patterns(&cfg, &specs, 2000);
        assert!(out.matched(), "{out:?}");
    }

    /// Lockstep over one transient plus one period of the optimized
    /// engine's cyclic state, with the period found under the
    /// request-period slot encoding of affine gathers.
    fn affine_lockstep_over_cyclic_state(cfg: &SimConfig, specs: &[PatternSpec]) {
        let mut w = PatternWorkload::from_specs(cfg, specs);
        let ss = vecmem_banksim::measure_steady_state_workload(cfg, &mut w, 0, 1 << 20).unwrap();
        assert!(ss.exact);
        let cycles = ss.transient + ss.period;
        let out = run_pair_patterns(cfg, specs, cycles);
        assert!(out.matched(), "{out:?}");
    }

    #[test]
    fn affine_gather_pow2_lockstep_matches() {
        use vecmem_banksim::pattern::IndexPattern;
        let g = Geometry::unsectioned(16, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2).with_priority(PriorityRule::Cyclic);
        let specs = [
            PatternSpec::Gather {
                base: 0,
                span: 1 << 16,
                index: IndexPattern::Affine { a: 6, c: 0 },
            },
            PatternSpec::Gather {
                base: 3,
                span: 1 << 16,
                index: IndexPattern::Affine { a: 10, c: 1 },
            },
        ];
        affine_lockstep_over_cyclic_state(&cfg, &specs);
    }

    #[test]
    fn affine_gather_dram_lockstep_matches() {
        use vecmem_banksim::pattern::IndexPattern;
        use vecmem_banksim::BankModel;
        let g = Geometry::unsectioned(8, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        });
        let specs = [
            PatternSpec::Gather {
                base: 0,
                span: 1 << 10,
                index: IndexPattern::Affine { a: 3, c: 0 },
            },
            PatternSpec::Gather {
                base: 1,
                span: 1 << 10,
                index: IndexPattern::Affine { a: 8, c: 5 },
            },
        ];
        affine_lockstep_over_cyclic_state(&cfg, &specs);
    }

    #[test]
    fn beff_fast_mode_agrees() {
        let g = Geometry::unsectioned(13, 6).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let d = run_beff(&cfg, &[spec(&g, 0, 1), spec(&g, 0, 6)], 10_000);
        assert!(d.matches(), "{d:?}");
    }

    #[cfg(feature = "bug_injection")]
    #[test]
    fn seeded_bug_is_detected() {
        use crate::engine::InjectedBug;
        let g = Geometry::unsectioned(8, 2).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let streams = [spec(&g, 0, 1), spec(&g, 0, 1)];
        let oracle =
            RefEngine::new(mirror_config(&cfg), &streams).with_bug(InjectedBug::InvertedPriority);
        let out = run_pair_against(oracle, &cfg, &streams, 100);
        let div = out.divergence().expect("must diverge");
        // Both ports contest bank 0 at cycle 0; the inverted arbiter grants
        // the wrong port immediately.
        assert_eq!(div.cycle, 0);
        assert!(div.report.contains("simultaneous-bank"));
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn sanitize_passes_on_clean_geometries() {
        for (m, nc) in [(8, 2), (12, 3), (16, 4)] {
            let g = Geometry::unsectioned(m, nc).unwrap();
            let cfg = SimConfig::one_port_per_cpu(g, 2);
            let out = run_pair(&cfg, &[spec(&g, 0, 1), spec(&g, 1, 3)], 500);
            assert!(out.matched(), "{out:?}");
        }
    }

    #[cfg(all(feature = "bug_injection", feature = "sanitize"))]
    #[test]
    fn sanitize_pins_seeded_corruption_to_the_violating_cycle() {
        use crate::engine::InjectedBug;
        // d = 0: one stream hammers bank 0. The bank frees at cycle n_c
        // and the seeded fault re-arms it for n_c + 2, so the lifted
        // residue is n_c + 1 > n_c exactly at cycle n_c = 4.
        let g = Geometry::unsectioned(8, 4).unwrap();
        let cfg = SimConfig::single_cpu(g, 1);
        let streams = [spec(&g, 0, 0)];
        let oracle =
            RefEngine::new(mirror_config(&cfg), &streams).with_bug(InjectedBug::ResidueOverflow);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pair_against(oracle, &cfg, &streams, 100)
        }))
        .expect_err("the sanitizer must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("cycle 4"), "{msg}");
        assert!(
            msg.contains("bank 0 residue 5 exceeds the bank cycle time 4"),
            "{msg}"
        );
    }
}
