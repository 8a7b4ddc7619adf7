//! Lockstep differential harness: the optimized `step()` kernel against
//! the naive [`RefEngine`], cycle by cycle.
//!
//! Both engines simulate the same configuration and streams. Every clock
//! period the harness compares, port by port, the requested bank and the
//! grant/delay outcome (including the conflict kind), then the complete
//! dynamic state: the rotation, every bank's residue against the oracle's
//! countdown (in `u64`, so a corrupt countdown cannot wrap into a false
//! match) and, under the DRAM bank model, the open rows. The comparison
//! reads the optimized side's [`SimState`] in place. Only two paths lift
//! the oracle into a canonical packed [`SimState`] (via [`SimState::pack`]):
//! the divergence report, so both sides share one dump format
//! ([`SimState::render`]), and the `sanitize` feature, which validates the
//! lifted state every cycle. The first mismatch aborts the run with a
//! [`Divergence`] carrying the rendered dual dump; agreement over the full
//! horizon returns [`DiffOutcome::Match`].
//!
//! Because both simulators are deterministic and the compared residues +
//! stream positions + rotation form the complete dynamic state, agreement
//! through one transient plus one full period of the cyclic steady state
//! implies agreement forever.

use crate::engine::{RefBankModel, RefConfig, RefEngine, RefOutcome, RefPriority, RefStep};
use vecmem_analytic::StreamSpec;
use vecmem_banksim::pattern::{PatternSpec, PatternWorkload};
use vecmem_banksim::step::step;
use vecmem_banksim::workload::Workload;
use vecmem_banksim::{
    BankModel, ConflictKind, Engine, NoopObserver, PortEvent, PortOutcome, PriorityRule, SimConfig,
    SimState,
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

/// True when the optimized state holds exactly the oracle's rotation,
/// bank residues and (under the DRAM model) open rows. Residues compare in
/// `u64`: the oracle's countdown is unbounded, so a corrupt one cannot
/// wrap into a false match the way a byte would.
fn same_state(state: &SimState, oracle: &RefEngine, dram: bool) -> bool {
    state.rotation() == oracle.rotation()
        && state.residues().eq(oracle.bank_residues())
        && (!dram
            || (0..)
                .zip(oracle.open_rows())
                .all(|(bank, &row)| state.open_row(bank) == row))
}

/// True when the kernel's per-port events (ascending port order, idle
/// ports absent) name the same bank and outcome as the oracle's steps, and
/// the same ports idle.
fn same_events(events: &[PortEvent], steps: &[Option<RefStep>]) -> bool {
    let mut events = events.iter().peekable();
    steps.iter().enumerate().all(|(port, s)| {
        let e = events
            .next_if(|ev| ev.port.0 == port)
            .map(|ev| (ev.request.bank, kind_of(ev.outcome)));
        e == s.map(|s| (s.bank, s.outcome))
    }) && events.next().is_none()
}

/// The kernel's events as one `(bank, outcome)` per port, idle ports as
/// `(u64::MAX, Granted)`: the engine column of a divergence dump.
// vecmem-lint: allow-fn(L6, L7) -- divergence report only
fn engine_view(events: &[PortEvent], ports: usize) -> Vec<(u64, RefOutcome)> {
    let mut view = vec![(u64::MAX, RefOutcome::Granted); ports];
    for ev in events {
        view[ev.port.0] = (ev.request.bank, kind_of(ev.outcome));
    }
    view
}

/// The oracle's steps in the same form: the oracle column of the dump.
// vecmem-lint: allow-fn(L6) -- divergence report only
fn oracle_view(steps: &[Option<RefStep>]) -> Vec<(u64, RefOutcome)> {
    steps
        .iter()
        .map(|s| s.map_or((u64::MAX, RefOutcome::Granted), |s| (s.bank, s.outcome)))
        .collect()
}

/// Lifts the reference engine's state into the canonical packed form:
/// residues, rotation and, under the DRAM model, open rows. The residues
/// narrow to the packed byte, so this serves the dump and the sanitizer
/// only; the lockstep compares through [`same_state`].
// vecmem-lint: allow-fn(L6, L7) -- divergence report and sanitizer only: builds a fresh state, never on the release lockstep loop
fn lift_oracle_state(config: &SimConfig, oracle: &RefEngine) -> SimState {
    let residues: Vec<u8> = oracle.bank_residues().map(|r| r as u8).collect();
    let mut state = SimState::pack(config, &residues, &[], oracle.rotation());
    if matches!(config.bank_model, BankModel::Dram { .. }) {
        state.sync_open_rows(oracle.open_rows());
    }
    state
}

/// Sanitizer: the lifted oracle state must satisfy every [`SimState`]
/// structural invariant; a violation is reported at the exact cycle the
/// corruption appears, before any divergence masking it.
#[cfg(feature = "sanitize")]
#[expect(
    clippy::panic,
    reason = "sanitizer: corruption must abort at the violating cycle"
)]
// vecmem-lint: allow-fn(L6, L7) -- sanitize builds only: lifts the oracle every cycle and aborts at the violating one by design
fn sanitize_oracle(config: &SimConfig, oracle: &RefEngine, cycle: u64) {
    if let Err(violation) = lift_oracle_state(config, oracle).validate() {
        panic!("vecmem sanitize: oracle state at cycle {cycle}: {violation}");
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

/// Steps a pre-built reference engine against a fresh optimized state in
/// lockstep for `cycles` clock periods, over any shared workload. The
/// optimized side is the bare [`step`] kernel the steady-state solver
/// runs.
///
/// Ports idle on one side must be idle on the other: [`same_events`]
/// compares idle ports too, so a cooldown disagreement surfaces as an
/// event mismatch. Beyond the fresh state and what the naive reference
/// engine allocates itself, the loop allocates nothing until it renders a
/// dump.
// vecmem-lint: alloc-free
// vecmem-lint: hot-path
fn run_lockstep<W: Workload>(
    mut oracle: RefEngine,
    config: &SimConfig,
    mut workload: W,
    cycles: u64,
) -> DiffOutcome {
    let mut state = SimState::new(config);
    let dram = matches!(config.bank_model, BankModel::Dram { .. });
    let mut grants = 0u64;
    for cycle in 0..cycles {
        step(config, &mut state, &mut workload, &mut NoopObserver);
        let oracle_steps = oracle.step_ports();
        #[cfg(feature = "sanitize")]
        sanitize_oracle(config, &oracle, cycle);
        if !same_events(state.outcomes(), &oracle_steps) || !same_state(&state, &oracle, dram) {
            let report = render_dump(
                config,
                cycle,
                &engine_view(state.outcomes(), config.num_ports()),
                &oracle_view(&oracle_steps),
                &state,
                &lift_oracle_state(config, &oracle),
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

/// Steps a pre-built reference engine against a fresh optimized state in
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

    /// Full divergence reports of every seeded fault, pinned byte for
    /// byte: the cycle, the per-port table and both state lines. Three
    /// strided uniform-model cases, one per [`InjectedBug`], and one DRAM
    /// case whose dump carries the open rows. Without `sanitize`, so
    /// `ResidueOverflow` surfaces as a plain residue divergence.
    #[cfg(all(feature = "bug_injection", not(feature = "sanitize")))]
    #[test]
    fn seeded_fault_reports_are_pinned() {
        use crate::engine::InjectedBug;
        let strided = |cfg: &SimConfig, streams: &[StreamSpec], bug| {
            let oracle = RefEngine::new(mirror_config(cfg), streams).with_bug(bug);
            run_pair_against(oracle, cfg, streams, 4_000)
        };
        let s = |start_bank, distance| StreamSpec {
            start_bank,
            distance,
        };
        let diverged = |cycle, report: &str| {
            DiffOutcome::Diverged(Divergence {
                cycle,
                report: report.to_string(),
            })
        };

        let g = Geometry::unsectioned(8, 2).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        assert_eq!(
            strided(&cfg, &[s(0, 1), s(6, 3)], InjectedBug::InvertedPriority),
            diverged(
                1,
                "geometry m=8 s=8 nc=2 priority=Fixed ports=[0, 1]\n\
                 cycle 1:\n\
                 \x20 port cpu | engine: bank outcome | oracle: bank outcome\n\
                 \x20*   0   0 |    1 granted           |    1 simultaneous-bank\n\
                 \x20*   1   1 |    1 simultaneous-bank |    1 granted\n\
                 \x20 state (rotation, remaining bank busy periods):\n\
                 \x20   engine: rotation=0 residues=[0, 1, 0, 0, 0, 0, 0, 0]\n\
                 \x20   oracle: rotation=0 residues=[0, 1, 0, 0, 0, 0, 0, 0]\n"
            )
        );

        let g = Geometry::unsectioned(4, 1).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2).with_priority(PriorityRule::Cyclic);
        assert_eq!(
            strided(&cfg, &[s(0, 0), s(0, 0)], InjectedBug::StuckRotation),
            diverged(
                0,
                "geometry m=4 s=4 nc=1 priority=Cyclic ports=[0, 1]\n\
                 cycle 0:\n\
                 \x20 port cpu | engine: bank outcome | oracle: bank outcome\n\
                 \x20    0   0 |    0 granted           |    0 granted\n\
                 \x20    1   1 |    0 simultaneous-bank |    0 simultaneous-bank\n\
                 \x20 state (rotation, remaining bank busy periods):\n\
                 \x20   engine: rotation=1 residues=[0, 0, 0, 0]\n\
                 \x20   oracle: rotation=0 residues=[0, 0, 0, 0]\n"
            )
        );

        let g = Geometry::unsectioned(8, 4).unwrap();
        let cfg = SimConfig::single_cpu(g, 1);
        assert_eq!(
            strided(&cfg, &[s(0, 0)], InjectedBug::ResidueOverflow),
            diverged(
                4,
                "geometry m=8 s=8 nc=4 priority=Fixed ports=[0]\n\
                 cycle 4:\n\
                 \x20 port cpu | engine: bank outcome | oracle: bank outcome\n\
                 \x20    0   0 |    0 granted           |    0 granted\n\
                 \x20 state (rotation, remaining bank busy periods):\n\
                 \x20   engine: rotation=0 residues=[3, 0, 0, 0, 0, 0, 0, 0]\n\
                 \x20   oracle: rotation=0 residues=[5, 0, 0, 0, 0, 0, 0, 0]\n"
            )
        );

        let cfg = SimConfig::one_port_per_cpu(g, 2).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        });
        let specs = [
            PatternSpec::Stride {
                start_bank: 0,
                distance: 1,
            },
            PatternSpec::Stride {
                start_bank: 6,
                distance: 3,
            },
        ];
        let oracle = RefEngine::from_specs(mirror_config(&cfg), &specs)
            .with_bug(InjectedBug::InvertedPriority);
        let workload = PatternWorkload::from_specs(&cfg, &specs);
        assert_eq!(
            run_lockstep(oracle, &cfg, workload, 4_000),
            diverged(
                1,
                "geometry m=8 s=8 nc=4 priority=Fixed ports=[0, 1]\n\
                 cycle 1:\n\
                 \x20 port cpu | engine: bank outcome | oracle: bank outcome\n\
                 \x20*   0   0 |    1 granted           |    1 simultaneous-bank\n\
                 \x20*   1   1 |    1 simultaneous-bank |    1 granted\n\
                 \x20 state (rotation, remaining bank busy periods):\n\
                 \x20   engine: rotation=0 residues=[2, 3, 0, 0, 0, 0, 2, 0] \
                 open_rows=[Some(0), Some(0), None, None, None, None, Some(0), None]\n\
                 \x20   oracle: rotation=0 residues=[2, 3, 0, 0, 0, 0, 2, 0] \
                 open_rows=[Some(0), Some(1), None, None, None, None, Some(0), None]\n"
            )
        );
    }

    /// Re-packs the oracle into a persistent canonical copy, as the
    /// lockstep did before it compared in place (reference loop only).
    fn repack_oracle_state(
        oracle: &RefEngine,
        dram: bool,
        residue_buf: &mut Vec<u8>,
        packed: &mut SimState,
    ) {
        packed.advance_now();
        residue_buf.clear();
        residue_buf.extend(oracle.bank_residues().map(|r| r as u8));
        packed.repack(residue_buf, &[], oracle.rotation());
        if dram {
            packed.sync_open_rows(oracle.open_rows());
        }
    }

    /// The lockstep loop before it compared the oracle in place: the
    /// optimized side steps through `Engine::run_with`, and the oracle is
    /// lifted into a packed copy every cycle and compared by `PartialEq`.
    /// Kept as the reference [`run_lockstep`] must match outcome for
    /// outcome.
    fn run_lockstep_lifted<W: Workload>(
        mut oracle: RefEngine,
        config: &SimConfig,
        mut workload: W,
        cycles: u64,
    ) -> DiffOutcome {
        let mut engine = Engine::new(config.clone());
        let ports = config.num_ports();
        let dram = matches!(config.bank_model, BankModel::Dram { .. });
        let mut grants = 0u64;
        let mut engine_view = vec![(u64::MAX, RefOutcome::Granted); ports];
        let mut oracle_view = vec![(u64::MAX, RefOutcome::Granted); ports];
        let mut residue_buf: Vec<u8> = Vec::with_capacity(config.geometry.banks() as usize);
        let mut oracle_state = SimState::new(config);
        for cycle in 0..cycles {
            engine.run_with(&mut workload, 1, &mut vecmem_banksim::observe::NoopObserver);
            let oracle_steps = oracle.step_ports();
            engine_view
                .iter_mut()
                .for_each(|v| *v = (u64::MAX, RefOutcome::Granted));
            for ev in engine.state().outcomes() {
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
            #[cfg(feature = "sanitize")]
            if let Err(violation) = oracle_state.validate() {
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

    /// A geometry from the property test's draw: `m` in 1..=16
    /// unsectioned, or one of a few sectioned ones (both mappings).
    fn drawn_geometry(pick: u64, m: u64, nc: u64) -> Geometry {
        use vecmem_analytic::SectionMapping;
        match pick {
            0 => Geometry::new(16, 4, nc).unwrap(),
            1 => Geometry::with_mapping(16, 4, nc, SectionMapping::Consecutive).unwrap(),
            2 => Geometry::new(12, 3, nc).unwrap(),
            3 => Geometry::with_mapping(8, 2, nc, SectionMapping::Consecutive).unwrap(),
            _ => Geometry::unsectioned(m, nc).unwrap(),
        }
    }

    /// One port's pattern from three drawn words: stride, affine or
    /// pseudo-random gather, or burst.
    fn drawn_spec(kind: u64, a: u64, b: u64) -> PatternSpec {
        use vecmem_banksim::pattern::IndexPattern;
        match kind {
            0 => PatternSpec::Gather {
                base: a,
                span: 1 + b % 97,
                index: IndexPattern::Affine { a: b, c: a },
            },
            1 => PatternSpec::Gather {
                base: a,
                span: 1 << 12,
                index: IndexPattern::PseudoRandom { seed: b },
            },
            2 => PatternSpec::Burst {
                start_bank: a,
                distance: b,
                burst: 1 + a % 4,
            },
            _ => PatternSpec::Stride {
                start_bank: a,
                distance: b,
            },
        }
    }

    /// The seeded faults a drawn case may carry. `ResidueOverflow` aborts
    /// both loops under `sanitize`; the sanitizer tests pin that case.
    #[cfg(feature = "bug_injection")]
    fn drawn_bug(pick: u64) -> Option<crate::engine::InjectedBug> {
        use crate::engine::InjectedBug;
        match pick {
            1 => Some(InjectedBug::InvertedPriority),
            2 => Some(InjectedBug::StuckRotation),
            3 if cfg!(not(feature = "sanitize")) => Some(InjectedBug::ResidueOverflow),
            _ => None,
        }
    }

    vecmem_prop::proptest! {
        #![proptest_config(vecmem_prop::ProptestConfig::with_cases(384))]
        #[test]
        fn in_place_lockstep_matches_the_lifted_loop(
            geom_pick in 0u64..8,
            m in 1u64..=16,
            nc in 1u64..=6,
            ports in 1usize..=3,
            shape in 0u64..4,
            dram in 0u64..3,
            kinds in (0u64..5, 0u64..5, 0u64..5, 0u64..4),
            words in (0u64..64, 0u64..64, 0u64..64, 0u64..64, 0u64..64, 0u64..64),
        ) {
            let geom = drawn_geometry(geom_pick, m, nc);
            let base = if shape & 1 == 0 {
                SimConfig::one_port_per_cpu(geom, ports)
            } else {
                SimConfig::single_cpu(geom, ports)
            };
            let priority = if shape & 2 == 0 { PriorityRule::Fixed } else { PriorityRule::Cyclic };
            let mut cfg = base.with_priority(priority);
            if dram > 0 {
                cfg = cfg.with_bank_model(BankModel::Dram {
                    hit_cycle: 1 + words.0 % nc,
                    rows: dram * 2,
                });
            }
            let all = [
                drawn_spec(kinds.0, words.0, words.1),
                drawn_spec(kinds.1, words.2, words.3),
                drawn_spec(kinds.2, words.4, words.5),
            ];
            let specs = &all[..ports];
            let oracle = RefEngine::from_specs(mirror_config(&cfg), specs);
            #[cfg(feature = "bug_injection")]
            let oracle = match drawn_bug(kinds.3) {
                Some(bug) => oracle.with_bug(bug),
                None => oracle,
            };
            let cycles = 160;
            let lifted = run_lockstep_lifted(
                oracle.clone(),
                &cfg,
                PatternWorkload::from_specs(&cfg, specs),
                cycles,
            );
            let in_place = run_lockstep(oracle, &cfg, PatternWorkload::from_specs(&cfg, specs), cycles);
            vecmem_prop::prop_assert_eq!(in_place, lifted);
        }
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
