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
//! a state into a canonical packed [`SimState`] (via [`SimState::pack`]):
//! the divergence report, which lifts both sides so they share one dump
//! format ([`SimState::render`]), and the `sanitize` feature, which
//! validates the lifted oracle every cycle. The first mismatch ends the
//! comparison with a [`Divergence`] carrying the rendered dual dump;
//! agreement over the full horizon returns [`DiffOutcome::Match`].
//!
//! The kernel side comes from one of two drivers, which share the
//! per-cycle comparison: [`run_pair`] steps a fresh state for a fixed
//! number of cycles, and [`solve_in_lockstep`] rides the steady-state
//! search itself ([`measure_steady_state_workload`]), so one kernel
//! trajectory both finds the cyclic state and is checked against the
//! oracle. The search stops when the kernel's state after `a + λ_r` steps
//! is the address translate by `s` of its state after `a`
//! ([`Ride::Recurred`]); the ride compares every cycle it stepped, `[0, a
//! + λ_r)`, and then checks once that the reference's ports moved by `s`
//! too. For a stride or burst workload on a symmetric memory, `λ_r` is
//! the period up to translation, a divisor of the period `λ`; otherwise
//! `s = 0` and `λ_r = λ`.
//!
//! # Agreement for all time
//!
//! A finite comparison says that the engines agree forever, by three
//! facts.
//!
//! *The recurrence lemma.* The reference's next cycle depends on nothing
//! but the compared state (busy banks, open rows, rotation) and, per
//! port, its upcoming request and its burst cooldown. It recomputes each
//! request from the port's absolute count `k` in `u128`, but a request is
//! its word address modulo `M = m·max(rows, 1)` (bank `addr mod m`, row
//! `(addr / m) mod rows`), so its request for `k` equals the one for `k +
//! T` whenever `T` is the period the kernel's position slot resolves. For
//! a stride or burst the upcoming address modulo `M` (the slot itself)
//! decides the port: each grant adds the distance. The engine's
//! `recurrence_lemma_holds_up_to_the_top_of_the_count_range` test pins
//! this for every [`PatternSpec`] kind, with counts near `u64::MAX`.
//!
//! *Translation equivariance.* On a uniform or DRAM memory, unsectioned
//! or cyclically sectioned, the reference commutes with the Appendix's
//! relabelling, address translation `T_t: a → a + t (mod M)`: shifting
//! every port's start address by `t` moves every requested bank, busy
//! countdown and open row by `t` and leaves the outcomes, cooldowns and
//! rotation alone. The engine's `reference_commutes_with_translation`
//! property test checks it over both models, both mappings that qualify,
//! both topologies and both priority rules; a consecutive section mapping
//! fails it, and the kernel's search never reduces there.
//!
//! *The ride.* The lockstep has compared the events and the compared
//! state of every cycle up to step `a + λ_r`. So the reference's compared
//! state after `a + λ_r` steps is the kernel's, which is `T_s` of the
//! kernel's after `a`, which is `T_s` of the reference's after `a`. At the
//! match the lockstep checks the rest once: each reference port's
//! upcoming address must read `s` higher modulo `M` than after `a` steps,
//! and its cooldown the same; a failure is a divergence with a dump.
//! Then, by the lemma, the reference's whole state after `a + λ_r` steps
//! is `T_s` of its state after `a`. By equivariance both engines emit,
//! from there on, the translates of what they emitted from `a`, which
//! agreed; by induction over windows of `λ_r` cycles they agree for all
//! time. A full-state search is the case `s = 0`, where `T_0` is the
//! identity and no symmetry is assumed. A gather only ever rides that
//! case: its port's future is its count modulo the slot's period, the
//! kernel's slots recurred, and both engines granted each port equally
//! often in the window, so by the lemma the reference's requests repeat
//! too.
//!
//! The argument holds for a reference that satisfies the lemma, and a
//! faulty one need not. The seeded `ResidueOverflow` fault re-arms a bank
//! granted in the very cycle it frees: it reads the reference's raw
//! countdown (1, "frees now", against 0), which the compared residues (0
//! and 0) cannot tell apart. On a lone stream hammering one bank the
//! search recurs after 4 steps and the fault strikes in the fifth. So the
//! ride compares [`LOCKSTEP_TAIL`] cycles past the recurrence anyway: a
//! guard that catches such a fault when it strikes that soon, not a step
//! of the argument.

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

use crate::engine::{RefBankModel, RefConfig, RefEngine, RefOutcome, RefPriority, RefStep};
use vecmem_analytic::StreamSpec;
use vecmem_banksim::pattern::{PatternSpec, PatternWorkload};
use vecmem_banksim::steady::{
    measure_steady_state_workload, ObservableWorkload, Ride, SteadyState, SteadyStateError,
};
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
#[expect(clippy::indexing_slicing, reason = "divergence report only")]
fn engine_view(events: &[PortEvent], ports: usize) -> Vec<(u64, RefOutcome)> {
    let mut view = vec![(u64::MAX, RefOutcome::Granted); ports];
    for ev in events {
        view[ev.port.0] = (ev.request.bank, kind_of(ev.outcome));
    }
    view
}

/// The oracle's steps in the same form: the oracle column of the dump.
fn oracle_view(steps: &[Option<RefStep>]) -> Vec<(u64, RefOutcome)> {
    steps
        .iter()
        .map(|s| s.map_or((u64::MAX, RefOutcome::Granted), |s| (s.bank, s.outcome)))
        .collect()
}

/// Packs residues, a rotation and, under the DRAM model, open rows into a
/// fresh state without position slots: the form both columns of a dump
/// render in. The residues narrow to the packed byte, so this serves the
/// dump and the sanitizer only; the lockstep compares through
/// [`same_state`].
fn lift_state(
    config: &SimConfig,
    residues: impl Iterator<Item = u64>,
    rotation: usize,
    open_rows: &[Option<u64>],
) -> SimState {
    let residues: Vec<u8> = residues.map(|r| r as u8).collect();
    let mut state = SimState::pack(config, &residues, &[], rotation);
    if matches!(config.bank_model, BankModel::Dram { .. }) {
        state.sync_open_rows(open_rows);
    }
    state
}

/// The reference engine's state in the canonical packed form.
fn lift_oracle_state(config: &SimConfig, oracle: &RefEngine) -> SimState {
    lift_state(
        config,
        oracle.bank_residues(),
        oracle.rotation(),
        oracle.open_rows(),
    )
}

/// The kernel's state in the same form, its position slots dropped, so a
/// dump reads the same whichever driver stepped the kernel.
fn lift_engine_state(config: &SimConfig, state: &SimState) -> SimState {
    let open_rows: Vec<Option<u64>> = (0..config.geometry.banks())
        .map(|bank| state.open_row(bank))
        .collect();
    lift_state(config, state.residues(), state.rotation(), &open_rows)
}

/// Sanitizer: the lifted oracle state must satisfy every [`SimState`]
/// structural invariant; a violation is reported at the exact cycle the
/// corruption appears, before any divergence masking it.
#[cfg(feature = "sanitize")]
#[expect(
    clippy::panic,
    reason = "sanitizer: corruption must abort at the violating cycle"
)]
fn sanitize_oracle(config: &SimConfig, oracle: &RefEngine, cycle: u64) {
    if let Err(violation) = lift_oracle_state(config, oracle).validate() {
        panic!("vecmem sanitize: oracle state at cycle {cycle}: {violation}");
    }
}

/// The first line of every dump: the geometry, priority rule and port
/// topology.
fn geometry_line(config: &SimConfig) -> String {
    let g = &config.geometry;
    format!(
        "geometry m={} s={} nc={} priority={:?} ports={:?}\n",
        g.banks(),
        g.sections(),
        g.bank_cycle(),
        config.priority,
        config.ports.iter().map(|c| c.0).collect::<Vec<_>>(),
    )
}

/// Renders the full dual state dump at a divergent cycle. Both sides use
/// the canonical [`SimState::render`] format.
#[expect(
    clippy::indexing_slicing,
    reason = "divergence report: only reached after a mismatch, never on the lockstep hot loop"
)]
fn render_dump(
    config: &SimConfig,
    cycle: u64,
    engine_view: &[(u64, RefOutcome)],
    oracle_view: &[(u64, RefOutcome)],
    engine_state: &SimState,
    oracle_state: &SimState,
) -> String {
    use std::fmt::Write as _;
    let mut s = geometry_line(config);
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

/// Renders the dump of a failed translation check: the reference's ports
/// after `anchor` steps (when recorded), now, and the addresses the
/// translate by `shift` expects, then its state.
#[expect(
    clippy::indexing_slicing,
    reason = "divergence report: only reached after a failed check, never on the lockstep hot loop"
)]
fn render_unmoved(
    config: &SimConfig,
    oracle: &RefEngine,
    cycle: u64,
    anchor: u64,
    shift: u64,
    then: Option<&[(u128, u64)]>,
) -> String {
    use std::fmt::Write as _;
    let mut s = geometry_line(config);
    let modulus = oracle.config().address_modulus();
    let _ = writeln!(
        s,
        "cycle {cycle}: the kernel recurred onto step {anchor} shifted by {shift} (mod {modulus}), \
         the reference's ports did not"
    );
    let _ = writeln!(
        s,
        "  port | step {anchor}: address cooldown | step {cycle}: address cooldown | expected: address cooldown"
    );
    for (p, now) in oracle.upcoming().enumerate() {
        let Some(&(from, cool)) = then.map(|t| &t[p]) else {
            let _ = writeln!(s, "  {p:>4} | not recorded | {:>8} {:>8} |", now.0, now.1);
            continue;
        };
        let expected = ((from + u128::from(shift)) % modulus, cool);
        let marker = if now == expected { ' ' } else { '*' };
        let _ = writeln!(
            s,
            " {marker}{p:>4} | {from:>8} {cool:>8} | {:>8} {:>8} | {:>8} {:>8}",
            now.0, now.1, expected.0, expected.1
        );
    }
    let _ = writeln!(s, "  state (rotation, remaining bank busy periods):");
    let _ = writeln!(
        s,
        "    oracle: {}",
        lift_oracle_state(config, oracle).render()
    );
    s
}

/// The oracle side of a lockstep run and its tally: the reference engine,
/// the cycles compared so far, their grants, and the first divergence.
/// Whichever driver steps the kernel hands its state to [`Self::check`]
/// after every cycle.
///
/// Ports idle on one side must be idle on the other: [`same_events`]
/// compares idle ports too, so a cooldown disagreement surfaces as an
/// event mismatch. The oracle steps in its own reused per-cycle lists, so
/// once it has warmed up a check allocates nothing until it renders a
/// dump.
///
/// After step 0 and after every power-of-two number of steps, the anchors
/// the search may recur onto, the lockstep records the reference's ports
/// ([`RefEngine::upcoming`]) for [`Self::recurred`], in storage it sizes
/// once.
struct Lockstep<'c> {
    config: &'c SimConfig,
    oracle: RefEngine,
    dram: bool,
    cycle: u64,
    grants: u64,
    divergence: Option<Divergence>,
    /// The reference's ports after 0, 1, 2, 4, ... steps, one entry per
    /// port each.
    anchors: Vec<(u128, u64)>,
}

/// Anchors [`Lockstep`] records: step 0 and the 64 powers of two of a
/// `u64` step count.
const ANCHORS: usize = 1 + u64::BITS as usize;

impl<'c> Lockstep<'c> {
    fn new(oracle: RefEngine, config: &'c SimConfig) -> Self {
        let mut anchors = Vec::with_capacity(ANCHORS * config.num_ports());
        anchors.extend(oracle.upcoming());
        Self {
            config,
            oracle,
            dram: matches!(config.bank_model, BankModel::Dram { .. }),
            cycle: 0,
            grants: 0,
            divergence: None,
            anchors,
        }
    }

    /// Steps the oracle one cycle and compares it with `state`, the
    /// kernel's state after the same cycle. Returns `false` once the
    /// engines have diverged; later calls then do nothing, so the report
    /// keeps the first divergent cycle.
    fn check(&mut self, state: &SimState) -> bool {
        if self.divergence.is_some() {
            return false;
        }
        let (config, cycle) = (self.config, self.cycle);
        self.oracle.advance();
        #[cfg(feature = "sanitize")]
        sanitize_oracle(config, &self.oracle, cycle);
        let oracle_steps = self.oracle.last_steps();
        if !same_events(state.outcomes(), oracle_steps)
            || !same_state(state, &self.oracle, self.dram)
        {
            let report = render_dump(
                config,
                cycle,
                &engine_view(state.outcomes(), config.num_ports()),
                &oracle_view(oracle_steps),
                &lift_engine_state(config, state),
                &lift_oracle_state(config, &self.oracle),
            );
            self.divergence = Some(Divergence { cycle, report });
            return false;
        }
        self.grants += oracle_steps
            .iter()
            .filter(|s| s.is_some_and(|s| s.outcome.granted()))
            .count() as u64;
        self.cycle += 1;
        if self.cycle.is_power_of_two() {
            self.anchors.extend(self.oracle.upcoming());
        }
        true
    }

    /// The search found the kernel's state after the last checked step to
    /// be the translate by `shift` of its state after `anchor` steps: checks
    /// once that each reference port's upcoming address reads `shift`
    /// higher modulo `M` than after `anchor` steps and that its cooldown is
    /// unchanged (see the module docs). A failure is a divergence at the
    /// first cycle the comparison stops covering.
    fn recurred(&mut self, anchor: u64, shift: u64) {
        if self.divergence.is_some() {
            return;
        }
        let ports = self.config.num_ports();
        let first = if anchor == 0 {
            Some(0)
        } else if anchor.is_power_of_two() {
            Some(ports * (1 + anchor.trailing_zeros() as usize))
        } else {
            None
        };
        let modulus = self.oracle.config().address_modulus();
        let then = first.and_then(|i| self.anchors.get(i..i + ports));
        let moved = then.is_some_and(|then| {
            then.iter()
                .zip(self.oracle.upcoming())
                .all(|(&(from, cool), now)| now == ((from + u128::from(shift)) % modulus, cool))
        });
        if !moved {
            let report = render_unmoved(self.config, &self.oracle, self.cycle, anchor, shift, then);
            self.divergence = Some(Divergence {
                cycle: self.cycle,
                report,
            });
        }
    }

    fn outcome(self) -> DiffOutcome {
        match self.divergence {
            Some(d) => DiffOutcome::Diverged(d),
            None => DiffOutcome::Match {
                cycles: self.cycle,
                grants: self.grants,
            },
        }
    }
}

/// Steps a pre-built reference engine against a fresh optimized state in
/// lockstep for `cycles` clock periods, over any shared workload. The
/// optimized side is the bare [`step`] kernel the steady-state solver
/// runs, in a fresh state, so once both sides have warmed up the loop
/// allocates nothing until it renders a dump.
fn run_lockstep<W: Workload>(
    oracle: RefEngine,
    config: &SimConfig,
    mut workload: W,
    cycles: u64,
) -> DiffOutcome {
    let mut state = SimState::new(config);
    let mut lockstep = Lockstep::new(oracle, config);
    for _ in 0..cycles {
        step(config, &mut state, &mut workload, &mut NoopObserver);
        if !lockstep.check(&state) {
            break;
        }
    }
    lockstep.outcome()
}

/// Cycles [`solve_in_lockstep`] compares after the search has found its
/// recurrence: not part of the argument for all time (see the module
/// docs), but a guard against a reference fault that reads state the
/// comparison cannot see, which shows only when it strikes.
pub const LOCKSTEP_TAIL: u64 = 8;

/// Solves `workload`'s steady state from cycle 0 within `budget` search
/// cycles while a pre-built reference engine checks every cycle the
/// searching cursor steps, the reference's ports at the recurrence (see
/// the module docs), and [`LOCKSTEP_TAIL`] cycles more. A search that
/// gives up still returns the comparison over the `budget` cycles it
/// stepped.
fn solve_lockstep<W: ObservableWorkload + Clone>(
    oracle: RefEngine,
    config: &SimConfig,
    mut workload: W,
    budget: u64,
) -> (Result<SteadyState, SteadyStateError>, DiffOutcome) {
    let mut lockstep = Lockstep::new(oracle, config);
    let steady =
        measure_steady_state_workload(config, &mut workload, 0, budget, LOCKSTEP_TAIL, |ride| {
            match ride {
                Ride::Step(state) => {
                    lockstep.check(state);
                }
                Ride::Recurred { anchor, shift } => lockstep.recurred(anchor, shift),
            }
        });
    (steady, lockstep.outcome())
}

/// The steady state of `streams` (as `measure_steady_state` finds it,
/// within `budget` search cycles) together with a lockstep comparison
/// against a pre-built reference engine over the same kernel trajectory:
/// cycles `[0, a + λ_r)`, up to the step at which the search found its
/// recurrence, and the one-time check of the reference's ports there,
/// which together cover all time (see the module docs), then
/// [`LOCKSTEP_TAIL`] cycles more; or `[0, budget)` when the search found
/// none. Each cycle is simulated once by the kernel.
///
/// The `oracle` must have been built from [`mirror_config`]`(config)` and
/// the same `streams` (possibly with a seeded bug), as for
/// [`run_pair_against`]. The solver's result is returned as it is, a
/// [`SteadyStateError`] included.
pub fn solve_in_lockstep_against(
    oracle: RefEngine,
    config: &SimConfig,
    streams: &[StreamSpec],
    budget: u64,
) -> (Result<SteadyState, SteadyStateError>, DiffOutcome) {
    let workload = PatternWorkload::strided(&config.geometry, streams);
    solve_lockstep(oracle, config, workload, budget)
}

/// [`solve_in_lockstep_against`] with a fresh, faithful reference engine:
/// the conformance sweep's one pass per point.
pub fn solve_in_lockstep(
    config: &SimConfig,
    streams: &[StreamSpec],
    budget: u64,
) -> (Result<SteadyState, SteadyStateError>, DiffOutcome) {
    let oracle = RefEngine::new(mirror_config(config), streams);
    solve_in_lockstep_against(oracle, config, streams, budget)
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
        // The fused driver rides the search up to translation over the
        // same bursts, cooldowns in the one-time check, on both models.
        let dram = cfg.clone().with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        });
        for cfg in [cfg, dram] {
            let oracle = RefEngine::from_specs(mirror_config(&cfg), &specs);
            let workload = PatternWorkload::from_specs(&cfg, &specs);
            let (steady, fused) = solve_lockstep(oracle, &cfg, workload, 1 << 20);
            let plain = vecmem_banksim::measure_steady_state_patterns(&cfg, &specs, 1 << 20);
            assert_eq!(steady, plain);
            assert!(fused.matched(), "{fused:?}");
        }
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
        let ss = vecmem_banksim::measure_steady_state_workload(cfg, &mut w, 0, 1 << 20, 0, |_| {})
            .unwrap();
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

    /// A search that finds no recurrence within its budget still returns
    /// the comparison over every cycle it stepped.
    #[test]
    fn starved_search_still_compares_its_budget() {
        let g = Geometry::unsectioned(16, 4).unwrap();
        let cfg = SimConfig::single_cpu(g, 1);
        let (steady, diff) = solve_in_lockstep(&cfg, &[spec(&g, 0, 1)], 3);
        assert_eq!(steady, Err(SteadyStateError::NotConverged { cycles: 3 }));
        assert_eq!(
            diff,
            DiffOutcome::Match {
                cycles: 3,
                grants: 3
            }
        );
    }

    /// Rides a solve of `streams` with the lockstep, then reports the
    /// search's recurrence to it as `(anchor, shift)` rewritten by `edit`.
    fn ride_and_report(
        cfg: &SimConfig,
        streams: &[StreamSpec],
        edit: impl Fn(u64, u64) -> (u64, u64),
    ) -> DiffOutcome {
        let mut lockstep = Lockstep::new(RefEngine::new(mirror_config(cfg), streams), cfg);
        let mut recurrence = None;
        let mut workload = PatternWorkload::strided(&cfg.geometry, streams);
        measure_steady_state_workload(cfg, &mut workload, 0, 1 << 20, 0, |ride| match ride {
            Ride::Step(state) => {
                lockstep.check(state);
            }
            Ride::Recurred { anchor, shift } => recurrence = Some((anchor, shift)),
        })
        .unwrap();
        let (anchor, shift) = recurrence.unwrap();
        let (anchor, shift) = edit(anchor, shift);
        lockstep.recurred(anchor, shift);
        lockstep.outcome()
    }

    /// The check at the recurrence is live. The search's own anchor and
    /// shift pass it; a shift the reference's ports did not take, or an
    /// anchor the lockstep never recorded, is a divergence at the first
    /// cycle the comparison stops covering, with the ports in the dump.
    #[test]
    fn a_recurrence_the_reference_did_not_make_is_a_divergence() {
        let g = Geometry::unsectioned(16, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let streams = [spec(&g, 0, 1), spec(&g, 5, 3)];
        let DiffOutcome::Match { cycles, .. } = ride_and_report(&cfg, &streams, |a, s| (a, s))
        else {
            panic!("the search's own recurrence must pass");
        };
        let moved = ride_and_report(&cfg, &streams, |a, s| (a, (s + 1) % 16));
        let d = moved.divergence().expect("a wrong shift must diverge");
        assert_eq!(d.cycle, cycles);
        assert!(
            d.report.contains("the reference's ports did not"),
            "{}",
            d.report
        );
        assert!(d.report.contains(" *   0 |"), "{}", d.report);
        let unrecorded = ride_and_report(&cfg, &streams, |_, s| (3, s));
        let d = unrecorded
            .divergence()
            .expect("an unrecorded anchor must diverge");
        assert!(d.report.contains("not recorded"), "{}", d.report);
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

    /// The seeded faults whose reports are pinned: three strided
    /// uniform-model cases, one per [`InjectedBug`](crate::engine::InjectedBug),
    /// and one DRAM case whose dump carries the open rows.
    #[cfg(feature = "bug_injection")]
    fn seeded_faults() -> Vec<(SimConfig, Vec<StreamSpec>, crate::engine::InjectedBug)> {
        use crate::engine::InjectedBug;
        let s = |start_bank, distance| StreamSpec {
            start_bank,
            distance,
        };
        let g8 = Geometry::unsectioned(8, 2).unwrap();
        let g4 = Geometry::unsectioned(4, 1).unwrap();
        let g8nc4 = Geometry::unsectioned(8, 4).unwrap();
        let dram = BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        };
        vec![
            (
                SimConfig::one_port_per_cpu(g8, 2),
                vec![s(0, 1), s(6, 3)],
                InjectedBug::InvertedPriority,
            ),
            (
                SimConfig::one_port_per_cpu(g4, 2).with_priority(PriorityRule::Cyclic),
                vec![s(0, 0), s(0, 0)],
                InjectedBug::StuckRotation,
            ),
            (
                SimConfig::single_cpu(g8nc4, 1),
                vec![s(0, 0)],
                InjectedBug::ResidueOverflow,
            ),
            (
                SimConfig::one_port_per_cpu(g8nc4, 2).with_bank_model(dram),
                vec![s(0, 1), s(6, 3)],
                InjectedBug::InvertedPriority,
            ),
        ]
    }

    /// One seeded fault through one driver, over 4,000 cycles: the fused
    /// search or the fixed horizon. The uniform-model cases go through the
    /// public `_against` entries; the DRAM case builds the kernel's strides
    /// from pattern specs, which carry the row derivation.
    #[cfg(feature = "bug_injection")]
    fn drive(
        cfg: &SimConfig,
        streams: &[StreamSpec],
        bug: crate::engine::InjectedBug,
        fused: bool,
    ) -> DiffOutcome {
        const CYCLES: u64 = 4_000;
        let oracle = RefEngine::new(mirror_config(cfg), streams).with_bug(bug);
        if cfg.bank_model == BankModel::Uniform {
            return if fused {
                solve_in_lockstep_against(oracle, cfg, streams, CYCLES).1
            } else {
                run_pair_against(oracle, cfg, streams, CYCLES)
            };
        }
        let specs: Vec<PatternSpec> = streams
            .iter()
            .map(|s| PatternSpec::Stride {
                start_bank: s.start_bank,
                distance: s.distance,
            })
            .collect();
        let workload = PatternWorkload::from_specs(cfg, &specs);
        if fused {
            solve_lockstep(oracle, cfg, workload, CYCLES).1
        } else {
            run_lockstep(oracle, cfg, workload, CYCLES)
        }
    }

    /// Full divergence reports of every seeded fault, pinned byte for
    /// byte: the cycle, the per-port table and both state lines. The
    /// fused search reports each one exactly as the fixed-horizon run
    /// does. Without `sanitize`, so `ResidueOverflow` surfaces as a plain
    /// residue divergence.
    #[cfg(all(feature = "bug_injection", not(feature = "sanitize")))]
    #[test]
    fn seeded_fault_reports_are_pinned() {
        let diverged = |cycle, report: &str| {
            DiffOutcome::Diverged(Divergence {
                cycle,
                report: report.to_string(),
            })
        };
        let expected = [
            diverged(
                1,
                "geometry m=8 s=8 nc=2 priority=Fixed ports=[0, 1]\n\
                 cycle 1:\n\
                 \x20 port cpu | engine: bank outcome | oracle: bank outcome\n\
                 \x20*   0   0 |    1 granted           |    1 simultaneous-bank\n\
                 \x20*   1   1 |    1 simultaneous-bank |    1 granted\n\
                 \x20 state (rotation, remaining bank busy periods):\n\
                 \x20   engine: rotation=0 residues=[0, 1, 0, 0, 0, 0, 0, 0]\n\
                 \x20   oracle: rotation=0 residues=[0, 1, 0, 0, 0, 0, 0, 0]\n",
            ),
            diverged(
                0,
                "geometry m=4 s=4 nc=1 priority=Cyclic ports=[0, 1]\n\
                 cycle 0:\n\
                 \x20 port cpu | engine: bank outcome | oracle: bank outcome\n\
                 \x20    0   0 |    0 granted           |    0 granted\n\
                 \x20    1   1 |    0 simultaneous-bank |    0 simultaneous-bank\n\
                 \x20 state (rotation, remaining bank busy periods):\n\
                 \x20   engine: rotation=1 residues=[0, 0, 0, 0]\n\
                 \x20   oracle: rotation=0 residues=[0, 0, 0, 0]\n",
            ),
            diverged(
                4,
                "geometry m=8 s=8 nc=4 priority=Fixed ports=[0]\n\
                 cycle 4:\n\
                 \x20 port cpu | engine: bank outcome | oracle: bank outcome\n\
                 \x20    0   0 |    0 granted           |    0 granted\n\
                 \x20 state (rotation, remaining bank busy periods):\n\
                 \x20   engine: rotation=0 residues=[3, 0, 0, 0, 0, 0, 0, 0]\n\
                 \x20   oracle: rotation=0 residues=[5, 0, 0, 0, 0, 0, 0, 0]\n",
            ),
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
                 open_rows=[Some(0), Some(1), None, None, None, None, Some(0), None]\n",
            ),
        ];
        let faults = seeded_faults();
        assert_eq!(faults.len(), expected.len());
        for ((cfg, streams, bug), expected) in faults.iter().zip(expected) {
            assert_eq!(drive(cfg, streams, *bug, false), expected, "{bug:?}");
            assert_eq!(drive(cfg, streams, *bug, true), expected, "{bug:?}: fused");
        }
    }

    /// Under `sanitize` every seeded fault still ends the fused search as
    /// it ends the fixed-horizon run: with the same divergence, or, for
    /// the corrupted residue, with the sanitizer's abort at the same
    /// cycle.
    #[cfg(all(feature = "bug_injection", feature = "sanitize"))]
    #[test]
    fn fused_search_reports_seeded_faults_like_run_pair_under_sanitize() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let message = |e: Box<dyn std::any::Any + Send>| {
            e.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for (cfg, streams, bug) in seeded_faults() {
            let caught = |fused| {
                catch_unwind(AssertUnwindSafe(|| drive(&cfg, &streams, bug, fused)))
                    .map_err(message)
            };
            let (fixed, fused) = (caught(false), caught(true));
            assert!(fixed.as_ref().map_or(true, |o| !o.matched()), "{bug:?}");
            assert_eq!(fused, fixed, "{bug:?}");
        }
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
