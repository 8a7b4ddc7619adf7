//! The cycle-accurate simulation engine.
//!
//! A thin wrapper around the pure [`step`](vecmem_simcore::step::step)
//! kernel of `vecmem-simcore`: the kernel owns the per-cycle semantics
//! (arbitration, grants, delays, observer events, bank aging); the engine
//! pairs it with a [`SimConfig`], a [`SimState`] and a [`SimStats`]. The
//! statistics are an observer like any other: every step reports to
//! `Tee(stats, observer)`, so grants, conflicts and waits are counted once,
//! from the kernel's own callbacks. A caller that wants a paper-style
//! trace passes a [`TraceRecorder`](crate::TraceRecorder) as the observer.

use crate::config::SimConfig;
use crate::observe::{NoopObserver, SimObserver, Tee};
use crate::stats::SimStats;
use crate::workload::Workload;
use vecmem_simcore::{step::step, PortEvent, SimState};

/// Result of [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The workload finished; payload is the clock period *after* the last
    /// grant (i.e. the elapsed cycle count).
    Finished(u64),
    /// `max_cycles` elapsed with the workload still active.
    CyclesExhausted,
}

impl RunOutcome {
    /// Elapsed cycles for a finished run.
    #[must_use]
    pub fn finished_cycles(&self) -> Option<u64> {
        match self {
            Self::Finished(c) => Some(*c),
            Self::CyclesExhausted => None,
        }
    }
}

/// The simulation engine.
#[derive(Debug, Clone)]
pub struct Engine {
    config: SimConfig,
    state: SimState,
    stats: SimStats,
}

impl Engine {
    /// A fresh engine for the given configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self {
            state: SimState::new(&config),
            stats: SimStats::new(config.num_ports()),
            config,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The packed simulator state (residues, rotation, wait counters and
    /// the last cycle's per-port outcomes).
    #[must_use]
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Current clock period.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.state.now()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Simulates one clock period and returns each active port's outcome.
    pub fn step<W: Workload>(&mut self, workload: &mut W) -> &[PortEvent] {
        self.step_with(workload, &mut NoopObserver)
    }

    /// Simulates one clock period, reporting every grant, delay, bank
    /// transition and cycle summary to the engine's statistics and to
    /// `observer`, and returns each active port's outcome (the kernel's
    /// [`SimState::outcomes`], valid until the next step).
    pub fn step_with<W: Workload, O: SimObserver>(
        &mut self,
        workload: &mut W,
        observer: &mut O,
    ) -> &[PortEvent] {
        step(
            &self.config,
            &mut self.state,
            workload,
            &mut Tee(&mut self.stats, observer),
        );
        self.state.outcomes()
    }

    /// Runs until the workload finishes or `max_cycles` elapse.
    pub fn run<W: Workload>(&mut self, workload: &mut W, max_cycles: u64) -> RunOutcome {
        self.run_with(workload, max_cycles, &mut NoopObserver)
    }

    /// Observed variant of [`Self::run`]: every cycle is reported to
    /// `observer`.
    pub fn run_with<W: Workload, O: SimObserver>(
        &mut self,
        workload: &mut W,
        max_cycles: u64,
        observer: &mut O,
    ) -> RunOutcome {
        let deadline = self.state.now() + max_cycles;
        let mut observer = Tee(&mut self.stats, observer);
        while self.state.now() < deadline {
            if workload.is_finished() {
                return RunOutcome::Finished(self.state.now());
            }
            step(&self.config, &mut self.state, workload, &mut observer);
        }
        if workload.is_finished() {
            RunOutcome::Finished(self.state.now())
        } else {
            RunOutcome::CyclesExhausted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BankModel;
    use crate::pattern::{PatternPort, PatternWorkload, StridePattern};
    use crate::request::{ConflictKind, PortId, PortOutcome};
    use crate::trace::TraceRecorder;
    use vecmem_analytic::{Geometry, StreamSpec};

    fn geom(m: u64, nc: u64) -> Geometry {
        Geometry::unsectioned(m, nc).unwrap()
    }

    fn finite(g: &Geometry, spec: StreamSpec, n: u64) -> PatternWorkload<StridePattern> {
        PatternWorkload::new(vec![
            PatternPort::new(StridePattern::new(g, spec)).with_length(n)
        ])
    }

    #[test]
    fn single_stream_full_bandwidth() {
        // d = 1, r = m >= n_c: one grant every clock period.
        let g = geom(8, 4);
        let cfg = SimConfig::single_cpu(g, 1);
        let mut engine = Engine::new(cfg);
        let spec = StreamSpec::new(&g, 0, 1).unwrap();
        let mut w = finite(&g, spec, 32);
        let out = engine.run(&mut w, 1000);
        assert_eq!(out, RunOutcome::Finished(32));
        assert_eq!(engine.stats().total_grants(), 32);
        assert_eq!(engine.stats().total_conflicts().total(), 0);
    }

    #[test]
    fn self_conflicting_stream_throttled() {
        // §III-A: m = 8, n_c = 4, d = 4: r = 2 < n_c, b_eff = r/n_c = 1/2.
        // 16 elements need 2 conflict-free grants per n_c window: the k-th
        // pair completes at cycle 4k+2; total = 4·7 + 2 + ... just check the
        // asymptotic rate: 16 elements in ~32 cycles.
        let g = geom(8, 4);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        let spec = StreamSpec::new(&g, 0, 4).unwrap();
        let mut w = finite(&g, spec, 16);
        let out = engine.run(&mut w, 1000);
        let cycles = out.finished_cycles().unwrap();
        // Exact: pairs of grants at (4k, 4k+1): last grant at 4·7 + 1 = 29,
        // finish observed at cycle 30.
        assert_eq!(cycles, 30);
        assert!(engine.stats().total_conflicts().bank > 0);
    }

    #[test]
    fn bank_hold_time_respected() {
        let g = geom(4, 3);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        let spec = StreamSpec::new(&g, 0, 0).unwrap(); // hammer bank 0
        let mut w = finite(&g, spec, 3);
        engine.run(&mut w, 100);
        // Grants at cycles 0, 3, 6; finished at 7.
        assert_eq!(engine.stats().total_grants(), 3);
        assert_eq!(engine.stats().port(PortId(0)).conflicts.bank, 4); // cycles 1,2,4,5
    }

    #[test]
    fn trace_records_run() {
        let g = geom(4, 2);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        let mut t = TraceRecorder::new(g.banks(), 8);
        let spec = StreamSpec::new(&g, 0, 1).unwrap();
        let mut w = finite(&g, spec, 4);
        engine.run_with(&mut w, 100, &mut t);
        assert_eq!(t.row(0, 0, 4), "11..");
        assert_eq!(t.row(1, 0, 4), ".11.");
        assert_eq!(t.row(2, 0, 4), "..11");
    }

    #[test]
    fn trace_paints_the_hold_of_a_dram_row_hit() {
        // One port hammers bank 0, row 0: a miss holds the bank for
        // n_c = 4, the open-row hit that follows for hit_cycle = 1 only.
        let g = geom(16, 4);
        let cfg = SimConfig::single_cpu(g, 1).with_bank_model(BankModel::Dram {
            hit_cycle: 1,
            rows: 4,
        });
        let mut engine = Engine::new(cfg);
        let mut t = TraceRecorder::new(g.banks(), 12);
        let spec = StreamSpec::new(&g, 0, 0).unwrap();
        let mut w = PatternWorkload::new(vec![PatternPort::new(StridePattern::with_rows(
            &g, spec, 4,
        ))
        .with_length(2)]);
        assert_eq!(
            engine.run_with(&mut w, 100, &mut t),
            RunOutcome::Finished(5)
        );
        assert_eq!(t.row(0, 0, 12), "1>>>1.......");
    }

    #[test]
    fn two_streams_conflict_free_fig2_shape() {
        // Fig. 2: m = 12, n_c = 3, d1 = 1, d2 = 7, simultaneous start at
        // banks 0 and 1. Theorem 3 predicts b_eff = 2: after the transient
        // no conflicts.
        let g = geom(12, 3);
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let mut engine = Engine::new(cfg);
        let s1 = StreamSpec::new(&g, 0, 1).unwrap();
        let s2 = StreamSpec::new(&g, 1, 7).unwrap();
        let mut w = PatternWorkload::strided(&g, &[s1, s2]);
        for _ in 0..240 {
            engine.step(&mut w);
        }
        // Both streams should achieve (close to) one grant per cycle.
        let g0 = engine.stats().port(PortId(0)).grants;
        let g1 = engine.stats().port(PortId(1)).grants;
        assert!(g0 >= 235, "stream 1 starved: {g0}");
        assert!(g1 >= 235, "stream 2 starved: {g1}");
    }

    #[test]
    fn run_outcome_exhaustion() {
        let g = geom(4, 2);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        let spec = StreamSpec::new(&g, 0, 1).unwrap();
        let mut w = PatternWorkload::strided(&g, &[spec]);
        assert_eq!(engine.run(&mut w, 10), RunOutcome::CyclesExhausted);
        assert_eq!(engine.now(), 10);
    }

    #[test]
    fn wait_times_recorded() {
        // d = 0 on m = 4, n_c = 3: grants at 0, 3, 6 with waits 0, 2, 2.
        let g = geom(4, 3);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        let spec = StreamSpec::new(&g, 0, 0).unwrap();
        let mut w = finite(&g, spec, 3);
        engine.run(&mut w, 100);
        let p = engine.stats().port(PortId(0));
        assert_eq!(p.wait_histogram[0], 1);
        assert_eq!(p.wait_histogram[2], 2);
        assert_eq!(p.max_wait, 2);
        assert_eq!(p.mean_wait(), 4.0 / 3.0);
    }

    #[test]
    fn step_returns_this_cycles_outcomes() {
        // Two CPUs request bank 0 at once: the fixed-priority winner is
        // granted, the other loses a simultaneous-bank conflict.
        let g = geom(8, 2);
        let mut engine = Engine::new(SimConfig::one_port_per_cpu(g, 2));
        let s = StreamSpec::new(&g, 0, 0).unwrap();
        let mut w = PatternWorkload::strided(&g, &[s, s]);
        let out: Vec<(PortId, u64, PortOutcome)> = engine
            .step(&mut w)
            .iter()
            .map(|ev| (ev.port, ev.request.bank, ev.outcome))
            .collect();
        assert_eq!(
            out,
            vec![
                (PortId(0), 0, PortOutcome::Granted),
                (
                    PortId(1),
                    0,
                    PortOutcome::Delayed(ConflictKind::SimultaneousBank)
                ),
            ]
        );
    }
}
