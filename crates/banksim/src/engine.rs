//! The cycle-accurate simulation engine.
//!
//! A thin, stats- and trace-keeping wrapper around the pure
//! [`step`](vecmem_simcore::step::step) kernel of `vecmem-simcore`: the
//! kernel owns the per-cycle semantics (arbitration, grants, delays,
//! observer events, bank aging) and records each cycle's per-port outcomes
//! into the [`SimState`]; the engine replays those outcomes into its
//! [`SimStats`] and optional [`TraceRecorder`].

use crate::config::SimConfig;
use crate::observe::{NoopObserver, SimObserver};
use crate::request::{PortId, PortOutcome, Request};
use crate::stats::SimStats;
use crate::trace::TraceRecorder;
use crate::workload::Workload;
use vecmem_simcore::{step::step, CycleEvents, SimState};

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
    trace: Option<TraceRecorder>,
}

impl Engine {
    /// A fresh engine for the given configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self {
            state: SimState::new(&config),
            stats: SimStats::new(config.num_ports()),
            trace: None,
            config,
        }
    }

    /// Enables trace recording for the first `capacity` cycles.
    #[must_use]
    pub fn with_trace(mut self, capacity: u64) -> Self {
        self.trace = Some(TraceRecorder::new(self.config.geometry.banks(), capacity));
        self
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

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Current cyclic-priority rotation offset.
    #[must_use]
    pub fn rotation(&self) -> usize {
        self.state.rotation()
    }

    /// True when `bank` is still active at the current clock period.
    #[must_use]
    pub fn bank_busy(&self, bank: u64) -> bool {
        self.state.is_busy(bank)
    }

    /// Remaining busy periods of every bank at the current clock period —
    /// part of the state signature for cyclic-state detection.
    #[must_use]
    pub fn bank_residues(&self) -> Vec<u8> {
        self.state.residues_vec()
    }

    /// One kernel step plus the engine's bookkeeping: statistics and trace
    /// marks replayed from the per-port outcomes the kernel left in the
    /// state. Delays are recorded before grants so that, within one clock
    /// period, a grant's digit wins the trace cell over a competitor's
    /// delay mark (the paper's figures show e.g. "1<<<<<222222": the digit
    /// at the grant cycle, delay marks over the remaining busy cells).
    fn step_kernel<W: Workload, O: SimObserver>(
        &mut self,
        workload: &mut W,
        observer: &mut O,
    ) -> CycleEvents {
        let now = self.state.now();
        let events = step(&self.config, &mut self.state, workload, observer);
        let hold = self.config.geometry.bank_cycle();
        for ev in self.state.outcomes() {
            if let PortOutcome::Delayed(kind) = ev.outcome {
                self.stats.record_conflict(ev.port, kind);
                if let Some(t) = self.trace.as_mut() {
                    t.mark_delay(ev.request.bank, now, ev.port, kind);
                }
            }
        }
        for ev in self.state.outcomes() {
            if ev.outcome == PortOutcome::Granted {
                self.stats.record_grant(ev.port);
                self.stats.record_wait(ev.port, ev.wait);
                if let Some(t) = self.trace.as_mut() {
                    t.mark_grant(ev.request.bank, now, hold, ev.port);
                }
            }
        }
        self.stats.tick();
        events
    }

    /// Simulates one clock period and returns each active port's outcome.
    ///
    /// Equivalent to [`Self::step_with`] with a [`NoopObserver`]; the two
    /// paths monomorphise to identical code.
    pub fn step<W: Workload>(&mut self, workload: &mut W) -> Vec<(PortId, Request, PortOutcome)> {
        self.step_with(workload, &mut NoopObserver)
    }

    /// Simulates one clock period, reporting every grant, delay, bank
    /// transition and cycle summary to `observer`.
    ///
    /// The observer is a generic parameter so the disabled
    /// ([`NoopObserver`]) path compiles to exactly the unobserved engine:
    /// the callbacks inline to nothing and the `O::ENABLED`-gated
    /// bookkeeping is removed as dead code.
    pub fn step_with<W: Workload, O: SimObserver>(
        &mut self,
        workload: &mut W,
        observer: &mut O,
    ) -> Vec<(PortId, Request, PortOutcome)> {
        self.step_kernel(workload, observer);
        self.state
            .outcomes()
            .iter()
            .map(|ev| (ev.port, ev.request, ev.outcome))
            .collect()
    }

    /// Runs until the workload finishes or `max_cycles` elapse.
    pub fn run<W: Workload>(&mut self, workload: &mut W, max_cycles: u64) -> RunOutcome {
        self.run_with(workload, max_cycles, &mut NoopObserver)
    }

    /// Observed variant of [`Self::run`]: every cycle is reported to
    /// `observer`. Loops the kernel directly, without materialising the
    /// per-cycle outcome vectors [`Self::step_with`] returns.
    pub fn run_with<W: Workload, O: SimObserver>(
        &mut self,
        workload: &mut W,
        max_cycles: u64,
        observer: &mut O,
    ) -> RunOutcome {
        let deadline = self.state.now() + max_cycles;
        while self.state.now() < deadline {
            if workload.is_finished() {
                return RunOutcome::Finished(self.state.now());
            }
            self.step_kernel(workload, observer);
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
    use crate::pattern::{PatternPort, PatternWorkload, StridePattern};
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
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1)).with_trace(8);
        let spec = StreamSpec::new(&g, 0, 1).unwrap();
        let mut w = finite(&g, spec, 4);
        engine.run(&mut w, 100);
        let t = engine.trace().unwrap();
        assert_eq!(t.row(0, 0, 4), "11..");
        assert_eq!(t.row(1, 0, 4), ".11.");
        assert_eq!(t.row(2, 0, 4), "..11");
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
    fn bank_residues_signature() {
        let g = geom(4, 3);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        let spec = StreamSpec::new(&g, 2, 1).unwrap();
        let mut w = PatternWorkload::strided(&g, &[spec]);
        engine.step(&mut w); // grant at bank 2, busy for 3
        assert_eq!(engine.bank_residues(), vec![0, 0, 2, 0]);
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
    fn step_with_outcomes_match_state_outcomes() {
        let g = geom(8, 2);
        let mut engine = Engine::new(SimConfig::one_port_per_cpu(g, 2));
        let s1 = StreamSpec::new(&g, 0, 0).unwrap();
        let s2 = StreamSpec::new(&g, 0, 0).unwrap();
        let mut w = PatternWorkload::strided(&g, &[s1, s2]);
        let out = engine.step(&mut w);
        assert_eq!(out.len(), engine.state().outcomes().len());
        for (o, ev) in out.iter().zip(engine.state().outcomes()) {
            assert_eq!(*o, (ev.port, ev.request, ev.outcome));
        }
    }
}
