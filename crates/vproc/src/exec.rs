//! Execution of vector programs on the memory simulator.
//!
//! [`ProgramWorkload`] adapts a [`Program`] (plus optional infinite
//! background streams on other ports) to the simulator's
//! [`Workload`] interface, enforcing per-port instruction order,
//! cross-port dependencies with the machine's dependency latency, and
//! issue overhead between consecutive instructions on a port.

use crate::machine::MachineConfig;
use crate::program::{Program, SegmentId};
use vecmem_analytic::Geometry;
use vecmem_banksim::{PortId, Request, Workload};

/// Per-segment runtime state.
#[derive(Debug, Clone)]
struct SegmentState {
    issued: u64,
    completed_at: Option<u64>,
}

/// An infinite strided background stream bound to a port (the "other CPU"
/// of the paper's experiment).
#[derive(Debug, Clone, Copy)]
pub struct BackgroundStream {
    /// Port running the stream.
    pub port: PortId,
    /// Word address of the first element.
    pub start_address: u64,
    /// Address stride.
    pub stride: u64,
}

/// A [`Program`] plus background streams, ready to run on the engine.
#[derive(Debug, Clone)]
pub struct ProgramWorkload {
    program: Program,
    machine: MachineConfig,
    banks: u64,
    states: Vec<SegmentState>,
    /// Per port: queue of segment ids and the index of the current one.
    queues: Vec<Vec<SegmentId>>,
    cursor: Vec<usize>,
    /// Per port: earliest cycle the next segment may issue (issue overhead).
    port_ready_at: Vec<u64>,
    /// Background streams indexed by port: (start_address, stride, issued).
    background: Vec<Option<(u64, u64, u64)>>,
}

impl ProgramWorkload {
    /// Builds a workload for `n_ports` engine ports.
    #[must_use]
    pub fn new(
        geom: &Geometry,
        machine: MachineConfig,
        program: Program,
        background: &[BackgroundStream],
        n_ports: usize,
    ) -> Self {
        let queues = program.port_queues(n_ports);
        let states = program
            .segments()
            .iter()
            .map(|_| SegmentState {
                issued: 0,
                completed_at: None,
            })
            .collect();
        let mut bg = vec![None; n_ports];
        for b in background {
            assert!(
                queues[b.port.0].is_empty(),
                "background stream collides with program port {}",
                b.port.0
            );
            bg[b.port.0] = Some((b.start_address, b.stride, 0));
        }
        Self {
            program,
            machine,
            banks: geom.banks(),
            states,
            cursor: vec![0; n_ports],
            queues,
            port_ready_at: vec![0; n_ports],
            background: bg,
        }
    }

    /// The current segment of a port, if any remain.
    fn current_segment(&self, port: PortId) -> Option<SegmentId> {
        self.queues[port.0].get(self.cursor[port.0]).copied()
    }

    /// True when all of `id`'s dependencies completed at least
    /// `dep_latency` cycles ago.
    fn deps_ready(&self, id: SegmentId, now: u64) -> bool {
        self.program.segment(id).deps.iter().all(|d| {
            self.states[d.0]
                .completed_at
                .is_some_and(|c| now > c + self.machine.dep_latency)
        })
    }

    /// Progress of the program in elements granted so far.
    #[must_use]
    pub fn elements_done(&self) -> u64 {
        self.states.iter().map(|s| s.issued).sum()
    }

    /// Completion cycle of a segment, once finished.
    #[must_use]
    pub fn segment_completed_at(&self, id: SegmentId) -> Option<u64> {
        self.states[id.0].completed_at
    }
}

impl Workload for ProgramWorkload {
    fn pending(&self, port: PortId, now: u64) -> Option<Request> {
        if let Some((start, stride, issued)) = self.background[port.0] {
            let addr = start as u128 + issued as u128 * stride as u128;
            return Some(Request::to_bank((addr % self.banks as u128) as u64));
        }
        let id = self.current_segment(port)?;
        if now < self.port_ready_at[port.0] || !self.deps_ready(id, now) {
            return None;
        }
        let seg = self.program.segment(id);
        let state = &self.states[id.0];
        let addr = seg.start_address as u128 + state.issued as u128 * seg.stride as u128;
        Some(Request::to_bank((addr % self.banks as u128) as u64))
    }

    fn granted(&mut self, port: PortId, now: u64) {
        if let Some((_, _, issued)) = self.background[port.0].as_mut() {
            *issued += 1;
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "only a port that issued a request is granted, and an idle port issues none"
        )]
        let id = self.current_segment(port).expect("grant on idle port");
        let seg_count = self.program.segment(id).count;
        let state = &mut self.states[id.0];
        state.issued += 1;
        if state.issued == seg_count {
            state.completed_at = Some(now);
            self.cursor[port.0] += 1;
            self.port_ready_at[port.0] = now + 1 + self.machine.issue_overhead;
        }
    }

    fn is_finished(&self) -> bool {
        // Background streams are endless by construction; the workload is
        // finished when the *program* is.
        self.states.iter().all(|s| s.completed_at.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Segment;
    use vecmem_banksim::{Engine, RunOutcome, SimConfig};

    fn geom() -> Geometry {
        Geometry::unsectioned(16, 4).unwrap()
    }

    fn simple_segment(port: usize, addr: u64, count: u64, deps: Vec<SegmentId>) -> Segment {
        Segment {
            port: PortId(port),
            start_address: addr,
            stride: 1,
            count,
            deps,
        }
    }

    #[test]
    fn single_segment_runs_to_completion() {
        let g = geom();
        let mut p = Program::new();
        p.push(simple_segment(0, 0, 8, vec![]));
        let mut w = ProgramWorkload::new(&g, MachineConfig::ideal(), p, &[], 1);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        let out = engine.run(&mut w, 1000);
        assert_eq!(out, RunOutcome::Finished(8));
        assert_eq!(w.elements_done(), 8);
    }

    #[test]
    fn dependency_gates_issue() {
        let g = geom();
        let mut p = Program::new();
        let a = p.push(simple_segment(0, 0, 4, vec![]));
        let b = p.push(simple_segment(1, 8, 4, vec![a]));
        let machine = MachineConfig {
            dep_latency: 5,
            ..MachineConfig::ideal()
        };
        let mut w = ProgramWorkload::new(&g, machine, p, &[], 2);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 2));
        engine.run(&mut w, 1000);
        // Segment a completes at cycle 3; b may issue from cycle 3 + 5 + 1.
        assert_eq!(w.segment_completed_at(a), Some(3));
        assert_eq!(w.segment_completed_at(b), Some(9 + 3));
    }

    #[test]
    fn issue_overhead_between_port_segments() {
        let g = geom();
        let mut p = Program::new();
        let a = p.push(simple_segment(0, 0, 2, vec![]));
        let b = p.push(simple_segment(0, 8, 2, vec![]));
        let machine = MachineConfig {
            issue_overhead: 4,
            ..MachineConfig::ideal()
        };
        let mut w = ProgramWorkload::new(&g, machine, p, &[], 1);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        engine.run(&mut w, 1000);
        // a completes at 1; b may start at 1 + 1 + 4 = 6, completes at 7.
        assert_eq!(w.segment_completed_at(a), Some(1));
        assert_eq!(w.segment_completed_at(b), Some(7));
    }

    #[test]
    fn background_stream_runs_forever() {
        let g = geom();
        let mut p = Program::new();
        p.push(simple_segment(0, 0, 4, vec![]));
        let bg = BackgroundStream {
            port: PortId(1),
            start_address: 8,
            stride: 1,
        };
        let mut w = ProgramWorkload::new(&g, MachineConfig::ideal(), p, &[bg], 2);
        let mut engine = Engine::new(SimConfig::one_port_per_cpu(g, 2));
        let out = engine.run(&mut w, 1000);
        // Program finishes even though the background stream never does.
        assert_eq!(out, RunOutcome::Finished(4));
        assert_eq!(engine.stats().port(PortId(1)).grants, 4);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn background_on_program_port_rejected() {
        let g = geom();
        let mut p = Program::new();
        p.push(simple_segment(0, 0, 4, vec![]));
        let bg = BackgroundStream {
            port: PortId(0),
            start_address: 8,
            stride: 1,
        };
        let _ = ProgramWorkload::new(&g, MachineConfig::ideal(), p, &[bg], 1);
    }

    #[test]
    fn port_order_enforced_without_deps() {
        // Two segments on one port execute strictly in order even with no
        // dependency edge.
        let g = geom();
        let mut p = Program::new();
        let a = p.push(simple_segment(0, 0, 3, vec![]));
        let b = p.push(simple_segment(0, 8, 3, vec![]));
        let mut w = ProgramWorkload::new(&g, MachineConfig::ideal(), p, &[], 1);
        let mut engine = Engine::new(SimConfig::single_cpu(g, 1));
        engine.run(&mut w, 100);
        let ca = w.segment_completed_at(a).unwrap();
        let cb = w.segment_completed_at(b).unwrap();
        assert!(ca < cb);
        assert_eq!(ca, 2);
        assert_eq!(cb, 5);
    }
}
