//! The paper's §IV experiment: the Fortran triad
//!
//! ```fortran
//!       DO 1 I = 1, N*INC, INC
//!     1 A(I) = B(I) + C(I) * D(I)
//! ```
//!
//! executed in vector mode on one CPU of a two-CPU, 16-bank Cray X-MP
//! (`n = 1024` elements regardless of the increment, arrays in a COMMON
//! block with `IDIM = 16·1024 + 1`), while the other CPU "executes a
//! program that is tailored so that the memory is constantly accessed by
//! all three ports with a distance of 1".
//!
//! Per 64-element strip the triad uses the CPU's two read ports and one
//! write port as the real machine must: port A loads `C` then `B`, port B
//! loads `D`, and the store of `A` chains behind the multiply/add.

use crate::exec::{BackgroundStream, ProgramWorkload};
use crate::layout::CommonBlock;
use crate::machine::MachineConfig;
use crate::program::{Program, Segment, SegmentId};
use vecmem_banksim::{
    ConflictCounts, Engine, NoopObserver, PortId, PriorityRule, RunOutcome, SimConfig, SimObserver,
};

/// Parameters of one triad run.
#[derive(Debug, Clone)]
pub struct TriadExperiment {
    /// The Fortran loop increment (stride), `1..=16` in the paper's Fig. 10.
    pub inc: u64,
    /// Vector length `n` (number of elements, 1024 in the paper).
    pub n: u64,
    /// Whether the other CPU runs its three unit-stride streams.
    pub with_background: bool,
    /// Machine timing model.
    pub machine: MachineConfig,
    /// Memory-system configuration (two CPUs × three ports by default).
    pub sim: SimConfig,
    /// Array layout.
    pub layout: CommonBlock,
}

impl TriadExperiment {
    /// The paper's configuration for a given increment.
    ///
    /// Uses the cyclic priority rule: with a fixed rule the triad's CPU
    /// would starve the other CPU outright at section-aligned strides,
    /// whereas with rotating inter-CPU arbitration the simulation
    /// reproduces the paper's measured ranking (best increments 1, 6, 11;
    /// INC = 9 worse than 1; power-of-two increments worst).
    #[must_use]
    pub fn paper(inc: u64) -> Self {
        Self {
            inc,
            n: 1024,
            with_background: true,
            machine: MachineConfig::cray_xmp(),
            sim: SimConfig::cray_xmp_dual().with_priority(PriorityRule::Cyclic),
            layout: CommonBlock::paper_triad(),
        }
    }

    /// Same but with the other CPU shut off (Fig. 10b).
    #[must_use]
    pub fn paper_alone(inc: u64) -> Self {
        Self {
            with_background: false,
            ..Self::paper(inc)
        }
    }

    /// Builds the triad's vector program (ports 0–2 of the first CPU).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "every constructor lays out `CommonBlock::paper_triad()`, which declares A, B, C and D"
    )]
    pub fn build_program(&self) -> Program {
        let a = self.layout.get("A").expect("layout has A").clone();
        let b = self.layout.get("B").expect("layout has B").clone();
        let c = self.layout.get("C").expect("layout has C").clone();
        let d = self.layout.get("D").expect("layout has D").clone();
        let mut program = Program::new();
        let strips = self.machine.strips(self.n);
        let mut stores: Vec<SegmentId> = Vec::with_capacity(strips as usize);
        for k in 0..strips {
            let count = self.machine.strip_len(self.n, k);
            let offset = k * self.machine.vector_length * self.inc;
            // Vector-register pressure: loads of strip k wait for the store
            // of strip k - lookahead to retire.
            let pressure: Vec<SegmentId> =
                if self.machine.strip_lookahead != u64::MAX && k >= self.machine.strip_lookahead {
                    vec![stores[(k - self.machine.strip_lookahead) as usize]]
                } else {
                    Vec::new()
                };
            let load_c = program.push(Segment {
                port: PortId(0),
                start_address: c.base() + offset,
                stride: self.inc,
                count,
                deps: pressure.clone(),
            });
            let load_d = program.push(Segment {
                port: PortId(1),
                start_address: d.base() + offset,
                stride: self.inc,
                count,
                deps: pressure.clone(),
            });
            let load_b = program.push(Segment {
                port: PortId(0),
                start_address: b.base() + offset,
                stride: self.inc,
                count,
                deps: pressure,
            });
            let store_a = program.push(Segment {
                port: PortId(2),
                start_address: a.base() + offset,
                stride: self.inc,
                count,
                deps: vec![load_c, load_d, load_b],
            });
            stores.push(store_a);
        }
        program
    }

    /// The other CPU's three unit-stride streams (ports 3–5), staggered
    /// `n_c + 1` banks apart so that, undisturbed, they run conflict-free at
    /// full bandwidth: with equal distances the pairwise bank separation
    /// must be at least `n_c` in both directions (Theorem 3 with
    /// `gcd(m, 0) = m`), and the `n_c + 1` stagger also keeps the three
    /// simultaneous requests in three different sections every cycle.
    #[must_use]
    pub fn background_streams(&self) -> Vec<BackgroundStream> {
        if !self.with_background {
            return Vec::new();
        }
        let spacing = self.sim.geometry.bank_cycle() + 1;
        (0..3)
            .map(|i| BackgroundStream {
                port: PortId(3 + i),
                start_address: i as u64 * spacing,
                stride: 1,
            })
            .collect()
    }

    /// Runs the experiment and reports the triad's timing and conflicts.
    #[must_use]
    pub fn run(&self) -> TriadResult {
        self.run_observed(&mut NoopObserver)
    }

    /// Like [`Self::run`], but streams every engine event into `observer`
    /// (e.g. a `vecmem-obs` metrics registry or event log). With
    /// [`NoopObserver`] this is exactly [`Self::run`].
    #[must_use]
    pub fn run_observed<O: SimObserver>(&self, observer: &mut O) -> TriadResult {
        let program = self.build_program();
        let background = self.background_streams();
        let mut workload = ProgramWorkload::new(
            &self.sim.geometry,
            self.machine,
            program,
            &background,
            self.sim.num_ports(),
        );
        let mut engine = Engine::new(self.sim.clone());
        // Generous bound: even fully serialised the triad needs at most
        // ~ 4·n·n_c cycles plus overheads.
        let bound = 4 * self.n * self.sim.geometry.bank_cycle()
            + 64 * (self.machine.dep_latency + self.machine.issue_overhead + 4)
            + 10_000;
        let outcome = engine.run_with(&mut workload, bound, observer);
        #[expect(
            clippy::panic,
            reason = "`bound` covers the fully serialised triad, about 4·n·n_c cycles, plus overheads"
        )]
        let cycles = match outcome {
            RunOutcome::Finished(c) => c,
            RunOutcome::CyclesExhausted => panic!("triad did not finish within {bound} cycles"),
        };
        let mut triad_conflicts = ConflictCounts::default();
        let mut triad_grants = 0;
        for p in 0..3 {
            let stats = engine.stats().port(PortId(p));
            triad_conflicts = triad_conflicts + stats.conflicts;
            triad_grants += stats.grants;
        }
        let mut background_grants = 0;
        for p in 3..self.sim.num_ports() {
            background_grants += engine.stats().port(PortId(p)).grants;
        }
        TriadResult {
            inc: self.inc,
            cycles,
            triad_conflicts,
            triad_grants,
            background_grants,
        }
    }
}

/// Outcome of a triad run (one point of the Fig. 10 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriadResult {
    /// Loop increment.
    pub inc: u64,
    /// Execution time in clock periods ("CPU time" of Fig. 10a/b).
    pub cycles: u64,
    /// Conflicts suffered by the triad's three ports (Fig. 10c/d/e).
    pub triad_conflicts: ConflictCounts,
    /// Data transferred by the triad (4·n when complete).
    pub triad_grants: u64,
    /// Data transferred by the other CPU while the triad ran.
    pub background_grants: u64,
}

/// Runs the full Fig. 10 sweep: increments `1..=max_inc`.
#[must_use]
pub fn sweep_increments(max_inc: u64, with_background: bool) -> Vec<TriadResult> {
    (1..=max_inc)
        .map(|inc| {
            let exp = if with_background {
                TriadExperiment::paper(inc)
            } else {
                TriadExperiment::paper_alone(inc)
            };
            exp.run()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shape() {
        let exp = TriadExperiment::paper(1);
        let p = exp.build_program();
        // 16 strips × 4 segments.
        assert_eq!(p.len(), 64);
        // 4 arrays × 1024 elements.
        assert_eq!(p.total_elements(), 4 * 1024);
        // First strip: C on port 0, D on port 1, B on port 0, A on port 2.
        let segs = p.segments();
        assert_eq!(segs[0].port, PortId(0));
        assert_eq!(segs[1].port, PortId(1));
        assert_eq!(segs[2].port, PortId(0));
        assert_eq!(segs[3].port, PortId(2));
        // Store depends on all three loads.
        assert_eq!(segs[3].deps.len(), 3);
    }

    #[test]
    fn strip_offsets_follow_increment() {
        let exp = TriadExperiment::paper(3);
        let p = exp.build_program();
        let c0 = &p.segments()[0];
        let c1 = &p.segments()[4];
        assert_eq!(c1.start_address - c0.start_address, 64 * 3);
        assert_eq!(c0.stride, 3);
    }

    #[test]
    fn triad_completes_and_transfers_everything() {
        let r = TriadExperiment::paper_alone(1).run();
        assert_eq!(r.triad_grants, 4 * 1024);
        assert!(r.cycles > 2 * 1024, "two port-0 loads per element floor");
        assert_eq!(
            r.triad_conflicts.simultaneous, 0,
            "no other CPU -> no simultaneous"
        );
    }

    #[test]
    fn background_is_conflict_free_alone() {
        // The three staggered unit-stride streams on one X-MP CPU run at
        // full bandwidth: 3 grants per cycle once started.
        let exp = TriadExperiment::paper(1);
        let bg = exp.background_streams();
        assert_eq!(bg.len(), 3);
        // Empty triad program: ports 0-2 stay idle. (Even a single foreign
        // access can push the equal-distance background streams into a
        // permanently conflicting relative position — see
        // `tests/triad_experiment.rs` — so "alone" must mean truly alone.)
        let program = Program::new();
        let mut w = ProgramWorkload::new(
            &exp.sim.geometry,
            MachineConfig::ideal(),
            program,
            &bg,
            exp.sim.num_ports(),
        );
        let mut engine = Engine::new(exp.sim.clone());
        for _ in 0..200 {
            engine.step(&mut w);
        }
        let bg_grants: u64 = (3..6).map(|p| engine.stats().port(PortId(p)).grants).sum();
        // Ignoring a short transient, 3 per cycle.
        assert!(bg_grants >= 3 * 200 - 20, "background starved: {bg_grants}");
    }

    #[test]
    fn contended_run_is_slower_for_bad_strides() {
        // INC = 2 against the unit-stride background: the paper reports a
        // severe (~50%) slowdown versus INC = 1.
        let fast = TriadExperiment::paper(1).run();
        let slow = TriadExperiment::paper(2).run();
        assert!(
            slow.cycles as f64 > 1.25 * fast.cycles as f64,
            "INC=2 ({}) should be much slower than INC=1 ({})",
            slow.cycles,
            fast.cycles
        );
    }
}
