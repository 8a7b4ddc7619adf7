//! Multitasking: the paper's suggested escape from barrier-situations.
//!
//! The conclusion notes that barrier-situations "cannot be alleviated by
//! architectural means. In order to build an environment with uniform
//! access streams it may be worthwhile to consider the multitasking option
//! (Cray X-MP)". This module runs that experiment: both CPUs execute the
//! *same* triad (on disjoint halves of the data), so all six ports carry
//! streams of the same distance — the uniform environment — and the result
//! can be compared against the hostile unit-stride background of Fig. 10.

use crate::exec::ProgramWorkload;
use crate::machine::MachineConfig;
use crate::program::{Program, Segment};
use crate::triad::TriadExperiment;
use vecmem_banksim::{ConflictCounts, Engine, PortId, RunOutcome};

/// Result of the multitasked triad: both CPUs run `n` elements each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultitaskResult {
    /// Loop increment.
    pub inc: u64,
    /// Clock periods until both CPUs finished.
    pub cycles: u64,
    /// Conflicts suffered by CPU 0's ports.
    pub cpu0_conflicts: ConflictCounts,
    /// Conflicts suffered by CPU 1's ports.
    pub cpu1_conflicts: ConflictCounts,
    /// Total elements transferred (8·n when complete).
    pub grants: u64,
}

/// Runs the triad on both CPUs simultaneously: CPU 1 executes the same
/// loop over the second half of each (doubled) array, offset by
/// `half_offset` words so the two CPUs' streams are staggered in memory.
#[must_use]
pub fn run_multitasked(base: &TriadExperiment, half_offset: u64) -> MultitaskResult {
    let program0 = base.build_program();
    // CPU 1 runs the identical program shifted by half_offset words and
    // mapped onto ports 3-5.
    let mut program = Program::new();
    let mut remap = Vec::with_capacity(program0.len());
    for seg in program0.segments() {
        let id = program.push(Segment {
            port: seg.port,
            start_address: seg.start_address,
            stride: seg.stride,
            count: seg.count,
            deps: seg.deps.iter().map(|d| remap[d.0]).collect(),
        });
        remap.push(id);
    }
    let n0 = remap.len();
    let mut remap1 = Vec::with_capacity(n0);
    for seg in program0.segments() {
        let id = program.push(Segment {
            port: PortId(seg.port.0 + 3),
            start_address: seg.start_address + half_offset,
            stride: seg.stride,
            count: seg.count,
            deps: seg.deps.iter().map(|d| remap1[d.0]).collect(),
        });
        remap1.push(id);
    }
    let mut workload = ProgramWorkload::new(
        &base.sim.geometry,
        base.machine,
        program,
        &[],
        base.sim.num_ports(),
    );
    let mut engine = Engine::new(base.sim.clone());
    let bound = 8 * base.n * base.sim.geometry.bank_cycle() + 100_000;
    #[expect(
        clippy::panic,
        reason = "`bound` is twice the fully serialised run time plus 100 000 cycles"
    )]
    let cycles = match engine.run(&mut workload, bound) {
        RunOutcome::Finished(c) => c,
        RunOutcome::CyclesExhausted => panic!("multitasked triad did not finish"),
    };
    let mut cpu0 = ConflictCounts::default();
    let mut cpu1 = ConflictCounts::default();
    for p in 0..3 {
        let c = engine.stats().port(PortId(p)).conflicts;
        cpu0.bank += c.bank;
        cpu0.simultaneous += c.simultaneous;
        cpu0.section += c.section;
        let c = engine.stats().port(PortId(p + 3)).conflicts;
        cpu1.bank += c.bank;
        cpu1.simultaneous += c.simultaneous;
        cpu1.section += c.section;
    }
    MultitaskResult {
        inc: base.inc,
        cycles,
        cpu0_conflicts: cpu0,
        cpu1_conflicts: cpu1,
        grants: engine.stats().total_grants(),
    }
}

/// The default multitasked run for a given increment: each CPU processes
/// 1024 elements, CPU 1 offset so its first elements sit `n_c + 1` banks
/// behind CPU 0's (the uniform-stream stagger).
#[must_use]
pub fn multitask_paper(inc: u64, machine: MachineConfig) -> MultitaskResult {
    let mut base = TriadExperiment::paper(inc);
    base.machine = machine;
    base.with_background = false;
    let offset = base.sim.geometry.bank_cycle() + 1;
    run_multitasked(&base, offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multitask_completes_all_traffic() {
        let r = multitask_paper(1, MachineConfig::cray_xmp());
        assert_eq!(r.grants, 2 * 4 * 1024);
        assert!(r.cycles >= 2 * 1024, "port floor");
    }

    #[test]
    fn uniform_streams_beat_hostile_background() {
        // The conclusion's claim, quantified: per-element, the multitasked
        // (uniform) environment processes CPU 0's triad no slower than the
        // Fig. 10 environment where the other CPU runs stride-1 hammers —
        // for the increments where the background caused barriers (2, 3).
        for inc in [2u64, 3] {
            let hostile = TriadExperiment::paper(inc).run().cycles;
            let uniform = multitask_paper(inc, MachineConfig::cray_xmp()).cycles;
            // The multitasked run does 2x the work; compare per-triad time.
            assert!(
                uniform < 2 * hostile,
                "INC={inc}: uniform {uniform} vs 2x hostile {}",
                2 * hostile
            );
        }
    }

    #[test]
    fn both_cpus_make_similar_progress() {
        // The symmetric workload under the cyclic rule should not starve
        // either CPU: conflict totals stay within a small factor.
        let r = multitask_paper(1, MachineConfig::cray_xmp());
        let a = r.cpu0_conflicts.total().max(1);
        let b = r.cpu1_conflicts.total().max(1);
        let ratio = a.max(b) as f64 / a.min(b) as f64;
        assert!(ratio < 5.0, "conflict imbalance: {r:?}");
    }

    #[test]
    fn self_conflicting_increment_still_bad() {
        let good = multitask_paper(1, MachineConfig::cray_xmp());
        let bad = multitask_paper(8, MachineConfig::cray_xmp());
        assert!(
            bad.cycles as f64 > 1.5 * good.cycles as f64,
            "INC=8 ({}) should be much slower than INC=1 ({})",
            bad.cycles,
            good.cycles
        );
    }
}
