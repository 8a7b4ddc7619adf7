//! Multi-CPU scaling: how the memory system holds up as CPUs are added.
//!
//! The paper studies the 2-CPU X-MP; its successors (X-MP/4, Y-MP/8)
//! added CPUs and banks together. This experiment generalises the
//! multitasked triad to `n` CPUs on a memory with `banks_per_cpu · n`
//! banks, measuring how close the system stays to linear scaling — the
//! architectural question behind the paper's capacity remark
//! (`p · n_c <= m`).

use crate::exec::ProgramWorkload;
use crate::layout::CommonBlock;
use crate::program::{Program, Segment, SegmentId};
use crate::triad::TriadExperiment;
use vecmem_analytic::Geometry;
use vecmem_banksim::{BankModel, CpuId, Engine, PortId, PriorityRule, RunOutcome, SimConfig};

/// Result of an `n`-CPU scaled triad run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingResult {
    /// Number of CPUs (each with three ports).
    pub cpus: usize,
    /// Banks in the memory system.
    pub banks: u64,
    /// Clock periods until all CPUs finished their triads.
    pub cycles: u64,
    /// Aggregate bandwidth achieved (elements per clock period).
    pub bandwidth: f64,
    /// Scaling efficiency vs a single CPU on the base memory
    /// (1.0 = perfectly linear).
    pub efficiency: f64,
}

/// Builds a triad program for CPU `cpu`, offset into memory by
/// `cpu · region` words.
fn triad_program_for_cpu(base: &TriadExperiment, cpu: usize, region: u64) -> Program {
    let template = base.build_program();
    let mut program = Program::new();
    let mut remap: Vec<SegmentId> = Vec::with_capacity(template.len());
    for seg in template.segments() {
        let id = program.push(Segment {
            port: PortId(seg.port.0 + 3 * cpu),
            start_address: seg.start_address + cpu as u64 * region,
            stride: seg.stride,
            count: seg.count,
            deps: seg.deps.iter().map(|d| remap[d.0]).collect(),
        });
        remap.push(id);
    }
    program
}

/// Runs the triad on `cpus` CPUs simultaneously, scaling the bank count
/// with the CPU count (`banks_per_cpu · cpus` banks, sections scaled the
/// same way), and reports the scaling efficiency.
#[must_use]
pub fn scaled_triad(cpus: usize, banks_per_cpu: u64, inc: u64) -> ScalingResult {
    assert!(
        (1..=3).contains(&cpus),
        "trace digits and CPU count support 1..=3 CPUs"
    );
    let banks = banks_per_cpu * cpus as u64;
    let sections = banks / 4;
    #[expect(
        clippy::expect_used,
        reason = "callers pass a multiple of 4 banks per CPU, so the section count divides the bank count"
    )]
    let geom = Geometry::new(banks, sections.max(1), 4).expect("valid geometry");
    let ports: Vec<CpuId> = (0..cpus).flat_map(|c| [CpuId(c); 3]).collect();
    let sim = SimConfig {
        geometry: geom,
        ports,
        priority: PriorityRule::Cyclic,
        bank_model: BankModel::Uniform,
    };

    let mut base = TriadExperiment::paper(inc);
    base.sim = sim.clone();
    base.with_background = false;
    base.layout = CommonBlock::triad_with_idim(banks * 1024 + 1);

    // Each CPU's data region is staggered by n_c + 1 banks for uniformity.
    let region = geom.bank_cycle() + 1;
    let mut program = Program::new();
    for cpu in 0..cpus {
        let cpu_prog = triad_program_for_cpu(&base, cpu, region);
        // Merge: re-push with id remapping.
        let offset = program.len();
        for seg in cpu_prog.segments() {
            program.push(Segment {
                port: seg.port,
                start_address: seg.start_address,
                stride: seg.stride,
                count: seg.count,
                deps: seg.deps.iter().map(|d| SegmentId(d.0 + offset)).collect(),
            });
        }
    }
    let total_elements = program.total_elements();
    let mut workload = ProgramWorkload::new(&geom, base.machine, program, &[], sim.num_ports());
    let mut engine = Engine::new(sim);
    let bound = 16 * base.n * geom.bank_cycle() + 100_000;
    #[expect(
        clippy::panic,
        reason = "`bound` is far past the fully serialised run time of three triads"
    )]
    let cycles = match engine.run(&mut workload, bound) {
        RunOutcome::Finished(c) => c,
        RunOutcome::CyclesExhausted => panic!("scaled triad did not finish"),
    };
    let bandwidth = total_elements as f64 / cycles as f64;
    let single = if cpus == 1 {
        bandwidth
    } else {
        scaled_triad(1, banks_per_cpu, inc).bandwidth
    };
    ScalingResult {
        cpus,
        banks,
        cycles,
        bandwidth,
        efficiency: bandwidth / (single * cpus as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cpu_baseline() {
        let r = scaled_triad(1, 16, 1);
        assert_eq!(r.cpus, 1);
        assert_eq!(r.banks, 16);
        assert!((r.efficiency - 1.0).abs() < 1e-12);
        assert!(r.bandwidth > 1.0, "triad should move >1 word/cycle: {r:?}");
    }

    #[test]
    fn two_cpus_scale_well_with_doubled_banks() {
        let r = scaled_triad(2, 16, 1);
        assert_eq!(r.banks, 32);
        assert!(
            r.efficiency > 0.8,
            "2 CPUs on 32 banks should scale well: {r:?}"
        );
    }

    #[test]
    fn three_cpus_remain_reasonable() {
        let r = scaled_triad(3, 16, 1);
        assert_eq!(r.banks, 48);
        assert!(r.efficiency > 0.7, "{r:?}");
    }

    #[test]
    fn fixed_banks_scale_worse_than_scaled_banks() {
        // Adding a CPU WITHOUT adding banks must hurt more than adding
        // both: compare 2 CPUs on 16 banks/CPU vs 2 CPUs on 8 banks/CPU
        // (i.e. 16 total — the unscaled memory).
        let scaled = scaled_triad(2, 16, 1);
        let cramped = scaled_triad(2, 8, 1);
        assert!(
            cramped.bandwidth < scaled.bandwidth,
            "cramped {cramped:?} vs scaled {scaled:?}"
        );
    }

    #[test]
    #[should_panic(expected = "1..=3 CPUs")]
    fn too_many_cpus_rejected() {
        let _ = scaled_triad(4, 16, 1);
    }
}
