//! The artifact registry: every committed `results/` file this crate
//! produces, with the one function that renders its exact bytes.
//!
//! [`ARTIFACTS`] is the only place that says which generator, with which
//! arguments, writes which file. `vecmem reproduce` writes every entry, and
//! the root package's `tests/goldens.rs` diffs every entry against
//! `results/` byte for byte.

use crate::csv;
use crate::fig10::{self, Fig10};
use crate::figures::{self, Figure};
use crate::support::{converged, paper};
use crate::tables::{self, TheoremRow};
use std::sync::OnceLock;
use vecmem_analytic::spectrum::distance_spectrum;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::{
    finite_vector_bandwidth, measure_steady_state, transient_profile, Engine, PortId, SimConfig,
    WAIT_BUCKETS,
};
use vecmem_skew::matrix::matrix_walks;
use vecmem_skew::{BankMapping, Interleaved, LinearSkew, XorFold};
use vecmem_vproc::exec::ProgramWorkload;
use vecmem_vproc::multitask::multitask_paper;
use vecmem_vproc::scaling::scaled_triad;
use vecmem_vproc::triad::TriadExperiment;
use vecmem_vproc::MachineConfig;

/// A `results/` file name and the function that returns its exact bytes.
pub type Artifact = (&'static str, fn() -> String);

/// Every `results/` file this crate produces.
pub const ARTIFACTS: &[Artifact] = &[
    ("fig02.txt", || figures_text(&[figures::fig2()])),
    ("fig03.txt", || figures_text(&[figures::fig3()])),
    ("fig04.txt", || figures_text(&[figures::fig4()])),
    ("fig05.txt", || figures_text(&[figures::fig5()])),
    ("fig06.txt", || figures_text(&[figures::fig6()])),
    ("fig07.txt", || figures_text(&[figures::fig7()])),
    ("fig08.txt", || {
        figures_text(&[figures::fig8a(), figures::fig8b()])
    }),
    ("fig09.txt", || figures_text(&[figures::fig9()])),
    ("fig10.txt", || fig10_text(fig10_golden())),
    ("fig10.csv", || csv::fig10_csv(fig10_golden())),
    ("table_theorems_m16_nc4.txt", || {
        theorem_table_text(16, 4, theorems_m16_nc4())
    }),
    ("table_theorems_m16_nc4.csv", || {
        csv::theorems_csv(theorems_m16_nc4())
    }),
    ("table_theorems_m13_nc4.txt", || {
        theorem_table_text(13, 4, &tables::theorem_table(13, 4))
    }),
    ("table_kernels.txt", table_kernels),
    ("table_latency.txt", table_latency),
    ("table_matrix.txt", table_matrix),
    ("table_multitask.txt", table_multitask),
    ("table_priority.txt", table_priority),
    ("table_random.txt", table_random),
    ("table_scaling.txt", table_scaling),
    ("table_sections.txt", table_sections),
    ("table_skewing.txt", table_skewing),
    ("table_spectrum.txt", table_spectrum),
    ("table_transient.txt", table_transient),
];

/// Fig. 10 at its golden size, computed once per process for the two
/// files that render it.
fn fig10_golden() -> &'static Fig10 {
    static FIG10: OnceLock<Fig10> = OnceLock::new();
    FIG10.get_or_init(|| fig10::run(16))
}

/// The theorem table at `m = 16, n_c = 4`, computed once per process for
/// the two files that render it.
fn theorems_m16_nc4() -> &'static [TheoremRow] {
    static ROWS: OnceLock<Vec<TheoremRow>> = OnceLock::new();
    ROWS.get_or_init(|| tables::theorem_table(16, 4))
}

/// Trace figures with their exact steady states, one report per figure
/// (Fig. 8's two panels share a file).
fn figures_text(figs: &[Figure]) -> String {
    figures::run_all(figs, 36)
        .iter()
        .map(|run| format!("{}\n", figures::report(run)))
        .collect()
}

/// Fig. 10's five series as a table with two bar charts.
#[must_use]
pub fn fig10_text(fig: &Fig10) -> String {
    format!("{}\n", fig10::render(fig))
}

/// The theorem-validation table followed by its row and mismatch count.
#[must_use]
pub fn theorem_table_text(m: u64, nc: u64, rows: &[TheoremRow]) -> String {
    let bad = rows.iter().filter(|r| !r.ok).count();
    format!(
        "{}\n{} rows, {bad} mismatches\n",
        tables::render_theorem_table(m, nc, rows),
        rows.len()
    )
}

/// Experiment E2: stride sensitivity of copy/daxpy/dot on the X-MP CPU.
fn table_kernels() -> String {
    let rows = tables::kernel_table(16, 1024);
    let mut out = format!("{:>7}", "INC");
    for r in &rows {
        out.push_str(&format!(" {:>10}", r.kernel));
    }
    out.push('\n');
    for i in 0..16 {
        out.push_str(&format!("{:>7}", i + 1));
        for r in &rows {
            out.push_str(&format!(" {:>10}", r.cycles[i]));
        }
        out.push('\n');
    }
    out
}

/// Per-request wait-time distribution of the triad (latency view of the
/// Fig. 10 conflict series): histogram of clock periods each triad
/// request spent delayed, per increment.
fn table_latency() -> String {
    let mut out = String::from(
        "Triad wait-time histograms (contended run); columns = waits of 0,1,..,7,8+ cycles\n",
    );
    out.push_str(&format!("{:>4} {:>9}", "INC", "mean"));
    for b in 0..WAIT_BUCKETS - 1 {
        out.push_str(&format!(" {b:>7}"));
    }
    out.push_str(&format!(" {:>7} {:>8}\n", "8+", "max"));
    for inc in 1..=16 {
        let exp = TriadExperiment::paper(inc);
        let mut workload = ProgramWorkload::new(
            &exp.sim.geometry,
            exp.machine,
            exp.build_program(),
            &exp.background_streams(),
            exp.sim.num_ports(),
        );
        let mut engine = Engine::new(exp.sim.clone());
        #[expect(
            clippy::expect_used,
            reason = "the paper's triad is a finite program; 1M cycles is far past the longest"
        )]
        engine
            .run(&mut workload, 1_000_000)
            .finished_cycles()
            .expect("triad finishes");
        let mut hist = [0u64; WAIT_BUCKETS];
        let (mut max, mut waits, mut grants) = (0, 0u64, 0u64);
        for p in 0..3 {
            let s = engine.stats().port(PortId(p));
            for (bucket, &v) in hist.iter_mut().zip(&s.wait_histogram) {
                *bucket += v;
            }
            max = max.max(s.max_wait);
            waits += s.total_wait();
            grants += s.grants;
        }
        out.push_str(&format!("{inc:>4} {:>9.3}", waits as f64 / grants as f64));
        for v in hist {
            out.push_str(&format!(" {v:>7}"));
        }
        out.push_str(&format!(" {max:>8}\n"));
    }
    out
}

/// Experiment E5: column / row / diagonal bandwidth of a 16 x 16 matrix
/// under each bank mapping, plus the paper's padding fix.
fn table_matrix() -> String {
    let (n, nc, banks) = (16, 4, 16);
    let mut out = format!("N = {n} matrix on {banks} banks, n_c = {nc}\n");
    out.push_str(&format!(
        "{:<34} {:>4} {:>8} {:>8} {:>9}\n",
        "scheme", "ld", "column", "row", "diagonal"
    ));
    let schemes: [Box<dyn BankMapping>; 3] = [
        Box::new(Interleaved { banks }),
        Box::new(XorFold::new(banks)),
        Box::new(LinearSkew::classic(banks)),
    ];
    for scheme in &schemes {
        for ld in [n, n + 1] {
            let w = converged(matrix_walks(scheme.as_ref(), nc, ld));
            out.push_str(&format!(
                "{:<34} {:>4} {:>8} {:>8} {:>9}\n",
                scheme.name(),
                ld,
                w.column.to_string(),
                w.row.to_string(),
                w.diagonal.to_string()
            ));
        }
    }
    out
}

/// Experiment E3: the conclusion's multitasking suggestion — both CPUs run
/// the triad (uniform streams) vs one CPU against the hostile unit-stride
/// background of Fig. 10.
fn table_multitask() -> String {
    let mut out =
        String::from("Multitasked triad (2x1024 elements) vs hostile background (1024 elements)\n");
    out.push_str(&format!(
        "{:>4} {:>14} {:>14} {:>18}\n",
        "INC", "hostile", "multitasked", "uniform speedup"
    ));
    for inc in 1..=16 {
        let hostile = TriadExperiment::paper(inc).run().cycles;
        let uniform = multitask_paper(inc, MachineConfig::cray_xmp());
        // Per-triad time of the multitasked run is cycles/2 (two triads).
        let per_triad = uniform.cycles as f64 / 2.0;
        out.push_str(&format!(
            "{:>4} {:>14} {:>14} {:>17.2}x\n",
            inc,
            hostile,
            uniform.cycles,
            hostile as f64 / per_triad
        ));
    }
    out
}

/// Ablation A1: fixed vs cyclic priority on the linked-conflict geometry.
fn table_priority() -> String {
    let mut out = String::from("Priority ablation: m=12, s=3, nc=3, d1=d2=1 (same CPU)\n");
    out.push_str(&format!("{:>4} {:>8} {:>8}\n", "b2", "fixed", "cyclic"));
    for r in tables::priority_ablation() {
        out.push_str(&format!(
            "{:>4} {:>8} {:>8}\n",
            r.b2,
            r.fixed.to_string(),
            r.cyclic.to_string()
        ));
    }
    out
}

/// Experiment E1: random-access vs vector-mode bandwidth on one memory.
fn table_random() -> String {
    let (m, nc) = (16, 4);
    let mut out = format!("Random access vs vector mode, m = {m}, n_c = {nc}\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>10} {:>12} {:>10}\n",
        "ports", "random", "vector", "hellerman", "capacity"
    ));
    for r in tables::random_vs_vector_table(m, nc, 8) {
        out.push_str(&format!(
            "{:>6} {:>10.3} {:>10} {:>12.3} {:>10.3}\n",
            r.ports,
            r.random,
            r.vector.map_or("-".to_string(), |v| format!("{v:.3}")),
            r.hellerman,
            r.capacity
        ));
    }
    out
}

/// Experiment E7: multi-CPU scaling of the triad with bank count growing
/// alongside the CPU count (X-MP/2 -> X-MP/4-style growth), against the
/// same CPUs crammed onto an unscaled 16-bank memory.
fn table_scaling() -> String {
    let baseline = scaled_triad(1, 16, 1);
    let mut out =
        String::from("Triad scaling, INC = 1, cyclic priority. Efficiency = bandwidth /\n");
    out.push_str(&format!(
        "(n x single-CPU-on-16-banks bandwidth = n x {:.3}).\n",
        baseline.bandwidth
    ));
    out.push_str("\n16 banks per CPU (banks grow with CPUs):\n");
    out.push_str(&format!(
        "{:>5} {:>7} {:>9} {:>11} {:>11}\n",
        "CPUs", "banks", "cycles", "bandwidth", "efficiency"
    ));
    let row = |r: vecmem_vproc::scaling::ScalingResult| {
        format!(
            "{:>5} {:>7} {:>9} {:>11.3} {:>10.1}%\n",
            r.cpus,
            r.banks,
            r.cycles,
            r.bandwidth,
            100.0 * r.bandwidth / (baseline.bandwidth * r.cpus as f64)
        )
    };
    for cpus in 1..=3 {
        out.push_str(&row(scaled_triad(cpus, 16, 1)));
    }
    out.push_str("\nUnscaled memory (8 banks per CPU at 2 CPUs = 16 banks total):\n");
    out.push_str(&row(scaled_triad(2, 8, 1)));
    out
}

/// Ablation A2: cyclic vs consecutive bank-to-section mapping (Fig. 9).
fn table_sections() -> String {
    let mut out =
        String::from("Section-mapping ablation: m=12, s=3, nc=3, d1=d2=1, fixed priority\n");
    out.push_str(&format!(
        "{:>4} {:>10} {:>12}\n",
        "b2", "cyclic", "consecutive"
    ));
    for r in tables::mapping_ablation() {
        out.push_str(&format!(
            "{:>4} {:>10} {:>12}\n",
            r.b2,
            r.cyclic_map.to_string(),
            r.consecutive_map.to_string()
        ));
    }
    out
}

/// Ablation A3: skewing schemes vs plain interleaving (paper conclusion).
fn table_skewing() -> String {
    let mut out = String::new();
    for table in tables::skewing_comparison() {
        out.push_str(&format!("scheme: {}\n", table.scheme));
        out.push_str(&format!(
            "{:>7} {:>8} {:>14}\n",
            "stride", "solo", "against-unit"
        ));
        for row in &table.rows {
            out.push_str(&format!(
                "{:>7} {:>8} {:>14}\n",
                row.stride,
                row.solo.to_string(),
                row.against_unit.to_string()
            ));
        }
        out.push('\n');
    }
    out
}

/// Experiment E4: classification counts over all stride pairs for a
/// family of geometries (the designer's view of Theorems 2-7).
fn table_spectrum() -> String {
    let mut out = format!(
        "{:>6} {:>4} | {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>8}\n",
        "m",
        "nc",
        "selflim",
        "disjoint",
        "conf-free",
        "uniq-bar",
        "barrier?",
        "conflict",
        "full-bw%"
    );
    for (m, nc) in [
        (8u64, 4u64),
        (16, 4),
        (32, 4),
        (64, 4),
        (16, 2),
        (16, 8),
        (13, 4),
        (17, 4),
    ] {
        let s = distance_spectrum(&paper(Geometry::unsectioned(m, nc)));
        out.push_str(&format!(
            "{:>6} {:>4} | {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>7.1}%\n",
            m,
            nc,
            s.self_limited,
            s.disjoint_sets,
            s.conflict_free,
            s.unique_barrier,
            s.barrier_possible,
            s.conflicting,
            100.0 * s.full_bandwidth_fraction(),
        ));
    }
    out
}

/// Experiment E8: startup transients — what the paper's "neglecting
/// startup times" actually neglects, per distance pair and vector length.
fn table_transient() -> String {
    let config = SimConfig::one_port_per_cpu(paper(Geometry::unsectioned(16, 4)), 2);
    let mut out =
        String::from("Startup transients on m = 16, n_c = 4 (d1 = 1 vs d2), all start banks:\n");
    out.push_str(&format!(
        "{:>4} {:>10} {:>10} | {:>9} {:>9} {:>10}\n",
        "d2", "mean", "max", "bw(n=64)", "bw(n=1k)", "asymptote"
    ));
    for d2 in 1..16u64 {
        let p = converged(transient_profile(&config, 1, d2, 5_000_000));
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 1,
            },
            StreamSpec {
                start_bank: 1,
                distance: d2,
            },
        ];
        let short = finite_vector_bandwidth(&config, &specs, 64);
        let long = finite_vector_bandwidth(&config, &specs, 1024);
        let asym = converged(measure_steady_state(&config, &specs, 5_000_000)).beff;
        out.push_str(&format!(
            "{:>4} {:>10.1} {:>10} | {:>9.3} {:>9.3} {:>10}\n",
            d2,
            p.mean,
            p.max,
            short,
            long,
            asym.to_string()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::ARTIFACTS;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len());
    }
}
