//! Theorem-validation tables and ablation tables.
//!
//! The paper has no numbered tables; its checkable artefacts are the
//! theorem predicates of §III. These generators sweep parameter ranges and
//! print analytic prediction vs. simulated steady state side by side —
//! plus two ablations (priority rule; section mapping) and the skewing
//! comparison motivated by the conclusion.

use crate::support::{converged, paper};
use vecmem_analytic::pair::{classify_pair, PairClass};
use vecmem_analytic::{Geometry, Ratio, SectionMapping, StreamSpec};
use vecmem_banksim::steady::measure_steady_state;
use vecmem_banksim::{hellerman_bandwidth, measure_random_bandwidth};
use vecmem_banksim::{PriorityRule, SimConfig, SteadyState};
use vecmem_exec::{ExecReport, ResultCache, Runner, Scenario, SweepBuilder};
use vecmem_skew::{eval, BankMapping, Interleaved, LinearSkew, PrimeInterleaved, XorFold};

/// One row of the theorem-validation table.
#[derive(Debug, Clone)]
pub struct TheoremRow {
    /// Distances under test.
    pub d1: u64,
    /// Second distance.
    pub d2: u64,
    /// Analytic classification (with `b1 = b2 = 0`).
    pub class: String,
    /// Analytic bandwidth prediction, when unconditional.
    pub predicted: Option<Ratio>,
    /// Simulated bandwidths over all `m` relative start positions:
    /// (minimum, maximum).
    pub simulated: (Ratio, Ratio),
    /// Whether the prediction (if any) matched every start position.
    pub ok: bool,
}

/// Sweeps all distance pairs on a geometry and validates Theorems 2–7.
///
/// The sweep runs on the shared `vecmem-exec` work-stealing runner with
/// isomorphism-keyed caching: start-bank sweeps of coprime-scaled distance
/// pairs are equivalent under the paper Appendix's bank renumbering, so
/// each equivalence class simulates once.
#[must_use]
pub fn theorem_table(m: u64, nc: u64) -> Vec<TheoremRow> {
    theorem_table_report(m, nc).0
}

/// Like [`theorem_table`], but also reports the execution-layer counters
/// (scenario count, threads, cache hits/misses) of the sweep.
#[must_use]
pub fn theorem_table_report(m: u64, nc: u64) -> (Vec<TheoremRow>, ExecReport) {
    let geom = paper(Geometry::unsectioned(m, nc));
    let plan = SweepBuilder::new(geom)
        .d2_upper_triangle()
        .all_start_banks()
        .cycle_budget(5_000_000)
        .build();
    let cache = ResultCache::new();
    let (outcomes, report) = Runner::new().run_cached(&plan.scenarios, &cache);
    // The plan's innermost loop is b2 over 0..m: each consecutive block of
    // m outcomes is one (d1, d2) pair's start-bank sweep, and the blocks
    // arrive in (d1, d2) order.
    let rows = plan
        .points
        .chunks(m as usize)
        .zip(outcomes.chunks(m as usize))
        .map(|(points, states)| {
            let sweep: Vec<SteadyState> = states.iter().map(|s| converged(s.clone())).collect();
            theorem_row(&geom, points[0].d1, points[0].d2, &sweep)
        })
        .collect();
    (rows, report)
}

fn theorem_row(geom: &Geometry, d1: u64, d2: u64, sweep: &[SteadyState]) -> TheoremRow {
    let s1 = StreamSpec {
        start_bank: 0,
        distance: d1,
    };
    let s2 = StreamSpec {
        start_bank: 0,
        distance: d2,
    };
    let class = classify_pair(geom, &s1, &s2, true);
    #[expect(
        clippy::expect_used,
        reason = "sweep is one chunk of m >= 1 outcomes, never empty"
    )]
    let min = sweep.iter().map(|s| s.beff).min().expect("nonempty");
    #[expect(
        clippy::expect_used,
        reason = "sweep is one chunk of m >= 1 outcomes, never empty"
    )]
    let max = sweep.iter().map(|s| s.beff).max().expect("nonempty");
    let (predicted, ok) = match class {
        PairClass::ConflictFree => (
            Some(Ratio::integer(2)),
            sweep.iter().all(|s| s.beff == Ratio::integer(2)),
        ),
        PairClass::UniqueBarrier { beff, .. } => {
            // Unique: every nondisjoint start reaches the barrier;
            // starts that make the access sets disjoint reach 2.
            let ok = sweep.iter().enumerate().all(|(b2, s)| {
                let spec2 = StreamSpec {
                    start_bank: b2 as u64,
                    distance: d2,
                };
                if vecmem_analytic::stream::access_sets_disjoint(geom, &s1, &spec2) {
                    s.beff == Ratio::integer(2)
                } else {
                    s.beff == beff
                }
            });
            (Some(beff), ok)
        }
        PairClass::BarrierPossible { .. } | PairClass::Conflicting => {
            // Only the upper bound is predicted: < 2 for nondisjoint
            // starts.
            let ok = sweep.iter().enumerate().all(|(b2, s)| {
                let spec2 = StreamSpec {
                    start_bank: b2 as u64,
                    distance: d2,
                };
                if vecmem_analytic::stream::access_sets_disjoint(geom, &s1, &spec2) {
                    s.beff == Ratio::integer(2)
                } else {
                    s.beff < Ratio::integer(2)
                }
            });
            (None, ok)
        }
        PairClass::SelfLimited | PairClass::DisjointSets => (None, true),
    };
    TheoremRow {
        d1,
        d2,
        class: format!("{}", ClassName(&class)),
        predicted,
        simulated: (min, max),
        ok,
    }
}

struct ClassName<'a>(&'a PairClass);

impl std::fmt::Display for ClassName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            PairClass::SelfLimited => write!(f, "self-limited"),
            PairClass::DisjointSets => write!(f, "disjoint-sets"),
            PairClass::ConflictFree => write!(f, "conflict-free"),
            PairClass::UniqueBarrier { beff, .. } => write!(f, "unique-barrier({beff})"),
            PairClass::BarrierPossible {
                double_conflict_possible,
                ..
            } => {
                if *double_conflict_possible {
                    write!(f, "barrier-possible+double")
                } else {
                    write!(f, "barrier-possible")
                }
            }
            PairClass::Conflicting => write!(f, "conflicting"),
        }
    }
}

/// Renders the theorem table as text.
#[must_use]
pub fn render_theorem_table(m: u64, nc: u64, rows: &[TheoremRow]) -> String {
    let mut out = format!(
        "Theorems 2-7 validation, m = {m}, n_c = {nc} (streams from different CPUs)\n\
         {:>4} {:>4}  {:<26} {:>10} {:>12} {:>6}\n",
        "d1", "d2", "classification", "predicted", "sim min/max", "ok"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>4} {:>4}  {:<26} {:>10} {:>6}/{:<6} {:>5}\n",
            r.d1,
            r.d2,
            r.class,
            r.predicted.map_or("-".into(), |p| p.to_string()),
            r.simulated.0.to_string(),
            r.simulated.1.to_string(),
            if r.ok { "yes" } else { "NO" },
        ));
    }
    out
}

/// One row of the priority-rule ablation.
#[derive(Debug, Clone)]
pub struct PriorityRow {
    /// Relative start `b2` of the second stream.
    pub b2: u64,
    /// Steady-state bandwidth under the fixed rule.
    pub fixed: Ratio,
    /// Steady-state bandwidth under the cyclic rule.
    pub cyclic: Ratio,
}

/// Ablation A1: fixed vs cyclic priority on the Fig. 8 linked-conflict
/// geometry (`m = 12`, `s = 3`, `n_c = 3`, `d1 = d2 = 1`), over every
/// relative start position.
#[must_use]
pub fn priority_ablation() -> Vec<PriorityRow> {
    let geom = paper(Geometry::new(12, 3, 3));
    (0..geom.banks())
        .map(|b2| {
            let specs = [
                StreamSpec {
                    start_bank: 0,
                    distance: 1,
                },
                StreamSpec {
                    start_bank: b2,
                    distance: 1,
                },
            ];
            let fixed = converged(measure_steady_state(
                &SimConfig::single_cpu(geom, 2),
                &specs,
                1_000_000,
            ))
            .beff;
            let cyclic = converged(measure_steady_state(
                &SimConfig::single_cpu(geom, 2).with_priority(PriorityRule::Cyclic),
                &specs,
                1_000_000,
            ))
            .beff;
            PriorityRow { b2, fixed, cyclic }
        })
        .collect()
}

/// One row of the section-mapping ablation.
#[derive(Debug, Clone)]
pub struct MappingRow {
    /// Relative start of the second stream.
    pub b2: u64,
    /// Bandwidth with cyclic bank-to-section distribution.
    pub cyclic_map: Ratio,
    /// Bandwidth with consecutive-bank sections (Cheung & Smith, Fig. 9).
    pub consecutive_map: Ratio,
}

/// Ablation A2: cyclic vs consecutive section mapping (fixed priority) on
/// the Fig. 8/9 geometry.
#[must_use]
pub fn mapping_ablation() -> Vec<MappingRow> {
    let cyclic_geom = paper(Geometry::new(12, 3, 3));
    let consec_geom = paper(Geometry::with_mapping(
        12,
        3,
        3,
        SectionMapping::Consecutive,
    ));
    (0..12)
        .map(|b2| {
            let specs = [
                StreamSpec {
                    start_bank: 0,
                    distance: 1,
                },
                StreamSpec {
                    start_bank: b2,
                    distance: 1,
                },
            ];
            let cyclic_map = converged(measure_steady_state(
                &SimConfig::single_cpu(cyclic_geom, 2),
                &specs,
                1_000_000,
            ))
            .beff;
            let consecutive_map = converged(measure_steady_state(
                &SimConfig::single_cpu(consec_geom, 2),
                &specs,
                1_000_000,
            ))
            .beff;
            MappingRow {
                b2,
                cyclic_map,
                consecutive_map,
            }
        })
        .collect()
}

/// One scheme's stride table for the skewing comparison (A3).
#[derive(Debug, Clone)]
pub struct SkewTable {
    /// Scheme name.
    pub scheme: String,
    /// Per-stride rows.
    pub rows: Vec<eval::StrideRow>,
}

/// Ablation A3: plain vs skewed interleavings on a 16-bank, `n_c = 4`
/// memory over strides 1..=16.
#[must_use]
pub fn skewing_comparison() -> Vec<SkewTable> {
    let schemes: Vec<Box<dyn BankMapping>> = vec![
        Box::new(Interleaved { banks: 16 }),
        Box::new(XorFold::new(16)),
        Box::new(LinearSkew::classic(16)),
        Box::new(PrimeInterleaved::new(13)),
    ];
    schemes
        .into_iter()
        .map(|scheme| SkewTable {
            scheme: scheme.name(),
            rows: converged(eval::stride_table(scheme.as_ref(), 4, 16, 2_000_000)),
        })
        .collect()
}

/// One row of the random-vs-vector comparison (experiment E1).
#[derive(Debug, Clone)]
pub struct RandomRow {
    /// Number of active ports.
    pub ports: usize,
    /// Simulated random-access bandwidth (Monte Carlo).
    pub random: f64,
    /// Bandwidth of the best vector-mode placement of `ports` unit-stride
    /// streams (from the constructive family), when one exists.
    pub vector: Option<f64>,
    /// Hellerman's classical batch-scan bandwidth for this bank count (a
    /// per-memory-cycle figure, shown for context).
    pub hellerman: f64,
    /// The capacity bound `m / n_c`.
    pub capacity: f64,
}

/// Experiment E1: random access vs vector mode on the same memory,
/// sweeping the port count.
///
/// Each row is one [`Scenario`] on the shared runner, stolen one at a
/// time: the Monte Carlo cost grows with the port count, so the rows are
/// submitted heaviest first and put back in port order. A row depends only
/// on its own port count and seed, so the table is byte-identical for any
/// thread count.
#[must_use]
pub fn random_vs_vector_table(m: u64, nc: u64, max_ports: usize) -> Vec<RandomRow> {
    let geom = paper(Geometry::unsectioned(m, nc));
    let scenarios: Vec<RandomRowScenario> = (1..=max_ports)
        .rev()
        .map(|ports| RandomRowScenario { geom, ports })
        .collect();
    let mut rows = Runner::new().chunk(1).run(&scenarios);
    rows.reverse();
    rows
}

/// One row of [`random_vs_vector_table`]: `ports` random-access ports
/// against the best vector-mode placement of `ports` unit-stride streams.
struct RandomRowScenario {
    geom: Geometry,
    ports: usize,
}

impl Scenario for RandomRowScenario {
    type Output = RandomRow;
    type Key = ();

    fn key(&self) -> Option<()> {
        None
    }

    fn execute(&self) -> RandomRow {
        let (geom, p) = (self.geom, self.ports);
        let config = SimConfig::one_port_per_cpu(geom, p);
        let random = measure_random_bandwidth(&config, 0xC0FFEE + p as u64, 200_000);
        let vector =
            vecmem_analytic::multi::equal_distance_family(&geom, 1, p as u64).map(|starts| {
                let specs: Vec<StreamSpec> = starts
                    .iter()
                    .map(|&b| StreamSpec {
                        start_bank: b,
                        distance: 1,
                    })
                    .collect();
                converged(measure_steady_state(&config, &specs, 5_000_000))
                    .beff
                    .to_f64()
            });
        RandomRow {
            ports: p,
            random,
            vector,
            hellerman: hellerman_bandwidth(geom.banks()),
            capacity: geom.banks() as f64 / geom.bank_cycle() as f64,
        }
    }
}

/// One row of the kernel stride-sensitivity table.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Execution time in clock periods per increment 1..=max_inc.
    pub cycles: Vec<u64>,
}

/// Experiment E2: stride sensitivity of different load/store mixes on the
/// X-MP CPU (no background).
#[must_use]
pub fn kernel_table(max_inc: u64, n: u64) -> Vec<KernelRow> {
    use vecmem_vproc::exec::ProgramWorkload;
    use vecmem_vproc::kernels::{compile, Kernel};
    use vecmem_vproc::{CommonBlock, MachineConfig};

    let geom = Geometry::cray_xmp();
    let machine = MachineConfig::cray_xmp();
    let mut block = CommonBlock::new();
    block.declare("A", vec![16 * 1024 + 1]);
    block.declare("B", vec![16 * 1024 + 1]);
    #[expect(
        clippy::expect_used,
        reason = "both arrays were declared two lines above"
    )]
    let a = block.get("A").expect("A declared above").clone();
    #[expect(
        clippy::expect_used,
        reason = "both arrays were declared two lines above"
    )]
    let b = block.get("B").expect("B declared above").clone();
    [Kernel::Copy, Kernel::Daxpy, Kernel::Dot]
        .into_iter()
        .map(|kernel| {
            let cycles = (1..=max_inc)
                .map(|inc| {
                    let program = compile(kernel, &machine, &[&a, &b], n, inc);
                    let mut workload = ProgramWorkload::new(&geom, machine, program, &[], 3);
                    let mut engine = vecmem_banksim::Engine::new(SimConfig::single_cpu(geom, 3));
                    #[expect(
                        clippy::expect_used,
                        reason = "the kernels are finite programs; 10M cycles is far past the longest"
                    )]
                    engine
                        .run(&mut workload, 10_000_000)
                        .finished_cycles()
                        .expect("kernel finishes")
                })
                .collect();
            KernelRow {
                kernel: kernel.name(),
                cycles,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_table_small_geometry_all_ok() {
        let rows = theorem_table(8, 2);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.ok, "row failed: {r:?}");
        }
    }

    #[test]
    fn theorem_table_report_hits_cache() {
        // m = 8 has φ(8) = 4 units: coprime-scaled start-bank sweeps are
        // isomorphic, so a healthy fraction of the 28 · 8 scenarios must
        // replay from the cache rather than simulate.
        let (rows, report) = theorem_table_report(8, 2);
        assert_eq!(rows.len(), 28);
        assert_eq!(report.scenarios, 28 * 8);
        assert_eq!(report.cache.hits + report.cache.misses, 28 * 8);
        assert!(report.cache.hits > 0, "{report:?}");
        assert!(report.cache.hit_rate() > 0.0);
    }

    #[test]
    fn theorem_table_renders() {
        let rows = theorem_table(8, 2);
        let text = render_theorem_table(8, 2, &rows);
        assert!(text.contains("classification"));
        assert!(text.contains("conflict-free"));
        assert!(!text.contains(" NO\n"), "{text}");
    }

    #[test]
    fn priority_ablation_resolves_fig8_linked_conflict() {
        let rows = priority_ablation();
        assert_eq!(rows.len(), 12);
        // Fig. 8: at b2 = 1 the fixed rule locks into the linked conflict
        // (b_eff = 3/2) and the cyclic rule resolves it to 2.
        assert_eq!(rows[1].fixed, Ratio::new(3, 2));
        assert_eq!(rows[1].cyclic, Ratio::integer(2));
        // The rotating (on-conflict) rule resolves every linked conflict on
        // this geometry; the fixed rule has several bad start positions.
        assert!(rows.iter().filter(|r| r.fixed < Ratio::integer(2)).count() >= 2);
        assert!(rows.iter().all(|r| r.cyclic == Ratio::integer(2)));
    }

    #[test]
    fn mapping_ablation_consecutive_resolves() {
        let rows = mapping_ablation();
        // Fig. 9's claim: consecutive sections give b_eff = 2 where the
        // cyclic mapping linked-conflicts.
        assert!(rows.iter().any(|r| r.cyclic_map < Ratio::integer(2)));
        assert!(rows.iter().all(|r| r.consecutive_map == Ratio::integer(2)));
    }

    #[test]
    fn random_vs_vector_rows() {
        let rows = random_vs_vector_table(16, 4, 4);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.random <= r.capacity + 1e-9);
            if let Some(v) = r.vector {
                assert!(v >= r.random, "vector placement must beat random: {r:?}");
            }
        }
        // Four unit-stride streams fit exactly: vector = 4.0.
        assert_eq!(rows[3].vector, Some(4.0));
    }

    #[test]
    fn kernel_table_shape() {
        let rows = kernel_table(8, 256);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.cycles.len(), 8);
            // Self-conflicting stride 8 (r = 2 < n_c) is clearly slower than
            // unit stride for every kernel. (Small non-monotonicities among
            // the conflict-free strides are real: a kernel's load and store
            // streams have equal distances, so their initial phase — the
            // arrays start one bank apart — decides whether they interfere.)
            assert!(
                r.cycles[7] as f64 > 1.5 * r.cycles[0] as f64,
                "stride 8 should be much slower: {r:?}"
            );
        }
    }
}
