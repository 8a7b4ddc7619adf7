//! Exhaustive small-geometry conformance sweep.
//!
//! Enumerates every unsectioned geometry with `m <= max_banks`,
//! `n_c <= max_nc` and `p <= max_ports` ports, and every stride/start-bank
//! combination of the tier (the Appendix isomorphism collapses the
//! enumeration through the shared [`ResultCache`]: orbit members replay
//! the representative's result instead of re-simulating). Each distinct
//! scenario is:
//!
//! * diffed cycle-by-cycle against the naive [`RefEngine`] over one
//!   transient plus one full steady period (which, for deterministic
//!   engines, implies agreement forever);
//! * checked against the paper: Thm 1 (`r = m/gcd(m, d)`), §III-A
//!   (`b_eff = min(1, r/n_c)` for a lone stream), Thm 2 (disjoint access
//!   sets iff `gcd(m, d1, d2) > 1` and `f` does not divide `b2 - b1`) and
//!   Thm 3 (the conflict-freedom condition, in both directions).
//!
//! Tiers: `p = 1` sweeps all `(d, b)`; `p = 2` sweeps all `(d1, d2, b2)`
//! with `b1 = 0` (a common shift of both start banks is a pure bank
//! relabelling, so fixing `b1` loses nothing) across cross-CPU and
//! same-CPU topologies and both priority rules; `p = 3` sweeps all
//! distance triples from aligned start banks, again over both topologies
//! and priority rules.

use crate::diff::{run_pair, DiffOutcome};
use vecmem_analytic::numtheory::gcd3;
use vecmem_analytic::pair::{conflict_free_condition, disjoint_sets_achievable};
use vecmem_analytic::{Geometry, Ratio, StreamSpec};
use vecmem_banksim::steady::measure_steady_state;
use vecmem_banksim::{PriorityRule, SimConfig};
use vecmem_exec::{steady_key, ResultCache, Runner, Scenario, SteadyKey};
use vecmem_obs::{Json, MetricsRegistry, Span, SpanSink};

/// Bounds of the exhaustive sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepBounds {
    /// Largest `m` (inclusive).
    pub max_banks: u64,
    /// Largest `n_c` (inclusive).
    pub max_nc: u64,
    /// Largest port count (inclusive, capped at 3).
    pub max_ports: usize,
    /// Cycle budget of the steady-state search per scenario.
    pub steady_budget: u64,
}

impl Default for SweepBounds {
    fn default() -> Self {
        Self {
            max_banks: 16,
            max_nc: 4,
            max_ports: 3,
            steady_budget: 500_000,
        }
    }
}

/// One confirmed disagreement (divergence or theorem violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Scenario identification (geometry, topology, streams).
    pub context: String,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.context, self.detail)
    }
}

/// Aggregated result of [`sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Scenario points enumerated (including isomorphic cache replays).
    pub enumerated: u64,
    /// Distinct scenarios actually simulated (cache misses).
    pub executed: u64,
    /// Points answered from the isomorphism cache.
    pub replayed: u64,
    /// Thm 1 return-number checks performed.
    pub thm1_checked: u64,
    /// Thm 2 disjointness checks performed (per-pair formula + existence).
    pub thm2_checked: u64,
    /// Thm 3 conflict-freedom checks performed.
    pub thm3_checked: u64,
    /// §III-A single-stream bandwidth checks performed.
    pub iiia_checked: u64,
    /// Thm 3 points skipped because a stream is self-conflicting
    /// (`r < n_c`), outside the theorem's premises.
    pub thm3_skipped: u64,
    /// Scenarios whose steady-state search did not converge in budget.
    pub not_converged: u64,
    /// Total engine/oracle divergences found.
    pub divergence_count: u64,
    /// Total theorem violations found.
    pub violation_count: u64,
    /// First few divergences, with dumps.
    pub divergences: Vec<Violation>,
    /// First few theorem violations.
    pub violations: Vec<Violation>,
}

/// Stored examples are capped; the `*_count` fields keep exact totals.
const KEEP: usize = 8;

impl SweepReport {
    /// True when the sweep found no divergence, no violation and no
    /// non-converged scenario.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.divergence_count == 0 && self.violation_count == 0 && self.not_converged == 0
    }

    fn add_divergence(&mut self, v: Violation) {
        self.divergence_count += 1;
        if self.divergences.len() < KEEP {
            self.divergences.push(v);
        }
    }

    fn add_violation(&mut self, v: Violation) {
        self.violation_count += 1;
        if self.violations.len() < KEEP {
            self.violations.push(v);
        }
    }

    /// Cache hit rate over the sweep, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.enumerated == 0 {
            return 0.0;
        }
        self.replayed as f64 / self.enumerated as f64
    }
}

/// One conformance point: steady-state measurement by the optimized engine
/// plus a lockstep diff against the reference engine over one transient +
/// one period.
///
/// The output carries only isomorphism-invariant facts (bandwidth,
/// conflict-freedom, divergence cycle), so key-equal scenarios may share
/// it through the cache; the rendered dump of a (never expected) divergence
/// names the canonical representative's banks.
#[derive(Debug, Clone)]
pub struct ConformScenario {
    /// Simulator configuration (geometry, topology, priority).
    pub config: SimConfig,
    /// One stream per port.
    pub streams: Vec<StreamSpec>,
    /// Cycle budget of the steady-state search.
    pub steady_budget: u64,
}

/// Output of a [`ConformScenario`].
#[derive(Debug, Clone)]
pub struct ConformOutcome {
    /// Exact steady bandwidth, when the search converged.
    pub beff: Option<Ratio>,
    /// True when one steady period contains no conflict at all.
    pub conflict_free: bool,
    /// First divergent cycle and dump, if the engines disagreed.
    pub divergence: Option<(u64, String)>,
}

impl Scenario for ConformScenario {
    type Output = ConformOutcome;
    type Key = SteadyKey;

    fn key(&self) -> Option<SteadyKey> {
        Some(steady_key(&self.config, &self.streams, self.steady_budget))
    }

    fn execute(&self) -> ConformOutcome {
        let steady = measure_steady_state(&self.config, &self.streams, self.steady_budget);
        let (beff, conflict_free, horizon) = match &steady {
            // Agreement over transient + period + slack pins the full
            // cyclic behaviour of both deterministic engines.
            Ok(ss) => (
                Some(ss.beff),
                ss.conflict_free(),
                ss.transient + ss.period + 8,
            ),
            Err(_) => (None, false, 1024),
        };
        let divergence = match run_pair(&self.config, &self.streams, horizon) {
            DiffOutcome::Match { .. } => None,
            DiffOutcome::Diverged(d) => Some((d.cycle, d.report)),
        };
        ConformOutcome {
            beff,
            conflict_free,
            divergence,
        }
    }
}

/// The banks visited by an infinite stream, as a bitmask (`m <= 64`).
fn access_mask(m: u64, b: u64, d: u64) -> u64 {
    let mut mask = 0u64;
    let mut bank = b % m;
    for _ in 0..m {
        mask |= 1 << bank;
        bank = (bank + d) % m;
    }
    mask
}

/// Pure-analytic Thm 1 and Thm 2 checks for one `m`, no simulation needed.
fn check_analytic_theorems(m: u64, report: &mut SweepReport) {
    #[expect(clippy::expect_used, reason = "the sweep's m starts at 1, and n_c = 1")]
    let geom = Geometry::unsectioned(m, 1).expect("valid geometry");
    // Thm 1: the brute-force count of distinct banks visited equals
    // m / gcd(m, d).
    for d in 0..m {
        let brute = access_mask(m, 0, d).count_ones() as u64;
        report.thm1_checked += 1;
        if brute != geom.return_number(d) {
            report.add_violation(Violation {
                context: format!("m={m} d={d}"),
                detail: format!(
                    "Thm 1: brute-force return number {brute} != m/gcd = {}",
                    geom.return_number(d)
                ),
            });
        }
    }
    // Thm 2, both per-pair formula and the existence quantifier.
    for d1 in 0..m {
        let mask1 = access_mask(m, 0, d1);
        for d2 in 0..m {
            let f = gcd3(m, d1, d2);
            let mut any_disjoint = false;
            for b2 in 0..m {
                let brute = mask1 & access_mask(m, b2, d2) == 0;
                any_disjoint |= brute;
                // Per-pair form: disjoint iff f > 1 and f does not divide
                // b2 - b1 (b1 = 0 here).
                let formula = f > 1 && b2 % f != 0;
                report.thm2_checked += 1;
                if brute != formula {
                    report.add_violation(Violation {
                        context: format!("m={m} d1={d1} d2={d2} b2={b2}"),
                        detail: format!(
                            "Thm 2: brute-force disjointness {brute} != formula {formula}"
                        ),
                    });
                }
            }
            report.thm2_checked += 1;
            if any_disjoint != disjoint_sets_achievable(&geom, d1, d2) {
                report.add_violation(Violation {
                    context: format!("m={m} d1={d1} d2={d2}"),
                    detail: format!(
                        "Thm 2: disjoint start banks exist = {any_disjoint}, \
                         but gcd(m, d1, d2) > 1 = {}",
                        disjoint_sets_achievable(&geom, d1, d2)
                    ),
                });
            }
        }
    }
}

/// Port topology of a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// One port per CPU.
    Cross,
    /// All ports on one CPU.
    Same,
}

impl Topology {
    fn config(self, geom: Geometry, ports: usize, priority: PriorityRule) -> SimConfig {
        match self {
            Self::Cross => SimConfig::one_port_per_cpu(geom, ports).with_priority(priority),
            Self::Same => SimConfig::single_cpu(geom, ports).with_priority(priority),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::Cross => "cross-cpu",
            Self::Same => "same-cpu",
        }
    }
}

fn prio_label(p: PriorityRule) -> &'static str {
    match p {
        PriorityRule::Fixed => "fixed",
        PriorityRule::Cyclic => "cyclic",
    }
}

/// Context string for violation reports.
fn context(geom: &Geometry, topo: Topology, prio: PriorityRule, streams: &[StreamSpec]) -> String {
    let s: Vec<String> = streams
        .iter()
        .map(|s| format!("(b={}, d={})", s.start_bank, s.distance))
        .collect();
    format!(
        "m={} nc={} {} {} streams=[{}]",
        geom.banks(),
        geom.bank_cycle(),
        topo.label(),
        prio_label(prio),
        s.join(", ")
    )
}

/// Processes one executed chunk: records divergences and applies the
/// per-point theorem checks.
fn absorb_chunk(
    report: &mut SweepReport,
    geom: &Geometry,
    topo: Topology,
    prio: PriorityRule,
    scenarios: &[ConformScenario],
    outcomes: &[ConformOutcome],
) {
    let m = geom.banks();
    let nc = geom.bank_cycle();
    for (scn, out) in scenarios.iter().zip(outcomes) {
        let ctx = || context(geom, topo, prio, &scn.streams);
        if let Some((cycle, dump)) = &out.divergence {
            report.add_divergence(Violation {
                context: ctx(),
                detail: format!("engines diverged at cycle {cycle}\n{dump}"),
            });
        }
        let Some(beff) = out.beff else {
            report.not_converged += 1;
            continue;
        };
        match scn.streams.len() {
            1 => {
                // §III-A: a lone stream runs at min(1, r/n_c).
                let r = geom.return_number(scn.streams[0].distance);
                let expect = Ratio::new(r.min(nc), nc);
                report.iiia_checked += 1;
                if beff != expect {
                    report.add_violation(Violation {
                        context: ctx(),
                        detail: format!("§III-A: measured b_eff {beff} != min(1, r/nc) = {expect}"),
                    });
                }
            }
            2 => {
                let (s1, s2) = (&scn.streams[0], &scn.streams[1]);
                let (d1, d2) = (s1.distance, s2.distance);
                let disjoint =
                    access_mask(m, s1.start_bank, d1) & access_mask(m, s2.start_bank, d2) == 0;
                let r1 = geom.return_number(d1);
                let r2 = geom.return_number(d2);
                if r1 < nc || r2 < nc {
                    // A self-conflicting stream is outside the premises of
                    // Thm 2's corollary and Thm 3.
                    report.thm3_skipped += 1;
                    continue;
                }
                if disjoint {
                    // Thm 2 corollary: disjoint sets and no self-conflicts
                    // leave nothing to collide — full bandwidth.
                    report.thm2_checked += 1;
                    if !out.conflict_free || beff != Ratio::integer(2) {
                        report.add_violation(Violation {
                            context: ctx(),
                            detail: format!(
                                "Thm 2: disjoint access sets but b_eff = {beff} with conflicts"
                            ),
                        });
                    }
                } else if conflict_free_condition(geom, d1, d2) {
                    // Thm 3 forward: the condition synchronises the pair
                    // into the conflict-free cycle from any start banks.
                    report.thm3_checked += 1;
                    if !out.conflict_free || beff != Ratio::integer(2) {
                        report.add_violation(Violation {
                            context: ctx(),
                            detail: format!(
                                "Thm 3: condition holds but b_eff = {beff} with conflicts"
                            ),
                        });
                    }
                } else {
                    // Thm 3 converse: nondisjoint sets without the
                    // condition can never be conflict-free.
                    report.thm3_checked += 1;
                    if out.conflict_free {
                        report.add_violation(Violation {
                            context: ctx(),
                            detail: "Thm 3: condition fails on nondisjoint sets, \
                                     yet the steady state is conflict-free"
                                .to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Counter: scenario points enumerated by the conformance sweep.
pub const SWEEP_ENUMERATED: &str = "oracle_sweep_enumerated";
/// Counter: distinct scenarios actually simulated (cache misses).
pub const SWEEP_EXECUTED: &str = "oracle_sweep_executed";
/// Counter: points answered from the isomorphism cache.
pub const SWEEP_REPLAYED: &str = "oracle_sweep_replayed";
/// Counter: Thm 1 return-number checks performed.
pub const SWEEP_THM1: &str = "oracle_thm1_checked";
/// Counter: Thm 2 disjointness checks performed.
pub const SWEEP_THM2: &str = "oracle_thm2_checked";
/// Counter: Thm 3 conflict-freedom checks performed.
pub const SWEEP_THM3: &str = "oracle_thm3_checked";
/// Counter: §III-A single-stream bandwidth checks performed.
pub const SWEEP_IIIA: &str = "oracle_iiia_checked";
/// Counter: Thm 3 points skipped (self-conflicting stream).
pub const SWEEP_THM3_SKIPPED: &str = "oracle_thm3_skipped";
/// Counter: scenarios whose steady-state search did not converge.
pub const SWEEP_NOT_CONVERGED: &str = "oracle_not_converged";
/// Counter: engine/oracle divergences found.
pub const SWEEP_DIVERGENCES: &str = "oracle_divergences";
/// Counter: theorem violations found.
pub const SWEEP_VIOLATIONS: &str = "oracle_violations";
/// Gauge: isomorphism-cache hit rate of the sweep, in `[0, 1]`.
pub const SWEEP_HIT_RATE: &str = "oracle_sweep_hit_rate";

/// Folds a finished [`SweepReport`] into a metrics registry: per-theorem
/// check counts, cache replay counters and the hit-rate gauge, so
/// `--metrics-out` snapshots of a verification run carry the sweep's
/// coverage evidence.
pub fn export_sweep_metrics(registry: &mut MetricsRegistry, report: &SweepReport) {
    registry.add_counter(SWEEP_ENUMERATED, report.enumerated);
    registry.add_counter(SWEEP_EXECUTED, report.executed);
    registry.add_counter(SWEEP_REPLAYED, report.replayed);
    registry.add_counter(SWEEP_THM1, report.thm1_checked);
    registry.add_counter(SWEEP_THM2, report.thm2_checked);
    registry.add_counter(SWEEP_THM3, report.thm3_checked);
    registry.add_counter(SWEEP_IIIA, report.iiia_checked);
    registry.add_counter(SWEEP_THM3_SKIPPED, report.thm3_skipped);
    registry.add_counter(SWEEP_NOT_CONVERGED, report.not_converged);
    registry.add_counter(SWEEP_DIVERGENCES, report.divergence_count);
    registry.add_counter(SWEEP_VIOLATIONS, report.violation_count);
    registry.set_gauge(SWEEP_HIT_RATE, report.hit_rate());
}

/// Runs the exhaustive conformance sweep.
///
/// All scenario points go through `runner` and share one isomorphism-keyed
/// [`ResultCache`], so each equivalence class simulates once. Equivalent
/// to [`sweep_observed`] with no observers attached.
#[must_use]
pub fn sweep(bounds: &SweepBounds, runner: &Runner) -> SweepReport {
    sweep_observed(bounds, runner, None, None)
}

/// [`sweep`] with optional observability: when `metrics` is given the
/// finished report is folded in via [`export_sweep_metrics`]; when `sink`
/// is given the sweep lays itself out as spans on virtual time — one tick
/// per enumerated point, a `conform-sweep` root, one span per geometry
/// and one leaf per executed chunk annotated with its cache hit/miss
/// split. The layout is deterministic (no wall clock), so traces diff
/// cleanly across runs.
#[must_use]
pub fn sweep_observed(
    bounds: &SweepBounds,
    runner: &Runner,
    metrics: Option<&mut MetricsRegistry>,
    mut sink: Option<&mut SpanSink>,
) -> SweepReport {
    let mut report = SweepReport::default();
    let cache: ResultCache<SteadyKey, ConformOutcome> = ResultCache::new();
    let budget = bounds.steady_budget;

    if let Some(s) = sink.as_deref_mut() {
        s.switch_track(0, "oracle-sweep");
        s.begin("conform-sweep");
    }
    for m in 1..=bounds.max_banks {
        if let Some(s) = sink.as_deref_mut() {
            s.begin(&format!("m={m}"));
        }
        check_analytic_theorems(m, &mut report);
        for nc in 1..=bounds.max_nc {
            #[expect(clippy::expect_used, reason = "the sweep's m and n_c both start at 1")]
            let geom = Geometry::unsectioned(m, nc).expect("valid geometry");
            let mut run_chunk =
                |topo: Topology, prio: PriorityRule, scenarios: Vec<ConformScenario>| {
                    if scenarios.is_empty() {
                        return;
                    }
                    let (outcomes, exec) = runner.run_cached(&scenarios, &cache);
                    report.enumerated += scenarios.len() as u64;
                    report.executed += exec.cache.misses;
                    report.replayed += exec.cache.hits;
                    if let Some(s) = sink.as_deref_mut() {
                        let start = s.now();
                        let dur = scenarios.len() as u64;
                        let ports = scenarios[0].streams.len() as u64;
                        s.push(Span {
                            name: format!(
                                "m={m} nc={nc} p={ports} {} {}",
                                topo.label(),
                                prio_label(prio)
                            ),
                            track: 0,
                            start,
                            dur,
                            args: vec![
                                ("points".to_string(), Json::U64(scenarios.len() as u64)),
                                ("cache_hits".to_string(), Json::U64(exec.cache.hits)),
                                ("cache_misses".to_string(), Json::U64(exec.cache.misses)),
                            ],
                        });
                        s.advance_to(start + dur);
                    }
                    absorb_chunk(&mut report, &geom, topo, prio, &scenarios, &outcomes);
                };

            // Tier 1: every lone stream (topology is irrelevant for p = 1).
            let mut tier1 = Vec::new();
            for d in 0..m {
                for b in 0..m {
                    tier1.push(ConformScenario {
                        config: SimConfig::single_cpu(geom, 1),
                        streams: vec![StreamSpec {
                            start_bank: b,
                            distance: d,
                        }],
                        steady_budget: budget,
                    });
                }
            }
            run_chunk(Topology::Same, PriorityRule::Fixed, tier1);

            // Tier 2: every pair (d1, d2, b2) with b1 = 0, per topology and
            // priority rule.
            if bounds.max_ports >= 2 {
                for topo in [Topology::Cross, Topology::Same] {
                    for prio in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                        let config = topo.config(geom, 2, prio);
                        let mut chunk = Vec::with_capacity((m * m * m) as usize);
                        for d1 in 0..m {
                            for d2 in 0..m {
                                for b2 in 0..m {
                                    chunk.push(ConformScenario {
                                        config: config.clone(),
                                        streams: vec![
                                            StreamSpec {
                                                start_bank: 0,
                                                distance: d1,
                                            },
                                            StreamSpec {
                                                start_bank: b2,
                                                distance: d2,
                                            },
                                        ],
                                        steady_budget: budget,
                                    });
                                }
                            }
                        }
                        run_chunk(topo, prio, chunk);
                    }
                }
            }

            // Tier 3: every distance triple from aligned start banks.
            if bounds.max_ports >= 3 {
                for topo in [Topology::Cross, Topology::Same] {
                    for prio in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                        let config = topo.config(geom, 3, prio);
                        let mut chunk = Vec::with_capacity((m * m * m) as usize);
                        for d1 in 0..m {
                            for d2 in 0..m {
                                for d3 in 0..m {
                                    chunk.push(ConformScenario {
                                        config: config.clone(),
                                        streams: vec![
                                            StreamSpec {
                                                start_bank: 0,
                                                distance: d1,
                                            },
                                            StreamSpec {
                                                start_bank: 0,
                                                distance: d2,
                                            },
                                            StreamSpec {
                                                start_bank: 0,
                                                distance: d3,
                                            },
                                        ],
                                        steady_budget: budget,
                                    });
                                }
                            }
                        }
                        run_chunk(topo, prio, chunk);
                    }
                }
            }
        }
        if let Some(s) = sink.as_deref_mut() {
            s.end();
        }
    }
    if let Some(s) = sink {
        s.annotate("enumerated", Json::U64(report.enumerated));
        s.annotate("executed", Json::U64(report.executed));
        s.annotate("replayed", Json::U64(report.replayed));
        s.annotate("hit_rate", Json::F64(report.hit_rate()));
        s.end();
    }
    if let Some(registry) = metrics {
        export_sweep_metrics(registry, &report);
    }
    report
}

/// Lockstep-diffs one explicit scenario (the CLI `verify --diff` mode).
#[must_use]
pub fn diff_single(config: &SimConfig, streams: &[StreamSpec], cycles: u64) -> DiffOutcome {
    run_pair(config, streams, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::numtheory::gcd;

    #[test]
    fn access_mask_matches_return_number() {
        let geom = Geometry::unsectioned(12, 1).unwrap();
        for d in 0..12 {
            assert_eq!(
                access_mask(12, 3, d).count_ones() as u64,
                geom.return_number(d)
            );
        }
    }

    #[test]
    fn tiny_sweep_is_clean() {
        let bounds = SweepBounds {
            max_banks: 6,
            max_nc: 2,
            max_ports: 2,
            steady_budget: 100_000,
        };
        let report = sweep(&bounds, &Runner::new());
        assert!(report.clean(), "{report:?}");
        assert!(report.enumerated > 0);
        assert!(report.replayed > 0, "isomorphism cache never hit");
        assert!(report.thm1_checked > 0);
        assert!(report.thm2_checked > 0);
        assert!(report.thm3_checked > 0);
        assert!(report.iiia_checked > 0);
    }

    #[test]
    fn observed_sweep_fills_metrics_and_spans_without_changing_results() {
        let bounds = SweepBounds {
            max_banks: 4,
            max_nc: 2,
            max_ports: 2,
            steady_budget: 100_000,
        };
        // One worker: cache miss counts are racy across threads (two
        // workers may both miss a fresh key), and this test pins exact
        // counter equality between the plain and observed runs.
        let runner = Runner::with_threads(1);
        let plain = sweep(&bounds, &runner);
        let mut registry = MetricsRegistry::new(1, 1);
        let mut sink = SpanSink::new();
        let observed = sweep_observed(&bounds, &runner, Some(&mut registry), Some(&mut sink));
        // Observation is read-only: every aggregate matches the plain run.
        assert_eq!(observed.enumerated, plain.enumerated);
        assert_eq!(observed.executed, plain.executed);
        assert_eq!(observed.thm3_checked, plain.thm3_checked);
        assert!(observed.clean());
        // The registry carries the per-theorem counts and the hit rate.
        assert_eq!(registry.counter(SWEEP_ENUMERATED), Some(plain.enumerated));
        assert_eq!(registry.counter(SWEEP_THM1), Some(plain.thm1_checked));
        assert_eq!(registry.counter(SWEEP_IIIA), Some(plain.iiia_checked));
        assert_eq!(registry.counter(SWEEP_DIVERGENCES), Some(0));
        let rate = registry.gauge(SWEEP_HIT_RATE).unwrap();
        assert!((rate - plain.hit_rate()).abs() < 1e-12);
        // The trace ends at one tick per enumerated point, all spans
        // closed, with the root span carrying the totals.
        assert_eq!(sink.now(), plain.enumerated);
        assert_eq!(sink.open_depth(), 0);
        let root = sink.spans().last().unwrap();
        assert_eq!(root.name, "conform-sweep");
        assert_eq!(root.dur, plain.enumerated);
        assert!(root
            .args
            .contains(&("executed".to_string(), Json::U64(plain.executed))));
    }

    #[test]
    fn gcd_sanity_for_masks() {
        // f = gcd(m, d1, d2) partitions the banks; disjointness depends on
        // b2 - b1 mod f only.
        for (m, d1, d2) in [(12u64, 2u64, 4u64), (16, 4, 8), (10, 5, 0)] {
            let f = gcd(gcd(m, d1), d2);
            assert!(f > 1);
            for b2 in 0..m {
                let disjoint = access_mask(m, 0, d1) & access_mask(m, b2, d2) == 0;
                assert_eq!(disjoint, b2 % f != 0, "m={m} d1={d1} d2={d2} b2={b2}");
            }
        }
    }
}
