//! Exhaustive small-geometry conformance sweep.
//!
//! Enumerates every unsectioned geometry with `m <= max_banks`,
//! `n_c <= max_nc` and `p <= max_ports` ports, and every stride/start-bank
//! combination of the tier. Each distinct scenario is:
//!
//! * solved for its steady state once, with the naive
//!   [`RefEngine`](crate::RefEngine)
//!   diffed cycle by cycle against that same kernel trajectory
//!   ([`solve_in_lockstep`]) over every cycle the search steps: the
//!   search stops once the kernel's state is an address translate of an
//!   earlier one, `μ' + λ_r` steps for a stride point, and a one-time
//!   check of the reference's ports there extends the agreement to all
//!   time (see [`crate::diff`]'s module docs); the comparison runs
//!   [`LOCKSTEP_TAIL`](crate::diff::LOCKSTEP_TAIL) cycles past it as a
//!   guard against a faulty reference;
//! * checked against the paper: Thm 1 (`r = m/gcd(m, d)`), §III-A
//!   (`b_eff = min(1, r/n_c)` for a lone stream), Thm 2 (disjoint access
//!   sets iff `gcd(m, d1, d2) > 1` and `f` does not divide `b2 - b1`), and
//!   every pair point against its class from
//!   [`classify_pair`](vecmem_analytic::pair::classify_pair), judged by
//!   [`PairClass::admits`]: Thm 2's corollary, Thm 3 in both directions,
//!   and Thms 6/7's unique barrier at eq. 29's `b_eff = 1 + d1/d2`.
//!   The classes depend on the start banks only through disjointness, so
//!   each `(m, n_c)` classifies its `m²` distance pairs once
//!   ([`classify_distances`]), shared by the four pair chunks.
//!
//! Tiers: `p = 1` sweeps all `(d, b)`; `p = 2` sweeps all `(d1, d2, b2)`
//! with `b1 = 0` (a common shift of both start banks is a pure bank
//! relabelling, so fixing `b1` loses nothing) across cross-CPU and
//! same-CPU topologies and both priority rules; `p = 3` sweeps all
//! distance triples from aligned start banks, again over both topologies
//! and priority rules.
//!
//! # The orbit index
//!
//! A chunk is one geometry, topology, priority rule and port count. Its
//! points have coordinates `c`: `(d, b)` for a lone stream, `(d1, d2, b2)`
//! for pairs and `(d1, d2, d3)` for triples, each in `0..m`, enumerated
//! in lexicographic order of `c` ([`ChunkSpace`]).
//!
//! *Lemma.* A unit `k` of `Z/m` maps the point `c` to the point `k·c mod
//! m` of the same chunk, and the two are isomorphic (the Appendix's `d1 ⊕
//! d2 ≡ k·d1 ⊕ k·d2`, extended to start banks). The image stays in the
//! chunk because `k·0 = 0` keeps the fixed start banks fixed. The order
//! of [`canonical_streams`](vecmem_analytic::isomorphism::canonical_streams)
//! on the flattened `(distance, start_bank)` sequence is the enumeration
//! order on `c`: the fixed zeros sit at the same places in every point of
//! a chunk. So the point's canonical image is the point whose index is
//! the minimum, over `k = 1` and the units of `m`, of `index(k·c mod m)`,
//! and that index is never greater than the point's own. Two points of a
//! chunk share it exactly when
//! [`steady_key`] gives them equal keys.
//!
//! The sweep therefore needs no cache. Per chunk it computes every
//! point's representative in one pass, simulates only the
//! representatives, and absorbs every point in order against its
//! representative's outcome. The counts it reports, `executed` and
//! `replayed` included, are the same on any number of threads.

use crate::diff::{run_pair, solve_in_lockstep, DiffOutcome};
use vecmem_analytic::numtheory::{gcd3, units};
use vecmem_analytic::pair::{classify_distances, disjoint_sets_achievable, PairClass};
use vecmem_analytic::{Geometry, Ratio, StreamSpec};
use vecmem_banksim::{PriorityRule, SimConfig};
use vecmem_exec::{steady_key, Runner, Scenario, SteadyKey};
use vecmem_obs::{Json, MetricsRegistry, Span, SpanSink};

/// The largest bank count the sweep can check: the analytic checks keep a
/// stream's bank set in a `u64` mask (`access_mask`).
pub const MAX_SWEEP_BANKS: u64 = 64;

/// Bounds of the exhaustive sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepBounds {
    /// Largest `m` (inclusive), at most [`MAX_SWEEP_BANKS`]: above it the
    /// bank-set masks of the Thm 1–3 checks overflow and report false
    /// violations.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Scenario points enumerated (including isomorphic replays).
    pub enumerated: u64,
    /// Distinct scenarios actually simulated: one orbit representative
    /// each.
    pub executed: u64,
    /// Points answered by their orbit representative's outcome.
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
    /// (`r < n_c`), outside the theorem's premises; they are judged only
    /// against `b_eff < 2` with conflicts.
    pub thm3_skipped: u64,
    /// Unique-barrier predictions checked (Thms 6/7, eq. 29's `b_eff =
    /// 1 + d1/d2`); these points also count in `thm3_checked`.
    pub barrier_checked: u64,
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

    /// Share of the enumerated points that were replayed, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.enumerated == 0 {
            return 0.0;
        }
        self.replayed as f64 / self.enumerated as f64
    }
}

/// One conformance point: steady-state measurement by the optimized engine,
/// with a lockstep diff against the reference engine riding the same
/// search ([`solve_in_lockstep`]). The diff covers every cycle the search
/// stepped, through the transient and one period up to translation, and
/// checks the reference's ports at the recurrence, which carries the
/// agreement to all time, then
/// [`LOCKSTEP_TAIL`](crate::diff::LOCKSTEP_TAIL) cycles more; a search
/// that does not converge is still diffed over its whole budget.
///
/// The output carries only isomorphism-invariant facts (bandwidth,
/// conflict-freedom, divergence cycle), so key-equal scenarios may share
/// it; the rendered dump of a (never expected) divergence names the
/// orbit representative's banks.
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
        // Agreement up to the recurrence, with the reference's ports
        // translated alike, pins the full cyclic behaviour of both
        // engines.
        let (steady, diff) = solve_in_lockstep(&self.config, &self.streams, self.steady_budget);
        let (beff, conflict_free) = match &steady {
            Ok(ss) => (Some(ss.beff), ss.conflict_free()),
            Err(_) => (None, false),
        };
        let divergence = match diff {
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

/// The banks visited by an infinite stream, as a bitmask: bank `b` is bit
/// `b`, so `m` must be at most [`MAX_SWEEP_BANKS`]. The sweep calls it per
/// point, and a `u64` keeps a replayed point free of allocation.
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

/// Records one point's divergence and applies its theorem checks. A pair
/// point `(d1, d2)` takes its distance class from `pair_classes[d1·m +
/// d2]`.
fn absorb_point(
    report: &mut SweepReport,
    geom: &Geometry,
    topo: Topology,
    prio: PriorityRule,
    pair_classes: &[PairClass],
    streams: &[StreamSpec],
    out: &ConformOutcome,
) {
    let m = geom.banks();
    let nc = geom.bank_cycle();
    let ctx = || context(geom, topo, prio, streams);
    if let Some((cycle, dump)) = &out.divergence {
        report.add_divergence(Violation {
            context: ctx(),
            detail: format!("engines diverged at cycle {cycle}\n{dump}"),
        });
    }
    let Some(beff) = out.beff else {
        report.not_converged += 1;
        return;
    };
    match streams.len() {
        1 => {
            // §III-A: a lone stream runs at min(1, r/n_c).
            let r = geom.return_number(streams[0].distance);
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
            let (s1, s2) = (&streams[0], &streams[1]);
            let disjoint = access_mask(m, s1.start_bank, s1.distance)
                & access_mask(m, s2.start_bank, s2.distance)
                == 0;
            let class = pair_classes[(s1.distance * m + s2.distance) as usize].at_starts(disjoint);
            if class == PairClass::SelfLimited {
                // Outside the premises of Thm 2's corollary and Thm 3.
                report.thm3_skipped += 1;
            } else if disjoint {
                // Thm 2's corollary: nothing to collide, full bandwidth.
                report.thm2_checked += 1;
            } else {
                // Thm 3 in both directions; a unique barrier also
                // predicts eq. 29's bandwidth.
                report.thm3_checked += 1;
                if let PairClass::UniqueBarrier { .. } = class {
                    report.barrier_checked += 1;
                }
            }
            if !class.admits(beff, out.conflict_free) {
                report.add_violation(Violation {
                    context: ctx(),
                    detail: format!(
                        "{class} ({class:?}) does not admit b_eff = {beff}, conflict-free = {}",
                        out.conflict_free
                    ),
                });
            }
        }
        _ => {}
    }
}

/// Counter: scenario points enumerated by the conformance sweep.
pub const SWEEP_ENUMERATED: &str = "oracle_sweep_enumerated";
/// Counter: distinct scenarios actually simulated (orbit representatives).
pub const SWEEP_EXECUTED: &str = "oracle_sweep_executed";
/// Counter: points answered by their orbit representative's outcome.
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
/// Counter: unique-barrier (Thms 6/7, eq. 29) predictions checked.
pub const SWEEP_BARRIER: &str = "oracle_barrier_checked";
/// Counter: scenarios whose steady-state search did not converge.
pub const SWEEP_NOT_CONVERGED: &str = "oracle_not_converged";
/// Counter: engine/oracle divergences found.
pub const SWEEP_DIVERGENCES: &str = "oracle_divergences";
/// Counter: theorem violations found.
pub const SWEEP_VIOLATIONS: &str = "oracle_violations";
/// Gauge: share of the sweep's points replayed, in `[0, 1]`.
pub const SWEEP_HIT_RATE: &str = "oracle_sweep_hit_rate";

/// Folds a finished [`SweepReport`] into a metrics registry: per-theorem
/// check counts, the simulated and replayed counters and the replay-rate
/// gauge, so `--metrics-out` snapshots of a verification run carry the
/// sweep's coverage evidence.
pub fn export_sweep_metrics(registry: &mut MetricsRegistry, report: &SweepReport) {
    registry.add_counter(SWEEP_ENUMERATED, report.enumerated);
    registry.add_counter(SWEEP_EXECUTED, report.executed);
    registry.add_counter(SWEEP_REPLAYED, report.replayed);
    registry.add_counter(SWEEP_THM1, report.thm1_checked);
    registry.add_counter(SWEEP_THM2, report.thm2_checked);
    registry.add_counter(SWEEP_THM3, report.thm3_checked);
    registry.add_counter(SWEEP_IIIA, report.iiia_checked);
    registry.add_counter(SWEEP_THM3_SKIPPED, report.thm3_skipped);
    registry.add_counter(SWEEP_BARRIER, report.barrier_checked);
    registry.add_counter(SWEEP_NOT_CONVERGED, report.not_converged);
    registry.add_counter(SWEEP_DIVERGENCES, report.divergence_count);
    registry.add_counter(SWEEP_VIOLATIONS, report.violation_count);
    registry.set_gauge(SWEEP_HIT_RATE, report.hit_rate());
}

/// The points of one sweep chunk, `ports` streams on `m` banks, indexed
/// in the enumeration order of their coordinates `c` (see the module
/// doc): `(d, b)` for a lone stream, `(d1, d2, b2)` with `b1 = 0` for a
/// pair, `(d1, d2, d3)` from aligned start banks for a triple. The
/// geometry, topology and priority rule are the caller's; the points and
/// their orbits depend on `m` and the port count only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpace {
    m: u64,
    ports: usize,
}

impl ChunkSpace {
    /// The points of `ports` streams on `m` banks; `ports` is clamped to
    /// `1..=3`, the sweep's tiers.
    #[must_use]
    pub fn new(m: u64, ports: usize) -> Self {
        Self {
            m,
            ports: ports.clamp(1, 3),
        }
    }

    /// Coordinates per point.
    fn dims(&self) -> u32 {
        if self.ports == 1 {
            2
        } else {
            3
        }
    }

    /// Number of points, `m²` or `m³`.
    fn len(&self) -> usize {
        self.m.pow(self.dims()) as usize
    }

    /// The coordinates of point `index`, most significant first, in the
    /// first [`dims`](Self::dims) entries.
    fn coords(&self, index: usize) -> [u64; 3] {
        let (m, i) = (self.m, index as u64);
        match self.dims() {
            2 => [i / m, i % m, 0],
            _ => [i / (m * m), i / m % m, i % m],
        }
    }

    /// The index of the point at coordinates `c`.
    fn index(&self, c: [u64; 3]) -> usize {
        c[..self.dims() as usize]
            .iter()
            .fold(0, |acc, &x| acc * self.m + x) as usize
    }

    /// The streams of point `index`, one per port, in the first `ports`
    /// entries; the rest repeat the last stream.
    #[must_use]
    pub fn streams(&self, index: usize) -> [StreamSpec; 3] {
        let spec = |start_bank, distance| StreamSpec {
            start_bank,
            distance,
        };
        let [x, y, z] = self.coords(index);
        match self.ports {
            1 => [spec(y, x); 3],
            2 => [spec(0, x), spec(z, y), spec(z, y)],
            _ => [spec(0, x), spec(0, y), spec(0, z)],
        }
    }

    /// Each point's representative: the least index in its orbit under
    /// `c ↦ k·c mod m` for the units `k` of `m`, which is never above the
    /// point's own index. One pass in index order: a point not yet
    /// reached by an earlier orbit is the least of its own, and it marks
    /// its images.
    #[must_use]
    pub fn representatives(&self) -> Vec<usize> {
        let m = self.m;
        let units: Vec<u64> = units(m).collect();
        let mut rep = vec![usize::MAX; self.len()];
        for i in 0..rep.len() {
            if rep[i] != usize::MAX {
                continue;
            }
            rep[i] = i;
            let c = self.coords(i);
            for &k in &units {
                rep[self.index(c.map(|x| k * x % m))] = i;
            }
        }
        rep
    }
}

/// The chunk kinds of one geometry, in sweep order: the lone stream
/// (topology is irrelevant for p = 1), then with `max_ports >= 2` the
/// pairs and with `max_ports >= 3` the triples, each over both topologies
/// and both priority rules.
fn chunk_kinds(max_ports: usize) -> impl Iterator<Item = (usize, Topology, PriorityRule)> {
    let multi = (2..=max_ports.min(3)).flat_map(|ports| {
        [Topology::Cross, Topology::Same]
            .into_iter()
            .flat_map(move |topo| {
                [PriorityRule::Fixed, PriorityRule::Cyclic].map(|prio| (ports, topo, prio))
            })
    });
    std::iter::once((1, Topology::Same, PriorityRule::Fixed)).chain(multi)
}

/// The orbits of one [`ChunkSpace`]: the outcome slot of each point, and
/// the representatives that fill the slots, in index order.
struct Orbits {
    slot: Vec<usize>,
    representatives: Vec<usize>,
}

impl Orbits {
    fn new(space: ChunkSpace) -> Self {
        let rep = space.representatives();
        let mut slot = Vec::with_capacity(rep.len());
        let mut representatives = Vec::new();
        for (i, &r) in rep.iter().enumerate() {
            // r <= i, so a replayed point's representative has its slot.
            slot.push(if r == i {
                representatives.push(i);
                representatives.len() - 1
            } else {
                slot[r]
            });
        }
        Self {
            slot,
            representatives,
        }
    }
}

/// Runs the exhaustive conformance sweep.
///
/// Each chunk simulates its orbit representatives through `runner` and
/// replays their outcomes for the other points (see the module doc).
/// Equivalent to [`sweep_observed`] with no observers attached.
#[must_use]
pub fn sweep(bounds: &SweepBounds, runner: &Runner) -> SweepReport {
    sweep_observed(bounds, runner, None, None)
}

/// [`sweep`] with optional observability: when `metrics` is given the
/// finished report is folded in via [`export_sweep_metrics`]; when `sink`
/// is given the sweep lays itself out as spans on virtual time — one tick
/// per enumerated point, a `conform-sweep` root, one span per geometry
/// and one leaf per chunk annotated with its simulated/replayed split.
/// The layout is deterministic (no wall clock), so traces diff cleanly
/// across runs.
#[must_use]
pub fn sweep_observed(
    bounds: &SweepBounds,
    runner: &Runner,
    metrics: Option<&mut MetricsRegistry>,
    mut sink: Option<&mut SpanSink>,
) -> SweepReport {
    let mut report = SweepReport::default();
    if let Some(s) = sink.as_deref_mut() {
        s.switch_track(0, "oracle-sweep");
        s.begin("conform-sweep");
    }
    for m in 1..=bounds.max_banks {
        if let Some(s) = sink.as_deref_mut() {
            s.begin(&format!("m={m}"));
        }
        check_analytic_theorems(m, &mut report);
        let orbits: Vec<(ChunkSpace, Orbits)> = (1..=bounds.max_ports.clamp(1, 3))
            .map(|ports| {
                let space = ChunkSpace::new(m, ports);
                (space, Orbits::new(space))
            })
            .collect();
        for nc in 1..=bounds.max_nc {
            #[expect(clippy::expect_used, reason = "the sweep's m and n_c both start at 1")]
            let geom = Geometry::unsectioned(m, nc).expect("valid geometry");
            // Classified with stream 1 holding eq. 28's priority in all
            // four pair chunks; the sweep checks the predictions under
            // both rules and topologies.
            let pair_classes: Vec<PairClass> = (0..m * m)
                .map(|i| classify_distances(&geom, i / m, i % m, true))
                .collect();
            for (ports, topo, prio) in chunk_kinds(bounds.max_ports) {
                let (space, orbits) = &orbits[ports - 1];
                let config = topo.config(geom, ports, prio);
                let scenarios: Vec<ConformScenario> = orbits
                    .representatives
                    .iter()
                    .map(|&i| ConformScenario {
                        config: config.clone(),
                        streams: space.streams(i)[..ports].to_vec(),
                        steady_budget: bounds.steady_budget,
                    })
                    .collect();
                let outcomes = runner.run(&scenarios);
                let (points, simulated) = (space.len() as u64, scenarios.len() as u64);
                report.enumerated += points;
                report.executed += simulated;
                report.replayed += points - simulated;
                if let Some(s) = sink.as_deref_mut() {
                    let start = s.now();
                    s.push(Span {
                        name: format!(
                            "m={m} nc={nc} p={ports} {} {}",
                            topo.label(),
                            prio_label(prio)
                        ),
                        track: 0,
                        start,
                        dur: points,
                        args: vec![
                            ("points".to_string(), Json::U64(points)),
                            ("simulated".to_string(), Json::U64(simulated)),
                            ("replayed".to_string(), Json::U64(points - simulated)),
                        ],
                    });
                    s.advance_to(start + points);
                }
                for (i, &slot) in orbits.slot.iter().enumerate() {
                    let streams = space.streams(i);
                    let out = &outcomes[slot];
                    let streams = &streams[..ports];
                    absorb_point(&mut report, &geom, topo, prio, &pair_classes, streams, out);
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

    /// Every point of a smaller sweep, solved by the fused search and by
    /// the plain solver: the steady states agree field for field, and the
    /// lockstep riding the search matched past the transient, over one
    /// period up to translation and the tail, and no further than the
    /// full search would have stepped.
    #[test]
    fn fused_search_solves_like_the_plain_solver() {
        use crate::diff::{solve_in_lockstep, LOCKSTEP_TAIL};
        use vecmem_banksim::steady::measure_steady_state;
        let bounds = SweepBounds {
            max_banks: 8,
            max_nc: 3,
            max_ports: 3,
            ..SweepBounds::default()
        };
        let budget = bounds.steady_budget;
        let mut points = 0;
        for m in 1..=bounds.max_banks {
            for nc in 1..=bounds.max_nc {
                let geom = Geometry::unsectioned(m, nc).unwrap();
                for (ports, topo, prio) in chunk_kinds(bounds.max_ports) {
                    let config = &topo.config(geom, ports, prio);
                    let space = ChunkSpace::new(m, ports);
                    for i in 0..space.len() {
                        let streams = &space.streams(i)[..ports];
                        let (fused, diff) = solve_in_lockstep(config, streams, budget);
                        let plain = measure_steady_state(config, streams, budget).unwrap();
                        assert_eq!(fused.as_ref(), Ok(&plain), "{config:?} {streams:?}");
                        let (mu, lambda) = (plain.transient, plain.period);
                        let full = mu.next_power_of_two() + lambda + LOCKSTEP_TAIL;
                        assert!(
                            matches!(diff, DiffOutcome::Match { cycles, .. }
                                if cycles > mu + LOCKSTEP_TAIL && cycles <= full),
                            "{config:?} {streams:?}: {diff:?} outside ({mu}, {full}]"
                        );
                        points += 1;
                    }
                }
            }
        }
        assert_eq!(points, 31_716);
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
        assert!(report.replayed > 0, "no point was replayed");
        assert!(report.thm1_checked > 0);
        assert!(report.thm2_checked > 0);
        assert!(report.thm3_checked > 0);
        assert!(report.barrier_checked > 0);
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
        let runner = Runner::new();
        let plain = sweep(&bounds, &runner);
        let mut registry = MetricsRegistry::new(1, 1);
        let mut sink = SpanSink::new();
        let observed = sweep_observed(&bounds, &runner, Some(&mut registry), Some(&mut sink));
        // Observation is read-only: the report matches the plain run.
        assert_eq!(observed, plain);
        assert!(observed.clean());
        // The registry carries the per-theorem counts and the hit rate.
        assert_eq!(registry.counter(SWEEP_ENUMERATED), Some(plain.enumerated));
        assert_eq!(registry.counter(SWEEP_THM1), Some(plain.thm1_checked));
        assert_eq!(registry.counter(SWEEP_IIIA), Some(plain.iiia_checked));
        assert_eq!(registry.counter(SWEEP_BARRIER), Some(plain.barrier_checked));
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

    /// Every counter of the report, `executed` and `replayed` included,
    /// is the same on one, two and three threads.
    #[test]
    fn sweep_counts_do_not_depend_on_threads() {
        let bounds = SweepBounds {
            max_banks: 7,
            max_nc: 2,
            max_ports: 3,
            steady_budget: 100_000,
        };
        let one = sweep(&bounds, &Runner::with_threads(1));
        assert!(one.clean(), "{one:?}");
        assert!(one.replayed > 0 && one.executed > 0, "{one:?}");
        for threads in [2, 3] {
            let many = sweep(&bounds, &Runner::with_threads(threads).chunk(1));
            assert_eq!(many, one, "{threads} threads");
        }
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
