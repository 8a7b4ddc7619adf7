//! The five jobs: their set-up, one timed repetition, the per-scenario
//! latency pass, the correctness checks, and the untraced run that turns
//! repetitions into the end-to-end metrics.

use crate::clock::{median, quantile, Digest, Segments, Stopwatch};
use crate::inputs::{self, Case};
use crate::layers::Tracer;
use crate::report::{Metric, Outcome};
use crate::{Settings, Workload, MIN_REPS};
use std::path::Path;
use vecmem_banksim::steady::measure_steady_state;
use vecmem_banksim::SmallRng;
use vecmem_bench::figures::{self, Figure};
use vecmem_bench::{csv, fig10, tables};
use vecmem_exec::{
    triad_sweep, CacheStats, ResultCache, Runner, Scenario, SteadyOutcome, TriadScenario,
};
use vecmem_oracle::conform::{sweep, ConformScenario, SweepBounds, SweepReport};
use vecmem_oracle::diff::{run_pair, run_pair_patterns, DiffOutcome};

/// The end-to-end metrics, in report order.
pub(crate) const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenario_ms_p50", "ms"),
    ("scenario_ms_p99", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Scenarios of the seeded lockstep sample of each steady workload (and of
/// the traced run's oracle replay outside `verify_exhaustive`).
pub(crate) const LOCKSTEP_SAMPLE: usize = 32;

/// A workload's inputs, as its set-up builds them.
pub(crate) enum Inputs {
    /// The exhaustive sweep, plus a sample of its points for the latency
    /// pass and the layer replays.
    Sweep {
        bounds: SweepBounds,
        sample: Vec<ConformScenario>,
    },
    /// A seeded steady-state scenario list.
    Steady(Vec<Case>),
    /// What `reproduce_all` regenerates, and the goldens to compare with.
    Reproduce {
        figures: Vec<Figure>,
        triads: Vec<TriadScenario>,
        plan: Vec<Case>,
        goldens: Vec<(String, String)>,
    },
}

/// The golden files `reproduce_all`'s artifacts are compared with.
/// `results/table_random.txt` is not one of them: its Monte Carlo numbers
/// predate the current generator, so the random table is only checked
/// for repeating exactly.
const GOLDENS: [&str; 14] = [
    "fig02.txt",
    "fig03.txt",
    "fig04.txt",
    "fig05.txt",
    "fig06.txt",
    "fig07.txt",
    "fig08.txt",
    "fig09.txt",
    "fig10.txt",
    "fig10.csv",
    "table_theorems_m16_nc4.txt",
    "table_theorems_m16_nc4.csv",
    "table_priority.txt",
    "table_sections.txt",
];

/// Builds a workload's inputs from the seed: scenario lists with their
/// geometries and pattern specs, and for `reproduce` the goldens.
pub(crate) fn setup(settings: &Settings) -> Result<Inputs, String> {
    let seed = settings.seed;
    let sizes = &settings.sizes;
    Ok(match settings.workload {
        Workload::VerifyExhaustive => Inputs::Sweep {
            bounds: sizes.sweep,
            sample: inputs::sweep_sample(seed, &sizes.sweep, sizes.sweep_sample),
        },
        Workload::StrideLarge => Inputs::Steady(inputs::stride_large(seed, sizes)),
        Workload::GatherAffine => Inputs::Steady(inputs::gather_affine(seed, sizes)),
        Workload::PatternMix => Inputs::Steady(inputs::pattern_mix(seed, sizes)),
        Workload::Reproduce => {
            let mut triads = triad_sweep(16, true);
            triads.extend(triad_sweep(16, false));
            Inputs::Reproduce {
                figures: figures::all_figures(),
                triads,
                plan: inputs::theorem_plan(),
                goldens: read_goldens(&settings.goldens)?,
            }
        }
    })
}

fn read_goldens(dir: &Path) -> Result<Vec<(String, String)>, String> {
    GOLDENS
        .iter()
        .map(|name| {
            let path = dir.join(name);
            std::fs::read_to_string(&path)
                .map(|text| ((*name).to_string(), text))
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
        })
        .collect()
}

/// One repetition of a job.
pub(crate) struct Rep {
    /// Seconds the job took, in reference-host seconds.
    pub wall_s: f64,
    /// The same, in host seconds.
    pub raw_s: f64,
    /// Milliseconds per scenario, when the job submits scenarios alone.
    pub latency_ms: Vec<f64>,
    /// Seconds per phase: the sweep, or the five calls of `reproduce`.
    pub phases_s: Vec<f64>,
    /// Digest of the job's checked outputs, in submission order.
    pub digest: u64,
    /// Points the job answered (cache replays included).
    pub answers: u64,
    /// Answers that did not converge or failed a check.
    pub failed: u64,
    /// Cache counters of the job.
    pub cache: CacheStats,
    /// What the checks and the layer replays need from the outputs.
    pub detail: Detail,
}

/// Job-specific outputs of a repetition.
pub(crate) enum Detail {
    Sweep(SweepReport),
    Steady(Vec<SteadyOutcome>),
    Reproduce(Vec<(String, String)>),
}

/// Opens a span when tracing.
fn begin(tracer: &mut Option<&mut Tracer>, name: &str) {
    if let Some(t) = tracer.as_deref_mut() {
        t.begin(name);
    }
}

/// Closes the innermost span when tracing.
fn end(tracer: &mut Option<&mut Tracer>) {
    if let Some(t) = tracer.as_deref_mut() {
        t.end();
    }
}

/// Runs `f` as one sample of `block`, inside a span named `name` when
/// tracing.
fn phase<T>(
    block: &mut Segments,
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    f: impl FnOnce() -> T,
) -> T {
    begin(tracer, name);
    let out = block.sample(f);
    end(tracer);
    out
}

fn add(total: &mut CacheStats, more: CacheStats) {
    total.hits += more.hits;
    total.misses += more.misses;
    total.coalesced += more.coalesced;
}

/// One serial repetition of the job; with a tracer, under spans. Its
/// times are in reference-host seconds (see [`Segments`]).
pub(crate) fn rep(inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Rep {
    let mut digest = Digest::default();
    let mut block = Segments::start();
    match inputs {
        Inputs::Sweep { bounds, .. } => {
            let report = phase(&mut block, &mut tracer, "oracle.conform.sweep", || {
                sweep(bounds, &Runner::with_threads(1))
            });
            sweep_digest(&mut digest, &report);
            let timing = block.finish();
            Rep {
                wall_s: timing.scaled_s,
                raw_s: timing.raw_s,
                latency_ms: Vec::new(),
                phases_s: timing.samples_s,
                digest: digest.value(),
                answers: report.enumerated,
                failed: report.not_converged + report.divergence_count + report.violation_count,
                cache: CacheStats {
                    hits: report.replayed,
                    misses: report.executed,
                    coalesced: 0,
                },
                detail: Detail::Sweep(report),
            }
        }
        Inputs::Steady(cases) => {
            // Each scenario is submitted alone to a one-thread runner
            // through a cache that is fresh for the repetition.
            let runner = Runner::with_threads(1);
            let cache = ResultCache::new();
            let mut stats = CacheStats::default();
            let mut outcomes = Vec::with_capacity(cases.len());
            for case in cases {
                let (mut out, report) = phase(&mut block, &mut tracer, case.class, || {
                    runner.run_cached(std::slice::from_ref(&case.scenario), &cache)
                });
                add(&mut stats, report.cache);
                outcomes.push(out.pop().expect("one outcome per submitted scenario"));
            }
            let timing = block.finish();
            for out in &outcomes {
                digest.steady(out);
            }
            Rep {
                wall_s: timing.scaled_s,
                raw_s: timing.raw_s,
                latency_ms: timing.samples_s.iter().map(|s| s * 1e3).collect(),
                phases_s: Vec::new(),
                digest: digest.value(),
                answers: cases.len() as u64,
                failed: outcomes.iter().filter(|o| o.is_err()).count() as u64,
                cache: stats,
                detail: Detail::Steady(outcomes),
            }
        }
        Inputs::Reproduce { figures, .. } => {
            let b = &mut block;
            let t = &mut tracer;
            let figure_runs = phase(b, t, "bench.figures", || figures::run_all(figures, 36));
            let triads = phase(b, t, "vproc.triad", || fig10::run(16));
            let (rows, report) = phase(b, t, "bench.theorems", || {
                tables::theorem_table_report(16, 4)
            });
            let (priority, mapping) = phase(b, t, "bench.ablations", || {
                (tables::priority_ablation(), tables::mapping_ablation())
            });
            let random = phase(b, t, "banksim.random", || {
                tables::random_vs_vector_table(16, 4, 8)
            });
            let timing = block.finish();
            let artifacts = render_artifacts(&figure_runs, &triads, &rows, &priority, &mapping);
            for (name, text) in &artifacts {
                digest.text(name);
                digest.text(text);
            }
            for r in &random {
                digest.word(r.random.to_bits());
                digest.word(r.vector.map_or(u64::MAX, f64::to_bits));
            }
            Rep {
                wall_s: timing.scaled_s,
                raw_s: timing.raw_s,
                latency_ms: Vec::new(),
                phases_s: timing.samples_s,
                digest: digest.value(),
                answers: artifacts.len() as u64,
                failed: 0,
                cache: report.cache,
                detail: Detail::Reproduce(artifacts),
            }
        }
    }
}

/// Folds the thread-count-independent sweep counters into `digest`
/// (executed and replayed counts depend on which worker misses first).
pub(crate) fn sweep_digest(digest: &mut Digest, report: &SweepReport) {
    for x in [
        report.enumerated,
        report.thm1_checked,
        report.thm2_checked,
        report.thm3_checked,
        report.iiia_checked,
        report.thm3_skipped,
        report.not_converged,
        report.divergence_count,
        report.violation_count,
    ] {
        digest.word(x);
    }
}

/// The artifacts of `reproduce_all` that have goldens, rendered the way
/// the `figNN` and `table_*` binaries print them.
fn render_artifacts(
    figure_runs: &[figures::FigureRun],
    triads: &fig10::Fig10,
    rows: &[tables::TheoremRow],
    priority: &[tables::PriorityRow],
    mapping: &[tables::MappingRow],
) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for run in figure_runs {
        // Figures 8a and 8b share fig08.txt.
        let digits: String = run
            .figure
            .id
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let name = format!("fig{digits:0>2}.txt");
        let text = format!("{}\n", figures::report(run));
        match out.last_mut() {
            Some((last, body)) if *last == name => body.push_str(&text),
            _ => out.push((name, text)),
        }
    }
    out.push(("fig10.txt".into(), format!("{}\n", fig10::render(triads))));
    out.push(("fig10.csv".into(), csv::fig10_csv(triads)));
    let bad = rows.iter().filter(|r| !r.ok).count();
    out.push((
        "table_theorems_m16_nc4.txt".into(),
        format!(
            "{}\n{} rows, {bad} mismatches\n",
            tables::render_theorem_table(16, 4, rows),
            rows.len()
        ),
    ));
    out.push(("table_theorems_m16_nc4.csv".into(), csv::theorems_csv(rows)));
    let mut text = String::from("Priority ablation: m=12, s=3, nc=3, d1=d2=1 (same CPU)\n");
    text.push_str(&format!("{:>4} {:>8} {:>8}\n", "b2", "fixed", "cyclic"));
    for r in priority {
        text.push_str(&format!(
            "{:>4} {:>8} {:>8}\n",
            r.b2,
            r.fixed.to_string(),
            r.cyclic.to_string()
        ));
    }
    out.push(("table_priority.txt".into(), text));
    let mut text =
        String::from("Section-mapping ablation: m=12, s=3, nc=3, d1=d2=1, fixed priority\n");
    text.push_str(&format!(
        "{:>4} {:>10} {:>12}\n",
        "b2", "cyclic", "consecutive"
    ));
    for r in mapping {
        text.push_str(&format!(
            "{:>4} {:>10} {:>12}\n",
            r.b2,
            r.cyclic_map.to_string(),
            r.consecutive_map.to_string()
        ));
    }
    out.push(("table_sections.txt".into(), text));
    out
}

/// One pass submitting each of the workload's scenarios alone through its
/// single-scenario entry point: milliseconds per scenario (reference-host),
/// a digest of the answers, and how many did not converge or diverged.
/// The steady workloads' repetitions already submit each scenario alone,
/// so this pass only exists for the sweep and `reproduce`.
fn latency_pass(inputs: &Inputs) -> (Vec<f64>, u64, u64) {
    let mut digest = Digest::default();
    let mut failed = 0;
    let mut block = Segments::start();
    match inputs {
        Inputs::Sweep { sample, .. } => {
            for s in sample {
                let out = block.sample(|| s.execute());
                match out.beff {
                    Some(b) => {
                        digest.word(b.num());
                        digest.word(b.den());
                    }
                    None => failed += 1,
                }
                failed += u64::from(out.divergence.is_some());
            }
        }
        Inputs::Steady(_) => {}
        Inputs::Reproduce {
            figures,
            triads,
            plan,
            ..
        } => {
            for f in figures {
                let scenario = f.scenario(36);
                digest.text(&block.sample(|| scenario.execute()).trace);
            }
            for t in triads {
                digest.word(block.sample(|| t.execute()).cycles);
            }
            for case in plan {
                let s = &case.scenario;
                let streams = case.streams().expect("the theorem plan is all strides");
                let out = block.sample(|| measure_steady_state(&s.config, &streams, s.max_cycles));
                failed += u64::from(out.is_err());
                digest.steady(&out);
            }
        }
    }
    let ms = block.finish().samples_s.iter().map(|s| s * 1e3).collect();
    (ms, digest.value(), failed)
}

/// Lockstep of `case` against the reference engine over `cycles` clock
/// periods: through the stream entry point when `streams` is set (the
/// sweep's and the theorem table's scenarios), the pattern one otherwise.
pub(crate) fn lockstep(case: &Case, cycles: u64, streams: bool) -> DiffOutcome {
    let s = &case.scenario;
    match case.streams() {
        Some(specs) if streams => run_pair(&s.config, &specs, cycles),
        _ => run_pair_patterns(&s.config, &s.patterns, cycles),
    }
}

/// Cycles a lockstep comparison needs to pin a converged scenario's whole
/// behaviour: one transient plus one period.
pub(crate) fn horizon(outcome: &SteadyOutcome) -> Option<u64> {
    outcome.as_ref().ok().map(|ss| ss.transient + ss.period)
}

/// `k` distinct indices below `n`, drawn from `seed`, in ascending order.
pub(crate) fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5a4d_504c_4553);
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.gen_range(0..(n - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut picked = all[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Checks a repetition's own outputs: the sweep is clean, and the
/// reproduction's artifacts match the goldens (trailing blank lines
/// aside).
fn check_rep(inputs: &Inputs, rep: &Rep, outcome: &mut Outcome) {
    match (&rep.detail, inputs) {
        (Detail::Sweep(report), _) if !report.clean() => outcome.fail(format!(
            "sweep not clean: {} divergences, {} violations, {} not converged",
            report.divergence_count, report.violation_count, report.not_converged
        )),
        (Detail::Reproduce(artifacts), Inputs::Reproduce { goldens, .. }) => {
            for ((name, text), (_, golden)) in artifacts.iter().zip(goldens) {
                if text.trim_end() != golden.trim_end() {
                    outcome.fail(format!("{name} differs from its golden"));
                }
            }
        }
        _ => {}
    }
}

/// The seeded lockstep sample of a steady workload: every sampled
/// scenario must agree with the reference engine over its transient and
/// one period.
pub(crate) fn check_lockstep(
    seed: u64,
    cases: &[Case],
    outcomes: &[SteadyOutcome],
    outcome: &mut Outcome,
) {
    for i in sample_indices(seed, cases.len(), LOCKSTEP_SAMPLE) {
        let Some(cycles) = horizon(&outcomes[i]) else {
            continue;
        };
        outcome.attempted += 1;
        if let DiffOutcome::Diverged(d) = lockstep(&cases[i], cycles, false) {
            outcome.fail(format!("scenario {i} diverged from the reference: {d}"));
        }
    }
}

/// The untraced run: set up `SETUP_REPS` times, repeat the job (and the
/// latency pass) for `seconds`, check the outputs, report the end-to-end
/// metrics, all in reference-host seconds (see [`Segments`]).
pub(crate) fn untraced(settings: &Settings) -> Outcome {
    let mut outcome = Outcome::new(settings.workload, false);
    let mut block = Segments::start();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        built = Some(block.sample(|| setup(settings)));
    }
    let setup_s = block.finish().samples_s;
    let inputs = match built {
        Some(Ok(inputs)) => inputs,
        Some(Err(e)) => {
            outcome.fail(e);
            return outcome;
        }
        None => return outcome,
    };

    let clock = Stopwatch::start();
    let mut walls = Vec::new();
    // Per scenario, its time in every repetition.
    let mut latency_ms: Vec<Vec<f64>> = Vec::new();
    let mut digests = Vec::new();
    let mut answers = 0;
    let mut first = None;
    while walls.len() < MIN_REPS || clock.seconds() < settings.seconds {
        let rep = rep(&inputs, None);
        let (ms, latency_digest, latency_failed) = latency_pass(&inputs);
        outcome.attempted += rep.answers + ms.len() as u64;
        outcome.failed += rep.failed + latency_failed;
        check_rep(&inputs, &rep, &mut outcome);
        walls.push(rep.wall_s);
        outcome
            .repetitions
            .push((rep.raw_s, rep.wall_s / rep.raw_s));
        let times: Vec<f64> = rep.latency_ms.iter().chain(&ms).copied().collect();
        latency_ms.resize_with(times.len(), Vec::new);
        for (all, t) in latency_ms.iter_mut().zip(times) {
            all.push(t);
        }
        digests.push((rep.digest, latency_digest));
        answers = rep.answers;
        first.get_or_insert(rep);
    }
    outcome.digest = first.as_ref().map(|r| r.digest);
    if let Some(i) = digests.iter().position(|d| *d != digests[0]) {
        outcome.fail(format!(
            "repetition {i} answered differently from repetition 0"
        ));
    }
    if let (
        Inputs::Steady(cases),
        Some(Rep {
            detail: Detail::Steady(outcomes),
            ..
        }),
    ) = (&inputs, &first)
    {
        check_lockstep(settings.seed, cases, outcomes, &mut outcome);
    }

    let wall_s = median(&walls);
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        outcome.fail(e);
        0.0
    });
    let reps = walls.len() as u64;
    // A scenario's latency is its median over the repetitions, so that a
    // burst of host contention during one repetition does not land in
    // the tail.
    let latency: Vec<f64> = latency_ms.iter().map(|t| median(t)).collect();
    let scenarios = latency.len() as u64;
    let values = [
        (median(&setup_s), SETUP_REPS as u64),
        (wall_s, reps),
        (quantile(&latency, 0.50), scenarios),
        (quantile(&latency, 0.99), scenarios),
        (rss, 1),
    ];
    for ((name, unit), (value, n)) in END_TO_END.into_iter().zip(values) {
        outcome.metrics.push(Metric::new(name, value, unit, n));
    }
    if settings.workload != Workload::Reproduce {
        outcome.extras.push(Metric::new(
            "scenarios_per_s",
            answers as f64 / wall_s,
            "1/s",
            reps,
        ));
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.extras.push(Metric::new(
        "failed_frac",
        failed_frac,
        "ratio",
        outcome.attempted,
    ));
    outcome
}
