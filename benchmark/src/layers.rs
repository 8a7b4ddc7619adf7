//! The traced run: one replay of the job under spans, then each layer
//! timed from outside by calling into it directly.
//!
//! Spans are kept in memory in a [`SpanSink`] whose ticks are wall-clock
//! nanoseconds since the run started, and written at the end as a Chrome
//! trace-event file that Perfetto loads.

use crate::clock::{calibrated, timed, Digest, Segments, Stopwatch};
use crate::inputs::{strides, Case};
use crate::jobs::{
    horizon, lockstep, rep, sample_indices, setup, sweep_digest, Detail, Inputs, Rep,
    LOCKSTEP_SAMPLE,
};
use crate::report::{Metric, Outcome};
use crate::{Settings, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use vecmem_banksim::pattern::{AccessPattern, IndexPattern, PatternSpec, PatternWorkload};
use vecmem_banksim::steady::{measure_steady_state, measure_steady_state_patterns};
use vecmem_banksim::{
    ConflictKind, PortId, PortOutcome, Request, SimConfig, SimObserver, SimState,
};
use vecmem_banksim::{NoopObserver, ObservableWorkload, SteadyState};
use vecmem_exec::{pattern_steady_key, steady_key, PatternSteadyScenario, ResultCache, Runner};
use vecmem_exec::{SteadyOutcome, SteadyScenario};
use vecmem_obs::{Json, SpanSink};
use vecmem_oracle::conform::sweep;
use vecmem_simcore::{arbitrate_into, step};

/// The per-layer metrics, in report order. A metric whose layer the
/// workload never reaches reads 0.
pub(crate) const PER_LAYER: [(&str, &str); 38] = [
    ("simcore.step.ns_per_cycle", "ns"),
    ("simcore.step.ns_per_cycle.pow2", "ns"),
    ("simcore.step.ns_per_cycle.m13", "ns"),
    ("simcore.step.ns_per_cycle.gather_random", "ns"),
    ("simcore.step.ns_per_cycle.burst", "ns"),
    ("simcore.step.ns_per_cycle.dram", "ns"),
    ("simcore.step.cycles", "cycles"),
    ("simcore.steady.solve_s", "s"),
    ("simcore.steady.solve_per_kernel", "ratio"),
    ("simcore.steady.period_cycles", "cycles"),
    ("simcore.steady.period_cycles.pow2", "cycles"),
    ("simcore.steady.period_cycles.m13", "cycles"),
    ("simcore.steady.transient_cycles", "cycles"),
    ("simcore.steady.windowed_frac", "ratio"),
    ("simcore.steady.not_converged", "count"),
    ("simcore.pattern.ns_per_advance.stride", "ns"),
    ("simcore.pattern.ns_per_advance.gather_affine", "ns"),
    ("simcore.pattern.ns_per_advance.gather_random", "ns"),
    ("simcore.pattern.ns_per_advance.burst", "ns"),
    ("simcore.arbiter.ns_per_call", "ns"),
    ("simcore.arbiter.contested_frac", "ratio"),
    ("exec.cache.hits", "count"),
    ("exec.cache.misses", "count"),
    ("exec.cache.coalesced", "count"),
    ("exec.cache.hit_rate", "ratio"),
    ("exec.cache.key_ns", "ns"),
    ("exec.runner.speedup_2t", "ratio"),
    ("oracle.diff.ns_per_cycle", "ns"),
    ("oracle.diff.share", "ratio"),
    ("oracle.conform.sweep_s", "s"),
    ("oracle.conform.points", "count"),
    ("oracle.conform.executed", "count"),
    ("bench.figures_s", "s"),
    ("vproc.triad_s", "s"),
    ("bench.theorems_s", "s"),
    ("bench.ablations_s", "s"),
    ("banksim.random_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Probes whose arbitration inputs are captured, and cycles captured per
/// probe.
const ARBITER_PROBES: usize = 16;
const ARBITER_CYCLES: u64 = 4096;

/// Spans on a wall-clock nanosecond timeline, each tagged with its
/// workload and its parent span.
pub(crate) struct Tracer {
    sink: SpanSink,
    clock: Stopwatch,
    stack: Vec<String>,
    workload: &'static str,
}

impl Tracer {
    fn new(workload: Workload) -> Self {
        let mut sink = SpanSink::new();
        sink.switch_track(0, workload.name());
        Self {
            sink,
            clock: Stopwatch::start(),
            stack: Vec::new(),
            workload: workload.name(),
        }
    }

    /// Opens a span named `name` now.
    pub(crate) fn begin(&mut self, name: &str) {
        self.sink.advance_to(self.clock.nanos());
        self.sink.begin(name);
        self.sink.annotate("workload", Json::str(self.workload));
        let parent = self.stack.last().cloned().unwrap_or_default();
        self.sink.annotate("parent", Json::str(parent));
        self.stack.push(name.to_string());
    }

    /// Closes the innermost span now.
    pub(crate) fn end(&mut self) {
        self.sink.advance_to(self.clock.nanos());
        self.sink.end();
        self.stack.pop();
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }
}

/// Layer metric values by name: (value, samples).
type Values = BTreeMap<String, (f64, u64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The access-pattern family of one port.
fn family(spec: &PatternSpec) -> &'static str {
    match spec {
        PatternSpec::Stride { .. } => "stride",
        PatternSpec::Gather {
            index: IndexPattern::Affine { .. },
            ..
        } => "gather_affine",
        PatternSpec::Gather {
            index: IndexPattern::PseudoRandom { .. },
            ..
        } => "gather_random",
        PatternSpec::Burst { .. } => "burst",
    }
}

/// The kernel and pattern layers over fresh workloads, one per converged
/// probe: `(probe, workload, μ + λ)`. Each workload is stepped μ + λ
/// times with no observer (the kernel); then each port's address
/// generator replays `advance` once per grant the port received (the
/// pattern layer). Returns per probe its kernel seconds and, per port,
/// (advances, seconds), in reference-host seconds.
fn replay<P: AccessPattern>(
    tracer: &mut Tracer,
    probes: &[Case],
    runs: Vec<(usize, PatternWorkload<P>, u64)>,
) -> (Vec<f64>, Vec<Vec<(u64, f64)>>) {
    let mut block = Segments::start();
    let stepped: Vec<PatternWorkload<P>> = runs
        .into_iter()
        .map(|(i, mut workload, cycles)| {
            let config = &probes[i].scenario.config;
            let mut state = SimState::with_signature_slots(config, workload.signature_len());
            tracer.begin(probes[i].class);
            block.sample(|| {
                for _ in 0..cycles {
                    step(config, &mut state, &mut workload, &mut NoopObserver);
                }
            });
            tracer.end();
            workload
        })
        .collect();
    let kernel_s = block.finish().samples_s;

    let mut block = Segments::start();
    let grants: Vec<Vec<u64>> = stepped
        .iter()
        .map(|workload| {
            (0..workload.signature_len())
                .map(|p| {
                    let pattern = black_box(workload.pattern(p).clone());
                    let grants = workload.issued(p);
                    block.sample(|| {
                        let mut current = pattern.request_at(0);
                        for k in 1..=grants {
                            current = pattern.advance(k, &current);
                        }
                        black_box(current);
                    });
                    grants
                })
                .collect()
        })
        .collect();
    let mut advance_s = block.finish().samples_s.into_iter();
    let ports = grants
        .into_iter()
        .map(|g| g.into_iter().zip(advance_s.by_ref()).collect())
        .collect();
    (kernel_s, ports)
}

/// One cycle's arbitration inputs.
struct Arbitration {
    rotation: usize,
    requests: Vec<(PortId, Request)>,
    busy: u128,
}

/// Records every cycle's arbitration inputs; the busy set is kept from
/// the kernel's bank transitions, which it reports before arbitrating.
#[derive(Default)]
struct Capture {
    busy: u128,
    cycles: Vec<Arbitration>,
}

impl SimObserver for Capture {
    fn on_arbitration(&mut self, _cycle: u64, rotation: usize, requests: &[(PortId, Request)]) {
        self.cycles.push(Arbitration {
            rotation,
            requests: requests.to_vec(),
            busy: self.busy,
        });
    }

    fn on_bank_busy(&mut self, _cycle: u64, bank: u64, busy: bool) {
        if busy {
            self.busy |= 1 << bank;
        } else {
            self.busy &= !(1 << bank);
        }
    }
}

/// The traced run.
pub(crate) fn traced(settings: &Settings) -> Outcome {
    let workload = settings.workload;
    let mut outcome = Outcome::new(workload, true);
    let inputs = match setup(settings) {
        Ok(inputs) => inputs,
        Err(e) => {
            outcome.fail(e);
            return outcome;
        }
    };
    let mut tracer = Tracer::new(workload);
    let mut v = Values::new();

    // The job untraced, under spans, and untraced again: the untraced
    // pair is the reference for the overhead and the digests. Times are
    // in reference-host seconds.
    let plain = rep(&inputs, None);
    tracer.begin(workload.name());
    let job = rep(&inputs, Some(&mut tracer));
    tracer.end();
    let again = rep(&inputs, None);
    let plain_s = (plain.wall_s + again.wall_s) / 2.0;
    v.insert(
        "trace.overhead_frac".into(),
        (job.wall_s / plain_s - 1.0, 1),
    );
    outcome
        .extras
        .push(Metric::new("untraced_wall_s", plain_s, "s", 2));
    outcome.digest = Some(job.digest);
    if job.digest != plain.digest || again.digest != plain.digest {
        outcome.fail("the traced replay answered differently from the untraced ones");
    }
    outcome.attempted += plain.answers + job.answers + again.answers;
    outcome.failed += plain.failed + job.failed + again.failed;
    let cache = job.cache;
    let lookups = cache.hits + cache.misses;
    v.insert("exec.cache.hits".into(), (cache.hits as f64, lookups));
    v.insert("exec.cache.misses".into(), (cache.misses as f64, lookups));
    v.insert(
        "exec.cache.coalesced".into(),
        (cache.coalesced as f64, lookups),
    );
    v.insert("exec.cache.hit_rate".into(), (cache.hit_rate(), lookups));

    // The only measurement on more than one thread.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    tracer.span("exec.runner.2t", |t| {
        t.sink.annotate("threads", Json::U64(threads as u64));
        let speedup = two_threads(&inputs, &again, threads, &mut outcome);
        v.insert("exec.runner.speedup_2t".into(), (speedup, 1));
    });

    match (&inputs, &job.detail) {
        (Inputs::Sweep { .. }, Detail::Sweep(report)) => {
            v.insert("oracle.conform.sweep_s".into(), (job.phases_s[0], 1));
            v.insert(
                "oracle.conform.points".into(),
                (report.enumerated as f64, 1),
            );
            v.insert(
                "oracle.conform.executed".into(),
                (report.executed as f64, 1),
            );
        }
        (Inputs::Reproduce { .. }, _) => {
            let metrics = [
                "bench.figures_s",
                "vproc.triad_s",
                "bench.theorems_s",
                "bench.ablations_s",
                "banksim.random_s",
            ];
            for (metric, &secs) in metrics.into_iter().zip(&job.phases_s) {
                v.insert(metric.into(), (secs, 1));
            }
        }
        _ => {}
    }

    // The layer replays run over the workload's steady-state probes: its
    // own scenarios, the sweep's point sample, or the theorem table's
    // scenarios, each through the entry point its job uses.
    let (probes, streams_api): (Vec<Case>, bool) = match &inputs {
        Inputs::Sweep { sample, .. } => (
            sample
                .iter()
                .map(|s| Case {
                    class: "stride",
                    scenario: PatternSteadyScenario {
                        config: s.config.clone(),
                        patterns: strides(&s.streams),
                        max_cycles: s.steady_budget,
                    },
                })
                .collect(),
            true,
        ),
        Inputs::Steady(cases) => (cases.clone(), false),
        Inputs::Reproduce { plan, .. } => (plan.clone(), true),
    };
    layer_replays(
        settings,
        &probes,
        streams_api,
        &mut tracer,
        &mut v,
        &mut outcome,
    );

    for (name, unit) in PER_LAYER {
        let (value, samples) = v.get(name).copied().unwrap_or((0.0, 0));
        outcome
            .metrics
            .push(Metric::new(name, value, unit, samples));
    }
    let path = settings
        .out_dir
        .join(format!("{}-trace.json", workload.name()));
    if let Err(e) = tracer.sink.write(&path) {
        outcome.fail(format!("cannot write {}: {e}", path.display()));
    }
    outcome
}

/// Serial ÷ `threads`-thread host time of the job's batch, run back to
/// back, checking that both answer identically. `serial` is the untraced
/// repetition that ran just before.
fn two_threads(inputs: &Inputs, serial: &Rep, threads: usize, outcome: &mut Outcome) -> f64 {
    let runner = Runner::with_threads(threads);
    match inputs {
        Inputs::Sweep { bounds, .. } => {
            let (report, wide_s) = timed(|| sweep(bounds, &runner));
            let mut digest = Digest::default();
            sweep_digest(&mut digest, &report);
            if digest.value() != serial.digest {
                outcome.fail(format!(
                    "the sweep answered differently on {threads} threads"
                ));
            }
            ratio(serial.raw_s, wide_s)
        }
        Inputs::Steady(cases) => {
            let scenarios: Vec<PatternSteadyScenario> =
                cases.iter().map(|c| c.scenario.clone()).collect();
            let ((outs, _), wide_s) = timed(|| runner.run_cached(&scenarios, &ResultCache::new()));
            if digest_of(&outs) != serial.digest {
                outcome.fail(format!(
                    "the batch answered differently on {threads} threads"
                ));
            }
            ratio(serial.raw_s, wide_s)
        }
        Inputs::Reproduce { plan, .. } => {
            // reproduce_all's own calls pick their thread count; its
            // theorem table's scenarios are what is timed here.
            let scenarios: Vec<SteadyScenario> = plan
                .iter()
                .map(|c| SteadyScenario {
                    config: c.scenario.config.clone(),
                    streams: c.streams().expect("the theorem plan is all strides"),
                    max_cycles: c.scenario.max_cycles,
                })
                .collect();
            let ((one, _), serial_s) =
                timed(|| Runner::with_threads(1).run_cached(&scenarios, &ResultCache::new()));
            let ((wide, _), wide_s) = timed(|| runner.run_cached(&scenarios, &ResultCache::new()));
            if digest_of(&one) != digest_of(&wide) {
                outcome.fail(format!(
                    "the theorem plan answered differently on {threads} threads"
                ));
            }
            ratio(serial_s, wide_s)
        }
    }
}

fn digest_of(outcomes: &[SteadyOutcome]) -> u64 {
    let mut digest = Digest::default();
    for o in outcomes {
        digest.steady(o);
    }
    digest.value()
}

/// Key, solve, kernel, pattern, arbiter and oracle replays over `probes`.
fn layer_replays(
    settings: &Settings,
    probes: &[Case],
    streams_api: bool,
    tracer: &mut Tracer,
    v: &mut Values,
    outcome: &mut Outcome,
) {
    let n = probes.len() as u64;
    let streams: Vec<Option<Vec<_>>> = probes
        .iter()
        .map(|p| if streams_api { p.streams() } else { None })
        .collect();

    // Every time below is in reference-host seconds (see `Segments`).
    // Key canonicalisation.
    let (key_s, host) = calibrated(|| {
        tracer.span("exec.cache.key", |_| {
            let clock = Stopwatch::start();
            for (p, st) in probes.iter().zip(&streams) {
                let s = &p.scenario;
                match st {
                    Some(st) => drop(black_box(steady_key(&s.config, st, s.max_cycles))),
                    None => drop(black_box(pattern_steady_key(
                        &s.config,
                        &s.patterns,
                        s.max_cycles,
                    ))),
                }
            }
            clock.seconds()
        })
    });
    v.insert(
        "exec.cache.key_ns".into(),
        (ratio(key_s * host * 1e9, n as f64), n),
    );

    // Solve: each probe's steady-state search, alone.
    let mut block = Segments::start();
    let outcomes: Vec<SteadyOutcome> = tracer.span("simcore.steady.solve", |t| {
        probes
            .iter()
            .zip(&streams)
            .map(|(p, st)| {
                let s = &p.scenario;
                t.begin(p.class);
                let out = block.sample(|| match st {
                    Some(st) => measure_steady_state(&s.config, st, s.max_cycles),
                    None => measure_steady_state_patterns(&s.config, &s.patterns, s.max_cycles),
                });
                t.end();
                out
            })
            .collect()
    });
    let solved: Vec<(SteadyOutcome, f64)> =
        outcomes.into_iter().zip(block.finish().samples_s).collect();
    outcome.attempted += n;
    let not_converged = solved.iter().filter(|(o, _)| o.is_err()).count();
    outcome.failed += not_converged as u64;
    let converged: Vec<usize> = (0..probes.len()).filter(|&i| solved[i].0.is_ok()).collect();
    let exact: Vec<&SteadyState> = solved.iter().filter_map(|(o, _)| o.as_ref().ok()).collect();
    let solve_s: f64 = solved.iter().map(|(_, s)| s).sum();
    v.insert("simcore.steady.solve_s".into(), (solve_s, n));
    v.insert(
        "simcore.steady.not_converged".into(),
        (not_converged as f64, n),
    );
    let windowed = exact.iter().filter(|ss| !ss.exact).count();
    v.insert(
        "simcore.steady.windowed_frac".into(),
        (
            ratio(windowed as f64, exact.len() as f64),
            exact.len() as u64,
        ),
    );
    let periods = |class: Option<&str>| {
        let picked: Vec<&SteadyState> = converged
            .iter()
            .filter(|&&i| class.is_none_or(|c| probes[i].class == c))
            .filter_map(|&i| solved[i].0.as_ref().ok())
            .filter(|ss| ss.exact)
            .collect();
        let k = picked.len() as f64;
        let period = ratio(picked.iter().map(|ss| ss.period as f64).sum(), k);
        let transient = ratio(picked.iter().map(|ss| ss.transient as f64).sum(), k);
        (period, transient, picked.len() as u64)
    };
    let (period, transient, k) = periods(None);
    v.insert("simcore.steady.period_cycles".into(), (period, k));
    v.insert("simcore.steady.transient_cycles".into(), (transient, k));
    for class in ["pow2", "m13"] {
        let (period, _, k) = periods(Some(class));
        v.insert(format!("simcore.steady.period_cycles.{class}"), (period, k));
    }

    // Kernel and pattern layers over the converged probes.
    let cycles: Vec<u64> = converged
        .iter()
        .map(|&i| horizon(&solved[i].0).expect("converged"))
        .collect();
    let (kernel_s, ports) = tracer.span("simcore.step", |t| {
        if streams_api {
            let runs = converged.iter().zip(&cycles).map(|(&i, &c)| {
                let streams = streams[i].as_deref().expect("stride probes");
                (
                    i,
                    PatternWorkload::strided(&probes[i].scenario.config.geometry, streams),
                    c,
                )
            });
            replay(t, probes, runs.collect())
        } else {
            let runs = converged.iter().zip(&cycles).map(|(&i, &c)| {
                let s = &probes[i].scenario;
                (i, PatternWorkload::from_specs(&s.config, &s.patterns), c)
            });
            replay(t, probes, runs.collect())
        }
    });
    let mut kernel: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut advance: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut kernel_total = (0.0, 0u64);
    let mut solve_converged = 0.0;
    for (((&i, &c), secs), ports) in converged.iter().zip(&cycles).zip(kernel_s).zip(ports) {
        let entry = kernel.entry(probes[i].class).or_default();
        entry.0 += secs;
        entry.1 += c;
        kernel_total.0 += secs;
        kernel_total.1 += c;
        solve_converged += solved[i].1;
        for (spec, (grants, secs)) in probes[i].scenario.patterns.iter().zip(ports) {
            let entry = advance.entry(family(spec)).or_default();
            entry.0 += secs;
            entry.1 += grants;
        }
    }
    let per_cycle = |(secs, cycles): (f64, u64)| (ratio(secs * 1e9, cycles as f64), cycles);
    v.insert("simcore.step.ns_per_cycle".into(), per_cycle(kernel_total));
    v.insert(
        "simcore.step.cycles".into(),
        (kernel_total.1 as f64, converged.len() as u64),
    );
    v.insert(
        "simcore.steady.solve_per_kernel".into(),
        (
            ratio(solve_converged, kernel_total.0),
            converged.len() as u64,
        ),
    );
    for (class, &totals) in &kernel {
        v.insert(
            format!("simcore.step.ns_per_cycle.{class}"),
            per_cycle(totals),
        );
    }
    for (family, &totals) in &advance {
        v.insert(
            format!("simcore.pattern.ns_per_advance.{family}"),
            per_cycle(totals),
        );
    }

    // Arbiter: the inputs of every cycle of a seeded probe sample,
    // replayed through `arbitrate_into`.
    let picked: Vec<usize> = sample_indices(settings.seed, converged.len(), ARBITER_PROBES)
        .into_iter()
        .map(|i| converged[i])
        .filter(|&i| probes[i].scenario.config.geometry.banks() <= 128)
        .collect();
    let captured: Vec<(&SimConfig, Vec<Arbitration>)> = picked
        .iter()
        .map(|&i| {
            let s = &probes[i].scenario;
            let mut state = SimState::new(&s.config);
            let mut workload = PatternWorkload::from_specs(&s.config, &s.patterns);
            let mut capture = Capture::default();
            let cycles = horizon(&solved[i].0)
                .expect("converged")
                .min(ARBITER_CYCLES);
            for _ in 0..cycles {
                step(&s.config, &mut state, &mut workload, &mut capture);
            }
            (&s.config, capture.cycles)
        })
        .collect();
    let calls: usize = captured.iter().map(|(_, c)| c.len()).sum();
    let mut kinds = Vec::new();
    let (arbiter_s, host) = calibrated(|| {
        tracer.span("simcore.arbiter", |_| {
            let clock = Stopwatch::start();
            for (config, cycles) in &captured {
                for c in cycles {
                    arbitrate_into(
                        config,
                        c.rotation,
                        |b| c.busy >> b & 1 != 0,
                        &c.requests,
                        &mut kinds,
                    );
                    black_box(&kinds);
                }
            }
            clock.seconds()
        })
    });
    let mut contested = 0usize;
    for (config, cycles) in &captured {
        for c in cycles {
            arbitrate_into(
                config,
                c.rotation,
                |b| c.busy >> b & 1 != 0,
                &c.requests,
                &mut kinds,
            );
            contested += usize::from(kinds.iter().any(|k| {
                matches!(
                    k,
                    PortOutcome::Delayed(ConflictKind::Section | ConflictKind::SimultaneousBank)
                )
            }));
        }
    }
    v.insert(
        "simcore.arbiter.ns_per_call".into(),
        (ratio(arbiter_s * host * 1e9, calls as f64), calls as u64),
    );
    v.insert(
        "simcore.arbiter.contested_frac".into(),
        (ratio(contested as f64, calls as f64), calls as u64),
    );

    // Oracle lockstep: the sweep's whole point sample over transient +
    // period + 8 (as the sweep runs it), elsewhere a seeded sample over
    // transient + period. Only the sweep's job runs a lockstep, so only
    // there does it take a share of the job.
    let sweep_like = settings.workload == Workload::VerifyExhaustive;
    let oracle_probes: Vec<usize> = if sweep_like {
        converged.clone()
    } else {
        sample_indices(settings.seed, converged.len(), LOCKSTEP_SAMPLE)
            .into_iter()
            .map(|i| converged[i])
            .collect()
    };
    let slack = if sweep_like { 8 } else { 0 };
    let mut block = Segments::start();
    let lock_cycles = tracer.span("oracle.diff", |_| {
        let mut total = 0u64;
        for &i in &oracle_probes {
            let cycles = horizon(&solved[i].0).expect("converged") + slack;
            let diff = block.sample(|| lockstep(&probes[i], cycles, streams_api));
            total += cycles;
            outcome.attempted += 1;
            if let vecmem_oracle::DiffOutcome::Diverged(d) = diff {
                outcome.fail(format!("probe {i} diverged from the reference: {d}"));
            }
        }
        total
    });
    let lock_s = block.finish().scaled_s;
    v.insert(
        "oracle.diff.ns_per_cycle".into(),
        per_cycle((lock_s, lock_cycles)),
    );
    let share = if sweep_like {
        ratio(lock_s, lock_s + solve_s)
    } else {
        0.0
    };
    v.insert(
        "oracle.diff.share".into(),
        (share, oracle_probes.len() as u64),
    );
}
