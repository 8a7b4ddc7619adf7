//! CLI subcommand implementations.

use crate::args::{Options, ParseError};
use vecmem_analytic::pair::classify_pair;
use vecmem_analytic::planner::{assess_stride, pad_dimension, pair_is_safe};
use vecmem_analytic::sections::analyze_sectioned_pair;
use vecmem_analytic::{Geometry, SectionMapping, StreamSpec};
use vecmem_banksim::pattern::{PatternSpec, PatternWorkload};
use vecmem_banksim::state::MAX_BANK_CYCLE;
use vecmem_banksim::steady::measure_steady_state_patterns;
use vecmem_banksim::{
    hellerman_asymptotic, hellerman_bandwidth, measure_random_bandwidth, BankModel, Engine,
    PriorityRule, SimConfig, Tee, TraceRecorder, Workload, WINDOWED_FALLBACK_CYCLES,
};
use vecmem_exec::{
    batch_spans, export_exec_telemetry, triad_sweep, PatternSteadyScenario, ResultCache, Runner,
    Scenario, SpectrumScenario, TraceScenario,
};
use vecmem_obs::{
    write_metrics, ConflictLedger, EventLog, Json, LossKind, MetricsRegistry, SpanSink,
};
use vecmem_oracle::{explore, sweep_observed, DiffOutcome, ExploreConfig, SweepBounds};
use vecmem_skew::eval::gather_bandwidth;
use vecmem_skew::{BankMapping, Interleaved, LinearSkew, PrimeInterleaved, XorFold};
use vecmem_vproc::gather::{run_gather, IndexPattern};
use vecmem_vproc::loops::{LoopSpec, Walk};
use vecmem_vproc::triad::TriadExperiment;
use vecmem_vproc::{FortranArray, Kernel};

/// Why a command failed, which decides the exit code: `Usage` for an
/// option value the simulator cannot take (exit 2, like a malformed
/// command line), `Run` for everything else (exit 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Rejected option value.
    Usage(String),
    /// Any other failure.
    Run(String),
}

impl Failure {
    /// Process exit code for this failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::Usage(_) => 2,
            Self::Run(_) => 1,
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Self::Run(message)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Usage(m) | Self::Run(m) => f.write_str(m),
        }
    }
}

/// Common geometry options: `--banks`, `--sections`, `--nc`, `--consecutive`.
fn geometry(opts: &Options) -> Result<Geometry, Failure> {
    let banks = opts.u64_or("banks", 16).map_err(err)?;
    let sections = opts.u64_or("sections", banks).map_err(err)?;
    let nc = opts.u64_or("nc", 4).map_err(err)?;
    if nc > MAX_BANK_CYCLE {
        return Err(Failure::Usage(format!(
            "--nc {nc} exceeds the simulator's largest bank cycle time {MAX_BANK_CYCLE}"
        )));
    }
    let mapping = if opts.flag("consecutive") {
        SectionMapping::Consecutive
    } else {
        SectionMapping::Cyclic
    };
    Geometry::with_mapping(banks, sections, nc, mapping).map_err(|e| Failure::Run(e.to_string()))
}

/// An option value that does not parse is a usage error, like a value the
/// simulator rejects.
fn err(e: ParseError) -> Failure {
    Failure::Usage(e.to_string())
}

fn priority(opts: &Options) -> PriorityRule {
    if opts.flag("cyclic") {
        PriorityRule::Cyclic
    } else {
        PriorityRule::Fixed
    }
}

fn pair_config(opts: &Options, geom: Geometry) -> SimConfig {
    let cfg = if opts.flag("same-cpu") {
        SimConfig::single_cpu(geom, 2)
    } else {
        SimConfig::one_port_per_cpu(geom, 2)
    };
    cfg.with_priority(priority(opts))
}

/// Telemetry options shared by the simulating commands:
/// `--metrics-out PATH` (JSON, or CSV when the path ends in `.csv`),
/// `--events-out PATH` (JSONL event log) and `--obs-window N` (cycles per
/// `b_eff(t)` window).
struct ObsRequest {
    metrics_out: Option<String>,
    events_out: Option<String>,
    window: u64,
}

impl ObsRequest {
    fn from_opts(opts: &Options) -> Result<Self, Failure> {
        let window = opts
            .u64_or("obs-window", vecmem_obs::DEFAULT_WINDOW)
            .map_err(err)?;
        if window == 0 {
            return Err(Failure::Usage(
                "--obs-window must be at least 1".to_string(),
            ));
        }
        Ok(Self {
            metrics_out: opts.string("metrics-out").map(ToString::to_string),
            events_out: opts.string("events-out").map(ToString::to_string),
            window,
        })
    }

    /// Telemetry only costs anything when at least one output was asked for.
    fn enabled(&self) -> bool {
        self.metrics_out.is_some() || self.events_out.is_some()
    }

    fn observers(&self, banks: u64, ports: usize) -> (MetricsRegistry, EventLog) {
        let metrics = MetricsRegistry::with_window(banks, ports, self.window);
        let events = EventLog::new(banks, ports as u64);
        (metrics, events)
    }

    /// Writes the requested outputs and returns the summary lines to append
    /// to the command's report.
    fn finish(&self, metrics: &MetricsRegistry, events: &EventLog) -> Result<String, String> {
        let mut out = String::new();
        if let Some(path) = &self.metrics_out {
            write_metrics(path, &metrics.snapshot()).map_err(|e| format!("writing {path}: {e}"))?;
            out.push_str(&format!("metrics -> {path}\n"));
        }
        if let Some(path) = &self.events_out {
            events
                .write_jsonl(path)
                .map_err(|e| format!("writing {path}: {e}"))?;
            out.push_str(&format!(
                "events -> {path} ({} events)\n",
                events.events().len()
            ));
        }
        Ok(out)
    }
}

fn pair_streams(opts: &Options, geom: &Geometry) -> Result<[StreamSpec; 2], Failure> {
    let d1 = opts.u64_or("d1", 1).map_err(err)? % geom.banks();
    let d2 = opts.u64_or("d2", 1).map_err(err)? % geom.banks();
    let b1 = opts.u64_or("b1", 0).map_err(err)? % geom.banks();
    let b2 = opts.u64_or("b2", 0).map_err(err)? % geom.banks();
    Ok([
        StreamSpec {
            start_bank: b1,
            distance: d1,
        },
        StreamSpec {
            start_bank: b2,
            distance: d2,
        },
    ])
}

/// Bank-model options: `--bank-model {uniform|dram}` with `--dram-hit N`
/// (open-row hit hold, default 1) and `--dram-rows N` (rows tracked per
/// bank, default 16).
fn bank_model(opts: &Options, geom: &Geometry) -> Result<BankModel, Failure> {
    match opts.string("bank-model").unwrap_or("uniform") {
        "uniform" => Ok(BankModel::Uniform),
        "dram" => {
            let hit_cycle = opts.u64_or("dram-hit", 1).map_err(err)?;
            let rows = opts.u64_or("dram-rows", 16).map_err(err)?;
            if hit_cycle == 0 || hit_cycle > geom.bank_cycle() {
                return Err(Failure::Usage(format!(
                    "--dram-hit must be in 1..={} (the geometry's n_c)",
                    geom.bank_cycle()
                )));
            }
            if rows == 0 {
                return Err(Failure::Usage("--dram-rows must be at least 1".to_string()));
            }
            Ok(BankModel::Dram { hit_cycle, rows })
        }
        other => Err(Failure::Usage(format!(
            "unknown bank model '{other}' (have uniform, dram)"
        ))),
    }
}

/// Per-grant burst length implied by the pattern options (1 unless
/// `--pattern burst`).
fn pattern_burst(opts: &Options) -> Result<u64, Failure> {
    if opts.string("pattern") == Some("burst") {
        let burst = opts.u64_or("burst", 4).map_err(err)?;
        if burst == 0 {
            return Err(Failure::Usage("--burst must be at least 1".to_string()));
        }
        Ok(burst)
    } else {
        Ok(1)
    }
}

/// Pattern options for the two-port simulating commands: `--pattern
/// {stride|gather|burst}` (default stride) applied to both ports.
///
/// * `stride` uses the `--d1/--d2/--b1/--b2` streams unchanged;
/// * `gather` gathers over `--span` words with pseudo-random indices
///   seeded `--seed` and `--seed + 1` (or affine `--affine A` indices on
///   both ports);
/// * `burst` drives the `--d1/--d2` strides with `--burst` words per
///   grant.
fn pattern_specs(opts: &Options, geom: &Geometry) -> Result<Vec<PatternSpec>, Failure> {
    let [s1, s2] = pair_streams(opts, geom)?;
    match opts.string("pattern").unwrap_or("stride") {
        "stride" => Ok([s1, s2]
            .iter()
            .map(|s| PatternSpec::Stride {
                start_bank: s.start_bank,
                distance: s.distance,
            })
            .collect()),
        "gather" => {
            let span = opts.u64_or("span", 1 << 20).map_err(err)?;
            if span == 0 {
                return Err(Failure::Usage("--span must be at least 1".to_string()));
            }
            let index = |port: u64| -> Result<IndexPattern, Failure> {
                if let Some(a) = opts.string("affine") {
                    let a: u64 = a.parse().map_err(|_| {
                        Failure::Usage("--affine takes an integer multiplier".to_string())
                    })?;
                    Ok(IndexPattern::Affine { a, c: port })
                } else {
                    let seed = opts.u64_or("seed", 1).map_err(err)?;
                    Ok(IndexPattern::PseudoRandom { seed: seed + port })
                }
            };
            Ok(vec![
                PatternSpec::Gather {
                    base: 0,
                    span,
                    index: index(0)?,
                },
                PatternSpec::Gather {
                    base: 0,
                    span,
                    index: index(1)?,
                },
            ])
        }
        "burst" => {
            let burst = pattern_burst(opts)?;
            Ok([s1, s2]
                .iter()
                .map(|s| PatternSpec::Burst {
                    start_bank: s.start_bank,
                    distance: s.distance,
                    burst,
                })
                .collect())
        }
        other => Err(Failure::Usage(format!(
            "unknown pattern '{other}' (have stride, gather, burst)"
        ))),
    }
}

/// `vecmem predict`: analytic classification of a stream pair.
pub fn cmd_predict(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let [s1, s2] = pair_streams(opts, &geom)?;
    let mut out = format!(
        "geometry: m = {}, s = {}, n_c = {}\nstream 1: b = {}, d = {} (r = {})\nstream 2: b = {}, d = {} (r = {})\n",
        geom.banks(),
        geom.sections(),
        geom.bank_cycle(),
        s1.start_bank,
        s1.distance,
        s1.return_number(&geom),
        s2.start_bank,
        s2.distance,
        s2.return_number(&geom),
    );
    if opts.flag("same-cpu") && !geom.is_unsectioned() {
        let analysis = analyze_sectioned_pair(&geom, &s1, &s2);
        out.push_str(&format!("sectioned analysis: {analysis:?}\n"));
    } else {
        let class = classify_pair(&geom, &s1, &s2, true);
        out.push_str(&format!("classification: {class:?}\n"));
        if let Some(beff) = class.predicted_bandwidth() {
            out.push_str(&format!("predicted b_eff = {beff}\n"));
        }
    }
    Ok(out)
}

/// `vecmem steady`: exact simulated steady state of a pattern pair
/// (strides by default; `--pattern gather|burst`, `--bank-model dram`),
/// run through the `vecmem-exec` layer (`--cycle-budget N` bounds the
/// cyclic-state search; a pair that does not converge exits non-zero).
/// Aperiodic gathers report a windowed estimate instead of an exact state.
pub fn cmd_steady(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let patterns = pattern_specs(opts, &geom)?;
    let config = pair_config(opts, geom).with_bank_model(bank_model(opts, &geom)?);
    let budget = opts.u64_or("cycle-budget", 10_000_000).map_err(err)?;
    let ports = config.num_ports();
    let scenario = PatternSteadyScenario {
        config,
        patterns,
        max_cycles: budget,
    };
    let cache = ResultCache::new();
    let (mut outcomes, report) = Runner::new().run_cached(&[scenario], &cache);
    let ss = outcomes
        .pop()
        .expect("one scenario")
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "b_eff = {} (per port: {}, {})\ntransient {} cycles, period {} cycles\nconflicts per period: bank {}, simultaneous {}, section {}\n",
        ss.beff,
        ss.per_port[0],
        ss.per_port[1],
        ss.transient,
        ss.period,
        ss.conflicts_per_period.bank,
        ss.conflicts_per_period.simultaneous,
        ss.conflicts_per_period.section,
    );
    if !ss.exact {
        out.push_str(&format!(
            "note: aperiodic pattern — figures are a windowed estimate over {} cycles, \
             not an exact cyclic state\n",
            ss.period.min(WINDOWED_FALLBACK_CYCLES)
        ));
    }
    if let Some(path) = opts.string("metrics-out") {
        let mut metrics = MetricsRegistry::new(geom.banks(), ports);
        export_exec_telemetry(&mut metrics, &report);
        write_metrics(path, &metrics.snapshot()).map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("metrics -> {path}\n"));
    }
    Ok(out)
}

/// Steps `cycles` clock periods of `workload` under a [`TraceRecorder`]
/// and, when telemetry was asked for, `obs`'s metrics registry and event
/// log. Returns the rendered trace and the two observers.
fn traced<W: Workload>(
    config: &SimConfig,
    workload: &mut W,
    cycles: u64,
    obs: &ObsRequest,
) -> (String, MetricsRegistry, EventLog) {
    let banks = config.geometry.banks();
    let mut engine = Engine::new(config.clone());
    let mut trace = TraceRecorder::new(banks, cycles);
    let (mut metrics, mut events) = obs.observers(banks, config.num_ports());
    for _ in 0..cycles {
        if obs.enabled() {
            engine.step_with(
                workload,
                &mut Tee(&mut trace, &mut Tee(&mut metrics, &mut events)),
            );
        } else {
            engine.step_with(workload, &mut trace);
        }
    }
    (trace.render_all(), metrics, events)
}

/// `vecmem trace`: paper-style ASCII trace of a stream pair (or, with
/// `--pattern gather|burst` / `--bank-model dram`, of a generalized
/// pattern pair), followed by the exact steady state (`--cycle-budget N`
/// bounds the search; a pair that does not converge exits non-zero).
pub fn cmd_trace(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let specs = pair_streams(opts, &geom)?;
    let cycles = opts.u64_or("cycles", 36).map_err(err)?;
    let budget = opts.u64_or("cycle-budget", 10_000_000).map_err(err)?;
    let obs = ObsRequest::from_opts(opts)?;
    let model = bank_model(opts, &geom)?;
    let config = pair_config(opts, geom).with_bank_model(model);
    let steady_line = |ss: &vecmem_banksim::SteadyState| {
        if ss.exact {
            format!(
                "steady: b_eff = {} (transient {} cycles, period {})\n",
                ss.beff, ss.transient, ss.period
            )
        } else {
            format!(
                "steady: b_eff = {} (aperiodic pattern — windowed estimate over {} cycles)\n",
                ss.beff, ss.period
            )
        }
    };
    let plain_strides =
        model == BankModel::Uniform && opts.string("pattern").is_none_or(|p| p == "stride");
    if !plain_strides || obs.enabled() {
        // Generalized patterns, DRAM bank models and telemetry runs: trace
        // the pattern workload directly, then measure the steady state on
        // a fresh one. Plain stride pairs go through the cached scenario.
        let patterns = pattern_specs(opts, &geom)?;
        let mut workload = PatternWorkload::from_specs(&config, &patterns);
        let (mut out, metrics, events) = traced(&config, &mut workload, cycles, &obs);
        let ss =
            measure_steady_state_patterns(&config, &patterns, budget).map_err(|e| e.to_string())?;
        out.push_str(&steady_line(&ss));
        out.push_str(&obs.finish(&metrics, &events)?);
        return Ok(out);
    }
    let scenario = TraceScenario {
        config,
        streams: specs.to_vec(),
        trace_cycles: cycles,
        max_cycles: budget,
    };
    let outcome = scenario.execute();
    let ss = outcome.steady.map_err(|e| e.to_string())?;
    let mut out = outcome.trace;
    out.push_str(&steady_line(&ss));
    Ok(out)
}

/// `vecmem triad`: the §IV experiment.
pub fn cmd_triad(opts: &Options) -> Result<String, Failure> {
    let max_inc = opts.u64_or("sweep", 0).map_err(err)?;
    let alone = opts.flag("alone");
    if max_inc > 0 {
        let results = Runner::new().run(&triad_sweep(max_inc, !alone));
        let mut out = format!(
            "{:>4} {:>10} {:>9} {:>9} {:>9}\n",
            "INC", "cycles", "bank", "section", "simult."
        );
        for r in results {
            out.push_str(&format!(
                "{:>4} {:>10} {:>9} {:>9} {:>9}\n",
                r.inc,
                r.cycles,
                r.triad_conflicts.bank,
                r.triad_conflicts.section,
                r.triad_conflicts.simultaneous
            ));
        }
        return Ok(out);
    }
    let inc = opts.u64_or("inc", 1).map_err(err)?;
    let obs = ObsRequest::from_opts(opts)?;
    let exp = if alone {
        TriadExperiment::paper_alone(inc)
    } else {
        TriadExperiment::paper(inc)
    };
    let (r, telemetry) = if obs.enabled() {
        let (mut metrics, mut events) =
            obs.observers(exp.sim.geometry.banks(), exp.sim.num_ports());
        let r = exp.run_observed(&mut Tee(&mut metrics, &mut events));
        (r, Some(obs.finish(&metrics, &events)?))
    } else {
        (exp.run(), None)
    };
    let mut out = format!(
        "INC = {}: {} clock periods; conflicts: bank {}, section {}, simultaneous {}; background grants {}\n",
        r.inc,
        r.cycles,
        r.triad_conflicts.bank,
        r.triad_conflicts.section,
        r.triad_conflicts.simultaneous,
        r.background_grants,
    );
    if let Some(telemetry) = telemetry {
        out.push_str(&telemetry);
    }
    Ok(out)
}

/// `vecmem random`: random-access bandwidth vs the classical models.
pub fn cmd_random(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let ports = opts.u64_or("ports", 4).map_err(err)? as usize;
    let cycles = opts.u64_or("cycles", 100_000).map_err(err)?;
    let seed = opts.u64_or("seed", 1).map_err(err)?;
    let config = SimConfig::one_port_per_cpu(geom, ports).with_priority(priority(opts));
    let measured = measure_random_bandwidth(&config, seed, cycles);
    Ok(format!(
        "random access, {} ports on {} banks (n_c = {}): b_eff = {:.4}\n\
         classical batch-scan model (Hellerman): B(m) = {:.4} (asymptotic sqrt(pi m/2) = {:.4})\n\
         capacity bound m/n_c = {:.4}\n",
        ports,
        geom.banks(),
        geom.bank_cycle(),
        measured,
        hellerman_bandwidth(geom.banks()),
        hellerman_asymptotic(geom.banks()),
        geom.banks() as f64 / geom.bank_cycle() as f64,
    ))
}

/// `vecmem plan`: stride assessment and padding advice.
pub fn cmd_plan(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let max_stride = opts.u64_or("max-stride", 2 * geom.banks()).map_err(err)?;
    let mut out = format!(
        "{:>7} {:>6} {:>8} {:>10} {:>14}\n",
        "stride", "r", "solo", "self-safe", "vs unit-stride"
    );
    for stride in 1..=max_stride {
        let rep = assess_stride(&geom, stride);
        out.push_str(&format!(
            "{:>7} {:>6} {:>8} {:>10} {:>14}\n",
            stride,
            rep.return_number,
            rep.solo_bandwidth.to_string(),
            if rep.self_conflict_free { "yes" } else { "NO" },
            if pair_is_safe(&geom, stride, 1) {
                "safe"
            } else {
                "conflicts"
            },
        ));
    }
    if let Some(dim) = opts.string("pad") {
        let dim: u64 = dim
            .parse()
            .map_err(|_| Failure::Usage("--pad takes an integer".to_string()))?;
        out.push_str(&format!(
            "pad dimension {dim} -> {} (relatively prime to {} banks)\n",
            pad_dimension(&geom, dim),
            geom.banks()
        ));
    }
    Ok(out)
}

/// `vecmem figure`: regenerate one of the paper's trace figures.
pub fn cmd_figure(opts: &Options) -> Result<String, Failure> {
    use vecmem_bench::figures;
    let id = opts
        .positional()
        .first()
        .map(String::as_str)
        .ok_or_else(|| "usage: vecmem figure <2|3|4|5|6|7|8a|8b|9> [--cycles N]".to_string())?;
    let cycles = opts.u64_or("cycles", 36).map_err(err)?;
    let figure = figures::all_figures()
        .into_iter()
        .find(|f| f.id == id)
        .ok_or_else(|| format!("unknown figure '{id}' (have 2,3,4,5,6,7,8a,8b,9)"))?;
    Ok(figures::report(&figure.run(cycles)))
}

/// `vecmem loop`: analyse a Fortran loop over an array.
pub fn cmd_loop(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let dims: Vec<u64> = opts
        .string("dims")
        .unwrap_or("64,64")
        .split(',')
        .map(|d| {
            d.trim()
                .parse()
                .map_err(|_| Failure::Usage(format!("bad dimension '{d}'")))
        })
        .collect::<Result<_, _>>()?;
    let array = FortranArray::new("A", dims.clone(), 0);
    let inc = opts.u64_or("inc", 1).map_err(err)?;
    let walk = if opts.flag("diagonal") {
        Walk::Diagonal
    } else {
        let dim = opts.u64_or("dim", 1).map_err(err)? as usize;
        if dim == 0 || dim > dims.len() {
            return Err(format!("--dim must be 1..={}", dims.len()).into());
        }
        Walk::Dimension { dim, inc }
    };
    let spec = LoopSpec {
        kernel: Kernel::Copy,
        walk,
        n: 64,
    };
    let report = &spec.analyze(&geom, &[&array])[0];
    let mut out = format!(
        "array A({}) on m = {}, n_c = {}\nwalk: {:?}\nstride (eq. 33): {} -> distance {} (mod m), return number {}\nsolo b_eff = {}\n",
        dims.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
        geom.banks(),
        geom.bank_cycle(),
        walk,
        report.stride,
        report.distance,
        report.return_number,
        report.solo_bandwidth,
    );
    if report.solo_bandwidth < vecmem_analytic::Ratio::integer(1) {
        let padded = vecmem_analytic::planner::pad_dimension(&geom, dims[0]);
        out.push_str(&format!(
            "hint: the walk self-conflicts; pad the leading dimension {} -> {} (coprime to the bank count)\n",
            dims[0], padded
        ));
    }
    Ok(out)
}

/// `vecmem gather`: index-vector (gather) bandwidth.
pub fn cmd_gather(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let n = opts.u64_or("n", 4096).map_err(err)?;
    let seed = opts.u64_or("seed", 1).map_err(err)?;
    let span = opts.u64_or("span", 1 << 20).map_err(err)?;
    if span == 0 {
        return Err(Failure::Usage("--span must be at least 1".to_string()));
    }
    let random = run_gather(&geom, IndexPattern::PseudoRandom { seed }, span, n);
    let strided = run_gather(&geom, IndexPattern::Affine { a: 1, c: 0 }, span, n);
    Ok(format!(
        "gather of {n} elements on m = {}, n_c = {}\nrandom indices: {} cycles (b_eff = {:.3})\nunit stride:    {} cycles (b_eff = {:.3})\nirregularity cost: {:.2}x\n",
        geom.banks(),
        geom.bank_cycle(),
        random.cycles,
        random.bandwidth,
        strided.cycles,
        strided.bandwidth,
        random.cycles as f64 / strided.cycles as f64,
    ))
}

/// `vecmem spectrum`: classification census over a geometry's design space.
pub fn cmd_spectrum(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let s = if opts.flag("full") {
        // The full (d1, d2, b2) census is cubic in m: fan it out over the
        // shared work-stealing runner, one slice per d1.
        vecmem_exec::full_spectrum(&geom, &Runner::new())
    } else {
        vecmem_analytic::spectrum::distance_spectrum(&geom)
    };
    Ok(format!(
        "design space of m = {}, n_c = {} ({} cases):\n\
         self-limited      {:>8}\n\
         disjoint sets     {:>8}\n\
         conflict-free     {:>8}\n\
         unique barrier    {:>8}\n\
         barrier possible  {:>8}\n\
         conflicting       {:>8}\n\
         guaranteed full bandwidth: {:.1}%\n",
        geom.banks(),
        geom.bank_cycle(),
        s.total(),
        s.self_limited,
        s.disjoint_sets,
        s.conflict_free,
        s.unique_barrier,
        s.barrier_possible,
        s.conflicting,
        100.0 * s.full_bandwidth_fraction(),
    ))
}

/// `vecmem skew`: scheme comparison on one geometry. `--pattern gather`
/// switches from the stride table to a single-port gather walk (affine
/// via `--affine`, pseudo-random via `--seed`) per scheme.
pub fn cmd_skew(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let (banks, nc) = (geom.banks(), geom.bank_cycle());
    let max_stride = opts.u64_or("max-stride", banks).map_err(err)?;
    let mut schemes: Vec<Box<dyn BankMapping>> = vec![Box::new(Interleaved { banks })];
    if banks.is_power_of_two() && banks > 1 {
        schemes.push(Box::new(XorFold::new(banks)));
    }
    schemes.push(Box::new(LinearSkew::classic(banks)));
    if let Some(p) = PrimeInterleaved::largest_prime_at_most(banks) {
        schemes.push(Box::new(p));
    }
    if opts.string("pattern").is_some_and(|p| p == "gather") {
        return skew_gather(opts, geom, &schemes);
    }
    if let Some(other) = opts.string("pattern").filter(|p| *p != "stride") {
        return Err(Failure::Usage(format!(
            "unknown pattern '{other}' for skew (have stride, gather)"
        )));
    }
    let mut out = String::new();
    for scheme in &schemes {
        out.push_str(&format!("scheme: {}\n", scheme.name()));
        let rows = vecmem_skew::eval::stride_table(scheme.as_ref(), nc, max_stride, 2_000_000)
            .map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "{:>7} {:>8} {:>14}\n",
            "stride", "solo", "vs unit-stride"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:>7} {:>8} {:>14}\n",
                r.stride,
                r.solo.to_string(),
                r.against_unit.to_string()
            ));
        }
        out.push('\n');
    }
    Ok(out)
}

/// One gather walk per skewing scheme: the solo-port bandwidth of the
/// address stream `base + ix(k)` after bank remapping. Affine index
/// vectors yield exact cyclic states; pseudo-random ones fall back to a
/// windowed estimate (flagged in the output).
fn skew_gather(
    opts: &Options,
    geom: Geometry,
    schemes: &[Box<dyn BankMapping>],
) -> Result<String, Failure> {
    let span = opts.u64_or("span", 1 << 20).map_err(err)?;
    if span == 0 {
        return Err(Failure::Usage("--span must be at least 1".to_string()));
    }
    let index = if let Some(a) = opts.string("affine") {
        let a: u64 = a
            .parse()
            .map_err(|_| Failure::Usage("--affine takes an integer multiplier".to_string()))?;
        IndexPattern::Affine { a, c: 0 }
    } else {
        IndexPattern::PseudoRandom {
            seed: opts.u64_or("seed", 1).map_err(err)?,
        }
    };
    let config = SimConfig::single_cpu(geom, 1);
    let mut out = format!(
        "gather {index:?} over span {span}: m = {}, nc = {}, solo port\n",
        geom.banks(),
        geom.bank_cycle()
    );
    for scheme in schemes {
        let ss = gather_bandwidth(scheme.as_ref(), &config, 0, span, index, 2_000_000)
            .map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "{:>24} {:>10}{}\n",
            scheme.name(),
            ss.beff.to_string(),
            if ss.exact {
                ""
            } else {
                "  (windowed estimate)"
            }
        ));
    }
    Ok(out)
}

/// `vecmem report` — conflict-attribution report of a query: where did
/// the lost bandwidth go?
///
/// Modes (first positional argument): `steady` (default) attributes one
/// steady period of a stream pair, `triad` attributes a whole Fig. 10
/// triad run, `spectrum` reports the census with execution telemetry.
/// All modes take `--trace-out P` (Chrome trace JSON when `P` ends in
/// `.json`, spans-v1 JSONL otherwise) and `--metrics-out P`.
pub fn cmd_report(opts: &Options) -> Result<String, Failure> {
    let mode = opts
        .positional()
        .first()
        .map(String::as_str)
        .unwrap_or("steady");
    match mode {
        "steady" => report_steady(opts),
        "triad" => report_triad(opts),
        "spectrum" => report_spectrum(opts),
        other => {
            Err(format!("unknown report mode '{other}' (have steady, triad, spectrum)").into())
        }
    }
}

/// Renders the ledger's loss decomposition plus the top attribution and
/// stream-pair tables.
fn attribution_tables(ledger: &ConflictLedger, top: usize) -> String {
    let decomp = ledger.decomposition();
    let mut out = String::new();
    out.push_str(&format!(
        "  intra-stream {:>8}\n  inter-stream {:>8}\n  section      {:>8}\n  rotation     {:>8}\n",
        decomp.get(LossKind::Intra),
        decomp.get(LossKind::Inter),
        decomp.get(LossKind::Section),
        decomp.get(LossKind::Rotation),
    ));
    let entries = ledger.entries();
    if entries.is_empty() {
        out.push_str("no conflicts: every request was granted on arrival\n");
        return out;
    }
    out.push_str(&format!(
        "top attributions ({} of {} distinct):\n",
        entries.len().min(top),
        entries.len()
    ));
    for e in entries.iter().take(top) {
        let winner = e
            .key
            .winner
            .map_or_else(|| "blocked".to_string(), |w| format!("port {w}"));
        out.push_str(&format!(
            "  bank {:>3}  port {} <- {:<8} {:<8} {:>8}\n",
            e.key.bank,
            e.key.loser,
            winner,
            e.key.kind.name(),
            e.stalls
        ));
    }
    out.push_str("stalls by stream pair (loser <- winner):\n");
    for (winner, loser, stalls) in ledger.pair_stalls().into_iter().take(top) {
        let winner = winner.map_or_else(|| "blocked".to_string(), |w| format!("port {w}"));
        out.push_str(&format!("  port {loser} <- {winner:<8} {stalls:>8}\n"));
    }
    out
}

/// Per-bank utilization lines: `grants × n_c / cycles` over the window.
fn utilization_lines(ledger: &ConflictLedger, nc: u64, window: u64) -> String {
    let mut out = String::new();
    for (bank, &g) in ledger.bank_grants().iter().enumerate() {
        let util = if window == 0 {
            0.0
        } else {
            100.0 * (g * nc) as f64 / window as f64
        };
        out.push_str(&format!("  bank {bank:>3}: {util:>6.1}%  ({g} grants)\n"));
    }
    out
}

/// Annotates the innermost open span with the ledger's decomposition.
fn annotate_decomposition(sink: &mut SpanSink, ledger: &ConflictLedger) {
    let decomp = ledger.decomposition();
    for kind in LossKind::ALL {
        sink.annotate(kind.name(), Json::U64(decomp.get(kind)));
    }
    sink.annotate("grants", Json::U64(ledger.grants()));
}

/// Folds the ledger's decomposition into a metrics registry.
fn export_loss_metrics(registry: &mut MetricsRegistry, ledger: &ConflictLedger) {
    let decomp = ledger.decomposition();
    for kind in LossKind::ALL {
        registry.add_counter(&format!("report_loss_{}", kind.name()), decomp.get(kind));
    }
    registry.add_counter("report_stalls_total", decomp.total());
}

/// Writes `text` to `path`, creating parent directories.
fn write_text(path: &str, text: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    std::fs::write(p, text).map_err(|e| format!("writing {path}: {e}"))
}

/// `vecmem report steady`: attribute every stalled port-cycle of one
/// steady period, with the decomposition checked against the exact
/// bandwidth identity `stalls = period · (N − b_eff)` (for bursty
/// patterns, `stalls + idle = period · N − grants`, where idle covers the
/// `burst − 1` cooldown cycles each grant buys).
fn report_steady(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let patterns = pattern_specs(opts, &geom)?;
    let burst = pattern_burst(opts)?;
    let config = pair_config(opts, geom).with_bank_model(bank_model(opts, &geom)?);
    let budget = opts.u64_or("cycle-budget", 10_000_000).map_err(err)?;
    let top = usize::try_from(opts.u64_or("top", 8).map_err(err)?).map_err(|e| e.to_string())?;
    let ports = config.num_ports();

    let ss =
        measure_steady_state_patterns(&config, &patterns, budget).map_err(|e| e.to_string())?;

    // Replay the search deterministically with the ledger attached: the
    // transient warms the attributor's bank-holder state, then the counts
    // are cleared so exactly one steady period (or, for aperiodic
    // gathers, the estimate window) is attributed.
    let mut ledger = ConflictLedger::new(&config);
    let mut metrics = MetricsRegistry::new(geom.banks(), ports);
    let mut sink = SpanSink::new();
    sink.switch_track(0, "report");
    sink.begin("run");
    sink.leaf("steady-search", 0, ss.transient + ss.period);
    sink.advance_to(ss.transient + ss.period);
    sink.rebase_cycles(sink.now());
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::from_specs(&config, &patterns);
    sink.begin("transient");
    for _ in 0..ss.transient {
        engine.step_with(
            &mut workload,
            &mut Tee(&mut ledger, &mut Tee(&mut metrics, &mut sink)),
        );
    }
    sink.end();
    ledger.clear_counts();
    sink.begin("cycle-period");
    for _ in 0..ss.period {
        engine.step_with(
            &mut workload,
            &mut Tee(&mut ledger, &mut Tee(&mut metrics, &mut sink)),
        );
    }
    annotate_decomposition(&mut sink, &ledger);
    sink.end();
    sink.end();

    let decomp = ledger.decomposition();
    let stalls = decomp.total();
    // Every port-cycle of the attributed window is a grant, a stall, or —
    // only for bursty patterns — a cooldown idle (burst − 1 per grant). In
    // an exact period the replayed grants equal the measured ones; in a
    // windowed estimate the ledger's own grant count anchors the identity.
    let grants = if ss.exact {
        ss.grants_per_period
    } else {
        ledger.grants()
    };
    let idle = grants * (burst - 1);
    let expected = ports as u64 * ss.period - grants - idle;
    if stalls != expected {
        return Err(format!(
            "attribution accounting broke: {stalls} attributed stalls != \
             {expected} = ports x period - grants - idle"
        )
        .into());
    }

    let topo = if opts.flag("same-cpu") {
        "same-cpu"
    } else {
        "cross-cpu"
    };
    let prio = if opts.flag("cyclic") {
        "cyclic"
    } else {
        "fixed"
    };
    let mut out = format!(
        "conflict attribution: m = {}, nc = {}, patterns {:?} {:?}, {topo}, {prio} priority\n",
        geom.banks(),
        geom.bank_cycle(),
        patterns[0],
        patterns[1],
    );
    out.push_str(&format!(
        "steady: b_eff = {} (transient {} cycles, period {}, {} grants per period{})\n",
        ss.beff,
        ss.transient,
        ss.period,
        ss.grants_per_period,
        if ss.exact { "" } else { "; windowed estimate" }
    ));
    out.push_str("loss decomposition over one period (stalled port-cycles):\n");
    out.push_str(&attribution_tables(&ledger, top));
    if burst > 1 {
        out.push_str(&format!(
            "identity: stalls {stalls} + idle {idle} = period x N - grants = {} x {} - {}\n",
            ss.period, ports, grants
        ));
    } else {
        out.push_str(&format!(
            "identity: total stalls {stalls} = period x (N - b_eff) = {} x ({} - {}) [{}]\n",
            ss.period,
            ports,
            ss.beff,
            if ss.exact { "exact" } else { "windowed" }
        ));
    }
    out.push_str("per-bank utilization over one period (grants x nc / period):\n");
    out.push_str(&utilization_lines(&ledger, geom.bank_cycle(), ss.period));
    let heatmap = ledger.heatmap_csv();
    if let Some(path) = opts.string("heatmap-out") {
        write_text(path, &heatmap)?;
        out.push_str(&format!("heatmap -> {path}\n"));
    } else {
        out.push_str("rotation-phase heatmap (stalls per phase x bank):\n");
        out.push_str(&heatmap);
    }
    if let Some(path) = opts.string("metrics-out") {
        export_loss_metrics(&mut metrics, &ledger);
        write_metrics(path, &metrics.snapshot()).map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("metrics -> {path}\n"));
    }
    if let Some(path) = opts.string("trace-out") {
        sink.write(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("trace -> {path}\n"));
    }
    Ok(out)
}

/// `vecmem report triad`: conflict attribution over one whole Fig. 10
/// triad run (`--inc N`, `--alone`). The per-period identity does not
/// apply to the finite workload, so totals are reported as-is.
fn report_triad(opts: &Options) -> Result<String, Failure> {
    let inc = opts.u64_or("inc", 1).map_err(err)?;
    let top = usize::try_from(opts.u64_or("top", 8).map_err(err)?).map_err(|e| e.to_string())?;
    let exp = if opts.flag("alone") {
        TriadExperiment::paper_alone(inc)
    } else {
        TriadExperiment::paper(inc)
    };
    let mut ledger = ConflictLedger::new(&exp.sim);
    let mut sink = SpanSink::new();
    sink.switch_track(0, "report");
    sink.begin("run");
    sink.begin(&format!("triad inc={inc}"));
    let r = exp.run_observed(&mut Tee(&mut ledger, &mut sink));
    annotate_decomposition(&mut sink, &ledger);
    sink.end();
    sink.end();
    let mut out = format!(
        "conflict attribution: triad INC = {inc}{}, {} clock periods\n",
        if opts.flag("alone") {
            " (alone)"
        } else {
            " (with background)"
        },
        r.cycles
    );
    out.push_str(&format!(
        "loss decomposition over the run ({} stalled port-cycles):\n",
        ledger.total_stalls()
    ));
    out.push_str(&attribution_tables(&ledger, top));
    out.push_str("per-bank utilization over the run (grants x nc / cycles):\n");
    out.push_str(&utilization_lines(
        &ledger,
        exp.sim.geometry.bank_cycle(),
        ledger.cycles(),
    ));
    if let Some(path) = opts.string("heatmap-out") {
        write_text(path, &ledger.heatmap_csv())?;
        out.push_str(&format!("heatmap -> {path}\n"));
    }
    if let Some(path) = opts.string("metrics-out") {
        let mut metrics = MetricsRegistry::new(exp.sim.geometry.banks(), exp.sim.num_ports());
        export_loss_metrics(&mut metrics, &ledger);
        write_metrics(path, &metrics.snapshot()).map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("metrics -> {path}\n"));
    }
    if let Some(path) = opts.string("trace-out") {
        sink.write(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("trace -> {path}\n"));
    }
    Ok(out)
}

/// `vecmem report spectrum`: the design-space census run through the
/// cached work-stealing runner, reported with execution telemetry and an
/// optional merged sweep trace.
fn report_spectrum(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let runner = Runner::new();
    let scenarios: Vec<SpectrumScenario> = (1..geom.banks())
        .map(|d1| SpectrumScenario {
            geom,
            d1s: vec![d1],
        })
        .collect();
    let cache = ResultCache::new();
    let (outputs, report) = runner.run_cached(&scenarios, &cache);
    let mut sink = SpanSink::new();
    batch_spans(&mut sink, "spectrum", &scenarios, &outputs, &report);
    let mut total = vecmem_analytic::spectrum::Spectrum::default();
    for partial in &outputs {
        total.merge(partial);
    }
    let mut out = format!(
        "spectrum census of m = {}, nc = {}: {} cases\n\
         conflict-free or disjoint: {}   conflicting: {}\n",
        geom.banks(),
        geom.bank_cycle(),
        total.total(),
        total.disjoint_sets + total.conflict_free,
        total.conflicting,
    );
    out.push_str(&format!(
        "exec: {} slices on {} thread(s), cache hits {} misses {} coalesced {}\n",
        report.scenarios,
        report.threads,
        report.cache.hits,
        report.cache.misses,
        report.cache.coalesced
    ));
    if let Some(path) = opts.string("metrics-out") {
        let mut metrics = MetricsRegistry::new(geom.banks(), 1);
        export_exec_telemetry(&mut metrics, &report);
        write_metrics(path, &metrics.snapshot()).map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("metrics -> {path}\n"));
    }
    if let Some(path) = opts.string("trace-out") {
        sink.write(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("trace -> {path}\n"));
    }
    Ok(out)
}

/// `vecmem verify` — hold the optimized engine to account against the
/// naive reference oracle and the paper's theorems.
///
/// Modes: `--diff` (single scenario, lockstep, dump on divergence),
/// `--random N` (coverage-guided exploration of the sectioned space),
/// `--exhaustive` (default: full small-geometry conformance sweep).
/// Exits non-zero on any divergence or theorem violation.
pub fn cmd_verify(opts: &Options) -> Result<String, Failure> {
    if opts.flag("diff") {
        return verify_diff(opts);
    }
    if opts.string("random").is_some() {
        return verify_random(opts);
    }
    verify_exhaustive(opts)
}

fn verify_exhaustive(opts: &Options) -> Result<String, Failure> {
    let max_ports = opts.u64_or("max-ports", 3).map_err(err)?;
    let bounds = SweepBounds {
        max_banks: opts.u64_or("max-banks", 16).map_err(err)?,
        max_nc: opts.u64_or("max-nc", 4).map_err(err)?,
        max_ports: usize::try_from(max_ports).map_err(|e| e.to_string())?,
        steady_budget: opts.u64_or("cycle-budget", 500_000).map_err(err)?,
    };
    let runner = Runner::new();
    let mut registry = opts
        .string("metrics-out")
        .map(|_| MetricsRegistry::new(1, 1));
    let mut sink = opts.string("trace-out").map(|_| SpanSink::new());
    #[expect(
        clippy::disallowed_types,
        reason = "elapsed time is printed for the operator only, never part of results"
    )]
    let start = std::time::Instant::now();
    let report = sweep_observed(&bounds, &runner, registry.as_mut(), sink.as_mut());
    let elapsed = start.elapsed();

    let mut out = format!(
        "exhaustive conformance sweep: m <= {}, nc <= {}, p <= {}\n",
        bounds.max_banks, bounds.max_nc, bounds.max_ports
    );
    out.push_str(&format!(
        "  points enumerated   {:>9}\n  simulated (misses)  {:>9}\n  \
         cache replays       {:>9}  (hit rate {:.1}%)\n",
        report.enumerated,
        report.executed,
        report.replayed,
        100.0 * report.hit_rate()
    ));
    out.push_str(&format!(
        "  theorem checks: Thm1 {}  Thm2 {}  Thm3 {} (skipped {})  III-A {}\n",
        report.thm1_checked,
        report.thm2_checked,
        report.thm3_checked,
        report.thm3_skipped,
        report.iiia_checked
    ));
    out.push_str(&format!(
        "  divergences {}  violations {}  not converged {}\n  \
         elapsed {:.2?} on {} thread(s)\n",
        report.divergence_count,
        report.violation_count,
        report.not_converged,
        elapsed,
        runner.threads()
    ));
    if let (Some(path), Some(registry)) = (opts.string("metrics-out"), registry.as_ref()) {
        write_metrics(path, &registry.snapshot()).map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("metrics -> {path}\n"));
    }
    if let (Some(path), Some(sink)) = (opts.string("trace-out"), sink.as_ref()) {
        sink.write(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("trace -> {path}\n"));
    }
    if report.clean() {
        out.push_str("verdict: CLEAN\n");
        Ok(out)
    } else {
        for v in report.divergences.iter().chain(report.violations.iter()) {
            out.push_str(&format!("\n{v}\n"));
        }
        out.push_str("verdict: FAILED\n");
        Err(out.into())
    }
}

fn verify_random(opts: &Options) -> Result<String, Failure> {
    let cfg = ExploreConfig {
        cases: opts.u64_or("random", 200).map_err(err)?,
        seed: opts.u64_or("seed", 1).map_err(err)?,
        steady_budget: opts.u64_or("cycle-budget", 200_000).map_err(err)?,
        ..ExploreConfig::default()
    };
    let mut registry = MetricsRegistry::new(1, 1);
    #[expect(
        clippy::disallowed_types,
        reason = "elapsed time is printed for the operator only, never part of results"
    )]
    let start = std::time::Instant::now();
    let report = explore(&cfg, &mut registry);
    let elapsed = start.elapsed();

    let mut out = format!(
        "coverage-guided random exploration: {} cases, seed {}\n",
        cfg.cases, cfg.seed
    );
    out.push_str(&format!(
        "  distinct signatures {:>5}  (fresh on {} cases)\n  \
         not converged       {:>5}\n  divergences         {:>5}\n  elapsed {:.2?}\n",
        report.distinct, report.fresh, report.not_converged, report.divergence_count, elapsed
    ));
    out.push_str("  coverage (sections / gcd class / conflict-kind bits -> cases):\n");
    for (name, count) in registry.counters_with_prefix("oracle.explore.sig.") {
        let sig = name.trim_start_matches("oracle.explore.sig.");
        out.push_str(&format!("    {sig:<12} {count:>5}\n"));
    }
    if report.clean() {
        out.push_str("verdict: CLEAN\n");
        Ok(out)
    } else {
        for v in &report.divergences {
            out.push_str(&format!("\n{v}\n"));
        }
        out.push_str("verdict: FAILED\n");
        Err(out.into())
    }
}

fn verify_diff(opts: &Options) -> Result<String, Failure> {
    let geom = geometry(opts)?;
    let streams = pair_streams(opts, &geom)?;
    let config = pair_config(opts, geom);
    let cycles = opts.u64_or("cycles", 10_000).map_err(err)?;
    match vecmem_oracle::conform::diff_single(&config, &streams, cycles) {
        DiffOutcome::Match { cycles, grants } => Ok(format!(
            "engines agree over {cycles} cycles ({grants} grants on each side)\n"
        )),
        DiffOutcome::Diverged(d) => Err(format!("{d}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str], flags: &[&str]) -> Options {
        Options::parse(args.iter().map(ToString::to_string), flags).unwrap()
    }

    const FLAGS: &[&str] = &[
        "same-cpu",
        "cyclic",
        "alone",
        "consecutive",
        "full",
        "diagonal",
        "exhaustive",
        "diff",
    ];

    /// `--nc 300` does not fit the packed state's residue bytes: the
    /// command must refuse it as a usage error instead of panicking.
    fn assert_nc_rejected(args: &[&str], cmd: fn(&Options) -> Result<String, Failure>) {
        let mut argv = args.to_vec();
        argv.extend(["--banks", "16", "--nc", "300"]);
        match cmd(&opts(&argv, FLAGS)) {
            Err(e @ Failure::Usage(_)) => assert!(e.to_string().contains("--nc"), "{e}"),
            other => panic!("--nc 300 not rejected as usage: {other:?}"),
        }
    }

    #[test]
    fn gather_rejects_zero_span() {
        let result = cmd_gather(&opts(&["--banks", "16", "--nc", "4", "--span", "0"], FLAGS));
        match result {
            Err(e @ Failure::Usage(_)) => {
                assert_eq!(e.to_string(), "--span must be at least 1");
                assert_eq!(e.exit_code(), 2);
            }
            other => panic!("--span 0 not rejected as usage: {other:?}"),
        }
    }

    /// A rejected option value is a usage error (exit 2) naming the
    /// option, whichever verb's option parser rejects it.
    #[test]
    fn rejected_values_are_usage_errors() {
        type Cmd = fn(&Options) -> Result<String, Failure>;
        let cases: [(&[&str], Cmd, &str); 12] = [
            (
                &["--pattern", "gather", "--span", "0"],
                cmd_steady,
                "--span must be at least 1",
            ),
            (
                &["--pattern", "gather", "--span", "0"],
                cmd_skew,
                "--span must be at least 1",
            ),
            (
                &["--pattern", "burst", "--burst", "0"],
                cmd_steady,
                "--burst must be at least 1",
            ),
            (
                &["--bank-model", "dram", "--dram-hit", "0"],
                cmd_steady,
                "--dram-hit must be in 1..=4 (the geometry's n_c)",
            ),
            (
                &["--bank-model", "dram", "--dram-rows", "0"],
                cmd_steady,
                "--dram-rows must be at least 1",
            ),
            // Values that do not parse at all.
            (
                &["--pattern", "burst", "--burst", "abc"],
                cmd_steady,
                "--burst: 'abc' is not an integer",
            ),
            (
                &["--banks", "many"],
                cmd_steady,
                "--banks: 'many' is not an integer",
            ),
            (
                &["--obs-window", "x"],
                cmd_trace,
                "--obs-window: 'x' is not an integer",
            ),
            (
                &["--obs-window", "0", "--metrics-out", "x.json"],
                cmd_trace,
                "--obs-window must be at least 1",
            ),
            (
                &["--pattern", "gather", "--affine", "q"],
                cmd_steady,
                "--affine takes an integer multiplier",
            ),
            (&["--pad", "q"], cmd_plan, "--pad takes an integer"),
            (&["--dims", "4,x"], cmd_loop, "bad dimension 'x'"),
        ];
        for (args, cmd, message) in cases {
            match cmd(&opts(args, FLAGS)) {
                Err(e @ Failure::Usage(_)) => {
                    assert_eq!(e.to_string(), message);
                    assert_eq!(e.exit_code(), 2);
                }
                other => panic!("{args:?} not rejected as usage: {other:?}"),
            }
        }
    }

    #[test]
    fn steady_rejects_oversized_nc() {
        assert_nc_rejected(&[], cmd_steady);
    }

    #[test]
    fn trace_rejects_oversized_nc() {
        assert_nc_rejected(&[], cmd_trace);
    }

    #[test]
    fn report_steady_rejects_oversized_nc() {
        assert_nc_rejected(&["steady"], cmd_report);
    }

    #[test]
    fn verify_diff_rejects_oversized_nc() {
        assert_nc_rejected(&["--diff"], cmd_verify);
    }

    #[test]
    fn skew_rejects_oversized_nc() {
        assert_nc_rejected(&[], cmd_skew);
    }

    #[test]
    fn predict_fig2() {
        let o = opts(
            &["--banks", "12", "--nc", "3", "--d1", "1", "--d2", "7"],
            FLAGS,
        );
        let out = cmd_predict(&o).unwrap();
        assert!(out.contains("ConflictFree"), "{out}");
        assert!(out.contains("predicted b_eff = 2"));
    }

    #[test]
    fn steady_fig3() {
        let o = opts(
            &["--banks", "13", "--nc", "6", "--d1", "1", "--d2", "6"],
            FLAGS,
        );
        let out = cmd_steady(&o).unwrap();
        assert!(out.contains("b_eff = 7/6"), "{out}");
    }

    #[test]
    fn trace_renders_banks() {
        let o = opts(
            &[
                "--banks", "8", "--nc", "2", "--d1", "1", "--d2", "3", "--cycles", "12",
            ],
            FLAGS,
        );
        let out = cmd_trace(&o).unwrap();
        // 8 bank rows plus the appended steady-state line.
        assert_eq!(out.lines().count(), 9);
        assert!(out.contains("bank   0"));
        assert!(out.contains("steady: b_eff = "), "{out}");
    }

    #[test]
    fn steady_respects_cycle_budget() {
        // A starved budget cannot reach the cyclic state: the command must
        // report the error (non-zero exit) rather than panic.
        let base = ["--banks", "13", "--nc", "6", "--d1", "1", "--d2", "6"];
        let mut starved: Vec<&str> = base.to_vec();
        starved.extend(["--cycle-budget", "2"]);
        let e = cmd_steady(&opts(&starved, FLAGS)).unwrap_err();
        assert!(e.to_string().contains("no cyclic state"), "{e}");
        let mut ample: Vec<&str> = base.to_vec();
        ample.extend(["--cycle-budget", "100000"]);
        let out = cmd_steady(&opts(&ample, FLAGS)).unwrap();
        assert!(out.contains("b_eff = 7/6"), "{out}");
    }

    #[test]
    fn affine_gather_period_is_the_request_period() {
        // ix(k) = 3k + c over 2^20 words walks the 16 banks exactly like
        // the stride-3 pair, so both report the same minimal period 16.
        let base = ["--banks", "16", "--nc", "4"];
        let period = |extra: &[&str]| {
            let mut args = base.to_vec();
            args.extend(extra);
            let out = cmd_steady(&opts(&args, FLAGS)).unwrap();
            assert!(out.contains("b_eff = 2 (per port: 1, 1)"), "{out}");
            out.lines()
                .find_map(|l| l.split("period ").nth(1))
                .map(ToString::to_string)
                .unwrap_or_else(|| panic!("no period line in {out}"))
        };
        let gather = period(&["--pattern", "gather", "--affine", "3"]);
        assert_eq!(gather, "16 cycles");
        assert_eq!(gather, period(&["--d1", "3", "--d2", "3"]));
    }

    #[test]
    fn trace_respects_cycle_budget() {
        let o = opts(
            &[
                "--banks",
                "13",
                "--nc",
                "6",
                "--d1",
                "1",
                "--d2",
                "6",
                "--cycles",
                "12",
                "--cycle-budget",
                "2",
            ],
            FLAGS,
        );
        assert!(cmd_trace(&o).is_err());
    }

    #[test]
    fn steady_exports_exec_telemetry() {
        let dir = std::env::temp_dir().join("vecmem-cli-test-steady-exec");
        let metrics = dir.join("steady.json");
        let o = opts(
            &[
                "--banks",
                "12",
                "--nc",
                "3",
                "--d1",
                "1",
                "--d2",
                "7",
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
            FLAGS,
        );
        let out = cmd_steady(&o).unwrap();
        assert!(out.contains("metrics ->"), "{out}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"exec_scenarios\":1"), "{json}");
        assert!(json.contains("exec_cache_misses"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_with_telemetry_outputs() {
        let dir = std::env::temp_dir().join("vecmem-cli-test-obs");
        let metrics = dir.join("trace.json");
        let events = dir.join("trace.jsonl");
        let o = opts(
            &[
                "--banks",
                "8",
                "--nc",
                "2",
                "--d1",
                "1",
                "--d2",
                "3",
                "--cycles",
                "64",
                "--obs-window",
                "8",
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--events-out",
                events.to_str().unwrap(),
            ],
            FLAGS,
        );
        let out = cmd_trace(&o).unwrap();
        assert!(out.contains("metrics ->"), "{out}");
        assert!(out.contains("events ->"), "{out}");
        assert!(!out.contains("b_eff(t):"), "{out}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("vecmem-obs/metrics-v2"));
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(jsonl.starts_with("{\"schema\":\"vecmem-obs/events-v2\""));
        assert!(jsonl.contains("\"t\":\"grant\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn triad_with_telemetry_outputs() {
        let dir = std::env::temp_dir().join("vecmem-cli-test-triad-obs");
        let metrics = dir.join("triad.csv");
        let o = opts(
            &[
                "--inc",
                "1",
                "--alone",
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--obs-window",
                "128",
            ],
            FLAGS,
        );
        let out = cmd_triad(&o).unwrap();
        assert!(out.contains("INC = 1"), "{out}");
        assert!(out.contains("metrics ->"), "{out}");
        let csv = std::fs::read_to_string(&metrics).unwrap();
        assert!(csv.starts_with("metric,index,value"));
        assert!(csv.contains("beff_window,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn triad_single_inc() {
        let o = opts(&["--inc", "1", "--alone"], FLAGS);
        let out = cmd_triad(&o).unwrap();
        assert!(out.contains("INC = 1"), "{out}");
        assert!(out.contains("simultaneous 0"), "{out}");
    }

    #[test]
    fn random_reports_models() {
        let o = opts(
            &[
                "--banks", "16", "--nc", "4", "--ports", "4", "--cycles", "5000",
            ],
            FLAGS,
        );
        let out = cmd_random(&o).unwrap();
        assert!(out.contains("Hellerman"));
        assert!(out.contains("capacity bound m/n_c = 4"));
    }

    #[test]
    fn plan_lists_strides() {
        let o = opts(
            &[
                "--banks",
                "16",
                "--nc",
                "4",
                "--max-stride",
                "4",
                "--pad",
                "64",
            ],
            FLAGS,
        );
        let out = cmd_plan(&o).unwrap();
        assert!(out.contains("pad dimension 64 -> 65"));
        // Stride 1 is safe against the unit-stride background; strides 2-4
        // conflict (gcd(16, d-1) < 2·n_c).
        let rows: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(rows.len(), 5); // 4 strides + pad line
        assert!(rows[0].ends_with("safe"));
        assert!(rows[1].ends_with("conflicts"));
        assert!(rows[2].ends_with("conflicts"));
        assert!(rows[3].ends_with("conflicts"));
    }

    #[test]
    fn predict_sectioned_same_cpu() {
        let o = opts(
            &[
                "--banks",
                "12",
                "--sections",
                "2",
                "--nc",
                "2",
                "--d1",
                "1",
                "--d2",
                "1",
                "--b2",
                "3",
                "--same-cpu",
            ],
            FLAGS,
        );
        let out = cmd_predict(&o).unwrap();
        assert!(out.contains("sectioned analysis"), "{out}");
    }

    #[test]
    fn bad_geometry_is_reported() {
        let o = opts(&["--banks", "12", "--sections", "5"], FLAGS);
        assert!(cmd_predict(&o).is_err());
    }

    #[test]
    fn spectrum_census() {
        let o = opts(&["--banks", "12", "--nc", "3"], FLAGS);
        let out = cmd_spectrum(&o).unwrap();
        assert!(out.contains("121 cases"), "{out}");
        assert!(out.contains("guaranteed full bandwidth"));
    }

    #[test]
    fn loop_analysis_row_walk() {
        let o = opts(
            &[
                "--banks", "16", "--nc", "4", "--dims", "64,64", "--dim", "2",
            ],
            FLAGS,
        );
        let out = cmd_loop(&o).unwrap();
        assert!(out.contains("stride (eq. 33): 64"), "{out}");
        assert!(out.contains("pad the leading dimension 64 -> 65"), "{out}");
    }

    #[test]
    fn loop_analysis_diagonal() {
        let o = opts(
            &[
                "--banks",
                "16",
                "--nc",
                "4",
                "--dims",
                "64,64",
                "--diagonal",
            ],
            FLAGS,
        );
        let out = cmd_loop(&o).unwrap();
        assert!(out.contains("stride (eq. 33): 65"), "{out}");
        assert!(out.contains("solo b_eff = 1"), "{out}");
    }

    #[test]
    fn gather_reports_cost() {
        let o = opts(&["--banks", "16", "--nc", "4", "--n", "512"], FLAGS);
        let out = cmd_gather(&o).unwrap();
        assert!(out.contains("irregularity cost"), "{out}");
    }

    #[test]
    fn figure_command_runs() {
        let o = Options::parse(vec!["3".to_string()], FLAGS).unwrap();
        let out = cmd_figure(&o).unwrap();
        assert!(out.contains("Figure 3"), "{out}");
        assert!(out.contains("7/6"), "{out}");
    }

    #[test]
    fn figure_command_rejects_unknown() {
        let o = Options::parse(vec!["99".to_string()], FLAGS).unwrap();
        assert!(cmd_figure(&o).is_err());
    }

    #[test]
    fn report_steady_decomposition_is_exact() {
        // m = 16, nc = 4, d1 = d2 = 4: both streams hammer the same
        // 4-bank access set (gcd = 4), a known Thm-2 conflict pair.
        let o = opts(
            &[
                "steady", "--banks", "16", "--nc", "4", "--d1", "4", "--d2", "4",
            ],
            FLAGS,
        );
        let out = cmd_report(&o).unwrap();
        assert!(out.contains("loss decomposition"), "{out}");
        assert!(out.contains("[exact]"), "{out}");
        assert!(out.contains("per-bank utilization"), "{out}");
        assert!(out.contains("rotation-phase heatmap"), "{out}");
        assert!(out.contains("rotation,bank0,"), "{out}");
    }

    #[test]
    fn report_steady_conflict_free_pair_has_no_stalls() {
        let o = opts(
            &[
                "steady", "--banks", "12", "--nc", "3", "--d1", "1", "--d2", "7",
            ],
            FLAGS,
        );
        let out = cmd_report(&o).unwrap();
        assert!(out.contains("b_eff = 2"), "{out}");
        assert!(
            out.contains("every request was granted on arrival"),
            "{out}"
        );
        assert!(out.contains("identity: total stalls 0"), "{out}");
    }

    #[test]
    fn report_steady_writes_trace_and_metrics() {
        let dir = std::env::temp_dir().join("vecmem-cli-test-report-steady");
        let trace = dir.join("steady.json");
        let metrics = dir.join("steady-metrics.json");
        let heatmap = dir.join("heat.csv");
        let o = opts(
            &[
                "steady",
                "--banks",
                "16",
                "--nc",
                "4",
                "--d1",
                "4",
                "--d2",
                "4",
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--heatmap-out",
                heatmap.to_str().unwrap(),
            ],
            FLAGS,
        );
        let out = cmd_report(&o).unwrap();
        assert!(out.contains("trace ->"), "{out}");
        assert!(out.contains("metrics ->"), "{out}");
        assert!(out.contains("heatmap ->"), "{out}");
        let chrome = std::fs::read_to_string(&trace).unwrap();
        assert!(chrome.starts_with(r#"{"traceEvents":["#), "{chrome}");
        assert!(chrome.contains("cycle-period"), "{chrome}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("report_loss_inter"), "{json}");
        assert!(json.contains("report_stalls_total"), "{json}");
        let csv = std::fs::read_to_string(&heatmap).unwrap();
        assert!(csv.starts_with("rotation,bank0,"), "{csv}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_triad_attributes_the_run() {
        let o = opts(&["triad", "--inc", "8"], FLAGS);
        let out = cmd_report(&o).unwrap();
        assert!(out.contains("triad INC = 8 (with background)"), "{out}");
        assert!(out.contains("loss decomposition over the run"), "{out}");
    }

    #[test]
    fn report_spectrum_merged_trace() {
        let dir = std::env::temp_dir().join("vecmem-cli-test-report-spectrum");
        let trace = dir.join("census.json");
        let o = opts(
            &[
                "spectrum",
                "--banks",
                "12",
                "--nc",
                "3",
                "--trace-out",
                trace.to_str().unwrap(),
            ],
            FLAGS,
        );
        let out = cmd_report(&o).unwrap();
        // Full (d1, d2, b2) census: 11 x 11 x 12 triples.
        assert!(out.contains("1452 cases"), "{out}");
        assert!(out.contains("exec: 11 slices"), "{out}");
        let chrome = std::fs::read_to_string(&trace).unwrap();
        assert!(chrome.contains(r#""name":"spectrum""#), "{chrome}");
        assert!(chrome.contains("worker-0"), "{chrome}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_rejects_unknown_mode() {
        let o = Options::parse(vec!["nonsense".to_string()], FLAGS).unwrap();
        assert!(cmd_report(&o).is_err());
    }

    #[test]
    fn verify_exhaustive_writes_metrics_and_trace() {
        let dir = std::env::temp_dir().join("vecmem-cli-test-verify-obs");
        let metrics = dir.join("sweep.csv");
        let trace = dir.join("sweep.json");
        let o = opts(
            &[
                "--exhaustive",
                "--max-banks",
                "4",
                "--max-nc",
                "2",
                "--max-ports",
                "2",
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--trace-out",
                trace.to_str().unwrap(),
            ],
            FLAGS,
        );
        let out = cmd_verify(&o).unwrap();
        assert!(out.contains("metrics ->"), "{out}");
        assert!(out.contains("trace ->"), "{out}");
        let csv = std::fs::read_to_string(&metrics).unwrap();
        assert!(csv.contains("oracle_sweep_enumerated"), "{csv}");
        assert!(csv.contains("oracle_thm2_checked"), "{csv}");
        assert!(csv.contains("oracle_sweep_hit_rate"), "{csv}");
        let chrome = std::fs::read_to_string(&trace).unwrap();
        assert!(chrome.contains("conform-sweep"), "{chrome}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_diff_fig2_matches() {
        let o = opts(
            &[
                "--diff", "--banks", "12", "--nc", "3", "--d1", "1", "--d2", "7", "--cycles",
                "2000",
            ],
            FLAGS,
        );
        let out = cmd_verify(&o).unwrap();
        assert!(out.contains("engines agree over 2000 cycles"), "{out}");
    }

    #[test]
    fn verify_exhaustive_tiny_bounds_clean() {
        let o = opts(
            &[
                "--exhaustive",
                "--max-banks",
                "5",
                "--max-nc",
                "2",
                "--max-ports",
                "2",
            ],
            FLAGS,
        );
        let out = cmd_verify(&o).unwrap();
        assert!(out.contains("verdict: CLEAN"), "{out}");
        assert!(out.contains("divergences 0  violations 0"), "{out}");
    }

    #[test]
    fn verify_random_reports_coverage() {
        let o = opts(&["--random", "30", "--seed", "5"], FLAGS);
        let out = cmd_verify(&o).unwrap();
        assert!(out.contains("verdict: CLEAN"), "{out}");
        assert!(out.contains("distinct signatures"), "{out}");
        // Counter names are trimmed to their signature suffix in the table.
        assert!(!out.contains("oracle.explore.sig."), "{out}");
    }
}
