//! CLI subcommand implementations. Each reads its flags, already parsed
//! and range-checked against its table in `flags.rs`, through [`Args`].

use crate::args::{Args, Failure, Flag};
use crate::flags::*;
use std::fs;
use vecmem_analytic::pair::classify_pair;
use vecmem_analytic::planner::{assess_stride, pad_dimension, pair_is_safe};
use vecmem_analytic::sections::analyze_sectioned_pair;
use vecmem_analytic::{Geometry, SectionMapping, StreamSpec};
use vecmem_banksim::pattern::{PatternSpec, PatternWorkload};
use vecmem_banksim::state::MAX_BANK_CYCLE;
use vecmem_banksim::steady::measure_steady_state_patterns;
use vecmem_banksim::{
    hellerman_asymptotic, hellerman_bandwidth, measure_random_bandwidth, BankModel, Engine,
    PriorityRule, SimConfig, Tee, TraceRecorder, WINDOWED_FALLBACK_CYCLES,
};
use vecmem_bench::artifacts::{self, ARTIFACTS};
use vecmem_bench::{csv, fig10, tables};
use vecmem_exec::{
    batch_spans, export_exec_telemetry, merge_spectrum, spectrum_slices, PatternSteadyScenario,
    ResultCache, Runner,
};
use vecmem_obs::{
    write_metrics, ConflictLedger, EventLog, Json, LossKind, MetricsRegistry, SpanSink,
};
use vecmem_oracle::{
    explore, sweep_observed, DiffOutcome, ExploreConfig, SweepBounds, MAX_SWEEP_BANKS,
};
use vecmem_skew::eval::gather_bandwidth;
use vecmem_skew::{BankMapping, Interleaved, LinearSkew, PrimeInterleaved, XorFold};
use vecmem_vproc::gather::{run_gather, IndexPattern};
use vecmem_vproc::loops::{LoopSpec, Walk};
use vecmem_vproc::triad::TriadExperiment;
use vecmem_vproc::{FortranArray, Kernel};

/// The geometry flags: `--banks`, `--sections`, `--nc`, `--consecutive`.
/// A geometry the model rejects is a usage error, like any rejected value.
fn geometry(a: &Args) -> Result<Geometry, Failure> {
    let (banks, nc) = (a.get(&BANKS), a.get(&NC));
    if nc > MAX_BANK_CYCLE {
        return Err(Failure::Usage(format!(
            "--nc {nc} exceeds the simulator's largest bank cycle time {MAX_BANK_CYCLE}"
        )));
    }
    let mapping = if a.get(&CONSECUTIVE) {
        SectionMapping::Consecutive
    } else {
        SectionMapping::Cyclic
    };
    let sections = a.get(&SECTIONS).unwrap_or(banks);
    Geometry::with_mapping(banks, sections, nc, mapping)
        .map_err(|e| Failure::Usage(format!("--sections {sections}: {e}")))
}

fn priority(a: &Args) -> PriorityRule {
    if a.get(&CYCLIC) {
        PriorityRule::Cyclic
    } else {
        PriorityRule::Fixed
    }
}

/// The geometry and two-port configuration of a simulated pair: one port
/// per CPU unless `--same-cpu`, and the bank model of `--bank-model dram`
/// (`--dram-hit` within 1..=n_c, `--dram-rows` with `m·rows` within a
/// `u64`) or uniform.
fn pair(a: &Args) -> Result<(Geometry, SimConfig), Failure> {
    let geom = geometry(a)?;
    let config = if a.get(&SAME_CPU) {
        SimConfig::single_cpu(geom, 2)
    } else {
        SimConfig::one_port_per_cpu(geom, 2)
    };
    let (hit_cycle, rows, nc) = (a.get(&DRAM_HIT), a.get(&DRAM_ROWS), geom.bank_cycle());
    let model = match a.get(&BANK_MODEL) {
        "dram" if hit_cycle == 0 || hit_cycle > nc => {
            let message = format!("--dram-hit must be in 1..={nc} (the geometry's n_c)");
            return Err(Failure::Usage(message));
        }
        "dram" if geom.banks().checked_mul(rows).is_none() => {
            let most = u64::MAX / geom.banks();
            let message = format!("--dram-rows must be at most {most} (m·rows must fit a u64)");
            return Err(Failure::Usage(message));
        }
        "dram" => BankModel::Dram { hit_cycle, rows },
        _ => BankModel::Uniform,
    };
    let config = config.with_priority(priority(a)).with_bank_model(model);
    Ok((geom, config))
}

/// The two streams of `--d1/--d2/--b1/--b2`, reduced mod m.
fn pair_streams(a: &Args, geom: &Geometry) -> [StreamSpec; 2] {
    let m = geom.banks();
    [(&B1, &D1), (&B2, &D2)].map(|(b, d)| StreamSpec {
        start_bank: a.get(b) % m,
        distance: a.get(d) % m,
    })
}

/// Index vector of gather port `port`: affine `--affine A` indices
/// `A·k + port`, or pseudo-random ones seeded `--seed + port`.
fn gather_index(a: &Args, port: u64) -> IndexPattern {
    match a.get(&AFFINE) {
        Some(k) => IndexPattern::Affine { a: k, c: port },
        None => IndexPattern::PseudoRandom {
            seed: a.get(&SEED).wrapping_add(port),
        },
    }
}

/// The pattern pair of `--pattern`: the `--d1/--d2/--b1/--b2` strides
/// unchanged, gathers over `--span` words, or the strides with `--burst`
/// words per grant.
fn pattern_specs(a: &Args, geom: &Geometry) -> Vec<PatternSpec> {
    let (span, burst) = (a.get(&SPAN), a.get(&BURST));
    let streams = pair_streams(a, geom);
    (0..)
        .zip(streams)
        .map(|(port, s)| match a.get(&PATTERN) {
            "gather" => PatternSpec::Gather {
                base: 0,
                span,
                index: gather_index(a, port),
            },
            "burst" => PatternSpec::Burst {
                start_bank: s.start_bank,
                distance: s.distance,
                burst,
            },
            _ => PatternSpec::Stride {
                start_bank: s.start_bank,
                distance: s.distance,
            },
        })
        .collect()
}

/// Writes the output file `--<name>-out PATH` asks for, if it was given,
/// creating its parent directories, and notes it in `out` as
/// `<name> -> PATH`.
fn save(
    out: &mut String,
    a: &Args,
    flag: &Flag<Option<String>>,
    write: impl FnOnce(&str) -> std::io::Result<()>,
) -> Result<(), Failure> {
    if let Some(path) = a.get(flag) {
        let parent = std::path::Path::new(&path).parent();
        let dir = parent.filter(|p| !p.as_os_str().is_empty());
        dir.map_or(Ok(()), fs::create_dir_all)
            .and_then(|()| write(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        let what = flag.spec.name.trim_end_matches("-out");
        out.push_str(&format!("{what} -> {path}\n"));
    }
    Ok(())
}

/// The metrics registry and event log `--metrics-out`/`--events-out` ask
/// for (`--obs-window` cycles per `b_eff(t)` window), or `None`: telemetry
/// only costs anything when an output was asked for.
fn observers(a: &Args, banks: u64, ports: usize) -> Option<(MetricsRegistry, EventLog)> {
    (a.get(&METRICS_OUT).is_some() || a.get(&EVENTS_OUT).is_some()).then(|| {
        let metrics = MetricsRegistry::with_window(banks, ports, a.get(&OBS_WINDOW));
        (metrics, EventLog::new(banks, ports as u64))
    })
}

/// Writes the outputs of [`observers`] and notes them in `out`.
fn save_telemetry(
    out: &mut String,
    a: &Args,
    (m, events): &(MetricsRegistry, EventLog),
) -> Result<(), Failure> {
    save(out, a, &METRICS_OUT, |p| write_metrics(p, &m.snapshot()))?;
    if let Some(path) = a.get(&EVENTS_OUT) {
        let n = events.events().len();
        events
            .write_jsonl(&path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("events -> {path} ({n} events)\n"));
    }
    Ok(())
}

/// `vecmem predict`: analytic classification of a stream pair.
pub fn cmd_predict(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let [s1, s2] = pair_streams(a, &geom);
    let (m, s, nc) = (geom.banks(), geom.sections(), geom.bank_cycle());
    let mut out = format!("geometry: m = {m}, s = {s}, n_c = {nc}\n");
    for (i, st) in [(1, &s1), (2, &s2)] {
        let (b, d, r) = (st.start_bank, st.distance, st.return_number(&geom));
        out.push_str(&format!("stream {i}: b = {b}, d = {d} (r = {r})\n"));
    }
    if a.get(&SAME_CPU) && !geom.is_unsectioned() {
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

/// `vecmem steady`: exact simulated steady state of a pattern pair, run
/// through the `vecmem-exec` layer (`--cycle-budget N` bounds the
/// cyclic-state search; a pair that does not converge exits non-zero).
/// Aperiodic gathers report a windowed estimate instead of an exact state.
pub fn cmd_steady(a: &Args) -> Result<String, Failure> {
    let (geom, config) = pair(a)?;
    let ports = config.num_ports();
    let patterns = pattern_specs(a, &geom);
    let scenario = PatternSteadyScenario {
        config,
        patterns,
        max_cycles: a.get(&CYCLE_BUDGET),
    };
    let (mut outcomes, report) = Runner::new().run_cached(&[scenario], &ResultCache::new());
    let ss = outcomes.pop().expect("one scenario");
    let ss = ss.map_err(|e| e.to_string())?;
    let (beff, transient, period) = (&ss.beff, ss.transient, ss.period);
    let c = &ss.conflicts_per_period;
    let (bank, simultaneous, section) = (c.bank, c.simultaneous, c.section);
    let mut out = format!(
        "b_eff = {beff} (per port: {}, {})\ntransient {transient} cycles, period {period} cycles\n\
         conflicts per period: bank {bank}, simultaneous {simultaneous}, section {section}\n",
        ss.per_port[0], ss.per_port[1],
    );
    if !ss.exact {
        let window = period.min(WINDOWED_FALLBACK_CYCLES);
        out.push_str(&format!(
            "note: aperiodic pattern — figures are a windowed estimate over {window} cycles, \
             not an exact cyclic state\n"
        ));
    }
    save(&mut out, a, &METRICS_OUT, |p| {
        let mut metrics = MetricsRegistry::new(geom.banks(), ports);
        export_exec_telemetry(&mut metrics, &report);
        write_metrics(p, &metrics.snapshot())
    })?;
    Ok(out)
}

/// `vecmem trace`: paper-style ASCII trace of a stream or pattern pair,
/// followed by its exact steady state (`--cycle-budget N` bounds the
/// search; a pair that does not converge exits non-zero).
pub fn cmd_trace(a: &Args) -> Result<String, Failure> {
    let (geom, config) = pair(a)?;
    let (patterns, cycles) = (pattern_specs(a, &geom), a.get(&TRACE_CYCLES));
    let mut obs = observers(a, geom.banks(), config.num_ports());
    let mut engine = Engine::new(config.clone());
    let mut trace = TraceRecorder::new(geom.banks(), cycles);
    let mut workload = PatternWorkload::from_specs(&config, &patterns);
    match &mut obs {
        Some((m, e)) => engine.run_with(&mut workload, cycles, &mut Tee(&mut trace, Tee(m, e))),
        None => engine.run_with(&mut workload, cycles, &mut trace),
    };
    // The steady state is measured on a fresh workload.
    let ss = measure_steady_state_patterns(&config, &patterns, a.get(&CYCLE_BUDGET))
        .map_err(|e| e.to_string())?;
    let (beff, transient, period) = (ss.beff, ss.transient, ss.period);
    let mut out = trace.render_all();
    out.push_str(&if ss.exact {
        format!("steady: b_eff = {beff} (transient {transient} cycles, period {period})\n")
    } else {
        format!(
            "steady: b_eff = {beff} (aperiodic pattern — windowed estimate over {period} \
             cycles)\n"
        )
    });
    if let Some(obs) = &obs {
        save_telemetry(&mut out, a, obs)?;
    }
    Ok(out)
}

/// The Fig. 10 triad of `--inc`, with or without (`--alone`) the other
/// CPU's background work.
fn triad_experiment(a: &Args) -> TriadExperiment {
    if a.get(&ALONE) {
        TriadExperiment::paper_alone(a.get(&INC))
    } else {
        TriadExperiment::paper(a.get(&INC))
    }
}

/// `vecmem triad --inc N`: one run of the §IV experiment.
pub fn cmd_triad(a: &Args) -> Result<String, Failure> {
    let exp = triad_experiment(a);
    let mut obs = observers(a, exp.sim.geometry.banks(), exp.sim.num_ports());
    let r = match &mut obs {
        Some((metrics, events)) => exp.run_observed(&mut Tee(metrics, events)),
        None => exp.run(),
    };
    let c = &r.triad_conflicts;
    let (bank, simultaneous, section) = (c.bank, c.simultaneous, c.section);
    let (inc, cycles, background) = (r.inc, r.cycles, r.background_grants);
    let mut out = format!(
        "INC = {inc}: {cycles} clock periods; conflicts: bank {bank}, section {section}, \
         simultaneous {simultaneous}; background grants {background}\n"
    );
    if let Some(obs) = &obs {
        save_telemetry(&mut out, a, obs)?;
    }
    Ok(out)
}

/// `vecmem triad --sweep N`: Fig. 10's five series over INC = 1..=N, as
/// the golden's table and charts or (`--csv`) as CSV.
pub fn cmd_triad_sweep(a: &Args) -> Result<String, Failure> {
    let fig = fig10::run(a.get(&SWEEP));
    Ok(if a.get(&CSV) {
        csv::fig10_csv(&fig)
    } else {
        artifacts::fig10_text(&fig)
    })
}

/// `vecmem theorems`: the Theorems 2–7 validation table of one
/// unsectioned geometry, or (`--csv`) its rows as CSV. `--metrics-out`
/// writes the sweep's execution counters.
pub fn cmd_theorems(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let (m, nc) = (geom.banks(), geom.bank_cycle());
    let (rows, report) = tables::theorem_table_report(m, nc);
    let (csv, mut note) = (a.get(&CSV), String::new());
    save(&mut note, a, &METRICS_OUT, |p| {
        let mut metrics = MetricsRegistry::new(m, 1);
        export_exec_telemetry(&mut metrics, &report);
        write_metrics(p, &metrics.snapshot())
    })?;
    // The `metrics -> PATH` note follows the table only: after the CSV it
    // would be a malformed record.
    Ok(if csv {
        csv::theorems_csv(&rows)
    } else {
        artifacts::theorem_table_text(m, nc, &rows) + &note
    })
}

/// `vecmem random`: random-access bandwidth vs the classical models.
pub fn cmd_random(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let (m, nc) = (geom.banks(), geom.bank_cycle());
    let ports = usize::try_from(a.get(&PORTS)).unwrap_or(usize::MAX);
    let config = SimConfig::one_port_per_cpu(geom, ports).with_priority(priority(a));
    let measured = measure_random_bandwidth(&config, a.get(&SEED), a.get(&SAMPLE_CYCLES));
    let (batch, asymptotic) = (hellerman_bandwidth(m), hellerman_asymptotic(m));
    let capacity = m as f64 / nc as f64;
    Ok(format!(
        "random access, {ports} ports on {m} banks (n_c = {nc}): b_eff = {measured:.4}\n\
         classical batch-scan model (Hellerman): B(m) = {batch:.4} \
         (asymptotic sqrt(pi m/2) = {asymptotic:.4})\n\
         capacity bound m/n_c = {capacity:.4}\n"
    ))
}

/// `vecmem plan`: stride assessment and padding advice.
pub fn cmd_plan(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let mut out = format!(
        "{:>7} {:>6} {:>8} {:>10} {:>14}\n",
        "stride", "r", "solo", "self-safe", "vs unit-stride"
    );
    for stride in 1..=a.get(&MAX_STRIDE).unwrap_or(2 * geom.banks()) {
        let rep = assess_stride(&geom, stride);
        let (r, solo) = (rep.return_number, rep.solo_bandwidth.to_string());
        let safe = if rep.self_conflict_free { "yes" } else { "NO" };
        let pair = if pair_is_safe(&geom, stride, 1) {
            "safe"
        } else {
            "conflicts"
        };
        out.push_str(&format!(
            "{stride:>7} {r:>6} {solo:>8} {safe:>10} {pair:>14}\n"
        ));
    }
    if let Some(dim) = a.get(&PAD) {
        let (padded, m) = (pad_dimension(&geom, dim), geom.banks());
        out.push_str(&format!(
            "pad dimension {dim} -> {padded} (relatively prime to {m} banks)\n"
        ));
    }
    Ok(out)
}

/// `vecmem figure ID`: regenerate one of the paper's trace figures.
pub fn cmd_figure(a: &Args) -> Result<String, Failure> {
    use vecmem_bench::figures;
    let (figures, id) = (figures::all_figures(), a.operand());
    let Some(figure) = figures.iter().find(|f| f.id == id) else {
        let ids: Vec<&str> = figures.iter().map(|f| f.id).collect();
        let have = ids.join(",");
        return Err(Failure::Usage(format!(
            "unknown figure '{id}' (have {have})"
        )));
    };
    Ok(figures::report(&figure.run(a.get(&TRACE_CYCLES))))
}

/// `vecmem loop`: analyse a Fortran loop over an array.
pub fn cmd_loop(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let dims = a.get(&DIMS);
    let array = FortranArray::new("A", dims.clone(), 0);
    let walk = if a.get(&DIAGONAL) {
        Walk::Diagonal
    } else {
        let dim = usize::try_from(a.get(&DIM)).unwrap_or(usize::MAX);
        if dim > dims.len() {
            return Err(Failure::Usage(format!("--dim must be 1..={}", dims.len())));
        }
        let inc = a.get(&INC);
        Walk::Dimension { dim, inc }
    };
    let spec = LoopSpec {
        kernel: Kernel::Copy,
        walk,
        n: 64,
    };
    let report = &spec.analyze(&geom, &[&array])[0];
    let shape: Vec<String> = dims.iter().map(ToString::to_string).collect();
    let (shape, m, nc) = (shape.join(","), geom.banks(), geom.bank_cycle());
    let (stride, distance, r) = (report.stride, report.distance, report.return_number);
    let solo = report.solo_bandwidth;
    let mut out = format!(
        "array A({shape}) on m = {m}, n_c = {nc}\nwalk: {walk:?}\n\
         stride (eq. 33): {stride} -> distance {distance} (mod m), return number {r}\n\
         solo b_eff = {solo}\n"
    );
    if solo < vecmem_analytic::Ratio::integer(1) {
        let (leading, padded) = (dims[0], pad_dimension(&geom, dims[0]));
        out.push_str(&format!(
            "hint: the walk self-conflicts; pad the leading dimension {leading} -> {padded} \
             (coprime to the bank count)\n"
        ));
    }
    Ok(out)
}

/// `vecmem gather`: index-vector (gather) bandwidth.
pub fn cmd_gather(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let (n, span, seed) = (a.get(&N), a.get(&SPAN), a.get(&SEED));
    let (m, nc) = (geom.banks(), geom.bank_cycle());
    let random = run_gather(&geom, IndexPattern::PseudoRandom { seed }, span, n);
    let strided = run_gather(&geom, IndexPattern::Affine { a: 1, c: 0 }, span, n);
    let (rc, sc) = (random.cycles, strided.cycles);
    let (rb, sb, cost) = (random.bandwidth, strided.bandwidth, rc as f64 / sc as f64);
    Ok(format!(
        "gather of {n} elements on m = {m}, n_c = {nc}\n\
         random indices: {rc} cycles (b_eff = {rb:.3})\n\
         unit stride:    {sc} cycles (b_eff = {sb:.3})\nirregularity cost: {cost:.2}x\n"
    ))
}

/// `vecmem spectrum`: classification census over a geometry's design space.
pub fn cmd_spectrum(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let s = if a.get(&FULL) {
        // The full (d1, d2, b2) census is cubic in m: fan it out over the
        // shared work-stealing runner, one slice per d1.
        vecmem_exec::full_spectrum(&geom, &Runner::new())
    } else {
        vecmem_analytic::spectrum::distance_spectrum(&geom)
    };
    let (m, nc, total) = (geom.banks(), geom.bank_cycle(), s.total());
    let mut out = format!("design space of m = {m}, n_c = {nc} ({total} cases):\n");
    for (class, n) in [
        ("self-limited", s.self_limited),
        ("disjoint sets", s.disjoint_sets),
        ("conflict-free", s.conflict_free),
        ("unique barrier", s.unique_barrier),
        ("barrier possible", s.barrier_possible),
        ("conflicting", s.conflicting),
    ] {
        out.push_str(&format!("{class:<18}{n:>8}\n"));
    }
    let full = 100.0 * s.full_bandwidth_fraction();
    out.push_str(&format!("guaranteed full bandwidth: {full:.1}%\n"));
    Ok(out)
}

/// `vecmem skew`: scheme comparison on one geometry: a stride table, or
/// with `--pattern gather` one gather walk (affine via `--affine`,
/// pseudo-random via `--seed`) per scheme.
pub fn cmd_skew(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let (banks, nc) = (geom.banks(), geom.bank_cycle());
    let mut schemes: Vec<Box<dyn BankMapping>> = vec![Box::new(Interleaved { banks })];
    if banks.is_power_of_two() && banks > 1 {
        schemes.push(Box::new(XorFold::new(banks)));
    }
    schemes.push(Box::new(LinearSkew::classic(banks)));
    if let Some(p) = PrimeInterleaved::largest_prime_at_most(banks) {
        schemes.push(Box::new(p));
    }
    if a.get(&SKEW_PATTERN) == "gather" {
        // One gather walk per scheme: the solo-port bandwidth of the
        // address stream `ix(k)` after bank remapping. Affine index vectors
        // yield exact cyclic states; pseudo-random ones fall back to a
        // windowed estimate (flagged in the output).
        let (span, index) = (a.get(&SPAN), gather_index(a, 0));
        let config = SimConfig::single_cpu(geom, 1);
        let mut out =
            format!("gather {index:?} over span {span}: m = {banks}, nc = {nc}, solo port\n");
        for scheme in &schemes {
            let ss = gather_bandwidth(scheme.as_ref(), &config, 0, span, index, 2_000_000)
                .map_err(|e| e.to_string())?;
            let (name, beff) = (scheme.name(), ss.beff.to_string());
            let estimate = if ss.exact {
                ""
            } else {
                "  (windowed estimate)"
            };
            out.push_str(&format!("{name:>24} {beff:>10}{estimate}\n"));
        }
        return Ok(out);
    }
    let max_stride = a.get(&MAX_STRIDE).unwrap_or(banks);
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
            let (stride, solo, unit) = (r.stride, r.solo.to_string(), r.against_unit.to_string());
            out.push_str(&format!("{stride:>7} {solo:>8} {unit:>14}\n"));
        }
        out.push('\n');
    }
    Ok(out)
}

/// Renders the ledger's loss decomposition plus the `--top` rows of the
/// attribution and stream-pair tables.
fn attribution_tables(ledger: &ConflictLedger, a: &Args) -> String {
    let top = usize::try_from(a.get(&TOP)).unwrap_or(usize::MAX);
    let decomp = ledger.decomposition();
    let [intra, inter, section, rotation] = LossKind::ALL.map(|kind| decomp.get(kind));
    let mut out = format!(
        "  intra-stream {intra:>8}\n  inter-stream {inter:>8}\n  section      {section:>8}\n  \
         rotation     {rotation:>8}\n"
    );
    let entries = ledger.entries();
    if entries.is_empty() {
        out.push_str("no conflicts: every request was granted on arrival\n");
        return out;
    }
    let (shown, distinct) = (entries.len().min(top), entries.len());
    out.push_str(&format!(
        "top attributions ({shown} of {distinct} distinct):\n"
    ));
    let port = |w: Option<usize>| w.map_or_else(|| "blocked".to_string(), |w| format!("port {w}"));
    for e in entries.iter().take(top) {
        let (bank, loser, winner, kind) = (e.key.bank, e.key.loser, port(e.key.winner), e.key.kind);
        let (kind, stalls) = (kind.name(), e.stalls);
        out.push_str(&format!(
            "  bank {bank:>3}  port {loser} <- {winner:<8} {kind:<8} {stalls:>8}\n"
        ));
    }
    out.push_str("stalls by stream pair (loser <- winner):\n");
    for (winner, loser, stalls) in ledger.pair_stalls().into_iter().take(top) {
        let winner = port(winner);
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

/// The report's `--heatmap-out`, `--metrics-out` and `--trace-out` files,
/// noted in `out`; the ledger's decomposition is folded into `metrics`.
fn save_report(
    out: &mut String,
    a: &Args,
    mut metrics: MetricsRegistry,
    ledger: &ConflictLedger,
    sink: &SpanSink,
) -> Result<(), Failure> {
    save(out, a, &HEATMAP_OUT, |p| fs::write(p, ledger.heatmap_csv()))?;
    save(out, a, &METRICS_OUT, |p| {
        let decomp = ledger.decomposition();
        for kind in LossKind::ALL {
            metrics.add_counter(&format!("report_loss_{}", kind.name()), decomp.get(kind));
        }
        metrics.add_counter("report_stalls_total", decomp.total());
        write_metrics(p, &metrics.snapshot())
    })?;
    save(out, a, &TRACE_OUT, |p| sink.write(p))
}

/// `vecmem report steady`: attribute every stalled port-cycle of one
/// steady period, with the decomposition checked against the exact
/// bandwidth identity `stalls = period · (N − b_eff)` (for bursty
/// patterns, `stalls + idle = period · N − grants`, where idle covers the
/// `burst − 1` cooldown cycles each grant buys).
pub fn report_steady(a: &Args) -> Result<String, Failure> {
    let (geom, config) = pair(a)?;
    let patterns = pattern_specs(a, &geom);
    // Each grant of a burst pattern buys `burst - 1` idle cooldown cycles.
    let burst = if a.get(&PATTERN) == "burst" {
        a.get(&BURST)
    } else {
        1
    };
    let (m, nc, ports) = (geom.banks(), geom.bank_cycle(), config.num_ports());
    let ss = measure_steady_state_patterns(&config, &patterns, a.get(&CYCLE_BUDGET))
        .map_err(|e| e.to_string())?;
    let (beff, transient, period) = (&ss.beff, ss.transient, ss.period);

    // Replay the search deterministically with the ledger attached: the
    // transient warms the attributor's bank-holder state, then the counts
    // are cleared so exactly one steady period (or, for aperiodic
    // gathers, the estimate window) is attributed.
    let mut ledger = ConflictLedger::new(&config);
    let mut metrics = MetricsRegistry::new(m, ports);
    let mut sink = SpanSink::new();
    sink.switch_track(0, "report");
    sink.begin("run");
    sink.leaf("steady-search", 0, transient + period);
    sink.advance_to(transient + period);
    sink.rebase_cycles(sink.now());
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::from_specs(&config, &patterns);
    sink.begin("transient");
    let mut observers = Tee(&mut ledger, Tee(&mut metrics, &mut sink));
    engine.run_with(&mut workload, transient, &mut observers);
    let Tee(held_ledger, Tee(_, held_sink)) = &mut observers;
    held_sink.end();
    held_ledger.clear_counts();
    held_sink.begin("cycle-period");
    engine.run_with(&mut workload, period, &mut observers);
    annotate_decomposition(&mut sink, &ledger);
    sink.end();
    sink.end();

    let stalls = ledger.decomposition().total();
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
    let expected = ports as u64 * period - grants - idle;
    if stalls != expected {
        return Err(format!(
            "attribution accounting broke: {stalls} attributed stalls != \
             {expected} = ports x period - grants - idle"
        )
        .into());
    }

    let topo = if a.get(&SAME_CPU) {
        "same-cpu"
    } else {
        "cross-cpu"
    };
    let prio = if a.get(&CYCLIC) { "cyclic" } else { "fixed" };
    let (p0, p1, per_period) = (&patterns[0], &patterns[1], ss.grants_per_period);
    let (estimate, how) = if ss.exact {
        ("", "exact")
    } else {
        ("; windowed estimate", "windowed")
    };
    let mut out = format!(
        "conflict attribution: m = {m}, nc = {nc}, patterns {p0:?} {p1:?}, {topo}, \
         {prio} priority\n\
         steady: b_eff = {beff} (transient {transient} cycles, period {period}, \
         {per_period} grants per period{estimate})\n\
         loss decomposition over one period (stalled port-cycles):\n"
    );
    out.push_str(&attribution_tables(&ledger, a));
    out.push_str(&if burst > 1 {
        format!(
            "identity: stalls {stalls} + idle {idle} = period x N - grants = \
             {period} x {ports} - {grants}\n"
        )
    } else {
        format!(
            "identity: total stalls {stalls} = period x (N - b_eff) = \
             {period} x ({ports} - {beff}) [{how}]\n"
        )
    });
    out.push_str("per-bank utilization over one period (grants x nc / period):\n");
    out.push_str(&utilization_lines(&ledger, nc, period));
    if a.get(&HEATMAP_OUT).is_none() {
        out.push_str("rotation-phase heatmap (stalls per phase x bank):\n");
        out.push_str(&ledger.heatmap_csv());
    }
    save_report(&mut out, a, metrics, &ledger, &sink)?;
    Ok(out)
}

/// `vecmem report triad`: conflict attribution over one whole Fig. 10
/// triad run. The per-period identity does not apply to the finite
/// workload, so totals are reported as-is.
pub fn report_triad(a: &Args) -> Result<String, Failure> {
    let exp = triad_experiment(a);
    let mut ledger = ConflictLedger::new(&exp.sim);
    let mut sink = SpanSink::new();
    sink.switch_track(0, "report");
    sink.begin("run");
    sink.begin(&format!("triad inc={}", exp.inc));
    let r = exp.run_observed(&mut Tee(&mut ledger, &mut sink));
    annotate_decomposition(&mut sink, &ledger);
    sink.end();
    sink.end();
    let background = if exp.with_background {
        "with background"
    } else {
        "alone"
    };
    let (inc, cycles, stalls) = (exp.inc, r.cycles, ledger.total_stalls());
    let mut out = format!(
        "conflict attribution: triad INC = {inc} ({background}), {cycles} clock periods\n\
         loss decomposition over the run ({stalls} stalled port-cycles):\n"
    );
    out.push_str(&attribution_tables(&ledger, a));
    out.push_str("per-bank utilization over the run (grants x nc / cycles):\n");
    let (nc, m, ports) = (
        exp.sim.geometry.bank_cycle(),
        exp.sim.geometry.banks(),
        exp.sim.num_ports(),
    );
    out.push_str(&utilization_lines(&ledger, nc, ledger.cycles()));
    save_report(&mut out, a, MetricsRegistry::new(m, ports), &ledger, &sink)?;
    Ok(out)
}

/// `vecmem report spectrum`: the design-space census run through the
/// cached work-stealing runner, reported with execution telemetry and an
/// optional merged sweep trace.
pub fn report_spectrum(a: &Args) -> Result<String, Failure> {
    let geom = geometry(a)?;
    let scenarios = spectrum_slices(&geom);
    let (outputs, report) = Runner::new().run_cached(&scenarios, &ResultCache::new());
    let mut sink = SpanSink::new();
    batch_spans(&mut sink, "spectrum", &scenarios, &outputs, &report);
    let total = merge_spectrum(&outputs);
    let (m, nc, cases) = (geom.banks(), geom.bank_cycle(), total.total());
    let (free, conflicting) = (total.disjoint_sets + total.conflict_free, total.conflicting);
    let (slices, threads, cache) = (report.scenarios, report.threads, &report.cache);
    let (hits, misses, coalesced) = (cache.hits, cache.misses, cache.coalesced);
    let mut out = format!(
        "spectrum census of m = {m}, nc = {nc}: {cases} cases\n\
         conflict-free or disjoint: {free}   conflicting: {conflicting}\n\
         exec: {slices} slices on {threads} thread(s), cache hits {hits} misses {misses} \
         coalesced {coalesced}\n"
    );
    save(&mut out, a, &METRICS_OUT, |p| {
        let mut metrics = MetricsRegistry::new(m, 1);
        export_exec_telemetry(&mut metrics, &report);
        write_metrics(p, &metrics.snapshot())
    })?;
    save(&mut out, a, &TRACE_OUT, |p| sink.write(p))?;
    Ok(out)
}

/// Runs `f` and measures its wall time, which is printed for the operator
/// only and is never part of a result.
#[expect(clippy::disallowed_types, reason = "operator-facing elapsed time")]
fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    (f(), start.elapsed())
}

/// Ends a verification report with its verdict; a failed one is an error
/// that lists every finding.
fn verdict<T: std::fmt::Display>(
    mut out: String,
    clean: bool,
    findings: &[T],
) -> Result<String, Failure> {
    if clean {
        out.push_str("verdict: CLEAN\n");
        return Ok(out);
    }
    for f in findings {
        out.push_str(&format!("\n{f}\n"));
    }
    out.push_str("verdict: FAILED\n");
    Err(out.into())
}

/// `vecmem verify --exhaustive`: the full small-geometry conformance sweep
/// of the optimized engine against the naive reference oracle and the
/// paper's theorems. Exits non-zero on any divergence or violation.
pub fn verify_exhaustive(a: &Args) -> Result<String, Failure> {
    let max_banks = a.get(&MAX_BANKS);
    if max_banks > MAX_SWEEP_BANKS {
        return Err(Failure::Usage(format!(
            "--max-banks {max_banks} exceeds the sweep's largest bank count {MAX_SWEEP_BANKS}"
        )));
    }
    let bounds = SweepBounds {
        max_banks,
        max_nc: a.get(&MAX_NC),
        max_ports: usize::try_from(a.get(&MAX_PORTS)).unwrap_or(usize::MAX),
        steady_budget: a.get(&SWEEP_BUDGET),
    };
    let runner = Runner::new();
    let (mut registry, mut sink) = (MetricsRegistry::new(1, 1), SpanSink::new());
    let observe = (a.get(&METRICS_OUT).is_some(), a.get(&TRACE_OUT).is_some());
    let (r, elapsed) = timed(|| {
        let (registry, sink) = (
            observe.0.then_some(&mut registry),
            observe.1.then_some(&mut sink),
        );
        sweep_observed(&bounds, &runner, registry, sink)
    });
    let (m, nc, p, threads) = (
        bounds.max_banks,
        bounds.max_nc,
        bounds.max_ports,
        runner.threads(),
    );
    let replay_rate = 100.0 * r.hit_rate();
    let mut out = format!(
        "exhaustive conformance sweep: m <= {m}, nc <= {nc}, p <= {p}\n  \
         points enumerated   {:>9}\n  simulated (orbits)  {:>9}\n  \
         isomorphic replays  {:>9}  ({replay_rate:.1}% of points)\n  \
         theorem checks: Thm1 {}  Thm2 {}  Thm3 {} (skipped {})  III-A {}\n  \
         barrier checks: Thms 6/7 (eq. 29) {}\n  \
         divergences {}  violations {}  not converged {}\n  \
         elapsed {elapsed:.2?} on {threads} thread(s)\n",
        r.enumerated,
        r.executed,
        r.replayed,
        r.thm1_checked,
        r.thm2_checked,
        r.thm3_checked,
        r.thm3_skipped,
        r.iiia_checked,
        r.barrier_checked,
        r.divergence_count,
        r.violation_count,
        r.not_converged,
    );
    save(&mut out, a, &METRICS_OUT, |p| {
        write_metrics(p, &registry.snapshot())
    })?;
    save(&mut out, a, &TRACE_OUT, |p| sink.write(p))?;
    let findings: Vec<_> = r.divergences.iter().chain(&r.violations).collect();
    verdict(out, r.clean(), &findings)
}

/// `vecmem verify --random N`: coverage-guided exploration of the
/// sectioned space, N cases.
pub fn verify_random(a: &Args) -> Result<String, Failure> {
    let cfg = ExploreConfig {
        cases: a.get(&RANDOM),
        seed: a.get(&SEED),
        steady_budget: a.get(&EXPLORE_BUDGET),
        ..ExploreConfig::default()
    };
    let mut registry = MetricsRegistry::new(1, 1);
    let (r, elapsed) = timed(|| explore(&cfg, &mut registry));
    let (cases, seed) = (cfg.cases, cfg.seed);
    let (distinct, fresh, not_converged) = (r.distinct, r.fresh, r.not_converged);
    let mut out = format!(
        "coverage-guided random exploration: {cases} cases, seed {seed}\n  \
         distinct signatures {distinct:>5}  (fresh on {fresh} cases)\n  \
         not converged       {not_converged:>5}\n  divergences         {:>5}\n  \
         elapsed {elapsed:.2?}\n  coverage (sections / gcd class / conflict-kind bits -> cases):\n",
        r.divergence_count
    );
    for (name, count) in registry.counters_with_prefix("oracle.explore.sig.") {
        let sig = name.trim_start_matches("oracle.explore.sig.");
        out.push_str(&format!("    {sig:<12} {count:>5}\n"));
    }
    verdict(out, r.clean(), &r.divergences)
}

/// `vecmem verify --diff`: lockstep-diff one scenario, with a dump of the
/// first divergent cycle.
pub fn verify_diff(a: &Args) -> Result<String, Failure> {
    let (geom, config) = pair(a)?;
    let streams = pair_streams(a, &geom);
    match vecmem_oracle::conform::diff_single(&config, &streams, a.get(&DIFF_CYCLES)) {
        DiffOutcome::Match { cycles, grants } => Ok(format!(
            "engines agree over {cycles} cycles ({grants} grants on each side)\n"
        )),
        DiffOutcome::Diverged(d) => Err(format!("{d}").into()),
    }
}

/// `vecmem reproduce`: writes every registered `results/` artifact into
/// `--out` (default `results`), each as the bytes its registry entry
/// renders.
pub fn cmd_reproduce(a: &Args) -> Result<String, Failure> {
    let dir = a.get(&OUT).unwrap_or_else(|| "results".into());
    fs::create_dir_all(&dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let mut out = String::new();
    for &(name, render) in ARTIFACTS {
        let path = std::path::Path::new(&dir).join(name);
        let shown = path.display();
        fs::write(&path, render()).map_err(|e| format!("writing {shown}: {e}"))?;
        out.push_str(&format!("wrote {shown}\n"));
    }
    Ok(out)
}
