//! Per-run telemetry for the reproduction binaries (feature `obs`).
//!
//! With `--features obs`, `reproduce_all` (and the `fig10` binary) emit a
//! `vecmem-obs` metrics snapshot next to each figure/series artefact: bank
//! utilization, per-port conflict counters and the rolling `b_eff(t)`
//! series, one JSON file per run under `<outdir>/obs/`.

use std::io;
use std::path::{Path, PathBuf};
use vecmem_banksim::{Engine, PatternWorkload};
use vecmem_obs::{write_metrics, MetricsRegistry, MetricsSnapshot};
use vecmem_vproc::triad::{TriadExperiment, TriadResult};

/// Cycles to simulate when re-running a trace figure for telemetry: long
/// enough for every Fig. 2–9 scenario to pass its transient and close
/// several windows.
const FIGURE_CYCLES: u64 = 4096;

/// Runs one triad experiment with a metrics registry attached.
#[must_use]
pub fn observed_triad(
    inc: u64,
    with_background: bool,
    window: u64,
) -> (TriadResult, MetricsSnapshot) {
    let exp = if with_background {
        TriadExperiment::paper(inc)
    } else {
        TriadExperiment::paper_alone(inc)
    };
    let mut metrics =
        MetricsRegistry::with_window(exp.sim.geometry.banks(), exp.sim.num_ports(), window);
    let result = exp.run_observed(&mut metrics);
    (result, metrics.snapshot())
}

/// Re-runs a trace-figure scenario under a metrics registry.
#[must_use]
pub fn observed_figure(figure: &crate::figures::Figure, window: u64) -> MetricsSnapshot {
    let config = figure.config();
    let mut engine = Engine::new(config);
    let mut workload = PatternWorkload::strided(&figure.geometry, &figure.streams);
    let mut metrics = MetricsRegistry::with_window(figure.geometry.banks(), 2, window);
    for _ in 0..FIGURE_CYCLES {
        engine.step_with(&mut workload, &mut metrics);
    }
    metrics.snapshot()
}

fn obs_dir(dir: &Path) -> io::Result<PathBuf> {
    let obs = dir.join("obs");
    std::fs::create_dir_all(&obs)?;
    Ok(obs)
}

/// Writes per-increment triad metrics (contended and alone) under
/// `<dir>/obs/` and returns the paths written.
///
/// # Errors
/// Propagates filesystem errors.
pub fn export_triad_sweep(dir: &Path, max_inc: u64, window: u64) -> io::Result<Vec<PathBuf>> {
    let obs = obs_dir(dir)?;
    let mut paths = Vec::new();
    for inc in 1..=max_inc {
        for (label, with_background) in [("contended", true), ("alone", false)] {
            let (_, snapshot) = observed_triad(inc, with_background, window);
            let path = obs.join(format!("triad_{label}_inc{inc:02}.json"));
            write_metrics(&path, &snapshot)?;
            paths.push(path);
        }
    }
    Ok(paths)
}

/// Writes one metrics snapshot per trace figure (Figs. 2–9) under
/// `<dir>/obs/` and returns the paths written.
///
/// # Errors
/// Propagates filesystem errors.
pub fn export_figures(dir: &Path, window: u64) -> io::Result<Vec<PathBuf>> {
    let obs = obs_dir(dir)?;
    let mut paths = Vec::new();
    for figure in crate::figures::all_figures() {
        let snapshot = observed_figure(&figure, window);
        let path = obs.join(format!("fig{:0>2}.json", figure.id));
        write_metrics(&path, &snapshot)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_triad_matches_plain_run() {
        let (observed, snapshot) = observed_triad(1, false, 64);
        let plain = TriadExperiment::paper_alone(1).run();
        assert_eq!(observed, plain, "observer must not change results");
        assert_eq!(snapshot.cycles, plain.cycles);
        // The triad's three ports' grants all appear in the registry.
        let port_grants: u64 = snapshot.ports[..3].iter().map(|p| p.grants).sum();
        assert_eq!(port_grants, plain.triad_grants);
        assert!(!snapshot.beff_series.is_empty());
    }

    #[test]
    fn observed_figure_series_reaches_full_bandwidth() {
        let fig2 = crate::figures::all_figures()
            .into_iter()
            .find(|f| f.id == "2")
            .unwrap();
        let snapshot = observed_figure(&fig2, 64);
        // Fig. 2 is conflict-free at b_eff = 2: the series ends there.
        let last = snapshot
            .beff_series
            .last()
            .expect("4096 cycles close windows");
        assert!((last.beff - 2.0).abs() < 0.05, "beff {}", last.beff);
    }
}
