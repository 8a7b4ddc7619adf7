//! End-to-end and per-layer benchmark of the vecmem workspace.
//!
//! Five user jobs ([`Workload`]), each driven only through public entry
//! points of the workspace crates and timed from outside:
//!
//! * an untraced run ([`run`] with `trace = false`) measures the
//!   end-to-end metrics over repetitions of the job and checks its
//!   outputs;
//! * a traced run (`trace = true`) replays the job once under spans and
//!   then times each layer — key, solve, kernel, pattern, arbiter, oracle
//!   — by calling into it directly, writing a Perfetto-loadable trace.
//!
//! See `README.md` next to this crate for the metric table.

pub mod clock;
pub mod inputs;
mod jobs;
mod layers;
pub mod report;

use std::path::PathBuf;

pub use inputs::Sizes;
pub use report::{Metric, Outcome};

/// The benchmark's workloads, in the order the default run executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `oracle::conform::sweep` over the default bounds: `vecmem verify
    /// --exhaustive`.
    VerifyExhaustive,
    /// Constant strides on 32–128 banks: long periods, no cache hits.
    StrideLarge,
    /// Two-port affine gathers on power-of-two banks and on 13 banks.
    GatherAffine,
    /// Pseudo-random gathers, strided bursts and DRAM open-row strides.
    PatternMix,
    /// The five public calls `reproduce_all` makes.
    Reproduce,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Self; 5] = [
        Self::VerifyExhaustive,
        Self::StrideLarge,
        Self::GatherAffine,
        Self::PatternMix,
        Self::Reproduce,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::VerifyExhaustive => "verify_exhaustive",
            Self::StrideLarge => "stride_large",
            Self::GatherAffine => "gather_affine",
            Self::PatternMix => "pattern_mix",
            Self::Reproduce => "reproduce",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the untraced run keeps repeating the job for (it always
    /// makes at least [`MIN_REPS`] repetitions).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Directory holding the reproduction goldens (`results/`).
    pub goldens: PathBuf,
    /// Directory the results file and the trace are written to.
    pub out_dir: PathBuf,
}

/// Repetitions every untraced run makes, however short `seconds` is.
pub const MIN_REPS: usize = 5;

/// Runs one workload, writes its results file (and, traced, its trace)
/// under `out_dir`, and returns what it measured. A failed correctness
/// check is recorded in the outcome, never panicked on.
#[must_use]
pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = if settings.trace {
        layers::traced(settings)
    } else {
        jobs::untraced(settings)
    };
    let mode = if settings.trace { "layers" } else { "e2e" };
    let path = settings
        .out_dir
        .join(format!("{}-{mode}.json", settings.workload.name()));
    let written = std::fs::create_dir_all(&settings.out_dir)
        .and_then(|()| std::fs::write(&path, outcome.results_json(settings.seed)));
    if let Err(e) = written {
        outcome.fail(format!("cannot write {}: {e}", path.display()));
    }
    outcome
}
