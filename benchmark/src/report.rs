//! Metric records and their three renderings: human lines, the one-line
//! JSON result and the results file.

use crate::Workload;
use vecmem_obs::Json;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (reps, scenarios, calls).
    pub samples: u64,
}

impl Metric {
    /// A metric record.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// The metrics the run reports: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// Secondary numbers written to the results file next to the metrics
    /// (throughput, failed fraction, the traced run's untraced reference),
    /// but neither printed nor part of the one-line result.
    pub extras: Vec<Metric>,
    /// Operations attempted (scenario answers and artifacts checked).
    pub attempted: u64,
    /// Operations that did not converge or failed a check.
    pub failed: u64,
    /// One message per failed correctness check.
    pub failures: Vec<String>,
    /// Digest of the job's checked outputs (b_eff, per-port bandwidth and
    /// exact flag of every answer, in submission order; the artifacts for
    /// `reproduce`).
    pub digest: Option<u64>,
    /// Per repetition of the untraced run: its raw host seconds and the
    /// host-speed factor that scaled them (see `clock::calibrated`).
    pub repetitions: Vec<(f64, f64)>,
}

impl Outcome {
    /// An empty outcome.
    #[must_use]
    pub fn new(workload: Workload, traced: bool) -> Self {
        Self {
            workload,
            traced,
            metrics: Vec::new(),
            extras: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: None,
            repetitions: Vec::new(),
        }
    }

    /// Records a failed check; it also counts as one failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.failures.push(message.into());
    }

    /// True when every check passed and nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// One `workload metric value unit n=samples` line per metric, then
    /// one line per failed check.
    #[must_use]
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{} {} {} {} n={}\n",
                self.workload.name(),
                m.name,
                m.value,
                m.unit,
                m.samples
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("{} CHECK FAILED: {f}\n", self.workload.name()));
        }
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// metrics as `{name: {value, unit}}`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metric = |m: &Metric| {
            (
                m.name.clone(),
                Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
            )
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "metrics",
                Json::Object(self.metrics.iter().map(metric).collect()),
            ),
        ])
        .render()
    }

    /// The results file: the one-line result's fields plus the workload,
    /// the mode, sample counts, the extras and the failure messages.
    #[must_use]
    pub fn results_json(&self, seed: u64) -> String {
        let metric = |m: &Metric| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::F64(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("samples", Json::U64(m.samples)),
                ]),
            )
        };
        Json::obj([
            ("schema", Json::str("vecmem-benchmark/results-v1")),
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::U64(seed)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "digest",
                self.digest
                    .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
            ),
            (
                "metrics",
                Json::Object(self.metrics.iter().map(metric).collect()),
            ),
            (
                "extras",
                Json::Object(self.extras.iter().map(metric).collect()),
            ),
            (
                "repetitions",
                Json::Array(
                    self.repetitions
                        .iter()
                        .map(|&(raw_s, host)| {
                            Json::obj([("raw_s", Json::F64(raw_s)), ("host", Json::F64(host))])
                        })
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Array(self.failures.iter().map(|f| Json::str(f.clone())).collect()),
            ),
        ])
        .render()
    }
}
