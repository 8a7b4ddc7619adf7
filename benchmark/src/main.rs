//! `vecmem-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]`
//!
//! With `--workload`, runs that workload in this process: the untraced
//! run prints every end-to-end metric, the traced run every per-layer
//! metric, one `workload metric value unit n=samples` line each, then one
//! JSON result line. Without it, runs all five workloads one after
//! another, each in its own child process. Results and traces go to
//! `target/benchmark/`. The exit code is non-zero when a correctness check
//! fails.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use vecmem_benchmark::{run, Settings, Sizes, Workload};

const USAGE: &str =
    "usage: vecmem-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]";

/// Seconds each untraced run repeats its job for by default.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut pending = None;
    loop {
        let Some(flag) = pending.take().or_else(|| args.next()) else {
            return Ok(out);
        };
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let workload =
                    Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
                out.workload = Some(workload);
            }
            "--seed" => {
                let text = value("--seed")?;
                out.seed = text.parse().map_err(|_| format!("bad seed `{text}`"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                out.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds `{text}`"))?;
            }
            "--trace" => match args.next() {
                Some(v) if v == "1" => out.trace = true,
                Some(v) if v == "0" => out.trace = false,
                other => {
                    out.trace = true;
                    pending = other;
                }
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn one(workload: Workload, args: &Args) -> ExitCode {
    let root = repo_root();
    let outcome = run(&Settings {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::FULL,
        goldens: root.join("results"),
        out_dir: root.join("target").join("benchmark"),
    });
    print!("{}", outcome.lines());
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one after another,
/// each writing straight to this process's output. True when all passed.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut correct = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vecmem-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => one(workload, &args),
        None => match all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("vecmem-benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
