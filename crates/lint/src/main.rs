//! CLI for the workspace invariant linter.
//!
//! ```text
//! vecmem-lint --workspace [--root DIR] [--format text|json|gcc]
//!             [--json-out FILE] [--budget-ms N]
//! ```
//!
//! Exit codes: 0 clean, 1 gate failure (any finding, or the runtime
//! budget blown), 2 usage or IO error.

use std::path::PathBuf;
use std::process::ExitCode;
use vecmem_lint::json::render_findings;
use vecmem_lint::lint_workspace;

const USAGE: &str = "\
usage: vecmem-lint --workspace [options]

Lints every workspace crate's src/ tree against the vecmem rules that
clippy cannot express (L2 purity, L6/L7 transitive hot-path proofs, L9
overflow policy) and fails on any finding. Determinism, panic policy,
match exhaustiveness and doc contracts are clippy lints (see the root
Cargo.toml and crates/clippy.toml).

options:
  --workspace          lint the whole workspace (required today)
  --root DIR           workspace root (default: nearest ancestor with
                       both Cargo.toml and crates/)
  --format FMT         violation output: text (default), gcc
                       (file:line: warning: ... [rule]), or json (the
                       full vecmem-lint/findings-v1 document on stdout)
  --json-out FILE      also write the findings-v1 document to FILE,
                       in any mode
  --budget-ms N        fail (exit 1) if the lint run itself takes
                       longer than N milliseconds
  -h, --help           this help";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Gcc,
}

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    format: Format,
    json_out: Option<PathBuf>,
    budget_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        format: Format::Text,
        json_out: None,
        budget_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--format" => {
                args.format = match it.next().ok_or("--format needs a value")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "gcc" => Format::Gcc,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--json-out" => {
                args.json_out = Some(PathBuf::from(it.next().ok_or("--json-out needs a value")?));
            }
            "--budget-ms" => {
                let v = it.next().ok_or("--budget-ms needs a value")?;
                args.budget_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("bad --budget-ms value `{v}`"))?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.workspace {
        return Err("missing --workspace (the only supported mode)".to_string());
    }
    Ok(args)
}

/// Walks up from the current directory to the first directory holding
/// both `Cargo.toml` and `crates/`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("vecmem-lint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = args.root.clone().or_else(find_root) else {
        eprintln!("vecmem-lint: no workspace root found (looked for Cargo.toml + crates/)");
        return ExitCode::from(2);
    };
    #[expect(
        clippy::disallowed_types,
        reason = "the CLI's own runtime budget gate needs a monotonic clock; nothing it measures feeds a result"
    )]
    let started = std::time::Instant::now();
    let run = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vecmem-lint: {e}");
            return ExitCode::from(2);
        }
    };
    // The budget covers the analysis itself, not report IO: it guards the
    // cost every `check.sh` run pays, and keeps the gate stable under slow
    // disks on CI.
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);

    if let Some(path) = &args.json_out {
        if let Err(e) = std::fs::write(path, render_findings(&run)) {
            eprintln!("vecmem-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let gate = report(&args, &run);

    if let Some(budget) = args.budget_ms {
        if elapsed_ms > budget {
            eprintln!(
                "vecmem-lint: budget FAILED — lint took {elapsed_ms} ms (budget {budget} ms)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("vecmem-lint: runtime {elapsed_ms} ms (budget {budget} ms)");
    }
    gate
}

/// Prints one violation in the selected format.
fn print_violation(v: &vecmem_lint::Violation, format: Format) {
    match format {
        Format::Gcc => println!("{}", vecmem_lint::json::gcc_line(v)),
        _ => println!("{v}"),
    }
}

/// Prints the run in the selected format and returns the gate's exit
/// code: success only when there is no finding.
fn report(args: &Args, run: &vecmem_lint::LintRun) -> ExitCode {
    // In json mode stdout IS the document; human summaries stay on stderr.
    if args.format == Format::Json {
        print!("{}", render_findings(run));
    } else {
        for v in &run.violations {
            print_violation(v, args.format);
        }
        println!(
            "vecmem-lint: {} file(s), {} violation(s), {} suppressed",
            run.files,
            run.violations.len(),
            run.suppressed
        );
    }
    if run.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "vecmem-lint: gate FAILED ({} violation(s))",
            run.violations.len()
        );
        ExitCode::FAILURE
    }
}
