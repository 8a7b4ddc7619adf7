//! One-command reproduction: writes every registered `results/` artifact
//! (see `vecmem_bench::artifacts`) into a results directory.
//!
//! ```text
//! cargo run --release -p vecmem-bench --bin reproduce_all [-- OUTDIR]
//! ```
use std::fs;
use std::path::Path;

fn main() {
    let outdir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results".to_string());
    let dir = Path::new(&outdir);
    fs::create_dir_all(dir).expect("create results dir");

    for &(name, render) in vecmem_bench::artifacts::ARTIFACTS {
        let path = dir.join(name);
        fs::write(&path, render()).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("  wrote {}", path.display());
    }

    #[cfg(feature = "obs")]
    {
        println!("Telemetry (feature `obs`):");
        let mut written =
            vecmem_bench::telemetry::export_figures(dir, 64).expect("figure telemetry export");
        written.extend(
            vecmem_bench::telemetry::export_triad_sweep(dir, 16, 64)
                .expect("triad telemetry export"),
        );
        println!(
            "  wrote {} metrics snapshots under {outdir}/obs/",
            written.len()
        );
    }

    println!("done: all artefacts regenerated into {outdir}/");
}
