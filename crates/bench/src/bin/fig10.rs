//! Regenerates paper Fig. 10 (the triad experiment, all five series).
//!
//! Usage: `fig10 [MAX_INC] [--csv] [--obs DIR]`
//!
//! `--obs DIR` (requires the `obs` feature) additionally writes one
//! per-increment metrics snapshot under `DIR/obs/`.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let max_inc = args.iter().find_map(|a| a.parse().ok()).unwrap_or(16);
    let fig = vecmem_bench::fig10::run(max_inc);
    if csv {
        print!("{}", vecmem_bench::csv::fig10_csv(&fig));
    } else {
        print!("{}", vecmem_bench::artifacts::fig10_text(&fig));
    }
    if let Some(pos) = args.iter().position(|a| a == "--obs") {
        let dir = args
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| "results".to_string());
        #[cfg(feature = "obs")]
        {
            let written = vecmem_bench::telemetry::export_triad_sweep(
                std::path::Path::new(&dir),
                max_inc,
                64,
            )
            .expect("telemetry export");
            eprintln!("wrote {} metrics snapshots under {dir}/obs/", written.len());
        }
        #[cfg(not(feature = "obs"))]
        {
            eprintln!("--obs {dir}: rebuild with `--features obs` to export telemetry");
            std::process::exit(2);
        }
    }
}
