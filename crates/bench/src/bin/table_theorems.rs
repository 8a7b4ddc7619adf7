//! Theorem 2-7 validation table: analytic classification vs simulated
//! steady-state bandwidth over all distance pairs and start banks.
//!
//! Usage: `table_theorems [M] [NC] [--csv]`
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let nums: Vec<u64> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let m = nums.first().copied().unwrap_or(13);
    let nc = nums.get(1).copied().unwrap_or(4);
    let (rows, report) = vecmem_bench::tables::theorem_table_report(m, nc);
    // Stderr so the stdout table/CSV contract is unchanged.
    eprintln!(
        "sweep: {} scenarios on {} thread(s), cache hit rate {:.1}% ({} hits, {} misses)",
        report.scenarios,
        report.threads,
        report.cache.hit_rate() * 100.0,
        report.cache.hits,
        report.cache.misses,
    );
    if csv {
        print!("{}", vecmem_bench::csv::theorems_csv(&rows));
    } else {
        print!(
            "{}",
            vecmem_bench::artifacts::theorem_table_text(m, nc, &rows)
        );
    }
}
