//! # vecmem-bench
//!
//! Benchmark harness regenerating every figure of Oed & Lange (1985) and
//! the reproduction's theorem-validation/ablation tables.
//!
//! Harness binaries (each prints the corresponding rows/series):
//!
//! | binary | artefact |
//! |--------|----------|
//! | `fig02` … `fig09` | trace figures 2–9 with paper-vs-simulated `b_eff` |
//! | `fig10` | the five triad series of Fig. 10 |
//! | `table_theorems` | Theorems 2–7 sweep, analytic vs simulated |
//! | `table_priority` | ablation A1: fixed vs cyclic priority |
//! | `table_sections` | ablation A2: cyclic vs consecutive section mapping |
//! | `table_skewing` | ablation A3: skewing schemes vs plain interleaving |
//!
//! This crate times nothing. The out-of-workspace `benchmark/` package
//! (`vecmem-benchmark`) measures the solver, and it calls [`figures`],
//! [`fig10`], [`tables`] and [`csv`] as its `reproduce` workload.
//!
//! With `--features obs` the reproduction binaries additionally export
//! per-run telemetry (see [`telemetry`]).

// Panic policy for non-test library code; bins and integration tests are
// separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod csv;
pub mod fig10;
pub mod figures;
pub mod plot;
mod support;
pub mod tables;
#[cfg(feature = "obs")]
pub mod telemetry;
