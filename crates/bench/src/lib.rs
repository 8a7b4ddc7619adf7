//! # vecmem-bench
//!
//! Benchmark harness regenerating every figure of Oed & Lange (1985) and
//! the reproduction's theorem-validation/ablation tables.
//!
//! [`artifacts::ARTIFACTS`] lists every committed `results/` file the
//! crate produces, with the function that renders its exact bytes. The
//! `vecmem` command line reads it and this crate's renderers:
//!
//! | command | output |
//! |---------|--------|
//! | `vecmem reproduce [--out DIR]` | every registered artifact, as `DIR/<name>` |
//! | `vecmem triad --sweep N [--csv]` | the five triad series of Fig. 10 |
//! | `vecmem theorems [--banks M] [--nc N] [--csv]` | Theorems 2–7 sweep, analytic vs simulated |
//!
//! This crate times nothing. The out-of-workspace `benchmark/` package
//! (`vecmem-benchmark`) measures the solver, and it calls [`figures`],
//! [`fig10`], [`tables`] and [`csv`] as its `reproduce` workload.

// Panic policy for non-test library code; integration tests are separate
// crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod artifacts;
pub mod csv;
pub mod fig10;
pub mod figures;
pub mod plot;
mod support;
pub mod tables;
