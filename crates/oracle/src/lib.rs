//! # vecmem-oracle
//!
//! Differential verification layer for the interleaved-memory
//! reproduction: an independent, deliberately naive reference simulator
//! plus harnesses that hold the optimized engine and the paper's theorems
//! to account.
//!
//! * [`engine`] — [`RefEngine`]: a second implementation of the memory
//!   system written straight from the paper's conflict rules (per-bank
//!   busy countdowns, explicit priority walks, in-order retry), sharing
//!   only the `core` geometry/stream types with `vecmem-banksim`.
//! * [`diff`] — lockstep differential harness: steps both engines cycle
//!   by cycle and reports the first divergent cycle with a full bank/port
//!   state dump; a `b_eff`-only fast mode covers long runs.
//! * [`conform`] — exhaustive small-geometry conformance sweep checking
//!   Thm 1, §III-A, Thm 2, Thm 3 and Thms 6/7's eq. 29 (every pair point
//!   judged by `PairClass::admits`) against both engines, parallelised by
//!   `vecmem-exec`'s runner and collapsed by an orbit index: each point
//!   replays the outcome of its least isomorphic point, found by
//!   arithmetic.
//! * [`explore`](mod@explore) — coverage-guided random exploration of the sectioned /
//!   mixed-topology space the exhaustive tier does not enumerate.
//!
//! The `bug_injection` feature compiles seeded arbiter faults into
//! [`RefEngine`] so the golden tests can prove the harness detects real
//! divergences (see `tests/oracle_vs_engine.rs` at the workspace root).

// Panic policy and exhaustive matches for non-test library code; bins and
// integration tests are separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

pub mod conform;
pub mod diff;
pub mod engine;
pub mod explore;

#[cfg(feature = "bug_injection")]
pub use engine::InjectedBug;
pub use engine::{RefConfig, RefEngine, RefOutcome, RefPriority, RefStep};

pub use conform::{
    export_sweep_metrics, sweep, sweep_observed, SweepBounds, SweepReport, Violation,
    MAX_SWEEP_BANKS,
};
pub use diff::{
    mirror_config, run_beff, run_pair, run_pair_against, solve_in_lockstep,
    solve_in_lockstep_against, BeffDiff, DiffOutcome, Divergence, LOCKSTEP_TAIL,
};
pub use explore::{explore, ExploreConfig, ExploreReport, Signature};
