//! Pure simulation core of the interleaved-memory model of Oed & Lange
//! (1985), "On the Effective Bandwidth of Interleaved Memories in Vector
//! Processor Systems".
//!
//! This crate is the innermost simulation layer: everything needed to
//! advance the memory system by one clock period, and nothing else — no
//! stream generators, no random workloads, no figure drivers. It exists so
//! that every consumer of cycle-level simulation (the bank-conflict
//! simulator `vecmem-banksim`, the skewing evaluator `vecmem-skew`, the
//! experiment runner `vecmem-exec`, the differential oracle
//! `vecmem-oracle`, and the CLI) shares one state representation, one step
//! kernel, and one cyclic-state detector:
//!
//! * [`state::SimState`] — the packed dynamic state: priority rotation,
//!   per-bank absolute free times with an expiry wheel of the busy banks,
//!   workload position slots and wait counters in a single contiguous
//!   buffer, with an incrementally maintained, shift-invariant 64-bit
//!   hash of the behaviour-determining core;
//! * [`step::step`] — the one kernel that simulates a clock period:
//!   collect pending requests, arbitrate ([`arbiter`]), apply delays and
//!   grants, notify the [`observe::SimObserver`], age the banks;
//! * [`steady`] — Brent's cycle-finding over the state hash: exact
//!   effective bandwidth of the cyclic state in O(state · log(μ + λ))
//!   memory and an exact transient in O(μ) extra steps, with a
//!   budgeted windowed estimate for aperiodic workloads;
//! * [`pattern`] — the access-pattern abstraction: address generation as
//!   a swappable concern ([`pattern::AccessPattern`]), with constant
//!   stride, indexed gather/scatter and strided-burst implementations and
//!   the generic per-port [`pattern::PatternWorkload`] adapter;
//! * [`config`], [`request`], [`stats`], [`workload`] — the shared
//!   vocabulary types these are written in, including the
//!   [`config::BankModel`] (uniform `n_c` holds or DRAM-flavoured
//!   open-row hit/miss asymmetry).
//!
//! Layering: `vecmem-simcore` sits on `vecmem-analytic` (geometry and
//! exact rationals) and knows nothing about who drives it. Downstream,
//! `vecmem-banksim` wraps the kernel in the statistics-keeping
//! [`Engine`](https://docs.rs/vecmem-banksim), and `skew`/`exec`/`oracle`
//! build on both.

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

pub mod arbiter;
pub mod config;
pub mod observe;
pub mod pattern;
pub mod request;
pub mod state;
pub mod stats;
pub mod steady;
pub mod step;
pub mod workload;

pub use arbiter::arbitrate_into;
pub use config::{BankModel, PriorityRule, SimConfig};
pub use observe::{NoopObserver, SimObserver, Tee};
pub use pattern::{
    AccessPattern, AnyPattern, BurstPattern, GatherPattern, IndexPattern, PatternLength,
    PatternPort, PatternSpec, PatternWorkload, StridePattern,
};
pub use request::{ConflictKind, CpuId, PortId, PortOutcome, Request};
pub use state::{InvariantViolation, PortEvent, SimState};
pub use stats::{ConflictCounts, PortStats, SimStats, WAIT_BUCKETS};
pub use steady::{
    measure_steady_state_workload, ObservableWorkload, Ride, SteadyState, SteadyStateError,
    WINDOWED_FALLBACK_CYCLES,
};
pub use step::{step, CycleEvents};
pub use workload::Workload;
