//! # vecmem-banksim
//!
//! Cycle-accurate simulator of an `m`-way interleaved, sectioned memory
//! system accessed by vector-mode ports — the experimental substrate of the
//! reproduction of Oed & Lange (1985), *"On the Effective Bandwidth of
//! Interleaved Memories in Vector Processor Systems"*.
//!
//! The simulator implements the memory model of the paper's §II exactly:
//!
//! * banks busy for `n_c` clock periods after a grant;
//! * one access path per CPU per section, occupied for one clock period per
//!   grant;
//! * dynamic conflict resolution — a delayed port retries next period with
//!   all its subsequent requests pushed back;
//! * the three conflict types (bank, simultaneous bank, section) with fixed
//!   or cyclic priority rules.
//!
//! On top of the per-cycle [`engine::Engine`] sit:
//!
//! * [`pattern`] — the vector-mode strided access streams of §III
//!   ([`PatternWorkload::strided`]) and the other access patterns;
//! * [`steady`] — exact cyclic-state detection, yielding the effective
//!   bandwidth `b_eff` as an exact rational;
//! * [`trace`] — ASCII traces in the visual style of the paper's Figs. 2–9;
//! * [`observe`] — zero-overhead per-cycle observer hooks ([`SimObserver`])
//!   that the `vecmem-obs` crate builds metrics registries and structured
//!   event exporters on.
//!
//! ```
//! use vecmem_analytic::{Geometry, Ratio, StreamSpec};
//! use vecmem_banksim::steady::measure_pair_cross_cpu;
//!
//! // Fig. 2: two streams, d1 = 1 and d2 = 7, on a 12-bank memory with
//! // bank cycle 3: conflict-free, effective bandwidth 2.
//! let geom = Geometry::unsectioned(12, 3).unwrap();
//! let s1 = StreamSpec::new(&geom, 0, 1).unwrap();
//! let s2 = StreamSpec::new(&geom, 1, 7).unwrap();
//! let steady = measure_pair_cross_cpu(&geom, s1, s2, 10_000).unwrap();
//! assert_eq!(steady.beff, Ratio::integer(2));
//! ```

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

// The simulation core — packed state, step kernel, arbitration, observer
// hooks, statistics vocabulary and cyclic-state detection — lives in
// `vecmem-simcore`; its modules are re-exported here so the historical
// `vecmem_banksim::arbiter::…` (etc.) paths keep working.
pub use vecmem_simcore::{
    arbiter, config, observe, pattern, request, state, stats, step, workload,
};

pub mod engine;
pub mod random;
pub mod rng;
pub mod steady;
pub mod trace;
pub mod transient;

pub use config::{BankModel, PriorityRule, SimConfig};
pub use engine::{Engine, RunOutcome};
pub use observe::{NoopObserver, SimObserver, Tee};
pub use pattern::{
    AccessPattern, AnyPattern, BurstPattern, GatherPattern, IndexPattern, PatternLength,
    PatternPort, PatternSpec, PatternWorkload, StridePattern,
};
pub use random::{
    hellerman_asymptotic, hellerman_bandwidth, measure_random_bandwidth, RandomWorkload,
};
pub use request::{ConflictKind, CpuId, PortId, PortOutcome, Request};
pub use rng::SmallRng;
pub use stats::{ConflictCounts, PortStats, SimStats, WAIT_BUCKETS};
pub use steady::{
    measure_steady_state, measure_steady_state_patterns, measure_steady_state_workload,
    ObservableWorkload, SteadyState, SteadyStateError,
};
pub use trace::TraceRecorder;
pub use transient::{finite_vector_bandwidth, transient_profile, TransientProfile};
pub use vecmem_simcore::WINDOWED_FALLBACK_CYCLES;
pub use vecmem_simcore::{CycleEvents, PortEvent, SimState};
pub use workload::Workload;
