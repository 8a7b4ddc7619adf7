//! # vecmem-analytic
//!
//! Analytical model of the **effective bandwidth of interleaved memories in
//! vector processor systems**, reproducing
//!
//! > W. Oed and O. Lange, *"On the Effective Bandwidth of Interleaved
//! > Memories in Vector Processor Systems"*, IEEE Transactions on Computers,
//! > vol. C-34, no. 10, pp. 949–957, October 1985.
//!
//! An `m`-way interleaved memory is accessed by ports operating in vector
//! mode: port *i* starts at bank `b_i` and steps through the banks with
//! distance `d_i`, issuing one request per clock period. A granted bank is
//! busy for `n_c` clock periods. This crate answers, *without simulation*:
//!
//! * what bandwidth does a single stream achieve? ([`stream::StreamSpec::solo_bandwidth`])
//! * can two concurrent streams run conflict-free? (Theorems 2, 3 —
//!   [`pair::conflict_free_condition`])
//! * when does one stream form a *barrier* that starves the other, and what
//!   bandwidth results? (Theorems 4–7, eq. 29 — [`pair::classify_pair`])
//! * how do memory *sections* (shared access paths) change the picture?
//!   (Theorems 8, 9, eq. 32 — [`sections::analyze_sectioned_pair`])
//! * which strides and array dimensions are safe? ([`planner`])
//!
//! The companion crate `vecmem-banksim` provides the cycle-accurate
//! simulator these predictions are validated against (the role played in
//! the paper by measurements on the 2-CPU, 16-bank Cray X-MP at KFA Jülich).
//!
//! ## Quick example
//!
//! ```
//! use vecmem_analytic::{Geometry, StreamSpec};
//! use vecmem_analytic::pair::{classify_pair, PairClass};
//!
//! // Fig. 2 of the paper: 12 banks, bank cycle 3, distances 1 and 7.
//! let geom = Geometry::unsectioned(12, 3).unwrap();
//! let s1 = StreamSpec::new(&geom, 0, 1).unwrap();
//! let s2 = StreamSpec::new(&geom, 0, 7).unwrap();
//! assert_eq!(classify_pair(&geom, &s1, &s2, true), PairClass::ConflictFree);
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

pub mod bandwidth;
pub mod barrier;
pub mod error;
pub mod exact;
pub mod geometry;
pub mod isomorphism;
pub mod multi;
pub mod numtheory;
pub mod pair;
pub mod planner;
pub mod ratio;
pub mod sections;
pub mod spectrum;
pub mod stream;

pub use bandwidth::{predict_pair, predict_single, PairPrediction, PortPlacement};
pub use error::ModelError;
pub use geometry::{Geometry, SectionMapping};
pub use pair::PairClass;
pub use ratio::Ratio;
pub use stream::StreamSpec;
