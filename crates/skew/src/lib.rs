//! # vecmem-skew
//!
//! Bank-skewing schemes — the remedy the conclusion of Oed & Lange (1985)
//! points to for non-uniform access streams — evaluated exactly on the
//! `vecmem-banksim` cycle-accurate simulator.
//!
//! * [`scheme`] — the [`scheme::BankMapping`] abstraction and the plain
//!   interleaved baseline;
//! * [`linear`] — row-rotation skewing (Budnik & Kuck);
//! * [`xorfold`] — XOR-folded interleaving for power-of-two bank counts;
//! * [`prime`] — prime-way interleaving;
//! * [`eval`] — steady-state bandwidth tables per stride and scheme.
//!
//! ```
//! use vecmem_skew::{eval, scheme::Interleaved, xorfold::XorFold};
//!
//! // Compare stride-16 bandwidth on 16 banks (n_c = 4): plain interleaving
//! // collapses to 1/4, XOR folding restores full bandwidth.
//! let plain = eval::stride_table(&Interleaved { banks: 16 }, 4, 16, 100_000).unwrap();
//! let fold = eval::stride_table(&XorFold::new(16), 4, 16, 100_000).unwrap();
//! assert!(plain[15].solo < fold[15].solo);
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

pub mod eval;
pub mod linear;
pub mod matrix;
pub mod prime;
pub mod scheme;
pub mod xorfold;

pub use eval::{pair_bandwidth, single_stream_bandwidth, stride_table, AddressStream};
pub use linear::LinearSkew;
pub use matrix::{compare_schemes, matrix_walks, MatrixWalks};
pub use prime::PrimeInterleaved;
pub use scheme::{BankMapping, Interleaved};
pub use xorfold::XorFold;
