//! # vecmem
//!
//! Facade crate for the reproduction of Oed & Lange (1985), *"On the
//! Effective Bandwidth of Interleaved Memories in Vector Processor
//! Systems"* (IEEE Trans. Computers C-34(10)).
//!
//! The workspace is organised as:
//!
//! * [`analytic`] — the paper's analytical model (Theorems 1–9, eq. 29/32);
//! * [`simcore`] — the pure simulation core: the packed
//!   [`simcore::SimState`] (bank residues, priority rotation, workload
//!   positions, wait counters in one hashed buffer), the single
//!   [`simcore::step::step`] kernel every simulator path funnels through,
//!   and bounded-memory cyclic-state detection (Brent's algorithm over the
//!   state's incremental hash);
//! * [`banksim`] — cycle-accurate simulator of the interleaved, sectioned
//!   memory system with vector access ports, built on [`simcore`]: the
//!   stats/trace-keeping engine, strided streams, steady-state entry
//!   points, random workloads;
//! * [`vproc`] — vector-processor model (Cray X-MP style) used for the
//!   paper's §IV triad experiment;
//! * [`skew`] — bank-skewing schemes (the conclusion's suggested remedy);
//! * [`exec`] — execution layer: deterministic work-stealing runner,
//!   isomorphism-keyed result cache and declarative sweep builder shared by
//!   every table/figure generator and heavy test sweep;
//! * [`oracle`] — differential verification: a naive reference simulator,
//!   a lockstep diff harness, the exhaustive small-geometry conformance
//!   sweep and a coverage-guided random explorer (`vecmem verify`).
//!
//! See the `examples/` directory for runnable entry points and
//! `crates/bench` for the harnesses regenerating every figure of the paper.

// Panic policy for non-test library code; bins and integration tests are
// separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use vecmem_analytic as analytic;
pub use vecmem_banksim as banksim;
pub use vecmem_exec as exec;
pub use vecmem_oracle as oracle;
pub use vecmem_simcore as simcore;
pub use vecmem_skew as skew;
pub use vecmem_vproc as vproc;

pub use vecmem_analytic::{Geometry, Ratio, SectionMapping, StreamSpec};
