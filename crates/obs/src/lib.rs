//! # vecmem-obs
//!
//! Observability for the interleaved-memory simulator: everything that
//! turns the zero-overhead [`SimObserver`](vecmem_banksim::SimObserver)
//! hook stream of `vecmem-banksim` into numbers and files.
//!
//! * [`metrics`] — a [`MetricsRegistry`] observer aggregating per-bank
//!   utilization gauges and a rolling-window `b_eff(t)` series around an
//!   embedded [`SimStats`](vecmem_banksim::SimStats) (per-port grant and
//!   conflict counters, wait-time histograms);
//! * [`events`] — an [`EventLog`] observer recording the cycle-level event
//!   stream and exporting it as versioned JSONL;
//! * [`attrib`] / [`ledger`] — conflict attribution: an [`Attributor`]
//!   reconstructs *who beat whom* from the event stream and a
//!   [`ConflictLedger`] rolls every stalled port-cycle into a
//!   loss decomposition that sums exactly to `N − b_eff` per steady
//!   period;
//! * [`span`] — a [`SpanSink`] recording hierarchical spans on virtual
//!   time (cycle ticks), exported as Chrome trace-event JSON or
//!   `vecmem-obs/spans-v1` JSONL;
//! * [`export`] — JSON / long-format-CSV snapshot writers
//!   (`vecmem-obs/metrics-v2`);
//! * [`json`] — the hand-rolled JSON writer the exporters share (the
//!   container has no serialization crates).
//!
//! Observers compose with `vecmem_banksim::Tee`, so a run can feed the
//! metrics registry and the event log simultaneously. The registry counts
//! with the same [`SimStats`](vecmem_banksim::SimStats) observer the engine
//! keeps, so the two agree by construction:
//!
//! ```
//! use vecmem_analytic::{Geometry, StreamSpec};
//! use vecmem_banksim::{Engine, PatternWorkload, SimConfig, Tee};
//! use vecmem_obs::{EventLog, MetricsRegistry};
//!
//! let geom = Geometry::unsectioned(8, 4).unwrap();
//! let config = SimConfig::single_cpu(geom, 2);
//! let mut engine = Engine::new(config.clone());
//! let specs = [
//!     StreamSpec::new(&geom, 0, 1).unwrap(),
//!     StreamSpec::new(&geom, 1, 2).unwrap(),
//! ];
//! let mut workload = PatternWorkload::strided(&geom, &specs);
//! let mut metrics = MetricsRegistry::new(8, 2);
//! let mut events = EventLog::new(8, 2);
//! let mut tee = Tee(&mut metrics, &mut events);
//! for _ in 0..100 {
//!     engine.step_with(&mut workload, &mut tee);
//! }
//! assert_eq!(metrics.stats(), engine.stats());
//! assert_eq!(events.to_jsonl_string().matches(r#""t":"cycle""#).count(), 100);
//! ```

// Panic policy for non-test library code; bins and integration tests are
// separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod attrib;
pub mod events;
pub mod export;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod span;
pub mod window;

pub use attrib::{Attribution, Attributor, LossKind};
pub use events::{DelayAttribution, Event, EventLog, EVENTS_SCHEMA};
pub use export::{csv_field, metrics_to_csv, metrics_to_json, write_metrics, METRICS_SCHEMA};
pub use json::Json;
pub use ledger::{ConflictLedger, LedgerEntry, LedgerKey, LossDecomposition};
pub use metrics::{MetricsRegistry, MetricsSnapshot, DEFAULT_WINDOW};
pub use span::{Span, SpanSink, SPANS_SCHEMA};
pub use window::{BeffWindow, WindowPoint};
