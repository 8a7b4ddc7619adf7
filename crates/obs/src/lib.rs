//! # vecmem-obs
//!
//! Observability for the interleaved-memory simulator: everything that
//! turns the zero-overhead [`SimObserver`](vecmem_banksim::SimObserver)
//! hook stream of `vecmem-banksim` into numbers and files.
//!
//! * [`metrics`] — a [`MetricsRegistry`] observer aggregating per-bank
//!   utilization gauges, per-port grant/conflict counters, wait-time
//!   histograms and a rolling-window `b_eff(t)` series with steady-state
//!   detection;
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
//!   (`vecmem-obs/metrics-v1`);
//! * [`json`] — the hand-rolled JSON writer the exporters share (the
//!   container has no serialization crates).
//!
//! Observers compose with `vecmem_banksim::Tee`, so a run can feed the
//! metrics registry and the event log simultaneously:
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
//! assert_eq!(metrics.cycles(), 100);
//! assert_eq!(metrics.total_grants(), engine.stats().total_grants());
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
pub use events::{DelayAttribution, Event, EventLog, EVENTS_SCHEMA, EVENTS_SCHEMA_V1};
pub use export::{csv_field, metrics_to_csv, metrics_to_json, write_metrics, METRICS_SCHEMA};
pub use json::Json;
pub use ledger::{ConflictLedger, LedgerEntry, LedgerKey, LossDecomposition};
pub use metrics::{MetricsRegistry, MetricsSnapshot, PortMetrics, DEFAULT_EPSILON, DEFAULT_WINDOW};
pub use span::{Span, SpanSink, SPANS_SCHEMA};
pub use window::{BeffWindow, SteadyEntry, WindowPoint};
