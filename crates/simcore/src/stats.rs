//! Grant and conflict statistics.
//!
//! A "conflict" is counted once per clock period a port spends delayed, per
//! the dynamic conflict-resolution model: a request that cannot be serviced
//! is delayed one clock period and competes again, so a single access that
//! waits three periods records three conflict counts. (The paper's Fig. 10
//! series count conflicts encountered by the triad; shapes are invariant
//! under either convention, and per-period counting is the one that relates
//! directly to lost bandwidth.)
//!
//! [`SimStats`] is a [`SimObserver`]: it counts from the kernel's own
//! grant, delay and cycle-end callbacks, so every consumer that attaches
//! it (the engine always does) shares one counting path.

use crate::observe::SimObserver;
use crate::request::{ConflictKind, PortId};
use std::ops::{Add, Sub};

/// Conflict counters, one per [`ConflictKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConflictCounts {
    /// Requests delayed by an active bank.
    pub bank: u64,
    /// Requests that lost a same-bank arbitration across access paths.
    pub simultaneous: u64,
    /// Requests that lost an access-path arbitration within a CPU.
    pub section: u64,
}

impl ConflictCounts {
    /// Total delayed port-cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bank + self.simultaneous + self.section
    }

    /// Repetition: a window's counts over `n` windows that each see the
    /// same conflicts (the steady-state solver's reduced period, `n` times
    /// over), or `None` when a count overflows.
    #[must_use]
    pub fn checked_mul(self, n: u64) -> Option<Self> {
        Some(Self {
            bank: self.bank.checked_mul(n)?,
            simultaneous: self.simultaneous.checked_mul(n)?,
            section: self.section.checked_mul(n)?,
        })
    }

    /// Increments the counter for `kind`.
    pub fn record(&mut self, kind: ConflictKind) {
        match kind {
            ConflictKind::Bank => self.bank += 1,
            ConflictKind::SimultaneousBank => self.simultaneous += 1,
            ConflictKind::Section => self.section += 1,
        }
    }

    /// Reads the counter for `kind`.
    #[must_use]
    pub fn get(&self, kind: ConflictKind) -> u64 {
        match kind {
            ConflictKind::Bank => self.bank,
            ConflictKind::SimultaneousBank => self.simultaneous,
            ConflictKind::Section => self.section,
        }
    }
}

/// Accumulation: the steady-state cursor folds each cycle's
/// [`CycleEvents::conflicts`](crate::step::CycleEvents::conflicts) into
/// its running totals.
impl Add for ConflictCounts {
    type Output = ConflictCounts;
    fn add(self, rhs: Self) -> Self {
        Self {
            bank: self.bank + rhs.bank,
            simultaneous: self.simultaneous + rhs.simultaneous,
            section: self.section + rhs.section,
        }
    }
}

/// Interval differencing (`later - earlier`). Counters are monotone within
/// one run, but callers diff snapshots from windows, resets and replayed
/// logs where reordering is possible — so the subtraction saturates at zero
/// instead of panicking.
impl Sub for ConflictCounts {
    type Output = ConflictCounts;
    fn sub(self, rhs: Self) -> Self {
        Self {
            bank: self.bank.saturating_sub(rhs.bank),
            simultaneous: self.simultaneous.saturating_sub(rhs.simultaneous),
            section: self.section.saturating_sub(rhs.section),
        }
    }
}

/// Number of buckets in the wait-time histogram: waits of `0..=7` cycles
/// plus an `8+` overflow bucket.
pub const WAIT_BUCKETS: usize = 9;

/// Statistics of a single port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Granted requests (data transferred).
    pub grants: u64,
    /// Conflicts suffered, by kind.
    pub conflicts: ConflictCounts,
    /// Histogram of per-request wait times (clock periods spent delayed
    /// before the grant); the last bucket collects waits of 8 or more.
    pub wait_histogram: [u64; WAIT_BUCKETS],
    /// Longest wait of any single request.
    pub max_wait: u64,
}

impl PortStats {
    /// Total clock periods this port spent waiting (equals the total
    /// conflict count by construction of the delay model).
    #[must_use]
    pub fn total_wait(&self) -> u64 {
        self.conflicts.total()
    }

    /// Mean wait per granted request.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        if self.grants == 0 {
            return 0.0;
        }
        self.total_wait() as f64 / self.grants as f64
    }
}

/// Statistics of a whole simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    per_port: Vec<PortStats>,
    cycles: u64,
}

impl SimStats {
    /// Fresh statistics for `n_ports` ports.
    #[must_use]
    pub fn new(n_ports: usize) -> Self {
        Self {
            per_port: vec![PortStats::default(); n_ports],
            cycles: 0,
        }
    }

    /// Elapsed clock periods.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Per-port view.
    #[must_use]
    pub fn port(&self, port: PortId) -> &PortStats {
        &self.per_port[port.0]
    }

    /// All ports.
    #[must_use]
    pub fn ports(&self) -> &[PortStats] {
        &self.per_port
    }

    /// Total granted requests across all ports.
    #[must_use]
    pub fn total_grants(&self) -> u64 {
        self.per_port.iter().map(|p| p.grants).sum()
    }

    /// Summed conflict counters across all ports.
    #[must_use]
    pub fn total_conflicts(&self) -> ConflictCounts {
        self.per_port
            .iter()
            .fold(ConflictCounts::default(), |total, p| total + p.conflicts)
    }

    /// Average data transferred per clock period over the whole run
    /// (includes any startup transient; use the steady-state measurement for
    /// the asymptotic value).
    #[must_use]
    pub fn effective_bandwidth(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total_grants() as f64 / self.cycles as f64
    }
}

/// Out-of-range ports are ignored rather than panicking, like every other
/// observer's bad index.
impl SimObserver for SimStats {
    fn on_grant(&mut self, _cycle: u64, port: PortId, _bank: u64, wait: u64, _hold: u64) {
        if let Some(p) = self.per_port.get_mut(port.0) {
            p.grants += 1;
            p.wait_histogram[(wait as usize).min(WAIT_BUCKETS - 1)] += 1;
            p.max_wait = p.max_wait.max(wait);
        }
    }

    fn on_delay(&mut self, _cycle: u64, port: PortId, _bank: u64, kind: ConflictKind) {
        if let Some(p) = self.per_port.get_mut(port.0) {
            p.conflicts.record(kind);
        }
    }

    fn on_cycle_end(&mut self, _cycle: u64, _grants: u32) {
        self.cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_counts_roundtrip() {
        let mut c = ConflictCounts::default();
        c.record(ConflictKind::Bank);
        c.record(ConflictKind::Bank);
        c.record(ConflictKind::Section);
        c.record(ConflictKind::SimultaneousBank);
        assert_eq!(c.get(ConflictKind::Bank), 2);
        assert_eq!(c.get(ConflictKind::Section), 1);
        assert_eq!(c.get(ConflictKind::SimultaneousBank), 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn conflict_counts_difference() {
        let a = ConflictCounts {
            bank: 5,
            simultaneous: 3,
            section: 2,
        };
        let b = ConflictCounts {
            bank: 2,
            simultaneous: 1,
            section: 0,
        };
        assert_eq!(
            a - b,
            ConflictCounts {
                bank: 3,
                simultaneous: 2,
                section: 2
            }
        );
        assert_eq!((a - b) + b, a);
    }

    #[test]
    fn conflict_counts_difference_saturates_on_reorder() {
        // A reset or reordered snapshot pair must clamp to zero, not panic.
        let earlier = ConflictCounts {
            bank: 5,
            simultaneous: 3,
            section: 2,
        };
        let later = ConflictCounts {
            bank: 1,
            simultaneous: 0,
            section: 9,
        };
        assert_eq!(
            later - earlier,
            ConflictCounts {
                bank: 0,
                simultaneous: 0,
                section: 7
            }
        );
    }

    #[test]
    fn sim_stats_bandwidth() {
        let mut s = SimStats::new(2);
        for cycle in 0..10 {
            s.on_grant(cycle, PortId(0), 0, 0, 1);
            s.on_grant(cycle, PortId(1), 1, 0, 1);
            s.on_cycle_end(cycle, 2);
        }
        assert_eq!(s.total_grants(), 20);
        assert_eq!(s.cycles(), 10);
        assert!((s.effective_bandwidth() - 2.0).abs() < 1e-12);
        assert_eq!(s.port(PortId(0)).grants, 10);
    }

    #[test]
    fn empty_run_has_zero_bandwidth() {
        let s = SimStats::new(1);
        assert_eq!(s.effective_bandwidth(), 0.0);
    }

    #[test]
    fn conflicts_aggregate_over_ports() {
        let mut s = SimStats::new(3);
        s.on_delay(0, PortId(0), 0, ConflictKind::Bank);
        s.on_delay(0, PortId(1), 0, ConflictKind::Bank);
        s.on_delay(0, PortId(2), 1, ConflictKind::Section);
        let t = s.total_conflicts();
        assert_eq!(t.bank, 2);
        assert_eq!(t.section, 1);
        assert_eq!(t.simultaneous, 0);
    }

    #[test]
    fn wait_histogram_and_max() {
        let mut s = SimStats::new(1);
        s.on_grant(0, PortId(0), 0, 0, 1);
        s.on_grant(4, PortId(0), 0, 3, 1);
        s.on_grant(25, PortId(0), 0, 20, 1); // overflow bucket
        let p = s.port(PortId(0));
        assert_eq!(p.wait_histogram[0], 1);
        assert_eq!(p.wait_histogram[3], 1);
        assert_eq!(p.wait_histogram[WAIT_BUCKETS - 1], 1);
        assert_eq!(p.max_wait, 20);
        assert_eq!(p.grants, 3);
    }

    #[test]
    fn mean_wait_tracks_conflicts() {
        let mut s = SimStats::new(1);
        assert_eq!(s.port(PortId(0)).mean_wait(), 0.0);
        s.on_delay(0, PortId(0), 0, ConflictKind::Bank);
        s.on_delay(1, PortId(0), 0, ConflictKind::Bank);
        s.on_grant(2, PortId(0), 0, 2, 1);
        assert_eq!(s.port(PortId(0)).total_wait(), 2);
        assert_eq!(s.port(PortId(0)).mean_wait(), 2.0);
    }
}
