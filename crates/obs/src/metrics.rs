//! Metrics registry: per-bank utilization gauges, the rolling `b_eff(t)`
//! series and named counters and gauges, all built from the observer hooks
//! alone (no access to the engine's internal state). Per-port grants,
//! conflicts and waits, the cycle count and the total grants come from an
//! embedded [`SimStats`], the same observer the engine keeps its own
//! statistics with.

use crate::window::{BeffWindow, WindowPoint};
use std::collections::BTreeMap;
use vecmem_banksim::{ConflictKind, PortId, PortStats, SimObserver, SimStats};

/// Default rolling-window length (cycles) for the `b_eff(t)` series.
pub const DEFAULT_WINDOW: u64 = 64;

#[derive(Debug, Clone, Copy, Default)]
struct BankGauge {
    grants: u64,
    busy_cycles: u64,
    busy_since: Option<u64>,
}

/// A [`SimObserver`] that aggregates the stream into queryable metrics.
///
/// Everything here is derived purely from observer callbacks, so the
/// registry can ride along any caller of the step kernel.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    banks: Vec<BankGauge>,
    stats: SimStats,
    window: BeffWindow,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// A registry for `banks` banks and `ports` ports with the default
    /// window length.
    #[must_use]
    pub fn new(banks: u64, ports: usize) -> Self {
        Self::with_window(banks, ports, DEFAULT_WINDOW)
    }

    /// A registry with an explicit `b_eff(t)` window length (in cycles).
    #[must_use]
    pub fn with_window(banks: u64, ports: usize, window: u64) -> Self {
        Self {
            banks: vec![BankGauge::default(); banks as usize],
            stats: SimStats::new(ports),
            window: BeffWindow::new(window),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Per-port grants, conflicts and waits, the cycle count and the
    /// whole-run effective bandwidth.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Busy cycles accumulated by `bank` so far (an interval still open at
    /// the current cycle is counted up to the current cycle).
    #[must_use]
    pub fn bank_busy_cycles(&self, bank: u64) -> u64 {
        let g = &self.banks[bank as usize];
        g.busy_cycles
            + g.busy_since
                .map_or(0, |since| self.stats.cycles().saturating_sub(since))
    }

    /// Fraction of elapsed cycles `bank` spent busy, in `[0, 1]`.
    #[must_use]
    pub fn bank_utilization(&self, bank: u64) -> f64 {
        let cycles = self.stats.cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.bank_busy_cycles(bank) as f64 / cycles as f64
    }

    /// Grants serviced by `bank`.
    #[must_use]
    pub fn bank_grants(&self, bank: u64) -> u64 {
        self.banks[bank as usize].grants
    }

    /// The completed `b_eff(t)` windows.
    #[must_use]
    pub fn beff_series(&self) -> &[WindowPoint] {
        self.window.series()
    }

    /// Adds `delta` to the named free-form counter (created at 0). Used by
    /// layers above the engine — e.g. `vecmem-exec` exports its sweep
    /// cache's hit/miss totals here so `--metrics-out` snapshots carry
    /// execution telemetry alongside the simulation metrics.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named free-form gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a named counter, if it was ever touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of a named gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All named counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Counters whose name starts with `prefix`, in name order. Namespaced
    /// counter families ("oracle.explore.*", "exec.*") report themselves
    /// through this without the caller walking the whole map.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(name, _)| name.starts_with(prefix))
            .map(|(name, &value)| (name.as_str(), value))
    }

    /// All named gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Takes an immutable snapshot for export.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cycles: self.stats.cycles(),
            total_grants: self.stats.total_grants(),
            beff: self.stats.effective_bandwidth(),
            ports: self.stats.ports().to_vec(),
            bank_grants: self.banks.iter().map(|g| g.grants).collect(),
            bank_utilization: (0..self.banks.len() as u64)
                .map(|b| self.bank_utilization(b))
                .collect(),
            window: self.window.window(),
            beff_series: self.window.series().to_vec(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
        }
    }
}

impl SimObserver for MetricsRegistry {
    fn on_grant(&mut self, cycle: u64, port: PortId, bank: u64, wait: u64, hold: u64) {
        self.stats.on_grant(cycle, port, bank, wait, hold);
        if let Some(g) = self.banks.get_mut(bank as usize) {
            g.grants += 1;
        }
    }

    fn on_delay(&mut self, cycle: u64, port: PortId, bank: u64, kind: ConflictKind) {
        self.stats.on_delay(cycle, port, bank, kind);
    }

    fn on_bank_busy(&mut self, cycle: u64, bank: u64, busy: bool) {
        let Some(g) = self.banks.get_mut(bank as usize) else {
            return;
        };
        if busy {
            g.busy_since = Some(cycle);
        } else if let Some(since) = g.busy_since.take() {
            g.busy_cycles += cycle.saturating_sub(since);
        }
    }

    fn on_cycle_end(&mut self, cycle: u64, grants: u32) {
        self.stats.on_cycle_end(cycle, grants);
        self.window.push_cycle(u64::from(grants));
    }
}

/// Immutable export view of a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Elapsed clock periods.
    pub cycles: u64,
    /// Total granted requests.
    pub total_grants: u64,
    /// Whole-run mean grants per clock period.
    pub beff: f64,
    /// Per-port counters.
    pub ports: Vec<PortStats>,
    /// Grants serviced per bank.
    pub bank_grants: Vec<u64>,
    /// Busy fraction per bank, in `[0, 1]`.
    pub bank_utilization: Vec<f64>,
    /// Window length (cycles) of the `b_eff(t)` series.
    pub window: u64,
    /// Completed `b_eff(t)` windows.
    pub beff_series: Vec<WindowPoint>,
    /// Named free-form counters (e.g. sweep-execution telemetry).
    pub counters: BTreeMap<String, u64>,
    /// Named free-form gauges.
    pub gauges: BTreeMap<String, f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_feed_ports_banks_and_totals() {
        let mut m = MetricsRegistry::with_window(4, 2, 2);
        m.on_grant(0, PortId(0), 1, 0, 3);
        m.on_grant(0, PortId(1), 2, 2, 3);
        m.on_cycle_end(0, 2);
        m.on_grant(1, PortId(0), 3, 0, 3);
        m.on_cycle_end(1, 1);
        let stats = m.stats();
        assert_eq!(stats.total_grants(), 3);
        assert_eq!(stats.cycles(), 2);
        assert!((stats.effective_bandwidth() - 1.5).abs() < 1e-12);
        assert_eq!(stats.ports()[0].grants, 2);
        assert_eq!(stats.ports()[1].wait_histogram[2], 1);
        assert_eq!(stats.ports()[1].max_wait, 2);
        assert_eq!(m.bank_grants(1), 1);
        // One full window of 2 cycles closed with 3 grants.
        assert_eq!(m.beff_series().len(), 1);
        assert!((m.beff_series()[0].beff - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bank_utilization_tracks_transitions() {
        let mut m = MetricsRegistry::with_window(2, 1, 64);
        m.on_bank_busy(0, 0, true);
        for cycle in 0..4 {
            m.on_cycle_end(cycle, 0);
        }
        m.on_bank_busy(4, 0, false);
        for cycle in 4..8 {
            m.on_cycle_end(cycle, 0);
        }
        assert_eq!(m.bank_busy_cycles(0), 4);
        assert!((m.bank_utilization(0) - 0.5).abs() < 1e-12);
        // An interval still open counts up to "now".
        m.on_bank_busy(8, 1, true);
        m.on_cycle_end(8, 0);
        m.on_cycle_end(9, 0);
        assert_eq!(m.bank_busy_cycles(1), 2);
    }

    #[test]
    fn delays_split_by_kind() {
        let mut m = MetricsRegistry::new(4, 2);
        m.on_delay(0, PortId(0), 1, ConflictKind::Bank);
        m.on_delay(0, PortId(1), 1, ConflictKind::SimultaneousBank);
        m.on_delay(1, PortId(1), 2, ConflictKind::Section);
        let ports = m.stats().ports();
        assert_eq!(ports[0].conflicts.bank, 1);
        assert_eq!(ports[1].conflicts.simultaneous, 1);
        assert_eq!(ports[1].conflicts.section, 1);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let mut m = MetricsRegistry::new(2, 1);
        m.on_grant(0, PortId(9), 99, 0, 1);
        m.on_delay(0, PortId(9), 99, ConflictKind::Bank);
        m.on_bank_busy(0, 99, true);
        m.on_cycle_end(0, 1);
        // The bogus port and bank land nowhere: total grants are summed
        // from the per-port counters, so the stray grant is not counted.
        assert_eq!(m.stats().total_grants(), 0);
        assert_eq!(m.stats().ports()[0].grants, 0);
        assert_eq!(m.stats().cycles(), 1);
        assert_eq!(m.bank_busy_cycles(0) + m.bank_busy_cycles(1), 0);
    }

    #[test]
    fn named_counters_and_gauges() {
        let mut m = MetricsRegistry::new(2, 1);
        assert_eq!(m.counter("exec_cache_hits"), None);
        m.add_counter("exec_cache_hits", 3);
        m.add_counter("exec_cache_hits", 2);
        m.set_gauge("exec_cache_hit_rate", 0.6);
        m.set_gauge("exec_cache_hit_rate", 0.8);
        assert_eq!(m.counter("exec_cache_hits"), Some(5));
        assert_eq!(m.gauge("exec_cache_hit_rate"), Some(0.8));
        let snap = m.snapshot();
        assert_eq!(snap.counters.get("exec_cache_hits"), Some(&5));
        assert_eq!(snap.gauges.get("exec_cache_hit_rate"), Some(&0.8));
    }

    #[test]
    fn prefix_scan_isolates_counter_families() {
        let mut m = MetricsRegistry::new(2, 1);
        m.add_counter("oracle.explore.cases", 10);
        m.add_counter("oracle.explore.fresh", 4);
        m.add_counter("oracle.sweep.points", 7);
        m.add_counter("exec.cache.hits", 3);
        let explore: Vec<(&str, u64)> = m.counters_with_prefix("oracle.explore.").collect();
        assert_eq!(
            explore,
            vec![("oracle.explore.cases", 10), ("oracle.explore.fresh", 4)]
        );
        assert_eq!(m.counters_with_prefix("oracle.").count(), 3);
        assert_eq!(m.counters_with_prefix("nothing.").count(), 0);
    }

    #[test]
    fn snapshot_captures_everything() {
        let mut m = MetricsRegistry::with_window(2, 1, 1);
        for cycle in 0..4 {
            m.on_grant(cycle, PortId(0), cycle % 2, 0, 1);
            m.on_cycle_end(cycle, 1);
        }
        let snap = m.snapshot();
        assert_eq!(snap.cycles, 4);
        assert_eq!(snap.total_grants, 4);
        assert_eq!(snap.bank_grants, vec![2, 2]);
        assert_eq!(snap.beff_series.len(), 4);
        assert!(snap
            .beff_series
            .iter()
            .all(|w| (w.beff - 1.0).abs() < 1e-12));
    }
}
