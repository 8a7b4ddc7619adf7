//! The conflict ledger: every stalled port-cycle, attributed.
//!
//! A [`ConflictLedger`] is a [`SimObserver`] that feeds each grant/delay
//! into an [`Attributor`] and aggregates the resolved [`Attribution`]s
//! into:
//!
//! * a per-`(bank, winner, loser, kind)` stall table ([`ConflictLedger::entries`]),
//! * a [`LossDecomposition`] by [`LossKind`],
//! * a rotation-phase × bank stall heatmap
//!   ([`ConflictLedger::heatmap_csv`]),
//! * per-bank grant counts for utilization reporting.
//!
//! The central invariant (checked by `tests/obs_equivalence.rs` over
//! random geometries): with infinite streams, every port either advances
//! or stalls each clock period, so over one steady-state period of length
//! `λ` the ledger's total stalls equal `N·λ − grants_per_period`, i.e. the
//! decomposition sums *exactly* to `N − b_eff` ports of lost bandwidth per
//! clock period.
//!
//! [`ConflictLedger::clear_counts`] zeroes the aggregates while keeping
//! the attributor's cross-cycle bank-holder state, so a caller can replay
//! the transient, clear, and then measure exactly one period.

use crate::attrib::{Attribution, Attributor, LossKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vecmem_banksim::{ConflictKind, PortId, Request, SimConfig, SimObserver};

/// Stalled port-cycles per [`LossKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossDecomposition {
    /// Bank conflicts against the loser's own stream.
    pub intra: u64,
    /// Bank / simultaneous-bank conflicts against other streams.
    pub inter: u64,
    /// Access-path (section) conflicts.
    pub section: u64,
    /// Priority losses caused by the cyclic rotation.
    pub rotation: u64,
}

impl LossDecomposition {
    /// Stalls of one kind.
    #[must_use]
    pub fn get(&self, kind: LossKind) -> u64 {
        match kind {
            LossKind::Intra => self.intra,
            LossKind::Inter => self.inter,
            LossKind::Section => self.section,
            LossKind::Rotation => self.rotation,
        }
    }

    fn record(&mut self, kind: LossKind) {
        match kind {
            LossKind::Intra => self.intra += 1,
            LossKind::Inter => self.inter += 1,
            LossKind::Section => self.section += 1,
            LossKind::Rotation => self.rotation += 1,
        }
    }

    /// Total stalled port-cycles across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.intra + self.inter + self.section + self.rotation
    }
}

/// Aggregation key of the ledger: one contested resource outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LedgerKey {
    /// Bank the loser was trying to reach.
    pub bank: u64,
    /// The delayed port.
    pub loser: usize,
    /// The winning port, when observed.
    pub winner: Option<usize>,
    /// Refined loss classification.
    pub kind: LossKind,
}

/// One aggregated ledger row: a [`LedgerKey`] plus its stall count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// What was contested and who lost it.
    pub key: LedgerKey,
    /// Stalled port-cycles attributed to this key.
    pub stalls: u64,
}

/// A [`SimObserver`] that attributes and aggregates every stalled
/// port-cycle. See the module docs for the accounting invariant.
#[derive(Debug, Clone)]
pub struct ConflictLedger {
    attributor: Attributor,
    scratch: Vec<Attribution>,
    counts: BTreeMap<LedgerKey, u64>,
    decomposition: LossDecomposition,
    banks: u64,
    rotation: usize,
    /// Stalls per `rotation-phase × bank`, row-major by phase.
    phase_stalls: Vec<u64>,
    bank_grants: Vec<u64>,
    grants: u64,
    cycles: u64,
}

impl ConflictLedger {
    /// A ledger for runs of `config`.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        let banks = config.geometry.banks();
        let phases = config.num_ports().max(1);
        Self {
            attributor: Attributor::for_config(config),
            scratch: Vec::new(),
            counts: BTreeMap::new(),
            decomposition: LossDecomposition::default(),
            banks,
            rotation: 0,
            phase_stalls: vec![0; phases * banks as usize],
            bank_grants: vec![0; banks as usize],
            grants: 0,
            cycles: 0,
        }
    }

    /// Number of rotation phases tracked (the port count).
    #[must_use]
    pub fn phases(&self) -> usize {
        self.phase_stalls.len() / self.banks.max(1) as usize
    }

    /// Zeroes every aggregate (stall table, decomposition, heatmap, grant
    /// and cycle counters) while keeping the attributor's cross-cycle
    /// bank-holder state — use between a transient replay and the period
    /// being measured.
    pub fn clear_counts(&mut self) {
        self.counts.clear();
        self.decomposition = LossDecomposition::default();
        self.phase_stalls.fill(0);
        self.bank_grants.fill(0);
        self.grants = 0;
        self.cycles = 0;
    }

    /// The loss decomposition accumulated since the last
    /// [`clear_counts`](Self::clear_counts).
    #[must_use]
    pub fn decomposition(&self) -> LossDecomposition {
        self.decomposition
    }

    /// Total stalled port-cycles in the window.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.decomposition.total()
    }

    /// Clock periods observed in the window.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Grants observed in the window.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Per-bank grants in the window (index = bank address).
    #[must_use]
    pub fn bank_grants(&self) -> &[u64] {
        &self.bank_grants
    }

    /// All ledger rows, sorted by descending stall count (ties broken by
    /// key order, so the output is fully deterministic).
    #[must_use]
    pub fn entries(&self) -> Vec<LedgerEntry> {
        let mut rows: Vec<LedgerEntry> = self
            .counts
            .iter()
            .map(|(&key, &stalls)| LedgerEntry { key, stalls })
            .collect();
        rows.sort_by(|a, b| b.stalls.cmp(&a.stalls).then(a.key.cmp(&b.key)));
        rows
    }

    /// Stalls aggregated per `(winner, loser)` stream pair, sorted by
    /// descending stall count. Unattributed stalls (`winner` unknown)
    /// group under `None`.
    #[must_use]
    pub fn pair_stalls(&self) -> Vec<(Option<usize>, usize, u64)> {
        let mut pairs: BTreeMap<(Option<usize>, usize), u64> = BTreeMap::new();
        for (key, &stalls) in &self.counts {
            *pairs.entry((key.winner, key.loser)).or_insert(0) += stalls;
        }
        let mut rows: Vec<(Option<usize>, usize, u64)> =
            pairs.into_iter().map(|((w, l), s)| (w, l, s)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        rows
    }

    /// The rotation-phase × bank stall heatmap as CSV: one row per cyclic
    /// priority phase, one `bank<j>` column per bank.
    #[must_use]
    pub fn heatmap_csv(&self) -> String {
        let mut out = String::from("rotation");
        for bank in 0..self.banks {
            let _ = write!(out, ",bank{bank}");
        }
        out.push('\n');
        for phase in 0..self.phases() {
            let _ = write!(out, "{phase}");
            for bank in 0..self.banks as usize {
                let _ = write!(
                    out,
                    ",{}",
                    self.phase_stalls[phase * self.banks as usize + bank]
                );
            }
            out.push('\n');
        }
        out
    }
}

impl SimObserver for ConflictLedger {
    fn on_arbitration(&mut self, _cycle: u64, rotation: usize, _requests: &[(PortId, Request)]) {
        let phases = self.phases();
        self.rotation = if phases == 0 { 0 } else { rotation % phases };
    }

    fn on_grant(&mut self, _cycle: u64, port: PortId, bank: u64, _wait: u64, _hold: u64) {
        self.attributor.note_grant(port.0, bank);
        self.grants += 1;
        if let Some(g) = self.bank_grants.get_mut(bank as usize) {
            *g += 1;
        }
    }

    fn on_delay(&mut self, _cycle: u64, port: PortId, bank: u64, kind: ConflictKind) {
        self.attributor.note_delay(port.0, bank, kind);
    }

    fn on_cycle_end(&mut self, _cycle: u64, _grants: u32) {
        self.attributor.resolve_cycle(&mut self.scratch);
        for a in self.scratch.drain(..) {
            self.decomposition.record(a.kind);
            *self
                .counts
                .entry(LedgerKey {
                    bank: a.bank,
                    loser: a.loser,
                    winner: a.winner,
                    kind: a.kind,
                })
                .or_insert(0) += 1;
            let idx = self.rotation * self.banks as usize + a.bank as usize;
            if let Some(cell) = self.phase_stalls.get_mut(idx) {
                *cell += 1;
            }
        }
        self.cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::{Geometry, StreamSpec};
    use vecmem_banksim::{Engine, PatternWorkload, PriorityRule};

    fn run_ledger(
        config: &SimConfig,
        specs: &[StreamSpec],
        cycles: u64,
    ) -> (ConflictLedger, vecmem_banksim::SimStats) {
        let mut engine = Engine::new(config.clone());
        let mut workload = PatternWorkload::strided(&config.geometry, specs);
        let mut ledger = ConflictLedger::new(config);
        for _ in 0..cycles {
            engine.step_with(&mut workload, &mut ledger);
        }
        (ledger, engine.stats().clone())
    }

    /// With infinite streams every port requests every cycle, so stalls
    /// account exactly for the bandwidth the run did not deliver.
    #[test]
    fn stalls_account_for_all_lost_bandwidth() {
        let geom = Geometry::unsectioned(8, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 0,
            },
            StreamSpec {
                start_bank: 0,
                distance: 1,
            },
        ];
        const CYCLES: u64 = 500;
        let (ledger, stats) = run_ledger(&config, &specs, CYCLES);
        assert_eq!(ledger.cycles(), CYCLES);
        assert_eq!(ledger.grants(), stats.total_grants());
        assert_eq!(
            ledger.total_stalls(),
            2 * CYCLES - stats.total_grants(),
            "decomposition: {:?}",
            ledger.decomposition()
        );
    }

    #[test]
    fn self_conflicting_stream_is_pure_intra() {
        // One port hammering one bank: every stall is against itself.
        let geom = Geometry::unsectioned(8, 4).unwrap();
        let config = SimConfig::single_cpu(geom, 1);
        let specs = [StreamSpec {
            start_bank: 0,
            distance: 0,
        }];
        let (ledger, _) = run_ledger(&config, &specs, 400);
        let d = ledger.decomposition();
        assert!(d.intra > 0);
        assert_eq!(d.inter + d.section + d.rotation, 0, "{d:?}");
        let rows = ledger.entries();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key.winner, Some(0));
        assert_eq!(rows[0].key.loser, 0);
        assert_eq!(rows[0].key.kind, LossKind::Intra);
    }

    #[test]
    fn cyclic_priority_produces_rotation_losses() {
        // Two cross-CPU streams hammering one bank with n_c = 1: the bank
        // is free at every arbitration, so each cycle is a pure
        // simultaneous conflict whose winner alternates with the rotation
        // — port 0's losses to port 1 are rotation losses fixed priority
        // never shows.
        let geom = Geometry::unsectioned(8, 1).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2).with_priority(PriorityRule::Cyclic);
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 0,
            },
            StreamSpec {
                start_bank: 0,
                distance: 0,
            },
        ];
        let (ledger, _) = run_ledger(&config, &specs, 400);
        assert!(
            ledger.decomposition().rotation > 0,
            "{:?}",
            ledger.decomposition()
        );
    }

    #[test]
    fn clear_counts_keeps_holder_state() {
        let geom = Geometry::unsectioned(8, 4).unwrap();
        let config = SimConfig::single_cpu(geom, 1);
        let specs = [StreamSpec {
            start_bank: 0,
            distance: 0,
        }];
        let mut engine = Engine::new(config.clone());
        let mut workload = PatternWorkload::strided(&config.geometry, &specs);
        let mut ledger = ConflictLedger::new(&config);
        engine.step_with(&mut workload, &mut ledger); // grant, holder learnt
        ledger.clear_counts();
        assert_eq!(ledger.total_stalls(), 0);
        assert_eq!(ledger.grants(), 0);
        engine.step_with(&mut workload, &mut ledger); // stall against the hold
        let rows = ledger.entries();
        assert_eq!(rows.len(), 1);
        // The winner survives clear_counts: still attributed intra.
        assert_eq!(rows[0].key.kind, LossKind::Intra);
    }

    #[test]
    fn heatmap_covers_all_phases_and_banks() {
        let geom = Geometry::unsectioned(4, 2).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 0,
            },
            StreamSpec {
                start_bank: 0,
                distance: 0,
            },
        ];
        let (ledger, _) = run_ledger(&config, &specs, 100);
        let csv = ledger.heatmap_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "rotation,bank0,bank1,bank2,bank3");
        assert_eq!(lines.len(), 3); // header + one row per phase
        assert!(lines[1].starts_with("0,"));
        let total: u64 = lines[1..]
            .iter()
            .flat_map(|l| l.split(',').skip(1))
            .map(|v| v.parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, ledger.total_stalls());
    }

    #[test]
    fn pair_stalls_aggregate_over_banks() {
        let geom = Geometry::unsectioned(8, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 1,
            },
            StreamSpec {
                start_bank: 0,
                distance: 1,
            },
        ];
        let (ledger, _) = run_ledger(&config, &specs, 300);
        let pairs = ledger.pair_stalls();
        assert!(!pairs.is_empty());
        let total: u64 = pairs.iter().map(|&(_, _, s)| s).sum();
        assert_eq!(total, ledger.total_stalls());
    }
}
