//! Conflict attribution: reconstructing *who beat whom* from the observer
//! stream.
//!
//! The engine's [`SimObserver`](vecmem_banksim::SimObserver) hook reports
//! each delayed request with its [`ConflictKind`], but not the port that
//! won the contested resource. The winner is however fully determined by
//! the same event stream: a bank conflict loses to the port whose earlier
//! grant made the bank busy, and a simultaneous-bank or section conflict
//! loses to a port granted *in the same clock period* on the same bank or
//! access path. An [`Attributor`] buffers one cycle of grants and delays
//! and resolves every delay into an [`Attribution`] at cycle end.
//!
//! The taxonomy refines the engine's three conflict kinds into four *loss*
//! kinds, following the paper's intra/inter-stream decomposition (§III):
//!
//! * [`LossKind::Intra`] — a bank conflict against the loser's **own**
//!   previous access (a self-conflicting stream, `d` revisiting a bank
//!   within `n_c`);
//! * [`LossKind::Inter`] — a bank conflict against another stream's busy
//!   bank, or a simultaneous-bank loss to a lower-indexed port;
//! * [`LossKind::Section`] — an access-path loss within one CPU;
//! * [`LossKind::Rotation`] — a priority loss to a **higher**-indexed
//!   port, which is only possible when the cyclic rotation has demoted the
//!   loser below it (under fixed priority the winner always has the lower
//!   index).

use vecmem_banksim::{ConflictKind, SimConfig};

/// Why a stalled port-cycle was lost, refined from [`ConflictKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LossKind {
    /// Bank conflict against the loser's own previous access.
    Intra,
    /// Bank or simultaneous-bank conflict against another stream.
    Inter,
    /// Access-path (section) conflict within one CPU.
    Section,
    /// Priority loss caused by the cyclic rotation (winner has the higher
    /// port index, impossible under fixed priority).
    Rotation,
}

impl LossKind {
    /// All kinds, in display order.
    pub const ALL: [LossKind; 4] = [
        LossKind::Intra,
        LossKind::Inter,
        LossKind::Section,
        LossKind::Rotation,
    ];

    /// Stable wire/display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LossKind::Intra => "intra",
            LossKind::Inter => "inter",
            LossKind::Section => "section",
            LossKind::Rotation => "rotation",
        }
    }
}

/// One stalled port-cycle, fully attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Bank the loser was trying to reach.
    pub bank: u64,
    /// The delayed port.
    pub loser: usize,
    /// The port that held or won the contested resource; `None` when the
    /// winner is outside the observed window (bank held by a grant from
    /// before the attributor attached, or a section group whose best
    /// request itself lost the cross-CPU arbitration).
    pub winner: Option<usize>,
    /// Refined loss classification.
    pub kind: LossKind,
    /// The engine's original conflict kind.
    pub conflict: ConflictKind,
}

/// Streams one cycle of grant/delay events and resolves each delay into an
/// [`Attribution`] at cycle end.
///
/// Call [`note_grant`](Attributor::note_grant) and
/// [`note_delay`](Attributor::note_delay) as the events arrive (in any
/// order within a cycle) and [`resolve_cycle`](Attributor::resolve_cycle)
/// once per clock period. Bank-holder tracking spans cycles, so an
/// attributor attached at cycle 0 always knows the bank-conflict winner;
/// one attached mid-run reports `winner: None` until the unseen holds
/// drain (at most `n_c` cycles).
#[derive(Debug, Clone)]
pub struct Attributor {
    /// CPU index of each port.
    cpu_of: Vec<usize>,
    /// Section of each bank.
    section_of: Vec<u64>,
    /// Port whose grant last made each bank busy.
    holder: Vec<Option<usize>>,
    /// Grants buffered this cycle, as `(port, bank)`.
    grants: Vec<(usize, u64)>,
    /// Delays buffered this cycle.
    delays: Vec<(usize, u64, ConflictKind)>,
}

impl Attributor {
    /// Builds the port/section tables for `config`.
    #[must_use]
    pub fn for_config(config: &SimConfig) -> Self {
        let geom = &config.geometry;
        Self {
            cpu_of: config.ports.iter().map(|c| c.0).collect(),
            section_of: (0..geom.banks()).map(|b| geom.section_of(b)).collect(),
            holder: vec![None; geom.banks() as usize],
            grants: Vec::new(),
            delays: Vec::new(),
        }
    }

    /// Number of ports in the configuration this attributor was built for.
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.cpu_of.len()
    }

    /// Records a grant of `bank` to `port` in the current cycle.
    ///
    /// The bank-holder table updates immediately: a bank granted this
    /// cycle was free at arbitration, so no bank-conflict delay on it can
    /// coexist in the same cycle and the update order is irrelevant.
    pub fn note_grant(&mut self, port: usize, bank: u64) {
        self.grants.push((port, bank));
        if let Some(h) = self.holder.get_mut(bank as usize) {
            *h = Some(port);
        }
    }

    /// Records a delayed request in the current cycle.
    pub fn note_delay(&mut self, port: usize, bank: u64, kind: ConflictKind) {
        self.delays.push((port, bank, kind));
    }

    /// Resolves every delay buffered this cycle, appending one
    /// [`Attribution`] per delay to `out` (in delay arrival order), then
    /// clears the cycle buffers. `out` is *not* cleared, so a caller can
    /// accumulate across cycles.
    pub fn resolve_cycle(&mut self, out: &mut Vec<Attribution>) {
        for i in 0..self.delays.len() {
            let (loser, bank, conflict) = self.delays[i];
            let (winner, kind) = match conflict {
                // The loser hit a busy bank: the winner is whoever made it
                // busy. Against itself the loss is intra-stream.
                ConflictKind::Bank => {
                    let winner = self.holder.get(bank as usize).copied().flatten();
                    let kind = if winner == Some(loser) {
                        LossKind::Intra
                    } else {
                        LossKind::Inter
                    };
                    (winner, kind)
                }
                // Cross-CPU collision on one inactive bank: the winner is
                // the port granted that bank this very cycle (the arbiter
                // always grants the best-ranked survivor, so it exists).
                ConflictKind::SimultaneousBank => {
                    let winner = self
                        .grants
                        .iter()
                        .find(|&&(_, b)| b == bank)
                        .map(|&(p, _)| p);
                    (
                        winner,
                        Self::priority_loss_kind(winner, loser, LossKind::Inter),
                    )
                }
                // Access-path collision within the loser's CPU: the winner
                // is a same-CPU port granted any bank of the same section
                // this cycle. The group's best request may itself have
                // lost the cross-CPU phase, in which case nobody won the
                // path and the winner is unknown.
                ConflictKind::Section => {
                    let cpu = self.cpu_of.get(loser).copied();
                    let section = self.section_of.get(bank as usize).copied();
                    let winner = self
                        .grants
                        .iter()
                        .find(|&&(p, b)| {
                            self.cpu_of.get(p).copied() == cpu
                                && self.section_of.get(b as usize).copied() == section
                        })
                        .map(|&(p, _)| p);
                    (
                        winner,
                        Self::priority_loss_kind(winner, loser, LossKind::Section),
                    )
                }
            };
            out.push(Attribution {
                bank,
                loser,
                winner,
                kind,
                conflict,
            });
        }
        self.grants.clear();
        self.delays.clear();
    }

    /// A priority loss to a higher-indexed winner can only happen when the
    /// cyclic rotation demoted the loser — classify it as [`LossKind::Rotation`];
    /// otherwise fall back to `base`.
    fn priority_loss_kind(winner: Option<usize>, loser: usize, base: LossKind) -> LossKind {
        match winner {
            Some(w) if w > loser => LossKind::Rotation,
            _ => base,
        }
    }

    /// Drops all cross-cycle holder state (e.g. before reusing the
    /// attributor on a fresh engine).
    pub fn reset(&mut self) {
        self.holder.fill(None);
        self.grants.clear();
        self.delays.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::Geometry;

    fn attributor_2cpu() -> Attributor {
        let geom = Geometry::unsectioned(8, 4).unwrap();
        Attributor::for_config(&SimConfig::one_port_per_cpu(geom, 2))
    }

    #[test]
    fn bank_conflict_against_self_is_intra() {
        let mut a = attributor_2cpu();
        let mut out = Vec::new();
        a.note_grant(0, 3); // cycle 0: port 0 occupies bank 3
        a.resolve_cycle(&mut out);
        a.note_delay(0, 3, ConflictKind::Bank); // cycle 1: hits its own hold
        a.resolve_cycle(&mut out);
        assert_eq!(
            out,
            vec![Attribution {
                bank: 3,
                loser: 0,
                winner: Some(0),
                kind: LossKind::Intra,
                conflict: ConflictKind::Bank,
            }]
        );
    }

    #[test]
    fn bank_conflict_against_other_is_inter() {
        let mut a = attributor_2cpu();
        let mut out = Vec::new();
        a.note_grant(1, 3);
        a.resolve_cycle(&mut out);
        a.note_delay(0, 3, ConflictKind::Bank);
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, Some(1));
        assert_eq!(out[0].kind, LossKind::Inter);
    }

    #[test]
    fn bank_conflict_with_unseen_holder_is_unattributed_inter() {
        let mut a = attributor_2cpu();
        let mut out = Vec::new();
        a.note_delay(0, 5, ConflictKind::Bank); // holder predates attachment
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, None);
        assert_eq!(out[0].kind, LossKind::Inter);
    }

    #[test]
    fn simultaneous_loss_to_lower_port_is_inter() {
        let mut a = attributor_2cpu();
        let mut out = Vec::new();
        a.note_delay(1, 4, ConflictKind::SimultaneousBank);
        a.note_grant(0, 4);
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, Some(0));
        assert_eq!(out[0].kind, LossKind::Inter);
    }

    #[test]
    fn simultaneous_loss_to_higher_port_is_rotation() {
        // Under cyclic priority the rotation can hand the bank to port 1.
        let mut a = attributor_2cpu();
        let mut out = Vec::new();
        a.note_delay(0, 4, ConflictKind::SimultaneousBank);
        a.note_grant(1, 4);
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, Some(1));
        assert_eq!(out[0].kind, LossKind::Rotation);
    }

    #[test]
    fn section_loss_finds_same_path_winner() {
        // m = 4, s = 2: banks 1 and 3 share section 1. Both ports are on
        // one CPU, so port 1's grant of bank 3 explains port 0's loss on
        // bank 1 — and a higher-indexed winner means rotation.
        let geom = Geometry::new(4, 2, 2).unwrap();
        let mut a = Attributor::for_config(&SimConfig::single_cpu(geom, 2));
        let mut out = Vec::new();
        a.note_delay(0, 1, ConflictKind::Section);
        a.note_grant(1, 3);
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, Some(1));
        assert_eq!(out[0].kind, LossKind::Rotation);

        out.clear();
        a.note_delay(1, 3, ConflictKind::Section);
        a.note_grant(0, 1);
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, Some(0));
        assert_eq!(out[0].kind, LossKind::Section);
    }

    #[test]
    fn section_loss_without_winner_stays_section() {
        // The group's best request lost the cross-CPU phase: no same-CPU
        // grant on the path this cycle.
        let geom = Geometry::new(4, 2, 2).unwrap();
        let mut a = Attributor::for_config(&SimConfig::single_cpu(geom, 2));
        let mut out = Vec::new();
        a.note_delay(1, 3, ConflictKind::Section);
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, None);
        assert_eq!(out[0].kind, LossKind::Section);
    }

    #[test]
    fn buffers_clear_between_cycles() {
        let mut a = attributor_2cpu();
        let mut out = Vec::new();
        a.note_delay(0, 2, ConflictKind::SimultaneousBank);
        a.note_grant(1, 2);
        a.resolve_cycle(&mut out);
        assert_eq!(out.len(), 1);
        // Next cycle: the old grant must not explain a new delay.
        a.note_delay(0, 2, ConflictKind::SimultaneousBank);
        a.resolve_cycle(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].winner, None);
    }

    #[test]
    fn reset_forgets_holders() {
        let mut a = attributor_2cpu();
        let mut out = Vec::new();
        a.note_grant(1, 3);
        a.resolve_cycle(&mut out);
        a.reset();
        a.note_delay(0, 3, ConflictKind::Bank);
        a.resolve_cycle(&mut out);
        assert_eq!(out[0].winner, None);
    }
}
