//! Simulator configuration: geometry, port topology and the priority rule.

// Hot-path panic policy (TESTING.md, "Hot-path rules").
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::integer_division,
        clippy::disallowed_macros,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::request::{CpuId, PortId};
use vecmem_analytic::Geometry;

/// How conflicts between competing ports are resolved.
///
/// The paper discusses both a *fixed* priority rule (which can trap two
/// streams in a linked conflict, Fig. 8a) and a *cyclic* rule that rotates
/// the top priority every clock period and thereby resolves linked
/// conflicts (Fig. 8b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityRule {
    /// Lower port id always wins.
    #[default]
    Fixed,
    /// Round-robin: the port holding top priority advances by one every
    /// clock period.
    Cyclic,
}

/// How long a granted bank stays busy.
///
/// The paper's model charges every access the full bank cycle time `n_c`
/// ([`BankModel::Uniform`]). The DRAM-flavoured variant keeps the same
/// arbitration but makes the hold time asymmetric: an access that hits the
/// bank's open row costs only `hit_cycle` periods, while a row miss pays
/// the full `n_c` and leaves its own row open (a minimal open-page policy).
/// Which case applies is decided inside the step kernel from the
/// per-bank open-row state carried in the packed
/// [`SimState`](crate::state::SimState) core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankModel {
    /// Every grant holds the bank for the geometry's full `n_c`.
    #[default]
    Uniform,
    /// Row-buffer asymmetry: `hit_cycle` periods on an open-row hit, the
    /// geometry's `n_c` on a miss (which then opens the accessed row).
    Dram {
        /// Hold time of an open-row hit, in `1..=n_c`.
        hit_cycle: u64,
        /// Number of distinct rows tracked per bank (row addresses are
        /// reduced modulo `rows`, keeping the state space finite).
        rows: u64,
    },
}

/// Full static configuration of a simulated memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Memory geometry (banks, sections, bank cycle time, section mapping).
    pub geometry: Geometry,
    /// `ports[i]` is the CPU that port `i` belongs to.
    pub ports: Vec<CpuId>,
    /// Conflict resolution rule.
    pub priority: PriorityRule,
    /// Bank timing model (uniform `n_c` vs DRAM row-buffer asymmetry).
    pub bank_model: BankModel,
}

impl SimConfig {
    /// Configuration with `n_ports` ports, all on one CPU.
    #[must_use]
    pub fn single_cpu(geometry: Geometry, n_ports: usize) -> Self {
        Self {
            geometry,
            ports: vec![CpuId(0); n_ports],
            priority: PriorityRule::Fixed,
            bank_model: BankModel::Uniform,
        }
    }

    /// Configuration with one port per CPU (every port has its own access
    /// paths — the §III-B "equal number of sections and banks" setting for
    /// any `s`, since paths are never a bottleneck across CPUs).
    #[must_use]
    pub fn one_port_per_cpu(geometry: Geometry, n_ports: usize) -> Self {
        Self {
            geometry,
            ports: (0..n_ports).map(CpuId).collect(),
            priority: PriorityRule::Fixed,
            bank_model: BankModel::Uniform,
        }
    }

    /// The Cray X-MP arrangement of the paper's §IV: two CPUs with three
    /// memory ports each on the 16-bank, 4-section, `n_c = 4` memory.
    #[must_use]
    pub fn cray_xmp_dual() -> Self {
        Self {
            geometry: Geometry::cray_xmp(),
            ports: vec![CpuId(0), CpuId(0), CpuId(0), CpuId(1), CpuId(1), CpuId(1)],
            priority: PriorityRule::Fixed,
            bank_model: BankModel::Uniform,
        }
    }

    /// Sets the priority rule (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: PriorityRule) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the bank timing model (builder style).
    ///
    /// # Panics
    /// For [`BankModel::Dram`], if `hit_cycle` is outside `1..=n_c`, if
    /// `rows` is zero, or if `m·rows` overflows a `u64`: a hit may never
    /// cost more than a miss, at least one row per bank must exist, and a
    /// request is its word address modulo `m·rows`.
    #[must_use]
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented \"# Panics\" precondition, checked once at construction"
    )]
    pub fn with_bank_model(mut self, bank_model: BankModel) -> Self {
        if let BankModel::Dram { hit_cycle, rows } = bank_model {
            assert!(
                hit_cycle >= 1 && hit_cycle <= self.geometry.bank_cycle(),
                "DRAM hit cycle {hit_cycle} outside 1..=n_c ({})",
                self.geometry.bank_cycle()
            );
            assert!(rows >= 1, "DRAM bank model needs at least one row");
            assert!(
                self.geometry.banks().checked_mul(rows).is_some(),
                "DRAM rows {rows} overflow the address modulus m·rows (m = {})",
                self.geometry.banks()
            );
        }
        self.bank_model = bank_model;
        self
    }

    /// Number of ports, i.e. the maximum bandwidth `b_w`.
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Number of distinct CPUs.
    #[must_use]
    pub fn num_cpus(&self) -> usize {
        self.ports.iter().map(|c| c.0).max().map_or(0, |m| m + 1)
    }

    /// CPU of a port.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "a PortId is an index into this very table by construction"
    )]
    pub fn cpu_of(&self, port: PortId) -> CpuId {
        self.ports[port.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cpu_config() {
        let c = SimConfig::single_cpu(Geometry::unsectioned(8, 2).unwrap(), 3);
        assert_eq!(c.num_ports(), 3);
        assert_eq!(c.num_cpus(), 1);
        assert_eq!(c.cpu_of(PortId(2)), CpuId(0));
        assert_eq!(c.priority, PriorityRule::Fixed);
    }

    #[test]
    fn per_cpu_config() {
        let c = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 2).unwrap(), 2);
        assert_eq!(c.num_cpus(), 2);
        assert_ne!(c.cpu_of(PortId(0)), c.cpu_of(PortId(1)));
    }

    #[test]
    fn xmp_dual_layout() {
        let c = SimConfig::cray_xmp_dual();
        assert_eq!(c.num_ports(), 6);
        assert_eq!(c.num_cpus(), 2);
        assert_eq!(c.cpu_of(PortId(0)), CpuId(0));
        assert_eq!(c.cpu_of(PortId(3)), CpuId(1));
        assert_eq!(c.geometry.banks(), 16);
        assert_eq!(c.geometry.sections(), 4);
    }

    #[test]
    fn builder_priority() {
        let c = SimConfig::cray_xmp_dual().with_priority(PriorityRule::Cyclic);
        assert_eq!(c.priority, PriorityRule::Cyclic);
    }

    #[test]
    fn builder_bank_model() {
        let c = SimConfig::cray_xmp_dual();
        assert_eq!(c.bank_model, BankModel::Uniform);
        let d = c.with_bank_model(BankModel::Dram {
            hit_cycle: 1,
            rows: 8,
        });
        assert_eq!(
            d.bank_model,
            BankModel::Dram {
                hit_cycle: 1,
                rows: 8,
            }
        );
    }

    #[test]
    #[should_panic(expected = "outside 1..=n_c")]
    fn dram_hit_cycle_bounded_by_nc() {
        // Cray X-MP geometry has n_c = 4; a hit costing 5 is rejected.
        let _ = SimConfig::cray_xmp_dual().with_bank_model(BankModel::Dram {
            hit_cycle: 5,
            rows: 8,
        });
    }

    #[test]
    #[should_panic(expected = "overflow the address modulus")]
    fn dram_rows_bounded_by_the_address_modulus() {
        // 16 banks of 2^60 rows: m·rows = 2^64 wraps a u64.
        let geometry = vecmem_analytic::Geometry::unsectioned(16, 4).unwrap();
        let _ = SimConfig::single_cpu(geometry, 1).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 1 << 60,
        });
    }
}
