//! Memory geometry: the static parameters of an interleaved memory system.
//!
//! Section II of the paper: an `m`-way interleaved memory, optionally divided
//! into `s | m` sections (one access path per CPU per section), with bank
//! cycle time `t_c = n_c · τ` expressed as `n_c` clock periods.

use crate::error::ModelError;
use crate::numtheory::gcd;

/// How banks are assigned to sections.
///
/// The paper assumes cyclic distribution (`k = j mod s`); Cheung & Smith \[8\]
/// proposed combining `m/s` *consecutive* banks into a section to prevent
/// linked conflicts (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SectionMapping {
    /// `section(j) = j mod s` — the paper's default (and the Cray X-MP's).
    #[default]
    Cyclic,
    /// `section(j) = j / (m/s)` — Cheung & Smith's consecutive grouping.
    Consecutive,
}

/// Static geometry of an interleaved memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    banks: u64,
    sections: u64,
    bank_cycle: u64,
    mapping: SectionMapping,
}

impl Geometry {
    /// Creates a geometry with `banks` banks, `sections` sections and a bank
    /// cycle time of `bank_cycle` clock periods, using cyclic bank-to-section
    /// mapping.
    ///
    /// # Errors
    /// Returns an error unless `banks > 0`, `sections > 0`,
    /// `sections <= banks`, `sections | banks` and `bank_cycle > 0`.
    pub fn new(banks: u64, sections: u64, bank_cycle: u64) -> Result<Self, ModelError> {
        Self::with_mapping(banks, sections, bank_cycle, SectionMapping::Cyclic)
    }

    /// Like [`Geometry::new`] but with an explicit [`SectionMapping`].
    ///
    /// # Errors
    /// Same contract as [`Geometry::new`]: `banks`, `sections` and
    /// `bank_cycle` must be positive, with `sections` dividing `banks`.
    pub fn with_mapping(
        banks: u64,
        sections: u64,
        bank_cycle: u64,
        mapping: SectionMapping,
    ) -> Result<Self, ModelError> {
        if banks == 0 {
            return Err(ModelError::ZeroBanks);
        }
        if sections == 0 {
            return Err(ModelError::ZeroSections);
        }
        if sections > banks {
            return Err(ModelError::MoreSectionsThanBanks { banks, sections });
        }
        if !banks.is_multiple_of(sections) {
            return Err(ModelError::SectionsDontDivideBanks { banks, sections });
        }
        if bank_cycle == 0 {
            return Err(ModelError::ZeroBankCycle);
        }
        Ok(Self {
            banks,
            sections,
            bank_cycle,
            mapping,
        })
    }

    /// Geometry without sections (`s = m`): every bank has its own path, so
    /// section conflicts cannot occur. This is the setting of §III-B
    /// "Equal Number of Sections and Banks".
    ///
    /// # Errors
    /// Returns an error unless `banks > 0` and `bank_cycle > 0`.
    pub fn unsectioned(banks: u64, bank_cycle: u64) -> Result<Self, ModelError> {
        Self::new(banks, banks, bank_cycle)
    }

    /// The memory geometry of the 16-bank Cray X-MP with bipolar memory:
    /// `m = 16`, `s = 4`, `n_c = 4`, cyclic section mapping (paper §IV).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "16 banks in 4 sections with n_c = 4 pass every `Geometry::new` check"
    )]
    pub fn cray_xmp() -> Self {
        Self::new(16, 4, 4).expect("X-MP geometry is valid")
    }

    /// Number of banks `m`.
    #[must_use]
    pub fn banks(&self) -> u64 {
        self.banks
    }

    /// Number of sections `s`.
    #[must_use]
    pub fn sections(&self) -> u64 {
        self.sections
    }

    /// Bank cycle time `n_c` in clock periods: a bank that is granted at
    /// clock period `t` cannot be referenced again before `t + n_c`.
    #[must_use]
    pub fn bank_cycle(&self) -> u64 {
        self.bank_cycle
    }

    /// Bank-to-section mapping rule.
    #[must_use]
    pub fn mapping(&self) -> SectionMapping {
        self.mapping
    }

    /// True when every bank has its own access path (`s = m`), so section
    /// conflicts are impossible.
    #[must_use]
    pub fn is_unsectioned(&self) -> bool {
        self.sections == self.banks
    }

    /// Banks per section (`m / s`).
    #[must_use]
    pub fn banks_per_section(&self) -> u64 {
        self.banks / self.sections
    }

    /// Bank address of storage cell `address`: `j = address mod m`.
    #[must_use]
    pub fn bank_of(&self, address: u64) -> u64 {
        address % self.banks
    }

    /// Section address of bank `bank` under the configured mapping.
    #[must_use]
    pub fn section_of(&self, bank: u64) -> u64 {
        let bank = bank % self.banks;
        match self.mapping {
            SectionMapping::Cyclic => bank % self.sections,
            SectionMapping::Consecutive => bank / self.banks_per_section(),
        }
    }

    /// Validates a start-bank address for this geometry.
    ///
    /// # Errors
    /// Returns [`ModelError::StartBankOutOfRange`] when `start_bank >= m`.
    pub fn check_start_bank(&self, start_bank: u64) -> Result<(), ModelError> {
        if start_bank >= self.banks {
            return Err(ModelError::StartBankOutOfRange {
                start_bank,
                banks: self.banks,
            });
        }
        Ok(())
    }

    /// Validates a distance (stride modulo `m`) for this geometry.
    ///
    /// # Errors
    /// Returns [`ModelError::DistanceOutOfRange`] when `distance >= m`.
    pub fn check_distance(&self, distance: u64) -> Result<(), ModelError> {
        if distance >= self.banks {
            return Err(ModelError::DistanceOutOfRange {
                distance,
                banks: self.banks,
            });
        }
        Ok(())
    }

    /// Return number (Theorem 1) for a stream with distance `d` in this
    /// geometry: the number of accesses before the stream revisits a bank,
    /// `r = m / gcd(m, d)`.
    #[must_use]
    pub fn return_number(&self, distance: u64) -> u64 {
        self.banks / gcd(self.banks, distance % self.banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_geometry() {
        let g = Geometry::new(16, 4, 4).unwrap();
        assert_eq!(g.banks(), 16);
        assert_eq!(g.sections(), 4);
        assert_eq!(g.bank_cycle(), 4);
        assert_eq!(g.banks_per_section(), 4);
        assert!(!g.is_unsectioned());
    }

    #[test]
    fn unsectioned_geometry() {
        let g = Geometry::unsectioned(13, 6).unwrap();
        assert!(g.is_unsectioned());
        assert_eq!(g.sections(), 13);
        assert_eq!(g.banks_per_section(), 1);
    }

    #[test]
    fn invalid_geometries() {
        assert_eq!(Geometry::new(0, 1, 1).unwrap_err(), ModelError::ZeroBanks);
        assert_eq!(
            Geometry::new(4, 0, 1).unwrap_err(),
            ModelError::ZeroSections
        );
        assert_eq!(
            Geometry::new(12, 5, 1).unwrap_err(),
            ModelError::SectionsDontDivideBanks {
                banks: 12,
                sections: 5
            }
        );
        assert_eq!(
            Geometry::new(4, 8, 1).unwrap_err(),
            ModelError::MoreSectionsThanBanks {
                banks: 4,
                sections: 8
            }
        );
        assert_eq!(
            Geometry::new(4, 2, 0).unwrap_err(),
            ModelError::ZeroBankCycle
        );
    }

    #[test]
    fn cyclic_section_mapping() {
        // Fig. 1: four-way interleaved memory with two sections; banks 0 and 2
        // are in section 0, banks 1 and 3 in section 1.
        let g = Geometry::new(4, 2, 1).unwrap();
        assert_eq!(g.section_of(0), 0);
        assert_eq!(g.section_of(1), 1);
        assert_eq!(g.section_of(2), 0);
        assert_eq!(g.section_of(3), 1);
    }

    #[test]
    fn consecutive_section_mapping() {
        // Fig. 9: m/s consecutive banks per section; m = 12, s = 3 puts banks
        // 0..4 in section 0, 4..8 in section 1, 8..12 in section 2.
        let g = Geometry::with_mapping(12, 3, 3, SectionMapping::Consecutive).unwrap();
        assert_eq!(g.section_of(0), 0);
        assert_eq!(g.section_of(3), 0);
        assert_eq!(g.section_of(4), 1);
        assert_eq!(g.section_of(7), 1);
        assert_eq!(g.section_of(8), 2);
        assert_eq!(g.section_of(11), 2);
    }

    #[test]
    fn bank_of_wraps_addresses() {
        let g = Geometry::cray_xmp();
        assert_eq!(g.bank_of(0), 0);
        assert_eq!(g.bank_of(16), 0);
        assert_eq!(g.bank_of(16 * 1024 + 1), 1); // IDIM of the paper's triad
    }

    #[test]
    fn return_number_theorem1() {
        let g = Geometry::unsectioned(16, 4).unwrap();
        assert_eq!(g.return_number(1), 16);
        assert_eq!(g.return_number(2), 8);
        assert_eq!(g.return_number(8), 2);
        assert_eq!(g.return_number(0), 1); // d = 0 revisits immediately
        assert_eq!(g.return_number(3), 16);
        assert_eq!(g.return_number(6), 8);
    }

    #[test]
    fn check_parameters() {
        let g = Geometry::cray_xmp();
        assert!(g.check_start_bank(15).is_ok());
        assert!(g.check_start_bank(16).is_err());
        assert!(g.check_distance(15).is_ok());
        assert!(g.check_distance(16).is_err());
    }

    #[test]
    fn xmp_preset_matches_paper() {
        let g = Geometry::cray_xmp();
        assert_eq!((g.banks(), g.sections(), g.bank_cycle()), (16, 4, 4));
        assert_eq!(g.mapping(), SectionMapping::Cyclic);
    }
}
