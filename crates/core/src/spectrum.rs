//! Bandwidth spectrum: how the classification distributes over a whole
//! geometry's design space.
//!
//! For machine designers the per-pair theorems aggregate into questions
//! like "what fraction of stride pairs on this memory can run at full
//! bandwidth?" and "how much does doubling the banks buy?". This module
//! counts classifications over all distance pairs (and, optionally, start
//! banks) of a geometry.

use crate::geometry::Geometry;
use crate::pair::{classify_pair, PairClass};
use crate::stream::StreamSpec;

/// Counts of pair classifications over a swept design space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spectrum {
    /// Pairs with at least one self-conflicting stream.
    pub self_limited: u64,
    /// Pairs with disjoint access sets (for the swept start banks).
    pub disjoint_sets: u64,
    /// Theorem-3 conflict-free pairs.
    pub conflict_free: u64,
    /// Unique barrier-situations.
    pub unique_barrier: u64,
    /// Start-dependent barrier situations.
    pub barrier_possible: u64,
    /// Other conflicting pairs.
    pub conflicting: u64,
}

impl Spectrum {
    /// Total pairs counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.self_limited
            + self.disjoint_sets
            + self.conflict_free
            + self.unique_barrier
            + self.barrier_possible
            + self.conflicting
    }

    /// Fraction of pairs guaranteed to reach `b_eff = 2` (disjoint or
    /// conflict-free).
    #[must_use]
    pub fn full_bandwidth_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.disjoint_sets + self.conflict_free) as f64 / self.total() as f64
    }

    /// Adds another spectrum's counts into this one (used to merge the
    /// per-`d1` partial sums of a fanned-out census).
    pub fn merge(&mut self, other: &Spectrum) {
        self.self_limited += other.self_limited;
        self.disjoint_sets += other.disjoint_sets;
        self.conflict_free += other.conflict_free;
        self.unique_barrier += other.unique_barrier;
        self.barrier_possible += other.barrier_possible;
        self.conflicting += other.conflicting;
    }

    fn record(&mut self, class: &PairClass) {
        match class {
            PairClass::SelfLimited => self.self_limited += 1,
            PairClass::DisjointSets => self.disjoint_sets += 1,
            PairClass::ConflictFree => self.conflict_free += 1,
            PairClass::UniqueBarrier { .. } => self.unique_barrier += 1,
            PairClass::BarrierPossible { .. } => self.barrier_possible += 1,
            PairClass::Conflicting => self.conflicting += 1,
        }
    }
}

/// Classifies all distance pairs `1 <= d1, d2 < m` with start banks 0
/// (distance classes only; start-dependence folded into the classes).
#[must_use]
pub fn distance_spectrum(geom: &Geometry) -> Spectrum {
    let m = geom.banks();
    let mut spectrum = Spectrum::default();
    for d1 in 1..m {
        for d2 in 1..m {
            let s1 = StreamSpec {
                start_bank: 0,
                distance: d1,
            };
            let s2 = StreamSpec {
                start_bank: 0,
                distance: d2,
            };
            spectrum.record(&classify_pair(geom, &s1, &s2, true));
        }
    }
    spectrum
}

/// Classifies the `(d1, d2, b2)` triples for the given `d1` values: the
/// per-slice worker of the full design-space census. `vecmem-exec` fans
/// these slices out over its runner; summing the partial spectra with
/// [`Spectrum::merge`] yields the full census.
#[must_use]
pub fn full_spectrum_slice(geom: &Geometry, d1s: &[u64]) -> Spectrum {
    let m = geom.banks();
    let mut local = Spectrum::default();
    for &d1 in d1s {
        for d2 in 1..m {
            for b2 in 0..m {
                let s1 = StreamSpec {
                    start_bank: 0,
                    distance: d1,
                };
                let s2 = StreamSpec {
                    start_bank: b2,
                    distance: d2,
                };
                local.record(&classify_pair(geom, &s1, &s2, true));
            }
        }
    }
    local
}

/// Classifies all `(d1, d2, b2)` triples — the full design space including
/// relative start positions — in a single thread.
///
/// The parallel version lives in `vecmem-exec` (`full_spectrum` there fans
/// the [`full_spectrum_slice`] workers out over its work-stealing runner);
/// this serial form remains as the reference implementation the runner's
/// determinism tests compare against.
#[must_use]
pub fn full_spectrum(geom: &Geometry) -> Spectrum {
    let d1s: Vec<u64> = (1..geom.banks()).collect();
    full_spectrum_slice(geom, &d1s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_totals() {
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let s = distance_spectrum(&geom);
        assert_eq!(s.total(), 11 * 11);
        let f = full_spectrum(&geom);
        assert_eq!(f.total(), 11 * 11 * 12);
    }

    #[test]
    fn known_classes_present() {
        // m = 12, n_c = 3 contains Fig. 2's conflict-free pair (1, 7) and
        // self-limited distances (d = 6: r = 2 < 3, d = 0 excluded).
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let s = distance_spectrum(&geom);
        assert!(s.conflict_free > 0);
        assert!(s.self_limited > 0);
        assert!(s.conflicting > 0);
    }

    #[test]
    fn faster_banks_help() {
        // At fixed m, lowering n_c relaxes Theorem 3's 2·n_c threshold:
        // the guaranteed-full-bandwidth fraction is monotone in n_c.
        // (Adding banks at fixed n_c and aligned starts barely moves the
        // fraction — the gcd condition is scale-free — which is itself a
        // finding the curve exposes.)
        let m = 24;
        let mut prev = 1.1;
        for nc in [1u64, 2, 3, 4, 6] {
            let geom = Geometry::unsectioned(m, nc).unwrap();
            let frac = distance_spectrum(&geom).full_bandwidth_fraction();
            assert!(frac <= prev, "fraction must not increase with n_c");
            prev = frac;
        }
        // Even at n_c = 1 not every pair is conflict-free: simultaneous
        // bank conflicts recur whenever gcd(m/f, Δ/f) = 1 (the streams keep
        // meeting at a common bank in the same clock period).
        let geom = Geometry::unsectioned(24, 1).unwrap();
        let s = distance_spectrum(&geom);
        assert!(s.conflicting > 0, "{s:?}");
        assert!(s.conflict_free > 0, "{s:?}");
        assert_eq!(s.self_limited, 0, "n_c = 1 cannot self-conflict");
    }

    #[test]
    fn prime_bank_counts_have_no_disjoint_sets() {
        // With m prime, gcd(m, d1, d2) = 1 for all nonzero distances:
        // disjoint access sets are impossible (Theorem 2).
        let geom = Geometry::unsectioned(13, 4).unwrap();
        let f = full_spectrum(&geom);
        assert_eq!(f.disjoint_sets, 0);
    }

    #[test]
    fn full_bandwidth_fraction_bounds() {
        let geom = Geometry::unsectioned(16, 4).unwrap();
        let s = distance_spectrum(&geom);
        let frac = s.full_bandwidth_fraction();
        assert!((0.0..=1.0).contains(&frac));
        assert_eq!(Spectrum::default().full_bandwidth_fraction(), 0.0);
    }
}
