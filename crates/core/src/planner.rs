//! Stride planning: the programmer-facing advice of the paper's conclusion.
//!
//! "For the programmer it is important to identify the distances which the
//! required access streams will have. [...] A safe method is to choose the
//! dimension of arrays so that they are relatively prime to the number of
//! banks."
//!
//! This module evaluates candidate strides against a geometry and suggests
//! array-dimension padding that avoids self-conflicts and pairwise hazards.

use crate::geometry::Geometry;
use crate::numtheory::coprime;
use crate::pair::{classify_pair, PairClass};
use crate::ratio::Ratio;
use crate::stream::StreamSpec;

/// Quality assessment of a single stride on a given geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrideReport {
    /// The stride as given (before reduction modulo `m`).
    pub stride: u64,
    /// The distance `d = stride mod m`.
    pub distance: u64,
    /// Return number `r` (Theorem 1).
    pub return_number: u64,
    /// Solo effective bandwidth `min(1, r/n_c)`.
    pub solo_bandwidth: Ratio,
    /// True when the stream never waits on itself (`r >= n_c`).
    pub self_conflict_free: bool,
    /// True when `r >= 2·n_c`, the stronger bound the pair theorems need for
    /// the barrier-forming stream.
    pub robust: bool,
}

/// Assesses a stride in isolation.
#[must_use]
pub fn assess_stride(geom: &Geometry, stride: u64) -> StrideReport {
    let distance = stride % geom.banks();
    let spec = StreamSpec {
        start_bank: 0,
        distance,
    };
    let r = spec.return_number(geom);
    let (num, den) = spec.solo_bandwidth_ratio(geom);
    StrideReport {
        stride,
        distance,
        return_number: r,
        solo_bandwidth: Ratio::new(num, den),
        self_conflict_free: r >= geom.bank_cycle(),
        robust: r >= 2 * geom.bank_cycle(),
    }
}

/// Smallest padded leading dimension `>= dim` that is relatively prime to
/// the number of banks, so that every row/diagonal stride derived from it
/// has the full return number `r = m`.
///
/// ```
/// use vecmem_analytic::{Geometry, planner::pad_dimension};
/// let xmp = Geometry::cray_xmp();
/// // The paper's triad uses IDIM = 16*1024 + 1 for exactly this reason:
/// assert_eq!(pad_dimension(&xmp, 16 * 1024), 16 * 1024 + 1);
/// ```
#[must_use]
pub fn pad_dimension(geom: &Geometry, dim: u64) -> u64 {
    let m = geom.banks();
    let mut candidate = dim.max(1);
    // A coprime residue exists within any window of m consecutive integers.
    while !coprime(candidate, m) {
        candidate += 1;
    }
    candidate
}

/// True when running streams of stride `da` and `db` concurrently (from
/// different CPUs, arbitrary start banks) is guaranteed to reach full
/// bandwidth 2 in steady state.
#[must_use]
pub fn pair_is_safe(geom: &Geometry, da: u64, db: u64) -> bool {
    let m = geom.banks();
    let s1 = StreamSpec {
        start_bank: 0,
        distance: da % m,
    };
    let s2 = StreamSpec {
        start_bank: 0,
        distance: db % m,
    };
    // Start banks chosen worst-case here (0, 0): only Theorem 3's
    // synchronisation guarantees safety for arbitrary starts.
    matches!(classify_pair(geom, &s1, &s2, true), PairClass::ConflictFree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assess_unit_stride() {
        let g = Geometry::cray_xmp();
        let r = assess_stride(&g, 1);
        assert_eq!(r.return_number, 16);
        assert!(r.self_conflict_free);
        assert!(r.robust);
        assert_eq!(r.solo_bandwidth, Ratio::integer(1));
    }

    #[test]
    fn assess_power_of_two_strides() {
        let g = Geometry::cray_xmp();
        let r8 = assess_stride(&g, 8);
        assert_eq!(r8.return_number, 2);
        assert!(!r8.self_conflict_free);
        assert_eq!(r8.solo_bandwidth, Ratio::new(1, 2));
        let r16 = assess_stride(&g, 16);
        assert_eq!(r16.distance, 0);
        assert_eq!(r16.return_number, 1);
        assert_eq!(r16.solo_bandwidth, Ratio::new(1, 4));
    }

    #[test]
    fn pad_dimension_to_coprime() {
        let g = Geometry::cray_xmp();
        assert_eq!(pad_dimension(&g, 16), 17); // 16 shares factor 16
        assert_eq!(pad_dimension(&g, 17), 17);
        assert_eq!(pad_dimension(&g, 1024), 1025);
        assert_eq!(pad_dimension(&g, 0), 1);
        // The paper's triad uses IDIM = 16·1024 + 1 for exactly this reason.
        assert_eq!(pad_dimension(&g, 16 * 1024), 16 * 1024 + 1);
    }

    #[test]
    fn safe_strides_on_xmp() {
        // m = 16, n_c = 4: against a unit-stride background, stride 9 gives
        // gcd(16, 8) = 8 >= 8 (Theorem 3) -> safe; stride 2 gives
        // gcd(16, 1) = 1 -> unsafe; stride 1 (equal distances) gives
        // gcd(16, 0) = 16 -> safe.
        let g = Geometry::cray_xmp();
        let safe = |inc| assess_stride(&g, inc).self_conflict_free && pair_is_safe(&g, inc, 1);
        assert!(safe(1));
        assert!(safe(9));
        assert!(!safe(2));
        assert!(!safe(8)); // self-conflicting
        assert!(!safe(16));
    }

    #[test]
    fn pair_safety_is_symmetric() {
        let g = Geometry::unsectioned(24, 3).unwrap();
        for da in 1..24 {
            for db in 1..24 {
                assert_eq!(pair_is_safe(&g, da, db), pair_is_safe(&g, db, da));
            }
        }
    }
}
