//! More than two access streams.
//!
//! The paper analyses one and two streams and observes for its six-port
//! experiment that "access conflicts are bound to occur since
//! `6·n_c = 24 > 16`, i.e., 16 banks are not sufficient to support all
//! access requests in parallel." This module generalises the easy
//! directions:
//!
//! * a **necessary** capacity condition for `p` streams at full bandwidth:
//!   `p · n_c <= m` (every granted request occupies a bank for `n_c`
//!   periods, and at most `m` bank-periods exist per clock period — plus
//!   the per-section path bound when the streams share a CPU);
//! * a **constructive** placement for equal-distance families (the
//!   background workload of the triad experiment): `p` streams of distance
//!   `d` are conflict-free when their start banks are spaced along the
//!   stream's own bank walk with time-gaps of at least `n_c` in both
//!   directions — and, under sections, when the `p` simultaneous requests
//!   always land in `p` distinct sections;
//! * a pairwise classification matrix as a (non-exact) screening tool.

use crate::geometry::Geometry;
use crate::pair::{classify_pair, PairClass};
use crate::stream::StreamSpec;

/// Necessary conditions for `p` concurrent streams to all run at full
/// bandwidth (one word per port per clock period).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityCheck {
    /// `p · n_c <= m`: enough bank-periods per clock period.
    pub banks_sufficient: bool,
    /// `p <= s` when all ports are on one CPU: enough access paths.
    pub paths_sufficient: bool,
}

impl CapacityCheck {
    /// True when both necessary conditions hold.
    #[must_use]
    pub fn possible(&self) -> bool {
        self.banks_sufficient && self.paths_sufficient
    }
}

/// Capacity check for `p` streams; `same_cpu` selects whether the
/// per-CPU path bound applies.
///
/// ```
/// use vecmem_analytic::{Geometry, multi::capacity_check};
/// let xmp = Geometry::cray_xmp();
/// // The paper: "6 n_c = 24 > 16, i.e., 16 banks are not sufficient".
/// assert!(!capacity_check(&xmp, 6, false).possible());
/// assert!(capacity_check(&xmp, 4, false).possible());
/// ```
#[must_use]
pub fn capacity_check(geom: &Geometry, p: u64, same_cpu: bool) -> CapacityCheck {
    CapacityCheck {
        banks_sufficient: p * geom.bank_cycle() <= geom.banks(),
        paths_sufficient: !same_cpu || p <= geom.sections(),
    }
}

/// Constructs start banks for `p` conflict-free streams of equal distance
/// `d` on one CPU, or `None` when no such placement exists under the
/// constructive spacing scheme.
///
/// The placement puts stream `i` at `b_i = i · g · spacing` where
/// `g = gcd(m, d)`... in fact placement proceeds along the bank walk of a
/// distance-`d` stream: consecutive streams are `spacing` *steps* apart on
/// that walk (i.e. `spacing` clock periods apart in phase). Requirements:
///
/// * `spacing >= n_c` and `r - (p-1)·spacing >= n_c` (both wrap-around
///   directions of every pairwise phase gap are at least the bank cycle);
/// * under sections, the simultaneous requests of the `p` streams are
///   `spacing·d (mod s)`-spaced banks: they must fall in `p` distinct
///   sections.
///
/// Returns the start banks in port order.
#[must_use]
pub fn equal_distance_family(geom: &Geometry, d: u64, p: u64) -> Option<Vec<u64>> {
    if p == 0 {
        return Some(Vec::new());
    }
    let m = geom.banks();
    let nc = geom.bank_cycle();
    let d = d % m;
    let spec = StreamSpec {
        start_bank: 0,
        distance: d,
    };
    let r = spec.return_number(geom);
    if p == 1 {
        return if r >= nc { Some(vec![0]) } else { None };
    }
    // Try every phase spacing; all p streams share one residue walk.
    for spacing in nc..=r.saturating_sub(nc) / (p - 1).max(1) {
        if (p - 1) * spacing > r || r - (p - 1) * spacing < nc {
            continue;
        }
        // Simultaneous requests are at banks k·d + i·spacing·d (mod m); the
        // i-th and j-th differ by (i-j)·spacing·d. Distinct sections for
        // all pairs requires (i-j)·spacing·d ≢ 0 (mod s) for 0 < |i-j| < p.
        let s = geom.sections();
        let step = (spacing % m) * d % m;
        let distinct_sections = (1..p).all(|k| !(k * step).is_multiple_of(s));
        if !geom.is_unsectioned() && !distinct_sections {
            continue;
        }
        let starts = (0..p)
            .map(|i| (i as u128 * spacing as u128 % m as u128 * d as u128 % m as u128) as u64)
            .collect();
        return Some(starts);
    }
    None
}

/// Summary of a pairwise screening of `p` streams.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseScreen {
    /// Classification of each unordered pair `(i, j)`, `i < j`.
    pub pairs: Vec<(usize, usize, PairClass)>,
    /// True when every pair is individually conflict-free. (Necessary but
    /// NOT sufficient for the whole family to be conflict-free: three
    /// pairwise-compatible streams can still collide through transitive
    /// displacement — use the simulator for the exact answer.)
    pub all_pairs_conflict_free: bool,
}

/// Classifies every pair among the given streams (cross-CPU semantics).
#[must_use]
pub fn pairwise_screen(geom: &Geometry, specs: &[StreamSpec]) -> PairwiseScreen {
    let mut pairs = Vec::new();
    let mut all_cf = true;
    for i in 0..specs.len() {
        for j in (i + 1)..specs.len() {
            let class = classify_pair(geom, &specs[i], &specs[j], true);
            all_cf &= class.is_conflict_free();
            pairs.push((i, j, class));
        }
    }
    PairwiseScreen {
        pairs,
        all_pairs_conflict_free: all_cf,
    }
}

/// An upper bound on the aggregate bandwidth of `p` streams with distances
/// `ds`: the capacity bound `m / n_c` combined with each stream's solo
/// bound `min(1, r_i/n_c)` and, for same-CPU placement, the path bound `s`.
#[must_use]
pub fn bandwidth_upper_bound(geom: &Geometry, ds: &[u64], same_cpu: bool) -> f64 {
    let m = geom.banks() as f64;
    let nc = geom.bank_cycle() as f64;
    let solo_sum: f64 = ds
        .iter()
        .map(|&d| {
            let r = geom.return_number(d) as f64;
            (r / nc).min(1.0)
        })
        .sum();
    let mut bound = solo_sum.min(m / nc);
    if same_cpu {
        bound = bound.min(geom.sections() as f64);
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_check_paper_example() {
        // Paper §IV: six ports on the X-MP: 6·4 = 24 > 16 banks.
        let geom = Geometry::cray_xmp();
        let check = capacity_check(&geom, 6, false);
        assert!(!check.banks_sufficient);
        assert!(!check.possible());
        // Four ports would fit: 4·4 = 16 <= 16.
        assert!(capacity_check(&geom, 4, false).banks_sufficient);
        // Same-CPU path bound: the X-MP has s = 4 sections, so up to 4
        // same-CPU ports can be served per clock period.
        assert!(capacity_check(&geom, 4, true).paths_sufficient);
        assert!(!capacity_check(&geom, 5, true).paths_sufficient);
    }

    #[test]
    fn equal_distance_family_background_workload() {
        // The triad experiment's background: three unit-stride streams on
        // the X-MP CPU. A valid placement exists and respects both gaps.
        let geom = Geometry::cray_xmp();
        let starts = equal_distance_family(&geom, 1, 3).expect("placement exists");
        assert_eq!(starts.len(), 3);
        // Pairwise phase gaps (for d = 1 the start bank IS the phase).
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[1] - w[0] >= 4);
        }
        assert!(16 - (sorted[2] - sorted[0]) >= 4);
        // Distinct sections each clock period.
        let s: Vec<u64> = starts.iter().map(|&b| geom.section_of(b)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn equal_distance_family_impossible_when_overcommitted() {
        // m = 8, n_c = 4: two d = 1 streams fit (gaps 4/4), three cannot
        // (3 gaps of >= 4 need r >= 12 > 8).
        let geom = Geometry::unsectioned(8, 4).unwrap();
        assert!(equal_distance_family(&geom, 1, 2).is_some());
        assert!(equal_distance_family(&geom, 1, 3).is_none());
        // Self-conflicting distance: even one stream fails.
        let geom2 = Geometry::unsectioned(8, 4).unwrap();
        assert!(equal_distance_family(&geom2, 4, 1).is_none());
    }

    #[test]
    fn family_placements_simulate_conflict_free() {
        // Cross-validated in tests/multi_stream.rs; here just shape checks.
        let geom = Geometry::new(24, 4, 3).unwrap();
        for p in 1..=4 {
            if let Some(starts) = equal_distance_family(&geom, 1, p) {
                assert_eq!(starts.len() as u64, p);
                let mut uniq = starts.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len() as u64, p, "starts must be distinct");
            }
        }
    }

    #[test]
    fn pairwise_screen_matrix() {
        let geom = Geometry::unsectioned(12, 3).unwrap();
        let specs = [
            StreamSpec {
                start_bank: 0,
                distance: 1,
            },
            StreamSpec {
                start_bank: 1,
                distance: 7,
            },
            StreamSpec {
                start_bank: 2,
                distance: 2,
            },
        ];
        let screen = pairwise_screen(&geom, &specs);
        assert_eq!(screen.pairs.len(), 3);
        // (1, 7) is conflict-free; (1, 2) is not; overall flag false.
        assert!(!screen.all_pairs_conflict_free);
        let cf_pairs: Vec<(usize, usize)> = screen
            .pairs
            .iter()
            .filter(|(_, _, c)| c.is_conflict_free())
            .map(|&(i, j, _)| (i, j))
            .collect();
        assert!(cf_pairs.contains(&(0, 1)));
    }

    #[test]
    fn upper_bound_combines_constraints() {
        let geom = Geometry::cray_xmp(); // m/nc = 4
                                         // Six full-rate streams: capped by banks at 4.
        assert_eq!(bandwidth_upper_bound(&geom, &[1; 6], false), 4.0);
        // Two streams, one self-limited (d = 8, r = 2): 1 + 0.5.
        assert_eq!(bandwidth_upper_bound(&geom, &[1, 8], false), 1.5);
        // Same-CPU: path bound s = 4 also applies.
        assert_eq!(bandwidth_upper_bound(&geom, &[1; 6], true), 4.0);
        let geom2 = Geometry::new(16, 2, 4).unwrap();
        assert_eq!(bandwidth_upper_bound(&geom2, &[1; 6], true), 2.0);
    }
}
