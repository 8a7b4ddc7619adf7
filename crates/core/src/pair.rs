//! Two concurrent access streams, equal number of sections and banks
//! (paper §III-B, Theorems 2–7).
//!
//! This module classifies a pair of streams coming from *different access
//! paths* (different CPUs, or `s = m`), where the possible conflicts are bank
//! conflicts and simultaneous bank conflicts. The classification predicts the
//! steady-state effective bandwidth exactly where the paper does:
//!
//! * disjoint access sets → `b_eff = 2` (no interaction at all);
//! * Theorem 3 satisfied → conflict-free cycle from **any** relative start
//!   ("synchronization") → `b_eff = 2`;
//! * unique barrier-situation (Theorems 6/7) → `b_eff = 1 + d1/d2` (eq. 29)
//!   from any relative start;
//! * barrier possible but not unique (Theorem 4 without 6/7) → `b_eff < 2`,
//!   exact value depends on the relative start banks;
//! * otherwise → conflicting cycle with `b_eff < 2`.
//!
//! [`PairClass::admits`] is the one statement of what each class
//! predicts: `verify --exhaustive`, the theorem tables and the
//! cross-validation tests all judge a simulated steady state with it.

use crate::geometry::Geometry;
use crate::isomorphism::{canonicalize, CanonicalPair};
use crate::numtheory::{ceil_div, gcd, gcd3, mod_reduce};
use crate::ratio::Ratio;
use crate::stream::{access_sets_disjoint, StreamSpec};

/// Outcome of the two-stream analysis for given start banks and distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairClass {
    /// At least one stream conflicts with itself (`r < n_c`); outside the
    /// scope of the paper's two-stream theorems.
    SelfLimited,
    /// The access sets are disjoint for these start banks: the streams never
    /// touch a common bank, `b_eff = 2`.
    DisjointSets,
    /// Theorem 3 holds: the streams synchronise into a conflict-free cycle
    /// regardless of the relative start banks, `b_eff = 2` in steady state.
    ConflictFree,
    /// A unique barrier-situation (Theorem 6 or 7): one stream runs
    /// conflict-free, the other is periodically delayed; `b_eff = 1 + d1/d2`
    /// (eq. 29) in canonical units, independent of the start banks.
    UniqueBarrier {
        /// The canonical form used for the prediction.
        canonical: CanonicalPair,
        /// Predicted effective bandwidth, `1 + d1/d2`.
        beff: Ratio,
    },
    /// Theorem 4 holds but the barrier is not unique: depending on the start
    /// banks the streams reach a barrier one way or the other, or (when
    /// Theorem 5 fails) a double conflict; `b_eff < 2`.
    BarrierPossible {
        /// Canonical form in which Theorem 4 was established.
        canonical: CanonicalPair,
        /// True when Theorem 5's bound fails, i.e. mutual ("double")
        /// conflicts can occur for unlucky start banks (paper Fig. 4).
        double_conflict_possible: bool,
        /// Bandwidth of the barrier steady state *if* a barrier is reached.
        barrier_beff: Ratio,
    },
    /// Conflicting cycle not covered by the barrier theorems; `b_eff < 2`.
    Conflicting,
}

impl PairClass {
    /// Exact steady-state bandwidth when the model predicts one.
    #[must_use]
    pub fn predicted_bandwidth(&self) -> Option<Ratio> {
        match self {
            Self::DisjointSets | Self::ConflictFree => Some(Ratio::integer(2)),
            Self::UniqueBarrier { beff, .. } => Some(*beff),
            Self::SelfLimited | Self::BarrierPossible { .. } | Self::Conflicting => None,
        }
    }

    /// True when the class guarantees `b_eff = 2` (no conflicts in steady
    /// state, from these start banks).
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        matches!(self, Self::DisjointSets | Self::ConflictFree)
    }

    /// True when a simulated steady state with bandwidth `beff`, whose
    /// period is `conflict_free` or not, is what this class predicts: the
    /// one judge of the two-stream theorems.
    ///
    /// A class with a [`predicted_bandwidth`](Self::predicted_bandwidth)
    /// must match it exactly, conflict-free exactly when
    /// [`is_conflict_free`](Self::is_conflict_free) (Thm 2's corollary,
    /// Thm 3, and eq. 29 for Thms 6/7). Every other class must lose
    /// bandwidth to conflicts: `beff < 2` and not conflict-free (Thm 3's
    /// converse for `BarrierPossible` and `Conflicting`; a `SelfLimited`
    /// stream alone is capped at `r/n_c < 1`).
    #[must_use]
    pub fn admits(&self, beff: Ratio, conflict_free: bool) -> bool {
        match self.predicted_bandwidth() {
            Some(predicted) => beff == predicted && conflict_free == self.is_conflict_free(),
            None => beff < Ratio::integer(2) && !conflict_free,
        }
    }

    /// This distance class (from [`classify_distances`]) at start banks
    /// whose access sets are `disjoint` or not: disjoint sets leave
    /// nothing to collide, so every class but `SelfLimited` becomes
    /// `DisjointSets`.
    #[must_use]
    pub fn at_starts(self, disjoint: bool) -> Self {
        if disjoint && self != Self::SelfLimited {
            Self::DisjointSets
        } else {
            self
        }
    }
}

impl std::fmt::Display for PairClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SelfLimited => write!(f, "self-limited"),
            Self::DisjointSets => write!(f, "disjoint-sets"),
            Self::ConflictFree => write!(f, "conflict-free"),
            Self::UniqueBarrier { beff, .. } => write!(f, "unique-barrier({beff})"),
            Self::BarrierPossible {
                double_conflict_possible: true,
                ..
            } => write!(f, "barrier-possible+double"),
            Self::BarrierPossible {
                double_conflict_possible: false,
                ..
            } => write!(f, "barrier-possible"),
            Self::Conflicting => write!(f, "conflicting"),
        }
    }
}

/// Theorem 2: disjoint access sets can be achieved (by suitable start banks)
/// iff `gcd(m, d1, d2) > 1`.
#[must_use]
pub fn disjoint_sets_achievable(geom: &Geometry, d1: u64, d2: u64) -> bool {
    let m = geom.banks();
    gcd3(m, d1 % m, d2 % m) > 1
}

/// Theorem 3: with nondisjoint access sets (and `s = m`), start banks making
/// the streams conflict-free exist iff
/// `gcd(m/f, (d2 - d1)/f) >= 2·n_c` with `f = gcd(m, d1, d2)`.
///
/// ```
/// use vecmem_analytic::{Geometry, pair::conflict_free_condition};
/// let geom = Geometry::unsectioned(12, 3).unwrap();
/// assert!(conflict_free_condition(&geom, 1, 7));  // Fig. 2
/// assert!(!conflict_free_condition(&geom, 1, 2)); // gcd(12, 1) = 1 < 6
/// ```
///
/// When it holds, the streams also *synchronise*: they fall into the
/// conflict-free cycle from any relative starting position.
#[must_use]
pub fn conflict_free_condition(geom: &Geometry, d1: u64, d2: u64) -> bool {
    let m = geom.banks();
    let d1 = d1 % m;
    let d2 = d2 % m;
    let f = gcd3(m, d1, d2);
    if f == 0 {
        return false;
    }
    let diff = mod_reduce(d2 as i128 - d1 as i128, m);
    debug_assert_eq!(diff % f, 0, "f divides d2 - d1 modulo m");
    // gcd(m, 0) = m covers the equal-distance case: conflict-free iff
    // r = m/f >= 2 n_c.
    gcd(m / f, diff / f) >= 2 * geom.bank_cycle()
}

/// Theorem 4 (via eq. 20 of its proof): given the canonical pair
/// (`d1 | m`, `d2 > d1`), start banks leading to a barrier-situation exist iff
/// `d2' ≡ d1' + c (mod m'/d1')` for some `1 <= c < n_c`, where `x' = x/f`.
///
/// Preconditions from the theorem: `r1 >= 2 n_c`, `r2 > n_c` and nondisjoint
/// access sets; the caller checks those.
#[must_use]
pub fn barrier_condition(geom: &Geometry, canonical: &CanonicalPair) -> bool {
    let m = geom.banks();
    let nc = geom.bank_cycle();
    let f = gcd3(m, canonical.d1, canonical.d2);
    let (m1, d1, d2) = (m / f, canonical.d1 / f, canonical.d2 / f);
    debug_assert_eq!(m1 % d1, 0, "canonical d1' divides m'");
    let m2 = m1 / d1; // m'' of the proof
    for c in 1..nc {
        if d2 % m2 == (d1 + c) % m2 {
            return true;
        }
    }
    false
}

/// Theorem 5: a double conflict (mutual delays) is *never* encountered if
/// `(n_c - 1)(d2 + d1) < m` (canonical units).
#[must_use]
pub fn no_double_conflict_condition(geom: &Geometry, canonical: &CanonicalPair) -> bool {
    let nc = geom.bank_cycle();
    (nc - 1) * (canonical.d2 + canonical.d1) < geom.banks()
}

/// Theorem 6: given Theorem 4, the barrier is unique (reached from any start
/// banks) if `(2 n_c - 1)·d2 <= m` (canonical units).
#[must_use]
pub fn unique_barrier_thm6(geom: &Geometry, canonical: &CanonicalPair) -> bool {
    (2 * geom.bank_cycle() - 1) * canonical.d2 <= geom.banks()
}

/// Theorem 7 (with the eq. 28 refinement): given Theorems 4 and 5 but not 6,
/// the barrier is still unique if, in primed units (`x' = x/f`),
/// `k = ⌈m'/(d1'·d2')⌉·d1' < 2 n_c` and
/// `k·d2' mod m'  <  (k - n_c)·d1' mod m'`
/// (or `=` when stream 1 — the barrier-forming stream — has priority, in
/// which case the tie is broken by a simultaneous bank conflict in stream
/// 1's favour).
#[must_use]
pub fn unique_barrier_thm7(
    geom: &Geometry,
    canonical: &CanonicalPair,
    stream1_has_priority: bool,
) -> bool {
    let m = geom.banks();
    let nc = geom.bank_cycle();
    let f = gcd3(m, canonical.d1, canonical.d2);
    let (m1, d1, d2) = (m / f, canonical.d1 / f, canonical.d2 / f);
    if d1 == 0 || d2 == 0 {
        return false;
    }
    let k = ceil_div(m1, d1 * d2) * d1;
    if k >= 2 * nc {
        return false;
    }
    let lhs = (k as u128 * d2 as u128 % m1 as u128) as u64;
    let rhs = mod_reduce(k as i128 - nc as i128, m1) * d1 % m1;
    lhs < rhs || (stream1_has_priority && lhs == rhs)
}

/// Eq. 29: effective bandwidth of a unique barrier-situation,
/// `b_eff = 1 + d1/d2` in canonical units.
#[must_use]
pub fn barrier_bandwidth(canonical: &CanonicalPair) -> Ratio {
    Ratio::new(canonical.d1 + canonical.d2, canonical.d2)
}

/// Classifies a pair of streams on different access paths (`s = m`
/// semantics) with concrete start banks: [`classify_distances`] at these
/// start banks ([`PairClass::at_starts`]).
///
/// `stream1_has_priority` selects whether the barrier-forming canonical
/// stream wins simultaneous bank conflicts (fixed priority with the
/// barrier stream first); it only affects the eq.-28 boundary of Theorem 7.
#[must_use]
pub fn classify_pair(
    geom: &Geometry,
    s1: &StreamSpec,
    s2: &StreamSpec,
    stream1_has_priority: bool,
) -> PairClass {
    classify_distances(geom, s1.distance, s2.distance, stream1_has_priority)
        .at_starts(access_sets_disjoint(geom, s1, s2))
}

/// The part of [`classify_pair`] that does not depend on the start banks:
/// the class of two streams with distances `d1` and `d2` whose access sets
/// meet. Never `DisjointSets`; [`PairClass::at_starts`] adds the start
/// banks.
#[must_use]
pub fn classify_distances(
    geom: &Geometry,
    d1: u64,
    d2: u64,
    stream1_has_priority: bool,
) -> PairClass {
    let nc = geom.bank_cycle();
    if geom.return_number(d1) < nc || geom.return_number(d2) < nc {
        return PairClass::SelfLimited;
    }
    if conflict_free_condition(geom, d1, d2) {
        return PairClass::ConflictFree;
    }
    if let Some(canonical) = canonicalize(geom, d1, d2) {
        // Theorem 4 preconditions in canonical units: the barrier-forming
        // stream must not self-conflict across the 2 n_c window and the
        // delayed stream must outlast one bank cycle.
        let rc1 = geom.return_number(canonical.d1);
        let rc2 = geom.return_number(canonical.d2);
        if rc1 >= 2 * nc && rc2 > nc && barrier_condition(geom, &canonical) {
            let no_double = no_double_conflict_condition(geom, &canonical);
            // Eq. 28's equality refinement needs the *canonical* barrier
            // stream (d1) to win simultaneous bank conflicts; if the pair
            // was swapped during canonicalisation, the hardware priority
            // sits with the other stream.
            let canonical_priority = if canonical.swapped {
                !stream1_has_priority
            } else {
                stream1_has_priority
            };
            let unique = unique_barrier_thm6(geom, &canonical)
                || (no_double && unique_barrier_thm7(geom, &canonical, canonical_priority));
            let beff = barrier_bandwidth(&canonical);
            if unique {
                return PairClass::UniqueBarrier { canonical, beff };
            }
            return PairClass::BarrierPossible {
                canonical,
                double_conflict_possible: !no_double,
                barrier_beff: beff,
            };
        }
    }
    PairClass::Conflicting
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(m: u64, nc: u64) -> Geometry {
        Geometry::unsectioned(m, nc).unwrap()
    }

    fn spec(geom: &Geometry, b: u64, d: u64) -> StreamSpec {
        StreamSpec::new(geom, b, d).unwrap()
    }

    #[test]
    fn theorem2_examples() {
        let g = geom(12, 3);
        assert!(disjoint_sets_achievable(&g, 2, 4)); // gcd(12,2,4) = 2
        assert!(disjoint_sets_achievable(&g, 3, 6)); // gcd = 3
        assert!(!disjoint_sets_achievable(&g, 1, 7)); // gcd = 1
        assert!(!disjoint_sets_achievable(&g, 2, 3)); // gcd = 1
    }

    #[test]
    fn theorem3_fig2_case() {
        // Fig. 2: m = 12, n_c = 3, d1 = 1, d2 = 7: gcd(12, 6) = 6 >= 2·3.
        let g = geom(12, 3);
        assert!(conflict_free_condition(&g, 1, 7));
        // d1 = 1, d2 = 2: gcd(12, 1) = 1 < 6.
        assert!(!conflict_free_condition(&g, 1, 2));
    }

    #[test]
    fn theorem3_equal_distances() {
        // gcd(m, 0) = m: equal distances are conflict-free iff r >= 2 n_c.
        let g = geom(16, 4);
        assert!(conflict_free_condition(&g, 1, 1)); // r = 16 >= 8
        assert!(conflict_free_condition(&g, 3, 3));
        let g2 = geom(16, 4);
        // d = 2: f = 2, gcd(16/2, 0) = 8 >= 2·n_c = 8: conflict-free (boundary).
        assert!(conflict_free_condition(&g2, 2, 2));
        let g3 = geom(12, 4);
        // d = 2: f = 2, gcd(6, 0) = 6 < 8: conflicting.
        assert!(!conflict_free_condition(&g3, 2, 2));
    }

    #[test]
    fn theorem3_symmetry() {
        let g = geom(24, 3);
        for d1 in 0..24 {
            for d2 in 0..24 {
                assert_eq!(
                    conflict_free_condition(&g, d1, d2),
                    conflict_free_condition(&g, d2, d1),
                    "Theorem 3 must be symmetric in d1, d2 ({d1}, {d2})"
                );
            }
        }
    }

    #[test]
    fn fig3_case_barrier_possible_with_double_conflict() {
        // Fig. 3 / Fig. 4: m = 13, n_c = 6, d1 = 1, d2 = 6. A barrier exists
        // (Fig. 3) but b2 = 1 leads to a double conflict (Fig. 4): Theorem 5
        // fails ((n_c-1)(d1+d2) = 35 >= 13).
        let g = geom(13, 6);
        let class = classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 0, 6), true);
        match class {
            PairClass::BarrierPossible {
                double_conflict_possible,
                barrier_beff,
                ..
            } => {
                assert!(double_conflict_possible);
                assert_eq!(barrier_beff, Ratio::new(7, 6));
            }
            other => panic!("expected BarrierPossible, got {other:?}"),
        }
    }

    #[test]
    fn fig5_case_barrier_possible_no_double_conflict() {
        // Fig. 5 / Fig. 6: m = 13, n_c = 4, d1 = 1, d2 = 3. Theorem 5 holds
        // ((4-1)·4 = 12 < 13) so no double conflict, but neither Theorem 6
        // ((2·4-1)·3 = 21 > 13) nor Theorem 7 (2 < 1 fails) gives uniqueness:
        // the barrier direction depends on the start banks (Figs. 5 vs 6).
        let g = geom(13, 4);
        let class = classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 7, 3), true);
        match class {
            PairClass::BarrierPossible {
                double_conflict_possible,
                barrier_beff,
                ..
            } => {
                assert!(!double_conflict_possible);
                assert_eq!(barrier_beff, Ratio::new(4, 3));
            }
            other => panic!("expected BarrierPossible, got {other:?}"),
        }
    }

    #[test]
    fn theorem6_unique_barrier() {
        // m = 16, n_c = 2, d1 = 1, d2 = 2: Thm 4 (d2 ≡ d1 + 1 (mod 16)) and
        // Thm 6 ((2·2-1)·2 = 6 <= 16): unique barrier, b_eff = 3/2.
        let g = geom(16, 2);
        let class = classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 5, 2), true);
        match class {
            PairClass::UniqueBarrier { beff, canonical } => {
                assert_eq!(beff, Ratio::new(3, 2));
                assert_eq!((canonical.d1, canonical.d2), (1, 2));
            }
            other => panic!("expected UniqueBarrier, got {other:?}"),
        }
    }

    #[test]
    fn theorem7_unique_barrier() {
        // m = 13, n_c = 4, d1 = 1, d2 = 2: Thm 6 fails (7·2 = 14 > 13) but
        // Thm 7 holds: k = ⌈13/2⌉·1 = 7 < 8, 7·2 mod 13 = 1 < (7-4)·1 = 3.
        let g = geom(13, 4);
        let canonical = canonicalize(&g, 1, 2).unwrap();
        assert!(barrier_condition(&g, &canonical));
        assert!(no_double_conflict_condition(&g, &canonical));
        assert!(!unique_barrier_thm6(&g, &canonical));
        assert!(unique_barrier_thm7(&g, &canonical, false));
        let class = classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 4, 2), false);
        match class {
            PairClass::UniqueBarrier { beff, .. } => assert_eq!(beff, Ratio::new(3, 2)),
            other => panic!("expected UniqueBarrier, got {other:?}"),
        }
    }

    #[test]
    fn self_limited_detection() {
        let g = geom(16, 4);
        // d = 8 has r = 2 < 4.
        assert_eq!(
            classify_pair(&g, &spec(&g, 0, 8), &spec(&g, 1, 1), true),
            PairClass::SelfLimited
        );
        assert_eq!(
            classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 1, 0), true),
            PairClass::SelfLimited
        );
    }

    #[test]
    fn disjoint_sets_classification() {
        // m = 12, d1 = d2 = 2, b2 - b1 odd: even/odd banks, never interact —
        // even though Theorem 3 fails for d = 2 (gcd(6,0) = 6 < 2·4).
        let g = geom(12, 4);
        assert_eq!(
            classify_pair(&g, &spec(&g, 0, 2), &spec(&g, 1, 2), true),
            PairClass::DisjointSets
        );
        // Same distances but b2 - b1 even: nondisjoint, r = 6 < 2·n_c = 8 ->
        // conflicting.
        assert_ne!(
            classify_pair(&g, &spec(&g, 0, 2), &spec(&g, 2, 2), true),
            PairClass::DisjointSets
        );
    }

    #[test]
    fn predicted_bandwidth_accessor() {
        let g = geom(12, 3);
        let cf = classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 0, 7), true);
        assert_eq!(cf.predicted_bandwidth(), Some(Ratio::integer(2)));
        assert!(cf.is_conflict_free());
        let conflicting = classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 0, 1), true);
        // d1 = d2 = 1: r = 12 >= 6 -> conflict-free too (Theorem 3 with
        // gcd(12, 0) = 12 >= 6).
        assert!(conflicting.is_conflict_free());
    }

    /// What each class admits: its exact prediction, or a conflicted
    /// state below full bandwidth.
    #[test]
    fn admits_is_the_prediction() {
        let two = Ratio::integer(2);
        let g = geom(16, 2);
        let barrier = classify_pair(&g, &spec(&g, 0, 1), &spec(&g, 5, 2), true);
        assert!(barrier.admits(Ratio::new(3, 2), false));
        assert!(!barrier.admits(Ratio::new(3, 2), true));
        assert!(!barrier.admits(Ratio::new(4, 3), false));
        for free in [PairClass::ConflictFree, PairClass::DisjointSets] {
            assert!(free.admits(two, true));
            assert!(!free.admits(two, false));
            assert!(!free.admits(Ratio::new(3, 2), false));
        }
        for lossy in [PairClass::Conflicting, PairClass::SelfLimited] {
            assert!(lossy.admits(Ratio::new(3, 2), false));
            assert!(!lossy.admits(two, true));
            assert!(!lossy.admits(Ratio::new(3, 2), true));
        }
    }

    #[test]
    fn barrier_condition_uses_proof_eq20_not_literal_eq17() {
        // m = 24, n_c = 3, d1 = 2, d2 = 14 (f = 2): in primed units d2' = 7,
        // m'' = 12, and 7 ∉ {2, 3} (mod 12): no barrier. The literal reading
        // of eq. (17) would wrongly accept this case.
        let g = geom(24, 3);
        let canonical = CanonicalPair {
            d1: 2,
            d2: 14,
            multiplier: 1,
            swapped: false,
        };
        assert!(!barrier_condition(&g, &canonical));
        // m = 24, n_c = 4, d1 = 2, d2 = 8 (f = 2): d2' = 4 ≡ d1' + 3, c = 3 < 4.
        let g2 = geom(24, 4);
        let canonical2 = CanonicalPair {
            d1: 2,
            d2: 8,
            multiplier: 1,
            swapped: false,
        };
        assert!(barrier_condition(&g2, &canonical2));
    }

    #[test]
    fn nc_one_never_barriers() {
        // With n_c = 1 a bank is free again the next clock period: bank
        // conflicts (and hence barriers) cannot arise.
        let g = geom(12, 1);
        let canonical = canonicalize(&g, 1, 2).unwrap();
        assert!(!barrier_condition(&g, &canonical));
    }
}
