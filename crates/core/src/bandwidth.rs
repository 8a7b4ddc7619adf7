//! Top-level effective-bandwidth predictions.
//!
//! Ties together the single-stream result (§III-A), the two-stream
//! classification (§III-B) and the sectioned analysis into one entry point.
//! The maximum bandwidth of a memory system is `b_w = p` (the number of
//! ports); the effective bandwidth `b_eff <= b_w` is the average number of
//! data transferred per clock period in the cyclic steady state.

use crate::geometry::Geometry;
use crate::pair::{classify_pair, PairClass};
use crate::ratio::Ratio;
use crate::sections::{analyze_sectioned_pair, SectionAnalysis, SectionClass};
use crate::stream::StreamSpec;

/// Whether two concurrent streams share an access path bottleneck.
///
/// Streams from different CPUs each have their own path into every section,
/// so for them "access paths are not a bottleneck, i.e. s = m" (paper
/// §III-B); streams from the same CPU share paths when `s < m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPlacement {
    /// The two ports belong to different CPUs (simultaneous bank conflicts
    /// possible, section conflicts impossible).
    DifferentCpus,
    /// The two ports belong to the same CPU (section conflicts possible,
    /// simultaneous bank conflicts impossible).
    SameCpu,
}

/// Prediction for a pair of concurrent streams.
#[derive(Debug, Clone, PartialEq)]
pub enum PairPrediction {
    /// `s = m` semantics applied (different CPUs, or unsectioned memory).
    Unsectioned(PairClass),
    /// Same-CPU pair under a sectioned memory.
    Sectioned(SectionAnalysis),
}

impl PairPrediction {
    /// Exact steady-state bandwidth when the model predicts one
    /// unconditionally (i.e. independent of anything not already given).
    #[must_use]
    pub fn predicted_bandwidth(&self) -> Option<Ratio> {
        match self {
            Self::Unsectioned(class) => class.predicted_bandwidth(),
            Self::Sectioned(analysis) => match analysis.class {
                SectionClass::FullyDisjoint => Some(Ratio::integer(2)),
                SectionClass::SelfLimited
                | SectionClass::DisjointBanksSharedSections { .. }
                | SectionClass::SharedBanks { .. } => None,
            },
        }
    }
}

/// Predicts the effective bandwidth of a single stream (§III-A):
/// `b_eff = 1` for `r >= n_c`, else `r/n_c`.
#[must_use]
pub fn predict_single(geom: &Geometry, spec: &StreamSpec) -> Ratio {
    let (num, den) = spec.solo_bandwidth_ratio(geom);
    Ratio::new(num, den)
}

/// Predicts the interaction of two concurrent streams.
#[must_use]
pub fn predict_pair(
    geom: &Geometry,
    s1: &StreamSpec,
    s2: &StreamSpec,
    placement: PortPlacement,
) -> PairPrediction {
    match placement {
        PortPlacement::DifferentCpus => {
            PairPrediction::Unsectioned(classify_pair(geom, s1, s2, true))
        }
        PortPlacement::SameCpu if geom.is_unsectioned() => {
            // s = m: each bank is its own section; the dynamics match the
            // unsectioned analysis (a same-bank collision is resolved by the
            // same priority rule, merely *counted* as a section conflict).
            PairPrediction::Unsectioned(classify_pair(geom, s1, s2, true))
        }
        PortPlacement::SameCpu => PairPrediction::Sectioned(analyze_sectioned_pair(geom, s1, s2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::PairClass;
    use crate::sections::ConflictFreeRoute;

    #[test]
    fn single_stream_predictions() {
        let g = Geometry::cray_xmp(); // m = 16, n_c = 4
        let unit = StreamSpec::new(&g, 0, 1).unwrap();
        assert_eq!(predict_single(&g, &unit), Ratio::integer(1));
        let eight = StreamSpec::new(&g, 0, 8).unwrap();
        assert_eq!(predict_single(&g, &eight), Ratio::new(1, 2));
        let zero = StreamSpec::new(&g, 0, 0).unwrap();
        assert_eq!(predict_single(&g, &zero), Ratio::new(1, 4));
    }

    #[test]
    fn different_cpus_use_unsectioned_analysis() {
        // Even on the sectioned X-MP geometry, cross-CPU pairs see s = m
        // semantics: d1 = 1, d2 = 7 with m = 16, n_c = 4 gives gcd(16, 6) =
        // 2 < 8 -> not conflict-free; but d1 = 1, d2 = 9: gcd(16, 8) = 8 >= 8.
        let g = Geometry::cray_xmp();
        let s1 = StreamSpec::new(&g, 0, 1).unwrap();
        let s9 = StreamSpec::new(&g, 3, 9).unwrap();
        let p = predict_pair(&g, &s1, &s9, PortPlacement::DifferentCpus);
        assert_eq!(p, PairPrediction::Unsectioned(PairClass::ConflictFree));
        assert_eq!(p.predicted_bandwidth(), Some(Ratio::integer(2)));
    }

    #[test]
    fn same_cpu_sectioned_analysis() {
        let g = Geometry::new(12, 2, 2).unwrap();
        let s1 = StreamSpec::new(&g, 0, 1).unwrap();
        let s2 = StreamSpec::new(&g, 3, 1).unwrap();
        let p = predict_pair(&g, &s1, &s2, PortPlacement::SameCpu);
        match p {
            PairPrediction::Sectioned(a) => {
                assert_eq!(
                    a.class,
                    SectionClass::SharedBanks {
                        via: ConflictFreeRoute::Eq32
                    }
                );
            }
            other => panic!("expected sectioned analysis, got {other:?}"),
        }
    }

    #[test]
    fn same_cpu_unsectioned_geometry_falls_back() {
        let g = Geometry::unsectioned(12, 3).unwrap();
        let s1 = StreamSpec::new(&g, 0, 1).unwrap();
        let s2 = StreamSpec::new(&g, 0, 7).unwrap();
        let p = predict_pair(&g, &s1, &s2, PortPlacement::SameCpu);
        assert_eq!(p, PairPrediction::Unsectioned(PairClass::ConflictFree));
    }
}
