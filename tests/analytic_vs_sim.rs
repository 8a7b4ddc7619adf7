//! Cross-validation of the analytical model (Theorems 2–7) against the
//! cycle-accurate simulator, sweeping geometries, distances and start banks.
//!
//! This is the reproduction's equivalent of the paper's validation of its
//! analysis against Cray X-MP measurements: every unconditional prediction
//! of the model must match the simulated cyclic state *exactly*.

use vecmem_analytic::pair::classify_pair;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::steady::measure_steady_state;
use vecmem_banksim::SimConfig;
use vecmem_exec::{ResultCache, Runner, SweepBuilder};

const MAX_CYCLES: u64 = 2_000_000;

/// Sweeps all (d1, d2, b2) for one geometry and judges every point with
/// its class's [`admits`](vecmem_analytic::PairClass::admits).
///
/// The sweep runs on the shared `vecmem-exec` runner with isomorphism-keyed
/// caching: coprime-scaled triples simulate once and replay. Every point is
/// still asserted against its own analytic class, so a cache that conflated
/// non-isomorphic scenarios would fail here loudly.
fn validate_geometry(m: u64, nc: u64) {
    let geom = Geometry::unsectioned(m, nc).unwrap();
    // Sweep BOTH orders: the hardware priority sits with port 0, so
    // (d1, d2) and (d2, d1) are not equivalent at eq. 28's equality
    // boundary (the swapped canonicalisation must flip the priority
    // flag — a bug caught exactly here once).
    let plan = SweepBuilder::new(geom)
        .d1_values(0..m)
        .d2_values(0..m)
        .all_start_banks()
        .cycle_budget(MAX_CYCLES)
        .build();
    let cache = ResultCache::new();
    let (outcomes, report) = Runner::new().run_cached(&plan.scenarios, &cache);
    assert!(
        report.cache.hits > 0,
        "m={m}: φ(m) > 1, some triples must replay from the cache: {report:?}"
    );
    for (point, outcome) in plan.points.iter().zip(&outcomes) {
        let (d1, d2, b2) = (point.d1, point.d2, point.b2);
        let s1 = StreamSpec::new(&geom, 0, d1).unwrap();
        let s2 = StreamSpec::new(&geom, b2, d2).unwrap();
        let class = classify_pair(&geom, &s1, &s2, true);
        let steady = outcome
            .clone()
            .unwrap_or_else(|e| panic!("m={m} nc={nc} d1={d1} d2={d2} b2={b2}: {e}"));
        let (beff, free) = (steady.beff, steady.conflict_free());
        assert!(
            class.admits(beff, free),
            "m={m} nc={nc} d1={d1} d2={d2} b2={b2}: class={class:?}, \
             simulated {beff}, conflict-free {free}"
        );
    }
}

#[test]
fn validate_m12_nc3() {
    validate_geometry(12, 3);
}

/// `3 ⊕ 8` and `3 ⊕ 4` are isomorphic here, so they share one
/// canonical form and one eq. 29 prediction, `7/4`.
#[test]
fn validate_m12_nc2() {
    validate_geometry(12, 2);
}

#[test]
fn validate_m13_nc4() {
    validate_geometry(13, 4);
}

#[test]
fn validate_m13_nc6() {
    validate_geometry(13, 6);
}

#[test]
fn validate_m16_nc4_xmp_memory() {
    validate_geometry(16, 4);
}

#[test]
fn validate_m16_nc2() {
    validate_geometry(16, 2);
}

#[test]
fn validate_m8_nc3() {
    validate_geometry(8, 3);
}

#[test]
fn validate_m24_nc4() {
    validate_geometry(24, 4);
}

#[test]
fn validate_prime_banks_m17_nc5() {
    validate_geometry(17, 5);
}

#[test]
fn validate_nc1_trivial_bank_cycle() {
    validate_geometry(12, 1);
}

/// Theorem 2 (existential): when `gcd(m, d1, d2) > 1`, some start offset
/// gives disjoint sets; when it is 1, no offset does.
#[test]
fn theorem2_existential_matches_simulation() {
    let m = 12;
    let nc = 3;
    let geom = Geometry::unsectioned(m, nc).unwrap();
    let config = SimConfig::one_port_per_cpu(geom, 2);
    for d1 in 1..m {
        for d2 in 1..m {
            let achievable = vecmem_analytic::pair::disjoint_sets_achievable(&geom, d1, d2);
            let mut found_disjoint = false;
            for b2 in 0..m {
                let s1 = StreamSpec::new(&geom, 0, d1).unwrap();
                let s2 = StreamSpec::new(&geom, b2, d2).unwrap();
                if vecmem_analytic::stream::access_sets_disjoint(&geom, &s1, &s2) {
                    found_disjoint = true;
                    // Disjoint sets mean zero *interaction*: each stream
                    // performs exactly at its solo bandwidth (which is below
                    // 1 for self-conflicting streams).
                    let ss = measure_steady_state(&config, &[s1, s2], MAX_CYCLES).unwrap();
                    let expect = vecmem_analytic::predict_single(&geom, &s1)
                        .add(&vecmem_analytic::predict_single(&geom, &s2));
                    assert_eq!(ss.beff, expect, "d1={d1} d2={d2} b2={b2}");
                }
            }
            assert_eq!(achievable, found_disjoint, "d1={d1} d2={d2}");
        }
    }
}
