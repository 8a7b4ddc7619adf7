//! Soundness of the isomorphism quotient behind the exec-layer result
//! cache.
//!
//! The cache keys steady-state scenarios by
//! `analytic::isomorphism::canonical_streams` (through
//! `exec::steady_key`): two stream sets that differ only by a unit bank
//! renumbering `b -> k*b (mod m)`, `gcd(k, m) = 1`, share a key and are
//! answered by one simulation. That is only sound if key equality implies
//! *identical* simulator statistics — and only on unsectioned geometries,
//! where the renumbering is a true automorphism of the memory system.
//! These tests pin both halves of that contract against the real engine.
//!
//! The exhaustive conformance sweep quotients by the same relation without
//! a cache: each point of a chunk replays the outcome of its orbit
//! representative (`oracle::conform::ChunkSpace::representatives`). The
//! last test shows that this partition is exactly the key's, so the
//! soundness proved here carries over to the sweep.

use vecmem::analytic::isomorphism::canonical_streams;
use vecmem::analytic::numtheory::coprime;
use vecmem::banksim::{Engine, PatternWorkload, PriorityRule, SimConfig, SimStats};
use vecmem::exec::steady_key;
use vecmem::oracle::conform::ChunkSpace;
use vecmem::oracle::SweepBounds;
use vecmem::{Geometry, SectionMapping, StreamSpec};
use vecmem_prop::prelude::*;

/// Cycles of lockstep simulation compared per case; covers the transient
/// and several periods for every geometry in range.
const RUN: u64 = 256;

fn stats_of(config: &SimConfig, streams: &[StreamSpec], cycles: u64) -> SimStats {
    let mut engine = Engine::new(config.clone());
    let mut workload = PatternWorkload::strided(&config.geometry, streams);
    for _ in 0..cycles {
        engine.step(&mut workload);
    }
    engine.stats().clone()
}

fn scaled_by(streams: &[StreamSpec], k: u64, m: u64) -> Vec<StreamSpec> {
    streams
        .iter()
        .map(|s| StreamSpec {
            start_bank: k * (s.start_bank % m) % m,
            distance: k * (s.distance % m) % m,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unsectioned geometries: a unit renumbering produces the same cache
    /// key, and the real engine produces byte-identical `SimStats` for the
    /// original and renumbered streams — under every port topology and
    /// priority rule the cache serves.
    #[test]
    fn equal_keys_imply_identical_stats(
        m in 2u64..=16,
        nc in 1u64..=4,
        d1 in 0u64..16,
        d2 in 0u64..16,
        b1 in 0u64..16,
        b2 in 0u64..16,
        k in 2u64..16,
    ) {
        let geom = Geometry::unsectioned(m, nc).unwrap();
        let k = k % m;
        prop_assume!(k >= 2 && coprime(k, m));
        let streams = vec![
            StreamSpec { start_bank: b1 % m, distance: d1 % m },
            StreamSpec { start_bank: b2 % m, distance: d2 % m },
        ];
        let scaled = scaled_by(&streams, k, m);
        prop_assert_eq!(
            canonical_streams(&geom, &streams),
            canonical_streams(&geom, &scaled)
        );
        for same_cpu in [false, true] {
            for priority in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                let config = if same_cpu {
                    SimConfig::single_cpu(geom, 2)
                } else {
                    SimConfig::one_port_per_cpu(geom, 2)
                }
                .with_priority(priority);
                prop_assert_eq!(
                    steady_key(&config, &streams, RUN),
                    steady_key(&config, &scaled, RUN)
                );
                prop_assert_eq!(
                    stats_of(&config, &streams, RUN),
                    stats_of(&config, &scaled, RUN)
                );
            }
        }
    }
}

/// Sectioned geometry with the consecutive (block) mapping: bank
/// renumbering does not map section blocks to section blocks, so unit
/// scaling is *not* an isomorphism — the same stream pair and its unit-5
/// image behave differently, and the cache key must keep them apart.
///
/// Pinned counterexample (m = 12, s = 3, n_c = 3, both ports on one CPU):
/// (0,1),(1,1) is conflict-free with b_eff = 2 while its unit-5 image
/// (0,5),(5,5) suffers section conflicts and lands at b_eff = 16/11.
#[test]
fn sectioned_consecutive_defeats_unit_scaling() {
    let geom = Geometry::with_mapping(12, 3, 3, SectionMapping::Consecutive).unwrap();
    let streams = vec![
        StreamSpec {
            start_bank: 0,
            distance: 1,
        },
        StreamSpec {
            start_bank: 1,
            distance: 1,
        },
    ];
    let scaled = scaled_by(&streams, 5, 12);
    let config = SimConfig::single_cpu(geom, 2);

    // The unsectioned quotient WOULD have merged the two stream sets...
    let flat = Geometry::unsectioned(12, 3).unwrap();
    assert_eq!(
        canonical_streams(&flat, &streams),
        canonical_streams(&flat, &scaled)
    );

    // ...but the sectioned dynamics genuinely differ...
    let a = stats_of(&config, &streams, 512);
    let b = stats_of(&config, &scaled, 512);
    assert_ne!(a, b, "unit-5 image must behave differently when sectioned");
    let grants = |s: &SimStats| s.ports().iter().map(|p| p.grants).sum::<u64>();
    assert!(
        grants(&a) > grants(&b),
        "conflict-free original should out-grant its scaled image: {} vs {}",
        grants(&a),
        grants(&b)
    );

    // ...so the cache key must NOT collapse them.
    assert_ne!(
        steady_key(&config, &streams, 10_000),
        steady_key(&config, &scaled, 10_000),
        "sectioned scenarios must not share a canonical key"
    );
}

/// Cyclic section mapping: a unit renumbering happens to relabel sections
/// bijectively (`gcd(k, s) = 1` since `s | m`), so the dynamics agree —
/// yet the key still conservatively keeps sectioned scenarios apart.
/// Pins that the quotient prefers soundness over maximal sharing.
#[test]
fn sectioned_cyclic_is_conservatively_uncollapsed() {
    let geom = Geometry::with_mapping(12, 3, 3, SectionMapping::Cyclic).unwrap();
    let streams = vec![
        StreamSpec {
            start_bank: 0,
            distance: 1,
        },
        StreamSpec {
            start_bank: 1,
            distance: 1,
        },
    ];
    let scaled = scaled_by(&streams, 5, 12);
    let config = SimConfig::single_cpu(geom, 2);
    assert_eq!(
        stats_of(&config, &streams, 512),
        stats_of(&config, &scaled, 512)
    );
    assert_ne!(
        steady_key(&config, &streams, 10_000),
        steady_key(&config, &scaled, 10_000)
    );
}

/// Over every chunk of the exhaustive sweep at its default bounds (every
/// geometry `m <= 16`, `n_c <= 4`, both topologies and priority rules, one
/// to three ports), two points share an orbit representative exactly when
/// `steady_key` gives them equal keys: the first point of each key is its
/// own representative, and every later point of that key is represented
/// by it.
#[test]
fn sweep_orbits_are_the_key_partition() {
    let bounds = SweepBounds::default();
    let mut chunks = 0;
    for m in 1..=bounds.max_banks {
        for ports in 1..=bounds.max_ports {
            let space = ChunkSpace::new(m, ports);
            let rep = space.representatives();
            for nc in 1..=bounds.max_nc {
                let geom = Geometry::unsectioned(m, nc).unwrap();
                for same_cpu in [false, true] {
                    for priority in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                        let config = if same_cpu {
                            SimConfig::single_cpu(geom, ports)
                        } else {
                            SimConfig::one_port_per_cpu(geom, ports)
                        }
                        .with_priority(priority);
                        let mut first = std::collections::HashMap::new();
                        for (i, &r) in rep.iter().enumerate() {
                            let streams = &space.streams(i)[..ports];
                            let key = steady_key(&config, streams, bounds.steady_budget);
                            let owner = *first.entry(key).or_insert(i);
                            assert_eq!(
                                r, owner,
                                "m={m} nc={nc} {config:?} {streams:?}: representative {r}, \
                                 first point of the key {owner}"
                            );
                        }
                        chunks += 1;
                    }
                }
            }
        }
    }
    assert_eq!(chunks, 16 * 3 * 4 * 4);
}
