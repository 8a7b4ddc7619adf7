//! Isomorphism of distance pairs (paper Appendix).
//!
//! Writing `d1 ⊕ d2` for two streams with distances `d1`, `d2` competing for
//! access, the Appendix observes that for any `k` with `gcd(k, m) = 1`
//!
//! ```text
//! d1 ⊕ d2  ≡  k·d1 ⊕ k·d2   (mod m)
//! ```
//!
//! because multiplying every bank address by a unit `k` merely renumbers the
//! banks. Consequently only distances `d1 | m` need to be analysed; the
//! barrier theorems (Thms 4–7) are stated in that canonical form.
//!
//! **Scope**: the renumbering permutes banks, so it preserves *bank* and
//! *simultaneous bank* conflicts exactly, but it does **not** commute with
//! the bank→section mapping. Canonicalisation is therefore only valid for
//! the unsectioned analysis (`s = m`), or for cross-CPU pairs where access
//! paths are never a bottleneck.

use crate::geometry::Geometry;
use crate::numtheory::{coprime, gcd, unit_multiplier_to, units};
use crate::stream::StreamSpec;

/// The lexicographically smallest image of `streams` under all unit
/// renumberings `b ↦ k·b (mod m)`, `gcd(k, m) = 1`, comparing the flattened
/// `(distance, start_bank)` sequence port by port.
///
/// Two stream sets with the same canonical image are *isomorphic*: the
/// renumbering is a bijection of banks that commutes with every step of the
/// simulator's dynamics, so bank conflicts, simultaneous bank conflicts and
/// the entire cyclic state (per-port bandwidths, period, transient) coincide.
/// This is the Appendix relation `d1 ⊕ d2 ≡ k·d1 ⊕ k·d2 (mod m)` extended to
/// explicit start banks and any number of streams.
///
/// **Scope**: valid only for unsectioned geometries (`s = m`) — the
/// renumbering does not commute with the bank→section mapping. Callers (e.g.
/// `vecmem-exec`'s result cache) must fall back to the identity for
/// sectioned systems. Port order is *never* permuted: priority sits with the
/// port index, so only the bank relabelling is quotiented out.
#[must_use]
pub fn canonical_streams(geom: &Geometry, streams: &[StreamSpec]) -> Vec<StreamSpec> {
    let m = geom.banks();
    least_image(m, streams, units(m))
}

/// The lexicographically smallest image of `streams` under `b ↦ k·b (mod
/// m)` for `k = 1` or one of `units`, each below `m`; the first one wins a
/// tie. `k·x mod m` is taken in `u64` whenever `m ≤ 2^32`, where `k, x <
/// m` keeps the product below `2^64`, and in `u128` only above that.
fn least_image(
    m: u64,
    streams: &[StreamSpec],
    units: impl Iterator<Item = u64>,
) -> Vec<StreamSpec> {
    if m <= 1 << 32 {
        least_image_by(streams, units, |k, x| k * (x % m) % m)
    } else {
        least_image_by(streams, units, |k, x| {
            (u128::from(k) * u128::from(x % m) % u128::from(m)) as u64
        })
    }
}

/// [`least_image`] with `scale(k, x) = k·x mod m`. The best image so far
/// lives in the result; each candidate is compared against it element by
/// element, stops at the first difference, and is written over it only
/// when it wins.
fn least_image_by(
    streams: &[StreamSpec],
    units: impl Iterator<Item = u64>,
    scale: impl Fn(u64, u64) -> u64,
) -> Vec<StreamSpec> {
    let image = |k: u64, s: &StreamSpec| StreamSpec {
        distance: scale(k, s.distance),
        start_bank: scale(k, s.start_bank),
    };
    let mut best: Vec<StreamSpec> = streams.iter().map(|s| image(1, s)).collect();
    for k in units {
        let precedes = || {
            for (s, b) in streams.iter().zip(&best) {
                let d = scale(k, s.distance);
                if d != b.distance {
                    return d < b.distance;
                }
                let start = scale(k, s.start_bank);
                if start != b.start_bank {
                    return start < b.start_bank;
                }
            }
            false
        };
        if precedes() {
            for (b, s) in best.iter_mut().zip(streams) {
                *b = image(k, s);
            }
        }
    }
    best
}

/// A distance pair brought into the canonical form required by the barrier
/// theorems: `d1 | m` and `d2 > d1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalPair {
    /// Canonical distance of the (potential) barrier-forming stream; divides `m`.
    pub d1: u64,
    /// Canonical distance of the (potentially) delayed stream; `d2 > d1`.
    pub d2: u64,
    /// The unit multiplier `k` applied to bank addresses (`gcd(k, m) = 1`).
    pub multiplier: u64,
    /// True when the canonical `d1` corresponds to the *second* input stream
    /// (the pair had to be swapped to satisfy `d2 > d1`).
    pub swapped: bool,
}

impl CanonicalPair {
    /// Maps a bank address of the original system into the renumbered system.
    #[must_use]
    pub fn map_bank(&self, geom: &Geometry, bank: u64) -> u64 {
        (self.multiplier as u128 * bank as u128 % geom.banks() as u128) as u64
    }

    /// Maps an original stream spec into the canonical system.
    #[must_use]
    pub fn map_stream(&self, geom: &Geometry, spec: &StreamSpec) -> StreamSpec {
        StreamSpec {
            start_bank: self.map_bank(geom, spec.start_bank),
            distance: self.map_bank(geom, spec.distance),
        }
    }
}

/// Attempts to bring the unordered distance pair `{da, db}` into canonical
/// form (`d1 | m`, `d2 > d1`) via a unit renumbering.
///
/// Tries making `da` canonical first (mapping it to `gcd(m, da)`), then `db`.
/// Returns `None` when neither orientation yields `d2 > d1` — notably when
/// the two distances are "equivalent" (`k·da ≡ db` for some unit `k`, which
/// includes `da == db`); the barrier theorems do not apply there.
#[must_use]
pub fn canonicalize(geom: &Geometry, da: u64, db: u64) -> Option<CanonicalPair> {
    let m = geom.banks();
    let mut best: Option<CanonicalPair> = None;
    for (&x, &y, swapped) in [(&da, &db, false), (&db, &da, true)] {
        let g = gcd(m, x % m);
        if g == 0 {
            continue; // m would have to be 0, excluded by Geometry.
        }
        let Some(k) = unit_multiplier_to(x % m, g % m, m) else {
            continue;
        };
        debug_assert!(coprime(k, m));
        let d1 = g % m;
        let d2 = (k as u128 * (y % m) as u128 % m as u128) as u64;
        if d1 != 0 && d2 > d1 && m.is_multiple_of(d1) {
            let cand = CanonicalPair {
                d1,
                d2,
                multiplier: k,
                swapped,
            };
            // Prefer the orientation with the smaller canonical d1 so results
            // are deterministic regardless of argument order.
            match &best {
                Some(b) if b.d1 <= cand.d1 => {}
                _ => best = Some(cand),
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn geom(m: u64) -> Geometry {
        Geometry::unsectioned(m, 2).unwrap()
    }

    #[test]
    fn appendix_example_m16() {
        // Paper: 1 ⊕ 3 ≡ 5 ⊕ 15 ≡ 11 ⊕ 1 (mod 16).
        let g = geom(16);
        let c = canonicalize(&g, 5, 15).unwrap();
        assert_eq!(c.d1, 1);
        // 5 maps to 1 with k = 13 (5·13 = 65 ≡ 1), giving d2 = 15·13 ≡ 3,
        // exactly the 1 ⊕ 3 form of the Appendix.
        assert_eq!(c.d2, 3);
        assert!(!c.swapped || c.d2 > c.d1);
    }

    #[test]
    fn appendix_example_2_3_m16() {
        // 2 ⊕ 3 ≡ 6 ⊕ 9 ≡ 6 ⊕ 1 (mod 16): canonical form has d1 = 1 (from
        // the 3-side, swapped) and d2 = 6.
        let g = geom(16);
        let c = canonicalize(&g, 2, 3).unwrap();
        assert_eq!(c.d1, 1);
        assert_eq!(c.d2, 6);
        assert!(c.swapped);
        assert_eq!(16 % c.d1, 0);
    }

    #[test]
    fn canonical_invariants_hold_for_sweep() {
        for m in [8u64, 12, 13, 16, 24] {
            let g = geom(m);
            for da in 1..m {
                for db in 1..m {
                    if let Some(c) = canonicalize(&g, da, db) {
                        assert_eq!(m % c.d1, 0, "d1 must divide m: m={m} da={da} db={db}");
                        assert!(c.d2 > c.d1, "d2 > d1 required: m={m} da={da} db={db}");
                        assert!(coprime(c.multiplier, m));
                        // Return numbers are invariant under the renumbering.
                        let (orig1, orig2) = if c.swapped { (db, da) } else { (da, db) };
                        assert_eq!(g.return_number(orig1), g.return_number(c.d1));
                        assert_eq!(g.return_number(orig2), g.return_number(c.d2));
                    }
                }
            }
        }
    }

    #[test]
    fn equal_distances_have_no_canonical_form() {
        let g = geom(12);
        for d in 1..12 {
            assert!(
                canonicalize(&g, d, d).is_none(),
                "equal distances cannot satisfy d2 > d1 (d = {d})"
            );
        }
    }

    #[test]
    fn equivalent_distances_have_no_canonical_form() {
        // 1 and 5 are both units mod 12; k·1 ≡ 1 forces k = 1 and 5 > 1 works
        // though: the pair (1, 5) IS canonicalizable. A non-canonicalizable
        // distinct pair needs both to map onto the same gcd: e.g. m = 12,
        // da = 5, db = 7 -> canonical (1, 11): works. Truly impossible cases
        // are rare; verify a known one: m = 4, da = 1, db = 3 -> (1, 3). So
        // just assert the function never loops and returns consistent data.
        let g = geom(12);
        let c = canonicalize(&g, 5, 7).unwrap();
        assert_eq!(c.d1, 1);
        assert_eq!(c.d2, 11);
    }

    #[test]
    fn map_stream_preserves_structure() {
        let g = geom(16);
        let c = canonicalize(&g, 5, 15).unwrap();
        let s = StreamSpec::new(&g, 3, 5).unwrap();
        let mapped = c.map_stream(&g, &s);
        assert_eq!(mapped.distance, (c.multiplier * 5) % 16);
        assert_eq!(mapped.start_bank, (c.multiplier * 3) % 16);
        // The mapped stream's k-th bank equals the mapped k-th bank.
        for k in 0..20 {
            assert_eq!(mapped.bank_at(&g, k), c.map_bank(&g, s.bank_at(&g, k)));
        }
    }

    #[test]
    fn canonical_streams_identifies_appendix_pairs() {
        // 1 ⊕ 3 ≡ 5 ⊕ 15 ≡ 11 ⊕ 1 (mod 16): all three orbit representatives
        // collapse onto one canonical image (start banks 0 are fixed points).
        let g = geom(16);
        let mk = |d1: u64, d2: u64| {
            canonical_streams(
                &g,
                &[
                    StreamSpec {
                        start_bank: 0,
                        distance: d1,
                    },
                    StreamSpec {
                        start_bank: 0,
                        distance: d2,
                    },
                ],
            )
        };
        assert_eq!(mk(1, 3), mk(5, 15));
        assert_eq!(mk(1, 3), mk(11, 1));
        // Non-isomorphic pairs stay apart: 1 ⊕ 2 has gcd profile (1, 2),
        // 1 ⊕ 3 has (1, 1).
        assert_ne!(mk(1, 3), mk(1, 2));
    }

    #[test]
    fn canonical_streams_is_idempotent_and_in_orbit() {
        let g = geom(12);
        for d1 in 0..12u64 {
            for d2 in 0..12u64 {
                for b2 in 0..12u64 {
                    let specs = [
                        StreamSpec {
                            start_bank: 3,
                            distance: d1,
                        },
                        StreamSpec {
                            start_bank: b2,
                            distance: d2,
                        },
                    ];
                    let canon = canonical_streams(&g, &specs);
                    // Idempotent: canonicalising the canonical form is a no-op.
                    assert_eq!(canonical_streams(&g, &canon), canon);
                    // In-orbit: some unit k maps the original onto it.
                    let witness = (1..12).filter(|&k| coprime(k, 12)).any(|k| {
                        specs.iter().zip(&canon).all(|(s, c)| {
                            c.distance == k * (s.distance % 12) % 12
                                && c.start_bank == k * (s.start_bank % 12) % 12
                        })
                    });
                    assert!(witness, "no unit maps {specs:?} onto {canon:?}");
                }
            }
        }
    }

    #[test]
    fn canonical_streams_respects_port_order() {
        // (d1, d2) = (2, 3) and (3, 2) are different scenarios (priority sits
        // with port 0) and must not collapse.
        let g = geom(16);
        let a = canonical_streams(
            &g,
            &[
                StreamSpec {
                    start_bank: 0,
                    distance: 2,
                },
                StreamSpec {
                    start_bank: 0,
                    distance: 3,
                },
            ],
        );
        let b = canonical_streams(
            &g,
            &[
                StreamSpec {
                    start_bank: 0,
                    distance: 3,
                },
                StreamSpec {
                    start_bank: 0,
                    distance: 2,
                },
            ],
        );
        assert_ne!(a, b);
    }

    /// The allocating canonicalisation `canonical_streams` replaced: the
    /// full image and its order key are built for every candidate unit,
    /// in `u128`. Takes the candidate units explicitly, like
    /// `least_image`, so large moduli can be sampled.
    fn canonical_reference(
        m: u64,
        streams: &[StreamSpec],
        units: impl Iterator<Item = u64>,
    ) -> Vec<StreamSpec> {
        let flatten = |k: u64| -> Vec<StreamSpec> {
            streams
                .iter()
                .map(|s| StreamSpec {
                    distance: (k as u128 * (s.distance % m) as u128 % m as u128) as u64,
                    start_bank: (k as u128 * (s.start_bank % m) as u128 % m as u128) as u64,
                })
                .collect()
        };
        let order_key = |specs: &[StreamSpec]| -> Vec<u64> {
            specs
                .iter()
                .flat_map(|s| [s.distance, s.start_bank])
                .collect()
        };
        let mut best = flatten(1);
        let mut best_key = order_key(&best);
        for k in units {
            let cand = flatten(k);
            let key = order_key(&cand);
            if key < best_key {
                best = cand;
                best_key = key;
            }
        }
        best
    }

    fn assert_matches_reference(m: u64, streams: &[StreamSpec]) {
        let units = (2..m).filter(|&k| coprime(k, m));
        assert_eq!(
            canonical_streams(&geom(m), streams),
            canonical_reference(m, streams, units),
            "m={m} streams={streams:?}"
        );
    }

    fn spec(start_bank: u64, distance: u64) -> StreamSpec {
        StreamSpec {
            start_bank,
            distance,
        }
    }

    /// A seeded splitmix64 sequence for the sampled tiers.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn canonical_streams_matches_the_allocating_reference() {
        for m in 1..=16u64 {
            for d in 0..m {
                for b in 0..m {
                    assert_matches_reference(m, &[spec(b, d)]);
                }
            }
            for d1 in 0..m {
                for d2 in 0..m {
                    for b2 in 0..m {
                        assert_matches_reference(m, &[spec(0, d1), spec(b2, d2)]);
                    }
                }
            }
        }
        let mut next = splitmix(3);
        for ports in [3, 4] {
            for _ in 0..2_000 {
                let m = 1 + next() % 16;
                let streams: Vec<StreamSpec> = (0..ports)
                    .map(|_| spec(next() % (2 * m), next() % (2 * m)))
                    .collect();
                assert_matches_reference(m, &streams);
            }
        }
    }

    /// `least_image` and the reference agree over the same sampled
    /// units of `m`, the smallest and the largest few thousand below it,
    /// on sets of three and four streams: half with start banks from the
    /// full `u64` range and distances within 2^20 of `m`, half with both
    /// within 16 of `m`, where `k·x` for a unit as near needs the most
    /// bits.
    fn assert_least_image_matches_reference(moduli: &[u64], seed: u64) {
        let mut next = splitmix(seed);
        for &m in moduli {
            let units = || {
                (2..2_000)
                    .chain(m - 2_000..m)
                    .filter(move |&k| coprime(k, m))
            };
            for ports in [3, 4] {
                for i in 0..32 {
                    let streams: Vec<StreamSpec> = (0..ports)
                        .map(|_| {
                            if i < 16 {
                                spec(next(), m - 1 - next() % (1 << 20))
                            } else {
                                spec(m - 1 - next() % 16, m - 1 - next() % 16)
                            }
                        })
                        .collect();
                    assert_eq!(
                        least_image(m, &streams, units()),
                        canonical_reference(m, &streams, units()),
                        "m={m} streams={streams:?}"
                    );
                }
            }
        }
    }

    /// Moduli above 2^32, where `k·x` overflows `u64` and the search keeps
    /// `u128`.
    #[test]
    fn least_image_agrees_with_the_reference_above_two_to_the_32() {
        assert_least_image_matches_reference(
            &[(1u64 << 32) + 15, (1 << 40) - 87, u64::MAX - 58, u64::MAX],
            32,
        );
    }

    /// Moduli at the switch between the `u64` and the `u128` product: the
    /// largest below 2^32, 2^32 itself (the largest `m` taken in `u64`,
    /// where `(m − 1)²` just fits) and one above.
    #[test]
    fn least_image_agrees_with_the_reference_at_the_u64_boundary() {
        assert_least_image_matches_reference(&[(1u64 << 32) - 5, 1 << 32, (1 << 32) + 15], 64);
    }

    #[test]
    fn zero_distance_cannot_be_barrier_canonical() {
        let g = geom(12);
        // db = 0 maps to 0, never > d1; canonicalize on the 0 side gives
        // d1 = gcd(12, 0) = 0 which is rejected.
        assert!(canonicalize(&g, 0, 0).is_none());
        // (3, 0): canonical d1 = 3, d2 = 0 -> invalid; swap side d1 = 0 ->
        // invalid. Result: None.
        assert!(canonicalize(&g, 3, 0).is_none());
    }
}
