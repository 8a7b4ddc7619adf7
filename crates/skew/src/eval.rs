//! Evaluating skewing schemes on the cycle-accurate simulator.
//!
//! A [`Mapped`] access pattern routes an [`IndexPattern`]-generated
//! address walk through an arbitrary [`BankMapping`]. Strided address
//! streams ([`AddressStream`]) are the affine special case, indexed
//! gathers the general one. Driven through the shared
//! [`PatternWorkload`] adapter, the steady-state machinery of
//! `vecmem-banksim` then yields exact effective bandwidths, so schemes can
//! be compared stride by stride against plain interleaving, and under
//! irregular indexing too ([`gather_bandwidth`]).

use crate::scheme::BankMapping;
use vecmem_analytic::Ratio;
use vecmem_banksim::pattern::{AccessPattern, IndexPattern, PatternPort, PatternWorkload};
use vecmem_banksim::steady::{measure_steady_state_workload, SteadyState, SteadyStateError};
use vecmem_banksim::{Request, SimConfig};

/// An infinite strided address stream evaluated through a bank mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressStream {
    /// First word address.
    pub start: u64,
    /// Address stride.
    pub stride: u64,
}

/// An index walk routed through a [`BankMapping`], as an
/// [`AccessPattern`]: `addr(k) = base + ix(k)`, bank
/// `mapping.bank_of(addr mod P)` with `P` the mapping's address period.
///
/// The mapping decides a request from `addr mod P` alone, so the slot is
/// `k mod T` with `T` = [`IndexPattern::request_period`]`(span, P)`
/// (marker `T`). Pseudo-random index vectors are aperiodic: the slot is the
/// raw issue count, the bound and the periodicity hint are `None`, and the
/// steady-state solver answers with a windowed estimate.
#[derive(Debug)]
pub struct Mapped<'a, M: BankMapping + ?Sized> {
    mapping: &'a M,
    base: u64,
    span: u64,
    index: IndexPattern,
    period: Option<u64>,
}

impl<'a, M: BankMapping + ?Sized> Mapped<'a, M> {
    /// A gather over `base .. base + span` through `mapping`.
    ///
    /// # Panics
    /// If `span` is zero.
    #[must_use]
    pub fn gather(mapping: &'a M, base: u64, span: u64, index: IndexPattern) -> Self {
        assert!(span > 0, "gather span must be positive");
        Self {
            mapping,
            base,
            span,
            index,
            period: index.request_period(span, mapping.address_period()),
        }
    }

    /// The strided address stream `start + k·stride`: the affine index
    /// walk `ix(k) = (stride·k + start) mod P` over one address period,
    /// with period `P / gcd(stride mod P, P)`.
    #[must_use]
    pub fn stream(mapping: &'a M, stream: AddressStream) -> Self {
        let index = IndexPattern::Affine {
            a: stream.stride,
            c: stream.start,
        };
        Self::gather(mapping, 0, mapping.address_period(), index)
    }
}

// Manual impls: deriving would demand `M: Clone`, which trait objects are
// not; only the mapping reference is shared.
impl<M: BankMapping + ?Sized> Clone for Mapped<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: BankMapping + ?Sized> Copy for Mapped<'_, M> {}

impl<M: BankMapping + ?Sized> AccessPattern for Mapped<'_, M> {
    fn request_at(&self, k: u64) -> Request {
        let addr = u128::from(self.base) + u128::from(self.index.index(k, self.span));
        let reduced = addr % u128::from(self.mapping.address_period());
        Request::to_bank(self.mapping.bank_of(reduced as u64))
    }

    fn encode_slot(&self, k: u64, _cooldown: u64) -> u64 {
        self.period.map_or(k, |p| k % p)
    }

    fn decode_slot(&self, slot: u64) -> (u64, u64) {
        (slot, 0)
    }

    fn finished_code(&self) -> u64 {
        self.period.unwrap_or(u64::MAX)
    }

    fn slot_bound(&self) -> Option<u64> {
        self.period
    }

    fn period_hint(&self) -> Option<u64> {
        self.period
    }
}

/// Steady state of one infinite [`Mapped`] port per configured port.
fn measure<'a, M: BankMapping + ?Sized + 'a>(
    config: &SimConfig,
    patterns: impl IntoIterator<Item = Mapped<'a, M>>,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    let ports: Vec<_> = patterns.into_iter().map(PatternPort::new).collect();
    assert_eq!(config.num_ports(), ports.len());
    measure_steady_state_workload(config, &mut PatternWorkload::new(ports), 0, max_cycles)
}

/// Steady state of a single-port indexed gather under a mapping (exact
/// for affine index vectors, windowed estimate for pseudo-random ones).
///
/// # Errors
/// Returns a [`SteadyStateError`] when the state neither recurs nor can be
/// estimated within `max_cycles`.
pub fn gather_bandwidth<M: BankMapping + ?Sized>(
    mapping: &M,
    config: &SimConfig,
    base: u64,
    span: u64,
    index: IndexPattern,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    measure(
        config,
        [Mapped::gather(mapping, base, span, index)],
        max_cycles,
    )
}

/// Steady-state bandwidth of one address stream under a mapping.
///
/// ```
/// use vecmem_skew::{eval::{single_stream_bandwidth, AddressStream}, Interleaved};
/// use vecmem_banksim::SimConfig;
/// use vecmem_analytic::{Geometry, Ratio};
/// let geom = Geometry::unsectioned(16, 4).unwrap();
/// let cfg = SimConfig::single_cpu(geom, 1);
/// let beff = single_stream_bandwidth(
///     &Interleaved { banks: 16 }, &cfg,
///     AddressStream { start: 0, stride: 8 }, 100_000,
/// ).unwrap();
/// assert_eq!(beff, Ratio::new(1, 2)); // r = 2 < n_c = 4
/// ```
///
/// # Errors
/// Returns a [`SteadyStateError`] when no cyclic state is found within
/// `max_cycles`.
pub fn single_stream_bandwidth<M: BankMapping + ?Sized>(
    mapping: &M,
    config: &SimConfig,
    stream: AddressStream,
    max_cycles: u64,
) -> Result<Ratio, SteadyStateError> {
    Ok(measure(config, [Mapped::stream(mapping, stream)], max_cycles)?.beff)
}

/// Steady-state bandwidth of a pair of address streams under a mapping.
///
/// # Errors
/// Returns a [`SteadyStateError`] when no cyclic state is found within
/// `max_cycles`.
pub fn pair_bandwidth<M: BankMapping + ?Sized>(
    mapping: &M,
    config: &SimConfig,
    streams: [AddressStream; 2],
    max_cycles: u64,
) -> Result<Ratio, SteadyStateError> {
    let patterns = streams.map(|s| Mapped::stream(mapping, s));
    Ok(measure(config, patterns, max_cycles)?.beff)
}

/// One row of a scheme-comparison table: the bandwidth each stride achieves.
#[derive(Debug, Clone, PartialEq)]
pub struct StrideRow {
    /// The evaluated stride.
    pub stride: u64,
    /// Solo steady-state bandwidth under the scheme.
    pub solo: Ratio,
    /// Bandwidth of the pair (stride, 1) — the stream against a unit-stride
    /// competitor, as in the paper's triad environment.
    pub against_unit: Ratio,
}

/// Evaluates a scheme over strides `1..=max_stride`.
///
/// # Errors
/// Returns a [`SteadyStateError`] when any stride fails to reach a cyclic
/// state within `max_cycles`.
pub fn stride_table<M: BankMapping + ?Sized>(
    mapping: &M,
    geom_bank_cycle: u64,
    max_stride: u64,
    max_cycles: u64,
) -> Result<Vec<StrideRow>, SteadyStateError> {
    #[expect(
        clippy::expect_used,
        reason = "a mapping has at least one bank, and callers pass a nonzero bank cycle"
    )]
    let geom =
        vecmem_analytic::Geometry::unsectioned(mapping.banks(), geom_bank_cycle).expect("geometry");
    let solo_cfg = SimConfig::single_cpu(geom, 1);
    let pair_cfg = SimConfig::one_port_per_cpu(geom, 2);
    let mut rows = Vec::new();
    for stride in 1..=max_stride {
        let solo = single_stream_bandwidth(
            mapping,
            &solo_cfg,
            AddressStream { start: 0, stride },
            max_cycles,
        )?;
        let against_unit = pair_bandwidth(
            mapping,
            &pair_cfg,
            [
                AddressStream { start: 0, stride },
                AddressStream {
                    start: 1,
                    stride: 1,
                },
            ],
            max_cycles,
        )?;
        rows.push(StrideRow {
            stride,
            solo,
            against_unit,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearSkew;
    use crate::prime::PrimeInterleaved;
    use crate::scheme::Interleaved;
    use crate::xorfold::XorFold;
    use vecmem_analytic::Geometry;

    fn solo_cfg(m: u64, nc: u64) -> SimConfig {
        SimConfig::single_cpu(Geometry::unsectioned(m, nc).unwrap(), 1)
    }

    #[test]
    fn interleaved_matches_analytic_model() {
        // The Interleaved mapping must reproduce §III-A exactly.
        let m = 16;
        let nc = 4;
        let mapping = Interleaved { banks: m };
        let cfg = solo_cfg(m, nc);
        let geom = Geometry::unsectioned(m, nc).unwrap();
        for stride in 0..32 {
            let got = single_stream_bandwidth(
                &mapping,
                &cfg,
                AddressStream { start: 0, stride },
                100_000,
            )
            .unwrap();
            let spec = vecmem_analytic::StreamSpec::from_address(&geom, 0, stride);
            let want = vecmem_analytic::predict_single(&geom, &spec);
            assert_eq!(got, want, "stride = {stride}");
        }
    }

    #[test]
    fn xor_fold_fixes_power_of_two_strides() {
        // Plain interleaving: stride 16 on m = 16, n_c = 4 gives 1/4. The
        // XOR fold restores full bandwidth.
        let plain = single_stream_bandwidth(
            &Interleaved { banks: 16 },
            &solo_cfg(16, 4),
            AddressStream {
                start: 0,
                stride: 16,
            },
            100_000,
        )
        .unwrap();
        assert_eq!(plain, Ratio::new(1, 4));
        let folded = single_stream_bandwidth(
            &XorFold::new(16),
            &solo_cfg(16, 4),
            AddressStream {
                start: 0,
                stride: 16,
            },
            100_000,
        )
        .unwrap();
        assert_eq!(folded, Ratio::integer(1));
    }

    #[test]
    fn classic_skew_fixes_column_stride() {
        // Stride m (matrix column) is the worst case unskewed and perfect
        // with the classic skew.
        let m = 8;
        let skew = LinearSkew::classic(m);
        let beff = single_stream_bandwidth(
            &skew,
            &solo_cfg(m, 4),
            AddressStream {
                start: 0,
                stride: m,
            },
            100_000,
        )
        .unwrap();
        assert_eq!(beff, Ratio::integer(1));
    }

    #[test]
    fn stride_table_shape() {
        let rows = stride_table(&Interleaved { banks: 8 }, 2, 8, 100_000).unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].stride, 1);
        assert_eq!(rows[0].solo, Ratio::integer(1));
        // Stride 8 ≡ 0 (mod 8): r = 1, solo = 1/2 with n_c = 2.
        assert_eq!(rows[7].solo, Ratio::new(1, 2));
    }

    #[test]
    fn affine_gather_exact_and_mapping_sensitive() {
        // a = m on m banks: the unskewed gather hammers one bank (1/n_c);
        // the classic skew spreads the same address walk perfectly. Both
        // are exact periodic solutions, not windowed estimates.
        let m = 8;
        let cfg = solo_cfg(m, 4);
        let ix = IndexPattern::Affine { a: m, c: 0 };
        let plain =
            gather_bandwidth(&Interleaved { banks: m }, &cfg, 0, 1 << 16, ix, 100_000).unwrap();
        assert!(plain.exact);
        assert_eq!(plain.beff, Ratio::new(1, 4));
        let skewed =
            gather_bandwidth(&LinearSkew::classic(m), &cfg, 0, 1 << 16, ix, 100_000).unwrap();
        assert!(skewed.exact);
        assert_eq!(skewed.beff, Ratio::integer(1));
    }

    #[test]
    fn affine_gather_period_follows_the_mapping_period() {
        // ix(k) = 3k over 2^16 words: the address period 16 of plain
        // interleaving divides the span, so banks repeat after 16 grants;
        // the prime mapping's 13 does not, so the full index period stays.
        let ix = IndexPattern::Affine { a: 3, c: 0 };
        let plain = Interleaved { banks: 16 };
        let p = Mapped::gather(&plain, 0, 1 << 16, ix);
        assert_eq!(p.slot_bound(), Some(16));
        let prime = PrimeInterleaved::new(13);
        let p = Mapped::gather(&prime, 0, 1 << 16, ix);
        assert_eq!(p.slot_bound(), Some(1 << 16));
    }

    #[test]
    fn unit_affine_gather_matches_unit_stride() {
        // ix(k) = k degenerates to the unit-stride stream: every mapping
        // must agree with its own single_stream_bandwidth answer.
        let cfg = solo_cfg(16, 4);
        for scheme in [
            &Interleaved { banks: 16 } as &dyn BankMapping,
            &LinearSkew::classic(16),
            &XorFold::new(16),
        ] {
            let gather = gather_bandwidth(
                scheme,
                &cfg,
                0,
                1 << 16,
                IndexPattern::Affine { a: 1, c: 0 },
                100_000,
            )
            .unwrap()
            .beff;
            let stream = single_stream_bandwidth(
                scheme,
                &cfg,
                AddressStream {
                    start: 0,
                    stride: 1,
                },
                100_000,
            )
            .unwrap();
            assert_eq!(gather, stream, "{}", scheme.name());
        }
    }

    #[test]
    fn random_gather_estimated_and_skew_insensitive() {
        // Pseudo-random indexing is aperiodic: the solver falls back to the
        // windowed estimate. No skew scheme can help (the address stream is
        // already pattern-free), so all mappings land in the same random
        // regime between 1/n_c and 1.
        let cfg = solo_cfg(16, 4);
        let ix = IndexPattern::PseudoRandom { seed: 11 };
        let mut beffs = Vec::new();
        for scheme in [
            &Interleaved { banks: 16 } as &dyn BankMapping,
            &LinearSkew::classic(16),
            &XorFold::new(16),
        ] {
            let ss = gather_bandwidth(scheme, &cfg, 0, 1 << 16, ix, 1 << 20).unwrap();
            assert!(!ss.exact, "{} should be a windowed estimate", scheme.name());
            let beff = ss.beff.to_f64();
            assert!(beff > 0.5 && beff < 0.95, "{}: {beff}", scheme.name());
            beffs.push(beff);
        }
        let (min, max) = (
            beffs.iter().cloned().fold(f64::INFINITY, f64::min),
            beffs.iter().cloned().fold(0.0, f64::max),
        );
        assert!(
            max - min < 0.1,
            "schemes diverged on random gather: {beffs:?}"
        );
    }

    #[test]
    fn unit_stride_under_all_schemes() {
        // Plain interleaving and linear skew keep unit stride perfect. The
        // XOR fold trades a sliver of unit-stride bandwidth (a reused bank
        // at some row transitions) for power-of-two robustness — a real,
        // documented cost of pseudo-random interleavings.
        let cfg = solo_cfg(16, 4);
        let exact: [(&dyn BankMapping, Ratio); 3] = [
            (&Interleaved { banks: 16 }, Ratio::integer(1)),
            (&LinearSkew::classic(16), Ratio::integer(1)),
            (&XorFold::new(16), Ratio::new(128, 131)),
        ];
        for (scheme, want) in exact {
            let unit = AddressStream {
                start: 0,
                stride: 1,
            };
            let beff = single_stream_bandwidth(scheme, &cfg, unit, 100_000).unwrap();
            assert_eq!(beff, want, "{}", scheme.name());
            assert!(beff >= Ratio::new(9, 10), "{}", scheme.name());
        }
    }

    #[test]
    fn mapped_stream_period_is_the_address_realignment() {
        // A stride-s stream realigns with the mapping's address period P
        // after P / gcd(s, P) elements, and its banks repeat with that
        // period, for every scheme and every stride in 0..2P.
        for scheme in [
            &Interleaved { banks: 12 } as &dyn BankMapping,
            &LinearSkew::classic(8),
            &XorFold::new(16),
            &PrimeInterleaved::new(13),
        ] {
            let p = scheme.address_period();
            for stride in 0..2 * p {
                let mapped = Mapped::stream(scheme, AddressStream { start: 5, stride });
                let period = p / vecmem_analytic::numtheory::gcd(stride, p);
                let label = format!("{} stride {stride}", scheme.name());
                assert_eq!(mapped.period_hint(), Some(period), "{label}");
                for k in 0..2 * period {
                    assert_eq!(
                        mapped.request_at(k + period),
                        mapped.request_at(k),
                        "{label}, k = {k}"
                    );
                }
            }
        }
    }
}
