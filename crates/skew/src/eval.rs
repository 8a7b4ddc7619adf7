//! Evaluating skewing schemes on the cycle-accurate simulator.
//!
//! A [`MappedStreamWorkload`] drives strided *address* streams through an
//! arbitrary [`BankMapping`]; the steady-state machinery of
//! `vecmem-banksim` then yields exact effective bandwidths, so schemes can
//! be compared stride by stride against plain interleaving. The
//! generalized workload layer extends the same treatment to indexed
//! gathers: [`MappedGatherWorkload`] routes an
//! [`IndexPattern`]-generated address walk through a mapping, so skew
//! schemes can be compared under irregular indexing too
//! ([`gather_bandwidth`]).

use crate::scheme::BankMapping;
use vecmem_analytic::Ratio;
use vecmem_banksim::pattern::IndexPattern;
use vecmem_banksim::steady::{measure_steady_state_workload, ObservableWorkload, SteadyStateError};
use vecmem_banksim::{PortId, Request, SimConfig, Workload};

/// An infinite strided address stream evaluated through a bank mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressStream {
    /// First word address.
    pub start: u64,
    /// Address stride.
    pub stride: u64,
}

/// Strided address streams routed through a [`BankMapping`].
///
/// `Clone` is implemented manually (the steady-state solver replays
/// pristine clones of the workload): the mapping reference is shared, the
/// per-stream positions are copied.
pub struct MappedStreamWorkload<'a, M: BankMapping + ?Sized> {
    mapping: &'a M,
    streams: Vec<AddressStream>,
    issued: Vec<u64>,
    /// Per-stream position period: the bank sequence of stream `i` repeats
    /// with this period in the element index.
    index_period: Vec<u64>,
}

impl<'a, M: BankMapping + ?Sized> MappedStreamWorkload<'a, M> {
    /// Builds the workload; stream `i` drives port `i`.
    #[must_use]
    pub fn new(mapping: &'a M, streams: Vec<AddressStream>) -> Self {
        let p = mapping.address_period();
        let index_period = streams
            .iter()
            .map(|s| {
                if s.stride == 0 {
                    1
                } else {
                    // Smallest T with T·stride ≡ 0 (mod P): addresses then
                    // realign with the mapping period.
                    let g = vecmem_analytic::numtheory::gcd(s.stride, p);
                    p / g
                }
            })
            .collect();
        let issued = vec![0; streams.len()];
        Self {
            mapping,
            streams,
            issued,
            index_period,
        }
    }

    fn bank(&self, port: usize) -> u64 {
        let s = self.streams[port];
        let addr = s.start as u128 + self.issued[port] as u128 * s.stride as u128;
        // Reduce the address within the mapping period to keep it bounded.
        let p = self.mapping.address_period() as u128;
        self.mapping.bank_of((addr % p) as u64)
    }
}

impl<M: BankMapping + ?Sized> Workload for MappedStreamWorkload<'_, M> {
    fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
        if port.0 >= self.streams.len() {
            return None;
        }
        Some(Request::to_bank(self.bank(port.0)))
    }

    fn granted(&mut self, port: PortId, _now: u64) {
        let i = port.0;
        self.issued[i] = (self.issued[i] + 1) % self.index_period[i];
    }

    fn is_finished(&self) -> bool {
        false
    }
}

impl<M: BankMapping + ?Sized> Clone for MappedStreamWorkload<'_, M> {
    fn clone(&self) -> Self {
        Self {
            mapping: self.mapping,
            streams: self.streams.clone(),
            issued: self.issued.clone(),
            index_period: self.index_period.clone(),
        }
    }
}

impl<M: BankMapping + ?Sized> ObservableWorkload for MappedStreamWorkload<'_, M> {
    fn signature_len(&self) -> usize {
        self.issued.len()
    }

    fn write_signature(&self, out: &mut [u64]) {
        out.copy_from_slice(&self.issued);
    }
}

/// A single-port indexed gather routed through a [`BankMapping`]:
/// `addr(k) = base + ix(k)`, bank `mapping.bank_of(addr mod P)`.
///
/// Affine index vectors make the workload periodic in the element index
/// (the reduced address `addr mod P` repeats with
/// [`IndexPattern::request_period`]), so the steady-state solver finds an
/// exact cyclic state; pseudo-random indexing is aperiodic and measured
/// with the budgeted windowed estimate.
pub struct MappedGatherWorkload<'a, M: BankMapping + ?Sized> {
    mapping: &'a M,
    base: u64,
    span: u64,
    index: IndexPattern,
    issued: u64,
    /// Period of `addr mod P` in `k`, `None` when aperiodic.
    period: Option<u64>,
}

impl<'a, M: BankMapping + ?Sized> MappedGatherWorkload<'a, M> {
    /// A gather over `base .. base + span` through `mapping`, on port 0.
    ///
    /// # Panics
    /// If `span` is zero.
    #[must_use]
    pub fn new(mapping: &'a M, base: u64, span: u64, index: IndexPattern) -> Self {
        assert!(span > 0, "gather span must be positive");
        Self {
            mapping,
            base,
            span,
            index,
            issued: 0,
            period: index.request_period(span, mapping.address_period()),
        }
    }

    fn bank(&self) -> u64 {
        let addr = self.base as u128 + u128::from(self.index.index(self.issued, self.span));
        let p = self.mapping.address_period() as u128;
        self.mapping.bank_of((addr % p) as u64)
    }
}

impl<M: BankMapping + ?Sized> Workload for MappedGatherWorkload<'_, M> {
    fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
        (port.0 == 0).then(|| Request::to_bank(self.bank()))
    }

    fn granted(&mut self, port: PortId, _now: u64) {
        debug_assert_eq!(port.0, 0);
        self.issued = match self.period {
            Some(p) => (self.issued + 1) % p,
            None => self.issued + 1,
        };
    }

    fn is_finished(&self) -> bool {
        false
    }
}

impl<M: BankMapping + ?Sized> Clone for MappedGatherWorkload<'_, M> {
    fn clone(&self) -> Self {
        Self {
            mapping: self.mapping,
            ..*self
        }
    }
}

impl<M: BankMapping + ?Sized> ObservableWorkload for MappedGatherWorkload<'_, M> {
    fn signature_len(&self) -> usize {
        1
    }

    fn write_signature(&self, out: &mut [u64]) {
        out[0] = self.issued;
    }

    fn signature_bound(&self) -> Option<u64> {
        self.period
    }

    fn periodic(&self) -> bool {
        self.period.is_some()
    }
}

/// Steady-state bandwidth of a single-port indexed gather under a mapping
/// (exact for affine index vectors, windowed estimate for pseudo-random
/// ones).
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
) -> Result<Ratio, SteadyStateError> {
    assert_eq!(config.num_ports(), 1);
    let mut w = MappedGatherWorkload::new(mapping, base, span, index);
    Ok(measure_steady_state_workload(config, &mut w, 0, max_cycles)?.beff)
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
    assert_eq!(config.num_ports(), 1);
    let mut w = MappedStreamWorkload::new(mapping, vec![stream]);
    Ok(measure_steady_state_workload(config, &mut w, 0, max_cycles)?.beff)
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
    assert_eq!(config.num_ports(), 2);
    let mut w = MappedStreamWorkload::new(mapping, streams.to_vec());
    Ok(measure_steady_state_workload(config, &mut w, 0, max_cycles)?.beff)
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
        assert_eq!(plain, Ratio::new(1, 4));
        let skewed =
            gather_bandwidth(&LinearSkew::classic(m), &cfg, 0, 1 << 16, ix, 100_000).unwrap();
        assert_eq!(skewed, Ratio::integer(1));
    }

    #[test]
    fn affine_gather_period_follows_the_mapping_period() {
        // ix(k) = 3k over 2^16 words: the address period 16 of plain
        // interleaving divides the span, so banks repeat after 16 grants;
        // the prime mapping's 13 does not, so the full index period stays.
        let ix = IndexPattern::Affine { a: 3, c: 0 };
        let plain = Interleaved { banks: 16 };
        let w = MappedGatherWorkload::new(&plain, 0, 1 << 16, ix);
        assert_eq!(w.signature_bound(), Some(16));
        let prime = PrimeInterleaved::new(13);
        let w = MappedGatherWorkload::new(&prime, 0, 1 << 16, ix);
        assert_eq!(w.signature_bound(), Some(1 << 16));
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
            .unwrap();
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
            let mut w = MappedGatherWorkload::new(scheme, 0, 1 << 16, ix);
            let ss = measure_steady_state_workload(&cfg, &mut w, 0, 1 << 20).unwrap();
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
            let mut w = MappedStreamWorkload::new(
                scheme,
                vec![AddressStream {
                    start: 0,
                    stride: 1,
                }],
            );
            let ss = measure_steady_state_workload(&cfg, &mut w, 0, 100_000).unwrap();
            assert_eq!(ss.beff, want, "{}", scheme.name());
            assert!(ss.beff >= Ratio::new(9, 10), "{}", scheme.name());
        }
    }
}
