//! The access-pattern abstraction: address generation as a first-class,
//! swappable concern.
//!
//! vecmem-lint: alloc-free
//!
//! Historically every workload in the repo was the paper's constant-stride
//! stream, with the address arithmetic hard-coded into the stream types.
//! This module extracts that concern into the [`AccessPattern`] trait —
//! the *k*-th request of a port, a packed-slot encoding of the port's
//! progress for cyclic-state detection, and a periodicity hint — and a
//! generic per-port adapter, [`PatternWorkload`], that implements
//! [`Workload`]/[`ObservableWorkload`] for any pattern.
//!
//! Three pattern families ship with the core:
//!
//! * [`StridePattern`] — the paper's constant-stride stream. Its
//!   packed-slot encoding is the current bank (finished marker `m`, bound
//!   `m`), which the bank walk itself determines.
//! * [`GatherPattern`] — indexed gather/scatter, `addr(k) = base +
//!   ix(k)` with [`IndexPattern`] index generation. Affine index vectors
//!   are periodic (slot = `k mod T`, `T` the minimal period of the
//!   `(bank, row)` request sequence, not of the index sequence);
//!   pseudo-random ones are aperiodic (slot = raw issue count, no bound,
//!   `period_hint` = `None`), which the steady-state solver answers with a
//!   budgeted windowed estimate.
//! * [`BurstPattern`] — strided access with amortised multi-word grants:
//!   each grant transfers `B` words and the port then idles `B − 1`
//!   periods (the cooldown, aged by [`Workload::tick`]). The packed slot
//!   encodes (reduced position, cooldown) together.
//!
//! Patterns are row-aware: constructed with `rows > 0` (the DRAM bank
//! model's row count) they derive each request's bank-local row from the
//! word address, and widen their slot encoding so the reduced position
//! still determines all future requests — rows and banks both. With
//! `rows = 0` (the uniform model) the row is `0` and the bank-only
//! encodings apply.

use crate::config::{BankModel, SimConfig};
use crate::request::{PortId, Request};
use crate::steady::ObservableWorkload;
use crate::workload::Workload;
use vecmem_analytic::{Geometry, StreamSpec};

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The address modulus `L = m·max(rows, 1)` that decides a request: bank
/// `addr mod m` and row `(addr / m) mod rows` are together a bijective
/// image of `addr mod L` (`rows = 0` = no row tracking, `L = m`).
fn request_modulus(banks: u64, rows: u64) -> u64 {
    banks * rows.max(1)
}

/// Reduced period of the (bank, row) sequence of an arithmetic address
/// walk `addr(k) = start + k·d` over `m` banks and `rows` rows per bank
/// (`rows = 0` = no row tracking): the smallest `T` with
/// `addr(k + T) ≡ addr(k)` modulo bank *and* row.
fn arith_state_period(distance: u64, banks: u64, rows: u64) -> u64 {
    let modulus = request_modulus(banks, rows);
    modulus / gcd(distance % modulus, modulus)
}

/// Address generation for one port, decoupled from arbitration: the
/// *k*-th request, a packed-slot encoding of progress for cyclic-state
/// detection, and a periodicity hint.
///
/// The packed slot, together with the pattern's static parameters, must
/// determine every future request of the port — it is what the
/// steady-state detector hashes and compares (see
/// [`ObservableWorkload::signature_bound`] for the bound contract).
pub trait AccessPattern: Clone {
    /// The `k`-th request of the port (bank, and bank-local row under a
    /// DRAM bank model).
    fn request_at(&self, k: u64) -> Request;

    /// Packed-slot encoding of the port's progress after `k` grants with
    /// `cooldown` burst-idle periods remaining. Must determine all future
    /// requests together with the pattern's static parameters.
    fn encode_slot(&self, k: u64, cooldown: u64) -> u64;

    /// Inverse of [`encode_slot`](Self::encode_slot) up to position
    /// reduction: `(reduced position, cooldown)`. Diagnostics and
    /// conformance tests only — the hot paths never decode.
    fn decode_slot(&self, slot: u64) -> (u64, u64);

    /// The marker slot written for a finished (finite) port. Must be
    /// distinct from every live encoding and still within
    /// [`slot_bound`](Self::slot_bound).
    fn finished_code(&self) -> u64;

    /// Inclusive upper bound on every slot this pattern can encode,
    /// including [`finished_code`](Self::finished_code); `None` when the
    /// encoding is unbounded (aperiodic patterns).
    fn slot_bound(&self) -> Option<u64>;

    /// Minimal period of the request sequence in the grant count `k`, when
    /// one exists: the smallest `p` with `request_at(k + p) ==
    /// request_at(k)` for all `k`. The shipped families encode their slot
    /// modulo it, so the encoding never inflates the period the
    /// steady-state solver finds. `None` declares the pattern aperiodic,
    /// routing steady-state measurement to the budgeted windowed estimate.
    fn period_hint(&self) -> Option<u64>;

    /// Words transferred per grant. A port idles `burst() − 1` periods
    /// after each grant; the default single-word access never idles.
    fn burst(&self) -> u64 {
        1
    }

    /// `request_at(k)` given the port's previous request (`request_at(k −
    /// 1)`), for patterns that can step incrementally. The default
    /// recomputes from scratch; [`StridePattern`] overrides it so the
    /// per-grant hot path is one add and a conditional subtract instead of
    /// wide-integer arithmetic. Must equal `request_at(k)` exactly.
    // vecmem-lint: hot-path
    #[inline]
    fn advance(&self, k: u64, _prev: &Request) -> Request {
        self.request_at(k)
    }

    /// [`encode_slot`](Self::encode_slot) given the port's cached upcoming
    /// request (`request_at(k)`). The default delegates; [`StridePattern`]
    /// overrides it to reuse the cached bank on the uniform model, keeping
    /// the per-cycle signature write allocation- and division-free. Must
    /// equal `encode_slot(k, cooldown)` exactly.
    #[inline]
    fn encode_slot_at(&self, k: u64, cooldown: u64, _current: &Request) -> u64 {
        self.encode_slot(k, cooldown)
    }
}

/// The paper's constant-stride stream as an [`AccessPattern`]: `addr(k) =
/// start_bank + k·distance`, bank `addr mod m`.
///
/// With `rows = 0` the packed slot is the **current bank** (finished
/// marker `m`): on a stride walk the bank alone determines every later
/// request. With `rows > 0` the slot is the reduced position `k mod T`
/// instead, since the bank alone no longer determines the upcoming rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StridePattern {
    start: u64,
    distance: u64,
    banks: u64,
    rows: u64,
    state_period: u64,
    /// `distance mod banks`, precomputed for the incremental hot path.
    step: u64,
}

impl StridePattern {
    /// Stride `spec` on `geom`'s banks, uniform bank model (no rows).
    #[must_use]
    pub fn new(geom: &Geometry, spec: StreamSpec) -> Self {
        Self::with_rows(geom, spec, 0)
    }

    /// Stride `spec` with DRAM row derivation: the word address is taken
    /// as `start_bank + k·distance`, the row as `(addr / m) mod rows`.
    /// `rows = 0` disables row tracking (uniform model).
    #[must_use]
    pub fn with_rows(geom: &Geometry, spec: StreamSpec, rows: u64) -> Self {
        let banks = geom.banks();
        Self {
            start: spec.start_bank,
            distance: spec.distance,
            banks,
            rows,
            state_period: arith_state_period(spec.distance, banks, rows),
            step: spec.distance % banks,
        }
    }
}

impl AccessPattern for StridePattern {
    #[inline]
    fn request_at(&self, k: u64) -> Request {
        let addr = u128::from(self.start) + u128::from(k) * u128::from(self.distance);
        let bank = (addr % u128::from(self.banks)) as u64;
        let row = if self.rows == 0 {
            0
        } else {
            // vecmem-lint: allow(L7) -- banks >= 1 by the validated geometry; rows != 0 on this branch
            ((addr / u128::from(self.banks)) % u128::from(self.rows)) as u64
        };
        Request { bank, row }
    }

    #[inline]
    fn encode_slot(&self, k: u64, _cooldown: u64) -> u64 {
        if self.rows == 0 {
            self.request_at(k).bank
        } else {
            k % self.state_period
        }
    }

    fn decode_slot(&self, slot: u64) -> (u64, u64) {
        (slot, 0)
    }

    fn finished_code(&self) -> u64 {
        if self.rows == 0 {
            self.banks
        } else {
            self.state_period
        }
    }

    fn slot_bound(&self) -> Option<u64> {
        Some(self.finished_code())
    }

    fn period_hint(&self) -> Option<u64> {
        Some(self.state_period)
    }

    // vecmem-lint: hot-path
    // vecmem-lint: overflow-policy
    #[inline]
    fn advance(&self, k: u64, prev: &Request) -> Request {
        if self.rows != 0 {
            return self.request_at(k);
        }
        // vecmem-lint: allow(L9) -- bank < banks and step < banks (both validated), so the sum stays below 2·banks
        let bank = prev.bank + self.step;
        let bank = if bank >= self.banks {
            bank - self.banks
        } else {
            bank
        };
        Request { bank, row: 0 }
    }

    #[inline]
    fn encode_slot_at(&self, k: u64, _cooldown: u64, current: &Request) -> u64 {
        if self.rows == 0 {
            current.bank
        } else {
            k % self.state_period
        }
    }
}

/// How a gather's index vector is generated. `ix(k)` is always in
/// `0..span`.
///
/// (Migrated from `vproc::gather`, which re-exports it: the gather
/// prototype now runs on the shared pattern machinery.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexPattern {
    /// `ix(k) = (a·k + c) mod span` — affine shuffles (sorted-by-key data,
    /// permutations). With `a = 1` this degenerates to a strided walk.
    Affine {
        /// Multiplier.
        a: u64,
        /// Offset.
        c: u64,
    },
    /// A deterministic pseudo-random permutation-ish walk (hash-table
    /// probing, sparse matrices). Aperiodic by construction.
    PseudoRandom {
        /// Mix seed.
        seed: u64,
    },
}

impl IndexPattern {
    /// The k-th index in `0..span`.
    #[must_use]
    pub fn index(&self, k: u64, span: u64) -> u64 {
        match *self {
            Self::Affine { a, c } => ((a as u128 * k as u128 + c as u128) % span as u128) as u64,
            Self::PseudoRandom { seed } => {
                // SplitMix64-style mix of (seed, k), reduced to the span —
                // deterministic, stateless, well spread.
                let mut z = seed ^ (k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % span
            }
        }
    }

    /// Period of the index sequence in `k`, or `None` for the aperiodic
    /// pseudo-random walk.
    #[must_use]
    pub fn period(&self, span: u64) -> Option<u64> {
        match *self {
            Self::Affine { a, .. } => Some(span / gcd(a % span, span).max(1)),
            Self::PseudoRandom { .. } => None,
        }
    }

    /// Minimal period in `k` of the address residue `(base + ix(k)) mod
    /// modulus`, for any `base`, or `None` for the aperiodic pseudo-random
    /// walk. Anything decided by `addr mod modulus` alone — a gather's
    /// `(bank, row)` request with `modulus = m·max(rows, 1)`, or a bank
    /// mapping that reduces addresses modulo its address period — repeats
    /// with this period.
    ///
    /// For `ix(k) = (a·k + c) mod span`, with `P = span / gcd(a, span)`
    /// the index period:
    ///
    /// * if `modulus | span`, reducing modulo `span` is invisible modulo
    ///   `modulus`, so `addr(k) ≡ base + a·k + c (mod modulus)`: an
    ///   arithmetic walk whose minimal period is Thm 1's return number
    ///   `modulus / gcd(a mod modulus, modulus)`, a divisor of `P`;
    /// * otherwise the period is `P`, and no shorter one exists. `P` is a
    ///   period of the index itself. For a shift `T` with `d = a·T mod
    ///   span ≠ 0`, `ix(k + T) − ix(k)` is `d` where the index does not
    ///   wrap and `d − span` where it does. Both occur: the index visits
    ///   every value `≡ c (mod g)`, `g = gcd(a, span)`, so it takes values
    ///   below `g` and at least `span − g`, while `g ≤ d ≤ span − g`. For
    ///   `T` to be a residue period both steps would have to be `≡ 0 (mod
    ///   modulus)`, forcing `modulus | span`. So every residue period has
    ///   `d = 0`, i.e. is a multiple of `P`.
    #[must_use]
    pub fn request_period(&self, span: u64, modulus: u64) -> Option<u64> {
        match *self {
            Self::Affine { a, .. } if span.is_multiple_of(modulus) => {
                Some(modulus / gcd(a % modulus, modulus))
            }
            Self::Affine { .. } | Self::PseudoRandom { .. } => self.period(span),
        }
    }
}

/// Indexed gather/scatter as an [`AccessPattern`]: `addr(k) = base +
/// ix(k)`, bank `addr mod m`, row `(addr / m) mod rows` when rows are
/// tracked.
///
/// Affine index vectors make the pattern periodic with the minimal period
/// `T` of its `(bank, row)` request sequence
/// ([`IndexPattern::request_period`] modulo `m·max(rows, 1)`): slot =
/// `k mod T`, marker `T`. `T` divides the index period and is often far
/// shorter — a power-of-two span on power-of-two banks repeats its banks
/// long before its indices. Pseudo-random index vectors are aperiodic —
/// the slot is the raw issue count, the bound `None`, and the periodicity
/// hint `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GatherPattern {
    base: u64,
    span: u64,
    index: IndexPattern,
    banks: u64,
    rows: u64,
    period: Option<u64>,
}

impl GatherPattern {
    /// A gather over `base .. base + span` on `geom`'s banks, uniform
    /// bank model.
    ///
    /// # Panics
    /// If `span` is zero.
    #[must_use]
    pub fn new(geom: &Geometry, base: u64, span: u64, index: IndexPattern) -> Self {
        Self::with_rows(geom, base, span, index, 0)
    }

    /// A gather with DRAM row derivation (`rows = 0` = uniform model).
    ///
    /// # Panics
    /// If `span` is zero.
    #[must_use]
    pub fn with_rows(
        geom: &Geometry,
        base: u64,
        span: u64,
        index: IndexPattern,
        rows: u64,
    ) -> Self {
        assert!(span > 0, "gather span must be positive");
        let banks = geom.banks();
        Self {
            base,
            span,
            index,
            banks,
            rows,
            period: index.request_period(span, request_modulus(banks, rows)),
        }
    }
}

impl AccessPattern for GatherPattern {
    #[inline]
    fn request_at(&self, k: u64) -> Request {
        let addr = self.base + self.index.index(k, self.span);
        let bank = addr % self.banks;
        let row = if self.rows == 0 {
            0
        } else {
            // vecmem-lint: allow(L7) -- banks >= 1 by the validated geometry; rows != 0 on this branch
            (addr / self.banks) % self.rows
        };
        Request { bank, row }
    }

    #[inline]
    fn encode_slot(&self, k: u64, _cooldown: u64) -> u64 {
        match self.period {
            Some(p) => k % p,
            None => k,
        }
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

/// Strided access with amortised multi-word grants: every grant transfers
/// `burst` words, after which the port idles `burst − 1` clock periods
/// (its cooldown, aged once per cycle by the step kernel's
/// [`Workload::tick`] call).
///
/// The packed slot encodes position and cooldown together: `(k mod
/// T)·burst + cooldown`, marker `T·burst`, so the detector sees the full
/// time-dependent port state. With `burst = 1` the behaviour degenerates
/// exactly to [`StridePattern`]'s (the cooldown is always zero at
/// signature time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BurstPattern {
    start: u64,
    distance: u64,
    burst: u64,
    banks: u64,
    rows: u64,
    state_period: u64,
}

impl BurstPattern {
    /// Stride `spec` with `burst` words per grant, uniform bank model.
    ///
    /// # Panics
    /// If `burst` is zero.
    #[must_use]
    pub fn new(geom: &Geometry, spec: StreamSpec, burst: u64) -> Self {
        Self::with_rows(geom, spec, burst, 0)
    }

    /// Burst stride with DRAM row derivation (`rows = 0` = uniform).
    ///
    /// # Panics
    /// If `burst` is zero.
    #[must_use]
    pub fn with_rows(geom: &Geometry, spec: StreamSpec, burst: u64, rows: u64) -> Self {
        assert!(burst >= 1, "burst must be at least one word per grant");
        let banks = geom.banks();
        Self {
            start: spec.start_bank,
            distance: spec.distance,
            burst,
            banks,
            rows,
            state_period: arith_state_period(spec.distance, banks, rows),
        }
    }
}

impl AccessPattern for BurstPattern {
    #[inline]
    fn request_at(&self, k: u64) -> Request {
        let addr = u128::from(self.start) + u128::from(k) * u128::from(self.distance);
        let bank = (addr % u128::from(self.banks)) as u64;
        let row = if self.rows == 0 {
            0
        } else {
            // vecmem-lint: allow(L7) -- banks >= 1 by the validated geometry; rows != 0 on this branch
            ((addr / u128::from(self.banks)) % u128::from(self.rows)) as u64
        };
        Request { bank, row }
    }

    #[inline]
    fn encode_slot(&self, k: u64, cooldown: u64) -> u64 {
        debug_assert!(
            cooldown < self.burst,
            "cooldown {cooldown} of {}",
            self.burst
        );
        (k % self.state_period) * self.burst + cooldown
    }

    fn decode_slot(&self, slot: u64) -> (u64, u64) {
        (slot / self.burst, slot % self.burst)
    }

    fn finished_code(&self) -> u64 {
        self.state_period * self.burst
    }

    fn slot_bound(&self) -> Option<u64> {
        Some(self.finished_code())
    }

    fn period_hint(&self) -> Option<u64> {
        Some(self.state_period)
    }

    fn burst(&self) -> u64 {
        self.burst
    }

    // vecmem-lint: hot-path
    #[inline]
    fn advance(&self, k: u64, prev: &Request) -> Request {
        if self.rows != 0 {
            return self.request_at(k);
        }
        let bank = prev.bank + self.distance % self.banks;
        let bank = if bank >= self.banks {
            bank - self.banks
        } else {
            bank
        };
        Request { bank, row: 0 }
    }
}

/// Runtime-polymorphic pattern: any of the three shipped families behind
/// one concrete type, so mixed-pattern workloads and spec-driven
/// construction need no generics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnyPattern {
    /// Constant-stride stream.
    Stride(StridePattern),
    /// Indexed gather/scatter.
    Gather(GatherPattern),
    /// Strided multi-word burst.
    Burst(BurstPattern),
}

impl AccessPattern for AnyPattern {
    #[inline]
    fn request_at(&self, k: u64) -> Request {
        match self {
            Self::Stride(p) => p.request_at(k),
            Self::Gather(p) => p.request_at(k),
            Self::Burst(p) => p.request_at(k),
        }
    }
    #[inline]
    fn encode_slot(&self, k: u64, cooldown: u64) -> u64 {
        match self {
            Self::Stride(p) => p.encode_slot(k, cooldown),
            Self::Gather(p) => p.encode_slot(k, cooldown),
            Self::Burst(p) => p.encode_slot(k, cooldown),
        }
    }
    fn decode_slot(&self, slot: u64) -> (u64, u64) {
        match self {
            Self::Stride(p) => p.decode_slot(slot),
            Self::Gather(p) => p.decode_slot(slot),
            Self::Burst(p) => p.decode_slot(slot),
        }
    }
    fn finished_code(&self) -> u64 {
        match self {
            Self::Stride(p) => p.finished_code(),
            Self::Gather(p) => p.finished_code(),
            Self::Burst(p) => p.finished_code(),
        }
    }
    fn slot_bound(&self) -> Option<u64> {
        match self {
            Self::Stride(p) => p.slot_bound(),
            Self::Gather(p) => p.slot_bound(),
            Self::Burst(p) => p.slot_bound(),
        }
    }
    fn period_hint(&self) -> Option<u64> {
        match self {
            Self::Stride(p) => p.period_hint(),
            Self::Gather(p) => p.period_hint(),
            Self::Burst(p) => p.period_hint(),
        }
    }
    #[inline]
    fn burst(&self) -> u64 {
        match self {
            Self::Stride(p) => p.burst(),
            Self::Gather(p) => p.burst(),
            Self::Burst(p) => p.burst(),
        }
    }
    // vecmem-lint: hot-path
    #[inline]
    fn advance(&self, k: u64, prev: &Request) -> Request {
        match self {
            Self::Stride(p) => p.advance(k, prev),
            Self::Gather(p) => p.advance(k, prev),
            Self::Burst(p) => p.advance(k, prev),
        }
    }
    #[inline]
    fn encode_slot_at(&self, k: u64, cooldown: u64, current: &Request) -> u64 {
        match self {
            Self::Stride(p) => p.encode_slot_at(k, cooldown, current),
            Self::Gather(p) => p.encode_slot_at(k, cooldown, current),
            Self::Burst(p) => p.encode_slot_at(k, cooldown, current),
        }
    }
}

/// Hashable, geometry-independent description of one port's pattern —
/// the vocabulary the CLI, the experiment cache keys and the differential
/// oracle share. [`PatternSpec::build`] instantiates it against a
/// configuration (banks and bank model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternSpec {
    /// Constant stride from `start_bank`.
    Stride {
        /// First bank accessed.
        start_bank: u64,
        /// Bank distance per element.
        distance: u64,
    },
    /// Indexed gather over `base .. base + span`.
    Gather {
        /// Base word address.
        base: u64,
        /// Index span.
        span: u64,
        /// Index generation.
        index: IndexPattern,
    },
    /// Strided multi-word burst.
    Burst {
        /// First bank accessed.
        start_bank: u64,
        /// Bank distance per grant.
        distance: u64,
        /// Words per grant.
        burst: u64,
    },
}

impl PatternSpec {
    /// Instantiates the spec against `config`'s geometry and bank model.
    #[must_use]
    pub fn build(&self, config: &SimConfig) -> AnyPattern {
        let geom = &config.geometry;
        let rows = match config.bank_model {
            BankModel::Uniform => 0,
            BankModel::Dram { rows, .. } => rows,
        };
        match *self {
            Self::Stride {
                start_bank,
                distance,
            } => AnyPattern::Stride(StridePattern::with_rows(
                geom,
                StreamSpec {
                    start_bank,
                    distance,
                },
                rows,
            )),
            Self::Gather { base, span, index } => {
                AnyPattern::Gather(GatherPattern::with_rows(geom, base, span, index, rows))
            }
            Self::Burst {
                start_bank,
                distance,
                burst,
            } => AnyPattern::Burst(BurstPattern::with_rows(
                geom,
                StreamSpec {
                    start_bank,
                    distance,
                },
                burst,
                rows,
            )),
        }
    }
}

/// How many elements a pattern port issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternLength {
    /// The port never finishes (the steady-state setting).
    Infinite,
    /// The port issues exactly this many elements, then writes its
    /// pattern's finished marker.
    Elements(u64),
}

/// One port of a [`PatternWorkload`]: a pattern plus issue progress.
#[derive(Debug, Clone)]
pub struct PatternPort<P> {
    pattern: P,
    length: PatternLength,
    start_cycle: u64,
    issued: u64,
    cooldown: u64,
    /// Cached `pattern.request_at(issued)` — the upcoming request, stepped
    /// forward via [`AccessPattern::advance`] on each grant so stalled
    /// cycles (which re-poll `pending`) never recompute the address.
    current: Request,
}

impl<P: AccessPattern> PatternPort<P> {
    /// An infinite port over `pattern`, starting at cycle 0.
    #[must_use]
    pub fn new(pattern: P) -> Self {
        let current = pattern.request_at(0);
        Self {
            pattern,
            length: PatternLength::Infinite,
            issued: 0,
            cooldown: 0,
            start_cycle: 0,
            current,
        }
    }

    /// Limits the port to `n` elements (builder style).
    #[must_use]
    pub fn with_length(mut self, n: u64) -> Self {
        self.length = PatternLength::Elements(n);
        self
    }

    /// Defers the port's first request to `cycle` (builder style).
    #[must_use]
    pub fn starting_at(mut self, cycle: u64) -> Self {
        self.start_cycle = cycle;
        self
    }

    fn done(&self) -> bool {
        match self.length {
            PatternLength::Infinite => false,
            PatternLength::Elements(n) => self.issued >= n,
        }
    }
}

/// The generic workload adapter: one [`AccessPattern`] per port, driven
/// through the shared step kernel. Implements [`Workload`] (with burst
/// cooldowns aged in [`Workload::tick`]) and [`ObservableWorkload`] (slot
/// per port, bound = max of the per-pattern bounds, periodic iff every
/// pattern has a period).
#[derive(Debug, Clone)]
pub struct PatternWorkload<P> {
    ports: Vec<PatternPort<P>>,
}

impl<P: AccessPattern> PatternWorkload<P> {
    /// A workload over the given ports; port `i` runs `ports[i]`.
    #[must_use]
    pub fn new(ports: Vec<PatternPort<P>>) -> Self {
        Self { ports }
    }

    /// Elements issued (granted) by port `p` so far.
    #[must_use]
    pub fn issued(&self, p: usize) -> u64 {
        self.ports[p].issued
    }

    /// Burst-idle periods remaining on port `p`.
    #[must_use]
    pub fn cooldown(&self, p: usize) -> u64 {
        self.ports[p].cooldown
    }

    /// The pattern driving port `p`.
    #[must_use]
    pub fn pattern(&self, p: usize) -> &P {
        &self.ports[p].pattern
    }
}

impl PatternWorkload<StridePattern> {
    /// Infinite constant-stride streams, one per spec, starting at cycle
    /// 0: the paper's §III vector-mode workload. Finite or delayed streams
    /// build their ports with [`PatternPort::with_length`] and
    /// [`PatternPort::starting_at`].
    #[must_use]
    pub fn strided(geom: &Geometry, specs: &[StreamSpec]) -> Self {
        Self::new(
            specs
                .iter()
                .map(|&spec| PatternPort::new(StridePattern::new(geom, spec)))
                .collect(), // vecmem-lint: allow(L2) -- one-time construction
        )
    }
}

impl PatternWorkload<AnyPattern> {
    /// Infinite mixed-pattern streams instantiated from specs against
    /// `config`'s geometry and bank model; port `i` runs `specs[i]`.
    #[must_use]
    pub fn from_specs(config: &SimConfig, specs: &[PatternSpec]) -> Self {
        Self::new(
            specs
                .iter()
                .map(|spec| PatternPort::new(spec.build(config)))
                .collect(), // vecmem-lint: allow(L2) -- one-time construction
        )
    }
}

impl<P: AccessPattern> Workload for PatternWorkload<P> {
    #[inline]
    fn pending(&self, port: PortId, now: u64) -> Option<Request> {
        let p = self.ports.get(port.0)?;
        if now < p.start_cycle || p.done() || p.cooldown > 0 {
            return None;
        }
        Some(p.current)
    }

    #[inline]
    fn granted(&mut self, port: PortId, _now: u64) {
        // vecmem-lint: allow(L7) -- port ids come from this workload's own config, always < ports
        let p = &mut self.ports[port.0];
        p.issued += 1;
        p.current = p.pattern.advance(p.issued, &p.current);
        p.cooldown = p.pattern.burst();
    }

    #[inline]
    fn tick(&mut self, _now: u64) {
        for p in &mut self.ports {
            p.cooldown = p.cooldown.saturating_sub(1);
        }
    }

    fn is_finished(&self) -> bool {
        self.ports.iter().all(PatternPort::done)
    }
}

impl<P: AccessPattern> ObservableWorkload for PatternWorkload<P> {
    fn signature_len(&self) -> usize {
        self.ports.len()
    }

    fn write_signature(&self, out: &mut [u64]) {
        for (slot, p) in out.iter_mut().zip(&self.ports) {
            *slot = if p.done() {
                p.pattern.finished_code()
            } else {
                p.pattern.encode_slot_at(p.issued, p.cooldown, &p.current)
            };
        }
    }

    fn signature_bound(&self) -> Option<u64> {
        self.ports
            .iter()
            .map(|p| p.pattern.slot_bound())
            .try_fold(0u64, |acc, b| b.map(|b| acc.max(b)))
    }

    fn periodic(&self) -> bool {
        self.ports.iter().all(|p| p.pattern.period_hint().is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NoopObserver;
    use crate::state::SimState;
    use crate::steady::measure_steady_state_workload;
    use crate::step::step;
    use vecmem_analytic::Ratio;

    fn geom(m: u64, nc: u64) -> Geometry {
        Geometry::unsectioned(m, nc).unwrap()
    }

    fn spec(b: u64, d: u64) -> StreamSpec {
        StreamSpec {
            start_bank: b,
            distance: d,
        }
    }

    #[test]
    fn stride_pattern_walks_banks() {
        let p = StridePattern::new(&geom(8, 2), spec(3, 5));
        let banks: Vec<u64> = (0..6).map(|k| p.request_at(k).bank).collect();
        assert_eq!(banks, vec![3, 0, 5, 2, 7, 4]);
        assert_eq!(p.encode_slot(2, 0), 5);
        assert_eq!(p.finished_code(), 8);
        assert_eq!(p.slot_bound(), Some(8));
        assert_eq!(p.period_hint(), Some(8));
        assert_eq!(p.burst(), 1);
    }

    #[test]
    fn stride_pattern_rows_derive_from_word_address() {
        // m = 4, rows = 2: addr(k) = 1 + 3k; row = (addr / 4) mod 2.
        let p = StridePattern::with_rows(&geom(4, 2), spec(1, 3), 2);
        let rows: Vec<u64> = (0..5).map(|k| p.request_at(k).row).collect();
        assert_eq!(rows, vec![0, 1, 1, 0, 1]);
        // Slots are reduced positions, periodic with T = m·rows/gcd.
        assert_eq!(p.period_hint(), Some(8));
        assert_eq!(p.encode_slot(9, 0), 1);
        // The reduced position fully determines the request.
        for k in 0..32 {
            assert_eq!(p.request_at(k), p.request_at(k + 8), "k = {k}");
        }
    }

    #[test]
    fn incremental_advance_matches_request_at() {
        // The cached-request fast path must be indistinguishable from the
        // from-scratch computation, for every family, with and without
        // rows, including distances far above the bank count.
        let g = geom(12, 3);
        let patterns: Vec<AnyPattern> = vec![
            AnyPattern::Stride(StridePattern::new(&g, spec(5, 29))),
            AnyPattern::Stride(StridePattern::with_rows(&g, spec(1, 7), 4)),
            AnyPattern::Burst(BurstPattern::new(&g, spec(2, 31), 4)),
            AnyPattern::Burst(BurstPattern::with_rows(&g, spec(0, 5), 3, 2)),
            AnyPattern::Gather(GatherPattern::new(
                &g,
                3,
                40,
                IndexPattern::Affine { a: 9, c: 2 },
            )),
            AnyPattern::Gather(GatherPattern::new(
                &g,
                0,
                1 << 16,
                IndexPattern::PseudoRandom { seed: 4 },
            )),
        ];
        for p in &patterns {
            let mut current = p.request_at(0);
            for k in 1..200 {
                current = p.advance(k, &current);
                assert_eq!(current, p.request_at(k), "k = {k}, pattern {p:?}");
                let cooldown = k % p.burst();
                assert_eq!(
                    p.encode_slot_at(k, cooldown, &current),
                    p.encode_slot(k, cooldown),
                    "slot at k = {k}, pattern {p:?}"
                );
            }
        }
    }

    #[test]
    fn gather_affine_is_periodic_pseudo_random_is_not() {
        let g = geom(16, 4);
        let affine = GatherPattern::new(&g, 0, 12, IndexPattern::Affine { a: 2, c: 1 });
        assert_eq!(affine.period_hint(), Some(6));
        assert_eq!(affine.slot_bound(), Some(6));
        assert_eq!(affine.encode_slot(7, 0), 1);
        for k in 0..24 {
            assert_eq!(affine.request_at(k), affine.request_at(k + 6));
        }
        let random = GatherPattern::new(&g, 0, 1 << 20, IndexPattern::PseudoRandom { seed: 9 });
        assert_eq!(random.period_hint(), None);
        assert_eq!(random.slot_bound(), None);
        assert_eq!(random.encode_slot(41, 0), 41);
    }

    #[test]
    fn affine_gather_slot_follows_the_request_period() {
        // m = 16 divides the span 2^20: the banks of ix(k) = 3k + 1 repeat
        // after 16 grants although the indices need 2^20.
        let g = geom(16, 4);
        let ix = IndexPattern::Affine { a: 3, c: 1 };
        assert_eq!(ix.period(1 << 20), Some(1 << 20));
        let p = GatherPattern::new(&g, 5, 1 << 20, ix);
        assert_eq!(p.period_hint(), Some(16));
        assert_eq!(p.finished_code(), 16);
        assert_eq!(p.encode_slot(37, 0), 5);
        // With 4 rows the request modulus is 64, still a divisor.
        let dram = GatherPattern::with_rows(&g, 5, 1 << 20, ix, 4);
        assert_eq!(dram.period_hint(), Some(64));
        // a = 16 on 16 banks: one bank forever.
        assert_eq!(
            IndexPattern::Affine { a: 16, c: 0 }.request_period(1 << 20, 16),
            Some(1)
        );
        // m = 13 does not divide 2^10: the index period is genuine.
        assert_eq!(ix.request_period(1 << 10, 13), Some(1 << 10));
        assert_eq!(
            IndexPattern::PseudoRandom { seed: 1 }.request_period(64, 8),
            None
        );
    }

    #[test]
    fn burst_slot_encodes_position_and_cooldown() {
        let p = BurstPattern::new(&geom(8, 2), spec(0, 1), 4);
        assert_eq!(p.burst(), 4);
        // T = 8, burst = 4: slot = (k mod 8)·4 + cooldown.
        assert_eq!(p.encode_slot(3, 2), 14);
        assert_eq!(p.decode_slot(14), (3, 2));
        assert_eq!(p.finished_code(), 32);
        assert_eq!(p.slot_bound(), Some(32));
    }

    #[test]
    fn burst_port_idles_between_grants() {
        // One port, burst 3, unit stride on 8 banks (nc = 1: no bank
        // conflicts): the port is granted every third cycle.
        let cfg = SimConfig::single_cpu(geom(8, 1), 1);
        let mut st = SimState::new(&cfg);
        let mut w = PatternWorkload::new(vec![PatternPort::new(BurstPattern::new(
            &geom(8, 1),
            spec(0, 1),
            3,
        ))]);
        let mut grants = Vec::new();
        for cycle in 0..9 {
            let ev = step(&cfg, &mut st, &mut w, &mut NoopObserver);
            if ev.grants > 0 {
                grants.push(cycle);
            }
        }
        assert_eq!(grants, vec![0, 3, 6]);
        assert_eq!(w.issued(0), 3);
    }

    #[test]
    fn burst_steady_state_amortises_to_one_grant_per_burst() {
        // Burst B on a conflict-free unit stride: one grant every B
        // cycles, b_eff = 1/B grants per period (B words per grant).
        let g = geom(16, 4);
        let cfg = SimConfig::single_cpu(g, 1);
        for burst in [1u64, 2, 4] {
            let mut w = PatternWorkload::new(vec![PatternPort::new(BurstPattern::new(
                &g,
                spec(0, 1),
                burst,
            ))]);
            let ss = measure_steady_state_workload(&cfg, &mut w, 0, 100_000).unwrap();
            assert!(ss.exact);
            assert_eq!(ss.beff, Ratio::new(1, burst), "burst = {burst}");
        }
    }

    #[test]
    fn aperiodic_gather_gets_windowed_estimate() {
        let g = geom(16, 4);
        let cfg = SimConfig::single_cpu(g, 1);
        let mut w = PatternWorkload::new(vec![PatternPort::new(GatherPattern::new(
            &g,
            0,
            1 << 20,
            IndexPattern::PseudoRandom { seed: 42 },
        ))]);
        assert!(!w.periodic());
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 10_000_000).unwrap();
        assert!(!ss.exact);
        assert_eq!(ss.period, crate::steady::WINDOWED_FALLBACK_CYCLES);
        // Same regime as the classical single random port: between 1/n_c
        // and 1.
        assert!(ss.beff > Ratio::new(1, 2));
        assert!(ss.beff < Ratio::new(95, 100));
    }

    #[test]
    fn affine_gather_converges_exactly() {
        let g = geom(16, 4);
        let cfg = SimConfig::single_cpu(g, 1);
        // a = 1: degenerates to unit stride, full bandwidth, exact.
        let mut w = PatternWorkload::new(vec![PatternPort::new(GatherPattern::new(
            &g,
            0,
            1 << 10,
            IndexPattern::Affine { a: 1, c: 0 },
        ))]);
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 1_000_000).unwrap();
        assert!(ss.exact);
        assert_eq!(ss.beff, Ratio::integer(1));
    }

    #[test]
    fn dram_row_hits_shorten_holds() {
        // Distance 0: every access hits the same cell, so after the first
        // (miss, opens the row) every grant is an open-row hit. With hit
        // cycle 1 the bank never blocks; the uniform model stays bank
        // limited to 1/n_c.
        let g = geom(2, 4);
        let cfg = SimConfig::single_cpu(g, 1).with_bank_model(BankModel::Dram {
            hit_cycle: 1,
            rows: 4,
        });
        let specs = [PatternSpec::Stride {
            start_bank: 0,
            distance: 0,
        }];
        let mut w = PatternWorkload::from_specs(&cfg, &specs);
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 1_000_000).unwrap();
        assert!(ss.exact);
        assert_eq!(ss.beff, Ratio::integer(1));
        let uni_cfg = SimConfig::single_cpu(g, 1);
        let mut uw = PatternWorkload::from_specs(&uni_cfg, &specs);
        let uni = measure_steady_state_workload(&uni_cfg, &mut uw, 0, 1_000_000).unwrap();
        assert_eq!(uni.beff, Ratio::new(1, 4));
    }

    #[test]
    fn interleaved_unit_stride_never_row_hits() {
        // Word-interleaved addressing puts a bank's consecutive words in
        // consecutive rows (row = (addr/m) mod rows), so a unit stride
        // misses on every bank revisit: DRAM behaves exactly like the
        // uniform model here.
        let g = geom(2, 4);
        let specs = [PatternSpec::Stride {
            start_bank: 0,
            distance: 1,
        }];
        let dram_cfg = SimConfig::single_cpu(g, 1).with_bank_model(BankModel::Dram {
            hit_cycle: 1,
            rows: 4,
        });
        let mut dw = PatternWorkload::from_specs(&dram_cfg, &specs);
        let dram = measure_steady_state_workload(&dram_cfg, &mut dw, 0, 1_000_000).unwrap();
        let uni_cfg = SimConfig::single_cpu(g, 1);
        let mut uw = PatternWorkload::from_specs(&uni_cfg, &specs);
        let uni = measure_steady_state_workload(&uni_cfg, &mut uw, 0, 1_000_000).unwrap();
        assert_eq!(dram.beff, uni.beff);
        assert_eq!(dram.beff, Ratio::new(1, 2));
    }

    #[test]
    fn spec_build_respects_bank_model_rows() {
        let g = geom(8, 4);
        let uniform = SimConfig::single_cpu(g, 1);
        let dram = SimConfig::single_cpu(g, 1).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        });
        let spec = PatternSpec::Stride {
            start_bank: 0,
            distance: 1,
        };
        // Uniform: rows untracked, request.row always 0.
        let up = spec.build(&uniform);
        assert_eq!(up.request_at(9).row, 0);
        // DRAM: addr 9 → bank 1, row (9/8) % 4 = 1.
        let dp = spec.build(&dram);
        assert_eq!(dp.request_at(9).row, 1);
    }

    #[test]
    fn finite_ports_write_finished_markers() {
        let g = geom(8, 2);
        let cfg = SimConfig::single_cpu(g, 1);
        let mut w =
            PatternWorkload::new(vec![
                PatternPort::new(StridePattern::new(&g, spec(0, 1))).with_length(2)
            ]);
        let mut st = SimState::new(&cfg);
        step(&cfg, &mut st, &mut w, &mut NoopObserver);
        step(&cfg, &mut st, &mut w, &mut NoopObserver);
        assert!(w.is_finished());
        assert_eq!(w.state_signature(), vec![8]);
        assert_eq!(w.pending(PortId(0), 2), None);
        use crate::steady::ObservableWorkload as _;
        assert_eq!(w.signature_bound(), Some(8));
    }

    #[test]
    fn start_cycle_defers_first_request() {
        let g = geom(8, 2);
        let w = PatternWorkload::new(vec![
            PatternPort::new(StridePattern::new(&g, spec(2, 1))).starting_at(3)
        ]);
        assert_eq!(w.pending(PortId(0), 2), None);
        assert_eq!(w.pending(PortId(0), 3), Some(Request::to_bank(2)));
    }

    #[test]
    fn mixed_pattern_bound_is_max_and_none_dominates() {
        let g = geom(8, 2);
        let stride = AnyPattern::Stride(StridePattern::new(&g, spec(0, 1)));
        let random = AnyPattern::Gather(GatherPattern::new(
            &g,
            0,
            64,
            IndexPattern::PseudoRandom { seed: 1 },
        ));
        // m = 8 does not divide the span 60, so the gather keeps its index
        // period 60, above the stride's bound 8.
        let affine = AnyPattern::Gather(GatherPattern::new(
            &g,
            0,
            60,
            IndexPattern::Affine { a: 1, c: 0 },
        ));
        let bounded =
            PatternWorkload::new(vec![PatternPort::new(stride), PatternPort::new(affine)]);
        assert_eq!(bounded.signature_bound(), Some(60));
        assert!(bounded.periodic());
        let unbounded =
            PatternWorkload::new(vec![PatternPort::new(stride), PatternPort::new(random)]);
        assert_eq!(unbounded.signature_bound(), None);
        assert!(!unbounded.periodic());
    }
}
