//! Minimal-period slot encodings of the access patterns.
//!
//! Every pattern's slot takes one value per reduced position `k mod
//! period_hint()`: a gather packs `k mod period_hint()` itself, a stride
//! or burst the upcoming address residue modulo `m·max(rows, 1)`, which
//! repeats with exactly that period. So the steady-state solver can only
//! report the minimal period of a workload when each hint is the minimal
//! period of that port's `(bank, row)` request sequence. Two properties
//! hold that down:
//!
//! * **minimality** — brute force finds no period shorter than the hint,
//!   for strides, bursts and affine gathers, with and without DRAM rows,
//!   on both sides of the gather's `m·rows | span` case split; and the
//!   finished marker stays distinct from every live slot and within the
//!   declared bound;
//! * **bit-identity** — re-encoding affine gathers by their (longer)
//!   index period, as the slot encoding once did, changes nothing the
//!   solver reports but the period it takes to find it: identical `b_eff`,
//!   per-port bandwidth and exactness, and a period that divides the old
//!   one.

use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::pattern::{
    AccessPattern, BurstPattern, GatherPattern, IndexPattern, PatternPort, PatternWorkload,
    StridePattern,
};
use vecmem_banksim::steady::{measure_steady_state_workload, SteadyState};
use vecmem_banksim::{BankModel, PriorityRule, Request, SimConfig};
use vecmem_prop::prelude::*;
use vecmem_prop::select;

/// Smallest `T ≥ 1` with `request_at(k + T) == request_at(k)` for every
/// `k < 2·limit`, searched up to `limit`.
fn brute_force_period<P: AccessPattern>(p: &P, limit: u64) -> Option<u64> {
    let requests: Vec<Request> = (0..3 * limit).map(|k| p.request_at(k)).collect();
    (1..=limit).find(|&t| (0..2 * limit as usize).all(|k| requests[k + t as usize] == requests[k]))
}

/// The hint is the minimal request period, and the finished marker is a
/// distinct, in-bound slot.
fn check_minimal<P: AccessPattern + std::fmt::Debug>(p: &P) -> Result<(), TestCaseError> {
    let hint = p.period_hint().expect("periodic pattern");
    prop_assert_eq!(brute_force_period(p, hint), Some(hint), "{:?}", p);
    let bound = p.slot_bound().expect("bounded pattern");
    let finished = p.finished_code();
    prop_assert!(
        finished <= bound,
        "marker {} above bound {}",
        finished,
        bound
    );
    for k in 0..2 * hint {
        for cooldown in 0..p.burst() {
            let slot = p.encode_slot(k, cooldown);
            prop_assert!(slot != finished, "live slot {} is the marker", slot);
            prop_assert!(slot <= bound, "slot {} above bound {}", slot, bound);
        }
    }
    Ok(())
}

/// Checks one stride, one burst and one affine gather built from the same
/// parameters on `m` banks with `rows` rows (`0` = uniform model).
fn check_families(
    m: u64,
    rows: u64,
    span: u64,
    (a, c, base): (u64, u64, u64),
    d: u64,
    burst: u64,
) -> Result<(), TestCaseError> {
    let geom = Geometry::unsectioned(m, 2).unwrap();
    let spec = StreamSpec {
        start_bank: c % m,
        distance: d,
    };
    check_minimal(&StridePattern::with_rows(&geom, spec, rows))?;
    check_minimal(&BurstPattern::with_rows(&geom, spec, burst, rows))?;
    let index = IndexPattern::Affine { a, c };
    check_minimal(&GatherPattern::with_rows(&geom, base, span, index, rows))
}

#[test]
fn pinned_gathers_cover_both_sides_of_the_case_split() {
    // (m, rows, span): modulus m·max(rows, 1) divides the span in the
    // first two, not in the last three.
    for (m, rows, span) in [
        (16, 0, 1024),
        (8, 4, 256),
        (13, 0, 512),
        (12, 0, 40),
        (8, 2, 24),
    ] {
        for a in [0, 1, 3, 6, 9, 16] {
            check_families(m, rows, span, (a, 5, 3), a + 1, 2).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random small cases; half of them force `m·max(rows, 1) | span`.
    #[test]
    fn period_hints_are_minimal(
        m in 2u64..=16,
        rows in select(vec![0u64, 2, 4]),
        span_raw in 1u64..=512,
        divisible in 0u64..=1,
        a in 0u64..=600,
        c in 0u64..=600,
        d in 0u64..=100,
        burst in 1u64..=4,
    ) {
        let modulus = m * rows.max(1);
        let span = if divisible == 1 {
            modulus * (span_raw % 8 + 1)
        } else {
            span_raw
        };
        check_families(m, rows, span, (a, c, (c * 31) % 97), d, burst)?;
    }
}

/// An affine gather slot-encoded by its index period — the encoding the
/// gather pattern used before it learned its request period. Requests are
/// the wrapped gather's, unchanged.
#[derive(Debug, Clone)]
struct IndexPeriodSlots {
    gather: GatherPattern,
    index_period: u64,
}

impl AccessPattern for IndexPeriodSlots {
    fn request_at(&self, k: u64) -> Request {
        self.gather.request_at(k)
    }
    fn encode_slot(&self, k: u64, _cooldown: u64) -> u64 {
        k % self.index_period
    }
    fn finished_code(&self) -> u64 {
        self.index_period
    }
    fn slot_bound(&self) -> Option<u64> {
        Some(self.index_period)
    }
    fn period_hint(&self) -> Option<u64> {
        Some(self.index_period)
    }
}

const MAX_CYCLES: u64 = 2_000_000;

fn steady<P: AccessPattern>(config: &SimConfig, patterns: Vec<P>) -> SteadyState {
    let mut w = PatternWorkload::new(patterns.into_iter().map(PatternPort::new).collect());
    measure_steady_state_workload(config, &mut w, 0, MAX_CYCLES, 0, |_| {}).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two affine gather ports, uniform or DRAM banks, power-of-two or
    /// prime bank counts, fixed or cyclic priority.
    #[test]
    fn request_period_slots_match_index_period_slots(
        m in select(vec![4u64, 8, 16, 5, 7, 13]),
        nc in 1u64..=4,
        dram in select(vec![None, Some(2u64), Some(4)]),
        cyclic in 0u64..=1,
        span in select(vec![64u64, 128, 256, 96, 104]),
        ports in (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
        bases in (0u64..64, 0u64..64),
    ) {
        let geom = Geometry::unsectioned(m, nc).unwrap();
        let priority = if cyclic == 1 { PriorityRule::Cyclic } else { PriorityRule::Fixed };
        let bank_model = match dram {
            None => BankModel::Uniform,
            Some(rows) => BankModel::Dram { hit_cycle: 1 + ports.0 % nc, rows },
        };
        let rows = dram.unwrap_or(0);
        let config = SimConfig::one_port_per_cpu(geom, 2)
            .with_priority(priority)
            .with_bank_model(bank_model);
        let specs = [
            (bases.0, IndexPattern::Affine { a: ports.0 % span, c: ports.1 % span }),
            (bases.1, IndexPattern::Affine { a: ports.2 % span, c: ports.3 % span }),
        ];
        let gathers: Vec<GatherPattern> = specs
            .iter()
            .map(|&(base, index)| GatherPattern::with_rows(&geom, base, span, index, rows))
            .collect();
        let old_slots: Vec<IndexPeriodSlots> = gathers
            .iter()
            .zip(&specs)
            .map(|(&gather, (_, index))| IndexPeriodSlots {
                gather,
                index_period: index.period(span).unwrap(),
            })
            .collect();
        for (new, old) in gathers.iter().zip(&old_slots) {
            let hint = new.period_hint().unwrap();
            prop_assert_eq!(old.index_period % hint, 0, "{:?}", new);
        }
        let new = steady(&config, gathers);
        let old = steady(&config, old_slots);
        prop_assert_eq!(new.beff, old.beff);
        prop_assert_eq!(&new.per_port, &old.per_port);
        prop_assert_eq!(new.exact, old.exact);
        prop_assert_eq!(old.period % new.period, 0, "{} vs {}", new.period, old.period);
        prop_assert!(new.transient <= old.transient);
    }
}
