//! A small, deterministic pseudo-random number generator (std only).
//!
//! The simulator needs reproducible randomness for the random-access
//! workloads of the classical models and for randomized tests; it does not
//! need cryptographic quality. This is `splitmix64` (Steele, Lea & Flood,
//! "Fast splittable pseudorandom number generators", OOPSLA 2014) — the
//! generator used to seed xoshiro/xorshift families — which passes BigCrush
//! on its own and is a handful of arithmetic instructions per draw.
//!
//! The build environment is offline, so an external `rand` dependency is
//! not an option; this module keeps the same call-site vocabulary
//! (`seed_from_u64`, `gen_range`, `gen_bool`) to stay familiar.

/// A 64-bit splitmix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// A generator with the given seed. Equal seeds give equal sequences.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `range` (half-open). Panics on an empty range.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = range.end - range.start;
        // Debiased multiply-shift (Lemire, "Fast random integer generation
        // in an interval", 2019): rejecting low words below
        // `2^64 mod span` keeps the draw uniform even when `span` does not
        // divide 2^64. That threshold is below `span`, so the division is
        // needed only when the low word is — rarely, for small spans.
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        if (m as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        range.start + (m >> 64) as u64
    }

    /// A uniform draw from an inclusive range. Panics on an empty range.
    pub fn gen_range_inclusive(&mut self, range: std::ops::RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "gen_range_inclusive on empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        self.gen_range(lo..hi + 1)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // Compare against the top 53 bits, the full precision of an f64.
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference sequence for seed 1234567 from the splitmix64 paper's
        // reference implementation (also used by the xoshiro test vectors).
        let mut r = SmallRng::seed_from_u64(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range_inclusive(0..=5);
            assert!(y <= 5);
        }
        // Every value of a small range is hit.
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.gen_range(0..4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The always-divide formulation `gen_range` replaced: the threshold
    /// `2^64 mod span` is computed before every draw.
    fn gen_range_reference(rng: &mut SmallRng, range: std::ops::Range<u64>) -> u64 {
        let span = range.end - range.start;
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = rng.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= threshold {
                return range.start + (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn gen_range_matches_always_divide_reference() {
        // Same draws and same generator state, rejections included: spans
        // that divide 2^64 (never reject), tiny and huge spans, and
        // 2^63 + 1, which rejects almost half of all words.
        for span in [
            1u64,
            2,
            3,
            5,
            16,
            1000,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ] {
            let mut fast = SmallRng::seed_from_u64(span ^ 0x5EED);
            let mut reference = fast.clone();
            for i in 0..10_000 {
                let start = (i % 7).min(u64::MAX - span);
                let range = start..start + span;
                assert_eq!(
                    fast.gen_range(range.clone()),
                    gen_range_reference(&mut reference, range),
                    "span {span}, draw {i}"
                );
                assert_eq!(fast, reference, "span {span}, draw {i}");
            }
        }
        let mut fast = SmallRng::seed_from_u64(3);
        let mut reference = fast.clone();
        for _ in 0..10_000 {
            assert_eq!(fast.gen_range_inclusive(0..=u64::MAX), reference.next_u64());
        }
        assert_eq!(fast, reference);
    }

    #[test]
    fn gen_bool_frequencies() {
        let mut r = SmallRng::seed_from_u64(99);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.8)).count();
        assert!((78_000..82_000).contains(&hits), "p=0.8 hit rate: {hits}");
        assert!((0..1000).all(|_| !r.gen_bool(0.0)));
        assert!((0..1000).all(|_| r.gen_bool(1.0)));
    }
}
