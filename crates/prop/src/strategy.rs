//! Value-generation strategies: ranges, tuples, and `prop_map`.

use crate::rng::TestRng;
use std::ops::{Range, RangeInclusive};

/// A composable generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value from this strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy producing `f(v)` for each `v` this strategy produces.
    fn prop_map<F, T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy drawing uniformly from a fixed list of values (the
/// proptest `sample::select` shape). Useful for enum-like choices — section
/// mappings, priority rules, divisor lists — that ranges cannot express.
#[derive(Debug, Clone)]
pub struct Select<T> {
    values: Vec<T>,
}

/// Uniform choice among `values`.
///
/// # Panics
/// If `values` is empty.
#[must_use]
pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
    assert!(!values.is_empty(), "select requires at least one value");
    Select { values }
}

impl<T: Clone> Strategy for Select<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.values[rng.bounded(self.values.len() as u64) as usize].clone()
    }
}

impl Strategy for Range<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy {self:?}");
        self.start + rng.bounded(self.end - self.start)
    }
}

impl Strategy for RangeInclusive<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy {self:?}");
        let span = end - start;
        if span == u64::MAX {
            return rng.next_u64();
        }
        start + rng.bounded(span + 1)
    }
}

impl Strategy for Range<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty range strategy {self:?}");
        self.start + rng.bounded((self.end - self.start) as u64) as usize
    }
}

impl Strategy for RangeInclusive<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy {self:?}");
        start + rng.bounded((end - start) as u64 + 1) as usize
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(
                non_snake_case,
                reason = "the type parameters double as the tuple's binding names"
            )]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::seed_from_u64(42);
        for _ in 0..500 {
            let a = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&a));
            let b = (10u64..=20).generate(&mut rng);
            assert!((10..=20).contains(&b));
            let c = (3usize..=3).generate(&mut rng);
            assert_eq!(c, 3);
        }
    }

    #[test]
    fn tuples_compose_and_map_applies() {
        let strat = (2u64..=24, 1u64..=6).prop_map(|(m, nc)| (m * 100, nc));
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..100 {
            let (m, nc) = strat.generate(&mut rng);
            assert_eq!(m % 100, 0);
            assert!((200..=2400).contains(&m));
            assert!((1..=6).contains(&nc));
        }
    }

    #[test]
    fn full_u64_range_does_not_overflow() {
        let mut rng = TestRng::seed_from_u64(9);
        let _ = (0u64..=u64::MAX).generate(&mut rng);
    }

    #[test]
    fn select_draws_every_value() {
        let strat = select(vec![2u64, 3, 5]);
        let mut rng = TestRng::seed_from_u64(7);
        let mut seen = [false; 3];
        for _ in 0..200 {
            match strat.generate(&mut rng) {
                2 => seen[0] = true,
                3 => seen[1] = true,
                5 => seen[2] = true,
                other => panic!("unexpected value {other}"),
            }
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn select_rejects_empty_list() {
        let _ = select(Vec::<u64>::new());
    }
}
