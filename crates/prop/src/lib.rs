//! # vecmem-prop
//!
//! A minimal, dependency-free property-testing harness exposing the subset
//! of the `proptest` surface that this workspace's test suites use:
//!
//! * [`Strategy`] — a composable value generator with `prop_map`;
//! * range strategies over `u64` (`2u64..=24`, `0u64..24`, …) and tuples of
//!   strategies;
//! * the [`proptest!`] macro, which expands each `fn name(x in strategy)`
//!   item to a `#[test]` running the body over many generated cases;
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assume!` and
//!   [`ProptestConfig`] for case counts.
//!
//! Generation is deterministic: the case RNG is seeded from the test's name,
//! so failures reproduce across runs without a regression file. On failure
//! the harness panics with the generated inputs so the case can be replayed
//! as a plain unit test.

// Panic policy for non-test library code; bins and integration tests are
// separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod rng;
pub mod strategy;

pub use rng::TestRng;
pub use strategy::{select, Map, Select, Strategy};

/// The harness's deterministic seed set for `name`: `count` seeds drawn
/// from the same name-keyed RNG that [`proptest!`] uses for case
/// generation. Lets plain unit tests average a randomized measurement over
/// a reproducible seed population instead of trusting a single seed.
#[must_use]
pub fn seeds(name: &str, count: usize) -> Vec<u64> {
    let mut rng = TestRng::from_name(name);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// Configuration accepted by `#![proptest_config(...)]` inside [`proptest!`].
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` — generate a fresh one.
    Reject(String),
    /// A `prop_assert*!` failed — the property is falsified.
    Fail(String),
}

impl TestCaseError {
    /// A rejection (used by `prop_assume!`).
    #[must_use]
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }

    /// A failure (used by `prop_assert*!`).
    #[must_use]
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

/// Runs `body` over `config.cases` accepted cases generated by `strategy`.
///
/// Rejected cases (via [`TestCaseError::Reject`]) do not count toward the
/// case total; after `cases * 64` rejections in a row the property panics as
/// over-constrained. Failures panic with a debug rendering of the inputs.
pub fn run_property<S, F>(name: &str, config: &ProptestConfig, strategy: &S, mut body: F)
where
    S: Strategy,
    S::Value: std::fmt::Debug,
    F: FnMut(&S::Value) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(name);
    let mut accepted: u32 = 0;
    let mut rejected_in_a_row: u64 = 0;
    let reject_limit = u64::from(config.cases) * 64;
    while accepted < config.cases {
        let value = strategy.generate(&mut rng);
        match body(&value) {
            Ok(()) => {
                accepted += 1;
                rejected_in_a_row = 0;
            }
            Err(TestCaseError::Reject(_)) => {
                rejected_in_a_row += 1;
                assert!(
                    rejected_in_a_row <= reject_limit,
                    "property `{name}`: {reject_limit} consecutive rejections — \
                     the prop_assume! filter is too strict for the strategy"
                );
            }
            #[expect(
                clippy::panic,
                reason = "a falsified property fails its test by panicking, as proptest does"
            )]
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property `{name}` falsified after {accepted} passing case(s)\n\
                     inputs: {value:?}\n{msg}"
                );
            }
        }
    }
}

/// Declares property tests. Mirrors `proptest::proptest!`:
///
/// ```
/// use vecmem_prop::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[allow(
    clippy::test_attr_in_doctest,
    reason = "the `#[test]` in the doctest is the macro's input syntax, not a test the doctest runs"
)]
#[macro_export]
macro_rules! proptest {
    // With a leading config attribute.
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    // Without one: default config.
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`] — not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr;) => {};
    (
        config = $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let strategy = ($($strat,)+);
            $crate::run_property(
                stringify!($name),
                &config,
                &strategy,
                |&($(ref $arg,)+)| {
                    $(let $arg = ::std::clone::Clone::clone($arg);)+
                    (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(
                            unreachable_code,
                            reason = "a body that always returns early leaves the trailing `Ok(())` unreachable"
                        )]
                        Ok(())
                    })()
                },
            );
        }
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
}

/// Fails the surrounding property case when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the surrounding property case when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = &$left;
        let right = &$right;
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = &$left;
        let right = &$right;
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Rejects the current case (without failing the property) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Glob-import target matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(a in 3u64..17, b in 5u64..=9) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((5..=9).contains(&b));
        }

        #[test]
        fn mapped_strategies_apply_function(x in (1u64..10).prop_map(|v| v * 2)) {
            prop_assert!(x % 2 == 0);
            prop_assert!((2..20).contains(&x));
        }

        #[test]
        fn assume_filters_cases(n in 0u64..100) {
            prop_assume!(n % 3 == 0);
            prop_assert_eq!(n % 3, 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let strat = (0u64..1_000_000, 0u64..1_000_000);
        let mut first = Vec::new();
        let mut second = Vec::new();
        let config = ProptestConfig::with_cases(10);
        crate::run_property("det", &config, &strat, |v| {
            first.push(*v);
            Ok(())
        });
        crate::run_property("det", &config, &strat, |v| {
            second.push(*v);
            Ok(())
        });
        assert_eq!(first, second);
        let mut other = Vec::new();
        crate::run_property("det2", &config, &strat, |v| {
            other.push(*v);
            Ok(())
        });
        assert_ne!(
            first, other,
            "different test names must get different streams"
        );
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failures_panic_with_inputs() {
        let config = ProptestConfig::with_cases(16);
        crate::run_property("always_fails", &config, &(0u64..10,), |_| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
