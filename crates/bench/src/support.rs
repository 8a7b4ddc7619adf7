//! Panic-policy helpers for the bench layer: the two documented expects
//! every figure and table builder funnels through, so each invariant is
//! stated (and suppressed) exactly once instead of at every call site.

use vecmem_analytic::ModelError;
use vecmem_banksim::SteadyStateError;

/// Unwraps a constructor fed with literal parameters transcribed from the
/// paper. A rejection is a transcription typo, not a runtime condition;
/// the figure and table tests catch one instantly.
#[expect(
    clippy::expect_used,
    reason = "literal paper parameters: a rejection is a transcription typo the tests catch at once"
)]
pub(crate) fn paper<T>(v: Result<T, ModelError>) -> T {
    v.expect("paper parameters")
}

/// Unwraps a steady-state measurement of a catalogued scenario. Every
/// catalogued geometry/stream pair reaches its cyclic steady state well
/// inside the configured budget; the ratchet tests pin each value.
#[expect(
    clippy::expect_used,
    reason = "catalogued scenarios converge within budget; the figure and table tests pin every value"
)]
pub(crate) fn converged<T>(v: Result<T, SteadyStateError>) -> T {
    v.expect("catalogued scenario converges")
}
