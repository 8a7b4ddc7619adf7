//! Exact steady-state (cyclic state) effective bandwidth, in bounded
//! memory.
//!
//! Paper §III, assumption 1: "the possible memory states are finite, and
//! some cyclic state will be reached. Neglecting startup times, we compute
//! the effective bandwidth for the cyclic state." The solver realises this
//! literally: the full simulator state — remaining bank busy times, each
//! stream's reduced position, and the priority rotation — is a [`SimState`]
//! core, and as soon as a core recurs, the bandwidth over one period of the
//! cycle is exact and final.
//!
//! Recurrence is found with a multi-anchor variant of **Brent's
//! cycle-finding algorithm** over the state's incrementally maintained
//! hash:
//!
//! * the searching cursor keeps snapshots of itself at every power-of-two
//!   step count and compares each new state against *all* of them (a scan
//!   of one `u64` hash per snapshot). The first match is provably exactly
//!   one period `λ` behind the cursor: had the distance been `k·λ` with
//!   `k ≥ 2`, the same snapshot would already have matched `λ` steps
//!   earlier. This finds `λ` in `μ' + λ` steps, where `μ'` is the first
//!   power of two ≥ the transient length `μ`;
//! * every cursor carries cumulative per-port grant and conflict
//!   counters, so the difference between the cursor and the matched
//!   snapshot is one full period of window statistics — period sums are
//!   phase-independent, so no replay pass is needed;
//! * the matched snapshot is the first one on the cycle, so the transient
//!   `μ` lies between the snapshot before it and the matched one, and the
//!   exact `μ` comes from walking two cursors `λ` apart from that earlier
//!   snapshot until they meet. When the match was against the start
//!   snapshot the transient is zero and this phase is skipped entirely.
//!   The leading cursor is restored from the nearest *rung*: a restore
//!   checkpoint the searching cursor leaves every `RUNG_SPACING` steps
//!   and thins level by level (see `RUNGS_PER_LEVEL`), so its
//!   pre-advance is bounded by the gap between the two snapshots, not by
//!   `λ`. The whole phase costs `O(μ)` steps however long the period is.
//!
//! Equality is checked hash-first (one `u64` compare per cycle per
//! snapshot) and confirmed on the full core, so a hash collision can never
//! produce a wrong answer — only a skipped candidate. Memory use is
//! O(state · log(μ + λ)): one snapshot per power of two and at most
//! `RUNGS_PER_LEVEL` rungs per power of two, where the previous detector
//! kept a hash map entry (state key + per-port grant vector) for *every*
//! simulated cycle.

use crate::config::SimConfig;
use crate::observe::NoopObserver;
use crate::request::PortOutcome;
use crate::state::SimState;
use crate::stats::ConflictCounts;
use crate::step::step;
use crate::workload::Workload;
use vecmem_analytic::Ratio;

/// Measured cyclic state of a set of infinite streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SteadyState {
    /// Exact effective bandwidth `b_eff` (grants per clock period over one
    /// period of the cyclic state).
    pub beff: Ratio,
    /// Clock periods before the cyclic state is first entered.
    pub transient: u64,
    /// Length of the cycle in clock periods.
    pub period: u64,
    /// Total grants within one period.
    pub grants_per_period: u64,
    /// Per-port exact bandwidth within the cycle.
    pub per_port: Vec<Ratio>,
    /// Conflicts per period, by kind.
    pub conflicts_per_period: ConflictCounts,
    /// `true` when the figures come from an exact recurrence of the state
    /// core (the normal case); `false` when the workload declared itself
    /// aperiodic and the figures are a windowed estimate over `period`
    /// cycles instead (see [`WINDOWED_FALLBACK_CYCLES`]).
    pub exact: bool,
}

impl SteadyState {
    /// True when no conflicts occur in the cyclic state (i.e. the streams
    /// run at full bandwidth forever once synchronised).
    #[must_use]
    pub fn conflict_free(&self) -> bool {
        self.conflicts_per_period.total() == 0
    }
}

/// Error from the steady-state measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyStateError {
    /// No cyclic state found within the cycle budget (should not happen for
    /// valid stream workloads; the state space is finite).
    NotConverged {
        /// The exhausted cycle budget (the `max_cycles` the caller allowed
        /// for the search, not counting warmup).
        cycles: u64,
    },
}

impl std::fmt::Display for SteadyStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotConverged { cycles } => {
                write!(f, "no cyclic state within {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SteadyStateError {}

/// A workload whose full dynamic state can be summarised for cyclic-state
/// detection. The signature, together with the bank residues and priority
/// rotation, must determine all future behaviour.
pub trait ObservableWorkload: Workload {
    /// Number of `u64` slots the signature occupies. Must be constant over
    /// the workload's lifetime.
    fn signature_len(&self) -> usize;

    /// Writes the current signature into `out`, which has exactly
    /// [`signature_len`](Self::signature_len) slots.
    fn write_signature(&self, out: &mut [u64]);

    /// Compact encoding of the workload state, as an owned vector.
    fn state_signature(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.signature_len()];
        self.write_signature(&mut out);
        out
    }

    /// Inclusive upper bound every signature slot stays within, when the
    /// workload knows one; `None` (the default) declares the signature
    /// unbounded and disables all bound checking.
    ///
    /// # Contract
    ///
    /// * The bound is **inclusive** and applies to **every** slot the
    ///   workload writes through [`write_signature`](Self::write_signature)
    ///   — including any end-of-stream marker values (the stride streams,
    ///   for example, write the bank count `m` for a finished port, so
    ///   their bound is `m`, not `m − 1`).
    /// * It must hold for the **initial** signature as well as after every
    ///   cycle: the steady-state cursor validates the freshly constructed
    ///   state once at construction (panicking on a violation, naming the
    ///   offending slot), and the `sanitize` feature re-checks after every
    ///   cycle via [`SimState::validate`], which reports an out-of-bound
    ///   slot as the named
    ///   [`InvariantViolation::PositionOutOfRange`](crate::state::InvariantViolation::PositionOutOfRange)
    ///   instead of a generic assert.
    /// * It must be constant over the workload's lifetime (it is wired
    ///   into the state once, via [`SimState::set_slot_bound`]).
    fn signature_bound(&self) -> Option<u64> {
        None
    }

    /// Whether the workload's request sequences are (eventually) periodic
    /// in the granted-request count — the premise of cyclic-state
    /// recurrence. The default is `true`, which is correct for every
    /// finite-state workload. A workload that knows its addresses never
    /// recur (e.g. a pseudo-random gather whose signature is the raw issue
    /// count) returns `false`, and the steady-state solver answers with a
    /// budgeted windowed estimate instead of spinning the full cycle
    /// budget into [`SteadyStateError::NotConverged`].
    fn periodic(&self) -> bool {
        true
    }
}

impl<W: ObservableWorkload + ?Sized> ObservableWorkload for &mut W {
    fn signature_len(&self) -> usize {
        (**self).signature_len()
    }
    fn write_signature(&self, out: &mut [u64]) {
        (**self).write_signature(out);
    }
    fn signature_bound(&self) -> Option<u64> {
        (**self).signature_bound()
    }
    fn periodic(&self) -> bool {
        (**self).periodic()
    }
}

impl<W: Workload + ?Sized> Workload for &mut W {
    fn pending(&self, port: crate::request::PortId, now: u64) -> Option<crate::request::Request> {
        (**self).pending(port, now)
    }
    fn granted(&mut self, port: crate::request::PortId, now: u64) {
        (**self).granted(port, now);
    }
    fn tick(&mut self, now: u64) {
        (**self).tick(now);
    }
    fn is_finished(&self) -> bool {
        (**self).is_finished()
    }
}

/// One deterministic replayable trajectory: a state plus the workload
/// driving it, with the workload's signature mirrored into the state's
/// position slots after every step so the state core alone decides
/// recurrence. The cursor also carries cumulative per-port grant and
/// conflict counters so any two points on the same trajectory define a
/// window of statistics by subtraction.
struct Cursor<'c, W> {
    config: &'c SimConfig,
    state: SimState,
    workload: W,
    sig_buf: Vec<u64>,
    per_port: Vec<u64>,
    conflicts: ConflictCounts,
}

/// Search steps between two rungs (restore checkpoints). A power of two,
/// so every rung sits at a multiple of it.
const RUNG_SPACING: u64 = 64;

/// Rungs kept per level: a rung at step `q`, a multiple of `2^k` with `k =
/// q.trailing_zeros()`, is kept while the searching cursor is fewer than
/// `RUNGS_PER_LEVEL · 2^k` steps past it. So for any lag `L` behind the
/// cursor, a rung (or power-of-two snapshot) lies fewer than `max(
/// RUNG_SPACING, 2^⌈log2(L/3)⌉)` steps before that point, and at most
/// `RUNGS_PER_LEVEL` rungs per level are alive at once.
const RUNGS_PER_LEVEL: u64 = 4;

/// A saved cursor position: the trajectory step count (post-warmup), the
/// state, the workload, and the cumulative counters at that point.
struct Snapshot<W> {
    pos: u64,
    state: SimState,
    workload: W,
    per_port: Vec<u64>,
    conflicts: ConflictCounts,
}

impl<'c, W: ObservableWorkload + Clone> Cursor<'c, W> {
    fn new(config: &'c SimConfig, workload: W) -> Self {
        let sig_len = workload.signature_len();
        let mut cursor = Self {
            config,
            state: SimState::with_signature_slots(config, sig_len),
            workload,
            sig_buf: vec![0u64; sig_len],
            per_port: vec![0u64; config.num_ports()],
            conflicts: ConflictCounts::default(),
        };
        let bound = cursor.workload.signature_bound();
        cursor.state.set_slot_bound(bound);
        cursor.sync();
        // Construction-time contract check: the initial signature must
        // already satisfy the declared bound (see
        // `ObservableWorkload::signature_bound`).
        #[expect(
            clippy::panic,
            reason = "a workload that breaks its signature contract at construction must abort loudly"
        )]
        if let Err(violation) = cursor.state.validate() {
            panic!("workload signature invalid at construction: {violation}");
        }
        cursor
    }

    fn sync(&mut self) {
        self.workload.write_signature(&mut self.sig_buf);
        self.state.sync_signature(&self.sig_buf);
    }

    fn advance(&mut self) {
        step(
            self.config,
            &mut self.state,
            &mut self.workload,
            &mut NoopObserver,
        );
        self.sync();
        for ev in &self.state.outcomes {
            match ev.outcome {
                // vecmem-lint: allow(L7) -- port ids come from the kernel's own config, always < ports
                PortOutcome::Granted => self.per_port[ev.port.0] += 1,
                PortOutcome::Delayed(kind) => self.conflicts.record(kind),
            }
        }
    }

    fn advance_by(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.advance();
        }
    }

    fn snapshot(&self, pos: u64) -> Snapshot<W> {
        Snapshot {
            pos,
            state: self.state.copy_core(),
            workload: self.workload.clone(),
            per_port: self.per_port.clone(),
            conflicts: self.conflicts,
        }
    }

    fn restore(config: &'c SimConfig, snap: &Snapshot<W>) -> Self {
        let sig_len = snap.workload.signature_len();
        Self {
            config,
            state: snap.state.copy_core(),
            workload: snap.workload.clone(),
            sig_buf: vec![0u64; sig_len],
            per_port: snap.per_port.clone(),
            conflicts: snap.conflicts,
        }
    }
}

/// Runs any observable workload until the simulator state recurs and
/// returns the exact cyclic-state bandwidth. `warmup` cycles are simulated
/// first (use this to get past start-time offsets that are not part of the
/// state signature); `max_cycles` bounds the post-warmup search.
///
/// The caller's workload is read (and cloned) but left untouched; the
/// search replays pristine clones internally.
///
/// # Errors
/// Returns [`SteadyStateError::NotConverged`] when the simulator state does
/// not recur within `max_cycles` after warmup.
pub fn measure_steady_state_workload<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    workload: &mut W,
    warmup: u64,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    // Aperiodic workloads (per their own declaration) can never recur:
    // answer with a budgeted windowed estimate instead of burning the full
    // cycle budget on a search that must fail.
    if !workload.periodic() {
        return measure_windowed(config, workload, warmup, max_cycles);
    }
    let not_converged = SteadyStateError::NotConverged { cycles: max_cycles };

    // Search cursor: pristine workload advanced through warmup, then
    // stepped while racing against snapshots of its own past taken at
    // every power-of-two step count. The first recurrence is provably
    // exactly one period behind the cursor (a distance of k·λ with k ≥ 2
    // would have matched the same snapshot λ steps sooner). Between
    // snapshots it leaves rungs, never compared against, only restored
    // from by the transient walk.
    let mut hare = Cursor::new(config, workload.clone());
    hare.advance_by(warmup);
    let mut snaps: Vec<Snapshot<W>> = vec![hare.snapshot(0)];
    let mut snap_hashes: Vec<u64> = vec![hare.state.hash()];
    let mut rungs: Vec<Snapshot<W>> = Vec::new();
    let mut pos: u64 = 0;
    let mut next_snap: u64 = 1;
    let (lambda, matched) = loop {
        if pos >= max_cycles {
            return Err(not_converged);
        }
        hare.advance();
        pos += 1;
        let h = hare.state.hash();
        let mut found = None;
        for (i, &sh) in snap_hashes.iter().enumerate() {
            if sh == h && snaps[i].state == hare.state {
                found = Some(i);
                break;
            }
        }
        if let Some(i) = found {
            break (pos - snaps[i].pos, i);
        }
        if pos == next_snap {
            snaps.push(hare.snapshot(pos));
            snap_hashes.push(h);
            next_snap *= 2;
        } else if pos.is_multiple_of(RUNG_SPACING) {
            rungs.retain(|r| (pos - r.pos) >> r.pos.trailing_zeros() < RUNGS_PER_LEVEL);
            rungs.push(hare.snapshot(pos));
        }
    };

    // One full period of window statistics, by subtraction: period sums
    // are phase-independent, so the window [matched.pos, pos) is as good
    // as [μ, μ+λ).
    let anchor = &snaps[matched];
    let per_port_grants: Vec<u64> = hare
        .per_port
        .iter()
        .zip(&anchor.per_port)
        .map(|(&a, &b)| a - b)
        .collect();
    let conflicts = hare.conflicts - anchor.conflicts;

    let mu = transient(config, &snaps, &rungs, matched, lambda);
    let grants_per_period: u64 = per_port_grants.iter().sum();
    Ok(SteadyState {
        beff: Ratio::new(grants_per_period, lambda),
        transient: warmup + mu,
        period: lambda,
        grants_per_period,
        per_port: per_port_grants
            .iter()
            .map(|&g| Ratio::new(g, lambda))
            .collect(),
        conflicts_per_period: conflicts,
        exact: true,
    })
}

/// Transient μ: the first post-warmup step whose state lies on the cycle,
/// given that the search first recurred onto `snaps[matched]` one period
/// `lambda` after it. A match against the start snapshot means the
/// trajectory was cyclic from the start. Otherwise the matched snapshot is
/// the first one on the cycle (an earlier one would have matched sooner),
/// so μ lies in `(prev.pos, anchor.pos]` for the snapshot `prev` before it.
/// Two cursors `lambda` apart, the trailing one restored from `prev` and
/// the leading one from the latest rung or snapshot at or before `prev.pos
/// + lambda`, meet exactly at μ; reaching `anchor.pos` without meeting
/// means μ is `anchor.pos`.
fn transient<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    snaps: &[Snapshot<W>],
    rungs: &[Snapshot<W>],
    matched: usize,
    lambda: u64,
) -> u64 {
    let Some(before) = matched.checked_sub(1) else {
        return 0;
    };
    let (prev, anchor) = (&snaps[before], &snaps[matched]);
    let mut mu = prev.pos + 1;
    if mu == anchor.pos {
        return mu;
    }
    let target = prev.pos + lambda;
    let near = snaps
        .iter()
        .chain(rungs)
        .filter(|s| s.pos <= target)
        .max_by_key(|s| s.pos)
        .unwrap_or(prev);
    let mut ahead = Cursor::restore(config, near);
    ahead.advance_by(target - near.pos);
    let mut behind = Cursor::restore(config, prev);
    while mu < anchor.pos {
        ahead.advance();
        behind.advance();
        if ahead.state.hash() == behind.state.hash() && ahead.state == behind.state {
            break;
        }
        mu += 1;
    }
    mu
}

/// Cycle budget of the windowed estimate used for self-declared aperiodic
/// workloads: the measurement window is `min(max_cycles, this)` cycles
/// after warmup.
pub const WINDOWED_FALLBACK_CYCLES: u64 = 1 << 16;

/// Budgeted windowed estimate for workloads that declare themselves
/// aperiodic ([`ObservableWorkload::periodic`] = `false`): simulate
/// `warmup` cycles, then a window of `min(max_cycles,`
/// [`WINDOWED_FALLBACK_CYCLES`]`)` cycles, and report the window averages
/// with [`SteadyState::exact`] = `false`. No snapshots are kept — there is
/// nothing to recur against.
fn measure_windowed<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    workload: &mut W,
    warmup: u64,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    let window = max_cycles.min(WINDOWED_FALLBACK_CYCLES);
    if window == 0 {
        return Err(SteadyStateError::NotConverged { cycles: max_cycles });
    }
    let mut cursor = Cursor::new(config, workload.clone());
    cursor.advance_by(warmup);
    let base_per_port = cursor.per_port.clone();
    let base_conflicts = cursor.conflicts;
    cursor.advance_by(window);
    let per_port_grants: Vec<u64> = cursor
        .per_port
        .iter()
        .zip(&base_per_port)
        .map(|(&a, &b)| a - b)
        .collect();
    let grants_per_period: u64 = per_port_grants.iter().sum();
    Ok(SteadyState {
        beff: Ratio::new(grants_per_period, window),
        transient: warmup,
        period: window,
        grants_per_period,
        per_port: per_port_grants
            .iter()
            .map(|&g| Ratio::new(g, window))
            .collect(),
        conflicts_per_period: cursor.conflicts - base_conflicts,
        exact: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PortId, Request};
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::rc::Rc;
    use vecmem_analytic::Geometry;

    /// Port p cycles through banks `p, p + d, p + 2d, …` (mod m).
    #[derive(Clone)]
    struct Strides {
        m: u64,
        d: Vec<u64>,
        pos: Vec<u64>,
    }

    impl Strides {
        fn new(m: u64, d: &[u64]) -> Self {
            Self {
                m,
                d: d.to_vec(),
                pos: (0..d.len() as u64).collect(),
            }
        }
    }

    impl Workload for Strides {
        fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
            self.pos.get(port.0).map(|&bank| Request::to_bank(bank))
        }
        fn granted(&mut self, port: PortId, _now: u64) {
            self.pos[port.0] = (self.pos[port.0] + self.d[port.0]) % self.m;
        }
        fn is_finished(&self) -> bool {
            false
        }
    }

    impl ObservableWorkload for Strides {
        fn signature_len(&self) -> usize {
            self.pos.len()
        }
        fn write_signature(&self, out: &mut [u64]) {
            out.copy_from_slice(&self.pos);
        }
    }

    #[test]
    fn unit_stride_single_stream_full_bandwidth() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(16, 4).unwrap(), 1);
        let mut w = Strides::new(16, &[1]);
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 10_000).unwrap();
        assert_eq!(ss.beff, Ratio::integer(1));
        assert!(ss.conflict_free());
        assert_eq!(ss.grants_per_period, ss.period);
    }

    /// A snapshot's scratch-free copy compares, hashes and steps like a
    /// full clone: over a contested two-port run, copy and clone taken at
    /// every cycle agree on the core, the hash and the next cycle's events.
    #[test]
    fn core_copy_steps_like_a_clone() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(8, 3).unwrap(), 2)
            .with_priority(crate::config::PriorityRule::Cyclic);
        let mut state = SimState::new(&cfg);
        let mut w = Strides::new(8, &[2, 6]);
        for _ in 0..40 {
            step(&cfg, &mut state, &mut w, &mut NoopObserver);
            let (mut copy, mut clone) = (state.copy_core(), state.clone());
            assert!(copy.outcomes().is_empty());
            assert!(copy == clone);
            assert_eq!(copy.hash(), clone.hash());
            let (mut wc, mut wk) = (w.clone(), w.clone());
            let ec = step(&cfg, &mut copy, &mut wc, &mut NoopObserver);
            let ek = step(&cfg, &mut clone, &mut wk, &mut NoopObserver);
            assert_eq!(ec, ek);
            assert_eq!(copy.outcomes(), clone.outcomes());
            assert!(copy == clone);
            assert_eq!(copy.now(), clone.now());
        }
    }

    #[test]
    fn self_conflicting_stream_quarter_bandwidth() {
        // d = 0: one bank hammered forever, b_eff = 1 / n_c.
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(8, 4).unwrap(), 1);
        let mut w = Strides::new(8, &[0]);
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 10_000).unwrap();
        assert_eq!(ss.beff, Ratio::new(1, 4));
        assert_eq!(ss.period, 4);
        assert_eq!(ss.conflicts_per_period.bank, 3);
    }

    #[test]
    fn budget_exhaustion_reports_the_budget() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(16, 4).unwrap(), 1);
        let mut w = Strides::new(16, &[1]);
        // The 16-bank unit stride needs more than 3 search cycles.
        let err = measure_steady_state_workload(&cfg, &mut w, 0, 3).unwrap_err();
        assert_eq!(err, SteadyStateError::NotConverged { cycles: 3 });
        assert_eq!(err.to_string(), "no cyclic state within 3 cycles");
        // Warmup does not inflate the reported budget.
        let err = measure_steady_state_workload(&cfg, &mut w, 100, 3).unwrap_err();
        assert_eq!(err, SteadyStateError::NotConverged { cycles: 3 });
    }

    #[test]
    fn caller_workload_left_untouched() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(8, 2).unwrap(), 1);
        let mut w = Strides::new(8, &[3]);
        let before = w.state_signature();
        let _ = measure_steady_state_workload(&cfg, &mut w, 0, 10_000).unwrap();
        assert_eq!(w.state_signature(), before);
    }

    /// Counts the cycles simulated by every clone of the wrapped workload,
    /// so a test sees the solver's whole step cost.
    #[derive(Clone)]
    struct Counted<W> {
        inner: W,
        cycles: Rc<Cell<u64>>,
    }

    impl<W: Workload> Workload for Counted<W> {
        fn pending(&self, port: PortId, now: u64) -> Option<Request> {
            self.inner.pending(port, now)
        }
        fn granted(&mut self, port: PortId, now: u64) {
            self.inner.granted(port, now);
        }
        fn tick(&mut self, now: u64) {
            self.cycles.set(self.cycles.get() + 1);
            self.inner.tick(now);
        }
        fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }

    impl<W: ObservableWorkload> ObservableWorkload for Counted<W> {
        fn signature_len(&self) -> usize {
            self.inner.signature_len()
        }
        fn write_signature(&self, out: &mut [u64]) {
            self.inner.write_signature(out);
        }
    }

    /// Solves `inner` from a zero warmup; returns the result and the
    /// cycles simulated on the way.
    fn solve_counted<W: ObservableWorkload + Clone>(
        config: &SimConfig,
        inner: W,
    ) -> (SteadyState, u64) {
        let cycles = Rc::new(Cell::new(0));
        let mut w = Counted {
            inner,
            cycles: Rc::clone(&cycles),
        };
        let ss = measure_steady_state_workload(config, &mut w, 0, 1 << 20).unwrap();
        (ss, cycles.get())
    }

    /// Reference `(μ, λ)`: keeps every visited state and stops at the first
    /// repeat.
    fn brute_force<W: ObservableWorkload + Clone>(config: &SimConfig, workload: &W) -> (u64, u64) {
        let mut cursor = Cursor::new(config, workload.clone());
        let mut seen: HashMap<u64, Vec<(u64, SimState)>> = HashMap::new();
        for pos in 0.. {
            let visits = seen.entry(cursor.state.hash()).or_default();
            if let Some(&(first, _)) = visits.iter().find(|(_, s)| *s == cursor.state) {
                return (first, pos - first);
            }
            visits.push((pos, cursor.state.clone()));
            cursor.advance();
        }
        unreachable!("the state space is finite")
    }

    /// Most cycles one solve may simulate: the search up to the first
    /// power-of-two snapshot on the cycle plus one period, then the
    /// leading cursor's pre-advance from its rung and the two-cursor walk
    /// from the snapshot before.
    fn cycle_bound(mu: u64, lambda: u64) -> u64 {
        if mu == 0 {
            return lambda;
        }
        let anchor = mu.next_power_of_two();
        let prev = anchor / 2;
        let pre_advance = RUNG_SPACING.max((anchor - prev).div_ceil(3).next_power_of_two());
        anchor + lambda + pre_advance + 2 * (mu - prev)
    }

    #[test]
    fn transient_walk_cost_is_independent_of_the_period() {
        // One unit stride over 1000 banks: a 3-cycle transient (the bank
        // residues fill up) and a 1000-cycle period. The leading cursor
        // starts from a rung near step 2 + 1000 instead of advancing from
        // the snapshot at 512.
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(1000, 4).unwrap(), 1);
        let w = Strides::new(1000, &[1]);
        let (ss, cycles) = solve_counted(&cfg, w.clone());
        assert_eq!((ss.transient, ss.period), (3, 1000));
        assert_eq!((ss.transient, ss.period), brute_force(&cfg, &w));
        assert!(
            cycles <= cycle_bound(3, 1000),
            "{cycles} cycles > {}",
            cycle_bound(3, 1000)
        );
    }

    #[test]
    fn transient_matches_brute_force_across_rung_levels() {
        // Three contending strides on one CPU: transients from a few cycles
        // to several hundred and periods into the thousands, so the walk
        // restores from snapshots and from rungs of several levels.
        let (mut longest_mu, mut longest_lambda) = (0, 0);
        for (m, nc) in [(61u64, 8u64), (64, 13), (96, 16), (127, 13)] {
            let cfg = SimConfig::single_cpu(Geometry::unsectioned(m, nc).unwrap(), 3);
            for d1 in [1u64, 3] {
                for d2 in [5u64, 7, 12] {
                    for b2 in [1u64, 9] {
                        let mut w = Strides::new(m, &[d1, d2, d1 + d2]);
                        w.pos = vec![0, b2, 3 * b2 % m];
                        let label = format!("m={m} nc={nc} d=({d1}, {d2}) b2={b2}");
                        let (ss, cycles) = solve_counted(&cfg, w.clone());
                        let (mu, lambda) = brute_force(&cfg, &w);
                        assert_eq!((ss.transient, ss.period), (mu, lambda), "{label}");
                        assert!(
                            cycles <= cycle_bound(mu, lambda),
                            "{label}: {cycles} cycles"
                        );
                        longest_mu = longest_mu.max(mu);
                        longest_lambda = longest_lambda.max(lambda);
                    }
                }
            }
        }
        // The grid reaches a rung level above the first and periods far
        // longer than the rung spacing.
        assert!(
            longest_mu > 4 * RUNG_SPACING,
            "longest transient {longest_mu}"
        );
        assert!(
            longest_lambda > 64 * RUNG_SPACING,
            "longest period {longest_lambda}"
        );
    }
}
