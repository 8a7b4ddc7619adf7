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
//! * every cursor carries cumulative counters: conflicts summed from the
//!   [`CycleEvents`](crate::step::CycleEvents) each step returns, and
//!   per-port grants in the workload's own issue counts
//!   ([`ObservableWorkload::grants`]). So the difference between the
//!   cursor and the matched snapshot is one full period of window
//!   statistics — period sums are phase-independent, so no replay pass is
//!   needed, and no step re-reads the per-port outcomes;
//! * the matched snapshot is the first one on the cycle, so the transient
//!   `μ` lies between the snapshot before it and the matched one, and the
//!   exact `μ` comes from walking two cursors from that earlier snapshot
//!   until they meet, `D` apart: the least multiple of `λ` at or above
//!   the gap between the two snapshots (a state lies on the cycle exactly
//!   when it recurs any whole number of periods later). When the match
//!   was against the start snapshot the transient is zero and this phase
//!   is skipped entirely. The leading cursor is restored from the nearest
//!   *rung* at or before its start, the matched snapshot at the earliest:
//!   a rung is a restore checkpoint the searching cursor leaves every
//!   `RUNG_SPACING` steps and thins level by level (see
//!   `RUNGS_PER_LEVEL`), so the pre-advance is bounded by the gap between
//!   the two snapshots, not by `λ`, and no snapshot is ever copied. The
//!   whole phase costs `O(μ)` steps however long the period is.
//!
//! Equality is checked hash-first (one `u64` compare per cycle per
//! snapshot) and confirmed on the full core, so a hash collision can never
//! produce a wrong answer — only a skipped candidate. Memory use is
//! O(state · log(μ + λ)): one snapshot per power of two and at most
//! `RUNGS_PER_LEVEL` rungs per power of two, where the previous detector
//! kept a hash map entry (state key + per-port grant vector) for *every*
//! simulated cycle.
//!
//! # Recurrence up to address translation
//!
//! A request is its word address modulo `M = m·max(rows, 1)`: bank `a mod
//! m`, and under the DRAM model row `a / m`. The model is symmetric under
//! address translation `T_t: a → a + t (mod M)` — which moves every bank
//! by `t mod m`, the Appendix's relabelling and the reason the exhaustive
//! sweep fixes `b1 = 0` — whenever the configuration and the workload both
//! are: a uniform or DRAM bank model on an unsectioned or cyclically
//! sectioned geometry (`section(b) = b mod s` with `s | m` moves every
//! section alike), and a workload that declares
//! [`ObservableWorkload::translates_with_addresses`] (every port an
//! infinite, started stride or burst, whose slot is its upcoming address
//! residue and its cooldown). `T_t` moves each bank's residue with the
//! bank, each open row with its address (row `r` of bank `b` is address
//! `b + m·r`) and each slot's residue by `t`, and leaves the cooldowns and
//! the rotation alone. A request hits its bank's open row exactly when
//! its translate hits the translated row, so the step commutes with
//! translation: `step(T_t x) = T_t step(x)`, with the same grants and
//! conflicts. A stride or burst trajectory usually reaches a translate of
//! an earlier state long before the state itself, so for such a workload
//! [`measure_steady_state_workload`] runs the search above on the
//! quotient — states up to translation — and expands the answer:
//!
//! * the quotient trajectory is deterministic (translates have translated
//!   successors), so Brent's argument holds on it unchanged: the first
//!   match is exactly one reduced period `λ_r` back, and the two-cursor
//!   walk finds the reduced transient `μ_r`. Both compare a
//!   translation-canonical key (residues, slots and busy banks' open rows
//!   relative to port 0's address, from a walk of the expiry wheel:
//!   O(n_c + busy banks) per step) and confirm every key match on the whole
//!   translated core, idle banks' open rows included, so again a collision
//!   only costs time;
//! * at the match `x_{μ_r + λ_r} = T_s x_{μ_r}` for the shift `s` between
//!   the two port-0 addresses, hence `x_{k + λ_r} = T_s x_k` for every `k
//!   ≥ μ_r`. No nonzero translation fixes a state with a live port (it
//!   moves that port's address residue), so `x_{μ_r + n} = x_{μ_r}` holds
//!   exactly when `n = j·λ_r` with `j·s ≡ 0 (mod M)`: the period is `λ =
//!   λ_r · ord(s)`, `ord(s) = M / gcd(M, s)`, and the transient is `μ =
//!   μ_r` (an earlier state on the full cycle would lie on the quotient
//!   cycle);
//! * each of the `ord(s)` reduced windows of a full period is a translate
//!   of the first and sees the same grants per port and the same
//!   conflicts, so the period's grants and conflicts are the reduced
//!   window's times `ord(s)`, and `b_eff` and the per-port ratios are the
//!   reduced window's.
//!
//! Every [`SteadyState`] field is the one the full-state search returns;
//! only the number of steps falls, from `μ' + λ` to `μ' + λ_r` plus the
//! walk. A gather never qualifies: its index wraps at its span, which
//! breaks translation unless `M` divides the span.
//!
//! # Riding the search
//!
//! [`measure_steady_state_workload`] shows a caller the trajectory it
//! steps, so the caller can check it instead of simulating it again (the
//! oracle's lockstep does). Each step the searching cursor takes from
//! cycle 0 arrives as a [`Ride::Step`]. When the search finds its
//! recurrence it reports, once, a [`Ride::Recurred`]: the last state shown
//! is the translate by `shift` (zero for a full-state search) of the state
//! after `anchor` steps. A rider that knows its own half of the model
//! commutes with translation can extend agreement over `[0, anchor + λ_r)`
//! to all time, so the ride is `μ' + λ_r` steps, not `μ' + λ`.

// Hot-path panic policy (TESTING.md, "Hot-path rules").
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::integer_division,
        clippy::disallowed_macros,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::config::{BankModel, SimConfig};
use crate::observe::NoopObserver;
use crate::state::SimState;
use crate::stats::ConflictCounts;
use crate::step::step;
use crate::workload::Workload;
use vecmem_analytic::numtheory::gcd;
use vecmem_analytic::{Ratio, SectionMapping};

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
        /// for the search, not counting warmup). It bounds the steps the
        /// search takes, which may be fewer than `μ + λ`: a search up to
        /// address translation (see the module docs) stops after `μ' + λ
        /// / ord(s)` steps. Such a search also reports it when it finds a
        /// period whose length or per-period counts overflow a `u64`,
        /// which no budget could reach.
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

/// What [`measure_steady_state_workload`] shows a caller riding its
/// trajectory (see the module docs).
#[derive(Debug, Clone, Copy)]
pub enum Ride<'a> {
    /// The searching cursor's state after one more step.
    Step(&'a SimState),
    /// The search found its recurrence, once, right after the step that
    /// reached it: the state of that step is the address translate by
    /// `shift` (modulo `m·max(rows, 1)`; zero when the search compares
    /// whole states) of the state after `anchor` steps. `anchor` counts
    /// from cycle 0, warmup included, and is the warmup plus zero or a
    /// power of two: the search compares only against its snapshots.
    Recurred {
        /// Steps from cycle 0 to the state recurred onto.
        anchor: u64,
        /// The address translation between the two states.
        shift: u64,
    },
}

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

    /// Grants port `port` has received so far; `0` for a port the workload
    /// does not drive. The count never decreases, so the grants within a
    /// window are the difference of its ends.
    fn grants(&self, port: usize) -> u64;

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

    /// Whether, from clock period `now` on, the workload commutes with
    /// address translation `a → a + t (mod modulus)`: every signature slot
    /// is `cooldown·modulus + r` for a live port, `r` the word address of
    /// its upcoming request modulo `modulus`, and the workload whose
    /// residues all read `t` higher requests every later address `t`
    /// higher and is granted alike. The solver asks with the
    /// configuration's `modulus = m·max(rows, 1)`, whose residues are the
    /// requests (bank `r mod m`, row `r / m`). The default declares no
    /// symmetry. A workload that declares it lets
    /// [`measure_steady_state_workload`] look for recurrence up to
    /// translation (see the module docs), on a configuration that is
    /// symmetric too.
    fn translates_with_addresses(&self, _now: u64, _modulus: u64) -> bool {
        false
    }
}

impl<W: ObservableWorkload + ?Sized> ObservableWorkload for &mut W {
    fn signature_len(&self) -> usize {
        (**self).signature_len()
    }
    fn write_signature(&self, out: &mut [u64]) {
        (**self).write_signature(out);
    }
    fn grants(&self, port: usize) -> u64 {
        (**self).grants(port)
    }
    fn signature_bound(&self) -> Option<u64> {
        (**self).signature_bound()
    }
    fn periodic(&self) -> bool {
        (**self).periodic()
    }
    fn translates_with_addresses(&self, now: u64, modulus: u64) -> bool {
        (**self).translates_with_addresses(now, modulus)
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
/// recurrence. The cursor also carries a cumulative conflict counter, and
/// the workload its per-port grant counts, so any two points on the same
/// trajectory define a window of statistics by subtraction.
struct Cursor<'c, W> {
    config: &'c SimConfig,
    state: SimState,
    workload: W,
    sig_buf: Vec<u64>,
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
/// state, the workload (with its grant counts), and the cumulative
/// conflicts at that point.
#[derive(Clone)]
struct Snapshot<W> {
    pos: u64,
    state: SimState,
    workload: W,
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
        let events = step(
            self.config,
            &mut self.state,
            &mut self.workload,
            &mut NoopObserver,
        );
        self.sync();
        self.conflicts = self.conflicts + events.conflicts;
    }

    fn advance_by(&mut self, cycles: u64) {
        self.advance_watched(cycles, &mut |_| {});
    }

    /// Advances `cycles` steps, handing the state to `on_step` after each.
    fn advance_watched(&mut self, cycles: u64, on_step: &mut impl FnMut(Ride<'_>)) {
        for _ in 0..cycles {
            self.advance();
            on_step(Ride::Step(&self.state));
        }
    }

    fn snapshot(&self, pos: u64) -> Snapshot<W> {
        Snapshot {
            pos,
            state: self.state.copy_core(),
            workload: self.workload.clone(),
            conflicts: self.conflicts,
        }
    }

    /// A cursor resuming the trajectory at `snap`, which it consumes.
    fn resume(config: &'c SimConfig, snap: Snapshot<W>) -> Self {
        let sig_len = snap.workload.signature_len();
        Self {
            config,
            state: snap.state,
            workload: snap.workload,
            sig_buf: vec![0u64; sig_len],
            conflicts: snap.conflicts,
        }
    }

    /// Moves this cursor to `snap`, which it consumes, keeping its own
    /// per-cycle scratch and signature buffer.
    fn jump_to(&mut self, snap: Snapshot<W>) {
        self.state.restore_core(snap.state);
        self.workload = snap.workload;
        self.conflicts = snap.conflicts;
    }

    /// Grants per port between `earlier` and this cursor, on one
    /// trajectory.
    fn grants_since<'a>(&'a self, earlier: &'a W) -> impl Iterator<Item = u64> + 'a {
        (0..self.config.num_ports()).map(|p| self.workload.grants(p) - earlier.grants(p))
    }
}

/// What the search counts as the trajectory returning to an earlier
/// point: the same core, or (for a declared workload on a symmetric
/// configuration) an address translate of it.
trait Recurrence: Copy {
    /// The key each step compares against the snapshots' before the exact
    /// check.
    fn key(self, state: &SimState) -> u64;

    /// Whether `later` is a recurrence of `earlier`.
    fn recurs(self, earlier: &SimState, later: &SimState) -> bool;

    /// The address translation taking `earlier` to `later`, given that
    /// `later` recurs onto `earlier`.
    fn shift(self, earlier: &SimState, later: &SimState) -> u64;

    /// Reduced periods per full period, given that `later` recurs onto
    /// `earlier`.
    fn order(self, earlier: &SimState, later: &SimState) -> u64;
}

/// Recurrence of the whole core: the incremental hash and core equality.
#[derive(Clone, Copy)]
struct SameCore;

impl Recurrence for SameCore {
    #[inline]
    fn key(self, state: &SimState) -> u64 {
        state.hash()
    }

    fn recurs(self, earlier: &SimState, later: &SimState) -> bool {
        earlier == later
    }

    fn shift(self, _earlier: &SimState, _later: &SimState) -> u64 {
        0
    }

    fn order(self, _earlier: &SimState, _later: &SimState) -> u64 {
        1
    }
}

/// Recurrence up to address translation modulo `M = m·max(rows, 1)`,
/// anchored at the address in position slot 0: a live port's, which every
/// translation moves.
#[derive(Clone, Copy)]
struct UpToTranslation;

impl Recurrence for UpToTranslation {
    #[inline]
    fn key(self, state: &SimState) -> u64 {
        state.translated_hash()
    }

    fn recurs(self, earlier: &SimState, later: &SimState) -> bool {
        earlier.translates_to(later, self.shift(earlier, later))
    }

    /// The translation taking `earlier`'s port-0 address to `later`'s.
    fn shift(self, earlier: &SimState, later: &SimState) -> u64 {
        let (from, to) = (earlier.slot_address(0), later.slot_address(0));
        if to >= from {
            to - from
        } else {
            to + earlier.address_modulus() - from
        }
    }

    /// `ord(s) = M / gcd(M, s)`, the order of the shift `s` modulo `M`.
    #[expect(
        clippy::integer_division,
        reason = "gcd(M, s) divides M >= 1 (validated geometry), so the quotient is exact and the divisor nonzero"
    )]
    fn order(self, earlier: &SimState, later: &SimState) -> u64 {
        let modulus = earlier.address_modulus();
        modulus / gcd(modulus, self.shift(earlier, later))
    }
}

/// Whether the step kernel under `config` commutes with address
/// translation `a → a + t (mod M)`, `M = m·max(rows, 1)`, which moves
/// every bank by `t mod m`. Arbitration compares banks only for equality
/// and, on a sectioned geometry, for equal sections: the cyclic mapping `b
/// mod s` (`s | m`) keeps two banks in one section under any translation,
/// the consecutive mapping does not. Under the DRAM model a request hits
/// when its address is its bank's open one, and translation moves both
/// alike, so either bank model qualifies, as long as `M` fits a `u64`.
fn translation_symmetric(config: &SimConfig) -> bool {
    let geometry = &config.geometry;
    let rows = match config.bank_model {
        BankModel::Uniform => 1,
        BankModel::Dram { rows, .. } => rows.max(1),
    };
    geometry.banks().checked_mul(rows).is_some()
        && (geometry.sections() == geometry.banks() || geometry.mapping() == SectionMapping::Cyclic)
}

/// Runs any observable workload until the simulator state recurs and
/// returns the exact cyclic-state bandwidth. `warmup` cycles are simulated
/// first (use this to get past start-time offsets that are not part of the
/// state signature); `max_cycles` bounds the post-warmup search.
///
/// When the configuration and the workload are symmetric under address
/// translation ([`ObservableWorkload::translates_with_addresses`]), the
/// search stops at the first recurrence up to translation and expands the
/// answer (see the module docs): the result is the same, but the search
/// may take fewer than `μ + λ` steps, and so may converge within a budget
/// below that.
///
/// `on_step` rides the searching cursor (see the module docs): it sees a
/// [`Ride::Step`] after every step from cycle 0 — warmup, search, and then
/// `tail` further steps taken once the period statistics are read (the
/// transient walk runs on restored snapshots and is not shown) — and one
/// [`Ride::Recurred`] between the search's last step and the tail. So it
/// sees one unbroken trajectory of cycles `[0, n)`, with `n = warmup +
/// anchor + λ_r + tail` on success (`λ_r` the period up to translation, or
/// `λ`) and `n = warmup + max_cycles` when the search gives up. The
/// windowed estimate of an aperiodic workload shows its warmup, its window
/// and the tail the same way, and no recurrence. A caller with no use for
/// the trajectory passes `0` and `|_| {}`, which cost nothing.
///
/// The caller's workload is read (and cloned) but left untouched; the
/// search replays pristine clones internally.
///
/// # Errors
/// Returns [`SteadyStateError::NotConverged`] when the search takes
/// `max_cycles` steps after warmup without finding a recurrence.
pub fn measure_steady_state_workload<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    workload: &mut W,
    warmup: u64,
    max_cycles: u64,
    tail: u64,
    mut on_step: impl FnMut(Ride<'_>),
) -> Result<SteadyState, SteadyStateError> {
    // Aperiodic workloads (per their own declaration) can never recur:
    // answer with a budgeted windowed estimate instead of burning the full
    // cycle budget on a search that must fail.
    if !workload.periodic() {
        return measure_windowed(config, workload, warmup, max_cycles, tail, &mut on_step);
    }
    let mut hare = Cursor::new(config, workload.clone());
    hare.advance_watched(warmup, &mut on_step);
    if translation_symmetric(config)
        && hare.state.signature_slots() > 0
        && hare
            .workload
            .translates_with_addresses(hare.state.now(), hare.state.address_modulus())
    {
        search(
            hare,
            warmup,
            max_cycles,
            tail,
            &mut on_step,
            UpToTranslation,
        )
    } else {
        search(hare, warmup, max_cycles, tail, &mut on_step, SameCore)
    }
}

/// The search proper, from a cursor already past `warmup` cycles: at most
/// `max_cycles` steps until the state recurs under `recurrence`, then
/// `tail` steps shown to `on_step`, then the transient walk.
fn search<W: ObservableWorkload + Clone, R: Recurrence>(
    mut hare: Cursor<'_, W>,
    warmup: u64,
    max_cycles: u64,
    tail: u64,
    on_step: &mut impl FnMut(Ride<'_>),
    recurrence: R,
) -> Result<SteadyState, SteadyStateError> {
    let not_converged = SteadyStateError::NotConverged { cycles: max_cycles };

    // The cursor steps while racing against snapshots of its own past
    // taken at every power-of-two step count. The first recurrence is
    // provably exactly one period behind the cursor (a distance of k·λ
    // with k ≥ 2 would have matched the same snapshot λ steps sooner).
    // Between snapshots it leaves rungs, never compared against, only
    // restored from by the transient walk.
    // One snapshot at 0 and one at each power of two up to `max_cycles`.
    let snap_capacity = (u64::BITS - max_cycles.leading_zeros()) as usize + 1;
    let mut snaps: Vec<Snapshot<W>> = Vec::with_capacity(snap_capacity);
    let mut snap_hashes: Vec<u64> = Vec::with_capacity(snap_capacity);
    snaps.push(hare.snapshot(0));
    snap_hashes.push(recurrence.key(&hare.state));
    let mut rungs: Vec<Snapshot<W>> = Vec::new();
    let mut pos: u64 = 0;
    let mut next_snap: u64 = 1;
    #[expect(
        clippy::indexing_slicing,
        reason = "snaps and snap_hashes grow in lockstep, so an index into one indexes the other"
    )]
    let (lambda, matched) = loop {
        if pos >= max_cycles {
            return Err(not_converged);
        }
        hare.advance();
        on_step(Ride::Step(&hare.state));
        pos += 1;
        let h = recurrence.key(&hare.state);
        // Nearly every step misses: ask branch-free whether any hash
        // matches, and look for the matching snapshot only on a hit.
        if snap_hashes.iter().fold(false, |hit, &sh| hit | (sh == h)) {
            let mut found = None;
            for (i, &sh) in snap_hashes.iter().enumerate() {
                if sh == h && recurrence.recurs(&snaps[i].state, &hare.state) {
                    found = Some(i);
                    break;
                }
            }
            if let Some(i) = found {
                break (pos - snaps[i].pos, i);
            }
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

    // One (reduced) period of window statistics, by subtraction: period
    // sums are phase-independent, so the window [matched.pos, pos) is as
    // good as [μ, μ+λ). A full period repeats it `order` times.
    #[expect(
        clippy::indexing_slicing,
        reason = "matched is the index of the snapshot the detector matched"
    )]
    let anchor = &snaps[matched];
    on_step(Ride::Recurred {
        anchor: warmup + anchor.pos,
        shift: recurrence.shift(&anchor.state, &hare.state),
    });
    let order = recurrence.order(&anchor.state, &hare.state);
    // A full period too long for its length or counts to fit a `u64` lies
    // past any budget the full search could be given.
    let (Some(period), Some(grants_per_period), Some(conflicts)) = (
        lambda.checked_mul(order),
        hare.grants_since(&anchor.workload)
            .sum::<u64>()
            .checked_mul(order),
        (hare.conflicts - anchor.conflicts).checked_mul(order),
    ) else {
        return Err(not_converged);
    };
    let per_port = hare
        .grants_since(&anchor.workload)
        .map(|g| Ratio::new(g, lambda))
        .collect();
    // The walk below restores the cursor from a snapshot, so the tail
    // steps can use it first.
    hare.advance_watched(tail, on_step);

    let mu = transient(hare, snaps, rungs, matched, lambda, recurrence);
    Ok(SteadyState {
        beff: Ratio::new(grants_per_period, period),
        transient: warmup + mu,
        period,
        grants_per_period,
        per_port,
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
/// Two cursors a distance `D` apart, `D` the least multiple of `lambda`
/// at or above `anchor.pos − prev.pos`, meet exactly at μ: a state `D`
/// steps before its own recurrence lies on the cycle. The trailing cursor
/// is restored from `prev`, the leading one from the latest rung or
/// snapshot at or before `prev.pos + D` — the matched snapshot or a later
/// one, so its pre-advance is shorter than `lambda` and than the gap.
/// Reaching `anchor.pos` without meeting means μ is `anchor.pos`. Up to
/// translation, "meet" means the leading cursor's state recurs onto the
/// trailing one's, and `lambda` is the reduced period.
///
/// The search is over, so the walk consumes what it leaves: the cursors
/// take over the snapshots they start from instead of copying them, and
/// the finished searching cursor, passed as `ahead`, becomes the leading
/// one with its buffers.
fn transient<W: ObservableWorkload + Clone, R: Recurrence>(
    mut ahead: Cursor<'_, W>,
    mut snaps: Vec<Snapshot<W>>,
    rungs: Vec<Snapshot<W>>,
    matched: usize,
    lambda: u64,
    recurrence: R,
) -> u64 {
    let Some(before) = matched.checked_sub(1) else {
        return 0;
    };
    // `before < matched < snaps.len()`: the first removal moves a later
    // snapshot into `matched`, leaving `before` in place.
    let anchor = snaps.swap_remove(matched);
    let prev = snaps.swap_remove(before);
    let mut mu = prev.pos + 1;
    if mu == anchor.pos {
        return mu;
    }
    let anchor_pos = anchor.pos;
    let target = prev.pos + lambda * (anchor_pos - prev.pos).div_ceil(lambda);
    let near = snaps
        .into_iter()
        .chain(rungs)
        .filter(|s| (anchor_pos..=target).contains(&s.pos))
        .fold(anchor, |near, s| if s.pos > near.pos { s } else { near });
    let near_pos = near.pos;
    ahead.jump_to(near);
    ahead.advance_by(target - near_pos);
    let mut behind = Cursor::resume(ahead.config, prev);
    while mu < anchor_pos {
        ahead.advance();
        behind.advance();
        if recurrence.key(&ahead.state) == recurrence.key(&behind.state)
            && recurrence.recurs(&behind.state, &ahead.state)
        {
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
/// nothing to recur against. `on_step` sees every step, `tail` included,
/// as in [`measure_steady_state_workload`].
fn measure_windowed<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    workload: &mut W,
    warmup: u64,
    max_cycles: u64,
    tail: u64,
    on_step: &mut impl FnMut(Ride<'_>),
) -> Result<SteadyState, SteadyStateError> {
    let window = max_cycles.min(WINDOWED_FALLBACK_CYCLES);
    if window == 0 {
        return Err(SteadyStateError::NotConverged { cycles: max_cycles });
    }
    let mut cursor = Cursor::new(config, workload.clone());
    cursor.advance_watched(warmup, on_step);
    let base = cursor.workload.clone();
    let base_conflicts = cursor.conflicts;
    cursor.advance_watched(window, on_step);
    let grants_per_period: u64 = cursor.grants_since(&base).sum();
    let per_port = cursor
        .grants_since(&base)
        .map(|g| Ratio::new(g, window))
        .collect();
    let conflicts = cursor.conflicts - base_conflicts;
    cursor.advance_watched(tail, on_step);
    Ok(SteadyState {
        beff: Ratio::new(grants_per_period, window),
        transient: warmup,
        period: window,
        grants_per_period,
        per_port,
        conflicts_per_period: conflicts,
        exact: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BankModel, PriorityRule};
    use crate::pattern::{
        AnyPattern, BurstPattern, GatherPattern, IndexPattern, PatternPort, PatternSpec,
        PatternWorkload, StridePattern,
    };
    use crate::request::{CpuId, PortId, PortOutcome, Request};
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::rc::Rc;
    use vecmem_analytic::{Geometry, StreamSpec};
    use vecmem_prop::prelude::*;
    use vecmem_prop::{select, TestRng};

    /// Port p cycles through banks `p, p + d, p + 2d, …` (mod m).
    #[derive(Clone)]
    struct Strides {
        m: u64,
        d: Vec<u64>,
        pos: Vec<u64>,
        grants: Vec<u64>,
    }

    impl Strides {
        fn new(m: u64, d: &[u64]) -> Self {
            Self {
                m,
                d: d.to_vec(),
                pos: (0..d.len() as u64).collect(),
                grants: vec![0; d.len()],
            }
        }
    }

    impl Workload for Strides {
        fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
            self.pos.get(port.0).map(|&bank| Request::to_bank(bank))
        }
        fn granted(&mut self, port: PortId, _now: u64) {
            self.pos[port.0] = (self.pos[port.0] + self.d[port.0]) % self.m;
            self.grants[port.0] += 1;
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
        fn grants(&self, port: usize) -> u64 {
            self.grants.get(port).copied().unwrap_or(0)
        }
    }

    #[test]
    fn unit_stride_single_stream_full_bandwidth() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(16, 4).unwrap(), 1);
        let mut w = Strides::new(16, &[1]);
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 10_000, 0, |_| {}).unwrap();
        assert_eq!(ss.beff, Ratio::integer(1));
        assert!(ss.conflict_free());
        assert_eq!(ss.grants_per_period, ss.period);
    }

    /// What a rider sees of one solve: the states of its steps, and the
    /// recurrence with the number of steps shown before it.
    struct Seen {
        states: Vec<SimState>,
        recurred: Option<(usize, u64, u64)>,
    }

    fn ride<W: ObservableWorkload + Clone>(
        config: &SimConfig,
        workload: &W,
        warmup: u64,
        max_cycles: u64,
        tail: u64,
    ) -> (Result<SteadyState, SteadyStateError>, Seen) {
        let mut seen = Seen {
            states: Vec::new(),
            recurred: None,
        };
        let mut w = workload.clone();
        let result =
            measure_steady_state_workload(config, &mut w, warmup, max_cycles, tail, |r| match r {
                Ride::Step(state) => seen.states.push(state.clone()),
                Ride::Recurred { anchor, shift } => {
                    assert!(seen.recurred.is_none(), "a second recurrence");
                    seen.recurred = Some((seen.states.len(), anchor, shift));
                }
            });
        (result, seen)
    }

    /// The rider sees the searching cursor's trajectory from cycle 0,
    /// warmup included, each state equal to a fresh cursor's after as
    /// many steps, and the solve is the rider-free one. On success it sees
    /// one recurrence after `warmup + anchor + λ_r` steps, the last of
    /// them the translate by `shift` of the state after `anchor` steps,
    /// with `λ_r` dividing the period, then `tail` more steps. The full
    /// search (a workload that declares no symmetry) reports shift 0 and
    /// λ_r = λ. When the search gives up it sees `warmup + max_cycles`
    /// steps and no recurrence.
    #[test]
    fn on_step_sees_the_trajectory_and_its_recurrence() {
        let g = Geometry::unsectioned(13, 4).unwrap();
        let cfg = SimConfig::single_cpu(g, 2);
        check_ride(&cfg, &Strides::new(13, &[1, 5]), false);
        check_ride(&cfg, &strides(&g, &[(0, 1), (1, 5)]), true);
        let dram = SimConfig::one_port_per_cpu(Geometry::unsectioned(16, 4).unwrap(), 2)
            .with_bank_model(BankModel::Dram {
                hit_cycle: 2,
                rows: 4,
            });
        let specs = [
            PatternSpec::Stride {
                start_bank: 5,
                distance: 17,
            },
            PatternSpec::Burst {
                start_bank: 0,
                distance: 35,
                burst: 2,
            },
        ];
        check_ride(&dram, &PatternWorkload::from_specs(&dram, &specs), true);
    }

    fn check_ride<W: ObservableWorkload + Clone>(cfg: &SimConfig, w: &W, reduced: bool) {
        let replay = |seen: &[SimState]| {
            let mut cursor = Cursor::new(cfg, w.clone());
            let start = cursor.state.clone();
            for (cycle, state) in seen.iter().enumerate() {
                cursor.advance();
                assert!(cursor.state == *state, "cycle {cycle}");
            }
            start
        };
        for warmup in [0, 7] {
            let (ss, seen) = ride(cfg, w, warmup, 1 << 20, 8);
            let ss = ss.unwrap();
            let plain =
                measure_steady_state_workload(cfg, &mut w.clone(), warmup, 1 << 20, 0, |_| {});
            assert_eq!(Ok(&ss), plain.as_ref());
            let start = replay(&seen.states);
            let (shown, anchor, shift) = seen.recurred.expect("a recurrence");
            assert_eq!(seen.states.len(), shown + 8);
            let after = |steps: u64| match steps.checked_sub(1) {
                Some(i) => &seen.states[i as usize],
                None => &start,
            };
            let anchor_steps = anchor - warmup;
            assert!(
                anchor_steps == 0 || anchor_steps.is_power_of_two(),
                "anchor {anchor}"
            );
            assert!(
                anchor >= ss.transient,
                "anchor {anchor} before μ {}",
                ss.transient
            );
            let lambda_r = shown as u64 - anchor;
            assert!(lambda_r >= 1 && ss.period % lambda_r == 0, "λ_r {lambda_r}");
            assert!(after(anchor).translates_to(after(shown as u64), shift));
            if reduced {
                assert!(lambda_r < ss.period && shift != 0, "λ_r {lambda_r}");
            } else {
                assert_eq!((lambda_r, shift), (ss.period, 0));
            }

            let (starved, seen) = ride(cfg, w, warmup, 3, 8);
            assert_eq!(starved, Err(SteadyStateError::NotConverged { cycles: 3 }));
            assert_eq!(seen.states.len() as u64, warmup + 3);
            assert!(seen.recurred.is_none());
            replay(&seen.states);
        }
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
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 10_000, 0, |_| {}).unwrap();
        assert_eq!(ss.beff, Ratio::new(1, 4));
        assert_eq!(ss.period, 4);
        assert_eq!(ss.conflicts_per_period.bank, 3);
    }

    #[test]
    fn budget_exhaustion_reports_the_budget() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(16, 4).unwrap(), 1);
        let mut w = Strides::new(16, &[1]);
        // The 16-bank unit stride needs more than 3 search cycles.
        let err = measure_steady_state_workload(&cfg, &mut w, 0, 3, 0, |_| {}).unwrap_err();
        assert_eq!(err, SteadyStateError::NotConverged { cycles: 3 });
        assert_eq!(err.to_string(), "no cyclic state within 3 cycles");
        // Warmup does not inflate the reported budget.
        let err = measure_steady_state_workload(&cfg, &mut w, 100, 3, 0, |_| {}).unwrap_err();
        assert_eq!(err, SteadyStateError::NotConverged { cycles: 3 });
    }

    #[test]
    fn caller_workload_left_untouched() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(8, 2).unwrap(), 1);
        let mut w = Strides::new(8, &[3]);
        let before = w.state_signature();
        let _ = measure_steady_state_workload(&cfg, &mut w, 0, 10_000, 0, |_| {}).unwrap();
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
        fn grants(&self, port: usize) -> u64 {
            self.inner.grants(port)
        }
        fn translates_with_addresses(&self, now: u64, modulus: u64) -> bool {
            self.inner.translates_with_addresses(now, modulus)
        }
    }

    /// Solves `inner` after `warmup` cycles; returns the result and the
    /// cycles simulated on the way, warmup included.
    fn solve_counted_after<W: ObservableWorkload + Clone>(
        config: &SimConfig,
        inner: W,
        warmup: u64,
    ) -> (SteadyState, u64) {
        let cycles = Rc::new(Cell::new(0));
        let mut w = Counted {
            inner,
            cycles: Rc::clone(&cycles),
        };
        let ss = measure_steady_state_workload(config, &mut w, warmup, 1 << 20, 0, |_| {}).unwrap();
        (ss, cycles.get())
    }

    /// Solves `inner` from a zero warmup; returns the result and the
    /// cycles simulated on the way.
    fn solve_counted<W: ObservableWorkload + Clone>(
        config: &SimConfig,
        inner: W,
    ) -> (SteadyState, u64) {
        solve_counted_after(config, inner, 0)
    }

    /// The full-state search's answer, whatever the symmetry.
    fn solve_full<W: ObservableWorkload + Clone>(
        config: &SimConfig,
        workload: &W,
        warmup: u64,
    ) -> SteadyState {
        let mut hare = Cursor::new(config, workload.clone());
        hare.advance_by(warmup);
        search(hare, warmup, 1 << 20, 0, &mut |_| {}, SameCore).unwrap()
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

    fn strides(geometry: &Geometry, specs: &[(u64, u64)]) -> PatternWorkload<StridePattern> {
        let specs: Vec<StreamSpec> = specs
            .iter()
            .map(|&(start_bank, distance)| StreamSpec {
                start_bank,
                distance,
            })
            .collect();
        PatternWorkload::strided(geometry, &specs)
    }

    #[test]
    fn translation_reduced_unit_stride_solves_within_one_rung() {
        // One unit stride over 1000 banks: μ = 3 and λ = 1000, but every
        // state from step 3 on is the previous one moved up a bank (λ_r =
        // 1, ord(1) = 1000). The full-state search steps more than λ.
        let g = Geometry::unsectioned(1000, 4).unwrap();
        let cfg = SimConfig::single_cpu(g, 1);
        let w = strides(&g, &[(0, 1)]);
        let (ss, cycles) = solve_counted(&cfg, w.clone());
        assert_eq!((ss.transient, ss.period), (3, 1000));
        assert_eq!(ss, solve_full(&cfg, &w, 0));
        assert!(cycles < RUNG_SPACING, "{cycles} cycles");
    }

    #[test]
    fn translation_is_a_symmetry_of_dram_rows_but_not_of_consecutive_sections() {
        // A consecutive section mapping breaks the symmetry: banks 3 and 4
        // lie in different sections of 12 banks in 3 sections, banks 4
        // and 5 in one. The solve searches the full state: at least μ + λ
        // steps, and the same answer as the full search.
        let consecutive = Geometry::with_mapping(12, 3, 3, SectionMapping::Consecutive).unwrap();
        let cfg = SimConfig::single_cpu(consecutive, 2);
        let w = strides(&consecutive, &[(0, 1), (1, 1)]);
        let (ss, cycles) = solve_counted(&cfg, w.clone());
        assert_eq!((ss.transient, ss.period), (10, 12));
        assert_eq!(ss, solve_full(&cfg, &w, 0));
        assert!(cycles >= ss.transient + ss.period, "{cycles} cycles");

        // A DRAM bank's open row is an address, which translation moves
        // with the bank: row-aware strides and bursts reduce, to the full
        // search's answer in fewer than μ + λ steps.
        let g = Geometry::unsectioned(16, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        });
        let stride = |start_bank, distance| PatternSpec::Stride {
            start_bank,
            distance,
        };
        let burst = |start_bank, distance, burst| PatternSpec::Burst {
            start_bank,
            distance,
            burst,
        };
        for specs in [
            [stride(0, 1), stride(0, 3)],
            [stride(5, 17), stride(0, 35)],
            [burst(0, 1, 2), burst(3, 19, 3)],
        ] {
            let w = PatternWorkload::from_specs(&cfg, &specs);
            assert!(w.translates_with_addresses(0, 64), "{specs:?}");
            let (ss, cycles) = solve_counted(&cfg, w.clone());
            assert_eq!(ss, solve_full(&cfg, &w, 0), "{specs:?}");
            assert!(
                cycles < ss.transient + ss.period,
                "{specs:?}: {cycles} cycles, μ {} λ {}",
                ss.transient,
                ss.period
            );
        }
        // Bank-only strides on the DRAM model always request row 0, which
        // translation modulo 64 would carry into other rows: they keep the
        // full search.
        let banks_only = strides(&g, &[(0, 1), (0, 3)]);
        assert!(!banks_only.translates_with_addresses(0, 64));
        assert!(banks_only.translates_with_addresses(0, 16));
        let (ss, cycles) = solve_counted(&cfg, banks_only.clone());
        assert_eq!(ss, solve_full(&cfg, &banks_only, 0));
        assert!(cycles >= ss.transient + ss.period, "{cycles} cycles");
    }

    #[test]
    fn periods_past_u64_report_no_cyclic_state() {
        // 16 banks of 2^60 − 1 rows: M = 2^64 − 16. The reduced search
        // finds the cycle at once, but a full period's grants overflow a
        // u64, so the answer is the budget error the full search gives.
        let g = Geometry::unsectioned(16, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: (1 << 60) - 1,
        });
        let specs = [
            PatternSpec::Stride {
                start_bank: 0,
                distance: 1,
            },
            PatternSpec::Stride {
                start_bank: 0,
                distance: 3,
            },
        ];
        let mut w = PatternWorkload::from_specs(&cfg, &specs);
        assert!(w.translates_with_addresses(0, 0u64.wrapping_sub(16)));
        assert_eq!(
            measure_steady_state_workload(&cfg, &mut w, 0, 100_000, 0, |_| {}),
            Err(SteadyStateError::NotConverged { cycles: 100_000 })
        );
    }

    #[test]
    fn only_started_infinite_strides_translate_with_banks() {
        let g = Geometry::unsectioned(8, 2).unwrap();
        let stride = StridePattern::new(
            &g,
            StreamSpec {
                start_bank: 1,
                distance: 3,
            },
        );
        let workload = |port: PatternPort<StridePattern>| {
            PatternWorkload::new(vec![PatternPort::new(stride), port])
        };
        assert!(workload(PatternPort::new(stride)).translates_with_addresses(0, 8));
        assert!(!workload(PatternPort::new(stride)).translates_with_addresses(0, 16));
        assert!(!workload(PatternPort::new(stride).with_length(5)).translates_with_addresses(9, 8));
        let late = workload(PatternPort::new(stride).starting_at(4));
        assert!(!late.translates_with_addresses(3, 8));
        assert!(late.translates_with_addresses(4, 8));
        assert!(!PatternWorkload::<StridePattern>::new(Vec::new()).translates_with_addresses(0, 8));
        let burst = AnyPattern::Burst(BurstPattern::new(
            &g,
            StreamSpec {
                start_bank: 1,
                distance: 3,
            },
            2,
        ));
        let mixed = PatternWorkload::new(vec![
            PatternPort::new(AnyPattern::Stride(stride)),
            PatternPort::new(burst),
        ]);
        assert!(mixed.translates_with_addresses(0, 8));
        let gather = AnyPattern::Gather(GatherPattern::new(
            &g,
            0,
            64,
            IndexPattern::Affine { a: 3, c: 0 },
        ));
        let with_gather =
            PatternWorkload::new(vec![PatternPort::new(burst), PatternPort::new(gather)]);
        assert!(!with_gather.translates_with_addresses(0, 8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn translation_reduced_solve_matches_the_full_search(
            geometry in select(vec![
                Geometry::unsectioned(7, 3).unwrap(),
                Geometry::unsectioned(12, 4).unwrap(),
                Geometry::unsectioned(16, 5).unwrap(),
                Geometry::new(16, 4, 4).unwrap(),
                Geometry::with_mapping(12, 3, 3, SectionMapping::Consecutive).unwrap(),
            ]),
            dram in select(vec![false, true]),
            priority in select(vec![PriorityRule::Fixed, PriorityRule::Cyclic]),
            seed in 0u64..=u64::MAX,
        ) {
            // One to three stride or burst ports (1 to 4 words) on one or
            // two CPUs, on the uniform or the DRAM model (2 to 8 rows, any
            // hit cycle), some starting late, solved after a warmup that
            // may or may not cover the late starts: the reduced search
            // (where it applies) must return exactly the full search's
            // answer, in no more steps.
            let mut rng = TestRng::seed_from_u64(seed);
            let n = 1 + rng.bounded(3) as usize;
            let mut config = SimConfig {
                ports: (0..n).map(|_| CpuId(rng.bounded(2) as usize)).collect(),
                ..SimConfig::single_cpu(geometry, n).with_priority(priority)
            };
            let mut cells = geometry.banks();
            if dram {
                let rows = 2 + rng.bounded(7);
                cells *= rows;
                config = config.with_bank_model(BankModel::Dram {
                    hit_cycle: 1 + rng.bounded(geometry.bank_cycle()),
                    rows,
                });
            }
            let ports: Vec<_> = (0..n)
                .map(|_| {
                    let (start_bank, distance) = (rng.bounded(cells), rng.bounded(2 * cells));
                    let spec = if rng.bounded(2) == 0 {
                        PatternSpec::Stride { start_bank, distance }
                    } else {
                        PatternSpec::Burst { start_bank, distance, burst: 1 + rng.bounded(4) }
                    };
                    let port = PatternPort::new(spec.build(&config));
                    if rng.bounded(3) == 0 {
                        port.starting_at(rng.bounded(6))
                    } else {
                        port
                    }
                })
                .collect();
            let w = PatternWorkload::new(ports);
            let warmup = rng.bounded(6);
            let full = solve_full(&config, &w, warmup);
            let full_cycles = {
                let cycles = Rc::new(Cell::new(0));
                solve_full(&config, &Counted { inner: w.clone(), cycles: Rc::clone(&cycles) }, warmup);
                cycles.get()
            };
            let (reduced, cycles) = solve_counted_after(&config, w, warmup);
            prop_assert_eq!(&reduced, &full);
            prop_assert!(cycles <= full_cycles, "{} > {}", cycles, full_cycles);
        }
    }

    /// One random port spec: a stride, an affine or pseudo-random gather,
    /// or a burst, with distances past the bank count.
    fn random_spec(rng: &mut TestRng, m: u64) -> PatternSpec {
        match rng.bounded(4) {
            0 => PatternSpec::Stride {
                start_bank: rng.bounded(m),
                distance: rng.bounded(2 * m),
            },
            1 => PatternSpec::Gather {
                base: rng.bounded(4 * m),
                span: 1 + rng.bounded(3 * m),
                index: IndexPattern::Affine {
                    a: rng.bounded(2 * m),
                    c: rng.bounded(m),
                },
            },
            2 => PatternSpec::Gather {
                base: rng.bounded(m),
                span: 1 + rng.bounded(1 << 12),
                index: IndexPattern::PseudoRandom {
                    seed: rng.next_u64(),
                },
            },
            _ => PatternSpec::Burst {
                start_bank: rng.bounded(m),
                distance: rng.bounded(2 * m),
                burst: 1 + rng.bounded(4),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn cursor_signature_tracks_the_workload(
            geometry in select(vec![
                Geometry::unsectioned(8, 3).unwrap(),
                Geometry::unsectioned(13, 4).unwrap(),
                Geometry::with_mapping(16, 4, 4, SectionMapping::Consecutive).unwrap(),
            ]),
            dram in select(vec![false, true]),
            priority in select(vec![PriorityRule::Fixed, PriorityRule::Cyclic]),
            seed in 0u64..=u64::MAX,
        ) {
            // One to four ports on one or two CPUs; each port may be
            // finite and may start late. After every cursor step the
            // position slots must hold a fresh signature, and the
            // workload's grant counts and the summed conflicts must match
            // a walk over the step's per-port outcomes.
            let mut rng = TestRng::seed_from_u64(seed);
            let n = 1 + rng.bounded(4) as usize;
            let m = geometry.banks();
            let mut config = SimConfig {
                ports: (0..n).map(|_| CpuId(rng.bounded(2) as usize)).collect(),
                ..SimConfig::single_cpu(geometry, n).with_priority(priority)
            };
            if dram {
                config = config.with_bank_model(BankModel::Dram {
                    hit_cycle: 1 + rng.bounded(geometry.bank_cycle()),
                    rows: 1 + rng.bounded(4),
                });
            }
            let ports = (0..n)
                .map(|_| {
                    let mut port = PatternPort::new(random_spec(&mut rng, m).build(&config));
                    if rng.bounded(3) == 0 {
                        port = port.with_length(rng.bounded(24));
                    }
                    if rng.bounded(3) == 0 {
                        port = port.starting_at(rng.bounded(12));
                    }
                    port
                })
                .collect();
            let mut cursor = Cursor::new(&config, PatternWorkload::new(ports));
            let mut grants = vec![0u64; n];
            let mut conflicts = ConflictCounts::default();
            for cycle in 0..160 {
                cursor.advance();
                for ev in cursor.state.outcomes() {
                    match ev.outcome {
                        PortOutcome::Granted => grants[ev.port.0] += 1,
                        PortOutcome::Delayed(kind) => conflicts.record(kind),
                    }
                }
                let slots: Vec<u64> = (0..n).map(|i| cursor.state.position(i)).collect();
                prop_assert_eq!(slots, cursor.workload.state_signature(), "cycle {}", cycle);
                prop_assert_eq!(cursor.state.hash(), cursor.state.recompute_hash());
                let counted: Vec<u64> = (0..n).map(|p| cursor.workload.grants(p)).collect();
                prop_assert_eq!(&counted, &grants, "cycle {}", cycle);
                prop_assert_eq!(cursor.conflicts, conflicts, "cycle {}", cycle);
            }
        }
    }
}
