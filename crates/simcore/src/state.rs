//! The packed simulator state: one contiguous buffer holding everything
//! that evolves from clock period to clock period.
//!
//! Paper §III, assumption 1, rests on the memory state being *finite*; this
//! module makes that state an explicit, compact value instead of a bundle
//! of per-subsystem fields. A [`SimState`] packs, in a single `u64` buffer:
//!
//! * the priority **rotation** (word 0);
//! * per-bank **free times** — the absolute clock period at which each
//!   bank becomes available again, one word per bank. A bank is busy while
//!   `free_at > now`; its canonical **residue** (remaining busy clock
//!   periods, bounded by `n_c`, at most [`MAX_BANK_CYCLE`]) is
//!   `free_at - now`, saturating at zero;
//! * the **expiry wheel** — `W` slot heads, `W` being `n_c` rounded up to
//!   a power of two, and one `next` link per bank. Every busy bank is
//!   queued on the intrusive singly linked list of slot `free_at mod W`.
//!   Busy free times lie in `(now, now + n_c]`, so one slot only ever
//!   holds banks due at the same period, and advancing the clock pops
//!   exactly the slot of the new `now`: aging costs O(banks freeing now),
//!   not O(banks);
//! * per-bank **open rows** — under the DRAM bank model
//!   ([`BankModel::Dram`](crate::config::BankModel::Dram)) only, one word
//!   per bank holding `row + 1` (`0` = closed). The uniform model packs
//!   zero open-row words;
//! * per-port workload **position slots** — the reduced stream positions a
//!   workload reports through
//!   [`ObservableWorkload`](crate::steady::ObservableWorkload);
//! * per-port **wait counters** — clock periods the head request has been
//!   delayed. Waits are accounting state: they never influence arbitration
//!   and can grow without bound under starvation, so they are excluded from
//!   both the hash and [`PartialEq`].
//!
//! Rotation, residues, open rows and positions are the *core*: the part
//! that determines all future behaviour. Absolute time is not part of it,
//! so equality compares residues, never raw free times, and cores equal
//! at different clock periods are cyclic-state recurrence. The detector in
//! [`crate::steady`] tracks it through an **incrementally maintained
//! 64-bit hash**, the XOR of four parts:
//!
//! * rotation, open rows and position slots each contribute
//!   `mix64(mix64(SEED ^ index) ^ value)` per component; every mutation
//!   XORs the old contribution out and the new one in;
//! * residues contribute a linear form over GF(2^61 − 1),
//!   `h_res = Σ g(b)·residue(b)`, with fixed per-bank coefficients `g(b)`.
//!   The state also keeps `G = Σ_busy g(b)`. A grant of `hold` periods
//!   adds `g·hold` to `h_res` and `g` to `G`; advancing the clock lowers
//!   every busy residue by one, so it subtracts `G` from `h_res`; an
//!   expiry subtracts `g` from `G` (the bank's residue is already zero).
//!   No update touches an idle bank.
//!
//! Every part depends on canonical values only, so the hash after any
//! number of steps equals the hash of a freshly packed copy of the same
//! core at `now = 0` (see [`SimState::recompute_hash`]) without ever
//! re-hashing the whole buffer.

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

use crate::config::SimConfig;
use crate::request::{PortId, PortOutcome, Request};
use std::fmt::Write as _;

/// One port's view of one simulated clock period, in arbitration (input)
/// order. Produced by the [`step`](crate::step::step) kernel into
/// [`SimState::outcomes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortEvent {
    /// The port that had a pending request this cycle.
    pub port: PortId,
    /// The request it presented.
    pub request: Request,
    /// Grant or delay (with the conflict kind).
    pub outcome: PortOutcome,
    /// Clock periods the port's head request has waited: for a granted
    /// port the completed wait (what the histogram records), for a delayed
    /// port the running count including this cycle.
    pub wait: u64,
}

/// splitmix64 finalizer: a fast, well-mixing 64-bit permutation.
#[inline]
const fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hash contribution of one state component: `seed` names the component
/// family, `idx` the slot within it, `val` the current value. XOR-ing
/// contributions makes every update O(1): flip the old one out, the new
/// one in.
#[inline]
fn component(seed: u64, idx: u64, val: u64) -> u64 {
    mix64(mix64(seed ^ idx) ^ val)
}

const RES_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const POS_SEED: u64 = 0xc2b2_ae3d_27d4_eb4f;
const ROT_SEED: u64 = 0x1656_67b1_9e37_79f9;
const ROW_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// The Mersenne prime 2^61 − 1: the residue hash is a linear form over
/// GF(P61).
const P61: u64 = (1 << 61) - 1;

/// `a + b` in GF(P61), for `a, b < P61`.
#[deny(clippy::arithmetic_side_effects)]
#[inline]
fn add61(a: u64, b: u64) -> u64 {
    // Both below 2^61: the sum stays below 2^62.
    let s = a.wrapping_add(b);
    if s >= P61 {
        s.wrapping_sub(P61)
    } else {
        s
    }
}

/// `a − b` in GF(P61), for `a, b < P61`.
#[deny(clippy::arithmetic_side_effects)]
#[inline]
fn sub61(a: u64, b: u64) -> u64 {
    if a >= b {
        a.wrapping_sub(b)
    } else {
        a.wrapping_add(P61).wrapping_sub(b)
    }
}

/// `a · b` in GF(P61), for `a, b < P61`: the 122-bit product folds as
/// `lo + hi` because `2^61 ≡ 1`.
#[deny(clippy::arithmetic_side_effects)]
#[inline]
fn mul61(a: u64, b: u64) -> u64 {
    let p = u128::from(a).wrapping_mul(u128::from(b));
    add61((p as u64) & P61, (p >> 61) as u64)
}

/// `x + by (mod n)`, for `x < n` and `by <= n`.
#[inline]
fn add_mod(x: u64, by: u64, n: u64) -> u64 {
    let y = x.wrapping_add(by);
    if y >= n {
        y.wrapping_sub(n)
    } else {
        y
    }
}

/// `x − by (mod n)`, for `x < n` and `by <= n`.
#[inline]
fn sub_mod(x: u64, by: u64, n: u64) -> u64 {
    add_mod(x, n.wrapping_sub(by), n)
}

/// A position slot `cooldown·M + (address mod M)` split into `cooldown·M`
/// and the address residue. A slot below `M` (every stride's, and an idle
/// burst's) splits without a division.
#[inline]
fn split_slot(slot: u64, modulus: u64) -> (u64, u64) {
    if slot < modulus {
        (0, slot)
    } else {
        let address = slot % modulus;
        (slot - address, address)
    }
}

/// Residue-hash coefficient of `bank`, in `1..P61`.
#[inline]
const fn coefficient_of(bank: u64) -> u64 {
    mix64(RES_SEED ^ bank) % (P61 - 1) + 1
}

/// Coefficients of the first 256 banks, so a grant or an expiry costs a
/// table load instead of a `mix64` on every geometry up to 256 banks.
#[expect(
    clippy::indexing_slicing,
    reason = "bank < table.len() by the loop condition, and const evaluation rejects any out-of-range index at build time"
)]
const COEFFICIENTS: [u64; 256] = {
    let mut table = [0; 256];
    let mut bank = 0;
    while bank < table.len() {
        table[bank] = coefficient_of(bank as u64);
        bank += 1;
    }
    table
};

#[inline]
fn coefficient(bank: u64) -> u64 {
    match COEFFICIENTS.get(bank as usize) {
        Some(&g) => g,
        None => coefficient_of(bank),
    }
}

/// A violated [`SimState`] structural invariant, as found by
/// [`SimState::validate`].
///
/// These are the properties every reachable state satisfies by
/// construction; a violation means a kernel bug, a corrupted external
/// state lifted in through [`SimState::repack`], or (in the oracle's
/// seeded-fault tests) an injected bug doing its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A bank residue exceeds the bank cycle time `n_c` (its free time
    /// lies beyond `now + n_c`): no grant can make a bank busy for longer
    /// than one memory cycle.
    ResidueOverflow {
        /// The offending bank.
        bank: u64,
        /// Its stored residue.
        residue: u8,
        /// The maximum any reachable state can hold (`n_c`).
        max: u8,
    },
    /// The expiry wheel disagrees with the free times: a busy bank is not
    /// queued exactly once in the wheel slot of its free time, or a slot
    /// holds a free bank or one due at another period.
    WheelMismatch {
        /// The misqueued bank.
        bank: u64,
    },
    /// The priority rotation is not a valid port index.
    RotationOutOfRange {
        /// The stored rotation.
        rotation: usize,
        /// Number of ports it must stay below.
        ports: u32,
    },
    /// A DRAM open-row word exceeds the bank model's row count: rows are
    /// reduced modulo `rows` before they are opened, so no reachable state
    /// can hold a larger one.
    OpenRowOutOfRange {
        /// The offending bank.
        bank: u64,
        /// Its stored open row.
        row: u64,
        /// The bank model's exclusive row bound.
        rows: u64,
    },
    /// A workload position slot exceeds the workload's declared bound.
    PositionOutOfRange {
        /// The offending slot.
        slot: usize,
        /// Its stored value.
        position: u64,
        /// The workload's inclusive bound.
        bound: u64,
    },
    /// An incrementally maintained hash term diverged from a from-scratch
    /// recompute: some mutation bypassed the hashed accessors.
    HashMismatch {
        /// The incremental value: [`SimState::hash`], or the sum of busy
        /// residue coefficients that clock advances subtract from it.
        incremental: u64,
        /// The from-scratch value ([`SimState::recompute_hash`], or the
        /// recomputed coefficient sum).
        recomputed: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::ResidueOverflow { bank, residue, max } => write!(
                f,
                "bank {bank} residue {residue} exceeds the bank cycle time {max}"
            ),
            Self::WheelMismatch { bank } => write!(
                f,
                "bank {bank}'s expiry-wheel entry disagrees with its free time"
            ),
            Self::RotationOutOfRange { rotation, ports } => {
                write!(
                    f,
                    "rotation {rotation} is not a port index (ports = {ports})"
                )
            }
            Self::OpenRowOutOfRange { bank, row, rows } => write!(
                f,
                "bank {bank} open row {row} outside the bank model's 0..{rows}"
            ),
            Self::PositionOutOfRange {
                slot,
                position,
                bound,
            } => write!(
                f,
                "position slot {slot} holds {position}, above the workload bound {bound}"
            ),
            Self::HashMismatch {
                incremental,
                recomputed,
            } => write!(
                f,
                "incremental hash {incremental:#018x} != recomputed {recomputed:#018x}"
            ),
        }
    }
}

/// Largest bank cycle time `n_c` the packed state can hold: residues are
/// reported one byte per bank.
pub const MAX_BANK_CYCLE: u64 = u8::MAX as u64;

/// The packed dynamic state of one simulated memory system.
///
/// Construction fixes the dimensions (banks, ports, signature slots); all
/// per-cycle mutation goes through the [`step`](crate::step::step) kernel
/// and the position-sync methods. `PartialEq` compares the *core* only
/// (rotation, residues, open rows, positions) — wait counters, absolute
/// time and per-cycle scratch are excluded, so two states compare equal
/// exactly when their futures coincide.
#[derive(Debug, Clone)]
pub struct SimState {
    /// Layout: `[rotation | free times | wheel heads | wheel links |
    /// open-row words | position slots | waits]`. Free times and links
    /// take one word per bank, the heads `wheel` words. A head or link
    /// holds `bank + 1` of the next queued bank, `0` ending the list, so
    /// the all-zero buffer is the idle state at `now = 0`. The open-row
    /// region exists only under the DRAM bank model (one word per bank,
    /// `row + 1` with `0` = closed).
    buf: Box<[u64]>,
    banks: u32,
    ports: u32,
    sig_len: u32,
    /// Number of expiry-wheel slots: `n_c` rounded up to a power of two.
    wheel: u32,
    /// Number of `u64` words holding per-bank open rows: `banks` under the
    /// DRAM bank model, `0` under the uniform model.
    row_words: u32,
    /// Exclusive bound on open-row values (the DRAM model's `rows`; `0`
    /// under the uniform model, where no open-row words exist).
    max_rows: u64,
    /// Largest residue any reachable state can hold: the geometry's bank
    /// cycle time `n_c`.
    max_residue: u8,
    /// Inclusive bound on workload position slots, when the workload
    /// declared one (see
    /// [`ObservableWorkload::signature_bound`](crate::steady::ObservableWorkload::signature_bound)).
    slot_bound: Option<u64>,
    now: u64,
    /// `Σ g(b)·residue(b)` over GF(P61).
    h_res: u64,
    /// `Σ g(b)` over the busy banks, in GF(P61).
    g_busy: u64,
    h_rot: u64,
    h_pos: u64,
    h_row: u64,
    /// Per-port events of the last simulated cycle, in arbitration order.
    pub(crate) outcomes: Vec<PortEvent>,
    /// Scratch: pending requests collected at the start of a cycle.
    pub(crate) pending: Vec<(PortId, Request)>,
    /// Scratch: per-request outcomes parallel to `pending`.
    pub(crate) kinds: Vec<PortOutcome>,
    /// Banks whose busy interval expired at the end of the last cycle, in
    /// wheel (grant) order; their `busy = false` transition is reported at
    /// the start of the next one (matching the observer contract's
    /// timing), after sorting.
    pub(crate) just_freed: Vec<u64>,
}

impl SimState {
    /// Fresh all-zero state with no workload signature slots (the engine
    /// wrapper's configuration: residues, rotation and waits only).
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Self::with_signature_slots(config, 0)
    }

    /// Fresh all-zero state with room for `sig_len` workload position
    /// slots in the hashed core.
    ///
    /// # Panics
    /// If the geometry's bank cycle time exceeds [`MAX_BANK_CYCLE`].
    #[must_use]
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented \"# Panics\" precondition, checked once at construction"
    )]
    pub fn with_signature_slots(config: &SimConfig, sig_len: usize) -> Self {
        let bank_cycle = config.geometry.bank_cycle();
        assert!(
            bank_cycle <= MAX_BANK_CYCLE,
            "bank cycle time {bank_cycle} exceeds the u8 residue encoding"
        );
        let banks = config.geometry.banks() as u32;
        let ports = config.num_ports() as u32;
        let wheel = bank_cycle.next_power_of_two() as u32;
        let (row_words, max_rows) = match config.bank_model {
            crate::config::BankModel::Uniform => (0, 0),
            crate::config::BankModel::Dram { rows, .. } => (banks, rows),
        };
        let words =
            1 + 2 * banks as usize + wheel as usize + row_words as usize + sig_len + ports as usize;
        let mut state = Self {
            buf: vec![0u64; words].into_boxed_slice(),
            banks,
            ports,
            sig_len: sig_len as u32,
            wheel,
            row_words,
            max_rows,
            max_residue: bank_cycle as u8,
            slot_bound: None,
            now: 0,
            h_res: 0,
            g_busy: 0,
            h_rot: 0,
            h_pos: 0,
            h_row: 0,
            outcomes: Vec::with_capacity(ports as usize),
            pending: Vec::with_capacity(ports as usize),
            kinds: Vec::with_capacity(ports as usize),
            just_freed: Vec::with_capacity(ports as usize),
        };
        let hashes = state.full_hash();
        state.h_res = hashes.res;
        state.g_busy = hashes.g_busy;
        state.h_rot = hashes.rot;
        state.h_pos = hashes.pos;
        state.h_row = hashes.row;
        state
    }

    /// A copy of the state without its per-cycle scratch: `outcomes`,
    /// `pending`, `kinds` and `just_freed` come back empty, so the copy
    /// costs one buffer allocation. Equality and the hash ignore the
    /// scratch, and [`step`](crate::step::step) refills the first three
    /// before reading them; only an observer reads `just_freed` before
    /// the clock advance refills it. So under
    /// [`NoopObserver`](crate::observe::NoopObserver) the copy steps,
    /// compares and hashes like a clone. The cyclic-state detector
    /// snapshots and restores through it; `clone` keeps the scratch for
    /// observers.
    pub(crate) fn copy_core(&self) -> Self {
        Self {
            buf: self.buf.clone(),
            banks: self.banks,
            ports: self.ports,
            sig_len: self.sig_len,
            wheel: self.wheel,
            row_words: self.row_words,
            max_rows: self.max_rows,
            max_residue: self.max_residue,
            slot_bound: self.slot_bound,
            now: self.now,
            h_res: self.h_res,
            g_busy: self.g_busy,
            h_rot: self.h_rot,
            h_pos: self.h_pos,
            h_row: self.h_row,
            outcomes: Vec::new(),
            pending: Vec::new(),
            kinds: Vec::new(),
            just_freed: Vec::new(),
        }
    }

    /// Replaces this state's core with `core`, a
    /// [`copy_core`](Self::copy_core) result, while keeping this state's
    /// per-cycle scratch, emptied: the restored state steps without growing
    /// fresh scratch buffers.
    pub(crate) fn restore_core(&mut self, core: Self) {
        let old = std::mem::replace(self, core);
        self.outcomes = old.outcomes;
        self.pending = old.pending;
        self.kinds = old.kinds;
        self.just_freed = old.just_freed;
        self.outcomes.clear();
        self.pending.clear();
        self.kinds.clear();
        self.just_freed.clear();
    }

    /// Packs an externally held state (used by the differential oracle to
    /// lift the reference engine's state into the canonical form, so both
    /// sides of a divergence dump share one format and the sanitizer can
    /// [`validate`](Self::validate) the oracle).
    ///
    /// # Panics
    /// If `residues` does not have one entry per bank.
    #[must_use]
    pub fn pack(config: &SimConfig, residues: &[u8], positions: &[u64], rotation: usize) -> Self {
        let mut state = Self::with_signature_slots(config, positions.len());
        state.repack(residues, positions, rotation);
        state
    }

    /// Re-packs an externally held state into this instance in place,
    /// touching (and re-hashing) only the components that changed. Lets a
    /// lockstep harness maintain one canonical copy across cycles instead
    /// of allocating a fresh state per comparison. A harness that also
    /// calls [`Self::advance_now`] once per lifted cycle keeps the copy on
    /// the lifted clock: an aging bank's free time then stays put, and only
    /// new grants cost a wheel update.
    ///
    /// # Panics
    /// If `residues` does not have one entry per bank or `positions` one
    /// entry per signature slot.
    #[expect(
        clippy::disallowed_macros,
        reason = "the size asserts are the documented contract; a mismatch is a harness bug"
    )]
    pub fn repack(&mut self, residues: &[u8], positions: &[u64], rotation: usize) {
        assert_eq!(residues.len(), self.banks as usize, "one residue per bank");
        assert_eq!(
            positions.len(),
            self.sig_len as usize,
            "one position per signature slot"
        );
        for (bank, &r) in residues.iter().enumerate() {
            self.set_residue(bank as u64, r);
        }
        for (slot, &p) in positions.iter().enumerate() {
            self.set_position(slot, p);
        }
        self.set_rotation(rotation);
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Number of ports.
    #[must_use]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Number of workload position slots in the core.
    #[must_use]
    pub fn signature_slots(&self) -> usize {
        self.sig_len as usize
    }

    /// Clock periods simulated so far. Absolute time is not part of the
    /// core: a cyclic state recurs at different `now` values.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock one period: the whole aging pass. Every busy
    /// residue drops by one, and the banks whose busy interval ends — the
    /// wheel slot of the new `now` — leave the wheel and are queued in
    /// `just_freed` (in wheel order) so the next cycle can report their
    /// busy→free transition. The step kernel calls it last in every cycle;
    /// a lockstep harness calls it to keep a [`Self::repack`]ed copy on its
    /// own clock.
    #[deny(clippy::arithmetic_side_effects)]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf indices derive from the validated geometry that sized the buffer, and wheel links hold in-range banks by construction"
    )]
    pub fn advance_now(&mut self) {
        self.just_freed.clear();
        self.h_res = sub61(self.h_res, self.g_busy);
        self.now = self.now.wrapping_add(1);
        let head = self.head_index(self.now);
        let mut link = std::mem::take(&mut self.buf[head]);
        while link != 0 {
            let bank = link.wrapping_sub(1);
            self.just_freed.push(bank);
            self.g_busy = sub61(self.g_busy, coefficient(bank));
            link = self.buf[self.next_index(bank)];
        }
    }

    /// Current cyclic-priority rotation offset.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    pub fn rotation(&self) -> usize {
        self.buf[0] as usize
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    pub(crate) fn set_rotation(&mut self, rotation: usize) {
        let old = self.buf[0];
        let new = rotation as u64;
        if old != new {
            self.h_rot ^= component(ROT_SEED, 0, old) ^ component(ROT_SEED, 0, new);
            self.buf[0] = new;
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "bank < banks <= 2^32 (validated geometry); the index cannot overflow"
    )]
    #[inline]
    fn free_index(bank: u64) -> usize {
        bank as usize + 1
    }

    /// Buffer index of the wheel slot a free time `t` is queued in.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "wheel >= 1; 1 + 2·banks + wheel words fit the buffer (validated geometry)"
    )]
    #[inline]
    fn head_index(&self, t: u64) -> usize {
        let slot = (t & u64::from(self.wheel - 1)) as usize;
        1 + self.banks as usize + slot
    }

    /// Buffer index of `bank`'s wheel link.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "1 + 2·banks + wheel words fit the buffer (validated geometry)"
    )]
    #[inline]
    fn next_index(&self, bank: u64) -> usize {
        1 + self.banks as usize + self.wheel as usize + bank as usize
    }

    /// Absolute clock period at which `bank` becomes free.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    fn free_at(&self, bank: u64) -> u64 {
        self.buf[Self::free_index(bank)]
    }

    /// True when `bank` is still busy at the current clock period.
    #[must_use]
    #[inline]
    pub fn is_busy(&self, bank: u64) -> bool {
        self.free_at(bank) > self.now
    }

    /// Remaining busy clock periods of `bank` at the current clock period.
    #[must_use]
    #[inline]
    pub fn residue(&self, bank: u64) -> u8 {
        self.free_at(bank).saturating_sub(self.now) as u8
    }

    /// Marks the free `bank` busy for `hold` clock periods from the
    /// current one (a grant): one wheel push and two O(1) hash updates.
    #[deny(clippy::arithmetic_side_effects)]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! only: compiled out of release builds"
    )]
    #[inline]
    pub(crate) fn occupy(&mut self, bank: u64, hold: u64) {
        debug_assert!(!self.is_busy(bank), "bank {bank} granted while busy");
        debug_assert!(hold <= MAX_BANK_CYCLE, "hold {hold} exceeds a residue");
        let free_at = self.now.wrapping_add(hold);
        self.buf[Self::free_index(bank)] = free_at;
        self.link(bank, free_at);
        let g = coefficient(bank);
        self.g_busy = add61(self.g_busy, g);
        self.h_res = add61(self.h_res, mul61(g, hold));
    }

    /// Pushes `bank` onto the wheel slot of `free_at`.
    #[deny(clippy::arithmetic_side_effects)]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    #[inline]
    fn link(&mut self, bank: u64, free_at: u64) {
        let head = self.head_index(free_at);
        let next = self.next_index(bank);
        self.buf[next] = self.buf[head];
        self.buf[head] = bank.wrapping_add(1);
    }

    /// Removes `bank` from the wheel slot of its free time, if queued
    /// there. Walks the slot's list: off the step kernel's path.
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    fn unlink(&mut self, bank: u64) {
        let target = bank.wrapping_add(1);
        let mut at = self.head_index(self.free_at(bank));
        for _ in 0..=self.banks {
            let link = self.buf[at];
            if link == 0 {
                return;
            }
            if link == target {
                self.buf[at] = self.buf[self.next_index(bank)];
                return;
            }
            at = self.next_index(link.wrapping_sub(1));
        }
    }

    /// Sets the residue of `bank` to any value, maintaining the wheel and
    /// the incremental hash. The kernel grants through [`Self::occupy`];
    /// this is the general setter behind [`Self::repack`].
    pub(crate) fn set_residue(&mut self, bank: u64, value: u8) {
        let old = self.residue(bank);
        if old == value {
            return;
        }
        let g = coefficient(bank);
        #[expect(
            clippy::indexing_slicing,
            reason = "buf index derives from the validated geometry that sized the buffer"
        )]
        if old > 0 {
            self.unlink(bank);
            self.g_busy = sub61(self.g_busy, g);
            self.h_res = sub61(self.h_res, mul61(g, u64::from(old)));
            self.buf[Self::free_index(bank)] = self.now;
        }
        if value > 0 {
            self.occupy(bank, u64::from(value));
        }
    }

    /// Every bank's residue at the current clock period, in bank order.
    #[expect(
        clippy::indexing_slicing,
        reason = "the free-time region spans words 1..=banks of the buffer sized from the validated geometry"
    )]
    pub fn residues(&self) -> impl Iterator<Item = u64> + '_ {
        let now = self.now;
        self.buf[1..=self.banks as usize]
            .iter()
            .map(move |&free_at| free_at.saturating_sub(now))
    }

    /// All residues as one byte per bank (the legacy signature format).
    #[must_use]
    pub fn residues_vec(&self) -> Vec<u8> {
        self.residues().map(|r| r as u8).collect()
    }

    #[inline]
    fn row_base(&self) -> usize {
        1 + 2 * self.banks as usize + self.wheel as usize
    }

    #[inline]
    fn pos_base(&self) -> usize {
        self.row_base() + self.row_words as usize
    }

    /// The row currently open in `bank`'s row buffer, or `None` when the
    /// bank is cold (or the uniform model is active, which tracks no rows).
    #[must_use]
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    pub fn open_row(&self, bank: u64) -> Option<u64> {
        if self.row_words == 0 {
            return None;
        }
        let word = self.buf[self.row_base() + bank as usize];
        (word != 0).then(|| word - 1)
    }

    /// Opens `row` in `bank`'s row buffer, maintaining the incremental
    /// hash. Only meaningful under the DRAM bank model.
    #[deny(clippy::arithmetic_side_effects)]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! only: compiled out of release builds"
    )]
    #[inline]
    pub(crate) fn set_open_row(&mut self, bank: u64, row: u64) {
        debug_assert!(self.row_words > 0, "uniform model has no open rows");
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "row_base + bank is bounded by the buffer length (validated geometry)"
        )]
        let i = self.row_base() + bank as usize;
        let old = self.buf[i];
        // Packs `row + 1` so that 0 means "closed". A row of u64::MAX
        // would wrap to "closed"; rows come from Request::row, bounded by
        // the pattern's row count, which the config validates.
        let new = row.wrapping_add(1);
        if old != new {
            self.h_row ^= component(ROW_SEED, bank, old) ^ component(ROW_SEED, bank, new);
            self.buf[i] = new;
        }
    }

    /// Copies an externally held open-row vector (`None` = closed) into
    /// the open-row words — the DRAM analogue of [`Self::repack`], used by
    /// the differential oracle to lift the reference engine's row state.
    ///
    /// # Panics
    /// If `open` does not have one entry per bank, or the state was built
    /// for the uniform model (which has no open-row words).
    #[expect(
        clippy::disallowed_macros,
        reason = "the size asserts are the documented contract; a mismatch is a harness bug"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "the asserts pin the row region to one word per bank of the buffer sized from the validated geometry"
    )]
    pub fn sync_open_rows(&mut self, open: &[Option<u64>]) {
        assert_eq!(open.len(), self.banks as usize, "one open row per bank");
        assert!(
            self.row_words == self.banks,
            "uniform-model state has no open-row words"
        );
        for (bank, &row) in open.iter().enumerate() {
            let i = self.row_base() + bank;
            let old = self.buf[i];
            let new = row.map_or(0, |r| r + 1);
            if old != new {
                let idx = bank as u64;
                self.h_row ^= component(ROW_SEED, idx, old) ^ component(ROW_SEED, idx, new);
                self.buf[i] = new;
            }
        }
    }

    /// The wait counters are the buffer's last `ports` words.
    #[inline]
    fn wait_base(&self) -> usize {
        self.buf.len() - self.ports as usize
    }

    /// Workload position slot `slot`.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    pub fn position(&self, slot: usize) -> u64 {
        self.buf[self.pos_base() + slot]
    }

    /// Sets a workload position slot, maintaining the incremental hash.
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    pub fn set_position(&mut self, slot: usize, value: u64) {
        let i = self.pos_base() + slot;
        let old = self.buf[i];
        if old != value {
            self.h_pos ^=
                component(POS_SEED, slot as u64, old) ^ component(POS_SEED, slot as u64, value);
            self.buf[i] = value;
        }
    }

    /// Copies a freshly written workload signature into the position
    /// slots, updating the hash only for slots that changed.
    ///
    /// # Panics
    /// If `signature` does not have one entry per slot.
    #[expect(
        clippy::disallowed_macros,
        reason = "the size assert is the documented contract; a mismatch is a harness bug"
    )]
    pub fn sync_signature(&mut self, signature: &[u64]) {
        assert_eq!(signature.len(), self.sig_len as usize, "signature size");
        for (slot, &v) in signature.iter().enumerate() {
            self.set_position(slot, v);
        }
    }

    /// Clock periods port `port`'s head request has waited so far.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    pub fn wait(&self, port: PortId) -> u64 {
        self.buf[self.wait_base() + port.0]
    }

    /// Counts one more delayed period for `port` and returns its running
    /// wait.
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    #[inline]
    pub(crate) fn bump_wait(&mut self, port: PortId) -> u64 {
        let i = self.wait_base() + port.0;
        self.buf[i] += 1;
        self.buf[i]
    }

    /// Returns `port`'s completed wait and zeroes its counter (a grant).
    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    #[inline]
    pub(crate) fn take_wait(&mut self, port: PortId) -> u64 {
        let i = self.wait_base() + port.0;
        std::mem::take(&mut self.buf[i])
    }

    /// The incrementally maintained core hash.
    #[must_use]
    #[inline]
    pub fn hash(&self) -> u64 {
        self.h_res ^ self.h_rot ^ self.h_pos ^ self.h_row
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "buf index derives from the validated geometry that sized the buffer"
    )]
    fn full_hash(&self) -> Hashes {
        let mut res = 0;
        let mut g_busy = 0;
        for bank in 0..u64::from(self.banks) {
            let residue = self.residue(bank);
            if residue > 0 {
                let g = coefficient(bank);
                res = add61(res, mul61(g, u64::from(residue)));
                g_busy = add61(g_busy, g);
            }
        }
        let rot = component(ROT_SEED, 0, self.buf[0]);
        let mut pos = 0;
        for slot in 0..self.sig_len as usize {
            pos ^= component(POS_SEED, slot as u64, self.buf[self.pos_base() + slot]);
        }
        let mut row = 0;
        for bank in 0..self.row_words as usize {
            row ^= component(ROW_SEED, bank as u64, self.buf[self.row_base() + bank]);
        }
        Hashes {
            res,
            g_busy,
            rot,
            pos,
            row,
        }
    }

    /// Re-hashes the core from scratch — the value [`Self::hash`] must
    /// always equal. Exposed for the incremental-hash soundness tests and
    /// for debugging; the hot paths never call it.
    #[must_use]
    pub fn recompute_hash(&self) -> u64 {
        self.full_hash().combined()
    }

    /// The address modulus `M = m·max(rows, 1)`: a request is its word
    /// address modulo `M`, bank `a mod m` and row `a / m` (`rows` the DRAM
    /// model's row count, none under the uniform model). The position
    /// slots of a workload that translates with addresses hold
    /// `cooldown·M + (address mod M)`, and an open row `r` of bank `b` is
    /// address `b + m·r`.
    #[inline]
    pub(crate) fn address_modulus(&self) -> u64 {
        u64::from(self.banks) * self.max_rows.max(1)
    }

    /// The address residue position slot `slot` holds, read as
    /// `cooldown·M + (address mod M)`.
    #[inline]
    pub(crate) fn slot_address(&self, slot: usize) -> u64 {
        split_slot(self.position(slot), self.address_modulus()).1
    }

    /// The key of this core up to address translation: the
    /// [`hash`](Self::hash) of the core translated by `−a` on the word
    /// addresses modulo `M` ([`address_modulus`](Self::address_modulus)),
    /// `a` the address in position slot 0. Bank `b`'s residue moves to
    /// bank `b − a (mod m)` and every position slot's address residue to
    /// `r − a (mod M)`, its cooldown staying put. Two cores that are
    /// translates of each other key alike. The residue term walks the
    /// expiry wheel, slot `now + k` holding the banks of residue `k`:
    /// O(n_c + busy banks), however the states compare.
    ///
    /// Under the DRAM model the open rows of the busy banks the walk
    /// visits move with their addresses too (row `r` of bank `b` to the
    /// row of address `b + m·r − a`), folded into their banks' residue
    /// terms; the idle banks' rows, and the plain hash's open-row term,
    /// stay out of the key. On the uniform model the key is the plain
    /// hash of the translated core.
    #[deny(clippy::arithmetic_side_effects)]
    pub(crate) fn translated_hash(&self) -> u64 {
        let modulus = self.address_modulus();
        let anchor = split_slot(self.position(0), modulus).1;
        let banks = u64::from(self.banks);
        let res = if self.row_words == 0 {
            // M = m: the anchor is a bank.
            self.translated_residues(|bank, residue| {
                mul61(coefficient(sub_mod(bank, anchor, banks)), residue)
            })
        } else {
            #[expect(
                clippy::integer_division,
                clippy::arithmetic_side_effects,
                reason = "banks >= 1 by the validated geometry"
            )]
            let (anchor_bank, anchor_row) = (anchor % banks, anchor / banks);
            self.translated_residues(|bank, residue| {
                let borrow = u64::from(bank < anchor_bank);
                let word = self.open_row(bank).map_or(0, |row| {
                    sub_mod(row, anchor_row.wrapping_add(borrow), self.max_rows).wrapping_add(1)
                });
                let value = (residue | word.wrapping_shl(8)) & P61;
                mul61(coefficient(sub_mod(bank, anchor_bank, banks)), value)
            })
        };
        let mut pos = 0;
        for slot in 0..self.sig_len as usize {
            let (cooldown, address) = split_slot(self.position(slot), modulus);
            let relative = cooldown.wrapping_add(sub_mod(address, anchor, modulus));
            pos ^= component(POS_SEED, slot as u64, relative);
        }
        res ^ self.h_rot ^ pos
    }

    /// `Σ term(bank, residue)` over the busy banks, in GF(P61), from a
    /// walk of the expiry wheel: slot `now + k` holds the banks of residue
    /// `k`.
    #[deny(clippy::arithmetic_side_effects)]
    #[expect(
        clippy::indexing_slicing,
        reason = "buf indices derive from the validated geometry that sized the buffer, and wheel links hold in-range banks by construction"
    )]
    #[inline]
    fn translated_residues(&self, term: impl Fn(u64, u64) -> u64) -> u64 {
        let mut res = 0;
        for residue in 1..=u64::from(self.max_residue) {
            let mut link = self.buf[self.head_index(self.now.wrapping_add(residue))];
            while link != 0 {
                let bank = link.wrapping_sub(1);
                res = add61(res, term(bank, residue));
                link = self.buf[self.next_index(bank)];
            }
        }
        res
    }

    /// True when `other`'s core is this one translated by `shift` on the
    /// word addresses modulo `M` ([`address_modulus`](Self::address_modulus)):
    /// bank `b`'s residue at bank `b + shift (mod m)`, its open row `r` at
    /// the row of address `b + m·r + shift`, every position slot's address
    /// residue raised by `shift (mod M)` and its cooldown kept, and the
    /// same rotation. O(banks), stopping at the first mismatch: the
    /// confirmation behind a [`translated_hash`](Self::translated_hash)
    /// match, so it compares every bank's open row, idle or busy.
    #[expect(
        clippy::integer_division,
        reason = "banks >= 1 by the validated geometry"
    )]
    pub(crate) fn translates_to(&self, other: &Self, shift: u64) -> bool {
        let modulus = self.address_modulus();
        let banks = u64::from(self.banks);
        let (bank_shift, row_shift) = if self.row_words == 0 {
            (shift, 0)
        } else {
            (shift % banks, shift / banks)
        };
        self.banks == other.banks
            && self.sig_len == other.sig_len
            && self.row_words == other.row_words
            && self.max_rows == other.max_rows
            && self.rotation() == other.rotation()
            && (0..self.sig_len as usize).all(|i| {
                let (cooldown, address) = split_slot(self.position(i), modulus);
                other.position(i) == cooldown + add_mod(address, shift, modulus)
            })
            && (0..banks).all(|b| {
                let to = b + bank_shift;
                let carry = to >= banks;
                let to = if carry { to - banks } else { to };
                other.residue(to) == self.residue(b)
                    && other.open_row(to)
                        == self
                            .open_row(b)
                            .map(|row| add_mod(row, row_shift + u64::from(carry), self.max_rows))
            })
    }

    /// Per-port events of the last simulated clock period, in arbitration
    /// (input) order.
    #[must_use]
    pub fn outcomes(&self) -> &[PortEvent] {
        &self.outcomes
    }

    /// Declares an inclusive bound every position slot must stay within
    /// (`None` disables the check). Wired by the steady-state cursor from
    /// [`ObservableWorkload::signature_bound`](crate::steady::ObservableWorkload::signature_bound).
    pub fn set_slot_bound(&mut self, bound: Option<u64>) {
        self.slot_bound = bound;
    }

    /// How often `bank` is queued in the wheel slot of `free_at`, walking
    /// at most one entry per bank (a cycle in a corrupt list stops there).
    fn queued_count(&self, bank: u64, free_at: u64) -> u64 {
        let mut count = 0;
        let mut link = self.buf.get(self.head_index(free_at)).copied();
        for _ in 0..self.banks {
            match link {
                Some(0) | None => break,
                Some(l) => {
                    count += u64::from(l == bank + 1);
                    link = self.buf.get(self.next_index(l - 1)).copied();
                }
            }
        }
        count
    }

    /// The expiry-wheel invariant: every queued entry is an in-range busy
    /// bank sitting in the slot of its free time, and every busy bank is
    /// queued there exactly once.
    fn check_wheel(&self) -> Result<(), InvariantViolation> {
        let banks = u64::from(self.banks);
        for slot in 0..u64::from(self.wheel) {
            let mut link = self.buf.get(self.head_index(slot)).copied();
            for _ in 0..=banks {
                let Some(l) = link.filter(|&l| l != 0) else {
                    break;
                };
                let bank = l - 1;
                if bank >= banks
                    || !self.is_busy(bank)
                    || self.head_index(self.free_at(bank)) != self.head_index(slot)
                {
                    return Err(InvariantViolation::WheelMismatch { bank });
                }
                link = self.buf.get(self.next_index(bank)).copied();
            }
        }
        for bank in 0..banks {
            if self.is_busy(bank) && self.queued_count(bank, self.free_at(bank)) != 1 {
                return Err(InvariantViolation::WheelMismatch { bank });
            }
        }
        Ok(())
    }

    /// Checks every structural invariant a reachable state satisfies:
    /// residues bounded by `n_c` (free times at most `now + n_c`), every
    /// busy bank queued once in the expiry-wheel slot of its free time and
    /// no other bank queued, the rotation a valid port index, open rows
    /// and position slots within their bounds, and the incremental hash
    /// and busy-coefficient sum equal to a from-scratch recompute.
    ///
    /// Always compiled; the `sanitize` feature makes the step kernel call
    /// it after every cycle in debug builds.
    ///
    /// # Errors
    /// Returns the first [`InvariantViolation`] found, in the order above.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        for bank in 0..u64::from(self.banks) {
            let residue = self.residue(bank);
            if residue > self.max_residue {
                return Err(InvariantViolation::ResidueOverflow {
                    bank,
                    residue,
                    max: self.max_residue,
                });
            }
        }
        self.check_wheel()?;
        let rotation = self.rotation();
        if rotation >= self.ports.max(1) as usize {
            return Err(InvariantViolation::RotationOutOfRange {
                rotation,
                ports: self.ports,
            });
        }
        for bank in 0..u64::from(self.row_words) {
            if let Some(row) = self.open_row(bank) {
                if row >= self.max_rows {
                    return Err(InvariantViolation::OpenRowOutOfRange {
                        bank,
                        row,
                        rows: self.max_rows,
                    });
                }
            }
        }
        if let Some(bound) = self.slot_bound {
            for slot in 0..self.sig_len as usize {
                let position = self.position(slot);
                if position > bound {
                    return Err(InvariantViolation::PositionOutOfRange {
                        slot,
                        position,
                        bound,
                    });
                }
            }
        }
        let hashes = self.full_hash();
        if self.g_busy != hashes.g_busy {
            return Err(InvariantViolation::HashMismatch {
                incremental: self.g_busy,
                recomputed: hashes.g_busy,
            });
        }
        let recomputed = hashes.combined();
        let incremental = self.hash();
        if incremental != recomputed {
            return Err(InvariantViolation::HashMismatch {
                incremental,
                recomputed,
            });
        }
        Ok(())
    }

    /// The canonical one-line-per-component dump used by divergence
    /// reports: rotation, residues, and (when present) open rows and
    /// position slots.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "rotation={} residues={:?}",
            self.rotation(),
            self.residues_vec()
        );
        if self.row_words > 0 {
            let rows: Vec<Option<u64>> = (0..u64::from(self.banks))
                .map(|b| self.open_row(b))
                .collect();
            let _ = write!(s, " open_rows={rows:?}");
        }
        if self.sig_len > 0 {
            let positions: Vec<u64> = (0..self.sig_len as usize)
                .map(|i| self.position(i))
                .collect();
            let _ = write!(s, " positions={positions:?}");
        }
        s
    }
}

/// The from-scratch hash terms of one state.
struct Hashes {
    res: u64,
    g_busy: u64,
    rot: u64,
    pos: u64,
    row: u64,
}

impl Hashes {
    fn combined(&self) -> u64 {
        self.res ^ self.rot ^ self.pos ^ self.row
    }
}

/// Core equality: same dimensions and same (rotation, residues, open
/// rows, positions). Wait counters, scratch buffers, absolute time and
/// the free times of idle banks are deliberately excluded — they do not
/// influence future behaviour.
impl PartialEq for SimState {
    #[expect(
        clippy::indexing_slicing,
        reason = "every index and range derives from each state's own dimensions, which sized its buffer"
    )]
    fn eq(&self, other: &Self) -> bool {
        if self.banks != other.banks
            || self.ports != other.ports
            || self.sig_len != other.sig_len
            || self.row_words != other.row_words
            || self.buf[0] != other.buf[0]
            || self.buf[self.row_base()..self.wait_base()]
                != other.buf[other.row_base()..other.wait_base()]
        {
            return false;
        }
        let free_end = 1 + self.banks as usize;
        let (a, b) = (&self.buf[1..free_end], &other.buf[1..free_end]);
        // Same clock and same free times (a lockstep pair) settle it
        // without the per-bank residue walk.
        (self.now == other.now && a == b)
            || a.iter()
                .zip(b)
                .all(|(&x, &y)| x.saturating_sub(self.now) == y.saturating_sub(other.now))
    }
}

impl Eq for SimState {}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::Geometry;
    use vecmem_prop::prelude::*;
    use vecmem_prop::TestRng;

    fn config(m: u64, nc: u64, ports: usize) -> SimConfig {
        SimConfig::single_cpu(Geometry::unsectioned(m, nc).unwrap(), ports)
    }

    /// The byte-residue bank state the free-time wheel replaced, kept as
    /// the reference model: one byte per bank, eight banks per word, aged
    /// by a SWAR pass over every word.
    struct ByteResidues {
        words: Vec<u64>,
        just_freed: Vec<u64>,
    }

    impl ByteResidues {
        fn new(banks: u64) -> Self {
            Self {
                words: vec![0; banks.div_ceil(8) as usize],
                just_freed: Vec::new(),
            }
        }

        fn residue(&self, bank: u64) -> u8 {
            (self.words[(bank / 8) as usize] >> ((bank % 8) * 8)) as u8
        }

        fn set_residue(&mut self, bank: u64, value: u8) {
            let (w, shift) = ((bank / 8) as usize, (bank % 8) * 8);
            self.words[w] = (self.words[w] & !(0xFFu64 << shift)) | (u64::from(value) << shift);
        }

        /// End-of-cycle aging: every nonzero residue decreases by one;
        /// banks reaching zero are queued in ascending order.
        fn decrement_residues(&mut self) {
            self.just_freed.clear();
            // SWAR: per byte, bit 7 of `nonzero` is set iff the byte is > 0.
            // `(b & 0x7F) + 0x7F` sets bit 7 iff the low seven bits are nonzero
            // (the carry stays inside the byte); OR-ing the original catches
            // 0x80 itself.
            const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
            const HI: u64 = 0x8080_8080_8080_8080;
            for w in 0..self.words.len() {
                let old = self.words[w];
                if old == 0 {
                    continue;
                }
                let nonzero = (old | ((old & LO7) + LO7)) & HI;
                let new = old - (nonzero >> 7);
                let still = (new | ((new & LO7) + LO7)) & HI;
                let mut freed = nonzero & !still;
                while freed != 0 {
                    let byte = freed.trailing_zeros() / 8;
                    self.just_freed.push(w as u64 * 8 + u64::from(byte));
                    freed &= freed - 1;
                }
                self.words[w] = new;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn free_time_wheel_matches_byte_residues(
            m in 1u64..=200,
            nc in 1u64..=255,
            seed in 0u64..u64::MAX,
        ) {
            let cfg = config(m, nc, 1);
            let mut st = SimState::new(&cfg);
            let mut reference = ByteResidues::new(m);
            let mut rng = TestRng::seed_from_u64(seed);
            for _ in 0..96 {
                // Grant a few free banks, holds in 1..=n_c (a DRAM hit
                // holds for `hit_cycle` in that range).
                for _ in 0..rng.bounded(4) {
                    let bank = rng.bounded(m);
                    if st.is_busy(bank) {
                        continue;
                    }
                    let hold = 1 + rng.bounded(nc);
                    st.occupy(bank, hold);
                    reference.set_residue(bank, hold as u8);
                }
                st.advance_now();
                reference.decrement_residues();
                let mut freed = st.just_freed.clone();
                freed.sort_unstable();
                prop_assert_eq!(&freed, &reference.just_freed);
                for bank in 0..m {
                    prop_assert_eq!(st.residue(bank), reference.residue(bank));
                    prop_assert_eq!(st.is_busy(bank), reference.residue(bank) > 0);
                }
                prop_assert_eq!(st.hash(), st.recompute_hash());
                prop_assert_eq!(st.validate(), Ok(()));
                // Shift invariance: the same canonical residues packed at
                // now = 0 compare and hash equal.
                let packed = SimState::pack(&cfg, &st.residues_vec(), &[], st.rotation());
                prop_assert_eq!(packed.now(), 0);
                prop_assert!(packed == st);
                prop_assert_eq!(packed.hash(), st.hash());
            }
        }
    }

    /// The translation key of a core whose port-0 address is 0, from
    /// scratch: the residue term with every busy bank's open-row word
    /// folded in, the rotation and the position slots.
    fn key_at_anchor_zero(st: &SimState) -> u64 {
        let mut res = 0;
        for bank in 0..u64::from(st.banks) {
            let residue = u64::from(st.residue(bank));
            if residue > 0 {
                let word = st.open_row(bank).map_or(0, |r| r + 1);
                res = add61(res, mul61(coefficient(bank), (residue | word << 8) & P61));
            }
        }
        let mut key = res ^ component(ROT_SEED, 0, st.rotation() as u64);
        for slot in 0..st.signature_slots() {
            key ^= component(POS_SEED, slot as u64, st.position(slot));
        }
        key
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn translated_hash_is_the_hash_of_the_translated_core(
            m in 1u64..=140,
            nc in 1u64..=12,
            ports in 1usize..=4,
            rows in 0u64..=8,
            seed in 0u64..u64::MAX,
        ) {
            // A state aged on its own clock (so the wheel walk starts at a
            // nonzero `now`), with open rows on busy and idle banks under
            // the DRAM model (`rows > 0`) and burst cooldowns in some
            // slots, against copies packed at now = 0: the state
            // translated by `t` on the addresses mod M = m·max(rows, 1),
            // and the state taken relative to its port-0 address.
            let cfg = if rows == 0 {
                config(m, nc, ports)
            } else {
                dram_config(m, nc, ports, rows)
            };
            let modulus = m * rows.max(1);
            let mut rng = TestRng::seed_from_u64(seed);
            let positions: Vec<u64> = (0..ports)
                .map(|_| rng.bounded(3) * modulus + rng.bounded(modulus))
                .collect();
            let mut st = SimState::with_signature_slots(&cfg, ports);
            st.sync_signature(&positions);
            st.set_rotation(rng.bounded(ports as u64) as usize);
            for _ in 0..rng.bounded(40) {
                for _ in 0..rng.bounded(3) {
                    let bank = rng.bounded(m);
                    if !st.is_busy(bank) {
                        st.occupy(bank, 1 + rng.bounded(nc));
                        if rows > 0 {
                            st.set_open_row(bank, rng.bounded(rows));
                        }
                    }
                }
                st.advance_now();
            }
            prop_assert_eq!(st.address_modulus(), modulus);
            let residues = st.residues_vec();
            let open: Vec<Option<u64>> = (0..m).map(|b| st.open_row(b)).collect();
            let translated = |t: u64| {
                let mut moved = vec![0u8; m as usize];
                let mut moved_rows = vec![None; m as usize];
                for b in 0..m {
                    moved[((b + t) % m) as usize] = residues[b as usize];
                    if let Some(r) = open[b as usize] {
                        let address = (b + m * r + t) % modulus;
                        moved_rows[(address % m) as usize] = Some(address / m);
                    }
                }
                let slots: Vec<u64> = positions
                    .iter()
                    .map(|&p| p - p % modulus + (p % modulus + t) % modulus)
                    .collect();
                let mut packed = SimState::pack(&cfg, &moved, &slots, st.rotation());
                if rows > 0 {
                    packed.sync_open_rows(&moved_rows);
                }
                packed
            };
            let anchor = positions[0] % modulus;
            prop_assert_eq!(st.slot_address(0), anchor);
            let canonical = translated((modulus - anchor) % modulus);
            prop_assert_eq!(canonical.slot_address(0), 0);
            let key = key_at_anchor_zero(&canonical);
            prop_assert_eq!(st.translated_hash(), key);
            if rows == 0 {
                prop_assert_eq!(key, canonical.hash());
            }
            let t = rng.bounded(modulus);
            let moved = translated(t);
            prop_assert_eq!(moved.translated_hash(), key);
            prop_assert!(st.translates_to(&moved, t));
            prop_assert!(moved.translates_to(&st, (modulus - t) % modulus));
            if modulus > 1 {
                prop_assert!(!st.translates_to(&moved, (t + 1) % modulus));
            }
            // One changed residue, another rotation or another cooldown is
            // no translate.
            let mut bumped = moved.clone();
            let bank = rng.bounded(m);
            bumped.set_residue(bank, (moved.residue(bank) + 1) % (nc as u8 + 1));
            prop_assert!(!st.translates_to(&bumped, t));
            if ports > 1 {
                let mut rotated = moved.clone();
                rotated.set_rotation((moved.rotation() + 1) % ports);
                prop_assert!(!st.translates_to(&rotated, t));
            }
            let slot = rng.bounded(ports as u64) as usize;
            let mut cooled = moved.clone();
            cooled.set_position(slot, moved.position(slot) + modulus);
            prop_assert!(!st.translates_to(&cooled, t));
            // Another open row is no translate either. On a busy bank it
            // changes the key; on an idle one only the confirmation sees
            // it.
            if rows > 1 {
                let bank = rng.bounded(m);
                let mut reopened = moved.clone();
                let row = moved.open_row(bank).map_or(0, |r| (r + 1) % rows);
                reopened.set_open_row(bank, row);
                prop_assert!(!st.translates_to(&reopened, t));
                if moved.is_busy(bank) {
                    prop_assert!(reopened.translated_hash() != key);
                } else {
                    prop_assert_eq!(reopened.translated_hash(), key);
                }
            }
        }
    }

    #[test]
    fn validate_accepts_fresh_and_catches_violations() {
        let cfg = config(8, 3, 1);
        let mut st = SimState::with_signature_slots(&cfg, 1);
        assert_eq!(st.validate(), Ok(()));
        st.set_residue(2, 5);
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::ResidueOverflow {
                bank: 2,
                residue: 5,
                max: 3,
            })
        );
        st.set_residue(2, 3);
        assert_eq!(st.validate(), Ok(()));
        st.set_slot_bound(Some(8));
        st.set_position(0, 9);
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::PositionOutOfRange {
                slot: 0,
                position: 9,
                bound: 8,
            })
        );
        st.set_position(0, 8);
        assert_eq!(st.validate(), Ok(()));
        st.set_rotation(4);
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::RotationOutOfRange {
                rotation: 4,
                ports: 1,
            })
        );
    }

    #[test]
    fn validate_catches_a_bank_unlinked_from_its_wheel_slot() {
        let cfg = config(8, 4, 1);
        let mut st = SimState::new(&cfg);
        st.occupy(1, 4);
        st.occupy(6, 4);
        st.advance_now();
        st.occupy(3, 2);
        assert_eq!(st.validate(), Ok(()));
        // Corruption: bank 6 dropped from its wheel slot while still busy.
        st.unlink(6);
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::WheelMismatch { bank: 6 })
        );
        let msg = InvariantViolation::WheelMismatch { bank: 6 }.to_string();
        assert!(msg.contains("bank 6"), "{msg}");
    }

    #[test]
    fn validate_catches_a_stale_wheel_entry_and_a_drifted_coefficient_sum() {
        let cfg = config(8, 4, 1);
        let mut st = SimState::new(&cfg);
        st.occupy(5, 2);
        // Bank 5 freed behind the wheel's back: still queued, no longer busy.
        st.buf[SimState::free_index(5)] = 0;
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::WheelMismatch { bank: 5 })
        );
        let mut st = SimState::new(&cfg);
        st.occupy(5, 2);
        st.g_busy = add61(st.g_busy, 1);
        assert!(matches!(
            st.validate(),
            Err(InvariantViolation::HashMismatch { .. })
        ));
    }

    #[test]
    fn residue_packing_roundtrip() {
        let cfg = config(12, 4, 2);
        let mut s = SimState::new(&cfg);
        s.set_residue(0, 3);
        s.set_residue(7, 1);
        s.set_residue(11, 4);
        assert_eq!(s.residue(0), 3);
        assert_eq!(s.residue(7), 1);
        assert_eq!(s.residue(11), 4);
        assert_eq!(s.residue(5), 0);
        assert_eq!(s.residues_vec(), vec![3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4]);
    }

    #[test]
    fn advance_now_ages_and_queues_freed_banks() {
        let cfg = config(12, 4, 2);
        let mut s = SimState::new(&cfg);
        s.set_residue(2, 2);
        s.set_residue(9, 1);
        s.advance_now();
        assert_eq!(s.residue(2), 1);
        assert_eq!(s.residue(9), 0);
        assert_eq!(s.just_freed, vec![9]);
        s.advance_now();
        assert_eq!(s.residue(2), 0);
        assert_eq!(s.just_freed, vec![2]);
        s.advance_now();
        assert!(s.just_freed.is_empty());
        assert_eq!(s.now(), 3);
    }

    #[test]
    fn incremental_hash_matches_recompute() {
        let cfg = config(16, 4, 3);
        let mut s = SimState::with_signature_slots(&cfg, 3);
        assert_eq!(s.hash(), s.recompute_hash());
        s.set_residue(3, 4);
        s.set_residue(8, 2);
        s.set_position(0, 7);
        s.set_position(2, 15);
        s.set_rotation(2);
        assert_eq!(s.hash(), s.recompute_hash());
        s.advance_now();
        assert_eq!(s.hash(), s.recompute_hash());
        s.set_rotation(0);
        s.set_position(0, 0);
        assert_eq!(s.hash(), s.recompute_hash());
    }

    #[test]
    fn equality_ignores_waits_and_time() {
        let cfg = config(8, 2, 2);
        let mut a = SimState::new(&cfg);
        let mut b = SimState::new(&cfg);
        a.bump_wait(PortId(0));
        a.advance_now();
        assert_eq!(a, b);
        b.set_residue(1, 2);
        assert_ne!(a, b);
        a.set_residue(1, 2);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn pack_matches_stepwise_construction() {
        let cfg = config(8, 3, 2);
        let packed = SimState::pack(&cfg, &[0, 2, 0, 0, 1, 0, 0, 0], &[4, 6], 1);
        let mut built = SimState::with_signature_slots(&cfg, 2);
        built.set_residue(1, 2);
        built.set_residue(4, 1);
        built.set_position(0, 4);
        built.set_position(1, 6);
        built.set_rotation(1);
        assert_eq!(packed, built);
        assert_eq!(packed.hash(), built.hash());
        assert_eq!(packed.hash(), packed.recompute_hash());
    }

    #[test]
    fn repack_on_an_advancing_clock_keeps_aging_banks_in_place() {
        let cfg = config(8, 4, 1);
        let mut lifted = SimState::pack(&cfg, &[0, 4, 0, 2, 0, 0, 0, 0], &[], 0);
        lifted.advance_now();
        let free_times = (lifted.free_at(1), lifted.free_at(3));
        lifted.repack(&[3, 3, 0, 1, 0, 0, 0, 0], &[], 0);
        assert_eq!((lifted.free_at(1), lifted.free_at(3)), free_times);
        assert_eq!(lifted.residues_vec(), vec![3, 3, 0, 1, 0, 0, 0, 0]);
        assert_eq!(lifted.validate(), Ok(()));
        let fresh = SimState::pack(&cfg, &[3, 3, 0, 1, 0, 0, 0, 0], &[], 0);
        assert_eq!(lifted, fresh);
        assert_eq!(lifted.hash(), fresh.hash());
    }

    #[test]
    fn render_names_all_core_components() {
        let cfg = config(4, 2, 1);
        let s = SimState::pack(&cfg, &[0, 2, 0, 0], &[3], 0);
        let dump = s.render();
        assert!(dump.contains("rotation=0"), "{dump}");
        assert!(dump.contains("residues=[0, 2, 0, 0]"), "{dump}");
        assert!(dump.contains("positions=[3]"), "{dump}");
    }

    #[test]
    #[should_panic(expected = "u8 residue encoding")]
    fn oversized_bank_cycle_rejected() {
        let cfg = config(4, 300, 1);
        let _ = SimState::new(&cfg);
    }

    fn dram_config(m: u64, nc: u64, ports: usize, rows: u64) -> SimConfig {
        config(m, nc, ports).with_bank_model(crate::config::BankModel::Dram { hit_cycle: 1, rows })
    }

    #[test]
    fn uniform_model_packs_no_row_words() {
        let cfg = config(8, 3, 2);
        let s = SimState::with_signature_slots(&cfg, 2);
        assert_eq!(s.open_row(3), None);
        // Same dimensions with rows enabled: a distinct state kind.
        let d = SimState::with_signature_slots(&dram_config(8, 3, 2, 4), 2);
        assert_ne!(s, d);
    }

    #[test]
    fn open_rows_hash_and_compare() {
        let cfg = dram_config(8, 3, 1, 4);
        let mut a = SimState::new(&cfg);
        let b = SimState::new(&cfg);
        assert_eq!(a, b);
        a.set_open_row(2, 3);
        assert_eq!(a.open_row(2), Some(3));
        assert_eq!(a.open_row(1), None);
        assert_ne!(a, b);
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash(), a.recompute_hash());
        a.sync_open_rows(&[None; 8]);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn validate_catches_out_of_range_open_row() {
        let cfg = dram_config(8, 3, 1, 4);
        let mut s = SimState::new(&cfg);
        s.set_open_row(5, 3);
        assert_eq!(s.validate(), Ok(()));
        s.set_open_row(5, 4);
        assert_eq!(
            s.validate(),
            Err(InvariantViolation::OpenRowOutOfRange {
                bank: 5,
                row: 4,
                rows: 4,
            })
        );
        let msg = InvariantViolation::OpenRowOutOfRange {
            bank: 5,
            row: 4,
            rows: 4,
        }
        .to_string();
        assert!(msg.contains("open row 4"), "{msg}");
    }

    #[test]
    fn render_includes_open_rows_under_dram() {
        let cfg = dram_config(4, 2, 1, 4);
        let mut s = SimState::new(&cfg);
        s.set_open_row(1, 2);
        let dump = s.render();
        assert!(dump.contains("open_rows="), "{dump}");
        assert!(dump.contains("Some(2)"), "{dump}");
    }
}
