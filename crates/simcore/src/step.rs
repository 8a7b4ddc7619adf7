//! The one step kernel: simulate a single clock period.
//!
//! Everything that advances the memory model by one cycle — the engine,
//! the steady-state detector, the differential oracle — funnels through
//! [`step`]. The kernel owns the canonical event order of a clock period:
//!
//! 1. report the busy→free transitions queued by the previous cycle's
//!    aging pass, in ascending bank order;
//! 2. collect each port's pending request (ascending port order);
//! 3. observer: [`on_arbitration`](crate::observe::SimObserver::on_arbitration);
//! 4. arbitrate ([`arbitrate_into`]) against the banks busy now (free
//!    time after the current clock period);
//! 5. observer, in input order:
//!    [`on_delay`](crate::observe::SimObserver::on_delay) for every
//!    delayed request, so observers see each delay before any grant;
//! 6. one pass over the requests in input order, recording each port's
//!    [`PortEvent`] into [`SimState::outcomes`]: a delay counts its
//!    conflict and bumps the port's wait counter (the event carries the
//!    running wait); a grant takes the port's completed wait (zeroing the
//!    counter), marks the bank busy (sets its free time and queues it on
//!    the expiry wheel) — `n_c` periods under the uniform bank model;
//!    under the DRAM model `hit_cycle` on an open-row hit and `n_c` on a
//!    miss, which opens the accessed row —, calls
//!    [`on_grant`](crate::observe::SimObserver::on_grant) and
//!    [`on_bank_busy`](crate::observe::SimObserver::on_bank_busy), and
//!    advances the workload; then the workload's end-of-cycle
//!    [`tick`](crate::workload::Workload::tick), once, after all grants;
//! 7. observer: [`on_cycle_end`](crate::observe::SimObserver::on_cycle_end)
//!    with the grant count;
//! 8. under cyclic priority, advance the rotation if the cycle was
//!    contested (a section or simultaneous-bank delay occurred);
//! 9. advance the clock ([`SimState::advance_now`]): pop the expiry-wheel
//!    slot of the new period, queueing its banks as freed and dropping
//!    their residue-hash coefficients. Busy banks age through the clock
//!    alone, so the pass costs O(banks freeing now), independent of the
//!    bank count.
//!
//! The kernel is allocation-free: scratch vectors live in the
//! [`SimState`] and are reused cycle after cycle
//! (`crates/oracle/tests/alloc_counts.rs` counts every allocation of
//! warmed-up steps and requires none).

// Hot-path panic policy (TESTING.md, "Hot-path rules"): every index,
// integer division and `assert!`-family macro outside tests names the
// invariant that rules its panic out in an `#[expect]`; `unreachable!`,
// `todo!` and `unimplemented!` are denied like the crate-wide `panic!`.
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

use crate::arbiter::arbitrate_into;
use crate::config::{PriorityRule, SimConfig};
use crate::observe::SimObserver;
use crate::request::{ConflictKind, PortId, PortOutcome};
use crate::state::{PortEvent, SimState};
use crate::stats::ConflictCounts;
use crate::workload::Workload;

/// What one simulated clock period produced, in aggregate. Per-port detail
/// is available from [`SimState::outcomes`] until the next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleEvents {
    /// Requests granted this cycle.
    pub grants: u32,
    /// Delays recorded this cycle, by conflict kind.
    pub conflicts: ConflictCounts,
    /// Whether priority arbitration was exercised (a section or
    /// simultaneous-bank conflict occurred) — the condition under which
    /// cyclic priority rotates.
    pub contested: bool,
}

/// Simulates one clock period of `config`'s memory system.
///
/// Pure with respect to its inputs: the entire evolving state lives in
/// `state` (and in the workload, whose observable part the caller mirrors
/// into the state's position slots when it needs recurrence detection).
///
/// # Panics
/// If the workload presents a request for a bank outside the geometry.
pub fn step<W: Workload + ?Sized, O: SimObserver>(
    config: &SimConfig,
    state: &mut SimState,
    workload: &mut W,
    observer: &mut O,
) -> CycleEvents {
    let now = state.now();
    let banks = u64::from(state.banks());

    // 1. Busy→free transitions queued by the previous cycle's aging pass.
    // The wheel yields them in grant order; observers see bank order.
    if O::ENABLED {
        state.just_freed.sort_unstable();
        for &bank in &state.just_freed {
            observer.on_bank_busy(now, bank, false);
        }
    }

    // 2. Collect pending requests, ascending port order.
    let mut pending = std::mem::take(&mut state.pending);
    pending.clear();
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented \"# Panics\" precondition: an out-of-geometry bank is a workload bug"
    )]
    for p in 0..config.num_ports() {
        let port = PortId(p);
        if let Some(req) = workload.pending(port, now) {
            assert!(
                req.bank < banks,
                "workload requested bank {} of {banks}",
                req.bank
            );
            pending.push((port, req));
        }
    }

    // 3–4. Arbitrate.
    if O::ENABLED {
        observer.on_arbitration(now, state.rotation(), &pending);
    }
    let mut kinds = std::mem::take(&mut state.kinds);
    arbitrate_into(
        config,
        state.rotation(),
        |b| state.is_busy(b),
        &pending,
        &mut kinds,
    );

    // 5. Observers see every delay, in input order, before any grant.
    if O::ENABLED {
        for (&(port, req), &outcome) in pending.iter().zip(&kinds) {
            if let PortOutcome::Delayed(kind) = outcome {
                observer.on_delay(now, port, req.bank, kind);
            }
        }
    }

    // 6. One pass in input order. A delayed port counts its conflict and
    // reports its running wait (including this cycle); a granted port
    // takes its completed wait, holds its bank and advances the workload.
    // The hold time is the geometry's n_c under the uniform bank model;
    // the DRAM model charges only `hit_cycle` when the request hits the
    // bank's open row, and opens the accessed row otherwise.
    let mut conflicts = ConflictCounts::default();
    let mut contested = false;
    let mut grants = 0u32;
    let miss_hold = config.geometry.bank_cycle();
    let mut outcomes = std::mem::take(&mut state.outcomes);
    outcomes.clear();
    for (&(port, req), &outcome) in pending.iter().zip(&kinds) {
        let wait = match outcome {
            PortOutcome::Delayed(kind) => {
                conflicts.record(kind);
                contested |= kind != ConflictKind::Bank;
                state.bump_wait(port)
            }
            PortOutcome::Granted => {
                grants += 1;
                let wait = state.take_wait(port);
                #[expect(
                    clippy::disallowed_macros,
                    reason = "debug_assert! only: compiled out of release builds"
                )]
                let hold = match config.bank_model {
                    crate::config::BankModel::Uniform => miss_hold,
                    crate::config::BankModel::Dram { hit_cycle, rows } => {
                        debug_assert!(req.row < rows, "row {} of {rows}", req.row);
                        let hit = state.open_row(req.bank) == Some(req.row);
                        state.set_open_row(req.bank, req.row);
                        if hit {
                            hit_cycle
                        } else {
                            miss_hold
                        }
                    }
                };
                state.occupy(req.bank, hold);
                if O::ENABLED {
                    observer.on_grant(now, port, req.bank, wait, hold);
                    observer.on_bank_busy(now, req.bank, true);
                }
                workload.granted(port, now);
                wait
            }
        };
        outcomes.push(PortEvent {
            port,
            request: req,
            outcome,
            wait,
        });
    }
    state.outcomes = outcomes;

    // 6b. End-of-cycle workload aging (burst cooldowns and the like),
    // strictly after every grant of this period.
    workload.tick(now);

    // 7. End of cycle.
    if O::ENABLED {
        observer.on_cycle_end(now, grants);
    }

    // 8. Cyclic priority rotates only when arbitration was exercised.
    if config.priority == PriorityRule::Cyclic && contested {
        let n = config.num_ports().max(1);
        state.set_rotation((state.rotation() + 1) % n);
    }

    // 9. Advance the clock: the whole aging pass.
    state.pending = pending;
    state.kinds = kinds;
    state.advance_now();

    // 10. Sanitizer: with the `sanitize` feature, debug builds check every
    // structural invariant after each cycle and abort at the first
    // violating one.
    #[cfg(feature = "sanitize")]
    if cfg!(debug_assertions) {
        #[expect(
            clippy::panic,
            reason = "the sanitizer's whole job is to abort loudly at the violating cycle"
        )]
        if let Err(violation) = state.validate() {
            panic!("vecmem sanitize: cycle {now}: {violation}");
        }
    }

    CycleEvents {
        grants,
        conflicts,
        contested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NoopObserver;
    use crate::request::Request;
    use vecmem_analytic::Geometry;

    /// Every port requests a fixed bank forever.
    #[derive(Clone)]
    struct FixedBanks(Vec<u64>);

    impl Workload for FixedBanks {
        fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
            self.0.get(port.0).map(|&bank| Request::to_bank(bank))
        }
        fn granted(&mut self, _port: PortId, _now: u64) {}
        fn is_finished(&self) -> bool {
            false
        }
    }

    #[test]
    fn single_stream_holds_bank_for_bank_cycle() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(8, 3).unwrap(), 1);
        let mut st = SimState::new(&cfg);
        let mut w = FixedBanks(vec![2]);
        // Cycle 0: grant, bank 2 held for nc = 3 → residue 2 after aging.
        let ev = step(&cfg, &mut st, &mut w, &mut NoopObserver);
        assert_eq!(ev.grants, 1);
        assert_eq!(st.residue(2), 2);
        assert_eq!(st.outcomes().len(), 1);
        assert_eq!(st.outcomes()[0].outcome, PortOutcome::Granted);
        // Cycles 1–2: bank conflict against its own residue.
        let ev = step(&cfg, &mut st, &mut w, &mut NoopObserver);
        assert_eq!(ev.grants, 0);
        assert_eq!(ev.conflicts.bank, 1);
        assert_eq!(st.outcomes()[0].wait, 1);
        let ev = step(&cfg, &mut st, &mut w, &mut NoopObserver);
        assert_eq!(ev.conflicts.bank, 1);
        // Cycle 3: free again, granted with completed wait 2.
        let ev = step(&cfg, &mut st, &mut w, &mut NoopObserver);
        assert_eq!(ev.grants, 1);
        assert_eq!(st.outcomes()[0].wait, 2);
        assert_eq!(st.wait(PortId(0)), 0);
        assert_eq!(st.now(), 4);
    }

    /// Every observer callback of a cycle, in the order the kernel made it.
    #[derive(Debug, PartialEq, Eq)]
    enum Callback {
        Arbitration(Vec<(PortId, Request)>),
        Delay(PortId, u64, ConflictKind),
        Grant(PortId, u64, u64, u64),
        BankBusy(u64, bool),
        CycleEnd(u32),
    }

    #[derive(Default)]
    struct Recorder(Vec<Callback>);

    impl SimObserver for Recorder {
        fn on_arbitration(&mut self, _: u64, _: usize, requests: &[(PortId, Request)]) {
            self.0.push(Callback::Arbitration(requests.to_vec()));
        }
        fn on_grant(&mut self, _: u64, port: PortId, bank: u64, wait: u64, hold: u64) {
            self.0.push(Callback::Grant(port, bank, wait, hold));
        }
        fn on_delay(&mut self, _: u64, port: PortId, bank: u64, kind: ConflictKind) {
            self.0.push(Callback::Delay(port, bank, kind));
        }
        fn on_bank_busy(&mut self, _: u64, bank: u64, busy: bool) {
            self.0.push(Callback::BankBusy(bank, busy));
        }
        fn on_cycle_end(&mut self, _: u64, grants: u32) {
            self.0.push(Callback::CycleEnd(grants));
        }
    }

    #[test]
    fn mixed_cycle_keeps_callback_order_and_waits() {
        // Four ports on four CPUs, m = 8, n_c = 3, bank 1 busy for one
        // more period. Port 0 meets the busy bank, ports 1 and 2 collide
        // on bank 4 (port 1 ranks first), port 3 has bank 6 to itself.
        // Port 1 has waited two periods already, port 2 one.
        let cfg = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 3).unwrap(), 4);
        let mut st = SimState::new(&cfg);
        st.set_residue(1, 1);
        st.bump_wait(PortId(1));
        st.bump_wait(PortId(1));
        st.bump_wait(PortId(2));
        let mut w = FixedBanks(vec![1, 4, 4, 6]);
        let mut rec = Recorder::default();
        let ev = step(&cfg, &mut st, &mut w, &mut rec);

        let requests = [1, 4, 4, 6].map(Request::to_bank);
        assert_eq!(
            rec.0,
            vec![
                Callback::Arbitration((0..4).map(PortId).zip(requests).collect()),
                Callback::Delay(PortId(0), 1, ConflictKind::Bank),
                Callback::Delay(PortId(2), 4, ConflictKind::SimultaneousBank),
                Callback::Grant(PortId(1), 4, 2, 3),
                Callback::BankBusy(4, true),
                Callback::Grant(PortId(3), 6, 0, 3),
                Callback::BankBusy(6, true),
                Callback::CycleEnd(2),
            ]
        );
        assert_eq!(ev.grants, 2);
        assert_eq!((ev.conflicts.bank, ev.conflicts.simultaneous), (1, 1));
        assert!(ev.contested);

        // Delayed ports report their running wait, this period included;
        // granted ports their completed wait, which the grant zeroes.
        let waits: Vec<(PortOutcome, u64)> =
            st.outcomes().iter().map(|e| (e.outcome, e.wait)).collect();
        assert_eq!(
            waits,
            vec![
                (PortOutcome::Delayed(ConflictKind::Bank), 1),
                (PortOutcome::Granted, 2),
                (PortOutcome::Delayed(ConflictKind::SimultaneousBank), 2),
                (PortOutcome::Granted, 0),
            ]
        );
        let after: Vec<u64> = (0..4).map(|p| st.wait(PortId(p))).collect();
        assert_eq!(after, vec![1, 0, 2, 0]);
    }

    #[test]
    fn contested_cycle_rotates_cyclic_priority() {
        let cfg = SimConfig::one_port_per_cpu(Geometry::unsectioned(8, 2).unwrap(), 2)
            .with_priority(PriorityRule::Cyclic);
        let mut st = SimState::new(&cfg);
        let mut w = FixedBanks(vec![4, 4]);
        let ev = step(&cfg, &mut st, &mut w, &mut NoopObserver);
        assert!(ev.contested);
        assert_eq!(ev.conflicts.simultaneous, 1);
        assert_eq!(st.rotation(), 1);
        // Pure bank conflicts do not rotate.
        let ev = step(&cfg, &mut st, &mut w, &mut NoopObserver);
        assert!(!ev.contested);
        assert_eq!(ev.conflicts.bank, 2);
        assert_eq!(st.rotation(), 1);
    }

    #[test]
    fn hash_stays_consistent_across_steps() {
        let cfg = SimConfig::one_port_per_cpu(Geometry::unsectioned(13, 4).unwrap(), 2);
        let mut st = SimState::new(&cfg);
        let mut w = FixedBanks(vec![3, 3]);
        for _ in 0..25 {
            step(&cfg, &mut st, &mut w, &mut NoopObserver);
            assert_eq!(st.hash(), st.recompute_hash());
        }
    }

    #[test]
    #[should_panic(expected = "requested bank")]
    fn out_of_range_bank_rejected() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(4, 2).unwrap(), 1);
        let mut st = SimState::new(&cfg);
        let mut w = FixedBanks(vec![9]);
        step(&cfg, &mut st, &mut w, &mut NoopObserver);
    }
}
