//! The one step kernel: simulate a single clock period.
//!
//! vecmem-lint: alloc-free
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
//! 5. delays, in input order: count the conflict, bump the port's wait
//!    counter, [`on_delay`](crate::observe::SimObserver::on_delay);
//! 6. record the per-port [`PortEvent`]s (input order) into
//!    [`SimState::outcomes`];
//! 7. grants, in input order: mark the bank busy (set its free time and
//!    queue it on the expiry wheel) — `n_c` periods under
//!    the uniform bank model; under the DRAM model `hit_cycle` on an
//!    open-row hit and `n_c` on a miss, which opens the accessed row —
//!    [`on_grant`](crate::observe::SimObserver::on_grant) and
//!    [`on_bank_busy`](crate::observe::SimObserver::on_bank_busy), reset
//!    the wait counter, advance the workload; then the workload's
//!    end-of-cycle [`tick`](crate::workload::Workload::tick), once,
//!    after all grants;
//! 8. observer: [`on_cycle_end`](crate::observe::SimObserver::on_cycle_end)
//!    with the grant count and the number of banks busy *during* the cycle;
//! 9. under cyclic priority, advance the rotation if the cycle was
//!    contested (a section or simultaneous-bank delay occurred);
//! 10. advance the clock ([`SimState::advance_now`]): pop the expiry-wheel
//!     slot of the new period, queueing its banks as freed and dropping
//!     their residue-hash coefficients. Busy banks age through the clock
//!     alone, so the pass costs O(banks freeing now), independent of the
//!     bank count.
//!
//! The kernel is allocation-free: scratch vectors live in the
//! [`SimState`] and are reused cycle after cycle.

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
// vecmem-lint: hot-path
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
    for p in 0..config.num_ports() {
        let port = PortId(p);
        if let Some(req) = workload.pending(port, now) {
            // vecmem-lint: allow(L7) -- the documented "# Panics" precondition: an out-of-geometry bank is a workload bug
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

    // 5. Delays.
    let mut conflicts = ConflictCounts::default();
    let mut contested = false;
    for (i, &(port, req)) in pending.iter().enumerate() {
        // vecmem-lint: allow(L7) -- kinds was sized from pending by arbitrate_into this same cycle
        if let PortOutcome::Delayed(kind) = kinds[i] {
            conflicts.record(kind);
            contested |= kind != ConflictKind::Bank;
            state.bump_wait(port);
            if O::ENABLED {
                observer.on_delay(now, port, req.bank, kind);
            }
        }
    }

    // 6. Per-port events, input order. A delayed port reports its running
    // wait (including this cycle); a granted port its completed wait.
    let mut outcomes = std::mem::take(&mut state.outcomes);
    outcomes.clear();
    for (i, &(port, req)) in pending.iter().enumerate() {
        outcomes.push(PortEvent {
            port,
            request: req,
            // vecmem-lint: allow(L7) -- kinds was sized from pending by arbitrate_into this same cycle
            outcome: kinds[i],
            wait: state.wait(port),
        });
    }
    state.outcomes = outcomes;

    // 7. Grants. The hold time is the geometry's n_c under the uniform
    // bank model; the DRAM model charges only `hit_cycle` when the request
    // hits the bank's open row, and opens the accessed row otherwise.
    let mut grants = 0u32;
    let miss_hold = config.geometry.bank_cycle();
    for (i, &(port, req)) in pending.iter().enumerate() {
        // vecmem-lint: allow(L7) -- kinds was sized from pending by arbitrate_into this same cycle
        if kinds[i] == PortOutcome::Granted {
            grants += 1;
            let wait = state.wait(port);
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
            state.reset_wait(port);
            workload.granted(port, now);
        }
    }

    // 7b. End-of-cycle workload aging (burst cooldowns and the like),
    // strictly after every grant of this period.
    workload.tick(now);

    // 8. End of cycle: banks busy *during* this period (grants included,
    // aging not yet applied).
    if O::ENABLED {
        observer.on_cycle_end(now, grants, state.busy_banks());
    }

    // 9. Cyclic priority rotates only when arbitration was exercised.
    if config.priority == PriorityRule::Cyclic && contested {
        let n = config.num_ports().max(1);
        state.set_rotation((state.rotation() + 1) % n);
    }

    // 10. Advance the clock: the whole aging pass.
    state.pending = pending;
    state.kinds = kinds;
    state.advance_now();

    // 11. Sanitizer: with the `sanitize` feature, debug builds check every
    // structural invariant after each cycle and abort at the first
    // violating one.
    #[cfg(feature = "sanitize")]
    if cfg!(debug_assertions) {
        #[expect(
            clippy::panic,
            reason = "the sanitizer's whole job is to abort loudly at the violating cycle"
        )]
        if let Err(violation) = state.validate() {
            // vecmem-lint: allow(L7) -- the sanitizer aborts at the violating cycle by design
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
