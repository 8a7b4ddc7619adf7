//! Zero-overhead observation hooks for the simulation engine.
//!
//! The [`step`](crate::step::step) kernel invokes a [`SimObserver`] at
//! every interesting point of a clock period: before arbitration, on every
//! grant and delay, on bank busy/free transitions, and at the end of the
//! cycle. The observer is a *generic* parameter, so the hook monomorphises
//! away entirely for the default [`NoopObserver`] — an unobserved step
//! compiles to exactly the code it would have without the hook (the no-op
//! callbacks inline to nothing and the `ENABLED`-gated bookkeeping folds
//! to dead code). Instrumentation therefore costs nothing unless a real
//! observer is attached.
//!
//! Rich observers (metrics registries, structured event logs, exporters)
//! live in the `vecmem-obs` crate; this module defines only the contract
//! the engine needs.

use crate::request::{ConflictKind, PortId, Request};

/// Callbacks invoked by the engine during an observed run.
///
/// All callbacks have empty default bodies: an observer implements only
/// what it needs. `cycle` is always the engine's current clock period.
///
/// Implementations that are pure sinks should leave [`ENABLED`] at `true`;
/// it exists so the no-op observer can turn off the small amount of
/// per-cycle bookkeeping (the ordering of bank-free transitions) that is
/// done *for* the callbacks rather than in them.
///
/// [`ENABLED`]: SimObserver::ENABLED
pub trait SimObserver {
    /// Whether the engine should compute observer-only data at all. The
    /// engine wraps its observation bookkeeping in `if O::ENABLED`, which
    /// the compiler removes when this is `false`.
    const ENABLED: bool = true;

    /// All pending requests of this clock period, before arbitration.
    /// `rotation` is the current cyclic-priority offset.
    fn on_arbitration(&mut self, cycle: u64, rotation: usize, requests: &[(PortId, Request)]) {
        let _ = (cycle, rotation, requests);
    }

    /// `port` was granted `bank`, after waiting `wait` delayed clock
    /// periods; the bank stays busy for `hold` periods (`n_c`, or the DRAM
    /// model's `hit_cycle` on an open-row hit).
    fn on_grant(&mut self, cycle: u64, port: PortId, bank: u64, wait: u64, hold: u64) {
        let _ = (cycle, port, bank, wait, hold);
    }

    /// `port`'s request for `bank` was delayed by a conflict of `kind`.
    fn on_delay(&mut self, cycle: u64, port: PortId, bank: u64, kind: ConflictKind) {
        let _ = (cycle, port, bank, kind);
    }

    /// `bank` transitioned to busy (`busy = true`, at a grant) or back to
    /// free (`busy = false`, `n_c` periods later).
    fn on_bank_busy(&mut self, cycle: u64, bank: u64, busy: bool) {
        let _ = (cycle, bank, busy);
    }

    /// The clock period is over: `grants` requests were granted this cycle.
    fn on_cycle_end(&mut self, cycle: u64, grants: u32) {
        let _ = (cycle, grants);
    }
}

/// The default observer: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Mutable references observe on behalf of the referee, so call sites can
/// keep ownership of an observer across engine calls.
impl<O: SimObserver> SimObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on_arbitration(&mut self, cycle: u64, rotation: usize, requests: &[(PortId, Request)]) {
        (**self).on_arbitration(cycle, rotation, requests);
    }
    fn on_grant(&mut self, cycle: u64, port: PortId, bank: u64, wait: u64, hold: u64) {
        (**self).on_grant(cycle, port, bank, wait, hold);
    }
    fn on_delay(&mut self, cycle: u64, port: PortId, bank: u64, kind: ConflictKind) {
        (**self).on_delay(cycle, port, bank, kind);
    }
    fn on_bank_busy(&mut self, cycle: u64, bank: u64, busy: bool) {
        (**self).on_bank_busy(cycle, bank, busy);
    }
    fn on_cycle_end(&mut self, cycle: u64, grants: u32) {
        (**self).on_cycle_end(cycle, grants);
    }
}

/// Fans one engine run out to two observers (nest for more). `ENABLED`
/// is the OR of the parts, and each part only sees events if it is itself
/// enabled, so `Tee<MetricsObserver, NoopObserver>` still skips the noop.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: SimObserver, B: SimObserver> SimObserver for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_arbitration(&mut self, cycle: u64, rotation: usize, requests: &[(PortId, Request)]) {
        if A::ENABLED {
            self.0.on_arbitration(cycle, rotation, requests);
        }
        if B::ENABLED {
            self.1.on_arbitration(cycle, rotation, requests);
        }
    }
    fn on_grant(&mut self, cycle: u64, port: PortId, bank: u64, wait: u64, hold: u64) {
        if A::ENABLED {
            self.0.on_grant(cycle, port, bank, wait, hold);
        }
        if B::ENABLED {
            self.1.on_grant(cycle, port, bank, wait, hold);
        }
    }
    fn on_delay(&mut self, cycle: u64, port: PortId, bank: u64, kind: ConflictKind) {
        if A::ENABLED {
            self.0.on_delay(cycle, port, bank, kind);
        }
        if B::ENABLED {
            self.1.on_delay(cycle, port, bank, kind);
        }
    }
    fn on_bank_busy(&mut self, cycle: u64, bank: u64, busy: bool) {
        if A::ENABLED {
            self.0.on_bank_busy(cycle, bank, busy);
        }
        if B::ENABLED {
            self.1.on_bank_busy(cycle, bank, busy);
        }
    }
    fn on_cycle_end(&mut self, cycle: u64, grants: u32) {
        if A::ENABLED {
            self.0.on_cycle_end(cycle, grants);
        }
        if B::ENABLED {
            self.1.on_cycle_end(cycle, grants);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        grants: u64,
        delays: u64,
        cycles: u64,
        busy_flips: u64,
        arbitrations: u64,
    }

    impl SimObserver for Counter {
        fn on_arbitration(&mut self, _: u64, _: usize, _: &[(PortId, Request)]) {
            self.arbitrations += 1;
        }
        fn on_grant(&mut self, _: u64, _: PortId, _: u64, _: u64, _: u64) {
            self.grants += 1;
        }
        fn on_delay(&mut self, _: u64, _: PortId, _: u64, _: ConflictKind) {
            self.delays += 1;
        }
        fn on_bank_busy(&mut self, _: u64, _: u64, _: bool) {
            self.busy_flips += 1;
        }
        fn on_cycle_end(&mut self, _: u64, _: u32) {
            self.cycles += 1;
        }
    }

    #[test]
    fn noop_is_disabled() {
        const { assert!(!NoopObserver::ENABLED) };
        const { assert!(Counter::ENABLED) };
        const { assert!(<Tee<Counter, NoopObserver>>::ENABLED) };
        const { assert!(!<Tee<NoopObserver, NoopObserver>>::ENABLED) };
    }

    #[test]
    fn tee_fans_out_and_refs_forward() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.on_grant(0, PortId(0), 3, 0, 4);
            tee.on_delay(1, PortId(1), 3, ConflictKind::Bank);
            tee.on_bank_busy(0, 3, true);
            tee.on_cycle_end(0, 1);
            tee.on_arbitration(1, 0, &[]);
        }
        for c in [&a, &b] {
            assert_eq!(c.grants, 1);
            assert_eq!(c.delays, 1);
            assert_eq!(c.busy_flips, 1);
            assert_eq!(c.cycles, 1);
            assert_eq!(c.arbitrations, 1);
        }
    }
}
