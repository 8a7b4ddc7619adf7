//! `RefEngine`: a deliberately naive, obviously-correct reference
//! simulator written straight from the paper's conflict rules.
//!
//! The implementation is an independent second version of the memory
//! system, sharing only the `core` geometry/stream types with the
//! optimized [`vecmem_banksim::Engine`] — no arbiter, workload or
//! statistics code is reused. Everything is spelled out in the most
//! literal form the paper allows:
//!
//! * each bank carries a **busy countdown** of remaining clock periods
//!   (`n_c` at the grant, decremented at the start of every cycle);
//! * each port holds one strided stream and retries its current element
//!   **in order** until granted (paper §II: a delayed request stays at the
//!   head of its port);
//! * arbitration walks the ports **in explicit priority order** and
//!   greedily claims access paths and banks: a request to a busy bank is a
//!   *bank conflict*; a request whose CPU already spent its path to the
//!   bank's section this cycle is a *section conflict*; a request to an
//!   inactive bank already claimed by another CPU this cycle is a
//!   *simultaneous bank conflict* (paper §II's taxonomy).
//!
//! The engine is naive in its logic, not in how it allocates. Its
//! per-cycle lists (the service order, the claimed paths and banks, the
//! per-port steps) are owned by the engine and emptied at the start of
//! every cycle, so a warmed-up cycle allocates nothing. All stepping goes
//! through [`RefEngine::advance`]; `step`, `step_ports` and `run` wrap it.
//!
//! The optimized arbiter also decides in rank order, but from the
//! outcomes of the better-ranked requests; this walk keeps explicit sets
//! of claimed paths and banks instead. The two agree because both visit
//! ports best-rank first: every path and every bank is claimed by the
//! best-ranked eligible port, and the busy-bank check precedes the path
//! check.
//!
//! Generalized access patterns are recomputed naively too: each port holds
//! a [`RefPattern`] and the engine re-derives the `k`-th bank (and row)
//! from scratch with `u128` arithmetic each cycle — no packed slots, no
//! reduced positions. Burst cooldowns are absolute cycle stamps
//! (`next_req_cycle = grant cycle + burst`), and the DRAM bank model is a
//! plain `Vec<Option<u64>>` of open rows consulted before each grant's
//! hold time is chosen. Only the *vocabulary* spec types
//! ([`PatternSpec`], [`IndexPattern`]) are shared with the optimized
//! stack; every state-keeping decision is made independently.

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

use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::pattern::{IndexPattern, PatternSpec};

/// Priority rule mirrored from the paper (§II): fixed port order, or a
/// rotating order that advances whenever the priority was exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefPriority {
    /// Port 0 always holds the highest priority.
    Fixed,
    /// Rotating priority: the offset advances after every contested cycle
    /// (a cycle in which some port lost a section or simultaneous-bank
    /// arbitration), passing the top slot on.
    Cyclic,
}

/// A seeded arbiter fault, compiled in only with the `bug_injection`
/// feature. Used by the golden tests to prove the differential harness
/// catches real divergences.
#[cfg(feature = "bug_injection")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// The priority comparison is inverted: the *lowest*-priority port wins
    /// every contested arbitration.
    InvertedPriority,
    /// The cyclic rotation never advances, silently degrading the rotating
    /// rule to a fixed one.
    StuckRotation,
    /// A grant to a bank freed this very cycle re-arms it for `n_c + 2`
    /// clock periods instead of `n_c`, overflowing the residue invariant
    /// (`residue <= n_c`). Unlike the arbitration bugs this corrupts the
    /// *state*, so the `sanitize` feature pins it to the violating cycle.
    ResidueOverflow,
}

/// Bank timing model mirrored independently from the optimized stack's
/// `BankModel`: uniform `n_c` holds, or DRAM-flavoured open-row hit/miss
/// asymmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefBankModel {
    /// Every grant holds the bank for `n_c` clock periods.
    Uniform,
    /// A grant to the bank's open row holds it `hit_cycle` periods; any
    /// other grant holds `n_c` and opens the accessed row.
    Dram {
        /// Hold time of an open-row hit.
        hit_cycle: u64,
        /// Rows per bank (row addresses are reduced modulo this).
        rows: u64,
    },
}

/// Static description of the reference system: geometry, the CPU each port
/// belongs to, the priority rule, and the bank timing model.
#[derive(Debug, Clone)]
pub struct RefConfig {
    /// Memory geometry (banks, sections, bank cycle time).
    pub geometry: Geometry,
    /// `port_cpus[i]` is the CPU owning port `i`.
    pub port_cpus: Vec<usize>,
    /// Arbitration priority rule.
    pub priority: RefPriority,
    /// Bank timing model.
    pub bank_model: RefBankModel,
}

impl RefConfig {
    /// All ports on one CPU (section conflicts possible between them).
    #[must_use]
    pub fn single_cpu(geometry: Geometry, ports: usize, priority: RefPriority) -> Self {
        Self {
            geometry,
            port_cpus: vec![0; ports],
            priority,
            bank_model: RefBankModel::Uniform,
        }
    }

    /// One port per CPU (the multiprocessor setting of §III-B).
    #[must_use]
    pub fn one_port_per_cpu(geometry: Geometry, ports: usize, priority: RefPriority) -> Self {
        Self {
            geometry,
            port_cpus: (0..ports).collect(),
            priority,
            bank_model: RefBankModel::Uniform,
        }
    }

    /// Swaps in a bank timing model (builder style).
    #[must_use]
    pub fn with_bank_model(mut self, bank_model: RefBankModel) -> Self {
        self.bank_model = bank_model;
        self
    }

    /// The word-address modulus `M = m·max(rows, 1)` that decides a
    /// request: bank `addr mod m` and row `(addr / m) mod rows` both read
    /// `addr mod M`. Wide enough that no row count overflows it.
    #[must_use]
    pub(crate) fn address_modulus(&self) -> u128 {
        let rows = match self.bank_model {
            RefBankModel::Uniform => 1,
            RefBankModel::Dram { rows, .. } => rows.max(1),
        };
        u128::from(self.geometry.banks()) * u128::from(rows)
    }
}

/// Naive per-port address source: the `k`-th request is recomputed from
/// the spec with `u128` arithmetic on every call — deliberately no
/// incremental state, no reduced positions.
#[derive(Debug, Clone, Copy)]
pub enum RefPattern {
    /// `addr(k) = start + k·distance`.
    Stride {
        /// First word address.
        start: u64,
        /// Address distance per element.
        distance: u64,
    },
    /// `addr(k) = base + ix(k)` with `ix` in `0..span`.
    Gather {
        /// Base word address.
        base: u64,
        /// Index span.
        span: u64,
        /// Index generation (shared vocabulary type).
        index: IndexPattern,
    },
    /// Strided with `burst` words per grant: same addresses as `Stride`,
    /// but the port idles `burst − 1` periods after each grant.
    Burst {
        /// First word address.
        start: u64,
        /// Address distance per grant.
        distance: u64,
        /// Words per grant.
        burst: u64,
    },
}

impl RefPattern {
    /// The reference rendering of a shared [`PatternSpec`].
    #[must_use]
    pub fn from_spec(spec: &PatternSpec) -> Self {
        match *spec {
            PatternSpec::Stride {
                start_bank,
                distance,
            } => Self::Stride {
                start: start_bank,
                distance,
            },
            PatternSpec::Gather { base, span, index } => Self::Gather { base, span, index },
            PatternSpec::Burst {
                start_bank,
                distance,
                burst,
            } => Self::Burst {
                start: start_bank,
                distance,
                burst,
            },
        }
    }

    /// Word address of the `k`-th request, recomputed from scratch.
    fn address(&self, k: u64) -> u128 {
        match *self {
            Self::Stride { start, distance }
            | Self::Burst {
                start, distance, ..
            } => u128::from(start) + u128::from(k) * u128::from(distance),
            Self::Gather { base, span, index } => {
                u128::from(base) + u128::from(index.index(k, span))
            }
        }
    }

    /// Bank and row of the `k`-th request, recomputed from scratch.
    fn request(&self, k: u64, banks: u64, rows: u64) -> (u64, u64) {
        let addr = self.address(k);
        let bank = (addr % u128::from(banks)) as u64;
        #[expect(
            clippy::integer_division,
            reason = "banks >= 1 and rows != 0 on this branch"
        )]
        let row = if rows == 0 {
            0
        } else {
            ((addr / u128::from(banks)) % u128::from(rows)) as u64
        };
        (bank, row)
    }

    fn burst(&self) -> u64 {
        match *self {
            Self::Burst { burst, .. } => burst,
            Self::Stride { .. } | Self::Gather { .. } => 1,
        }
    }
}

/// Outcome of one port in one clock period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefOutcome {
    /// The request was granted; the bank starts its busy interval.
    Granted,
    /// The addressed bank was still busy (paper: *bank conflict*).
    BankConflict,
    /// The port's CPU already used its path to the bank's section this
    /// cycle (paper: *section conflict*).
    SectionConflict,
    /// Another CPU claimed the same inactive bank this cycle (paper:
    /// *simultaneous bank conflict*).
    SimultaneousBankConflict,
}

impl RefOutcome {
    /// True for the granted outcome.
    #[must_use]
    pub fn granted(&self) -> bool {
        matches!(self, Self::Granted)
    }
}

/// One port's view of one simulated clock period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefStep {
    /// Bank the port requested this cycle.
    pub bank: u64,
    /// What happened to the request.
    pub outcome: RefOutcome,
}

/// The naive reference engine. One infinite access pattern per port.
#[derive(Debug, Clone)]
pub struct RefEngine {
    config: RefConfig,
    /// `busy[j]`: clock periods bank `j` remains unavailable, counted down
    /// at the start of every cycle; a grant sets it to the hold time
    /// (`n_c`, or the DRAM hit cycle on an open-row hit).
    busy: Vec<u64>,
    /// Per-port access patterns.
    patterns: Vec<RefPattern>,
    /// Elements granted to each port so far (the `k` of the next request).
    issued: Vec<u64>,
    /// First cycle at which each port presents its next request: a grant
    /// at cycle `t` sets this to `t + burst`, which is the absolute-time
    /// formulation of the optimized workload's countdown cooldown.
    next_req_cycle: Vec<u64>,
    /// Open row per bank (`None` = closed). Stays all-`None` under the
    /// uniform model.
    open_row: Vec<Option<u64>>,
    rotation: usize,
    cycle: u64,
    grants: Vec<u64>,
    /// Delayed port-cycles per port: `[bank, section, simultaneous]`.
    delays: Vec<[u64; 3]>,
    /// The last cycle's per-port steps (`None` = idle port).
    steps: Vec<Option<RefStep>>,
    /// Per-cycle lists, cleared at the start of every cycle.
    scratch: CycleLists,
    #[cfg(feature = "bug_injection")]
    bug: Option<InjectedBug>,
}

/// The literal lists one cycle's arbitration builds, kept across cycles
/// only so their storage is reused: every cycle starts from empty lists.
#[derive(Debug, Clone, Default)]
struct CycleLists {
    /// Ports in the order the arbiter serves them (best rank first).
    order: Vec<usize>,
    /// Access paths `(cpu, section)` claimed so far this cycle.
    paths_used: Vec<(usize, u64)>,
    /// Inactive banks claimed so far this cycle, with each claim's hold
    /// time.
    banks_claimed: Vec<(u64, u64)>,
    /// Banks whose countdown reached zero at the start of this cycle.
    #[cfg(feature = "bug_injection")]
    freed_now: Vec<bool>,
}

impl RefEngine {
    /// A fresh engine with one infinite stream per port.
    ///
    /// # Panics
    /// If `streams.len() != config.port_cpus.len()`.
    #[must_use]
    pub fn new(config: RefConfig, streams: &[StreamSpec]) -> Self {
        let patterns: Vec<RefPattern> = streams
            .iter()
            .map(|s| RefPattern::Stride {
                start: s.start_bank,
                distance: s.distance,
            })
            .collect();
        Self::with_patterns(config, patterns)
    }

    /// A fresh engine with one generalized pattern per port, from the
    /// shared spec vocabulary.
    ///
    /// # Panics
    /// If `specs.len() != config.port_cpus.len()`.
    #[must_use]
    pub fn from_specs(config: RefConfig, specs: &[PatternSpec]) -> Self {
        Self::with_patterns(config, specs.iter().map(RefPattern::from_spec).collect())
    }

    /// A fresh engine over pre-built reference patterns.
    ///
    /// # Panics
    /// If `patterns.len() != config.port_cpus.len()`.
    #[must_use]
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented \"# Panics\" precondition, checked once at construction"
    )]
    pub fn with_patterns(config: RefConfig, patterns: Vec<RefPattern>) -> Self {
        assert_eq!(
            patterns.len(),
            config.port_cpus.len(),
            "one pattern per port"
        );
        let banks = config.geometry.banks() as usize;
        let ports = config.port_cpus.len();
        Self {
            busy: vec![0; banks],
            patterns,
            issued: vec![0; ports],
            next_req_cycle: vec![0; ports],
            open_row: vec![None; banks],
            rotation: 0,
            cycle: 0,
            grants: vec![0; ports],
            delays: vec![[0; 3]; ports],
            steps: vec![None; ports],
            scratch: CycleLists::default(),
            config,
            #[cfg(feature = "bug_injection")]
            bug: None,
        }
    }

    /// Seeds an arbiter fault (golden-test support).
    #[cfg(feature = "bug_injection")]
    #[must_use]
    pub fn with_bug(mut self, bug: InjectedBug) -> Self {
        self.bug = Some(bug);
        self
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &RefConfig {
        &self.config
    }

    /// Clock periods simulated so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current rotating-priority offset.
    #[must_use]
    pub fn rotation(&self) -> usize {
        self.rotation
    }

    /// Grants accumulated by each port.
    #[must_use]
    pub fn grants(&self) -> &[u64] {
        &self.grants
    }

    /// Total grants across all ports.
    #[must_use]
    pub fn total_grants(&self) -> u64 {
        self.grants.iter().sum()
    }

    /// Delayed port-cycles per port as `[bank, section, simultaneous]`.
    #[must_use]
    pub fn delays(&self) -> &[[u64; 3]] {
        &self.delays
    }

    /// Remaining busy periods of every bank *after* the last simulated
    /// cycle, in bank order and in the same convention as
    /// [`SimState::residues`](vecmem_banksim::SimState::residues):
    /// the number of upcoming clock periods the bank is still unavailable.
    /// A view over the countdowns, read without allocating.
    pub fn bank_residues(&self) -> impl Iterator<Item = u64> + '_ {
        // The countdown holds `n_c - (elapsed since grant)` and is one
        // ahead of the optimized engine's `free_at - now` because it is
        // decremented at the start of the next cycle rather than on read.
        self.busy.iter().map(|&c| c.saturating_sub(1))
    }

    /// Open row of every bank (`None` = closed); all-`None` under the
    /// uniform bank model. Lifted into the canonical packed state by the
    /// differential harness.
    #[must_use]
    pub fn open_rows(&self) -> &[Option<u64>] {
        &self.open_row
    }

    /// Each port's upcoming request as a word address modulo
    /// [`RefConfig::address_modulus`], with the clock periods left before
    /// the port presents it (its burst cooldown), in port order. With the
    /// compared state (busy banks, open rows, rotation), these decide
    /// every later cycle of a stride or burst port (see
    /// [`crate::diff`]'s module docs).
    pub(crate) fn upcoming(&self) -> impl Iterator<Item = (u128, u64)> + '_ {
        let modulus = self.config.address_modulus();
        self.patterns
            .iter()
            .zip(&self.issued)
            .zip(&self.next_req_cycle)
            .map(move |((pattern, &k), &next)| {
                (
                    pattern.address(k) % modulus,
                    next.saturating_sub(self.cycle),
                )
            })
    }

    /// Priority rank of a port; lower wins. Written independently of the
    /// optimized arbiter: under the rotating rule the port whose index
    /// equals the rotation offset holds rank 0.
    fn rank(&self, port: usize) -> usize {
        let p = self.config.port_cpus.len();
        match self.config.priority {
            RefPriority::Fixed => port,
            RefPriority::Cyclic => (port + p - self.rotation % p) % p,
        }
    }

    /// Fills `order` with the ports in the order the arbiter serves them
    /// this cycle (best first).
    fn service_order(&self, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.config.port_cpus.len());
        // The ranks are a permutation of the ports, so an unstable sort
        // gives the one possible order (and never allocates).
        order.sort_unstable_by_key(|&i| self.rank(i));
        #[cfg(feature = "bug_injection")]
        if self.bug == Some(InjectedBug::InvertedPriority) {
            order.reverse();
        }
    }

    /// The steps of the last simulated cycle, one per port: `None` marks a
    /// port that presented no request (idle inside a burst cooldown, or no
    /// cycle simulated yet).
    #[must_use]
    pub fn last_steps(&self) -> &[Option<RefStep>] {
        &self.steps
    }

    /// Simulates one clock period; returns each port's request and outcome.
    ///
    /// Convenience form for always-active workloads (stride, gather).
    ///
    /// # Panics
    /// If a port was idle this cycle (burst cooldown) — use
    /// [`step_ports`](Self::step_ports) for burst patterns.
    #[expect(
        clippy::expect_used,
        reason = "documented under `# Panics`: burst workloads use `step_ports`"
    )]
    pub fn step(&mut self) -> Vec<RefStep> {
        self.advance();
        self.steps
            .iter()
            .map(|s| s.expect("every port served"))
            .collect()
    }

    /// Simulates one clock period; `None` marks a port that presented no
    /// request this cycle (idle inside a burst cooldown).
    pub fn step_ports(&mut self) -> Vec<Option<RefStep>> {
        self.advance();
        self.steps.clone()
    }

    /// Simulates one clock period, leaving each port's request and outcome
    /// in [`last_steps`](Self::last_steps). The per-cycle lists are the
    /// engine's own, emptied at the start of the cycle, so a warmed-up
    /// engine steps without allocating.
    #[expect(
        clippy::indexing_slicing,
        reason = "reference engine: direct indexing over validated geometry and per-port vectors is its specification"
    )]
    pub fn advance(&mut self) {
        let geom = self.config.geometry;
        let nc = geom.bank_cycle();
        let ports = self.config.port_cpus.len();
        let rows = match self.config.bank_model {
            RefBankModel::Uniform => 0,
            RefBankModel::Dram { rows, .. } => rows,
        };
        let mut lists = std::mem::take(&mut self.scratch);

        // Banks age at the start of the cycle: a bank granted at cycle `t`
        // holds `n_c`, so it rejects requests at `t+1 .. t+n_c-1` and is
        // free again at `t + n_c`.
        #[cfg(feature = "bug_injection")]
        {
            lists.freed_now.clear();
            lists.freed_now.extend(self.busy.iter().map(|&b| b == 1));
        }
        for b in &mut self.busy {
            *b = b.saturating_sub(1);
        }

        self.steps.fill(None);
        // Access paths (cpu, section) and inactive banks claimed so far
        // this cycle — with each claim's hold time — in the literal list
        // form the paper's rules suggest.
        lists.paths_used.clear();
        lists.banks_claimed.clear();
        let mut contested = false;

        self.service_order(&mut lists.order);
        for &port in &lists.order {
            // A port inside a burst cooldown presents nothing this cycle.
            if self.cycle < self.next_req_cycle[port] {
                continue;
            }
            let (bank, row) = self.patterns[port].request(self.issued[port], geom.banks(), rows);
            let cpu = self.config.port_cpus[port];
            let section = geom.section_of(bank);
            let outcome = if self.busy[bank as usize] > 0 {
                self.delays[port][0] += 1;
                RefOutcome::BankConflict
            } else if lists.paths_used.contains(&(cpu, section)) {
                self.delays[port][1] += 1;
                contested = true;
                RefOutcome::SectionConflict
            } else if lists.banks_claimed.iter().any(|&(b, _)| b == bank) {
                self.delays[port][2] += 1;
                contested = true;
                RefOutcome::SimultaneousBankConflict
            } else {
                // Hold time: uniform holds n_c; the DRAM model holds only
                // `hit_cycle` when the request hits the bank's open row,
                // and opens the accessed row either way.
                let hold = match self.config.bank_model {
                    RefBankModel::Uniform => nc,
                    RefBankModel::Dram { hit_cycle, .. } => {
                        let hit = self.open_row[bank as usize] == Some(row);
                        self.open_row[bank as usize] = Some(row);
                        if hit {
                            hit_cycle
                        } else {
                            nc
                        }
                    }
                };
                lists.paths_used.push((cpu, section));
                lists.banks_claimed.push((bank, hold));
                self.grants[port] += 1;
                self.issued[port] += 1;
                self.next_req_cycle[port] = self.cycle + self.patterns[port].burst();
                RefOutcome::Granted
            };
            self.steps[port] = Some(RefStep { bank, outcome });
        }

        // Granted banks start their busy interval only after the whole
        // cycle is arbitrated: the busy check above must see the state at
        // the start of the cycle, while same-cycle collisions on an
        // inactive bank are section / simultaneous-bank conflicts.
        for &(bank, hold) in &lists.banks_claimed {
            self.busy[bank as usize] = hold;
            #[cfg(feature = "bug_injection")]
            if self.bug == Some(InjectedBug::ResidueOverflow) && lists.freed_now[bank as usize] {
                self.busy[bank as usize] = nc + 2;
            }
        }
        self.scratch = lists;

        if self.config.priority == RefPriority::Cyclic && contested {
            let advance = {
                #[cfg(feature = "bug_injection")]
                {
                    self.bug != Some(InjectedBug::StuckRotation)
                }
                #[cfg(not(feature = "bug_injection"))]
                {
                    true
                }
            };
            if advance {
                self.rotation = (self.rotation + 1) % ports.max(1);
            }
        }
        self.cycle += 1;
    }

    /// Runs `cycles` clock periods; returns total grants over the run (the
    /// numerator of the naive effective-bandwidth estimate).
    pub fn run(&mut self, cycles: u64) -> u64 {
        let before = self.total_grants();
        for _ in 0..cycles {
            self.advance();
        }
        self.total_grants() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(m: u64, nc: u64) -> Geometry {
        Geometry::unsectioned(m, nc).unwrap()
    }

    fn spec(g: &Geometry, b: u64, d: u64) -> StreamSpec {
        StreamSpec::new(g, b, d).unwrap()
    }

    #[test]
    fn unit_stride_full_bandwidth() {
        let g = geom(8, 4);
        let mut e = RefEngine::new(
            RefConfig::single_cpu(g, 1, RefPriority::Fixed),
            &[spec(&g, 0, 1)],
        );
        assert_eq!(e.run(32), 32);
        assert_eq!(e.delays()[0], [0, 0, 0]);
    }

    #[test]
    fn self_conflicting_stream_throttled() {
        // §III-A: m = 8, n_c = 4, d = 4: r = 2 < n_c so b_eff = 1/2.
        let g = geom(8, 4);
        let mut e = RefEngine::new(
            RefConfig::single_cpu(g, 1, RefPriority::Fixed),
            &[spec(&g, 0, 4)],
        );
        assert_eq!(e.run(32), 16);
        assert!(e.delays()[0][0] > 0, "expected bank conflicts");
    }

    #[test]
    fn bank_hold_time_respected() {
        // d = 0 hammers one bank: grants every n_c cycles.
        let g = geom(4, 3);
        let mut e = RefEngine::new(
            RefConfig::single_cpu(g, 1, RefPriority::Fixed),
            &[spec(&g, 0, 0)],
        );
        // Grants at cycles 0, 3, 6; delays at 1, 2, 4, 5, 7, 8.
        assert_eq!(e.run(9), 3);
        assert_eq!(e.delays()[0][0], 6);
    }

    #[test]
    fn simultaneous_bank_conflict_priority() {
        // Two CPUs hit the same inactive bank: fixed priority grants port 0.
        let g = geom(8, 2);
        let mut e = RefEngine::new(
            RefConfig::one_port_per_cpu(g, 2, RefPriority::Fixed),
            &[spec(&g, 3, 1), spec(&g, 3, 1)],
        );
        let out = e.step();
        assert_eq!(out[0].outcome, RefOutcome::Granted);
        assert_eq!(out[1].outcome, RefOutcome::SimultaneousBankConflict);
    }

    #[test]
    fn same_cpu_collision_is_section_conflict() {
        // With s = m each bank is its own section: a same-CPU collision on
        // one bank is a section (path) conflict, as in the paper.
        let g = geom(8, 2);
        let mut e = RefEngine::new(
            RefConfig::single_cpu(g, 2, RefPriority::Fixed),
            &[spec(&g, 3, 1), spec(&g, 3, 1)],
        );
        let out = e.step();
        assert_eq!(out[0].outcome, RefOutcome::Granted);
        assert_eq!(out[1].outcome, RefOutcome::SectionConflict);
    }

    #[test]
    fn sectioned_path_conflict_across_banks() {
        // m = 4, s = 2 cyclic: banks 1 and 3 share section 1; one CPU has a
        // single path to it.
        let g = Geometry::new(4, 2, 2).unwrap();
        let mut e = RefEngine::new(
            RefConfig::single_cpu(g, 2, RefPriority::Fixed),
            &[spec(&g, 1, 1), spec(&g, 3, 1)],
        );
        let out = e.step();
        assert_eq!(out[0].outcome, RefOutcome::Granted);
        assert_eq!(out[1].outcome, RefOutcome::SectionConflict);
    }

    #[test]
    fn cyclic_rotation_advances_only_when_contested() {
        let g = geom(8, 2);
        let mut e = RefEngine::new(
            RefConfig::one_port_per_cpu(g, 2, RefPriority::Cyclic),
            &[spec(&g, 0, 1), spec(&g, 0, 1)],
        );
        // Cycle 0 contested (same inactive bank): rotation advances.
        e.step();
        assert_eq!(e.rotation(), 1);
        // The loser retries bank 0 (busy), the winner moved on: a pure bank
        // conflict does not advance the rotation.
        e.step();
        assert_eq!(e.rotation(), 1);
    }

    #[test]
    fn in_order_retry_until_granted() {
        let g = geom(4, 3);
        let mut e = RefEngine::new(
            RefConfig::one_port_per_cpu(g, 2, RefPriority::Fixed),
            &[spec(&g, 0, 1), spec(&g, 0, 2)],
        );
        // Port 1 loses bank 0 at cycle 0, then retries it against the busy
        // interval (cycles 1, 2) before winning at cycle 3.
        let c0 = e.step();
        assert_eq!(c0[1].outcome, RefOutcome::SimultaneousBankConflict);
        for _ in 0..2 {
            let c = e.step();
            assert_eq!(c[1].bank, 0);
            assert_eq!(c[1].outcome, RefOutcome::BankConflict);
        }
        let c3 = e.step();
        assert_eq!(c3[1].bank, 0);
        assert_eq!(c3[1].outcome, RefOutcome::Granted);
    }

    #[test]
    fn burst_port_idles_between_grants() {
        // Burst 3, unit stride, nc = 1: grants at cycles 0, 3, 6; the port
        // presents nothing in between.
        let g = geom(8, 1);
        let mut e = RefEngine::from_specs(
            RefConfig::single_cpu(g, 1, RefPriority::Fixed),
            &[PatternSpec::Burst {
                start_bank: 0,
                distance: 1,
                burst: 3,
            }],
        );
        let mut active = Vec::new();
        for c in 0..9 {
            let s = e.step_ports();
            if s[0].is_some() {
                active.push(c);
            }
        }
        assert_eq!(active, vec![0, 3, 6]);
        assert_eq!(e.total_grants(), 3);
    }

    #[test]
    fn dram_open_row_hits_hold_shorter() {
        // d = 0 hammers one cell: first grant misses (hold n_c = 3), every
        // later one hits the open row (hold 1) — grants at 0, 3, 4, 5, ...
        let g = geom(4, 3);
        let cfg =
            RefConfig::single_cpu(g, 1, RefPriority::Fixed).with_bank_model(RefBankModel::Dram {
                hit_cycle: 1,
                rows: 2,
            });
        let mut e = RefEngine::from_specs(
            cfg,
            &[PatternSpec::Stride {
                start_bank: 0,
                distance: 0,
            }],
        );
        assert_eq!(e.run(9), 7);
        assert_eq!(e.open_rows()[0], Some(0));
    }

    #[test]
    fn gather_indices_follow_shared_vocabulary() {
        // Affine a = 2, c = 1 over span 8 on 8 banks: banks 1,3,5,7,1,...
        let g = geom(8, 1);
        let mut e = RefEngine::from_specs(
            RefConfig::single_cpu(g, 1, RefPriority::Fixed),
            &[PatternSpec::Gather {
                base: 0,
                span: 8,
                index: IndexPattern::Affine { a: 2, c: 1 },
            }],
        );
        let banks: Vec<u64> = (0..4).map(|_| e.step()[0].bank).collect();
        assert_eq!(banks, vec![1, 3, 5, 7]);
    }

    /// The translate of request `(bank, row)` by `t`, from the Appendix's
    /// relabelling `a → a + t (mod M)`: the request is the address `bank +
    /// m·row` modulo `M = m·max(rows, 1)`.
    fn translate(config: &RefConfig, t: u64, bank: u64, row: u64) -> (u64, u64) {
        let m = u128::from(config.geometry.banks());
        let addr =
            (u128::from(bank) + m * u128::from(row) + u128::from(t)) % config.address_modulus();
        ((addr % m) as u64, (addr / m) as u64)
    }

    /// `spec` with every address `t` higher.
    fn shifted(spec: &PatternSpec, t: u64) -> PatternSpec {
        match *spec {
            PatternSpec::Stride {
                start_bank,
                distance,
            } => PatternSpec::Stride {
                start_bank: start_bank + t,
                distance,
            },
            PatternSpec::Burst {
                start_bank,
                distance,
                burst,
            } => PatternSpec::Burst {
                start_bank: start_bank + t,
                distance,
                burst,
            },
            PatternSpec::Gather { base, span, index } => PatternSpec::Gather {
                base: base + t,
                span,
                index,
            },
        }
    }

    /// The first of `cycles` cycles after which the engine over `specs`
    /// shifted by `t` is not the translate of the engine over `specs`:
    /// every port's event moved by `t` with the same outcome, every
    /// bank's countdown residue and open row moved with its bank, and the
    /// same rotation. `None` when they agree throughout.
    fn first_untranslated(
        config: &RefConfig,
        specs: &[PatternSpec],
        t: u64,
        cycles: u64,
    ) -> Option<u64> {
        let moved: Vec<PatternSpec> = specs.iter().map(|s| shifted(s, t)).collect();
        let mut plain = RefEngine::from_specs(config.clone(), specs);
        let mut translated = RefEngine::from_specs(config.clone(), &moved);
        let bank_of = |bank| translate(config, t, bank, 0).0 as usize;
        for cycle in 0..cycles {
            plain.advance();
            translated.advance();
            let events =
                plain
                    .last_steps()
                    .iter()
                    .zip(translated.last_steps())
                    .all(|(p, q)| match (p, q) {
                        (None, None) => true,
                        (Some(p), Some(q)) => {
                            q.bank as usize == bank_of(p.bank) && q.outcome == p.outcome
                        }
                        _ => false,
                    });
            let residues: Vec<u64> = plain.bank_residues().collect();
            let moved_residues: Vec<u64> = translated.bank_residues().collect();
            let banks = (0..config.geometry.banks()).all(|bank| {
                let to = bank_of(bank);
                let row = plain.open_rows()[bank as usize];
                moved_residues[to] == residues[bank as usize]
                    && translated.open_rows()[to] == row.map(|r| translate(config, t, bank, r).1)
            });
            if !(events && banks && translated.rotation() == plain.rotation()) {
                return Some(cycle);
            }
        }
        None
    }

    vecmem_prop::proptest! {
        #![proptest_config(vecmem_prop::ProptestConfig::with_cases(256))]
        /// Translation equivariance, the second fact of `diff`'s argument:
        /// shifting every port's addresses by `t` translates the events and
        /// the compared state, over one to three ports of every pattern
        /// kind, on unsectioned and cyclically sectioned geometries, under
        /// the uniform and the DRAM model, with one port per CPU or all on
        /// one, and under both priority rules.
        #[test]
        fn reference_commutes_with_translation(
            sectioned in vecmem_prop::select(vec![false, true]),
            dram in vecmem_prop::select(vec![false, true]),
            cross in vecmem_prop::select(vec![false, true]),
            priority in vecmem_prop::select(vec![RefPriority::Fixed, RefPriority::Cyclic]),
            seed in 0u64..=u64::MAX,
        ) {
            let mut rng = vecmem_prop::TestRng::seed_from_u64(seed);
            let nc = 1 + rng.bounded(5);
            let geometry = if sectioned {
                let s = 1 + rng.bounded(4);
                Geometry::new(s * (1 + rng.bounded(4)), s, nc).unwrap()
            } else {
                geom(1 + rng.bounded(16), nc)
            };
            let ports = 1 + rng.bounded(3) as usize;
            let mut config = if cross {
                RefConfig::one_port_per_cpu(geometry, ports, priority)
            } else {
                RefConfig::single_cpu(geometry, ports, priority)
            };
            if dram {
                config = config.with_bank_model(RefBankModel::Dram {
                    hit_cycle: 1 + rng.bounded(nc),
                    rows: 1 + rng.bounded(6),
                });
            }
            let modulus = config.address_modulus() as u64;
            let specs: Vec<PatternSpec> = (0..ports)
                .map(|_| {
                    let start = rng.bounded(1 << 20);
                    match rng.bounded(4) {
                        0 => PatternSpec::Stride { start_bank: start, distance: rng.bounded(4 * modulus) },
                        1 => PatternSpec::Burst {
                            start_bank: start,
                            distance: rng.bounded(4 * modulus),
                            burst: 1 + rng.bounded(4),
                        },
                        2 => PatternSpec::Gather {
                            base: start,
                            span: 1 + rng.bounded(200),
                            index: IndexPattern::Affine { a: rng.bounded(64), c: rng.bounded(64) },
                        },
                        _ => PatternSpec::Gather {
                            base: start,
                            span: 1 + rng.bounded(1 << 12),
                            index: IndexPattern::PseudoRandom { seed: rng.next_u64() },
                        },
                    }
                })
                .collect();
            let t = rng.bounded(2 * modulus);
            vecmem_prop::prop_assert_eq!(first_untranslated(&config, &specs, t, 96), None);
        }
    }

    /// Consecutive sections are not a symmetry: banks 3 and 4 of 12 in 3
    /// sections lie in different sections, banks 4 and 5 in one. Two
    /// ports of one CPU granted both at cycle 0 collide on one path once
    /// moved up a bank. The cyclic mapping of the same geometry keeps it.
    #[test]
    fn consecutive_sections_break_translation() {
        use vecmem_analytic::SectionMapping;
        let stride = |start_bank, distance| PatternSpec::Stride {
            start_bank,
            distance,
        };
        let specs = [stride(3, 1), stride(4, 1)];
        let config = |mapping| {
            let g = Geometry::with_mapping(12, 3, 2, mapping).unwrap();
            RefConfig::single_cpu(g, 2, RefPriority::Fixed)
        };
        let consecutive = config(SectionMapping::Consecutive);
        assert_eq!(first_untranslated(&consecutive, &specs, 1, 96), Some(0));
        let cyclic = config(SectionMapping::Cyclic);
        assert_eq!(first_untranslated(&cyclic, &specs, 1, 96), None);
    }

    vecmem_prop::proptest! {
        #![proptest_config(vecmem_prop::ProptestConfig::with_cases(512))]
        /// The recurrence lemma, the first fact of `diff`'s argument: the
        /// reference's `(bank, row)` for request `k` equals the one for `k +
        /// T`, `T` the period the kernel's position slot resolves, and the
        /// kernel's own request, for every pattern kind with addresses and
        /// counts across the whole `u64` range, so the `u128`
        /// recomputation runs near the top of its range. A pseudo-random
        /// gather declares no period: its slot is the count itself.
        #[test]
        fn recurrence_lemma_holds_up_to_the_top_of_the_count_range(
            kind in 0u64..4,
            dram in vecmem_prop::select(vec![false, true]),
            seed in 0u64..=u64::MAX,
        ) {
            use vecmem_banksim::pattern::AccessPattern;
            use vecmem_banksim::{BankModel, SimConfig};
            let mut rng = vecmem_prop::TestRng::seed_from_u64(seed);
            let m = 1 + rng.bounded(64);
            let mut config = SimConfig::single_cpu(geom(m, 4), 1);
            let mut rows = 0;
            if dram {
                rows = 1 + rng.bounded(8);
                config = config.with_bank_model(BankModel::Dram { hit_cycle: 1, rows });
            }
            let modulus = m * rows.max(1);
            let span = match rng.bounded(3) {
                0 => modulus * (1 + rng.bounded(1 << 16)),
                1 => 1 + rng.bounded(1 << 20),
                _ => 1 + rng.next_u64(),
            };
            let spec = match kind {
                0 => PatternSpec::Stride { start_bank: rng.next_u64(), distance: rng.next_u64() },
                1 => PatternSpec::Burst {
                    start_bank: rng.next_u64(),
                    distance: rng.next_u64(),
                    burst: 1 + rng.bounded(4),
                },
                2 => PatternSpec::Gather {
                    base: rng.next_u64(),
                    span,
                    index: IndexPattern::Affine { a: rng.next_u64(), c: rng.next_u64() },
                },
                _ => PatternSpec::Gather {
                    base: rng.next_u64(),
                    span,
                    index: IndexPattern::PseudoRandom { seed: rng.next_u64() },
                },
            };
            let reference = RefPattern::from_spec(&spec);
            let kernel = spec.build(&config);
            let period = kernel.period_hint();
            let pseudo_random = matches!(
                spec,
                PatternSpec::Gather { index: IndexPattern::PseudoRandom { .. }, .. }
            );
            vecmem_prop::prop_assert_eq!(period.is_none(), pseudo_random);
            for _ in 0..16 {
                let k = rng.next_u64();
                let request = reference.request(k, m, rows);
                let own = kernel.request_at(k);
                vecmem_prop::prop_assert_eq!(request, (own.bank, own.row), "k = {}", k);
                if let Some(t) = period.filter(|&t| k.checked_add(t).is_some()) {
                    vecmem_prop::prop_assert_eq!(request, reference.request(k + t, m, rows), "k = {}", k);
                }
            }
        }
    }

    /// The seeded `ResidueOverflow` fault breaks the lemma's premise that
    /// the compared state decides the next cycle. A lone stream hammering
    /// bank 0 shows, after 4 steps, exactly the compared state and port it
    /// showed at the start (residue 0 stands for a raw countdown of 1
    /// there, 0 at the start). The faithful reference then repeats its
    /// first cycle; the faulty one reads the countdown and re-arms the
    /// bank for `n_c + 2`. So a comparison that stops at the recurrence
    /// cannot catch it, and `diff`'s tail does.
    #[cfg(feature = "bug_injection")]
    #[test]
    fn residue_overflow_reads_a_countdown_the_residues_cannot_show() {
        let g = geom(8, 4);
        let view = |e: &RefEngine| {
            (
                e.bank_residues().collect::<Vec<_>>(),
                e.rotation(),
                e.open_rows().to_vec(),
                e.upcoming().collect::<Vec<_>>(),
            )
        };
        for faulty in [false, true] {
            let mut e = RefEngine::new(
                RefConfig::single_cpu(g, 1, RefPriority::Fixed),
                &[spec(&g, 0, 0)],
            );
            if faulty {
                e = e.with_bug(InjectedBug::ResidueOverflow);
            }
            let start = view(&e);
            e.advance();
            let first = (e.last_steps().to_vec(), view(&e));
            e.run(3);
            assert_eq!(view(&e), start, "faulty: {faulty}");
            e.advance();
            let fifth = (e.last_steps().to_vec(), view(&e));
            assert_eq!(fifth == first, !faulty, "{fifth:?} against {first:?}");
        }
    }

    #[cfg(feature = "bug_injection")]
    #[test]
    fn inverted_priority_bug_flips_winner() {
        let g = geom(8, 2);
        let mut e = RefEngine::new(
            RefConfig::one_port_per_cpu(g, 2, RefPriority::Fixed),
            &[spec(&g, 3, 1), spec(&g, 3, 1)],
        )
        .with_bug(InjectedBug::InvertedPriority);
        let out = e.step();
        assert_eq!(out[0].outcome, RefOutcome::SimultaneousBankConflict);
        assert_eq!(out[1].outcome, RefOutcome::Granted);
    }

    #[cfg(feature = "bug_injection")]
    #[test]
    fn stuck_rotation_bug_freezes_cyclic_rule() {
        let g = geom(8, 2);
        let mut e = RefEngine::new(
            RefConfig::one_port_per_cpu(g, 2, RefPriority::Cyclic),
            &[spec(&g, 0, 1), spec(&g, 0, 1)],
        )
        .with_bug(InjectedBug::StuckRotation);
        e.step();
        assert_eq!(e.rotation(), 0);
    }
}
