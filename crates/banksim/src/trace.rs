//! ASCII trace rendering in the style of the paper's Figs. 2–9.
//!
//! Rows are banks, columns are clock periods. A digit `1`–`9` marks a bank
//! occupied by (1-based) port *n* for the `n_c` periods following a grant.
//! A `<` marks a higher-numbered port delayed by a bank or simultaneous
//! conflict at that bank, `>` a lower-numbered one (the paper's Figs. 3–6
//! convention: `<` depicts a delay of stream "2" by stream "1", `>` the
//! inverse), and `*` marks a section conflict (Fig. 8). Idle cells print
//! as `.`.
//!
//! [`TraceRecorder`] is a [`SimObserver`]: pass it to
//! [`Engine::step_with`](crate::Engine::step_with) (or any other caller of
//! the step kernel) and render it afterwards. The kernel reports a cycle's
//! delays before its grants, so a grant's digit wins its own cell over a
//! competitor's delay mark (the paper's figures show e.g.
//! "1<<<<<222222": the digit at the grant cycle, delay marks over the
//! remaining busy cells). Each grant paints the hold the kernel charged:
//! `n_c`, or a DRAM open-row hit's shorter `hit_cycle`.

use crate::observe::SimObserver;
use crate::request::{ConflictKind, PortId};

/// Grid recorder filled in from the observer callbacks of a traced run.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    banks: usize,
    capacity: u64,
    /// Cells indexed `[bank][cycle]`.
    grid: Vec<Vec<u8>>,
}

const IDLE: u8 = b'.';

impl TraceRecorder {
    /// A recorder for `banks` banks covering cycles `0..capacity`.
    #[must_use]
    pub fn new(banks: u64, capacity: u64) -> Self {
        Self {
            banks: banks as usize,
            capacity,
            grid: vec![vec![IDLE; capacity as usize]; banks as usize],
        }
    }

    /// Marks a grant: `port` occupies `bank` for `hold` cycles from `cycle`.
    ///
    /// Out-of-range banks and cycles past the capacity are ignored rather
    /// than panicking: the recorder is a best-effort visualisation sink and
    /// must not bring down a run over a bad index.
    pub fn mark_grant(&mut self, bank: u64, cycle: u64, hold: u64, port: PortId) {
        if bank as usize >= self.banks {
            return;
        }
        let digit = Self::digit(port);
        for t in cycle..(cycle + hold).min(self.capacity) {
            let cell = &mut self.grid[bank as usize][t as usize];
            // At the grant cycle itself the digit wins (a simultaneous
            // loser's mark is painted first and overwritten); in later
            // cells a recorded delay marker stays on top of the busy
            // period, as in the paper's figures.
            if t == cycle || *cell == IDLE || cell.is_ascii_digit() {
                *cell = digit;
            }
        }
    }

    /// Marks a delayed request of `port` at `bank` in `cycle`. Out-of-range
    /// banks and cycles are ignored (see [`Self::mark_grant`]).
    pub fn mark_delay(&mut self, bank: u64, cycle: u64, port: PortId, kind: ConflictKind) {
        if bank as usize >= self.banks || cycle >= self.capacity {
            return;
        }
        let symbol = match kind {
            ConflictKind::Section => b'*',
            ConflictKind::Bank | ConflictKind::SimultaneousBank => {
                if port.0 == 0 {
                    b'>'
                } else {
                    b'<'
                }
            }
        };
        self.grid[bank as usize][cycle as usize] = symbol;
    }

    fn digit(port: PortId) -> u8 {
        debug_assert!(port.0 < 9, "trace digits support at most 9 ports");
        b'1' + port.0 as u8
    }

    /// The raw symbol at `(bank, cycle)`.
    #[must_use]
    pub fn cell(&self, bank: u64, cycle: u64) -> char {
        self.grid[bank as usize][cycle as usize] as char
    }

    /// Renders cycles `from..to` as one row per bank, in the paper's layout.
    #[must_use]
    pub fn render(&self, from: u64, to: u64) -> String {
        let to = to.min(self.capacity);
        let mut out = String::new();
        for (bank, row) in self.grid.iter().enumerate() {
            out.push_str(&format!("bank {bank:>3}  "));
            for t in from..to {
                out.push(row[t as usize] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Renders the full recorded window.
    #[must_use]
    pub fn render_all(&self) -> String {
        self.render(0, self.capacity)
    }

    /// One bank row (without the label) over `from..to` — convenient for
    /// golden tests against the paper's figures.
    #[must_use]
    pub fn row(&self, bank: u64, from: u64, to: u64) -> String {
        let to = to.min(self.capacity);
        (from..to).map(|t| self.cell(bank, t)).collect()
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Recorded capacity in cycles.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl SimObserver for TraceRecorder {
    fn on_grant(&mut self, cycle: u64, port: PortId, bank: u64, _wait: u64, hold: u64) {
        self.mark_grant(bank, cycle, hold, port);
    }

    fn on_delay(&mut self, cycle: u64, port: PortId, bank: u64, kind: ConflictKind) {
        self.mark_delay(bank, cycle, port, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_paint_hold_period() {
        let mut t = TraceRecorder::new(4, 10);
        t.mark_grant(2, 1, 3, PortId(0));
        assert_eq!(t.row(2, 0, 6), ".111..");
        t.mark_grant(2, 4, 3, PortId(1));
        assert_eq!(t.row(2, 0, 8), ".111222.");
    }

    #[test]
    fn delays_override_busy_digits() {
        let mut t = TraceRecorder::new(2, 8);
        t.mark_grant(0, 0, 6, PortId(0));
        t.mark_delay(0, 1, PortId(1), ConflictKind::Bank);
        t.mark_delay(0, 2, PortId(1), ConflictKind::Bank);
        assert_eq!(t.row(0, 0, 6), "1<<111");
        // A grant's *first* cell always shows the digit (the engine paints
        // same-cycle losers first, then the winner on top)…
        t.mark_grant(0, 1, 2, PortId(0));
        assert_eq!(t.cell(0, 1), '1');
        // …but its later busy cells never clobber recorded delay marks.
        t.mark_delay(1, 4, PortId(1), ConflictKind::Bank);
        t.mark_grant(1, 3, 4, PortId(0));
        assert_eq!(t.row(1, 3, 7), "1<11");
    }

    #[test]
    fn delay_symbols_by_port_and_kind() {
        let mut t = TraceRecorder::new(1, 4);
        t.mark_delay(0, 0, PortId(0), ConflictKind::Bank);
        t.mark_delay(0, 1, PortId(1), ConflictKind::SimultaneousBank);
        t.mark_delay(0, 2, PortId(1), ConflictKind::Section);
        assert_eq!(t.row(0, 0, 4), "><*.");
    }

    #[test]
    fn render_includes_labels() {
        let mut t = TraceRecorder::new(2, 4);
        t.mark_grant(1, 0, 2, PortId(0));
        let s = t.render_all();
        assert!(s.contains("bank   0  ...."));
        assert!(s.contains("bank   1  11.."));
    }

    #[test]
    fn grants_clip_at_capacity() {
        let mut t = TraceRecorder::new(1, 4);
        t.mark_grant(0, 3, 5, PortId(2));
        assert_eq!(t.row(0, 0, 4), "...3");
        t.mark_delay(0, 9, PortId(0), ConflictKind::Bank); // ignored, too late
    }

    #[test]
    fn out_of_range_banks_are_rejected_not_panicking() {
        let mut t = TraceRecorder::new(4, 8);
        t.mark_grant(4, 0, 3, PortId(0)); // bank index == banks: out of range
        t.mark_grant(u64::MAX, 0, 3, PortId(0));
        t.mark_delay(4, 1, PortId(1), ConflictKind::Bank);
        t.mark_delay(99, 1, PortId(1), ConflictKind::Section);
        for bank in 0..4 {
            assert_eq!(t.row(bank, 0, 8), "........", "bank {bank} must stay idle");
        }
    }

    #[test]
    fn grant_overwrites_loser_marker_at_grant_cycle() {
        // The engine's convention: within one clock period delays are
        // painted first, then the winner's grant digit goes on top at the
        // grant cycle itself — later busy cells keep the delay marks.
        let mut t = TraceRecorder::new(1, 6);
        t.mark_delay(0, 2, PortId(1), ConflictKind::SimultaneousBank);
        t.mark_grant(0, 2, 3, PortId(0));
        assert_eq!(t.cell(0, 2), '1', "grant digit must win the grant cycle");
        // A delay recorded on a *later* busy cell survives the grant paint.
        let mut t = TraceRecorder::new(1, 6);
        t.mark_delay(0, 3, PortId(1), ConflictKind::Bank);
        t.mark_grant(0, 2, 3, PortId(0));
        assert_eq!(t.row(0, 2, 5), "1<1");
    }
}
