//! Cycle-level event stream: an in-memory recorder and a JSONL exporter.
//!
//! The JSONL format (`vecmem-obs/events-v2`) starts with a header line
//! carrying the schema tag and run geometry, followed by one compact JSON
//! object per event. Field `t` discriminates the event type:
//!
//! ```text
//! {"schema":"vecmem-obs/events-v2","banks":16,"ports":2}
//! {"t":"grant","cycle":3,"port":0,"bank":5,"wait":1,"hold":4}
//! {"t":"delay","cycle":3,"port":1,"bank":5,"kind":"simultaneous","loss":"inter","winner":0}
//! {"t":"bank","cycle":3,"bank":5,"busy":1}
//! {"t":"cycle","cycle":3,"grants":1,"busy_banks":4}
//! ```
//!
//! v2 extends v1's `delay` records with an optional conflict-ledger
//! attribution: the refined [`LossKind`] (`loss`) and, when observed, the
//! winning port (`winner`). Attribution is produced by
//! [`EventLog::with_attribution`]; without it, `delay` lines are emitted
//! exactly as in v1. The header's `dropped` field is always 0: the log
//! keeps every event.

use crate::attrib::{Attribution, Attributor, LossKind};
use crate::json::Json;
use std::io::{self, Write};
use std::path::Path;
use vecmem_banksim::{ConflictKind, PortId, SimConfig, SimObserver};

/// Schema tag written in the JSONL header line.
pub const EVENTS_SCHEMA: &str = "vecmem-obs/events-v2";

/// One recorded simulator event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A granted request.
    Grant {
        /// Clock period of the grant.
        cycle: u64,
        /// Granted port.
        port: usize,
        /// Target bank.
        bank: u64,
        /// Clock periods the request waited before this grant.
        wait: u64,
        /// Bank busy time started by the grant (`n_c`, or `hit_cycle` on a
        /// DRAM open-row hit).
        hold: u64,
    },
    /// A delayed request.
    Delay {
        /// Clock period of the delay.
        cycle: u64,
        /// Delayed port.
        port: usize,
        /// Target bank.
        bank: u64,
        /// Conflict type that caused the delay.
        kind: ConflictKind,
        /// Conflict-ledger attribution (v2; `None` in logs recorded
        /// without [`EventLog::with_attribution`]).
        attr: Option<DelayAttribution>,
    },
    /// A bank busy/free transition.
    BankBusy {
        /// Clock period of the transition.
        cycle: u64,
        /// Bank address.
        bank: u64,
        /// `true` when the bank turned busy, `false` when it freed.
        busy: bool,
    },
    /// End-of-period summary.
    CycleEnd {
        /// Clock period.
        cycle: u64,
        /// Requests granted this period.
        grants: u64,
        /// Banks busy during this period, counted from the `bank`
        /// transitions since the log was attached.
        busy_banks: u64,
    },
}

/// Conflict-ledger attribution carried by v2 `delay` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayAttribution {
    /// The winning port, when the attributor observed it.
    pub winner: Option<usize>,
    /// Refined loss classification.
    pub loss: LossKind,
}

/// Stable wire name of a [`ConflictKind`].
#[must_use]
pub fn kind_name(kind: ConflictKind) -> &'static str {
    match kind {
        ConflictKind::Bank => "bank",
        ConflictKind::SimultaneousBank => "simultaneous",
        ConflictKind::Section => "section",
    }
}

impl Event {
    /// Renders the event as one compact JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        match self {
            Event::Grant {
                cycle,
                port,
                bank,
                wait,
                hold,
            } => Json::obj([
                ("t", Json::str("grant")),
                ("cycle", Json::U64(*cycle)),
                ("port", Json::U64(*port as u64)),
                ("bank", Json::U64(*bank)),
                ("wait", Json::U64(*wait)),
                ("hold", Json::U64(*hold)),
            ]),
            Event::Delay {
                cycle,
                port,
                bank,
                kind,
                attr,
            } => {
                let mut fields = vec![
                    ("t".to_string(), Json::str("delay")),
                    ("cycle".to_string(), Json::U64(*cycle)),
                    ("port".to_string(), Json::U64(*port as u64)),
                    ("bank".to_string(), Json::U64(*bank)),
                    ("kind".to_string(), Json::str(kind_name(*kind))),
                ];
                if let Some(attr) = attr {
                    fields.push(("loss".to_string(), Json::str(attr.loss.name())));
                    if let Some(winner) = attr.winner {
                        fields.push(("winner".to_string(), Json::U64(winner as u64)));
                    }
                }
                Json::Object(fields)
            }
            Event::BankBusy { cycle, bank, busy } => Json::obj([
                ("t", Json::str("bank")),
                ("cycle", Json::U64(*cycle)),
                ("bank", Json::U64(*bank)),
                ("busy", Json::U64(u64::from(*busy))),
            ]),
            Event::CycleEnd {
                cycle,
                grants,
                busy_banks,
            } => Json::obj([
                ("t", Json::str("cycle")),
                ("cycle", Json::U64(*cycle)),
                ("grants", Json::U64(*grants)),
                ("busy_banks", Json::U64(*busy_banks)),
            ]),
        }
        .render()
    }
}

/// A [`SimObserver`] that records the event stream in memory.
///
/// Construct with [`EventLog::new`], hand it to
/// `Engine::step_with`/`run_with`, then export with
/// [`EventLog::write_jsonl`].
///
/// The `busy_banks` field of each cycle record counts the bank busy/free
/// transitions the log has seen, so attach the log before the first cycle
/// of a run (when every bank is free).
#[derive(Debug, Clone)]
pub struct EventLog {
    banks: u64,
    ports: u64,
    events: Vec<Event>,
    attributor: Option<Attributor>,
    pending_delays: Vec<(u64, usize, u64, ConflictKind)>,
    attr_scratch: Vec<Attribution>,
    busy_banks: u64,
}

impl EventLog {
    /// A log for a run over `banks` banks and `ports` ports.
    #[must_use]
    pub fn new(banks: u64, ports: u64) -> Self {
        Self {
            banks,
            ports,
            events: Vec::new(),
            attributor: None,
            pending_delays: Vec::new(),
            attr_scratch: Vec::new(),
            busy_banks: 0,
        }
    }

    /// Attributes every `delay` record with the conflict-ledger loss kind
    /// and winner (the v2 fields). Attribution needs the winner of each
    /// contested cycle, so attributed `delay` events are buffered and
    /// emitted at cycle end — *after* that cycle's `grant` events rather
    /// than interleaved with them (same cycle number, shifted line order).
    #[must_use]
    pub fn with_attribution(mut self, config: &SimConfig) -> Self {
        self.attributor = Some(Attributor::for_config(config));
        self
    }

    /// Recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The JSONL header line (schema tag, geometry, and a drop count of 0).
    #[must_use]
    pub fn header_line(&self) -> String {
        Json::obj([
            ("schema", Json::str(EVENTS_SCHEMA)),
            ("banks", Json::U64(self.banks)),
            ("ports", Json::U64(self.ports)),
            ("dropped", Json::U64(0)),
        ])
        .render()
    }

    /// Writes the full log (header + one line per event) to `writer`.
    ///
    /// # Errors
    /// Propagates I/O errors from `writer`.
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        writeln!(writer, "{}", self.header_line())?;
        for event in &self.events {
            writeln!(writer, "{}", event.to_json_line())?;
        }
        Ok(())
    }

    /// Writes the full log to the file at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        let mut writer = io::BufWriter::new(file);
        self.write_to(&mut writer)?;
        writer.flush()
    }

    /// Renders the whole log as a JSONL string.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "writing to a Vec cannot fail, and the renderer emits only UTF-8"
    )]
    pub fn to_jsonl_string(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSONL output is always UTF-8")
    }
}

impl SimObserver for EventLog {
    fn on_grant(&mut self, cycle: u64, port: PortId, bank: u64, wait: u64, hold: u64) {
        if let Some(attributor) = &mut self.attributor {
            attributor.note_grant(port.0, bank);
        }
        self.events.push(Event::Grant {
            cycle,
            port: port.0,
            bank,
            wait,
            hold,
        });
    }

    fn on_delay(&mut self, cycle: u64, port: PortId, bank: u64, kind: ConflictKind) {
        if let Some(attributor) = &mut self.attributor {
            // Buffer until cycle end: the winner may be granted later in
            // this same cycle's event stream.
            attributor.note_delay(port.0, bank, kind);
            self.pending_delays.push((cycle, port.0, bank, kind));
        } else {
            self.events.push(Event::Delay {
                cycle,
                port: port.0,
                bank,
                kind,
                attr: None,
            });
        }
    }

    fn on_bank_busy(&mut self, cycle: u64, bank: u64, busy: bool) {
        if busy {
            self.busy_banks += 1;
        } else {
            self.busy_banks = self.busy_banks.saturating_sub(1);
        }
        self.events.push(Event::BankBusy { cycle, bank, busy });
    }

    fn on_cycle_end(&mut self, cycle: u64, grants: u32) {
        if let Some(attributor) = &mut self.attributor {
            self.attr_scratch.clear();
            attributor.resolve_cycle(&mut self.attr_scratch);
            // resolve_cycle yields one attribution per delay, in note
            // order — zip them back onto the buffered delay records.
            let resolved = self
                .pending_delays
                .drain(..)
                .zip(self.attr_scratch.iter())
                .map(|((cycle, port, bank, kind), attribution)| Event::Delay {
                    cycle,
                    port,
                    bank,
                    kind,
                    attr: Some(DelayAttribution {
                        winner: attribution.winner,
                        loss: attribution.kind,
                    }),
                });
            self.events.extend(resolved);
        }
        self.events.push(Event::CycleEnd {
            cycle,
            grants: u64::from(grants),
            busy_banks: self.busy_banks,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact wire form of every event shape. The pinned trace golden
    /// (`results/trace_events_m16.jsonl`) holds `grant`, `bank` and
    /// `cycle` lines and unattributed `delay` lines of the `bank` kind
    /// only; this pins the rest: the `simultaneous` and `section` kinds of
    /// an unattributed `delay`, and every loss kind of an attributed one,
    /// with and without a winner.
    #[test]
    fn json_lines_are_pinned() {
        let delay = |kind, attr| Event::Delay {
            cycle: 12,
            port: 1,
            bank: 5,
            kind,
            attr,
        };
        let attributed = |loss, winner| Some(DelayAttribution { winner, loss });
        let cases = [
            (
                delay(ConflictKind::Bank, None),
                r#"{"t":"delay","cycle":12,"port":1,"bank":5,"kind":"bank"}"#,
            ),
            (
                delay(ConflictKind::SimultaneousBank, None),
                r#"{"t":"delay","cycle":12,"port":1,"bank":5,"kind":"simultaneous"}"#,
            ),
            (
                delay(ConflictKind::Section, None),
                r#"{"t":"delay","cycle":12,"port":1,"bank":5,"kind":"section"}"#,
            ),
            (
                delay(ConflictKind::Bank, attributed(LossKind::Intra, None)),
                r#"{"t":"delay","cycle":12,"port":1,"bank":5,"kind":"bank","loss":"intra"}"#,
            ),
            (
                delay(ConflictKind::Bank, attributed(LossKind::Inter, Some(0))),
                r#"{"t":"delay","cycle":12,"port":1,"bank":5,"kind":"bank","loss":"inter","winner":0}"#,
            ),
            (
                delay(
                    ConflictKind::Section,
                    attributed(LossKind::Section, Some(2)),
                ),
                r#"{"t":"delay","cycle":12,"port":1,"bank":5,"kind":"section","loss":"section","winner":2}"#,
            ),
            (
                delay(
                    ConflictKind::SimultaneousBank,
                    attributed(LossKind::Rotation, Some(3)),
                ),
                r#"{"t":"delay","cycle":12,"port":1,"bank":5,"kind":"simultaneous","loss":"rotation","winner":3}"#,
            ),
        ];
        for (event, line) in cases {
            assert_eq!(event.to_json_line(), line, "{event:?}");
        }
    }

    #[test]
    fn attributed_log_emits_v2_delay_fields() {
        use vecmem_analytic::Geometry;
        let geom = Geometry::unsectioned(8, 4).unwrap();
        let config = SimConfig::one_port_per_cpu(geom, 2);
        let mut log = EventLog::new(8, 2).with_attribution(&config);
        // Cycle 0: port 0 granted bank 3, port 1 loses the simultaneous
        // arbitration on the same bank.
        log.on_delay(0, PortId(1), 3, ConflictKind::SimultaneousBank);
        log.on_grant(0, PortId(0), 3, 0, 4);
        log.on_cycle_end(0, 1);
        let text = log.to_jsonl_string();
        assert!(text.lines().next().unwrap().contains(EVENTS_SCHEMA));
        let delay_line = text
            .lines()
            .find(|l| l.contains("\"t\":\"delay\""))
            .expect("delay line present");
        assert!(delay_line.contains("\"loss\":\"inter\""), "{delay_line}");
        assert!(delay_line.contains("\"winner\":0"), "{delay_line}");
        // The buffered delay is emitted after the cycle's grants.
        let order: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| {
                if l.contains("\"t\":\"grant\"") {
                    "grant"
                } else if l.contains("\"t\":\"delay\"") {
                    "delay"
                } else {
                    "other"
                }
            })
            .collect();
        let grant_at = order.iter().position(|&t| t == "grant").unwrap();
        let delay_at = order.iter().position(|&t| t == "delay").unwrap();
        assert!(grant_at < delay_at, "order: {order:?}");
    }

    #[test]
    fn log_records_and_exports() {
        let mut log = EventLog::new(8, 2);
        log.on_grant(0, PortId(0), 3, 0, 2);
        log.on_bank_busy(0, 3, true);
        log.on_delay(0, PortId(1), 3, ConflictKind::Bank);
        log.on_cycle_end(0, 1);
        let text = log.to_jsonl_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains(EVENTS_SCHEMA));
        assert!(lines[0].contains("\"banks\":8"));
        assert!(lines[1].contains("\"t\":\"grant\""));
        assert!(lines[2].contains("\"busy\":1"));
        assert!(lines[3].contains("\"kind\":\"bank\""));
        assert!(lines[4].contains("\"busy_banks\":1"));
    }
}
