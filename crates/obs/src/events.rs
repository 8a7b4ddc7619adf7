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
//! exactly as in v1. [`Event::from_json_line`] reads both versions — v1
//! lines simply parse with no attribution.
//!
//! Arbitration snapshots (`"t":"arb"`) list the competing `(port, bank)`
//! pairs and are only recorded when enabled — they dominate log volume.

use crate::attrib::{Attribution, Attributor, LossKind};
use crate::json::{field_str, field_u64, Json};
use std::io::{self, Write};
use std::path::Path;
use vecmem_banksim::{ConflictKind, PortId, Request, SimConfig, SimObserver};

/// Schema tag written in the JSONL header line.
pub const EVENTS_SCHEMA: &str = "vecmem-obs/events-v2";

/// The previous schema tag; [`Event::from_json_line`] still reads v1
/// documents (their `delay` lines carry no attribution).
pub const EVENTS_SCHEMA_V1: &str = "vecmem-obs/events-v1";

/// One recorded simulator event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The requests competing at the start of a clock period.
    Arbitration {
        /// Clock period.
        cycle: u64,
        /// Cyclic-priority rotation offset in effect.
        rotation: u64,
        /// Competing `(port, bank)` pairs.
        requests: Vec<(usize, u64)>,
    },
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
        /// Bank busy time (`n_c`) started by the grant.
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
        /// Conflict-ledger attribution (v2; `None` in v1 documents and in
        /// logs recorded without [`EventLog::with_attribution`]).
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
        /// Banks still busy after this period.
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

fn kind_from_name(name: &str) -> Option<ConflictKind> {
    match name {
        "bank" => Some(ConflictKind::Bank),
        "simultaneous" => Some(ConflictKind::SimultaneousBank),
        "section" => Some(ConflictKind::Section),
        _ => None,
    }
}

impl Event {
    /// Renders the event as one compact JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        match self {
            Event::Arbitration {
                cycle,
                rotation,
                requests,
            } => Json::obj([
                ("t", Json::str("arb")),
                ("cycle", Json::U64(*cycle)),
                ("rotation", Json::U64(*rotation)),
                (
                    "requests",
                    Json::Array(
                        requests
                            .iter()
                            .map(|&(p, b)| Json::Array(vec![Json::U64(p as u64), Json::U64(b)]))
                            .collect(),
                    ),
                ),
            ]),
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

    /// Parses one JSONL line previously produced by [`Event::to_json_line`].
    /// Returns `None` for header lines, blank lines and unknown types
    /// (`"arb"` lines are summarised without their request list).
    #[must_use]
    pub fn from_json_line(line: &str) -> Option<Event> {
        let cycle = field_u64(line, "cycle")?;
        match field_str(line, "t")? {
            "grant" => Some(Event::Grant {
                cycle,
                port: field_u64(line, "port")? as usize,
                bank: field_u64(line, "bank")?,
                wait: field_u64(line, "wait")?,
                hold: field_u64(line, "hold")?,
            }),
            "delay" => Some(Event::Delay {
                cycle,
                port: field_u64(line, "port")? as usize,
                bank: field_u64(line, "bank")?,
                kind: kind_from_name(field_str(line, "kind")?)?,
                attr: field_str(line, "loss")
                    .and_then(LossKind::from_name)
                    .map(|loss| DelayAttribution {
                        winner: field_u64(line, "winner").map(|w| w as usize),
                        loss,
                    }),
            }),
            "bank" => Some(Event::BankBusy {
                cycle,
                bank: field_u64(line, "bank")?,
                busy: field_u64(line, "busy")? != 0,
            }),
            "cycle" => Some(Event::CycleEnd {
                cycle,
                grants: field_u64(line, "grants")?,
                busy_banks: field_u64(line, "busy_banks")?,
            }),
            "arb" => Some(Event::Arbitration {
                cycle,
                rotation: field_u64(line, "rotation")?,
                requests: Vec::new(),
            }),
            _ => None,
        }
    }
}

/// A [`SimObserver`] that records the event stream in memory.
///
/// Construct with [`EventLog::new`], hand it to
/// `Engine::step_with`/`run_with`, then export with
/// [`EventLog::write_jsonl`]. A bound on recorded events can be set with
/// [`EventLog::with_limit`]; once reached, later events are counted in
/// [`EventLog::dropped`] instead of stored, and the export reports the drop
/// count in its header so truncation is never silent.
#[derive(Debug, Clone)]
pub struct EventLog {
    banks: u64,
    ports: u64,
    record_arbitration: bool,
    limit: usize,
    events: Vec<Event>,
    dropped: u64,
    attributor: Option<Attributor>,
    pending_delays: Vec<(u64, usize, u64, ConflictKind)>,
    attr_scratch: Vec<Attribution>,
}

impl EventLog {
    /// A log for a run over `banks` banks and `ports` ports, without
    /// arbitration snapshots and without a size limit.
    #[must_use]
    pub fn new(banks: u64, ports: u64) -> Self {
        Self {
            banks,
            ports,
            record_arbitration: false,
            limit: usize::MAX,
            events: Vec::new(),
            dropped: 0,
            attributor: None,
            pending_delays: Vec::new(),
            attr_scratch: Vec::new(),
        }
    }

    /// Also record per-cycle arbitration snapshots (`"t":"arb"` lines).
    #[must_use]
    pub fn with_arbitration(mut self) -> Self {
        self.record_arbitration = true;
        self
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

    /// Caps the number of stored events; excess events are counted, not kept.
    #[must_use]
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    fn push(&mut self, event: Event) {
        if self.events.len() < self.limit {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events discarded after the limit was hit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The JSONL header line (schema tag, geometry, drop count).
    #[must_use]
    pub fn header_line(&self) -> String {
        Json::obj([
            ("schema", Json::str(EVENTS_SCHEMA)),
            ("banks", Json::U64(self.banks)),
            ("ports", Json::U64(self.ports)),
            ("dropped", Json::U64(self.dropped)),
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
    fn on_arbitration(&mut self, cycle: u64, rotation: usize, requests: &[(PortId, Request)]) {
        if self.record_arbitration {
            let requests = requests.iter().map(|&(p, r)| (p.0, r.bank)).collect();
            self.push(Event::Arbitration {
                cycle,
                rotation: rotation as u64,
                requests,
            });
        }
    }

    fn on_grant(&mut self, cycle: u64, port: PortId, bank: u64, wait: u64, hold: u64) {
        if let Some(attributor) = &mut self.attributor {
            attributor.note_grant(port.0, bank);
        }
        self.push(Event::Grant {
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
            self.push(Event::Delay {
                cycle,
                port: port.0,
                bank,
                kind,
                attr: None,
            });
        }
    }

    fn on_bank_busy(&mut self, cycle: u64, bank: u64, busy: bool) {
        self.push(Event::BankBusy { cycle, bank, busy });
    }

    fn on_cycle_end(&mut self, cycle: u64, grants: u32, busy_banks: u32) {
        if let Some(attributor) = &mut self.attributor {
            self.attr_scratch.clear();
            attributor.resolve_cycle(&mut self.attr_scratch);
            // resolve_cycle yields one attribution per delay, in note
            // order — zip them back onto the buffered delay records.
            let resolved: Vec<Event> = self
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
                })
                .collect();
            for event in resolved {
                self.push(event);
            }
        }
        self.push(Event::CycleEnd {
            cycle,
            grants: u64::from(grants),
            busy_banks: u64::from(busy_banks),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_jsonl() {
        let originals = vec![
            Event::Grant {
                cycle: 3,
                port: 0,
                bank: 5,
                wait: 1,
                hold: 4,
            },
            Event::Delay {
                cycle: 3,
                port: 1,
                bank: 5,
                kind: ConflictKind::SimultaneousBank,
                attr: None,
            },
            Event::Delay {
                cycle: 4,
                port: 0,
                bank: 5,
                kind: ConflictKind::Bank,
                attr: Some(DelayAttribution {
                    winner: Some(1),
                    loss: LossKind::Inter,
                }),
            },
            Event::Delay {
                cycle: 5,
                port: 2,
                bank: 7,
                kind: ConflictKind::Section,
                attr: Some(DelayAttribution {
                    winner: None,
                    loss: LossKind::Section,
                }),
            },
            Event::BankBusy {
                cycle: 3,
                bank: 5,
                busy: true,
            },
            Event::BankBusy {
                cycle: 7,
                bank: 5,
                busy: false,
            },
            Event::CycleEnd {
                cycle: 3,
                grants: 1,
                busy_banks: 4,
            },
        ];
        for original in originals {
            let line = original.to_json_line();
            assert_eq!(Event::from_json_line(&line), Some(original), "line: {line}");
        }
    }

    /// Back-compat: `delay` lines from a v1 document (no `loss` field)
    /// still parse, with no attribution attached, and re-render to valid
    /// v2 lines that round-trip.
    #[test]
    fn v1_delay_lines_still_parse() {
        let v1_line = r#"{"t":"delay","cycle":3,"port":1,"bank":5,"kind":"simultaneous"}"#;
        let parsed = Event::from_json_line(v1_line).expect("v1 line parses");
        assert_eq!(
            parsed,
            Event::Delay {
                cycle: 3,
                port: 1,
                bank: 5,
                kind: ConflictKind::SimultaneousBank,
                attr: None,
            }
        );
        // A v1 record re-rendered by this version is byte-identical.
        assert_eq!(parsed.to_json_line(), v1_line);
        assert_eq!(Event::from_json_line(&parsed.to_json_line()), Some(parsed));
        // The old schema tag is still exported for tooling that checks it.
        assert_eq!(EVENTS_SCHEMA_V1, "vecmem-obs/events-v1");
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
        log.on_cycle_end(0, 1, 1);
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
        log.on_delay(0, PortId(1), 3, ConflictKind::Bank);
        log.on_cycle_end(0, 1, 1);
        let text = log.to_jsonl_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(EVENTS_SCHEMA));
        assert!(lines[0].contains("\"banks\":8"));
        assert!(lines[1].contains("\"t\":\"grant\""));
        assert!(lines[2].contains("\"kind\":\"bank\""));
        assert!(lines[3].contains("\"busy_banks\":1"));
    }

    #[test]
    fn limit_counts_dropped_events() {
        let mut log = EventLog::new(4, 1).with_limit(2);
        for cycle in 0..5 {
            log.on_cycle_end(cycle, 0, 0);
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert!(log.header_line().contains("\"dropped\":3"));
    }

    #[test]
    fn arbitration_only_when_enabled() {
        let requests = [
            (PortId(0), Request::to_bank(1)),
            (PortId(1), Request::to_bank(1)),
        ];
        let mut quiet = EventLog::new(4, 2);
        quiet.on_arbitration(0, 0, &requests);
        assert!(quiet.events().is_empty());

        let mut chatty = EventLog::new(4, 2).with_arbitration();
        chatty.on_arbitration(0, 1, &requests);
        assert_eq!(
            chatty.events(),
            &[Event::Arbitration {
                cycle: 0,
                rotation: 1,
                requests: vec![(0, 1), (1, 1)]
            }]
        );
        assert!(chatty.events()[0].to_json_line().contains("[[0,1],[1,1]]"));
    }
}
