//! Hierarchical spans on *virtual time*.
//!
//! A [`SpanSink`] records named spans whose clock is the simulator's cycle
//! count (one tick = one clock period), not wall time — traces are
//! bit-deterministic and the module stays lint-L1 clean. Spans nest by a
//! begin/end stack ([`SpanSink::begin`] / [`SpanSink::end`]) and carry
//! structured args; pre-computed spans can be appended with
//! [`SpanSink::push`] (e.g. when `exec` lays a whole sweep out on worker
//! tracks).
//!
//! The sink is also a [`SimObserver`]: attached to an engine run it
//! advances its virtual clock at every `on_cycle_end`, so enclosing spans
//! (scenario, steady-search, cycle-period) measure simulated cycles
//! without the caller counting them. It never touches simulation state —
//! attaching it cannot change results (covered by
//! `tests/obs_equivalence.rs`).
//!
//! Two export formats:
//!
//! * **Chrome trace events** ([`SpanSink::to_chrome_json`]) — complete
//!   (`"ph":"X"`) events with ticks as microseconds, loadable in Perfetto
//!   / `chrome://tracing`; tracks map to thread ids with
//!   `thread_name` metadata;
//! * **`vecmem-obs/spans-v1` JSONL** ([`SpanSink::to_spans_jsonl`]) — a
//!   header line plus one compact object per span, for tooling.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use vecmem_banksim::{PortId, Request, SimObserver};

/// Schema tag of the spans JSONL header line.
pub const SPANS_SCHEMA: &str = "vecmem-obs/spans-v1";

/// A closed span: `[start, start + dur)` in virtual ticks on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (e.g. `"steady-search"`).
    pub name: String,
    /// Track (exported as the Chrome thread id).
    pub track: u64,
    /// Start tick.
    pub start: u64,
    /// Duration in ticks.
    pub dur: u64,
    /// Structured arguments, in insertion order.
    pub args: Vec<(String, Json)>,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    name: String,
    track: u64,
    start: u64,
    args: Vec<(String, Json)>,
}

/// Collects spans on a deterministic virtual clock. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct SpanSink {
    spans: Vec<Span>,
    open: Vec<OpenSpan>,
    track_names: BTreeMap<u64, String>,
    track: u64,
    tick: u64,
    cycle_base: u64,
}

impl SpanSink {
    /// An empty sink at tick 0, track 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Moves the virtual clock forward to `tick` (never backwards).
    pub fn advance_to(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
    }

    /// Names a track and makes it current for subsequently opened spans.
    pub fn switch_track(&mut self, track: u64, name: &str) {
        self.track = track;
        self.track_names.insert(track, name.to_string());
    }

    /// Opens a span named `name` at the current tick on the current track.
    pub fn begin(&mut self, name: &str) {
        self.open.push(OpenSpan {
            name: name.to_string(),
            track: self.track,
            start: self.tick,
            args: Vec::new(),
        });
    }

    /// Attaches an argument to the innermost open span (no-op when no
    /// span is open).
    pub fn annotate(&mut self, key: &str, value: Json) {
        if let Some(span) = self.open.last_mut() {
            span.args.push((key.to_string(), value));
        }
    }

    /// Closes the innermost open span at the current tick (no-op when no
    /// span is open).
    pub fn end(&mut self) {
        if let Some(open) = self.open.pop() {
            self.spans.push(Span {
                name: open.name,
                track: open.track,
                start: open.start,
                dur: self.tick.saturating_sub(open.start),
                args: open.args,
            });
        }
    }

    /// Closes every still-open span at the current tick (outermost last).
    pub fn end_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Appends a fully-formed span (used to merge pre-computed layouts,
    /// e.g. a sweep's per-scenario spans on worker tracks).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Appends a complete argument-free span on the current track.
    pub fn leaf(&mut self, name: &str, start: u64, dur: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            track: self.track,
            start,
            dur,
            args: Vec::new(),
        });
    }

    /// Closed spans, in close order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Depth of the open-span stack.
    #[must_use]
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Re-anchors the observer clock: an engine cycle `c` observed after
    /// this call maps to tick `base + c + 1`. Call with
    /// [`now()`](Self::now) minus the engine's current cycle count before
    /// attaching to an engine, so replays lay out sequentially.
    pub fn rebase_cycles(&mut self, base: u64) {
        self.cycle_base = base;
    }

    fn chrome_events(&self) -> Vec<Json> {
        let mut events: Vec<Json> = self
            .track_names
            .iter()
            .map(|(&track, name)| {
                Json::obj([
                    ("ph", Json::str("M")),
                    ("pid", Json::U64(0)),
                    ("tid", Json::U64(track)),
                    ("name", Json::str("thread_name")),
                    ("args", Json::obj([("name", Json::str(name.clone()))])),
                ])
            })
            .collect();
        for span in &self.spans {
            events.push(Json::obj([
                ("ph", Json::str("X")),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(span.track)),
                ("name", Json::str(span.name.clone())),
                ("cat", Json::str("vecmem")),
                ("ts", Json::U64(span.start)),
                ("dur", Json::U64(span.dur)),
                ("args", Json::Object(span.args.clone())),
            ]));
        }
        events
    }

    /// Renders the sink as Chrome trace-event JSON (ticks as
    /// microseconds), loadable in Perfetto or `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        Json::obj([
            ("traceEvents", Json::Array(self.chrome_events())),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }

    /// Renders the sink as `vecmem-obs/spans-v1` JSONL: a header line with
    /// the schema tag and span count, then one object per span.
    #[must_use]
    pub fn to_spans_jsonl(&self) -> String {
        let mut out = Json::obj([
            ("schema", Json::str(SPANS_SCHEMA)),
            ("spans", Json::U64(self.spans.len() as u64)),
        ])
        .render();
        out.push('\n');
        for span in &self.spans {
            out.push_str(
                &Json::obj([
                    ("name", Json::str(span.name.clone())),
                    ("track", Json::U64(span.track)),
                    ("start", Json::U64(span.start)),
                    ("dur", Json::U64(span.dur)),
                    ("args", Json::Object(span.args.clone())),
                ])
                .render(),
            );
            out.push('\n');
        }
        out
    }

    /// Writes the trace to `path`, picking the format by extension:
    /// `.json` → Chrome trace events, anything else → spans-v1 JSONL.
    /// Parent directories are created as needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let text = if path.extension().is_some_and(|e| e == "json") {
            self.to_chrome_json()
        } else {
            self.to_spans_jsonl()
        };
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())
    }
}

/// Riding the engine hook, the sink only advances its virtual clock — the
/// simulation itself is never touched.
impl SimObserver for SpanSink {
    fn on_arbitration(&mut self, _cycle: u64, _rotation: usize, _requests: &[(PortId, Request)]) {}

    fn on_cycle_end(&mut self, cycle: u64, _grants: u32) {
        self.advance_to(self.cycle_base + cycle + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_durations() {
        let mut sink = SpanSink::new();
        sink.switch_track(0, "sim");
        sink.begin("run");
        sink.advance_to(10);
        sink.begin("steady-search");
        sink.annotate("period", Json::U64(4));
        sink.advance_to(30);
        sink.end();
        sink.advance_to(35);
        sink.end();
        assert_eq!(sink.open_depth(), 0);
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "steady-search");
        assert_eq!((spans[0].start, spans[0].dur), (10, 20));
        assert_eq!(spans[1].name, "run");
        assert_eq!((spans[1].start, spans[1].dur), (0, 35));
        assert_eq!(spans[0].args, vec![("period".to_string(), Json::U64(4))]);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut sink = SpanSink::new();
        sink.advance_to(50);
        sink.advance_to(20);
        assert_eq!(sink.now(), 50);
    }

    #[test]
    fn observer_advances_by_cycles_from_base() {
        let mut sink = SpanSink::new();
        sink.advance_to(100);
        sink.rebase_cycles(sink.now());
        sink.begin("period");
        for cycle in 0..7 {
            sink.on_cycle_end(cycle, 0);
        }
        sink.end();
        assert_eq!(sink.now(), 107);
        assert_eq!(sink.spans()[0].dur, 7);
    }

    #[test]
    fn chrome_json_shape() {
        let mut sink = SpanSink::new();
        sink.switch_track(2, "worker-2");
        sink.begin("scenario");
        sink.advance_to(12);
        sink.end();
        let json = sink.to_chrome_json();
        assert!(json.starts_with(r#"{"traceEvents":["#), "{json}");
        assert!(json.contains(r#""ph":"M""#));
        assert!(json.contains(r#""name":"thread_name""#));
        assert!(json.contains(r#""args":{"name":"worker-2"}"#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ts":0,"dur":12"#));
        assert!(json.contains(r#""tid":2"#));
    }

    #[test]
    fn jsonl_header_and_lines() {
        let mut sink = SpanSink::new();
        sink.leaf("a", 0, 5);
        sink.leaf("b", 5, 3);
        let text = sink.to_spans_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(SPANS_SCHEMA));
        assert!(lines[0].contains("\"spans\":2"));
        assert!(lines[1].contains(r#""name":"a""#));
        assert!(lines[2].contains(r#""start":5,"dur":3"#));
    }

    #[test]
    fn end_without_open_is_noop() {
        let mut sink = SpanSink::new();
        sink.end();
        sink.annotate("k", Json::Null);
        assert!(sink.spans().is_empty());
    }

    #[test]
    fn end_all_closes_outermost_last() {
        let mut sink = SpanSink::new();
        sink.begin("outer");
        sink.begin("inner");
        sink.advance_to(4);
        sink.end_all();
        assert_eq!(sink.spans()[0].name, "inner");
        assert_eq!(sink.spans()[1].name, "outer");
    }
}
