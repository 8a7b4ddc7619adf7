//! Structured export of metrics snapshots: versioned JSON and long-format
//! CSV, dispatched on the output path's extension.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use vecmem_banksim::WAIT_BUCKETS;

/// Schema tag embedded in JSON metrics snapshots. Version 2 dropped
/// version 1's `steady` and `epsilon` fields.
pub const METRICS_SCHEMA: &str = "vecmem-obs/metrics-v2";

/// Renders a snapshot as a versioned JSON document.
#[must_use]
pub fn metrics_to_json(snapshot: &MetricsSnapshot) -> String {
    let ports = snapshot
        .ports
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Json::obj([
                ("port", Json::U64(i as u64)),
                ("grants", Json::U64(p.grants)),
                ("conflicts_bank", Json::U64(p.conflicts.bank)),
                (
                    "conflicts_simultaneous",
                    Json::U64(p.conflicts.simultaneous),
                ),
                ("conflicts_section", Json::U64(p.conflicts.section)),
                (
                    "wait_histogram",
                    Json::Array(p.wait_histogram.iter().map(|&n| Json::U64(n)).collect()),
                ),
                ("max_wait", Json::U64(p.max_wait)),
            ])
        })
        .collect();
    let series = snapshot
        .beff_series
        .iter()
        .map(|w| {
            Json::obj([
                ("start_cycle", Json::U64(w.start_cycle)),
                ("end_cycle", Json::U64(w.end_cycle)),
                ("beff", Json::F64(w.beff)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::str(METRICS_SCHEMA)),
        ("cycles", Json::U64(snapshot.cycles)),
        ("total_grants", Json::U64(snapshot.total_grants)),
        ("beff", Json::F64(snapshot.beff)),
        ("ports", Json::Array(ports)),
        (
            "bank_grants",
            Json::Array(snapshot.bank_grants.iter().map(|&n| Json::U64(n)).collect()),
        ),
        (
            "bank_utilization",
            Json::Array(
                snapshot
                    .bank_utilization
                    .iter()
                    .map(|&u| Json::F64(u))
                    .collect(),
            ),
        ),
        ("window", Json::U64(snapshot.window)),
        ("beff_series", Json::Array(series)),
        (
            "counters",
            Json::obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::U64(v))),
            ),
        ),
        (
            "gauges",
            Json::obj(
                snapshot
                    .gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::F64(v))),
            ),
        ),
    ])
    .render()
}

/// Renders a snapshot as long-format CSV: `metric,index,value` rows, one
/// per gauge/counter/window — the shape plotting tools ingest directly.
#[must_use]
pub fn metrics_to_csv(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("metric,index,value\n");
    let push_u = |out: &mut String, metric: &str, index: u64, value: u64| {
        let _ = writeln!(out, "{metric},{index},{value}");
    };
    push_u(&mut out, "cycles", 0, snapshot.cycles);
    push_u(&mut out, "total_grants", 0, snapshot.total_grants);
    let _ = writeln!(out, "beff,0,{:?}", snapshot.beff);
    for (i, p) in snapshot.ports.iter().enumerate() {
        let i = i as u64;
        push_u(&mut out, "port_grants", i, p.grants);
        push_u(&mut out, "port_conflicts_bank", i, p.conflicts.bank);
        push_u(
            &mut out,
            "port_conflicts_simultaneous",
            i,
            p.conflicts.simultaneous,
        );
        push_u(&mut out, "port_conflicts_section", i, p.conflicts.section);
        push_u(&mut out, "port_max_wait", i, p.max_wait);
        for (bucket, &n) in p.wait_histogram.iter().enumerate() {
            push_u(
                &mut out,
                "port_wait_bucket",
                i * WAIT_BUCKETS as u64 + bucket as u64,
                n,
            );
        }
    }
    for (bank, &g) in snapshot.bank_grants.iter().enumerate() {
        push_u(&mut out, "bank_grants", bank as u64, g);
    }
    for (bank, &u) in snapshot.bank_utilization.iter().enumerate() {
        let _ = writeln!(out, "bank_utilization,{bank},{u:?}");
    }
    for w in &snapshot.beff_series {
        let _ = writeln!(out, "beff_window,{},{:?}", w.end_cycle, w.beff);
    }
    // Named counters/gauges keep the three-field shape. Their names are
    // caller-supplied strings, so they are RFC-4180 quoted on the way out
    // — a comma, quote or newline in a name must not shear the columns.
    for (name, &v) in &snapshot.counters {
        let _ = writeln!(out, "{},0,{v}", csv_field(name));
    }
    for (name, &v) in &snapshot.gauges {
        let _ = writeln!(out, "{},0,{v:?}", csv_field(name));
    }
    out
}

/// RFC-4180 quoting for one CSV field: fields containing a comma, double
/// quote, CR or LF are wrapped in double quotes with embedded quotes
/// doubled; everything else passes through unchanged.
#[must_use]
pub fn csv_field(value: &str) -> std::borrow::Cow<'_, str> {
    if value.contains(['"', ',', '\n', '\r']) {
        let mut quoted = String::with_capacity(value.len() + 2);
        quoted.push('"');
        for c in value.chars() {
            if c == '"' {
                quoted.push('"');
            }
            quoted.push(c);
        }
        quoted.push('"');
        std::borrow::Cow::Owned(quoted)
    } else {
        std::borrow::Cow::Borrowed(value)
    }
}

/// Writes a snapshot to `path`, choosing the format by extension:
/// `.csv` → long-format CSV, anything else → versioned JSON. Parent
/// directories are created as needed.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_metrics(path: impl AsRef<Path>, snapshot: &MetricsSnapshot) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let is_csv = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
    let text = if is_csv {
        metrics_to_csv(snapshot)
    } else {
        metrics_to_json(snapshot)
    };
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use vecmem_banksim::{PortId, SimObserver};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut m = MetricsRegistry::with_window(2, 1, 2);
        for cycle in 0..4 {
            m.on_grant(cycle, PortId(0), cycle % 2, 1, 1);
            m.on_cycle_end(cycle, 1);
        }
        m.snapshot()
    }

    #[test]
    fn json_contains_schema_and_series() {
        let text = metrics_to_json(&sample_snapshot());
        assert!(text.contains(&format!("\"schema\":\"{METRICS_SCHEMA}\"")));
        assert!(text.contains("\"cycles\":4"));
        assert!(text.contains("\"beff\":1.0"));
        assert!(text.contains("\"beff_series\":[{"));
    }

    #[test]
    fn named_metrics_reach_both_formats() {
        let mut m = MetricsRegistry::with_window(2, 1, 2);
        m.on_cycle_end(0, 0);
        m.add_counter("exec_cache_hits", 7);
        m.set_gauge("exec_cache_hit_rate", 0.25);
        let snap = m.snapshot();
        let json = metrics_to_json(&snap);
        assert!(json.contains("\"counters\":{\"exec_cache_hits\":7}"));
        assert!(json.contains("\"gauges\":{\"exec_cache_hit_rate\":0.25}"));
        let csv = metrics_to_csv(&snap);
        assert!(csv.contains("exec_cache_hits,0,7"));
        assert!(csv.contains("exec_cache_hit_rate,0,0.25"));
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 3, "bad row: {line}");
        }
    }

    #[test]
    fn csv_is_long_format() {
        let text = metrics_to_csv(&sample_snapshot());
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("metric,index,value"));
        assert!(text.contains("cycles,0,4"));
        assert!(text.contains("port_grants,0,4"));
        assert!(text.contains("beff_window,2,1.0"));
        assert!(text.contains("bank_utilization,0,"));
        // Every row has exactly three comma-separated fields.
        for line in text.lines().skip(1) {
            assert_eq!(line.split(',').count(), 3, "bad row: {line}");
        }
    }

    /// Golden: metric names containing CSV metacharacters are RFC-4180
    /// quoted, so the column layout survives hostile names.
    #[test]
    fn csv_quotes_hostile_metric_names() {
        let mut m = MetricsRegistry::with_window(2, 1, 2);
        m.on_cycle_end(0, 0);
        m.add_counter("hits,total", 3);
        m.add_counter("say \"when\"", 1);
        m.set_gauge("multi\nline", 0.5);
        let csv = metrics_to_csv(&m.snapshot());
        let expected_tail = "\"hits,total\",0,3\n\"say \"\"when\"\"\",0,1\n\"multi\nline\",0,0.5\n";
        assert!(csv.ends_with(expected_tail), "csv tail mismatch:\n{csv}");
    }

    #[test]
    fn csv_field_passthrough_and_quoting() {
        assert_eq!(csv_field("plain_name"), "plain_name");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
        assert_eq!(csv_field("n\nn"), "\"n\nn\"");
    }

    #[test]
    fn write_dispatches_on_extension() {
        let dir = std::env::temp_dir().join("vecmem-obs-test-export");
        let json_path = dir.join("snap.json");
        let csv_path = dir.join("snap.csv");
        let snap = sample_snapshot();
        write_metrics(&json_path, &snap).unwrap();
        write_metrics(&csv_path, &snap).unwrap();
        let json = std::fs::read_to_string(&json_path).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(json.starts_with('{'));
        assert!(csv.starts_with("metric,index,value"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
