//! Dependency-free CSV rendering of the harness tables, for downstream
//! plotting tools. (Quoting per RFC 4180: fields containing commas,
//! quotes or newlines are quoted, quotes doubled.)

use crate::fig10::Fig10;
use crate::tables::TheoremRow;

/// Escapes one CSV field.
#[must_use]
pub fn field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Joins fields into one CSV record.
#[must_use]
pub fn record<I: IntoIterator<Item = String>>(fields: I) -> String {
    fields
        .into_iter()
        .map(|f| field(&f))
        .collect::<Vec<_>>()
        .join(",")
}

/// Fig. 10's five series as CSV.
#[must_use]
pub fn fig10_csv(fig: &Fig10) -> String {
    let mut out = String::from(
        "inc,time_contended,time_alone,bank_conflicts,section_conflicts,simultaneous_conflicts\n",
    );
    for (c, a) in fig.contended.iter().zip(&fig.alone) {
        out.push_str(&record([
            c.inc.to_string(),
            c.cycles.to_string(),
            a.cycles.to_string(),
            c.triad_conflicts.bank.to_string(),
            c.triad_conflicts.section.to_string(),
            c.triad_conflicts.simultaneous.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// The theorem-validation table as CSV.
#[must_use]
pub fn theorems_csv(rows: &[TheoremRow]) -> String {
    let mut out = String::from("d1,d2,classification,predicted,sim_min,sim_max,ok\n");
    for r in rows {
        out.push_str(&record([
            r.d1.to_string(),
            r.d2.to_string(),
            r.class.clone(),
            r.predicted.map_or(String::new(), |p| p.to_string()),
            r.simulated.0.to_string(),
            r.simulated.1.to_string(),
            r.ok.to_string(),
        ]));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(field("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn record_joins() {
        assert_eq!(record(["a".to_string(), "b,c".to_string()]), "a,\"b,c\"");
    }

    #[test]
    fn fig10_csv_shape() {
        let fig = crate::fig10::run(2);
        let csv = fig10_csv(&fig);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 increments
        assert!(lines[0].starts_with("inc,"));
        assert!(lines[1].starts_with("1,"));
        assert_eq!(lines[1].split(',').count(), 6);
    }

    #[test]
    fn theorems_csv_shape() {
        let rows = crate::tables::theorem_table(8, 2);
        let csv = theorems_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 7));
    }
}
