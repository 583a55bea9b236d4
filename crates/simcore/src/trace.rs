//! Structured event tracing.
//!
//! A [`Trace`] records tagged events with their simulation time for
//! post-hoc analysis and CSV export. Tracing is opt-in per component and
//! costs one `Vec` push per record; experiments that don't need traces
//! simply never construct one.

use crate::time::SimTime;

/// One trace record: a time, a tag, and free-form fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub t: SimTime,
    pub tag: String,
    pub fields: Vec<(String, String)>,
}

/// An append-only trace of tagged simulation events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<Record>,
    enabled: bool,
}

impl Trace {
    /// An enabled trace.
    pub fn enabled() -> Self {
        Trace {
            records: Vec::new(),
            enabled: true,
        }
    }

    /// A disabled trace: all `record` calls are no-ops. Lets components
    /// take a `&mut Trace` unconditionally without branching at call sites.
    pub fn disabled() -> Self {
        Trace {
            records: Vec::new(),
            enabled: false,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled).
    pub fn record(&mut self, t: SimTime, tag: &str, fields: &[(&str, String)]) {
        if !self.enabled {
            return;
        }
        self.records.push(Record {
            t,
            tag: tag.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Records carrying a given tag.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a Record> + 'a {
        self.records.iter().filter(move |r| r.tag == tag)
    }

    /// Count of records with a given tag.
    pub fn count_tag(&self, tag: &str) -> usize {
        self.with_tag(tag).count()
    }

    /// Export to CSV (`time_s,tag,key=value;key=value`).
    ///
    /// Field keys/values may contain the micro-format's own separators
    /// (`=`, `;`) — those and backslashes are backslash-escaped — and a
    /// cell containing `,`, `"`, or a newline is RFC-4180 quoted, so a
    /// hostile value can never add columns or rows to the file.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,tag,fields\n");
        for r in &self.records {
            let fields: Vec<String> = r
                .fields
                .iter()
                .map(|(k, v)| format!("{}={}", escape_kv(k), escape_kv(v)))
                .collect();
            out.push_str(&format!(
                "{:.6},{},{}\n",
                r.t.as_secs_f64(),
                csv_cell(&r.tag),
                csv_cell(&fields.join(";"))
            ));
        }
        out
    }
}

/// Backslash-escape the `key=value;…` micro-format separators.
fn escape_kv(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '=' => out.push_str("\\="),
            ';' => out.push_str("\\;"),
            c => out.push(c),
        }
    }
    out
}

/// RFC-4180 quote a cell when it would break the CSV structure.
fn csv_cell(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_when_enabled() {
        let mut tr = Trace::enabled();
        tr.record(
            SimTime::from_secs(1),
            "arrival",
            &[("job", "42".to_string())],
        );
        tr.record(SimTime::from_secs(2), "departure", &[]);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.count_tag("arrival"), 1);
        let rec = tr.with_tag("arrival").next().unwrap();
        assert_eq!(rec.fields[0], ("job".to_string(), "42".to_string()));
    }

    #[test]
    fn disabled_trace_is_noop() {
        let mut tr = Trace::disabled();
        tr.record(SimTime::from_secs(1), "x", &[]);
        assert!(tr.is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn csv_format() {
        let mut tr = Trace::enabled();
        tr.record(
            SimTime::from_secs(3),
            "offload",
            &[("from", "c0".to_string()), ("to", "dc".to_string())],
        );
        let csv = tr.to_csv();
        assert!(csv.contains("3.000000,offload,from=c0;to=dc"));
    }

    /// Regression: separators and newlines inside field values used to
    /// corrupt the CSV (extra columns/rows, ambiguous `k=v` splits).
    #[test]
    fn csv_escapes_hostile_field_values() {
        let mut tr = Trace::enabled();
        tr.record(
            SimTime::from_secs(1),
            "evil,tag",
            &[
                ("msg", "a,b;c=d".to_string()),
                ("multi", "line1\nline2".to_string()),
                ("quote", "say \"hi\"".to_string()),
            ],
        );
        let csv = tr.to_csv();
        // Still exactly one header and one data row…
        let rows: Vec<&str> = parse_csv_rows(&csv);
        assert_eq!(rows.len(), 2, "embedded newline split a row: {csv:?}");
        // …and the data row still has exactly three columns.
        assert_eq!(
            split_unquoted_commas(rows[1]).len(),
            3,
            "row: {:?}",
            rows[1]
        );
        // Micro-format separators in values are backslash-escaped.
        assert!(csv.contains("a,b\\;c\\=d"), "kv escaping missing: {csv:?}");
        assert!(csv.contains("\"\""), "inner quotes are doubled");
    }

    /// Split CSV text into logical rows, honouring quoted newlines.
    fn parse_csv_rows(csv: &str) -> Vec<&str> {
        let mut rows = Vec::new();
        let mut start = 0;
        let mut in_quotes = false;
        for (i, c) in csv.char_indices() {
            match c {
                '"' => in_quotes = !in_quotes,
                '\n' if !in_quotes => {
                    rows.push(&csv[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if start < csv.len() {
            rows.push(&csv[start..]);
        }
        rows
    }

    fn split_unquoted_commas(row: &str) -> Vec<&str> {
        let mut cells = Vec::new();
        let mut start = 0;
        let mut in_quotes = false;
        for (i, c) in row.char_indices() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => {
                    cells.push(&row[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        cells.push(&row[start..]);
        cells
    }
}
