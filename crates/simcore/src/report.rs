//! Plain-text table rendering for the experiment harness.
//!
//! Every experiment binary prints its results as a fixed-width table so
//! `EXPERIMENTS.md` rows can be regenerated by copy-paste.

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str) -> Self {
        Table {
            title: title.to_string(),
            ..Default::default()
        }
    }

    /// Set the column headers. Must be called before adding rows.
    pub fn headers(mut self, hs: &[&str]) -> Self {
        assert!(self.rows.is_empty(), "set headers before adding rows");
        self.headers = hs.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Add a row of pre-formatted cells.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Add a row given display-able values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let strs: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&strs);
    }

    /// Render the table as a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            #[allow(clippy::needless_range_loop)] // cells may be shorter than ncols
            for i in 0..ncols {
                let cell = cells.get(i).map(|s| s.as_str()).unwrap_or("");
                line.push_str(&format!(" {:<width$} ", cell, width = widths[i]));
                if i + 1 < ncols {
                    line.push('|');
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Render as GitHub-flavoured markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("**{}**\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }
}

/// Format a float with 2 decimal places (the default for report cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo").headers(&["month", "temp"]);
        t.row(&["Nov".into(), "20.81".into()]);
        t.row(&["Dec".into(), "21.07".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("month"));
        assert!(s.contains("Nov"));
        // All data lines have equal width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("m").headers(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00"); // default float formatting (banker-ish rounding of repr)
        assert_eq!(f3(2.0), "2.000");
        assert_eq!(pct(0.125), "12.5%");
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("x").headers(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
