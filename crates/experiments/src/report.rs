//! Plain-text report rendering: fixed-width tables, ASCII bar charts and
//! result-file output shared by the experiments.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A fixed-width text table with a header row.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(n_cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(n_cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim the padding on the last column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Renders a horizontal ASCII bar of `value` relative to `max` using up to
/// `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// Formats a probability with enough digits for the paper's tables.
pub fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0.0".to_string()
    } else if p >= 0.001 {
        format!("{p:.4}")
    } else {
        format!("{p:.1e}")
    }
}

/// Formats a percentage with two decimals.
pub fn fmt_pct(p: f64) -> String {
    format!("{:.2}%", p * 100.0)
}

/// Writes `contents` to `<out_dir>/<name>` (creating the directory) and
/// echoes it to stdout.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn emit(out_dir: &str, name: &str, contents: &str) -> std::io::Result<()> {
    print!("{contents}");
    if !contents.ends_with('\n') {
        println!();
    }
    std::fs::create_dir_all(out_dir)?;
    let path = Path::new(out_dir).join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(contents.as_bytes())?;
    println!("[written to {}]", path.display());
    Ok(())
}

/// A section header for multi-part reports.
pub fn section(title: &str) -> String {
    format!("\n=== {title} ===\n\n")
}

/// The word a report prints for a shape claim: `HOLDS` or `VIOLATED`.
pub fn verdict(holds: bool) -> &'static str {
    if holds {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}

/// A report's shape checks: the qualitative claims (orderings,
/// thresholds, structural identities) that define a successful run.
///
/// The experiments whose claims are the repository's own (scenario walls,
/// backend comparisons, drift adaptation) gate on them; the paper-figure
/// experiments only report theirs, since some read `VIOLATED` on honest
/// reproduction gaps.
#[derive(Debug, Clone, Default)]
pub struct ShapeChecks {
    checks: Vec<(String, bool)>,
}

impl ShapeChecks {
    /// An empty set of checks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one check.
    pub fn check(&mut self, label: impl Into<String>, holds: bool) {
        self.checks.push((label.into(), holds));
    }

    /// Number of checks that read `VIOLATED`.
    pub fn violations(&self) -> usize {
        self.checks.iter().filter(|(_, holds)| !holds).count()
    }

    /// The `shape checks` section: a `check`/`status` table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["check", "status"]);
        for (label, holds) in &self.checks {
            table.row(vec![label.as_str(), verdict(*holds)]);
        }
        section("shape checks") + &table.render()
    }

    /// The gate's decision for experiment `name`: the stderr message when
    /// any check is violated.
    ///
    /// # Errors
    ///
    /// Returns `<name>: N shape check(s) VIOLATED` if any check fails.
    pub fn outcome(&self, name: &str) -> Result<(), String> {
        match self.violations() {
            0 => Ok(()),
            n => Err(format!("{name}: {n} shape check(s) VIOLATED")),
        }
    }
}

/// One experiment's output: the report text written to `<name>.txt` and
/// the shape checks it rendered, which `run_all` reads for the gate.
#[derive(Debug, Clone)]
pub struct Report {
    /// The full report text.
    pub text: String,
    /// The report's shape checks (empty for reports without any).
    pub checks: ShapeChecks,
}

impl From<String> for Report {
    /// A report without shape checks.
    fn from(text: String) -> Self {
        Report {
            text,
            checks: ShapeChecks::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "2.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn shape_checks_render_the_hand_built_table() {
        let labels = ["a short claim", "a much longer claim about shapes", "x"];
        let outcomes = [true, false, true];
        let mut checks = ShapeChecks::new();
        let mut hand_built = TextTable::new(vec!["check", "status"]);
        for (label, holds) in labels.into_iter().zip(outcomes) {
            checks.check(label, holds);
            hand_built.row(vec![
                label.to_string(),
                if holds { "HOLDS" } else { "VIOLATED" }.to_string(),
            ]);
        }
        let expected = section("shape checks") + &hand_built.render();
        assert_eq!(checks.render(), expected);
        assert!(expected.starts_with("\n=== shape checks ===\n\ncheck"));
    }

    #[test]
    fn shape_checks_count_violations_for_the_gate() {
        let mut checks = ShapeChecks::new();
        assert_eq!(checks.outcome("bin"), Ok(()));
        checks.check("holds", true);
        assert_eq!(checks.violations(), 0);
        assert_eq!(checks.outcome("bin"), Ok(()));
        checks.check("fails", false);
        checks.check("fails too", false);
        assert_eq!(checks.violations(), 2);
        assert_eq!(
            checks.outcome("scenario_x"),
            Err("scenario_x: 2 shape check(s) VIOLATED".to_string())
        );
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one"]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn bar_scales_with_value() {
        assert_eq!(bar(1.0, 1.0, 10), "##########");
        assert_eq!(bar(0.5, 1.0, 10), "#####");
        assert_eq!(bar(0.0, 1.0, 10), "");
        assert_eq!(bar(2.0, 1.0, 10), "##########", "clamped at width");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn probability_formatting() {
        assert_eq!(fmt_prob(0.0), "0.0");
        assert_eq!(fmt_prob(0.0661), "0.0661");
        assert_eq!(fmt_prob(7.0e-6), "7.0e-6");
        assert_eq!(fmt_pct(0.0789), "7.89%");
    }

    #[test]
    fn emit_writes_file() {
        let dir = std::env::temp_dir().join("tauw_report_test");
        let dir_s = dir.to_str().unwrap();
        emit(dir_s, "x.txt", "hello\n").unwrap();
        let back = std::fs::read_to_string(dir.join("x.txt")).unwrap();
        assert_eq!(back, "hello\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
