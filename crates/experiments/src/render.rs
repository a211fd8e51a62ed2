//! Plain-text table and chart rendering.

/// Formats a byte count with thousands separators, as the paper prints
/// them (e.g. `4,228,129,280`).
pub fn commas(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats seconds to a sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 10.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.2}")
    }
}

/// Formats microseconds as milliseconds to one decimal.
pub fn millis(us: u64) -> String {
    format!("{:.1}", us as f64 / 1_000.0)
}

/// A simple fixed-width text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns: first column left, rest right.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                width[i] = width[i].max(cell.len());
            }
        }
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}", w = width[0]));
                } else {
                    line.push_str(&format!("  {cell:>w$}", w = width[i]));
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Renders a horizontal bar of `value` scaled against `max` into `width`
/// characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// Renders a signed bar: `+` glyphs rightward for positive values, `-`
/// glyphs for negative, scaled against `max_abs`.
pub fn signed_bar(value: f64, max_abs: f64, width: usize) -> String {
    if max_abs <= 0.0 {
        return String::new();
    }
    let n = ((value.abs() / max_abs) * width as f64).round() as usize;
    let n = n.min(width);
    if value >= 0.0 {
        format!("+{}", "#".repeat(n))
    } else {
        format!("-{}", "=".repeat(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comma_formatting() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1_000), "1,000");
        assert_eq!(commas(4_228_129_280), "4,228,129,280");
    }

    #[test]
    fn secs_precision() {
        assert_eq!(secs(0.163), "0.16");
        assert_eq!(secs(25.8), "25.8");
        assert_eq!(secs(157.2), "157");
    }

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].starts_with("long-name"));
        assert!(lines[2].ends_with('1'));
    }

    #[test]
    fn bars() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(signed_bar(5.0, 10.0, 10), "+#####");
        assert_eq!(signed_bar(-5.0, 10.0, 10), "-=====");
        assert_eq!(bar(100.0, 10.0, 10), "##########", "clamped");
    }
}
