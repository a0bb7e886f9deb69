//! Plain-text experiment tables (printed by the `experiments` binary; DESIGN.md §4
//! indexes them) and log–log fitting.

use std::fmt::Write as _;

/// One experiment table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (experiment id + paper claim).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-text notes printed after the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders as a GitHub-flavoured markdown table, each column as wide in
    /// chars as its widest cell (`{:<w$}` pads by chars, not bytes).
    pub fn render(&self) -> String {
        let chars = |c: &String| c.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(chars).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(chars(c));
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:<w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out.push('\n');
        out
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the scaling exponent.
///
/// # Panics
///
/// Panics on fewer than two points or non-positive values.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() == ys.len() && xs.len() >= 2, "need ≥ 2 points");
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_cells() {
        let mut t = Table::new("T", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("### T"));
        assert!(s.contains("| 1 | 2  |"));
        assert!(s.contains("> hello"));
    }

    #[test]
    fn non_ascii_headers_render_every_line_at_one_width() {
        let mut t = Table::new("T", &["ε", "⌈C/2⌉"]);
        t.row(vec!["0.25".into(), "44498".into()]);
        t.row(vec!["½".into(), "1".into()]);
        let s = t.render();
        let widths: Vec<usize> = s
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.chars().count())
            .collect();
        assert_eq!(widths.len(), 4);
        assert!(widths.iter().all(|&w| w == widths[0]), "{s}");
    }

    #[test]
    fn exponent_of_quadratic_is_two() {
        let xs = [8.0, 16.0, 32.0, 64.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        let e = fit_exponent(&xs, &ys);
        assert!((e - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
