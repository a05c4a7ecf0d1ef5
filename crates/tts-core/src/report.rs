//! Rendering helpers for the [`experiment`](crate::experiment)
//! implementations' markdown: fixed-width tables, and the
//! paper-vs-measured rows that the repro harness's summary also uses.

use crate::experiments::Comparison;

/// Formats a paper-vs-measured comparison as one markdown table row.
pub fn comparison_row(c: &Comparison) -> String {
    format!(
        "| {} | {} | {} | {:+.0}% |",
        c.metric,
        format_quantity(c.paper, &c.unit),
        format_quantity(c.measured, &c.unit),
        c.relative_error() * 100.0
    )
}

/// Human-formats a value with its unit (k/M prefixes for dollars).
fn format_quantity(v: f64, unit: &str) -> String {
    if unit == "$/yr" {
        if v.abs() >= 1e6 {
            return format!("${:.2}M/yr", v / 1e6);
        }
        return format!("${:.0}k/yr", v / 1e3);
    }
    if unit == "servers" {
        return format!("{v:.0}");
    }
    format!("{v:.1} {unit}")
}

/// Renders a fixed-width text table.
pub(crate) fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push_str(&format!(
        "|{}|\n",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_dollars() {
        assert_eq!(format_quantity(3.1e6, "$/yr"), "$3.10M/yr");
        assert_eq!(format_quantity(187_000.0, "$/yr"), "$187k/yr");
        assert_eq!(format_quantity(2770.0, "servers"), "2770");
        assert_eq!(format_quantity(8.9, "%"), "8.9 %");
    }

    #[test]
    fn text_table_aligns() {
        let t = text_table(
            &["a", "long header"],
            &[
                vec!["x".into(), "y".into()],
                vec!["wide cell".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn comparison_row_contains_fields() {
        let c = Comparison::new("peak reduction", 8.9, 7.4, "%");
        let row = comparison_row(&c);
        assert!(row.contains("peak reduction"));
        assert!(row.contains("8.9"));
        assert!(row.contains("7.4"));
    }
}
