//! The one table type every `repro` section produces, and the one printer,
//! JSON writer and reader, label rule and diff rule that read it.
//!
//! A section's [`Schema`] names its key columns, which identify a row, and
//! its metric columns, each with a unit and a good direction. A [`Table`]
//! is a schema plus measured rows. A section's JSON is an array of flat
//! row objects holding the key and metric columns by name, and every
//! metric is labelled `section/key…/metric` when two runs are compared.

use crate::json::Json;
use std::fmt::Write as _;

/// A metric column.
#[derive(Debug)]
pub struct Metric {
    /// The JSON field and the label's last part.
    pub name: &'static str,
    /// `ns`, `us`, `ms`, `1/s`, `x`, `count` or `bytes`: sets the printed
    /// precision.
    pub unit: &'static str,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
}

/// A metric for which a smaller value is better (a time, a cost).
pub const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

/// A metric for which a larger value is better (a throughput, a speedup).
pub const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What one section's table holds.
#[derive(Debug)]
pub struct Schema {
    /// The section's JSON key and the label's first part.
    pub name: &'static str,
    /// The printed title.
    pub title: &'static str,
    /// The columns that name a row.
    pub keys: &'static [&'static str],
    /// The columns measured for each row.
    pub metrics: &'static [Metric],
}

/// One row: a cell per key column, then a value per metric column (NaN
/// where the row has none).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The key cells, as printed and labelled.
    pub keys: Vec<String>,
    /// The metric values, in the schema's order.
    pub values: Vec<f64>,
}

impl Row {
    /// A row from its key cells and metric values.
    pub fn new<K: ToString>(
        keys: impl IntoIterator<Item = K>,
        values: impl IntoIterator<Item = f64>,
    ) -> Row {
        Row {
            keys: keys.into_iter().map(|k| k.to_string()).collect(),
            values: values.into_iter().collect(),
        }
    }
}

/// A section's measured rows.
#[derive(Debug)]
pub struct Table {
    /// The section.
    pub schema: &'static Schema,
    /// The rows, in measurement order.
    pub rows: Vec<Row>,
}

/// One metric value of a table, labelled `section/key…/metric`.
#[derive(Debug)]
pub struct Labelled {
    /// The label.
    pub label: String,
    /// The value (always finite).
    pub value: f64,
    /// The column it came from.
    pub metric: &'static Metric,
}

impl Table {
    /// The key columns' names, then the metric columns'.
    fn columns(&self) -> impl Iterator<Item = &'static str> {
        let metrics = self.schema.metrics.iter().map(|m| m.name);
        self.schema.keys.iter().copied().chain(metrics)
    }

    /// The title, the header and the rows, each column right-aligned to
    /// its widest cell.
    pub fn render(&self) -> String {
        let mut lines = vec![self.columns().map(str::to_string).collect::<Vec<_>>()];
        for row in &self.rows {
            let values = row.values.iter().zip(self.schema.metrics);
            let values = values.map(|(&v, m)| value_text(v, m.unit));
            lines.push(row.keys.iter().cloned().chain(values).collect());
        }
        let mut widths = vec![0; lines[0].len()];
        for (i, cell) in lines.iter().flat_map(|line| line.iter().enumerate()) {
            widths[i] = widths[i].max(cell.chars().count());
        }
        let mut out = format!("\n== {} ==\n", self.schema.title);
        for line in &lines {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(cell, &width)| format!("{cell:>width$}"))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// The section's JSON: an array of flat row objects. A key cell that
    /// is a number's canonical text is written as that number, so
    /// [`Table::from_json`] reads back the same cell.
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|row| {
            let keys = row.keys.iter().map(|k| match k.parse::<f64>() {
                Ok(n) if n.is_finite() && n.to_string() == *k => Json::num(n),
                _ => Json::str(k.clone()),
            });
            let values = row.values.iter().map(|&v| Json::num(v));
            Json::object(self.columns().zip(keys.chain(values)))
        });
        Json::Array(rows.collect())
    }

    /// Reads `schema`'s section back from a `--json` document; `None` if
    /// the document lacks it. A row missing a key cell is skipped, and a
    /// missing metric reads as NaN.
    pub fn from_json(schema: &'static Schema, doc: &Json) -> Option<Table> {
        let key = |item: &Json, name: &str| match item.get(name)? {
            Json::Str(s) => Some(s.clone()),
            Json::Num(n) => Some(n.to_string()),
            _ => None,
        };
        let mut rows = Vec::new();
        for item in doc.get(schema.name)?.as_array()? {
            let keys: Option<Vec<String>> = schema.keys.iter().map(|k| key(item, k)).collect();
            let values = schema.metrics.iter().map(|m| {
                let value = item.get(m.name).and_then(Json::as_f64);
                value.unwrap_or(f64::NAN)
            });
            rows.extend(keys.map(|keys| Row::new(keys, values)));
        }
        Some(Table { schema, rows })
    }

    /// Every finite metric of every row, labelled `section/key…/metric`.
    pub fn labels(&self) -> Vec<Labelled> {
        let mut out = Vec::new();
        for row in &self.rows {
            let prefix = format!("{}/{}", self.schema.name, row.keys.join("/"));
            for (metric, &value) in self.schema.metrics.iter().zip(&row.values) {
                if value.is_finite() {
                    out.push(Labelled {
                        label: format!("{prefix}/{}", metric.name),
                        value,
                        metric,
                    });
                }
            }
        }
        out
    }

    /// The mean of `metric` over the rows whose first key cell is
    /// `first_key`.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is not one of the schema's metrics.
    pub fn mean(&self, first_key: &str, metric: &str) -> f64 {
        let column = self.schema.metrics.iter().position(|m| m.name == metric);
        let column = column.expect("a metric of this section");
        let values: Vec<f64> = self
            .rows
            .iter()
            .filter(|row| row.keys[0] == first_key)
            .map(|row| row.values[column])
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }
}

/// A metric cell: integral values without decimals, others at the
/// precision of their unit.
fn value_text(value: f64, unit: &str) -> String {
    if !value.is_finite() {
        return "-".to_string();
    }
    let decimals = match unit {
        _ if value.fract() == 0.0 => 0,
        "ns" | "1/s" | "bytes" => 0,
        "us" | "count" => 1,
        _ => 2,
    };
    format!("{value:.decimals$}")
}

/// Compares `new` against `old` label by label. Returns the printed
/// report and the number of regressions: metrics worse by more than
/// `tolerance` percent — any move the wrong way off a 0 baseline counts —
/// and, when `strict`, labels of `old` that `new` lacks, so a deleted or
/// renamed case cannot switch a gate off.
pub fn compare(
    old: &[Labelled],
    new: &[Labelled],
    tolerance: f64,
    strict: bool,
) -> (String, usize) {
    let line = |label: &str, old: &str, new: &str, delta: &str, verdict: &str| {
        format!("{label:<64} {old:>12} {new:>12} {delta:>9} {verdict}\n")
    };
    let mut out = line("metric", "old", "new", "delta", "");
    let (mut regressions, mut improvements, mut compared) = (0, 0, 0);
    for n in new {
        let Some(o) = old.iter().find(|o| o.label == n.label) else {
            continue;
        };
        compared += 1;
        let pct = (n.value - o.value) / o.value * 100.0;
        let (delta, beyond) = match (o.value == 0.0, n.value == 0.0) {
            (false, _) => (format!("{pct:+.1}%"), pct.abs() > tolerance),
            (true, false) => ("from 0".to_string(), true),
            (true, true) => ("+0.0%".to_string(), false),
        };
        let worse = (n.value > o.value) != n.metric.higher_is_better;
        let verdict = match (beyond, worse) {
            (false, _) => "",
            (true, true) => "REGRESSION",
            (true, false) => "improved",
        };
        regressions += usize::from(verdict == "REGRESSION");
        improvements += usize::from(verdict == "improved");
        let unit = n.metric.unit;
        let (old_text, new_text) = (value_text(o.value, unit), value_text(n.value, unit));
        out += &line(&n.label, &old_text, &new_text, &delta, verdict);
    }
    let only_new = new
        .iter()
        .filter(|n| !old.iter().any(|o| o.label == n.label))
        .count();
    let vanished: Vec<&Labelled> = old
        .iter()
        .filter(|o| !new.iter().any(|n| n.label == o.label))
        .collect();
    if strict {
        for o in &vanished {
            regressions += 1;
            let old_text = value_text(o.value, o.metric.unit);
            out += &line(&o.label, &old_text, "-", "vanished", "REGRESSION");
        }
    }
    let _ = writeln!(
        out,
        "\n{compared} metrics compared: {regressions} regression(s), {improvements} improvement(s) \
         beyond ±{tolerance:.0}%; {only_new} only in new, {} only in old",
        vanished.len()
    );
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    static FIXTURE: Schema = Schema {
        name: "fixture",
        title: "A fixed table",
        keys: &["case", "size"],
        metrics: &[lower("cost_ms", "ms"), higher("rate", "1/s")],
    };

    /// `(label, value, index of the FIXTURE metric)` as labelled values.
    fn labelled(items: &[(&str, f64, usize)]) -> Vec<Labelled> {
        items
            .iter()
            .map(|&(label, value, metric)| Labelled {
                label: label.to_string(),
                value,
                metric: &FIXTURE.metrics[metric],
            })
            .collect()
    }

    #[test]
    fn printer_json_and_labels_name_the_same_columns_and_rows() {
        let rows = vec![
            Row::new(["x", "10"], [1.5, 2e3]),
            Row::new(["y", "0.25"], [3.25, 10.0]),
        ];
        let table = Table {
            schema: &FIXTURE,
            rows,
        };
        let printed = table.render();
        let header: Vec<&str> = printed.lines().nth(2).unwrap().split_whitespace().collect();
        assert_eq!(header, ["case", "size", "cost_ms", "rate"]);

        let text = Json::object([("fixture", table.to_json())]).to_pretty();
        let doc = Json::parse(&text).unwrap();
        let json_row = &doc.get("fixture").unwrap().as_array().unwrap()[0];
        for column in &header {
            assert!(
                json_row.get(column).is_some(),
                "the JSON row lacks {column}"
            );
        }
        let back = Table::from_json(&FIXTURE, &doc).unwrap();
        assert_eq!(back.rows, table.rows);

        let labels: Vec<String> = back.labels().into_iter().map(|l| l.label).collect();
        assert_eq!(
            labels,
            [
                "fixture/x/10/cost_ms",
                "fixture/x/10/rate",
                "fixture/y/0.25/cost_ms",
                "fixture/y/0.25/rate",
            ]
        );
        for (line, label) in printed.lines().skip(3).zip(labels.iter().step_by(2)) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let prefix = format!("fixture/{}/{}/", cells[0], cells[1]);
            assert!(label.starts_with(&prefix), "{label} is not row {prefix}");
        }
    }

    #[test]
    fn a_move_off_a_zero_baseline_is_judged() {
        let old = labelled(&[
            ("f/a/cost", 0.0, 0),
            ("f/a/rate", 0.0, 1),
            ("f/b/cost", 0.0, 0),
        ]);
        let new = labelled(&[
            ("f/a/cost", 40.0, 0),
            ("f/a/rate", 5.0, 1),
            ("f/b/cost", 0.0, 0),
        ]);
        let (report, regressions) = compare(&old, &new, 25.0, false);
        assert_eq!(regressions, 1, "{report}");
        assert!(report.contains("from 0 REGRESSION"), "{report}");
        assert!(report.contains("from 0 improved"), "{report}");
        assert!(report.contains("3 metrics compared: 1 regression(s), 1 improvement(s)"));
    }

    #[test]
    fn a_vanished_label_fails_a_strict_diff() {
        let old = labelled(&[("f/a/cost", 1.0, 0), ("f/b/cost", 1.0, 0)]);
        let new = labelled(&[("f/a/cost", 1.0, 0)]);
        assert_eq!(compare(&old, &new, 25.0, false).1, 0);
        let (report, regressions) = compare(&old, &new, 25.0, true);
        assert_eq!(regressions, 1);
        assert!(report.contains("f/b/cost"), "{report}");
    }
}
