//! A small result-table model shared by every experiment.
//!
//! JSON output goes through `bc_snapshot::Value`, the workspace's one
//! JSON codec; the round-trip tests read it back with `Value::parse`.

use bc_snapshot::Value;
use std::collections::BTreeMap;

/// One measured point of one series of one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Experiment id (`fig2`, `table6`, …).
    pub experiment: String,
    /// Series label (e.g. `NBA/Get-CTable` or `Synthetic/BayesCrowd-HHS`).
    pub series: String,
    /// Name of the swept parameter (`missing_rate`, `budget`, …).
    pub x_name: String,
    /// Value of the swept parameter.
    pub x: f64,
    /// Measured metrics (`time_ms`, `f1`, `tasks`, `rounds`, …).
    pub metrics: BTreeMap<String, f64>,
}

impl Row {
    /// Builds a row from metric pairs.
    pub fn new(
        experiment: &str,
        series: impl Into<String>,
        x_name: &str,
        x: f64,
        metrics: &[(&str, f64)],
    ) -> Row {
        Row {
            experiment: experiment.into(),
            series: series.into(),
            x_name: x_name.into(),
            x,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    /// Serializes the row as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect();
        Value::obj(vec![
            ("experiment", Value::Str(self.experiment.clone())),
            ("series", Value::Str(self.series.clone())),
            ("x_name", Value::Str(self.x_name.clone())),
            ("x", Value::Float(self.x)),
            ("metrics", Value::Map(metrics)),
        ])
        .to_json_spaced()
    }
}

/// Serializes rows as a pretty-printed JSON array (one row object per line).
pub fn rows_to_json_pretty(rows: &[Row]) -> String {
    if rows.is_empty() {
        return "[]".into();
    }
    let body = rows
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n]")
}

/// Pretty-prints rows as one aligned text table per experiment.
pub fn print_rows(rows: &[Row]) {
    let mut by_exp: BTreeMap<&str, Vec<&Row>> = BTreeMap::new();
    for r in rows {
        by_exp.entry(&r.experiment).or_default().push(r);
    }
    for (exp, rows) in by_exp {
        println!("\n== {exp} ==");
        // Collect the union of metric names for the header.
        let mut metric_names: Vec<&str> = Vec::new();
        for r in &rows {
            for k in r.metrics.keys() {
                if !metric_names.contains(&k.as_str()) {
                    metric_names.push(k);
                }
            }
        }
        let x_name = rows.first().map(|r| r.x_name.as_str()).unwrap_or("x");
        print!("{:<34} {:>12}", "series", x_name);
        for m in &metric_names {
            print!(" {m:>12}");
        }
        println!();
        for r in &rows {
            print!("{:<34} {:>12.4}", r.series, r.x);
            for m in &metric_names {
                match r.metrics.get(*m) {
                    Some(v) => print!(" {v:>12.4}"),
                    None => print!(" {:>12}", "-"),
                }
            }
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads a row back from [`Row::to_json`] output.
    fn parse_row(s: &str) -> Row {
        let v = Value::parse(s).unwrap();
        let text = |key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        Row {
            experiment: text("experiment"),
            series: text("series"),
            x_name: text("x_name"),
            x: v.get("x").and_then(Value::as_f64).unwrap(),
            metrics: v
                .get("metrics")
                .and_then(Value::as_map)
                .unwrap()
                .iter()
                .map(|(k, m)| (k.clone(), m.as_f64().unwrap()))
                .collect(),
        }
    }

    #[test]
    fn row_construction() {
        let r = Row::new(
            "fig2",
            "NBA/Get-CTable",
            "missing_rate",
            0.1,
            &[("time_ms", 12.5)],
        );
        assert_eq!(r.metrics["time_ms"], 12.5);
        assert_eq!(r.experiment, "fig2");
    }

    #[test]
    fn rows_serialize_to_json() {
        let r = Row::new(
            "fig3",
            "NBA/ADPLL",
            "missing_rate",
            0.05,
            &[("time_ms", 1.0)],
        );
        let s = r.to_json();
        assert!(s.contains("fig3"));
        let back = parse_row(&s);
        assert_eq!(back.series, "NBA/ADPLL");
        assert_eq!(back, r);
    }

    #[test]
    fn json_round_trips_escapes_and_empty_metrics() {
        let r = Row::new("t", "a\"b\\c\nd", "x", -1.5e-3, &[]);
        let back = parse_row(&r.to_json());
        assert_eq!(back, r);
        let nan = Row::new("t", "s", "x", 1.0, &[("f1", f64::NAN), ("tiny", 1e-7)]);
        let back = parse_row(&nan.to_json());
        assert!(back.metrics["f1"].is_nan());
        assert_eq!(back.metrics["tiny"], 1e-7);
        let arr = rows_to_json_pretty(&[r.clone(), r]);
        assert!(arr.starts_with("[\n") && arr.ends_with("\n]"));
        assert_eq!(rows_to_json_pretty(&[]), "[]");
    }

    #[test]
    fn json_exact_bytes() {
        let r = Row::new("t", "a\"b\\c\nd\u{1}", "x", f64::NAN, &[]);
        assert_eq!(
            r.to_json(),
            r#"{"experiment": "t", "series": "a\"b\\c\nd\u0001", "x_name": "x", "x": NaN, "metrics": {}}"#
        );
        let r = Row::new("t", "s", "x", -1.5e-3, &[("f1", f64::NAN), ("tiny", 1e-7)]);
        assert_eq!(
            r.to_json(),
            r#"{"experiment": "t", "series": "s", "x_name": "x", "x": -0.0015, "metrics": {"f1": NaN, "tiny": 1e-7}}"#
        );
    }

    #[test]
    fn print_does_not_panic_on_heterogeneous_metrics() {
        let rows = vec![
            Row::new("figX", "a", "x", 1.0, &[("m1", 1.0)]),
            Row::new("figX", "b", "x", 2.0, &[("m2", 2.0)]),
        ];
        print_rows(&rows);
    }
}
