//! A run's result: per-operation counts, metrics, check failures, and the
//! one JSON line the run ends with.

use crate::session::Ops;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    /// Lines for standard error: sample counts, percentiles, oddities.
    pub notes: Vec<String>,
    pub check_errors: Vec<String>,
    pub check_count: u64,
}

impl Report {
    #[must_use]
    pub fn new(ops: Ops) -> Self {
        Self {
            ops,
            ..Self::default()
        }
    }

    pub fn check(&mut self, c: crate::checks::Check) {
        if let Err(e) = c {
            self.check_count += 1;
            if self.check_errors.len() < 16 {
                self.check_errors.push(e);
            }
        }
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.check_count == 0
    }

    /// The per-operation counts as one JSON object.
    #[must_use]
    pub fn ops_json(&self) -> String {
        let items: Vec<String> = self
            .ops
            .0
            .iter()
            .map(|(op, (a, f))| format!("\"{op}\": {{\"attempted\": {a}, \"failed\": {f}}}"))
            .collect();
        format!("{{\"ops\": {{{}}}}}", items.join(", "))
    }

    /// The closing result line.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted(),
            self.ops.failed(),
            metrics.join(", ")
        )
    }

    /// Prints notes, failures and a metric table to standard error, then
    /// the operation counts and the result line to standard output.
    pub fn print(&self) {
        for n in &self.notes {
            eprintln!("# {n}");
        }
        for (op, (a, f)) in &self.ops.0 {
            eprintln!("# op {op:<10} attempted {a:>7}  failed {f}");
        }
        for m in &self.metrics {
            eprintln!("# {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for e in &self.check_errors {
            eprintln!("# CHECK FAILED: {e}");
        }
        if self.check_count > self.check_errors.len() as u64 {
            eprintln!("# ... {} check failures in all", self.check_count);
        }
        println!("{}", self.ops_json());
        println!("{}", self.result_json());
    }
}

/// A JSON number with all its digits (non-finite values become 0).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
