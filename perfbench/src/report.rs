//! What a workload run hands back, and the minimal JSON writer the result
//! lines are printed with.

use std::fmt::Write as _;

use crate::stats::Pct;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn s(text: impl Into<String>) -> J {
        J::Str(text.into())
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest round-trip form: every digit as measured.
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    J::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or learner steps) attempted in the measured window.
    pub attempted: u64,
    /// Of those, how many failed or were refused.
    pub failed: u64,
    /// Output checks that ran, by name.
    pub checks: Vec<String>,
    /// Output checks that failed, with the reason.
    pub check_failures: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Settings, sample counts and which percentile each tail metric is.
    pub notes: Vec<(String, J)>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.e2e.push(Metric { name, unit, value });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push(Metric { name, unit, value });
    }

    /// Records a note.
    pub fn note(&mut self, key: &str, value: J) {
        self.notes.push((key.to_string(), value));
    }

    /// Records a percentile metric and notes which percentile it really
    /// is and over how many samples.
    pub fn pct(&mut self, name: &'static str, unit: &'static str, p: Option<Pct>, scale: f64) {
        match p {
            Some(p) => {
                self.e2e(name, unit, p.value * scale);
                self.note(
                    name,
                    J::obj([
                        ("percentile", J::Num(p.pct)),
                        ("samples", J::Int(p.n as u64)),
                    ]),
                );
            }
            None => self.fail(format!("{name}: too few samples for a percentile")),
        }
    }

    /// Runs a named output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(name.to_string());
        if !ok {
            self.check_failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Records a failure that is not tied to a named check.
    pub fn fail(&mut self, reason: String) {
        self.check_failures.push(reason);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// Metric list as a `{"name": {"value": .., "unit": ..}}` object.
pub fn metrics_json(metrics: &[Metric]) -> J {
    J::obj(metrics.iter().map(|m| {
        (
            m.name,
            J::obj([("value", J::Num(m.value)), ("unit", J::s(m.unit))]),
        )
    }))
}
