//! What one run of one workload produces, and its three renderings: the
//! table a person reads, the result file `compare` reads, and the one
//! JSON line the driver reads.

use crate::json::Json;
use crate::metrics::{Decl, Metric};
use std::collections::BTreeSet;

/// Attempts and failures of the correctness gate. Every parallel result,
/// job outcome and simulation is one attempt, checked against
/// `core::serial::run` (or `SimTree::leaf_count`).
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// The offending instance, seed and `Config` of each failure.
    pub failures: Vec<String>,
}

impl Gate {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        // A broken build fails every sample; a screenful says it as well.
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Record one checked result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(what());
        }
    }
}

pub struct RunOutput {
    pub workload: String,
    pub traced: bool,
    pub gate: Gate,
    pub metrics: Vec<Metric>,
}

impl RunOutput {
    /// The names emitted must be exactly the names declared: a metric that
    /// silently goes missing would read as "no regression".
    pub fn check_names(&self, declared: &[Decl]) -> Result<(), String> {
        let want: BTreeSet<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        let got: BTreeSet<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        if self.metrics.len() != got.len() {
            return Err("a metric was emitted twice".into());
        }
        if want != got {
            let missing: Vec<_> = want.difference(&got).collect();
            let extra: Vec<_> = got.difference(&want).collect();
            return Err(format!("metrics missing {missing:?}, undeclared {extra:?}"));
        }
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        Ok(())
    }

    pub fn print_table(&self, declared: &[Decl]) {
        println!(
            "\n== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced pass: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            }
        );
        println!(
            "{:<44} {:>16} {:<9} {:>4} {:>14} {:>14}",
            "metric", "value", "unit", "n", "q1", "q3"
        );
        for d in declared {
            let Some(m) = self.metrics.iter().find(|m| m.name == d.name) else {
                continue;
            };
            println!(
                "{:<44} {:>16} {:<9} {:>4} {:>14} {:>14}{}",
                m.name,
                fmt_num(m.value),
                d.unit,
                m.n,
                fmt_num(m.q1),
                fmt_num(m.q3),
                if m.exact { "  exact" } else { "" }
            );
        }
        println!(
            "correctness: {} attempted, {} failed (failed_share {})",
            self.gate.attempted,
            self.gate.failed,
            self.gate.failed as f64 / self.gate.attempted.max(1) as f64
        );
        for f in &self.gate.failures {
            println!("FAILED: {f}");
        }
    }

    /// The result file: everything `compare` and the full run need.
    pub fn to_json(&self, declared: &[Decl], fingerprint: Json) -> Json {
        let metrics = declared
            .iter()
            .filter_map(|d| {
                let m = self.metrics.iter().find(|m| m.name == d.name)?;
                let mut pairs = vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better.name())),
                    ("n", Json::num(m.n as f64)),
                    ("median", Json::num(m.median)),
                    ("q1", Json::num(m.q1)),
                    ("q3", Json::num(m.q3)),
                ];
                if m.exact {
                    pairs.push(("exact", Json::Bool(true)));
                }
                Some((d.name.clone(), Json::obj(pairs)))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload.clone())),
            ("traced", Json::Bool(self.traced)),
            ("fingerprint", fingerprint),
            ("attempted", Json::num(self.gate.attempted as f64)),
            ("failed", Json::num(self.gate.failed as f64)),
            (
                "failed_share",
                Json::num(self.gate.failed as f64 / self.gate.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(self.gate.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            ("claim", Json::Null),
        ])
    }

    /// The last line of standard output, in the driver's format.
    pub fn contract_line(&self, declared: &[Decl]) -> String {
        let metrics = declared
            .iter()
            .filter_map(|d| {
                let m = self.metrics.iter().find(|m| m.name == d.name)?;
                Some((
                    d.name.clone(),
                    Json::obj(vec![
                        ("value", Json::num(m.value)),
                        ("unit", Json::str(d.unit)),
                    ]),
                ))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.gate.failed == 0)),
            ("attempted", Json::num(self.gate.attempted as f64)),
            ("failed", Json::num(self.gate.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }
}

/// Six significant digits for the table; files keep every digit.
pub fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return "-".into();
    }
    let a = x.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1e6 {
        format!("{x:.4e}")
    } else if a >= 100.0 {
        format!("{x:.1}")
    } else if a >= 1.0 {
        format!("{x:.4}")
    } else {
        format!("{x:.6}")
    }
}
