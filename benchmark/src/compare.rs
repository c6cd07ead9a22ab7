//! `compare A.json B.json`: do two complete sets of runs agree within the
//! benchmark's own bounds?

use crate::json::Json;
use crate::metrics::{end_to_end, Better};
use crate::report::fmt_num;

struct Side {
    value: f64,
    spread: f64,
    exact: bool,
}

fn side(metric: &Json) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    let q1 = metric.get("q1").and_then(Json::as_f64).unwrap_or(value);
    let q3 = metric.get("q3").and_then(Json::as_f64).unwrap_or(value);
    Some(Side {
        value,
        spread: if value != 0.0 {
            (q3 - q1).abs() / value.abs()
        } else {
            0.0
        },
        exact: metric.get("exact").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// Prints one row per workload × metric and returns how many rows are
/// `worse`, `unresolved` or (for exact counts) `differs`.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let bounds = end_to_end();
    let workloads = a
        .get("workloads")
        .ok_or("first file has no \"workloads\"")?;
    let mut bad = 0;
    println!(
        "{:<11} {:<40} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for (workload, wa) in workloads.as_obj() {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("second file has no workload {workload}"))?;
        for section in ["end_to_end", "per_layer"] {
            let Some(ma) = wa.get(section) else { continue };
            for (name, metric_a) in ma.as_obj() {
                let (Some(sa), Some(sb)) = (
                    side(metric_a),
                    wb.get(section).and_then(|m| m.get(name)).and_then(side),
                ) else {
                    println!("{workload:<11} {name:<40} missing on one side  worse");
                    bad += 1;
                    continue;
                };
                let delta = if sa.value != 0.0 {
                    (sb.value - sa.value) / sa.value.abs()
                } else {
                    0.0
                };
                let decl = bounds.iter().find(|d| d.name == *name);
                let (bound, verdict) = match decl {
                    Some(d) => {
                        let bound = d.bound.unwrap_or(0.0);
                        let worse_by = match d.better {
                            Better::Lower => delta,
                            Better::Higher => -delta,
                        };
                        // A spread wider than the bound cannot show that
                        // the metric stayed within it. Set-up is exempt, as
                        // in the driver's rule: its first repeat runs cold
                        // by design, and only the median is compared.
                        let verdict = if name != "setup_s" && sa.spread.max(sb.spread) > bound {
                            "unresolved"
                        } else if worse_by > bound {
                            "worse"
                        } else {
                            "ok"
                        };
                        (format!("{:.0}%", bound * 100.0), verdict)
                    }
                    None if sa.exact || sb.exact => (
                        "exact".to_string(),
                        if sa.value.to_bits() == sb.value.to_bits() {
                            "ok"
                        } else {
                            "differs"
                        },
                    ),
                    // Layer timings have no bound; they explain, not gate.
                    None => ("-".to_string(), "-"),
                };
                if matches!(verdict, "unresolved" | "worse" | "differs") {
                    bad += 1;
                }
                println!(
                    "{workload:<11} {name:<40} {:>14} {:>14} {:>+8.2}% {bound:>7}  {verdict}",
                    fmt_num(sa.value),
                    fmt_num(sb.value),
                    delta * 100.0
                );
            }
        }
    }
    println!("{bad} row(s) worse, unresolved or differing");
    Ok(bad)
}
