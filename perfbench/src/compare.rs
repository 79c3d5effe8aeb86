//! `jouppi-bench compare A.json B.json`: the regression gate.
//!
//! Each file holds the runs of one commit (written by a full run with
//! `--out`). For every workload and end-to-end metric the gate prints
//! each side's median and quartiles and a verdict, with the bounds read
//! from `BENCHMARK.json`:
//!
//! * **unresolved** — either side's spread (interquartile range over
//!   median) is wider than the bound, unless every run of B reads better
//!   than every run of A (then **better**);
//! * **worse** / **better** — B's median differs from A's by more than
//!   the bound, in the metric's bad / good direction;
//! * **same** — otherwise.

use jouppi_serve::json::Json;

use crate::{median, quartiles};

/// One metric as declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

/// Whether `name` is made only of letters, digits, `_`, `.` and `-`,
/// starts with a letter or digit, and is at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metric_specs(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("'{key}' must be an array"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("{key}: every metric needs a string '{k}'"))
            };
            let name = field("name")?;
            if !valid_name(&name) {
                return Err(format!("{key}: invalid metric name '{name}'"));
            }
            let better = field("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("{name}: 'better' must be higher or lower"));
            }
            Ok(MetricSpec {
                unit: field("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
                name,
            })
        })
        .collect()
}

/// Parses and checks `BENCHMARK.json`.
///
/// # Errors
///
/// A message naming the first field that is missing or malformed.
pub fn parse_bench_spec(text: &str) -> Result<BenchSpec, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("'workloads' must be an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .filter(|n| valid_name(n))
                .map(str::to_owned)
                .ok_or_else(|| "every workload needs a valid 'name'".to_owned())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let end_to_end = metric_specs(&doc, "end_to_end")?;
    if let Some(m) = end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!("end-to-end metric {} has no bound", m.name));
    }
    Ok(BenchSpec {
        workloads,
        end_to_end,
        per_layer: metric_specs(&doc, "per_layer")?,
    })
}

/// The verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// B is worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over median; 0 with fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

/// Judges B against A for one metric (see the module docs).
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a) > bound || spread(b) > bound {
        return if all_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let worse_by = if higher_is_better { -change } else { change };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Values of `metric` for `workload` across the runs in a results file.
fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// One printed row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// The formatted line.
    pub line: String,
}

fn side(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    format!(
        "{:>12.4} [{:>10.4} {:>10.4}] n={}",
        median(values),
        q1,
        q3,
        values.len()
    )
}

/// Compares two results files under `spec`'s end-to-end bounds.
pub fn compare(spec: &BenchSpec, a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(a, workload, &m.name), values(b, workload, &m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let verdict = verdict(&va, &vb, bound, m.higher_is_better);
            let change = 100.0 * (median(&vb) - median(&va)) / median(&va).abs();
            rows.push(Row {
                metric: m.name.clone(),
                verdict,
                line: format!(
                    "{workload:<16} {:<12} {:<6} A {}  B {}  {change:>+7.2}% (bound {:.0}%)  {}",
                    m.name,
                    m.unit,
                    side(&va),
                    side(&vb),
                    100.0 * bound,
                    verdict.label()
                ),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_letters_digits_and_separators() {
        assert!(valid_name("trace.record.ns_per_ref"));
        assert!(valid_name("p50_ms"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
