//! Result format, summary statistics, and the compare mode.

use regent_trace::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 11] = [
    ("seq_s", "s"),
    ("implicit_s", "s"),
    ("memo_s", "s"),
    ("spmd_s", "s"),
    ("hybrid_s", "s"),
    ("log_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
];

/// The prefix of the line that opens each run's output; `compare`
/// keys result lines to workloads by it.
pub const HEADER: &str = "# perfbench workload=";

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Solves or jobs attempted (warm-ups included).
    pub attempted: u64,
    /// Of those, how many failed their correctness check.
    pub failed: u64,
    /// First few failure diagnostics.
    pub errors: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Counts one checked result.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// True when at least one result was checked and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: n,
        });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let mut name = String::new();
            json::escape_into(&mut name, &m.name);
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table, one `#`-prefixed line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            writeln!(
                out,
                "#   {:<28} {:>14.6} {:<13} n={}",
                m.name, m.value, m.unit, m.samples
            )
            .expect("write to String");
        }
        for e in &self.errors {
            writeln!(out, "# FAILED: {e}").expect("write to String");
        }
        out
    }
}

/// Arithmetic mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated `q`-quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric values per workload, parsed from captured benchmark output:
/// workload → metric → (unit, one value per run).
pub type Collected = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

/// Parses captured output of one or more runs. Each result line is
/// attributed to the workload named by the nearest preceding header.
pub fn collect(text: &str) -> Result<Collected, String> {
    let mut out = Collected::new();
    let mut workload: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(HEADER) {
            workload = rest.split_whitespace().next().map(str::to_string);
            continue;
        }
        if !line.starts_with('{') {
            continue;
        }
        let w = workload
            .clone()
            .ok_or_else(|| "result line before any run header".to_string())?;
        let v = json::parse(line)?;
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_obj())
            .ok_or_else(|| "result line without metrics".to_string())?;
        let slot = out.entry(w).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(|x| x.as_num());
            let unit = m.get("unit").and_then(|x| x.as_str());
            if let (Some(value), Some(unit)) = (value, unit) {
                let e = slot
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()));
                e.1.push(value);
            }
        }
    }
    Ok(out)
}

/// The compare report: for each workload and metric present in both
/// inputs, the base median, the new median, and their difference.
pub fn compare(base: &Collected, new: &Collected) -> String {
    let mut out = String::new();
    for (w, bm) in base {
        let Some(nm) = new.get(w) else { continue };
        writeln!(out, "== {w}").expect("write to String");
        writeln!(
            out,
            "{:<32} {:<13} {:>14} {:>14} {:>14} {:>9}",
            "metric", "unit", "base", "new", "delta", "delta%"
        )
        .expect("write to String");
        for (name, (unit, bv)) in bm {
            let Some((_, nv)) = nm.get(name) else {
                continue;
            };
            let (b, n) = (median(bv), median(nv));
            let pct = if b != 0.0 {
                format!("{:+.1}", (n - b) / b.abs() * 100.0)
            } else {
                "-".to_string()
            };
            writeln!(
                out,
                "{name:<32} {unit:<13} {b:>14.6} {n:>14.6} {:>+14.6} {pct:>9}",
                n - b
            )
            .expect("write to String");
        }
    }
    out
}
