//! Metrics, checks, and the output: a readable report on stderr-free
//! stdout lines, a results file, and the final one-line JSON.

use crate::stats::Summary;
use std::fmt::Write as _;
use std::path::Path;

/// One reported figure, with the sample it was computed from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The measurements the value summarizes (a single value when the
    /// metric is one measurement).
    pub samples: Vec<f64>,
    /// What the figure is, in the workload's own terms.
    pub what: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        what: impl Into<String>,
    ) -> Self {
        Metric { name, unit, value, samples: vec![value], what: what.into() }
    }

    pub fn with_samples(mut self, samples: Vec<f64>) -> Self {
        if !samples.is_empty() {
            self.samples = samples;
        }
        self
    }
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Repetitions inside the run (set-ups, rounds, rate steps), by name.
    pub runs: Vec<(&'static str, usize)>,
    /// Extra lines for the results file (phase counters and the like),
    /// each a JSON value.
    pub details: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, passed, detail: detail.into() });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn detail(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.details.push((key.into(), json.into()));
    }
}

/// Process peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number; `null` for a non-finite value (a p99 that landed on a
/// failed request).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
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
    out
}

/// Prints the readable report: every metric by name and unit with its
/// sample count, then every check.
pub fn print_readable(workload: &str, r: &Report) {
    println!("workload {workload}");
    for m in &r.metrics {
        println!(
            "  {:<40} {:>14.6} {:<8} n={:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.samples.len(),
            m.what
        );
    }
    for c in &r.checks {
        println!("  check {:<36} {}  {}", c.name, if c.passed { "ok  " } else { "FAIL" }, c.detail);
    }
    println!("  attempted {} failed {}", r.attempted, r.failed);
}

/// Where the results file came from.
pub struct Provenance<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub commit: String,
    pub source_digest: String,
}

/// Writes the results file: provenance, repetition counts, and each
/// metric's min, quartiles, median and max over its sample.
pub fn write_results(path: &Path, p: &Provenance, r: &Report) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", string(p.workload));
    let _ = writeln!(s, "  \"seed\": {},", p.seed);
    let _ = writeln!(s, "  \"seconds\": {},", p.seconds);
    let _ = writeln!(s, "  \"trace\": {},", p.trace);
    let _ = writeln!(s, "  \"nproc\": {},", p.nproc);
    let _ = writeln!(s, "  \"commit\": {},", string(&p.commit));
    let _ = writeln!(s, "  \"source_digest\": {},", string(&p.source_digest));
    let runs: Vec<String> = r.runs.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    let _ = writeln!(s, "  \"runs\": {{{}}},", runs.join(", "));
    let _ = writeln!(s, "  \"correct\": {},", r.correct());
    let _ = writeln!(s, "  \"attempted\": {},", r.attempted);
    let _ = writeln!(s, "  \"failed\": {},", r.failed);
    s.push_str("  \"metrics\": {\n");
    for (i, m) in r.metrics.iter().enumerate() {
        let sum = Summary::of(&m.samples).expect("metrics carry at least one sample");
        let _ = writeln!(
            s,
            "    {}: {{\"value\": {}, \"unit\": {}, \"what\": {}, \"n\": {}, \"min\": {}, \"q1\": {}, \
             \"median\": {}, \"q3\": {}, \"max\": {}}}{}",
            string(m.name),
            num(m.value),
            string(m.unit),
            string(&m.what),
            sum.n,
            num(sum.min),
            num(sum.q1),
            num(sum.median),
            num(sum.q3),
            num(sum.max),
            if i + 1 < r.metrics.len() { "," } else { "" }
        );
    }
    s.push_str("  },\n  \"checks\": [\n");
    for (i, c) in r.checks.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"passed\": {}, \"detail\": {}}}{}",
            string(c.name),
            c.passed,
            string(&c.detail),
            if i + 1 < r.checks.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"details\": {\n");
    for (i, (k, v)) in r.details.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {}: {}{}",
            string(k),
            v,
            if i + 1 < r.details.len() { "," } else { "" }
        );
    }
    s.push_str("  }\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

/// The final line: `correct`, `attempted`, `failed` and the metrics named
/// in `names` (in that order).
pub fn result_line(r: &Report, names: &[&str]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|n| {
            let m =
                r.metrics.iter().find(|m| m.name == *n).expect("every listed metric is measured");
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 5, ..Default::default() };
        r.metric(Metric::new("setup_s", "s", 1.25, "set-up"));
        r.metric(Metric::new("other", "ms", 2.0, "not listed"));
        r.check("x", true, "");
        assert_eq!(
            result_line(&r, &["setup_s"]),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        r.check("y", false, "");
        assert!(result_line(&r, &["setup_s"]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
