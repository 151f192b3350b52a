//! End-to-end and per-layer benchmark of the AIM tuning pipeline.
//!
//! Usage (from the repository root):
//!
//! ```text
//! perfbench --workload <tpch_tune|tpch_advise|prod_d_writes> --seed <n>
//!           --seconds <s> --trace <0|1> [--data-dir <dir>] [--spans-out <file>]
//! ```
//!
//! `--trace 0` times the workload with nothing but wall clocks around the
//! program's public calls and reports the end-to-end metrics. `--trace 1`
//! alternates untraced and traced iterations, runs the counting pass, and
//! reports the per-layer metrics. Human-readable lines come first; the last
//! line of standard output is one JSON object. The exit code is non-zero
//! when any correctness check fails. See `perfbench/README.md`.

mod common;
mod layers;
mod prod;
mod tpch;
mod trace;

use std::path::PathBuf;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub data_dir: PathBuf,
    pub spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_dir = PathBuf::from(".perfbench-data");
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--data-dir" => data_dir = PathBuf::from(value),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        data_dir,
        spans_out,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Number of samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Statement shapes whose per-execution cost after tuning exceeds λ₃
    /// times the cost before (the paper guarantees none).
    pub regressions: usize,
    /// (check name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// JSON has no NaN or infinity, and a metric that is one shows a bug in
    /// the benchmark: it fails the run and prints as 0.
    fn guard_non_finite(&mut self) {
        let mut bad = Vec::new();
        for m in self.end_to_end.iter_mut().chain(&mut self.per_layer) {
            if !m.value.is_finite() {
                bad.push(m.name.clone());
                m.value = 0.0;
            }
        }
        if !bad.is_empty() {
            self.check("finite_metrics", false, bad.join(", "));
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn print_report(workload: &str, trace: bool, report: &Report) {
    for (name, ok, detail) in &report.checks {
        println!(
            "check {name}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let sections = [
        ("end_to_end", &report.end_to_end),
        ("per_layer", &report.per_layer),
    ];
    for (section, metrics) in sections {
        for m in metrics.iter() {
            println!(
                "{workload} {section} {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    println!(
        "{workload} attempted = {}, failed = {}, failed_frac = {}, regressions = {}",
        report.attempted,
        report.failed,
        report.failed_frac(),
        report.regressions
    );
    let chosen = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The timed runs measure the program with its telemetry off (its
    // default); only the counting pass arms it.
    aim_telemetry::disable();
    let mut report = match args.workload.as_str() {
        "tpch_tune" => tpch::run_tune(&args),
        "tpch_advise" => tpch::run_advise(&args),
        "prod_d_writes" => prod::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    report.guard_non_finite();
    print_report(&args.workload, args.trace, &report);
    if !report.correct() {
        std::process::exit(1);
    }
}
