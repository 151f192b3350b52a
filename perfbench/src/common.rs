//! Pieces every workload shares: the served-statement path and its
//! accounting, result-row comparison, the counting pass and percentiles.

use crate::layers::Layers;
use crate::trace::Tracer;
use crate::Report;
use aim_exec::{Engine, ExecError, ExecOutcome};
use aim_monitor::WorkloadMonitor;
use aim_sql::ast::Statement;
use aim_storage::{Database, Row, Value};
use aim_workloads::rng::{Rng, StdRng};
use std::time::Instant;

/// The `q`-th percentile (`q` in 0..=100) of `samples`: the smallest sample
/// at or above the q-quantile (numpy's `higher` method); 0 when empty.
///
/// For an even count the median is the upper of the two middle samples.
/// The TPC-H streams hold 22 shapes in equal numbers, so the lower middle
/// sample would always be the slowest execution of the 11th-fastest shape —
/// a tail value that moves with every hiccup — and the upper one is the
/// fastest execution of the 12th.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let index = ((q / 100.0) * (v.len() - 1) as f64).ceil() as usize;
    v[index.min(v.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Accounting for served statements. A served statement is the production
/// path: `Engine::execute` followed by `WorkloadMonitor::record`.
#[derive(Default)]
pub struct ServeStats {
    /// Wall time of execute + record, per statement.
    pub stmt_us: Vec<f64>,
    pub record_us: Vec<f64>,
    /// Wall time of `Engine::execute` alone, by statement kind.
    pub select_us: Vec<f64>,
    pub dml_us: Vec<f64>,
    pub statements: u64,
    pub pages_read: u64,
    pub rows_read: u64,
    pub rows_sent: u64,
    /// Storage-counter deltas, taken around each execute when `storage` is
    /// requested (disk backend only; zero on the memory backend).
    pub dml_rows: u64,
    pub dml_wal_bytes: u64,
    pub fsyncs: u64,
    pub bp_hits: u64,
    pub bp_misses: u64,
    pub bp_evictions: u64,
    pub pages_faulted: u64,
}

impl ServeStats {
    /// Serves one statement and records it into `monitor`. Spans `exec`
    /// and `monitor.record` are recorded when the tracer is on.
    pub fn serve(
        &mut self,
        db: &mut Database,
        engine: &Engine,
        stmt: &Statement,
        monitor: &mut WorkloadMonitor,
        tr: &mut Tracer,
        storage: bool,
    ) -> Result<ExecOutcome, ExecError> {
        let before = storage.then(|| db.storage_counters());
        tr.enter("exec");
        let t0 = Instant::now();
        let res = engine.execute(db, stmt);
        let t1 = Instant::now();
        tr.exit();
        let after = storage.then(|| db.storage_counters());
        let out = res?;
        self.statements += 1;
        tr.enter("monitor.record");
        let t2 = Instant::now();
        monitor.record(stmt, &out);
        let t3 = Instant::now();
        tr.exit();

        let exec_us = (t1 - t0).as_secs_f64() * 1e6;
        let record_us = (t3 - t2).as_secs_f64() * 1e6;
        self.stmt_us.push(exec_us + record_us);
        self.record_us.push(record_us);
        let is_select = matches!(stmt, Statement::Select(_));
        if is_select {
            self.select_us.push(exec_us);
        } else {
            self.dml_us.push(exec_us);
        }
        self.pages_read += out.io.pages_read;
        self.rows_read += out.io.rows_read;
        self.rows_sent += out.rows_sent();
        self.pages_faulted += out.io.pages_faulted;
        if let (Some(b), Some(a)) = (before, after) {
            if !is_select {
                self.dml_rows += out.affected;
                self.dml_wal_bytes += a.wal_bytes - b.wal_bytes;
            }
            self.fsyncs += a.wal_fsyncs - b.wal_fsyncs;
            self.bp_hits += a.bp_hits - b.bp_hits;
            self.bp_misses += a.bp_misses - b.bp_misses;
            self.bp_evictions += a.bp_evictions - b.bp_evictions;
        }
        Ok(out)
    }
}

/// Canonical form of a result set: rows sorted, so a plan change that only
/// reorders an unordered result still compares equal.
pub fn canonical_rows(rows: &[Row]) -> Vec<Row> {
    let mut out = rows.to_vec();
    out.sort_by(|a, b| {
        // Floats are compared at 9 significant digits so that a different
        // summation order (another plan) does not change the sort order.
        let key = |r: &Row| -> Vec<String> {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("F{f:.8e}"),
                    other => format!("{other:?}"),
                })
                .collect()
        };
        key(a).cmp(&key(b))
    });
    out
}

/// True when two canonical result sets hold the same rows. Floats may
/// differ by summation order only (relative 1e-9).
pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::Float(x), Value::Float(y)) => {
                        x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
                    }
                    _ => x == y,
                })
        })
}

/// The program's own counters the counting pass reads.
pub const COUNTERS: [&str; 4] = [
    "exec.statements",
    "exec.rows_read",
    "aim.partial_order_merges",
    "aim.validation_rounds",
];

/// Current values of the named telemetry counters.
pub fn counters(names: &[&str]) -> Vec<u64> {
    let snap = aim_telemetry::snapshot();
    names.iter().map(|n| snap.counter(n).unwrap_or(0)).collect()
}

/// Counter deltas of one counting pass, in [`COUNTERS`] order, followed by
/// the validation-replay statement and row deltas `f` returns.
fn counted(f: impl FnOnce() -> (u64, u64)) -> Vec<u64> {
    aim_exec::whatif::global().clear();
    aim_telemetry::reset();
    aim_telemetry::enable();
    let c0 = counters(&COUNTERS);
    let (replay_statements, replay_rows) = f();
    let c1 = counters(&COUNTERS);
    // Off again, so no timed work runs with telemetry on.
    aim_telemetry::disable();
    aim_telemetry::reset();
    let mut out: Vec<u64> = c1.iter().zip(&c0).map(|(a, b)| a - b).collect();
    out.extend([replay_statements, replay_rows]);
    out
}

/// Runs the counting pass `once` twice with the program's telemetry armed,
/// checks that the counts repeat exactly and stores them in `layers`.
pub fn counting_pass(
    report: &mut Report,
    layers: &mut Layers,
    mut once: impl FnMut() -> (u64, u64),
) {
    let first = counted(&mut once);
    let second = counted(&mut once);
    report.check(
        "counts_repeat",
        first == second,
        format!("{COUNTERS:?} + replay deltas: {first:?} vs {second:?}"),
    );
    layers.count_statements = first[0] as f64;
    layers.count_rows_read = first[1] as f64;
    layers.merges = first[2] as f64;
    layers.rounds = first[3] as f64;
    layers.stmts_replayed = first[4] as f64;
    layers.replay_rows_read = first[5] as f64;
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `setup` `n` times; returns each run's wall time in seconds and the
/// last run's value.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("at least one set-up"))
}
