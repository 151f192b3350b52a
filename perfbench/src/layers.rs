//! The per-layer metric set. Every workload reports every metric, in this
//! order; a layer a workload does not reach from outside reads 0 there
//! (see the layer table in `perfbench/README.md`).

use crate::common::{median, percentile, ratio, ServeStats};
use crate::trace::Tracer;
use crate::Report;

/// Per-layer measurements gathered from the traced iterations, the
/// counting pass and the end-of-run checks.
#[derive(Default)]
pub struct Layers {
    // aim-monitor
    pub select_ms: Vec<f64>,
    pub fingerprints: Vec<f64>,
    pub selected: Vec<f64>,
    // aim-core candidates + partial_order
    pub gen_ms: Vec<f64>,
    pub candidates: Vec<f64>,
    pub merges: f64,
    // aim-core ranking + aim-exec what-if planner
    pub rank_ms: Vec<f64>,
    pub whatif_hits: u64,
    pub whatif_misses: u64,
    pub knapsack_ms: Vec<f64>,
    pub chosen: Vec<f64>,
    pub chosen_bytes: Vec<f64>,
    // aim-core validate
    pub validate_ms: Vec<f64>,
    pub stmts_replayed: f64,
    pub replay_rows_read: f64,
    pub rounds: f64,
    pub accepted: Vec<f64>,
    pub rejected: Vec<f64>,
    // aim-storage
    pub clone_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub build_rows_written: Vec<f64>,
    pub load_wal_bytes_per_row: f64,
    // aim-exec executor + aim-monitor record, on the traced iterations
    pub serve: ServeStats,
    // aim-core continuous
    pub created: u64,
    pub reverted: u64,
    pub dropped_unused: u64,
    // counting pass
    pub count_statements: f64,
    pub count_rows_read: f64,
    // the traced run itself
    pub traced_iterations: usize,
    pub coverage: f64,
    pub overhead_tune_ms: f64,
    pub overhead_stmt_us: f64,
}

/// Span names whose self time is reported, as `self_ms.<name>`.
const SELF_TIME_SPANS: [&str; 14] = [
    "iteration",
    "tune",
    "serve",
    "monitor.select",
    "monitor.record",
    "candidates.gen",
    "ranking.whatif_base",
    "ranking.rank",
    "ranking.knapsack",
    "validate",
    "storage.clone",
    "storage.build",
    "continuous.step",
    "exec",
];

impl Layers {
    /// Appends every per-layer metric to `report`.
    pub fn report(&self, tracer: &Tracer, report: &mut Report) {
        let n = |v: &Vec<f64>| v.len();
        let s = &self.serve;
        report.layer(
            "monitor.record_us.p50",
            median(&s.record_us),
            "us",
            s.record_us.len(),
        );
        report.layer(
            "monitor.select_ms",
            median(&self.select_ms),
            "ms",
            n(&self.select_ms),
        );
        report.layer(
            "monitor.fingerprints",
            median(&self.fingerprints),
            "count",
            n(&self.fingerprints),
        );
        report.layer(
            "monitor.selected",
            median(&self.selected),
            "count",
            n(&self.selected),
        );

        report.layer(
            "candidates.gen_ms",
            median(&self.gen_ms),
            "ms",
            n(&self.gen_ms),
        );
        report.layer(
            "candidates.count",
            median(&self.candidates),
            "count",
            n(&self.candidates),
        );
        report.layer("candidates.merges", self.merges, "count", 1);

        let lookups = self.whatif_hits + self.whatif_misses;
        report.layer(
            "ranking.rank_ms",
            median(&self.rank_ms),
            "ms",
            n(&self.rank_ms),
        );
        report.layer(
            "ranking.whatif_plans",
            ratio(self.whatif_misses as f64, n(&self.rank_ms) as f64),
            "count",
            n(&self.rank_ms),
        );
        report.layer(
            "ranking.whatif_hit_rate",
            ratio(self.whatif_hits as f64, lookups as f64),
            "ratio",
            lookups as usize,
        );
        report.layer(
            "ranking.knapsack_ms",
            median(&self.knapsack_ms),
            "ms",
            n(&self.knapsack_ms),
        );
        report.layer(
            "ranking.chosen",
            median(&self.chosen),
            "count",
            n(&self.chosen),
        );
        report.layer(
            "ranking.chosen_bytes",
            median(&self.chosen_bytes),
            "B",
            n(&self.chosen_bytes),
        );

        let accepted = median(&self.accepted);
        report.layer(
            "validate.ms",
            median(&self.validate_ms),
            "ms",
            n(&self.validate_ms),
        );
        report.layer("validate.stmts_replayed", self.stmts_replayed, "count", 1);
        report.layer("validate.rows_read", self.replay_rows_read, "count", 1);
        report.layer("validate.rounds", self.rounds, "count", 1);
        report.layer("validate.accepted", accepted, "count", n(&self.accepted));
        report.layer(
            "validate.rejected",
            median(&self.rejected),
            "count",
            n(&self.rejected),
        );
        report.layer(
            "validate.accept_ratio",
            ratio(accepted, median(&self.chosen)),
            "ratio",
            n(&self.accepted),
        );

        let stmts = s.statements as f64;
        report.layer(
            "storage.clone_ms",
            median(&self.clone_ms),
            "ms",
            n(&self.clone_ms),
        );
        report.layer(
            "storage.build_ms",
            median(&self.build_ms),
            "ms",
            n(&self.build_ms),
        );
        report.layer(
            "storage.build_rows_written",
            median(&self.build_rows_written),
            "count",
            n(&self.build_rows_written),
        );
        report.layer(
            "storage.load_wal_bytes_per_row",
            self.load_wal_bytes_per_row,
            "B/row",
            1,
        );
        report.layer(
            "storage.wal_bytes_per_dml_row",
            ratio(s.dml_wal_bytes as f64, s.dml_rows as f64),
            "B/row",
            s.dml_rows as usize,
        );
        report.layer(
            "storage.fsyncs",
            ratio(s.fsyncs as f64, stmts),
            "1/stmt",
            s.statements as usize,
        );
        report.layer(
            "storage.bp_hit_rate",
            ratio(s.bp_hits as f64, (s.bp_hits + s.bp_misses) as f64),
            "ratio",
            (s.bp_hits + s.bp_misses) as usize,
        );
        report.layer(
            "storage.bp_evictions",
            ratio(s.bp_evictions as f64, stmts),
            "1/stmt",
            s.statements as usize,
        );
        report.layer(
            "storage.pages_faulted",
            ratio(s.pages_faulted as f64, stmts),
            "1/stmt",
            s.statements as usize,
        );

        report.layer(
            "exec.select_us.p50",
            median(&s.select_us),
            "us",
            s.select_us.len(),
        );
        report.layer(
            "exec.select_us.p99",
            percentile(&s.select_us, 99.0),
            "us",
            s.select_us.len(),
        );
        report.layer("exec.dml_us.p50", median(&s.dml_us), "us", s.dml_us.len());
        report.layer(
            "exec.dml_us.p99",
            percentile(&s.dml_us, 99.0),
            "us",
            s.dml_us.len(),
        );
        report.layer(
            "exec.pages_read_per_stmt",
            ratio(s.pages_read as f64, stmts),
            "1/stmt",
            s.statements as usize,
        );
        report.layer(
            "exec.rows_read_per_row_sent",
            ratio(s.rows_read as f64, s.rows_sent as f64),
            "ratio",
            s.statements as usize,
        );

        report.layer("continuous.created", self.created as f64, "count", 1);
        report.layer("continuous.reverted", self.reverted as f64, "count", 1);
        report.layer(
            "continuous.dropped_unused",
            self.dropped_unused as f64,
            "count",
            1,
        );
        report.layer(
            "continuous.churn_ratio",
            ratio(
                (self.reverted + self.dropped_unused) as f64,
                self.created as f64,
            ),
            "ratio",
            1,
        );

        report.layer("count.exec_statements", self.count_statements, "count", 1);
        report.layer("count.exec_rows_read", self.count_rows_read, "count", 1);
        report.layer("regressions", report.regressions as f64, "count", 1);
        report.layer(
            "failed_frac",
            report.failed_frac(),
            "ratio",
            report.attempted as usize,
        );

        let self_ns = tracer.self_time_ns();
        let iters = self.traced_iterations.max(1) as f64;
        for name in SELF_TIME_SPANS {
            let ns = self_ns.get(name).copied().unwrap_or(0);
            report.layer(
                &format!("self_ms.{name}"),
                ns as f64 / 1e6 / iters,
                "ms",
                self.traced_iterations,
            );
        }
        report.layer(
            "trace.coverage",
            self.coverage,
            "ratio",
            self.traced_iterations,
        );
        report.layer(
            "trace.overhead_tune_ms",
            self.overhead_tune_ms,
            "ms",
            self.traced_iterations,
        );
        report.layer(
            "trace.overhead_stmt_us",
            self.overhead_stmt_us,
            "us",
            s.stmt_us.len(),
        );
    }
}
