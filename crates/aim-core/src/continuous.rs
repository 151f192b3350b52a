//! Continuous tuning (§VI-D) and the continuous regression detector
//! (§VII-C).
//!
//! AIM achieves continuous tuning by re-running the (cheap) tuning pass
//! periodically. Between passes, an off-host regression detector watches
//! the average CPU of every normalized query; a regression attributed to an
//! automation-created index flags that index for removal. Unused
//! indexes are detected from the workload window and dropped.

use crate::driver::AimOutcome;
use crate::error::AimError;
use crate::sentinel::LatencySentinel;
use crate::session::TuningSession;
use aim_monitor::WorkloadMonitor;
use aim_sql::normalize::QueryFingerprint;
use aim_storage::{Database, IndexDef};
use std::collections::{BTreeMap, BTreeSet};

/// Prefix of every index name AIM creates; regressions are only ever
/// auto-reverted for automation-owned indexes.
pub const AIM_INDEX_PREFIX: &str = "aim_";

/// A detected per-query performance regression.
#[derive(Debug, Clone)]
pub struct Regression {
    pub query: QueryFingerprint,
    /// Baseline average CPU per execution (cost units).
    pub baseline: f64,
    /// Current average CPU per execution.
    pub current: f64,
    /// AIM indexes used by the query's current plan (revert suspects).
    pub suspect_indexes: Vec<String>,
}

/// Watches per-query average CPU across observation windows.
#[derive(Debug, Clone)]
pub struct RegressionDetector {
    /// Tolerated relative growth before a regression is declared.
    pub tolerance: f64,
    baselines: BTreeMap<QueryFingerprint, f64>,
}

impl RegressionDetector {
    /// Detector tolerating `tolerance` relative growth (e.g. `0.5` = 50%).
    pub fn new(tolerance: f64) -> Self {
        Self {
            tolerance,
            baselines: BTreeMap::new(),
        }
    }

    /// Folds the current window into the baselines. The baseline keeps the
    /// *best* (lowest) observed average so a slow creep cannot mask a
    /// regression; queries seen for the first time just register.
    pub fn absorb(&mut self, monitor: &WorkloadMonitor) {
        for q in monitor.queries() {
            if q.executions == 0 {
                continue;
            }
            let avg = q.cpu_avg();
            self.baselines
                .entry(q.fingerprint)
                .and_modify(|b| *b = b.min(avg))
                .or_insert(avg);
        }
    }

    /// Compares the current window against the baselines.
    pub fn detect(&self, monitor: &WorkloadMonitor) -> Vec<Regression> {
        let mut out = Vec::new();
        for q in monitor.queries() {
            let Some(&baseline) = self.baselines.get(&q.fingerprint) else {
                continue;
            };
            if baseline <= 0.0 || q.executions == 0 {
                continue;
            }
            let current = q.cpu_avg();
            if current > baseline * (1.0 + self.tolerance) {
                let suspect_indexes = q
                    .indexes_used
                    .iter()
                    .filter(|u| u.index.starts_with(AIM_INDEX_PREFIX))
                    .map(|u| u.index.clone())
                    .collect();
                out.push(Regression {
                    query: q.fingerprint,
                    baseline,
                    current,
                    suspect_indexes,
                });
            }
        }
        out
    }

    /// Number of queries with a recorded baseline.
    pub fn baseline_count(&self) -> usize {
        self.baselines.len()
    }
}

/// AIM-created secondary indexes that no query in the window used.
pub fn find_unused_indexes(db: &Database, monitor: &WorkloadMonitor) -> Vec<IndexDef> {
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for q in monitor.queries() {
        for u in &q.indexes_used {
            used.insert(u.index.as_str());
        }
    }
    db.all_indexes()
        .into_iter()
        .filter(|d| d.name.starts_with(AIM_INDEX_PREFIX) && !used.contains(d.name.as_str()))
        .collect()
}

/// Outcome of one continuous-tuning step.
#[derive(Debug, Clone, Default)]
pub struct ContinuousOutcome {
    /// The tuning pass result.
    pub tuning: AimOutcome,
    /// Indexes dropped because a per-query regression implicated them.
    pub reverted: Vec<String>,
    /// Indexes dropped as unused over the window.
    pub dropped_unused: Vec<String>,
    /// Indexes rolled back by the latency sentinel: the previous step's
    /// materialization regressed the windowed select-latency statistic.
    pub rolled_back: Vec<String>,
}

/// Periodic tuner: regression-revert, tune, optionally garbage-collect
/// unused automation indexes, then refresh regression baselines.
#[derive(Debug, Clone)]
pub struct ContinuousTuner {
    /// The resilient session driving each pass; its deadline, retry policy
    /// and cancel token apply to every [`ContinuousTuner::step`].
    pub session: TuningSession,
    pub detector: RegressionDetector,
    /// Drop AIM indexes unused for `unused_grace_windows` consecutive
    /// windows. `0` disables the GC.
    pub unused_grace_windows: usize,
    unused_streak: BTreeMap<String, usize>,
    /// Indexes created by the previous step: the only revert candidates —
    /// §VII-C flags "a regression ... due to an index added by automation",
    /// i.e. a *recent* change, not any index the plan happens to use.
    recently_created: BTreeSet<String>,
    /// Optional aggregate-latency watchdog over the windowed telemetry
    /// (see [`crate::sentinel`]); armed after every materializing pass.
    sentinel: Option<LatencySentinel>,
}

impl ContinuousTuner {
    /// Creates a continuous tuner around a configured [`TuningSession`],
    /// inheriting its deadline, retry policy and cancel token per step.
    pub fn with_session(session: TuningSession, regression_tolerance: f64) -> Self {
        Self {
            session,
            detector: RegressionDetector::new(regression_tolerance),
            unused_grace_windows: 2,
            unused_streak: BTreeMap::new(),
            recently_created: BTreeSet::new(),
            sentinel: None,
        }
    }

    /// Attaches a latency sentinel: each step then ticks the telemetry
    /// time-series, judges the closed window, and rolls back the previous
    /// step's materialization when the sentinel flags a regression. The
    /// sentinel needs telemetry enabled to see any data; with telemetry
    /// off it simply never fires.
    pub fn with_sentinel(mut self, sentinel: LatencySentinel) -> Self {
        self.sentinel = Some(sentinel);
        self
    }

    /// The attached sentinel, if any.
    pub fn sentinel(&self) -> Option<&LatencySentinel> {
        self.sentinel.as_ref()
    }

    /// Runs one step at the end of an observation window.
    ///
    /// On error the step's tuning pass has already rolled back any indexes
    /// it materialized (see [`TuningSession::run`]); reverts and GC from
    /// earlier in the step stand — they were driven by the *previous*
    /// window's evidence, not the failed pass.
    pub fn step(
        &mut self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
    ) -> Result<ContinuousOutcome, AimError> {
        let _step_span = aim_telemetry::span("aim.continuous_step");
        let mut outcome = ContinuousOutcome::default();

        // 0. A step is a window boundary: close the telemetry time-series
        //    window and, when a sentinel is attached, let it judge the
        //    closed window — every tenant series independently, with any
        //    firing per-tenant latency SLO feeding the rollback decision.
        //    A regression verdict rolls back the previous step's
        //    materialization before anything else happens.
        let window = aim_telemetry::timeseries::tick("continuous_window");
        if let (Some(sentinel), Some(window)) = (self.sentinel.as_mut(), window) {
            let session = &self.session;
            let rolled = sentinel.roll_back_window(&window, db, |def, stage, note| {
                session.ledger_annotate(&def.name, &def.table, stage, note);
            });
            for (_, name) in rolled {
                self.recently_created.remove(&name);
                outcome.rolled_back.push(name);
            }
        }

        // 1. Revert recently-added automation indexes implicated in
        //    regressions (pre-existing indexes are never auto-dropped on a
        //    regression signal: the regression cannot be "due to an index
        //    added by automation" if automation added nothing lately).
        let scan_span = aim_telemetry::span("regression_scan");
        for regression in self.detector.detect(monitor) {
            aim_telemetry::metrics::REGRESSIONS_DETECTED.incr();
            if aim_telemetry::is_enabled() {
                aim_telemetry::event(
                    aim_telemetry::EventKind::RegressionDetected,
                    regression.query.to_string(),
                    format!(
                        "avg cpu {:.1} -> {:.1}, suspects {:?}",
                        regression.baseline, regression.current, regression.suspect_indexes
                    ),
                );
            }
            let (query, baseline, current) =
                (regression.query, regression.baseline, regression.current);
            for name in regression.suspect_indexes {
                if !self.recently_created.contains(&name) {
                    continue;
                }
                if let Some(def) = db
                    .all_indexes()
                    .into_iter()
                    .find(|d| d.name == name)
                {
                    if db.drop_index(&def.table, &def.name).is_ok() {
                        aim_telemetry::event(
                            aim_telemetry::EventKind::IndexReverted,
                            &def.name,
                            "regression implicated a recently-created index",
                        );
                        self.session.ledger_annotate(
                            &def.name,
                            &def.table,
                            "reverted",
                            format!(
                                "query {query} regressed (avg cpu {baseline:.1} -> \
                                 {current:.1}) and its plan used this \
                                 recently-created index"
                            ),
                        );
                        outcome.reverted.push(def.name);
                    }
                }
            }
        }
        drop(scan_span);

        // 2. Tune.
        outcome.tuning = self.session.run(db, monitor)?;
        self.recently_created = outcome
            .tuning
            .created
            .iter()
            .map(|c| c.def.name.clone())
            .collect();
        // A materializing pass puts the sentinel on alert for the next
        // windows; a pass that created nothing leaves it as-is. Under a
        // tenant scope (fleet workers) the watch is armed on that tenant's
        // latency series so rollbacks stay tenant-local.
        if let Some(sentinel) = self.sentinel.as_mut() {
            let tenant = aim_telemetry::metrics::current_tenant().unwrap_or_default();
            sentinel.arm_tenant(&tenant, self.recently_created.iter().cloned().collect());
        }

        // 3. Unused-index GC with a grace period.
        let _gc_span = aim_telemetry::span("unused_gc");
        if self.unused_grace_windows > 0 {
            let unused_now: BTreeSet<String> = find_unused_indexes(db, monitor)
                .into_iter()
                // An index created *this* step had no chance to be used yet.
                .filter(|d| !outcome.tuning.created.iter().any(|c| c.def.name == d.name))
                .map(|d| d.name)
                .collect();
            self.unused_streak.retain(|name, _| unused_now.contains(name));
            for name in &unused_now {
                *self.unused_streak.entry(name.clone()).or_insert(0) += 1;
            }
            let expired: Vec<String> = self
                .unused_streak
                .iter()
                .filter(|(_, streak)| **streak >= self.unused_grace_windows)
                .map(|(name, _)| name.clone())
                .collect();
            for name in expired {
                if let Some(def) = db.all_indexes().into_iter().find(|d| d.name == name) {
                    if db.drop_index(&def.table, &def.name).is_ok() {
                        aim_telemetry::event(
                            aim_telemetry::EventKind::IndexDropped,
                            &name,
                            format!("unused for {} windows", self.unused_grace_windows),
                        );
                        self.session.ledger_annotate(
                            &def.name,
                            &def.table,
                            "dropped_unused",
                            format!(
                                "no query used this index for {} consecutive \
                                 observation windows",
                                self.unused_grace_windows
                            ),
                        );
                        outcome.dropped_unused.push(name.clone());
                    }
                }
                self.unused_streak.remove(&name);
            }
        }

        // 4. Refresh baselines with this window.
        self.detector.absorb(monitor);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::AimConfig;
    use aim_exec::Engine;
    use aim_monitor::SelectionConfig;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("b", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..4000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 10)],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn observe(db: &mut Database, m: &mut WorkloadMonitor, sql: &str, n: usize) {
        let engine = Engine::new();
        let stmt = parse_statement(sql).unwrap();
        for _ in 0..n {
            let out = engine.execute(db, &stmt).unwrap();
            m.record(&stmt, &out);
        }
    }

    fn tuner() -> ContinuousTuner {
        // Ledger recording on: the continuous tests double as a check
        // that recording never changes tuning behaviour.
        ContinuousTuner::with_session(
            AimConfig::builder()
                .selection(SelectionConfig {
                    min_executions: 1,
                    min_benefit: 0.0,
                    max_queries: 50,
                    include_dml: true,
                })
                .ledger(true)
                .session(),
            0.5,
        )
    }

    #[test]
    fn detector_flags_cost_growth() {
        let mut db = db();
        let mut detector = RegressionDetector::new(0.5);
        let mut w1 = WorkloadMonitor::new();
        // Fast baseline: point lookups.
        observe(&mut db, &mut w1, "SELECT id FROM t WHERE id = 5", 5);
        detector.absorb(&w1);
        assert_eq!(detector.baseline_count(), 1);

        // Manufacture a slow window for the same fingerprint by growing
        // the table 4x (same shape, higher cost).
        let mut io = IoStats::new();
        for i in 4000..16000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 10)],
                    &mut io,
                )
                .unwrap();
        }
        // PK lookups stay fast, so use a scan-shaped query instead.
        let mut d2 = RegressionDetector::new(0.5);
        let mut fast = WorkloadMonitor::new();
        let mut small_db = db.clone();
        observe(&mut small_db, &mut fast, "SELECT id FROM t WHERE a = 5", 3);
        d2.absorb(&fast);
        let mut io2 = IoStats::new();
        for i in 16000..64000i64 {
            small_db
                .table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 10)],
                    &mut io2,
                )
                .unwrap();
        }
        let mut slow = WorkloadMonitor::new();
        observe(&mut small_db, &mut slow, "SELECT id FROM t WHERE a = 5", 3);
        let regressions = d2.detect(&slow);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].current > regressions[0].baseline);
    }

    #[test]
    fn unused_aim_indexes_detected() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("aim_t_b", "t", vec!["b".into()]), &mut io)
            .unwrap();
        db.create_index(IndexDef::new("manual_ix", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let mut m = WorkloadMonitor::new();
        // Workload only uses manual_ix (filter on a).
        observe(&mut db, &mut m, "SELECT id, a FROM t WHERE a = 5", 3);
        let unused = find_unused_indexes(&db, &m);
        // Only automation-owned unused indexes are reported.
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].name, "aim_t_b");
    }

    #[test]
    fn continuous_step_tunes_and_gcs() {
        let mut db = db();
        let mut tuner = tuner();
        tuner.unused_grace_windows = 1;

        // Window 1: scan-heavy workload; AIM creates an index.
        let mut w = WorkloadMonitor::new();
        observe(&mut db, &mut w, "SELECT id FROM t WHERE a = 5", 10);
        let out1 = tuner.step(&mut db, &w).unwrap();
        assert!(!out1.tuning.created.is_empty());
        let created = out1.tuning.created[0].def.name.clone();

        // Window 2: workload shifts entirely to b; the index on a goes
        // unused but survives the grace period accounting this window.
        let mut w2 = WorkloadMonitor::new();
        observe(&mut db, &mut w2, "SELECT id FROM t WHERE b = 2", 10);
        let out2 = tuner.step(&mut db, &w2).unwrap();
        // Window 3: still unused -> dropped.
        let mut w3 = WorkloadMonitor::new();
        observe(&mut db, &mut w3, "SELECT id FROM t WHERE b = 2", 10);
        let out3 = tuner.step(&mut db, &w3).unwrap();
        let dropped: Vec<&String> = out2
            .dropped_unused
            .iter()
            .chain(out3.dropped_unused.iter())
            .collect();
        assert!(
            dropped.contains(&&created),
            "index {created} should be GC'd: {out2:?} {out3:?}"
        );
        // The ledger closes the loop: the created index's record ends in
        // the GC drop, with the full creation chain before it.
        let ledger = tuner.session.ledger();
        let rec = ledger.find(&created).expect("GC'd index has a ledger record");
        assert_eq!(rec.outcome(), "dropped_unused");
        assert!(rec.stages().contains(&"materialized"), "{:?}", rec.stages());
    }

    #[test]
    fn workload_shift_creates_new_index() {
        let mut db = db();
        let mut tuner = tuner();
        let mut w = WorkloadMonitor::new();
        observe(&mut db, &mut w, "SELECT id FROM t WHERE a = 5", 10);
        tuner.step(&mut db, &w).unwrap();
        let before = db.all_indexes().len();

        let mut w2 = WorkloadMonitor::new();
        observe(&mut db, &mut w2, "SELECT id FROM t WHERE b = 2 AND a > 50", 10);
        let out = tuner.step(&mut db, &w2).unwrap();
        assert!(!out.tuning.created.is_empty());
        assert!(db.all_indexes().len() > before - 1);
    }
}
