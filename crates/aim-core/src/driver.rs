//! The end-to-end AIM procedure (Algorithm 1).
//!
//! ```text
//! W          ← WorkloadSelection(database)
//! candidates ← GenerateCandidates(W, j)
//! materialize candidates on the clone, in descending perceived benefit,
//!            until the storage budget is exhausted
//! production ← RankSelectedIndexes(candidates)
//! ```
//!
//! One full tuning pass — representative workload selection → structural
//! candidate generation → ranking → knapsack selection under the storage
//! budget → clone validation → materialization — is run by
//! [`TuningSession::run`](crate::session::TuningSession::run), built via
//! [`AimConfig::builder`]. Running it periodically yields the paper's
//! continuous tuning (§VI-D) and its two-phase behaviour: the first pass
//! creates narrow indexes; once those are observed in use with high seek
//! counts, `TryCoveringIndex` flips qualifying queries to covering mode.
//!
//! This module keeps the pass's configuration ([`AimConfig`]), result
//! ([`AimOutcome`]) and the [`Aim`] pair (config + engine) that sessions
//! wrap. Multi-tenant fleets run many sessions at once through
//! [`FleetSession`](crate::fleet::FleetSession), whose 1-tenant form is
//! the canonical single-database entry path.

use crate::backend::BackendSpec;
use crate::candidates::CandidateGenConfig;
use crate::session::AimConfigBuilder;
use crate::sharding::ShardingProfile;
use crate::validate::ValidationConfig;
use aim_exec::Engine;
use aim_monitor::SelectionConfig;
use aim_storage::IndexDef;
use std::time::Duration;

/// Full configuration of a tuning pass.
///
/// `#[non_exhaustive]`: construct via [`AimConfig::builder`] (or start
/// from [`AimConfig::default`]) — new tuning knobs may appear in any
/// release without breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct AimConfig {
    /// Representative workload selection thresholds (§III-C).
    pub selection: SelectionConfig,
    /// Candidate generation parameters (join parameter `j`, covering
    /// policy, width cap).
    pub candidate_gen: CandidateGenConfig,
    /// Clone-validation thresholds (§VII-B).
    pub validation: ValidationConfig,
    /// Storage budget `B` in bytes for *all* secondary indexes. With a
    /// sharding profile set, this is the *fleet-wide* budget.
    pub storage_budget: u64,
    /// Skip clone validation (pure estimate mode; not recommended for
    /// production, required for like-for-like advisor benchmarks).
    pub skip_validation: bool,
    /// Sharding economics (§VIII-b): when set, candidate utilities are
    /// re-priced for a fleet of shards sharing the physical design before
    /// knapsack selection.
    pub sharding: Option<ShardingProfile>,
    /// Worker threads for ranking and validation replay (`0` = one per
    /// available core). Any worker count produces bit-identical output —
    /// contributions merge in workload order — so this knob trades wall
    /// clock only, never results. [`ValidationConfig::workers`] overrides
    /// it for the validation phase when non-zero.
    pub workers: usize,
    /// Record a [`crate::ledger::DecisionLedger`] entry for every
    /// candidate's lifecycle (generation → ranking → knapsack →
    /// validation → materialization, plus continuous-tuning reverts and
    /// GC). Off by default: when false the pipeline performs one bool
    /// check per phase and allocates nothing.
    pub record_ledger: bool,
    /// Storage backend the production database is provisioned on (see
    /// [`TuningSession::provision_database`]). The advisor pipeline itself
    /// is backend-agnostic: validation clones are always in-memory.
    pub backend: BackendSpec,
    /// Tenant label for dimensional telemetry: when set, the whole pass
    /// runs under a [`aim_telemetry::scope`] so every instrument the
    /// pipeline touches also records a `tenant="…"` labeled twin (fleet
    /// sessions set this to the tenant id). `None` (the default) records
    /// flat series only.
    pub tenant_label: Option<String>,
}

impl Default for AimConfig {
    fn default() -> Self {
        Self {
            selection: SelectionConfig::default(),
            candidate_gen: CandidateGenConfig::default(),
            validation: ValidationConfig::default(),
            storage_budget: u64::MAX,
            skip_validation: false,
            sharding: None,
            workers: 0,
            record_ledger: false,
            backend: BackendSpec::Memory,
            tenant_label: None,
        }
    }
}

impl AimConfig {
    /// Starts a builder — the construction path for configs and
    /// [`TuningSession`]s.
    pub fn builder() -> AimConfigBuilder {
        AimConfigBuilder::default()
    }
}

/// One index created by a tuning pass, with its explanation.
#[derive(Debug, Clone)]
pub struct CreatedIndex {
    pub def: IndexDef,
    /// Metrics-driven explanation (benefiting queries, benefit,
    /// maintenance, size) accompanying every recommendation.
    pub explanation: String,
    pub benefit: f64,
    pub maintenance: f64,
    pub size_bytes: u64,
}

/// Outcome of one tuning pass.
///
/// `#[non_exhaustive]`: read-only for callers; new observability fields
/// may appear in any release.
#[non_exhaustive]
#[derive(Debug, Clone, Default)]
pub struct AimOutcome {
    pub created: Vec<CreatedIndex>,
    /// (index name, human-readable reject reason).
    pub rejected: Vec<(String, String)>,
    /// Number of queries in the representative workload.
    pub workload_size: usize,
    /// Number of candidate indexes generated before ranking.
    pub candidates_generated: usize,
    /// Wall-clock time of the pass (the paper's "algorithm runtime").
    pub elapsed: Duration,
    /// Phase retries performed after transient failures.
    pub retries: u64,
    /// True when the pass only succeeded in a degraded mode (sequential
    /// fallback and/or a shrunken validation sample).
    pub degraded: bool,
}

/// The configuration + execution-engine pair a
/// [`TuningSession`](crate::session::TuningSession) wraps.
///
/// Not an entry point on its own: build sessions via
/// [`AimConfig::builder`], or fleets via
/// [`FleetSession`](crate::fleet::FleetSession).
#[derive(Debug, Clone, Default)]
pub struct Aim {
    pub config: AimConfig,
    pub engine: Engine,
}

impl Aim {
    /// Creates a tuner with the given configuration.
    pub fn new(config: AimConfig) -> Self {
        Self {
            config,
            engine: Engine::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TuningSession;
    use aim_monitor::WorkloadMonitor;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "orders",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("customer", ColumnType::Int),
                    ColumnDef::new("region", ColumnType::Int),
                    ColumnDef::new("amount", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..6000i64 {
            db.table_mut("orders")
                .unwrap()
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % 300),
                        Value::Int(i % 12),
                        Value::Int(i % 97),
                    ],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn observe(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
        let engine = Engine::new();
        let stmt = parse_statement(sql).unwrap();
        for _ in 0..n {
            let out = engine.execute(db, &stmt).unwrap();
            monitor.record(&stmt, &out);
        }
    }

    fn quick_selection() -> SelectionConfig {
        SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 50,
            include_dml: true,
        }
    }

    fn quick_session() -> TuningSession {
        AimConfig::builder().selection(quick_selection()).session()
    }

    #[test]
    fn session_creates_useful_index_and_improves_query() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE customer = 42", 20);

        let engine = Engine::new();
        let stmt = parse_statement("SELECT id FROM orders WHERE customer = 42").unwrap();
        let before = engine.execute(&mut db, &stmt).unwrap();

        let outcome = quick_session().run(&mut db, &monitor).unwrap();
        assert!(!outcome.created.is_empty(), "rejected: {:?}", outcome.rejected);
        assert!(outcome.created[0].explanation.contains("orders"));
        assert_eq!(outcome.retries, 0);
        assert!(!outcome.degraded);

        let after = engine.execute(&mut db, &stmt).unwrap();
        assert!(
            after.io.rows_read < before.io.rows_read / 10,
            "before {} rows read, after {}",
            before.io.rows_read,
            after.io.rows_read
        );
    }

    #[test]
    fn session_with_no_workload_is_a_noop() {
        let mut db = db();
        let monitor = WorkloadMonitor::new();
        let outcome = quick_session().run(&mut db, &monitor).unwrap();
        assert!(outcome.created.is_empty());
        assert_eq!(outcome.workload_size, 0);
        assert!(db.all_indexes().is_empty());
    }

    #[test]
    fn storage_budget_limits_creation() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE customer = 42", 10);
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE amount = 5", 10);

        let session = AimConfig::builder()
            .selection(quick_selection())
            .storage_budget(1) // effectively zero
            .session();
        let outcome = session.run(&mut db, &monitor).unwrap();
        assert!(outcome.created.is_empty());
    }

    #[test]
    fn rerun_does_not_duplicate_indexes() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE customer = 42", 20);
        let session = quick_session();
        let first = session.run(&mut db, &monitor).unwrap();
        assert!(!first.created.is_empty());
        let count = db.all_indexes().len();
        // Same observations again: candidates now duplicate existing
        // indexes and are filtered out.
        let second = session.run(&mut db, &monitor).unwrap();
        assert!(second.created.is_empty(), "{:?}", second.created);
        assert_eq!(db.all_indexes().len(), count);
    }

    #[test]
    fn outcome_reports_runtime_and_counts() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE customer = 1", 5);
        let outcome = quick_session().run(&mut db, &monitor).unwrap();
        assert!(outcome.workload_size >= 1);
        assert!(outcome.candidates_generated >= 1);
        assert!(outcome.elapsed > Duration::ZERO);
    }

    #[test]
    fn sharding_profile_suppresses_narrow_benefit_indexes() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE customer = 42", 20);
        // Write traffic that every shard pays index maintenance for.
        observe(&mut db, &mut monitor, "UPDATE orders SET customer = 7 WHERE id = 3", 20);

        // Unsharded: the index is created (benefit outweighs maintenance).
        let mut unsharded_db = db.clone();
        assert!(!quick_session().run(&mut unsharded_db, &monitor).unwrap().created.is_empty());

        // 1000 shards, the read hits 0.1% of them while maintenance is paid
        // everywhere: fleet economics reject the index.
        let fp = monitor
            .queries()
            .find(|q| !q.is_dml())
            .unwrap()
            .fingerprint;
        let mut profile = crate::sharding::ShardingProfile::new(1000);
        profile.set_hit_fraction(fp, 0.001);
        let sharded_session = AimConfig::builder()
            .selection(quick_selection())
            .sharding(profile)
            .session();
        let outcome = sharded_session.run(&mut db, &monitor).unwrap();
        assert!(
            outcome.created.is_empty(),
            "fleet-wide maintenance should sink the index: {:?}",
            outcome.created
        );
    }

    #[test]
    fn ledger_records_full_lifecycle_when_enabled() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE customer = 42", 20);
        let session = AimConfig::builder()
            .selection(quick_selection())
            .ledger(true)
            .session();
        let outcome = session.run(&mut db, &monitor).unwrap();
        assert!(!outcome.created.is_empty());

        let ledger = session.ledger();
        assert_eq!(ledger.passes, 1);
        for c in &outcome.created {
            let rec = ledger.find(&c.def.name).expect("created index has a record");
            let stages = rec.stages();
            for want in [
                "generated",
                "ranked",
                "knapsack_accepted",
                "validation_accepted",
                "materialized",
            ] {
                assert!(stages.contains(&want), "missing {want} in {stages:?}");
            }
            assert!(!rec.sources.is_empty(), "generation provenance recorded");
            assert_eq!(rec.size_bytes, Some(c.size_bytes));
            assert_eq!(rec.outcome(), "materialized");
        }

        // A second pass over the same workload: the candidate now
        // duplicates the existing index and the ledger says so.
        session.run(&mut db, &monitor).unwrap();
        let ledger = session.ledger();
        assert_eq!(ledger.passes, 2);
        assert!(ledger
            .records()
            .iter()
            .any(|r| r.pass == 2 && r.outcome() == "already_served"));
    }

    #[test]
    fn ledger_is_off_by_default() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE customer = 42", 20);
        let session = quick_session();
        assert!(!session.run(&mut db, &monitor).unwrap().created.is_empty());
        assert!(session.ledger().is_empty());
        assert_eq!(session.ledger().passes, 0);
    }

    #[test]
    fn skip_validation_mode_creates_without_replay() {
        let mut db = db();
        let mut monitor = WorkloadMonitor::new();
        observe(&mut db, &mut monitor, "SELECT id FROM orders WHERE region = 3", 20);
        let session = AimConfig::builder()
            .selection(quick_selection())
            .skip_validation(true)
            .session();
        let outcome = session.run(&mut db, &monitor).unwrap();
        assert!(!outcome.created.is_empty());
    }
}
