//! Fleet driver integration suite.
//!
//! The contract under test:
//!
//! * a fleet of one is the *degenerate* form of the API — bit-identical
//!   (outcome shape, reject list, decision ledger) to running the bare
//!   [`TuningSession`] on the same inputs;
//! * one tenant faulting is isolated into its [`TenantOutcome`] and must
//!   not abort the fleet (chaos coverage);
//! * cross-shard seeding hands hot tenants' partial orders to the cold
//!   tail, and can be switched off;
//! * the fleet-level knapsack allocation never loses to the fixed uniform
//!   per-shard split on total post-tuning workload cost.
//!
//! Fault state and telemetry are process-global, so tests take turns.

use aim_core::fleet::{BudgetAllocation, FleetConfig, FleetOutcome, Tenant};
use aim_core::{workload_cost, AimConfig, RetryPolicy, TuningSession};
use aim_exec::{CostModel, Engine, HypoConfig};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::fault::{self, FaultPlan};
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use aim_workloads::fleet::{generate_fleet, FleetSpec, TenantWorkload};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test against the process-global fault registry and
/// guarantees a clean slate on entry and (via drop) exit.
struct FaultGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> FaultGuard<'a> {
    fn acquire() -> Self {
        let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fault::disarm();
        Self(g)
    }
}

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: 50,
        include_dml: true,
    }
}

fn orders_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..rows {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 300), Value::Int(i % 12)],
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

/// The observable shape of an outcome, for bit-identity comparisons:
/// exact f64 bits, not approximate equality.
fn shape(outcome: &aim_core::AimOutcome) -> Vec<(String, u64, u64, u64)> {
    outcome
        .created
        .iter()
        .map(|c| {
            (
                c.def.name.clone(),
                c.benefit.to_bits(),
                c.maintenance.to_bits(),
                c.size_bytes,
            )
        })
        .collect()
}

/// Satellite: a 1-tenant fleet is the degenerate form of the single
/// entry path — same outcome shape, same reject list, same decision
/// ledger (string-identical JSON) as the bare `TuningSession` it wraps.
#[test]
fn single_tenant_fleet_bit_identical_to_tuning_session() {
    let _g = FaultGuard::acquire();
    let base = || {
        AimConfig::builder()
            .selection(selection())
            .ledger(true)
            .build()
    };
    let populate = |db: &mut Database, monitor: &mut WorkloadMonitor| {
        observe(db, monitor, "SELECT id FROM orders WHERE customer = 42", 8);
        observe(
            db,
            monitor,
            "SELECT id FROM orders WHERE region = 3 AND customer = 7",
            5,
        );
    };

    // Bare session.
    let mut bare_db = orders_db(6000);
    let mut bare_monitor = WorkloadMonitor::new();
    populate(&mut bare_db, &mut bare_monitor);
    let bare_session = TuningSession::new(base());
    let bare = bare_session
        .run(&mut bare_db, &bare_monitor)
        .expect("bare pass converges");
    assert!(!bare.created.is_empty(), "fixture must create an index");

    // Fleet of one, same seed inputs.
    let mut fleet_db = orders_db(6000);
    let mut fleet_monitor = WorkloadMonitor::new();
    populate(&mut fleet_db, &mut fleet_monitor);
    let mut tenants = vec![Tenant::new("only", fleet_db)];
    tenants[0].monitor = fleet_monitor;
    let fleet: FleetOutcome = FleetConfig::builder()
        .base(base())
        .session()
        .run(&mut tenants);

    assert_eq!(fleet.tenants.len(), 1);
    assert_eq!(fleet.budget_transfers, 0, "no allocation phase for one tenant");
    assert_eq!(fleet.seeded_orders, 0, "no seeding phase for one tenant");
    let t = &fleet.tenants[0];
    let fleet_outcome = t.result.as_ref().expect("degenerate pass converges");

    assert_eq!(shape(&bare), shape(fleet_outcome));
    assert_eq!(bare.rejected, fleet_outcome.rejected);
    assert_eq!(bare.workload_size, fleet_outcome.workload_size);
    assert_eq!(bare.candidates_generated, fleet_outcome.candidates_generated);
    assert_eq!(bare.retries, fleet_outcome.retries);
    assert_eq!(bare.degraded, fleet_outcome.degraded);
    assert_eq!(
        Some(bare_session.ledger_json()),
        t.ledger_json,
        "decision ledgers must be string-identical"
    );
    // Both databases ended up with the same physical design.
    let names = |db: &Database| -> Vec<String> {
        db.all_indexes().iter().map(|d| d.name.clone()).collect()
    };
    assert_eq!(names(&bare_db), names(&tenants[0].db));
}

/// Chaos satellite: one tenant hitting a fault (its validation clone
/// fails, no retry budget) is isolated — the fleet completes, the other
/// tenants converge, and the faulted tenant's database is rolled back.
#[test]
fn one_tenant_faulting_does_not_abort_the_fleet() {
    let _g = FaultGuard::acquire();
    let mut tenants: Vec<Tenant> = (0..4)
        .map(|i| {
            let mut db = orders_db(3000 + 500 * i);
            let mut monitor = WorkloadMonitor::new();
            observe(
                &mut db,
                &mut monitor,
                "SELECT id FROM orders WHERE customer = 42",
                6,
            );
            let mut t = Tenant::new(format!("tenant-{i}"), db);
            t.monitor = monitor;
            t
        })
        .collect();

    // One fleet worker → tenants tune strictly in input order, so the
    // first validation clone in the tune phase belongs to tenant-0.
    fault::arm(FaultPlan::new(7).fail("storage.clone", 0, 1));
    let outcome = FleetConfig::builder()
        .base(AimConfig::builder().selection(selection()).build())
        .fleet_workers(1)
        .retry(RetryPolicy::none())
        .session()
        .run(&mut tenants);
    let log = fault::disarm();

    assert_eq!(log.len(), 1, "exactly the planned fault fires: {log:?}");
    assert_eq!(outcome.failed(), 1, "the fault stays in one tenant");
    assert_eq!(outcome.tuned(), 3, "the rest of the fleet converges");
    assert!(
        outcome.tenants[0].result.is_err(),
        "the deterministic pool order pins the fault to tenant-0"
    );
    assert!(
        tenants[0].db.all_indexes().is_empty(),
        "the faulted tenant's pass rolled back"
    );
    for (t, out) in tenants.iter().zip(&outcome.tenants).skip(1) {
        let o = out.result.as_ref().expect("unfaulted tenant converges");
        assert!(!o.created.is_empty(), "{} tunes normally", out.id);
        assert!(!t.db.all_indexes().is_empty());
        t.db.check_consistency().expect("consistent after fleet pass");
    }
    tenants[0]
        .db
        .check_consistency()
        .expect("consistent after rollback");
}

/// Cross-shard seeding: hot tenants' wide partial orders reach the cold
/// tail (seeded orders observed and widened), and the switch turns the
/// mechanism off completely.
#[test]
fn cross_shard_seeding_reaches_the_cold_tail_and_can_be_disabled() {
    let _g = FaultGuard::acquire();
    let spec = FleetSpec {
        tenants: 8,
        base_rows: 1000,
        ..FleetSpec::default()
    };
    let run = |seeding: bool| -> (FleetOutcome, Vec<Tenant>) {
        let mut tenants: Vec<Tenant> = generate_fleet(&spec)
            .into_iter()
            .map(|w| w.tenant)
            .collect();
        let outcome = FleetConfig::builder()
            .base(AimConfig::builder().selection(selection()).build())
            .cross_shard_seeding(seeding)
            .session()
            .run(&mut tenants);
        (outcome, tenants)
    };

    let (seeded, _) = run(true);
    assert_eq!(seeded.failed(), 0);
    assert!(seeded.seeded_orders > 0, "cold tenants must receive seeds");
    // Hot tenants (the head) receive none; at least one cold tenant does.
    assert_eq!(seeded.tenants[0].seeded_orders, 0);
    assert!(seeded.tenants.iter().skip(2).any(|t| t.seeded_orders > 0));

    let (unseeded, _) = run(false);
    assert_eq!(unseeded.failed(), 0);
    assert_eq!(unseeded.seeded_orders, 0, "the switch disables seeding");
    assert!(unseeded.tenants.iter().all(|t| t.seeded_orders == 0));
}

/// Total post-tuning workload cost of a fleet (materialized indexes
/// visible to the planner).
fn fleet_cost(tenants: &[Tenant], workloads: &[TenantWorkload], cm: &CostModel) -> f64 {
    let none = HypoConfig::none();
    tenants
        .iter()
        .zip(workloads)
        .map(|(t, w)| workload_cost(&t.db, &w.weighted, &none, cm))
        .sum()
}

/// Tentpole acceptance: under a contested budget, the fleet-level
/// knapsack allocation beats the fixed uniform per-shard split on total
/// workload cost, and actually moves budget beyond the uniform share.
#[test]
fn knapsack_allocation_beats_uniform_split_on_workload_cost() {
    let _g = FaultGuard::acquire();
    let spec = FleetSpec {
        tenants: 10,
        base_rows: 1200,
        ..FleetSpec::default()
    };
    let workloads = generate_fleet(&spec);
    let cm = CostModel::default();
    let run = |budget: u64, allocation: BudgetAllocation| -> (f64, FleetOutcome) {
        let mut tenants: Vec<Tenant> =
            workloads.iter().map(|w| w.tenant.clone()).collect();
        let outcome = FleetConfig::builder()
            .base(AimConfig::builder().selection(selection()).build())
            .fleet_budget(budget)
            .allocation(allocation)
            .session()
            .run(&mut tenants);
        assert_eq!(outcome.failed(), 0);
        (fleet_cost(&tenants, &workloads, &cm), outcome)
    };

    // Size a budget that genuinely bites: 35% of the unconstrained build.
    let (_, unconstrained) = run(u64::MAX, BudgetAllocation::Knapsack);
    let full_build: u64 = unconstrained
        .tenants
        .iter()
        .filter_map(|t| t.result.as_ref().ok())
        .flat_map(|o| o.created.iter())
        .map(|c| c.size_bytes)
        .sum();
    assert!(full_build > 0, "the fleet must build something unconstrained");
    let budget = (full_build as f64 * 0.35) as u64;

    let (uniform_cost, _) = run(budget, BudgetAllocation::Uniform);
    let (knapsack_cost, knapsack) = run(budget, BudgetAllocation::Knapsack);

    assert!(
        knapsack.budget_transfers > 0,
        "the knapsack must move budget beyond the uniform share"
    );
    assert!(
        knapsack_cost < uniform_cost,
        "knapsack split must beat uniform: {knapsack_cost:.1} vs {uniform_cost:.1}"
    );
}
