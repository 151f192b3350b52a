//! The windowed-telemetry observability loop end to end: a seeded latency
//! regression that the sentinel must catch and roll back within its armed
//! watch, and the cross-thread trace stitching that keeps worker-side
//! span subtrees in the session profile.

use aim_core::continuous::ContinuousTuner;
use aim_core::fleet::{FleetConfig, Tenant};
use aim_core::{
    generate_candidates, rank_candidates_with, AimConfig, CandidateGenConfig, DecisionLedger,
    LatencySentinel,
};
use aim_exec::{estimate_statement_cost, CostModel, Engine, HypoConfig};
use aim_monitor::{QueryStats, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use aim_telemetry::EventKind;
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use std::sync::Mutex;

/// Telemetry state is process-global; tests in this binary take turns.
static LOCK: Mutex<()> = Mutex::new(());

fn build_db(rows: i64) -> Database {
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
    insert_rows(&mut db, 0, rows);
    db.analyze_all();
    db
}

fn insert_rows(db: &mut Database, from: i64, to: i64) {
    let mut io = IoStats::new();
    for i in from..to {
        db.table_mut("t")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 10)],
                &mut io,
            )
            .unwrap();
    }
}

/// Runs `sql` through the production execute path (the one that feeds the
/// `exec.select_cost` window histogram) and records it in the monitor.
fn run_queries(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    for _ in 0..n {
        let out = engine.execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }
}

/// A materialization that turns out to coincide with a genuine latency
/// regression must be rolled back by the sentinel within its armed watch
/// (two windows by default — here it fires on the very first one), and the
/// rollback must be auditable in both the event journal and the decision
/// ledger.
#[test]
fn sentinel_rolls_back_a_seeded_regression_within_two_windows() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    aim_telemetry::reset();

    let mut db = build_db(4000);
    let session = AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 50,
            include_dml: true,
        })
        .ledger(true)
        .session();
    let mut tuner = ContinuousTuner::with_session(session.clone(), 0.5)
        .with_sentinel(LatencySentinel::new());

    // Window 1: steady point-select traffic on `a`. The closing tick
    // baselines the sentinel's EWMA, and the pass materializes an index
    // on `a`, arming the sentinel with it.
    let mut monitor = WorkloadMonitor::new();
    run_queries(&mut db, &mut monitor, "SELECT id FROM t WHERE a = 5", 10);
    let out1 = tuner.step(&mut db, &monitor).unwrap();
    assert!(
        !out1.tuning.created.is_empty(),
        "fixture must materialize an index; rejected: {:?}",
        out1.tuning.rejected
    );
    assert!(out1.rolled_back.is_empty());
    let sentinel = tuner.sentinel().unwrap();
    assert!(sentinel.is_armed(), "materialization must arm the sentinel");
    assert!(sentinel.baseline().is_some(), "window 1 must set the EWMA");
    let suspect = out1.tuning.created[0].def.name.clone();

    // Window 2: the table balloons 16x and traffic shifts to unindexed
    // scans on `b` — windowed select p99 blows far past baseline * 1.5.
    insert_rows(&mut db, 4000, 64_000);
    db.analyze_all();
    let mut monitor = WorkloadMonitor::new();
    run_queries(&mut db, &mut monitor, "SELECT id FROM t WHERE b = 3", 10);
    let out2 = tuner.step(&mut db, &monitor).unwrap();

    // Detection within the armed watch: one window after materialization.
    assert_eq!(
        out2.rolled_back,
        vec![suspect.clone()],
        "sentinel must roll back the armed pass's index"
    );
    assert!(
        !db.all_indexes().iter().any(|d| d.name == suspect),
        "rolled-back index still present in the database"
    );

    // The rollback is journaled (the ring evicted nothing) ...
    assert_eq!(aim_telemetry::journal::dropped(), 0, "journal evicted events");
    let rollback_events: Vec<_> = aim_telemetry::events()
        .into_iter()
        .filter(|e| e.kind == EventKind::RegressionRollback)
        .collect();
    assert_eq!(rollback_events.len(), 1);
    assert_eq!(rollback_events[0].target, suspect);

    // ... and the decision ledger's record for the index terminates on the
    // regression_rollback stage.
    let ledger = session.ledger();
    let record = ledger
        .find(&suspect)
        .unwrap_or_else(|| panic!("{suspect} missing from the decision ledger"));
    assert_eq!(record.outcome(), "regression_rollback");
    assert!(
        record.stages().contains(&"materialized"),
        "rollback must chain onto the materialization record: {:?}",
        record.stages()
    );

    aim_telemetry::disable();
}

/// The fleet-scale observability loop: three tenants tune and arm the
/// sentinel per tenant; one tenant then regresses hard enough to burn its
/// per-tenant latency SLO. Only that tenant's indexes may roll back, the
/// rollback must carry the alert attribution through the journal and the
/// decision ledger, and the other tenants' series (and indexes) must stay
/// clean.
#[test]
fn per_tenant_slo_alert_rolls_back_only_the_regressed_tenant() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    aim_telemetry::reset();

    let ids = ["alpha", "beta", "gamma"];
    let mut tenants: Vec<Tenant> = ids.iter().map(|id| Tenant::new(*id, build_db(4000))).collect();
    // Pre-tuning observation (unscoped: only the pure per-tenant series
    // recorded below may feed the sentinel and SLO baselines).
    for t in tenants.iter_mut() {
        run_queries(&mut t.db, &mut t.monitor, "SELECT id FROM t WHERE a = 5", 10);
    }

    let fleet = FleetConfig::builder()
        .base(
            AimConfig::builder()
                .selection(SelectionConfig {
                    min_executions: 1,
                    min_benefit: 0.0,
                    max_queries: 50,
                    include_dml: true,
                })
                .build(),
        )
        .session();
    let out = fleet.run(&mut tenants);
    assert_eq!(out.tuned(), 3, "{:?}", out.tenants);
    let suspects: Vec<String> = out
        .tenants
        .iter()
        .map(|t| t.result.as_ref().unwrap().created[0].def.name.clone())
        .collect();

    let mut sentinel = LatencySentinel::new();
    out.arm_sentinel(&mut sentinel);
    for id in ids {
        assert!(sentinel.is_armed_for(id), "{id} must be under armed watch");
    }

    // A per-tenant p99 SLO on windowed select cost, sized between the
    // tenants' indexed steady state (p99 ≈ 8 cost units) and an unindexed
    // 64k-row scan (p99 ≈ 4000).
    aim_telemetry::slo::register(aim_telemetry::SloRule::new(
        "select-p99",
        "exec.select_cost",
        1_000.0,
    ));

    // Window 1: steady post-tuning traffic on every tenant, scoped so each
    // tenant's exec.select_cost series baselines independently.
    for t in tenants.iter_mut() {
        let _scope = aim_telemetry::scope(&t.id);
        run_queries(&mut t.db, &mut t.monitor, "SELECT id FROM t WHERE a = 5", 10);
    }
    let mut ledger = DecisionLedger::default();
    let rolled = fleet.observe_window(&mut tenants, &mut sentinel, Some(&mut ledger));
    assert!(rolled.is_empty(), "baseline window must not roll back: {rolled:?}");

    // Window 2: alpha balloons 16x and its traffic shifts to unindexed
    // scans on `b`; beta and gamma keep their indexed traffic.
    insert_rows(&mut tenants[0].db, 4000, 64_000);
    tenants[0].db.analyze_all();
    {
        let _scope = aim_telemetry::scope("alpha");
        let t = &mut tenants[0];
        run_queries(&mut t.db, &mut t.monitor, "SELECT id FROM t WHERE b = 3", 10);
    }
    for t in tenants.iter_mut().skip(1) {
        let _scope = aim_telemetry::scope(&t.id);
        run_queries(&mut t.db, &mut t.monitor, "SELECT id FROM t WHERE a = 5", 10);
    }
    let rolled = fleet.observe_window(&mut tenants, &mut sentinel, Some(&mut ledger));

    // Only alpha rolls back; beta and gamma keep their indexes.
    assert_eq!(
        rolled,
        vec![("alpha".to_string(), suspects[0].clone())],
        "exactly alpha's index must roll back"
    );
    assert!(!tenants[0].db.all_indexes().iter().any(|d| d.name == suspects[0]));
    for (t, suspect) in tenants.iter().zip(&suspects).skip(1) {
        assert!(
            t.db.all_indexes().iter().any(|d| &d.name == suspect),
            "{}'s index must survive alpha's regression",
            t.id
        );
    }

    // The SLO alert named alpha — and nobody else — (the ring evicted
    // nothing) ...
    assert_eq!(aim_telemetry::journal::dropped(), 0, "journal evicted events");
    let slo_events: Vec<_> = aim_telemetry::events()
        .into_iter()
        .filter(|e| e.kind == EventKind::SloAlert)
        .collect();
    assert!(
        slo_events.iter().any(|e| e.detail.contains("\"alpha\"")),
        "a firing SLO alert must name alpha: {slo_events:?}"
    );
    assert!(
        !slo_events.iter().any(|e| e.detail.contains("beta") || e.detail.contains("gamma")),
        "no alert may fire for the clean tenants: {slo_events:?}"
    );

    // ... the journaled rollback is alpha's, alert-attributed ...
    let rollbacks: Vec<_> = aim_telemetry::events()
        .into_iter()
        .filter(|e| e.kind == EventKind::RegressionRollback)
        .collect();
    assert_eq!(rollbacks.len(), 1);
    assert_eq!(rollbacks[0].target, suspects[0]);
    assert!(
        rollbacks[0].detail.contains("SLO alert-attributed"),
        "journal must carry the alert attribution: {}",
        rollbacks[0].detail
    );

    // ... and so is the decision-ledger record.
    let record = ledger
        .find(&suspects[0])
        .expect("rolled-back index missing from the ledger");
    assert_eq!(record.outcome(), "regression_rollback");
    let last = record.events.last().unwrap();
    assert!(
        last.detail.contains("SLO alert-attributed") && last.detail.contains("\"alpha\""),
        "ledger must record the alert-attributed tenant rollback: {}",
        last.detail
    );

    aim_telemetry::disable();
}

/// Every series the introspection endpoint serves must carry curated
/// HELP/TYPE metadata — a scrape of a representative run may not fall
/// back to the generic help text for any instrument the pipeline records.
#[test]
fn every_served_metric_has_curated_help() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    aim_telemetry::reset();

    // Drive a representative slice of the pipeline so the snapshot holds
    // real series: a fleet pass (scoped, so labeled twins exist too), an
    // SLO evaluation, and a window tick.
    let mut tenants = vec![
        Tenant::new("ha", build_db(2000)),
        Tenant::new("hb", build_db(2000)),
    ];
    for t in tenants.iter_mut() {
        let _scope = aim_telemetry::scope(&t.id);
        run_queries(&mut t.db, &mut t.monitor, "SELECT id FROM t WHERE a = 5", 10);
    }
    let fleet = FleetConfig::builder()
        .base(
            AimConfig::builder()
                .selection(SelectionConfig {
                    min_executions: 1,
                    min_benefit: 0.0,
                    max_queries: 50,
                    include_dml: true,
                })
                .build(),
        )
        .session();
    let out = fleet.run(&mut tenants);
    assert_eq!(out.tuned(), 2);
    let mut sentinel = LatencySentinel::new();
    out.arm_sentinel(&mut sentinel);
    aim_telemetry::slo::register(aim_telemetry::SloRule::new(
        "help-cov",
        "exec.select_cost",
        1e9,
    ));
    let _ = fleet.observe_window(&mut tenants, &mut sentinel, None);

    let snap = aim_telemetry::snapshot();
    let names: Vec<&String> = snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n))
        .collect();
    assert!(names.len() >= 20, "fixture too thin: {names:?}");
    let missing: Vec<&&String> = names
        .iter()
        .filter(|n| !aim_telemetry::metrics::has_help(n))
        .collect();
    assert!(
        missing.is_empty(),
        "served metrics lacking curated HELP metadata: {missing:?}"
    );

    // And the exposition itself carries a HELP and TYPE line per family.
    let text = aim_telemetry::render_prometheus(&snap);
    let helps = text.lines().filter(|l| l.starts_with("# HELP ")).count();
    let types = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(helps, types);
    assert!(helps >= 20, "exposition families missing metadata:\n{text}");

    aim_telemetry::disable();
}

/// Property: however many random tenants a shuffled recording stream fans
/// out over, the dimensional registry never exceeds its cap. The first
/// `cap` distinct tenants (in stream order) get their own series; every
/// later tenant folds deterministically into `tenant="__other__"`; no
/// count is lost anywhere; and `telemetry.series_dropped` counts exactly
/// the folded observations. Replaying the identical stream reproduces
/// the identical snapshot.
#[test]
fn cardinality_cap_folds_deterministically_and_conserves_totals() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    let mut rng = StdRng::seed_from_u64(0x0B5E);

    for case in 0..20 {
        let cap = rng.gen_range(4..24usize);
        let n_tenants = cap + rng.gen_range(1..32usize);
        let tenants: Vec<String> = (0..n_tenants).map(|i| format!("t{i:03}")).collect();
        // 1–4 recordings per tenant, Fisher-Yates shuffled into one stream.
        let mut events: Vec<(usize, u64)> = Vec::new();
        for i in 0..n_tenants {
            for _ in 0..rng.gen_range(1..=4usize) {
                events.push((i, rng.gen_range(1..100u64)));
            }
        }
        for i in (1..events.len()).rev() {
            let j = rng.gen_range(0..=i);
            events.swap(i, j);
        }

        let replay = |events: &[(usize, u64)]| {
            aim_telemetry::reset();
            aim_telemetry::metrics::set_series_cap(cap);
            for (i, n) in events {
                let _s = aim_telemetry::scope(&tenants[*i]);
                aim_telemetry::metrics::counter_add("prop.fold_hits", *n);
            }
            let snap = aim_telemetry::snapshot();
            let dropped = snap.counter("telemetry.series_dropped").unwrap_or(0);
            let flat = snap.counter("prop.fold_hits").unwrap_or(0);
            let mut labeled: Vec<(String, u64)> = snap
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("prop.fold_hits{"))
                .collect();
            labeled.sort();
            (labeled, flat, dropped)
        };
        let (labeled, flat, dropped) = replay(&events);

        // Expected: first `cap` distinct tenants in stream order admitted,
        // the rest folded into __other__.
        let mut admitted: Vec<usize> = Vec::new();
        for (i, _) in &events {
            if !admitted.contains(i) {
                admitted.push(*i);
            }
        }
        let (admitted, folded) = admitted.split_at(cap.min(admitted.len()));
        let mut expected: Vec<(String, u64)> = admitted
            .iter()
            .map(|i| {
                let sum: u64 = events.iter().filter(|(j, _)| j == i).map(|(_, n)| n).sum();
                (format!("prop.fold_hits{{tenant=\"{}\"}}", tenants[*i]), sum)
            })
            .collect();
        if !folded.is_empty() {
            let other: u64 = events
                .iter()
                .filter(|(j, _)| folded.contains(j))
                .map(|(_, n)| n)
                .sum();
            expected.push(("prop.fold_hits{tenant=\"__other__\"}".to_string(), other));
        }
        expected.sort();

        let total: u64 = events.iter().map(|(_, n)| n).sum();
        assert_eq!(labeled, expected, "case {case}: admission order broken");
        assert_eq!(flat, total, "case {case}: flat total lost counts");
        assert_eq!(
            labeled.iter().map(|(_, v)| v).sum::<u64>(),
            total,
            "case {case}: labeled series + fold bucket lost counts"
        );
        let folded_events = events.iter().filter(|(j, _)| folded.contains(j)).count();
        assert_eq!(
            dropped, folded_events as u64,
            "case {case}: series_dropped must count folded observations"
        );

        // Determinism: the identical stream reproduces the identical state.
        assert_eq!(replay(&events), (labeled, flat, dropped), "case {case}");
    }

    aim_telemetry::reset();
    aim_telemetry::disable();
}

/// Worker threads spawned by the parallel ranking path must not lose their
/// span subtrees: the fork/adopt/stitch hand-off grafts them back into the
/// parent's profile, so a parallel run shows the same `exec.whatif` count
/// under the same parent as a sequential one.
#[test]
fn parallel_ranking_profile_matches_sequential_shape() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let db = build_db(4000);
    let cm = CostModel::default();
    let empty = HypoConfig::only(Vec::new());
    let sqls = [
        "SELECT id FROM t WHERE a = 7",
        "SELECT id FROM t WHERE b = 3",
        "SELECT id FROM t WHERE a = 9 AND b = 1",
        "SELECT a FROM t WHERE b = 2",
    ];
    let workload: Vec<WorkloadQuery> = sqls
        .iter()
        .map(|sql| {
            let stmt = parse_statement(sql).unwrap();
            let cost = estimate_statement_cost(&db, &stmt, &empty, &cm).unwrap_or(0.0);
            WorkloadQuery {
                stats: QueryStats::synthetic(&stmt, 10, 10.0 * cost),
                benefit: 0.0,
                weight: 10.0,
            }
        })
        .collect();
    let candidates = generate_candidates(&db, &workload, &CandidateGenConfig::default());
    assert!(candidates.len() >= 2, "need enough candidates to parallelize");

    // The what-if cache would let the second run skip costing (and its
    // spans) entirely; disable it so both runs do identical work.
    let cache = aim_exec::whatif::global();
    cache.clear();
    cache.set_enabled(false);

    let whatif_count = |workers: usize| -> u64 {
        aim_telemetry::enable();
        aim_telemetry::reset();
        let count = {
            let _s = aim_telemetry::span("ranking");
            let _ = rank_candidates_with(&db, &workload, &candidates, &cm, workers);
            drop(_s);
            let profile = aim_telemetry::take_profile();
            let ranking = profile.child("ranking").expect("ranking span recorded");
            ranking
                .child("exec.whatif")
                .unwrap_or_else(|| {
                    panic!("exec.whatif missing under ranking (workers={workers}): {ranking:?}")
                })
                .count
        };
        aim_telemetry::disable();
        count
    };

    let sequential = whatif_count(1);
    assert!(sequential > 0);
    let parallel = whatif_count(4);
    assert_eq!(
        parallel, sequential,
        "worker span subtrees lost or duplicated in the parallel profile"
    );
    assert_eq!(
        aim_telemetry::trace::pending_len(),
        0,
        "stitch left orphaned worker profiles pending"
    );

    cache.clear();
    cache.set_enabled(true);
}

/// The hand-rolled artifact emitter and the strict `jsonv` reader agree:
/// a telemetry state loaded with escape-hostile strings serializes to a
/// document that parses, and the nasty strings survive byte-for-byte.
#[test]
fn artifact_json_roundtrips_through_jsonv() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    aim_telemetry::reset();

    let nasty = "quote \" backslash \\ newline \n tab \t control \u{1} slash / unicode é🦀";
    aim_telemetry::event(EventKind::IndexAccepted, "aim_\"t\"_a", nasty);
    {
        let _outer = aim_telemetry::span("outer");
        let _inner = aim_telemetry::span("inner");
    }
    let _ = aim_telemetry::timeseries::tick("roundtrip");

    let doc = aim_telemetry::report::artifact_json("label \\ with \"specials\"\n");
    let parsed = aim_telemetry::jsonv::parse(&doc)
        .unwrap_or_else(|e| panic!("artifact JSON failed to parse: {e}"));

    use aim_telemetry::jsonv::Json;
    assert_eq!(
        parsed.get("label").and_then(Json::as_str),
        Some("label \\ with \"specials\"\n")
    );
    let events = parsed.get("events").and_then(Json::as_arr).unwrap();
    let event = events
        .iter()
        .find(|e| e.get("kind").and_then(Json::as_str) == Some("index_accepted"))
        .expect("recorded event present in artifact");
    assert_eq!(event.get("target").and_then(Json::as_str), Some("aim_\"t\"_a"));
    assert_eq!(event.get("detail").and_then(Json::as_str), Some(nasty));
    // The structural sections all materialized through the parser too.
    assert!(parsed.get("profile").and_then(Json::as_arr).is_some());
    assert!(parsed.path("timeseries/windows").and_then(Json::as_arr).is_some());

    aim_telemetry::disable();
}
