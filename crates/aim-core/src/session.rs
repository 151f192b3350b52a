//! Resilient tuning sessions: the production entry point to the advisor.
//!
//! [`TuningSession`] runs one tuning pass — workload selection → candidate
//! generation → ranking → knapsack → clone validation → materialization —
//! hardened for an environment where the infrastructure misbehaves:
//!
//! * **Deadline & cancellation.** A [`RunCtl`] (per-pass deadline plus a
//!   shareable [`CancelToken`]) is threaded through candidate generation,
//!   ranking and validation; workers check it between queries, so an abort
//!   lands within one query's worth of work.
//! * **Retry with backoff.** Transient failures — the class produced by
//!   the fault-injection layer ([`aim_storage::fault`]) — are retried per
//!   phase under a [`RetryPolicy`], with exponentially growing sleeps that
//!   never overshoot the deadline. Deterministic errors fail fast.
//! * **Graceful degradation.** When a parallel phase keeps failing, the
//!   retry ladder falls back to the sequential path, and validation
//!   additionally shrinks its sample bed; a degraded pass is recorded in
//!   [`AimOutcome::degraded`] and the telemetry journal.
//! * **Transactional materialization.** Indexes created by a pass that
//!   subsequently aborts (deadline, cancellation, retries exhausted) are
//!   rolled back before the error is returned: an aborted pass never
//!   leaves a half-materialized configuration behind.
//!
//! Sessions are built with [`AimConfig::builder`]:
//!
//! ```ignore
//! let session = AimConfig::builder()
//!     .storage_budget(64 << 20)
//!     .deadline(Duration::from_secs(30))
//!     .session();
//! let outcome = session.run(&mut db, &monitor)?;
//! ```

use crate::candidates::try_generate_candidates;
use crate::driver::{AimConfig, AimOutcome, CreatedIndex};
use crate::error::AimError;
use crate::ledger::DecisionLedger;
use crate::ranking::{
    knapsack_select, knapsack_select_explained, try_rank_candidates_with, RankedCandidate,
};
use crate::validate::{try_validate_on_clone, RejectReason, ValidationConfig};
use aim_exec::ExecError;
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
use aim_storage::{Database, IndexDef, IoStats};
use aim_telemetry as tel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shareable cancellation handle. Cloning yields a handle to the *same*
/// flag, so a token obtained via [`TuningSession::cancel_token`] can cancel
/// a pass running on another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every [`RunCtl::check`] fails from now on.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Per-run control: the deadline and cancel token a pass threads through
/// its phases. Pipeline stages (and their parallel workers) call
/// [`RunCtl::check`] between queries.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl RunCtl {
    /// A control that never aborts — the legacy, un-deadlined behaviour.
    pub fn none() -> Self {
        Self::default()
    }

    /// Control with an optional cancel token and an optional absolute
    /// deadline.
    pub fn new(cancel: Option<CancelToken>, deadline: Option<Instant>) -> Self {
        Self { cancel, deadline }
    }

    /// Fails with [`AimError::Cancelled`] / [`AimError::DeadlineExceeded`]
    /// attributed to `phase` when the run should stop.
    pub fn check(&self, phase: &'static str) -> Result<(), AimError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(AimError::Cancelled { phase });
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(AimError::DeadlineExceeded { phase });
        }
        Ok(())
    }

    /// Time left until the deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Caps a backoff sleep so it cannot overshoot the deadline.
    fn cap_sleep(&self, want: Duration) -> Duration {
        match self.remaining() {
            Some(left) => want.min(left),
            None => want,
        }
    }
}

/// How transient (injected/infrastructure) failures are retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per phase, including the first (`1` = no retries).
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub initial_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// No retries: every transient failure is terminal.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            initial_backoff: Duration::ZERO,
        }
    }

    /// Exponential backoff before retry number `retry` (0-based), capped
    /// at 100× the initial backoff.
    fn backoff_for(&self, retry: usize) -> Duration {
        let factor = 1u32 << retry.min(16) as u32;
        (self.initial_backoff * factor).min(self.initial_backoff * 100)
    }
}

/// Builder for [`AimConfig`] (which is `#[non_exhaustive]` and cannot be
/// literal-constructed outside `aim-core`) and for the [`TuningSession`]
/// that runs it. Obtain via [`AimConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct AimConfigBuilder {
    cfg: AimConfig,
    deadline: Option<Duration>,
    retry: RetryPolicy,
}

impl AimConfigBuilder {
    /// Representative workload selection thresholds (§III-C).
    pub fn selection(mut self, selection: SelectionConfig) -> Self {
        self.cfg.selection = selection;
        self
    }

    /// Candidate generation parameters.
    pub fn candidate_gen(mut self, gen: crate::candidates::CandidateGenConfig) -> Self {
        self.cfg.candidate_gen = gen;
        self
    }

    /// Clone-validation thresholds (§VII-B).
    pub fn validation(mut self, validation: ValidationConfig) -> Self {
        self.cfg.validation = validation;
        self
    }

    /// Storage budget `B` in bytes for all secondary indexes.
    pub fn storage_budget(mut self, bytes: u64) -> Self {
        self.cfg.storage_budget = bytes;
        self
    }

    /// Skip clone validation (pure estimate mode).
    pub fn skip_validation(mut self, skip: bool) -> Self {
        self.cfg.skip_validation = skip;
        self
    }

    /// Sharding economics (§VIII-b): re-price candidates for a sharded
    /// deployment. The profile is a first-class config input — build it
    /// with the chainable [`ShardingProfile`](crate::sharding::ShardingProfile)
    /// setters and pass it here; omit the call for an unsharded database.
    pub fn sharding(mut self, profile: crate::sharding::ShardingProfile) -> Self {
        self.cfg.sharding = Some(profile);
        self
    }

    /// Worker threads for ranking and validation replay (`0` = auto).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Wall-clock budget per pass. A pass that exceeds it aborts with
    /// [`AimError::DeadlineExceeded`] and rolls back anything it
    /// materialized.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Retry policy for transient failures.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Record a per-candidate decision ledger (see
    /// [`crate::ledger::DecisionLedger`]). Off by default.
    pub fn ledger(mut self, record: bool) -> Self {
        self.cfg.record_ledger = record;
        self
    }

    /// Storage backend the production database is provisioned on
    /// ([`BackendSpec::Memory`](crate::backend::BackendSpec::Memory) by
    /// default). See
    /// [`TuningSession::provision_database`].
    pub fn backend(mut self, backend: crate::backend::BackendSpec) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Tenant label for dimensional telemetry: the whole pass runs under a
    /// [`aim_telemetry::scope`] with this tenant, so every instrument also
    /// records a `tenant="…"` labeled twin. Fleet sessions set this per
    /// tenant automatically.
    pub fn tenant(mut self, label: impl Into<String>) -> Self {
        self.cfg.tenant_label = Some(label.into());
        self
    }

    /// Finishes the configuration (for [`TuningSession::new`] or the
    /// advisor).
    pub fn build(self) -> AimConfig {
        self.cfg
    }

    /// Finishes into a ready-to-run [`TuningSession`].
    pub fn session(self) -> TuningSession {
        TuningSession {
            deadline: self.deadline,
            retry: self.retry,
            ..TuningSession::new(self.cfg)
        }
    }
}

/// A configured, resilient tuning pass. See the [module docs](self) for
/// the failure-handling contract; [`TuningSession::run`] executes one pass
/// and may be called repeatedly (continuous tuning reuses one session per
/// step).
#[derive(Debug, Clone)]
pub struct TuningSession {
    config: AimConfig,
    /// The execution engine used for validation replay.
    engine: aim_exec::Engine,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    cancel: CancelToken,
    /// Decision audit trail, shared across clones of this session (a
    /// continuous tuner and an introspection endpoint see one ledger).
    /// Only written when `AimConfig::record_ledger` is set.
    ledger: Arc<Mutex<DecisionLedger>>,
}

impl TuningSession {
    /// A session over `config` with no deadline and default retries.
    pub fn new(config: AimConfig) -> Self {
        Self {
            config,
            engine: aim_exec::Engine::new(),
            deadline: None,
            retry: RetryPolicy::default(),
            cancel: CancelToken::new(),
            ledger: Arc::new(Mutex::new(DecisionLedger::default())),
        }
    }

    /// The pass configuration.
    pub fn config(&self) -> &AimConfig {
        &self.config
    }

    /// Provisions the production database on the configured
    /// [`BackendSpec`](crate::backend::BackendSpec): a fresh in-memory
    /// instance, or a recovered disk-backed one (WAL replay, working-set
    /// load, re-ANALYZE). Injected storage faults surface as the
    /// retryable [`AimError::Fault`].
    pub fn provision_database(&self) -> Result<Database, AimError> {
        self.config.backend.provision().map_err(|e| {
            AimError::from_exec("provision", ExecError::Storage(e))
        })
    }

    /// The execution engine used for validation replay.
    pub fn engine(&self) -> &aim_exec::Engine {
        &self.engine
    }

    /// A handle that cancels any in-flight (or future) [`TuningSession::run`]
    /// on this session. Note: cloning the *session* clones the flag state
    /// at that point but shares nothing; cloning the *token* shares it.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces this session's cancellation token with a shared one, so
    /// an external controller (e.g. a [`FleetSession`](crate::fleet::FleetSession)
    /// fanning out many per-tenant sessions) can cancel them all with a
    /// single flag. After this call, [`TuningSession::cancel_token`]
    /// returns handles to the shared token.
    pub fn share_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Replaces the per-pass deadline.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Replaces the retry policy.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// A snapshot of the decision ledger (empty unless the session was
    /// built with [`AimConfigBuilder::ledger`]`(true)`).
    pub fn ledger(&self) -> DecisionLedger {
        self.lock_ledger().clone()
    }

    /// The ledger serialized as JSON — the `results/decision_ledger.json`
    /// artifact and the `/ledger` introspection payload.
    pub fn ledger_json(&self) -> String {
        self.lock_ledger().to_json()
    }

    fn lock_ledger(&self) -> std::sync::MutexGuard<'_, DecisionLedger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn recording(&self) -> bool {
        self.config.record_ledger
    }

    /// Applies `f` to the ledger iff recording is on — the single gate
    /// that keeps the disarmed pipeline allocation-free.
    fn with_ledger(&self, f: impl FnOnce(&mut DecisionLedger)) {
        if self.recording() {
            f(&mut self.lock_ledger());
        }
    }

    /// Appends a post-pass event (revert, GC drop) to `name`'s most
    /// recent ledger record. Used by the continuous tuner.
    pub(crate) fn ledger_annotate(&self, name: &str, table: &str, stage: &str, detail: String) {
        self.with_ledger(|l| l.annotate_latest(name, table, stage, detail));
    }

    /// Runs one resilient tuning pass against `db`, consuming the
    /// monitor's current observation window. On success, created indexes
    /// are materialized on `db`; on *any* error the pass's own indexes
    /// have been rolled back and `db` is exactly as consistent as before.
    pub fn run(
        &self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
    ) -> Result<AimOutcome, AimError> {
        let ctl = RunCtl::new(
            Some(self.cancel.clone()),
            self.deadline.map(|d| Instant::now() + d),
        );
        // A configured tenant label scopes the entire pass: every
        // instrument below also records a labeled twin. The scope carries
        // a `phase="tune"` label besides the tenant so the pass's own
        // validation replays never pollute the tenant's *pure* latency
        // series — the one the sentinel and SLO rules judge.
        let _tenant_scope = self
            .config()
            .tenant_label
            .as_deref()
            .map(|t| tel::metrics::scope_phase(t, "tune"));
        // The root span is the pass's single timing source: `elapsed()`
        // works whether or not telemetry is collecting.
        let root = tel::span("aim.tune");
        let mut outcome = AimOutcome::default();
        let mut created_defs: Vec<IndexDef> = Vec::new();

        match self.run_pass(db, monitor, &ctl, &mut outcome, &mut created_defs) {
            Ok(()) => {
                if outcome.degraded {
                    tel::metrics::DEGRADED_PASSES.incr();
                }
                self.finish_pass(db, &mut outcome, &root);
                Ok(outcome)
            }
            Err(e) => {
                // Transactional rollback: whatever this pass materialized
                // before failing is dropped again, so an aborted pass never
                // leaves a partial configuration.
                let rolled_back = created_defs.len();
                self.with_ledger(|l| {
                    for def in created_defs.iter() {
                        l.annotate_latest(
                            &def.name,
                            &def.table,
                            "rolled_back",
                            format!("pass aborted during {}: {e}", e.phase()),
                        );
                    }
                });
                for def in created_defs.drain(..) {
                    let _ = db.drop_index(&def.table, &def.name);
                }
                tel::metrics::PASSES_ABORTED.incr();
                if tel::is_enabled() {
                    tel::event(
                        tel::EventKind::PassAborted,
                        e.phase(),
                        format!("{e}; rolled back {rolled_back} indexes"),
                    );
                }
                Err(e)
            }
        }
    }

    /// The pass body. Indexes materialized so far are reported through
    /// `created_defs` so [`TuningSession::run`] can roll them back on error.
    fn run_pass(
        &self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
        ctl: &RunCtl,
        outcome: &mut AimOutcome,
        created_defs: &mut Vec<IndexDef>,
    ) -> Result<(), AimError> {
        let cfg = &self.config;
        let pass = if self.recording() {
            self.lock_ledger().begin_pass()
        } else {
            0
        };

        // 1. Representative workload selection.
        ctl.check("select_workload")?;
        let workload = {
            let _s = tel::span("select_workload");
            select_workload(monitor, &cfg.selection)
        };
        outcome.workload_size = workload.len();
        if workload.is_empty() {
            return Ok(());
        }

        // 2. Structural candidate generation. Statistics are refreshed
        //    only when data or schema actually drifted since the last
        //    ANALYZE — a clean pass skips the work (and the what-if cache
        //    churn a spurious re-ANALYZE can cause).
        let mut candidates = {
            let _s = tel::span("candidate_generation");
            if db.stats_dirty() {
                db.analyze_all();
            }
            try_generate_candidates(db, &workload, &cfg.candidate_gen, ctl)?
        };
        self.with_ledger(|l| {
            for c in &candidates {
                let sources: Vec<String> = c.sources.iter().map(|f| f.to_string()).collect();
                let detail = format!(
                    "partial orders merged from {} quer{}",
                    sources.len(),
                    if sources.len() == 1 { "y" } else { "ies" }
                );
                l.observe(pass, &c.name(), &c.table, &c.columns, sources, detail);
            }
        });
        // Drop candidates that an existing index already serves: identical
        // column lists, and any candidate that is a key-prefix of an
        // existing index on the same table.
        candidates.retain(|c| {
            let Ok(table) = db.table(&c.table) else {
                return false;
            };
            let serving = table.indexes().find(|ix| {
                ix.def().columns.len() >= c.columns.len()
                    && ix.def().columns[..c.columns.len()] == c.columns[..]
            });
            match serving {
                Some(ix) => {
                    let served_by = ix.def().name.clone();
                    self.with_ledger(|l| {
                        l.note(
                            pass,
                            &c.name(),
                            &c.table,
                            &c.columns,
                            "already_served",
                            format!("existing index {served_by} covers this key prefix"),
                        );
                    });
                    false
                }
                None => true,
            }
        });
        outcome.candidates_generated = candidates.len();

        // 3. Ranking + knapsack under the remaining budget. Retried on
        //    transient failure; after the first failed attempt the phase
        //    degrades to the sequential path (workers = 1), which both
        //    narrows the retry surface and keeps the output bit-identical
        //    (any worker count ranks identically).
        let mut ranked = {
            let _s = tel::span("ranking");
            let (ranked, attempts) =
                self.with_retry(ctl, "ranking", &mut outcome.retries, |attempt| {
                    let workers = if attempt == 0 { cfg.workers } else { 1 };
                    try_rank_candidates_with(
                        db,
                        &workload,
                        &candidates,
                        &self.engine.cost_model,
                        workers,
                        ctl,
                    )
                })?;
            if attempts > 0 {
                self.note_degraded(outcome, "ranking", "fell back to sequential ranking");
            }
            ranked
        };
        if let Some(profile) = &cfg.sharding {
            profile.apply(&mut ranked);
        }
        self.with_ledger(|l| {
            for r in &ranked {
                l.note_ranked(
                    pass,
                    &r.candidate.name(),
                    &r.candidate.table,
                    &r.candidate.columns,
                    (r.benefit, r.maintenance, r.size_bytes),
                );
            }
        });
        let shard_mult = cfg.sharding.as_ref().map_or(1, |p| p.shard_count);
        let used = db.total_secondary_index_bytes().saturating_mul(shard_mult);
        ctl.check("knapsack")?;
        let chosen = {
            let _s = tel::span("knapsack");
            if self.recording() {
                let (chosen, decisions) =
                    knapsack_select_explained(&ranked, cfg.storage_budget, used);
                self.with_ledger(|l| {
                    for (d, r) in decisions.iter().zip(&ranked) {
                        debug_assert_eq!(d.name, r.candidate.name());
                        let stage = if d.accepted {
                            "knapsack_accepted"
                        } else {
                            "knapsack_rejected"
                        };
                        l.note(
                            pass,
                            &d.name,
                            &r.candidate.table,
                            &r.candidate.columns,
                            stage,
                            d.reason.clone(),
                        );
                    }
                });
                chosen
            } else {
                knapsack_select(&ranked, cfg.storage_budget, used)
            }
        };
        if chosen.is_empty() {
            return Ok(());
        }

        // 4. Clone validation ("no regression" guarantee). The degradation
        //    ladder: attempt 1 falls back to sequential replay, attempt 2+
        //    additionally shrinks the sampled test bed — a smaller clone
        //    stresses the failing infrastructure less.
        let accepted: Vec<RankedCandidate> = if cfg.skip_validation {
            self.with_ledger(|l| {
                for r in &chosen {
                    l.note(
                        pass,
                        &r.candidate.name(),
                        &r.candidate.table,
                        &r.candidate.columns,
                        "validation_skipped",
                        "skip_validation set: estimate-only mode".to_string(),
                    );
                }
            });
            chosen
        } else {
            let _s = tel::span("validation");
            let mut base_vcfg = cfg.validation.clone();
            if base_vcfg.workers == 0 {
                base_vcfg.workers = cfg.workers;
            }
            let (result, attempts) =
                self.with_retry(ctl, "validation", &mut outcome.retries, |attempt| {
                    let mut vcfg = base_vcfg.clone();
                    if attempt >= 1 {
                        vcfg.workers = 1;
                    }
                    if attempt >= 2 {
                        let shrunk = vcfg.sample_fraction.unwrap_or(1.0) * 0.5;
                        vcfg.sample_fraction = Some(shrunk.max(0.1));
                    }
                    try_validate_on_clone(db, &workload, &chosen, &self.engine, &vcfg, ctl)
                })?;
            if attempts > 0 {
                self.note_degraded(
                    outcome,
                    "validation",
                    "fell back to sequential replay / shrunken sample",
                );
            }
            for (r, reason) in result.rejected {
                let reason = reject_text(&reason);
                tel::metrics::INDEXES_REJECTED.incr();
                tel::event(tel::EventKind::IndexRejected, r.candidate.name(), reason.clone());
                self.with_ledger(|l| {
                    l.note(
                        pass,
                        &r.candidate.name(),
                        &r.candidate.table,
                        &r.candidate.columns,
                        "validation_rejected",
                        reason.clone(),
                    );
                });
                outcome.rejected.push((r.candidate.name(), reason));
            }
            self.with_ledger(|l| {
                for r in &result.accepted {
                    l.note(
                        pass,
                        &r.candidate.name(),
                        &r.candidate.table,
                        &r.candidate.columns,
                        "validation_accepted",
                        "clone replay confirmed improvement with no regression".to_string(),
                    );
                }
            });
            result.accepted
        };

        // 5. Materialize on production. Each build is retried on transient
        //    failure; a build that stays down aborts the pass (and the
        //    caller rolls back `created_defs`) rather than shipping a
        //    partial change set.
        let _s = tel::span("materialize");
        let mut io = IoStats::new();
        for r in accepted {
            ctl.check("materialize")?;
            let def = IndexDef::new(
                r.candidate.name(),
                r.candidate.table.clone(),
                r.candidate.columns.clone(),
            );
            let (build, _) =
                self.with_retry(ctl, "materialize", &mut outcome.retries, |_| {
                    match db.create_index(def.clone(), &mut io) {
                        Ok(()) => Ok(Ok(())),
                        Err(e) if e.is_injected() => {
                            Err(AimError::from_exec("materialize", ExecError::Storage(e)))
                        }
                        // Deterministic build failures (duplicate columns
                        // etc.) reject the candidate, not the pass.
                        Err(e) => Ok(Err(e)),
                    }
                })?;
            match build {
                Ok(()) => {
                    created_defs.push(def.clone());
                    self.with_ledger(|l| {
                        l.note(
                            pass,
                            &def.name,
                            &def.table,
                            &def.columns,
                            "materialized",
                            format!(
                                "built on production: benefit {:.1}, maintenance {:.1}, \
                                 {} bytes",
                                r.benefit, r.maintenance, r.size_bytes
                            ),
                        );
                    });
                    tel::metrics::INDEXES_CREATED.incr();
                    tel::event(
                        tel::EventKind::IndexAccepted,
                        &def.name,
                        format!(
                            "benefit {:.1}, maintenance {:.1}, {} bytes",
                            r.benefit, r.maintenance, r.size_bytes
                        ),
                    );
                    outcome.created.push(CreatedIndex {
                        explanation: r.explanation(),
                        benefit: r.benefit,
                        maintenance: r.maintenance,
                        size_bytes: r.size_bytes,
                        def,
                    });
                }
                Err(e) => {
                    tel::metrics::INDEXES_REJECTED.incr();
                    tel::event(tel::EventKind::IndexRejected, &def.name, e.to_string());
                    self.with_ledger(|l| {
                        l.note(
                            pass,
                            &def.name,
                            &def.table,
                            &def.columns,
                            "build_rejected",
                            format!("index build failed deterministically: {e}"),
                        );
                    });
                    outcome.rejected.push((def.name, e.to_string()));
                }
            }
        }
        if db.stats_dirty() {
            db.analyze_all();
        }
        Ok(())
    }

    /// Runs `f` under the session's retry policy: transient errors retry
    /// with deadline-capped exponential backoff, everything else (and
    /// exhaustion) propagates. Returns the value plus the number of
    /// retries that were needed.
    fn with_retry<T>(
        &self,
        ctl: &RunCtl,
        phase: &'static str,
        retries: &mut u64,
        mut f: impl FnMut(usize) -> Result<T, AimError>,
    ) -> Result<(T, usize), AimError> {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            ctl.check(phase)?;
            match f(attempt) {
                Ok(v) => return Ok((v, attempt)),
                Err(e) if e.is_retryable() && attempt + 1 < max_attempts => {
                    *retries += 1;
                    tel::metrics::TUNING_RETRIES.incr();
                    if tel::is_enabled() {
                        tel::event(tel::EventKind::PhaseRetried, phase, e.to_string());
                    }
                    let backoff = ctl.cap_sleep(self.retry.backoff_for(attempt));
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Marks the pass degraded (once) and journals why.
    fn note_degraded(&self, outcome: &mut AimOutcome, phase: &'static str, how: &str) {
        outcome.degraded = true;
        if tel::is_enabled() {
            tel::event(tel::EventKind::PassDegraded, phase, how);
        }
    }

    /// Common pass epilogue: record wall time, the pass-summary event, and
    /// the post-pass index footprint gauge.
    fn finish_pass(&self, db: &Database, outcome: &mut AimOutcome, root: &tel::SpanGuard) {
        outcome.elapsed = root.elapsed();
        tel::metrics::gauge_set(
            "db.secondary_index_bytes",
            db.total_secondary_index_bytes() as i64,
        );
        if tel::is_enabled() {
            tel::event(
                tel::EventKind::TuningPass,
                "aim.tune",
                format!(
                    "workload {}, candidates {}, created {}, rejected {}, \
                     retries {}, degraded {}, {:.1} ms",
                    outcome.workload_size,
                    outcome.candidates_generated,
                    outcome.created.len(),
                    outcome.rejected.len(),
                    outcome.retries,
                    outcome.degraded,
                    outcome.elapsed.as_secs_f64() * 1e3
                ),
            );
        }
    }
}

/// Human-readable text for a validation reject reason.
pub(crate) fn reject_text(reason: &RejectReason) -> String {
    match reason {
        RejectReason::Unused => "optimizer never used the index during replay".to_string(),
        RejectReason::Regression {
            query,
            before,
            after,
        } => format!("query {query} regressed: {before:.1} -> {after:.1} cost units"),
        RejectReason::Unbuildable(msg) => format!("not materializable: {msg}"),
        RejectReason::NoImprovement => {
            "no query improved measurably during replay (Eq. 3)".to_string()
        }
        RejectReason::TotalCostRegression { before, after } => format!(
            "total workload cost regressed: {before:.1} -> {after:.1} (Eq. 2)"
        ),
        RejectReason::RoundsExhausted => {
            "validation rounds exhausted before a clean pass".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn ctl_checks_deadline_and_cancel() {
        let ok = RunCtl::none();
        assert!(ok.check("x").is_ok());
        assert_eq!(ok.remaining(), None);

        let expired = RunCtl::new(None, Some(Instant::now() - Duration::from_millis(1)));
        assert!(matches!(
            expired.check("ranking"),
            Err(AimError::DeadlineExceeded { phase: "ranking" })
        ));
        assert_eq!(expired.remaining(), Some(Duration::ZERO));

        let token = CancelToken::new();
        let ctl = RunCtl::new(Some(token.clone()), None);
        assert!(ctl.check("x").is_ok());
        token.cancel();
        assert!(matches!(ctl.check("v"), Err(AimError::Cancelled { phase: "v" })));
    }

    #[test]
    fn backoff_grows_and_is_deadline_capped() {
        let p = RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(4),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(4));
        assert_eq!(p.backoff_for(1), Duration::from_millis(8));
        assert_eq!(p.backoff_for(2), Duration::from_millis(16));
        let ctl = RunCtl::new(None, Some(Instant::now() + Duration::from_millis(2)));
        assert!(ctl.cap_sleep(Duration::from_secs(1)) <= Duration::from_millis(2));
    }

    #[test]
    fn builder_builds_config_and_session() {
        let cfg = AimConfig::builder()
            .storage_budget(1234)
            .skip_validation(true)
            .workers(2)
            .build();
        assert_eq!(cfg.storage_budget, 1234);
        assert!(cfg.skip_validation);
        assert_eq!(cfg.workers, 2);

        let session = AimConfig::builder()
            .deadline(Duration::from_secs(5))
            .retry(RetryPolicy::none())
            .session();
        assert_eq!(session.retry.max_attempts, 1);
        assert_eq!(session.deadline, Some(Duration::from_secs(5)));
    }

    #[test]
    fn with_retry_retries_transient_and_fails_fast_on_deterministic() {
        let session = AimConfig::builder()
            .retry(RetryPolicy {
                max_attempts: 3,
                initial_backoff: Duration::ZERO,
            })
            .session();
        let ctl = RunCtl::none();
        let mut retries = 0u64;

        // Transient failures retry until they succeed.
        let mut calls = 0;
        let (v, attempts) = session
            .with_retry(&ctl, "t", &mut retries, |_| {
                calls += 1;
                if calls < 3 {
                    Err(AimError::Fault { phase: "t", site: "s".into() })
                } else {
                    Ok(42)
                }
            })
            .unwrap();
        assert_eq!((v, attempts, retries), (42, 2, 2));

        // Deterministic failures do not retry.
        let mut calls = 0;
        let err = session
            .with_retry(&ctl, "t", &mut retries, |_| -> Result<(), AimError> {
                calls += 1;
                Err(AimError::Exec {
                    phase: "t",
                    source: ExecError::Binding("nope".into()),
                })
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert!(!err.is_retryable());

        // Exhaustion propagates the transient error.
        let mut calls = 0;
        let err = session
            .with_retry(&ctl, "t", &mut retries, |_| -> Result<(), AimError> {
                calls += 1;
                Err(AimError::Fault { phase: "t", site: "s".into() })
            })
            .unwrap_err();
        assert_eq!(calls, 3);
        assert!(err.is_retryable());
    }
}
